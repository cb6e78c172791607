"""Exhaustive generation of alternating dimaps with k edges, up to
orientation-preserving unlabeled isomorphism.

Every vertex rotation alternates out-darts and in-darts, so every map is
isomorphic to one built from a rotation template for its partition of
out-degrees plus a wiring that sends each out-slot to an in-slot.  The
generator lays out one template per partition of k, tries every wiring
(k! per partition) and keeps one representative per canonical form.
Disconnected maps fall out of the same wirings.  The tests check the
catalog sizes against the closed form sum over partitions lambda of k of
z_lambda (Burnside's count of permutation pairs up to simultaneous
conjugation) and against an independent dart-pairing generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .altmap import (
    AlternatingDimap,
    Edge,
    canonical_form,
    components,
    genus,
    is_valid,
    isomorphic,
    total_genus,
    trial,
)
from .errors import CapExceeded

DEFAULT_CAP = 4


@dataclass(frozen=True)
class Catalog:
    k: int
    maps: tuple[AlternatingDimap, ...]

    def summary(self) -> dict[tuple[int, tuple[int, ...], bool], int]:
        """Counts keyed by (component count, sorted genus profile, self-trial)."""
        out: dict[tuple[int, tuple[int, ...], bool], int] = {}
        for g in self.maps:
            comps = components(g)
            profile = tuple(sorted(genus(g, c) for c in comps))
            key = (len(comps), profile, isomorphic(trial(g)[0], g))
            out[key] = out.get(key, 0) + 1
        return out


def generate_rotation_first(k: int) -> list[AlternatingDimap]:
    """All k-edge maps (with duplicates) from fixed degree shapes, free wiring."""
    maps = []
    for shape in _partitions(k):
        # Vertex j has shape[j] out-slots interleaved with in-slots.
        tails: list[int] = []
        rotations_template = []
        dart = 0
        slots_in: list[int] = []
        for d in shape:
            rot = []
            for _ in range(d):
                rot.append(dart)      # out slot
                tails.append(dart)
                rot.append(dart + 1)  # in slot
                slots_in.append(dart + 1)
                dart += 2
            rotations_template.append(tuple(rot))
        for heads in itertools.permutations(slots_in):
            edges = tuple(Edge(f"e{i}", tails[i], heads[i]) for i in range(k))
            maps.append(AlternatingDimap(edges, tuple(rotations_template)))
    return maps


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _dedupe(maps) -> tuple[AlternatingDimap, ...]:
    seen = {}
    for g in maps:
        seen.setdefault(canonical_form(g), g)
    return tuple(seen[key] for key in sorted(seen))


def enumerate_dimaps(k: int, cap: int = DEFAULT_CAP) -> Catalog:
    """Catalog of all k-edge alternating dimaps up to isomorphism."""
    if k > cap:
        raise CapExceeded(f"k = {k} above cap {cap}")
    if k == 0:
        return Catalog(0, (AlternatingDimap((), ()),))
    return Catalog(k, _dedupe(generate_rotation_first(k)))


def self_trial_members(catalog: Catalog) -> list[AlternatingDimap]:
    return [g for g in catalog.maps if isomorphic(trial(g)[0], g)]


def random_dimap(k: int, rng) -> AlternatingDimap:
    """A random valid k-edge map; alternation holds by construction."""
    if k == 0:
        return AlternatingDimap((), ())
    edges = []
    tails = list(rng.permutation(range(k)))
    heads = list(rng.permutation(range(k)))
    for i in range(k):
        edges.append(Edge(f"e{i}", 2 * i, 2 * i + 1))
    # Random composition of k into vertex out-degrees.
    remaining = k
    rotations = []
    ti = hi = 0
    while remaining:
        d = int(rng.integers(1, remaining + 1))
        rot = []
        for _ in range(d):
            rot.append(2 * tails[ti])
            rot.append(2 * heads[hi] + 1)
            ti += 1
            hi += 1
        rotations.append(tuple(rot))
        remaining -= d
    g = AlternatingDimap(tuple(edges), tuple(rotations))
    assert is_valid(g)
    return g


__all__ = [
    "Catalog",
    "DEFAULT_CAP",
    "enumerate_dimaps",
    "generate_rotation_first",
    "random_dimap",
    "self_trial_members",
    "total_genus",
]
