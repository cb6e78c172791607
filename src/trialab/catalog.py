"""Exhaustive generation of alternating dimaps with k edges, up to
orientation-preserving unlabeled isomorphism, for k up to DEFAULT_CAP = 7.

Every vertex rotation alternates out-darts and in-darts, so every map is
isomorphic to one built from a rotation template for its partition lambda
of out-degrees plus a wiring pi that sends each out-slot to an in-slot.
On successor permutations that map is the pair (ls, rs) = (sigma o pi, pi),
where sigma is the template's slot-successor permutation.  Two wirings of
one template give isomorphic maps exactly when pi' = h pi h^-1 for some h
in the centraliser C(sigma), and two templates never do, since lambda is
an invariant.  So the generator walks lambda and, per template, the
wirings in lexicographic order (an orbit walk: Read, "Every one a winner",
1978; McKay, "Isomorph-free exhaustive generation", 1998).  At each wiring
not yet seen it marks the wiring's whole C(sigma) orbit as seen, takes the
canonical_form of the map made from its pair, and builds that map's darts
from the template.  Each class is thereby canonicalised once, and its
representative is its lexicographically first wiring.  C(sigma) is built
from sigma's cycles: rotations within each cycle, times permutations of
the cycles of equal length, z_lambda elements in all.  A form reached by
two orbits means the centraliser is wrong, and raises
InternalInvariantViolation.  Disconnected maps fall out of the same
wirings.  The forms collected are Catalog.forms, and Catalog.maps is
sorted by them.
The tests check the catalog sizes against the closed form sum over
partitions lambda of k of z_lambda (Burnside's count of permutation pairs
up to simultaneous conjugation), the connected and self-trial counts
against their closed forms, and the classes against an independent
dart-pairing generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

import numpy as np

from .altmap import (
    AlternatingDimap,
    Edge,
    _from_pair,
    canonical_form,
    is_valid,
    trial,
)
from .errors import CapExceeded, InternalInvariantViolation

DEFAULT_CAP = 7


@dataclass(frozen=True)
class Catalog:
    """The maps sorted by canonical form; forms[i] is canonical_form(maps[i])."""

    k: int
    maps: tuple[AlternatingDimap, ...]
    forms: tuple[tuple, ...]


def _partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return out


def _template(shape: tuple[int, ...]) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Slot-successor permutation and rotations of a partition's template.

    Vertex j has shape[j] consecutive slots; slot a holds out-dart 2a
    followed clockwise by in-dart 2a + 1.
    """
    sigma: list[int] = []
    rotations = []
    slot = 0
    for d in shape:
        sigma += list(range(slot + 1, slot + d)) + [slot]
        rotations.append(tuple(range(2 * slot, 2 * (slot + d))))
        slot += d
    return sigma, tuple(rotations)


def _centraliser(shape: tuple[int, ...]) -> np.ndarray:
    """The permutations that commute with the template's sigma, one per row.

    Each is a rotation within every cycle of sigma followed by a
    permutation of the cycles of equal length: z_lambda rows in all.
    """
    k = sum(shape)
    lengths = np.array(shape, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    cycle = np.repeat(np.arange(len(shape)), lengths)  # each slot's cycle
    offset = np.arange(k) - starts[cycle]
    shifts = np.array(list(itertools.product(*map(range, shape))), dtype=np.intp)
    rotations = starts[cycle] + (offset + shifts[:, cycle]) % lengths[cycle]
    groups = [[c for c, d in enumerate(shape) if d == length] for length in sorted(set(shape))]
    moves = []
    for images in itertools.product(*map(itertools.permutations, groups)):
        to = dict(zip(itertools.chain(*groups), itertools.chain(*images)))
        moves.append(starts[[to[c] for c in cycle]] + offset)
    return np.array(moves, dtype=np.intp)[:, rotations].reshape(len(moves) * len(rotations), k)


def enumerate_dimaps(k: int, cap: int = DEFAULT_CAP) -> Catalog:
    """Catalog of all k-edge alternating dimaps up to isomorphism."""
    if not 0 <= k <= cap:
        raise CapExceeded(f"k = {k} outside 0..{cap}")
    firsts = {}
    labels = tuple(f"e{i}" for i in range(k))
    wirings = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
    wirings = wirings.reshape(factorial(k), k)
    place = k ** np.arange(k)  # a wiring's code is its base-k number
    for shape in _partitions(k):
        sigma, rotations = _template(shape)
        centraliser = _centraliser(shape)
        orbit = np.empty_like(centraliser)
        seen = np.zeros(k ** k, dtype=bool)
        for wiring, code in zip(wirings, wirings.dot(place).tolist()):
            if seen[code]:
                continue
            # The orbit {h pi h^-1}: row h sends slot h(i) to h(pi(i)).
            np.put_along_axis(orbit, centraliser, centraliser[:, wiring], axis=1)
            seen[orbit.dot(place)] = True
            wiring = wiring.tolist()
            # Out-slot i wired to in-slot pi(i) gives (ls, rs) = (sigma o pi, pi).
            form = canonical_form(_from_pair(labels, [sigma[w] for w in wiring], wiring))
            if form in firsts:
                raise InternalInvariantViolation(
                    f"two orbits of wirings of template {shape} reach one canonical form: "
                    f"the centraliser of its slot successor is incomplete")
            edges = tuple(Edge(labels[i], 2 * i, 2 * w + 1) for i, w in enumerate(wiring))
            firsts[form] = AlternatingDimap(edges, rotations)
    forms = tuple(sorted(firsts))
    return Catalog(k, tuple(firsts[form] for form in forms), forms)


def self_trial_members(catalog: Catalog) -> list[AlternatingDimap]:
    return [g for g, form in zip(catalog.maps, catalog.forms)
            if canonical_form(trial(g)[0]) == form]


def random_dimap(k: int, rng) -> AlternatingDimap:
    """A random valid k-edge map; alternation holds by construction."""
    if k == 0:
        return AlternatingDimap((), ())
    edges = []
    tails = rng.permutation(range(k)).tolist()  # ints, not numpy scalars
    heads = rng.permutation(range(k)).tolist()
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
    if not is_valid(g):
        raise InternalInvariantViolation(f"random_dimap built an invalid map {g!r}")
    return g


__all__ = [
    "Catalog",
    "DEFAULT_CAP",
    "enumerate_dimaps",
    "random_dimap",
    "self_trial_members",
]
