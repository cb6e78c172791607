"""Strict binary representations of minor-closed dimap classes.

A candidate assigns to every member G of a finite, reduction-closed class a
binary function F(G), a bijection from edges of G onto ground-set elements
of F(G), and a unit phase nu.  The checker verifies, witness by witness:

  (a) every member has an image,
  (b) the edge maps are bijections onto element positions,
  (c) |nu| = 1,
  (d) the image of the trial of G is proportional to the trinity transform
      of the image of G,
  (e) the image of each reduction of G is proportional to the matching
      minor of the image, taken with parameter nu * mu.

Members are matched up to isomorphism via canonical forms, and a condition
passes when any isomorphism aligns the two sides; the class is treated as
abstract, so the choice of representative carries no meaning.

Condition (e) is decided once per member and edge.  The three kinds'
minors come from one stacked `raw_minors` call.  The reductions are
grouped by labeled equality with the 1-reduction, at most two comparisons,
so a degenerate edge, whose three reductions coincide, gives one group.
Each group is canonicalised once and its isomorphisms onto the matching
member are walked once, each pulling the member's image back once and
testing every kind of the group not yet matched.  Labeled-equal reductions
have the same isomorphisms and element positions, so the witnesses are
those of one walk per kind, in the same order.

The canonical family assigns to the i-fold ultraloop stack the i-th tensor
power of (1, sqrt(2)-1), the fixed vector of the trinity generator, which
`ultraloop_image` returns in closed form.  Condition (d) asks only for
proportionality, so the one-edge image is fixed only up to the choice of an
eigenline of M(w): the tensor powers of (1, -(sqrt(2)+1)), the eigenvector
for the eigenvalue w, pass the checker as well.  The whole-claim sweeps
built on this checker live in `verify`, and check the first family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import binfun
from .altmap import (
    AlternatingDimap,
    canonical_form,
    isomorphisms,
    labeled_equal,
    trial,
    ultraloop_stack,
)
from .binfun import BinaryFunction, DEFAULT_TOL, proportional, tensor_power
from .errors import NotMinorClosed
from .minor import raw_minors
from .reductions import ALL_KINDS, reduce_edge
from .transform import OMEGA, ULOOP_RATIO, transform


@dataclass(frozen=True)
class RepresentationCandidate:
    members: tuple[AlternatingDimap, ...]
    images: tuple[BinaryFunction, ...]
    edge_maps: tuple[dict, ...]  # per member: edge label -> element position
    nu: complex


@dataclass
class CheckReport:
    """Witnesses of each condition's failures; a condition holds when it has none."""

    totality: list[str] = field(default_factory=list)
    edge_bijections: list[str] = field(default_factory=list)
    unit_phase: list[str] = field(default_factory=list)
    triality: list[str] = field(default_factory=list)
    minor_compat: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not (self.totality or self.edge_bijections or self.unit_phase
                    or self.triality or self.minor_compat)


def ultraloop_image() -> BinaryFunction:
    """The ultraloop's image (1, sqrt(2)-1): the fixed vector of every
    M(mu), the first column of the eigenbasis that
    ``transforms.eigenvector`` checks at five parameters.

    It is forced only up to the choice of an eigenline of M(w).  Triality
    asks for proportionality alone, so (1, -(sqrt(2)+1)), the eigenvector
    for the eigenvalue w, serves as well: its tensor powers also pass
    :func:`check_representation`.  This function returns the first choice.
    """
    return binfun.make(1, [1.0, ULOOP_RATIO])


def canonical_class(k: int) -> RepresentationCandidate:
    """The stacks of up to k ultraloops with tensor-power images, at nu = 1."""
    base = ultraloop_image()
    members = []
    images = []
    edge_maps = []
    for i in range(k + 1):
        g = ultraloop_stack(i)
        members.append(g)
        images.append(tensor_power(base, i))
        edge_maps.append({lab: pos for pos, lab in enumerate(g.labels())})
    return RepresentationCandidate(tuple(members), tuple(images),
                                   tuple(edge_maps), 1.0 + 0j)


def _pullback(values: np.ndarray, m: int, position_map: dict[int, int]) -> np.ndarray:
    """Vector with entry at X equal to values at {position_map(i) : i in X}."""
    axes = [position_map[i] for i in range(m)]
    return np.transpose(values.reshape((2,) * m), axes).flatten()


def check_representation(candidate: RepresentationCandidate) -> CheckReport:
    """The witnesses of conditions (a)-(e), each compared at DEFAULT_TOL."""
    report = CheckReport()
    members, images, edge_maps = candidate.members, candidate.images, candidate.edge_maps

    if not (len(members) == len(images) == len(edge_maps)):
        report.totality.append(
            f"{len(members)} members but {len(images)} images, {len(edge_maps)} edge maps")
        return report
    for idx, (g, f) in enumerate(zip(members, images)):
        if not isinstance(f, BinaryFunction):
            report.totality.append(f"member {idx} has no binary-function image")
    if report.totality:
        return report

    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        labels = set(g.labels())
        if set(emap) != labels or sorted(emap.values()) != list(range(f.m)) \
                or f.m != g.n_edges():
            report.edge_bijections.append(
                f"member {idx}: edge map is not a bijection onto 0..{f.m - 1}")

    # Written so that a NaN phase fails too.
    if not abs(abs(candidate.nu) - 1.0) <= DEFAULT_TOL:
        report.unit_phase.append(f"|nu| = {abs(candidate.nu)} differs from 1")

    if not report.passed:
        return report

    member_of: dict[tuple, int] = {}
    for idx, g in enumerate(members):
        member_of.setdefault(canonical_form(g), idx)

    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        trial_g, edge_map = trial(g)
        target = member_of.get(canonical_form(trial_g))
        if target is None:
            report.triality.append(f"member {idx}: trial image leaves the class")
            continue
        positions = {edge_map[lab]: pos for lab, pos in emap.items()}
        if not _aligned(candidate, target, trial_g, [transform(f, OMEGA)], positions)[0]:
            report.triality.append(
                f"member {idx}: no isomorphism matches the trinity transform")

    mus = np.array([candidate.nu * kind.complex_value for kind in ALL_KINDS])
    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        for lab in g.labels():
            pos = emap[lab]
            # The reduction keeps the other labels; their positions close the gap.
            positions = {other: p - (p > pos) for other, p in emap.items() if other != lab}
            lhs = raw_minors(f.values, pos, mus)  # one row per kind
            reduced = [reduce_edge(g, lab, kind) for kind in ALL_KINDS]
            # Labeled-equal reductions share their isomorphisms and positions,
            # so one alignment serves each kind whose reduction equals the
            # 1-reduction; any other kind has its own.
            groups = [[0]]
            for i in range(1, len(ALL_KINDS)):
                if labeled_equal(reduced[0], reduced[i]):
                    groups[0].append(i)
                else:
                    groups.append([i])
            matched = [False] * len(ALL_KINDS)
            for group in groups:
                source = reduced[group[0]]
                target = member_of.get(canonical_form(source))
                if target is None:
                    raise NotMinorClosed(f"member {idx}: reduction "
                                         f"{ALL_KINDS[group[0]].token} of {lab!r} leaves the class")
                found = _aligned(candidate, target, source, [lhs[i] for i in group], positions)
                for i, ok in zip(group, found):
                    matched[i] = ok
            for kind, ok in zip(ALL_KINDS, matched):
                if not ok:
                    report.minor_compat.append(
                        f"member {idx}: edge {lab!r}, reduction {kind.token} has no match")
    return report


def _aligned(candidate: RepresentationCandidate, target: int, source: AlternatingDimap,
             lhss: list, positions: dict[str, int]) -> list[bool]:
    """For each function in lhss, whether some isomorphism from source onto
    member target pulls that member's image back to a function proportional
    to it at DEFAULT_TOL; positions maps each edge label of source to its
    element position in every lhs.  Each isomorphism's pullback is built
    once and tested against every lhs not yet matched, and the walk stops
    when all are."""
    fh, emap_h = candidate.images[target], candidate.edge_maps[target]
    found = [False] * len(lhss)
    for iso in isomorphisms(source, candidate.members[target]):
        pos_map = {positions[lab]: emap_h[iso[lab]] for lab in positions}
        pulled = _pullback(fh.values, fh.m, pos_map)
        for i, lhs in enumerate(lhss):
            if not found[i] and proportional(lhs, pulled):
                found[i] = True
        if all(found):
            break
    return found
