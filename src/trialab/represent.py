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
    M(mu), which ``transforms.eigenvector`` checks at w.

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
        if not _aligned(candidate, target, trial_g, transform(f, OMEGA), positions, DEFAULT_TOL):
            report.triality.append(
                f"member {idx}: no isomorphism matches the trinity transform")

    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        for lab in g.labels():
            pos = emap[lab]
            # The reduction keeps the other labels; their positions close the gap.
            positions = {other: p - (p > pos) for other, p in emap.items() if other != lab}
            for kind in ALL_KINDS:
                reduced = reduce_edge(g, lab, kind)
                target = member_of.get(canonical_form(reduced))
                if target is None:
                    raise NotMinorClosed(
                        f"member {idx}: reduction {kind.token} of {lab!r} leaves the class")
                lhs = raw_minors(f.values, pos, candidate.nu * kind.complex_value)
                if not _aligned(candidate, target, reduced, lhs, positions, DEFAULT_TOL):
                    report.minor_compat.append(
                        f"member {idx}: edge {lab!r}, reduction {kind.token} has no match")
    return report


def _aligned(candidate: RepresentationCandidate, target: int, source: AlternatingDimap,
             lhs, positions: dict[str, int], tol: float) -> bool:
    """Whether some isomorphism from source onto member target pulls that
    member's image back to a function proportional to lhs; positions maps
    each edge label of source to its element position in lhs."""
    fh, emap_h = candidate.images[target], candidate.edge_maps[target]
    for iso in isomorphisms(source, candidate.members[target]):
        pos_map = {positions[lab]: emap_h[iso[lab]] for lab in positions}
        if proportional(lhs, _pullback(fh.values, fh.m, pos_map), tol):
            return True
    return False
