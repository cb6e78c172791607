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
power of (1, sqrt(2)-1), the fixed vector of the trinity generator.  The
module also houses the supporting checks used by the verification suites:
the eigenvector solve, uniqueness of the tensor-power lift, and the
characterization of maps whose every reduction collapses to ultraloops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import binfun
from .altmap import (
    AlternatingDimap,
    canonical_form,
    isomorphic,
    isomorphisms,
    k_copies,
    trial,
    ultraloop,
)
from .binfun import BinaryFunction, DEFAULT_TOL, proportional, tensor_power
from .catalog import enumerate_dimaps
from .errors import NotMinorClosed
from .minor import take_minor, take_minor_raw, MinorSpec
from .reductions import ALL_KINDS, reduce_edge
from .transform import OMEGA, ULOOP_RATIO, m_matrix, self_trial, transform


@dataclass(frozen=True)
class RepresentationCandidate:
    members: tuple[AlternatingDimap, ...]
    images: tuple[BinaryFunction, ...]
    edge_maps: tuple[dict, ...]  # per member: edge label -> element position
    nu: complex


@dataclass
class ConditionReport:
    passed: bool = True
    witnesses: list[str] = field(default_factory=list)

    def fail(self, witness: str) -> None:
        self.passed = False
        self.witnesses.append(witness)


@dataclass
class CheckReport:
    totality: ConditionReport
    edge_bijections: ConditionReport
    unit_phase: ConditionReport
    triality: ConditionReport
    minor_compat: ConditionReport

    @property
    def passed(self) -> bool:
        return all(c.passed for c in (self.totality, self.edge_bijections,
                                      self.unit_phase, self.triality,
                                      self.minor_compat))


def ultraloop_image() -> BinaryFunction:
    """The binary function forced on the ultraloop: the unique fixed vector.

    Solved numerically from the trinity generator; the eigenvalue-1
    eigenvector, scaled to empty-set entry 1, must be (1, sqrt(2)-1).
    """
    eigvals, eigvecs = np.linalg.eig(m_matrix(OMEGA).entries)
    which = int(np.argmin(np.abs(eigvals - 1.0)))
    v = eigvecs[:, which]
    v = v / v[0]
    assert np.max(np.abs(v - np.array([1.0, ULOOP_RATIO]))) <= 1e-12
    return binfun.make(1, v)


def canonical_class(k: int, nu: complex = 1.0) -> RepresentationCandidate:
    """The stacks of up to k ultraloops with tensor-power images."""
    base = ultraloop_image()
    members = []
    images = []
    edge_maps = []
    for i in range(k + 1):
        g = k_copies(ultraloop(), i)
        members.append(g)
        images.append(tensor_power(base, i))
        edge_maps.append({lab: pos for pos, lab in enumerate(sorted(g.labels()))})
    return RepresentationCandidate(tuple(members), tuple(images),
                                   tuple(edge_maps), complex(nu))


def _pullback(values: np.ndarray, m: int, position_map: dict[int, int]) -> np.ndarray:
    """Vector with entry at X equal to values at {position_map(i) : i in X}."""
    axes = [position_map[i] for i in range(m)]
    return np.transpose(values.reshape((2,) * m), axes).flatten()


def check_representation(candidate: RepresentationCandidate,
                         tol: float = DEFAULT_TOL) -> CheckReport:
    report = CheckReport(ConditionReport(), ConditionReport(), ConditionReport(),
                         ConditionReport(), ConditionReport())
    members, images, edge_maps = candidate.members, candidate.images, candidate.edge_maps

    if not (len(members) == len(images) == len(edge_maps)):
        report.totality.fail(
            f"{len(members)} members but {len(images)} images, {len(edge_maps)} edge maps")
        return report
    for idx, (g, f) in enumerate(zip(members, images)):
        if not isinstance(f, BinaryFunction):
            report.totality.fail(f"member {idx} has no binary-function image")

    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        labels = set(g.labels())
        if set(emap) != labels or sorted(emap.values()) != list(range(f.m)) \
                or f.m != g.n_edges():
            report.edge_bijections.fail(
                f"member {idx}: edge map is not a bijection onto 0..{f.m - 1}")

    if abs(abs(candidate.nu) - 1.0) > tol:
        report.unit_phase.fail(f"|nu| = {abs(candidate.nu)} differs from 1")

    if not report.passed:
        return report

    member_of: dict[tuple, int] = {}
    for idx, g in enumerate(members):
        member_of.setdefault(canonical_form(g), idx)

    for idx, (g, f, emap) in enumerate(zip(members, images, edge_maps)):
        trial_g, edge_map = trial(g)
        target = member_of.get(canonical_form(trial_g))
        if target is None:
            report.triality.fail(f"member {idx}: trial image leaves the class")
            continue
        positions = {edge_map[lab]: pos for lab, pos in emap.items()}
        if not _aligned(candidate, target, trial_g, transform(f, OMEGA), positions, tol):
            report.triality.fail(
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
                lhs = take_minor_raw(f, pos, candidate.nu * kind.complex_value)
                if not _aligned(candidate, target, reduced, lhs, positions, tol):
                    report.minor_compat.fail(
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


def unique_tensor_lift_check(k: int, rng=None, tol: float = 1e-9) -> tuple[bool, dict]:
    """The only function whose every minor is the k-th tensor power of the
    ultraloop image is the (k+1)-th tensor power.

    Oracle route: the slice factorization for all elements is a linear
    system in the 2**(k+1) entries; full rank plus the pinned empty-set
    entry forces a unique solution, compared against the tensor power.
    Direct route: minors of the tensor power at {1, omega, omega^2} and two
    random parameters per element all equal the k-th power.  The system
    encodes equality at just two distinct parameters, so its unique
    solvability also records that two values suffice.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    base = ultraloop_image()
    u = tensor_power(base, k)
    expected = tensor_power(base, k + 1)
    m = k + 1

    rows = []
    rhs = []
    for i in range(m):
        for gbits in range(2**k):
            bits = binfun.bits_of_index(gbits, k)
            for b in (0, 1):
                row = np.zeros(2**m, dtype=complex)
                row[binfun.subset_index(binfun.insert_bit(bits, i, b))] += 1.0
                row[binfun.subset_index(binfun.insert_bit((0,) * k, i, b))] -= u.values[gbits]
                if np.any(row != 0):
                    rows.append(row)
                    rhs.append(0.0)
    norm_row = np.zeros(2**m, dtype=complex)
    norm_row[0] = 1.0
    rows.append(norm_row)
    rhs.append(1.0)
    a = np.array(rows)
    b = np.array(rhs, dtype=complex)
    rank = int(np.linalg.matrix_rank(a))
    solution, *_ = np.linalg.lstsq(a, b, rcond=None)
    residual = float(np.max(np.abs(solution - expected.values)))
    unique = rank == 2**m

    mus = [1.0 + 0j, OMEGA, OMEGA**2]
    direct = True
    for i in range(m):
        sampled = []
        while len(sampled) < 2:
            z = complex(*rng.standard_normal(2))
            if all(abs(z - w) > 1e-6 for w in sampled):
                sampled.append(z)
        for mu in mus + sampled:
            got = take_minor(expected, MinorSpec(i, mu))
            if not binfun.allclose(got, u, tol):
                direct = False

    ok = unique and residual <= tol and direct
    details = {
        "rank": rank,
        "unknowns": 2**m,
        "residual": residual,
        "direct_minors_match": direct,
        "two_values_suffice": unique,
    }
    return ok, details


def tensor_lift_perturbation_breaks(k: int, tol: float = 1e-9) -> bool:
    """Perturbing one entry of the tensor power must break some minor equality."""
    base = ultraloop_image()
    u = tensor_power(base, k)
    values = tensor_power(base, k + 1).values.copy()
    values[-1] += 0.1
    f = binfun.make(k + 1, values)
    for i in range(k + 1):
        for mu in (1.0, OMEGA, OMEGA**2):
            if not binfun.allclose(take_minor(f, MinorSpec(i, mu)), u, tol):
                return True
    return False


def ultraloop_funnel_check(k: int) -> tuple[bool, dict]:
    """Maps on k+1 edges whose every reduction is the k-fold ultraloop stack.

    For k >= 2 the only such map is the (k+1)-fold stack; on two edges all
    four maps have the property.
    """
    target = k_copies(ultraloop(), k)
    qualifying = []
    for g in enumerate_dimaps(k + 1).maps:
        if all(isomorphic(reduce_edge(g, lab, kind), target)
               for lab in g.labels() for kind in ALL_KINDS):
            qualifying.append(g)
    if k == 1:
        ok = len(qualifying) == len(enumerate_dimaps(2).maps) == 4
    else:
        ok = len(qualifying) == 1 and isomorphic(qualifying[0],
                                                 k_copies(ultraloop(), k + 1))
    return ok, {"qualifying": len(qualifying)}


# Random unit phases checked per class size.
N_PHASES = 10


@dataclass
class ObstructionWitness:
    map_index: int
    reason: str


@dataclass
class MainTheoremReport:
    classes_pass: dict[int, bool]
    random_phase_pass: bool
    obstructions: list[ObstructionWitness]

    @property
    def passed(self) -> bool:
        return (all(self.classes_pass.values()) and self.random_phase_pass
                and len(self.obstructions) == 3)


def main_theorem_check(kmax: int = 5, rng=None, tol: float = DEFAULT_TOL) -> MainTheoremReport:
    """Mechanical verification at desk scale.

    The canonical ultraloop-stack classes admit strict representations for
    every size up to kmax and for arbitrary unit phases.  Conversely every
    two-edge map other than the double stack is obstructed: its image is
    forced to the self-trial tensor square while the map itself is not
    self-trial.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    classes_pass = {}
    for k in range(kmax + 1):
        classes_pass[k] = check_representation(canonical_class(k), tol).passed

    random_ok = True
    for k in range(kmax + 1):
        for _ in range(N_PHASES):
            nu = np.exp(2j * np.pi * rng.random())
            if not check_representation(canonical_class(k, nu), tol).passed:
                random_ok = False

    base = ultraloop_image()
    square = tensor_power(base, 2)
    double = k_copies(ultraloop(), 2)
    forced_self_trial = self_trial(square, tol)
    obstructions = []
    for idx, g in enumerate(enumerate_dimaps(2).maps):
        if isomorphic(g, double):
            continue
        map_self_trial = isomorphic(trial(g)[0], g)
        if forced_self_trial and not map_self_trial:
            obstructions.append(ObstructionWitness(
                idx, "forced image is self-trial but the map is not"))
    return MainTheoremReport(classes_pass, random_ok, obstructions)
