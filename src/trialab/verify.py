"""Verification suites behind the `verify` CLI subcommand.

Each suite runs a handful of named checks and returns one result per
check; randomized checks draw from a seeded generator so runs are
reproducible.  Oracles here are deliberately independent of the code paths
they judge: dense Kronecker products against the fast kernel, brute-force
GF(2) complements against the transform, rank computations against the
degeneracy test, and the second enumeration strategy against the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import binfun
from .altmap import (
    canonical_form,
    classify_edge,
    isomorphic,
    k_copies,
    labeled_equal,
    trial_power,
    ultraloop,
)
from .catalog import enumerate_dimaps, random_dimap, self_trial_members
from .errors import NormalizationError
from .minor import (
    MU_POLE,
    MinorSpec,
    is_degenerate,
    minors_commute_check,
    take_minor,
    transform_minor_check,
)
from .represent import (
    main_theorem_check,
    tensor_lift_perturbation_breaks,
    ultraloop_funnel_check,
    unique_tensor_lift_check,
)
from .reductions import ALL_KINDS, find_noncommuting_pair, is_degenerate_edge, trial_minor_check
from .transform import OMEGA, OMEGA2, ULOOP_RATIO, m_matrix, transform

SUITE_NAMES = ("transforms", "minors", "degeneracy", "dimaps", "claims", "main-theorem")


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    details: str = ""
    warning: str | None = None


def _random_bf(rng, m):
    v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    v[0] = 1.0
    return binfun.make(m, v)


def _random_mu(rng, avoid_pole=True):
    while True:
        mu = complex(*rng.standard_normal(2))
        if not avoid_pole or abs(mu - MU_POLE) > 0.5:
            return mu


def _random_mu_disk(rng, radius=1.5):
    # Unit-scale parameters: the tolerance contract assumes them, and the
    # disk covers all the algebraically interesting values {1, -1, w, w2}.
    while True:
        mu = complex(*rng.uniform(-radius, radius, 2))
        if abs(mu) <= radius:
            return mu


@lru_cache(maxsize=None)
def _catalog(k: int):
    return enumerate_dimaps(k)


def _dense_power(matrix: np.ndarray, m: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, matrix)
    return out


# ---------------------------------------------------------------------------
# transforms

def check_transform_composition(rng, tol=1e-9) -> CheckResult:
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        f = _random_bf(rng, m)
        mu1 = _random_mu_disk(rng)
        mu2 = _random_mu_disk(rng)
        lhs = transform(transform(f, mu2), mu1).values
        rhs = transform(f, mu1 * mu2).values
        scale = float(np.max(np.abs(f.values)))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    return CheckResult("transforms", "composition", worst <= tol,
                       f"200 samples, worst residual {worst:.3e} (tol {tol:g})")


def check_fast_vs_dense(rng, tol=1e-10) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(0, 7))
        f = _random_bf(rng, m)
        mu = _random_mu_disk(rng)
        fast = transform(f, mu).values
        dense = _dense_power(m_matrix(mu).entries, m) @ f.values
        worst = max(worst, float(np.max(np.abs(fast - dense), initial=0.0)))
    return CheckResult("transforms", "fast-vs-dense", worst <= tol,
                       f"50 samples m<=6, worst deviation {worst:.3e} (tol {tol:g})")


def _all_multigraphs(max_vertices=4, max_edges=5):
    pairs = list(itertools.combinations_with_replacement(range(max_vertices), 2))
    for n_edges in range(1, max_edges + 1):
        for edges in itertools.combinations_with_replacement(pairs, n_edges):
            yield edges


def check_hadamard_duality(rng, tol=1e-9) -> CheckResult:
    # Oracle: the circuit space is the brute-force GF(2) orthogonal
    # complement of the cutset space.
    worst = 0.0
    count = 0
    for edges in _all_multigraphs():
        m = len(edges)
        inc = np.zeros((4, m), dtype=int)
        for j, (a, b) in enumerate(edges):
            inc[a, j] ^= 1
            inc[b, j] ^= 1
        cutset = binfun.rowspace_indicator(inc)
        support = [x for x in range(2**m) if cutset.values[x] == 1.0]
        circuit = np.zeros(2**m)
        for x in range(2**m):
            if all(bin(x & y).count("1") % 2 == 0 for y in support):
                circuit[x] = 1.0
        residual = binfun.proportionality_residual(transform(cutset, -1.0), circuit)
        worst = max(worst, residual)
        count += 1
    return CheckResult("transforms", "hadamard-duality", worst <= tol,
                       f"{count} multigraphs, worst residual {worst:.3e} (tol {tol:g})")


def check_eigenvector(rng, tol=1e-12) -> CheckResult:
    v = np.array([1.0, ULOOP_RATIO], dtype=complex)
    dev = float(np.max(np.abs(m_matrix(OMEGA).entries @ v - v)))
    return CheckResult("transforms", "eigenvector", dev <= tol,
                       f"fixed-vector deviation {dev:.3e} (tol {tol:g})")


# ---------------------------------------------------------------------------
# minors

def check_transform_minor_interchange(rng, tol=1e-8) -> CheckResult:
    done = 0
    resamples = 0
    failures = 0
    while done < 200:
        m = int(rng.integers(1, 7))
        f = _random_bf(rng, m)
        mu, nu = _random_mu(rng), _random_mu(rng)
        if abs(mu * nu - MU_POLE) < 0.5:
            continue
        i = int(rng.integers(0, m))
        try:
            if not transform_minor_check(f, mu, nu, i, tol):
                failures += 1
        except NormalizationError:
            resamples += 1
            continue
        done += 1
    rate = resamples / (done + resamples)
    ok = failures == 0 and rate <= 0.05
    return CheckResult("minors", "transform-minor-interchange", ok,
                       f"200 samples, {failures} failures, resample rate {rate:.1%}")


def check_minor_commutation(rng, tol=1e-9) -> CheckResult:
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    failures = 0
    checks = 0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        f = _random_bf(rng, m)
        for i, j in itertools.combinations(range(m), 2):
            for mu1, mu2 in itertools.product(mus, repeat=2):
                try:
                    ok = minors_commute_check(f, MinorSpec(i, mu1), MinorSpec(j, mu2), tol)
                except NormalizationError:
                    continue
                checks += 1
                if not ok:
                    failures += 1
    return CheckResult("minors", "commutation", failures == 0,
                       f"{checks} ordered pairs, {failures} failures (tol {tol:g})")


# ---------------------------------------------------------------------------
# degeneracy

def _all_subspaces(columns: int, max_rank: int):
    """Every GF(2) subspace of dimension <= max_rank via RREF matrices."""
    for r in range(0, min(columns, max_rank) + 1):
        for pivots in itertools.combinations(range(columns), r):
            free_cells = []
            for i, p in enumerate(pivots):
                for j in range(p + 1, columns):
                    if j not in pivots:
                        free_cells.append((i, j))
            for bits in itertools.product((0, 1), repeat=len(free_cells)):
                mat = np.zeros((r, columns), dtype=int)
                for i, p in enumerate(pivots):
                    mat[i, p] = 1
                for (i, j), b in zip(free_cells, bits):
                    mat[i, j] = b
                yield mat


def check_degeneracy_matroid(rng, tol=1e-8) -> CheckResult:
    mismatches = 0
    total = 0
    for c in range(1, 6):
        for mat in _all_subspaces(c, 4):
            f = binfun.rowspace_indicator(mat)
            masks = [binfun.subset_index(mat[r]) for r in range(mat.shape[0])]
            basis = binfun.gf2_basis(masks)
            rank = len(basis)
            for i in range(c):
                bit = 1 << (c - 1 - i)
                loop = all(not (v & bit) for v in basis)
                coloop = len(binfun.gf2_basis([v & ~bit for v in basis])) == rank - 1
                total += 1
                if is_degenerate(f, i, tol) != (loop or coloop):
                    mismatches += 1
    return CheckResult("degeneracy", "matroid-loops-coloops", mismatches == 0,
                       f"{total} element checks over all rowspaces, {mismatches} mismatches")


def _plant_degenerate_element(rng, m, i):
    """Random function whose element i is degenerate by construction."""
    u = _random_bf(rng, m - 1)
    c = complex(*rng.standard_normal(2))
    g = binfun.tensor(binfun.make(1, [1.0, c]), u)
    perm = list(range(1, i + 1)) + [0] + list(range(i + 1, m))
    vals = np.empty(2**m, dtype=complex)
    for x in range(2**m):
        bits = binfun.bits_of_index(x, m)
        vals[x] = g.values[binfun.subset_index(tuple(bits[p] for p in perm))]
    return binfun.make(m, vals)


def check_degeneracy_mu_independence(rng, tol=1e-7) -> CheckResult:
    mismatches = 0
    done = 0
    while done < 100:
        m = int(rng.integers(1, 6))
        i = int(rng.integers(0, m))
        if done % 2 == 0 and m >= 2:
            f = _plant_degenerate_element(rng, m, i)
        else:
            f = _random_bf(rng, m)
        verdicts = []
        try:
            for _ in range(2):
                mu1, mu2 = _random_mu(rng), _random_mu(rng)
                if abs(mu1 - mu2) < 1e-6:
                    mu2 = mu1 + 1.0
                g1 = take_minor(f, MinorSpec(i, mu1))
                g2 = take_minor(f, MinorSpec(i, mu2))
                verdicts.append(binfun.allclose(g1, g2, tol))
        except NormalizationError:
            continue
        done += 1
        if not (verdicts[0] == verdicts[1] == is_degenerate(f, i)):
            mismatches += 1
    return CheckResult("degeneracy", "mu-independence", mismatches == 0,
                       f"100 samples, {mismatches} verdict mismatches")


# ---------------------------------------------------------------------------
# dimaps

def check_enumeration_counts(rng) -> CheckResult:
    counts = {k: len(_catalog(k).maps) for k in (0, 1, 2)}
    ok = counts == {0: 1, 1: 1, 2: 4}
    return CheckResult("dimaps", "enumeration-counts", ok, f"counts {counts}")


def check_self_trial_two_edges(rng) -> CheckResult:
    members = self_trial_members(_catalog(2))
    ok = len(members) == 1 and isomorphic(members[0], k_copies(ultraloop(), 2))
    return CheckResult("dimaps", "self-trial-two-edges", ok,
                       f"{len(members)} self-trial map(s) on two edges")


def check_trial_cubed(rng) -> CheckResult:
    bad = 0
    total = 0
    for k in range(0, 4):
        for g in _catalog(k).maps:
            total += 1
            if not labeled_equal(trial_power(g, 3), g):
                bad += 1
    for _ in range(100):
        g = random_dimap(4, rng)
        total += 1
        if not labeled_equal(trial_power(g, 3), g):
            bad += 1
    return CheckResult("dimaps", "trial-cubed", bad == 0,
                       f"{total} maps (exhaustive <=3 edges plus 100 random), {bad} failures")


def check_triality_minor_identity(rng) -> CheckResult:
    bad = 0
    total = 0
    for k in range(1, 4):
        for g in _catalog(k).maps:
            for lab in g.labels():
                for mu, nu in itertools.product(ALL_KINDS, repeat=2):
                    total += 1
                    if not trial_minor_check(g, lab, mu, nu):
                        bad += 1
    return CheckResult("dimaps", "triality-minor-identity", bad == 0,
                       f"{total} cases exhaustive at <=3 edges, {bad} failures")


def check_triloop_equivalence(rng) -> CheckResult:
    bad = 0
    total = 0
    for k in range(1, 4):
        for g in _catalog(k).maps:
            for lab in g.labels():
                total += 1
                if classify_edge(g, lab).is_triloop != is_degenerate_edge(g, lab):
                    bad += 1
    return CheckResult("dimaps", "triloop-equivalence", bad == 0,
                       f"{total} edges exhaustive at <=3 edges, {bad} mismatches")


def check_noncommutation_witness(rng, cap=4) -> CheckResult:
    for k in range(2, cap + 1):
        for idx, g in enumerate(sorted(_catalog(k).maps, key=canonical_form)):
            witness = find_noncommuting_pair(g)
            if witness is not None:
                l1, k1, l2, k2 = witness
                return CheckResult(
                    "dimaps", "noncommutation-witness", True,
                    f"witness at {k} edges, map {idx}: "
                    f"({l1},{k1.token}) vs ({l2},{k2.token})")
    return CheckResult("dimaps", "noncommutation-witness", True,
                       f"searched catalogs up to {cap} edges",
                       warning=f"NOT-FOUND-AT-CAP k<={cap}")


# ---------------------------------------------------------------------------
# claims / main theorem

def check_reduction_funnel(rng) -> CheckResult:
    ok1, d1 = ultraloop_funnel_check(1)
    ok2, d2 = ultraloop_funnel_check(2)
    return CheckResult("claims", "reduction-funnel", ok1 and ok2,
                       f"two edges: {d1['qualifying']}/4 qualify; "
                       f"three edges: {d2['qualifying']} qualifying map(s)")


def check_tensor_lift_uniqueness(rng, tol=1e-9) -> CheckResult:
    details = []
    ok = True
    for k in (1, 2, 3):
        good, det = unique_tensor_lift_check(k, rng, tol)
        ok = ok and good and tensor_lift_perturbation_breaks(k)
        details.append(f"k={k}: rank {det['rank']}/{det['unknowns']}, "
                       f"residual {det['residual']:.1e}")
    return CheckResult("claims", "tensor-lift-uniqueness", ok, "; ".join(details))


def check_main_theorem(rng, tol=1e-9) -> CheckResult:
    report = main_theorem_check(5, rng, tol)
    return CheckResult(
        "main-theorem", "strict-representations", report.passed,
        f"classes 0..5 pass: {all(report.classes_pass.values())}; "
        f"random phases pass: {report.random_phase_pass}; "
        f"{len(report.obstructions)} obstruction witnesses on two edges")


SUITES = {
    "transforms": (check_transform_composition, check_fast_vs_dense,
                   check_hadamard_duality, check_eigenvector),
    "minors": (check_transform_minor_interchange, check_minor_commutation),
    "degeneracy": (check_degeneracy_matroid, check_degeneracy_mu_independence),
    "dimaps": (check_enumeration_counts, check_self_trial_two_edges,
               check_trial_cubed, check_triality_minor_identity,
               check_triloop_equivalence, check_noncommutation_witness),
    "claims": (check_reduction_funnel, check_tensor_lift_uniqueness),
    "main-theorem": (check_main_theorem,),
}


def run_suites(names=None, seed: int = 0) -> list[CheckResult]:
    if names is None or not names:
        names = SUITE_NAMES
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results = []
    for name in names:
        rng = np.random.default_rng(seed)
        for check in SUITES[name]:
            results.append(check(rng))
    return results
