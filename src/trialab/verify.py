"""Verification suites behind the `verify` CLI subcommand.

Each suite runs a handful of named checks and returns one result per
check, a pass or a fail; randomized checks draw from a seeded generator so
runs are reproducible.  A search of the deterministic catalogs that finds
no witness, as for a non-commuting pair of reductions, fails.  The sampled
checks (composition, fast-vs-dense, Hadamard duality, interchange,
commutation, matroid loops and coloops) first draw
every sample in order, forming derived parameters such as mu1 * mu2 as
Python complexes, and then make one stacked kernel call per size, so each
result matches the one-call-per-sample loop bit for bit.  Oracles here are
deliberately independent of the code paths they judge: dense Kronecker
products against the fast kernel, brute-force GF(2) complements against
the transform, rank computations against the degeneracy test, Burnside's
closed-form counts against the catalogs, the closed-form eigenbasis
against the generators and minor weights, in which the tensor-lift claim
is forced by an enumerated cover of the subsets, and the complete catalogs
up to four edges against trial cubed.  Of the 3002
multigraphs in the Hadamard-duality check only 210 have distinct cutset
spaces, so the indicator, the complement oracle and the residual run once
per distinct space, keyed by the GF(2) span of the incidence masks, and the
transform once per size.  Subsets are integer masks throughout, as in
`binfun`.  Every catalog a check reads comes from the one cache in
`_catalog`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import binfun
from .altmap import classify_edge, isomorphic, labeled_equal, trial, ultraloop_stack
from .catalog import enumerate_dimaps, self_trial_members
from .errors import NormalizationError
from .minor import (
    MU_POLE,
    MinorSpec,
    is_degenerate,
    lambda_mu,
    minors_commute_check,
    take_minor,
    transform_minor_check,
)
from .represent import canonical_class, check_representation, ultraloop_image
from .reductions import (
    ALL_KINDS,
    find_noncommuting_pair,
    is_degenerate_edge,
    reduce_edge,
    trial_minor_check,
)
from .transform import OMEGA, OMEGA2, SQRT2, m_matrix, raw_transform, self_trial


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    details: str = ""


def _random_bf(rng, m):
    v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    v[0] = 1.0
    return binfun.make(m, v)


def _random_mu(rng):
    while True:
        mu = complex(*rng.standard_normal(2))
        if abs(mu - MU_POLE) > 0.5:
            return mu


def _random_mu_disk(rng):
    # Unit-scale parameters, in the disk |mu| <= 1.5: the tolerance contract
    # assumes them, and the disk covers the special values {1, -1, w, w2}.
    while True:
        mu = complex(*rng.uniform(-1.5, 1.5, 2))
        if abs(mu) <= 1.5:
            return mu


@lru_cache(maxsize=None)
def _catalog(k: int):
    return enumerate_dimaps(k)


def _stacks(samples) -> dict:
    """Drawn samples grouped by their first field, in order of first
    appearance, with each field of a group stacked into one array."""
    groups: dict = {}
    for sample in samples:
        groups.setdefault(sample[0], []).append(sample)
    return {key: [np.array(field) for field in zip(*group)] for key, group in groups.items()}


def _dense_power(matrix: np.ndarray, m: int) -> np.ndarray:
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, matrix)
    return out


# ---------------------------------------------------------------------------
# transforms

def _worst(residuals: list[float]) -> float:
    """The largest residual, or NaN if any is NaN, so that a NaN fails the check."""
    return float(np.max(residuals))


def check_transform_composition(rng) -> CheckResult:
    tol = 1e-9
    samples = []
    for _ in range(200):
        m = int(rng.integers(1, 9))
        f = _random_bf(rng, m)
        mu1 = _random_mu_disk(rng)
        mu2 = _random_mu_disk(rng)
        # Python's complex product: numpy's rounds differently.
        samples.append((m, f.values, mu1, mu2, mu1 * mu2))
    residuals = []
    for _, fs, mu1, mu2, mu12 in _stacks(samples).values():
        lhs = raw_transform(raw_transform(fs, mu2), mu1)
        rhs = raw_transform(fs, mu12)
        residuals += list(np.max(np.abs(lhs - rhs), axis=-1) / np.max(np.abs(fs), axis=-1))
    worst = _worst(residuals)
    return CheckResult("transforms", "composition", worst <= tol,
                       f"200 samples, worst residual {worst:.3e} (tol {tol:g})")


def check_fast_vs_dense(rng) -> CheckResult:
    tol = 1e-10
    samples = []
    for _ in range(50):
        m = int(rng.integers(0, 7))
        samples.append((m, _random_bf(rng, m).values, _random_mu_disk(rng)))
    deviations = []
    for m, (_, fs, mus) in _stacks(samples).items():
        for fast, f, mu in zip(raw_transform(fs, mus), fs, mus):
            dense = _dense_power(m_matrix(mu), m) @ f
            deviations.append(float(np.max(np.abs(fast - dense))))
    worst = _worst(deviations)
    return CheckResult("transforms", "fast-vs-dense", worst <= tol,
                       f"50 samples m<=6, worst deviation {worst:.3e} (tol {tol:g})")


def _all_multigraphs(max_edges=5):
    """Every multigraph on 4 vertices with 1..max_edges edges, loops included."""
    pairs = list(itertools.combinations_with_replacement(range(4), 2))
    for n_edges in range(1, max_edges + 1):
        for edges in itertools.combinations_with_replacement(pairs, n_edges):
            yield edges


@lru_cache(maxsize=None)
def _parity_table(m: int) -> np.ndarray:
    """Boolean table of |x & y| mod 2 over all x, y < 2**m, by XOR-folding the bits of x & y."""
    x = np.arange(2**m)
    both = x[:, None] & x[None, :]
    odd = np.zeros_like(both)
    for bit in range(m):
        odd ^= (both >> bit) & 1
    table = odd == 1
    table.flags.writeable = False
    return table


def _gf2_complement_indicator(indicator: np.ndarray, m: int) -> np.ndarray:
    """Indicator of the brute-force GF(2) orthogonal complement of the
    subsets that the 0/1 vector marks: x is in it when |x & y| is even for
    every marked y."""
    support = np.flatnonzero(indicator == 1.0)
    return (~_parity_table(m)[:, support].any(axis=1)).astype(float)


def _incidence_masks(edges) -> list[int]:
    """The four vertex rows of the GF(2) incidence matrix as subset masks:
    edge j owns bit m-1-j, and a loop cancels at its one vertex."""
    m = len(edges)
    rows = [0, 0, 0, 0]
    for j, (a, b) in enumerate(edges):
        bit = 1 << (m - 1 - j)
        rows[a] ^= bit
        rows[b] ^= bit
    return rows


def check_hadamard_duality(rng) -> CheckResult:
    tol = 1e-9
    # Oracle: the circuit space is the brute-force GF(2) orthogonal
    # complement of the cutset space.  Multigraphs are keyed by the span of
    # their incidence masks, so each cutset space gets one indicator, one
    # oracle and one residual, and the indicators of each size one
    # transform call.
    spaces: dict[tuple, tuple] = {}
    count = 0
    for edges in _all_multigraphs():
        m = len(edges)
        rows = _incidence_masks(edges)
        key = (m, frozenset(binfun.gf2_span(rows)))
        if key not in spaces:
            cutset = binfun.rowspace_indicator(m, rows).values
            spaces[key] = (m, cutset, _gf2_complement_indicator(cutset, m))
        count += 1
    residuals = []
    for _, cutsets, circuits in _stacks(spaces.values()).values():
        residuals += [binfun.proportionality_residual(dual, circuit)
                      for dual, circuit in zip(raw_transform(cutsets, -1.0), circuits)]
    worst = _worst(residuals)
    return CheckResult("transforms", "hadamard-duality", worst <= tol,
                       f"{count} multigraphs, {len(spaces)} cutset spaces, "
                       f"worst residual {worst:.3e} (tol {tol:g})")


# The one basis in which every generator and minor weight is diagonal: the
# columns are (1, sqrt(2)-1), for the eigenvalue 1, and (1, -(sqrt(2)+1)).
_EIGENBASIS = np.array([[1.0, 1.0], [SQRT2 - 1.0, -(SQRT2 + 1.0)]])


def _eigenbasis_deviation(mu) -> float:
    """The largest entry of M(mu) P - P diag(1, mu), and of the defect of
    (1, lambda(mu)) P from a multiple of (1, -mu); NaN if either is NaN."""
    p = _EIGENBASIS
    generator = np.max(np.abs(m_matrix(mu) @ p - p * [1.0, mu]))
    weight = np.array([1.0, lambda_mu(mu)]) @ p
    return _worst([generator, abs(weight[1] + mu * weight[0])])


def check_eigenvector(rng) -> CheckResult:
    tol = 1e-12
    # The whole eigenbasis, not only the fixed vector: its second column
    # pins the parameter, so a generator at the wrong mu fails.
    mus = (1.0, OMEGA, OMEGA2, -1.0, 0.3 - 1.7j)
    dev = _worst([_eigenbasis_deviation(mu) for mu in mus])
    return CheckResult("transforms", "eigenvector", dev <= tol,
                       f"eigenbasis at {len(mus)} parameters, "
                       f"worst deviation {dev:.3e} (tol {tol:g})")


# ---------------------------------------------------------------------------
# minors

def check_transform_minor_interchange(rng) -> CheckResult:
    tol = 1e-8
    samples = []
    while len(samples) < 200:
        m = int(rng.integers(1, 7))
        f = _random_bf(rng, m)
        mu, nu = _random_mu(rng), _random_mu(rng)
        if abs(mu * nu - MU_POLE) < 0.5:
            continue
        samples.append(((m, int(rng.integers(0, m))), f.values, mu, nu))
    failures = 0
    for (_, i), (_, fs, mu, nu) in _stacks(samples).items():
        failures += int(np.count_nonzero(~transform_minor_check(fs, mu, nu, i, tol)))
    return CheckResult("minors", "transform-minor-interchange", failures == 0,
                       f"200 samples, {failures} failures")


def check_minor_commutation(rng) -> CheckResult:
    tol = 1e-9
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    samples = [(m, _random_bf(rng, m).values)
               for m in (int(rng.integers(2, 7)) for _ in range(100))]
    failures = 0
    checks = 0
    for m, (_, fs) in _stacks(samples).items():
        if m == 2:
            # Both orders end at the dimension-0 unit: nothing to compare.
            continue
        compared, differing = minors_commute_check(fs, mus, tol)
        checks += compared
        failures += differing
    return CheckResult("minors", "commutation", failures == 0,
                       f"{checks} ordered pairs, {failures} failures (tol {tol:g})")


# ---------------------------------------------------------------------------
# degeneracy

def _all_subspaces(columns: int, max_rank: int):
    """Every GF(2) subspace of dimension <= max_rank, as the row masks of its
    RREF matrix: column j is element e_j, of weight 2**(columns-1-j)."""
    for r in range(0, min(columns, max_rank) + 1):
        for pivots in itertools.combinations(range(columns), r):
            free_cells = []
            for i, p in enumerate(pivots):
                for j in range(p + 1, columns):
                    if j not in pivots:
                        free_cells.append((i, 1 << (columns - 1 - j)))
            for bits in itertools.product((0, 1), repeat=len(free_cells)):
                rows = [1 << (columns - 1 - p) for p in pivots]
                for (i, bit), b in zip(free_cells, bits):
                    rows[i] |= b * bit
                yield rows


def check_degeneracy_matroid(rng) -> CheckResult:
    tol = 1e-8
    # One is_degenerate call per (size, element) over all indicators of
    # that size.
    mismatches = 0
    total = 0
    for c in range(1, 6):
        indicators, expected = [], []
        for rows in _all_subspaces(c, 4):
            basis = binfun.gf2_basis(rows)
            indicators.append(binfun.rowspace_indicator(c, basis).values)
            rank = len(basis)
            row = []
            for i in range(c):
                bit = 1 << (c - 1 - i)
                loop = all(not (v & bit) for v in basis)
                coloop = len(binfun.gf2_basis([v & ~bit for v in basis])) == rank - 1
                row.append(loop or coloop)
            expected.append(row)
        indicators, expected = np.array(indicators), np.array(expected)
        for i in range(c):
            total += len(indicators)
            mismatches += int(np.count_nonzero(is_degenerate(indicators, i, tol) != expected[:, i]))
    return CheckResult("degeneracy", "matroid-loops-coloops", mismatches == 0,
                       f"{total} element checks over all rowspaces, {mismatches} mismatches")


def _plant_degenerate_element(rng, m, i):
    """Random function whose element i is degenerate by construction."""
    u = _random_bf(rng, m - 1)
    c = complex(*rng.standard_normal(2))
    g = binfun.tensor(binfun.make(1, [1.0, c]), u)
    # g's element 0 is degenerate; move its index axis to position i.
    return binfun.make(m, np.moveaxis(g.values.reshape((2,) * m), 0, i).reshape(-1))


def check_degeneracy_mu_independence(rng) -> CheckResult:
    tol = 1e-7
    mismatches = 0
    done = 0
    skipped = 0
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
            skipped += 1
            continue
        done += 1
        if not (verdicts[0] == verdicts[1] == is_degenerate(f, i)):
            mismatches += 1
    return CheckResult("degeneracy", "mu-independence", mismatches == 0,
                       f"100 samples, {skipped} redrawn at a minor that does not normalize, "
                       f"{mismatches} verdict mismatches")


# ---------------------------------------------------------------------------
# dimaps

def _burnside_counts(kmax: int) -> list[int]:
    """Sum over partitions lambda of k of z_lambda, for k = 0..kmax.

    That is the number of permutation pairs on k points up to simultaneous
    conjugation.  The series is the product over part sizes i of
    sum_m i^m m! x^(i m), expanded one part size at a time.
    """
    counts = [1] + [0] * kmax
    for i in range(1, kmax + 1):
        counts = [sum(counts[n - i * m] * i**m * math.factorial(m)
                      for m in range(n // i + 1))
                  for n in range(kmax + 1)]
    return counts


def check_enumeration_counts(rng) -> CheckResult:
    kmax = 4
    counts = [len(_catalog(k).maps) for k in range(kmax + 1)]
    expected = _burnside_counts(kmax)
    return CheckResult("dimaps", "enumeration-counts", counts == expected,
                       f"k=0..{kmax} counts {counts} (Burnside {expected})")


def check_self_trial_two_edges(rng) -> CheckResult:
    members = self_trial_members(_catalog(2))
    ok = len(members) == 1 and isomorphic(members[0], ultraloop_stack(2))
    return CheckResult("dimaps", "self-trial-two-edges", ok,
                       f"{len(members)} self-trial map(s) on two edges")


def check_trial_cubed(rng) -> CheckResult:
    maps = [g for k in range(5) for g in _catalog(k).maps]
    bad = sum(not labeled_equal(trial(trial(trial(g)[0])[0])[0], g) for g in maps)
    return CheckResult("dimaps", "trial-cubed", bad == 0,
                       f"{len(maps)} maps exhaustive at <=4 edges, {bad} failures")


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


# Largest catalog searched for a non-commuting pair of reductions.
NONCOMMUTATION_CAP = 4


def check_noncommutation_witness(rng) -> CheckResult:
    for k in range(2, NONCOMMUTATION_CAP + 1):
        # Catalog.maps is already in canonical-form order.
        for idx, g in enumerate(_catalog(k).maps):
            witness = find_noncommuting_pair(g)
            if witness is not None:
                l1, k1, l2, k2 = witness
                return CheckResult(
                    "dimaps", "noncommutation-witness", True,
                    f"witness at {k} edges, map {idx}: "
                    f"({l1},{k1.token}) vs ({l2},{k2.token})")
    return CheckResult("dimaps", "noncommutation-witness", False,
                       f"no witness in catalogs up to {NONCOMMUTATION_CAP} edges")


# ---------------------------------------------------------------------------
# claims / main theorem

def _funnel(k: int) -> list:
    """The maps on k+1 edges whose every reduction is the k-fold ultraloop stack."""
    target = ultraloop_stack(k)
    return [g for g in _catalog(k + 1).maps
            if all(isomorphic(reduce_edge(g, lab, kind), target)
                   for lab in g.labels() for kind in ALL_KINDS)]


def check_reduction_funnel(rng) -> CheckResult:
    # All four two-edge maps reduce to single ultraloops only; on three
    # edges the triple stack is the one map reducing to the double stack.
    two, three = _funnel(1), _funnel(2)
    ok = (len(two) == len(_catalog(2).maps) == 4 and len(three) == 1
          and isomorphic(three[0], ultraloop_stack(3)))
    return CheckResult("claims", "reduction-funnel", ok,
                       f"two edges: {len(two)}/4 qualify; "
                       f"three edges: {len(three)} qualifying map(s)")


def _tensor_lift(k: int, rng, tol: float) -> tuple[int, bool]:
    """How many nonempty sets the forcing argument reaches on m = k+1
    elements, and whether the direct minors match.

    Forcing: in eigen-coordinates c = P^{-(x)m} f, the minor at mu on
    element i is c(Y) - mu c(Y + i) over the Y without i, up to a common
    factor.  If every minor at mu = 1 and at w is proportional to the k-th
    tensor power u of the ultraloop image, whose c is supported on the empty
    set, both differences vanish at each nonempty Y, so c(Y) = c(Y + i) = 0.
    A set is reached when it is such a Y or Y + i for some i; when all
    2**m - 1 are, c is supported on the empty set, and with f(0) = 1, f is
    the (k+1)-th power.  Direct route: the minors of the (k+1)-th power at
    {1, omega, omega^2} and two random parameters per element all equal u.
    """
    m = k + 1
    reached = set()
    for i in range(m):
        bit = 1 << i
        for y in range(1, 2**m):
            if not y & bit:
                reached |= {y, y | bit}
    base = ultraloop_image()
    u = binfun.tensor_power(base, k)
    expected = binfun.tensor_power(base, m)
    direct = True
    for i in range(m):
        sampled = []
        while len(sampled) < 2:
            z = complex(*rng.standard_normal(2))
            if all(abs(z - w) > 1e-6 for w in sampled):
                sampled.append(z)
        for mu in (1.0, OMEGA, OMEGA2, *sampled):
            if not binfun.allclose(take_minor(expected, MinorSpec(i, mu)), u, tol):
                direct = False
    return len(reached), direct


def _perturbed_lift_breaks(k: int, tol: float) -> bool:
    """Perturbing one entry of the (k+1)-th tensor power breaks some minor equality."""
    base = ultraloop_image()
    u = binfun.tensor_power(base, k)
    values = binfun.tensor_power(base, k + 1).values.copy()
    values[-1] += 0.1
    f = binfun.make(k + 1, values)
    return any(not binfun.allclose(take_minor(f, MinorSpec(i, mu)), u, tol)
               for i in range(k + 1) for mu in (1.0, OMEGA, OMEGA2))


def check_tensor_lift_uniqueness(rng) -> CheckResult:
    tol = 1e-9
    # The only function whose every minor is the k-th tensor power of the
    # ultraloop image is the (k+1)-th tensor power: forced by the minors at
    # the two parameters 1 and w, on the eigenbasis checked there.
    deviation = _worst([_eigenbasis_deviation(mu) for mu in (1.0, OMEGA)])
    ok = deviation <= tol
    details = []
    for k in (1, 2, 3):
        reached, direct = _tensor_lift(k, rng, tol)
        ok = ok and reached == 2 ** (k + 1) - 1 and direct and _perturbed_lift_breaks(k, tol)
        details.append(f"k={k}: {reached}/{2 ** (k + 1) - 1} sets forced")
    details.append(f"eigenbasis deviation at 1, w {deviation:.1e} (tol {tol:g})")
    return CheckResult("claims", "tensor-lift-uniqueness", ok, "; ".join(details))


def check_main_theorem(rng) -> CheckResult:
    tol = 1e-9
    # The ultraloop-stack classes up to 5 edges admit strict representations
    # at nu = 1, and so at every unit nu: every element of their images, the
    # tensor powers of (1, r) with r = sqrt(2) - 1, is degenerate.  The minor
    # of a degenerate element at mu is (1 + lambda(mu) r) times the next-lower
    # power.  That factor is the first entry of (1, lambda(mu)) P, the
    # eigenbasis's common factor that ``transforms.eigenvector`` checks, and
    # it equals 2 sqrt(2) / (sqrt(2) + 1 - r mu), which never vanishes (its
    # modulus is at least 1 on the unit circle), so condition
    # (e) holds at nu * mu exactly when it holds at mu.  Conversely every
    # two-edge map other than the double stack is obstructed: its image is
    # forced, for the chosen eigenline of M(w), to the self-trial tensor
    # square while the map is not self-trial.
    # Classes 0..4 are prefixes of class 5 with the same images; every
    # condition is checked per member, and a stack's trial and reductions
    # stay within its prefix, so class 5 passes exactly when all six do.
    candidate = canonical_class(5)
    classes = check_representation(candidate).passed
    images = candidate.images
    elements = sum(f.m for f in images)
    degenerate = sum(is_degenerate(f, i, tol) for f in images for i in range(f.m))
    obstructions = 0
    if self_trial(binfun.tensor_power(ultraloop_image(), 2)):
        double = ultraloop_stack(2)
        members = self_trial_members(_catalog(2))
        obstructions = sum(not isomorphic(g, double) and all(g is not h for h in members)
                           for g in _catalog(2).maps)
    return CheckResult(
        "main-theorem", "strict-representations",
        classes and degenerate == elements and obstructions == 3,
        f"classes 0..5 pass: {classes}; stack images degenerate at "
        f"{degenerate}/{elements} elements; "
        f"{obstructions} obstruction witnesses on two edges")


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
SUITE_NAMES = tuple(SUITES)


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
