import numpy as np
import pytest

from trialab import binfun
from trialab.binfun import DEFAULT_TOL, allclose
from trialab.errors import NormalizationError, PoleError
from trialab.minor import (
    MU_POLE,
    MinorSpec,
    _split_slices,
    is_degenerate,
    lambda_mu,
    minors_commute_check,
    take_minor,
    take_minor_raw,
    transform_minor_check,
)
from trialab.transform import OMEGA, OMEGA2, ULOOP_RATIO


def random_bf(rng, m):
    v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    v[0] = 1.0
    return binfun.make(m, v)


def random_mu(rng):
    while True:
        mu = complex(*rng.standard_normal(2))
        if abs(mu - MU_POLE) > 0.5:
            return mu


DIGON = binfun.make(2, [1.0, 0.0, 0.0, 1.0])


def test_lambda_values():
    assert lambda_mu(1.0) == pytest.approx(1.0)
    assert lambda_mu(-1.0) == pytest.approx(0.0)
    with pytest.raises(PoleError):
        lambda_mu(MU_POLE)


def test_lambda_pole_is_a_denominator_zero():
    denom = np.sqrt(2.0) + 1.0 - (np.sqrt(2.0) - 1.0) * MU_POLE
    assert abs(denom) < 1e-12


def test_minor_of_coloop_restricts_to_unit():
    f = binfun.make(1, [1.0, 1.0])
    g = take_minor(f, MinorSpec(0, -1.0))
    assert g.m == 0 and g.values[0] == 1.0


def test_minor_matches_graph_deletion_oracle():
    # Deleting one digon edge leaves a bridge: oracle g(X) = f(X) + f(X u e).
    oracle = np.array([DIGON.values[0] + DIGON.values[1],
                       DIGON.values[2] + DIGON.values[3]])
    oracle = oracle / oracle[0]
    assert np.allclose(oracle, [1.0, 1.0])
    g = take_minor(DIGON, MinorSpec(1, 1.0))
    assert np.allclose(g.values, oracle)


def test_minor_of_digon_contraction_leaves_loop():
    g = take_minor(DIGON, MinorSpec(0, -1.0))
    assert np.allclose(g.values, [1.0, 0.0])


def test_minor_of_tensor_power_drops_one_factor():
    f1 = binfun.make(1, [1.0, ULOOP_RATIO])
    f2 = binfun.tensor(f1, f1)
    for mu in (1.0, OMEGA, OMEGA2):
        for i in (0, 1):
            g = take_minor(f2, MinorSpec(i, mu))
            assert np.max(np.abs(g.values - f1.values)) < 1e-12


def test_minor_pole_and_normalization_errors():
    with pytest.raises(PoleError):
        take_minor(DIGON, MinorSpec(0, MU_POLE))
    # lambda(1) = 1 and slices (1, -1) cancel: only a projective minor exists.
    f = binfun.make(1, [1.0, -1.0])
    with pytest.raises(NormalizationError):
        take_minor(f, MinorSpec(0, 1.0))


def test_minor_keeps_remaining_labels():
    g = take_minor(DIGON, MinorSpec(0, 1.0))
    assert g.labels == ("e1",)


def test_minors_commute_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        f = random_bf(rng, m)
        i, j = rng.choice(m, size=2, replace=False)
        s1 = MinorSpec(int(i), random_mu(rng))
        s2 = MinorSpec(int(j), random_mu(rng))
        assert minors_commute_check(f, s1, s2, 1e-9)


def test_minors_commute_examples():
    rng = np.random.default_rng(9)
    f = random_bf(rng, 4)
    assert minors_commute_check(f, MinorSpec(0, -1.0), MinorSpec(2, -1.0))
    assert minors_commute_check(f, MinorSpec(1, OMEGA), MinorSpec(3, OMEGA2))
    # Graph-minor oracle on the digon: delete/contract in both orders ends
    # at the dimension-0 unit either way.
    out1 = take_minor(take_minor(DIGON, MinorSpec(0, 1.0)), MinorSpec(0, -1.0))
    out2 = take_minor(take_minor(DIGON, MinorSpec(1, -1.0)), MinorSpec(0, 1.0))
    assert out1.m == out2.m == 0
    assert minors_commute_check(DIGON, MinorSpec(0, 1.0), MinorSpec(1, -1.0))


def test_transform_minor_interchange_identity_case():
    rng = np.random.default_rng(10)
    f = random_bf(rng, 3)
    for nu in (1.0, -1.0, OMEGA):
        assert transform_minor_check(f, 1.0, nu, 0, 1e-10)


def test_transform_minor_interchange_trinity_case():
    rng = np.random.default_rng(11)
    f = random_bf(rng, 4)
    assert transform_minor_check(f, OMEGA, 1.0, 2, 1e-9)


def test_transform_minor_interchange_random():
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = int(rng.integers(1, 6))
        f = random_bf(rng, m)
        mu, nu = random_mu(rng), random_mu(rng)
        if abs(mu * nu - MU_POLE) < 0.5:
            continue
        i = int(rng.integers(0, m))
        assert transform_minor_check(f, mu, nu, i, 1e-8)


def test_degenerate_examples():
    assert is_degenerate(binfun.make(1, [1.0, 1.0]), 0)
    assert is_degenerate(binfun.make(1, [1.0, 0.0]), 0)
    assert not is_degenerate(DIGON, 0)
    # Cross-check against distinct minors: deletion (1,1) vs contraction (1,0).
    dele = take_minor(DIGON, MinorSpec(0, 1.0))
    cont = take_minor(DIGON, MinorSpec(0, -1.0))
    assert not binfun.allclose(dele, cont, 1e-9)


def test_degeneracy_is_mu_independent():
    rng = np.random.default_rng(13)
    for trial in range(40):
        m = int(rng.integers(1, 6))
        f = random_bf(rng, m)
        i = int(rng.integers(0, m))
        if trial % 2 == 0 and m >= 2:
            # Construct a degenerate element by tensoring a factor in at i.
            u = random_bf(rng, m - 1)
            factor = binfun.make(1, [1.0, complex(*rng.standard_normal(2))])
            g = binfun.tensor(factor, u)
            perm = list(range(1, i + 1)) + [0] + list(range(i + 1, m))
            vals = np.empty(2**m, dtype=complex)
            for x in range(2**m):
                bits = binfun.bits_of_index(x, m)
                src = binfun.subset_index(tuple(bits[p] for p in perm))
                vals[x] = g.values[src]
            f = binfun.make(m, vals)
        verdicts = []
        for _ in range(2):
            mu1, mu2 = random_mu(rng), random_mu(rng)
            if abs(mu1 - mu2) < 1e-6:
                mu2 = mu1 + 1.0
            try:
                g1 = take_minor(f, MinorSpec(i, mu1))
                g2 = take_minor(f, MinorSpec(i, mu2))
            except NormalizationError:
                verdicts = []
                break
            verdicts.append(binfun.allclose(g1, g2, 1e-7))
        if verdicts:
            assert verdicts[0] == verdicts[1] == is_degenerate(f, i)


def test_degenerate_matches_loop_coloop_for_matroid_indicators():
    rng = np.random.default_rng(14)
    for _ in range(40):
        rows = int(rng.integers(0, 5))
        m = int(rng.integers(1, 7))
        n = rng.integers(0, 2, size=(rows, m))
        f = binfun.rowspace_indicator(n)
        masks = [binfun.subset_index(n[r]) for r in range(rows)]
        basis = binfun.gf2_basis(masks)
        rank = len(basis)
        for i in range(m):
            bit = 1 << (m - 1 - i)
            loop = all(not (v & bit) for v in binfun.gf2_span(basis))
            without = binfun.gf2_basis([v & ~bit for v in basis])
            coloop = len(without) == rank - 1
            assert is_degenerate(f, i) == (loop or coloop)


def degenerate_reduction_check(f, u, i, mu1, mu2, tol=DEFAULT_TOL):
    """Biconditional check: equal minors at two distinct mu iff the slice
    factorization f(G : i <- b) = f(0 : i <- b) * u(G) holds.

    Returns True when both sides agree (both hold or both fail).
    NormalizationError propagates; callers treat it as inconclusive.
    """
    if complex(mu1) == complex(mu2):
        raise PoleError("need two distinct mu values")
    g1 = take_minor(f, MinorSpec(i, mu1), tol=tol)
    g2 = take_minor(f, MinorSpec(i, mu2), tol=tol)
    lhs = allclose(g1, g2, tol) and allclose(g1, u, tol) and allclose(g2, u, tol)

    a, b = _split_slices(f.values, f.m, i)
    scale = max(1.0, float(np.max(np.abs(f.values)))) * max(1.0, float(np.max(np.abs(u.values))))
    rhs = (np.max(np.abs(a - a[0] * u.values), initial=0.0) <= tol * scale
           and np.max(np.abs(b - b[0] * u.values), initial=0.0) <= tol * scale)
    return lhs == rhs


def test_degenerate_reduction_check_tensor_power():
    f1 = binfun.make(1, [1.0, ULOOP_RATIO])
    f2 = binfun.tensor(f1, f1)
    for i in (0, 1):
        assert degenerate_reduction_check(f2, f1, i, 1.0, -1.0)


def test_degenerate_reduction_check_failure_is_consistent():
    coloop = binfun.make(1, [1.0, 1.0])
    assert degenerate_reduction_check(DIGON, coloop, 0, 1.0, -1.0)


def test_degenerate_reduction_check_dimension_one():
    u = binfun.unit()
    for c in (0.3, -2.0 + 1.0j, 5.0):
        f = binfun.make(1, [1.0, c])
        assert degenerate_reduction_check(f, u, 0, 1.0, OMEGA)


def test_product_form_agrees_with_ratio_form():
    # The implemented product condition is equivalent to constant slice
    # ratios (or doubly-zero slices); checked against a direct ratio oracle.
    rng = np.random.default_rng(16)

    def ratio_form(f, i):
        w = f.values.reshape(2**i, 2, -1)
        a, b = w[:, 0, :].reshape(-1), w[:, 1, :].reshape(-1)
        t0, t1 = a[0], b[0]
        for x, y in zip(a, b):
            if abs(x) < 1e-12 and abs(y) < 1e-12:
                continue
            if abs(x) < 1e-12 or abs(t0) < 1e-12:
                return False
            if abs(y / x - t1 / t0) > 1e-7:
                return False
        return True

    cases = [binfun.make(1, [1.0, 1.0]), binfun.make(1, [1.0, 0.0]), DIGON]
    for _ in range(20):
        m = int(rng.integers(1, 5))
        cases.append(random_bf(rng, m))
        u = random_bf(rng, m)
        cases.append(binfun.tensor(binfun.make(1, [1.0, 0.7 - 0.2j]), u))
        cases.append(binfun.tensor(binfun.make(1, [1.0, 0.0]), u))
    for f in cases:
        assert is_degenerate(f, 0) == ratio_form(f, 0)


def test_minor_weights_reduce_to_deletion_and_restriction():
    # lambda(1) = 1 combines the slices; lambda(-1) = 0 keeps the 0-slice.
    rng = np.random.default_rng(18)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        f = random_bf(rng, m)
        i = int(rng.integers(0, m))
        w = f.values.reshape(2**i, 2, -1)
        a, b = w[:, 0, :].reshape(-1), w[:, 1, :].reshape(-1)
        deletion = (a + b) / (a + b)[0]
        restriction = a / a[0]
        assert np.allclose(take_minor(f, MinorSpec(i, 1.0)).values, deletion, atol=1e-12)
        assert np.allclose(take_minor(f, MinorSpec(i, -1.0)).values, restriction, atol=1e-12)


def test_take_minor_raw_matches_dense_operator():
    # Row operator (1 lambda) acting on the i-th tensor slot, cross-checked
    # against an explicit Kronecker build.
    rng = np.random.default_rng(15)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        f = random_bf(rng, m)
        i = int(rng.integers(0, m))
        mu = random_mu(rng)
        lam = lambda_mu(mu)
        op = np.eye(1, dtype=complex)
        for pos in range(m):
            block = np.array([[1.0, lam]]) if pos == i else np.eye(2)
            op = np.kron(op, block)
        assert np.allclose(op @ f.values, take_minor_raw(f, i, mu))
