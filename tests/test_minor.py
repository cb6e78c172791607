import itertools
import re

import numpy as np
import pytest

from trialab import binfun, minor, verify
from trialab.binfun import DEFAULT_TOL, allclose, slices
from trialab.errors import (
    IndexOutOfRange,
    NonFiniteValue,
    NormalizationError,
    PoleError,
    WrongLength,
)
from trialab.minor import (
    MU_POLE,
    MinorSpec,
    is_degenerate,
    lambda_mu,
    minors_commute_check,
    raw_minors,
    take_minor,
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


def test_minors_commute_on_random_inputs():
    # Each draw's pair (i, mu_i), (j, mu_j) is one of the C(m, 2) * 4 pairs
    # that the check compares at mus = [mu_i, mu_j]; none may be skipped.
    rng = np.random.default_rng(8)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        f = random_bf(rng, m)
        i, j = rng.choice(m, size=2, replace=False)
        mus = [random_mu(rng), random_mu(rng)]
        assert minors_commute_check(f, mus, 1e-9) == (m * (m - 1) // 2 * 4, 0)


def test_minors_commute_examples():
    rng = np.random.default_rng(9)
    f = random_bf(rng, 4)
    # Covers (0, -1) with (2, -1), and (1, w) with (3, w2), among all pairs.
    assert minors_commute_check(f, [-1.0]) == (6, 0)
    assert minors_commute_check(f, [OMEGA, OMEGA2]) == (24, 0)
    # Graph-minor oracle on the digon: delete/contract in both orders ends
    # at the dimension-0 unit either way.
    out1 = take_minor(take_minor(DIGON, MinorSpec(0, 1.0)), MinorSpec(0, -1.0))
    out2 = take_minor(take_minor(DIGON, MinorSpec(1, -1.0)), MinorSpec(0, 1.0))
    assert out1.m == out2.m == 0
    assert minors_commute_check(DIGON, [1.0, -1.0]) == (4, 0)


def _per_pair_commute_check(f, spec1, spec2, tol=DEFAULT_TOL):
    """The commutation check one pair at a time, four take_minor calls per
    pair: both application orders agree entrywise."""
    if spec1.element == spec2.element:
        raise IndexOutOfRange("commutation check needs distinct elements")

    def after(first, second):
        # Looked up on the module, so that a patched take_minor reaches here.
        g = minor.take_minor(f, first, tol=tol)
        j = second.element - (1 if second.element > first.element else 0)
        return minor.take_minor(g, MinorSpec(j, second.mu), tol=tol)

    return allclose(after(spec1, spec2), after(spec2, spec1), tol)


def _per_pair_counts(f, mus, tol=DEFAULT_TOL):
    compared = differing = 0
    for i, j in itertools.combinations(range(f.m), 2):
        for mu1, mu2 in itertools.product(mus, repeat=2):
            try:
                ok = _per_pair_commute_check(f, MinorSpec(i, mu1), MinorSpec(j, mu2), tol)
            except NormalizationError:
                continue
            compared += 1
            differing += not ok
    return compared, differing


def _singleton(m, i):
    return 1 << (m - 1 - i)


def test_minors_commute_check_matches_per_pair_oracle():
    rng = np.random.default_rng(40)
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    skipped = 0
    for m in range(2, 7):
        for plant in ("none", "first", "second"):
            v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
            v[0] = 1.0
            i, j = sorted(int(x) for x in rng.choice(m, size=2, replace=False))
            if plant == "first":
                # The mu = 1 minor at i has raw empty-set entry 1 + f[e_i] = 0.
                v[_singleton(m, i)] = -1.0
            elif plant == "second":
                # Both first minors at mu = 1 exist, but either second minor
                # at mu = 1 has raw empty-set entry 0.
                v[_singleton(m, i)] = 0.0
                v[_singleton(m, j)] = 0.5
                v[_singleton(m, i) | _singleton(m, j)] = -1.5
            f = binfun.make(m, v)
            expected = _per_pair_counts(f, mus)
            assert minors_commute_check(f, mus) == expected
            skipped += m * (m - 1) // 2 * len(mus) ** 2 - expected[0]
    assert skipped > 0


def test_stacked_minor_rows_equal_one_vector_minors_bit_for_bit():
    rng = np.random.default_rng(42)
    mus = np.array([1.0, -1.0, OMEGA, OMEGA2, 3.0, random_mu(rng)])
    for m in range(1, 9):
        fs = [random_bf(rng, m) for _ in range(3)]
        stack = np.stack([f.values for f in fs])
        for i in range(m):
            rows = raw_minors(stack, i, mus[:, None])
            assert rows.shape == (len(mus), len(fs), 2 ** (m - 1))
            normalized = rows.copy()
            ok = minor._normalize_rows(normalized, DEFAULT_TOL)
            for a, mu in enumerate(mus):
                one_mu = raw_minors(stack, i, complex(mu))
                for r, f in enumerate(fs):
                    raw = raw_minors(f.values, i, complex(mu))
                    assert rows[a, r].tobytes() == one_mu[r].tobytes() == raw.tobytes()
                    try:
                        g = take_minor(f, MinorSpec(i, complex(mu)))
                    except NormalizationError:
                        assert not ok[a, r]
                        continue
                    assert ok[a, r]
                    assert normalized[a, r].tobytes() == g.values.tobytes()


def test_minors_commute_check_matches_per_pair_oracle_beyond_verify_sizes():
    rng = np.random.default_rng(43)
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    for m in (7, 8):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        v[0] = 1.0
        f = binfun.make(m, v)
        assert minors_commute_check(f, mus) == _per_pair_counts(f, mus) == (m * (m - 1) // 2 * 16, 0)
        # The mu = 1 minor at element 3 does not normalize.
        v[_singleton(m, 3)] = -1.0
        f = binfun.make(m, v)
        expected = _per_pair_counts(f, mus)
        assert minors_commute_check(f, mus) == expected
        assert expected[0] < m * (m - 1) // 2 * 16


def test_minors_commute_check_refuses_an_overflowed_first_minor():
    # lambda(3) * 1e308 overflows the raw empty-set entry of the minor at the
    # element, wherever that element sits.
    for i in range(3):
        v = np.ones(8)
        v[_singleton(3, i)] = 1e308
        f = binfun.make(3, v)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
            minors_commute_check(f, [3.0])


def test_minors_commute_check_refuses_an_overflowed_second_minor():
    # Every first minor at mu = 3 has the finite empty-set entry 1 + lambda(3),
    # but the entry at {e_i, e_j} overflows the second minors of each pair.
    for i, j in itertools.combinations(range(3), 2):
        v = np.ones(8)
        v[_singleton(3, i) | _singleton(3, j)] = 1e308
        f = binfun.make(3, v)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
            minors_commute_check(f, [3.0])


def test_minors_commute_check_skips_the_rows_of_a_skipped_first_minor():
    # At mu = 1 the minor at e_0 has empty-set entry f(0) + f({e_0}) = 0, so
    # it is skipped; its second minor at e_1 would have the overflowed
    # empty-set entry f({e_1}) + f({e_0, e_1}), and is never examined.
    v = np.ones(8)
    v[_singleton(3, 0)] = -1.0
    v[_singleton(3, 1)] = v[_singleton(3, 0) | _singleton(3, 1)] = 1e308
    f = binfun.make(3, v)
    with np.errstate(over="ignore", invalid="ignore"):
        assert minors_commute_check(f, [1.0]) == _per_pair_counts(f, [1.0]) == (1, 0)


def test_stacked_commute_check_sums_the_per_function_counts():
    # Random functions, functions whose minors are skipped at mu = 1, and
    # the refusal of a stack with one overflowing function.
    rng = np.random.default_rng(45)
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    for m in range(2, 7):
        fs = [random_bf(rng, m) for _ in range(4)]
        v = fs[1].values.copy()
        v[_singleton(m, 0)] = -1.0
        fs[1] = binfun.make(m, v)
        v = fs[2].values.copy()
        v[_singleton(m, m - 1)] = -1.0
        fs[2] = binfun.make(m, v)
        counts = [minors_commute_check(f, mus) for f in fs]
        assert counts[1][0] < counts[0][0] and counts[2][0] < counts[0][0]
        stacked = minors_commute_check(np.stack([f.values for f in fs]), mus)
        assert stacked == tuple(map(sum, zip(*counts)))
        two_axes = np.stack([f.values for f in fs]).reshape(2, 2, -1)
        assert minors_commute_check(two_axes, mus) == stacked
    v = np.ones((3, 8))
    v[1, _singleton(3, 1)] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteValue):
        minors_commute_check(v, [3.0])
    # Row 1 becomes the function whose skipped first minor at e_0 would
    # overflow its second minor, which is never examined.
    v[1, _singleton(3, 0)] = -1.0
    v[1, _singleton(3, 0) | _singleton(3, 1)] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        counts = [minors_commute_check(binfun.make(3, row), [1.0]) for row in v]
        assert counts == [(3, 0), (1, 0), (3, 0)]
        assert minors_commute_check(v, [1.0]) == (7, 0)


def test_stacked_interchange_check_gives_each_functions_verdict(monkeypatch):
    rng = np.random.default_rng(46)
    real = minor.raw_transform

    def off_in_row_one(values, mu):
        out = real(values, mu)
        out[1, -1] += 1e-3
        return out

    for m in range(1, 7):
        for i in range(m):
            fs = [random_bf(rng, m) for _ in range(4)]
            mus = np.array([random_mu(rng) for _ in fs])
            nus = np.array([random_mu(rng) for _ in fs])
            values = np.stack([f.values for f in fs])
            verdicts = transform_minor_check(values, mus, nus, i, 1e-8)
            assert verdicts.tolist() == [transform_minor_check(f, complex(mu), complex(nu), i, 1e-8)
                                         for f, mu, nu in zip(fs, mus, nus)] == [True] * 4
            # A transform that is off in one row fails that row only; at
            # m = 1 both sides are single entries, always proportional.
            with monkeypatch.context() as mp:
                mp.setattr(minor, "raw_transform", off_in_row_one)
                wrong = transform_minor_check(values, mus, nus, i, 1e-8)
            assert wrong.tolist() == [True, m == 1, True, True]


def perturb_element_zero(kernel):
    """The minor kernel, but raw minors that remove element 0 are off by
    1e-6 past their empty-set entry."""
    def perturbed(values, i, mu):
        raw = kernel(values, i, mu)
        if i == 0:
            raw[..., 1:] += 1e-6
        return raw
    return perturbed


def test_minors_commute_check_matches_per_pair_oracle_on_a_faulty_minor(monkeypatch):
    # take_minor runs through the same kernel, so the per-pair oracle sees
    # the fault as the stacked check does.  From m = 2 both orders end at
    # dimension 0, where every function is the unit, so the sizes start at 3.
    monkeypatch.setattr(minor, "raw_minors", perturb_element_zero(raw_minors))
    rng = np.random.default_rng(41)
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    for m in range(3, 7):
        f = random_bf(rng, m)
        compared, differing = minors_commute_check(f, mus)
        assert (compared, differing) == _per_pair_counts(f, mus)
        assert differing > 0


def _commutation_counts(result):
    pattern = r"(\d+) ordered pairs, (\d+) failures"
    return tuple(map(int, re.match(pattern, result.details).groups()))


def test_verify_commutation_reports_failures_when_a_minor_is_off(monkeypatch):
    clean = verify.check_minor_commutation(np.random.default_rng(0))
    assert clean.passed
    monkeypatch.setattr(minor, "raw_minors", perturb_element_zero(raw_minors))
    result = verify.check_minor_commutation(np.random.default_rng(0))
    checks, failures = _commutation_counts(result)
    assert not result.passed
    assert checks == _commutation_counts(clean)[0] and failures > 0


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


def test_minor_element_out_of_range():
    f = random_bf(np.random.default_rng(15), 3)
    for i in (-1, 3):
        with pytest.raises(IndexOutOfRange, match="outside 0..2"):
            take_minor(f, MinorSpec(i, 1.0))


@pytest.mark.parametrize("size", [3, 5, 6])
@pytest.mark.parametrize("lead", [(), (2,)])
def test_every_minor_kernel_rejects_a_length_that_is_not_a_power_of_two(size, lead):
    # One vector and a stack of two, each coerced by binfun.vectors before
    # any reshape, so numpy's own ValueError never reaches the caller.
    values = np.ones(lead + (size,), dtype=complex)
    calls = [lambda: raw_minors(values, 0, 1.0),
             lambda: is_degenerate(values, 0),
             lambda: minors_commute_check(values, [1.0]),
             lambda: transform_minor_check(values, 1.0, OMEGA, 0)]
    for call in calls:
        with pytest.raises(WrongLength, match=f"length {size} is not a power of two"):
            call()


def test_degenerate_examples():
    assert is_degenerate(binfun.make(1, [1.0, 1.0]), 0)
    assert is_degenerate(binfun.make(1, [1.0, 0.0]), 0)
    assert not is_degenerate(DIGON, 0)
    # Cross-check against distinct minors: deletion (1,1) vs contraction (1,0).
    dele = take_minor(DIGON, MinorSpec(0, 1.0))
    cont = take_minor(DIGON, MinorSpec(0, -1.0))
    assert not binfun.allclose(dele, cont, 1e-9)


def test_degeneracy_tolerance_scales_with_the_slice_ratio():
    # Element 0 splits these into the slices (1, 1) and (3, 3 + r): ratio
    # t = 3, largest entry 3, so the bound is tol * 3 * max(1, |t|) = 9 tol.
    # A residual of 5 tol passes only because the bound scales with |t|.
    tol = 1e-8
    assert is_degenerate(binfun.make(2, [1.0, 1.0, 3.0, 3.0 + 5 * tol]), 0, tol)
    assert not is_degenerate(binfun.make(2, [1.0, 1.0, 3.0, 3.0 + 10 * tol]), 0, tol)


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
            # Move the factor's element to position i: entry x of f is the
            # entry of g at x's bit for e_i followed by x's other bits.
            low = m - 1 - i
            vals = np.empty(2**m, dtype=complex)
            for x in range(2**m):
                src = (((x >> low) & 1) << (m - 1)) | ((x >> (low + 1)) << low) \
                    | (x & ((1 << low) - 1))
                vals[x] = g.values[src]
            f = binfun.make(m, vals)
            assert is_degenerate(f, i)
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
        masks = [int(x) for x in rng.integers(0, 2**m, size=rows)]
        f = binfun.rowspace_indicator(m, masks)
        basis = binfun.gf2_basis(masks)
        rank = len(basis)
        for i in range(m):
            bit = 1 << (m - 1 - i)
            loop = all(not (v & bit) for v in binfun.gf2_span(basis))
            without = binfun.gf2_basis([v & ~bit for v in basis])
            coloop = len(without) == rank - 1
            assert is_degenerate(f, i) == (loop or coloop)


def test_stacked_is_degenerate_equals_the_per_vector_loop():
    # Every rowspace indicator on up to 5 columns, and functions with a
    # planted degenerate element beside random ones.
    stacks = {}
    for c in range(1, 6):
        stacks[c] = [binfun.rowspace_indicator(c, rows) for rows in verify._all_subspaces(c, c)]
    assert sum(len(fs) for fs in stacks.values()) == 465 - 1  # all but GF(2)^0
    rng = np.random.default_rng(44)
    for m in range(1, 6):
        for i in range(m):
            if m > 1:
                stacks[m] += [verify._plant_degenerate_element(rng, m, i) for _ in range(3)]
            stacks[m] += [random_bf(rng, m) for _ in range(3)]
    degenerate = 0
    for m, fs in stacks.items():
        values = np.stack([f.values for f in fs])
        for i in range(m):
            verdicts = is_degenerate(values, i)
            assert verdicts.tolist() == [is_degenerate(f, i) for f in fs]
            degenerate += int(np.count_nonzero(verdicts))
    assert 0 < degenerate < sum(len(fs) * m for m, fs in stacks.items())


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

    a, b = (s.reshape(-1) for s in slices(f.values, i))
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


def test_raw_minors_matches_dense_operator():
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
        assert np.allclose(op @ f.values, raw_minors(f.values, i, mu))


def _slice_copy_minor(f, i, mu):
    """raw_minors and take_minor as computed with both slices copied out:
    a + lam*b, then divided by its empty-set entry and passed through make."""
    w = f.values.reshape(2**i, 2, -1)
    a, b = w[:, 0, :].reshape(-1), w[:, 1, :].reshape(-1)
    raw = a + lambda_mu(mu) * b
    return raw, binfun.make(f.m - 1, raw / raw[0], tol=np.inf)


def test_take_minor_is_bit_identical_to_slice_copy_oracle():
    # m = 12..14 straddle binfun.DOT_CHUNK; every element and five mu.
    rng = np.random.default_rng(33)
    mus = (1.0, -1.0, OMEGA, OMEGA2, random_mu(rng))
    for m in range(1, 15):
        f = random_bf(rng, m)
        for i in range(m):
            for mu in mus:
                raw, g = _slice_copy_minor(f, i, mu)
                assert raw_minors(f.values, i, mu).tobytes() == raw.tobytes()
                out = take_minor(f, MinorSpec(i, mu))
                assert out.values.tobytes() == g.values.tobytes()
                assert out.m == m - 1
