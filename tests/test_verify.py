"""The Hadamard-duality check scores each distinct cutset space once: its
complement oracle matches the pair-by-pair form, and a planted fault in
the transform still makes it fail.  The commutation check's counterparts
are in test_minor.py.  A NaN residual anywhere among the samples fails
each transform check.  The claim checks' parts hold on their own: the
tensor-power lift is unique and breaks under perturbation, and the check
fails when a perturbed lift at any k still matched or when only the direct
minors differ; the funnel finds 4 / 1 / 1 maps on 2 / 3 / 4 edges, and
the main theorem fails when the forced image is not self-trial, a stack
element is not degenerate or any one stack image is corrupted.
The closed form that lets nu = 1 stand for every unit phase holds.  The
mu-independence check's planted functions are degenerate at the element it
tests.  The trial-cubed check fails when trial cubed breaks on one small
catalog map.  The noncommutation check, and with it its suite and the
run's exit code, fails when its search finds no witness."""

import dataclasses
import itertools

import numpy as np
import pytest

from trialab import binfun, verify
from trialab.cli import main
from trialab.altmap import isomorphic, labeled_equal, ultraloop_stack
from trialab.minor import (
    MU_POLE,
    is_degenerate,
    lambda_mu,
    minors_commute_check,
    raw_minors,
    transform_minor_check,
)
from trialab.represent import ultraloop_image
from trialab.transform import OMEGA, OMEGA2, ULOOP_RATIO, m_matrix, transform


def _pure_python_complement(values, m):
    """Indicator of the GF(2) orthogonal complement, one pair at a time."""
    support = [x for x in range(2**m) if values[x] == 1.0]
    out = np.zeros(2**m)
    for x in range(2**m):
        if all(bin(x & y).count("1") % 2 == 0 for y in support):
            out[x] = 1.0
    return out


def test_parity_table_complement_matches_pure_python_on_every_rowspace():
    spaces = 0
    for columns in range(0, 6):
        for rows in verify._all_subspaces(columns, columns):
            values = binfun.rowspace_indicator(columns, rows).values
            got = verify._gf2_complement_indicator(values, columns)
            expected = _pure_python_complement(values, columns)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            spaces += 1
    # Subspaces of GF(2)^c for c = 0..5: 1, 2, 5, 16, 67, 374.
    assert spaces == 465


def test_hadamard_duality_fails_when_the_transform_is_off(monkeypatch):
    real = verify.raw_transform

    def off_by_a_little(values, mu):
        return real(values, mu + 1e-6 if mu == -1.0 else mu)

    assert verify.check_hadamard_duality(np.random.default_rng(0)).passed
    monkeypatch.setattr(verify, "raw_transform", off_by_a_little)
    result = verify.check_hadamard_duality(np.random.default_rng(0))
    assert not result.passed
    assert result.details.startswith("3002 multigraphs")


def _distinct_cutset_spaces():
    """Cutset indicators of the check's multigraphs, each once, as bytes."""
    spaces = {}
    for edges in verify._all_multigraphs():
        m = len(edges)
        inc = [0, 0, 0, 0]
        for j, (a, b) in enumerate(edges):
            inc[a] ^= 1 << (m - 1 - j)
            inc[b] ^= 1 << (m - 1 - j)
        spaces.setdefault(binfun.rowspace_indicator(m, inc).values.tobytes())
    return list(spaces)


def test_hadamard_duality_scores_every_distinct_cutset_space(monkeypatch):
    # A transform that is off on one cutset space only must still fail the
    # check, wherever that space falls in the order of first appearance.
    spaces = _distinct_cutset_spaces()
    assert len(spaces) == 210
    real = verify.raw_transform
    for bad in (spaces[1], spaces[len(spaces) // 2], spaces[-1]):
        monkeypatch.setattr(verify, "raw_transform", _off_on_rows(real, bad, "off"))
        assert not verify.check_hadamard_duality(np.random.default_rng(0)).passed
    monkeypatch.setattr(verify, "raw_transform", real)
    result = verify.check_hadamard_duality(np.random.default_rng(0))
    assert result.details.startswith("3002 multigraphs, 210 cutset spaces, ")


def _off_on_rows(real, bad, how):
    """The stacked transform, but each output row whose input row has the
    bytes bad is NaN ("nan") or taken at mu + 1e-6 ("off")."""
    def patched(values, mu):
        out = real(values, mu)
        for r, row in enumerate(values):
            if row.tobytes() == bad:
                out[r] = np.nan if how == "nan" else real(row, mu + 1e-6)
        return out
    return patched


def _nan_on_call(monkeypatch, module, name, n, poison):
    """Patch module.name so that its n-th call (from 0) returns poison(output)."""
    real = getattr(module, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return poison(out) if next(calls) == n else out

    monkeypatch.setattr(module, name, patched)


def _drawn_values(samples, lo, hi, mus):
    """The values of each sample that a transform check draws from seed 0:
    m from lo..hi-1, a random function and mus parameters per sample."""
    rng = np.random.default_rng(0)
    drawn = []
    for _ in range(samples):
        drawn.append(verify._random_bf(rng, int(rng.integers(lo, hi))).values)
        for _ in range(mus):
            verify._random_mu_disk(rng)
    return drawn


@pytest.mark.parametrize("check, draws", [
    (verify.check_transform_composition, (200, 1, 9, 2)),
    (verify.check_fast_vs_dense, (50, 0, 7, 1)),
], ids=["composition", "fast-vs-dense"])
def test_a_nan_residual_in_the_middle_fails_the_transform_check(monkeypatch, check, draws):
    drawn = _drawn_values(*draws)
    middle = drawn[len(drawn) // 2].tobytes()
    assert sum(v.tobytes() == middle for v in drawn) == 1
    monkeypatch.setattr(verify, "raw_transform", _off_on_rows(verify.raw_transform, middle, "nan"))
    result = check(np.random.default_rng(0))
    assert not result.passed
    assert " nan " in result.details


def test_a_nan_residual_in_the_middle_fails_hadamard_duality(monkeypatch):
    middle = len(_distinct_cutset_spaces()) // 2
    _nan_on_call(monkeypatch, binfun, "proportionality_residual", middle,
                 lambda residual: float("nan"))
    result = verify.check_hadamard_duality(np.random.default_rng(0))
    assert not result.passed
    assert " nan " in result.details


def test_commutation_compares_no_two_element_function(monkeypatch):
    # At m = 2 both orders end at the dimension-0 unit; the function is
    # still drawn, so the random stream is unchanged.  Each size is one
    # stacked call.
    sizes = []
    calls = []

    def record(fs, mus, tol):
        m = fs.shape[-1].bit_length() - 1
        calls.append(m)
        sizes.extend([m] * len(fs))
        return 0, 0

    monkeypatch.setattr(verify, "minors_commute_check", record)
    verify.check_minor_commutation(np.random.default_rng(0))
    rng = np.random.default_rng(0)
    drawn = []
    for _ in range(100):
        drawn.append(int(rng.integers(2, 7)))
        verify._random_bf(rng, drawn[-1])
    assert 2 in drawn
    assert sorted(sizes) == sorted(m for m in drawn if m > 2)
    assert sorted(calls) == sorted(set(sizes))


def test_planted_element_is_degenerate_at_its_position():
    rng = np.random.default_rng(0)
    for m in range(2, 6):
        for i in range(m):
            for _ in range(3):
                assert is_degenerate(verify._plant_degenerate_element(rng, m, i), i), (m, i)


def test_unique_tensor_lift():
    rng = np.random.default_rng(22)
    for k in (1, 2, 3):
        rank, residual, direct = verify._tensor_lift(k, rng, 1e-9)
        # Rank equal to the 2**(k+1) unknowns: the system, which compares
        # minors at two parameters only, has one solution, so two values
        # suffice.
        assert rank == 2 ** (k + 1)
        assert residual <= 1e-9
        assert direct


def test_tensor_lift_perturbation():
    assert verify._perturbed_lift_breaks(1, 1e-9)
    assert verify._perturbed_lift_breaks(2, 1e-9)


@pytest.mark.parametrize("k", (1, 2, 3))
def test_tensor_lift_uniqueness_fails_when_a_perturbed_lift_still_matches(monkeypatch, k):
    real = verify._perturbed_lift_breaks
    monkeypatch.setattr(verify, "_perturbed_lift_breaks", lambda j, tol: j != k and real(j, tol))
    assert not verify.check_tensor_lift_uniqueness(np.random.default_rng(0)).passed


def test_tensor_lift_uniqueness_fails_when_only_the_direct_minors_differ(monkeypatch):
    # Minors off by 1e-6 at every parameter outside {1, w, w2}: the
    # perturbation route, which uses only those three, and the rank and
    # residual of the lift system stay clean, so the direct route alone
    # must fail the check.
    clean = verify.check_tensor_lift_uniqueness(np.random.default_rng(0))
    real = verify.take_minor

    def off_at_sampled_mus(f, spec):
        g = real(f, spec)
        if spec.mu in (1.0, OMEGA, OMEGA2):
            return g
        values = g.values.copy()
        values[-1] += 1e-6
        return binfun.make(g.m, values)

    monkeypatch.setattr(verify, "take_minor", off_at_sampled_mus)
    result = verify.check_tensor_lift_uniqueness(np.random.default_rng(0))
    assert clean.passed and not result.passed
    assert result.details == clean.details


def test_ultraloop_funnel():
    assert len(verify._funnel(1)) == len(verify._catalog(2).maps) == 4
    for k in (2, 3):
        (only,) = verify._funnel(k)
        assert isomorphic(only, ultraloop_stack(k + 1))
    assert verify.check_reduction_funnel(np.random.default_rng(0)).passed


def test_main_theorem_report():
    result = verify.check_main_theorem(np.random.default_rng(0))
    assert result.passed
    assert "classes 0..5 pass: True" in result.details
    assert "stack images degenerate at 15/15 elements" in result.details
    assert "3 obstruction witnesses" in result.details


def test_main_theorem_fails_when_the_forced_image_is_not_self_trial(monkeypatch):
    monkeypatch.setattr(verify, "self_trial", lambda f: False)
    result = verify.check_main_theorem(np.random.default_rng(0))
    assert not result.passed
    assert "0 obstruction witnesses" in result.details


def test_main_theorem_fails_when_a_stack_element_is_not_degenerate(monkeypatch):
    real = verify.is_degenerate

    def all_but_one(f, i, tol=1e-8):
        return real(f, i, tol) and not (f.m == 3 and i == 1)

    monkeypatch.setattr(verify, "is_degenerate", all_but_one)
    result = verify.check_main_theorem(np.random.default_rng(0))
    assert not result.passed
    assert "stack images degenerate at 14/15 elements" in result.details


@pytest.mark.parametrize("j", range(6))
def test_main_theorem_fails_when_any_one_stack_image_is_corrupted(monkeypatch, j):
    # The one class checked holds every stack of 0..5 ultraloops; a fault in
    # any one member's image fails it.  The image of the empty stack is the
    # constant 1, so only its dimension can be wrong.
    real = verify.canonical_class(5)
    images = list(real.images)
    if j == 0:
        images[0] = binfun.tensor_power(ultraloop_image(), 1)
    else:
        values = images[j].values.copy()
        values[-1] *= 1.5
        images[j] = binfun.make(j, values)
    corrupted = dataclasses.replace(real, images=tuple(images))
    monkeypatch.setattr(verify, "canonical_class", lambda k: corrupted)
    result = verify.check_main_theorem(np.random.default_rng(0))
    assert not result.passed
    assert "classes 0..5 pass: False" in result.details


def test_degenerate_minor_factor_never_vanishes():
    # 1 + lambda(mu) r = 2 sqrt(2) / (sqrt(2) + 1 - r mu) with r = sqrt(2) - 1:
    # the factor by which each minor of a tensor power of (1, r) scales the
    # next-lower power.  On the unit circle its modulus is at least 1.
    r = ULOOP_RATIO
    rng = np.random.default_rng(18)
    sampled = [complex(np.exp(2j * np.pi * rng.random())) for _ in range(50)]
    for mu in (1.0, -1.0, OMEGA, OMEGA2, 0.3 + 0.7j, *sampled):
        factor = 1 + lambda_mu(mu) * r
        assert abs(factor - 2 * np.sqrt(2) / (np.sqrt(2) + 1 - r * mu)) <= 1e-14
        if abs(abs(mu) - 1.0) <= 1e-12:
            assert abs(factor) >= 1 - 1e-12
        for k in (1, 2, 4):
            power = binfun.tensor_power(ultraloop_image(), k)
            lower = binfun.tensor_power(ultraloop_image(), k - 1).values
            for i in range(k):
                minor = raw_minors(power.values, i, mu)
                assert np.max(np.abs(minor - factor * lower)) <= 1e-14


# The six sampled checks as they were written before their kernel calls were
# stacked: one call per sample, in draw order.  Each restructured check must
# give the same result and leave the generator in the same state.

def _loop_composition(rng, tol=1e-9):
    residuals = []
    for _ in range(200):
        m = int(rng.integers(1, 9))
        f = verify._random_bf(rng, m)
        mu1 = verify._random_mu_disk(rng)
        mu2 = verify._random_mu_disk(rng)
        lhs = transform(transform(f, mu2), mu1).values
        rhs = transform(f, mu1 * mu2).values
        scale = float(np.max(np.abs(f.values)))
        residuals.append(float(np.max(np.abs(lhs - rhs))) / scale)
    worst = float(np.max(residuals))
    return verify.CheckResult("transforms", "composition", worst <= tol,
                              f"200 samples, worst residual {worst:.3e} (tol {tol:g})")


def _loop_fast_vs_dense(rng, tol=1e-10):
    deviations = []
    for _ in range(50):
        m = int(rng.integers(0, 7))
        f = verify._random_bf(rng, m)
        mu = verify._random_mu_disk(rng)
        fast = transform(f, mu).values
        dense = verify._dense_power(m_matrix(mu), m) @ f.values
        deviations.append(float(np.max(np.abs(fast - dense))))
    worst = float(np.max(deviations))
    return verify.CheckResult("transforms", "fast-vs-dense", worst <= tol,
                              f"50 samples m<=6, worst deviation {worst:.3e} (tol {tol:g})")


def _loop_hadamard_duality(rng, tol=1e-9):
    residuals = {}
    count = 0
    for edges in verify._all_multigraphs():
        m = len(edges)
        rows = verify._incidence_masks(edges)
        key = (m, tuple(sorted(binfun.gf2_span(binfun.gf2_basis(rows)))))
        if key not in residuals:
            cutset = binfun.rowspace_indicator(m, rows)
            circuit = verify._gf2_complement_indicator(cutset.values, m)
            residuals[key] = binfun.proportionality_residual(transform(cutset, -1.0), circuit)
        count += 1
    worst = float(np.max(list(residuals.values())))
    return verify.CheckResult("transforms", "hadamard-duality", worst <= tol,
                              f"{count} multigraphs, {len(residuals)} cutset spaces, "
                              f"worst residual {worst:.3e} (tol {tol:g})")


def _loop_transform_minor_interchange(rng, tol=1e-8):
    done = 0
    failures = 0
    while done < 200:
        m = int(rng.integers(1, 7))
        f = verify._random_bf(rng, m)
        mu, nu = verify._random_mu(rng), verify._random_mu(rng)
        if abs(mu * nu - MU_POLE) < 0.5:
            continue
        i = int(rng.integers(0, m))
        if not transform_minor_check(f, mu, nu, i, tol):
            failures += 1
        done += 1
    return verify.CheckResult("minors", "transform-minor-interchange", failures == 0,
                              f"200 samples, {failures} failures")


def _loop_minor_commutation(rng, tol=1e-9):
    mus = [1.0 + 0j, -1.0 + 0j, OMEGA, OMEGA2]
    failures = 0
    checks = 0
    for _ in range(100):
        m = int(rng.integers(2, 7))
        f = verify._random_bf(rng, m)
        if m == 2:
            continue
        compared, differing = minors_commute_check(f, mus, tol)
        checks += compared
        failures += differing
    return verify.CheckResult("minors", "commutation", failures == 0,
                              f"{checks} ordered pairs, {failures} failures (tol {tol:g})")


def _loop_degeneracy_matroid(rng, tol=1e-8):
    mismatches = 0
    total = 0
    for c in range(1, 6):
        for rows in verify._all_subspaces(c, 4):
            f = binfun.rowspace_indicator(c, rows)
            basis = binfun.gf2_basis(rows)
            rank = len(basis)
            for i in range(c):
                bit = 1 << (c - 1 - i)
                loop = all(not (v & bit) for v in basis)
                coloop = len(binfun.gf2_basis([v & ~bit for v in basis])) == rank - 1
                total += 1
                if is_degenerate(f, i, tol) != (loop or coloop):
                    mismatches += 1
    return verify.CheckResult("degeneracy", "matroid-loops-coloops", mismatches == 0,
                              f"{total} element checks over all rowspaces, "
                              f"{mismatches} mismatches")


@pytest.mark.parametrize("check, oracle", [
    (verify.check_transform_composition, _loop_composition),
    (verify.check_fast_vs_dense, _loop_fast_vs_dense),
    (verify.check_hadamard_duality, _loop_hadamard_duality),
    (verify.check_transform_minor_interchange, _loop_transform_minor_interchange),
    (verify.check_minor_commutation, _loop_minor_commutation),
    (verify.check_degeneracy_matroid, _loop_degeneracy_matroid),
])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_stacked_check_matches_its_per_sample_loop(check, oracle, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    # A draw before the check, so that it does not start from a fresh state.
    rng.random(), oracle_rng.random()
    assert check(rng) == oracle(oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_trial_cubed_fails_when_one_small_catalog_map_breaks(monkeypatch):
    # The exhaustive part compares every map, not only counts it.
    real = verify.trial_power
    target = next(g for g in verify._catalog(3).maps
                  if not labeled_equal(real(g, 1), g))

    def broken(g, times):
        return real(g, 1) if g is target else real(g, times)

    monkeypatch.setattr(verify, "trial_power", broken)
    result = verify.check_trial_cubed(np.random.default_rng(0))
    assert not result.passed
    assert result.details.endswith(", 1 failures")


def test_noncommutation_witness_fails_when_the_search_finds_none(monkeypatch, capsys):
    # The first non-commuting pair is on 4 edges, so a search capped at 3
    # finds none: the check, its suite and the run fail, with no WARNING line.
    monkeypatch.setattr(verify, "NONCOMMUTATION_CAP", 3)
    result = verify.check_noncommutation_witness(np.random.default_rng(0))
    assert not result.passed
    assert result.details == "no witness in catalogs up to 3 edges"
    assert main(["verify", "dimaps"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "CHECK dimaps.noncommutation-witness FAIL no witness in catalogs up to 3 edges" in lines
    assert "SUITE dimaps FAIL 5/6 checks" in lines
    assert not [ln for ln in lines if ln.startswith("WARNING")]
