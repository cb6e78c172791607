import numpy as np
import pytest

from trialab import binfun
from trialab.binfun import DEFAULT_TOL
from trialab.errors import NotMinorClosed
from trialab.represent import (
    RepresentationCandidate,
    _pullback,
    canonical_class,
    check_representation,
    main_theorem_check,
    tensor_lift_perturbation_breaks,
    ultraloop_funnel_check,
    ultraloop_image,
    unique_tensor_lift_check,
)
from trialab.transform import ULOOP_RATIO, self_trial

U = ULOOP_RATIO


def _pullback_loop(values, m, position_map):
    """Entry by entry: the bit of element i in X moves to position_map(i)."""
    out = np.empty_like(values)
    for x in range(2**m):
        y = 0
        for i in range(m):
            if x & (1 << (m - 1 - i)):
                y |= 1 << (m - 1 - position_map[i])
        out[x] = values[y]
    return out


def test_pullback_matches_bitwise_loop():
    rng = np.random.default_rng(23)
    for m in range(1, 11):
        for _ in range(3):
            values = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
            position_map = dict(enumerate(int(q) for q in rng.permutation(m)))
            assert np.array_equal(_pullback(values, m, position_map),
                                  _pullback_loop(values, m, position_map))


def test_ultraloop_image_is_the_fixed_vector():
    f = ultraloop_image()
    assert np.max(np.abs(f.values - np.array([1.0, U]))) <= 1e-12


def test_canonical_class_shapes():
    cand = canonical_class(2)
    assert [g.n_edges() for g in cand.members] == [0, 1, 2]
    assert np.allclose(cand.images[2].values, [1, U, U, U * U])
    assert cand.edge_maps[2] == {"e0": 0, "e0~2": 1}


def test_canonical_classes_pass():
    for k in range(0, 6):
        assert check_representation(canonical_class(k)).passed


def test_canonical_classes_pass_for_any_unit_phase():
    rng = np.random.default_rng(21)
    for _ in range(10):
        nu = np.exp(2j * np.pi * rng.random())
        assert check_representation(canonical_class(3, nu)).passed


def test_non_self_trial_image_fails_triality():
    cand = canonical_class(1)
    broken = RepresentationCandidate(
        cand.members,
        (cand.images[0], binfun.make(1, [1.0, 1.0])),
        cand.edge_maps, 1.0)
    report = check_representation(broken)
    assert not report.passed
    assert not report.triality.passed
    assert report.triality.witnesses


def test_non_unit_phase_fails():
    cand = canonical_class(1)
    bad = RepresentationCandidate(cand.members, cand.images, cand.edge_maps, 2.0)
    report = check_representation(bad)
    assert not report.unit_phase.passed


def test_broken_edge_map_fails():
    cand = canonical_class(1)
    bad = RepresentationCandidate(
        cand.members, cand.images, (cand.edge_maps[0], {"e0": 1}), 1.0)
    report = check_representation(bad)
    assert not report.edge_bijections.passed


def test_not_minor_closed_raises():
    cand = canonical_class(2)
    # Drop the middle member: reductions of the two-edge stack now leave
    # the class.
    bad = RepresentationCandidate(
        (cand.members[0], cand.members[2]),
        (cand.images[0], cand.images[2]),
        (cand.edge_maps[0], cand.edge_maps[2]), 1.0)
    with pytest.raises(NotMinorClosed):
        check_representation(bad)


def search_unit_phase(candidate, tol=DEFAULT_TOL, samples=720):
    """Coarse unit-circle scan for a phase that makes the candidate pass.

    Distinguishes "wrong nu" from "unrepresentable" after a failure.
    """
    for j in range(samples):
        nu = np.exp(2j * np.pi * j / samples)
        trial_candidate = RepresentationCandidate(
            candidate.members, candidate.images, candidate.edge_maps, nu)
        if check_representation(trial_candidate, tol).passed:
            return complex(nu)
    return None


def test_search_unit_phase_finds_one():
    cand = canonical_class(2)
    assert search_unit_phase(cand, samples=8) is not None


def test_tensor_powers_are_self_trial():
    base = ultraloop_image()
    for k in range(0, 9):
        assert self_trial(binfun.tensor_power(base, k))


def test_unique_tensor_lift():
    rng = np.random.default_rng(22)
    for k in (1, 2, 3):
        ok, details = unique_tensor_lift_check(k, rng)
        assert ok
        assert details["rank"] == details["unknowns"] == 2 ** (k + 1)
        assert details["residual"] <= 1e-9
        assert details["two_values_suffice"]


def test_tensor_lift_perturbation():
    assert tensor_lift_perturbation_breaks(1)
    assert tensor_lift_perturbation_breaks(2)


def test_ultraloop_funnel():
    ok1, d1 = ultraloop_funnel_check(1)
    assert ok1 and d1["qualifying"] == 4
    ok2, d2 = ultraloop_funnel_check(2)
    assert ok2 and d2["qualifying"] == 1
    ok3, d3 = ultraloop_funnel_check(3)
    assert ok3 and d3["qualifying"] == 1


def test_main_theorem_report():
    report = main_theorem_check(5)
    assert report.passed
    assert all(report.classes_pass[k] for k in range(6))
    assert len(report.obstructions) == 3


def test_empty_class_passes():
    empty = RepresentationCandidate((), (), (), 1.0)
    assert check_representation(empty).passed


def test_single_member_class_passes():
    cand = canonical_class(0)
    assert check_representation(cand).passed
    assert cand.members[0].n_edges() == 0
