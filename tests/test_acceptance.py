"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s`) and asserts
the verdict, so plain `pytest` enforces every criterion.  Each check fixes
the tolerance its comment states and prints it in its details.  Randomized
criteria use a fixed seed.
"""

import numpy as np

from trialab import verify

SEED = 1


def _report(number: int, result: verify.CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {result.suite}.{result.name}: {status} ({result.details})")
    assert result.passed, result.details


def _rng():
    return np.random.default_rng(SEED)


def test_c01_transform_composition():
    # 200 random parameter pairs, m in 1..8, sup-error <= 1e-9 * ||f||_inf.
    _report(1, verify.check_transform_composition(_rng()))


def test_c02_fast_matches_dense():
    # 50 random (f, mu) with m <= 6 against the explicit Kronecker-power
    # matrix multiply, within 1e-10.
    _report(2, verify.check_fast_vs_dense(_rng()))


def test_c03_hadamard_duality():
    # All multigraphs with <= 5 edges on <= 4 vertices: the transform at -1
    # sends the cutset indicator to the circuit indicator (brute-force GF(2)
    # complement oracle), residual <= 1e-9.
    _report(3, verify.check_hadamard_duality(_rng()))


def test_c04_transform_minor_interchange():
    # 200 random (f, mu, nu, i) with m <= 6, proportional within 1e-8; the
    # identity compares raw vectors, so no sample is redrawn.
    _report(4, verify.check_transform_minor_interchange(_rng()))


def test_c05_minor_commutation():
    # 100 random f (m <= 6), all element pairs, parameters from
    # {1, -1, w, w2}: both orders equal within 1e-9.
    _report(5, verify.check_minor_commutation(_rng()))


def test_c06_degeneracy_matches_loops_coloops():
    # All rowspaces with <= 4 rows and <= 5 columns, rank oracle, zero
    # mismatches.
    _report(6, verify.check_degeneracy_matroid(_rng()))


def test_c07_degeneracy_mu_independence():
    # 100 random f (m <= 5); two independent distinct-parameter pairs give
    # identical verdicts per element, zero mismatches.
    _report(7, verify.check_degeneracy_mu_independence(_rng()))


def test_c08_eigenvector():
    # The generator at w fixes (1, sqrt(2)-1) within 1e-12.
    _report(8, verify.check_eigenvector(_rng()))


def test_c09_enumeration_counts():
    # The catalogs on k = 0..4 edges hold Burnside's 1, 1, 4, 11, 43 maps.
    _report(9, verify.check_enumeration_counts(_rng()))


def test_c10_self_trial_on_two_edges():
    # Exactly one self-trial two-edge map, the double ultraloop.
    _report(10, verify.check_self_trial_two_edges(_rng()))


def test_c11_trial_cubed():
    # Labeled identity for every map with <= 3 edges and 100 random 4-edge
    # maps.
    _report(11, verify.check_trial_cubed(_rng()))


def test_c12_triality_minor_identity():
    # Exhaustive over all maps with <= 3 edges and all parameter pairs.
    _report(12, verify.check_triality_minor_identity(_rng()))


def test_c13_triloop_equivalence():
    # Classification flag agrees with three-way reduction equality.
    _report(13, verify.check_triloop_equivalence(_rng()))


def test_c14_reduction_funnel():
    # Three-edge maps whose reductions all give the double stack: only the
    # triple stack; on two edges all four maps qualify.
    _report(14, verify.check_reduction_funnel(_rng()))


def test_c15_tensor_lift_uniqueness():
    # For k <= 3 the constraint system has a unique solution equal to the
    # tensor power (rank check plus residual <= 1e-9).
    _report(15, verify.check_tensor_lift_uniqueness(_rng()))


def test_c16_main_theorem():
    # Canonical classes up to k = 5 pass at nu = 1, and so at every unit nu,
    # since every element of their images is degenerate; each non-stack
    # two-edge map yields a self-triality obstruction witness.
    _report(16, verify.check_main_theorem(_rng()))


def test_c17_noncommutation_witness():
    # A non-commuting pair of reductions in the catalogs up to 4 edges; a
    # search that finds none fails.
    _report(17, verify.check_noncommutation_witness(_rng()))
