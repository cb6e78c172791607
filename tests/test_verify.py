"""The Hadamard-duality check scores each distinct cutset space once: its
complement oracle matches the pair-by-pair form, and a planted fault in
the transform still makes it fail.  The commutation check's counterparts
are in test_minor.py.  A NaN residual anywhere among the samples fails
each transform check."""

import itertools

import numpy as np
import pytest

from trialab import binfun, verify


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
        for mat in verify._all_subspaces(columns, columns):
            values = binfun.rowspace_indicator(mat).values
            got = verify._gf2_complement_indicator(values, columns)
            expected = _pure_python_complement(values, columns)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
            spaces += 1
    # Subspaces of GF(2)^c for c = 0..5: 1, 2, 5, 16, 67, 374.
    assert spaces == 465


def test_hadamard_duality_fails_when_the_transform_is_off(monkeypatch):
    real = verify.transform

    def off_by_a_little(f, mu):
        return real(f, mu + 1e-6 if mu == -1.0 else mu)

    assert verify.check_hadamard_duality(np.random.default_rng(0)).passed
    monkeypatch.setattr(verify, "transform", off_by_a_little)
    result = verify.check_hadamard_duality(np.random.default_rng(0))
    assert not result.passed
    assert result.details.startswith("3002 multigraphs")


def _distinct_cutset_spaces():
    """Cutset indicators of the check's multigraphs, each once, as bytes."""
    spaces = {}
    for edges in verify._all_multigraphs():
        inc = np.zeros((4, len(edges)), dtype=int)
        for j, (a, b) in enumerate(edges):
            inc[a, j] ^= 1
            inc[b, j] ^= 1
        spaces.setdefault(binfun.rowspace_indicator(inc).values.tobytes())
    return list(spaces)


def test_hadamard_duality_scores_every_distinct_cutset_space(monkeypatch):
    # A transform that is off on one cutset space only must still fail the
    # check, wherever that space falls in the order of first appearance.
    spaces = _distinct_cutset_spaces()
    assert len(spaces) == 210
    real = verify.transform
    for bad in (spaces[1], spaces[len(spaces) // 2], spaces[-1]):
        def off_on_one_space(f, mu, bad=bad):
            return real(f, mu + 1e-6 if f.values.tobytes() == bad else mu)

        monkeypatch.setattr(verify, "transform", off_on_one_space)
        assert not verify.check_hadamard_duality(np.random.default_rng(0)).passed


def _nan_on_call(monkeypatch, module, name, n, poison):
    """Patch module.name so that its n-th call (from 0) returns poison(output)."""
    real = getattr(module, name)
    calls = itertools.count()

    def patched(*args, **kwargs):
        out = real(*args, **kwargs)
        return poison(out) if next(calls) == n else out

    monkeypatch.setattr(module, name, patched)


def _nan_values(f):
    return binfun.RawVector(f.m, np.full_like(f.values, np.nan))


@pytest.mark.parametrize("check, calls", [
    (verify.check_transform_composition, 600),  # 200 samples, three transforms each
    (verify.check_fast_vs_dense, 50),
])
def test_a_nan_residual_in_the_middle_fails_the_transform_check(monkeypatch, check, calls):
    _nan_on_call(monkeypatch, verify, "transform", calls // 2, _nan_values)
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
