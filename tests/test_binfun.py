import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from trialab import binfun
from trialab.errors import (
    DimensionMismatch,
    EmptySetNotOne,
    FileFormatError,
    IndexOutOfRange,
    NormalizationError,
    WrongLength,
)

U = np.sqrt(2.0) - 1.0


def test_make_dimension_zero():
    f = binfun.make(0, [1.0])
    assert f.m == 0 and f.values[0] == 1.0


def test_make_ultraloop_image():
    f = binfun.make(1, [1.0, U])
    assert f.values[1] == pytest.approx(U)


def test_make_rejects_bad_empty_set_entry():
    with pytest.raises(EmptySetNotOne):
        binfun.make(1, [0.0, 1.0])
    # Non-finite entries are rejected rather than snapped to 1, at any tolerance.
    for bad in (np.nan, np.inf, complex(1.0, np.nan)):
        for tol in (binfun.DEFAULT_TOL, np.inf):
            with pytest.raises(EmptySetNotOne):
                binfun.make(1, [bad, 2.0], tol=tol)


def test_make_rejects_wrong_length():
    with pytest.raises(WrongLength):
        binfun.make(2, [1.0, 0.0])


def test_make_normalized_divides_through():
    f = binfun.make_normalized(1, [2.0, 1.0])
    assert f.values[0] == 1.0
    assert f.values[1] == pytest.approx(0.5)


def test_make_normalized_rejects_tiny_entry():
    with pytest.raises(NormalizationError):
        binfun.make_normalized(1, [1e-12, 1.0])


def test_subset_index_examples():
    assert binfun.subset_index((0, 0)) == 0
    assert binfun.subset_index((1, 0)) == 2
    assert binfun.subset_index((0, 1)) == 1


@given(st.lists(st.integers(0, 1), max_size=10))
def test_subset_index_roundtrip(bits):
    idx = binfun.subset_index(bits)
    assert binfun.bits_of_index(idx, len(bits)) == tuple(bits)


def test_subset_index_is_inverse_on_all_indices():
    for m in range(0, 6):
        for x in range(2**m):
            assert binfun.subset_index(binfun.bits_of_index(x, m)) == x


def test_insert_bit_examples():
    assert binfun.insert_bit((1, 0), 1, 1) == (1, 1, 0)
    assert binfun.insert_bit((), 0, 0) == (0,)
    assert binfun.insert_bit((1, 1), 2, 0) == (1, 1, 0)


def test_insert_bit_out_of_range():
    with pytest.raises(IndexOutOfRange):
        binfun.insert_bit((1, 0), 3, 1)


@given(st.lists(st.integers(0, 1), max_size=8), st.integers(0, 8), st.integers(0, 1))
def test_insert_bit_preserves_order(bits, i, b):
    if i > len(bits):
        return
    out = binfun.insert_bit(bits, i, b)
    assert len(out) == len(bits) + 1
    assert out[i] == b
    assert out[:i] == tuple(bits[:i]) and out[i + 1:] == tuple(bits[i:])


def test_proportional_scaling():
    rng = np.random.default_rng(7)
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert binfun.proportional(2.5 * b, b)
    assert binfun.proportional((0.3 - 1.2j) * b, b)


def test_proportional_rejects_non_multiples():
    assert not binfun.proportional([1.0, 0.0], [1.0, 1.0])


def test_proportional_across_dot_chunks():
    # 2**14 entries span two DOT_CHUNK slices; a change in the second alone
    # must still break proportionality.
    rng = np.random.default_rng(11)
    b = rng.standard_normal(2**14) + 1j * rng.standard_normal(2**14)
    assert binfun.proportional((0.3 - 1.2j) * b, b)
    a = 2.0 * b
    a[-1] += 1.0
    assert not binfun.proportional(a, b)
    c = np.vdot(b, a) / np.vdot(b, b)
    expect = np.max(np.abs(a - c * b)) / np.max(np.abs(a))
    assert abs(binfun.proportionality_residual(a, b) - expect) <= 1e-12


def test_proportional_zero_vectors():
    assert binfun.proportional([0.0, 0.0], [0.0, 0.0])
    assert not binfun.proportional([0.0, 0.0], [1.0, 0.0])
    assert not binfun.proportional([1.0, 0.0], [0.0, 0.0])


def test_proportional_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        binfun.proportional([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


def test_binary_functions_proportional_iff_equal():
    # The empty-set entries pin the constant to 1.
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v[0] = w[0] = 1.0
        f, g = binfun.make(3, v), binfun.make(3, w)
        assert binfun.proportional(f, g, 1e-9) == binfun.allclose(f, g, 1e-7)


def test_tensor_unit_is_identity():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v[0] = 1.0
    f = binfun.make(2, v)
    g = binfun.tensor(f, binfun.unit())
    assert binfun.allclose(f, g, 0.0)


def test_tensor_of_ultraloop_images():
    f = binfun.make(1, [1.0, U])
    ff = binfun.tensor(f, f)
    assert np.allclose(ff.values, [1.0, U, U, U * U])


def test_tensor_of_indicators():
    coloop = binfun.make(1, [1.0, 1.0])
    loop = binfun.make(1, [1.0, 0.0])
    # Direct product of (1,1) and (1,0).
    assert np.allclose(binfun.tensor(coloop, loop).values, [1, 0, 1, 0])


def test_tensor_dimension_adds_and_associates():
    rng = np.random.default_rng(5)
    fs = []
    for m in (1, 2, 1):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        v[0] = 1.0
        fs.append(binfun.make(m, v))
    left = binfun.tensor(binfun.tensor(fs[0], fs[1]), fs[2])
    right = binfun.tensor(fs[0], binfun.tensor(fs[1], fs[2]))
    assert left.m == 4
    assert binfun.allclose(left, right, 1e-12)


def test_rowspace_indicator_loop_and_coloop():
    assert np.allclose(binfun.rowspace_indicator([[0]]).values, [1, 0])
    assert np.allclose(binfun.rowspace_indicator([[1]]).values, [1, 1])


def test_rowspace_indicator_digon():
    # Incidence matrix of two parallel edges; oracle enumerates all row
    # combinations by brute force.
    n = np.array([[1, 1], [1, 1]])
    expected = np.zeros(4)
    for take in itertools.product((0, 1), repeat=2):
        combo = (take[0] * n[0] + take[1] * n[1]) % 2
        expected[binfun.subset_index(combo)] = 1.0
    assert np.allclose(expected, [1, 0, 0, 1])
    assert np.allclose(binfun.rowspace_indicator(n).values, expected)


def test_rowspace_indicator_closed_under_gf2_sum():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rows = rng.integers(0, 5)
        cols = rng.integers(1, 7)
        n = rng.integers(0, 2, size=(rows, cols))
        f = binfun.rowspace_indicator(n)
        support = [i for i, z in enumerate(f.values) if z == 1.0]
        assert set(f.values) <= {0.0, 1.0}
        assert f.values[0] == 1.0
        for x in support:
            for y in support:
                assert f.values[x ^ y] == 1.0


def test_file_roundtrip(tmp_path):
    rng = np.random.default_rng(23)
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v[0] = 1.0
    f = binfun.make(3, v)
    path = tmp_path / "f.bf"
    binfun.write_binary_function(path, f)
    g = binfun.read_binary_function(path)
    assert g.m == 3
    assert binfun.allclose(f, g, 0.0)
    # Second roundtrip is byte-identical.
    path2 = tmp_path / "g.bf"
    binfun.write_binary_function(path2, g)
    assert path.read_text() == path2.read_text()


def test_file_comments_and_errors(tmp_path):
    path = tmp_path / "c.bf"
    path.write_text("# comment\nbf 1\n0 1 0\n1 0.5 0\n")
    raw = binfun.read_vector(path)
    assert raw.m == 1 and raw.values[1] == 0.5

    bad = tmp_path / "bad.bf"
    bad.write_text("bf 1\n1 1 0\n0 0.5 0\n")
    with pytest.raises(FileFormatError):
        binfun.read_vector(bad)

    raw_file = tmp_path / "raw.bf"
    raw_file.write_text("bf 1\n0 2 0\n1 0.5 0\n")
    with pytest.raises(EmptySetNotOne):
        binfun.read_binary_function(raw_file)

    for line in ("1 nan 0", "1 0.5 inf", "1 -inf 0"):
        non_finite = tmp_path / "non_finite.bf"
        non_finite.write_text(f"bf 1\n0 1 0\n{line}\n")
        with pytest.raises(FileFormatError):
            binfun.read_vector(non_finite)
