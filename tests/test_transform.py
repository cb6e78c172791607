import numpy as np
import pytest

from trialab import binfun
from trialab.errors import SingularTransform
from trialab.transform import (
    OMEGA,
    OMEGA2,
    ULOOP_RATIO,
    inverse_transform,
    m_matrix,
    self_trial,
    transform,
)


def random_bf(rng, m):
    v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
    v[0] = 1.0
    return binfun.make(m, v)


def dense_kronecker_power(matrix, m):
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, matrix)
    return out


def test_omega_is_a_cube_root_of_unity():
    assert abs(OMEGA**3 - 1) < 3e-16
    assert abs(OMEGA * OMEGA2 - 1) < 3e-16


def test_m_matrix_identity_at_one():
    assert np.array_equal(m_matrix(1.0).entries, np.eye(2))


def test_m_matrix_hadamard_at_minus_one():
    # Substituting mu = -1 into the generator gives (1/sqrt(2)) [[1,1],[1,-1]].
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert np.allclose(m_matrix(-1.0).entries, expected, atol=1e-15)


def test_m_matrix_determinant_is_mu():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = complex(*rng.standard_normal(2))
        assert abs(np.linalg.det(m_matrix(mu).entries) - mu) < 1e-12


def test_m_matrix_omega_eigenvalues():
    eig = np.linalg.eigvals(m_matrix(OMEGA).entries)
    assert min(abs(eig - 1.0)) < 1e-12
    assert min(abs(eig - OMEGA)) < 1e-12


def test_transform_identity_is_exact():
    rng = np.random.default_rng(1)
    for m in (4, 5, 9, 13):
        f = random_bf(rng, m)
        out = transform(f, 1.0)
        assert np.array_equal(out.values, f.values)


def test_transform_leaves_input_unchanged():
    rng = np.random.default_rng(7)
    for m in (0, 3, 9):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        before = v.copy()
        out = transform(v, OMEGA)
        assert np.array_equal(v, before)
        assert v.flags.writeable and not np.shares_memory(out.values, v)


def test_transform_dimension_zero():
    out = transform(binfun.unit(), 0.37 + 0.2j)
    assert out.m == 0 and out.values[0] == 1.0


def test_transform_fixes_ultraloop_image():
    f = binfun.make(1, [1.0, ULOOP_RATIO])
    out = transform(f, OMEGA)
    assert np.max(np.abs(out.values - f.values)) < 1e-15


def test_fast_matches_dense_kronecker():
    # m = 0..9 covers one partial block, exact multiples of the block width
    # (4, 8) and several blocks with a short one (5, 9).
    rng = np.random.default_rng(2)
    for m in range(0, 10):
        mus = [complex(*rng.standard_normal(2)) for _ in range(5)]
        for mu in mus + [1.0, -1.0, OMEGA, OMEGA2]:
            f = random_bf(rng, m)
            fast = transform(f, mu).values
            dense = dense_kronecker_power(m_matrix(mu).entries, m) @ f.values
            assert np.max(np.abs(fast - dense), initial=0.0) < 1e-10


def dense_kronecker_row(matrix, m, y):
    row = np.ones(1, dtype=complex)
    for i in range(m):
        row = np.kron(row, matrix[(y >> (m - 1 - i)) & 1])
    return row


def test_fast_matches_dense_rows_at_larger_m():
    # From m = 12 the first block is split into column tiles. The dense
    # power is too large there, so sampled rows of it are checked instead.
    rng = np.random.default_rng(5)
    for m in (12, 13, 14):
        f = random_bf(rng, m)
        for mu in (complex(*rng.standard_normal(2)), -1.0, OMEGA):
            fast = transform(f, mu).values
            e = m_matrix(mu).entries
            for y in [0, 2**m - 1] + [int(y) for y in rng.integers(2**m, size=6)]:
                row = dense_kronecker_row(e, m, y)
                scale = np.sum(np.abs(row * f.values))
                assert abs(fast[y] - row @ f.values) <= 1e-12 * scale


def test_composition_multiplies_parameters():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 7))
        f = random_bf(rng, m)
        mu1 = complex(*rng.standard_normal(2))
        mu2 = complex(*rng.standard_normal(2))
        lhs = transform(transform(f, mu2), mu1).values
        rhs = transform(f, mu1 * mu2).values
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_hadamard_is_self_inverse():
    rng = np.random.default_rng(4)
    f = random_bf(rng, 5)
    out = transform(transform(f, -1.0), -1.0)
    assert np.max(np.abs(out.values - f.values)) < 1e-12


def test_trinity_transform_has_order_three():
    rng = np.random.default_rng(5)
    f = random_bf(rng, 5)
    out = f.values
    for _ in range(3):
        out = transform(out, OMEGA).values
    assert np.max(np.abs(out - f.values)) < 1e-12


def test_inverse_transform():
    rng = np.random.default_rng(6)
    f = random_bf(rng, 4)
    for mu in (OMEGA, -1.0, 0.3 - 0.7j):
        back = transform(inverse_transform(f, mu), mu)
        assert np.max(np.abs(back.values - f.values)) < 1e-10
    assert np.max(np.abs(inverse_transform(f, OMEGA).values
                         - transform(f, OMEGA2).values)) < 1e-12


def test_inverse_transform_round_trip_across_blocks():
    rng = np.random.default_rng(8)
    f = random_bf(rng, 9)
    back = inverse_transform(transform(f, OMEGA), OMEGA)
    assert np.max(np.abs(back.values - f.values)) < 1e-12


def test_inverse_transform_singular_at_zero():
    with pytest.raises(SingularTransform):
        inverse_transform(binfun.unit(), 0.0)


def test_self_trial():
    f = binfun.make(1, [1.0, ULOOP_RATIO])
    assert self_trial(f)
    assert self_trial(binfun.tensor(f, f))
    assert not self_trial(binfun.make(1, [1.0, 1.0]))


def test_hadamard_duality_on_small_graph_indicators():
    # Cutset space of a graph maps to its circuit space under mu = -1.
    # Oracle: brute-force GF(2) orthogonal complement of the rowspace.
    graphs = [
        [(0, 1), (1, 2), (2, 0)],            # triangle
        [(0, 1), (0, 1)],                    # digon
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],  # square with chord
    ]
    for edges in graphs:
        m = len(edges)
        nverts = max(max(e) for e in edges) + 1
        inc = np.zeros((nverts, m), dtype=int)
        for j, (a, b) in enumerate(edges):
            inc[a, j] ^= 1
            inc[b, j] ^= 1
        cutset = binfun.rowspace_indicator(inc)
        support = {i for i, z in enumerate(cutset.values) if z == 1.0}
        perp = [x for x in range(2**m)
                if all(bin(x & y).count("1") % 2 == 0 for y in support)]
        circuit = np.zeros(2**m)
        circuit[perp] = 1.0
        assert binfun.proportional(transform(cutset, -1.0).values, circuit, 1e-9)
