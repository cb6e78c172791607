import itertools
import os
import signal
import sys
import threading
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from trialab import binfun, pool
from trialab import transform as T
from trialab.errors import SingularTransform, WrongLength
from trialab.transform import (
    OMEGA,
    OMEGA2,
    ULOOP_RATIO,
    inverse_transform,
    m_matrix,
    raw_transform,
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
    assert np.array_equal(m_matrix(1.0), np.eye(2))
    assert not m_matrix(1.0).flags.writeable


def test_m_matrix_hadamard_at_minus_one():
    # Substituting mu = -1 into the generator gives (1/sqrt(2)) [[1,1],[1,-1]].
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    assert np.allclose(m_matrix(-1.0), expected, atol=1e-15)


def test_m_matrix_determinant_is_mu():
    rng = np.random.default_rng(0)
    for _ in range(100):
        mu = complex(*rng.standard_normal(2))
        assert abs(np.linalg.det(m_matrix(mu)) - mu) < 1e-12


def test_m_matrix_omega_eigenvalues():
    eig = np.linalg.eigvals(m_matrix(OMEGA))
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
            dense = dense_kronecker_power(m_matrix(mu), m) @ f.values
            assert np.max(np.abs(fast - dense), initial=0.0) < 1e-10


def dense_kronecker_row(matrix, m, y):
    row = np.ones(1, dtype=complex)
    for i in range(m):
        row = np.kron(row, matrix[(y >> (m - 1 - i)) & 1])
    return row


def test_fast_matches_dense_rows_at_larger_m():
    # From m = 12 the first block is split into column tiles, and m = 18 and
    # 20 run the split across CPUs. The dense power is too large there, so
    # sampled rows of it are checked instead.
    assert pool.SPLIT_MIN <= 2**18
    rng = np.random.default_rng(5)
    for m in (12, 13, 14, 18, 20):
        f = random_bf(rng, m)
        for mu in (complex(*rng.standard_normal(2)), -1.0, OMEGA):
            fast = transform(f, mu).values
            e = m_matrix(mu)
            for y in [0, 2**m - 1] + [int(y) for y in rng.integers(2**m, size=6)]:
                row = dense_kronecker_row(e, m, y)
                scale = np.sum(np.abs(row * f.values))
                assert abs(fast[y] - row @ f.values) <= 1e-12 * scale


@pytest.fixture
def split(monkeypatch):
    """Run the split path on at least two CPUs, even on a one-CPU host."""
    monkeypatch.setattr(pool, "_CPUS", max(pool._CPUS, 2))
    return monkeypatch


def one_cpu(monkeypatch, f, mu):
    with monkeypatch.context() as mp:
        mp.setattr(pool, "_CPUS", 1)
        return transform(f, mu).values


def bits(values):
    return values.view(np.uint64)


def test_split_is_bit_identical_to_one_cpu(split):
    # m = 18..21 cover every place of the short block and each matmul shape.
    rng = np.random.default_rng(9)
    for m in (18, 19, 20, 21):
        v = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
        for mu in (OMEGA, -1.0, complex(*rng.standard_normal(2))):
            expected = one_cpu(split, v, mu)
            assert np.array_equal(bits(transform(v, mu).values), bits(expected))
    assert pool._executor is not None


def test_split_from_concurrent_callers(split):
    rng = np.random.default_rng(10)
    inputs = [rng.standard_normal(2**19) + 1j * rng.standard_normal(2**19) for _ in range(4)]
    expected = [one_cpu(split, v, OMEGA) for v in inputs]
    results = [None] * 4

    def call(i):
        for _ in range(3):
            results[i] = transform(inputs[i], OMEGA).values

    threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, expected):
        assert np.array_equal(bits(got), bits(want))


class Unstarted(Future):
    """A task that no worker ever starts: waiting for it would never end."""

    def result(self, timeout=None):
        raise AssertionError("the caller waited for a task that never started")


class Idle:
    """An executor stand-in whose tasks never start, as for workers that are
    never scheduled."""

    def __init__(self):
        self.futures = []

    def submit(self, fn, *args):
        self.futures.append(Unstarted())
        return self.futures[-1]


def test_split_finishes_when_no_helper_takes_a_chunk(split):
    v = np.random.default_rng(11).standard_normal(2**18).astype(complex)
    expected = one_cpu(split, v, OMEGA2)
    idle = Idle()
    split.setattr(pool, "_executor", idle)
    assert np.array_equal(bits(transform(v, OMEGA2).values), bits(expected))
    # m = 18 is two tiled groups of blocks: one task per worker and group,
    # each cancelled unstarted.
    assert len(idle.futures) == 2 * (pool._CPUS - 1)
    assert all(f.cancelled() for f in idle.futures)


def test_split_tiles_use_scratch_made_by_the_calling_thread(split):
    # A worker thread that allocated its own scratch would keep it resident
    # in its malloc arena after the call.
    v = np.random.default_rng(13).standard_normal(2**19).view(complex)
    expected = one_cpu(split, v, OMEGA)
    callers = set()
    empty = np.empty

    def recording_empty(*args, **kwargs):
        callers.add(threading.current_thread())
        return empty(*args, **kwargs)

    split.setattr(np, "empty", recording_empty)
    assert np.array_equal(bits(transform(v, OMEGA).values), bits(expected))
    assert callers == {threading.current_thread()}


def test_split_runs_helpers_under_the_callers_errstate(split):
    # The blocks are finite at mu = 1e10; every product overflows. Whichever
    # thread runs a chunk, its overflow is silenced (pytest turns a
    # RuntimeWarning into an error) or raised in the caller, as asked.
    v = np.full(2**18, 1e300, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(transform(v, 1e10).values).any()
    with np.errstate(over="raise", invalid="ignore"), pytest.raises(FloatingPointError):
        transform(v, 1e10)


def test_split_in_a_forked_child(split):
    v = np.random.default_rng(12).standard_normal(2**18).astype(complex)
    expected = transform(v, OMEGA).values
    parent = pool._executor
    assert parent is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by its exit status
        code = 1
        try:
            signal.alarm(60)
            same = np.array_equal(bits(transform(v, OMEGA).values), bits(expected))
            # The parent's workers are gone; the child made its own.
            workers = [t for t in threading.enumerate() if t.name.startswith("trialab-pool")]
            if same and pool._executor is not parent and 0 < len(workers) <= pool._CPUS - 1:
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def per_block_oracle(v, m, mu):
    """The transform as one pass over all rows per block, ping-ponging
    between two full-size buffers, on the calling thread: the kernel before
    blocks were grouped into cache-sized tiles, kept as the oracle that the
    grouped one must match bit for bit."""
    rows = v.size >> m
    widths = [(m - 1) % T.BLOCK + 1] + [T.BLOCK] * ((m - 1) // T.BLOCK) if m else [0]
    per_row = isinstance(mu, np.ndarray)
    if per_row:
        blocks = {b: T._kron_power(mu, b) for b in set(widths)}
        pre, reps = (rows,), 1
    else:
        blocks = {b: T._kron_power(complex(mu), b) for b in set(widths)}
        pre, reps = (), rows
    buffers = [np.empty(v.shape, dtype=complex) for _ in range(min(len(widths), 2))]
    axis = 0
    for i, b in enumerate(widths):
        k = blocks[b]
        out = buffers[i % 2]
        n, w, rest = 2**axis, 2**b, 2 ** (m - axis - b)
        tile = T.TILE >> b
        if rest > tile:
            shape = pre + (reps * n, w, rest // tile, tile)
            np.matmul(k[:, None, None] if per_row else k, v.reshape(shape).swapaxes(-3, -2),
                      out=out.reshape(shape).swapaxes(-3, -2))
        elif rest == 1 and n > tile:
            shape = pre + (reps * n // tile, tile, w)
            np.matmul(v.reshape(shape), (k[:, None] if per_row else k).swapaxes(-1, -2),
                      out=out.reshape(shape))
        else:
            shape = pre + (reps * n, w, rest)
            np.matmul(k[:, None] if per_row else k, v.reshape(shape), out=out.reshape(shape))
        v = out
        axis += b
    return v


ORACLE_MUS = (1.0, -1.0, OMEGA, OMEGA2, 0.3 + 0.7j)


def test_per_block_oracle_covers_every_group_layout():
    # One group up to m = 15; then a whole single-block group above tiled
    # ones (16), tiled groups only (17..20), and three groups (21, 22).
    layouts = {m: tuple((tiled, len(blocks)) for tiled, _, blocks in T._plan(m)[0])
               for m in range(23)}
    whole = {((False, 1),), ((False, 2),), ((False, 3),), ((False, 4),)}
    assert {layouts[m] for m in range(16)} == whole
    assert layouts[16] == ((False, 1), (True, 3))
    assert {layouts[m] for m in range(17, 21)} == {((True, 2), (True, 3))}
    assert layouts[21] == layouts[22] == ((False, 1), (True, 2), (True, 3))


def test_grouped_transform_matches_the_per_block_oracle_bit_for_bit(split):
    # Under the split fixture and on one CPU, at every m up to 22.
    rng = np.random.default_rng(22)
    for m in range(23):
        v = rng.standard_normal(2 ** (m + 1)).view(complex)
        for mu in ORACLE_MUS:
            expected = bits(per_block_oracle(v, m, mu))
            assert np.array_equal(bits(transform(v, mu).values), expected), (m, mu)
            assert np.array_equal(bits(one_cpu(split, v, mu)), expected), (m, mu)
    assert pool._executor is not None


def test_grouped_stack_with_per_row_mus_matches_the_per_block_oracle(split):
    # Rows join the batch of a whole group and each tile lies in one row,
    # with its own block; 2 rows at m = 21 reach the three-group layout.
    rng = np.random.default_rng(23)
    for m in list(range(19)) + [21]:
        rows = rng.standard_normal((2 + (m < 21), 2 ** (m + 1))).view(complex)
        for mu in (np.array(ORACLE_MUS[1:len(rows) + 1]), ORACLE_MUS[4]):
            expected = bits(per_block_oracle(rows, m, mu))
            assert np.array_equal(bits(raw_transform(rows, mu)), expected), (m, mu)
            with split.context() as mp:
                mp.setattr(pool, "_CPUS", 1)
                assert np.array_equal(bits(raw_transform(rows, mu)), expected), (m, mu)


def test_grouped_transform_allocates_the_output_and_a_few_tiles(split):
    # At most two jobs run at once on two CPUs, each with two tile-sized
    # scratch arrays; one pass per block needed two vector-sized buffers.
    split.setattr(pool, "_CPUS", 2)
    v = np.random.default_rng(24).standard_normal(2**21).view(complex)
    transform(v, OMEGA)
    tracemalloc.start()
    try:
        out = transform(v, OMEGA).values
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * T.GROUP_TILE * out.itemsize, peak


def test_stacked_transform_rows_equal_one_vector_transforms_bit_for_bit():
    # m = 12 and 13 reach the tiled branches; one mu for all rows or one per
    # row, and a parameter axis broadcast against the rows.
    rng = np.random.default_rng(19)
    special = [1.0, -1.0, OMEGA, OMEGA2]
    for m in range(14):
        rows = rng.standard_normal((3, 2**m)) + 1j * rng.standard_normal((3, 2**m))
        for mu in special + [complex(*rng.standard_normal(2))]:
            out = raw_transform(rows, mu)
            for r in range(3):
                assert bits(out[r]).tolist() == bits(transform(rows[r], mu).values).tolist()
        mus = np.array(special[1:] + [complex(*rng.standard_normal(2))] * 2)[:, None]
        out = raw_transform(rows, mus)
        assert out.shape == (5, 3, 2**m)
        for a, r in np.ndindex(5, 3):
            assert bits(out[a, r]).tolist() == bits(transform(rows[r], mus[a, 0]).values).tolist()


def test_stacked_transform_on_the_split_path_is_bit_identical():
    rng = np.random.default_rng(20)
    rows = rng.standard_normal((2, 2**18)) + 1j * rng.standard_normal((2, 2**18))
    assert rows.size >= pool.SPLIT_MIN
    for mu in (OMEGA, np.array([-1.0, complex(*rng.standard_normal(2))])):
        out = raw_transform(rows, mu)
        for r in range(2):
            one = transform(rows[r], mu if np.ndim(mu) == 0 else mu[r]).values
            assert np.array_equal(bits(out[r]), bits(one))


def test_m_matrix_of_an_array_is_bit_identical_to_the_scalar_one():
    rng = np.random.default_rng(21)
    mus = np.concatenate([[1.0, -1.0, OMEGA, OMEGA2, 0.3 + 0.7j],
                          rng.standard_normal(500) + 1j * rng.standard_normal(500)])
    stacked = m_matrix(mus.reshape(5, -1))
    assert stacked.shape == (5, 101, 2, 2) and not stacked.flags.writeable
    for idx, mu in np.ndenumerate(mus.reshape(5, -1)):
        assert stacked[idx].tobytes() == m_matrix(complex(mu)).tobytes()


def test_raw_transform_rejects_a_length_that_is_not_a_power_of_two():
    with pytest.raises(WrongLength):
        raw_transform(np.ones((2, 6)), OMEGA)


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


def test_self_trial_agrees_with_the_eigen_coordinate_support_criterion():
    # With P = [[1, 1], [sqrt(2)-1, -(sqrt(2)+1)]] and c = P^{-(x)m} f, the
    # trinity transform scales c(X) by w^|X|, so f is self-trial exactly
    # when c is supported on one class of |X| mod 3.  P^{-(x)m} is built
    # densely here; the planted functions have c on one class or on two.
    p = np.array([[1.0, 1.0], [T.SQRT2 - 1.0, -(T.SQRT2 + 1.0)]])
    rng = np.random.default_rng(31)
    verdicts = []
    for m in range(1, 7):
        forward = dense_kronecker_power(p, m)
        inverse = dense_kronecker_power(np.linalg.inv(p), m)
        classes = np.array([bin(x).count("1") % 3 for x in range(2**m)])
        present = sorted(set(classes))
        functions = [random_bf(rng, m) for _ in range(5)]
        for planted in [*([r] for r in present), *itertools.combinations(present, 2)]:
            c = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
            v = forward @ np.where(np.isin(classes, planted), c, 0.0)
            functions.append(binfun.make(m, v / v[0]))
        for f in functions:
            c = np.abs(inverse @ f.values)
            support = set(classes[c > 1e-9 * np.max(c)])
            assert self_trial(f) == (len(support) == 1), (m, support)
            verdicts.append(len(support) == 1)
    assert verdicts.count(True) == 2 + 3 * 5
    assert verdicts.count(False) == 6 * 5 + 1 + 3 * 5


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
        inc = [0] * (max(max(e) for e in edges) + 1)
        for j, (a, b) in enumerate(edges):
            inc[a] ^= 1 << (m - 1 - j)
            inc[b] ^= 1 << (m - 1 - j)
        cutset = binfun.rowspace_indicator(m, inc)
        support = {i for i, z in enumerate(cutset.values) if z == 1.0}
        perp = [x for x in range(2**m)
                if all(bin(x & y).count("1") % 2 == 0 for y in support)]
        circuit = np.zeros(2**m)
        circuit[perp] = 1.0
        assert binfun.proportional(transform(cutset, -1.0).values, circuit, 1e-9)
