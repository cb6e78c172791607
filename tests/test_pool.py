"""The passes that the pool shares between CPUs, beside the transform's:
the minor kernel, normalisation and the proportionality residual.

Each is compared bit for bit with the pool forced to one CPU, and with the
one-CPU code it replaced, kept here as an oracle.  The pool's own contract
is checked too: chunk errors reach the caller, forked children make their
own workers, and verify neither splits a pass nor imports the executor."""

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

from trialab import binfun, pool
from trialab.minor import MinorSpec, lambda_mu, raw_minors, take_minor
from trialab.transform import OMEGA, OMEGA2

MUS = (1.0, OMEGA, OMEGA2, complex(0.3, -1.7))


@pytest.fixture
def split(monkeypatch):
    """Run the split path on two CPUs, even on a one-CPU host, and record
    whether each pass on two CPUs split."""
    monkeypatch.setattr(pool, "_CPUS", 2)
    passes = []
    run = pool.run

    def spy(job, n, entries):
        if pool._CPUS > 1:
            passes.append(pool.splits(entries))
        run(job, n, entries)

    monkeypatch.setattr(pool, "run", spy)
    monkeypatch.passes = passes
    return monkeypatch


def one_cpu(monkeypatch, fn, *args):
    with monkeypatch.context() as mp:
        mp.setattr(pool, "_CPUS", 1)
        return fn(*args)


def bits(x):
    return np.asarray(x).view(np.uint64)


def random_vector(rng, m):
    v = rng.standard_normal(2 ** (m + 1)).view(complex)
    v[0] = 1.0
    return v


def oracle_residual(va, vb):
    """proportionality_residual as one sequential loop over the slices."""
    na = nb = 0.0
    ba = bb = 0
    for lo in range(0, va.size, binfun.DOT_CHUNK):
        sa, sb = va[lo:lo + binfun.DOT_CHUNK], vb[lo:lo + binfun.DOT_CHUNK]
        na = np.maximum(na, np.abs(sa).max())
        nb = np.maximum(nb, np.abs(sb).max())
        ba += np.vdot(sb, sa)
        bb += np.vdot(sb, sb)
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return float("inf")
    c = ba / bb
    if abs(c) == 0.0:
        return float("inf")
    worst = 0.0
    for lo in range(0, va.size, binfun.DOT_CHUNK):
        worst = np.maximum(worst, np.abs(va[lo:lo + binfun.DOT_CHUNK]
                                         - c * vb[lo:lo + binfun.DOT_CHUNK]).max())
    return float(worst / na)


def residual_pairs(rng, v):
    """(a, b) pairs: proportional, near-proportional, unrelated, NaN-bearing
    and zero.  The NaN pairs warn of an invalid value unless it is ignored."""
    w = random_vector(rng, v.size.bit_length() - 1)
    c = complex(*rng.standard_normal(2))
    nan = v.copy()
    nan[(v.size // 2 + 3) % v.size] = complex(np.nan, 1.0)
    return [(c * v, v), (v, c * v + 1e-12 * w), (v, w), (nan, v), (v, nan),
            (np.zeros_like(v), v), (np.zeros_like(v), np.zeros_like(v))]


def test_split_minors_and_normalize_are_bit_identical_to_one_cpu(split):
    rng = np.random.default_rng(40)
    for m in (18, 19, 20, 21):
        v = random_vector(rng, m)
        f = binfun.make(m, v)
        for mu in MUS:
            for i in (0, m // 2, m - 1):
                raw = raw_minors(f.values, i, mu)
                assert np.array_equal(bits(raw), bits(one_cpu(split, raw_minors, f.values, i, mu)))
                w = v.reshape(2**i, 2, -1)
                whole = (lambda_mu(mu) * w[:, 1]).reshape(-1) + w[:, 0].reshape(-1)
                assert np.array_equal(bits(raw), bits(whole))
                minor = take_minor(f, MinorSpec(i, mu)).values
                expected = one_cpu(split, take_minor, f, MinorSpec(i, mu)).values
                assert np.array_equal(bits(minor), bits(expected))
        # normalize on the whole vector: m = 18 is the first size that splits.
        scaled = complex(*rng.standard_normal(2)) * v
        got = binfun.normalize(scaled.copy())
        assert np.array_equal(bits(got), bits(one_cpu(split, binfun.normalize, scaled.copy())))
        whole = scaled / scaled[0]
        whole[0] = 1.0
        assert np.array_equal(bits(got), bits(whole))
    assert all(split.passes) and len(split.passes) > 0
    assert pool._executor is not None


def test_a_minor_splits_from_split_min_minor_entries(split):
    # At m = 18 a split minor was slower than one thread's; its slices of
    # 2**17 entries stay on the calling thread.
    rng = np.random.default_rng(47)
    raw_minors(random_vector(rng, 18), 9, OMEGA)
    assert split.passes == []
    raw_minors(random_vector(rng, 19), 9, OMEGA)
    assert split.passes == [True]


def test_stacked_minors_on_the_split_path_are_bit_identical(split):
    rng = np.random.default_rng(41)
    rows = np.stack([random_vector(rng, 18) for _ in range(3)])
    mus = np.array([[1.0], [OMEGA], [complex(0.3, -1.7)]])
    for i in (0, 9, 17):
        out = raw_minors(rows, i, mus)
        assert out.shape == (3, 3, 2**17)
        for a, r in np.ndindex(3, 3):
            assert np.array_equal(bits(out[a, r]), bits(raw_minors(rows[r], i, mus[a, 0])))
    assert all(split.passes) and len(split.passes) == 3


@np.errstate(invalid="ignore")
def test_split_residual_is_bit_identical_to_the_sequential_loop(split):
    rng = np.random.default_rng(42)
    for m in (18, 19, 20, 21):
        for a, b in residual_pairs(rng, random_vector(rng, m)):
            got = binfun.proportionality_residual(a, b)
            assert bits(np.float64(got)) == bits(np.float64(oracle_residual(a, b)))
            one = one_cpu(split, binfun.proportionality_residual, a, b)
            assert bits(np.float64(got)) == bits(np.float64(one))
    assert all(split.passes)


@np.errstate(invalid="ignore")
def test_residual_is_bit_identical_to_the_sequential_loop_below_the_split():
    rng = np.random.default_rng(43)
    for m in (0, 3, 13, 14, 16):
        for a, b in residual_pairs(rng, random_vector(rng, m)):
            got = binfun.proportionality_residual(a, b)
            assert bits(np.float64(got)) == bits(np.float64(oracle_residual(a, b)))


@pytest.mark.parametrize("cpus", [1, 2])
@np.errstate(invalid="ignore")
def test_proportional_is_the_residual_verdict(monkeypatch, cpus):
    # The pass stops early only when a slice settles the verdict False; a
    # large scale makes the absolute residual of a proportional pair exceed
    # tol while the relative one does not.
    monkeypatch.setattr(pool, "_CPUS", cpus)
    rng = np.random.default_rng(44)
    v = random_vector(rng, 18)
    w = random_vector(rng, 18)
    c = complex(*rng.standard_normal(2))
    pairs = residual_pairs(rng, v) + [(1e8 * v, c * 1e8 * v), (1e-8 * v, 1e-8 * w),
                                      (v, v + 1e-10 * w), (v + 1e-7 * w, v)]
    late = v.copy()
    late[-1] += 1.0  # off in the last slice only
    pairs.append((late, v))
    for a, b in pairs:
        residual = binfun.proportionality_residual(a, b)
        for tol in (binfun.DEFAULT_TOL, 1e-13, 1e-6, 0.5, np.inf, np.nan):
            assert binfun.proportional(a, b, tol) is (residual <= tol), (residual, tol)
    assert binfun.proportional(1e8 * v, c * 1e8 * v)


def test_split_passes_from_concurrent_callers(split):
    # Four callers share the one helper; each must get its own results, and
    # one caller's early stop must not stop another's pass.
    rng = np.random.default_rng(46)
    vectors = [random_vector(rng, 18) for _ in range(4)]
    cs = [complex(*rng.standard_normal(2)) for _ in range(4)]

    def work(v, c):
        return (raw_minors(np.concatenate([v, v]), 9, OMEGA), binfun.proportionality_residual(c * v, v),
                binfun.proportional(c * v, v), binfun.proportional(v, v[::-1]))

    expected = [one_cpu(split, work, v, c) for v, c in zip(vectors, cs)]
    results = [None] * 4

    def call(i):
        for _ in range(3):
            results[i] = work(vectors[i], cs[i])

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
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert bits(np.float64(got[1])) == bits(np.float64(want[1]))
        assert got[2:] == want[2:] == (True, False)


def test_an_overflow_in_a_split_minor_follows_the_callers_errstate(split):
    # Every chunk overflows in the sum of its slices. Whichever thread runs a
    # chunk, the overflow is silenced (pytest turns a RuntimeWarning into an
    # error) or raised in the caller, as asked.
    v = np.full(2**19, 1e308, dtype=complex)
    with np.errstate(over="ignore"):
        assert np.isinf(raw_minors(v, 9, 1.0).real).all()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        raw_minors(v, 9, 1.0)
    assert all(split.passes)


def test_split_minor_in_a_forked_child(split):
    v = random_vector(np.random.default_rng(45), 19)
    f = binfun.make(19, v)
    expected = take_minor(f, MinorSpec(9, OMEGA)).values
    parent = pool._executor
    assert parent is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports by its exit status
        code = 1
        try:
            signal.alarm(60)
            same = np.array_equal(bits(take_minor(f, MinorSpec(9, OMEGA)).values), bits(expected))
            # The parent's workers are gone; the child made its own.
            workers = [t for t in threading.enumerate() if t.name.startswith("trialab-pool")]
            if same and pool._executor is not parent and 0 < len(workers) <= pool._CPUS - 1:
                code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


class Refusing:
    """An executor stand-in that fails the test when a pass submits a task."""

    def submit(self, fn, *args):
        raise AssertionError("a pass split across CPUs")


def test_split_threads_are_the_caller_and_one_per_further_cpu(split):
    assert pool.threads(pool.SPLIT_MIN) == 2
    assert pool.threads(pool.SPLIT_MIN - 1) == 1


def test_verify_starts_no_helper(monkeypatch):
    # verify's kernels work on stacks far below SPLIT_MIN: no pass splits.
    from trialab import verify

    monkeypatch.setattr(pool, "_CPUS", 2)
    monkeypatch.setattr(pool, "_executor", Refusing())
    assert all(r.passed for r in verify.run_suites(seed=0))


def test_verify_imports_no_thread_pool():
    # A cold `trialab verify` splits no pass, so it never pays for importing
    # the executor or a queue.
    child = """
import sys
from trialab import cli
assert cli.main(["verify", "--seed", "0"]) == 0
print(sorted(name for name in ("concurrent.futures", "queue") if name in sys.modules))
"""
    src = os.path.dirname(os.path.dirname(pool.__file__))
    out = subprocess.run([sys.executable, "-c", child], check=True, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert out.stdout.splitlines()[-1] == "[]"


def test_a_chunk_error_is_raised_after_every_other_chunk_ran(split):
    # One chunk of sixteen raises; whichever thread takes it, the caller
    # raises that error only once every chunk has run.
    ran = []

    def job(lo, hi):
        ran.append((lo, hi))
        if lo <= 5 < hi:
            raise ValueError("chunk 5")

    n = pool.CHUNKS_PER_CPU * pool._CPUS
    with pytest.raises(ValueError, match="chunk 5"):
        pool.run(job, n, pool.SPLIT_MIN)
    assert sorted(ran) == [(j, j + 1) for j in range(n)]
