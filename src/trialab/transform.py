"""The mu-transform family acting on binary functions.

The generator is the 2x2 matrix

    M(mu) = 1/(2*sqrt(2)) * [[sqrt(2)+1+(sqrt(2)-1)*mu, 1-mu],
                             [1-mu, sqrt(2)-1+(sqrt(2)+1)*mu]]

with det M(mu) = mu and M(a)M(b) = M(ab), so composing transforms multiplies
their parameters.  mu = 1 is the identity, mu = -1 a scalar multiple of the
Hadamard transform, and mu = omega (the primitive cube root of unity) the
order-three trinity transform.

The m-th Kronecker power of M(mu) acts on a length 2**m vector in
O(m * 2**m): the elements are split into blocks of at most BLOCK axes, and
each block is applied by one matmul with M(mu)^{(x)b}, so a transform is
ceil(m / BLOCK) matmuls.  Each matmul is shaped as a batch of small
products of at most TILE vector entries, each too small for BLAS to split
across its own threads.  From SPLIT_MIN entries on, each block's batch is
cut into chunks that the calling thread and one helper thread per further
CPU take from a shared iterator; the caller waits for the chunks, never for
a helper that has not started one.  Every chunk makes the same BLAS calls
on the same operands as the one-CPU path, so the output is bit-identical to
it.
The output is deterministic for a given numpy and BLAS build, mu = 1 is the
exact identity on finite input, and the output agrees with the dense
Kronecker power to 1e-10, which the ``transforms.fast-vs-dense`` check
enforces.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache

import numpy as np

from .binfun import BinaryFunction, RawVector, as_values, proportional, DEFAULT_TOL
from .errors import SingularTransform

SQRT2 = math.sqrt(2.0)

# Built from literals rather than trig calls so omega**3 == 1 to one ulp.
OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)
OMEGA2 = complex(-0.5, -math.sqrt(3.0) / 2.0)

# The normalized eigenvector of every M(mu) for eigenvalue 1 is (1, ULOOP_RATIO).
ULOOP_RATIO = SQRT2 - 1.0

# Axes per matmul: a block costs 2**BLOCK multiply-adds per entry but saves
# BLOCK - 1 passes over the vector; 4 balances the two.
BLOCK = 4

# Entries of the vector operand in one small product of a batched matmul.
# Kept below the size at which OpenBLAS splits a product across its own
# threads (16 * 16 * 256 = 65536 multiply-adds), so each product runs on the
# thread that calls it.  A product that OpenBLAS threads waits for its second
# thread to be scheduled, and on a busy host that made m = 16 up to 7 times
# slower; the split below waits only for chunks that a thread has started.
TILE = 2048

# Vectors of at least this many entries split each block across the CPUs.
# On a shared 2-CPU VM the split took about a quarter off m = 18..20 and 43%
# off m = 22 when idle; beside one busy-loop process it cost 7-8% at m = 18
# and saved 10-14% at m = 22, so it pays from here on.
SPLIT_MIN = 2**18

# Chunks per CPU: enough that a late or slow thread leaves little to wait for.
CHUNKS_PER_CPU = 8

_CPUS = len(os.sched_getaffinity(0))
_queues = []  # one job queue per helper thread, started on the first split
_start_lock = threading.Lock()


def m_matrix(mu: complex) -> np.ndarray:
    """The generator M(mu) as a read-only 2x2 array."""
    mu = complex(mu)
    d = 2.0 * SQRT2
    # Algebraically equal to the displayed form; written as 1 + c*(mu - 1)
    # so that M(1) is the identity exactly, not just to one ulp.
    q = (SQRT2 - 1.0) / d
    p = (SQRT2 + 1.0) / d
    entries = np.array(
        [
            [1.0 + q * (mu - 1.0), (1.0 - mu) / d],
            [(1.0 - mu) / d, 1.0 + p * (mu - 1.0)],
        ],
        dtype=complex,
    )
    entries.flags.writeable = False
    return entries


@lru_cache(maxsize=64)
def _kron_power(mu: complex, b: int) -> np.ndarray:
    """M(mu)^{(x)b} as a read-only 2**b x 2**b matrix.

    Cached because a few parameters (1, -1, w, w2) recur across many small
    transforms, where building the block costs more than applying it.
    """
    e = m_matrix(mu)
    k = np.ones((1, 1), dtype=complex)
    for _ in range(b):
        n = 2 * len(k)
        k = (k[:, None, :, None] * e[None, :, None, :]).reshape(n, n)
    k.flags.writeable = False
    return k


def transform(f, mu: complex) -> RawVector:
    """Apply the m-th Kronecker power of M(mu) in ceil(m / BLOCK) matmuls.

    Deterministic for a given numpy/BLAS build; exact at mu = 1 on finite
    input; within 1e-10 of the dense Kronecker power; O(m * 2**m), in
    products too small for BLAS to thread.  From SPLIT_MIN entries on, the
    products of each block are shared between the calling thread and a
    helper per further CPU, with output bit-identical to one CPU's.
    """
    m, values = as_values(f)
    mu = complex(mu)
    # The short block goes first; at m = 0 a single width-0 block still
    # copies the input.
    widths = [(m - 1) % BLOCK + 1] + [BLOCK] * ((m - 1) // BLOCK) if m else [0]
    v = np.asarray(values, dtype=complex)
    # The blocks write into two buffers in turn: allocating a fresh output
    # per block page-faults it in again each time, which at m = 22 made a
    # transform about a quarter slower and its time less steady.
    buffers = [np.empty(2**m, dtype=complex) for _ in range(min(len(widths), 2))]
    # Below SPLIT_MIN, or on one CPU, each block is one np.matmul as it is.
    matmul = _split_matmul if 2**m >= SPLIT_MIN and _CPUS > 1 else np.matmul
    axis = 0
    for i, b in enumerate(widths):
        k = _kron_power(mu, b)
        out = buffers[i % 2]
        n, w, rest = 2**axis, 2**b, 2 ** (m - axis - b)
        tile = TILE >> b
        if rest > tile:
            # k times (w, tile) column tiles of each (w, rest) slab.
            shape = (n, w, rest // tile, tile)
            matmul(k, v.reshape(shape).transpose(0, 2, 1, 3),
                   out=out.reshape(shape).transpose(0, 2, 1, 3))
        elif rest == 1 and n > tile:
            # The last axes: tiles of rows of w entries, times k.T.
            shape = (n // tile, tile, w)
            matmul(v.reshape(shape), k.T, out=out.reshape(shape))
        else:
            matmul(k, v.reshape(n, w, rest), out=out.reshape(n, w, rest))
        v = out
        axis += b
    return RawVector(m, v)


def _split_matmul(a, b, out):
    """np.matmul(a, b, out=out) in chunks of out's batch, run by the caller
    and the helper threads.

    The chunks cut the leading batch axis, or the second when the leading
    one is too short, so each small product is the same BLAS call as in one
    np.matmul.  The caller takes chunks until none is left, then waits only
    for those a helper has taken: a helper that is never scheduled costs
    nothing but its share of the speedup.
    """
    batch = out.shape[:-2]
    chunks = CHUNKS_PER_CPU * _CPUS
    axis = 1 if len(batch) > 1 and batch[0] < chunks else 0
    size = batch[axis]
    chunks = min(chunks, size)
    lead = (slice(None),) * axis

    def run(j):
        part = lead + (slice(size * j // chunks, size * (j + 1) // chunks),)
        np.matmul(a[part] if a.ndim > 2 else a, b[part] if b.ndim > 2 else b, out=out[part])

    from queue import SimpleQueue

    if not _queues:
        _start_helpers()
    done = SimpleQueue()
    job = (iter(range(chunks)), run, done)
    # Helpers run under the caller's np.errstate, which is per thread.
    err = np.geterr()
    for q in _queues:
        q.put((job, err))
    _take(job)
    failures = [exc for exc in (done.get() for _ in range(chunks)) if exc is not None]
    if failures:
        raise failures[0]


def _take(job):
    """Run chunks from job's shared iterator, reporting each to its queue."""
    chunks, run, done = job
    for j in chunks:
        try:
            run(j)
        except Exception as exc:
            done.put(exc)
        else:
            done.put(None)


def _helper(q):
    while True:
        job, err = q.get()
        with np.errstate(**err):
            _take(job)
        # Drop the job before waiting: it holds views of the caller's buffers.
        del job


def _start_helpers():
    from queue import SimpleQueue

    with _start_lock:
        for _ in range(_CPUS - 1 - len(_queues)):
            q = SimpleQueue()
            threading.Thread(target=_helper, args=(q,), daemon=True,
                             name="trialab-transform").start()
            _queues.append(q)


def _forget_helpers():
    """A forked child has none of its parent's helpers; it starts its own.

    Jobs put on the parent's queues would wait there for good, holding the
    child's buffers.
    """
    global _start_lock
    _queues.clear()
    _start_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helpers)


def inverse_transform(f, mu: complex) -> RawVector:
    """Invert via the composition law: the inverse of mu is 1/mu."""
    mu = complex(mu)
    if mu == 0:
        raise SingularTransform("M(0) is singular; the transform has no inverse at mu = 0")
    return transform(f, 1.0 / mu)


def self_trial(f: BinaryFunction, tol: float = DEFAULT_TOL) -> bool:
    """True iff the trinity transform fixes f up to a scalar."""
    return proportional(transform(f, OMEGA), f, tol)
