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
ceil(m / BLOCK) matmuls.  The one kernel, :func:`raw_transform`, takes the
vectors along the last axis of an array, with mu one parameter or an array
broadcast against the leading axes, and makes the same matmuls for the
whole stack; :func:`transform` is its one-vector case.  Each row is
bit-identical to a one-vector call.

Each matmul is shaped as a batch of small products of at most TILE vector
entries, each too small for BLAS to split across its own threads.  From
pool.SPLIT_MIN entries on, :mod:`trialab.pool` cuts each block's batch into
chunks that the calling thread and one helper thread per further CPU share;
every chunk makes the same BLAS calls on the same operands as the one-CPU
path, so the output is bit-identical to it.
The output is deterministic for a given numpy and BLAS build, mu = 1 is the
exact identity on finite input, and the output agrees with the dense
Kronecker power to 1e-10, which the ``transforms.fast-vs-dense`` check
enforces.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from . import pool
from .binfun import BinaryFunction, RawVector, as_values, proportional, DEFAULT_TOL
from .errors import SingularTransform, WrongLength

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
# slower; the pool's split waits only for chunks that a thread has started.
TILE = 2048


def m_matrix(mu) -> np.ndarray:
    """The generator M(mu) as a read-only 2x2 array; for an array of mus, an
    array of generators along two more trailing axes.

    Each entry is built from the parts of mu as Python's complex arithmetic
    builds it, so every generator of an array is bit-identical to the one of
    its scalar mu.  (Numpy's complex-by-real division multiplies by the
    reciprocal, which differs in the last bit for about a quarter of mus.)
    """
    if isinstance(mu, np.ndarray):
        shape, mu = mu.shape, mu.reshape(-1)
    else:
        shape, mu = (), complex(mu)
    d = 2.0 * SQRT2
    # Algebraically equal to the displayed form; written as 1 + c*(mu - 1)
    # so that M(1) is the identity exactly, not just to one ulp.
    q = (SQRT2 - 1.0) / d
    p = (SQRT2 + 1.0) / d
    x, y = mu.real - 1.0, mu.imag
    u, v = (1.0 - mu.real) / d, (0.0 - mu.imag) / d
    parts = np.array([[1.0 + q * x, u, u, 1.0 + p * x],
                      [0.0 + q * y, v, v, 0.0 + p * y]])
    entries = parts.T.copy().view(complex).reshape(shape + (2, 2))
    entries.flags.writeable = False
    return entries


def _kron_power(mu, b: int) -> np.ndarray:
    """M(mu)^{(x)b} as a read-only 2**b x 2**b matrix, or an array of them
    for an array of mus."""
    e = m_matrix(mu)
    lead = e.shape[:-2]
    # Starting from M(mu) rather than 1 (x) M(mu) saves a product and no
    # bits: times 1 is exact, and no entry of M(mu) is a negative zero.
    k = e if b else np.ones(lead + (1, 1), dtype=complex)
    for n in range(1, b):
        k = (k[..., :, None, :, None] * e[..., None, :, None, :]).reshape(lead + (2**(n + 1),) * 2)
    k.flags.writeable = False
    return k


# Cached for one mu because a few parameters (1, -1, w, w2) recur across
# many small transforms, where building the block costs more than applying it.
_cached_kron_power = lru_cache(maxsize=64)(_kron_power)


def transform(f, mu: complex) -> RawVector:
    """Apply the m-th Kronecker power of M(mu) to one vector: the one-vector
    case of :func:`raw_transform`."""
    m, values = as_values(f)
    return RawVector(m, _apply(values, m, mu))


def raw_transform(values, mu) -> np.ndarray:
    """Apply the m-th Kronecker power of M(mu) in ceil(m / BLOCK) matmuls to
    the vectors along the last axis of values, in one fresh array: the one
    transform kernel.

    mu is one parameter or an array broadcast against the leading axes of
    values; the result has the broadcast leading axes.  Each row is
    bit-identical to its one-vector transform, and deterministic for a given
    numpy/BLAS build; exact at mu = 1 on finite input; within 1e-10 of the
    dense Kronecker power; O(m * 2**m) per row, in products too small for
    BLAS to thread.  From pool.SPLIT_MIN entries on, the products of each
    block are shared between the calling thread and a helper per further
    CPU, with output bit-identical to one CPU's.
    """
    values = np.asarray(values, dtype=complex)
    size = values.shape[-1]
    m = size.bit_length() - 1
    if size != 2**m:
        raise WrongLength(f"length {size} is not a power of two")
    lead = values.shape[:-1]
    if isinstance(mu, np.ndarray):
        lead = np.broadcast_shapes(lead, mu.shape)
        values = np.broadcast_to(values, lead + (size,))
        mu = np.broadcast_to(mu, lead).reshape(-1)
    return _apply(values, m, mu)


def _apply(v, m: int, mu) -> np.ndarray:
    """The blocks of :func:`raw_transform` on the rows of v, for one mu or
    an array of one mu per row."""
    rows = v.size >> m
    # The short block goes first; at m = 0 a single width-0 block still
    # copies the input.
    widths = [(m - 1) % BLOCK + 1] + [BLOCK] * ((m - 1) // BLOCK) if m else [0]
    per_row = isinstance(mu, np.ndarray)
    if per_row:
        # One block per row, broadcast along a row axis in front of the batch.
        blocks = {b: _kron_power(mu, b) for b in set(widths)}
        pre, reps = (rows,), 1
    else:
        # One block for all rows, which join the leading batch axis.
        mu = complex(mu)
        pre, reps = (), rows
    # The blocks write into two buffers in turn: allocating a fresh output
    # per block page-faults it in again each time, which at m = 22 made a
    # transform about a quarter slower and its time less steady.
    buffers = [np.empty(v.shape, dtype=complex) for _ in range(min(len(widths), 2))]
    # Below SPLIT_MIN, or on one CPU, each block is one np.matmul as it is.
    matmul = partial(pool.chunked, np.matmul, core=2) if pool.splits(v.size) else np.matmul
    axis = 0
    for i, b in enumerate(widths):
        k = blocks[b] if per_row else _cached_kron_power(mu, b)
        out = buffers[i % 2]
        n, w, rest = 2**axis, 2**b, 2 ** (m - axis - b)
        tile = TILE >> b
        if rest > tile:
            # k times (w, tile) column tiles of each (w, rest) slab.
            shape = pre + (reps * n, w, rest // tile, tile)
            matmul(k[:, None, None] if per_row else k, v.reshape(shape).swapaxes(-3, -2),
                   out=out.reshape(shape).swapaxes(-3, -2))
        elif rest == 1 and n > tile:
            # The last axes: tiles of rows of w entries, times k.T.
            shape = pre + (reps * n // tile, tile, w)
            matmul(v.reshape(shape), (k[:, None] if per_row else k).swapaxes(-1, -2),
                   out=out.reshape(shape))
        else:
            shape = pre + (reps * n, w, rest)
            matmul(k[:, None] if per_row else k, v.reshape(shape), out=out.reshape(shape))
        v = out
        axis += b
    return v


def inverse_transform(f, mu: complex) -> RawVector:
    """Invert via the composition law: the inverse of mu is 1/mu."""
    mu = complex(mu)
    if mu == 0:
        raise SingularTransform("M(0) is singular; the transform has no inverse at mu = 0")
    return transform(f, 1.0 / mu)


def self_trial(f: BinaryFunction, tol: float = DEFAULT_TOL) -> bool:
    """True iff the trinity transform fixes f up to a scalar."""
    return proportional(transform(f, OMEGA), f, tol)
