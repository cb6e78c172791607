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
each block is applied by matmuls with M(mu)^{(x)b}, ceil(m / BLOCK) blocks
in all.  The one kernel, :func:`raw_transform`, takes the vectors along the
last axis of an array, with mu one parameter or an array broadcast against
the leading axes, and makes the same products for the whole stack;
:func:`transform` is its one-vector case.  Each row is bit-identical to a
one-vector call.

Each block's products are small, of at most TILE vector entries, too small
for BLAS to split across its own threads.  Consecutive blocks are grouped
from the low axes up so that a group's tile holds at most GROUP_TILE
entries, 512 KiB, which stays in a core's L2 cache: the lowest group's
tiles are whole sub-vectors over its axes, a higher group's column slabs.
From m = 16 on, where the vector no longer fits, a group of two or three
blocks runs tile by tile, each tile through all of its blocks, so the
vector is read once per group rather than once per block; from
pool.SPLIT_MIN entries :mod:`trialab.pool` shares the tiles between the
calling thread and one worker thread per further CPU.  The only group (at
m <= 15) and a group of one block (the first block: 4 axes wide at m = 16,
1 and 2 at m = 21, 22) make one batched np.matmul per block over all
rows, whose batch pool.chunked cuts into chunks from pool.SPLIT_MIN
entries.  Every group writes into the one output array, so beyond it a
large transform holds only a few tiles.  Every product keeps the shape,
operands and order of one pass per block, and each writes its own
entries, so the output is bit-identical to that and to one CPU's.
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
from .binfun import BinaryFunction, RawVector, as_values, proportional, vectors
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
    """Apply the m-th Kronecker power of M(mu) in ceil(m / BLOCK) blocks to
    the vectors along the last axis of values, in one fresh array: the one
    transform kernel.

    mu is one parameter or an array broadcast against the leading axes of
    values; the result has the broadcast leading axes.  Each row is
    bit-identical to its one-vector transform, and deterministic for a given
    numpy/BLAS build; exact at mu = 1 on finite input; within 1e-10 of the
    dense Kronecker power; O(m * 2**m) per row, in products too small for
    BLAS to thread, run on cache-sized tiles from m = 16.  From
    pool.SPLIT_MIN entries on, the tiles or products are shared between the
    calling thread and a worker per further CPU, with output bit-identical
    to one CPU's.
    """
    m, values = vectors(values)
    lead = values.shape[:-1]
    if isinstance(mu, np.ndarray):
        lead = np.broadcast_shapes(lead, mu.shape)
        values = np.broadcast_to(values, lead + (2**m,))
        mu = np.broadcast_to(mu, lead).reshape(-1)
    return _apply(values, m, mu)


# Entries of the tile that a group of consecutive blocks works on (512 KiB):
# small enough to stay in a core's L2 cache across the group's blocks.
GROUP_TILE = 2**15

# How a block's products are laid out: k times (w, tile) column tiles, rows of
# w entries times k.T, or k times whole (w, rest) slabs.
COLS, ROWS, SLABS = range(3)


@lru_cache(maxsize=None)
def _plan(m: int) -> tuple:
    """The blocks of an m-element transform in the order they apply, the
    one of (m - 1) % BLOCK + 1 axes first, packed from the low axes up into
    groups whose tile holds at most GROUP_TILE entries; and the set of block
    widths.

    Each group is (tiled, shape, blocks).  A group that runs whole, in one
    batched matmul per block over all rows, is the only group or one of a
    single block; its shape is (2**axes, 2**below), the group's axes and
    those after it.  Any other is tiled: a row is viewed as (runs, t,
    2**axes, slabs, width), and a tile is one (t, 2**axes, width) slice.
    The lowest group's tiles are t whole sub-vectors over its axes, a higher
    group's a column slab as wide as its widest TILE >> b.  Each block is
    (b, layout, shape after the leading axis, destination), and makes the
    products of the one-pass-per-block kernel whatever the tile.
    """
    # At m = 0 a single width-0 block still copies the input.
    widths = [(m - 1) % BLOCK + 1] + [BLOCK] * ((m - 1) // BLOCK) if m else [0]
    packed = []
    for b in reversed(widths):
        grown = [b] + packed[-1] if packed else []
        if grown and 2**sum(grown) * (TILE >> min(grown) if len(packed) > 1 else 1) <= GROUP_TILE:
            packed[-1] = grown
        else:
            packed.append([b])
    plan, above = [], 0
    for group in reversed(packed):
        axes = sum(group)
        below = m - above - axes
        tiled = len(packed) > 1 and len(group) > 1
        if tiled:
            width = TILE >> min(group) if below else 1
            t = min(2**above, GROUP_TILE // (2**axes * width))
            shape = (2**above // t, t, 2**axes, 2**below // width, width)
        else:
            width = 2**below
            shape = (2**axes, width)
        blocks, p = [], 0
        for i, b in enumerate(group):
            w, inner, tile = 2**b, 2 ** (axes - p - b), TILE >> b
            # The destination 0 is the output.  A whole group alternates it
            # with scratch 1 so as to end there; a tiled one goes through
            # its scratch 1 and 2 first.
            last = len(group) - 1 - i
            dest = (i + 1 if last else 0) if tiled else last % 2
            if inner << below > tile:
                slabs = max(width // tile, 1)
                tail = (2**p, w, inner * width // (slabs * tile), slabs, tile)
                blocks.append((b, COLS, tail, dest))
            elif inner << below == 1 and 2 ** (above + p) > tile:
                blocks.append((b, ROWS, (2**p // tile, tile, w), dest))
            else:
                blocks.append((b, SLABS, (2**p, w, inner * width), dest))
            p += b
        plan.append((tiled, shape, tuple(blocks)))
        above += axes
    return tuple(plan), frozenset(widths)


# One batched matmul of a whole group's block, split across CPUs from
# pool.SPLIT_MIN entries; the cut keeps each product whole.
_whole_matmul = partial(pool.chunked, np.matmul, core=2)


def _apply(v, m: int, mu) -> np.ndarray:
    """The blocks of :func:`raw_transform` on the rows of v, for one mu or
    an array of one mu per row, into one fresh output.

    A group that runs whole ping-pongs between the output and one scratch
    array of the same size, so that its last block lands in the output.
    A tiled group hands its tiles to pool.run: each job takes consecutive
    tiles through the group's blocks in up to two tile-sized scratch arrays
    lent to it, and the last block writes each tile back into the output.
    """
    rows = v.size >> m
    plan, widths = _plan(m)
    if isinstance(mu, np.ndarray):
        # One block per row, along the leading (row) axis of every matmul.
        kron = {b: _kron_power(mu, b) for b in widths}
    else:
        kron = {b: _cached_kron_power(complex(mu), b) for b in widths}
    out = np.empty(v.shape, dtype=complex)
    src = v
    for tiled, shape, group in plan:
        shape = (rows,) + shape
        if tiled:
            _tiled(kron, src, out, shape, group)
        else:
            scratch = np.empty(shape, dtype=complex) if len(group) > 1 else None
            _blocks(_whole_matmul, kron, src.reshape(shape), (out.reshape(shape), scratch), group)
        src = out
    return out


def _tiled(kron, src, out, shape, group) -> None:
    """One group's blocks on the (t, size, width) tiles of src viewed as
    `shape`, shared by pool.run; the last block writes each tile into out,
    which may be src."""
    rows, runs, t, size, slabs, width = shape
    x, y = src.reshape(shape), out.reshape(shape)
    per_row = next(iter(kron.values())).ndim > 2

    # One set of scratch arrays per thread that may run a job, made here and
    # lent to each job while it runs: a worker thread that allocated its own
    # would keep them resident in its malloc arena after the call.  A
    # lowest group has at most three blocks, a higher one two.
    free = [tuple(np.empty((t, size, width), dtype=complex) for _ in group[1:])
            for _ in range(pool.threads(out.size))]

    def job(lo, hi):
        scratch = free.pop()
        try:
            for j in range(lo, hi):
                r, i, s = j // (runs * slabs), j // slabs % runs, j % slabs
                ks = {b: k[r] for b, k in kron.items()} if per_row else kron
                _blocks(np.matmul, ks, x[r, i, :, :, s], (y[r, i, :, :, s],) + scratch, group)
        finally:
            free.append(scratch)

    pool.run(job, rows * runs * slabs, out.size)


def _blocks(matmul, kron, x, bufs, group) -> None:
    """A group's blocks in turn on x, whose leading axis they share: each
    writes into bufs[destination] and the next reads it there."""
    for b, layout, tail, dest in group:
        k, y = kron[b], bufs[dest]
        shape = x.shape[:1] + tail
        if k.ndim > 2:
            # One block per row, broadcast along the batch axes after it.
            k = k[:, None] if len(tail) == 3 else k[:, None, None, None]
        if layout == COLS:
            # k times (w, tile) column tiles of each (w, rest) slab.
            matmul(k, x.reshape(shape).transpose(0, 1, 3, 4, 2, 5),
                   out=y.reshape(shape).transpose(0, 1, 3, 4, 2, 5))
        elif layout == ROWS:
            # The last axes: tiles of rows of w entries, times k.T.
            matmul(x.reshape(shape), k.swapaxes(-1, -2), out=y.reshape(shape))
        else:
            matmul(k, x.reshape(shape), out=y.reshape(shape))
        x = y


def inverse_transform(f, mu: complex) -> RawVector:
    """Invert via the composition law: the inverse of mu is 1/mu."""
    mu = complex(mu)
    if mu == 0:
        raise SingularTransform("M(0) is singular; the transform has no inverse at mu = 0")
    return transform(f, 1.0 / mu)


def self_trial(f: BinaryFunction) -> bool:
    """True iff the trinity transform fixes f up to a scalar, within the
    default tolerance."""
    return proportional(transform(f, OMEGA), f)
