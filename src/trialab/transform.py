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
products of at most TILE vector entries, which BLAS runs on the calling
thread.
The output is deterministic for a given numpy and BLAS build, mu = 1 is the
exact identity on finite input, and the output agrees with the dense
Kronecker power to 1e-10, which the ``transforms.fast-vs-dense`` check
enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# Kept below the size at which OpenBLAS splits a product across threads
# (16 * 16 * 256 = 65536 multiply-adds), so the transform runs on the
# calling thread.  A threaded call on a busy host waits for its second
# thread to be scheduled, and the idle thread then spins, slowing whatever
# runs next; on 2 CPUs a second thread did not make m = 16..22 faster.
TILE = 2048


@dataclass(frozen=True)
class MuMatrix:
    """The generator M(mu) together with its parameter."""

    mu: complex
    entries: np.ndarray

    def __post_init__(self):
        self.entries.flags.writeable = False


def m_matrix(mu: complex) -> MuMatrix:
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
    return MuMatrix(mu, entries)


@lru_cache(maxsize=64)
def _kron_power(mu: complex, b: int) -> np.ndarray:
    """M(mu)^{(x)b} as a read-only 2**b x 2**b matrix.

    Cached because a few parameters (1, -1, w, w2) recur across many small
    transforms, where building the block costs more than applying it.
    """
    e = m_matrix(mu).entries
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
    products small enough for BLAS to run them on the calling thread.
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
    axis = 0
    for i, b in enumerate(widths):
        k = _kron_power(mu, b)
        out = buffers[i % 2]
        n, w, rest = 2**axis, 2**b, 2 ** (m - axis - b)
        tile = TILE >> b
        if rest > tile:
            # k times (w, tile) column tiles of each (w, rest) slab.
            shape = (n, w, rest // tile, tile)
            np.matmul(k, v.reshape(shape).transpose(0, 2, 1, 3),
                      out=out.reshape(shape).transpose(0, 2, 1, 3))
        elif rest == 1 and n > tile:
            # The last axes: tiles of rows of w entries, times k.T.
            shape = (n // tile, tile, w)
            np.matmul(v.reshape(shape), k.T, out=out.reshape(shape))
        else:
            np.matmul(k, v.reshape(n, w, rest), out=out.reshape(n, w, rest))
        v = out
        axis += b
    return RawVector(m, v)


def inverse_transform(f, mu: complex) -> RawVector:
    """Invert via the composition law: the inverse of mu is 1/mu."""
    mu = complex(mu)
    if mu == 0:
        raise SingularTransform("M(0) is singular; the transform has no inverse at mu = 0")
    return transform(f, 1.0 / mu)


def self_trial(f: BinaryFunction, tol: float = DEFAULT_TOL) -> bool:
    """True iff the trinity transform fixes f up to a scalar."""
    return proportional(transform(f, OMEGA), f, tol)
