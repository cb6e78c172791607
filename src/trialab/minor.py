"""Minor operations on binary functions and the degeneracy test.

A minor removes one element e_i from the ground set by combining the two
slices of the vector along that element with weight lambda(mu):

    g(G) = f(G : i <- 0) + lambda(mu) * f(G : i <- 1)

then renormalizing so the empty-set entry is 1.  One kernel,
:func:`raw_minors`, combines the slices for a whole stack of vectors at
once; :func:`take_minor` is its one-vector case.  It follows the stacking
rule of :func:`transform.raw_transform`: the vectors lie along the last axis
of an array, and mu is one parameter or an array broadcast against the
leading axes, so an outer product over parameters is an explicit parameter
axis.  The commutation, interchange and degeneracy checks take such stacks
too, one verdict or count per vector.  :func:`raw_minors` and the
normalisation in :func:`take_minor` are shared across the CPUs from
:data:`pool.SPLIT_MIN` minor entries on (from m = 19 for one vector), with
output bit-identical to one CPU's.  The weight

    lambda(mu) = (1 + mu) / (sqrt(2) + 1 - (sqrt(2) - 1) * mu)

has a pole at mu = 3 + 2*sqrt(2), which is rejected.  On cutset-space
indicators mu = 1 acts as deletion and mu = -1 as contraction (restriction
to the 0-slice).

An element is degenerate when all minor operations on it coincide; the
implemented test is the product condition

    f(G : i <- 1) = f(0 : i <- 1) * f(G : i <- 0)   for all G

(using f(0 : i <- 0) = 1), which is division-free.  Equivalence with the
ratio form is exercised in the test suite, not re-derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pool
from .binfun import (
    BinaryFunction,
    DEFAULT_TOL,
    RawVector,
    as_values,
    normalizable,
    normalize,
    proportional,
)
from .errors import IndexOutOfRange, PoleError
from .transform import raw_transform

MU_POLE = 3.0 + 2.0 * math.sqrt(2.0)
_SQRT2_PLUS_1 = math.sqrt(2.0) + 1.0
_SQRT2_MINUS_1 = math.sqrt(2.0) - 1.0
POLE_TOL = 1e-12


@dataclass(frozen=True)
class MinorSpec:
    """One minor operation: which element to remove and with which mu."""

    element: int
    mu: complex


def lambda_mu(mu: complex) -> complex:
    """Slice weight lambda(mu); PoleError at mu = 3 + 2*sqrt(2)."""
    mu = complex(mu)
    if abs(mu - MU_POLE) <= POLE_TOL:
        raise PoleError(f"mu = {mu} is at the pole 3 + 2*sqrt(2) of lambda")
    return (1.0 + mu) / (_SQRT2_PLUS_1 - _SQRT2_MINUS_1 * mu)


def _split_slices(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Slices at element i of the vectors along the last axis of values:
    (b=0 part, b=1 part), views of shape values.shape[:-1] + (2**i, 2**(m-1-i))."""
    m = values.shape[-1].bit_length() - 1
    if not 0 <= i < m:
        raise IndexOutOfRange(f"element {i} outside 0..{m - 1}")
    w = values.reshape(values.shape[:-1] + (2**i, 2, 2 ** (m - 1 - i)))
    return w[..., 0, :], w[..., 1, :]


def _values(f) -> np.ndarray:
    """The vector of a binary function or raw vector, or an array of vectors
    along its last axis as it is."""
    return f.values if isinstance(f, (BinaryFunction, RawVector)) else np.asarray(f, dtype=complex)


def raw_minors(values: np.ndarray, i: int, mu) -> np.ndarray:
    """Unnormalized minors at element i of the vectors along the last axis of
    values, in one fresh array: the one minor kernel.

    mu is one parameter or an array broadcast against the leading axes of
    values, as in :func:`raw_transform`; the result has the broadcast
    leading axes and the last axis halved.  When the slices hold
    pool.SPLIT_MIN entries or more, its chunks are shared across the CPUs:
    at m = 18 a split minor was about a tenth slower than one thread's.
    """
    s0, s1 = _split_slices(values, i)
    if isinstance(mu, np.ndarray):
        # One Python lambda_mu per parameter: numpy's complex division
        # rounds differently.
        lam = np.array([lambda_mu(x) for x in mu.flat], dtype=complex).reshape(mu.shape + (1, 1))
    else:
        lam = lambda_mu(mu)
    raw = pool.chunked(_combine, lam, s1, s0, entries=s1.size)
    return raw.reshape(raw.shape[:-2] + (-1,))


def _combine(lam, s1, s0, out=None):
    # lam * slice, not np.multiply(slice, lam): for complex lam the operand
    # order changes the last bits of the product.
    out = np.multiply(lam, s1, out=out)
    out += s0
    return out


def take_minor_raw(f, i: int, mu: complex) -> np.ndarray:
    """Unnormalized minor vector of length 2**(m-1), in one fresh array."""
    return raw_minors(as_values(f)[1], i, mu)


def take_minor(f: BinaryFunction, spec: MinorSpec,
               tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Normalized minor; NormalizationError when it exists only projectively,
    NonFiniteValue when its raw empty-set entry is NaN or infinite."""
    return BinaryFunction(f.m - 1, normalize(raw_minors(f.values, spec.element, spec.mu), tol))


def _normalize_rows(raw: np.ndarray, tol: float, rows=True) -> np.ndarray:
    """Normalize in place, as :func:`binfun.normalize` does, each vector along
    the last axis of raw whose empty-set entry passes the rule; returns the
    mask of those vectors.  Only the vectors where rows holds are examined."""
    c = np.where(rows, raw[..., 0], 1.0)
    ok = rows & normalizable(c, tol)
    raw /= np.where(ok, c, 1.0)[..., None]
    raw[..., 0] = 1.0
    return ok


def minors_commute_check(f, mus, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Compare both application orders of every pair of minors on distinct
    elements i < j, at every (mu1, mu2) drawn from mus; returns
    (pairs compared, pairs differing beyond tol entrywise), summed over the
    functions when f is an array of them along its last axis.

    Removing e_i first shifts e_j down to j - 1.  A pair is skipped when any
    of its four minors does not normalize.  The minors are taken as stacks,
    with one axis per parameter in front of the functions: all first minors
    in one array, then for each i the second minors of first[i] at every
    j - 1 >= i and of every first[j > i] at i, so that all pairs that start
    at i are compared at once.
    """
    values = _values(f)
    m = values.shape[-1].bit_length() - 1
    if m == 0:
        return 0, 0
    mus = np.asarray(mus, dtype=complex).reshape((-1,) + (1,) * (values.ndim - 1))
    # Axes (i, mu1 index, functions..., entries).
    first = np.stack([raw_minors(values, i, mus) for i in range(m)])
    first_ok = _normalize_rows(first, tol)
    compared = differing = 0
    for i in range(m - 1):
        # Axes (j - i - 1, mu2 index, mu1 index, functions..., entries) on
        # both sides: e_i goes at mu1 and e_j at mu2.
        ij = np.stack([raw_minors(first[i], j - 1, mus[:, None]) for j in range(i + 1, m)])
        ji = raw_minors(first[i + 1:, :, None], i, mus)
        ok = (_normalize_rows(ij, tol, first_ok[i])
              & _normalize_rows(ji, tol, first_ok[i + 1:, :, None]))
        ij -= ji
        worst = np.max(np.abs(ij), axis=-1)
        compared += int(np.count_nonzero(ok))
        differing += int(np.count_nonzero(ok & ~(worst <= tol)))
    return compared, differing


def transform_minor_check(f, mu, nu, i: int, tol: float = DEFAULT_TOL):
    """Interchange identity: minor of the transform vs transform of the minor.

    Compares (L^[mu] f) minored at nu against L^[mu] (f minored at mu*nu)
    projectively, as raw vectors.  f may be an array of vectors along its
    last axis, with mu and nu broadcast against its leading axes; then there
    is one verdict per vector.  Each mu*nu is Python's complex product:
    numpy's fuses the parts and differs in the last bit for about 40% of
    products.
    """
    mu, nu = np.broadcast_arrays(np.asarray(mu, dtype=complex), np.asarray(nu, dtype=complex))
    munu = np.array([complex(a) * complex(b) for a, b in zip(mu.flat, nu.flat)]).reshape(mu.shape)
    values = _values(f)
    lhs = raw_minors(raw_transform(values, mu), i, nu)
    rhs = raw_transform(raw_minors(values, i, munu), mu)
    size = lhs.shape[-1]
    verdicts = np.array([proportional(a, b, tol)
                         for a, b in zip(lhs.reshape(-1, size), rhs.reshape(-1, size))])
    return verdicts.reshape(lhs.shape[:-1]) if lhs.ndim > 1 else bool(verdicts[0])


def is_degenerate(f, i: int, tol: float = 1e-8):
    """Product-form degeneracy test for element i, at a tolerance relative
    to the largest entry magnitude; for an array of vectors along its last
    axis, one verdict per vector."""
    values = _values(f)
    a, b = _split_slices(values, i)
    t = b[..., :1, :1]
    residual = b - t * a
    scale = np.max(np.abs(values), axis=-1) * np.maximum(1.0, np.abs(t[..., 0, 0]))
    verdicts = np.max(np.abs(residual), axis=(-2, -1), initial=0.0) <= tol * scale
    return verdicts if verdicts.ndim else bool(verdicts)
