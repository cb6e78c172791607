"""Minor operations on binary functions and the degeneracy test.

A minor removes one element e_i from the ground set by combining the two
slices of the vector along that element with weight lambda(mu):

    g(G) = f(G : i <- 0) + lambda(mu) * f(G : i <- 1)

then renormalizing so the empty-set entry is 1.  One kernel,
:func:`raw_minors`, combines the slices for a whole stack of vectors at
once; :func:`take_minor` is its one-vector case.  The weight

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

from .binfun import (
    BinaryFunction,
    DEFAULT_TOL,
    as_values,
    normalizable,
    normalize,
    proportional,
)
from .errors import IndexOutOfRange, PoleError
from .transform import transform

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
    (b=0 part, b=1 part), views of shape (rows * 2**i, 2**(m-1-i))."""
    m = values.shape[-1].bit_length() - 1
    if not 0 <= i < m:
        raise IndexOutOfRange(f"element {i} outside 0..{m - 1}")
    w = values.reshape(-1, 2, 2 ** (m - 1 - i))
    return w[:, 0], w[:, 1]


def raw_minors(values: np.ndarray, i: int, mu) -> np.ndarray:
    """Unnormalized minors at element i of the vectors along the last axis of
    values, in one fresh array: the one minor kernel.

    For one mu the result has the shape of values with its last axis halved.
    For a 1-D array of q mus it has a leading axis of length q in addition,
    one minor per mu.
    """
    s0, s1 = _split_slices(values, i)
    shape = values.shape[:-1] + (-1,)
    if isinstance(mu, np.ndarray):
        lam = np.array([lambda_mu(x) for x in mu])[:, None, None]
        shape = mu.shape + shape
    else:
        lam = lambda_mu(mu)
    # lam * slice, not np.multiply(slice, lam): for complex lam the operand
    # order changes the last bits of the product.
    raw = lam * s1
    raw += s0
    return raw.reshape(shape)


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


def minors_commute_check(f: BinaryFunction, mus, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Compare both application orders of every pair of minors on distinct
    elements i < j, at every (mu1, mu2) drawn from mus; returns
    (pairs compared, pairs differing beyond tol entrywise).

    Removing e_i first shifts e_j down to j - 1.  A pair is skipped when any
    of its four minors does not normalize.  The minors are taken as stacks:
    all first minors in one array, then for each i the second minors of
    first[i] at every j - 1 >= i and of every first[j > i] at i, so that all
    pairs that start at i are compared at once.
    """
    if f.m == 0:
        return 0, 0
    mus = np.asarray(mus, dtype=complex)
    first = np.stack([raw_minors(f.values, i, mus) for i in range(f.m)])
    first_ok = _normalize_rows(first, tol)
    compared = differing = 0
    for i in range(f.m - 1):
        # Axes (j - i - 1, mu2 index, mu1 index, entries) on both sides.
        ij = np.stack([raw_minors(first[i], j - 1, mus) for j in range(i + 1, f.m)])
        ji = raw_minors(first[i + 1:], i, mus).transpose(1, 2, 0, 3)
        ok = (_normalize_rows(ij, tol, first_ok[i])
              & _normalize_rows(ji, tol, first_ok[i + 1:, :, None]))
        ij -= ji
        worst = np.max(np.abs(ij), axis=-1)
        compared += int(np.count_nonzero(ok))
        differing += int(np.count_nonzero(ok & ~(worst <= tol)))
    return compared, differing


def transform_minor_check(f, mu: complex, nu: complex, i: int,
                          tol: float = DEFAULT_TOL) -> bool:
    """Interchange identity: minor of the transform vs transform of the minor.

    Compares (L^[mu] f) minored at nu against L^[mu] (f minored at mu*nu)
    projectively, as raw vectors.
    """
    lhs = take_minor_raw(transform(f, mu), i, nu)
    _, fv = as_values(f)
    rhs = transform(take_minor_raw(fv, i, complex(mu) * complex(nu)), mu)
    return proportional(lhs, rhs, tol)


def is_degenerate(f: BinaryFunction, i: int, tol: float = 1e-8) -> bool:
    """Product-form degeneracy test for element i, at a tolerance relative
    to the largest entry magnitude."""
    a, b = _split_slices(f.values, i)
    t = b[0, 0]
    residual = b - t * a
    scale = float(np.max(np.abs(f.values))) * max(1.0, abs(t))
    return bool(np.max(np.abs(residual), initial=0.0) <= tol * scale)
