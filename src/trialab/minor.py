"""Minor operations on binary functions and the degeneracy test.

A minor removes one element e_i from the ground set by combining the two
slices of the vector along that element with weight lambda(mu):

    g(G) = f(G : i <- 0) + lambda(mu) * f(G : i <- 1)

then renormalizing so the empty-set entry is 1.  The weight

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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .binfun import (
    BinaryFunction,
    DEFAULT_TOL,
    allclose,
    as_values,
    normalize,
    proportional,
)
from .errors import IndexOutOfRange, NormalizationError, PoleError
from .transform import transform

MU_POLE = 3.0 + 2.0 * math.sqrt(2.0)
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
    return (1.0 + mu) / (math.sqrt(2.0) + 1.0 - (math.sqrt(2.0) - 1.0) * mu)


def _split_slices(values: np.ndarray, m: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Slices of the vector along element i: (b=0 part, b=1 part)."""
    if not 0 <= i < m:
        raise IndexOutOfRange(f"element {i} outside 0..{m - 1}")
    w = values.reshape(2**i, 2, -1)
    return w[:, 0, :].reshape(-1), w[:, 1, :].reshape(-1)


def take_minor_raw(f, i: int, mu: complex) -> np.ndarray:
    """Unnormalized minor vector of length 2**(m-1), in one fresh array."""
    m, values = as_values(f)
    if not 0 <= i < m:
        raise IndexOutOfRange(f"element {i} outside 0..{m - 1}")
    lam = lambda_mu(mu)
    w = values.reshape(2**i, 2, -1)
    # lam * slice, not np.multiply(slice, lam): for complex lam the operand
    # order changes the last bits of the product.
    raw = lam * w[:, 1, :]
    raw += w[:, 0, :]
    return raw.reshape(-1)


def take_minor(f: BinaryFunction, spec: MinorSpec,
               tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Normalized minor; NormalizationError when it exists only projectively,
    NonFiniteValue when its raw empty-set entry is NaN or infinite."""
    return BinaryFunction(f.m - 1, normalize(take_minor_raw(f, spec.element, spec.mu), tol))


def minors_commute_check(f: BinaryFunction, mus, tol: float = DEFAULT_TOL) -> tuple[int, int]:
    """Compare both application orders of every pair of minors on distinct
    elements i < j, at every (mu1, mu2) drawn from mus; returns
    (pairs compared, pairs differing beyond tol entrywise).

    Removing e_i first shifts e_j down to j - 1.  A pair is skipped when any
    of its four minors raises NormalizationError.  Each first minor is taken
    once and shared by every pair that starts with it.
    """
    first = {}
    for i in range(f.m):
        for mu in mus:
            try:
                first[i, mu] = take_minor(f, MinorSpec(i, mu), tol=tol)
            except NormalizationError:
                first[i, mu] = None
    compared = differing = 0
    for i, j in itertools.combinations(range(f.m), 2):
        for mu1, mu2 in itertools.product(mus, repeat=2):
            gi, gj = first[i, mu1], first[j, mu2]
            if gi is None or gj is None:
                continue
            try:
                ij = take_minor(gi, MinorSpec(j - 1, mu2), tol=tol)
                ji = take_minor(gj, MinorSpec(i, mu1), tol=tol)
            except NormalizationError:
                continue
            compared += 1
            if not allclose(ij, ji, tol):
                differing += 1
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
    """Product-form degeneracy test for element i.

    Exact {0,1}-valued indicators short-circuit to exact comparison;
    otherwise the tolerance is relative to the largest entry magnitude.
    """
    a, b = _split_slices(f.values, f.m, i)
    t = b[0]
    residual = b - t * a
    exact = np.all((f.values == 0) | (f.values == 1))
    if exact:
        return bool(np.all(residual == 0))
    scale = float(np.max(np.abs(f.values))) * max(1.0, abs(t))
    return bool(np.max(np.abs(residual), initial=0.0) <= tol * scale)
