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

import math
from dataclasses import dataclass

import numpy as np

from .binfun import (
    BinaryFunction,
    DEFAULT_TOL,
    allclose,
    as_values,
    make,
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
    """Unnormalized minor vector of length 2**(m-1)."""
    m, values = as_values(f)
    lam = lambda_mu(mu)
    a, b = _split_slices(values, m, i)
    return a + lam * b


def take_minor(f: BinaryFunction, spec: MinorSpec,
               tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Normalized minor; NormalizationError when it exists only projectively."""
    raw = take_minor_raw(f, spec.element, spec.mu)
    c = raw[0]
    if abs(c) < tol:
        raise NormalizationError(
            f"raw empty-set entry {c} below {tol} for element {spec.element}, mu {spec.mu}")
    labels = f.labels[: spec.element] + f.labels[spec.element + 1:]
    return make(f.m - 1, raw / c, labels=labels, tol=np.inf)


def minors_commute_check(f: BinaryFunction, spec1: MinorSpec, spec2: MinorSpec,
                         tol: float = DEFAULT_TOL) -> bool:
    """Both application orders agree entrywise (indices shift after the first removal)."""
    if spec1.element == spec2.element:
        raise IndexOutOfRange("commutation check needs distinct elements")

    def after(first: MinorSpec, second: MinorSpec) -> BinaryFunction:
        g = take_minor(f, first, tol=tol)
        j = second.element - (1 if second.element > first.element else 0)
        return take_minor(g, MinorSpec(j, second.mu), tol=tol)

    return allclose(after(spec1, spec2), after(spec2, spec1), tol)


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
