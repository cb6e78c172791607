"""Binary functions on subsets of a finite ground set.

A binary function of dimension ``m`` is a complex vector of length ``2**m``
whose entries are indexed by subsets of ``{e_0, ..., e_{m-1}}`` and whose
empty-set entry equals 1.  Element ``e_i`` owns the index bit of weight
``2**(m-1-i)``, so ``e_0`` is the most significant bit.  This convention is
fixed once here and shared by the transform kernel, the minor operations and
the file format; every other module relies on it.

On-disk format (UTF-8 text)::

    bf <m>
    <index> <re> <im>      # 2**m lines, index ascending from 0

``#`` starts a comment line, and every value must be finite.  The writer
emits 17 significant digits so round trips are lossless for doubles.  The
same container also stores raw (unnormalized) vectors; only
:func:`read_binary_function` enforces the empty-set constraint on load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySetNotOne,
    FileFormatError,
    IndexOutOfRange,
    NonFiniteValue,
    NormalizationError,
    WrongLength,
)

DEFAULT_TOL = 1e-9

# Entries per np.vdot call.  OpenBLAS splits a dot product over more than
# 10000 entries across threads, and on a busy host the call then waits for
# its second thread to be scheduled; chunks keep it on the calling thread.
DOT_CHUNK = 8192


def default_labels(m: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(m))


@dataclass(frozen=True, eq=False)
class BinaryFunction:
    """Immutable 2**m complex vector with empty-set entry exactly 1."""

    m: int
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        self.values.flags.writeable = False

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"BinaryFunction(m={self.m}, values={self.values!r})"


@dataclass(frozen=True, eq=False)
class RawVector:
    """Length 2**m complex vector with no empty-set constraint.

    Transform and unnormalized minor outputs live here; callers renormalize
    explicitly when they want a :class:`BinaryFunction`.
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


def as_values(x) -> tuple[int, np.ndarray]:
    """Coerce a BinaryFunction, RawVector, array or sequence to (m, values)."""
    if isinstance(x, (BinaryFunction, RawVector)):
        return x.m, x.values
    v = np.asarray(x, dtype=complex)
    if v.ndim != 1:
        raise WrongLength(f"expected a flat vector, got shape {v.shape}")
    m = int(v.size).bit_length() - 1
    if 2**m != v.size:
        raise WrongLength(f"length {v.size} is not a power of two")
    return m, v


def make(m: int, values, labels: Sequence[str] | None = None,
         tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Build a binary function, rejecting vectors whose empty-set entry is not 1.

    The entry is snapped to exactly 1 after the tolerance check so the
    invariant holds bit-for-bit downstream; a non-finite entry is rejected,
    never snapped.
    """
    v = np.array(values, dtype=complex)
    if m < 0:
        raise WrongLength("dimension must be non-negative")
    if v.shape != (2**m,):
        raise WrongLength(f"need 2**{m} = {2**m} values, got {v.shape}")
    if not (np.isfinite(v[0]) and abs(v[0] - 1.0) <= tol):
        raise EmptySetNotOne(f"empty-set entry {v[0]} differs from 1 by more than {tol}")
    v[0] = 1.0
    lab = default_labels(m) if labels is None else tuple(labels)
    if len(lab) != m:
        raise WrongLength(f"need {m} labels, got {len(lab)}")
    return BinaryFunction(m, v, lab)


def make_normalized(m: int, values, labels: Sequence[str] | None = None,
                    tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Divide through by the empty-set entry; error when it is tiny."""
    v = np.array(values, dtype=complex)
    if v.shape != (2**m,):
        raise WrongLength(f"need 2**{m} = {2**m} values, got {v.shape}")
    if abs(v[0]) < tol:
        raise NormalizationError(f"empty-set entry {v[0]} below {tol}; cannot normalize")
    return make(m, v / v[0], labels=labels, tol=np.inf)


def subset_index(bits: Iterable[int]) -> int:
    """Index of the subset with characteristic bit sequence g_0..g_{k-1}."""
    idx = 0
    for b in bits:
        idx = (idx << 1) | (1 if b else 0)
    return idx


def bits_of_index(index: int, m: int) -> tuple[int, ...]:
    """Inverse of :func:`subset_index` for a ground set of size m."""
    return tuple((index >> (m - 1 - i)) & 1 for i in range(m))


def insert_bit(bits: Sequence[int], i: int, b: int) -> tuple[int, ...]:
    """Insert bit b at position i, shifting the tail right."""
    g = tuple(bits)
    if not 0 <= i <= len(g):
        raise IndexOutOfRange(f"position {i} outside 0..{len(g)}")
    return g[:i] + (1 if b else 0,) + g[i:]


def _vdot(a: np.ndarray, b: np.ndarray) -> complex:
    """np.vdot(a, b), summed over chunks of DOT_CHUNK entries when longer."""
    if a.size <= DOT_CHUNK:
        return np.vdot(a, b)
    return sum(np.vdot(a[i:i + DOT_CHUNK], b[i:i + DOT_CHUNK]) for i in range(0, a.size, DOT_CHUNK))


def proportionality_residual(a, b) -> float:
    """Relative sup-norm residual of the best least-squares fit a = c*b.

    Returns 0 when both vectors vanish and inf when exactly one does (or
    when the fitted c is zero): zero vectors are proportional only to zero
    vectors.
    """
    ma, va = as_values(a)
    mb, vb = as_values(b)
    if ma != mb:
        raise DimensionMismatch(f"dimensions differ: {ma} vs {mb}")
    na = float(np.max(np.abs(va))) if va.size else 0.0
    nb = float(np.max(np.abs(vb))) if vb.size else 0.0
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return float("inf")
    c = _vdot(vb, va) / _vdot(vb, vb)
    if abs(c) == 0.0:
        return float("inf")
    return float(np.max(np.abs(va - c * vb)) / na)


def proportional(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a = c*b entrywise within tol for some nonzero constant c."""
    return proportionality_residual(a, b) <= tol


def allclose(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise comparison at absolute tolerance (no rescaling)."""
    ma, va = as_values(a)
    mb, vb = as_values(b)
    if ma != mb:
        raise DimensionMismatch(f"dimensions differ: {ma} vs {mb}")
    return bool(np.max(np.abs(va - vb), initial=0.0) <= tol)


def tensor(f: BinaryFunction, g: BinaryFunction) -> BinaryFunction:
    """Tensor product: value on (X, Y) is f(X) * g(Y); dimensions add."""
    values = np.kron(f.values, g.values)
    return make(f.m + g.m, values, tol=np.inf)


def tensor_power(f: BinaryFunction, k: int) -> BinaryFunction:
    out = unit()
    for _ in range(k):
        out = tensor(out, f)
    return out


def unit() -> BinaryFunction:
    """The dimension-0 binary function (1)."""
    return make(0, [1.0])


# GF(2) span handling for indicator functions.  Row masks use the same bit
# convention as subset indices: column j of the matrix is element e_j with
# weight 2**(m-1-j).

def gf2_basis(masks: Iterable[int]) -> list[int]:
    """Row-reduce integer bit masks; returns pivot-sorted basis."""
    basis: list[int] = []
    for v in masks:
        for r in basis:
            v = min(v, v ^ r)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def gf2_span(basis: Sequence[int]) -> list[int]:
    """All 2**rank members of the span of a GF(2) basis."""
    members = [0]
    for b in basis:
        members += [x ^ b for x in members]
    return members


def rowspace_indicator(matrix, labels: Sequence[str] | None = None) -> BinaryFunction:
    """Indicator of the GF(2) rowspace of a 0/1 matrix with m columns."""
    n = np.asarray(matrix, dtype=int) % 2
    if n.ndim != 2:
        n = n.reshape(0, 0) if n.size == 0 else n.reshape(1, -1)
    rows, m = n.shape
    masks = [subset_index(n[r]) for r in range(rows)]
    values = np.zeros(2**m, dtype=complex)
    for member in gf2_span(gf2_basis(masks)):
        values[member] = 1.0
    return make(m, values, labels=labels)


# ---------------------------------------------------------------------------
# File I/O

def write_vector(path, m: int, values) -> None:
    v = np.asarray(values, dtype=complex)
    if v.shape != (2**m,):
        raise WrongLength(f"need 2**{m} values, got {v.shape}")
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise NonFiniteValue(f"{path}: refusing to write non-finite value at index {bad[0]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"bf {m}\n")
        for i, z in enumerate(v):
            fh.write(f"{i} {z.real:.17g} {z.imag:.17g}\n")


def read_vector(path) -> RawVector:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FileFormatError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "bf":
        raise FileFormatError(f"{path}: first line must be 'bf <m>'")
    try:
        m = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad dimension {head[1]!r}") from exc
    if m < 0:
        raise FileFormatError(f"{path}: negative dimension")
    body = lines[1:]
    if len(body) != 2**m:
        raise FileFormatError(f"{path}: expected {2**m} value lines, found {len(body)}")
    values = np.zeros(2**m, dtype=complex)
    for pos, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad value line {ln!r}")
        try:
            idx, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad value line {ln!r}") from exc
        if idx != pos:
            raise FileFormatError(f"{path}: index {idx} out of order (expected {pos})")
        values[pos] = complex(re, im)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise FileFormatError(f"{path}: non-finite value at index {bad[0]}")
    return RawVector(m, values)


def read_binary_function(path, tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Strict load: rejects files whose empty-set entry is not 1."""
    raw = read_vector(path)
    return make(raw.m, raw.values, tol=tol)


def write_binary_function(path, f: BinaryFunction) -> None:
    write_vector(path, f.m, f.values)
