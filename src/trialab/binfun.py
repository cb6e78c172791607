"""Binary functions on subsets of a finite ground set.

A binary function of dimension ``m`` is a complex vector of length ``2**m``
whose entries are indexed by subsets of ``{e_0, ..., e_{m-1}}`` and whose
empty-set entry equals 1.  Element ``e_i`` owns the index bit of weight
``2**(m-1-i)``, so ``e_0`` is the most significant bit.  This convention is
fixed once here and shared by the transform kernel, the minor operations and
the file format; every other module relies on it.  Integer masks are the one
subset encoding: a subset, a GF(2) vector over the elements and a row of a
GF(2) matrix are each the index of their subset, and :func:`slices` is the
one primitive that splits vectors at an element.

A :class:`BinaryFunction` is a :class:`RawVector` whose empty-set entry is
1.  :func:`vectors` is the one coercion of kernel inputs: either class, or
an array of vectors along its last axis, whose length it checks.

:func:`make` copies its input and rejects any NaN or infinite entry;
kernels wrap the one fresh array they build (``tensor``, ``take_minor``)
without that copy or scan.

On-disk format (UTF-8 text)::

    bf <m>
    <index> <re> <im>

with 2**m value lines, index ascending from 0.  Comments are whole lines:
a line whose first non-blank character is ``#`` is a comment, and a line
with a ``#`` note after its fields is malformed.  Every value must be
finite.  The writer emits 17 significant digits so round trips are
lossless for doubles.  The reader opens the file once and parses its
header in one place, past any blank and comment lines.  It hands the rest
to numpy's C parser and keeps the rows when there are 2**m of them in
index order.  Only a body that numpy refuses (a comment line, a token such
as ``1_0`` that only Python's int and float accept, or any fault) is
parsed again with Python's int and float, one line at a time, which checks
the line count first and names the first bad line.  A body with a comment
line is so parsed twice: numpy parses every line up to the comment before
it refuses the body, and the per-line parse then reads the whole body
again, so a comment near the end of a large file costs a full numpy parse.
Finiteness is checked once, on the values either parse gives.  The
container stores raw vectors of 2**m entries: the empty-set constraint is
not checked on load, and :func:`normalize` is the one way to restore it.

From :data:`pool.SPLIT_MIN` entries on, :func:`normalize` and both passes
of the proportionality residual are shared across the CPUs, with results
bit-identical to one CPU's.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import pool
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

# Entries per slice in proportionality_residual.  OpenBLAS splits a dot
# product over more than 10000 entries across threads, and on a busy host the
# call then waits for its second thread to be scheduled; slices keep it on the
# calling thread, and keep the norms' temporaries small and in cache.
DOT_CHUNK = 8192
WRITE_ROWS = 8192  # rows per formatting operation in write_vector


@dataclass(frozen=True, eq=False)
class RawVector:
    """Length 2**m complex vector with no empty-set constraint; WrongLength
    unless values is flat with 2**m entries.

    Transform and unnormalized minor outputs live here; callers renormalize
    explicitly when they want a :class:`BinaryFunction`.
    """

    m: int
    values: np.ndarray

    def __post_init__(self):
        if self.m < 0 or self.values.shape != (2**self.m,):
            raise WrongLength(f"need 2**{self.m} values, got {self.values.shape}")
        self.values.setflags(write=False)


class BinaryFunction(RawVector):
    """A raw vector whose empty-set entry is exactly 1."""


def vectors(x) -> tuple[int, np.ndarray]:
    """Coerce a RawVector (so a BinaryFunction), or an array or sequence of
    vectors along its last axis, to (m, values): the one input coercion of
    the vector kernels.  WrongLength unless that axis has 2**m entries."""
    if isinstance(x, RawVector):
        return x.m, x.values
    v = np.asarray(x, dtype=complex)
    if v.ndim == 0:
        raise WrongLength("expected a vector, got a scalar")
    size = v.shape[-1]
    m = size.bit_length() - 1
    if size != 2**m:
        raise WrongLength(f"length {size} is not a power of two")
    return m, v


def as_values(x) -> tuple[int, np.ndarray]:
    """:func:`vectors` of one flat vector."""
    m, v = vectors(x)
    if v.ndim != 1:
        raise WrongLength(f"expected a flat vector, got shape {v.shape}")
    return m, v


def make(m: int, values, tol: float = DEFAULT_TOL) -> BinaryFunction:
    """Build a binary function from a copy of values, rejecting vectors whose
    empty-set entry is not 1 and vectors with a NaN or infinite entry.

    The empty-set entry is snapped to exactly 1 after the tolerance check so
    the invariant holds bit-for-bit downstream; a non-finite entry is
    rejected, never snapped.
    """
    v = np.array(values, dtype=complex)
    if m < 0:
        raise WrongLength("dimension must be non-negative")
    if v.shape != (2**m,):
        raise WrongLength(f"need 2**{m} = {2**m} values, got {v.shape}")
    f = _adopt(m, v, tol)
    if not np.isfinite(v).all():
        bad = np.flatnonzero(~np.isfinite(v))[0]
        raise NonFiniteValue(f"non-finite value {v[bad]} at index {bad}")
    return f


def _adopt(m: int, v: np.ndarray, tol: float) -> BinaryFunction:
    """Wrap a fresh length-2**m array that the caller hands over, without a
    copy or a finiteness scan; only the empty-set entry is checked and snapped."""
    if not (np.isfinite(v[0]) and abs(v[0] - 1.0) <= tol):
        raise EmptySetNotOne(f"empty-set entry {v[0]} differs from 1 by more than {tol}")
    v[0] = 1.0
    return BinaryFunction(m, v)


def normalizable(c, tol: float = DEFAULT_TOL):
    """The normalization rule, on one empty-set entry c or an array of them:
    True where c normalizes, False where it is below tol in magnitude, as
    the vector is then a binary function only projectively.

    NonFiniteValue when an entry is NaN or infinite, since snapping it to 1
    would hide that.
    """
    if isinstance(c, np.ndarray):
        bad = c[~np.isfinite(c)]
    else:  # one entry: cmath is a tenth of the cost of a numpy call
        bad = () if cmath.isfinite(c) else (c,)
    if len(bad):
        raise NonFiniteValue(f"empty-set entry {bad[0]} is not finite; cannot normalize")
    return abs(c) >= tol


def normalize(v: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Divide a writable vector in place by its empty-set entry and set that
    entry to exactly 1, since c / c need not round to 1; returns v.

    Errors as in :func:`normalizable`, and NormalizationError when the
    entry is below tol.  A long vector is divided in chunks across the CPUs.
    """
    c = v[0]
    if not normalizable(c, tol):
        raise NormalizationError(f"empty-set entry {c} below {tol}; cannot normalize")
    pool.chunked(np.divide, v, c, out=v)
    v[0] = 1.0
    return v


def slices(values, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Slices at element i of the vectors along the last axis of values, as
    :func:`vectors` takes them: (b=0 part, b=1 part), views of shape
    values.shape[:-1] + (2**i, 2**(m-1-i))."""
    m, values = vectors(values)
    if not 0 <= i < m:
        raise IndexOutOfRange(f"element {i} outside 0..{m - 1}")
    w = values.reshape(values.shape[:-1] + (2**i, 2, 2 ** (m - 1 - i)))
    return w[..., 0, :], w[..., 1, :]


def proportionality_residual(a, b) -> float:
    """Relative sup-norm residual of the best least-squares fit a = c*b.

    Returns 0 when both vectors vanish and inf when exactly one does (or
    when the fitted c is zero): zero vectors are proportional only to zero
    vectors.
    """
    return _residual(a, b, None)


def proportional(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a = c*b entrywise within tol for some nonzero constant c:
    proportionality_residual(a, b) <= tol, with the residual's last pass
    stopped at the first slice whose residual exceeds tol * max|a|."""
    return _residual(a, b, tol) <= tol


def _residual(a, b, tol) -> float:
    """proportionality_residual(a, b); with a tol, inf as soon as a slice
    shows that the residual exceeds it."""
    ma, va = as_values(a)
    mb, vb = as_values(b)
    if ma != mb:
        raise DimensionMismatch(f"dimensions differ: {ma} vs {mb}")
    slices = -(-va.size // DOT_CHUNK)
    # Each slice's norms and dot products are stored, then folded in slice
    # order, so that the sums are the same whichever thread took which slice.
    # np.maximum rather than max() so that a NaN propagates as np.max does.
    parts = [None] * slices

    def fit(lo, hi):
        for s in range(lo, hi):
            sa, sb = va[s * DOT_CHUNK:(s + 1) * DOT_CHUNK], vb[s * DOT_CHUNK:(s + 1) * DOT_CHUNK]
            parts[s] = np.abs(sa).max(), np.abs(sb).max(), np.vdot(sb, sa), np.vdot(sb, sb)

    pool.run(fit, slices, va.size)
    na = nb = 0.0
    ba = bb = 0
    for xa, xb, da, db in parts:
        na = np.maximum(na, xa)
        nb = np.maximum(nb, xb)
        ba += da
        bb += db
    if na == 0.0 and nb == 0.0:
        return 0.0
    if na == 0.0 or nb == 0.0:
        return float("inf")
    c = ba / bb
    if abs(c) == 0.0:
        return float("inf")
    deviations = [0.0] * slices
    over = []  # the slices found over tol, which stop every thread

    def deviate(lo, hi):
        for s in range(lo, hi):
            if over:
                return
            deviations[s] = x = np.abs(va[s * DOT_CHUNK:(s + 1) * DOT_CHUNK]
                                       - c * vb[s * DOT_CHUNK:(s + 1) * DOT_CHUNK]).max()
            # Division rounds monotonically, so x / na is at most the residual
            # and stopping here never changes the verdict.
            if tol is not None and x / na > tol:
                over.append(s)

    pool.run(deviate, slices, va.size)
    if over:
        return float("inf")
    worst = 0.0
    for x in deviations:
        worst = np.maximum(worst, x)
    return float(worst / na)


def allclose(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Entrywise comparison at absolute tolerance (no rescaling)."""
    ma, va = as_values(a)
    mb, vb = as_values(b)
    if ma != mb:
        raise DimensionMismatch(f"dimensions differ: {ma} vs {mb}")
    return bool(np.max(np.abs(va - vb), initial=0.0) <= tol)


def tensor(f: BinaryFunction, g: BinaryFunction) -> BinaryFunction:
    """Tensor product: value on (X, Y) is f(X) * g(Y); dimensions add."""
    return _adopt(f.m + g.m, np.kron(f.values, g.values), np.inf)


def tensor_power(f: BinaryFunction, k: int) -> BinaryFunction:
    out = unit()
    for _ in range(k):
        out = tensor(out, f)
    return out


def unit() -> BinaryFunction:
    """The dimension-0 binary function (1)."""
    return make(0, [1.0])


# GF(2) span handling for indicator functions, on subset masks.

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


def rowspace_indicator(m: int, masks: Iterable[int]) -> BinaryFunction:
    """Indicator of the GF(2) span of subset masks over m elements: the
    rowspace of the matrix whose rows they are."""
    basis = gf2_basis(masks)
    if basis and not (basis[0] < 2**m and basis[-1] > 0):
        raise IndexOutOfRange(f"a mask lies outside the subsets of {m} elements")
    values = np.zeros(2**m, dtype=complex)
    values[gf2_span(basis)] = 1.0
    return make(m, values)


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
        # Slices bound the Python floats alive at once.
        for lo in range(0, v.size, WRITE_ROWS):
            part = v[lo:lo + WRITE_ROWS]
            rows = zip(range(lo, lo + part.size), part.real.tolist(), part.imag.tolist())
            fh.write("%d %.17g %.17g\n" * part.size % tuple(itertools.chain.from_iterable(rows)))


# The value lines as numpy's C parser reads them.  Python's int and float
# accept every token that it does, with the same value, and more besides
# (``1_0``, non-ASCII digits), so the loop reads each file that numpy takes
# to the same bits.
_ROW = np.dtype([("index", np.int64), ("re", np.float64), ("im", np.float64)])


def read_vector(path) -> RawVector:
    """Read a .bf file, opened once: its header, then its value lines parsed
    by numpy's C parser, or again by Python's when numpy refuses them or
    finds the wrong count or order, so that the first bad line is named."""
    with open(path, "r", encoding="utf-8") as fh:
        m = _header(path, _next_line(fh))
        start = fh.tell()
        rows = None
        # np.loadtxt warns on a body without rows; the loop counts that one.
        if m < 64 and _next_line(fh):
            fh.seek(start)
            try:
                rows = np.loadtxt(fh, dtype=_ROW, comments=None, ndmin=1)
            except ValueError:
                pass
        if rows is not None and rows.size == 2**m and np.array_equal(rows["index"], np.arange(2**m)):
            values = np.empty(2**m, dtype=complex)
            values.real = rows["re"]
            values.imag = rows["im"]
        else:
            fh.seek(start)
            values = _parse_lines(path, m, fh)
    # Freed first, or the scan's temporaries would add to the peak memory.
    del rows
    finite = np.isfinite(values)
    if not finite.all():
        raise FileFormatError(f"{path}: non-finite value at index {finite.argmin()}")
    return RawVector(m, values)


def _next_line(fh) -> str:
    """The next line of fh that is neither blank nor a comment, stripped; ""
    at the end."""
    for line in map(str.strip, iter(fh.readline, "")):
        if line and not line.startswith("#"):
            return line
    return ""


def _header(path, line: str) -> int:
    """The dimension m that a header line 'bf <m>' gives."""
    if not line:
        raise FileFormatError(f"{path}: empty file")
    head = line.split()
    if len(head) != 2 or head[0] != "bf":
        raise FileFormatError(f"{path}: first line must be 'bf <m>'")
    try:
        m = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad dimension {head[1]!r}") from exc
    if m < 0:
        raise FileFormatError(f"{path}: negative dimension")
    return m


def _parse_lines(path, m: int, fh) -> np.ndarray:
    """The values of the lines left in fh, parsed one at a time by Python's
    int and float; raises on the line count, else on the first bad line."""
    lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    # No file holds 2**64 lines, and 2**m itself is costly for a huge m.
    if m >= 64 or len(lines) != 2**m:
        raise FileFormatError(f"{path}: expected 2**{m} value lines, found {len(lines)}")
    real, imag = [], []
    for pos, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 3:
            raise FileFormatError(f"{path}: bad value line {ln!r}")
        try:
            idx, re, im = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad value line {ln!r}") from exc
        if idx != pos:
            raise FileFormatError(f"{path}: index {idx} out of order (expected {pos})")
        real.append(re)
        imag.append(im)
    values = np.empty(2**m, dtype=complex)
    values.real = real
    values.imag = imag
    return values
