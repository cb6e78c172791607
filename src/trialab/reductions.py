"""The three reductions on alternating dimap edges.

Each reduction removes one edge and keeps the rest an alternating dimap:

* 1-reduction contracts.  A non-loop merges its endpoints, splicing the two
  rotations at the removed dart positions.  A loop splits its vertex into
  the two arcs on either side of the loop (empty arcs vanish); an
  ultraloop's component disappears entirely.
* omega-reduction moves the tail of the left successor of e into e's
  tail-dart slot and deletes e.  When the left successor is e itself, e is
  simply deleted.
* omega^2-reduction mirrors this using the right successor.

On the successor permutations (ls, rs) of the altmap view each reduction
cuts e out of both, after one transposition for the omega kinds:

* 1-reduction: ls and rs;
* omega-reduction: ls, and rs after trading the values e and ls(e);
* omega^2-reduction: rs, and ls after trading the values e and rs(e).

Labels of surviving edges never change, so results of different reduction
orders stay comparable with labeled equality.  The output is the edited
pair, which is a valid map as soon as both lists are permutations; that is
checked, and a failure raises, since it would mean a case-rule bug, not bad
input.  Its darts are rendered only when read (see altmap).
"""

from __future__ import annotations

import enum
import itertools

from .altmap import (
    AlternatingDimap,
    _from_pair,
    _require_edge,
    _view,
    labeled_equal,
    trial_power,
)
from .transform import OMEGA, OMEGA2


class ReductionKind(enum.Enum):
    """Symbolic mu in {1, omega, omega^2}: exact arithmetic modulo 3."""

    ONE = 0
    OMEGA = 1
    OMEGA2 = 2

    def __mul__(self, other: "ReductionKind") -> "ReductionKind":
        return ReductionKind((self.value + other.value) % 3)

    @property
    def complex_value(self) -> complex:
        return (1.0 + 0j, OMEGA, OMEGA2)[self.value]

    @property
    def token(self) -> str:
        return ("1", "w", "w2")[self.value]

    @classmethod
    def from_token(cls, token: str) -> "ReductionKind":
        try:
            return {"1": cls.ONE, "w": cls.OMEGA, "w2": cls.OMEGA2}[token]
        except KeyError:
            raise ValueError(f"unknown reduction token {token!r}") from None


ALL_KINDS = (ReductionKind.ONE, ReductionKind.OMEGA, ReductionKind.OMEGA2)
# reduce_edge compares kinds with these globals: cheaper than an enum attribute read.
_OMEGA, _OMEGA2 = ReductionKind.OMEGA, ReductionKind.OMEGA2


def _swap(perm: list[int], a: int, b: int) -> list[int]:
    """(a b) after perm: the values a and b trade places."""
    out = perm[:]
    i, j = out.index(a), out.index(b)
    out[i], out[j] = b, a
    return out


def _skip(perm: list[int], p: int) -> list[int]:
    """perm with p cut out of its cycle, on positions renumbered past p."""
    out = [y - 1 if y > p else y for y in perm]
    out[perm.index(p)] = out[p]  # p's predecessor now points past p
    del out[p]
    return out


def reduce_edge(g: AlternatingDimap, label: str, kind: ReductionKind) -> AlternatingDimap:
    """Apply one reduction as an edit of the successor permutations."""
    view = _view(g)
    p = _require_edge(view, label)
    ls, rs = view.ls, view.rs
    if kind is _OMEGA:
        rs = _swap(rs, p, ls[p])
    elif kind is _OMEGA2:
        ls = _swap(ls, p, rs[p])
    labels = view.labels
    return _from_pair(labels[:p] + labels[p + 1:], _skip(ls, p), _skip(rs, p))


def trial_minor_check(g: AlternatingDimap, label: str,
                      mu: ReductionKind, nu: ReductionKind) -> bool:
    """Triality-minor identity: reducing the mu-fold trial at nu equals the
    mu-fold trial of the (mu*nu)-reduction, up to labeled equality."""
    lhs = reduce_edge(trial_power(g, mu.value), label, nu)
    rhs = trial_power(reduce_edge(g, label, mu * nu), mu.value)
    return labeled_equal(lhs, rhs)


def is_degenerate_edge(g: AlternatingDimap, label: str) -> bool:
    """True iff the three reductions give pairwise labeled-equal results."""
    a = reduce_edge(g, label, ReductionKind.ONE)
    b = reduce_edge(g, label, ReductionKind.OMEGA)
    c = reduce_edge(g, label, ReductionKind.OMEGA2)
    return labeled_equal(a, b) and labeled_equal(a, c)


def find_noncommuting_pair(g: AlternatingDimap):
    """Smallest witness (label1, kind1, label2, kind2) whose two application
    orders differ, or None.  Scans labels sorted, kinds in (1, w, w2) order.
    Each of the 3k single reductions is computed once and shared by every
    pair that starts with it."""
    labels = sorted(g.labels())
    single = {(lab, kind): reduce_edge(g, lab, kind) for lab in labels for kind in ALL_KINDS}
    for l1, l2 in itertools.combinations(labels, 2):
        for k1, k2 in itertools.product(ALL_KINDS, repeat=2):
            first = reduce_edge(single[l1, k1], l2, k2)
            second = reduce_edge(single[l2, k2], l1, k1)
            if not labeled_equal(first, second):
                return (l1, k1, l2, k2)
    return None
