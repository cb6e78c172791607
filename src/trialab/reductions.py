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

Labels of surviving edges never change, so results of different reduction
orders stay comparable with labeled equality.  Every output is re-validated
and a failure raises, since it would mean a case-rule bug, not bad input.
"""

from __future__ import annotations

import enum
import itertools

from .altmap import (
    AlternatingDimap,
    UnknownEdge,
    _index,
    _shape,
    labeled_equal,
    trial_power,
    validate,
)
from .errors import InternalInvariantViolation
from .transform import OMEGA, OMEGA2


class ReductionKind(enum.Enum):
    """Symbolic mu in {1, omega, omega^2}: exact arithmetic modulo 3."""

    ONE = 0
    OMEGA = 1
    OMEGA2 = 2

    def __mul__(self, other: "ReductionKind") -> "ReductionKind":
        return ReductionKind((self.value + other.value) % 3)

    @property
    def inverse(self) -> "ReductionKind":
        return ReductionKind((-self.value) % 3)

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


def _rotate_after(rot: list[int], dart: int) -> list[int]:
    """Rotation list starting just after dart, with dart dropped."""
    k = rot.index(dart)
    return rot[k + 1:] + rot[:k]


def _contract(g: AlternatingDimap, p: int) -> AlternatingDimap:
    idx = _index(g)
    e = g.edges[p]
    vt, vh = idx.dart_vertex[e.tail], idx.dart_vertex[e.head]
    rots = [list(r) for r in g.rotations]
    if vt != vh:
        merged = _rotate_after(rots[vt], e.tail) + _rotate_after(rots[vh], e.head)
        new_rots = [tuple(r) for v, r in enumerate(rots) if v not in (vt, vh)]
        new_rots.append(tuple(merged))
    else:
        rot = rots[vt]
        kt, kh = rot.index(e.tail), rot.index(e.head)
        if kt < kh:
            side_a, side_b = rot[kt + 1:kh], rot[kh + 1:] + rot[:kt]
        else:
            side_a, side_b = rot[kt + 1:] + rot[:kh], rot[kh + 1:kt]
        new_rots = [tuple(r) for v, r in enumerate(rots) if v != vt]
        new_rots += [tuple(s) for s in (side_a, side_b) if s]
    edges = tuple(f for q, f in enumerate(g.edges) if q != p)
    return AlternatingDimap(edges, tuple(new_rots))


def _successor_rewire(g: AlternatingDimap, p: int, use_left: bool) -> AlternatingDimap:
    idx = _index(g)
    e = g.edges[p]
    # Tail dart of the left (right) successor: the dart clockwise after
    # (before) e's head.
    shape = _shape(g)
    t_s = g.edges[(shape.ls if use_left else shape.rs)[p]].tail
    rots = [list(r) for r in g.rotations]
    if t_s == e.tail:
        # The successor is e itself: plain deletion of the loop.
        w = idx.dart_vertex[e.head]
        rots[w] = [d for d in rots[w] if d not in (e.tail, e.head)]
    else:
        w = idx.dart_vertex[e.head]
        rots[w] = [d for d in rots[w] if d not in (e.head, t_s)]
        u = idx.dart_vertex[e.tail]
        rots[u] = [t_s if d == e.tail else d for d in rots[u]]
    edges = tuple(f for q, f in enumerate(g.edges) if q != p)
    return AlternatingDimap(edges, tuple(tuple(r) for r in rots if r))


def reduce_edge(g: AlternatingDimap, label: str, kind: ReductionKind) -> AlternatingDimap:
    """Apply one reduction; the result is validated before being returned."""
    idx = _index(g)
    if label not in idx.edge_pos:
        raise UnknownEdge(f"no edge labeled {label!r}")
    p = idx.edge_pos[label]
    if kind is ReductionKind.ONE:
        out = _contract(g, p)
    elif kind is ReductionKind.OMEGA:
        out = _successor_rewire(g, p, use_left=True)
    else:
        out = _successor_rewire(g, p, use_left=False)
    problems = validate(out)
    if problems:
        raise InternalInvariantViolation(
            f"reduction {kind.token} of {label!r} broke the map: " + "; ".join(problems))
    return out


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


def _apply_sequence(g: AlternatingDimap, seq) -> AlternatingDimap:
    for label, kind in seq:
        g = reduce_edge(g, label, kind)
    return g


def totally_reduction_commutative(g: AlternatingDimap, max_edges: int = 6) -> bool:
    """Full permutation check: every set of reductions on distinct edges gives
    the same result in every order.  Intended for small maps."""
    labels = g.labels()
    if len(labels) > max_edges:
        raise ValueError(f"map has {len(labels)} edges; cap is {max_edges}")
    for r in range(2, len(labels) + 1):
        for subset in itertools.combinations(labels, r):
            for kinds in itertools.product(ALL_KINDS, repeat=r):
                seq = list(zip(subset, kinds))
                reference = _apply_sequence(g, seq)
                for perm in itertools.permutations(seq):
                    if not labeled_equal(_apply_sequence(g, list(perm)), reference):
                        return False
    return True


def find_noncommuting_pair(g: AlternatingDimap):
    """Smallest witness (label1, kind1, label2, kind2) whose two application
    orders differ, or None.  Scans labels sorted, kinds in (1, w, w2) order."""
    labels = sorted(g.labels())
    for l1, l2 in itertools.combinations(labels, 2):
        for k1, k2 in itertools.product(ALL_KINDS, repeat=2):
            first = reduce_edge(reduce_edge(g, l1, k1), l2, k2)
            second = reduce_edge(reduce_edge(g, l2, k2), l1, k1)
            if not labeled_equal(first, second):
                return (l1, k1, l2, k2)
    return None
