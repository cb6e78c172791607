"""Alternating dimaps as dart-based rotation systems.

A map is a set of labeled directed edges, each owning a tail dart and a
head dart, together with one cyclic dart sequence per vertex giving the
incident darts in clockwise order.  Validity requires that around every
vertex the darts alternate tail/head (so indegree equals outdegree), that
every dart appears exactly once, and that no vertex is isolated.  Each
component is thereby cellularly embedded in an orientable surface whose
genus comes out of the Euler relation V - E + F = 2 - 2g.

Faces come in two classes.  Walking "face on the left" from an edge always
continues through the dart clockwise-next after the head dart, which by
alternation is again a tail dart, so the orbit traverses every edge
forward: an anticlockwise face.  The mirrored walk gives the clockwise
faces.  The left (right) successor of an edge is the next edge around its
anticlockwise (clockwise) face.

Each map carries one integer view, built on first use and stored on the
map object: edge p's tail and head become darts 2p and 2p+1, and the map
becomes its successor permutations ls and rs on edge positions.  Any pair
of permutations is a valid map (Tutte, "Duality and trinity", 1975; Farr,
"Minors for alternating dimaps", 2013).  Anticlockwise faces are the
cycles of ls, clockwise faces the cycles of rs, and components the orbits
of <ls, rs>.  Building the view from darts checks them; trial and the
reductions edit the permutations and build their output's darts and view
from the edited pair, so their output is never re-parsed.

The trial has one vertex per clockwise face.  The image of edge e runs
from the clockwise face of its left successor to the clockwise face of e,
and keeps e's label.  The rotation at a trial vertex interleaves, along
the face traversal y_0, y_1, ..., the head dart of the image of y_j with
the tail dart of the image of the edge whose left successor is y_{j+1};
this ordering is pinned down by the order-three and triality-minor test
suites rather than assumed.

On-disk format (UTF-8 text)::

    adm <ndarts>
    edge <label> <tail_dart> <head_dart>
    vertex <dart> <dart> ...        # clockwise rotation

The header is exactly ``adm <ndarts>``.  Darts are non-negative integers;
``#`` starts a comment.  Loading validates and rejects invalid files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import (
    FileFormatError,
    InternalInvariantViolation,
    InvalidMap,
    NonIntegerGenus,
    UnknownEdge,
)


class Edge(NamedTuple):
    label: str
    tail: int
    head: int


@dataclass(frozen=True)
class AlternatingDimap:
    edges: tuple[Edge, ...]
    rotations: tuple[tuple[int, ...], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self):  # pragma: no cover - debugging aid
        es = ", ".join(f"{e.label}:{e.tail}->{e.head}" for e in self.edges)
        vs = " ".join("(" + " ".join(map(str, r)) + ")" for r in self.rotations)
        return f"AlternatingDimap[{es} | {vs}]"


EMPTY = AlternatingDimap((), ())


def ultraloop(label: str = "e0") -> AlternatingDimap:
    """The one-edge map: a loop forming its own component."""
    return AlternatingDimap((Edge(label, 0, 1),), ((0, 1),))


class _View:
    """The integer form of a map, with edge p's tail and head as darts 2p, 2p+1.

    pos maps edge labels to positions; ls and rs are the left and right
    successors (the next edge on its anticlockwise and clockwise face); nxt
    is the clockwise-next dart; firsts holds each vertex's first dart.  The
    topology, comp (each edge's component, numbered by first vertex) and chi
    (each component's V - E + F), is filled in on first use.
    """

    __slots__ = ("pos", "ls", "rs", "nxt", "firsts", "comp", "chi")

    def __init__(self, pos, ls, rs, nxt, firsts):
        self.pos, self.ls, self.rs, self.nxt, self.firsts = pos, ls, rs, nxt, firsts
        self.comp = self.chi = None


def _view(g: AlternatingDimap) -> _View:
    """The map's integer view, built on first use and kept on the map.

    Building it from darts first checks them, so an invalid map raises
    InvalidMap here.  Maps made by trial and the reductions carry theirs.
    """
    try:
        return g._view
    except AttributeError:
        pass
    problems = _dart_problems(g)
    if problems:
        raise InvalidMap("; ".join(problems))
    norm = {}
    for p, e in enumerate(g.edges):
        norm[e.tail] = 2 * p
        norm[e.head] = 2 * p + 1
    nxt = [0] * len(norm)
    for rot in g.rotations:
        for a, b in zip(rot, rot[1:] + rot[:1]):
            nxt[norm[a]] = norm[b]
    # By alternation the dart clockwise after e's head is the tail of ls(e),
    # and the dart clockwise after e's tail is the head of rs^-1(e).
    ls = [d >> 1 for d in nxt[1::2]]
    rs = [0] * len(ls)
    for p, d in enumerate(nxt[0::2]):
        rs[d >> 1] = p
    view = _View({e.label: p for p, e in enumerate(g.edges)}, ls, rs, nxt,
                 [norm[rot[0]] for rot in g.rotations])
    object.__setattr__(g, "_view", view)
    return view


def _from_pair(labels, ls: list[int], rs: list[int]) -> AlternatingDimap:
    """The map with successor permutations (ls, rs) on edges labeled in order.

    Any pair of permutations is a valid map, so the output check is that
    both are permutations.  Edge p gets darts (2p, 2p+1), and vertices are
    listed in the order of their smallest head dart, each starting there.
    """
    n = len(labels)
    positions = list(range(n))
    if sorted(ls) != positions or sorted(rs) != positions:
        raise InternalInvariantViolation(
            f"successor lists {ls} and {rs} are not permutations of range({n})")
    nxt = [0] * (2 * n)
    nxt[1::2] = [2 * q for q in ls]
    for p, q in enumerate(rs):
        nxt[2 * q] = 2 * p + 1
    seen = [False] * (2 * n)
    rotations = []
    firsts = []
    for start in range(1, 2 * n, 2):
        if seen[start]:
            continue
        rot = _vertex_darts(nxt, start)
        for d in rot[::2]:  # the heads: darts alternate, starting with one
            seen[d] = True
        rotations.append(tuple(rot))
        firsts.append(start)
    g = AlternatingDimap(
        tuple(itertools.starmap(Edge, zip(labels, range(0, 2 * n, 2), range(1, 2 * n, 2)))),
        tuple(rotations))
    object.__setattr__(g, "_view", _View(dict(zip(labels, positions)), ls, rs, nxt, firsts))
    return g


def _cycles(perm) -> list[list[int]]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = []
        p = start
        while not seen[p]:
            seen[p] = True
            cyc.append(p)
            p = perm[p]
        cycles.append(cyc)
    return cycles


def _topology(v: _View) -> tuple[list[int], list[int]]:
    """Each edge's component and each component's V - E + F, computed once."""
    if v.comp is None:
        ls, rs = v.ls, v.rs
        # Components are the orbits of <ls, rs>.  All edges at a vertex share
        # one, so components are numbered in the order of their first vertex.
        # chi gains one per vertex here, loses one per edge and gains one per
        # face below.
        comp = [-1] * len(ls)
        chi = []
        for d in v.firsts:
            first = d >> 1
            if comp[first] < 0:
                comp[first] = len(chi)
                stack = [first]
                while stack:
                    p = stack.pop()
                    for q in (ls[p], rs[p]):
                        if comp[q] < 0:
                            comp[q] = len(chi)
                            stack.append(q)
                chi.append(0)
            chi[comp[first]] += 1
        for c in comp:
            chi[c] -= 1
        for cyc in _cycles(ls) + _cycles(rs):
            chi[comp[cyc[0]]] += 1
        v.comp, v.chi = comp, chi
    return v.comp, v.chi


def _vertex_darts(nxt: list[int], first: int) -> list[int]:
    """A vertex's darts in clockwise order from its first dart."""
    darts = [first]
    d = nxt[first]
    while d != first:
        darts.append(d)
        d = nxt[d]
    return darts


def _genus_of(chi: int) -> int:
    if chi % 2 != 0 or chi > 2:
        raise NonIntegerGenus(f"Euler characteristic {chi} is not 2 - 2g with g >= 0")
    return (2 - chi) // 2


def _dart_problems(g: AlternatingDimap) -> list[str]:
    """Structural violations of a map given by darts; empty means alternating."""
    report = []
    darts_in_edges = []
    seen_labels = set()
    for e in g.edges:
        if e.label in seen_labels:
            report.append(f"duplicate edge label {e.label!r}")
        seen_labels.add(e.label)
        if e.tail == e.head:
            report.append(f"edge {e.label!r} reuses dart {e.tail} for both ends")
        darts_in_edges += [e.tail, e.head]
    if len(set(darts_in_edges)) != len(darts_in_edges):
        report.append("a dart appears in more than one edge end")
    edge_darts = set(darts_in_edges)

    rotation_darts = [d for rot in g.rotations for d in rot]
    if len(set(rotation_darts)) != len(rotation_darts):
        report.append("a dart appears in more than one rotation position")
    if set(rotation_darts) != edge_darts:
        report.append("rotation darts and edge darts differ")
        return report

    is_head = {}
    for e in g.edges:
        is_head[e.tail] = False
        is_head[e.head] = True
    for v, rot in enumerate(g.rotations):
        if not rot:
            report.append(f"vertex {v} is isolated")
            continue
        if len(rot) % 2 != 0:
            report.append(f"vertex {v} has odd degree {len(rot)}")
            continue
        for k, d in enumerate(rot):
            nxt = rot[(k + 1) % len(rot)]
            if is_head[d] == is_head[nxt]:
                report.append(
                    f"vertex {v}: darts {d} and {nxt} do not alternate in/out")
                break
    return report


def validate(g: AlternatingDimap) -> list[str]:
    """Return a list of violations; empty means valid."""
    try:
        view = _view(g)
    except InvalidMap:
        return _dart_problems(g)
    # Face orientation coherence follows from alternation; the Euler data
    # is checked anyway as a guard against construction bugs.
    try:
        for chi in _topology(view)[1]:
            _genus_of(chi)
    except NonIntegerGenus as exc:
        return [str(exc)]
    return []


def is_valid(g: AlternatingDimap) -> bool:
    return not validate(g)


def _require_edge(g: AlternatingDimap, label: str) -> int:
    pos = _view(g).pos
    if label not in pos:
        raise UnknownEdge(f"no edge labeled {label!r}")
    return pos[label]


def left_successor(g: AlternatingDimap, label: str) -> str:
    """Next edge after e around its anticlockwise face, in e's direction."""
    return g.edges[_view(g).ls[_require_edge(g, label)]].label


def right_successor(g: AlternatingDimap, label: str) -> str:
    """Next edge after e around its clockwise face, in e's direction."""
    return g.edges[_view(g).rs[_require_edge(g, label)]].label


@dataclass(frozen=True)
class Face:
    orientation: str  # "clockwise" or "anticlockwise"
    edge_labels: tuple[str, ...]
    darts: tuple[int, ...]  # head darts along the traversal

    def size(self) -> int:
        return len(self.edge_labels)


def faces(g: AlternatingDimap) -> list[Face]:
    """Anticlockwise faces are the cycles of ls, clockwise faces those of rs."""
    view = _view(g)
    out = []
    for perm, name in ((view.ls, "anticlockwise"), (view.rs, "clockwise")):
        for cyc in _cycles(perm):
            out.append(Face(
                name,
                tuple(g.edges[p].label for p in cyc),
                tuple(g.edges[p].head for p in cyc),
            ))
    return out


def components(g: AlternatingDimap) -> list[dict]:
    """Connected components, each as {'vertices': set, 'edges': set of positions}."""
    view = _view(g)
    comp, chi = _topology(view)
    out = [{"vertices": set(), "edges": set()} for _ in chi]
    for v, d in enumerate(view.firsts):
        out[comp[d >> 1]]["vertices"].add(v)
    for p, c in enumerate(comp):
        out[c]["edges"].add(p)
    return out


def genus(g: AlternatingDimap, component: dict) -> int:
    """Genus from V - E + F = 2 - 2g for one component."""
    comp, chi = _topology(_view(g))
    return _genus_of(chi[comp[min(component["edges"])]])


def total_genus(g: AlternatingDimap) -> int:
    return sum(_genus_of(chi) for chi in _topology(_view(g))[1])


def trial(g: AlternatingDimap) -> tuple[AlternatingDimap, dict[str, str]]:
    """Order-three transform; returns the new map and the edge-label map.

    On successor permutations trial is (ls, rs) -> (ls^-1 rs, ls^-1).
    Image edges keep their labels, so the returned map is the identity on
    labels; it is still returned so callers can transport edges explicitly.
    """
    view = _view(g)
    ls_inv = [0] * len(view.ls)
    for p, q in enumerate(view.ls):
        ls_inv[q] = p
    labels = g.labels()
    out = _from_pair(labels, [ls_inv[q] for q in view.rs], ls_inv)
    return out, {lab: lab for lab in labels}


def trial_power(g: AlternatingDimap, times: int) -> AlternatingDimap:
    for _ in range(times % 3):
        g = trial(g)[0]
    return g


# ---------------------------------------------------------------------------
# Classification

@dataclass(frozen=True)
class EdgeClassification:
    is_ultraloop: bool
    is_1loop: bool
    is_omega_loop: bool
    is_omega2_loop: bool
    is_triloop: bool
    is_proper_triloop: bool
    is_1_semiloop: bool
    is_omega_semiloop: bool
    is_omega2_semiloop: bool
    is_proper_semiloop: bool


def _same_cycle(perm: list[int], a: int, b: int) -> bool:
    p = perm[a]
    while p != a and p != b:
        p = perm[p]
    return p == b


def classify_edge(g: AlternatingDimap, label: str) -> EdgeClassification:
    view = _view(g)
    p = _require_edge(g, label)
    ls, rs = view.ls, view.rs
    loop = 2 * p in _vertex_darts(view.nxt, 2 * p + 1)
    comp = _topology(view)[0]
    ultra = loop and comp.count(comp[p]) == 1
    one_loop = view.nxt[view.nxt[2 * p + 1]] == 2 * p + 1
    omega_loop = ls[p] == p
    omega2_loop = rs[p] == p
    triloop = one_loop or omega_loop or omega2_loop
    # An omega-semiloop is an omega^2-loop or an edge whose omega^2-reduction
    # disconnects its component or lowers the genus.  By the triality-minor
    # identity that reduction is the 1-reduction of the second trial, which
    # preserves components and genus; a 1-reduction does either exactly when
    # it contracts a loop with darts on both of its sides.  On (ls, rs) that
    # loop is: rs(e) on e's anticlockwise face, and ls(e) != rs(e).  The
    # omega^2 kind mirrors this through the first trial.
    semi_1 = loop
    semi_w = omega2_loop or (ls[p] != rs[p] and _same_cycle(ls, p, rs[p]))
    semi_w2 = omega_loop or (ls[p] != rs[p] and _same_cycle(rs, p, ls[p]))
    return EdgeClassification(
        is_ultraloop=ultra,
        is_1loop=one_loop,
        is_omega_loop=omega_loop,
        is_omega2_loop=omega2_loop,
        is_triloop=triloop,
        is_proper_triloop=triloop and not ultra,
        is_1_semiloop=semi_1,
        is_omega_semiloop=semi_w,
        is_omega2_semiloop=semi_w2,
        is_proper_semiloop=(semi_1 or semi_w or semi_w2) and not triloop,
    )


# ---------------------------------------------------------------------------
# Equality, canonical form, isomorphism

def labeled_equal(g: AlternatingDimap, h: AlternatingDimap) -> bool:
    """Dart-renaming equality that must preserve edge labels: the label
    bijection carries g's successor permutations onto h's."""
    if sorted(g.labels()) != sorted(h.labels()):
        return False
    gv, hv = _view(g), _view(h)
    to_h = [hv.pos[e.label] for e in g.edges]
    return all(hv.ls[to_h[p]] == to_h[q] for p, q in enumerate(gv.ls)) \
        and all(hv.rs[to_h[p]] == to_h[q] for p, q in enumerate(gv.rs))


def _component_darts(v: _View) -> list[list[int]]:
    comp, chi = _topology(v)
    out = [[] for _ in chi]
    for d in v.firsts:
        out[comp[d >> 1]] += _vertex_darts(v.nxt, d)
    return out


def _canonical_run(nxt: list[int], start: int) -> tuple[list[int], list[int]]:
    """Breadth-first relabeling of start's component over next-clockwise and
    partner; returns the encoding, flattened, and the darts in rank order.

    The encoding lists (rank of next-clockwise, rank of partner, is-head)
    per dart in rank order.  A dart's two neighbours are ranked by the time
    its entry is written, so one pass does both.
    """
    rank = [-1] * len(nxt)
    rank[start] = 0
    queue = [start]
    enc = []
    for d in queue:
        a = nxt[d]
        if rank[a] < 0:
            rank[a] = len(queue)
            queue.append(a)
        b = d ^ 1
        if rank[b] < 0:
            rank[b] = len(queue)
            queue.append(b)
        enc += (rank[a], rank[b], d & 1)
    return enc, queue


def _component_canonical(v: _View, darts: list[int]) -> tuple[tuple, list[list[int]]]:
    """Minimal encoding over all starting darts plus every relabeling
    achieving it, each as its darts in rank order."""
    nxt = v.nxt
    # The first entry of a run is (1, 1 or 2, is-head): only starts with
    # the least (partner is next-clockwise, is-head) can reach the minimum.
    key = min((nxt[d] != d ^ 1, d & 1) for d in darts)
    best = None
    orders = []
    for start in darts:
        if (nxt[start] != start ^ 1, start & 1) != key:
            continue
        enc, order = _canonical_run(nxt, start)
        if best is None or enc < best:
            best, orders = enc, [order]
        elif enc == best:
            orders.append(order)
    return tuple(zip(best[0::3], best[1::3], best[2::3])), orders


def canonical_form(g: AlternatingDimap) -> tuple:
    """Label-independent canonical encoding; equal iff maps are isomorphic."""
    view = _view(g)
    return tuple(sorted(_component_canonical(view, darts)[0]
                        for darts in _component_darts(view)))


def isomorphic(g: AlternatingDimap, h: AlternatingDimap) -> bool:
    return canonical_form(g) == canonical_form(h)


def isomorphisms(g: AlternatingDimap, h: AlternatingDimap) -> Iterator[dict[str, str]]:
    """All orientation-preserving isomorphisms as edge-label maps g -> h."""
    gv, hv = _view(g), _view(h)
    g_comps = _component_darts(gv)
    h_comps = _component_darts(hv)
    if len(g_comps) != len(h_comps):
        return
    g_canon = [_component_canonical(gv, d) for d in g_comps]
    h_canon = [_component_canonical(hv, d) for d in h_comps]

    # Try every assignment of g's components onto distinct h components
    # with equal encoding.
    def assignments(k: int, used: set[int]):
        if k == len(g_comps):
            yield []
            return
        for j in range(len(h_comps)):
            if j in used or h_canon[j][0] != g_canon[k][0]:
                continue
            for rest in assignments(k + 1, used | {j}):
                yield [j] + rest

    for assign in assignments(0, set()):
        # Fix one minimal relabeling on the g side; vary over all on h side.
        choices = [h_canon[j][1] for j in assign]
        for h_orders in itertools.product(*choices):
            dart_map = {}
            for k, h_order in enumerate(h_orders):
                dart_map.update(zip(g_canon[k][1][0], h_order))
            label_map = {}
            ok = True
            for p, e in enumerate(g.edges):
                img = dart_map[2 * p]
                if img & 1:
                    ok = False
                    break
                label_map[e.label] = h.edges[img >> 1].label
            if ok and len(set(label_map.values())) == len(label_map):
                yield label_map


def find_isomorphism(g: AlternatingDimap, h: AlternatingDimap) -> dict[str, str] | None:
    return next(isomorphisms(g, h), None)


# ---------------------------------------------------------------------------
# Assembly

def relabel_darts(g: AlternatingDimap, offset: int) -> AlternatingDimap:
    return AlternatingDimap(
        tuple(Edge(e.label, e.tail + offset, e.head + offset) for e in g.edges),
        tuple(tuple(d + offset for d in rot) for rot in g.rotations),
    )


def disjoint_union(g: AlternatingDimap, h: AlternatingDimap) -> AlternatingDimap:
    """Components side by side; clashing labels in h get a ~n suffix."""
    offset = max((d for rot in g.rotations for d in rot), default=-1) + 1
    h2 = relabel_darts(h, offset)
    taken = set(g.labels())
    renamed = []
    for e in h2.edges:
        label = e.label
        n = 2
        while label in taken:
            label = f"{e.label}~{n}"
            n += 1
        taken.add(label)
        renamed.append(Edge(label, e.tail, e.head))
    return AlternatingDimap(g.edges + tuple(renamed), g.rotations + h2.rotations)


def k_copies(g: AlternatingDimap, k: int) -> AlternatingDimap:
    out = EMPTY
    for _ in range(k):
        out = disjoint_union(out, g)
    return out


# ---------------------------------------------------------------------------
# File I/O

def write_dimap(path, g: AlternatingDimap) -> None:
    ndarts = sum(len(rot) for rot in g.rotations)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"adm {ndarts}\n")
        for e in g.edges:
            fh.write(f"edge {e.label} {e.tail} {e.head}\n")
        for rot in g.rotations:
            fh.write("vertex " + " ".join(str(d) for d in rot) + "\n")


def read_dimap(path) -> AlternatingDimap:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "adm":
        raise FileFormatError(f"{path}: first line must be 'adm <ndarts>'")
    try:
        ndarts = int(head[1])
    except ValueError as exc:
        raise FileFormatError(f"{path}: bad header {lines[0]!r}") from exc
    edges = []
    rotations = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "edge":
            if len(parts) != 4:
                raise FileFormatError(f"{path}: bad edge line {ln!r}")
            try:
                edges.append(Edge(parts[1], int(parts[2]), int(parts[3])))
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad edge line {ln!r}") from exc
        elif parts[0] == "vertex":
            try:
                rot = tuple(int(x) for x in parts[1:])
            except ValueError as exc:
                raise FileFormatError(f"{path}: bad vertex line {ln!r}") from exc
            if any(d < 0 for d in rot):
                raise FileFormatError(f"{path}: negative dart in {ln!r}")
            rotations.append(rot)
        else:
            raise FileFormatError(f"{path}: unknown line {ln!r}")
    g = AlternatingDimap(tuple(edges), tuple(rotations))
    if sum(len(r) for r in g.rotations) != ndarts:
        raise FileFormatError(f"{path}: header says {ndarts} darts")
    problems = validate(g)
    if problems:
        raise InvalidMap(f"{path}: " + "; ".join(problems))
    return g
