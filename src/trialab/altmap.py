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
of <ls, rs>.  Building the view from darts checks them.  Trial and the
reductions edit the permutations, and their output map holds only the
view of the edited pair: its edges and rotations are rendered the first
time they are read (darts (2p, 2p+1), vertices in the order of their
smallest head dart, each starting there), so a map that is only computed
on never builds darts, and one that is written or compared gets the same
darts every time.  The view also caches the map's component runs (runs):
each component's least canonical encoding and the relabelings that reach
it.  canonical_form and isomorphisms both read them, so a map that is
canonicalised and then aligned, as the representation checker does with
its members and their reductions, walks its components once.

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
    vertex <dart> <dart> ...

A vertex line lists its darts in clockwise order.  The header is exactly
``adm <ndarts>``.  Darts are non-negative integers.  Comments are whole
lines: a line whose first non-blank character is ``#`` is a comment, and
a line with a ``#`` note after its fields is malformed.  Loading
validates and rejects invalid files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import (
    FileFormatError,
    InternalInvariantViolation,
    InvalidMap,
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
        return _view(self).labels

    def n_edges(self) -> int:
        return len(_view(self).ls)

    def __getattr__(self, name):
        # Reached only for attributes the instance lacks: a map made from its
        # successor pair renders its darts the first time they are read.
        view = self.__dict__.get("_view")
        if name not in ("edges", "rotations") or view is None:
            raise AttributeError(name)
        edges, rotations = _render(view)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "rotations", rotations)
        return edges if name == "edges" else rotations

    def __repr__(self):  # pragma: no cover - debugging aid
        es = ", ".join(f"{e.label}:{e.tail}->{e.head}" for e in self.edges)
        vs = " ".join("(" + " ".join(map(str, r)) + ")" for r in self.rotations)
        return f"AlternatingDimap[{es} | {vs}]"


def ultraloop_stack(k: int) -> AlternatingDimap:
    """k disjoint ultraloops, each a loop forming its own component: edge
    e<i> has darts (2i, 2i+1) and its own vertex (2i, 2i+1)."""
    return AlternatingDimap(tuple(Edge(f"e{i}", 2 * i, 2 * i + 1) for i in range(k)),
                            tuple((2 * i, 2 * i + 1) for i in range(k)))


class _View:
    """The integer form of a map, with edge p's tail and head as darts 2p, 2p+1.

    labels lists the edge labels by position; ls and rs are the left and
    right successors (the next edge on its anticlockwise and clockwise
    face).  The rest is computed on first use and cached: pos maps labels
    to positions, nxt is the clockwise-next dart, firsts holds each
    vertex's first dart, the topology is comp (each edge's component)
    and chi (each component's V - E + F), and runs holds each component's
    least encoding with the relabelings that reach it, which canonical_form
    and isomorphisms both read.  A view built from darts is handed its nxt
    and firsts.
    """

    def __init__(self, labels, ls, rs):
        self.labels, self.ls, self.rs = labels, ls, rs

    @cached_property
    def pos(self) -> dict[str, int]:
        return {lab: p for p, lab in enumerate(self.labels)}

    @cached_property
    def nxt(self) -> list[int]:
        nxt = [0] * (2 * len(self.ls))
        nxt[1::2] = [2 * q for q in self.ls]
        for p, q in enumerate(self.rs):
            nxt[2 * q] = 2 * p + 1
        return nxt

    @cached_property
    def firsts(self) -> list[int]:
        """Vertices in the order of their smallest head dart, each starting there."""
        nxt = self.nxt
        seen = [False] * len(nxt)
        firsts = []
        for start in range(1, len(nxt), 2):
            if seen[start]:
                continue
            firsts.append(start)
            d = start
            while not seen[d]:  # the heads: darts alternate, starting with one
                seen[d] = True
                d = nxt[nxt[d]]
        return firsts

    @cached_property
    def comp(self) -> list[int]:
        """Components are the orbits of <ls, rs>; all edges at a vertex share
        one, so they are numbered in the order of their first vertex."""
        ls, rs = self.ls, self.rs
        comp = [-1] * len(ls)
        n = 0
        for d in self.firsts:
            first = d >> 1
            if comp[first] < 0:
                comp[first] = n
                stack = [first]
                while stack:
                    p = stack.pop()
                    for q in (ls[p], rs[p]):
                        if comp[q] < 0:
                            comp[q] = n
                            stack.append(q)
                n += 1
        return comp

    @cached_property
    def chi(self) -> list[int]:
        comp = self.comp
        chi = [0] * (max(comp, default=-1) + 1)
        for d in self.firsts:
            chi[comp[d >> 1]] += 1
        for c in comp:
            chi[c] -= 1
        for cyc in _cycles(self.ls) + _cycles(self.rs):
            chi[comp[cyc[0]]] += 1
        return chi

    @cached_property
    def runs(self) -> tuple[tuple[tuple, tuple[tuple[int, ...], ...]], ...]:
        """Per component, its least encoding over all starting darts and every
        relabeling achieving it, each as its darts in rank order.

        Each component is walked from its least unvisited dart, and that
        first run lists the component's darts and bounds the others.  The
        first entry of a run is (1, 1 or 2, is-head), its middle 1 when the
        start's partner is next-clockwise: only starts with the least first
        entry can reach the minimum, so only those run, each until it
        exceeds the least encoding so far.
        """
        nxt = self.nxt
        seen = [False] * len(nxt)
        out = []
        for first in range(len(nxt)):
            if seen[first]:
                continue
            best, order = _canonical_run(nxt, first)
            orders = [tuple(order)]
            keys = [(nxt[d] != d ^ 1, d & 1) for d in order]
            least = min(keys)
            for start, key in zip(order, keys):
                seen[start] = True
                if key != least or start == first:
                    continue
                enc, run = _canonical_run(nxt, start, best)
                if enc is None:
                    continue
                if enc < best:
                    best, orders = enc, [tuple(run)]
                else:
                    orders.append(tuple(run))
            out.append((tuple(best), tuple(orders)))
        return tuple(out)


def _view(g: AlternatingDimap) -> _View:
    """The map's integer view, built on first use and kept on the map.

    Building it from darts first checks them, so an invalid map raises
    InvalidMap here.  Maps made from a successor pair carry theirs.
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
    view = _View(tuple(e.label for e in g.edges), ls, rs)
    view.nxt = nxt
    view.firsts = [norm[rot[0]] for rot in g.rotations]
    object.__setattr__(g, "_view", view)
    return view


def _from_pair(labels: tuple[str, ...], ls: list[int], rs: list[int]) -> AlternatingDimap:
    """The map with successor permutations (ls, rs) on edges labeled in order.

    Any pair of permutations is a valid map, so the output check is that
    both are permutations.  The map holds only its view; its darts are
    rendered by _render when first read.
    """
    positions = list(range(len(labels)))
    if sorted(ls) != positions or sorted(rs) != positions:
        raise InternalInvariantViolation(
            f"successor lists {ls} and {rs} are not permutations of range({len(labels)})")
    g = object.__new__(AlternatingDimap)
    object.__setattr__(g, "_view", _View(labels, ls, rs))
    return g


def _render(v: _View) -> tuple[tuple[Edge, ...], tuple[tuple[int, ...], ...]]:
    """Darts of a map made from its pair: edge p gets darts (2p, 2p+1), and
    vertices are listed in the order of their smallest head dart, each
    starting there."""
    n = len(v.labels)
    edges = tuple(itertools.starmap(Edge, zip(v.labels, range(0, 2 * n, 2), range(1, 2 * n, 2))))
    nxt = v.nxt
    return edges, tuple(tuple(_vertex_darts(nxt, d)) for d in v.firsts)


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


def _vertex_darts(nxt: list[int], first: int) -> list[int]:
    """A vertex's darts in clockwise order from its first dart."""
    darts = [first]
    d = nxt[first]
    while d != first:
        darts.append(d)
        d = nxt[d]
    return darts


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
    # Every alternating rotation system is a pair of permutations, whose
    # components have V - E + F = 2 - 2g, so the dart checks are the whole
    # test.
    try:
        _view(g)
    except InvalidMap:
        return _dart_problems(g)
    return []


def is_valid(g: AlternatingDimap) -> bool:
    return not validate(g)


def _require_edge(g: AlternatingDimap, label: str) -> int:
    pos = _view(g).pos
    if label not in pos:
        raise UnknownEdge(f"no edge labeled {label!r}")
    return pos[label]


def components(g: AlternatingDimap) -> list[dict]:
    """Connected components, each as {'vertices': set, 'edges': set of positions}."""
    view = _view(g)
    comp = view.comp
    out = [{"vertices": set(), "edges": set()} for _ in range(max(comp, default=-1) + 1)]
    for v, d in enumerate(view.firsts):
        out[comp[d >> 1]]["vertices"].add(v)
    for p, c in enumerate(comp):
        out[c]["edges"].add(p)
    return out


def genus(g: AlternatingDimap, component: dict) -> int:
    """Genus from V - E + F = 2 - 2g for one component; a component of a
    permutation pair has V - E + F even and at most 2."""
    view = _view(g)
    return (2 - view.chi[view.comp[min(component["edges"])]]) // 2


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
    comp = view.comp
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
    to_h = [hv.pos[lab] for lab in gv.labels]
    return all(hv.ls[to_h[p]] == to_h[q] for p, q in enumerate(gv.ls)) \
        and all(hv.rs[to_h[p]] == to_h[q] for p, q in enumerate(gv.rs))


def _canonical_run(nxt: list[int], start: int,
                   bound: list | None = None) -> tuple[list | None, list[int]]:
    """Breadth-first relabeling of start's component over next-clockwise and
    partner; returns the encoding and the darts in rank order.

    The encoding lists (rank of next-clockwise, rank of partner, is-head)
    per dart in rank order.  A dart's two neighbours are ranked by the time
    its entry is written, so one pass does both.  Given a bound, an
    encoding of the same component, the run stops and returns None as its
    encoding as soon as it exceeds the bound.
    """
    rank = [-1] * len(nxt)
    rank[start] = 0
    queue = [start]
    enc = []
    tied = bound is not None
    for i, d in enumerate(queue):
        a = nxt[d]
        ra = rank[a]
        if ra < 0:
            ra = rank[a] = len(queue)
            queue.append(a)
        b = d ^ 1
        rb = rank[b]
        if rb < 0:
            rb = rank[b] = len(queue)
            queue.append(b)
        entry = (ra, rb, d & 1)
        if tied and entry != bound[i]:
            if entry > bound[i]:
                return None, queue
            tied = False
        enc.append(entry)
    return enc, queue


def canonical_form(g: AlternatingDimap) -> tuple:
    """Label-independent canonical encoding; equal iff maps are isomorphic."""
    return tuple(sorted(enc for enc, _ in _view(g).runs))


def isomorphic(g: AlternatingDimap, h: AlternatingDimap) -> bool:
    return canonical_form(g) == canonical_form(h)


def isomorphisms(g: AlternatingDimap, h: AlternatingDimap) -> Iterator[dict[str, str]]:
    """All orientation-preserving isomorphisms as edge-label maps g -> h."""
    gv, hv = _view(g), _view(h)
    g_runs, h_runs = gv.runs, hv.runs
    if len(g_runs) != len(h_runs):
        return

    # Try every assignment of g's components onto distinct h components
    # with equal encoding.
    def assignments(k: int, used: set[int]):
        if k == len(g_runs):
            yield []
            return
        for j in range(len(h_runs)):
            if j in used or h_runs[j][0] != g_runs[k][0]:
                continue
            for rest in assignments(k + 1, used | {j}):
                yield [j] + rest

    for assign in assignments(0, set()):
        # Fix one minimal relabeling on the g side; vary over all on h side.
        choices = [h_runs[j][1] for j in assign]
        for h_orders in itertools.product(*choices):
            dart_map = {}
            for k, h_order in enumerate(h_orders):
                dart_map.update(zip(g_runs[k][1][0], h_order))
            # Equal encodings agree on is-head at every rank, and ranks are
            # distinct, so tails go to distinct tails.
            yield {lab: hv.labels[dart_map[2 * p] >> 1] for p, lab in enumerate(gv.labels)}


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
