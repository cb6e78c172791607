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

The topology is read off the successor permutations ls and rs on edge
positions: anticlockwise faces are the cycles of ls, clockwise faces the
cycles of rs, and components the orbits of <ls, rs>.  Both permutations,
each edge's component and each component's Euler characteristic are
computed once per map and kept, as int tuples, with its cached index.

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

Darts are non-negative integers; ``#`` starts a comment.  Loading
validates and rejects invalid files.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import FileFormatError, InvalidMap, NonIntegerGenus, UnknownEdge


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


class _Index:
    """Lookup tables for a structurally valid map."""

    __slots__ = ("edge_pos", "dart_edge", "dart_is_head", "dart_vertex",
                 "next_cw", "partner", "shape")

    def __init__(self, g: AlternatingDimap):
        self.edge_pos = {e.label: p for p, e in enumerate(g.edges)}
        self.dart_edge = {}
        self.dart_is_head = {}
        self.partner = {}
        for p, e in enumerate(g.edges):
            self.dart_edge[e.tail] = p
            self.dart_edge[e.head] = p
            self.dart_is_head[e.tail] = False
            self.dart_is_head[e.head] = True
            self.partner[e.tail] = e.head
            self.partner[e.head] = e.tail
        self.dart_vertex = {}
        self.next_cw = {}
        for v, rot in enumerate(g.rotations):
            for k, d in enumerate(rot):
                self.dart_vertex[d] = v
                self.next_cw[d] = rot[(k + 1) % len(rot)]
        self.shape = None


@lru_cache(maxsize=4096)
def _index(g: AlternatingDimap) -> _Index:
    return _Index(g)


class _Shape(NamedTuple):
    """Topology of an alternating map, as int tuples over edge positions."""

    ls: tuple[int, ...]      # left successor: the next edge on its anticlockwise face
    rs: tuple[int, ...]      # right successor: the next edge on its clockwise face
    comp: tuple[int, ...]    # component id of each edge, numbered by first vertex
    chi: tuple[int, ...]     # Euler characteristic V - E + F of each component


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


def _shape(g: AlternatingDimap) -> _Shape:
    """Successor permutations, components and Euler data, computed once per
    map and kept with its index.  Requires an alternating map."""
    idx = _index(g)
    if idx.shape is not None:
        return idx.shape
    de, nxt = idx.dart_edge, idx.next_cw
    # By alternation the dart clockwise after e's head is the tail of ls(e),
    # and the dart clockwise after e's tail is the head of rs^-1(e).
    ls = [de[nxt[e.head]] for e in g.edges]
    rs = [0] * len(ls)
    for p, e in enumerate(g.edges):
        rs[de[nxt[e.tail]]] = p
    # Components are the orbits of <ls, rs>.  All edges at a vertex share
    # one, so components are numbered in the order of their first vertex.
    # chi gains one per vertex here, loses one per edge and gains one per
    # face below: V - E + F per component.
    comp = [-1] * len(ls)
    chi = []
    for rot in g.rotations:
        first = de[rot[0]]
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
    idx.shape = _Shape(tuple(ls), tuple(rs), tuple(comp), tuple(chi))
    return idx.shape


def _vertex_components(g: AlternatingDimap) -> list[int]:
    """Component id of each vertex."""
    de, comp = _index(g).dart_edge, _shape(g).comp
    return [comp[de[rot[0]]] for rot in g.rotations]


def _genus_of(chi: int) -> int:
    if chi % 2 != 0 or chi > 2:
        raise NonIntegerGenus(f"Euler characteristic {chi} is not 2 - 2g with g >= 0")
    return (2 - chi) // 2


def validate(g: AlternatingDimap) -> list[str]:
    """Return a list of violations; empty means valid."""
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
    if report:
        return report

    # Face orientation coherence follows from alternation; the Euler data
    # is checked anyway as a guard against construction bugs.
    try:
        for chi in _shape(g).chi:
            _genus_of(chi)
    except NonIntegerGenus as exc:
        report.append(str(exc))
    return report


def is_valid(g: AlternatingDimap) -> bool:
    return not validate(g)


def _require_edge(g: AlternatingDimap, label: str) -> int:
    idx = _index(g)
    if label not in idx.edge_pos:
        raise UnknownEdge(f"no edge labeled {label!r}")
    return idx.edge_pos[label]


def left_successor(g: AlternatingDimap, label: str) -> str:
    """Next edge after e around its anticlockwise face, in e's direction."""
    return g.edges[_shape(g).ls[_require_edge(g, label)]].label


def right_successor(g: AlternatingDimap, label: str) -> str:
    """Next edge after e around its clockwise face, in e's direction."""
    return g.edges[_shape(g).rs[_require_edge(g, label)]].label


def _face_cycles(g: AlternatingDimap, anticlockwise: bool) -> list[list[int]]:
    """Anticlockwise faces are the cycles of ls, clockwise faces those of rs."""
    shape = _shape(g)
    return _cycles(shape.ls if anticlockwise else shape.rs)


@dataclass(frozen=True)
class Face:
    orientation: str  # "clockwise" or "anticlockwise"
    edge_labels: tuple[str, ...]
    darts: tuple[int, ...]  # head darts along the traversal

    def size(self) -> int:
        return len(self.edge_labels)


def faces(g: AlternatingDimap) -> list[Face]:
    if not is_valid(g):
        raise InvalidMap("; ".join(validate(g)))
    out = []
    for anticlockwise, name in ((True, "anticlockwise"), (False, "clockwise")):
        for cyc in _face_cycles(g, anticlockwise):
            out.append(Face(
                name,
                tuple(g.edges[p].label for p in cyc),
                tuple(g.edges[p].head for p in cyc),
            ))
    return out


def components(g: AlternatingDimap) -> list[dict]:
    """Connected components, each as {'vertices': set, 'edges': set of positions}."""
    shape = _shape(g)
    out = [{"vertices": set(), "edges": set()} for _ in shape.chi]
    for v, c in enumerate(_vertex_components(g)):
        out[c]["vertices"].add(v)
    for p, c in enumerate(shape.comp):
        out[c]["edges"].add(p)
    return out


def genus(g: AlternatingDimap, component: dict) -> int:
    """Genus from V - E + F = 2 - 2g for one component."""
    shape = _shape(g)
    return _genus_of(shape.chi[shape.comp[min(component["edges"])]])


def total_genus(g: AlternatingDimap) -> int:
    return sum(_genus_of(chi) for chi in _shape(g).chi)


def trial(g: AlternatingDimap) -> tuple[AlternatingDimap, dict[str, str]]:
    """Order-three transform; returns the new map and the edge-label map.

    Image edges keep their labels, so the returned map is the identity on
    labels; it is still returned so callers can transport edges explicitly.
    """
    if not is_valid(g):
        raise InvalidMap("; ".join(validate(g)))
    ls_inv = [0] * len(g.edges)
    for p, q in enumerate(_shape(g).ls):
        ls_inv[q] = p
    cw_cycles = _face_cycles(g, False)

    # Image of edge p uses darts (2p, 2p+1) = (tail, head).
    new_edges = tuple(Edge(e.label, 2 * p, 2 * p + 1) for p, e in enumerate(g.edges))
    rotations = []
    for cyc in cw_cycles:
        rot = []
        s = len(cyc)
        for j in range(s):
            rot.append(2 * cyc[j] + 1)            # head of the image of y_j
            rot.append(2 * ls_inv[cyc[(j + 1) % s]])  # tail of the image of ls^-1(y_{j+1})
        rotations.append(tuple(rot))
    out = AlternatingDimap(new_edges, tuple(rotations))
    return out, {e.label: e.label for e in g.edges}


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


def _is_loop(g: AlternatingDimap, p: int) -> bool:
    idx = _index(g)
    return idx.dart_vertex[g.edges[p].tail] == idx.dart_vertex[g.edges[p].head]


def classify_edge(g: AlternatingDimap, label: str) -> EdgeClassification:
    from .reductions import reduce_edge, ReductionKind  # local import: cycle

    idx = _index(g)
    p = _require_edge(g, label)
    e = g.edges[p]
    loop = _is_loop(g, p)
    shape = _shape(g)
    ultra = loop and shape.comp.count(shape.comp[p]) == 1
    one_loop = len(g.rotations[idx.dart_vertex[e.head]]) == 2
    omega_loop = shape.ls[p] == p
    omega2_loop = shape.rs[p] == p
    triloop = one_loop or omega_loop or omega2_loop
    n_comps, g_genus = len(shape.chi), total_genus(g)

    def disconnects_or_drops_genus(kind) -> bool:
        reduced = reduce_edge(g, label, kind)
        return len(_shape(reduced).chi) > n_comps or total_genus(reduced) < g_genus

    semi_1 = loop
    semi_w = omega2_loop or disconnects_or_drops_genus(ReductionKind.OMEGA2)
    semi_w2 = omega_loop or disconnects_or_drops_genus(ReductionKind.OMEGA)
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
    """Dart-renaming equality that must preserve edge labels."""
    if sorted(g.labels()) != sorted(h.labels()):
        return False
    gi, hi = _index(g), _index(h)
    phi = {}
    for e in g.edges:
        f = h.edges[hi.edge_pos[e.label]]
        phi[e.tail] = f.tail
        phi[e.head] = f.head
    return all(phi[gi.next_cw[d]] == hi.next_cw[phi[d]] for d in phi)


def _component_darts(g: AlternatingDimap) -> list[list[int]]:
    out = [[] for _ in _shape(g).chi]
    for v, c in enumerate(_vertex_components(g)):
        out[c] += g.rotations[v]
    return out


def _canonical_run(g: AlternatingDimap, start: int) -> tuple[tuple, dict[int, int]]:
    """Deterministic relabeling of start's component; returns (encoding, dart map)."""
    idx = _index(g)
    order = {start: 0}
    queue = [start]
    for d in queue:
        for nxt in (idx.next_cw[d], idx.partner[d]):
            if nxt not in order:
                order[nxt] = len(order)
                queue.append(nxt)
    # Insertion order is rank order, and queue holds the darts in it.
    enc = tuple((order[idx.next_cw[d]], order[idx.partner[d]],
                 1 if idx.dart_is_head[d] else 0) for d in queue)
    return enc, order


def _component_canonical(g: AlternatingDimap, darts: list[int]) -> tuple[tuple, list[dict[int, int]]]:
    """Minimal encoding over all starting darts plus every relabeling achieving it."""
    best = None
    maps = []
    for start in darts:
        enc, order = _canonical_run(g, start)
        if best is None or enc < best:
            best, maps = enc, [order]
        elif enc == best:
            maps.append(order)
    return best, maps


def canonical_form(g: AlternatingDimap) -> tuple:
    """Label-independent canonical encoding; equal iff maps are isomorphic."""
    encs = [_component_canonical(g, darts)[0] for darts in _component_darts(g)]
    return tuple(sorted(encs))


def isomorphic(g: AlternatingDimap, h: AlternatingDimap) -> bool:
    return canonical_form(g) == canonical_form(h)


def isomorphisms(g: AlternatingDimap, h: AlternatingDimap) -> Iterator[dict[str, str]]:
    """All orientation-preserving isomorphisms as edge-label maps g -> h."""
    g_comps = _component_darts(g)
    h_comps = _component_darts(h)
    if len(g_comps) != len(h_comps):
        return
    g_canon = [_component_canonical(g, d) for d in g_comps]
    h_canon = [_component_canonical(h, d) for d in h_comps]
    hi = _index(h)

    # Group h components by encoding, then try every assignment of g's
    # components onto distinct h components with equal encoding.
    remaining = list(range(len(h_comps)))

    def assignments(k: int, used: set[int]):
        if k == len(g_comps):
            yield []
            return
        for j in remaining:
            if j in used or h_canon[j][0] != g_canon[k][0]:
                continue
            for rest in assignments(k + 1, used | {j}):
                yield [j] + rest

    for assign in assignments(0, set()):
        # Fix one minimal relabeling on the g side; vary over all on h side.
        choices = [h_canon[j][1] for j in assign]
        for h_maps in itertools.product(*choices):
            dart_map = {}
            for k, hm in enumerate(h_maps):
                gm = g_canon[k][1][0]
                inv = {rank: d for d, rank in hm.items()}
                for d, rank in gm.items():
                    dart_map[d] = inv[rank]
            label_map = {}
            ok = True
            for e in g.edges:
                img = dart_map[e.tail]
                if hi.dart_is_head[img]:
                    ok = False
                    break
                label_map[e.label] = h.edges[hi.dart_edge[img]].label
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
    if not lines or not lines[0].startswith("adm"):
        raise FileFormatError(f"{path}: first line must be 'adm <ndarts>'")
    head = lines[0].split()
    try:
        ndarts = int(head[1])
    except (IndexError, ValueError) as exc:
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
