"""The permutation-pair map primitives against dart-dictionary oracles.

The oracles are the rotation-edit reductions and the dict-based canonical
encoding that the library used before it moved to successor permutations.
They read only the dart data, and every map here is compared with them.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from trialab.altmap import (
    AlternatingDimap,
    Edge,
    canonical_form,
    classify_edge,
    components,
    isomorphisms,
    total_genus,
    trial,
    validate,
)
from trialab.catalog import enumerate_dimaps, random_dimap
from trialab.errors import InvalidMap
from trialab.reductions import ALL_KINDS, ReductionKind, reduce_edge


class _Darts:
    """Dart dictionaries of a map, read straight from its edges and rotations."""

    def __init__(self, g):
        self.partner, self.is_head = {}, {}
        for e in g.edges:
            self.partner[e.tail], self.partner[e.head] = e.head, e.tail
            self.is_head[e.tail], self.is_head[e.head] = False, True
        self.vertex, self.next_cw, self.prev_cw = {}, {}, {}
        for v, rot in enumerate(g.rotations):
            for k, d in enumerate(rot):
                self.vertex[d] = v
                self.next_cw[d] = rot[(k + 1) % len(rot)]
                self.prev_cw[rot[(k + 1) % len(rot)]] = d


def _oracle_labeled_equal(g, h):
    if sorted(g.labels()) != sorted(h.labels()):
        return False
    by_label = {e.label: e for e in h.edges}
    phi = {}
    for e in g.edges:
        phi[e.tail], phi[e.head] = by_label[e.label].tail, by_label[e.label].head
    gd, hd = _Darts(g), _Darts(h)
    return all(phi[gd.next_cw[d]] == hd.next_cw[phi[d]] for d in phi)


def _rotate_after(rot, dart):
    """Rotation list starting just after dart, with dart dropped."""
    k = rot.index(dart)
    return rot[k + 1:] + rot[:k]


def _contract(g, p):
    darts = _Darts(g)
    e = g.edges[p]
    vt, vh = darts.vertex[e.tail], darts.vertex[e.head]
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


def _successor_rewire(g, p, use_left):
    darts = _Darts(g)
    e = g.edges[p]
    # Tail dart of the left (right) successor: the dart clockwise after
    # (before) e's head.
    t_s = (darts.next_cw if use_left else darts.prev_cw)[e.head]
    rots = [list(r) for r in g.rotations]
    w = darts.vertex[e.head]
    if t_s == e.tail:
        # The successor is e itself: plain deletion of the loop.
        rots[w] = [d for d in rots[w] if d not in (e.tail, e.head)]
    else:
        rots[w] = [d for d in rots[w] if d not in (e.head, t_s)]
        u = darts.vertex[e.tail]
        rots[u] = [t_s if d == e.tail else d for d in rots[u]]
    edges = tuple(f for q, f in enumerate(g.edges) if q != p)
    return AlternatingDimap(edges, tuple(tuple(r) for r in rots if r))


def _oracle_reduce(g, label, kind):
    p = g.labels().index(label)
    if kind is ReductionKind.ONE:
        return _contract(g, p)
    return _successor_rewire(g, p, use_left=kind is ReductionKind.OMEGA)


def _oracle_canonical_form(g):
    """Per component, the least breadth-first encoding over next-clockwise
    and partner from every start dart; components sorted."""
    darts = _Darts(g)
    component = {}
    for d in darts.next_cw:
        if d in component:
            continue
        component[d] = d
        stack = [d]
        while stack:
            x = stack.pop()
            for y in (darts.next_cw[x], darts.partner[x]):
                if y not in component:
                    component[y] = d
                    stack.append(y)
    encodings = []
    for root in sorted(set(component.values())):
        best = None
        for start in (d for d in component if component[d] == root):
            order = {start: 0}
            queue = [start]
            for d in queue:
                for nxt in (darts.next_cw[d], darts.partner[d]):
                    if nxt not in order:
                        order[nxt] = len(order)
                        queue.append(nxt)
            enc = tuple((order[darts.next_cw[d]], order[darts.partner[d]],
                         1 if darts.is_head[d] else 0)
                        for d in sorted(order, key=order.get))
            if best is None or enc < best:
                best = enc
        encodings.append(best)
    return tuple(sorted(encodings))


@lru_cache(maxsize=None)
def _maps():
    rng = np.random.default_rng(66)
    maps = [g for k in range(6) for g in enumerate_dimaps(k, cap=k).maps]
    return maps + [random_dimap(k, rng) for k in (6, 7, 8) for _ in range(40)]


def _from_darts(g):
    """A copy of g without its cached view, so validate reads the darts."""
    return AlternatingDimap(g.edges, g.rotations)


def test_canonical_form_matches_dict_oracle():
    for g in _maps():
        assert canonical_form(g) == _oracle_canonical_form(g)
        image = trial(g)[0]
        assert canonical_form(image) == _oracle_canonical_form(image)


def test_every_reduction_matches_rotation_edit_oracle():
    for g in _maps():
        for label in g.labels():
            for kind in ALL_KINDS:
                out = reduce_edge(g, label, kind)
                assert _oracle_labeled_equal(out, _oracle_reduce(g, label, kind))
                assert validate(_from_darts(out)) == []
                assert out.labels() == tuple(x for x in g.labels() if x != label)


def test_reductions_of_trial_images_match_oracle():
    # Trial outputs carry a view built from a pair, not from darts.
    for g in _maps()[::7]:
        image = trial(g)[0]
        for label in image.labels():
            for kind in ALL_KINDS:
                assert _oracle_labeled_equal(reduce_edge(image, label, kind),
                                             _oracle_reduce(image, label, kind))


def test_trial_output_reads_back_as_the_same_map():
    for g in _maps()[::5]:
        image = trial(g)[0]
        assert validate(_from_darts(image)) == []
        assert canonical_form(_from_darts(image)) == canonical_form(image)


def test_primitives_reject_invalid_dart_maps():
    bad = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 2, 1, 3),))
    for call in (lambda: trial(bad), lambda: canonical_form(bad),
                 lambda: reduce_edge(bad, "e0", ReductionKind.ONE)):
        with pytest.raises(InvalidMap, match="alternate"):
            call()


def test_semiloop_flags_match_their_reduction_definition():
    # The omega-semiloop flag is defined by the omega^2-reduction (and the
    # omega^2 flag by the omega-reduction) disconnecting or lowering genus.
    def drops(g, label, kind):
        out = reduce_edge(g, label, kind)
        return len(components(out)) > len(components(g)) or total_genus(out) < total_genus(g)

    for g in _maps():
        for label in g.labels():
            cls = classify_edge(g, label)
            assert cls.is_omega_semiloop == (cls.is_omega2_loop
                                             or drops(g, label, ReductionKind.OMEGA2))
            assert cls.is_omega2_semiloop == (cls.is_omega_loop
                                              or drops(g, label, ReductionKind.OMEGA))


def _relabelled(g, rng):
    """An isomorphic copy with new labels, darts and edge and vertex order."""
    darts = [d for e in g.edges for d in (e.tail, e.head)]
    names = dict(zip(darts, (int(x) + 3 for x in rng.permutation(len(darts)))))
    edges = [Edge(f"x{p}", names[e.tail], names[e.head]) for p, e in enumerate(g.edges)]
    rotations = [tuple(names[d] for d in rot) for rot in g.rotations]
    return AlternatingDimap(tuple(edges[i] for i in rng.permutation(len(edges))),
                            tuple(rotations[i] for i in rng.permutation(len(rotations))))


def test_isomorphisms_are_exactly_the_label_bijections_that_preserve_the_map():
    rng = np.random.default_rng(67)
    for g in (g for k in range(1, 5) for g in enumerate_dimaps(k).maps):
        h = _relabelled(g, rng)
        expected = set()
        for image in itertools.permutations(h.labels()):
            label_map = dict(zip(g.labels(), image))
            renamed = AlternatingDimap(
                tuple(Edge(label_map[e.label], e.tail, e.head) for e in g.edges), g.rotations)
            if _oracle_labeled_equal(renamed, h):
                expected.add(frozenset(label_map.items()))
        got = [frozenset(iso.items()) for iso in isomorphisms(g, h)]
        assert expected and set(got) == expected
