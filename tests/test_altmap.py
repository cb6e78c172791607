import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from trialab.altmap import (
    AlternatingDimap,
    Edge,
    _cycles,
    _dart_problems,
    _view,
    canonical_form,
    classify_edge,
    components,
    genus,
    is_valid,
    isomorphic,
    isomorphisms,
    labeled_equal,
    read_dimap,
    trial,
    ultraloop_stack,
    validate,
    write_dimap,
)
from trialab.catalog import enumerate_dimaps, random_dimap
from trialab.errors import FileFormatError, InvalidMap, TrialabError, UnknownEdge

C1 = ultraloop_stack(1)
# One vertex, two loops, loop darts adjacent: both edges bound clockwise
# size-1 faces.
TWO_CW_LOOPS = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 1, 2, 3),))
# Mirror arrangement: both edges bound anticlockwise size-1 faces.
TWO_ACW_LOOPS = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 3, 2, 1),))
# Directed 2-cycle on two vertices.
DIGON = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 3), (1, 2)))
# One vertex, three pairwise interleaved loops: the smallest genus-1 map.
TORUS3 = AlternatingDimap(
    (Edge("e0", 0, 1), Edge("e1", 2, 3), Edge("e2", 4, 5)), ((0, 3, 4, 1, 2, 5),))


def test_validate_accepts_hand_maps():
    for g in (ultraloop_stack(0), C1, TWO_CW_LOOPS, TWO_ACW_LOOPS, DIGON, TORUS3):
        assert validate(g) == []


def test_validate_rejects_alternation_violation():
    bad = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 2, 1, 3),))
    assert any("alternate" in line for line in validate(bad))


def test_validate_rejects_structural_problems():
    assert any("odd degree" in line
               for line in validate(AlternatingDimap((Edge("e0", 0, 1),), ((0,), (1,)))))
    assert any("isolated" in line
               for line in validate(AlternatingDimap((Edge("e0", 0, 1),), ((0, 1), ()))))
    assert validate(AlternatingDimap((Edge("e0", 0, 1),), ((0, 1, 2),)))


def n_faces(g):
    """Anticlockwise faces are the cycles of ls, clockwise faces those of rs."""
    view = _view(g)
    return len(_cycles(view.ls)) + len(_cycles(view.rs))


def total_genus(g):
    return sum(genus(g, c) for c in components(g))


def test_faces_of_ultraloop():
    view = _view(C1)
    assert [len(c) for c in _cycles(view.ls)] == [1]
    assert [len(c) for c in _cycles(view.rs)] == [1]


def test_faces_of_copies_add():
    assert n_faces(ultraloop_stack(3)) == 6


def test_face_classes_two_color_shared_edges():
    # Every edge lies on exactly one anticlockwise and one clockwise face.
    for g in (C1, TWO_CW_LOOPS, TWO_ACW_LOOPS, DIGON, TORUS3):
        view = _view(g)
        for perm in (view.ls, view.rs):
            assert sorted(p for cyc in _cycles(perm) for p in cyc) == list(range(g.n_edges()))


def test_successors_on_ultraloop():
    # The loop is its own successor around both of its faces.
    assert _view(C1).ls == [0]
    assert _view(C1).rs == [0]


def test_successors_follow_faces():
    # Successors are edge positions: e0 is 0, e1 is 1.  In the
    # two-anticlockwise-loop map each loop is its own left face.
    assert _view(TWO_ACW_LOOPS).ls[0] == 0
    assert _view(TWO_ACW_LOOPS).rs[0] == 1
    # Two-edge anticlockwise face on the mirror map.
    assert _view(TWO_CW_LOOPS).ls == [1, 0]


def test_classify_unknown_edge():
    with pytest.raises(UnknownEdge):
        classify_edge(C1, "nope")


def test_components_and_genus():
    assert len(components(C1)) == 1
    assert total_genus(C1) == 0
    g3 = ultraloop_stack(3)
    assert len(components(g3)) == 3
    assert total_genus(g3) == 0


def test_one_vertex_two_loop_maps_are_spherical():
    # Alternation forces the two loops into nested position, so both
    # arrangements trace three faces: V - E + F = 1 - 2 + 3 = 2.
    for g in (TWO_CW_LOOPS, TWO_ACW_LOOPS):
        assert n_faces(g) == 3
        assert total_genus(g) == 0


def test_smallest_genus_one_map():
    # Face tracing gives V=1, E=3, F=2, hence genus 1.
    assert n_faces(TORUS3) == 2
    assert total_genus(TORUS3) == 1


def test_genus_is_nonnegative_integer_everywhere():
    # Every component's V - E + F is even and at most 2, which genus()
    # relies on when it returns (2 - chi) // 2.
    rng = np.random.default_rng(6)
    maps = [C1, TWO_CW_LOOPS, TWO_ACW_LOOPS, DIGON, TORUS3]
    maps += [g for k in range(6) for g in enumerate_dimaps(k).maps]
    maps += [random_dimap(k, rng) for k in range(1, 13) for _ in range(20)]
    for g in maps:
        assert all(chi % 2 == 0 and chi <= 2 for chi in _view(g).chi)
        for comp in components(g):
            assert genus(g, comp) >= 0


def _topology_oracle(g):
    """Components by union-find over rotation vertices, and each one's genus
    from faces walked as orbits of d -> next_cw(partner(d)) on darts."""
    vertex = {d: v for v, rot in enumerate(g.rotations) for d in rot}
    next_cw = {d: rot[(k + 1) % len(rot)] for rot in g.rotations for k, d in enumerate(rot)}
    partner = {}
    for e in g.edges:
        partner[e.tail], partner[e.head] = e.head, e.tail
    parent = list(range(len(g.rotations)))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for e in g.edges:
        parent[find(vertex[e.tail])] = find(vertex[e.head])
    faces_of = {}
    seen = set()
    for d in next_cw:
        if d not in seen:
            faces_of[find(vertex[d])] = faces_of.get(find(vertex[d]), 0) + 1
            while d not in seen:
                seen.add(d)
                d = next_cw[partner[d]]
    out = []
    for root in sorted(set(map(find, range(len(g.rotations))))):
        vs = frozenset(v for v in range(len(g.rotations)) if find(v) == root)
        es = frozenset(p for p, e in enumerate(g.edges) if vertex[e.tail] in vs)
        chi = len(vs) - len(es) + faces_of[root]
        assert chi % 2 == 0 and chi <= 2
        out.append((vs, es, (2 - chi) // 2))
    return out


def test_topology_matches_independent_oracle():
    rng = np.random.default_rng(24)
    maps = [g for k in range(6) for g in enumerate_dimaps(k, cap=k).maps]
    maps += [random_dimap(k, rng) for k in (6, 7, 8) for _ in range(50)]
    for g in maps:
        expected = _topology_oracle(g)
        comps = components(g)
        got = [(frozenset(c["vertices"]), frozenset(c["edges"]), genus(g, c)) for c in comps]
        assert sorted(got, key=lambda c: min(c[0])) == sorted(expected, key=lambda c: min(c[0]))
        assert total_genus(g) == sum(genus_ for _, _, genus_ in expected)
        for c in comps:
            c["vertices"].clear()
            c["edges"].add(len(g.edges))
        assert [(frozenset(c["vertices"]), frozenset(c["edges"])) for c in components(g)] \
            == [(vs, es) for vs, es, _ in got]


def _euler_characteristics(g):
    """V - E + F of each component, from the darts alone: components are the
    orbits of <next_cw, partner> and faces those of d -> next_cw(partner(d))."""
    next_cw = {d: rot[(k + 1) % len(rot)] for rot in g.rotations for k, d in enumerate(rot)}
    partner = {}
    for e in g.edges:
        partner[e.tail], partner[e.head] = e.head, e.tail
    root = {}
    for d in next_cw:
        if d not in root:
            root[d] = d
            stack = [d]
            while stack:
                x = stack.pop()
                for y in (next_cw[x], partner[x]):
                    if y not in root:
                        root[y] = d
                        stack.append(y)
    chi = dict.fromkeys(root.values(), 0)
    for rot in g.rotations:
        chi[root[rot[0]]] += 1
    for e in g.edges:
        chi[root[e.tail]] -= 1
    seen = set()
    for d in next_cw:
        if d not in seen:
            chi[root[d]] += 1
            while d not in seen:
                seen.add(d)
                d = next_cw[partner[d]]
    return sorted(chi.values())


def test_every_component_has_even_euler_characteristic_at_most_two():
    rng = np.random.default_rng(25)
    maps = [g for k in range(6) for g in enumerate_dimaps(k, cap=k).maps]
    maps += [random_dimap(k, rng) for k in (6, 7, 8) for _ in range(100)]
    for g in maps:
        chis = _euler_characteristics(g)
        assert all(chi % 2 == 0 and chi <= 2 for chi in chis), g
        assert chis == sorted(2 - 2 * genus(g, c) for c in components(g))


def test_trial_of_ultraloop_is_itself():
    out, edge_map = trial(C1)
    assert labeled_equal(out, C1)
    assert edge_map == {"e0": "e0"}


def test_trial_of_copies_is_componentwise():
    g = ultraloop_stack(3)
    assert isomorphic(trial(g)[0], g)


def test_trial_three_cycle_on_two_edge_maps():
    assert isomorphic(trial(TWO_CW_LOOPS)[0], DIGON)
    assert isomorphic(trial(DIGON)[0], TWO_ACW_LOOPS)
    assert isomorphic(trial(TWO_ACW_LOOPS)[0], TWO_CW_LOOPS)


def _trial_cubed(g):
    # Three explicit applications: trial_power(g, 3) reduces 3 mod 3 and
    # would return g untouched.
    return trial(trial(trial(g)[0])[0])[0]


def test_trial_cubed_is_labeled_identity_on_hand_maps():
    for g in (C1, TWO_CW_LOOPS, TWO_ACW_LOOPS, DIGON, TORUS3):
        assert labeled_equal(_trial_cubed(g), g)


def test_trial_cubed_is_labeled_identity_on_every_catalog_map():
    maps = [g for k in range(6) for g in enumerate_dimaps(k, cap=k).maps]
    assert len(maps) == 1 + 1 + 4 + 11 + 43 + 161
    for g in maps:
        assert labeled_equal(_trial_cubed(g), g)


def test_trial_output_is_valid():
    for g in (C1, TWO_CW_LOOPS, DIGON, TORUS3):
        assert is_valid(trial(g)[0])


def test_classify_ultraloop():
    cls = classify_edge(C1, "e0")
    assert cls.is_ultraloop and cls.is_1loop and cls.is_omega_loop and cls.is_omega2_loop
    assert cls.is_triloop and not cls.is_proper_triloop


def test_classify_digon_one_loops():
    # Head vertex has indegree = outdegree = 1, so e0 is a 1-loop without
    # being a loop.
    cls = classify_edge(DIGON, "e0")
    assert cls.is_1loop and not cls.is_ultraloop
    assert cls.is_triloop and cls.is_proper_triloop


def test_classify_proper_omega_loop():
    cls = classify_edge(TWO_ACW_LOOPS, "e0")
    assert cls.is_omega_loop and not cls.is_omega2_loop
    assert cls.is_proper_triloop


def test_labeled_equal_is_dart_renaming_invariant():
    renamed = AlternatingDimap((Edge("e0", 10, 11),), ((10, 11),))
    assert labeled_equal(C1, renamed)
    assert not labeled_equal(C1, ultraloop_stack(2))


def test_canonical_form_separates_the_four_two_edge_maps():
    four = [ultraloop_stack(2), TWO_CW_LOOPS, TWO_ACW_LOOPS, DIGON]
    assert len({canonical_form(g) for g in four}) == 4


def test_isomorphic_ignores_labels():
    relabeled = AlternatingDimap((Edge("x", 0, 1), Edge("y", 2, 3)), ((0, 3), (1, 2)))
    assert isomorphic(DIGON, relabeled)
    assert not labeled_equal(DIGON, relabeled)
    iso = next(isomorphisms(DIGON, relabeled), None)
    assert iso is not None and sorted(iso.values()) == ["x", "y"]


def test_isomorphisms_include_automorphisms():
    autos = list(isomorphisms(TWO_ACW_LOOPS, TWO_ACW_LOOPS))
    # Swapping the two loops is an automorphism.
    assert {frozenset(a.items()) for a in autos} == {
        frozenset({("e0", "e0"), ("e1", "e1")}),
        frozenset({("e0", "e1"), ("e1", "e0")}),
    }


def test_ultraloop_stack_edges_and_components():
    assert ultraloop_stack(0).n_edges() == 0
    three = ultraloop_stack(3)
    assert three.n_edges() == 3
    assert len(components(three)) == 3
    # Edge e<i> owns darts (2i, 2i+1) and the vertex they form.
    assert three.edges == (Edge("e0", 0, 1), Edge("e1", 2, 3), Edge("e2", 4, 5))
    assert three.rotations == ((0, 1), (2, 3), (4, 5))
    assert all(classify_edge(three, lab).is_ultraloop for lab in three.labels())


def test_dimap_file_roundtrip(tmp_path):
    for name, g in (("c1", C1), ("digon", DIGON), ("torus", TORUS3)):
        path = tmp_path / f"{name}.adm"
        write_dimap(path, g)
        back = read_dimap(path)
        assert labeled_equal(g, back)
        again = tmp_path / f"{name}2.adm"
        write_dimap(again, back)
        assert path.read_text() == again.read_text()


def test_dimap_file_rejects_invalid(tmp_path):
    path = tmp_path / "bad.adm"
    path.write_text("adm 4\nedge e0 0 1\nedge e1 2 3\nvertex 0 2 1 3\n")
    with pytest.raises(InvalidMap):
        read_dimap(path)
    path.write_text("oops\n")
    with pytest.raises(FileFormatError):
        read_dimap(path)


def test_dimap_file_header_is_exactly_adm_and_a_count(tmp_path):
    path = tmp_path / "c1.adm"
    for header in ("admx 2", "adm 2 junk", "adm", "adm two", "ADM 2", "bf 2"):
        path.write_text(f"{header}\nedge e0 0 1\nvertex 0 1\n")
        with pytest.raises(FileFormatError):
            read_dimap(path)
    path.write_text("# ultraloop\n  adm   2 \n  # indented comment\nedge e0 0 1\nvertex 0 1\n")
    assert labeled_equal(read_dimap(path), C1)


def test_dimap_file_rejects_a_trailing_comment(tmp_path):
    # Comments are whole lines; a note after a line's fields is malformed.
    path = tmp_path / "c1.adm"
    for body, message in (("edge e0 0 1\nvertex 0 1   # loop\n", "bad vertex line"),
                          ("edge e0 0 1   # loop\nvertex 0 1\n", "bad edge line")):
        path.write_text("adm 2\n" + body)
        with pytest.raises(FileFormatError, match=message):
            read_dimap(path)


def _shuffled_darts(g, rng):
    """g with its darts renamed to distinct non-negative integers."""
    darts = [d for e in g.edges for d in (e.tail, e.head)]
    names = dict(zip(darts, (int(x) for x in rng.choice(10 * len(darts) + 1, len(darts),
                                                       replace=False))))
    return AlternatingDimap(tuple(Edge(e.label, names[e.tail], names[e.head]) for e in g.edges),
                            tuple(tuple(names[d] for d in rot) for rot in g.rotations))


_FILE_TESTS = settings(max_examples=60, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FILE_TESTS
@given(st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_dimap_file_roundtrip_random(tmp_path, k, seed):
    rng = np.random.default_rng(seed)
    g = _shuffled_darts(random_dimap(k, rng), rng)
    path = tmp_path / "g.adm"
    write_dimap(path, g)
    assert read_dimap(path) == g


@_FILE_TESTS
@given(st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 3),
                          st.text(" \t\n#-0123456789adegmrtvxe", max_size=6)
                          | st.text(max_size=3)),
                max_size=4))
def test_dimap_file_fuzz_raises_only_trialab_errors(tmp_path, k, seed, edits):
    path = tmp_path / "g.adm"
    write_dimap(path, random_dimap(k, np.random.default_rng(seed)))
    text = path.read_text(encoding="utf-8")
    for at, cut, insert in edits:
        at %= len(text) + 1
        text = text[:at] + insert + text[at + cut:]
    path.write_text(text, encoding="utf-8")
    try:
        g = read_dimap(path)
    except TrialabError:
        return
    assert validate(g) == []


def _edited(g, rng, edits):
    """g after the given dart edits, each picked at random positions: most
    leave an invalid map, some a valid one."""
    edges = list(g.edges)
    rotations = [list(rot) for rot in g.rotations]
    for edit in edits:
        rot = rotations[int(rng.integers(len(rotations)))] if rotations else None
        at = int(rng.integers(len(rot))) if rot else 0
        if edit == 0 and rot:  # swap two darts of one rotation
            other = int(rng.integers(len(rot)))
            rot[at], rot[other] = rot[other], rot[at]
        elif edit == 1 and rot:  # a dart that no edge owns
            rot[at] = 10**6
        elif edit == 2 and rot:  # a dart twice
            rot.insert(at, rot[-1])
        elif edit == 3 and rot:  # a dart dropped
            del rot[at]
        elif edit == 4:  # an isolated vertex
            rotations.append([])
        elif edit == 5 and edges:  # a label twice
            edges[-1] = edges[-1]._replace(label=edges[0].label)
        elif edit == 6 and edges:  # a tail reused as the head
            edges[0] = edges[0]._replace(head=edges[0].tail)
        elif edit == 7 and rot and len(rotations) > 1:  # a dart moved to another vertex
            rotations[0].append(rot.pop(at))
    return AlternatingDimap(tuple(edges), tuple(tuple(rot) for rot in rotations))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 7), max_size=3))
def test_view_accepts_exactly_the_maps_without_dart_problems(k, seed, edits):
    rng = np.random.default_rng(seed)
    g = _edited(_shuffled_darts(random_dimap(k, rng), rng), rng, edits)
    problems = _dart_problems(g)
    try:
        _view(g)
    except InvalidMap as exc:
        assert problems and str(exc) == "; ".join(problems)
    else:
        assert problems == []


def test_validate_passes_on_trial_outputs():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = random_dimap(int(rng.integers(1, 5)), rng)
        assert is_valid(trial(g)[0])
