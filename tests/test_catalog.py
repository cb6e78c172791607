import itertools
from functools import lru_cache
from math import factorial, prod

import numpy as np
import pytest

from trialab import catalog
from trialab.altmap import (
    AlternatingDimap,
    Edge,
    canonical_form,
    components,
    genus,
    is_valid,
    isomorphic,
    trial,
    ultraloop_stack,
)
from trialab.catalog import (
    enumerate_dimaps,
    random_dimap,
    self_trial_members,
)
from trialab.errors import CapExceeded, InternalInvariantViolation
from trialab.reductions import ALL_KINDS, reduce_edge

# Derived once from the two independent generation strategies, then frozen
# as regression constants.
KNOWN_COUNTS = {0: 1, 1: 1, 2: 4, 3: 11, 4: 43}
# Connected and self-trial catalog members for k = 1..6.
CONNECTED_COUNTS = {1: 1, 2: 3, 3: 7, 4: 26, 5: 97, 6: 624}
SELF_TRIAL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 4, 5: 5, 6: 13}


@lru_cache(maxsize=None)
def _catalog(k):
    return enumerate_dimaps(k, cap=k)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = n if largest is None else largest
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _burnside_count(k):
    """Sum over partitions lambda of k of z_lambda = prod_i i^m_i * m_i!:
    the number of permutation pairs on k points up to simultaneous
    conjugation, by Burnside's lemma."""
    return sum(prod(i ** shape.count(i) * factorial(shape.count(i)) for i in set(shape))
               for shape in _partitions(k))


def _connected_counts(kmax):
    """Inverse Euler transform of the Burnside counts.  A map is a multiset
    of connected maps, so sum_k a_k x^k = prod_i (1 - x^i)^-c_i; with
    b_n = sum_{d | n} d c_d this reads n a_n = sum_{j=1..n} b_j a_{n-j}."""
    a = [_burnside_count(k) for k in range(kmax + 1)]
    b = [0] * (kmax + 1)
    c = [0] * (kmax + 1)
    for n in range(1, kmax + 1):
        b[n] = n * a[n] - sum(b[j] * a[n - j] for j in range(1, n))
        c[n] = (b[n] - sum(d * c[d] for d in range(1, n) if n % d == 0)) // n
    return {k: c[k] for k in range(1, kmax + 1)}


def _self_trial_count(k):
    """(1/k!) #{(g, w) in S_k^2 : g^3 = w^3}.  Trial acts on the classes of
    pairs as a cyclic shift of the triples of permutations with product 1;
    by Burnside's lemma the fixed classes number this, and the pairs with
    equal cubes number sum_h r_3(h)^2 with r_3(h) = #{w : w^3 = h}."""
    cubes = {}
    for w in itertools.permutations(range(k)):
        cube = tuple(w[w[w[i]]] for i in range(k))
        cubes[cube] = cubes.get(cube, 0) + 1
    total = sum(r * r for r in cubes.values())
    assert total % factorial(k) == 0
    return total // factorial(k)


def _alternating_partitions(darts, is_head):
    """All partitions of darts into alternating cyclic sequences.

    Each cycle is anchored at its smallest dart, and cycles are opened in
    increasing order of their anchors, so every set of cyclic orders is
    produced exactly once.
    """
    results = []

    def extend(remaining, current, vertices):
        if not current:
            if not remaining:
                results.append(list(vertices))
                return
            anchor = min(remaining)
            extend(remaining - {anchor}, [anchor], vertices)
            return
        # Close the cycle when the wrap also alternates.
        if len(current) >= 2 and is_head(current[-1]) != is_head(current[0]):
            vertices.append(tuple(current))
            extend(remaining, [], vertices)
            vertices.pop()
        want_head = not is_head(current[-1])
        for d in sorted(remaining):
            if is_head(d) == want_head and d > current[0]:
                extend(remaining - {d}, current + [d], vertices)

    extend(set(darts), [], [])
    return results


def _dart_pairing_forms(k):
    """Canonical forms of every k-edge map, from an independent generator:
    fix the dart pairing (edge i owns darts 2i, 2i+1) and arrange all darts
    into alternating cyclic vertex sequences."""
    edges = tuple(Edge(f"e{i}", 2 * i, 2 * i + 1) for i in range(k))
    forms = set()
    for rotations in _alternating_partitions(range(2 * k), lambda d: d % 2 == 1):
        g = AlternatingDimap(edges, tuple(rotations))
        if is_valid(g):
            forms.add(canonical_form(g))
    return sorted(forms)


def test_counts_small():
    assert len(enumerate_dimaps(0).maps) == 1
    assert len(enumerate_dimaps(1).maps) == 1
    assert len(enumerate_dimaps(2).maps) == 4


def test_counts_frozen_regression():
    for k, n in KNOWN_COUNTS.items():
        assert len(enumerate_dimaps(k).maps) == n


def test_single_edge_map_is_the_ultraloop():
    (only,) = enumerate_dimaps(1).maps
    assert isomorphic(only, ultraloop_stack(1))


def test_counts_match_burnside():
    assert [_burnside_count(k) for k in range(9)] == [1, 1, 4, 11, 43, 161, 901, 5579, 43206]
    for k in range(0, 7):
        assert len(_catalog(k).maps) == _burnside_count(k)


def test_connected_counts():
    for k, n in CONNECTED_COUNTS.items():
        assert sum(len(components(g)) == 1 for g in _catalog(k).maps) == n


def test_self_trial_counts():
    for k, n in SELF_TRIAL_COUNTS.items():
        assert len(self_trial_members(_catalog(k))) == n


def test_connected_counts_match_inverse_euler_transform():
    closed = _connected_counts(6)
    assert closed == CONNECTED_COUNTS
    for k, n in closed.items():
        assert sum(len(components(g)) == 1 for g in _catalog(k).maps) == n


def test_self_trial_counts_match_cube_count():
    closed = {k: _self_trial_count(k) for k in range(1, 7)}
    assert closed == SELF_TRIAL_COUNTS
    for k, n in closed.items():
        assert len(self_trial_members(_catalog(k))) == n


def test_strategies_agree():
    for k in range(1, 5):
        forms = sorted(canonical_form(g) for g in enumerate_dimaps(k).maps)
        assert forms == _dart_pairing_forms(k)


def test_members_are_valid_and_pairwise_nonisomorphic():
    for k in range(0, 5):
        cat = enumerate_dimaps(k)
        forms = [canonical_form(g) for g in cat.maps]
        assert len(set(forms)) == len(forms)
        assert cat.forms == tuple(forms) == tuple(sorted(forms))
        assert all(is_valid(g) for g in cat.maps)
        assert all(g.n_edges() == k for g in cat.maps)


def test_each_class_is_canonicalised_once(monkeypatch):
    # The orbit walk canonicalises the first wiring of each class and no
    # other: one call per catalog map, not one per wiring.
    calls = []

    def counted(g):
        calls.append(g)
        return canonical_form(g)

    monkeypatch.setattr(catalog, "canonical_form", counted)
    for k, n in enumerate([1, 1, 4, 11, 43, 161]):
        calls.clear()
        assert len(enumerate_dimaps(k).maps) == n
        assert len(calls) == n


def _z(shape):
    return prod(i ** shape.count(i) * factorial(shape.count(i)) for i in set(shape))


def test_centraliser_rows_are_the_whole_centraliser():
    # z_lambda distinct permutations that commute with sigma are all of C(sigma).
    for k in range(0, 8):
        for shape in _partitions(k):
            sigma = np.array(catalog._template(shape)[0], dtype=np.intp)
            rows = catalog._centraliser(shape)
            assert rows.shape == (_z(shape), k), shape
            assert (np.sort(rows, axis=1) == np.arange(k)).all(), shape
            assert len(np.unique(rows, axis=0)) == len(rows), shape
            assert np.array_equal(rows[:, sigma], sigma[rows]), shape


def test_an_incomplete_centraliser_raises(monkeypatch):
    # With the identity alone every wiring is its own orbit, so a class is
    # reached twice: the walk must raise, not keep the first and go on.
    monkeypatch.setattr(catalog, "_centraliser",
                        lambda shape: np.arange(sum(shape), dtype=np.intp)[None, :])
    with pytest.raises(InternalInvariantViolation, match="centraliser"):
        enumerate_dimaps(3)


def test_seven_edge_catalog_matches_the_closed_forms():
    maps = _catalog(7).maps
    assert len(maps) == _burnside_count(7) == 5579
    assert sum(len(components(g)) == 1 for g in maps) == _connected_counts(7)[7]
    assert len(self_trial_members(_catalog(7))) == _self_trial_count(7)


def test_catalog_closed_under_trial():
    for k in range(0, 5):
        cat = enumerate_dimaps(k)
        forms = {canonical_form(g) for g in cat.maps}
        for g in cat.maps:
            assert canonical_form(trial(g)[0]) in forms


def test_catalog_closed_under_reductions():
    for k in range(1, 5):
        upper = enumerate_dimaps(k)
        lower = {canonical_form(g) for g in enumerate_dimaps(k - 1).maps}
        for g in upper.maps:
            for lab in g.labels():
                for kind in ALL_KINDS:
                    assert canonical_form(reduce_edge(g, lab, kind)) in lower


def test_self_trial_members():
    assert len(self_trial_members(enumerate_dimaps(0))) == 1
    members1 = self_trial_members(enumerate_dimaps(1))
    assert len(members1) == 1 and isomorphic(members1[0], ultraloop_stack(1))
    members2 = self_trial_members(enumerate_dimaps(2))
    assert len(members2) == 1
    assert isomorphic(members2[0], ultraloop_stack(2))


def _genus_profile(g):
    return tuple(sorted(genus(g, c) for c in components(g)))


def test_summary_shape():
    cat = enumerate_dimaps(2)
    assert len(cat.maps) == 4
    # The double ultraloop is the one self-trial map with two planar components.
    doubles = [g for g in self_trial_members(cat) if _genus_profile(g) == (0, 0)]
    assert len(doubles) == 1
    assert isomorphic(doubles[0], ultraloop_stack(2))


def test_genus_one_appears_at_three_edges():
    assert (1,) in {_genus_profile(g) for g in enumerate_dimaps(3).maps}


def test_cap():
    assert len(enumerate_dimaps(7).maps) == 5579
    for k in (8, -1):
        with pytest.raises(CapExceeded, match="outside 0..7"):
            enumerate_dimaps(k)
    assert len(enumerate_dimaps(2, cap=2).maps) == 4


def test_random_dimap_is_valid_and_in_catalog():
    rng = np.random.default_rng(4)
    forms3 = {canonical_form(g) for g in enumerate_dimaps(3).maps}
    for _ in range(30):
        g = random_dimap(3, rng)
        assert is_valid(g)
        assert canonical_form(g) in forms3


def test_random_dimap_raises_when_its_map_is_invalid(monkeypatch):
    # An explicit check, which python -O keeps.
    monkeypatch.setattr(catalog, "is_valid", lambda g: False)
    with pytest.raises(InternalInvariantViolation, match="invalid map"):
        random_dimap(3, np.random.default_rng(0))
