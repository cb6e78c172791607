from functools import lru_cache
from math import factorial, prod

import numpy as np
import pytest

from trialab.altmap import (
    AlternatingDimap,
    Edge,
    canonical_form,
    components,
    is_valid,
    isomorphic,
    k_copies,
    trial,
    ultraloop,
)
from trialab.catalog import (
    enumerate_dimaps,
    random_dimap,
    self_trial_members,
)
from trialab.errors import CapExceeded
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
    assert isomorphic(only, ultraloop())


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


def test_strategies_agree():
    for k in range(1, 5):
        forms = sorted(canonical_form(g) for g in enumerate_dimaps(k).maps)
        assert forms == _dart_pairing_forms(k)


def test_members_are_valid_and_pairwise_nonisomorphic():
    for k in range(0, 5):
        cat = enumerate_dimaps(k)
        forms = [canonical_form(g) for g in cat.maps]
        assert len(set(forms)) == len(forms)
        assert all(is_valid(g) for g in cat.maps)
        assert all(g.n_edges() == k for g in cat.maps)


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
    assert len(members1) == 1 and isomorphic(members1[0], ultraloop())
    members2 = self_trial_members(enumerate_dimaps(2))
    assert len(members2) == 1
    assert isomorphic(members2[0], k_copies(ultraloop(), 2))


def test_summary_shape():
    summary = enumerate_dimaps(2).summary()
    assert sum(summary.values()) == 4
    assert summary[(2, (0, 0), True)] == 1  # the double ultraloop


def test_genus_one_appears_at_three_edges():
    profiles = {key[1] for key in enumerate_dimaps(3).summary()}
    assert (1,) in profiles


def test_cap():
    with pytest.raises(CapExceeded):
        enumerate_dimaps(5)
    assert len(enumerate_dimaps(2, cap=2).maps) == 4


def test_random_dimap_is_valid_and_in_catalog():
    rng = np.random.default_rng(4)
    forms3 = {canonical_form(g) for g in enumerate_dimaps(3).maps}
    for _ in range(30):
        g = random_dimap(3, rng)
        assert is_valid(g)
        assert canonical_form(g) in forms3
