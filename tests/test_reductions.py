import itertools

import numpy as np
import pytest

from trialab.altmap import (
    AlternatingDimap,
    Edge,
    classify_edge,
    components,
    is_valid,
    isomorphic,
    k_copies,
    labeled_equal,
    ultraloop,
)
from trialab.catalog import enumerate_dimaps, random_dimap
from trialab.errors import UnknownEdge
from trialab.reductions import (
    ALL_KINDS,
    ReductionKind,
    find_noncommuting_pair,
    is_degenerate_edge,
    reduce_edge,
    trial_minor_check,
)

C1 = ultraloop()
TWO_CW_LOOPS = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 1, 2, 3),))
TWO_ACW_LOOPS = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 3, 2, 1),))
DIGON = AlternatingDimap((Edge("e0", 0, 1), Edge("e1", 2, 3)), ((0, 3), (1, 2)))


def test_reduction_kind_algebra():
    assert ReductionKind.OMEGA * ReductionKind.OMEGA2 is ReductionKind.ONE
    assert ReductionKind.OMEGA.inverse is ReductionKind.OMEGA2
    assert abs(ReductionKind.OMEGA.complex_value**3 - 1) < 1e-15
    assert ReductionKind.from_token("w2") is ReductionKind.OMEGA2
    with pytest.raises(ValueError):
        ReductionKind.from_token("q")


def test_ultraloop_disappears_under_every_reduction():
    for kind in ALL_KINDS:
        assert reduce_edge(C1, "e0", kind).n_edges() == 0


def test_reduction_is_componentwise():
    g = k_copies(C1, 2)
    for kind in ALL_KINDS:
        for lab in g.labels():
            assert isomorphic(reduce_edge(g, lab, kind), C1)


def test_contracting_a_digon_edge_leaves_a_loop():
    out = reduce_edge(DIGON, "e0", ReductionKind.ONE)
    assert isomorphic(out, C1)
    assert out.labels() == ("e1",)


def test_reduce_unknown_edge():
    with pytest.raises(UnknownEdge):
        reduce_edge(C1, "zz", ReductionKind.ONE)


def test_every_two_edge_map_reduces_to_the_ultraloop():
    for g in enumerate_dimaps(2).maps:
        for lab in g.labels():
            for kind in ALL_KINDS:
                assert isomorphic(reduce_edge(g, lab, kind), C1)


def test_reduce_outputs_are_valid_and_one_edge_smaller():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = random_dimap(int(rng.integers(1, 5)), rng)
        lab = g.labels()[int(rng.integers(0, g.n_edges()))]
        kind = ALL_KINDS[int(rng.integers(0, 3))]
        out = reduce_edge(g, lab, kind)
        assert is_valid(out)
        assert out.n_edges() == g.n_edges() - 1
        assert set(out.labels()) == set(g.labels()) - {lab}


def test_reduction_sequences_terminate_at_the_empty_map():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_dimap(4, rng)
        while g.n_edges():
            lab = g.labels()[int(rng.integers(0, g.n_edges()))]
            g = reduce_edge(g, lab, ALL_KINDS[int(rng.integers(0, 3))])
        assert g.n_edges() == 0 and not g.rotations


def test_triality_minor_identity_trivial_at_mu_one():
    for nu in ALL_KINDS:
        assert trial_minor_check(DIGON, "e0", ReductionKind.ONE, nu)


def test_triality_minor_identity_exhaustive_small():
    for k in range(1, 4):
        for g in enumerate_dimaps(k).maps:
            for lab in g.labels():
                for mu, nu in itertools.product(ALL_KINDS, repeat=2):
                    assert trial_minor_check(g, lab, mu, nu)


def test_degenerate_edges():
    assert is_degenerate_edge(C1, "e0")
    assert is_degenerate_edge(TWO_ACW_LOOPS, "e0")
    # A 3-edge map with a non-degenerate edge: triangle-style digon plus
    # pendant structure is not available, so use the enumeration.
    found = False
    for g in enumerate_dimaps(3).maps:
        for lab in g.labels():
            if not is_degenerate_edge(g, lab):
                found = True
    assert found


def test_triloop_flag_matches_reduction_equality():
    for k in range(1, 4):
        for g in enumerate_dimaps(k).maps:
            for lab in g.labels():
                assert classify_edge(g, lab).is_triloop == is_degenerate_edge(g, lab)


def _apply_sequence(g, seq):
    for label, kind in seq:
        g = reduce_edge(g, label, kind)
    return g


def totally_reduction_commutative(g, max_edges=6):
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


def test_totally_reduction_commutative_examples():
    for k in range(1, 4):
        assert totally_reduction_commutative(k_copies(C1, k))
    for g in enumerate_dimaps(2).maps:
        assert totally_reduction_commutative(g)


def test_noncommuting_pair_exists_within_cap():
    # The smallest witness lives on four edges; nothing smaller.
    assert all(find_noncommuting_pair(g) is None
               for k in range(2, 4) for g in enumerate_dimaps(k).maps)
    witnesses = [w for g in enumerate_dimaps(4).maps
                 if (w := find_noncommuting_pair(g)) is not None]
    assert witnesses


def test_noncommuting_witness_is_order_dependent():
    for g in enumerate_dimaps(4).maps:
        w = find_noncommuting_pair(g)
        if w is None:
            continue
        l1, k1, l2, k2 = w
        a = reduce_edge(reduce_edge(g, l1, k1), l2, k2)
        b = reduce_edge(reduce_edge(g, l2, k2), l1, k1)
        assert not labeled_equal(a, b)
        assert not totally_reduction_commutative(g)
        return
    pytest.fail("expected a witness at four edges")


def test_disconnecting_reduction_implies_proper_inverse_semiloop():
    for k in range(1, 5):
        for g in enumerate_dimaps(k).maps:
            if len(components(g)) != 1:
                continue
            for lab in g.labels():
                cls = classify_edge(g, lab)
                for kind in ALL_KINDS:
                    if len(components(reduce_edge(g, lab, kind))) > 1:
                        semi = {
                            ReductionKind.ONE: cls.is_1_semiloop,
                            ReductionKind.OMEGA: cls.is_omega_semiloop,
                            ReductionKind.OMEGA2: cls.is_omega2_semiloop,
                        }[kind.inverse]
                        assert semi and not cls.is_triloop
