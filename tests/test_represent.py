import collections
import dataclasses

import numpy as np
import pytest

from trialab import binfun
from trialab.altmap import canonical_form, isomorphisms, trial, ultraloop_stack
from trialab.binfun import proportional
from trialab.catalog import enumerate_dimaps, self_trial_members
from trialab.errors import NotMinorClosed
from trialab.minor import lambda_mu, raw_minors
from trialab.reductions import ALL_KINDS, reduce_edge
from trialab.represent import (
    CheckReport,
    RepresentationCandidate,
    _aligned,
    _pullback,
    canonical_class,
    check_representation,
    ultraloop_image,
)
from trialab.transform import OMEGA, OMEGA2, SQRT2, ULOOP_RATIO, m_matrix, self_trial, transform

U = ULOOP_RATIO


def _pullback_loop(values, m, position_map):
    """Entry by entry: the bit of element i in X moves to position_map(i)."""
    out = np.empty_like(values)
    for x in range(2**m):
        y = 0
        for i in range(m):
            if x & (1 << (m - 1 - i)):
                y |= 1 << (m - 1 - position_map[i])
        out[x] = values[y]
    return out


def test_pullback_matches_bitwise_loop():
    rng = np.random.default_rng(23)
    for m in range(1, 11):
        for _ in range(3):
            values = rng.standard_normal(2**m) + 1j * rng.standard_normal(2**m)
            position_map = dict(enumerate(int(q) for q in rng.permutation(m)))
            assert np.array_equal(_pullback(values, m, position_map),
                                  _pullback_loop(values, m, position_map))


def test_aligned_tries_every_isomorphism():
    # The double stack's one non-trivial automorphism swaps its edges, and
    # this image is not symmetric under the swap; lhs is the image pulled back
    # along the swap, which isomorphisms() yields after the identity.
    g = ultraloop_stack(2)
    f = binfun.make(2, [1.0, 0.3, 0.7, 0.2])
    emap = {lab: pos for pos, lab in enumerate(g.labels())}
    candidate = RepresentationCandidate((g,), (f,), (emap,), 1.0 + 0j)
    first, swap = isomorphisms(g, g)
    assert all(first[lab] == lab for lab in emap) and all(swap[lab] != lab for lab in emap)
    lhs = 2.0 * _pullback(f.values, 2, {emap[lab]: emap[swap[lab]] for lab in emap})
    assert not binfun.proportional(lhs, f.values)
    assert _aligned(candidate, 0, g, [lhs], emap) == [True]
    assert _aligned(candidate, 0, g, [f.values], emap) == [True]
    assert _aligned(candidate, 0, g, [lhs + np.array([0, 0, 0, 0.1])], emap) == [False]
    assert _aligned(candidate, 0, g, [lhs + np.array([0, 0, 0, 0.1]), lhs, f.values],
                    emap) == [False, True, True]


def test_ultraloop_image_is_the_fixed_vector():
    f = ultraloop_image()
    assert f.values.tolist() == [1.0, U]
    for mu in (OMEGA, OMEGA2, -1.0, 0.3 - 0.7j):
        assert np.max(np.abs(m_matrix(mu) @ f.values - f.values)) <= 1e-15


def test_the_other_eigenline_of_m_omega_also_represents_the_stacks():
    # The ultraloop image is forced only up to a choice of eigenline of
    # M(w): the tensor powers of the eigenvector for the eigenvalue w pass
    # the checker too, at nu = 1 and -1, for the stacks of up to 4 edges.
    mirror = binfun.make(1, [1.0, -(SQRT2 + 1.0)])
    assert np.max(np.abs(m_matrix(OMEGA) @ mirror.values - OMEGA * mirror.values)) <= 1e-15
    for k in range(5):
        cand = canonical_class(k)
        images = tuple(binfun.tensor_power(mirror, i) for i in range(k + 1))
        for nu in (1.0, -1.0):
            assert check_representation(dataclasses.replace(cand, images=images, nu=nu)).passed


def test_canonical_class_shapes():
    cand = canonical_class(2)
    assert [g.n_edges() for g in cand.members] == [0, 1, 2]
    assert np.allclose(cand.images[2].values, [1, U, U, U * U])
    assert cand.edge_maps[2] == {"e0": 0, "e1": 1}


def test_canonical_classes_pass():
    for k in range(0, 6):
        assert check_representation(canonical_class(k)).passed


def test_canonical_classes_pass_for_any_unit_phase():
    rng = np.random.default_rng(21)
    for _ in range(10):
        nu = np.exp(2j * np.pi * rng.random())
        assert check_representation(dataclasses.replace(canonical_class(3), nu=nu)).passed


def test_minor_compatibility_follows_the_phase():
    # Element 0 of this two-stack image is not degenerate: its minor matches
    # the one-stack image (1, r) at mu = 1 only.  So the reduction of e0
    # that matches is the one whose kind times nu is 1, and a checker that
    # ignored nu would match the 1-reduction at every phase.
    cand = canonical_class(2)
    f01 = U - lambda_mu(1.0) * (0.9 - 0.5 * U)
    image = binfun.make(2, [1.0, f01, 0.5, 0.9])
    cand = dataclasses.replace(cand, images=cand.images[:2] + (image,))
    for nu, token in ((1.0, "1"), (OMEGA, "w2"), (OMEGA2, "w")):
        report = check_representation(dataclasses.replace(cand, nu=nu))
        unmatched = {kind for kind in ("1", "w", "w2")
                     if f"member 2: edge 'e0', reduction {kind} has no match"
                     in report.minor_compat}
        assert unmatched == {"1", "w", "w2"} - {token}, (nu, report.minor_compat)


def _per_kind_report(candidate):
    """Conditions (d) and (e) with one canonicalisation and one isomorphism
    walk per trial and per reduction kind, as the checker once decided them:
    the witness lists an alignment shared by labeled-equal reductions must
    reproduce, in order."""
    report = CheckReport()
    member_of = {}
    for idx, g in enumerate(candidate.members):
        member_of.setdefault(canonical_form(g), idx)

    def aligned(target, source, lhs, positions):
        fh, emap_h = candidate.images[target], candidate.edge_maps[target]
        return any(proportional(lhs, _pullback(fh.values, fh.m,
                                               {positions[lab]: emap_h[iso[lab]] for lab in positions}))
                   for iso in isomorphisms(source, candidate.members[target]))

    triples = list(zip(candidate.members, candidate.images, candidate.edge_maps))
    for idx, (g, f, emap) in enumerate(triples):
        trial_g, edge_map = trial(g)
        target = member_of.get(canonical_form(trial_g))
        if target is None:
            report.triality.append(f"member {idx}: trial image leaves the class")
        elif not aligned(target, trial_g, transform(f, OMEGA),
                         {edge_map[lab]: pos for lab, pos in emap.items()}):
            report.triality.append(f"member {idx}: no isomorphism matches the trinity transform")
    for idx, (g, f, emap) in enumerate(triples):
        for lab in g.labels():
            pos = emap[lab]
            positions = {other: p - (p > pos) for other, p in emap.items() if other != lab}
            for kind in ALL_KINDS:
                reduced = reduce_edge(g, lab, kind)
                target = member_of[canonical_form(reduced)]
                lhs = raw_minors(f.values, pos, candidate.nu * kind.complex_value)
                if not aligned(target, reduced, lhs, positions):
                    report.minor_compat.append(
                        f"member {idx}: edge {lab!r}, reduction {kind.token} has no match")
    return report


def _small_catalog_candidate():
    """Every map of at most 4 edges, imaged by the tensor powers of the
    ultraloop image: most of its edges have three distinct reductions."""
    members = [g for k in range(5) for g in enumerate_dimaps(k).maps]
    return RepresentationCandidate(
        tuple(members),
        tuple(binfun.tensor_power(ultraloop_image(), g.n_edges()) for g in members),
        tuple({lab: pos for pos, lab in enumerate(g.labels())} for g in members), 1.0 + 0j)


def _corrupted(candidate, idx):
    values = candidate.images[idx].values.copy()
    values[-1] += 0.1
    images = list(candidate.images)
    images[idx] = binfun.make(candidate.images[idx].m, values)
    return dataclasses.replace(candidate, images=tuple(images))


def test_grouped_minor_compatibility_keeps_the_per_kind_witnesses():
    small = _small_catalog_candidate()
    # A corrupted 3-edge image fails some kinds of the 4-edge members'
    # reductions and not others, so a checker that aligned every kind
    # against one reduction's target would report different kinds.
    three = next(i for i, g in enumerate(small.members) if g.n_edges() == 3)
    candidates = {
        "catalog": small,
        "corrupted catalog": _corrupted(small, three),
        "corrupted stack": _corrupted(canonical_class(6), 6),
        "stack at w": dataclasses.replace(canonical_class(5), nu=OMEGA),
    }
    for name, cand in candidates.items():
        report = check_representation(cand)
        assert report == _per_kind_report(cand), name
    witnesses = check_representation(candidates["corrupted catalog"]).minor_compat
    per_edge = collections.Counter(w.rsplit(",", 1)[0] for w in witnesses)
    assert min(per_edge.values()) < 3
    assert check_representation(candidates["corrupted stack"]).minor_compat


def test_non_self_trial_image_fails_triality():
    cand = canonical_class(1)
    broken = RepresentationCandidate(
        cand.members,
        (cand.images[0], binfun.make(1, [1.0, 1.0])),
        cand.edge_maps, 1.0)
    report = check_representation(broken)
    assert not report.passed
    assert report.triality


def test_a_trial_orbit_imaged_by_the_trinity_transform_passes_triality():
    # G is a two-edge map that is not self-trial, so G, trial(G) and
    # trial^2(G) are three members; their images f, T_w f and T_w^2 f for a
    # random f are not eigenvectors of M(w), so condition (d) holds only if
    # it applies T_w and not T_w^2.  Trial keeps labels: one edge map serves
    # the whole orbit.  A random f has non-degenerate minors, so only (e)
    # fails.
    catalog = enumerate_dimaps(2)
    fixed = {id(g) for g in self_trial_members(catalog)}
    g = next(g for g in catalog.maps if id(g) not in fixed)
    orbit = [g, trial(g)[0]]
    orbit.append(trial(orbit[1])[0])
    v = np.random.default_rng(27).standard_normal(8).view(complex)
    v[0] = 1.0
    f = binfun.make(2, v)
    images = [binfun.make(2, binfun.normalize(transform(f, mu).values.copy()))
              for mu in (1.0, OMEGA, OMEGA2)]
    emap = {lab: pos for pos, lab in enumerate(g.labels())}
    one = ultraloop_stack(1)
    cand = RepresentationCandidate(
        (*orbit, one, ultraloop_stack(0)),
        (*images, ultraloop_image(), binfun.unit()),
        (emap, emap, emap, {lab: 0 for lab in one.labels()}, {}), 1.0 + 0j)
    report = check_representation(cand)
    assert not (report.totality or report.edge_bijections or report.unit_phase)
    assert report.triality == []
    assert report.minor_compat and not report.passed


def test_non_unit_phase_fails():
    cand = canonical_class(1)
    report = check_representation(dataclasses.replace(cand, nu=2.0))
    assert report.unit_phase and not report.passed


@pytest.mark.parametrize("k", [0, 2])
def test_nan_phase_fails_unit_phase_alone(k):
    # |NaN| - 1 compares False with any tolerance: the check must fail it,
    # not pass it or leave it to the minor-compatibility witnesses.
    cand = canonical_class(k)
    for nu in (complex("nan"), complex(float("nan"), 1.0)):
        report = check_representation(dataclasses.replace(cand, nu=nu))
        assert len(report.unit_phase) == 1 and not report.passed, nu
        assert not (report.triality or report.minor_compat), nu
    for nu in (1.0, -1.0):
        assert check_representation(dataclasses.replace(cand, nu=nu)).passed, nu



def test_a_phase_just_off_the_unit_circle_fails():
    # |nu| - 1 = 1e-6 is far inside any loose bound but past DEFAULT_TOL.
    report = check_representation(dataclasses.replace(canonical_class(2), nu=1 + 1e-6))
    assert len(report.unit_phase) == 1 and not report.passed
    assert "differs from 1" in report.unit_phase[0]


def test_broken_edge_map_fails():
    cand = canonical_class(1)
    bad = RepresentationCandidate(
        cand.members, cand.images, (cand.edge_maps[0], {"e0": 1}), 1.0)
    report = check_representation(bad)
    assert report.edge_bijections and not report.passed


def test_missing_image_fails_totality_without_raising():
    cand = canonical_class(2)
    bad = dataclasses.replace(cand, images=(cand.images[0], None, cand.images[2]))
    report = check_representation(bad)
    assert report.totality == ["member 1 has no binary-function image"]
    assert not (report.edge_bijections or report.triality or report.minor_compat)
    assert not report.passed


def test_not_minor_closed_raises():
    cand = canonical_class(2)
    # Drop the middle member: reductions of the two-edge stack now leave
    # the class.
    bad = RepresentationCandidate(
        (cand.members[0], cand.members[2]),
        (cand.images[0], cand.images[2]),
        (cand.edge_maps[0], cand.edge_maps[2]), 1.0)
    with pytest.raises(NotMinorClosed):
        check_representation(bad)


def search_unit_phase(candidate, samples=720):
    """Coarse unit-circle scan for a phase that makes the candidate pass.

    Distinguishes "wrong nu" from "unrepresentable" after a failure.
    """
    for j in range(samples):
        nu = np.exp(2j * np.pi * j / samples)
        if check_representation(dataclasses.replace(candidate, nu=nu)).passed:
            return complex(nu)
    return None


def test_search_unit_phase_finds_one():
    cand = canonical_class(2)
    assert search_unit_phase(cand, samples=8) is not None


def test_tensor_powers_are_self_trial():
    base = ultraloop_image()
    for k in range(0, 9):
        assert self_trial(binfun.tensor_power(base, k))


def test_empty_class_passes():
    empty = RepresentationCandidate((), (), (), 1.0)
    assert check_representation(empty).passed


def test_single_member_class_passes():
    cand = canonical_class(0)
    assert check_representation(cand).passed
    assert cand.members[0].n_edges() == 0
