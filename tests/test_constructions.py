from __future__ import annotations

import random
from math import comb

import pytest

import faceenum as fe
from faceenum import io as fio
from faceenum.complexes import face
from faceenum.errors import (
    ArgumentOutOfRange,
    HypothesisNotMet,
    IllegalMove,
    TargetInfeasible,
    TargetOutOfRange,
    UnknownEntry,
    UnknownSpace,
)


# --- generators ---------------------------------------------------------------


def test_simplex_boundary():
    K = fe.simplex_boundary(5)
    assert len(K.vertices) == 6 and len(K.facets) == 6
    assert fe.is_homology_sphere(K)


def test_stacked_sphere_counts():
    K = fe.stacked_sphere(10, 4)
    fv = fe.f_vector(K)
    assert fv[1] == fe.phi(10, 4, 1) == 30
    hv = fe.h_vector(K)
    assert hv[1] == hv[2] == hv[3]
    assert fe.stacked_sphere(5, 4) == fe.simplex_boundary(4)
    with pytest.raises(ArgumentOutOfRange):
        fe.stacked_sphere(4, 4)


def test_is_stacked_sphere(cp2, kl11):
    assert fe.is_stacked_sphere(fe.stacked_sphere(12, 5))
    assert not fe.is_stacked_sphere(cp2)
    assert not fe.is_stacked_sphere(kl11)
    with pytest.raises(HypothesisNotMet):
        fe.is_stacked_sphere(fe.simplex(5))  # not closed


def test_walkup_class(cp2, kl11):
    assert fe.in_walkup_class(fe.stacked_sphere(9, 5))
    assert fe.in_walkup_class(kl11)
    assert not fe.in_walkup_class(cp2)


# --- bistellar moves -----------------------------------------------------------


def test_zero_move_on_simplex_boundary():
    K = fe.simplex_boundary(5)
    K2 = fe.apply_bistellar(K, fe.BistellarMove(K.facets[0], (99,)))
    assert fe.h_vector(K2).entries == (1, 2, 2, 2, 2, 1)


def test_move_legality_errors(kl11):
    K = fe.simplex_boundary(4)
    # F u G spans a facet: G is already a face
    with pytest.raises(IllegalMove):
        fe.apply_bistellar(K, fe.BistellarMove((1, 2, 3), (4, 5)))
    with pytest.raises(IllegalMove):
        fe.apply_bistellar(kl11, fe.BistellarMove((1, 2, 3, 4), (5, 99)))  # missing facet
    with pytest.raises(IllegalMove):
        fe.apply_bistellar(kl11, fe.BistellarMove((1, 2), (3, 4)))  # wrong sizes


def test_table_moves_add_edges(s2xs2):
    moves = fe.catalog("s2xs2_moves").payload
    K = s2xs2
    missing = [(1, 5), (5, 6), (1, 6)]
    for mv, edge in zip(moves, missing):
        assert edge not in K.edges
        K = fe.apply_bistellar(K, mv)
        assert edge in K.edges
    assert K.is_i_neighborly(2)
    assert fe.betti(K).get(2) == 4


def _random_legal_moves(K, rng, want):
    """Sample legal moves of various orders in K."""
    found = []
    d = K.d
    ridges = sorted(K.all_faces(d - 2), key=lambda f: rng.random())
    for r in ridges:
        two = K.facets_containing(r)
        if len(two) != 2:
            continue
        G = face(set(two[0]) ^ set(two[1]))
        if len(G) == 2 and not K.has_face(G):
            found.append(fe.BistellarMove(r, G))
            if len(found) >= want:
                return found
    return found


def test_bistellar_h_effect_random_moves(cp2, kl11):
    rng = random.Random(99)
    hosts = [cp2, kl11, fe.stacked_sphere(8, 4), fe.catalog("s2xs2_sum").payload]
    total = 0
    while total < 200:
        K = hosts[total % len(hosts)]
        # random walk: subdivision, then whatever 1-moves appear
        w = f"t{total}"
        mv = fe.BistellarMove(rng.choice(K.facets), (w,))
        K2 = fe.apply_bistellar(K, mv)  # asserts the h law internally
        total += 1
        for _ in range(3):
            mvs = _random_legal_moves(K2, rng, 1)
            if not mvs:
                break
            before = fe.h_vector(K2).entries
            K2 = fe.apply_bistellar(K2, mvs[0])
            assert fe.h_vector(K2).entries == fe.bistellar_h_effect(before, mvs[0].m, K2.d)
            total += 1


def test_inverse_moves_cancel():
    K = fe.kuhnel_lassmann(12, 2)
    mv = fe.BistellarMove((2, 3, 5, 6), (1, 7))
    K2 = fe.apply_bistellar(K, mv)
    back = fe.BistellarMove((1, 7), (2, 3, 5, 6))
    K3 = fe.apply_bistellar(K2, back)
    assert K3 == K


# --- the cyclic sphere-bundle family ---------------------------------------------


def test_kuhnel_lassmann_small():
    K = fe.kuhnel_lassmann(11, 2)
    assert len(K.vertices) == 11
    assert len(K.all_faces(1)) == 55
    assert K.is_i_neighborly(2)
    with pytest.raises(ArgumentOutOfRange):
        fe.kuhnel_lassmann(10, 2)
    with pytest.raises(ArgumentOutOfRange):
        fe.kuhnel_lassmann(11, 1)


def test_kuhnel_lassmann_nonedges_12():
    K = fe.kuhnel_lassmann(12, 2)
    expect = {(x, ((x + 5) % 12) + 1) for x in range(1, 13)}
    expect = {tuple(sorted(p)) for p in expect}
    assert set(K.nonedges()) == expect
    assert len(K.nonedges()) == 6


def test_kuhnel_lassmann_m3():
    K = fe.kuhnel_lassmann(15, 3)
    assert K.d == 7
    assert len(K.all_faces(1)) == 7 * 15
    hv = fe.h_vector(K)
    assert hv[2] - hv[1] == comb(8, 2)  # same pattern one dimension up


# --- the grouped fill -------------------------------------------------------------


def test_fill_identity():
    K, log = fe.s1xs3_fill(11, 55)
    assert len(log.steps) == 0
    assert K == fe.kuhnel_lassmann(11, 2)


def test_fill_even_half_block():
    K, log = fe.s1xs3_fill(12, 66)
    assert len(log.steps) == 6
    assert K.is_i_neighborly(2)
    assert fe.betti(K).positive_range() == (0, 1, 0, 1, 1)


def test_fill_full_odd():
    K, log = fe.s1xs3_fill(13, comb(13, 2))
    assert K.is_i_neighborly(2)
    assert len(log.steps) == comb(13, 2) - 65


def test_fill_partial_group():
    K, log = fe.s1xs3_fill(14, 75)
    assert len(K.all_faces(1)) == 75
    assert len(log.steps) == 5


def test_fill_symmetry_restored_after_whole_groups():
    assert fe.has_dihedral_symmetry(fe.kuhnel_lassmann(14, 2), 14)
    K, _ = fe.s1xs3_fill(14, 84)  # first difference group complete
    assert fe.has_dihedral_symmetry(K, 14)
    K, _ = fe.s1xs3_fill(14, 80)  # mid-group: symmetry broken
    assert not fe.has_dihedral_symmetry(K, 14)
    K, _ = fe.s1xs3_fill(13, 65 + 13)
    assert fe.has_dihedral_symmetry(K, 13)


def test_fill_range_errors():
    with pytest.raises(TargetOutOfRange):
        fe.s1xs3_fill(14, 92)  # above C(14,2) = 91
    with pytest.raises(TargetOutOfRange):
        fe.s1xs3_fill(14, 69)  # below 5n
    with pytest.raises(TargetOutOfRange):
        fe.s1xs3_fill(10, 50)


# --- feasibility and realization -----------------------------------------------


def test_sphere_bundle_edge_window():
    assert fe.sphere_bundle_feasibility(11, 2, 55)
    assert not fe.sphere_bundle_feasibility(11, 2, 54)
    assert not fe.sphere_bundle_feasibility(10, 2, 50)
    assert fe.sphere_bundle_feasibility(15, 3, 7 * 15)
    assert not fe.sphere_bundle_feasibility(14, 3, 7 * 14)  # below 4m+3 vertices
    assert not fe.sphere_bundle_feasibility(15, 3, comb(15, 2) + 1)
    # constructive agreement with the m = 2 fill across the whole window
    for e in (55, 60, 70, comb(12, 2)):
        if fe.sphere_bundle_feasibility(12, 2, e):
            K, _ = fe.s1xs3_fill(12, e)
            assert len(K.all_faces(1)) == e


def test_feasibility_windows():
    assert fe.feasibility("cp2", 3, 6)
    assert not fe.feasibility("cp2", 3, 5)
    assert fe.feasibility("k3", 10, 55)
    assert not fe.feasibility("k3", 10, 54)
    assert fe.feasibility("s1xs3", 5, 15)
    assert not fe.feasibility("s1xs3", 5, 14)
    assert not fe.feasibility("s1xs3", 5, 16)  # above C(6,2)
    assert fe.feasibility("s2xs2_sum2", 6, 18)
    assert not fe.feasibility("s2xs2_sum2", 6, 17)
    assert fe.feasibility("s3xs3", 6, 21)
    assert not fe.feasibility("s3xs3", 6, 20)
    assert not fe.feasibility("s3xs3", 6, 6 + comb(6, 2) + 1)
    with pytest.raises(UnknownSpace):
        fe.feasibility("mystery", 1, 1)


def test_g2_floors_derive_from_macaulay_bound():
    # the simply connected floors are exactly the least g2 whose binomial
    # decomposition bound reaches G = C(5,2) beta_2
    from faceenum.audit import binomial_pair_decomposition

    def bound(v):
        a, b = binomial_pair_decomposition(v)
        return comb(a + 1, 3) + comb(b + 1, 2)

    from faceenum.constructions import G2_FLOORS

    for space, beta2 in (("cp2", 1), ("k3", 22), ("s2xs2_sum2", 4)):
        G = 10 * beta2
        floor = next(v for v in range(1, 300) if bound(v) >= G)
        assert floor == G2_FLOORS[space]
    # the sphere bundle floor comes from the covering bound C(d+1, 2) at d = 5
    assert G2_FLOORS["s1xs3"] == comb(6, 2)


def test_realize_identity(cp2):
    tree_facets = [tuple(sorted((1, 2) + f)) for f in fe.catalog("cp2_tree").payload.facets]
    tree = fe.validate_simple_tree(cp2, tree_facets)
    assert fe.realize_g_pair(cp2, tree, 4, 10, verify_seed=False) == cp2


def test_realize_infeasible(cp2):
    tree_facets = [tuple(sorted((1, 2) + f)) for f in fe.catalog("cp2_tree").payload.facets]
    tree = fe.validate_simple_tree(cp2, tree_facets)
    with pytest.raises(TargetInfeasible):
        fe.realize_g_pair(cp2, tree, 3, 10, verify_seed=False)  # a below h1
    with pytest.raises(TargetInfeasible):
        fe.realize_g_pair(cp2, tree, 6, comb(7, 2) + 1, verify_seed=False)
    with pytest.raises(TargetInfeasible):
        fe.realize_g_pair(cp2, tree, 6, 11, verify_seed=False)  # below g2 + a


def test_realize_space_cp2_example():
    K = fe.realize_space("cp2", 5, 12)
    hv = fe.h_vector(K)
    assert fe.g_from_h(hv).entries == (1, 5, 12)
    assert fe.betti(K).positive_range() == (0, 0, 1, 0, 1)


def test_realize_space_s1xs3():
    K = fe.realize_space("s1xs3", 7, 20)
    hv = fe.h_vector(K)
    assert (hv[1] - 1, hv[2] - hv[1]) == (7, 20)
    assert fe.betti(K).positive_range() == (0, 1, 0, 1, 1)


def test_realize_space_s2xs2_sum2_below_the_neighborly_seed():
    # g2 = 18..20 lies below the 2-neighborly seed's g2 = 21; the route goes
    # through Lutz's complex, and its move log replays from there
    base = fe.catalog("s2xs2_sum").payload
    for g1 in (6, 7, 8):
        for g2 in (18, 19, 20):
            log = fe.MoveLog()
            K = fe.realize_space("s2xs2_sum2", g1, g2, log=log)
            hv = fe.h_vector(K)
            assert (hv[1] - 1, hv[2] - hv[1]) == (g1, g2)
            assert fe.manifold_report(K).closed
            assert len(log.steps) == (g2 - 18) + (g1 - 6)
            assert fio.replay_move_log(base, log.steps) == K


def test_realize_space_k3_needs_seed():
    with pytest.raises(UnknownSpace):
        fe.realize_space("k3", 10, 55)


# --- catalog -----------------------------------------------------------------------


def test_catalog_self_checks():
    for name in fe.CATALOG_NAMES:
        entry = fe.catalog(name)
        assert entry.name == name
    with pytest.raises(UnknownEntry):
        fe.catalog("nope")


def test_catalog_full_verification():
    fe.catalog("cp2_9", verify="full")
    fe.catalog("s2xs2_sum", verify="full")


def test_s3xs3_floor_vector():
    hv = fe.HVector(fe.S3XS3_MIN_H)
    assert all(x == 0 for x in fe.ds_defect_h(hv, 0))
