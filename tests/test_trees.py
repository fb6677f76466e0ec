from __future__ import annotations

import random

import pytest

import faceenum as fe
from faceenum.errors import NotABall, NotASphereLink, NotSimpleTree, TreeNotFound, VertexCollision
from faceenum.trees import grow_simple_tree


def test_validate_cp2_tree(cp2):
    entry = fe.catalog("cp2_tree")
    tree = entry.payload
    assert tree.length == 5
    assert tree.is_spanning()
    assert tree.natural_order[0:3] == (3, 4, 7)


def test_validate_s2xs2_tree():
    entry = fe.catalog("s2xs2_tree")
    tree = entry.payload
    assert tree.length == 8
    assert tree.is_spanning()


def test_single_facet_tree(cp2):
    t = fe.validate_simple_tree(cp2, [cp2.facets[0]])
    assert t.length == 1 and t.natural_order == cp2.facets[0]


def test_invalid_tree_reports_index(cp2):
    L = cp2.link((1, 2))
    with pytest.raises(NotSimpleTree) as exc:
        # the third facet shares only one vertex with the union of the first two
        fe.validate_simple_tree(L, [(3, 4, 7), (3, 4, 5), (6, 8, 9)])
    assert exc.value.index == 2
    with pytest.raises(NotSimpleTree):
        fe.validate_simple_tree(L, [(3, 4, 99)])


def test_tree_boundary_is_stacked_sphere(cp2):
    # cone the spanning 2-tree with the edge [1,2]: a simple 4-tree in cp2
    link_tree = fe.catalog("cp2_tree").payload
    facets = [tuple(sorted((1, 2) + f)) for f in link_tree.facets]
    tree = fe.validate_simple_tree(cp2, facets)
    bd = tree.boundary()
    assert fe.is_homology_sphere(bd)
    assert fe.is_stacked_sphere(bd)  # h1 = h2 after the closed-manifold gate
    hv = fe.h_vector(bd)
    assert hv[1] == hv[2]


def test_central_retriangulation_single_facet_is_zero_move(cp2):
    B = fe.SimplicialComplex([cp2.facets[0]])
    K1 = fe.central_retriangulation(cp2, B, "w1")
    K2 = fe.apply_bistellar(cp2, fe.BistellarMove(cp2.facets[0], ("w1",)))
    assert K1 == K2


def test_central_retriangulation_h_effect_low_dim():
    # at d = 3 a length-m 2-tree has m-1 interior edges, so retriangulating
    # gives h2 += 1 regardless of m; the += m law starts at d = 4, where
    # simple trees have no interior edges
    octa = fe.from_facets(
        [[1, 2, 5], [2, 3, 5], [3, 4, 5], [1, 4, 5], [1, 2, 6], [2, 3, 6], [3, 4, 6], [1, 4, 6]]
    )
    tree = fe.validate_simple_tree(octa, [(1, 2, 5), (2, 3, 5), (3, 4, 5)])
    K = fe.central_retriangulation(octa, tree)
    h0, h1 = fe.h_vector(octa), fe.h_vector(K)
    assert h1[1] == h0[1] + 1 and h1[2] == h0[2] + 1
    assert fe.betti(K).reduced_betti == fe.betti(octa).reduced_betti


def test_central_retriangulation_h_effect_dim4_fan():
    K = fe.stacked_sphere(10, 4)
    rng = random.Random(3)
    tree = None
    while tree is None:
        tree = grow_simple_tree(K, 4, rng)
    K2 = fe.central_retriangulation(K, tree)
    h0, h1 = fe.h_vector(K), fe.h_vector(K2)
    assert h1[1] == h0[1] + 1 and h1[2] == h0[2] + tree.length
    assert fe.is_homology_sphere(K2)


def test_grown_tree_equals_its_certification(kl11):
    rng = random.Random(11)
    for host in (kl11, fe.catalog("cp2_9").payload, fe.stacked_sphere(9, 4)):
        for length in (1, 3, 6):
            tree = grow_simple_tree(host, length, rng)
            if tree is not None:
                assert tree == fe.validate_simple_tree(host, tree.facets)


def test_central_retriangulation_table_trees(cp2):
    link_tree = fe.catalog("cp2_tree").payload
    facets = [tuple(sorted((1, 2) + f)) for f in link_tree.facets]
    tree = fe.validate_simple_tree(cp2, facets)
    K = fe.central_retriangulation(cp2, tree)
    h0, h1 = fe.h_vector(cp2), fe.h_vector(K)
    assert h1[1] == h0[1] + 1 and h1[2] == h0[2] + tree.length
    assert fe.betti(K).positive_range() == (0, 0, 1, 0, 1)


def test_central_retriangulation_random_trees(kl11):
    rng = random.Random(20250809)
    hosts = [kl11, fe.catalog("cp2_9").payload, fe.stacked_sphere(9, 4)]
    done = 0
    while done < 12:
        host = rng.choice(hosts)
        tree = grow_simple_tree(host, rng.randint(1, 5), rng)
        if tree is None:
            continue
        K = fe.central_retriangulation(host, tree)
        h0, h1 = fe.h_vector(host), fe.h_vector(K)
        assert h1[1] == h0[1] + 1
        assert h1[2] == h0[2] + tree.length
        assert fe.betti(K).reduced_betti == fe.betti(host).reduced_betti
        done += 1


def test_central_retriangulation_guards(cp2):
    with pytest.raises(VertexCollision):
        fe.central_retriangulation(cp2, fe.SimplicialComplex([cp2.facets[0]]), 3)
    # two disjoint facets are not a ball
    K = fe.stacked_sphere(12, 4)
    disjoint = [f for f in K.facets if not set(f) & set(K.facets[0])]
    with pytest.raises(NotABall):
        fe.central_retriangulation(K, fe.SimplicialComplex([K.facets[0], disjoint[0]]), "w1")
    with pytest.raises(NotABall):
        fe.central_retriangulation(cp2, fe.SimplicialComplex([(1, 2, 3, 4, 99)]), "w1")


def test_find_spanning_tree_in_cp2(cp2):
    tree = fe.find_spanning_tree_in_link(cp2, (1, 2))
    assert tree.is_spanning()
    assert tree.length == 5


def test_find_spanning_tree_after_moves():
    K = fe.s2xs2_two_neighborly()
    tree = fe.find_spanning_tree_in_link(K, (1, 2))
    assert tree.is_spanning()
    assert tree.length == len(K.link((1, 2)).vertices) - 2


def test_find_spanning_tree_guards():
    D = fe.simplex_boundary(4)
    with pytest.raises(NotASphereLink):
        fe.find_spanning_tree_in_link(D, (1, 2))  # codim 2, not 3
    with pytest.raises(TreeNotFound):
        fe.find_spanning_tree_in_link(fe.catalog("cp2_9").payload, (1, 2), node_budget=1)


def test_find_spanning_tree_seeded(cp2):
    t1 = fe.find_spanning_tree_in_link(cp2, (1, 2), seed=5)
    t2 = fe.find_spanning_tree_in_link(cp2, (1, 2), seed=5)
    assert t1.facets == t2.facets
    assert t1.is_spanning()
