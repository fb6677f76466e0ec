"""The bistellar reducer of the census: facet-decreasing bistellar moves,
inverse 0-moves first, reduce a PL m-sphere to the boundary of the
(m+1)-simplex.

Every vertex link of a complex in Walkup's class is a stacked sphere, and
Kalai's criterion h_1 = h_2 recognizes a stacked sphere among homology
spheres of dimension >= 3.  So on Walkup's class the reducer, the inverse
0-move rule it absorbed and the criterion must agree.  The reducer must
never decide a link that is not a sphere, whatever its labels, and it must
decide every link that the two certificates it replaced decide, but for the
few that no facet-decreasing move reaches.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum import homology
from faceenum.homology import _link_census, _pl_class
from test_census import (
    CLOSED_NON_SPHERES, FIELDS, INPUTS, REDUCER_INPUTS, _duality_class, _fresh, _stacked_class, _suspension,
)
from test_successor_edit import _mixed_labels

WALKUP = [
    *((f"kl{n}_2", lambda n=n: fe.kuhnel_lassmann(n, 2)) for n in range(11, 16)),
    ("kl15_3", lambda: fe.kuhnel_lassmann(15, 3)),
    ("kl19_4", lambda: fe.kuhnel_lassmann(19, 4)),
    ("stacked20_5", lambda: fe.stacked_sphere(20, 5)),
]


def _vertex_links(K) -> list:
    return [K.link((v,)) for v in K.vertices]


@pytest.mark.parametrize("name,make", WALKUP, ids=[n for n, _ in WALKUP])
def test_reducer_agrees_with_kalai_on_walkup_class(name, make):
    K = make()
    for L in _vertex_links(K):
        assert _pl_class(list(L.facets), K.dim - 1) == "sphere"
        assert _stacked_class(list(L.facets), K.dim - 1) == "sphere"
        assert fe.is_stacked_sphere(L)
    assert fe.in_walkup_class(K)


@pytest.mark.parametrize("name", ("cp2_9", "s2xs2_sum"))
def test_vertex_links_of_cp2_and_s2xs2_are_pl_spheres_but_not_stacked(name):
    """The reducer takes each vertex link down with moves of an edge, which
    inverse 0-moves alone cannot, and the facet count keeps the Walkup
    predicates at their answer."""
    K = fe.catalog(name).payload
    for L in _vertex_links(K):
        assert _pl_class(list(L.facets), 3) == "sphere"
        assert _stacked_class(list(L.facets), 3) is None
        assert not fe.is_stacked_sphere(L)
    assert not fe.in_walkup_class(K)


def _two_stacked_3_spheres():
    S = fe.stacked_sphere(8, 4)
    return [*S.facets, *(tuple(v + 10 for v in f) for f in S.facets)]


def _bubble_on_a_stacked_ball():
    """A stacked 3-ball, and the boundary of a 4-simplex that shares one of
    its facets, sigma: F = 3V - 10 and the homology of S^3, but the ridges of
    sigma lie in three facets.  The new vertex has star 100 * d(sigma), yet
    sigma is already a facet, so it must not be removed."""
    S = fe.stacked_sphere(9, 4)
    sigma = S.facets[0]
    return [*S.facets[:-1], *((*(v for v in sigma if v != x), 100) for x in sigma)]


# (name, facets, m): none is an m-sphere, but the boundary of the
# 4-dimensional cross-polytope, which no facet-decreasing move reaches: each
# vertex lies in 8 facets and each edge in 4
NOT_REDUCED = [
    ("bubble-on-a-stacked-ball", _bubble_on_a_stacked_ball(), 3),
    ("cross-polytope-4", list(itertools.product((1, 2), (3, 4), (5, 6), (7, 8))), 3),
    *((f"apex-susp-{name}", list(_suspension(K).link((100,)).facets), K.dim)
      for name, K in CLOSED_NON_SPHERES),
    ("two-stacked-3-spheres", _two_stacked_3_spheres(), 3),
    ("stacked-3-ball", list(fe.stacked_sphere(9, 4).facets[1:]), 3),
    ("simplex-4", [(1, 2, 3, 4, 5)], 4),
]


@pytest.mark.parametrize("name,facets,m", NOT_REDUCED, ids=[n for n, *_ in NOT_REDUCED])
def test_reducer_leaves_other_links_undecided(name, facets, m):
    assert _pl_class(facets, m) is None
    assert _stacked_class(facets, m) is None


def test_reducer_decides_links_with_mixed_labels():
    """Half the labels are str; the reduction never compares two labels."""
    K = _mixed_labels(fe.stacked_sphere(12, 5))
    assert {type(v) for v in K.vertices} == {int, str}
    assert _pl_class(list(K.facets), 4) == "sphere"
    assert all(_pl_class(list(L.facets), 3) == "sphere" for L in _vertex_links(K))
    cp2 = _mixed_labels(fe.catalog("cp2_9").payload)
    assert all(_pl_class(list(L.facets), 3) == "sphere" for L in _vertex_links(cp2))


@st.composite
def stacked_spheres(draw):
    """(facets, m): a stacked m-sphere grown from the boundary of the
    (m+1)-simplex by subdividing random facets, with shuffled int and str
    labels and facets in random order."""
    m = draw(st.integers(3, 5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = m + 2 + draw(st.integers(0, 10))
    labels = [v if rng.random() < 0.5 else f"v{v}" for v in rng.sample(range(100), n)]
    facets = [set(f) for f in itertools.combinations(labels[: m + 2], m + 1)]
    for w in labels[m + 2:]:
        sigma = facets.pop(rng.randrange(len(facets)))
        facets += [sigma - {x} | {w} for x in sigma]
    rng.shuffle(facets)
    return [tuple(rng.sample(sorted(f, key=str), len(f))) for f in facets], m


@settings(max_examples=60, deadline=None)
@given(stacked_spheres())
def test_reducer_decides_random_stacked_spheres(sphere):
    facets, m = sphere
    assert _pl_class(facets, m) == "sphere"


def _simplex_boundary_join(p, q):
    """The join of the boundaries of a (p-1)- and a (q-1)-simplex, a
    (p+q-3)-sphere on p + q vertices that is not stacked."""
    first = [tuple(v for v in range(1, p + 1) if v != x) for x in range(1, p + 1)]
    second = [tuple(v for v in range(101, 101 + q) if v != x) for x in range(101, 101 + q)]
    return [f + g for f in first for g in second]


@pytest.mark.parametrize("p,q", [(3, 3), (3, 5), (4, 4), (4, 5), (5, 5)])
def test_reducer_moves_larger_faces_on_joins_of_simplex_boundaries(p, q):
    """From the join of two 3-simplex boundaries, a 5-sphere with 16 facets
    on 8 vertices, only moves of a vertex (-5 facets), an edge (-3) and a
    triangle (-1) reach the 7 facets of the boundary of the 6-simplex, so
    the reducer must move a triangle there."""
    facets = _simplex_boundary_join(p, q)
    m = p + q - 3
    assert _pl_class(facets, m) == "sphere"
    assert _stacked_class(facets, m) is None
    assert fe.betti(fe.SimplicialComplex(facets), fe.GF2).is_sphere(m)


@st.composite
def small_3_complexes(draw):
    """A pure 3-complex on V = 6 or 7 vertices with 3V - 10 to 3V - 7
    facets, from the count of a stacked 3-sphere up, so that moves of
    vertices and of edges both run."""
    n = draw(st.sampled_from((6, 7)))
    pool = list(itertools.combinations(range(1, n + 1), 4))
    size = 3 * n - 10 + draw(st.integers(0, 3))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True))


@settings(max_examples=150, deadline=None)
@given(small_3_complexes())
def test_reducer_is_sound_on_random_complexes(facets):
    """Nearly all of these get stuck.  A decided one has the ranked homology
    of a 3-sphere over every field, and so do its vertex links of a 2-sphere."""
    if _pl_class(facets, 3) is None:
        return
    K = fe.SimplicialComplex(facets)
    for field in FIELDS:
        assert fe.betti(K, field).is_sphere(3)
        assert all(fe.betti(L, field).is_sphere(2) for L in _vertex_links(K))


# ---------------------------------------------------------------------------
# the reducer against the two certificates it replaced


def _realized():
    return [(f"{space}-{g1}-{g2}", fe.realize_space(space, g1, g2))
            for space, g1, g2 in (("cp2", 6, 8), ("s1xs3", 8, 20), ("s2xs2_sum2", 10, 25))]


ORACLE_INPUTS = [*INPUTS, *_realized()]

# input -> how many closed links of dimension >= 3 the duality certificate
# decides and the reducer leaves.  These get stuck where no facet-decreasing
# move applies: in the suspensions, at suspensions of spheres, and in the
# 2-neighborly (S^2xS^2)#(S^2xS^2), at the boundary of the 4-dimensional
# cross-polytope, 8 vertices each in 8 of the 16 facets
STUCK = {"s2xs2_two_neighborly": 1, "susp-cp2_9": 18, "susp-s2xs2_sum": 48}


def _closed_links(K):
    """(rho, facets of lk rho, m) for each face rho with m = dim K - |rho| >=
    3 whose link is a closed homology manifold: every face strictly
    containing rho has a sphere row."""
    rows = _link_census(_fresh(K), fe.RATIONALS)
    unclosed = {sub for row in rows if row.cls != "sphere"
                for j in range(1, len(row.face)) for sub in itertools.combinations(row.face, j)}
    return [(row.face, list(K.link(row.face).facets), K.dim - len(row.face)) for row in rows
            if K.dim - len(row.face) >= 3 and row.face not in unclosed]


@pytest.mark.parametrize("name,K", ORACLE_INPUTS, ids=[n for n, _ in ORACLE_INPUTS])
def test_reducer_certifies_what_either_old_certificate_certifies(name, K):
    """Every link that inverse 0-moves reduce, the reducer reduces.  Every
    closed link that the duality certificate decides, it decides too, but
    for the ones in ``STUCK``, which the collapse decides instead."""
    if not K.is_pure():
        return
    left = 0
    for rho, link, m in _closed_links(K):
        if _pl_class(link, m) is None:
            assert _stacked_class(link, m) is None, rho
            left += m in (3, 4) and _duality_class(link, m) == "sphere"
    assert left == STUCK.get(name, 0)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", REDUCER_INPUTS, ids=[n for n, _ in REDUCER_INPUTS])
def test_census_rows_without_stacked_certificates_are_equal(monkeypatch, name, K, field):
    """With every link that inverse 0-moves reduce left to the collapse and
    the ranks, and only the reducer's moves of larger faces certifying the
    rest, the census gives the certified rows."""
    certified = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_pl_class", lambda link, m: None if _stacked_class(link, m) else _pl_class(link, m))
    assert _link_census(_fresh(K), field) == certified
