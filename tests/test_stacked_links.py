"""The stacked-link rule of the census: inverse 0-moves reduce a stacked
m-sphere to the boundary of the (m+1)-simplex.

Every vertex link of a complex in Walkup's class is a stacked sphere, and
Kalai's criterion h_1 = h_2 recognizes a stacked sphere among homology
spheres of dimension >= 3.  So on Walkup's class the rule and the criterion
must agree.  The rule must never decide a link that is not a stacked sphere,
whatever its labels, and without it the census rows must stay the same.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum import homology
from faceenum.homology import _link_census, _stacked_class
from test_census import CERTIFIED, CLOSED_NON_SPHERES, FIELDS, INPUTS, _fresh, _suspension
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
def test_stacked_rule_agrees_with_kalai_on_walkup_class(name, make):
    K = make()
    for L in _vertex_links(K):
        assert _stacked_class(list(L.facets), K.dim - 1) == "sphere"
        assert fe.is_stacked_sphere(L)
    assert fe.in_walkup_class(K)


def test_no_vertex_link_of_cp2_is_stacked():
    K = fe.catalog("cp2_9").payload
    assert all(_stacked_class(list(L.facets), 3) is None for L in _vertex_links(K))
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


# (name, facets, m): none is a stacked m-sphere
NOT_STACKED = [
    ("bubble-on-a-stacked-ball", _bubble_on_a_stacked_ball(), 3),
    ("cross-polytope-4", list(itertools.product((1, 2), (3, 4), (5, 6), (7, 8))), 3),
    *((f"apex-susp-{name}", list(_suspension(K).link((100,)).facets), K.dim)
      for name, K in CLOSED_NON_SPHERES),
    ("two-stacked-3-spheres", _two_stacked_3_spheres(), 3),
    ("stacked-3-ball", list(fe.stacked_sphere(9, 4).facets[1:]), 3),
    *((f"mixed-cp2-link-{v}", list(L.facets), 3)
      for v, L in zip(range(1, 10), _vertex_links(_mixed_labels(fe.catalog("cp2_9").payload)))),
]


@pytest.mark.parametrize("name,facets,m", NOT_STACKED, ids=[n for n, *_ in NOT_STACKED])
def test_stacked_rule_leaves_other_links_undecided(name, facets, m):
    assert _stacked_class(facets, m) is None


def test_stacked_rule_decides_links_with_mixed_labels():
    """Half the labels are str; the reduction never compares two labels."""
    K = _mixed_labels(fe.stacked_sphere(12, 5))
    assert {type(v) for v in K.vertices} == {int, str}
    assert _stacked_class(list(K.facets), 4) == "sphere"
    assert all(_stacked_class(list(L.facets), 3) == "sphere" for L in _vertex_links(K))


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
def test_stacked_rule_decides_random_stacked_spheres(sphere):
    facets, m = sphere
    assert _stacked_class(facets, m) == "sphere"


@st.composite
def stacked_counts(draw):
    """A pure 3-complex on V = 6 or 7 vertices with F = 3V - 10 facets, the
    facet count of a stacked 3-sphere, so that the reduction runs."""
    n = draw(st.sampled_from((6, 7)))
    pool = list(itertools.combinations(range(1, n + 1), 4))
    return draw(st.lists(st.sampled_from(pool), min_size=3 * n - 10, max_size=3 * n - 10, unique=True))


@settings(max_examples=150, deadline=None)
@given(stacked_counts())
def test_stacked_rule_is_sound_past_the_count_gate(facets):
    """Nearly all of these get stuck.  A decided one has the ranked homology
    of a 3-sphere over every field, and so do its vertex links of a 2-sphere."""
    if _stacked_class(facets, 3) is None:
        return
    K = fe.SimplicialComplex(facets)
    for field in FIELDS:
        assert fe.betti(K, field).is_sphere(3)
        assert all(fe.betti(L, field).is_sphere(2) for L in _vertex_links(K))


CENSUS_INPUTS = [*INPUTS, *((n, K) for n, K in CERTIFIED if n not in dict(INPUTS))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", CENSUS_INPUTS, ids=[n for n, _ in CENSUS_INPUTS])
def test_census_rows_without_stacked_certificates_are_equal(monkeypatch, name, K, field):
    """With every reduction stuck, duality, the collapse and the ranks give
    the certified rows."""
    certified = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_stacked_class", lambda link, m: None)
    assert _link_census(_fresh(K), field) == certified
