"""The PL certificates that come before the census walk and before ranks.

A complex that bistellar moves reduce to the boundary of a simplex is a PL
sphere, and every face link of a PL sphere is again one.  So the census
certifies vertex links first, once per complex, and gives each face through
a certified vertex a sphere row with no link built; ``is_homology_sphere``
and ``manifold_report`` certify a whole stacked sphere before any rank; and
the Walkup predicates try the reducer before Kalai's criterion.  Each must
agree with the path it shortcuts, which the tests keep as their oracle.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import faceenum as fe
from faceenum import homology
from faceenum.errors import HypothesisNotMet
from faceenum.homology import _certified_vertices, _link_census
from test_census import (
    CERTIFIED, FIELDS, INPUTS, STAR_WALK_INPUTS, _assert_rows_match_star_walk, _fresh, _minus_facet, _spy,
    _str_labels, _suspension, _wedge, _without_vertex_certificate,
)
from test_stacked_links import stacked_spheres
from test_successor_edit import _mixed_labels

LABELS = (_fresh, _str_labels, _mixed_labels)

# (name, complex, the faces of its non-sphere rows, how many vertices are
# certified): the certificate decides only part of these, or nothing.  A
# base vertex of a suspension has the suspension of its link as its link:
# of a stacked sphere it reduces, of a vertex link of CP^2_9 it does not
PARTIAL = [
    ("kl13_2-facet", _minus_facet(fe.kuhnel_lassmann(13, 2), 0), "ball", 8),
    ("kl11-star", fe.kuhnel_lassmann(11, 2).closed_star((1,)), "ball", 1),
    ("wedge-4-spheres", _wedge(5), [(8,)], 14),
    ("susp-cp2_9", _suspension(fe.catalog("cp2_9").payload), [(100,), (101,)], 0),
    ("susp-kl12", _suspension(fe.kuhnel_lassmann(12, 2)), [(100,), (101,)], 12),
]
PARTIAL_LABELLED = [(f"{name}-{labels.__name__}", labels(K)) for name, K, *_ in PARTIAL for labels in LABELS]


# ---------------------------------------------------------------------------
# the vertex-first census


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", STAR_WALK_INPUTS, ids=[n for n, _ in STAR_WALK_INPUTS])
def test_census_rows_equal_the_star_walk_without_the_certificate(monkeypatch, name, K, field):
    _without_vertex_certificate(monkeypatch)
    _assert_rows_match_star_walk(K, field)


@pytest.mark.parametrize("certificate", (True, False), ids=("on", "off"))
@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", PARTIAL_LABELLED, ids=[n for n, _ in PARTIAL_LABELLED])
def test_partially_certified_rows_equal_the_star_walk(monkeypatch, name, K, field, certificate):
    if not certificate:
        _without_vertex_certificate(monkeypatch)
    _assert_rows_match_star_walk(K, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K,other,count", PARTIAL, ids=[n for n, *_ in PARTIAL])
def test_rows_the_certificate_leaves_come_from_the_rules(monkeypatch, name, K, other, count, field):
    """Only faces with no certified vertex reach the walk, and every row that
    is no sphere (the boundary, the wedge point, the apexes) is among them."""
    K = _fresh(K)
    certified = _certified_vertices(K)
    assert len(certified) == count
    walked = _spy(monkeypatch, "_link_row") + _spy(monkeypatch, "_collapsed_or_ranked_row")
    rows = _link_census(K, field)
    bad = [row.face for row in rows if row.cls != "sphere"]
    if other == "ball":
        assert {row.cls for row in rows} == {"sphere", "ball"}
    else:
        assert bad == other and {row.cls for row in rows if row.face in other} == {"bad"}
    assert all(certified.isdisjoint(rho) for rho in bad + walked)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ("cp2_9", "s2xs2_sum"))
def test_reducer_certifies_the_non_stacked_vertex_links_of_cp2_and_s2xs2(monkeypatch, name, field):
    """No vertex link of CP^2_9 or (S^2xS^2)#(S^2xS^2) is stacked, yet the
    reducer certifies each: the census builds no link, and collapses and
    ranks none."""
    K = _fresh(fe.catalog(name).payload)
    walked = [_spy(monkeypatch, c) for c in ("_link_row", "_collapsed_or_ranked_row", "_collapse_class")]
    monkeypatch.setattr(homology, "betti", lambda *args: pytest.fail("ranked"))
    rows = _link_census(K, field)
    assert _certified_vertices(K) == set(K.vertices)
    assert walked == [[]] * 3
    assert all(row == (row.face, "sphere", len(row.face) != K.dim) for row in rows)
    monkeypatch.undo()
    _assert_rows_match_star_walk(K, field)


def test_vertex_links_are_reduced_once_per_complex(monkeypatch):
    """Every vertex link of KL(19,4) is a stacked 7-sphere.  The censuses
    over three fields reduce each once in all, and share one tuple of rows."""
    K = _fresh(fe.kuhnel_lassmann(19, 4))
    reduced = _spy(monkeypatch, "_pl_class")
    censuses = [_link_census(K, field) for field in FIELDS]
    assert len(reduced) == len(K.vertices) == 19
    assert censuses[0] is censuses[1] is censuses[2]
    assert all(row.cls == "sphere" for row in censuses[0])


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_apex_link_of_the_suspended_cp2_is_left_and_bad(field):
    """The apex link is CP^2_9 itself, a closed 4-manifold with chi = 3: the
    reducer gets stuck on it, and the census still gives its bad row."""
    S = _fresh(_suspension(fe.catalog("cp2_9").payload))
    apex = list(S.link((100,)).facets)
    assert fe.euler_characteristic(fe.SimplicialComplex(apex)) == 3
    assert homology._pl_class(apex, 4) is None
    rows = {row.face: row for row in _link_census(S, field)}
    assert rows[(100,)] == ((100,), "bad", True) and rows[(101,)] == ((101,), "bad", True)


# ---------------------------------------------------------------------------
# the whole complex: stacked spheres before ranks


PURE_INPUTS = [*INPUTS, *CERTIFIED, *((name, K) for name, K, *_ in PARTIAL)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", PURE_INPUTS, ids=[n for n, _ in PURE_INPUTS])
def test_recognition_answers_are_bools(name, K, field):
    rep = fe.manifold_report(_fresh(K), field, require_connected=False)
    assert {type(rep.is_homology_manifold), type(rep.orientable), type(rep.closed)} == {bool}
    assert type(fe.is_homology_sphere(_fresh(K), field)) is bool


STACKED = [("stacked20_5", fe.stacked_sphere(20, 5)), ("stacked12_4", fe.stacked_sphere(12, 4)),
           ("mixed-stacked12_6", _mixed_labels(fe.stacked_sphere(12, 6)))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", STACKED, ids=[n for n, _ in STACKED])
def test_stacked_spheres_are_recognized_before_ranks(monkeypatch, name, K, field):
    """A stacked sphere is a homology sphere with no rank and no census, and
    closed with no top elimination."""
    K = _fresh(K)
    monkeypatch.setattr(homology, "betti", lambda *args: pytest.fail("ranked"))
    monkeypatch.setattr(homology, "_orientable", lambda *args: pytest.fail("eliminated"))
    assert fe.is_homology_sphere(K, field) is True
    assert K._link_censuses == {}
    rep = fe.manifold_report(K, field)
    assert (rep.is_homology_manifold, rep.orientable, rep.closed, rep.boundary) == (True, True, True, None)


@settings(max_examples=30, deadline=None)
@given(stacked_spheres())
def test_whole_complex_rule_agrees_with_ranks(sphere):
    facets, _ = sphere
    K = fe.SimplicialComplex(facets)
    for field in (fe.RATIONALS, fe.GF2):
        assert fe.is_homology_sphere(_fresh(K), field)
        assert fe.betti(K, field).is_sphere(K.dim)
        assert fe.manifold_report(_fresh(K), field) == _old_manifold_report(K, field)


def _old_manifold_report(K, field):
    with pytest.MonkeyPatch.context() as mp:
        _without_certificates(mp)
        return fe.manifold_report(_fresh(K), field)


def _without_certificates(monkeypatch):
    """Neither the whole complex nor a vertex link is tried first."""
    monkeypatch.setattr(homology, "_stacked_sphere", lambda K: False)
    _without_vertex_certificate(monkeypatch)


# ---------------------------------------------------------------------------
# the Walkup predicates: the rule first, Kalai's criterion as the oracle


def old_is_stacked_sphere(K, field):
    """Kalai's criterion h_1 = h_2 behind the closed-manifold gate."""
    if K.d < 4:
        raise HypothesisNotMet("criterion needs facet size d >= 4")
    if not fe.manifold_report(K, field).closed:
        raise HypothesisNotMet("criterion applies to closed homology manifolds")
    h = fe.h_vector(K)
    return h[1] == h[2]


def old_in_walkup_class(K, field):
    K.require_pure("Walkup class test")
    for v in K.vertices:
        try:
            if not old_is_stacked_sphere(K.link((v,)), field):
                return False
        except HypothesisNotMet as e:
            raise HypothesisNotMet(f"link of {v!r}: {e}") from e
    return True


def _outcome(predicate, K, field):
    try:
        return predicate(_fresh(K), field)
    except HypothesisNotMet as e:
        return type(e), str(e)


WALKUP_INPUTS = [
    *((f"kl{n}_{m}", fe.kuhnel_lassmann(n, m)) for n, m in ((11, 2), (13, 2), (15, 3), (19, 4))),
    ("mixed-kl15_3", _mixed_labels(fe.kuhnel_lassmann(15, 3))),
    *((f"stacked{n}_{d}", fe.stacked_sphere(n, d)) for n, d in ((9, 5), (20, 5), (12, 6), (12, 4))),
    ("cp2_9", fe.catalog("cp2_9").payload),
    ("s2xs2_sum", fe.catalog("s2xs2_sum").payload),
    ("kl13_2-facet", _minus_facet(fe.kuhnel_lassmann(13, 2), 0)),
    ("simplex5", fe.simplex(5)),
    ("simplex6", fe.simplex(6)),
    ("susp-kl12", _suspension(fe.kuhnel_lassmann(12, 2))),
]


@pytest.mark.parametrize("field", (fe.RATIONALS, fe.GF2), ids=str)
@pytest.mark.parametrize("name,K", WALKUP_INPUTS, ids=[n for n, _ in WALKUP_INPUTS])
def test_walkup_predicates_match_kalais_criterion(monkeypatch, name, K, field):
    """Same answers, and the same ``HypothesisNotMet`` messages, as the
    criterion alone, which runs here with every certificate off."""
    _without_certificates(monkeypatch)
    want = [_outcome(old_is_stacked_sphere, K, field), _outcome(old_in_walkup_class, K, field)]
    monkeypatch.undo()
    assert [_outcome(fe.is_stacked_sphere, K, field), _outcome(fe.in_walkup_class, K, field)] == want


def test_walkup_answers_cover_both_verdicts_and_the_raises():
    outcomes = {_outcome(fe.in_walkup_class, K, fe.RATIONALS) for _, K in WALKUP_INPUTS}
    assert {True, False} <= outcomes
    assert any(isinstance(o, tuple) and o[1].startswith("link of ") for o in outcomes)
