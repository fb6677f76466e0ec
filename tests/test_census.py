"""Differential tests: the link census against the per-face loops it replaced.

The oracle functions below are the recognition loops as they were before the
census: each builds every link again and stops at the first failure.  The
census-backed predicates must give the same verdicts, witnesses and
boundaries, over Q and over GF(2).
"""

from __future__ import annotations

import itertools
import random

import pytest

import faceenum as fe
from conftest import rp2_six
from faceenum.audit import _links_closed
from faceenum.catalog import s2xs2_two_neighborly
from faceenum.homology import _link_census

FIELDS = (fe.RATIONALS, fe.GF2)


# ---------------------------------------------------------------------------
# the oracle: the per-face loops


def old_link_class(K, rho, field):
    L = K.link(rho)
    b = fe.betti(L, field)
    if b.is_sphere(K.dim - len(rho)):
        return "sphere"
    if b.is_point():
        return "ball"
    return "bad"


def old_manifold_report(K, field):
    """(is_homology_manifold, boundary, witness), stopping at the first bad link."""
    boundary_faces = []
    for rho in K.faces():
        if not rho:
            continue
        cls = old_link_class(K, rho, field)
        if cls == "bad":
            return False, None, rho
        if cls == "ball":
            boundary_faces.append(rho)
    return True, fe.SimplicialComplex(boundary_faces) if boundary_faces else None, None


def old_is_homology_sphere(K, field):
    if not fe.betti(K, field).is_sphere(K.dim):
        return False
    for rho in K.faces():
        if not rho:
            continue
        if not fe.betti(K.link(rho), field).is_sphere(K.dim - len(rho)):
            return False
    return True


def old_is_semi_eulerian(K):
    for rho in K.faces():
        if not rho:
            continue
        if fe.euler_characteristic(K.link(rho)) != fe.sphere_euler(K.dim - len(rho)):
            return False
    return True


def old_links_closed(K, field, k):
    """Every k-face link is a homology manifold without boundary (the old
    links-of-links walk) and is connected (the rule the census adds)."""
    for rho in K.all_faces(k):
        L = K.link(rho)
        ok, boundary, _ = old_manifold_report(L, field)
        if not ok or boundary is not None or not L.is_connected():
            return False
    return True


# ---------------------------------------------------------------------------
# inputs


def _minus_facet(K, i):
    return fe.SimplicialComplex([f for j, f in enumerate(K.facets) if j != i])


def _handle(n, d, reverse=False):
    K = fe.stacked_sphere(n, d)
    s, t = K.facets[0], K.facets[-1]
    image = tuple(reversed(t)) if reverse else t
    return fe.handle_addition(K, s, t, dict(zip(s, image)))


def _wedge():
    A = fe.stacked_sphere(8, 4)
    return fe.SimplicialComplex(A.facets + A.relabel({v: v + 7 for v in A.vertices}).facets)


def _random_complexes(count, seed=20071017):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(2, 4)
        n = rng.randint(d + 1, d + 3)
        pool = list(itertools.combinations(range(1, n + 1), d))
        out.append(fe.SimplicialComplex(rng.sample(pool, rng.randint(1, min(len(pool), 9)))))
    return out


def _inputs():
    kl11, kl12 = fe.kuhnel_lassmann(11, 2), fe.kuhnel_lassmann(12, 2)
    rp2 = rp2_six()
    named = [
        ("cp2_9", fe.catalog("cp2_9").payload),
        ("s2xs2_sum", fe.catalog("s2xs2_sum").payload),
        ("s2xs2_two_neighborly", s2xs2_two_neighborly()),
        ("bipyramid", fe.catalog("bipyramid").payload[0]),
        ("kl11", kl11),
        ("kl12", kl12),
        ("kl11-facet", _minus_facet(kl11, 0)),
        ("kl12-facet", _minus_facet(kl12, 17)),
        ("kl11-star", kl11.closed_star((1,))),
        ("kl12-edge-star", kl12.closed_star((1, 2))),
        ("cp2-star", fe.catalog("cp2_9").payload.closed_star((5,))),
        ("torus-handle", _handle(12, 3)),
        ("klein-handle", _handle(12, 3, reverse=True)),
        ("s1xs2-handle", _handle(14, 4)),
        ("rp2", rp2),
        ("susp-rp2", rp2.join(fe.from_facets([[7], [8]]))),
        ("wedge", _wedge()),
        ("simplex", fe.simplex(4)),
        ("point", fe.SimplicialComplex([[1]])),
    ]
    named += [(f"random{i}", K) for i, K in enumerate(_random_complexes(40))]
    return named


INPUTS = _inputs()


def _fresh(K):
    """The same complex without any cached census."""
    return fe.SimplicialComplex(K.facets)


# ---------------------------------------------------------------------------
# the comparisons


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_manifold_report_matches_oracle(name, K, field):
    ok, boundary, witness = old_manifold_report(K, field)
    rep = fe.manifold_report(_fresh(K), field, require_connected=False)
    assert rep.is_homology_manifold == ok
    assert rep.witness == witness
    assert rep.boundary == boundary


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_sphere_and_links_closed_match_oracle(name, K, field):
    assert fe.is_homology_sphere(_fresh(K), field) == old_is_homology_sphere(K, field)
    for k in (0, 1):
        if k <= K.dim:
            assert _links_closed(_fresh(K), field, k) == old_links_closed(K, field, k)


@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_semi_eulerian_matches_oracle_from_any_census(name, K):
    want = old_is_semi_eulerian(K)
    assert fe.is_semi_eulerian(_fresh(K)) == want  # builds the census over Q
    warmed = _fresh(K)
    fe.manifold_report(warmed, fe.GF2, require_connected=False)  # caches the GF(2) census
    assert fe.is_semi_eulerian(warmed) == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_census_rows_follow_faces_and_carry_link_euler(name, K, field):
    rows = _link_census(_fresh(K), field)
    assert [row.face for row in rows] == [rho for rho in K.faces() if rho]
    for row in rows:
        L = K.link(row.face)
        assert row.connected == (fe.betti(L, field).get(0) == 0)
