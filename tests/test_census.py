"""Differential tests: the link census against the per-face loops it replaced,
and against the star walk it replaced.

The oracle functions below are the recognition loops as they were before the
census: each builds every link again and stops at the first failure.  The
census-backed predicates must give the same verdicts, witnesses and
boundaries, over Q and over GF(2).  ``star_walk_rows`` is the census as it
was before every link was built in one pass over the facets: it takes each
star from a dict or from ``K.facets_containing`` and filters the link out of
it, and its rows must equal the census's, tuple for tuple.  It keeps the
duality certificate, and ``_stacked_class`` keeps the inverse 0-move rule:
the two certificates that the bistellar reducer ``_pl_class`` replaced.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from conftest import rp2_six
from faceenum import homology
from faceenum.audit import _links_closed
from faceenum.catalog import s2xs2_two_neighborly
from faceenum.homology import (
    _collapsed_or_ranked_row, _components, _graph_betti, _link_census, _link_row, _LinkRow, _pl_class,
)
from test_successor_edit import _mixed_labels

FIELDS = (fe.RATIONALS, fe.GF2, fe.FieldSpec(3))


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
# the oracle: the star walk


def star_walk_rows(K, field):
    """The census walk.  Every nonempty face is classified from its star,
    from the largest down, so the rows above a face exist when it is
    classified; the rows come out in ``K.faces()`` order.

    When K is pure, a facet or a ridge is classified by its star size alone,
    with no link built: a facet's link is S^-1, and a ridge's link is one
    point per facet on it, a ball for one point, S^0 for two and bad for
    more.  Any other link of dimension <= 1 is a graph, and its homology is
    counting.  When K is pure and no row above rho is bad, the 2-dimensional
    link lk rho is a surface, possibly with boundary: each of its edges lies
    in one or two triangles (the ridge rows) and each vertex link is a path
    or a cycle.  Connectivity, chi and the boundary then decide it; only RP^2
    depends on the field.  Any other 2-dimensional link is ranked.  When K
    is pure and every row above rho is a sphere, a link of dimension 3 or 4
    is a closed homology manifold and gets the duality certificate.  Links
    it does not decide are collapsed, and ranked when the collapse gets stuck.
    """
    d = K.dim
    low = max(d - 2, 1)
    stars: dict = {}  # face with >= low vertices -> the facets containing it
    for f in K.facets:
        for k in range(low, len(f) + 1):
            for s in itertools.combinations(f, k):
                stars.setdefault(s, []).append(f)
    faces = [rho for rho in K.faces() if rho]
    small = sorted((rho for rho in faces if len(rho) < low), key=len, reverse=True)
    pure = K.is_pure()
    surfaces = pure and d - 2 >= 1
    spoiled = set()  # faces of size d - 2 below a bad row
    unclosed = set()  # faces of size d - 3 or d - 4 below a ball or bad row
    rows = {}
    for rho in itertools.chain(sorted(stars, key=len, reverse=True), small):
        star = stars[rho] if len(rho) >= low else K.facets_containing(rho)
        if pure and len(rho) > d:  # a facet
            row = _LinkRow(rho, "sphere", True)
        elif pure and len(rho) == d:  # a ridge
            n = len(star)
            row = _LinkRow(rho, "ball" if n == 1 else "sphere" if n == 2 else "bad", n == 1)
        elif surfaces and len(rho) == d - 2 and rho not in spoiled:
            row = _LinkRow(rho, *_star_walk_surface_class(_star_link(rho, star), field))
        else:
            link = _star_link(rho, star)
            m = d - len(rho)
            if max(map(len, link)) <= 2:
                row = _link_row(rho, _graph_betti(link, field), d)
            elif pure and m in (3, 4) and rho not in unclosed and _duality_class(link, m):
                row = _LinkRow(rho, "sphere", True)
            else:
                row = _collapsed_or_ranked_row(rho, link, d, field)
        if surfaces and row.cls == "bad" and len(rho) > d - 2:
            spoiled.update(itertools.combinations(rho, d - 2))
        if pure and row.cls != "sphere":
            for k in (d - 3, d - 4):
                if 0 < k < len(rho):
                    unclosed.update(itertools.combinations(rho, k))
        rows[rho] = row
    return tuple(rows[rho] for rho in faces)


def _star_link(rho, star):
    """The facets of lk rho, from the facets containing rho."""
    rs = set(rho)
    return [tuple(v for v in f if v not in rs) for f in star]


def _star_walk_surface_class(triangles, field):
    """(class, connected) of a link given by its triangles, when it is a
    surface, possibly with boundary: no row above its face is bad."""
    edges: dict = {}
    for a, b, c in triangles:
        for e in ((a, b), (a, c), (b, c)):
            edges[e] = edges.get(e, 0) + 1
    vertices = {v for t in triangles for v in t}
    components = _components(vertices, edges)
    if components > 1:
        return "bad", False
    chi = len(vertices) - len(edges) + len(triangles)
    if 1 in edges.values():  # with boundary: only the disk is acyclic
        return ("ball" if chi == 1 else "bad"), True
    if chi == 2:
        return "sphere", True
    if chi == 1:  # RP^2: acyclic unless the field has characteristic 2
        return ("bad" if field.p == 2 else "ball"), True
    return "bad", True


# ---------------------------------------------------------------------------
# the oracle: the two certificates the reducer replaced


def _stacked_class(link: list, m: int) -> str | None:
    """"sphere" when inverse 0-moves reduce a pure m-complex, given by its
    facets, to the boundary of the (m+1)-simplex; None when they do not.

    A vertex w in exactly m + 1 facets whose union minus w is an m-face
    sigma, not a facet, has star w * d(sigma); trading that star for sigma
    undoes a stellar subdivision, a PL homeomorphism.  So ending at m + 2
    vertices proves a stacked m-sphere, a sphere over every field and
    connected, with no other row read.  A move takes m facets and one vertex,
    so only F = m V - (m + 2)(m - 1) ends there, with m + 2 facets left.
    Vertices are bits in first-seen order: no two labels are ever compared.
    """
    order = dict.fromkeys(v for f in link for v in f)
    if len(link) != m * len(order) - (m + 2) * (m - 1):
        return None
    bit = {v: 1 << i for i, v in enumerate(order)}
    star: dict = {b: set() for b in bit.values()}  # vertex bit -> its facets
    for f in link:
        x = sum(map(bit.__getitem__, f))  # distinct bits: the sum is the union
        for v in f:
            star[bit[v]].add(x)
    queue = [w for w, s in star.items() if len(s) == m + 1]
    while queue and len(star) > m + 2:
        w = queue.pop()
        around = star.get(w, ())
        sigma = 0
        for x in around:
            sigma |= x
        sigma ^= w
        if len(around) != m + 1 or sigma.bit_count() != m + 1 or sigma in star[sigma & -sigma]:
            continue
        del star[w]
        r = sigma
        while r:
            b = r & -r
            r ^= b
            s = star[b]
            s -= around
            s.add(sigma)
            if len(s) == m + 1:
                queue.append(b)
    return "sphere" if len(star) == m + 2 else None


def _duality_class(link: list, m: int) -> str | None:
    """"sphere" when the 2-skeleton certifies a closed homology m-manifold,
    m = 3 or 4, given by its facets, to be a homology m-sphere over every
    field; None when it does not.

    The link L is connected and H_1(L; Z) = 0 when a spanning tree of its
    graph reaches every vertex and every edge is then known to bound: an edge
    of the tree is known, and a triangle with two known edges makes its third
    edge known.  Then L is orientable over every field, its orientation
    character factoring through H_1(L; Z), and Poincare duality gives
    b_{m-1} = b_1 = 0.  For m = 3 that is S^3.  For m = 4 the one Betti
    number left is b_2 = chi(L) - 2, and chi = 2 is needed (CP^2 has 3).
    Edges are the ordered pairs of the sorted link facets, so no two labels
    are ever compared.
    """
    triangles = dict.fromkeys(t for f in link for t in itertools.combinations(f, 3))
    sides: dict = {}  # edge -> the other two edges of each triangle on it
    for a, b, c in triangles:
        ab, ac, bc = (a, b), (a, c), (b, c)
        sides.setdefault(ab, []).append((ac, bc))
        sides.setdefault(ac, []).append((ab, bc))
        sides.setdefault(bc, []).append((ab, ac))
    adjacent: dict = {}
    for e in sides:
        adjacent.setdefault(e[0], []).append((e[1], e))
        adjacent.setdefault(e[1], []).append((e[0], e))
    root = link[0][0]
    reached = {root}
    queue = [root]
    known = set()  # the tree edges, then every edge they make known
    for v in queue:  # breadth first
        for w, e in adjacent[v]:
            if w not in reached:
                reached.add(w)
                queue.append(w)
                known.add(e)
    if len(reached) < len(adjacent):
        return None
    pending = list(known)
    while pending:
        for x, y in sides[pending.pop()]:
            if x in known:
                if y not in known:
                    known.add(y)
                    pending.append(y)
            elif y in known:
                known.add(x)
                pending.append(x)
    if len(known) < len(sides):
        return None
    if m == 4:
        # each tetrahedron lies in two 4-simplices (the ridge rows), so
        # f_3 = 5 f_4 / 2 and chi = f_0 - f_1 + f_2 - 3 f_4 / 2
        if len(adjacent) - len(sides) + len(triangles) - 3 * len(link) // 2 != 2:
            return None
    return "sphere"


# ---------------------------------------------------------------------------
# inputs


def _minus_facet(K, i):
    return fe.SimplicialComplex([f for j, f in enumerate(K.facets) if j != i])


def _handle(n, d, reverse=False):
    K = fe.stacked_sphere(n, d)
    s, t = K.facets[0], K.facets[-1]
    image = tuple(reversed(t)) if reverse else t
    return fe.handle_addition(K, s, t, dict(zip(s, image)))


def _wedge(d=4):
    A = fe.stacked_sphere(8, d)
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


# The 8-vertex dunce hat: acyclic, and every edge lies in two or three
# triangles, so no collapse can start on it or on its cone and suspension.
DUNCE_HAT = [
    [1, 2, 4], [1, 2, 7], [1, 2, 8], [1, 3, 4], [1, 3, 5], [1, 3, 6], [1, 5, 6],
    [1, 7, 8], [2, 3, 5], [2, 3, 7], [2, 3, 8], [2, 4, 5], [3, 4, 8], [3, 6, 7],
    [4, 5, 6], [4, 6, 8], [6, 7, 8],
]

# 2-complexes for cones and suspensions: the links of the surfaces reach the
# counting rule, the next two force a collapse or the ranks, and the dunce
# hat's apex links force the ranks
SURFACES = {
    "moebius": [[1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 1], [5, 1, 2]],
    "annulus": [[1, 2, 4], [2, 4, 5], [2, 3, 5], [3, 5, 6], [1, 3, 6], [1, 4, 6]],
    "rp2": rp2_six().facets,
    "bowtie": [[1, 2, 3], [1, 4, 5]],
    "three-triangle-edge": [[1, 2, 3], [1, 2, 4], [1, 2, 5]],
    "dunce-hat": DUNCE_HAT,
}


CLOSED_NON_SPHERES = [
    ("cp2_9", fe.catalog("cp2_9").payload),
    ("s2xs2_sum", fe.catalog("s2xs2_sum").payload),
    ("s1xs2-handle", _handle(14, 4)),
    ("kl11", fe.kuhnel_lassmann(11, 2)),
]


def _cone(K):
    return K.join(fe.from_facets([[100]]))


def _suspension(K):
    return K.join(fe.from_facets([[100], [101]]))


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
    named.append(("kl15_3", fe.kuhnel_lassmann(15, 3)))
    # closed apex links that are not spheres: chi = 3 and chi = 6, then
    # H_1 = Z in dimension 3 and in dimension 4
    for name, K in CLOSED_NON_SPHERES:
        named.append((f"susp-{name}", _suspension(K)))
    for name, facets in SURFACES.items():
        named.append((f"cone-{name}", _cone(fe.from_facets(facets))))
        if name != "rp2":  # susp-rp2 is above
            named.append((f"susp-{name}", _suspension(fe.from_facets(facets))))
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
    assert fe.is_semi_eulerian(_fresh(K)) == want  # counts; builds no census
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


def _assert_rows_match_oracle(K, field):
    rows = _link_census(_fresh(K), field)
    assert [row.face for row in rows] == [rho for rho in K.faces() if rho]
    for row in rows:
        b = fe.betti(K.link(row.face), field)
        assert (row.cls, row.connected) == (old_link_class(K, row.face, field), b.get(0) == 0), row


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_census_rows_match_ranked_links(name, K, field):
    _assert_rows_match_oracle(K, field)


@st.composite
def pure_complexes(draw, sizes=(3, 4), over=_cone):
    """A random pure complex with facets of one of the sizes, or a cone or
    suspension over one.  With size + 1 vertices it is the boundary of a
    simplex or part of it."""
    size = draw(st.sampled_from(sizes))
    n = draw(st.integers(size + 1, size + 4))
    pool = list(itertools.combinations(range(1, n + 1), size))
    facets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    K = fe.SimplicialComplex(facets)
    return over(K) if draw(st.booleans()) else K


@settings(max_examples=60, deadline=None)
@given(pure_complexes(), st.sampled_from(FIELDS))
def test_census_rows_match_ranked_links_on_random_complexes(K, field):
    _assert_rows_match_oracle(K, field)


@settings(max_examples=60, deadline=None)
@given(pure_complexes((4, 5), _suspension), st.sampled_from(FIELDS))
def test_census_rows_match_ranked_links_on_random_3_and_4_complexes(K, field):
    _assert_rows_match_oracle(K, field)


NON_PURE = {
    # facets with fewer than dim K - 2 vertices, added to a 4-sphere: the
    # link of 20 is the (-1)-sphere, of 21 a point and of 23 an edge; the
    # link of 30 is a point and an edge, and that of 1 a 3-sphere and a point
    "small-facets": [[20], [21, 22], [23, 24, 25]],
    "hanging-edge-and-triangle": [[1, 30], [30, 31, 32]],
}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", NON_PURE)
def test_census_rows_match_ranked_links_on_non_pure_complexes(name, field):
    K = fe.SimplicialComplex([*fe.stacked_sphere(8, 5).facets, *NON_PURE[name]])
    _assert_rows_match_oracle(K, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_census_rows_without_collapse_certificates_are_equal(monkeypatch, name, K, field):
    """With every collapse inconclusive, the ranks give the certified rows."""
    certified = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_collapse_class", lambda link, m: None)
    assert _link_census(_fresh(K), field) == certified


def _collapsed_dims(monkeypatch, K, field=fe.RATIONALS):
    """The census rows of K, and the dimension m of each link collapsed."""
    dims = []
    real = homology._collapse_class

    def counting_collapse(link, m):
        dims.append(m)
        return real(link, m)

    monkeypatch.setattr(homology, "_collapse_class", counting_collapse)
    rows = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_collapse_class", real)
    return rows, dims


def _reduced_dims(monkeypatch) -> list:
    """The dimension m of each link that ``_pl_class`` decides, from now
    on."""
    dims = []

    def counting_reducer(link, m):
        cls = _pl_class(link, m)
        if cls is not None:
            dims.append(m)
        return cls

    monkeypatch.setattr(homology, "_pl_class", counting_reducer)
    return dims


CERTIFIED = [
    ("kl13_2", fe.kuhnel_lassmann(13, 2)),
    ("kl15_3", fe.kuhnel_lassmann(15, 3)),
    ("stacked20_5", fe.stacked_sphere(20, 5)),
]


REDUCER_INPUTS = [*INPUTS, *((n, K) for n, K in CERTIFIED if n not in dict(INPUTS))]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", REDUCER_INPUTS, ids=[n for n, _ in REDUCER_INPUTS])
def test_census_rows_without_the_reducer_are_equal(monkeypatch, name, K, field):
    """With every bistellar reduction stuck, no vertex is certified and the
    collapse and the ranks give the certified rows."""
    certified = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_pl_class", lambda link, m: None)
    assert _link_census(_fresh(K), field) == certified


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_census_rows_without_duality_certificates_are_equal(monkeypatch, name, K, field):
    """With the reducer cut back to the inverse 0-move rule, so that no move
    of an edge or larger face certifies what the duality certificate did,
    the collapse and the ranks give the certified rows."""
    certified = _link_census(_fresh(K), field)
    monkeypatch.setattr(homology, "_pl_class", _stacked_class)
    assert _link_census(_fresh(K), field) == certified


def _without_vertex_certificate(monkeypatch):
    """From now on the census tries no vertex link first, so every face goes
    through the walk's rules."""
    monkeypatch.setattr(homology, "_certified_vertices", lambda K: None)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", CERTIFIED, ids=[n for n, _ in CERTIFIED])
def test_census_collapses_no_closed_link_of_dimension_3_or_4(monkeypatch, name, K, field):
    """These manifolds lie in Walkup's class, so every link of dimension 3
    or more is a stacked sphere.  Without the vertex certificate, the walk's
    reducer certifies each of them before a collapse is tried.  No link is
    collapsed: not even the 15 five-dimensional vertex links of KL(15,3)."""
    _without_vertex_certificate(monkeypatch)
    decided = _reduced_dims(monkeypatch)
    rows, dims = _collapsed_dims(monkeypatch, K, field)
    assert all(row.cls == "sphere" for row in rows)
    assert dims == []
    assert len(decided) == sum(K.dim - len(row.face) >= 3 for row in rows)
    assert decided.count(5) == (15 if name == "kl15_3" else 0)


# The number of links of each dimension that the census of the suspension
# collapses.  The two apex links are the only ones of kl11 and the handle; on
# the suspensions of CP^2_9 and (S^2xS^2)#(S^2xS^2) the reducer also gets
# stuck on some sphere links (see STUCK in test_stacked_links.py).
APEX_COLLAPSES = {"cp2_9": {3: 9, 4: 11}, "s2xs2_sum": {3: 36, 4: 14}, "s1xs2-handle": {3: 2}, "kl11": {4: 2}}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", CLOSED_NON_SPHERES, ids=[n for n, _ in CLOSED_NON_SPHERES])
def test_suspended_closed_manifolds_report_the_apex(monkeypatch, name, K, field):
    """The apex link is closed and no sphere: the reducer gets stuck, the
    collapse gets stuck, and the ranks find it bad.  The reducer may get
    stuck on a sphere link too, such as the suspension of an octahedron,
    which no facet-decreasing move reaches; the collapse decides those, so
    only the two apex links are ranked."""
    S = _suspension(K)
    ranked, real = [], homology.betti
    monkeypatch.setattr(homology, "betti", lambda L, field: ranked.append(L) or real(L, field))
    rows, dims = _collapsed_dims(monkeypatch, S, field)
    assert [row.face for row in rows if row.cls == "bad"] == [(100,), (101,)]
    assert ranked == [S.link((100,)), S.link((101,))]
    assert {m: dims.count(m) for m in set(dims)} == APEX_COLLAPSES[name]
    rep = fe.manifold_report(_fresh(S), field)
    assert not rep.is_homology_manifold and rep.witness == (100,)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_duality_certificate_on_mixed_labels(monkeypatch, field):
    """Half the labels are str.  The certificate reads edges off sorted link
    facets and never compares an int label with a str label."""
    K = _mixed_labels(fe.kuhnel_lassmann(11, 2))
    rows, dims = _collapsed_dims(monkeypatch, K, field)
    assert dims == [] and all(row.cls == "sphere" for row in rows)
    _assert_rows_match_oracle(K, field)


@st.composite
def non_pure_complexes(draw):
    """A random complex whose facets may have different sizes."""
    n = draw(st.integers(4, 7))
    face = st.lists(st.integers(1, n), min_size=1, max_size=5, unique=True)
    return fe.SimplicialComplex(draw(st.lists(face, min_size=2, max_size=8)))


@settings(max_examples=80, deadline=None)
@given(non_pure_complexes(), st.sampled_from(FIELDS))
def test_census_rows_match_ranked_links_on_random_non_pure_complexes(K, field):
    _assert_rows_match_oracle(K, field)


STAR_SIZED = [("kl13_2", fe.kuhnel_lassmann(13, 2)), ("stacked20_5", fe.stacked_sphere(20, 5))]

# the classifiers that take a link's facets first, and those that take rho
LINK_CLASSIFIERS = ("_one_cycle", "_closed_surface_class", "_surface_class", "_pl_class",
                    "_collapse_class", "_graph_betti")
FACE_CLASSIFIERS = ("_link_row", "_collapsed_or_ranked_row")


def _spy(monkeypatch, name):
    """The first arguments, as tuples, of each call to a classifier."""
    calls, real = [], getattr(homology, name)

    def spy(link, *args):
        calls.append(tuple(link))
        return real(link, *args)

    monkeypatch.setattr(homology, name, spy)
    return calls


@pytest.mark.parametrize("name,K", STAR_SIZED, ids=[n for n, _ in STAR_SIZED])
def test_census_builds_no_link_of_a_facet_or_a_ridge(monkeypatch, name, K):
    """In a pure complex the star size alone gives the rows of the facets
    (dim K + 1 vertices) and the ridges (dim K vertices): no classifier sees
    them.  Every link comes out of the pass over the facets, so the census
    never asks K for the facets containing a face.  The vertex certificate
    is off, or it would leave the walk no link to classify."""
    K = _fresh(K)
    _without_vertex_certificate(monkeypatch)
    calls = {classifier: _spy(monkeypatch, classifier) for classifier in LINK_CLASSIFIERS + FACE_CLASSIFIERS}
    monkeypatch.setattr(fe.SimplicialComplex, "facets_containing", lambda self, rho: pytest.fail("asked for a star"))
    rows = _link_census(K, fe.RATIONALS)
    # a link facet of a face rho has dim K + 1 - |rho| vertices
    sizes = [K.dim + 1 - len(link[0]) for c in LINK_CLASSIFIERS for link in calls[c]]
    sizes += [len(rho) for c in FACE_CLASSIFIERS for rho in calls[c]]
    assert sizes and max(sizes) < K.dim
    assert sum(len(row.face) >= K.dim for row in rows) == K.f_vector[K.dim] + K.f_vector[K.dim + 1]
    monkeypatch.undo()
    _assert_rows_match_oracle(K, fe.RATIONALS)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_census_certifies_the_vertex_links_of_kl15_3_and_builds_no_link(monkeypatch, field):
    """Every vertex link of KL(15,3) is a stacked 5-sphere.  The reducer
    takes each of the 15 down once, and then every row follows from the size
    of its face: no other link is reduced, and no classifier sees a link."""
    K = _fresh(fe.kuhnel_lassmann(15, 3))
    reduced = []

    def counting_reducer(link, m):
        cls = _pl_class(link, m)
        reduced.append((m, cls))
        return cls

    monkeypatch.setattr(homology, "_pl_class", counting_reducer)
    others = [c for c in LINK_CLASSIFIERS + FACE_CLASSIFIERS if c != "_pl_class"]
    calls = {classifier: _spy(monkeypatch, classifier) for classifier in others}
    rows = _link_census(K, field)
    assert reduced == [(5, "sphere")] * 15
    assert all(c == [] for c in calls.values())
    assert [row.face for row in rows] == [rho for rho in K.faces() if rho]
    assert all(row == (row.face, "sphere", len(row.face) != K.dim) for row in rows)
    monkeypatch.undo()
    _assert_rows_match_star_walk(K, field)


# ---------------------------------------------------------------------------
# the census against the star walk it replaced


def _assert_rows_match_star_walk(K, field):
    assert _link_census(_fresh(K), field) == star_walk_rows(_fresh(K), field)


def _str_labels(K):
    return K.relabel({v: f"v{v}" for v in K.vertices})


# INPUTS holds the suspensions of CLOSED_NON_SPHERES
STAR_WALK_INPUTS = [
    *INPUTS,
    *CERTIFIED,
    *((f"non-pure-{name}", fe.SimplicialComplex([*fe.stacked_sphere(8, 5).facets, *facets]))
      for name, facets in NON_PURE.items()),
    *((f"kl{n}_3-{labels.__name__}", labels(fe.kuhnel_lassmann(n, 3)))
      for n in (15, 17) for labels in (_fresh, _str_labels, _mixed_labels)),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", STAR_WALK_INPUTS, ids=[n for n, _ in STAR_WALK_INPUTS])
def test_census_rows_equal_the_star_walk(name, K, field):
    _assert_rows_match_star_walk(K, field)


@settings(max_examples=60, deadline=None)
@given(pure_complexes(), st.sampled_from(FIELDS))
def test_census_rows_equal_the_star_walk_on_random_complexes(K, field):
    _assert_rows_match_star_walk(K, field)


@settings(max_examples=60, deadline=None)
@given(pure_complexes((4, 5), _suspension), st.sampled_from(FIELDS))
def test_census_rows_equal_the_star_walk_on_random_3_and_4_complexes(K, field):
    _assert_rows_match_star_walk(K, field)


@settings(max_examples=80, deadline=None)
@given(non_pure_complexes(), st.sampled_from(FIELDS))
def test_census_rows_equal_the_star_walk_on_random_non_pure_complexes(K, field):
    _assert_rows_match_star_walk(K, field)


# ---------------------------------------------------------------------------
# the cycle rule and the closed-surface rule


def _octahedron(a, b, c):
    """The boundary of the octahedron with antipodal vertex pairs a, b, c."""
    return fe.from_facets(itertools.product(a, b, c))


# the 7-vertex torus: every pair of its vertices is an edge
TORUS7 = [[i % 7 + 1, (i + j) % 7 + 1, (i + 3) % 7 + 1] for i in range(7) for j in (1, 2)]


def _census_row(K, field, rho):
    return next(row for row in _link_census(_fresh(K), field) if row.face == rho)


def _forbid(monkeypatch, *names):
    for name in names:
        monkeypatch.setattr(homology, name, lambda *args, name=name: pytest.fail(f"{name} called"))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cycle_rule_finds_two_octahedra_glued_at_a_vertex(monkeypatch, field):
    """Every edge lies in two triangles, so the link of the shared vertex,
    two 4-cycles, is decided by the walk: bad and not connected."""
    K = fe.SimplicialComplex([*_octahedron((1, 2), (3, 4), (5, 6)).facets,
                              *_octahedron((1, 7), (8, 9), (10, 11)).facets])
    _assert_rows_match_star_walk(K, field)
    _assert_rows_match_oracle(K, field)
    _forbid(monkeypatch, "_graph_betti", "betti")
    assert _census_row(K, field, (1,)) == ((1,), "bad", False)
    assert [row.face for row in _link_census(_fresh(K), field) if row.cls != "sphere"] == [(1,)]
    rep = fe.manifold_report(_fresh(K), field)
    assert not rep.is_homology_manifold and rep.witness == (1,)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closed_surface_rule_finds_a_disconnected_apex_link(monkeypatch, field):
    """The apex link, an octahedron and a disjoint 7-vertex torus, is closed
    with chi = 2 + 0 = 2, yet bad: the union-find finds two components."""
    base = fe.SimplicialComplex([*_octahedron((1, 2), (3, 4), (5, 6)).facets,
                                 *(tuple(v + 10 for v in t) for t in TORUS7)])
    K = _cone(base)
    assert fe.euler_characteristic(base) == 2
    _assert_rows_match_star_walk(K, field)
    _assert_rows_match_oracle(K, field)
    _forbid(monkeypatch, "_collapse_class", "betti")
    closed = _spy(monkeypatch, "_closed_surface_class")
    assert _census_row(K, field, (100,)) == ((100,), "bad", False)
    assert closed == [K.link((100,)).facets]  # the base is the boundary


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_closed_surface_rule_decides_rp2_by_the_field(monkeypatch, field):
    """The apex link of the cone over RP^2 is closed with chi = 1: bad over
    GF(2), where b_1 = b_2 = 1, and acyclic, a ball, over Q and GF(3)."""
    K = _cone(rp2_six())
    _assert_rows_match_star_walk(K, field)
    _assert_rows_match_oracle(K, field)
    _forbid(monkeypatch, "_collapse_class", "betti")
    closed = _spy(monkeypatch, "_closed_surface_class")
    assert _census_row(K, field, (100,)) == ((100,), "bad" if field.p == 2 else "ball", True)
    assert closed == [K.link((100,)).facets]


def test_semi_eulerian_builds_no_census():
    K = _fresh(fe.kuhnel_lassmann(13, 2))
    assert fe.is_semi_eulerian(K) and not fe.is_eulerian(K)
    assert K._link_censuses == {}


# (name, complex, the classes of its census rows, semi-Eulerian); the link of
# the wedge point is two spheres, bad either way, and its chi is that of one
# sphere only in odd dimension: two 3-spheres in the wedge of 4-spheres
SEMI_EULERIAN_READS = [
    ("wedge", _wedge(), {"sphere", "bad"}, False),
    ("wedge-4-spheres", _wedge(5), {"sphere", "bad"}, True),
    ("kl11-facet", _minus_facet(fe.kuhnel_lassmann(11, 2), 0), {"sphere", "ball"}, False),
    ("kl11", fe.kuhnel_lassmann(11, 2), {"sphere"}, True),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K,classes,want", SEMI_EULERIAN_READS, ids=[n for n, *_ in SEMI_EULERIAN_READS])
def test_semi_eulerian_read_from_the_census_equals_the_count(monkeypatch, name, K, classes, want, field):
    assert fe.is_semi_eulerian(_fresh(K)) == want  # counted: no census cached
    warmed = _fresh(K)
    assert {row.cls for row in _link_census(warmed, field)} == classes
    if "bad" not in classes:  # the census answers; the faces are not counted
        monkeypatch.setattr(fe.SimplicialComplex, "faces", lambda self: pytest.fail("counted"))
    assert fe.is_semi_eulerian(warmed) == want


def test_semi_eulerian_reads_any_field_census_without_bad_rows(monkeypatch):
    """Over GF(2) the suspended RP^2 has bad rows; its Q census has none."""
    S = _fresh(rp2_six().join(fe.from_facets([[7], [8]])))
    want = old_is_semi_eulerian(S)
    _link_census(S, fe.GF2)
    _link_census(S, fe.RATIONALS)
    monkeypatch.setattr(fe.SimplicialComplex, "faces", lambda self: pytest.fail("counted"))
    assert fe.is_semi_eulerian(S) == want


# (name, complex, links the census ranks over Q)
RANKED = [
    ("kl15_3", fe.kuhnel_lassmann(15, 3), 0),
    ("kl13_2", fe.kuhnel_lassmann(13, 2), 0),
    ("stacked60_5", fe.stacked_sphere(60, 5), 0),
    ("cp2_9", fe.catalog("cp2_9").payload, 0),
    ("cone-moebius", _cone(fe.from_facets(SURFACES["moebius"])), 0),
    ("cone-three-triangle-edge", _cone(fe.from_facets(SURFACES["three-triangle-edge"])), 0),
    # the apex links (dunce hats) and the suspended links of the three
    # vertices on the dunce hat's singular edge
    ("susp-dunce-hat", _suspension(fe.from_facets(DUNCE_HAT)), 5),
    # the two apex links of each suspended closed manifold
    *((f"susp-{name}", _suspension(K), 2) for name, K in CLOSED_NON_SPHERES),
]


@pytest.mark.parametrize("name,K,ranked", RANKED, ids=[n for n, _, _ in RANKED])
def test_census_ranks_only_links_it_cannot_count(monkeypatch, name, K, ranked):
    """Only the links that neither counting nor a collapse decides are
    ranked: the count of ``betti`` calls inside the census is exact."""
    calls = []
    real = homology.betti

    def counting_betti(L, field=fe.RATIONALS):
        calls.append(L)
        return real(L, field)

    monkeypatch.setattr(homology, "betti", counting_betti)
    _link_census(_fresh(K), fe.RATIONALS)
    assert len(calls) == ranked


_HASH_SEED_SCRIPT = """
import json
import faceenum as fe
from faceenum import homology
ranked = []
real = homology.betti

def counting_betti(L, field=fe.RATIONALS):
    ranked.append(L)
    return real(L, field)

homology.betti = counting_betti
out = []
for K in (fe.kuhnel_lassmann(13, 2), fe.from_facets(%r).join(fe.from_facets([[100], [101]]))):
    K = K.relabel({v: "v%%d" %% v for v in K.vertices})
    ranked.clear()
    rows = homology._link_census(K, fe.RATIONALS)
    out.append([[list(r.face), r.cls, r.connected] for r in rows] + [len(ranked)])
print(json.dumps(out))
""" % (DUNCE_HAT,)


def test_census_does_not_depend_on_the_hash_seed():
    """Str labels hash differently under each PYTHONHASHSEED; the collapse
    order, and so the rows and the ranked links, must not follow them."""
    src = str(Path(fe.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        outs.append(json.loads(proc.stdout))
    assert outs[0] == outs[1]
    kl13, dunce = outs[0]
    assert kl13[-1] == 0 and dunce[-1] == 5  # links ranked
