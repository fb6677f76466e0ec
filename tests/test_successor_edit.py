"""Successor complexes by local edit.

``apply_bistellar`` and ``central_retriangulation`` build their result from
the parent complex by a local edit that carries the parent's caches when
every label is of one kind, and by the constructor when the labels mix ints
and strings.  Either way a bistellar move carries its f-vector from the
move's closed form, and a central retriangulation of a simple tree from the
closed forms of one 0-move and m - 1 one-moves.  Every
step of a random legal move sequence is checked here against the full
constructor ``SimplicialComplex(K.facets)``, which stays the reference path,
and both closed forms against the local recount ``_edited_f_vector``.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum import complexes
from faceenum.complexes import SimplicialComplex, face, face_key, fresh_vertex
from faceenum.constructions import BistellarMove, apply_bistellar, check_move
from faceenum.errors import IllegalMove
from faceenum.trees import SimpleTree, central_retriangulation, grow_simple_tree, validate_simple_tree
from faceenum.vectors import _f_after_moves


def _str_labels(K):
    return K.relabel({v: f"v{v:02d}" for v in K.vertices})


def _mixed_labels(K):
    return K.relabel({v: f"s{v}" for v in K.vertices if v % 2})


SEEDS = {
    "stacked7_3": lambda: fe.stacked_sphere(7, 3),
    "stacked8_4": lambda: fe.stacked_sphere(8, 4),
    "stacked9_5": lambda: fe.stacked_sphere(9, 5),
    "kl11_2": lambda: fe.kuhnel_lassmann(11, 2),
    "ball8_4": lambda: SimplicialComplex(fe.stacked_sphere(8, 4).facets[1:]),  # a face can lose its last facet
    "str_stacked9_4": lambda: _str_labels(fe.stacked_sphere(9, 4)),
    "str_kl11_2": lambda: _str_labels(fe.kuhnel_lassmann(11, 2)),
    "mixed_stacked9_5": lambda: _mixed_labels(fe.stacked_sphere(9, 5)),
    "mixed_kl11_2": lambda: _mixed_labels(fe.kuhnel_lassmann(11, 2)),
}
KINDS = ("zero", "one", "unzero", "tree")


def _one_moves(K) -> list:
    """1-moves (F, {x, y}) for each ridge F in exactly the two facets F+x and
    F+y, with {x, y} not an edge."""
    opposite: dict = {}
    for f in K.facets:
        for j in range(len(f)):
            opposite.setdefault(f[:j] + f[j + 1:], []).append(f[j])
    return [BistellarMove(r, xs) for r, xs in opposite.items() if len(xs) == 2 and not K.has_face(xs)]


def _reverse_zero_moves(K) -> list:
    """Legal moves ({v}, G) that remove a vertex v whose link is the boundary
    of the simplex G."""
    out = []
    for v in K.vertices:
        star = K.facets_containing((v,))
        if len(star) != K.d:
            continue
        move = BistellarMove((v,), tuple({x for f in star for x in f} - {v}))
        try:
            check_move(K, move)
        except IllegalMove:
            continue
        out.append(move)
    return out


def _legal_moves(K) -> dict:
    """Every legal move (F, G) with F a face of the given complex, by m."""
    out: dict = {}
    for F in sorted(_faces_of(K.facets), key=face_key):
        G = tuple({x for f in K.facets_containing(F) for x in f} - set(F))
        if not G or len(F) + len(G) != K.d + 1:
            continue
        move = BistellarMove(F, G)
        try:
            check_move(K, move)
        except IllegalMove:
            continue
        out.setdefault(move.m, []).append(move)
    return out


def _fresh_label(K, rng):
    """A new vertex of the complex's own label kind; either kind when it
    mixes them."""
    ints = [v for v in K.vertices if isinstance(v, int)]
    if ints and (len(ints) == len(K.vertices) or rng.random() < 0.5):
        return max(ints) + 1
    return fresh_vertex(K)


def _faces_of(facets) -> set:
    return {s for f in facets for k in range(1, len(f) + 1) for s in itertools.combinations(f, k)}


def _assert_like_fresh(K, touched):
    assert "f_vector" in K.__dict__, "the successor did not carry its parent's f-vector"
    R = SimplicialComplex(K.facets)
    assert K.facets == R.facets
    assert K.vertices == R.vertices
    assert K.f_vector == R.f_vector
    assert K.is_pure() == R.is_pure() and K.dim == R.dim
    assert K._vertex_to_facets == R._vertex_to_facets
    for s in _faces_of(touched):
        assert K.facets_containing(s) == R.facets_containing(s), s
        assert K.has_face(s) == R.has_face(s), s


def _step(K, kind, rng):
    """One legal move of the given kind, falling back to a 0-move; returns
    (K', removed facets, added facets)."""
    moves = {"one": _one_moves, "unzero": _reverse_zero_moves}.get(kind, lambda K: [])(K)
    if kind == "tree":
        tree = grow_simple_tree(K, rng.randint(1, 4), rng)
        if tree is not None:
            K2 = central_retriangulation(K, tree)
            w = (set(K2.vertices) - set(K.vertices)).pop()
            return K2, tree.facets, K2.facets_containing((w,))
    move = rng.choice(moves) if moves else BistellarMove(rng.choice(K.facets), (fresh_vertex(K),))
    K2 = apply_bistellar(K, move)
    removed = set(K.facets) - set(K2.facets)
    added = set(K2.facets) - set(K.facets)
    assert removed == {face(move.F + tuple(x for x in move.G if x != g)) for g in move.G}
    return K2, removed, added


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SEEDS)), st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_successor_caches_equal_a_fresh_build(seed_name, kinds, seed):
    rng = random.Random(seed)
    K = SEEDS[seed_name]()
    K.f_vector  # a chain carries f only from a parent that has it
    for kind in kinds:
        K2, removed, added = _step(K, kind, rng)
        _assert_like_fresh(K2, [*removed, *added])
        assert set(K2.facets) == (set(K.facets) - set(removed)) | set(added)
        K = K2


def test_reverse_zero_move_removes_the_vertex():
    K = fe.stacked_sphere(9, 4)
    K.f_vector
    (move,) = [m for m in _reverse_zero_moves(K) if m.F == (9,)]
    K2 = apply_bistellar(K, move)
    assert 9 not in K2.vertices and 9 not in K2._vertex_to_facets
    _assert_like_fresh(K2, K.facets_containing((9,)) + [move.G])
    assert K2 == fe.stacked_sphere(8, 4)


def test_move_with_empty_g_is_illegal():
    K = fe.stacked_sphere(6, 4)
    with pytest.raises(IllegalMove):
        apply_bistellar(K, BistellarMove((1, 2, 3, 4, 5), ()))


@pytest.fixture
def face_enumerations(monkeypatch):
    """The complexes whose faces ``SimplicialComplex.faces`` enumerates."""
    seen = []
    faces = SimplicialComplex.faces

    def counting(self):
        seen.append(self)
        return faces(self)

    monkeypatch.setattr(SimplicialComplex, "faces", counting)
    return seen


def test_fill_enumerates_the_faces_of_its_seed_only(face_enumerations):
    fe.s1xs3_fill(20, 150, log=fe.MoveLog())
    assert len(face_enumerations) <= 1
    assert all(K == fe.kuhnel_lassmann(20, 2) for K in face_enumerations)


def test_stacked_sphere_enumerates_no_faces(face_enumerations):
    K = fe.stacked_sphere(60, 5)
    assert face_enumerations == [] and len(K.vertices) == 60


def test_successor_of_an_uncounted_parent_counts_it_once(face_enumerations):
    K = SimplicialComplex(fe.stacked_sphere(8, 4).facets)
    K2 = apply_bistellar(K, BistellarMove(K.facets[0], ("w1",)))
    K3 = apply_bistellar(K2, BistellarMove(K2.facets[-1], ("w2",)))
    assert face_enumerations == [K]
    assert "f_vector" in K2.__dict__ and "f_vector" in K3.__dict__
    assert K3.f_vector == SimplicialComplex(K3.facets).f_vector


def _random_chain(K, steps, rng):
    """Yield (K, move, K') along a chain of random legal moves whose m runs
    through 0 .. d-1 in turn; a 0-move stands in when no move of that m is
    legal."""
    for step in range(steps):
        moves = _legal_moves(K).get(step % K.d, [])
        move = rng.choice(moves) if moves else BistellarMove(rng.choice(K.facets), (_fresh_label(K, rng),))
        K2 = apply_bistellar(K, move)
        yield K, move, K2
        K = K2


def _assert_no_keys(K):
    """No facet-order keys are carried: the keyed edit is gone."""
    assert "_facet_keys" not in K.__dict__ and not hasattr(SimplicialComplex, "_facet_keys")


@pytest.mark.parametrize("seed_name", sorted(n for n in SEEDS if n != "ball8_4"))
def test_move_chains_of_every_m_equal_a_fresh_build(seed_name, monkeypatch):
    """Chains of m-moves for every m, reverse 0-moves included, on int, str
    and mixed labels.  One-kind labels take the local edit, which calls no
    ``_facet_order``; mixed labels are built by the constructor."""
    ordered = []
    order = complexes._facet_order
    monkeypatch.setattr(complexes, "_facet_order", lambda f: ordered.append(f) or order(f))
    rng = random.Random(seed_name)
    K = SEEDS[seed_name]()
    ms = set()
    ordered.clear()
    for K, move, K2 in _random_chain(K, 40, rng):
        if not seed_name.startswith("mixed"):
            assert ordered == []
        _assert_like_fresh(K2, [*K.facets_containing(move.F), *K2.facets_containing(move.G)])
        _assert_no_keys(K2)
        ordered.clear()  # the fresh build sorts by key
        ms.add(move.m)
    assert ms == set(range(K.d))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SEEDS)), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_closed_form_f_equals_the_local_recount(seed_name, steps, seed):
    rng = random.Random(seed)
    for K, move, K2 in _random_chain(SEEDS[seed_name](), steps, rng):
        removed = set(K.facets) - set(K2.facets)
        added = set(K2.facets) - set(K.facets)
        assert removed == set(check_move(K, move))
        assert K2.__dict__["f_vector"] == K._edited_f_vector(removed, added, K.d + 1)


# -- central retriangulations carry f by the closed form -----------------------


@pytest.fixture
def recounts(monkeypatch):
    """The parents whose successor f-vector ``_edited_f_vector`` recounted."""
    seen = []
    recount = SimplicialComplex._edited_f_vector

    def counting(self, *args):
        seen.append(self)
        return recount(self, *args)

    monkeypatch.setattr(SimplicialComplex, "_edited_f_vector", counting)
    return seen


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SEEDS)), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_tree_retriangulation_f_equals_the_recount_and_a_fresh_build(seed_name, length, seed):
    rng = random.Random(seed)
    K = SEEDS[seed_name]()
    tree = grow_simple_tree(K, length, rng)
    if tree is None:
        return
    K2 = central_retriangulation(K, tree)
    w = (set(K2.vertices) - set(K.vertices)).pop()
    added = K2.facets_containing((w,))
    assert K2.__dict__["f_vector"] == K._edited_f_vector(set(tree.facets), added, K.d + 1)
    assert K2.f_vector == SimplicialComplex(K2.facets).f_vector
    _assert_like_fresh(K2, [*tree.facets, *added])


@pytest.mark.parametrize("seed_name", sorted(SEEDS))
def test_tree_retriangulations_count_no_face(seed_name, recounts, face_enumerations):
    """Every glued ridge of a tree in these pseudomanifolds lies in two
    facets, so each retriangulation takes the closed form."""
    rng = random.Random(seed_name)
    K = SEEDS[seed_name]()
    K.f_vector
    face_enumerations.clear()
    lengths = []
    for length in [*range(1, 7)] * 2:
        tree = grow_simple_tree(K, length, rng)
        if tree is None:
            continue
        K2 = central_retriangulation(K, tree)
        assert K2.f_vector == _f_after_moves(K.f_vector, [0] + [1] * (length - 1))
        lengths.append(length)
        K = K2
    assert recounts == [] and face_enumerations == []
    assert set(lengths) == set(range(1, 7))


def test_a_glued_ridge_in_three_facets_takes_the_recount(recounts):
    """A fin on the glued ridge of a two-facet tree keeps that ridge a face,
    which the closed form would count as lost."""
    S = fe.stacked_sphere(8, 4)
    f1 = S.facets[0]
    f2 = next(g for g in S.facets if len(set(f1) & set(g)) == 3)
    ridge = face(set(f1) & set(f2))
    K = SimplicialComplex([*S.facets, ridge + ("fin",)])
    K.f_vector
    K2 = central_retriangulation(K, validate_simple_tree(K, [f1, f2]), "w1")
    assert recounts == [K]
    assert K2.has_face(ridge)
    assert K2.f_vector == SimplicialComplex(K2.facets).f_vector
    closed = _f_after_moves(K.f_vector, [0, 1])
    assert K2.f_vector == (*closed[:3], closed[3] + 1, *closed[4:])


@pytest.mark.parametrize("facets", [
    [(1, 2, 3), (1, 3, 4), (1, 2, 4), (2, 5, 6)],  # a cone on a triangle and a triangle pinched to it
    [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 2, 5)],  # a vertex star: the last facet closes a cycle
])
def test_a_hand_built_simple_tree_that_is_no_tree_takes_the_recount(facets, recounts):
    """A SimpleTree built without ``validate_simple_tree`` is trusted as a
    ball but not as a tree: the first is the star of its vertex 1 with a
    pinched triangle, whose ridge counts alone (three ridges in two facets,
    none in more, six vertices) look like a tree's."""
    K = SimplicialComplex(facets)
    tree = SimpleTree(tuple(facets), K, tuple(sorted({v for f in facets for v in f})))
    K.f_vector
    K2 = central_retriangulation(K, tree, "w1")
    assert recounts == [K]
    assert 1 not in K2.vertices  # the interior vertex is gone; the closed form counts no vertex lost
    assert K2.f_vector == SimplicialComplex(K2.facets).f_vector
    assert K2.f_vector != _f_after_moves(K.f_vector, [0, 1, 1, 1])


# -- mixed labels are built by the constructor ------------------------------------


def test_sibling_successors_of_one_mixed_parent_equal_fresh_builds():
    K = SEEDS["mixed_kl11_2"]()
    K.f_vector
    before = (K.facets, K.vertices, dict(K._vertex_to_facets), K.f_vector)
    rng = random.Random(7)
    tree = grow_simple_tree(K, 4, rng)
    children = [
        apply_bistellar(K, BistellarMove(K.facets[0], ("w1",))),
        apply_bistellar(K, BistellarMove(K.facets[-1], (99,))),
        central_retriangulation(K, tree, "w1"),
        *(apply_bistellar(K, move) for move in _one_moves(K)[:2]),
    ]
    for K2 in children:
        R = SimplicialComplex(K2.facets)
        assert (K2.facets, K2.vertices, K2._vertex_to_facets) == (R.facets, R.vertices, R._vertex_to_facets)
        assert K2.__dict__["f_vector"] == R.f_vector
        _assert_no_keys(K2)
    assert (K.facets, K.vertices, K._vertex_to_facets, K.f_vector) == before  # no sibling edited its parent
    assert children[0].facets != children[1].facets


def test_a_200_step_mixed_chain_equals_a_fresh_build():
    """0-moves with int and str vertices and tree retriangulations, each
    step checked against the full constructor."""
    rng = random.Random(200)
    K = SEEDS["mixed_stacked9_5"]()
    K.f_vector
    kinds = set()
    for _ in range(200):
        tree = grow_simple_tree(K, rng.randint(1, 6), rng) if rng.random() < 0.5 else None
        if tree is not None:
            K2 = central_retriangulation(K, tree)
            removed = tree.facets
        else:
            removed = [rng.choice(K.facets)]
            K2 = apply_bistellar(K, BistellarMove(removed[0], (_fresh_label(K, rng),)))
        added = set(K2.facets) - set(K.facets)
        kinds.add((tree is None, len({type(v) for f in added for v in f})))
        _assert_like_fresh(K2, [*removed, *added])
        _assert_no_keys(K2)
        K = K2
    assert len(kinds) == 4, kinds
