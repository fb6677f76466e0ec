"""Simple (d-1)-trees, central retriangulation, and the spanning-tree search
inside 2-sphere links.

A simple (d-1)-tree is an ordered facet list where each facet after the first
meets the union of its predecessors in a single codimension-one face lying on
the boundary of that union; each step contributes exactly one new vertex.
Simple trees are simplicial balls and their boundaries are stacked spheres.

Certification, random growth and the backtracking search share one
attachment rule, read from ridge counts updated as facets are added.
Homology checks here run over Q.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, _canonical_faces, _require_complex, face, face_key, fresh_vertex
from .errors import (
    EmptyInput,
    NotABall,
    NotASphereLink,
    NotSimpleTree,
    TreeNotFound,
    VertexCollision,
)
from .homology import is_homology_ball, is_homology_sphere
from .vectors import _f_after_moves


@dataclass(frozen=True)
class SimpleTree:
    """A certified simple tree: ordered facets plus its host complex."""

    facets: tuple
    host: SimplicialComplex
    natural_order: tuple  # vertices, first facet then one new vertex per facet

    @property
    def length(self) -> int:
        return len(self.facets)

    @property
    def vertices(self) -> tuple:
        return self.natural_order

    def as_complex(self) -> SimplicialComplex:
        return SimplicialComplex(self.facets)

    def boundary(self) -> SimplicialComplex:
        return tree_boundary(self.as_complex())

    def prefix(self, j: int) -> "SimpleTree":
        """The simple tree formed by the first j facets."""
        return validate_simple_tree(self.host, self.facets[:j])

    def is_spanning(self) -> bool:
        return set(self.natural_order) == set(self.host.vertices)


def _count_ridges(counts: dict, f: tuple, step: int = 1) -> dict:
    """Add ``step`` to the count of every ridge of the facet f."""
    for j in range(len(f)):
        r = f[:j] + f[j + 1:]
        counts[r] = counts.get(r, 0) + step
    return counts


def _attachment(g: tuple, verts: set, ridge_counts: dict):
    """The new vertex if g attaches to the simple tree with these vertices and
    ridge counts (one new vertex, remaining ridge in one tree facet), else None."""
    new = [v for v in g if v not in verts]
    if len(new) != 1:
        return None
    ridge = tuple(v for v in g if v != new[0])
    return new[0] if ridge_counts.get(ridge) == 1 else None


def _ridge_counts(facets) -> dict:
    """How many of the facets contain each ridge."""
    counts: dict = {}
    for f in facets:
        _count_ridges(counts, f)
    return counts


def _attach_in_order(facets) -> tuple:
    """(ridge counts, natural vertex order) of a facet list that is a simple
    tree in its own order, by the attachment rule.  Raises NotSimpleTree
    with the index of the first facet that does not attach."""
    order = list(facets[0])
    verts, counts = set(order), _count_ridges({}, facets[0])
    for idx, f in enumerate(facets[1:], start=1):
        new = _attachment(f, verts, counts)
        if new is None:
            raise NotSimpleTree(f"facet {idx} = {f!r} does not attach along a free ridge", index=idx)
        _count_ridges(counts, f)
        order.append(new)
        verts.add(new)
    return counts, tuple(order)


def _free_ridges(counts: dict) -> list:
    """The ridges counted once, or the empty face alone when there are none."""
    return [r for r, c in counts.items() if c == 1] or [()]


def tree_boundary(B: SimplicialComplex) -> SimplicialComplex:
    """Boundary of a pure full-dimensional subcomplex: ridges lying in exactly
    one facet, together with their faces."""
    return SimplicialComplex(_free_ridges(_ridge_counts(B.facets)))


def validate_simple_tree(host: SimplicialComplex, ordered_facets) -> SimpleTree:
    """Certify an ordered facet list as a simple tree inside ``host``.

    Raises NotSimpleTree with the first offending index; emits the natural
    vertex ordering.
    """
    facets = _canonical_faces(ordered_facets)
    if not facets:
        raise NotSimpleTree("empty facet list", index=0)
    size = len(facets[0])
    for idx, f in enumerate(facets):
        if len(f) != size:
            raise NotSimpleTree(f"facet {idx} has {len(f)} vertices, expected {size}", index=idx)
        if not host.has_face(f):
            raise NotSimpleTree(f"facet {idx} = {f!r} is not a face of the host", index=idx)
    if len(set(facets)) != len(facets):
        dup = max(i for i, f in enumerate(facets) if f in facets[:i])
        raise NotSimpleTree("repeated facet", index=dup)
    return SimpleTree(tuple(facets), host, _attach_in_order(facets)[1])


def grow_simple_tree(host: SimplicialComplex, length: int, rng: random.Random) -> SimpleTree | None:
    """Random greedy simple tree of the requested length inside a pure host."""
    host.require_pure("simple tree growth")
    facets = list(host.facets)
    start = rng.choice(facets)
    chosen, order = [start], list(start)
    verts, counts = set(start), _count_ridges({}, start)
    for _ in range(length - 1):
        candidates = [(g, v) for g in facets if (v := _attachment(g, verts, counts)) is not None]
        if not candidates:
            return None
        nxt, new = rng.choice(candidates)
        chosen.append(nxt)
        order.append(new)
        verts.add(new)
        _count_ridges(counts, nxt)
    return SimpleTree(tuple(chosen), host, tuple(order))  # each facet passed _attachment


def central_retriangulation(K: SimplicialComplex, B, new_vertex=None) -> SimplicialComplex:
    """Replace the interior of a full-dimensional ball subcomplex B by the
    cone over its boundary from a fresh vertex (by default
    ``fresh_vertex(K)``, of K's label kind).

    ``B`` may be a certified SimpleTree (a simple tree is a ball, so it is
    trusted), a complex, or a facet list; the latter two are verified to be
    homology balls over Q.

    The result is a local edit of K (``SimplicialComplex._edited``) and
    carries its f-vector.  A central retriangulation of a simple tree with m
    facets is a 0-move on its first facet followed by m - 1 one-moves, one
    per glued ridge (Walkup), so the f-vector is the sum of those bistellar
    closed forms, whose h-vector changes are checked once per (d, m)
    (``vectors._move_delta``).  That closed form needs a pure K, facets of B
    that attach in their given order by the simple-tree rule, and every
    glued ridge in exactly two facets of K: then the lost faces are exactly
    the m facets and the m - 1 glued ridges.  Otherwise (a ball given as a
    complex or a facet list, a hand-built SimpleTree that is not one, or a
    glued ridge in more facets of K) the faces of the touched facets are
    recounted by ``SimplicialComplex._edited_f_vector``.
    """
    _require_complex(K)
    if isinstance(B, SimpleTree):
        facets = _canonical_faces(B.facets)
        if not facets:
            raise EmptyInput("a simple tree needs at least one facet")
        try:
            counts = _attach_in_order(facets)[0]
        except NotSimpleTree:  # a hand-built SimpleTree: trusted as a ball only
            counts = None
    else:
        ball = B if isinstance(B, SimplicialComplex) else SimplicialComplex(B)
        facets, counts = ball.facets, None
    for f in facets:
        if f not in K.facets_containing(f):
            raise NotABall(f"{f!r} is not a facet of the ambient complex")
    if not isinstance(B, SimpleTree) and not is_homology_ball(ball):
        raise NotABall("subcomplex is not a homology ball")
    if new_vertex is None:
        new_vertex = fresh_vertex(K)
    if K.has_face((new_vertex,)):
        raise VertexCollision(f"vertex {new_vertex!r} already present")
    if counts is not None and K.is_pure() and all(
        len(K.facets_containing(r)) == 2 for r, c in counts.items() if c == 2
    ):
        f = _f_after_moves(K.f_vector, [0] + [1] * (len(facets) - 1))
    else:
        f, counts = None, _ridge_counts(set(facets))
    return K._edited(facets, [face(r + (new_vertex,)) for r in _free_ridges(counts)], f)


def find_spanning_tree_in_link(
    K: SimplicialComplex,
    rho,
    node_budget: int = 200_000,
    seed: int | None = None,
) -> SimpleTree:
    """Backtracking search for a spanning simple 2-tree in the link of a
    codimension-three face whose link is a 2-sphere.

    Expansion is lexicographic; a seed, when given, shuffles the expansion
    order deterministically.  Raises NotASphereLink when the precondition
    fails and TreeNotFound when the budget is exhausted.
    """
    K.require_pure("spanning tree search")
    rho = face(rho)
    if len(rho) != K.d - 3:
        raise NotASphereLink(f"face has {len(rho)} vertices; a codimension-three face needs {K.d - 3}")
    L = K.link(rho)
    if L.dim != 2 or not is_homology_sphere(L):
        raise NotASphereLink("link is not a 2-sphere")
    target = len(L.vertices)
    facets = sorted(L.facets, key=face_key)
    rng = random.Random(seed) if seed is not None else None
    budget = [node_budget]

    def order(cands):
        if rng is None:
            return sorted(cands, key=face_key)
        cands = sorted(cands, key=face_key)
        rng.shuffle(cands)
        return cands

    def search(chosen, verts, counts):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if len(verts) == target:
            return list(chosen)
        for g in order([g for g in facets if _attachment(g, verts, counts) is not None]):
            chosen.append(g)
            _count_ridges(counts, g)
            got = search(chosen, verts | set(g), counts)
            if got is not None:
                return got
            _count_ridges(counts, g, -1)
            chosen.pop()
        return None

    for start in order(list(facets)):
        got = search([start], set(start), _count_ridges({}, start))
        if got is not None:
            return validate_simple_tree(L, got)
        if budget[0] <= 0:
            break
    raise TreeNotFound("no spanning simple 2-tree found within the node budget")


def _lift_tree(K: SimplicialComplex, rho, link_facets) -> SimpleTree:
    """The simple tree rho * T in K for a simple tree T in the link of rho."""
    return validate_simple_tree(K, [face(tuple(rho) + tuple(f)) for f in link_facets])


def _codim3_tree(K: SimplicialComplex, node_budget: int, seed: int | None = None):
    """(rho, rho * T) for the first codimension-three face rho, in face order,
    whose link yields a spanning simple 2-tree T within ``node_budget``
    search nodes; None when no link does."""
    for rho in sorted(K.all_faces(K.d - 4), key=face_key):
        try:
            link_tree = find_spanning_tree_in_link(K, rho, node_budget=node_budget, seed=seed)
        except (TreeNotFound, NotASphereLink):
            continue
        return rho, _lift_tree(K, rho, link_tree.facets)
    return None
