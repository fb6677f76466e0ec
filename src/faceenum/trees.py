"""Simple (d-1)-trees, central retriangulation, and the spanning-tree search
inside 2-sphere links.

A simple (d-1)-tree is an ordered facet list where each facet after the first
meets the union of its predecessors in a single codimension-one face lying on
the boundary of that union; each step contributes exactly one new vertex.
Simple trees are simplicial balls and their boundaries are stacked spheres.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import SimplicialComplex, face, face_key, fresh_vertices
from .errors import (
    NotABall,
    NotASphereLink,
    NotSimpleTree,
    TreeNotFound,
    VertexCollision,
)
from .homology import RATIONALS, FieldSpec, betti, is_homology_sphere, manifold_report


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


def tree_boundary(B: SimplicialComplex) -> SimplicialComplex:
    """Boundary of a pure full-dimensional subcomplex: ridges lying in exactly
    one facet, together with their faces."""
    counts: dict = {}
    for f in B.facets:
        for j in range(len(f)):
            r = f[:j] + f[j + 1:]
            counts[r] = counts.get(r, 0) + 1
    bdry = [r for r, c in counts.items() if c == 1]
    if not bdry:
        return SimplicialComplex([()])
    return SimplicialComplex(bdry)


def validate_simple_tree(host: SimplicialComplex, ordered_facets) -> SimpleTree:
    """Certify an ordered facet list as a simple tree inside ``host``.

    Raises NotSimpleTree with the first offending index; emits the natural
    vertex ordering.
    """
    facets = [face(f) for f in ordered_facets]
    if not facets:
        raise NotSimpleTree("empty facet list", index=0)
    size = len(facets[0])
    for idx, f in enumerate(facets):
        if len(f) != size:
            raise NotSimpleTree(f"facet {idx} has {len(f)} vertices, expected {size}", index=idx)
        if not host.has_face(f):
            raise NotSimpleTree(f"facet {idx} = {f!r} is not a face of the host", index=idx)
    seen = set(facets[0])
    order = list(facets[0])
    union_facets = [facets[0]]
    if len(set(facets)) != len(facets):
        dup = max(i for i, f in enumerate(facets) if f in facets[:i])
        raise NotSimpleTree("repeated facet", index=dup)
    for idx in range(1, len(facets)):
        f = facets[idx]
        inter = set(f) & seen
        new = set(f) - seen
        if len(new) != 1:
            raise NotSimpleTree(
                f"facet {idx} introduces {len(new)} new vertices, expected exactly 1", index=idx
            )
        if len(inter) != size - 1:
            raise NotSimpleTree(f"facet {idx} meets the prior union in {len(inter)} vertices", index=idx)
        ridge = face(inter)
        # attachment ridge must lie in exactly one prior facet (free face)
        hits = sum(1 for g in union_facets if set(ridge) <= set(g))
        if hits != 1:
            raise NotSimpleTree(
                f"facet {idx} attaches along a ridge contained in {hits} prior facets", index=idx
            )
        union_facets.append(f)
        order.extend(new)
        seen |= new
    return SimpleTree(tuple(facets), host, tuple(order))


def grow_simple_tree(host: SimplicialComplex, length: int, rng: random.Random) -> SimpleTree | None:
    """Random greedy simple tree of the requested length inside a pure host."""
    host.require_pure("simple tree growth")
    facets = list(host.facets)
    start = rng.choice(facets)
    chosen = [start]
    verts = set(start)
    for _ in range(length - 1):
        candidates = []
        for g in facets:
            if g in chosen:
                continue
            inter = set(g) & verts
            if len(inter) != len(g) - 1:
                continue
            ridge = face(inter)
            hits = sum(1 for c in chosen if set(ridge) <= set(c))
            if hits == 1:
                candidates.append(g)
        if not candidates:
            return None
        nxt = rng.choice(candidates)
        chosen.append(nxt)
        verts |= set(nxt)
    return validate_simple_tree(host, chosen)


def central_retriangulation(
    K: SimplicialComplex,
    B,
    new_vertex=None,
    field: FieldSpec = RATIONALS,
) -> SimplicialComplex:
    """Replace the interior of a full-dimensional ball subcomplex B by the
    cone over its boundary from a fresh vertex.

    ``B`` may be a certified SimpleTree (a simple tree is a ball, so it is
    trusted), a complex, or a facet list; the latter two are verified to be
    homology balls over ``field``.
    """
    if isinstance(B, SimpleTree):
        ball = B.as_complex()
        certified = True
    elif isinstance(B, SimplicialComplex):
        ball = B
        certified = False
    else:
        ball = SimplicialComplex(B)
        certified = False
    facet_set = set(K.facets)
    for f in ball.facets:
        if f not in facet_set:
            raise NotABall(f"{f!r} is not a facet of the ambient complex")
    if not certified:
        b = betti(ball, field)
        if not b.is_point():
            raise NotABall("subcomplex does not have the homology of a point")
        rep = manifold_report(ball, field, require_connected=False)
        if not rep.is_homology_manifold or rep.boundary is None:
            raise NotABall("subcomplex is not a homology ball")
    if new_vertex is None:
        new_vertex = fresh_vertices(K, 1)[0]
    if new_vertex in set(K.vertices):
        raise VertexCollision(f"vertex {new_vertex!r} already present")
    bdry = tree_boundary(ball)
    ball_facets = set(ball.facets)
    new_facets = [f for f in K.facets if f not in ball_facets]
    for g in bdry.facets:
        new_facets.append(face(g + (new_vertex,)))
    return SimplicialComplex(new_facets)


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

    def search(chosen, verts):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if len(verts) == target:
            return list(chosen)
        cands = []
        for g in facets:
            if g in chosen:
                continue
            inter = set(g) & verts
            if len(inter) != 2:
                continue
            ridge = face(inter)
            if sum(1 for c in chosen if set(ridge) <= set(c)) != 1:
                continue
            cands.append(g)
        for g in order(cands):
            chosen.append(g)
            got = search(chosen, verts | set(g))
            if got is not None:
                return got
            chosen.pop()
        return None

    for start in order(list(facets)):
        got = search([start], set(start))
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
