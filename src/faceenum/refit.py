"""Retriangulation pipeline producing a 2-neighborly triangulation together
with a spanning simple tree through a codimension-three face.

The pipeline has four stages.  First, direct one-moves: a nonedge {x, y}
with a ridge F whose two facets are F+x and F+y is closed by the one-move
(F, {x, y}), which adds no vertex; on a 2-neighborly result the pipeline ends
as soon as a spanning simple tree through a codimension-three face is found.
The remaining stages are the fallback for the nonedges left over.  Second, a
spanning simple tree is built from a facet walk: a dual-graph traversal
unfolds into an abstract simple tree with a dimension-preserving simplicial
map onto the complex, and central retriangulations of embedded vertex stars
make the map injective on vertices.  Third, repeating that stage inside
successive links concentrates the tree's facets on a common face of
codimension three.  Fourth, missing edges are created one at a time: a pair
of retriangulations brings the two nonadjacent vertices to distance two on a
spanning circle link, a single one-move inserts the edge, and two more
retriangulations restore the spanning-circle state.  Each cycle removes
exactly one nonedge, which is the termination measure, and adds about four
vertices.

Every intermediate complex is homeomorphic to the input, so the Betti vector
is preserved; callers verify this on the output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import SimplicialComplex, _require_complex, face, face_key, label_key
from .constructions import (
    BistellarMove,
    MoveLog,
    _bistellar_step,
    _retriangulation_step,
    _spanning_circle,
    _tree_from_circle,
)
from .errors import HypothesisNotMet
from .homology import manifold_report
from .trees import SimpleTree, _codim3_tree, _lift_tree


@dataclass(frozen=True)
class RefitResult:
    complex: SimplicialComplex
    tree: SimpleTree
    rho: tuple  # codimension-three face contained in every tree facet


def _pairs(seq):
    return list(zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# stage one: direct one-moves


def _direct_one_moves(K: SimplicialComplex, log: MoveLog | None) -> SimplicialComplex:
    """Close every nonedge {x, y} that has a ridge F with facets F+x and F+y
    by the one-move (F, {x, y}); sweep until a sweep makes no move.  With
    d >= 4 such a move removes no edge and keeps the homeomorphism type."""
    moved = True
    while moved:
        moved = False
        for x, y in K.nonedges():
            for f in K.facets_containing((x,)):
                F = tuple(v for v in f if v != x)
                if K.has_face(F + (y,)):
                    K = _bistellar_step(K, BistellarMove(F, (x, y)), log)
                    moved = True
                    break
    return K


# ---------------------------------------------------------------------------
# stage two: spanning simple tree in a link (or the whole complex for W = ())


def _grow_tree_map(L: SimplicialComplex):
    """Facet walk covering all vertices of L, unfolded to an abstract simple
    tree: returns (abstract_facets, phi) with abstract vertices 0, 1, 2, ...
    and phi mapping them onto L's vertices.  Each facet of L is used at most
    once, so the induced map is injective on facets."""
    facets = sorted(L.facets, key=face_key)
    ridge_to_facets: dict = {}
    for f in facets:
        for j in range(len(f)):
            ridge_to_facets.setdefault(f[:j] + f[j + 1:], []).append(f)
    start = facets[0]
    phi = {i: v for i, v in enumerate(start)}
    abstract = [tuple(range(len(start)))]
    host_of = {start: abstract[0]}
    covered = set(start)
    allverts = set(L.vertices)
    next_id = len(start)
    crossed = set()
    while covered != allverts:
        best = None
        for hf, af in host_of.items():
            pos = {phi[i]: i for i in af}
            for j in range(len(hf)):
                ridge = hf[:j] + hf[j + 1:]
                if (hf, ridge) in crossed:
                    continue
                others = [g for g in ridge_to_facets.get(ridge, ()) if g != hf]
                if len(others) != 1:
                    continue
                g = others[0]
                if g in host_of:
                    continue
                gain = len(set(g) - covered)
                key = (-gain, face_key(g))
                if best is None or key < best[0]:
                    best = (key, hf, ridge, g, pos)
        if best is None:
            raise HypothesisNotMet("facet walk cannot reach every vertex; link is not a closed manifold")
        _, hf, ridge, g, pos = best
        new_host_vertex = next(v for v in g if v not in ridge)
        af_new = tuple(sorted(pos[v] for v in ridge)) + (next_id,)
        phi[next_id] = new_host_vertex
        abstract.append(af_new)
        host_of[g] = af_new
        crossed.add((hf, ridge))
        crossed.add((g, ridge))
        covered |= set(g)
        next_id += 1
    return abstract, phi


def _tree_in_link(K: SimplicialComplex, W: tuple, log: MoveLog | None):
    """Spanning simple tree of the link of W, possibly after central
    retriangulations of K; returns (K', ordered link facets).

    An embedded star of the abstract tree, taken in tree order, is itself a
    simple tree, so each retriangulated star is certified as one."""
    L = K.link(W) if W else K
    abstract, phi = _grow_tree_map(L)
    tverts_in_order = sorted(phi)

    def multiplicity():
        count: dict = {}
        for v in phi.values():
            count[v] = count.get(v, 0) + 1
        return count

    while True:
        count = multiplicity()
        bad = [t for t in tverts_in_order if count[phi[t]] >= 2]
        if not bad:
            break
        fixed = False
        for y in reversed(bad):
            star = [af for af in abstract if y in af]
            starverts = set().union(*(set(af) for af in star))
            images = [phi[t] for t in starverts]
            if len(set(images)) != len(images):
                continue  # star not embedded; try an earlier vertex
            ball = _lift_tree(K, W, [[phi[t] for t in af] for af in star])
            K, phi[y] = _retriangulation_step(K, ball, log)
            fixed = True
            break
        if not fixed:
            raise HypothesisNotMet("no vertex with an embedded star available for relabeling")
    link_facets = [face(tuple(phi[t] for t in af)) for af in abstract]
    return K, link_facets


# ---------------------------------------------------------------------------
# stage three: concentrate the tree on a codimension-three face


def _concentrated_tree(K: SimplicialComplex, log: MoveLog | None):
    """Returns (K', W, link_facets): W is a (d-3)-face of K' and the link
    facets form a spanning simple 2-tree of the link of W."""
    d = K.d
    K, tree_facets = _tree_in_link(K, (), log)
    W: tuple = ()
    for _ in range(d - 3):
        ambient = _lift_tree(K, W, tree_facets)
        if not ambient.is_spanning():
            raise HypothesisNotMet("stage tree is not spanning")
        K, w = _retriangulation_step(K, ambient, log)
        W = face(W + (w,))
        K, tree_facets = _tree_in_link(K, W, log)
    return K, W, tree_facets


# ---------------------------------------------------------------------------
# stage four: insert the missing edges


def _arc(circle: list, a, b) -> list:
    """Vertices strictly between a and b walking forward around the circle."""
    i = circle.index(a)
    out = []
    j = (i + 1) % len(circle)
    while circle[j] != b:
        out.append(circle[j])
        j = (j + 1) % len(circle)
    return out


def _insert_edge(K, rho2, circle, x, y, log):
    """One full cycle: make x and y adjacent, return (K', rho2', circle')."""
    arc_xy = _arc(circle, x, y)
    arc_yx = _arc(circle, y, x)
    if not arc_xy or not arc_yx:
        raise HypothesisNotMet("nonedge endpoints adjacent on the circle")
    if len(arc_xy) == 1:
        sep, z_arc, rho_star = arc_xy[0], list(reversed(arc_yx)), tuple(rho2)
    elif len(arc_yx) == 1:
        sep, z_arc, rho_star = arc_yx[0], arc_xy, tuple(rho2)
    else:
        members = sorted(rho2, key=label_key)
        w1r, w0r = members[0], members[1]
        rho_p0 = tuple(v for v in rho2 if v not in (w1r, w0r))
        v_list, u_list = arc_xy, arc_yx
        path_all = [x] + v_list + [y] + u_list
        K, w2 = _retriangulation_step(K, _lift_tree(K, rho2, _pairs(path_all)), log)
        fan1 = [face(rho_p0 + (w1r,) + p) for p in _pairs([x] + v_list + [y])]
        fan2 = [face(rho_p0 + (w0r,) + p) for p in _pairs([v_list[-1], y] + u_list)]
        K, w3 = _retriangulation_step(K, _lift_tree(K, (w2,), fan1 + fan2), log)
        rho_star = face(rho_p0 + (w2, w3))
        sep = w1r
        z_arc = v_list + [w0r] + list(reversed(u_list))
    K = _bistellar_step(K, BistellarMove(face(tuple(rho_star) + (sep,)), (x, y)), log)
    members = sorted(rho_star, key=label_key)
    wa, wb = members[0], members[1]
    rho_p0b = tuple(v for v in rho_star if v not in (wa, wb))
    P4 = [x, y] + list(reversed(z_arc))
    t4_base = [face(rho_p0b + (wa,) + p) for p in _pairs(P4)] + [face(rho_p0b + (x, sep, y))]
    K, wc = _retriangulation_step(K, _lift_tree(K, (wb,), t4_base), log)
    s4 = t4_base + [face(rho_p0b + (y, sep, wb))]
    K, wd = _retriangulation_step(K, _lift_tree(K, (wc,), s4), log)
    rho2_new = face(rho_p0b + (wc, wd))
    return K, rho2_new, _spanning_circle(K, rho2_new)


def two_neighborly_refit(
    K: SimplicialComplex,
    log: MoveLog | None = None,
    seed: int | None = None,
) -> RefitResult:
    """Produce a 2-neighborly triangulation of the same homology type with a
    spanning simple tree through a codimension-three face.

    Direct one-moves first close every nonedge they can, without adding a
    vertex (a 2-neighborly input makes none).  If the complex is then
    2-neighborly and a spanning simple 2-tree is found in one of its
    codimension-three links, it is returned.  Otherwise the cycle of
    retriangulations and one-moves runs until no nonedge remains; the nonedge
    count strictly decreases each cycle.
    """
    _require_complex(K)
    K.require_pure("refit")
    if K.d < 4:
        raise HypothesisNotMet("refit needs facet size d >= 4")
    if not manifold_report(K).closed:
        raise HypothesisNotMet("refit needs a connected closed homology manifold")
    K = _direct_one_moves(K, log)
    if K.is_i_neighborly(2):
        found = _codim3_tree(K, node_budget=20_000, seed=seed)
        if found is not None:
            rho, ambient = found
            return RefitResult(K, ambient, rho)
    K, W, tree_facets = _concentrated_tree(K, log)
    ambient = _lift_tree(K, W, tree_facets)
    if not ambient.is_spanning():
        raise HypothesisNotMet("concentrated tree is not spanning")
    if K.is_i_neighborly(2):
        return RefitResult(K, ambient, W)
    K, w = _retriangulation_step(K, ambient, log)
    rho2 = face(tuple(W) + (w,))
    circle = _spanning_circle(K, rho2)
    remaining = K.nonedges()
    while remaining:
        x, y = remaining[0]
        if x not in circle or y not in circle:
            raise HypothesisNotMet("nonedge endpoints missing from the spanning circle")
        K, rho2, circle = _insert_edge(K, rho2, circle, x, y, log)
        now = K.nonedges()
        if len(now) != len(remaining) - 1:
            raise HypothesisNotMet("edge-insertion cycle failed to remove exactly one nonedge")
        remaining = now
    tree = _tree_from_circle(K, rho2, circle)
    rho = face(sorted(rho2, key=label_key)[: K.d - 3])
    return RefitResult(K, tree, rho)
