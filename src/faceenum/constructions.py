"""Triangulation constructions: bistellar moves, stacked spheres and the
Walkup class, the cyclic sphere-bundle triangulations of Kuhnel and Lassmann,
the grouped one-move edge fill for S^1 x S^3, central-retriangulation
realization of (h_1, h_2) targets, and feasibility windows for the spaces
whose triangulation g-vectors are completely characterized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .complexes import SimplicialComplex, _one_kind, _require_complex, face, fresh_vertex, label_key
from .errors import (
    ArgumentOutOfRange,
    HypothesisNotMet,
    IllegalMove,
    PreconditionFailed,
    ScheduleBlocked,
    TargetInfeasible,
    TargetOutOfRange,
    UnknownSpace,
)
from .homology import RATIONALS, FieldSpec, _stacked_sphere, betti, manifold_report
from .trees import SimpleTree, central_retriangulation, validate_simple_tree
from .vectors import _f_after_moves, h_vector


# ---------------------------------------------------------------------------
# move log


@dataclass
class MoveLog:
    """Replayable record of construction steps."""

    steps: list = field(default_factory=list)

    def record(self, op: str, parameters: dict, K: SimplicialComplex):
        # (f0, f1) from the f-vector a move's successor carries, not a face count
        self.steps.append({"op": op, "parameters": parameters, "resulting": list((K.f_vector + (0,))[1:3])})

    def to_jsonable(self) -> list:
        return self.steps


def _bistellar_step(K: SimplicialComplex, move: BistellarMove, log: MoveLog | None) -> SimplicialComplex:
    """Apply a bistellar move and log it; every logged move goes through here."""
    K = apply_bistellar(K, move)
    if log is not None:
        log.record("bistellar", {"f": list(move.F), "g": list(move.G)}, K)
    return K


def _retriangulation_step(K: SimplicialComplex, tree: SimpleTree, log: MoveLog | None, vertex=None):
    """Centrally retriangulate a certified simple tree from a fresh vertex (or
    the given one, on replay) and log it; returns (K', vertex)."""
    if vertex is None:
        vertex = fresh_vertex(K)
    K = central_retriangulation(K, tree, vertex)
    if log is not None:
        log.record("central_retriangulation", {"ball": [list(f) for f in tree.facets], "vertex": vertex}, K)
    return K, vertex


# ---------------------------------------------------------------------------
# bistellar moves


@dataclass(frozen=True)
class BistellarMove:
    """Exchange F * boundary(G) for boundary(F) * G; an (|G|-1)-move."""

    F: tuple
    G: tuple

    def __post_init__(self):
        object.__setattr__(self, "F", face(self.F))
        object.__setattr__(self, "G", face(self.G))

    @property
    def m(self) -> int:
        return len(self.G) - 1


def check_move(K: SimplicialComplex, move: BistellarMove) -> list:
    """Legality: the induced subcomplex on F u G equals F * boundary(G).

    Concretely: every F u (G - g) is a facet, G itself is not a face, and no
    facet beyond those contains F (so the link of F is exactly boundary(G)).
    Returns the facets that contain F, which a legal move replaces.
    """
    _require_complex(K)
    if not isinstance(move, BistellarMove):
        raise ArgumentOutOfRange(f"expected a BistellarMove, got {type(move).__name__}")
    F, G = move.F, move.G
    if set(F) & set(G):
        raise IllegalMove("F and G must be disjoint")
    if not F or not G:
        raise IllegalMove("F and G must be nonempty")
    K.require_pure("bistellar move")
    if len(F) + len(G) != K.d + 1:
        raise IllegalMove(f"|F|+|G| = {len(F) + len(G)}, expected d+1 = {K.d + 1}")
    star = K.facets_containing(F)
    # a facet of the star inside F u G is F u (G - g) for the one g it misses
    span = set(F + G)
    inside = {next(x for x in G if x not in fac) for fac in star if span.issuperset(fac)}
    for g in G:
        if g not in inside:
            fac = face(F + tuple(x for x in G if x != g))
            raise IllegalMove(f"missing facet {fac!r}: induced subcomplex is smaller than F * dG")
    if len(G) >= 2 and K.has_face(G):
        raise IllegalMove(f"{G!r} is already a face: induced subcomplex exceeds F * dG")
    if len(G) == 1 and K.has_face(G):
        raise IllegalMove(f"subdivision vertex {G[0]!r} already present")
    for fac in star:
        if not span.issuperset(fac):
            raise IllegalMove(f"extra facet {fac!r} contains F: link of F exceeds dG")
    return star


def apply_bistellar(K: SimplicialComplex, move: BistellarMove) -> SimplicialComplex:
    """Apply a legal bistellar move by a local edit of K.

    The result carries its f-vector from the move's closed form
    (``vectors._f_after_moves``): the faces F u t with t a proper subset of
    G go, C(|G|, j) of size |F| + j, and the faces G u t' with t' a proper
    subset of F come, C(|F|, i) of size |G| + i.  A K without an f-vector is
    counted once.  The closed form's h-vector change is checked against
    ``bistellar_h_effect`` once per (d, m) (``vectors._move_delta``): f to h
    is linear, so the verdict does not depend on f.
    """
    removed = check_move(K, move)
    F, G = move.F, move.G
    f = _f_after_moves(K.f_vector, (move.m,))
    order = None if _one_kind((F[0], F[-1], G[0], G[-1])) else label_key
    added = [tuple(sorted(G + F[:i] + F[i + 1:], key=order)) for i in range(len(F))]
    return K._edited(removed, added, f)


# ---------------------------------------------------------------------------
# stacked spheres and the Walkup class


def simplex_boundary(d: int) -> SimplicialComplex:
    """Boundary of the d-simplex on vertices 1..d+1: the minimal (d-1)-sphere."""
    if d < 1:
        raise ArgumentOutOfRange("d must be >= 1")
    verts = tuple(range(1, d + 2))
    K = SimplicialComplex([verts[:i] + verts[i + 1:] for i in range(d + 1)])
    K.__dict__["f_vector"] = tuple(comb(d + 1, k) for k in range(d + 1))
    return K


def stacked_sphere(n: int, d: int) -> SimplicialComplex:
    """Stacked (d-1)-sphere on n vertices by repeated facet subdivision.

    Subdividing the lexicographically last facet keeps the construction
    path-like, so early and late facets end up far apart.
    """
    if n < d + 1:
        raise ArgumentOutOfRange(f"need n >= d+1, got n={n}")
    K = simplex_boundary(d)
    for v in range(d + 2, n + 1):
        target = K.facets[-1]
        K = apply_bistellar(K, BistellarMove(target, (v,)))
    return K


def is_stacked_sphere(K: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Kalai's criterion h_1 = h_2, valid for closed homology manifolds of
    dimension at least three.  A complex with the facet count of a stacked
    sphere that bistellar moves reduce to the boundary of a simplex is one
    without it."""
    _require_complex(K)
    if K.d < 4:
        raise HypothesisNotMet("criterion needs facet size d >= 4")
    if _stacked_sphere(K):
        return True
    rep = manifold_report(K, field)
    if not rep.closed:
        raise HypothesisNotMet("criterion applies to closed homology manifolds")
    hv = h_vector(K)
    return hv[1] == hv[2]


def in_walkup_class(K: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Membership in the class generated from stacked spheres by handle
    additions: every vertex link is a stacked sphere."""
    _require_complex(K)
    K.require_pure("Walkup class test")
    for v in K.vertices:
        L = K.link((v,))
        try:
            if not is_stacked_sphere(L, field):
                return False
        except HypothesisNotMet as e:
            raise HypothesisNotMet(f"link of {v!r}: {e}") from e
    return True


# ---------------------------------------------------------------------------
# cyclic sphere-bundle triangulations (Kuhnel-Lassmann)


def _distinct_permutations(seq):
    import itertools

    return sorted(set(itertools.permutations(seq)))


def kuhnel_lassmann(n: int, m: int) -> SimplicialComplex:
    """The n-vertex cyclic triangulation of S^1 x S^{2m-1}.

    Vertices are 1..n (read mod n); facets are the Z_n-orbits of the
    difference vectors obtained from all permutations of (1,...,1,2) of
    length 2m.  For m = 2 this gives f_1 = 5n and h_2 = n + 10.
    """
    if m < 2:
        raise ArgumentOutOfRange("m must be >= 2")
    if n < 4 * m + 3:
        raise ArgumentOutOfRange(f"need n >= 4m+3 = {4 * m + 3}")
    gens = _distinct_permutations((1,) * (2 * m - 1) + (2,))
    facets = set()
    for x in range(1, n + 1):
        for g in gens:
            fac = [x]
            cur = x
            for step in g:
                cur += step
                fac.append((cur - 1) % n + 1)
            facets.add(face(fac))
    return SimplicialComplex(facets)


def _mod_label(x: int, n: int) -> int:
    return (x - 1) % n + 1


def s1xs3_fill(
    n: int,
    target_edges: int,
    check_betti: bool = False,
    log: MoveLog | None = None,
) -> tuple[SimplicialComplex, MoveLog]:
    """Grow the edge count of the cyclic S^1 x S^3 triangulation by grouped
    one-moves, one new edge per move, stopping exactly at ``target_edges``.

    Nonedges are the vertex pairs separated by at least 6 mod n; they are
    consumed in groups by common difference.  The pair (x, x+delta) uses the
    facets {x, x+1, x+2, x+delta-2, x+delta-1} and {x+1, x+2, x+delta-2,
    x+delta-1, x+delta}, which exist once the previous group is complete.
    """
    if n < 11:
        raise TargetOutOfRange("need n >= 11")
    lo, hi = 5 * n, comb(n, 2)
    if not (lo <= target_edges <= hi):
        raise TargetOutOfRange(f"target edges must lie in [{lo}, {hi}]")
    K = kuhnel_lassmann(n, 2)
    log = log if log is not None else MoveLog()
    edges = 5 * n
    baseline = betti(K) if check_betti else None
    for delta in range(6, n // 2 + 1):
        if edges == target_edges:
            break
        last = n // 2 if (n % 2 == 0 and delta == n // 2) else n
        for x in range(1, last + 1):
            if edges == target_edges:
                break
            G = (x, _mod_label(x + delta, n))
            F = tuple(_mod_label(x + k, n) for k in (1, 2, delta - 2, delta - 1))
            try:
                K = _bistellar_step(K, BistellarMove(F, G), log)
            except IllegalMove as e:
                raise ScheduleBlocked(
                    f"grouped fill blocked at delta={delta}, x={x}: {e}",
                    state={"edges": edges, "delta": delta, "x": x},
                ) from e
            edges += 1
            if K.f_vector[2] != edges:
                raise ScheduleBlocked("move did not add exactly one edge")
            if check_betti and betti(K).reduced_betti != baseline.reduced_betti:
                raise ScheduleBlocked("intermediate complex changed its Betti vector")
    if edges != target_edges:
        raise ScheduleBlocked("schedule exhausted before reaching the target")
    return K, log


def sphere_bundle_feasibility(n: int, m: int, e: int) -> Feasibility:
    """Edge-count window for n-vertex triangulations of S^1 x S^{2m-1}:
    feasible iff n >= 4m+3 and (2m+1) n <= e <= C(n, 2).  When e is a
    multiple of n a vertex-transitive triangulation with dihedral symmetry
    exists; the m = 2 fill realizes the windows constructively, higher m
    only arithmetically."""
    if m < 2:
        raise ArgumentOutOfRange("m must be >= 2")
    lower, upper = (2 * m + 1) * n, comb(n, 2)
    ok = n >= 4 * m + 3 and lower <= e <= upper
    note = f"needs n >= {4 * m + 3} and {lower} <= e <= C({n},2)"
    if ok and e % n == 0:
        note += "; e is a multiple of n: a vertex-transitive triangulation exists"
    return Feasibility(f"s1xs{2 * m - 1}", ok, lower, upper, e, note)


def has_dihedral_symmetry(K: SimplicialComplex, n: int) -> bool:
    """True when both x -> x+1 and x -> n+1-x (mod n on labels 1..n) are
    simplicial automorphisms; the cyclic family has this symmetry, and the
    grouped fill restores it each time a whole difference group completes."""
    if set(K.vertices) != set(range(1, n + 1)):
        return False
    rot = {x: _mod_label(x + 1, n) for x in range(1, n + 1)}
    ref = {x: _mod_label(n + 1 - x, n) for x in range(1, n + 1)}
    for sigma in (rot, ref):
        if set(K.relabel(sigma).facets) != set(K.facets):
            return False
    return True


# ---------------------------------------------------------------------------
# feasibility windows


@dataclass(frozen=True)
class Feasibility:
    space: str
    feasible: bool
    lower: int
    upper: int
    value: int
    note: str

    def __bool__(self) -> bool:
        return self.feasible


#: minimal g_2 in the complete characterizations, by space
G2_FLOORS = {
    "s1xs3": 15,   # orientable sphere bundle over the circle
    "cp2": 6,      # complex projective plane
    "k3": 55,      # K3 surfaces
    "s2xs2_sum2": 18,  # (S^2 x S^2) # (S^2 x S^2)
}

#: component-wise minimal h-vector over all triangulations of S^3 x S^3
S3XS3_MIN_H = (1, 6, 21, 56, 126, -21, 20, -1)


def feasibility(space: str, g1: int, g2: int) -> Feasibility:
    """Evaluate the characterization window for the given space.

    For the four 4-manifolds the arguments are (g_1, g_2) and the window is
    floor <= g_2 <= C(g_1+1, 2).  For "s3xs3" the arguments are (h_1, h_2) =
    (a, b) and the window is 15 <= b - a <= C(a, 2).
    """
    if space == "s3xs3":
        a, b = g1, g2
        lower, upper = 15, comb(a, 2)
        ok = lower <= b - a <= upper
        return Feasibility(space, ok, lower, upper, b - a, f"needs 15 <= h2-h1 <= C({a},2)")
    if space not in G2_FLOORS:
        raise UnknownSpace(f"unknown space {space!r}; known: {sorted(G2_FLOORS)} + ['s3xs3']")
    lower = G2_FLOORS[space]
    upper = comb(g1 + 1, 2)
    ok = lower <= g2 <= upper
    return Feasibility(space, ok, lower, upper, g2, f"needs {lower} <= g2 <= C({g1 + 1},2)")


# ---------------------------------------------------------------------------
# the realization machine


def _spanning_circle(K: SimplicialComplex, rho2: tuple) -> list:
    """Cyclic vertex order of the link of a codimension-two face, verified to
    pass through every other vertex."""
    L = K.link(rho2)
    if L.dim != 1:
        raise PreconditionFailed("link of the codimension-two face is not a graph")
    adj: dict = {}
    for e in L.facets:
        if len(e) != 2:
            raise PreconditionFailed("link is not a circle")
        a, b = e
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if any(len(v) != 2 for v in adj.values()):
        raise PreconditionFailed("link is not a circle")
    start = min(adj, key=label_key)
    cycle = [start, min(adj[start], key=label_key)]
    while True:
        nxt = [v for v in adj[cycle[-1]] if v != cycle[-2]]
        if nxt[0] == start:
            break
        cycle.append(nxt[0])
    if set(cycle) != set(K.vertices) - set(rho2):
        raise PreconditionFailed("circle link does not span the other vertices")
    return cycle


def _tree_from_circle(K: SimplicialComplex, rho2: tuple, circle: list) -> SimpleTree:
    """Spanning simple tree rho2 * (circle minus its closing edge)."""
    facets = [face(rho2 + (circle[i], circle[i + 1])) for i in range(len(circle) - 1)]
    return validate_simple_tree(K, facets)


def realize_g_pair(
    K: SimplicialComplex,
    tree: SimpleTree,
    a: int,
    b: int,
    log: MoveLog | None = None,
    verify_seed: bool = True,
) -> SimplicialComplex:
    """Reach h_1 = a and h_2 = b from a 2-neighborly closed homology manifold
    carrying a spanning simple tree whose facets share a codimension-three
    face.

    The window is a >= h_1(K) and g_2(K) + a <= b <= C(a+1, 2).  The walk
    does full-tree central retriangulations while they fit, then one partial
    retriangulation, then single-facet subdivisions; each full step leaves a
    2-neighborly complex with a fresh spanning tree through a codimension-two
    face, so the windows tile the whole range.
    """
    K.require_pure("realization")
    hv = h_vector(K)
    h1, h2 = hv[1], hv[2]
    g2 = h2 - h1
    if not K.is_i_neighborly(2):
        raise PreconditionFailed("seed complex must be 2-neighborly")
    if not tree.is_spanning():
        raise PreconditionFailed("tree must span the seed complex")
    common = set(tree.facets[0])
    for f in tree.facets[1:]:
        common &= set(f)
    if len(common) < K.d - 3:
        raise PreconditionFailed("tree facets must share a codimension-three face")
    if verify_seed:
        rep = manifold_report(K)
        if not rep.closed:
            raise PreconditionFailed("seed must be a closed homology manifold")
    if a < h1:
        raise TargetInfeasible(f"a = {a} below h_1 = {h1}")
    if not (g2 + a <= b <= comb(a + 1, 2)):
        raise TargetInfeasible(f"b = {b} outside [{g2 + a}, {comb(a + 1, 2)}]")
    k = a - h1
    if k == 0:
        return K  # window is the singleton b = h2 for a 2-neighborly seed
    # choose the number of full steps: after f full steps S_f = sum h1+i,
    # a partial step of length j in 1..h1+f+1 and k-f-1 subdivisions give
    # b - h2 = S_f + j + (k-f-1); ranges for consecutive f abut.
    need = b - h2
    S = 0
    chosen_f = 0
    for fsteps in range(k):
        St = sum(h1 + i for i in range(1, fsteps + 1))
        if St + 1 + (k - fsteps - 1) <= need <= St + (h1 + fsteps + 1) + (k - fsteps - 1):
            chosen_f = fsteps
            S = St
            break
    else:
        raise TargetInfeasible("no step split reaches the target (internal)")
    j = need - S - (k - chosen_f - 1)

    cur = K
    cur_tree = tree
    for step in range(chosen_f):
        cur, cur_tree = _full_step(cur, cur_tree, log)
    # partial step: retriangulate the first j facets of the current tree
    cur, _ = _retriangulation_step(cur, cur_tree.prefix(j), log)
    cur = _subdivide_facets(cur, k - chosen_f - 1, log)
    got = h_vector(cur)
    if (got[1], got[2]) != (a, b):
        raise TargetInfeasible(f"internal: reached (h1, h2) = {(got[1], got[2])}, wanted {(a, b)}")
    return cur


def _subdivide_facets(K: SimplicialComplex, count: int, log: MoveLog | None) -> SimplicialComplex:
    """Subdivide the first facet ``count`` times; each subdivision raises h_1
    and h_2 by one and leaves g_2 unchanged."""
    for _ in range(count):
        K = _bistellar_step(K, BistellarMove(K.facets[0], (fresh_vertex(K),)), log)
    return K


def _full_step(K: SimplicialComplex, tree: SimpleTree, log: MoveLog | None):
    """Central retriangulation of a full spanning tree, then construction of
    the successor spanning tree through a codimension-two face."""
    common = set(tree.facets[0])
    for f in tree.facets[1:]:
        common &= set(f)
    K2, w = _retriangulation_step(K, tree, log)
    # new codimension-two face: w joined with the shared face, topped up from
    # the previous shared face if it was larger than d-3
    shared = sorted(common, key=label_key)[: K.d - 3]
    rho2 = face(tuple(shared) + (w,))
    circle = _spanning_circle(K2, rho2)
    return K2, _tree_from_circle(K2, rho2, circle)
