"""Embedded catalog of reference triangulations and posets.

Entries carry golden invariants and verify themselves on load: the cheap
checks (f, h, neighborliness) always run, homology only on request.

Contents:
  cp2_9        Kuhnel's 9-vertex triangulation of the complex projective plane
  cp2_tree     a spanning simple 2-tree in the link of the edge [1,2] of cp2_9
  s2xs2_sum    Lutz's 12-vertex triangulation of (S^2 x S^2) # (S^2 x S^2)
  s2xs2_moves  three one-moves that make s2xs2_sum 2-neighborly
  s2xs2_tree   a spanning simple 2-tree in the link of {1,2} after the moves
  bipyramid    boundary of the bipyramid over a pentagon, balanced of type (1,2)
  torus_poset  face poset of the standard 2x2 cell decomposition of the torus
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .complexes import Coloring, SimplicialComplex
from .constructions import (
    BistellarMove,
    MoveLog,
    _bistellar_step,
    _subdivide_facets,
    apply_bistellar,
    feasibility,
    realize_g_pair,
    s1xs3_fill,
)
from .errors import PreconditionFailed, TargetInfeasible, UnknownEntry, UnknownSpace
from .homology import betti, euler_characteristic, manifold_report
from .posets import GradedPoset
from .trees import _codim3_tree, _lift_tree, validate_simple_tree
from .vectors import h_vector

CP2_FACETS = [
    [1, 2, 3, 4, 5], [1, 2, 3, 4, 7], [1, 2, 3, 5, 8], [1, 2, 3, 7, 8],
    [1, 2, 4, 5, 6], [1, 2, 4, 6, 7], [1, 2, 5, 6, 8], [1, 2, 6, 7, 9],
    [1, 2, 6, 8, 9], [1, 2, 7, 8, 9], [1, 3, 4, 5, 9], [1, 3, 4, 7, 8],
    [1, 3, 4, 8, 9], [1, 3, 5, 6, 8], [1, 3, 5, 6, 9], [1, 3, 6, 8, 9],
    [1, 4, 5, 6, 7], [1, 4, 5, 7, 9], [1, 4, 7, 8, 9], [1, 5, 6, 7, 9],
    [2, 3, 4, 5, 9], [2, 3, 4, 6, 7], [2, 3, 4, 6, 9], [2, 3, 5, 7, 8],
    [2, 3, 5, 7, 9], [2, 3, 6, 7, 9], [2, 4, 5, 6, 8], [2, 4, 5, 8, 9],
    [2, 4, 6, 8, 9], [2, 5, 7, 8, 9], [3, 4, 6, 7, 8], [3, 4, 6, 8, 9],
    [3, 5, 6, 7, 8], [3, 5, 6, 7, 9], [4, 5, 6, 7, 8], [4, 5, 7, 8, 9],
]

CP2_TREE = [[3, 4, 7], [3, 4, 5], [4, 5, 6], [5, 6, 8], [6, 8, 9]]

S2XS2_FACETS = [
    [1, 2, 3, 4, 7], [1, 2, 3, 4, 10], [1, 2, 3, 7, 10], [1, 2, 4, 7, 8],
    [1, 2, 4, 8, 11], [1, 2, 4, 9, 10], [1, 2, 4, 9, 12], [1, 2, 4, 11, 12],
    [1, 2, 7, 8, 10], [1, 2, 8, 9, 10], [1, 2, 8, 9, 12], [1, 2, 8, 11, 12],
    [1, 3, 4, 7, 11], [1, 3, 4, 10, 11], [1, 3, 7, 8, 11], [1, 3, 7, 8, 12],
    [1, 3, 7, 9, 10], [1, 3, 7, 9, 12], [1, 3, 8, 11, 12], [1, 3, 9, 10, 12],
    [1, 3, 10, 11, 12], [1, 4, 7, 8, 11], [1, 4, 9, 10, 11], [1, 4, 9, 11, 12],
    [1, 7, 8, 9, 10], [1, 7, 8, 9, 12], [1, 9, 10, 11, 12], [2, 3, 4, 6, 9],
    [2, 3, 4, 6, 10], [2, 3, 4, 7, 12], [2, 3, 4, 9, 12], [2, 3, 5, 7, 9],
    [2, 3, 5, 7, 10], [2, 3, 5, 8, 10], [2, 3, 5, 8, 11], [2, 3, 5, 9, 11],
    [2, 3, 6, 9, 11], [2, 3, 6, 10, 11], [2, 3, 7, 9, 12], [2, 3, 8, 10, 11],
    [2, 4, 5, 7, 8], [2, 4, 5, 7, 12], [2, 4, 5, 8, 11], [2, 4, 5, 11, 12],
    [2, 4, 6, 9, 10], [2, 5, 7, 8, 10], [2, 5, 7, 9, 11], [2, 5, 7, 11, 12],
    [2, 6, 7, 9, 11], [2, 6, 7, 9, 12], [2, 6, 7, 11, 12], [2, 6, 8, 9, 10],
    [2, 6, 8, 9, 12], [2, 6, 8, 10, 12], [2, 6, 10, 11, 12], [2, 8, 10, 11, 12],
    [3, 4, 5, 8, 9], [3, 4, 5, 8, 12], [3, 4, 5, 9, 12], [3, 4, 6, 7, 11],
    [3, 4, 6, 7, 12], [3, 4, 6, 8, 9], [3, 4, 6, 8, 12], [3, 4, 6, 10, 11],
    [3, 5, 7, 9, 10], [3, 5, 8, 9, 11], [3, 5, 8, 10, 12], [3, 5, 9, 10, 12],
    [3, 6, 7, 8, 11], [3, 6, 7, 8, 12], [3, 6, 8, 9, 11], [3, 8, 10, 11, 12],
    [4, 5, 7, 8, 10], [4, 5, 7, 10, 12], [4, 5, 8, 9, 11], [4, 5, 8, 10, 12],
    [4, 5, 9, 11, 12], [4, 6, 7, 10, 11], [4, 6, 7, 10, 12], [4, 6, 8, 9, 10],
    [4, 6, 8, 10, 12], [4, 7, 8, 9, 10], [4, 7, 8, 9, 11], [4, 7, 9, 10, 11],
    [5, 7, 9, 10, 11], [5, 7, 10, 11, 12], [5, 9, 10, 11, 12], [6, 7, 8, 9, 11],
    [6, 7, 8, 9, 12], [6, 7, 10, 11, 12],
]

# each pair of facets shares a 3-face F; the move exchanges the two opposite
# vertices for the missing edge between them
S2XS2_MOVE_FACETS = [
    ([1, 2, 3, 7, 10], [2, 3, 5, 7, 10]),
    ([2, 3, 5, 9, 11], [2, 3, 6, 9, 11]),
    ([1, 2, 4, 9, 10], [2, 4, 6, 9, 10]),
]

S2XS2_TREE = [
    [3, 5, 10], [5, 7, 10], [7, 8, 10], [8, 9, 10],
    [8, 9, 12], [4, 9, 12], [4, 6, 9], [4, 11, 12],
]

# pentagon 1..5, apexes 6 and 7
BIPYRAMID_FACETS = [
    [1, 2, 6], [2, 3, 6], [3, 4, 6], [4, 5, 6], [1, 5, 6],
    [1, 2, 7], [2, 3, 7], [3, 4, 7], [4, 5, 7], [1, 5, 7],
]
BIPYRAMID_COLORING = Coloring((1, 2), {6: 1, 7: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2})


def _torus_poset() -> GradedPoset:
    """Face poset of the 2x2 grid cell decomposition of the torus: 4 vertices,
    8 edges (two parallel classes of double edges), 4 squares."""
    verts = [("v", i, j) for i in range(2) for j in range(2)]
    hedges = [("h", i, j) for i in range(2) for j in range(2)]
    vedges = [("u", i, j) for i in range(2) for j in range(2)]
    squares = [("s", i, j) for i in range(2) for j in range(2)]
    bottom, top = "bottom", "top"
    covers = []
    for v in verts:
        covers.append((bottom, v))
    for (_, i, j) in hedges:
        covers.append((("v", i, j), ("h", i, j)))
        covers.append((("v", (i + 1) % 2, j), ("h", i, j)))
    for (_, i, j) in vedges:
        covers.append((("v", i, j), ("u", i, j)))
        covers.append((("v", i, (j + 1) % 2), ("u", i, j)))
    for (_, i, j) in squares:
        covers.append((("h", i, j), ("s", i, j)))
        covers.append((("h", i, (j + 1) % 2), ("s", i, j)))
        covers.append((("u", i, j), ("s", i, j)))
        covers.append((("u", (i + 1) % 2, j), ("s", i, j)))
    for s in squares:
        covers.append((s, top))
    return GradedPoset([bottom] + verts + hedges + vedges + squares + [top], covers)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "complex" | "tree" | "moves" | "poset" | "balanced"
    payload: object
    note: str
    golden: dict

    def complex(self) -> SimplicialComplex:
        if self.kind == "complex":
            return self.payload
        if self.kind == "balanced":
            return self.payload[0]
        raise UnknownEntry(f"{self.name} is not a complex entry")


def _check_complex_golden(K: SimplicialComplex, golden: dict, name: str):
    if "f" in golden and tuple(K.f_vector[1:]) != tuple(golden["f"]):
        raise UnknownEntry(f"catalog {name}: f-vector {K.f_vector[1:]} != {golden['f']}")
    if "h" in golden and h_vector(K).entries != tuple(golden["h"]):
        raise UnknownEntry(f"catalog {name}: h-vector mismatch")
    if "euler" in golden and euler_characteristic(K) != golden["euler"]:
        raise UnknownEntry(f"catalog {name}: Euler characteristic mismatch")


def catalog(name: str, verify: str = "fast") -> CatalogEntry:
    """Fetch a catalog entry; ``verify`` is "fast" (f/h/chi) or "full"
    (additionally the golden Betti numbers over Q)."""
    if name == "cp2_9":
        K = SimplicialComplex(CP2_FACETS)
        golden = {
            "f": (9, 36, 84, 90, 36),
            "h": (1, 4, 10, 20, -1, 2),
            "euler": 3,
            "betti": (0, 0, 1, 0, 1),
        }
        _check_complex_golden(K, golden, name)
        if verify == "full" and betti(K).positive_range() != golden["betti"]:
            raise UnknownEntry("cp2_9: Betti mismatch")
        return CatalogEntry(name, "complex", K,
                            "Kuhnel's 9-vertex complex projective plane", golden)
    if name == "cp2_tree":
        host = SimplicialComplex(CP2_FACETS).link((1, 2))
        tree = validate_simple_tree(host, CP2_TREE)
        if not tree.is_spanning():
            raise UnknownEntry("cp2_tree: not spanning")
        return CatalogEntry(name, "tree", tree,
                            "spanning simple 2-tree in the link of [1,2] of cp2_9",
                            {"length": 5})
    if name == "s2xs2_sum":
        K = SimplicialComplex(S2XS2_FACETS)
        golden = {
            "f": (12, 63, 192, 225, 90),
            "h": (1, 7, 25, 65, -13, 5),
            "euler": 6,
            "betti": (0, 0, 4, 0, 1),
            "nonedges": ((1, 5), (1, 6), (5, 6)),
        }
        _check_complex_golden(K, golden, name)
        if tuple(K.nonedges()) != golden["nonedges"]:
            raise UnknownEntry("s2xs2_sum: unexpected nonedges")
        if verify == "full" and betti(K).positive_range() != golden["betti"]:
            raise UnknownEntry("s2xs2_sum: Betti mismatch")
        return CatalogEntry(name, "complex", K,
                            "Lutz's 12-vertex (S^2 x S^2) # (S^2 x S^2)", golden)
    if name == "s2xs2_moves":
        moves = []
        for fa, fb in S2XS2_MOVE_FACETS:
            shared = tuple(sorted(set(fa) & set(fb)))
            opp = tuple(sorted(set(fa) ^ set(fb)))
            moves.append(BistellarMove(shared, opp))
        return CatalogEntry(name, "moves", tuple(moves),
                            "one-moves adding the edges {1,5}, {5,6}, {1,6}",
                            {"edges_added": ((1, 5), (5, 6), (1, 6))})
    if name == "s2xs2_tree":
        K = s2xs2_two_neighborly()
        host = K.link((1, 2))
        tree = validate_simple_tree(host, S2XS2_TREE)
        if not tree.is_spanning():
            raise UnknownEntry("s2xs2_tree: not spanning")
        return CatalogEntry(name, "tree", tree,
                            "spanning simple 2-tree in the link of {1,2} after the moves",
                            {"length": 8})
    if name == "bipyramid":
        K = SimplicialComplex(BIPYRAMID_FACETS)
        golden = {
            "f": (7, 15, 10),
            "h": (1, 4, 4, 1),
            "euler": 2,
            "fine_f": {(0, 0): 1, (1, 0): 2, (0, 1): 5, (1, 1): 10, (0, 2): 5, (1, 2): 10},
            "fine_h": {(0, 0): 1, (1, 0): 1, (0, 1): 3, (1, 1): 3, (0, 2): 1, (1, 2): 1},
        }
        _check_complex_golden(K, golden, name)
        BIPYRAMID_COLORING.check_balanced(K)
        return CatalogEntry(name, "balanced", (K, BIPYRAMID_COLORING),
                            "pentagon bipyramid, balanced of type (1,2)", golden)
    if name == "torus_poset":
        P = _torus_poset()
        P.validate()
        golden = {"rank": 4, "toric": (1, 1, 7, -1), "euler": 0}
        if P.total_rank != 4:
            raise UnknownEntry("torus_poset: wrong rank")
        return CatalogEntry(name, "poset", P,
                            "face poset of the 2x2 torus cell decomposition", golden)
    raise UnknownEntry(f"unknown catalog entry {name!r}")


CATALOG_NAMES = (
    "cp2_9", "cp2_tree", "s2xs2_sum", "s2xs2_moves", "s2xs2_tree",
    "bipyramid", "torus_poset",
)


def s2xs2_two_neighborly() -> SimplicialComplex:
    """The 12-vertex connected sum of two copies of S^2 x S^2 after the three
    recorded one-moves; 2-neighborly."""
    K = SimplicialComplex(S2XS2_FACETS)
    for move in catalog("s2xs2_moves").payload:
        K = apply_bistellar(K, move)
    return K


@cache
def _seed(space: str) -> tuple:
    """(seed, lifted tree) for cp2 and s2xs2_sum2, and (Lutz's complex, its
    one-moves) for s2xs2_sum, built once per process and shared with their
    cached counts and link census: complexes are immutable values."""
    if space == "s2xs2_sum":
        return catalog("s2xs2_sum").payload, catalog("s2xs2_moves").payload
    K = catalog("cp2_9").payload if space == "cp2" else s2xs2_two_neighborly()
    return K, _lift_tree(K, (1, 2), CP2_TREE if space == "cp2" else S2XS2_TREE)


def realize_space(
    space: str,
    g1: int,
    g2: int,
    log: MoveLog | None = None,
    k3_seed: SimplicialComplex | None = None,
    verify_seed: bool = False,
) -> SimplicialComplex:
    """Produce a triangulation of the given space with the requested
    (g_1, g_2), routing to the appropriate seed and construction.

    The sphere bundle uses the grouped edge fill; the projective plane and
    the double connected sum use the realization machine on their catalog
    seeds, except that g_2 = 18..20 of the double connected sum lie below its
    2-neighborly seed and start from Lutz's complex instead (the move log
    then replays from ``catalog("s2xs2_sum")``).  Each catalog seed is built
    once per process, and new vertices continue its int labels.  K3
    realization needs a user-supplied seed triangulation with g-vector
    (1, 10, 55) since the 16-vertex facet list is external input; it is
    never cached.
    """
    a, b = g1 + 1, g1 + 1 + g2  # h-vector targets
    if space == "s1xs3":
        feasibility_gate(space, g1, g2)
        n = g1 + 6
        target_edges = b + 4 * n - 10
        K, _ = s1xs3_fill(n, target_edges, log=log)
        return K
    if space == "s2xs2_sum2" and g2 < 21:
        feasibility_gate(space, g1, g2)
        K, moves = _seed("s2xs2_sum")  # g_2 = 18; one one-move per missing edge
        if verify_seed and not manifold_report(K).closed:
            raise PreconditionFailed("seed must be a closed homology manifold")
        for move in moves[: g2 - 18]:
            K = _bistellar_step(K, move, log)
        return _subdivide_facets(K, g1 - 6, log)
    if space in ("cp2", "s2xs2_sum2"):
        feasibility_gate(space, g1, g2)
        seed, tree = _seed(space)
        return realize_g_pair(seed, tree, a, b, log=log, verify_seed=verify_seed)
    if space == "k3":
        feasibility_gate(space, g1, g2)
        if k3_seed is None:
            raise UnknownSpace(
                "K3 realization needs a seed triangulation (16 vertices, g = (1,10,55)) supplied as input"
            )
        hv = h_vector(k3_seed)
        if (hv[1], hv[2] - hv[1]) != (11, 55):
            raise UnknownSpace("supplied K3 seed does not have g-vector (1, 10, 55)")
        found = _codim3_tree(k3_seed, node_budget=50_000)
        if found is None:
            raise UnknownSpace("no spanning simple 2-tree found in any codimension-three link")
        return realize_g_pair(k3_seed, found[1], a, b, log=log, verify_seed=verify_seed)
    raise UnknownSpace(f"cannot realize {space!r}")


def feasibility_gate(space: str, g1: int, g2: int):
    fz = feasibility(space, g1, g2)
    if not fz:
        raise TargetInfeasible(f"({g1}, {g2}) outside the window for {space}: {fz.note}")
    return fz
