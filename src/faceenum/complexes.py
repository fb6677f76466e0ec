"""Pure simplicial complexes stored as facet families over labeled vertices.

Vertex labels are opaque (ints or strings) with a stable total order: all
integer labels sort before all string labels, each kind in its natural order.
Faces are sorted tuples of labels.  A complex is an antichain of facets; faces
are enumerated on demand rather than stored, since the face lattice explodes
with dimension while the facet lists stay small.

All operations are pure: they return new complexes and never mutate inputs,
so values are freely shareable across threads.  The successor of a
construction move on labels of one kind (constructions add fresh vertices of
the host's kind) is a local edit of its parent that carries the parent's
caches (vertex index, vertices, f-vector), edited around the touched star;
a successor that mixes labels is built by the constructor.  A bistellar move
hands over its f-vector from its closed form, and a central retriangulation
of a simple tree from those of one 0-move and m - 1 one-moves when the host
is pure and each glued ridge lies in two facets; any other one recounts the
faces of its touched facets.  The full constructor stays the reference path.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from math import inf

from .errors import (
    AdmissibilityViolation,
    ArgumentOutOfRange,
    BijectionArityMismatch,
    DimensionOutOfRange,
    DuplicateVertexInFacet,
    EmptyInput,
    FaceNotInComplex,
    NotAFacet,
    NotBalanced,
    NotConnected,
    NotPure,
    VertexLabelCollision,
)

Label = int | str
Face = tuple  # sorted tuple of labels


def label_key(v: Label):
    """Total order on mixed int/str labels: ints first, then strings.  Any
    other label, bool included, raises ArgumentOutOfRange."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v, "")
    if isinstance(v, str):
        return (1, 0, v)
    raise ArgumentOutOfRange(f"vertex label {v!r} is neither an int nor a string")


def face(vertices) -> Face:
    """Canonical face: sorted tuple, duplicates rejected.  Anything that is
    not an iterable of labels raises ArgumentOutOfRange."""
    try:
        vs = tuple(sorted(vertices, key=label_key))
    except TypeError:
        raise ArgumentOutOfRange(f"a face is an iterable of vertex labels, not {vertices!r}") from None
    for a, b in zip(vs, vs[1:]):
        if a == b:
            raise DuplicateVertexInFacet(f"repeated vertex {a!r} in face {vs!r}")
    return vs


def _one_kind(labels) -> bool:
    """True when the labels are all ints or all strings.  Plain tuple order
    then agrees with ``label_key``, and on faces of one size with
    ``_facet_order``, so sorts and bisections need no key function."""
    return len({isinstance(v, str) for v in labels}) <= 1


def _canonical_faces(facets) -> list:
    """The canonical faces of an iterable of vertex-label iterables, in
    order; anything else raises ArgumentOutOfRange."""
    try:
        return [face(f) for f in facets]
    except TypeError:
        raise ArgumentOutOfRange(f"facets must be an iterable of faces, not {facets!r}") from None


def face_key(f) -> tuple:
    """Sort key for faces with possibly mixed int/str labels."""
    return tuple(label_key(v) for v in f)


def _facet_order(f) -> tuple:
    """Facet order of a complex: by size, then by ``label_key`` of the labels.

    A face lists its int labels before its str labels; an infinity between
    the two runs orders them the same way without an int-str comparison."""
    if not f or isinstance(f[-1], int):
        return (len(f), f + (inf,))
    k = next(i for i, v in enumerate(f) if isinstance(v, str))
    return (len(f), f[:k] + (inf,) + f[k:])


class SimplicialComplex:
    """Immutable simplicial complex given by its facets.

    The empty face is always present; ``SimplicialComplex([()])`` is the
    complex whose only face is the empty face (it arises as the link of a
    facet).  Purity is *not* enforced at construction; operations whose
    meaning requires purity check it themselves.
    """

    __slots__ = ("facets", "__dict__")

    def __init__(self, facets):
        fs = sorted(set(_canonical_faces(facets)), key=_facet_order)
        if not fs:
            raise EmptyInput("a complex needs at least one facet (use [()] for the empty-face complex)")
        # antichain reduction; same-size faces cannot contain one another, so
        # the common pure case keeps everything without any comparisons
        if len(fs[0]) == len(fs[-1]):
            self.facets = tuple(fs)
            return
        small_sizes = sorted({len(f) for f in fs})[:-1]
        subset_pool = set()
        keep = []
        for f in sorted(fs, key=len, reverse=True):
            if f in subset_pool:
                continue
            keep.append(f)
            for k in small_sizes:
                if k < len(f):
                    subset_pool.update(itertools.combinations(f, k))
        keep.sort(key=_facet_order)
        self.facets = tuple(keep)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, SimplicialComplex) and self.facets == other.facets

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.facets)} facets, dim {self.dim})"

    # -- basic queries ----------------------------------------------------

    @cached_property
    def vertices(self) -> tuple:
        seen = set()
        for f in self.facets:
            seen.update(f)
        return tuple(sorted(seen, key=label_key))

    @property
    def dim(self) -> int:
        return len(self.facets[-1]) - 1  # facets are sorted by size

    @property
    def d(self) -> int:
        """Facet cardinality d for a pure (d-1)-dimensional complex."""
        return self.dim + 1

    @cached_property
    def _vertex_to_facets(self) -> dict:
        """Each vertex's facets, as a tuple in facet order."""
        idx = {}
        for f in self.facets:
            for v in f:
                idx.setdefault(v, []).append(f)
        return {v: tuple(fs) for v, fs in idx.items()}

    def is_pure(self) -> bool:
        return len(self.facets[0]) == len(self.facets[-1])

    def require_pure(self, what: str = "operation"):
        if not self.is_pure():
            raise NotPure(f"{what} requires a pure complex")

    def has_face(self, rho) -> bool:
        rho = face(rho)
        if not rho:
            return True
        rs, last = set(rho), rho[-1]
        return any(last in f and rs.issubset(f) for f in self._vertex_to_facets.get(rho[0], ()))

    def facets_containing(self, rho) -> list:
        """The facets that contain rho, in facet order."""
        rho = face(rho)
        if not rho:
            return list(self.facets)
        cands = self._vertex_to_facets.get(rho[0], ())
        if len(rho) == 1:
            return list(cands)
        rs, last = set(rho), rho[-1]
        return [f for f in cands if last in f and rs.issubset(f)]

    def all_faces(self, i: int) -> set:
        """The set of i-dimensional faces; i ranges over -1 .. dim."""
        if not (-1 <= i <= self.dim):
            raise DimensionOutOfRange(f"i={i} outside -1..{self.dim}")
        out = set()
        for f in self.facets:
            if len(f) >= i + 1:
                out.update(itertools.combinations(f, i + 1))
        return out

    def faces(self):
        """Iterate over all faces (including the empty face), deduplicated."""
        seen = set()
        for f in self.facets:
            for k in range(len(f) + 1):
                for s in itertools.combinations(f, k):
                    if s not in seen:
                        seen.add(s)
                        yield s

    @cached_property
    def f_vector(self) -> tuple:
        """(f_-1, f_0, ..., f_{dim}) with f_-1 = 1."""
        counts = [0] * (self.dim + 2)
        for s in self.faces():
            counts[len(s)] += 1
        return tuple(counts)

    @cached_property
    def _link_censuses(self) -> dict:
        """Link census per field, filled by ``homology._link_census``."""
        return {}

    @cached_property
    def _vertex_certificates(self) -> dict:
        """The vertices with certified PL sphere links, once per complex and
        not per field, filled by ``homology._certified_vertices``."""
        return {}

    @cached_property
    def _top_pivot_columns(self) -> dict:
        """Pivot columns of the top boundary matrix per field, filled by
        ``homology._top_columns``."""
        return {}

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(self.all_faces(1)) if self.dim >= 1 else frozenset()

    def is_connected(self) -> bool:
        verts = self.vertices
        if len(verts) <= 1:
            return True
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for f in self.facets:
            for a, b in zip(f, f[1:]):
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
        root = find(verts[0])
        return all(find(v) == root for v in verts)

    def require_connected(self, what: str = "operation"):
        if not self.is_connected():
            raise NotConnected(f"{what} requires a connected complex")

    def is_i_neighborly(self, i: int) -> bool:
        """True iff every i-subset of the vertex set is a face."""
        n = len(self.vertices)
        if i <= 1:
            return True
        if i - 1 > self.dim:
            return False
        import math

        return len(self.all_faces(i - 1)) == math.comb(n, i)

    def nonedges(self) -> list:
        """Vertex pairs that do not span an edge, sorted."""
        es = self.edges
        return [p for p in itertools.combinations(self.vertices, 2) if p not in es]

    # -- local operations -------------------------------------------------

    def link(self, rho) -> "SimplicialComplex":
        rho = face(rho)
        if not self.has_face(rho):
            raise FaceNotInComplex(f"{rho!r} is not a face")
        rs = set(rho)
        return SimplicialComplex(
            [tuple(v for v in f if v not in rs) for f in self.facets_containing(rho)]
        )

    def closed_star(self, rho) -> "SimplicialComplex":
        rho = face(rho)
        if not self.has_face(rho):
            raise FaceNotInComplex(f"{rho!r} is not a face")
        return SimplicialComplex(self.facets_containing(rho))

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        shared = set(self.vertices) & set(other.vertices)
        if shared:
            raise VertexLabelCollision(f"join requires disjoint labels; shared: {sorted(shared, key=label_key)}")
        return SimplicialComplex([f + g for f in self.facets for g in other.facets])

    def induced(self, W) -> "SimplicialComplex":
        """Subcomplex of faces contained in the vertex set W."""
        ws = set(W)
        parts = [tuple(v for v in f if v in ws) for f in self.facets]
        return SimplicialComplex(parts)

    def relabel(self, mapping: dict) -> "SimplicialComplex":
        return SimplicialComplex([[mapping.get(v, v) for v in f] for f in self.facets])

    def _edited(self, removed, added, f_vector: tuple | None = None) -> "SimplicialComplex":
        """The successor with the facets ``removed`` replaced by the new
        canonical faces ``added``; the caller guarantees that ``removed`` are
        facets, that ``added`` are not faces, and that the result is an
        antichain.  When the result is pure and its labels are of one kind
        (constructions keep their host's kind, see ``fresh_vertex``), plain
        tuple order is the facet order, and the facets, the vertex index and
        the vertices are bisected and edited around the touched vertices.
        Otherwise the constructor builds the successor.  It carries
        ``f_vector`` when the caller knows it from a closed form (a bistellar
        move, or a central retriangulation of a simple tree), else, when the
        parent has an f-vector, a local recount (``_edited_f_vector``).
        """
        removed = set(removed)
        verts = list(self.vertices)
        size = len(self.facets[0])
        if self.is_pure() and all(len(f) == size for f in added) and _one_kind(
                [*verts[:1], *verts[-1:], *(v for f in added for v in (f[0], f[-1]))]):
            fs = list(self.facets)
            for f in removed:
                del fs[bisect_left(fs, f)]
            for f in added:
                insort(fs, f)
            out = SimplicialComplex.__new__(SimplicialComplex)
            out.facets = tuple(fs)
            old_idx = self._vertex_to_facets
            idx = dict(old_idx)
            for v in {v for f in (*removed, *added) for v in f}:
                star = [f for f in old_idx.get(v, ()) if f not in removed]
                for f in added:
                    if v in f:
                        insort(star, f)
                if star:
                    if v not in old_idx:
                        insort(verts, v)
                    idx[v] = tuple(star)
                else:
                    del idx[v]
                    del verts[bisect_left(verts, v)]
            out.__dict__.update(_vertex_to_facets=idx, vertices=tuple(verts))
        else:
            out = SimplicialComplex([f for f in self.facets if f not in removed] + list(added))
        if f_vector is not None:
            out.__dict__["f_vector"] = f_vector
        elif "f_vector" in self.__dict__:
            out.__dict__["f_vector"] = self._edited_f_vector(removed, added, len(out.facets[-1]) + 1)
        return out

    def _edited_f_vector(self, removed: set, added, size: int) -> tuple:
        """f-vector after the edit of ``_edited``, by a local recount: a face
        of only the removed facets disappears and a face of only the added
        facets is new, unless a kept facet contains it.  Faces go by size, so
        a face with a lost subface is lost without a look at the stars.  It
        serves the central retriangulations that the closed form does not
        cover: a ball given as a complex or a facet list, a hand-built
        SimpleTree whose facets do not attach in their order, a glued ridge
        in more than two facets, or a host that is not pure.  It is the
        oracle of both closed forms in the tests."""
        def faces_of(facets):
            return {s for f in facets for k in range(1, len(f) + 1) for s in itertools.combinations(f, k)}

        counts = list(self.f_vector) + [0] * (size - len(self.f_vector))
        born = faces_of(added)
        lost = set()  # faces that no kept facet contains
        for s in sorted(faces_of(removed) ^ born, key=len):
            if not any(s[:i] + s[i + 1:] in lost for i in range(len(s))):
                rs = set(s)
                star = min((self._vertex_to_facets.get(v, ()) for v in s), key=len)
                if any(rs.issubset(g) and g not in removed for g in star):
                    continue
            lost.add(s)
            counts[len(s)] += 1 if s in born else -1
        return tuple(counts[:size])


def _require_complex(K) -> None:
    if not isinstance(K, SimplicialComplex):
        raise ArgumentOutOfRange(f"expected a SimplicialComplex, got {type(K).__name__}")


def from_facets(facet_list) -> SimplicialComplex:
    """Build a complex from a list of vertex-label lists.

    Facets contained in other facets are absorbed; duplicate vertices within
    one facet are an error.  Purity is checked lazily by the operations that
    need it.
    """
    if not facet_list:
        raise EmptyInput("empty facet list")
    return SimplicialComplex(facet_list)


def all_faces(K: SimplicialComplex, i: int) -> set:
    return K.all_faces(i)


def connected_sum(K: SimplicialComplex, sigma, Kp: SimplicialComplex, sigma_p, bijection: dict) -> SimplicialComplex:
    """Glue K and Kp along the facets sigma (of K) and sigma_p (of Kp).

    ``bijection`` maps each vertex of sigma_p to a vertex of sigma.  The
    identified facet is removed from both sides.  The bijection is an explicit
    argument because the homeomorphism type of the result can depend on it.
    """
    sigma = face(sigma)
    sigma_p = face(sigma_p)
    if sigma not in K.facets:
        raise NotAFacet(f"{sigma!r} is not a facet of the first complex")
    if sigma_p not in Kp.facets:
        raise NotAFacet(f"{sigma_p!r} is not a facet of the second complex")
    if set(bijection.keys()) != set(sigma_p) or set(bijection.values()) != set(sigma):
        raise BijectionArityMismatch("bijection must map the vertices of sigma' onto the vertices of sigma")
    if len(bijection) != len(sigma):
        raise BijectionArityMismatch("facet sizes differ")
    rest = set(Kp.vertices) - set(sigma_p)
    clash = rest & set(K.vertices)
    if clash:
        raise VertexLabelCollision(f"labels outside the glued facet must be disjoint: {sorted(clash, key=label_key)}")
    relabeled = Kp.relabel(bijection)
    new_facets = [f for f in K.facets if f != sigma]
    new_facets += [f for f in relabeled.facets if f != sigma]
    return SimplicialComplex(new_facets)


def handle_addition(K: SimplicialComplex, sigma, sigma_p, bijection: dict) -> SimplicialComplex:
    """Identify two disjoint facets of K via ``bijection`` (sigma -> sigma_p).

    Admissible only when no vertex is identified with a neighbor and no two
    identified vertices share a common neighbor; both facet copies disappear.
    """
    sigma = face(sigma)
    sigma_p = face(sigma_p)
    if sigma not in K.facets:
        raise NotAFacet(f"{sigma!r} is not a facet")
    if sigma_p not in K.facets:
        raise NotAFacet(f"{sigma_p!r} is not a facet")
    if set(sigma) & set(sigma_p):
        raise AdmissibilityViolation("facets must be disjoint", pair=tuple(set(sigma) & set(sigma_p)))
    if set(bijection.keys()) != set(sigma) or set(bijection.values()) != set(sigma_p):
        raise BijectionArityMismatch("bijection must map sigma onto sigma'")
    edge_set = K.edges
    neighbors = {v: set() for v in K.vertices}
    for a, b in edge_set:
        neighbors[a].add(b)
        neighbors[b].add(a)
    for v, w in bijection.items():
        if w in neighbors[v]:
            raise AdmissibilityViolation(f"{v!r} and {w!r} are neighbors", pair=(v, w))
        common = neighbors[v] & neighbors[w]
        if common:
            u = sorted(common, key=label_key)[0]
            raise AdmissibilityViolation(
                f"{v!r} and {w!r} have a common neighbor {u!r}", pair=(v, w), common_neighbor=u
            )
    mapping = {w: v for v, w in bijection.items()}  # collapse sigma' onto sigma
    new_facets = []
    for f in K.facets:
        if f == sigma or f == sigma_p:
            continue
        new_facets.append(tuple(mapping.get(v, v) for v in f))
    result = SimplicialComplex(new_facets)
    # the admissibility conditions guarantee no face collapses; check anyway
    if sum(1 for _ in result.facets) != len(new_facets):
        raise AdmissibilityViolation("identification collapsed distinct facets")
    return result


@dataclass(frozen=True)
class Coloring:
    """Vertex coloring phi: V -> {1..m} together with a type vector a.

    A pure complex is balanced of type a when every facet meets color class j
    in exactly a_j vertices.
    """

    type_vector: tuple
    phi: dict = field(compare=False)

    def __post_init__(self):
        a = tuple(int(x) for x in self.type_vector)
        object.__setattr__(self, "type_vector", a)
        if any(x <= 0 for x in a):
            raise NotBalanced("type vector entries must be positive")
        m = len(a)
        if set(self.phi.values()) != set(range(1, m + 1)):
            raise NotBalanced("phi must be surjective onto {1..m}")

    @property
    def m(self) -> int:
        return len(self.type_vector)

    def color_counts(self, fac) -> tuple:
        counts = [0] * self.m
        for v in fac:
            counts[self.phi[v] - 1] += 1
        return tuple(counts)

    def check_balanced(self, K: SimplicialComplex):
        a = self.type_vector
        if sum(a) != K.d:
            raise NotBalanced(f"|a| = {sum(a)} but facets have {K.d} vertices")
        for f in K.facets:
            if self.color_counts(f) != a:
                raise NotBalanced(f"facet {f!r} has color counts {self.color_counts(f)}, wanted {a}", facet=f)


def simplex(d: int) -> SimplicialComplex:
    """The full (d-1)-dimensional simplex on vertices 1..d."""
    if d < 1:
        raise DimensionOutOfRange("d must be >= 1")
    return SimplicialComplex([tuple(range(1, d + 1))])


def fresh_vertex(K: SimplicialComplex) -> Label:
    """A label that K does not use, of K's own kind: max + 1 when every label
    of K is an int, so a construction on an int complex stays on int labels;
    otherwise (str, mixed or no labels) the first of 'w1', 'w2', ... that K
    does not use."""
    verts = K.vertices
    if verts and isinstance(verts[-1], int):  # ints sort before strs
        return verts[-1] + 1
    i = 1
    while f"w{i}" in K._vertex_to_facets:
        i += 1
    return f"w{i}"
