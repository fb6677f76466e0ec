"""Exact simplicial homology over Q or GF(p), and the recognition predicates
built on it: homology sphere/ball/manifold, orientability, Eulerian and
semi-Eulerian complexes.

Reduced Betti numbers are computed from ranks of augmented boundary matrices.
Everything is exact.  One pivot-indexed elimination serves every field: each
row is reduced against the pivot registered for its leading column until it
vanishes or becomes a new pivot.  Only the row arithmetic depends on the
field: GF(2) rows are int bitmasks keyed by their lowest set bit, GF(p) rows
are sparse dicts mod p with unit pivots, and rows over Q stay integral by
cross-multiplication with gcd normalization (no floating point, no fractions).
``betti`` ranks from the top dimension down and clears: a k-face that leads
a pivot of the boundary from the (k+1)-faces is left out of the k-th
boundary's rows, which keeps the rank since the boundary of a boundary is 0.

Recognition starts from PL certificates.  One reducer, ``_pl_class``,
applies the facet-decreasing bistellar moves of Bjorner and Lutz: it trades
the star A * dB of a face A for dA * B when |A| < |B| and B is no face, a PL
homeomorphism, and it proves a PL sphere when it reaches the boundary of a
simplex.  Every face link of a PL sphere is again one.  So a whole complex
with the facet count of a stacked sphere that reduces is a homology sphere,
closed and orientable, with no rank taken.

The sphere and manifold predicates share one link census per complex and
field: one row per nonempty face, whether its link is a sphere, a ball or
bad, and whether it is connected.  The census is cached on the immutable
complex.  When K is pure of dimension >= 4 every vertex link goes to the
reducer first, once per complex, and each face through a certified vertex
gets a sphere row with no link built.  In Walkup's class, the KL family
among it, and on CP^2_9 and (S^2xS^2)#(S^2xS^2), that is every face, and
the rows are the same over every field.  The other faces are walked from
the largest down, each link built once in one pass over the facets (see
``_census_rows``).  A walked link is decided from its star size, else
counted, else by the reducer, else by a collapse certificate, else by
ranks.  Only the reducer's PL certificate carries over to the faces through
a vertex; the collapse and the ranks prove homology alone.  Only the links
where the collapse gets stuck (bad links, and acyclic ones such as the
dunce hat) are ranked.  ``betti`` of a whole complex always ranks.  The
Eulerian predicates need only face counts: they read a cached census when
one has no bad row, and count otherwise; they never build one.  Links of
links need no second walk, since lk_{lk rho}(sigma) = lk_K(rho u sigma):
lk rho is a homology manifold without boundary exactly when every face
strictly containing rho has a sphere row.

The construction layer (trees, constructions, refit, catalog) runs its
homology checks over Q; only the recognition predicates take a field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

from .complexes import SimplicialComplex, _facet_order, _one_kind, _require_complex
from .errors import ArgumentOutOfRange


# ---------------------------------------------------------------------------
# fields


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Either the rationals (p=None) or the prime field GF(p)."""

    p: int | None = None

    def __post_init__(self):
        p = self.p
        if p is not None and (not isinstance(p, int) or isinstance(p, bool) or not _is_prime(p)):
            raise ArgumentOutOfRange(f"field characteristic {p!r} is neither None nor a prime int")

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


RATIONALS = FieldSpec(None)
GF2 = FieldSpec(2)


def _require_field(field) -> None:
    if not isinstance(field, FieldSpec):
        raise ArgumentOutOfRange(f"field {field!r} is not a FieldSpec")


# ---------------------------------------------------------------------------
# exact rank computation


def _eliminate(rows, lead, reduce, settle) -> dict:
    """Pivot-indexed elimination (Dumas-Saunders-Villard, 2001): each row is
    reduced against the pivot of its leading column until it vanishes or
    leads in a column with no pivot, where ``settle`` makes it the pivot.
    Returns the pivots by leading column; the rank is their number."""
    pivots: dict = {}  # leading column -> pivot row
    for row in rows:
        while row:
            c = lead(row)
            q = pivots.get(c)
            if q is None:
                pivots[c] = settle(row, c)
                break
            row = reduce(row, q, c)
    return pivots


def _bits(row: dict) -> int:
    """A row over GF(2) as an int bitmask of its odd entries."""
    m = 0
    for c, v in row.items():
        if v & 1:
            m |= 1 << c
    return m


def _gcd_normalize(row: dict) -> dict:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        for k in row:
            row[k] //= g
    return row


def _reduce_int(row: dict, q: dict, c: int) -> dict:
    """Clear column c of an integer row with the pivot row q, without
    division: a unit pivot is subtracted, any other is cross-multiplied and
    the row renormalized by its gcd, so entries stay integral.  Boundary
    matrices almost always keep unit pivots."""
    a = row.pop(c)
    pv = q[c]
    scaled = pv != 1 and pv != -1
    if scaled:
        g = gcd(a, pv)
        s = pv // g
        for k in row:
            row[k] *= s
        a //= g
    else:
        a *= pv
    for k, v in q.items():
        if k != c:
            nv = row.get(k, 0) - a * v
            if nv:
                row[k] = nv
            elif k in row:
                del row[k]
    return _gcd_normalize(row) if scaled else row


def _mod_arithmetic(p: int) -> tuple:
    """(reduce, settle) for sparse rows mod p, with unit pivots."""

    def reduce(row: dict, q: dict, c: int) -> dict:
        a = row.pop(c)
        for k, v in q.items():
            if k != c:
                nv = (row.get(k, 0) - a * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
        return row

    def settle(row: dict, c: int) -> dict:
        inv = pow(row[c], -1, p)
        return {k: v * inv % p for k, v in row.items()}

    return reduce, settle


def _pivot_columns(rows: list[dict], field: FieldSpec) -> set:
    """The leading columns of the pivots of a sparse integer matrix over the
    given field; their number is its rank.  This only chooses the row
    arithmetic for ``_eliminate``; shorter rows go first.  A GF(2) pivot is
    keyed by the lowest bit ``1 << c`` of its row."""
    rows = sorted((r for r in rows if r), key=len)
    p = field.p
    if p is None:
        return set(_eliminate(map(dict, rows), min, _reduce_int, lambda row, c: _gcd_normalize(row)))
    if p == 2:
        pivots = _eliminate(map(_bits, rows), lambda m: m & -m, lambda m, q, c: m ^ q, lambda m, c: m)
        return {m.bit_length() - 1 for m in pivots}
    reduce, settle = _mod_arithmetic(p)
    return set(_eliminate(({c: v % p for c, v in r.items() if v % p} for r in rows), min, reduce, settle))


def matrix_rank(rows: list[dict], field: FieldSpec) -> int:
    """Exact rank of a sparse integer matrix over the given field."""
    return len(_pivot_columns(rows, field))


# ---------------------------------------------------------------------------
# boundary matrices and Betti numbers


def _boundary_rows(faces_k: list, index_km1: dict) -> list[dict]:
    """Columns = k-faces: emit row dicts keyed by (k-1)-face index, one row per
    k-face (rank is transpose-invariant).  Ridges missing from the index are
    skipped, which gives relative boundary matrices."""
    rows = []
    for f in faces_k:
        row = {}
        for j in range(len(f)):
            i = index_km1.get(f[:j] + f[j + 1:])
            if i is not None:
                row[i] = -1 if j % 2 else 1
        rows.append(row)
    return rows


@dataclass(frozen=True)
class BettiVector:
    """Reduced Betti numbers (beta_-1, beta_0, ..., beta_{d-1}) over a field."""

    field: FieldSpec
    reduced_betti: tuple

    def get(self, i: int) -> int:
        """Reduced Betti number in dimension i (i from -1); 0 outside range."""
        j = i + 1
        if 0 <= j < len(self.reduced_betti):
            return self.reduced_betti[j]
        return 0

    @property
    def top_dim(self) -> int:
        return len(self.reduced_betti) - 2

    def alternating_sum(self) -> int:
        return sum((-1) ** (j - 1) * b for j, b in enumerate(self.reduced_betti))

    def positive_range(self) -> tuple:
        """(beta_0, ..., beta_{d-1}) without the empty-face slot."""
        return self.reduced_betti[1:]

    def is_sphere(self, dim: int) -> bool:
        """Exactly the reduced homology of S^dim (dim may be -1)."""
        if self.top_dim != dim:
            return False
        want = tuple(1 if i == dim else 0 for i in range(-1, dim + 1))
        return self.reduced_betti == want

    def is_point(self) -> bool:
        return all(b == 0 for b in self.reduced_betti)


def betti(K: SimplicialComplex, field: FieldSpec = RATIONALS) -> BettiVector:
    """Reduced Betti numbers of K via exact ranks of boundary matrices.

    The ranks are taken from the top down with clearing (Chen-Kerber, 2011):
    a k-face that leads a pivot z of the boundary from the (k+1)-faces
    drops out of the k-th boundary's rows.  Since the boundary of z vanishes,
    that row is a combination of the rows of later k-faces, so the rank
    stays.
    """
    _require_complex(K)
    _require_field(field)
    d = K.dim
    if d == -1:  # only the empty face: reduced homology of the (-1)-sphere
        return BettiVector(field, (1,))
    key = _same_size_key(K)
    faces_by_dim = [sorted(K.all_faces(i), key=key) for i in range(0, d + 1)]
    ranks = [0] * (d + 2)  # ranks[k] = rank of boundary_k, k = 0..d
    ranks[0] = 1  # augmentation: every vertex maps to the empty face
    if d >= 1:
        cleared = _top_columns(K, field, faces_by_dim[d], faces_by_dim[d - 1])
        ranks[d] = len(cleared)
    for k in range(d - 1, 0, -1):
        index = {f: i for i, f in enumerate(faces_by_dim[k - 1])}
        faces = [f for i, f in enumerate(faces_by_dim[k]) if i not in cleared]
        cleared = _pivot_columns(_boundary_rows(faces, index), field)
        ranks[k] = len(cleared)
    values = [0]  # beta_-1 = 0 for nonempty complexes
    for i in range(0, d + 1):
        fi = len(faces_by_dim[i])
        values.append(fi - ranks[i] - ranks[i + 1])
    return BettiVector(field, tuple(values))


def _top_columns(K: SimplicialComplex, field: FieldSpec, top: list, ridges: list) -> set:
    """The pivot columns over the field of the boundary map from the top
    faces onto all ridges of K, once per complex and field: ``betti`` clears
    with them, and it and the orientability test of a complex without
    boundary both need their number, the rank."""
    cache = K._top_pivot_columns
    if field not in cache:
        cache[field] = _pivot_columns(_boundary_rows(top, {f: i for i, f in enumerate(ridges)}), field)
    return cache[field]


def _same_size_key(K: SimplicialComplex):
    """Sort key for faces of one size: none (plain tuple order) when every
    label of K is of one kind, where that order is ``_facet_order``'s, and
    ``_facet_order`` when K mixes int and str labels."""
    vs = K.vertices
    return None if _one_kind((vs[0], vs[-1])) else _facet_order


def euler_characteristic(K: SimplicialComplex) -> int:
    """Unreduced Euler characteristic, the alternating face-count sum."""
    _require_complex(K)
    fv = K.f_vector
    return sum((-1) ** i * fv[i + 1] for i in range(0, K.dim + 1))


def sphere_euler(dim: int) -> int:
    """Euler characteristic of S^dim (0 for odd dim, 2 for even; 0 for S^-1)."""
    if dim < 0:
        return 0
    return 1 + (-1) ** dim


# ---------------------------------------------------------------------------
# the link census and the recognition predicates


class _LinkRow(NamedTuple):
    face: tuple
    cls: str  # "sphere", "ball" or "bad": the link's reduced homology
    connected: bool  # reduced beta_0 of the link vanishes


def _link_census(K: SimplicialComplex, field: FieldSpec) -> tuple:
    """One row per nonempty face of K, in ``K.faces()`` order.

    The class is "sphere" when the link has the reduced homology of
    S^{dim K - |rho|}, "ball" when it has that of a point, and "bad" otherwise.
    Once every vertex is certified the rows do not depend on the field.
    """
    _require_field(field)
    cache = K._link_censuses
    if field not in cache:
        certified = _certified_vertices(K)
        full = cache and certified is not None and len(certified) == len(K.vertices)
        cache[field] = next(iter(cache.values())) if full else _census_rows(K, field)
    return cache[field]


def _census_rows(K: SimplicialComplex, field: FieldSpec) -> tuple:
    """The census walk.  When K is pure of dimension >= 4, each face rho
    through a vertex v that ``_certified_vertices`` certifies gets a sphere
    row with no link built, connected unless rho is a ridge: lk_K(rho) =
    lk_{lk v}(rho - v) is a PL sphere.  One pass over the facets builds the
    links of the other faces: for a facet f and each size k, the k-subsets
    of f zipped with the reversed (|f| - k)-subsets pair each face rho of f
    with f - rho, a facet of lk rho.  They are classified from the largest
    down, so the rows above a face exist when it is classified: facets and
    ridges of a pure K by star size; below only sphere rows, a 1-dimensional
    link by the cycle rule and a 2-dimensional one by the closed-surface
    rule; below a ball row and no bad row, a 2-dimensional link as a surface
    with boundary; a link of dimension >= 3, but a vertex link already
    tried, by ``_pl_class``.  Any other link of dimension <= 1 is counted;
    the rest are collapsed, and ranked when the collapse gets stuck.
    """
    d = K.dim
    pure = K.is_pure()
    certified = _certified_vertices(K)
    links: dict = {}  # uncertified face -> the facets of its link, then its row
    by_size = [[] for _ in range(d + 2)]  # the uncertified faces of each size
    combinations = itertools.combinations
    for f in K.facets:
        u = tuple(v for v in f if v not in certified) if certified else f
        n = len(u)
        subsets = [[*combinations(u, k)] for k in range(n + 1)]
        for k in range(1, n + 1):
            for rho, lk in zip(subsets[k], reversed(subsets[n - k])):
                if n < len(f):  # f - rho keeps the certified vertices of f
                    lk = tuple(v for v in f if v not in rho)
                link = links.get(rho)
                if link is None:
                    links[rho] = [lk]
                    by_size[k].append(rho)
                else:
                    link.append(lk)
    unclosed = set()  # faces of sizes d - 2 and d - 1 below a ball or bad row
    spoiled = set()  # faces of size d - 2 below a bad row
    for k in range(d + 1, 0, -1):
        m = d - k if pure else None  # the dimension of each link; None: mixed
        for rho in by_size[k]:
            link = links[rho]
            if m == -1:  # a facet
                row = _LinkRow(rho, "sphere", True)
            elif m == 0:  # a ridge
                n = len(link)
                row = _LinkRow(rho, "ball" if n == 1 else "sphere" if n == 2 else "bad", n == 1)
            elif m == 1 and rho not in unclosed:
                row = _LinkRow(rho, "sphere", True) if _one_cycle(link) else _LinkRow(rho, "bad", False)
            elif m == 2 and rho not in unclosed:
                row = _LinkRow(rho, *_closed_surface_class(link, field))
            elif m == 2 and rho not in spoiled:
                row = _LinkRow(rho, *_surface_class(link))
            elif pure and m >= 3 and (k > 1 or certified is None) and _pl_class(link, m):
                row = _LinkRow(rho, "sphere", True)
            elif max(map(len, link)) <= 2:
                row = _link_row(rho, _graph_betti(link, field), d)
            else:
                row = _collapsed_or_ranked_row(rho, link, d, field)
            if pure and row.cls != "sphere":
                if row.cls == "bad" and m < 2 and d >= 3:
                    spoiled.update(combinations(rho, d - 2))
                for j in range(max(d - 2, 1), min(k, d)):
                    unclosed.update(combinations(rho, j))
            links[rho] = row
    if not certified:
        return tuple(links.values())
    faces = itertools.islice(K.faces(), 1, None)  # the empty face comes first
    return tuple(links.get(rho) or _LinkRow(rho, "sphere", len(rho) != d) for rho in faces)


def _certified_vertices(K: SimplicialComplex) -> set | None:
    """The vertices whose links ``_pl_class`` certifies PL spheres, tried
    once per complex; None, with no link tried, unless K is pure of
    dimension >= 4."""
    m = K.dim - 1
    if m < 3 or not K.is_pure():
        return None
    cache = K._vertex_certificates
    if "vertices" not in cache:
        cache["vertices"] = {v for v, star in K._vertex_to_facets.items()
                             if _pl_class([tuple(w for w in f if w != v) for f in star], m)}
    return cache["vertices"]


def _stacked_sphere(K: SimplicialComplex) -> bool:
    """Whether a pure K of dimension m >= 3 has the facet count F = m V -
    (m + 2)(m - 1) of a stacked sphere, which turns any other K away after
    one count, and ``_pl_class`` certifies it a PL sphere, so orientable over
    every field.  Then it is stacked: that count is the equality case of the
    lower bound theorem (Barnette; Kalai, 1987)."""
    m = K.dim
    if m < 3 or not K.is_pure():
        return False
    if len(K.facets) != m * len(K.vertices) - (m + 2) * (m - 1):
        return False
    return _pl_class(K.facets, m) is not None


def _link_row(rho: tuple, b: BettiVector, dim: int) -> _LinkRow:
    cls = "sphere" if b.is_sphere(dim - len(rho)) else "ball" if b.is_point() else "bad"
    return _LinkRow(rho, cls, b.get(0) == 0)


def _collapsed_or_ranked_row(rho: tuple, link: list, dim: int, field: FieldSpec) -> _LinkRow:
    """The row of a link of dimension >= 2 (or of a non-pure complex's link of
    a small face): by a collapse certificate when the greedy collapse decides
    it, by ranks otherwise.  A certified link is connected: it is contractible
    or has the homology of S^m with m = dim - |rho| >= 2."""
    cls = _collapse_class(link, dim - len(rho))
    if cls is not None:
        return _LinkRow(rho, cls, True)
    return _link_row(rho, betti(SimplicialComplex(link), field), dim)


def _pl_class(link: list, m: int) -> str | None:
    """"sphere" when facet-decreasing bistellar moves (Bjorner-Lutz) reduce a
    pure m-complex, given by its facets, to the boundary of the
    (m+1)-simplex; None when they get stuck.

    A face A of size k < (m + 2) / 2 on m + 2 - k facets that span A u B,
    |B| = m + 2 - k, has link dB; when B is no face, trading the star A * dB
    for dA * B, a PL ball for one with the same boundary, is a PL
    homeomorphism.  So ending at m + 2 facets on m + 2 vertices proves a PL
    m-sphere, over every field and connected, with no other row read.
    Inverse 0-moves (k = 1) go first; they alone take a stacked sphere down.
    Only then are the faces of sizes 2 to (m + 1) // 2 counted, and every
    move updates their counts and queues those that reach m + 2 - k.
    """
    bit, facets = _bitmasks(link)
    if len(link) < m * len(bit) - (m + 2) * (m - 1):  # below the lower bound theorem: no sphere
        return None
    star: dict = {b: set() for b in bit.values()}  # vertex bit -> its facets
    for f, x in zip(link, facets):
        for v in f:
            star[bit[v]].add(x)
    queues = [[w for w, s in star.items() if len(s) == m + 1]]  # queues[k - 1]: faces of size k
    degree: dict = {}  # face of size 2 .. (m + 1) // 2 -> its number of facets, once counted
    count = len(link)
    while len(star) != m + 2:  # then the m + 2 facets of dDelta are left, or fewer: no sphere
        k = 1 if queues[0] else next((j for j, queue in enumerate(queues, 1) if queue), 0)
        if not k:
            if degree:  # the larger faces are counted already
                return None
            level = list(star.items())  # (face, its facets), from the vertices up
            for j in range(2, (m + 3) // 2):
                level = [(f | c, t) for f, s in level for c, u in star.items() if c > f and (t := s & u)]
                degree.update((f, len(t)) for f, t in level)
                queues.append([f for f, t in level if len(t) == m + 2 - j])
            continue
        A = queues[k - 1].pop()
        if k == 1:
            around = star.get(A, ())
        else:
            around = {x for x in star[A & -A] if x & A == A} if degree[A] == m + 2 - k else ()
        if len(around) != m + 2 - k:
            continue
        B = 0
        for x in around:
            B |= x
        B ^= A
        low = star[B & -B]
        if B.bit_count() != m + 2 - k or (B in low if k == 1 else any(x & B == B for x in low)):
            continue
        count += 2 * k - m - 2
        if k == 1:
            del star[A]
        new = [B] if k == 1 else [A ^ a | B for a in _members(A)]
        r = B if k == 1 else A | B
        while r:  # the vertices of dA * B: each keeps the new facets on it
            b = r & -r
            r ^= b
            s = star[b]
            s -= around
            if k == 1:
                s.add(B)
            else:
                s.update(new if b & B else [y for y in new if y & b])
            if len(s) == m + 1:
                queues[0].append(b)
        if degree:  # a face f in A u B lies on |B - f| facets of A * dB and |A - f| of dA * B
            for j in range(2, len(queues) + 1):
                for f in map(sum, itertools.combinations(_members(A | B), j)):
                    n = degree[f] = degree[f] + (A & ~f).bit_count() - (B & ~f).bit_count()
                    if n == m + 2 - j:
                        queues[j - 1].append(f)
    return "sphere" if count == m + 2 else None


def _bitmasks(link: list) -> tuple:
    """(bit, facets): each vertex of a complex, given by its facets, as a bit
    in first-seen order, and the facets as the sums of their bits.  No two
    labels are ever compared."""
    bit = {v: 1 << i for i, v in enumerate(dict.fromkeys(v for f in link for v in f))}
    return bit, [sum(map(bit.__getitem__, f)) for f in link]


def _members(x: int) -> list:
    """The bits of x, lowest first."""
    out = []
    while x:
        b = x & -x
        out.append(b)
        x ^= b
    return out


def _collapse_class(link: list, m: int) -> str | None:
    """Decide a complex, given by its facets, by greedy elementary collapses.

    "ball" when it collapses to one vertex: it is contractible.  "sphere" when
    it collapses to one vertex once one open m-face F is removed (after the
    collapses that need no removal): by excision its reduced homology is
    H(F, dF), that of S^m, over every field.  None when the collapse gets
    stuck, which it may also do on a ball or a sphere.

    Vertices are numbered as bits in facet order and free faces are taken
    first in, first out, so the order of the collapses is fixed.  (Last in,
    first out got stuck on some 3-sphere links of (S^2xS^2)#(S^2xS^2).)  Each
    face keeps the number and the XOR of its present cofaces with one more
    vertex; a face with one coface is free and the XOR names that coface.
    """
    bit, tops = _bitmasks(link)
    count: dict = {}  # present face -> number of its present cofaces
    xor: dict = {}  # present face -> XOR of those cofaces
    by_size = [[] for _ in range(len(bit) + 1)]
    for x in tops:
        count[x] = xor[x] = 0
        by_size[x.bit_count()].append(x)
    for k in range(len(by_size) - 1, 1, -1):  # each face from its cofaces
        below = by_size[k - 1]
        for t in by_size[k]:
            r = t
            while r:
                b = r & -r
                r ^= b
                y = t ^ b
                c = count.get(y)
                if c is None:
                    count[y] = 1
                    xor[y] = t
                    below.append(y)
                else:
                    count[y] = c + 1
                    xor[y] ^= t
    free = [s for s, c in count.items() if c == 1]

    def remove(t):
        del count[t]
        if t & (t - 1):
            r = t
            while r:
                b = r & -r
                r ^= b
                c = count[t ^ b] - 1
                count[t ^ b] = c
                xor[t ^ b] ^= t
                if c == 1:
                    free.append(t ^ b)

    punctured = False
    i = 0
    while True:
        while i < len(free):  # first in, first out
            s = free[i]
            i += 1
            if count.get(s) == 1:
                remove(xor[s])  # the only coface is a maximal face
                remove(s)
        if len(count) == 1:
            return "sphere" if punctured else "ball"
        if punctured:
            return None
        F = next((x for x in tops if x in count and x.bit_count() == m + 1), None)
        if F is None:
            return None
        remove(F)
        punctured = True


def _components(vertices, edges) -> int:
    """Number of connected components of a graph, by union-find."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = len(parent)
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            count -= 1
    return count


def _graph_betti(link: list, field: FieldSpec) -> BettiVector:
    """Reduced Betti numbers of a complex of dimension <= 1, given by its
    facets: beta_0 = components - 1 and beta_1 = E - V + components."""
    if link == [()]:
        return BettiVector(field, (1,))
    vertices = {v for f in link for v in f}
    edges = [f for f in link if len(f) == 2]
    c = _components(vertices, edges)
    if not edges:
        return BettiVector(field, (0, c - 1))
    return BettiVector(field, (0, c - 1, len(edges) - len(vertices) + c))


def _one_cycle(edges: list) -> bool:
    """Whether a graph with two edges at each vertex, given by its edges, is
    one cycle: a walk from one edge covers every edge."""
    nbrs: dict = {}
    for a, b in edges:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    start, v = edges[0]
    prev, walked = start, 1
    while v != start:
        x, y = nbrs[v]
        prev, v = v, y if x == prev else x
        walked += 1
    return walked == len(edges)


def _closed_surface_class(triangles: list, field: FieldSpec) -> tuple:
    """(class, connected) of a closed surface, possibly disconnected, given by
    its triangles: each edge lies in two of them, so E = 3F/2 and
    chi = V - F/2.  Two edges of each triangle suffice for connectivity."""
    vertices = {v for t in triangles for v in t}
    if _components(vertices, (e for t in triangles for e in (t[:2], t[1:]))) > 1:
        return "bad", False
    chi = len(vertices) - len(triangles) // 2
    if chi == 1:  # RP^2: acyclic unless the field has characteristic 2
        return ("bad" if field.p == 2 else "ball"), True
    return ("sphere" if chi == 2 else "bad"), True


def _surface_class(triangles: list) -> tuple:
    """(class, connected) of a surface with boundary, given by its triangles:
    its face lies below a ball row and no bad row.  Only the disk, with
    chi = 1, is acyclic."""
    edges = {e for a, b, c in triangles for e in ((a, b), (a, c), (b, c))}
    vertices = {v for t in triangles for v in t}
    if _components(vertices, edges) > 1:
        return "bad", False
    return ("ball" if len(vertices) - len(edges) + len(triangles) == 1 else "bad"), True


def is_homology_sphere(K: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Every link, including the whole complex as the link of the empty face,
    has the reduced homology of a sphere of the matching dimension."""
    _require_complex(K)
    K.require_pure("homology sphere test")
    if _stacked_sphere(K):
        return True
    if not betti(K, field).is_sphere(K.dim):
        return False
    return all(row.cls == "sphere" for row in _link_census(K, field))


def is_homology_ball(K: SimplicialComplex, field: FieldSpec = RATIONALS) -> bool:
    """Homology of a point, with links that are spheres or balls as demanded
    of a homology manifold, and nonempty boundary."""
    _require_complex(K)
    K.require_pure("homology ball test")
    if not betti(K, field).is_point():
        return False
    rep = manifold_report(K, field, require_connected=False)
    return rep.is_homology_manifold and rep.boundary is not None


@dataclass(frozen=True)
class ManifoldReport:
    is_homology_manifold: bool
    boundary: SimplicialComplex | None  # None when empty
    orientable: bool
    closed: bool
    witness: tuple | None  # a face whose link fails, when not a manifold
    field: FieldSpec


def manifold_report(K: SimplicialComplex, field: FieldSpec = RATIONALS, require_connected: bool = True) -> ManifoldReport:
    """Check every nonempty face's link for sphere-or-ball homology.

    The witness is the first face with a bad link.  The boundary consists of
    the faces whose link has ball homology, i.e. vanishing top homology;
    ``closed`` means empty boundary and orientable.
    """
    _require_complex(K)
    K.require_pure("manifold recognition")
    if require_connected:
        K.require_connected("manifold recognition")
    census = _link_census(K, field)
    witness = next((row.face for row in census if row.cls == "bad"), None)
    if witness is not None:
        return ManifoldReport(False, None, False, False, witness, field)
    boundary_faces = [row.face for row in census if row.cls == "ball"]
    boundary = SimplicialComplex(boundary_faces) if boundary_faces else None
    orientable = (boundary is None and _stacked_sphere(K)) or _orientable(K, boundary, field)
    closed = boundary is None and orientable
    return ManifoldReport(True, boundary, orientable, closed, None, field)


def _orientable(K: SimplicialComplex, boundary: SimplicialComplex | None, field: FieldSpec) -> bool:
    """rank H_{d-1}(K, boundary) == 1, computed from the relative top kernel."""
    d = K.dim
    if d < 0:
        return True
    key = _same_size_key(K)
    top = sorted(K.all_faces(d), key=key)
    bfaces = set(boundary.faces()) if boundary is not None else set()
    mid = sorted(K.all_faces(d - 1) - bfaces, key=key) if d >= 1 else []
    if d >= 1 and boundary is None:
        return len(top) - len(_top_columns(K, field, top, mid)) == 1
    rows = _boundary_rows(top, {f: i for i, f in enumerate(mid)})
    return len(top) - matrix_rank(rows, field) == 1


def is_semi_eulerian(K: SimplicialComplex) -> bool:
    """chi(link rho) = chi(S^{d-|rho|-1}) for every nonempty face rho.

    A link census that is already cached, over any field, and has no bad row
    answers it: every link is then a homology sphere or ball, and a ball's
    chi = 1 is never a sphere's, so K is semi-Eulerian exactly when every row
    is a sphere.  No census is built here.  Otherwise each chi(link rho) is
    counted from the faces of K, without ranks: the sum over faces sigma
    strictly containing rho of (-1)^{|sigma|-|rho|-1}.
    """
    _require_complex(K)
    K.require_pure("semi-Eulerian test")
    for census in K._link_censuses.values():
        if all(row.cls != "bad" for row in census):
            return all(row.cls == "sphere" for row in census)
    faces = list(K.faces())
    chi: dict = {}
    for sigma in faces:
        for k in range(1, len(sigma)):
            sign = 1 if (len(sigma) - k) % 2 else -1
            for rho in itertools.combinations(sigma, k):
                chi[rho] = chi.get(rho, 0) + sign
    return all(chi.get(rho, 0) == sphere_euler(K.dim - len(rho)) for rho in faces if rho)


def is_eulerian(K: SimplicialComplex) -> bool:
    return is_semi_eulerian(K) and euler_characteristic(K) == sphere_euler(K.dim)
