"""Graded posets with bottom and top: Mobius functions, Eulerian and
semi-Eulerian classification, flag vectors, the toric h/g recursion, the
ab-polynomial encoding of flag h-vectors, and the cd-index.

Every invariant is an exact integer recursion or count; only
:func:`order_complex` lists chains.  Classification counts the elements of
even and odd rank in every interval, read off bitmasks, and computes no
Mobius value.  Flag f-vectors come from one chain table per poset, a dynamic
program over ranks.  The Mobius function comes one row mu(x, .) per element,
and the order complex's Euler characteristic is mu(bottom, top) + 1 by Hall's
theorem.  The toric recursion sums the g-polynomials below an element rank by
rank.  The cd-index peels the last letter, Psi = A c + B d, and recurses.

Toric coefficients follow the convention th(P,x) = th_d + th_{d-1} x + ... +
th_0 x^d for a poset of rank d+1, the mirror image of the indexing used in
Stanley's book; palindromicity statements below are written in this
convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import add, sub

from .complexes import Coloring, SimplicialComplex, face_key
from .errors import (
    ArgumentOutOfRange,
    InvalidPoset,
    NotComparable,
    NotInCDSpan,
    NotSemiEulerian,
)
from .homology import sphere_euler
from .vectors import FlagVector, flag_h_from_flag_f

TOP_SENTINEL = "top"
BOTTOM_SENTINEL = "bottom"


class GradedPoset:
    """Finite poset given by cover relations.

    Construction computes the order relation; :meth:`validate` checks for a
    unique bottom and top and a consistent rank function (every cover raises
    rank by one), which together make every maximal chain have full length.
    Operations that need gradedness call it; classification tolerates
    arbitrary cover data and reports failure as "Neither".
    """

    def __init__(self, elements, covers):
        try:
            self.elements, covers = tuple(elements), tuple(covers)
        except TypeError:
            raise InvalidPoset("poset elements and covers must be iterable") from None
        try:
            eset = set(self.elements)
        except TypeError:
            raise InvalidPoset("poset elements must be hashable") from None
        if len(eset) != len(self.elements):
            raise InvalidPoset("duplicate elements")
        pairs = []
        for c in covers:
            if not isinstance(c, (tuple, list)) or len(c) != 2:
                raise InvalidPoset(f"cover {c!r} is not a pair")
            a, b = c
            try:
                known = a in eset and b in eset
            except TypeError:  # an unhashable member is no element
                known = False
            if not known:
                raise InvalidPoset(f"cover ({a!r}, {b!r}) mentions unknown element")
            pairs.append((a, b))
        self.covers = tuple(pairs)
        self._upper = {e: [] for e in self.elements}
        self._lower = {e: [] for e in self.elements}
        for a, b in self.covers:
            self._upper[a].append(b)
            self._lower[b].append(a)
        self._mobius_cache: dict = {}

    # -- structure ----------------------------------------------------------

    @cached_property
    def below(self) -> dict:
        """below[e] = frozenset of elements <= e."""
        out = {}
        for e in self._topo_order():
            s = {e}
            for a in self._lower[e]:
                s |= out[a]
            out[e] = frozenset(s)
        return out

    def _topo_order(self) -> list:
        indeg = {e: len(self._lower[e]) for e in self.elements}
        queue = [e for e in self.elements if indeg[e] == 0]
        order = []
        while queue:
            e = queue.pop()
            order.append(e)
            for b in self._upper[e]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    queue.append(b)
        if len(order) != len(self.elements):
            raise InvalidPoset("cover relations contain a cycle")
        return order

    def leq(self, x, y) -> bool:
        """x <= y; an argument that is not an element raises ArgumentOutOfRange."""
        for e in (x, y):
            try:
                known = e in self._upper
            except TypeError:  # an unhashable argument is no element
                known = False
            if not known:
                raise ArgumentOutOfRange(f"{e!r} is not an element of the poset")
        return x in self.below[y]

    @cached_property
    def bottom(self):
        mins = [e for e in self.elements if not self._lower[e]]
        if len(mins) != 1:
            raise InvalidPoset(f"poset has {len(mins)} minimal elements")
        return mins[0]

    @cached_property
    def top(self):
        maxs = [e for e in self.elements if not self._upper[e]]
        if len(maxs) != 1:
            raise InvalidPoset(f"poset has {len(maxs)} maximal elements")
        return maxs[0]

    @cached_property
    def rank(self) -> dict:
        """Rank from the bottom; raises InvalidPoset when covers disagree."""
        r = {self.bottom: 0}
        for e in self._topo_order():
            for b in self._upper[e]:
                want = r[e] + 1
                have = r.get(b)
                if have is None:
                    r[b] = want
                elif have != want:
                    raise InvalidPoset(f"element {b!r} has ambiguous rank ({have} vs {want})")
        if len(r) != len(self.elements):
            raise InvalidPoset("some elements are not above the bottom")
        return r

    @property
    def total_rank(self) -> int:
        return self.rank[self.top]

    def validate(self):
        self.bottom, self.top, self.rank  # noqa: B018 - force the checks
        return self

    def is_valid_graded(self) -> bool:
        try:
            self.validate()
            return True
        except InvalidPoset:
            return False

    def proper_part(self) -> list:
        b, t = self.bottom, self.top
        return [e for e in self.elements if e != b and e != t]

    # -- Mobius function ------------------------------------------------------

    def _mobius_row(self, x) -> dict:
        """mu(x, y) for every y >= x, in one pass over the up-set of x."""
        row = self._mobius_cache.get(x)
        if row is None:
            below, up, stack = self.below, {x}, [x]
            while stack:
                for b in self._upper[stack.pop()]:
                    if b not in up:
                        up.add(b)
                        stack.append(b)
            row = {x: 1}
            # z < y makes below[z] a proper subset of below[y]: a linear extension
            for y in sorted(up - {x}, key=lambda e: len(below[e])):
                row[y] = 0  # y lies in its own interval [x, y]
                row[y] = -sum(map(row.__getitem__, up & below[y]))
            self._mobius_cache[x] = row
        return row

    def mobius(self, x, y) -> int:
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} is not below {y!r}")
        return self._mobius_row(x)[y]

    # -- chains -----------------------------------------------------------------

    @cached_property
    def _chain_table(self) -> list:
        """table[S] = number of chains of the proper part with rank set S, for
        every S inside [1, total_rank - 1] as a bitmask (rank i is bit i - 1).
        The chains topped by e, by rank set below rank[e], are {e} and, for
        each rank m, the sum of those lists over the elements of rank m < e."""
        rank = self.rank
        table = [0] * (1 << max(self.total_rank - 1, 0))
        table[0] = 1
        ending: dict = {}  # e -> number of chains topped by e, by rank set below rank[e]
        for e in sorted(self.proper_part(), key=rank.__getitem__):
            own = [1]
            for m, lists in enumerate(self._below_by_rank(e, ending)):
                own += map(sum, zip(*lists)) if lists else [0] * (1 << m >> 1)
            ending[e] = own
            lo = 1 << (rank[e] - 1)
            table[lo:2 * lo] = map(add, table[lo:2 * lo], own)
        return table

    def _below_by_rank(self, e, values: dict) -> list:
        """values[z] for the elements z below e that have one, grouped by rank."""
        rank, groups = self.rank, [[] for _ in range(self.rank[e])]
        for z in self.below[e]:
            if z in values:
                groups[rank[z]].append(values[z])
        return groups


def _require_poset(P) -> None:
    if not isinstance(P, GradedPoset):
        raise ArgumentOutOfRange(f"expected a GradedPoset, got {type(P).__name__}")


def classify_poset(P: GradedPoset) -> str:
    """"Eulerian", "SemiEulerian" or "Neither" by rank parity.

    An interval [x, y] of length >= 1 whose proper subintervals are Eulerian
    has mu(x, y) = (-1)^(r(y) - r(x)) iff it has as many elements of even rank
    as of odd rank (Stanley, EC1, Ex. 3.16).  By induction on length, P is
    semi-Eulerian iff every interval but [bottom, top] balances, and Eulerian
    iff [bottom, top] balances too.  Intervals are read off bitmasks over the
    elements numbered in rank order; no Mobius value is computed.
    """
    _require_poset(P)
    try:
        P.validate()
    except InvalidPoset:
        return "Neither"
    if P.total_rank == 0:  # a single element: no interval of length >= 1
        return "Eulerian"
    rank = P.rank
    order = sorted(P.elements, key=rank.__getitem__)
    index = {e: i for i, e in enumerate(order)}
    below, even = [], 0  # below[i]: elements <= order[i]; even: those of even rank
    for i, e in enumerate(order):
        m = 1 << i
        for a in P._lower[e]:
            m |= below[index[a]]
        below.append(m)
        if not rank[e] & 1:
            even |= 1 << i
    up = [0] * len(order)  # up[i]: elements >= order[i]
    for i in reversed(range(len(order))):
        m = 1 << i
        for b in P._upper[order[i]]:
            m |= up[index[b]]
        up[i] = m
    bottom, top = index[P.bottom], index[P.top]
    for x, ux in enumerate(up):
        rest = (ux >> x) ^ 1  # the y > x, as bit y - x
        while rest:
            low = rest & -rest
            rest ^= low
            y = x + low.bit_length() - 1
            interval = ux & below[y]
            if 2 * (interval & even).bit_count() != interval.bit_count() and (x, y) != (bottom, top):
                return "Neither"
    whole = below[top]
    return "Eulerian" if 2 * (whole & even).bit_count() == whole.bit_count() else "SemiEulerian"


def mobius(P: GradedPoset, x, y) -> int:
    _require_poset(P)
    return P.mobius(x, y)


# ---------------------------------------------------------------------------
# face posets and order complexes


def face_poset(K: SimplicialComplex, augment: bool = True) -> GradedPoset:
    """Faces of K ordered by inclusion, with the empty face as bottom.

    With ``augment`` a fresh top is adjoined when the complex has more than
    one facet; a complex with a unique facet is already bounded above.
    """
    if not isinstance(K, SimplicialComplex):
        raise ArgumentOutOfRange(f"expected a SimplicialComplex, got {type(K).__name__}")
    faces = sorted(K.faces(), key=lambda f: (len(f), face_key(f)))
    covers = []
    for f in faces:
        for j in range(len(f)):
            covers.append((f[:j] + f[j + 1:], f))
    elements: list = list(faces)
    if augment and len(K.facets) > 1:
        elements.append(TOP_SENTINEL)
        for fac in K.facets:
            covers.append((fac, TOP_SENTINEL))
    return GradedPoset(elements, sorted(set(covers), key=repr))


def order_complex(P: GradedPoset, reduced: bool = True):
    """Chains of P as a simplicial complex, with the rank coloring.

    Returns (complex, coloring, labels) where labels maps poset elements to
    the complex's vertex labels.  The reduced form drops bottom and top; its
    rank coloring makes it completely balanced.  A poset of rank one has an
    empty proper part, whose order complex is the (-1)-sphere {()}.
    """
    _require_poset(P)
    P.validate()
    rank = P.rank
    ground = P.proper_part() if reduced else list(P.elements)
    if not ground:
        return SimplicialComplex([()]), Coloring((), {}), {}
    ground = sorted(ground, key=lambda e: (rank[e], repr(e)))
    labels = {e: f"p{i}" for i, e in enumerate(ground)}
    # facets = maximal chains, which in a graded poset climb by covers from
    # the lowest rank of the ground set to its highest
    lo, hi = rank[ground[0]], rank[ground[-1]]
    chains = [[e] for e in ground if rank[e] == lo]
    for _ in range(lo, hi):
        chains = [c + [b] for c in chains for b in P._upper[c[-1]]]
    cpx = SimplicialComplex([[labels[e] for e in c] for c in chains])
    offset = lo - 1
    phi = {labels[e]: rank[e] - offset for e in ground}
    m = max(phi.values())
    coloring = Coloring(tuple(1 for _ in range(m)), phi)
    return cpx, coloring, labels


def flag_vectors(P: GradedPoset) -> tuple[FlagVector, FlagVector]:
    """(flag f, flag h) of the reduced order complex: f_S counts chains whose
    rank set is S, and h_S is its inclusion-exclusion transform.  Both are
    fresh dicts read from the poset's chain table."""
    _require_poset(P)
    P.validate()
    d, table = P.total_rank - 1, P._chain_table
    ranks = range(1, d + 1)
    ff = FlagVector(d, {
        frozenset(S): table[sum(1 << (i - 1) for i in S)]
        for k in range(max(d, 0) + 1) for S in itertools.combinations(ranks, k)
    }, "f")
    return ff, flag_h_from_flag_f(ff)


def reduced_order_complex_euler(P: GradedPoset) -> int:
    """Euler characteristic of the reduced order complex: mu(bottom, top) + 1 by
    Hall's theorem when bottom < top, and 0 for the one-element poset."""
    _require_poset(P)
    P.validate()
    return P.mobius(P.bottom, P.top) + 1 if P.total_rank else 0


# ---------------------------------------------------------------------------
# toric h-vector


def _poly_sum(polys: list) -> list:
    return [sum(c) for c in itertools.zip_longest(*polys, fillvalue=0)]


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@dataclass(frozen=True)
class ToricPolynomial:
    """th(P,x) = th_d + th_{d-1} x + ... + th_0 x^d; coeffs stored ascending."""

    coeffs: tuple  # ascending powers of x
    d: int

    def th(self, i: int) -> int:
        j = self.d - i
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return 0

    @property
    def indexed(self) -> tuple:
        """(th_0, th_1, ..., th_d)."""
        return tuple(self.th(i) for i in range(self.d + 1))

    def __str__(self):
        terms = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c:
                terms.append(f"{c}*x^{j}" if j else f"{c}")
        return " + ".join(terms) if terms else "0"


def _toric_tables(P: GradedPoset):
    """th and g-hat coefficient lists for every interval [bottom, z]:
    th(z) = sum over ranks k < rank z of (x-1)^(rank z - 1 - k) times the sum
    of g(w) over the elements w < z of rank k."""
    _require_poset(P)
    P.validate()
    rank, d = P.rank, P.total_rank
    x_minus_1 = [[(-1) ** (k - j) * comb(k, j) for j in range(k + 1)] for k in range(d)]
    g_memo: dict = {}
    th_memo: dict = {}
    for z in sorted(P.elements, key=rank.__getitem__):
        r = rank[z]
        if r == 0:
            th_memo[z] = [1]
            g_memo[z] = [1]
            continue
        by_rank = P._below_by_rank(z, g_memo)
        th = _poly_sum([_poly_mul(_poly_sum(gs), x_minus_1[r - 1 - k]) for k, gs in enumerate(by_rank) if gs])
        th = th + [0] * (r - len(th))  # degree r-1 with explicit zeros
        th_memo[z] = th
        m = (r - 1) // 2
        g = [th[0]] + [th[j] - th[j - 1] for j in range(1, m + 1)]
        while g and not g[-1]:
            g.pop()
        g_memo[z] = g or [0]
    return th_memo, g_memo


def toric_h(P: GradedPoset) -> ToricPolynomial:
    """The toric h-polynomial by the interval recursion, memoized per element."""
    th_memo, _ = _toric_tables(P)
    d = P.total_rank - 1
    c = th_memo[P.top]
    return ToricPolynomial(tuple(c + [0] * (d + 1 - len(c))), d)


def toric_g(P: GradedPoset) -> tuple:
    """Ascending coefficients of the companion g-hat polynomial of P, padded
    to its full truncation length 1 + floor(d/2)."""
    _, g_memo = _toric_tables(P)
    g = list(g_memo[P.top])
    m = (P.total_rank - 1) // 2
    return tuple(g + [0] * (m + 1 - len(g)))


def toric_ds_defect(P: GradedPoset) -> tuple:
    """th_{d-i} - th_i - (-1)^i C(d,i)(chi - chi(S^{d-1})) for i = 0..d;
    the zero vector is the semi-Eulerian symmetry."""
    cls = classify_poset(P)
    if cls == "Neither":
        raise NotSemiEulerian("toric symmetry defect requires a semi-Eulerian poset")
    t = toric_h(P)
    d = t.d
    corr = reduced_order_complex_euler(P) - sphere_euler(d - 1)
    return tuple(
        t.th(d - i) - t.th(i) - (-1) ** i * comb(d, i) * corr for i in range(d + 1)
    )


# ---------------------------------------------------------------------------
# generalized Dehn-Sommerville relations for flag f-vectors


def _bb_instances(table: list, d: int) -> list:
    """The instances for a poset of rank d, read from a chain table (rank
    sets as bitmasks, rank i is bit i - 1)."""
    out = []
    universe = range(1, d)
    for r in range(d):
        for S in itertools.combinations(universe, r):
            mask = sum(1 << (s - 1) for s in S)
            anchors = (0, *S, d)
            for i, k in zip(anchors, anchors[1:]):
                if k - i < 2:
                    continue
                lhs = sum(
                    (-1) ** (j - i - 1) * table[mask | 1 << (j - 1)] for j in range(i + 1, k)
                )
                rhs = table[mask] * (1 - (-1) ** (k - i - 1))
                out.append(
                    {"S": tuple(S), "i": i, "k": k, "lhs": lhs, "rhs": rhs, "defect": lhs - rhs}
                )
    return out


def bayer_billera_defects(P: GradedPoset) -> list:
    """Every instance of the Bayer-Billera relations, with its defect.

    Instances are indexed by S inside [d-1] and a consecutive pair i < k - 1
    in S union {0, d} with no element of S strictly between.  Eulerian posets
    give all zeros; an even-rank semi-Eulerian poset fails exactly the Euler
    instance (S empty) with defect chi(reduced order complex) - chi(S^{d-2}).
    """
    _require_poset(P)
    P.validate()
    return _bb_instances(P._chain_table, P.total_rank)


def semi_eulerian_correction(P: GradedPoset) -> FlagVector:
    """The flag f-correction for an even-rank semi-Eulerian poset: zero except
    on S = {d-1}, where it equals chi(reduced order complex) - chi(S^{d-2}).
    Subtracting it from the flag f-vector restores every Bayer-Billera
    instance; odd-rank semi-Eulerian posets are Eulerian and need none."""
    cls = classify_poset(P)
    if cls == "Neither":
        raise NotSemiEulerian("correction defined for semi-Eulerian posets")
    d = P.total_rank
    entries = {frozenset(S): 0 for k in range(d) for S in itertools.combinations(range(1, d), k)}
    if d % 2 == 0 and cls == "SemiEulerian":
        X = reduced_order_complex_euler(P) - sphere_euler(d - 2)
        entries[frozenset({d - 1})] = X
        corrected = list(P._chain_table)
        corrected[1 << (d - 2)] -= X
        for rec in _bb_instances(corrected, d):
            if rec["defect"] != 0:
                raise NotSemiEulerian(
                    f"corrected flag f still violates an instance at {rec['S']}, ({rec['i']}, {rec['k']})"
                )
    return FlagVector(d - 1, entries, "f")


# ---------------------------------------------------------------------------
# ab-polynomials and the cd-index


@dataclass(frozen=True)
class ABPolynomial:
    """Integer combination of words over the noncommuting letters a, b."""

    degree: int
    coeffs: dict  # word (str over 'ab') -> int

    def __getitem__(self, word: str) -> int:
        return self.coeffs.get(word, 0)

    def nonzero(self) -> dict:
        return {w: c for w, c in sorted(self.coeffs.items()) if c}


def ab_from_flag_h(fh: FlagVector) -> ABPolynomial:
    """Encode a flag h-vector as words: position i carries b when i is in S."""
    if not isinstance(fh, FlagVector):
        raise ArgumentOutOfRange(f"expected a FlagVector, got {type(fh).__name__}")
    if fh.kind != "h":
        raise NotInCDSpan("expected a flag h-vector")
    d = fh.d
    coeffs = {}
    for S, v in fh.entries.items():
        word = "".join("b" if i in S else "a" for i in range(1, d + 1))
        coeffs[word] = v
    return ABPolynomial(d, coeffs)


def cd_words(degree: int) -> list:
    """All words in c (degree 1) and d (degree 2) of the given total degree."""
    if degree < 0:
        raise ArgumentOutOfRange(f"cd-words need a degree >= 0, got {degree}")
    if degree < 2:
        return ["c" * degree]
    return sorted(["c" + w for w in cd_words(degree - 1)] + ["d" + w for w in cd_words(degree - 2)])


def expand_cd_word(word: str) -> dict:
    """Expansion of a cd-word into ab-words with c = a+b and d = ab+ba."""
    current = {"": 1}
    for ch in word:
        nxt: dict = {}
        for w1, c1 in current.items():
            for w2 in ("a", "b") if ch == "c" else ("ab", "ba"):
                nxt[w1 + w2] = nxt.get(w1 + w2, 0) + c1
        current = nxt
    return current


@dataclass(frozen=True)
class CDIndex:
    degree: int
    coeffs: dict  # cd-word -> int

    def __getitem__(self, word: str) -> int:
        return self.coeffs.get(word, 0)

    def expand(self) -> ABPolynomial:
        out: dict = {}
        for w, c in self.coeffs.items():
            for abw, k in expand_cd_word(w).items():
                out[abw] = out.get(abw, 0) + c * k
        n = self.degree
        full = {"".join(t): out.get("".join(t), 0) for t in itertools.product("ab", repeat=n)}
        return ABPolynomial(n, full)

    def nonzero(self) -> dict:
        return {w: c for w, c in sorted(self.coeffs.items()) if c}


def _peel(vec: list, n: int, suffix: str, out: dict) -> bool:
    """Write vec, the coefficients of the ab-words of degree n (bit n - i set
    when letter i is b), as A c + B d and recurse; out[w + suffix] receives
    the coefficient of each cd-word w.  Returns whether vec is in the span.
    The words ending in a give A + B b and those ending in b give A + B a."""
    if n < 2:
        out["c" * n + suffix] = vec[0]
        return n == 0 or vec[0] == vec[1]
    on_a, on_b = vec[0::2], vec[1::2]
    diff = list(map(sub, on_a, on_b))
    b_part = [-x for x in diff[0::2]]
    on_a[1::2] = map(sub, on_a[1::2], b_part)
    in_span = diff[1::2] == b_part
    in_span &= _peel(on_a, n - 1, "c" + suffix, out)
    return _peel(b_part, n - 2, "d" + suffix, out) & in_span


def cd_index(ab: ABPolynomial) -> CDIndex:
    """Write an ab-polynomial in the cd-monomial basis by peeling its last
    letter, Psi = A c + B d, then the last letters of A and B, in O(n 2^n)
    integer operations.

    When the input lies outside the cd span (a non-Eulerian flag h),
    NotInCDSpan is raised carrying the peeled coefficients as ``partial`` and
    a certified ``residual``: the input minus the expansion of ``partial``.
    An argument that is not an ABPolynomial, a degree that is not an int
    >= 0, a key that is not an ab-word of the degree and a coefficient that
    is not an int raise ArgumentOutOfRange.
    """
    if not isinstance(ab, ABPolynomial) or not isinstance(ab.coeffs, dict):
        raise ArgumentOutOfRange(f"expected an ABPolynomial with dict coefficients, got {type(ab).__name__}")
    n = ab.degree
    if type(n) is not int or n < 0:
        raise ArgumentOutOfRange(f"an ab-polynomial needs an int degree >= 0, got {n!r}")
    vec = [0] * (1 << n)
    for w, c in ab.coeffs.items():
        if not isinstance(w, str) or len(w) != n or w.strip("ab"):
            raise ArgumentOutOfRange(f"{w!r} is not an ab-word of degree {n}")
        if type(c) is not int:
            raise ArgumentOutOfRange(f"coefficient {c!r} of {w!r} is not an int")
        vec[int(w.replace("a", "0").replace("b", "1"), 2) if n else 0] = c
    out: dict = {}
    in_span = _peel(vec, n, "", out)
    cd = CDIndex(n, dict(sorted(out.items())))
    if not in_span:
        fitted = cd.expand()
        raise NotInCDSpan(
            "ab-polynomial is not a cd-polynomial (expected for non-Eulerian input)",
            residual=ABPolynomial(n, {w: ab[w] - c for w, c in fitted.coeffs.items()}),
            partial=cd,
        )
    return cd


def boolean_lattice(d: int) -> GradedPoset:
    """B_d: subsets of {1..d} ordered by inclusion, for an int d >= 0."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ArgumentOutOfRange(f"boolean_lattice needs an int d >= 0, got {d!r}")
    elements = [frozenset(s) for k in range(d + 1) for s in itertools.combinations(range(1, d + 1), k)]
    covers = []
    for e in elements:
        for x in range(1, d + 1):
            if x not in e:
                covers.append((e, e | {x}))
    return GradedPoset(elements, covers)
