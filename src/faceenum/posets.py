"""Graded posets with bottom and top: Mobius functions, Eulerian and
semi-Eulerian classification, flag vectors, the toric h/g recursion, the
ab-polynomial encoding of flag h-vectors, and the cd-index.

Only :func:`order_complex` lists chains: flag vectors come from a dynamic
program over ranks, the Mobius function from one row mu(x, .) per element, and
the order complex's Euler characteristic from mu(bottom, top) by Hall's theorem.

Toric coefficients follow the convention th(P,x) = th_d + th_{d-1} x + ... +
th_0 x^d for a poset of rank d+1, the mirror image of the indexing used in
Stanley's book; palindromicity statements below are written in this
convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

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
                row[y] = -sum(row[z] for z in below[y] if z in row)
            self._mobius_cache[x] = row
        return row

    def mobius(self, x, y) -> int:
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} is not below {y!r}")
        return self._mobius_row(x)[y]


def classify_poset(P: GradedPoset) -> str:
    """"Eulerian", "SemiEulerian" or "Neither" by the Mobius sign rule."""
    try:
        P.validate()
    except InvalidPoset:
        return "Neither"
    rank, bottom, top = P.rank, P.bottom, P.top
    for x in P.elements:
        for y, m in P._mobius_row(x).items():
            if (x, y) != (bottom, top) and m != (-1) ** (rank[y] - rank[x]):
                return "Neither"
    if P.mobius(bottom, top) == (-1) ** P.total_rank:
        return "Eulerian"
    return "SemiEulerian"


def mobius(P: GradedPoset, x, y) -> int:
    return P.mobius(x, y)


# ---------------------------------------------------------------------------
# face posets and order complexes


def face_poset(K: SimplicialComplex, augment: bool = True) -> GradedPoset:
    """Faces of K ordered by inclusion, with the empty face as bottom.

    With ``augment`` a fresh top is adjoined when the complex has more than
    one facet; a complex with a unique facet is already bounded above.
    """
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


def _all_chains(P: GradedPoset, ground: list) -> list:
    """All nonempty chains inside the given ground set, as tuples ordered by rank."""
    rank = P.rank
    ground = sorted(ground, key=lambda e: (rank[e], repr(e)))
    succ = {e: [f for f in ground if f != e and P.leq(e, f)] for e in ground}
    chains = []

    def extend(chain, last):
        chains.append(tuple(chain))
        for f in succ[last]:
            chain.append(f)
            extend(chain, f)
            chain.pop()

    for e in ground:
        extend([e], e)
    return chains


def order_complex(P: GradedPoset, reduced: bool = True):
    """Chains of P as a simplicial complex, with the rank coloring.

    Returns (complex, coloring, labels) where labels maps poset elements to
    the complex's vertex labels.  The reduced form drops bottom and top; its
    rank coloring makes it completely balanced.  A poset of rank one has an
    empty proper part, whose order complex is the (-1)-sphere {()}.
    """
    P.validate()
    rank = P.rank
    ground = P.proper_part() if reduced else list(P.elements)
    if not ground:
        return SimplicialComplex([()]), Coloring((), {}), {}
    ground = sorted(ground, key=lambda e: (rank[e], repr(e)))
    labels = {e: f"p{i}" for i, e in enumerate(ground)}
    chains = _all_chains(P, ground)
    maxlen = max(len(ch) for ch in chains)
    maximal = [c for c in chains if len(c) == maxlen]
    # facets = maximal chains; lower chains are their subsets automatically
    # only true in a graded poset, where every chain extends to a full flag
    cpx = SimplicialComplex([[labels[e] for e in c] for c in maximal])
    offset = min(rank[e] for e in ground) - 1
    phi = {labels[e]: rank[e] - offset for e in ground}
    m = max(phi.values())
    coloring = Coloring(tuple(1 for _ in range(m)), phi)
    return cpx, coloring, labels


def flag_vectors(P: GradedPoset) -> tuple[FlagVector, FlagVector]:
    """(flag f, flag h) of the reduced order complex: f_S counts chains whose
    rank set is S, and h_S is its inclusion-exclusion transform."""
    P.validate()
    rank = P.rank
    d = P.total_rank - 1
    counts: dict[frozenset, int] = {frozenset(S): 0 for k in range(d + 1)
                                    for S in itertools.combinations(range(1, d + 1), k)}
    ending: dict = {}  # e -> {rank set S: number of chains with ranks S topped by e}
    for e in sorted(P.proper_part(), key=rank.__getitem__):
        top_rank = frozenset({rank[e]})
        own = {top_rank: 1}
        for z in P.below[e]:
            for S, n in ending.get(z, {}).items():
                S |= top_rank
                own[S] = own.get(S, 0) + n
        ending[e] = own
        for S, n in own.items():
            counts[S] += n
    counts[frozenset()] = 1
    ff = FlagVector(d, counts, "f")
    return ff, flag_h_from_flag_f(ff)


def reduced_order_complex_euler(P: GradedPoset) -> int:
    """Euler characteristic of the reduced order complex: mu(bottom, top) + 1 by
    Hall's theorem when bottom < top, and 0 for the one-element poset."""
    P.validate()
    return P.mobius(P.bottom, P.top) + 1 if P.total_rank else 0


# ---------------------------------------------------------------------------
# toric h-vector


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _poly_mul(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _x_minus_1_pow(k: int) -> list:
    return [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]


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
    """th and g-hat coefficient lists for every interval [bottom, z]."""
    P.validate()
    rank = P.rank
    order = sorted(P.elements, key=lambda e: (rank[e], repr(e)))
    g_memo: dict = {}
    th_memo: dict = {}
    for z in order:
        r = rank[z]
        if r == 0:
            th_memo[z] = [1]
            g_memo[z] = [1]
            continue
        th = []
        for w in P.below[z] - {z}:
            th = _poly_add(th, _poly_mul(g_memo[w], _x_minus_1_pow(r - 1 - rank[w])))
        th = th + [0] * (r - len(th))  # degree r-1 with explicit zeros
        th_memo[z] = th
        m = (r - 1) // 2
        g = [th[0]] + [th[j] - th[j - 1] for j in range(1, m + 1)]
        g_memo[z] = _poly_trim(g) or [0]
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


def _bb_instances(flag_f: dict, d: int) -> list:
    def f(S):
        return flag_f[frozenset(S)]

    out = []
    universe = list(range(1, d))
    for r in range(len(universe) + 1):
        for S in itertools.combinations(universe, r):
            anchors = sorted(set(S) | {0, d})
            for i, k in zip(anchors, anchors[1:]):
                if k - i < 2:
                    continue
                lhs = sum(
                    (-1) ** (j - i - 1) * f(set(S) | {j}) for j in range(i + 1, k)
                )
                rhs = f(S) * (1 - (-1) ** (k - i - 1))
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
    P.validate()
    d = P.total_rank
    ff, _ = flag_vectors(P)
    return _bb_instances(ff.entries, d)


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
        ff, _ = flag_vectors(P)
        corrected = {S: v - entries[S] for S, v in ff.entries.items()}
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


def cd_index(ab: ABPolynomial) -> CDIndex:
    """Write an ab-polynomial in the cd-monomial basis by exact linear solve.

    The cd-monomials are linearly independent; when the input lies outside
    their span (a non-Eulerian flag h), NotInCDSpan is raised carrying a
    certified residual: input minus the combination fitted on the pivot
    coordinates of the elimination.
    """
    n = ab.degree
    words = cd_words(n)
    ab_words = ["".join(t) for t in itertools.product("ab", repeat=n)] if n else [""]
    columns = [expand_cd_word(w) for w in words]
    # rows: one equation per ab-word
    rows = [[Fraction(col.get(abw, 0)) for col in columns] + [Fraction(ab[abw])] for abw in ab_words]
    ncols = len(words)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivot_of_col[c] = r
        r += 1
    solution = [Fraction(0)] * ncols
    for c, pr in pivot_of_col.items():
        solution[c] = rows[pr][ncols]
    inconsistent = any(all(x == 0 for x in row[:ncols]) and row[ncols] != 0 for row in rows)
    coeffs = {w: int(v) if v.denominator == 1 else v for w, v in zip(words, solution)}
    if inconsistent:
        fitted = CDIndex(n, coeffs).expand()
        residual = ABPolynomial(n, {w: ab[w] - fitted[w] for w in ab_words})
        raise NotInCDSpan(
            "ab-polynomial is not a cd-polynomial (expected for non-Eulerian input)",
            residual=residual,
            partial=CDIndex(n, coeffs),
        )
    return CDIndex(n, coeffs)


def boolean_lattice(d: int) -> GradedPoset:
    """B_d: subsets of {1..d} ordered by inclusion."""
    elements = [frozenset(s) for k in range(d + 1) for s in itertools.combinations(range(1, d + 1), k)]
    covers = []
    for e in elements:
        for x in range(1, d + 1):
            if x not in e:
                covers.append((e, e | {x}))
    return GradedPoset(elements, covers)
