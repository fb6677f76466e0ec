"""Graded posets with bottom and top: Mobius functions, Eulerian and
semi-Eulerian classification, flag vectors, the toric h/g recursion, the
ab-polynomial encoding of flag h-vectors, and the cd-index.

Every invariant is an exact integer recursion or count; only
:func:`order_complex` lists chains.  Each poset keeps one index, built on
first use: the elements in a linear extension, the int bitmasks of the
elements below and above each one, and one mask per rank; ``leq`` and every
invariant read it.  Classification counts the elements of even and odd rank
in every interval of even length and computes no Mobius value.  Flag
f-vectors come from one chain table per poset and the toric h/g recursion
from one table per poset; both sum values over down-sets rank by rank, the
elements of a rank with equal values sharing one mask, so a sum is a few
popcounts.  The Mobius function comes one row mu(x, .) per element, summed
the same way along the linear extension, and the order complex's Euler
characteristic is mu(bottom, top) + 1 by Hall's theorem.  The cd-index peels
the last letter, Psi = A c + B d, and recurses.

Toric coefficients follow the convention th(P,x) = th_d + th_{d-1} x + ... +
th_0 x^d for a poset of rank d+1, the mirror image of the indexing used in
Stanley's book; palindromicity statements below are written in this
convention.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from math import comb
from operator import mul, sub

from .complexes import Coloring, SimplicialComplex, _facet_order, _require_complex
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

    Construction records the covers; the order relation is one bitmask index
    over a linear extension, built on first use.  :meth:`validate` checks for
    a unique bottom and top and a consistent rank function (every cover
    raises rank by one), which together make every maximal chain have full
    length.  Operations that need gradedness call it; classification
    tolerates arbitrary cover data and reports failure as "Neither".
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
    def _masks(self) -> tuple:
        """(order, pos, down, up): the elements in one linear extension, found
        breadth first so that a graded poset comes out rank by rank, their
        positions, and for position i the bitmasks down[i] of the elements
        <= order[i] and up[i] of those >= order[i], bit j standing for
        order[j].  A cycle raises InvalidPoset."""
        lower, upper = self._lower, self._upper
        indeg = {e: len(lower[e]) for e in self.elements}
        order = [e for e in self.elements if not indeg[e]]
        for e in order:  # the list grows while it is read: a queue
            for b in upper[e]:
                indeg[b] -= 1
                if not indeg[b]:
                    order.append(b)
        if len(order) != len(self.elements):
            raise InvalidPoset("cover relations contain a cycle")
        pos = {e: i for i, e in enumerate(order)}
        down = []
        for i, e in enumerate(order):
            m = 1 << i
            for a in lower[e]:
                m |= down[pos[a]]
            down.append(m)
        up = [0] * len(order)
        for i in reversed(range(len(order))):
            m = 1 << i
            for b in upper[order[i]]:
                m |= up[pos[b]]
            up[i] = m
        return order, pos, down, up

    @cached_property
    def _rank_masks(self) -> list:
        """_rank_masks[k]: the elements of rank k, a bitmask over _masks."""
        rank = self.rank
        masks = [0] * (max(rank.values()) + 1)
        for i, e in enumerate(self._masks[0]):
            masks[rank[e]] |= 1 << i
        return masks

    @cached_property
    def below(self) -> dict:
        """below[e] = frozenset of elements <= e, read off the bitmasks."""
        order, _, down, _ = self._masks
        return {e: frozenset(order[j] for j in _bits(m)) for e, m in zip(order, down)}

    def leq(self, x, y) -> bool:
        """x <= y; an argument that is not an element raises ArgumentOutOfRange."""
        for e in (x, y):
            try:
                known = e in self._upper
            except TypeError:  # an unhashable argument is no element
                known = False
            if not known:
                raise ArgumentOutOfRange(f"{e!r} is not an element of the poset")
        _, pos, down, _ = self._masks
        return bool(down[pos[y]] >> pos[x] & 1)

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
        for e in self._masks[0]:
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
        """mu(x, y) for every y >= x, along the linear extension.

        mu(x, y) = -sum of mu(x, z) over x <= z < y.  The values found so far
        are kept as one bitmask per value, so the sum is, over the values v,
        v times the number of bits that the mask of v shares with down[y]."""
        row = self._mobius_cache.get(x)
        if row is None:
            order, pos, down, up = self._masks
            p = pos[x]
            row, classes = {x: 1}, {1: 1 << p}
            for i in _bits(up[p] ^ 1 << p):
                d = down[i]
                mu = -sum(v * (d & m).bit_count() for v, m in classes.items())
                row[order[i]] = mu
                if mu:
                    classes[mu] = classes.get(mu, 0) | 1 << i
            self._mobius_cache[x] = row
        return row

    def mobius(self, x, y) -> int:
        if not self.leq(x, y):
            raise NotComparable(f"{x!r} is not below {y!r}")
        return self._mobius_row(x)[y]

    # -- sums over down-sets, rank by rank ------------------------------------

    def _down_set_sums(self, bottom_value, step, key=lambda value: value) -> dict:
        """values[e] for every element e: bottom_value at rank 0, and
        step(r, sums) at rank r >= 1, where sums[k] is the sum of key(values[z])
        over the elements z < e of rank k, a vector padded with zeros.

        The elements of one rank with equal keys form one class, kept as a
        bitmask, so sums[k] adds each key of rank k times the popcount of
        down[e] and its class.  A rank is complete before the next starts, so
        elements whose counts agree share one step call."""
        order, _, down, _ = self._masks
        by_rank = self._rank_masks
        keys, masks = [key(bottom_value)], [by_rank[0]]  # the classes of the ranks done
        spans = [(0, 1)]  # spans[k]: the slice of the classes of rank k
        values = {self.bottom: bottom_value}
        for r in range(1, len(by_rank)):
            computed: dict = {}  # counts -> value
            by_key: dict = {}  # key -> mask of its elements of rank r
            for i in _bits(by_rank[r]):
                counts = tuple(map(int.bit_count, map(down[i].__and__, masks)))
                value = computed.get(counts)
                if value is None:
                    value = computed[counts] = step(r, [
                        [sum(map(mul, counts[a:b], col)) for col in itertools.zip_longest(*keys[a:b], fillvalue=0)]
                        for a, b in spans
                    ])
                values[order[i]] = value
                k = key(value)
                by_key[k] = by_key.get(k, 0) | 1 << i
            spans.append((len(keys), len(keys) + len(by_key)))
            keys += by_key
            masks += by_key.values()
        return values

    @cached_property
    def _chain_table(self) -> list:
        """table[S] = number of chains of the proper part with rank set S, for
        every S inside [1, total_rank - 1] as a bitmask (rank i is bit i - 1).

        The value of e lists the chains topped by e, by rank set below
        rank[e]: {e} itself, then for each rank m the sum of the values of the
        elements of rank m below e.  The value of the top is the table."""
        if not self.total_rank:
            return [1]
        values = self._down_set_sums((), lambda r, sums: (1, *itertools.chain.from_iterable(sums)))
        return list(values[self.top])

    @cached_property
    def _toric(self) -> tuple:
        """(th, g): the toric recursion on every interval [bottom, z].
        th(z) = sum over ranks k < rank z of (x-1)^(rank z - 1 - k) times the
        sum of g(w) over the elements w < z of rank k; g(z) is read off th(z).
        Values are the pairs (g, th), classed and summed by g."""
        x_minus_1 = [[(-1) ** (k - j) * comb(k, j) for j in range(k + 1)] for k in range(self.total_rank)]

        def step(r, sums):
            th = _poly_sum([_poly_mul(g, x_minus_1[r - 1 - k]) for k, g in enumerate(sums)])
            th += [0] * (r - len(th))  # degree r - 1 with explicit zeros
            g = [th[0]] + [th[j] - th[j - 1] for j in range(1, (r - 1) // 2 + 1)]
            while g and not g[-1]:
                g.pop()
            return tuple(g or [0]), th

        values = self._down_set_sums(((1,), [1]), step, key=lambda value: value[0])
        return {e: th for e, (_, th) in values.items()}, {e: list(g) for e, (g, _) in values.items()}


def _bits(mask: int) -> list:
    """Positions of the set bits of a nonnegative mask, ascending."""
    return [m.start() for m in re.finditer("1", bin(mask)[:1:-1])]


def _require_poset(P) -> None:
    if not isinstance(P, GradedPoset):
        raise ArgumentOutOfRange(f"expected a GradedPoset, got {type(P).__name__}")


def classify_poset(P: GradedPoset) -> str:
    """"Eulerian", "SemiEulerian" or "Neither" by rank parity.

    An interval [x, y] of length n >= 1 whose proper subintervals are
    Eulerian has mu(x, y) = (-1)^n iff it has as many elements of even rank
    as of odd rank (Stanley, EC1, Ex. 3.16).  By induction on length, P is
    semi-Eulerian iff every interval but [bottom, top] balances, and Eulerian
    iff [bottom, top] balances too.  Only intervals of even length need a
    count: with E the signed rank sum of [x, y], the recursions for mu over
    [x, y) and over (x, y] give -(E - (-1)^n) = -(-1)^n (E - 1), so
    E = (-1)^n E, and E = 0 when n is odd.  Intervals are read off the
    poset's bitmasks; no Mobius value is computed.
    """
    _require_poset(P)
    try:
        P.validate()
    except InvalidPoset:
        return "Neither"
    if P.total_rank == 0:  # a single element: no interval of length >= 1
        return "Eulerian"
    order, pos, down, up = P._masks
    rank, by_rank = P.rank, P._rank_masks
    parity = (sum(by_rank[0::2]), sum(by_rank[1::2]))  # disjoint masks: sum is union
    even = parity[0]
    bottom, top = pos[P.bottom], pos[P.top]
    for x, ux in enumerate(up):
        same = ux & parity[rank[order[x]] & 1]
        for y in _bits(same ^ 1 << x):  # the y > x at even distance
            interval = ux & down[y]
            if 2 * (interval & even).bit_count() != interval.bit_count() and (x, y) != (bottom, top):
                return "Neither"
    whole = down[top]
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
    Elements come by size, then by ``label_key`` of their labels; each cover
    (f minus a vertex, f) is generated once, in the order of f.
    """
    _require_complex(K)
    elements: list = sorted(K.faces(), key=_facet_order)
    covers = [(f[:j] + f[j + 1:], f) for f in elements for j in range(len(f))]  # each pair once
    if augment and len(K.facets) > 1:
        elements.append(TOP_SENTINEL)
        covers += [(fac, TOP_SENTINEL) for fac in K.facets]
    return GradedPoset(elements, covers)


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
    """th and g-hat coefficient lists for every interval [bottom, z], built
    once per poset: see GradedPoset._toric."""
    _require_poset(P)
    P.validate()
    return P._toric


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
