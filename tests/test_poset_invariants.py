"""Differential tests of the poset invariants against the slow paths they
replaced.

The library computes flag vectors from one chain table per poset, the Mobius
function one row per element with each value summed over its interval, the
classification by counting even and odd ranks in each interval, the order
complex's Euler characteristic by Hall's theorem, the toric recursion rank by
rank and the cd-index by peeling the last letter.  The oracles below keep the
earlier slow paths: one count per listed chain, the pairwise recursion over
interval sets, the Mobius sign rule on every interval, the Mobius row that
scans every element below, the alternating sum over chains, the toric
recursion one element at a time and the exact Gauss-Jordan solve for the
cd-index.  Inputs are Boolean lattices, catalog posets, face posets of closed
manifolds and of random pure complexes, face posets with int, str and mixed
labels, seeded random ranked posets, including invalid ones, ranked posets
whose elements above rank 1 never share a value, and random ab-polynomials.
The bitmask index's value classes and the toric cache are checked by
counting the helper's step calls.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from conftest import rp2_six
from faceenum.complexes import face_key
from faceenum.errors import (
    ArgumentOutOfRange, FaceEnumError, InvalidPoset, NotComparable, NotInCDSpan, TypeVectorMismatch,
)
from faceenum.posets import (
    ABPolynomial, CDIndex, GradedPoset, _toric_tables, cd_words, expand_cd_word, reduced_order_complex_euler,
)
from faceenum.vectors import FlagVector, flag_h_from_flag_f

# -- oracles: the chain-enumerating and pairwise paths -------------------------


def _all_chains(P, ground: list) -> list:
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


def old_flag_f(P) -> FlagVector:
    P.validate()
    rank, d = P.rank, P.total_rank - 1
    counts = {frozenset(S): 0 for k in range(d + 1) for S in itertools.combinations(range(1, d + 1), k)}
    for chain in _all_chains(P, P.proper_part()):
        counts[frozenset(rank[e] for e in chain)] += 1
    counts[frozenset()] = 1
    return FlagVector(d, counts, "f")


def old_flag_h(ff: FlagVector) -> FlagVector:
    """h_S = sum_{T subseteq S} (-1)^{|S - T|} f_T as a double sum: 3^d terms
    on the full cube."""
    out = {}
    for S in ff.entries:
        s = tuple(S)
        total = 0
        for k in range(len(s) + 1):
            for T in itertools.combinations(s, k):
                total += (-1) ** (len(s) - k) * ff.entries[frozenset(T)]
        out[S] = total
    return FlagVector(ff.d, out, "h")


def old_mobius(P, x, y, memo) -> int:
    if not P.leq(x, y):
        raise NotComparable(f"{x!r} is not below {y!r}")
    if (x, y) not in memo:
        interval = [e for e in P.below[y] if P.leq(x, e)]
        memo[x, y] = 1 if x == y else -sum(old_mobius(P, x, z, memo) for z in interval if z != y)
    return memo[x, y]


def old_classify(P) -> str:
    if not P.is_valid_graded():
        return "Neither"
    memo, rank = {}, P.rank
    for x, y in itertools.product(P.elements, repeat=2):
        if (x, y) != (P.bottom, P.top) and P.leq(x, y):
            if old_mobius(P, x, y, memo) != (-1) ** (rank[y] - rank[x]):
                return "Neither"
    return "Eulerian" if old_mobius(P, P.bottom, P.top, memo) == (-1) ** P.total_rank else "SemiEulerian"


def old_euler(P) -> int:
    return sum((-1) ** (len(c) - 1) for c in _all_chains(P, P.proper_part()))


def old_mobius_row(P, x) -> dict:
    """mu(x, y) for every y >= x, each value summed over all of below[y]."""
    below, up, stack = P.below, {x}, [x]
    while stack:
        for b in P._upper[stack.pop()]:
            if b not in up:
                up.add(b)
                stack.append(b)
    row = {x: 1}
    for y in sorted(up - {x}, key=lambda e: len(below[e])):
        row[y] = -sum(row[z] for z in below[y] if z in row)
    return row


def old_toric_tables(P):
    """The toric recursion one element at a time: th(z) adds g(w) (x-1)^(r-1-k)
    for each w < z of rank k, multiplying once per element."""
    P.validate()
    rank = P.rank

    def add(a, b):
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(max(len(a), len(b)))]

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    g_memo, th_memo = {}, {}
    for z in sorted(P.elements, key=lambda e: (rank[e], repr(e))):
        r = rank[z]
        if r == 0:
            th_memo[z] = g_memo[z] = [1]
            continue
        th = []
        for w in P.below[z] - {z}:
            k = r - 1 - rank[w]
            th = add(th, mul(g_memo[w], [(-1) ** (k - j) * comb(k, j) for j in range(k + 1)]))
        th = th + [0] * (r - len(th))
        th_memo[z] = th
        g = [th[0]] + [th[j] - th[j - 1] for j in range(1, (r - 1) // 2 + 1)]
        while g and g[-1] == 0:
            g.pop()
        g_memo[z] = g or [0]
    return th_memo, g_memo


def old_cd_index(ab: ABPolynomial) -> CDIndex:
    """The exact Gauss-Jordan solve over all 2^n ab-words.  Off the cd span it
    raises NotInCDSpan with the solution fitted on the pivot rows."""
    n = ab.degree
    words = cd_words(n)
    ab_words = ["".join(t) for t in itertools.product("ab", repeat=n)] if n else [""]
    columns = [expand_cd_word(w) for w in words]
    rows = [[Fraction(col.get(abw, 0)) for col in columns] + [Fraction(ab[abw])] for abw in ab_words]
    ncols = len(words)
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
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
        raise NotInCDSpan("not a cd-polynomial", residual=residual, partial=CDIndex(n, coeffs))
    return CDIndex(n, coeffs)


def outcome(f, *args):
    """The value of f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
    except FaceEnumError as e:
        return type(e)


def cd_outcome(f, ab):
    """("cd", coefficients), ("not", partial, residual) off the cd span, or the
    type of any other library error."""
    try:
        return "cd", f(ab).coeffs
    except NotInCDSpan as e:
        return "not", e.partial.coeffs, e.residual.coeffs
    except FaceEnumError as e:
        return type(e)


# -- inputs ---------------------------------------------------------------------


def _disjoint(complexes) -> fe.SimplicialComplex:
    facets, offset = [], 0
    for K in complexes:
        facets += [[v + offset for v in f] for f in K.facets]
        offset += max(max(f) for f in K.facets)
    return fe.SimplicialComplex(facets)


def random_poset(seed: int) -> fe.GradedPoset:
    """Seeded ranked posets in six kinds: random covers between levels
    (mostly not Eulerian), a cover that skips a level (ambiguous rank),
    several maximal elements, several minimal elements, face posets of
    disjoint 2-spheres and of point sets (Eulerian or semi-Eulerian)."""
    rng, kind = random.Random(seed), seed % 6
    if kind == 4:
        parts = [fe.stacked_sphere(rng.randint(4, 6), 3) for _ in range(rng.randint(1, 3))]
        return fe.face_poset(_disjoint(parts))
    if kind == 5:
        return fe.face_poset(fe.SimplicialComplex([[v] for v in range(1, rng.randint(1, 5) + 1)]))
    n = rng.randint(2, 5)
    levels = [["0"]] + [[f"{r}.{i}" for i in range(rng.randint(2, 4))] for r in range(1, n)] + [["1"]]
    covers = set()
    for lo, hi in zip(levels, levels[1:]):
        covers |= {(rng.choice(lo), b) for b in hi} | {(a, rng.choice(hi)) for a in lo}
        covers |= {(a, b) for a in lo for b in hi if rng.random() < 0.4}
    if kind == 1:
        covers.add((rng.choice(levels[0]), rng.choice(levels[2])))
    elements = [e for level in levels for e in level]
    if kind == 2:
        elements.remove("1")
        covers = {c for c in covers if c[1] != "1"}
    if kind == 3:
        elements.remove("0")
        covers = {c for c in covers if c[0] != "0"}
    return fe.GradedPoset(elements, sorted(covers))


def _wedge_of_3_spheres() -> fe.SimplicialComplex:
    """Two stacked 3-spheres glued at the vertex 1; the link of 1 is two 2-spheres."""
    S = fe.stacked_sphere(6, 4)
    return fe.SimplicialComplex(list(S.facets) + [[v if v == 1 else v + 10 for v in f] for f in S.facets])


def distinct_value_poset(seed: int) -> GradedPoset:
    """A seeded ranked poset in which element i of each rank r >= 2 covers
    i + 1 random elements of rank r - 1, so no two elements of such a rank
    share a count below, a chain vector or a step call.  The elements of rank
    1 cover the bottom alone, so they share theirs."""
    rng = random.Random(seed)
    n, width = rng.randint(3, 6), rng.randint(2, 4)
    levels = [["0"]] + [[f"{r}.{i}" for i in range(width)] for r in range(1, n)] + [["1"]]
    covers = [("0", b) for b in levels[1]] + [(a, "1") for a in levels[-2]]
    for lo, hi in zip(levels[1:-2], levels[2:-1]):
        for i, b in enumerate(hi):
            covers += [(a, b) for a in rng.sample(lo, i + 1)]
    rng.shuffle(covers)
    elements = [e for level in levels for e in level]
    rng.shuffle(elements)
    return GradedPoset(elements, covers)


def _relabel(K, kind: str) -> fe.SimplicialComplex:
    """K with int, str or mixed (odd to str) labels."""
    def lab(v):
        return v if kind == "int" or (kind == "mixed" and v % 2 == 0) else f"v{v}"
    return fe.SimplicialComplex([[lab(v) for v in f] for f in K.facets])


LABELLED = {
    f"{name}_{kind}": (lambda K=K, kind=kind: _relabel(K(), kind))
    for name, K in {
        "rp2": rp2_six,
        "stacked7_3": lambda: fe.stacked_sphere(7, 3),
        "kl_11_2": lambda: fe.kuhnel_lassmann(11, 2),
        "two_triangles": lambda: fe.SimplicialComplex([[1, 2, 3], [3, 4, 5]]),
    }.items()
    for kind in ("int", "str", "mixed")
}


INPUTS = {f"B{d}": (lambda d=d: fe.boolean_lattice(d)) for d in range(9)}
INPUTS["torus_poset"] = lambda: fe.catalog("torus_poset").payload
INPUTS["cp2_9"] = lambda: fe.face_poset(fe.catalog("cp2_9").payload)
INPUTS["s2xs2_sum"] = lambda: fe.face_poset(fe.catalog("s2xs2_sum").payload)
INPUTS["kl_11_2"] = lambda: fe.face_poset(fe.kuhnel_lassmann(11, 2))
INPUTS["rp2"] = lambda: fe.face_poset(rp2_six())
INPUTS["wedge_of_3_spheres"] = lambda: fe.face_poset(_wedge_of_3_spheres())
INPUTS.update({f"random{s}": (lambda s=s: random_poset(s)) for s in range(60)})
INPUTS.update({f"distinct{s}": (lambda s=s: distinct_value_poset(s)) for s in range(30)})
INPUTS.update({f"face_poset_{name}": (lambda K=K: fe.face_poset(K())) for name, K in LABELLED.items()})


# -- differential tests -----------------------------------------------------------


@pytest.mark.parametrize("name", list(INPUTS))
def test_invariants_match_the_chain_oracles(name):
    P = INPUTS[name]()
    want_f = outcome(old_flag_f, P)
    got = outcome(fe.flag_vectors, P)
    if isinstance(want_f, FlagVector):
        assert got == (want_f, flag_h_from_flag_f(want_f))
    else:
        assert got is want_f
    assert fe.classify_poset(P) == old_classify(P)
    chi = outcome(reduced_order_complex_euler, P)
    assert chi == outcome(old_euler, P)
    if chi is not InvalidPoset and P.total_rank > 0:  # Hall's theorem
        assert chi == fe.mobius(P, P.bottom, P.top) + 1


@pytest.mark.parametrize("name", list(INPUTS))
def test_mobius_rows_match_the_pairwise_recursion(name):
    P, memo = INPUTS[name](), {}
    comparable = [(x, y) for y in P.elements for x in P.below[y]]
    for x, y in comparable + list(itertools.product(P.elements[:12], repeat=2)):
        assert outcome(fe.mobius, P, x, y) == outcome(old_mobius, P, x, y, memo)


def test_random_posets_cover_every_class_and_failure():
    seen = {fe.classify_poset(random_poset(s)) for s in range(60)}
    failures = [outcome(fe.flag_vectors, random_poset(s)) for s in range(60)]
    assert seen == {"Eulerian", "SemiEulerian", "Neither"}
    assert InvalidPoset in failures
    for s in range(60):  # ambiguous rank, several maximal or several minimal elements
        assert random_poset(s).is_valid_graded() == (s % 6 not in (1, 2, 3))


def test_cyclic_covers_fail_alike():
    P = fe.GradedPoset(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")])
    assert outcome(fe.flag_vectors, P) is outcome(old_flag_f, P) is InvalidPoset
    assert outcome(reduced_order_complex_euler, P) is outcome(old_euler, P) is InvalidPoset
    assert outcome(fe.mobius, P, "0", "1") is outcome(old_mobius, P, "0", "1", {}) is InvalidPoset
    assert fe.classify_poset(P) == old_classify(P) == "Neither"


@pytest.mark.parametrize("name", list(INPUTS))
def test_mobius_rows_match_the_full_scan(name):
    P = INPUTS[name]()
    for x in P.elements:
        assert outcome(P._mobius_row, x) == outcome(old_mobius_row, P, x)


@pytest.mark.parametrize("name", list(INPUTS))
def test_toric_tables_match_the_per_element_recursion(name):
    P = INPUTS[name]()
    assert outcome(_toric_tables, P) == outcome(old_toric_tables, P)


def assert_same_cd(ab):
    got, want = cd_outcome(fe.cd_index, ab), cd_outcome(old_cd_index, ab)
    if got != want:  # both off the span, fitted on different coordinates
        assert got[0] == want[0] == "not", (got, want)
    if isinstance(got, tuple) and got[0] == "not":
        partial = CDIndex(ab.degree, got[1]).expand()
        assert got[2] == {w: ab[w] - c for w, c in partial.coeffs.items()}
    return got


@pytest.mark.parametrize("name", list(INPUTS))
def test_cd_index_matches_the_elimination_on_flag_h(name):
    P = INPUTS[name]()
    if not P.is_valid_graded():
        return
    ab = fe.ab_from_flag_h(fe.flag_vectors(P)[1])
    got = cd_outcome(fe.cd_index, ab)
    assert got == cd_outcome(old_cd_index, ab)  # partial and residual too
    if name == "B0":  # degree -1
        assert got is ArgumentOutOfRange
    elif fe.classify_poset(P) == "Eulerian":
        assert got[0] == "cd"


@pytest.mark.parametrize("seed", range(40))
def test_cd_index_matches_the_elimination_on_random_ab_polynomials(seed):
    rng = random.Random(seed)
    n = seed % 8
    cd = CDIndex(n, {w: rng.randint(-9, 9) for w in cd_words(n)})
    ab = cd.expand()
    assert cd_outcome(fe.cd_index, ab) == ("cd", cd.coeffs) == cd_outcome(old_cd_index, ab)
    for _ in range(3):  # perturbed: almost always off the span
        coeffs = dict(ab.coeffs)
        for w in rng.sample(sorted(coeffs), rng.randint(1, min(3, len(coeffs)))):
            coeffs[w] += rng.choice([-3, -1, 1, 2])
        assert_same_cd(ABPolynomial(n, coeffs))
        assert_same_cd(ABPolynomial(n, {w: c for w, c in coeffs.items() if rng.random() < 0.7}))


def test_flag_vectors_are_fresh_dicts_over_one_chain_table():
    P = fe.face_poset(fe.catalog("cp2_9").payload)
    ff, fh = fe.flag_vectors(P)
    want_ff, want_bb = dict(ff.entries), fe.bayer_billera_defects(P)
    ff.entries[frozenset()] = 99
    ff.entries[frozenset({2})] += 7
    fh.entries.clear()
    assert fe.bayer_billera_defects(P) == want_bb
    assert fe.flag_vectors(P)[0].entries == want_ff
    assert fe.flag_vectors(P)[1] == flag_h_from_flag_f(fe.flag_vectors(P)[0])


@pytest.mark.parametrize("name", [n for n in INPUTS if n not in ("B7", "B8")])
def test_order_complex_facets_are_the_maximal_chains(name):
    P = INPUTS[name]()
    if not P.is_valid_graded() or P.total_rank < 2:
        return
    K, _, labels = fe.order_complex(P)
    chains = _all_chains(P, P.proper_part())
    longest = max(map(len, chains))
    assert K == fe.SimplicialComplex([[labels[e] for e in c] for c in chains if len(c) == longest])


# Euler zigzag numbers E_n: the cd-index of B_n summed at c = d = 1
ZIGZAG = (1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521, 353792)


@pytest.mark.parametrize("n", range(1, 10))
def test_boolean_cd_index_sums_to_the_zigzag_number(n):
    ab = fe.ab_from_flag_h(fe.flag_vectors(fe.boolean_lattice(n))[1])
    cd = fe.cd_index(ab)
    assert cd.degree == n - 1 and cd["c" * (n - 1)] == 1
    assert all(c >= 0 for c in cd.coeffs.values())
    assert sum(cd.coeffs.values()) == ZIGZAG[n - 1]
    assert cd.expand() == ab


# -- classification by rank parity ----------------------------------------------


EDGE_CASES = {
    "B0": "Eulerian",  # one element, no interval of length >= 1
    "wedge_of_3_spheres": "Neither",
    "rp2": "SemiEulerian",  # chi = 1
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_classification_of_edge_cases_matches_the_sign_rule(name):
    P, want = INPUTS[name](), EDGE_CASES[name]
    assert fe.classify_poset(P) == old_classify(P) == want


def test_only_the_wedge_point_breaks_the_sign_rule():
    P, memo = INPUTS["wedge_of_3_spheres"](), {}
    rank = P.rank
    bad = [(x, y) for y in P.elements for x in P.below[y] if (x, y) != (P.bottom, P.top)
           and old_mobius(P, x, y, memo) != (-1) ** (rank[y] - rank[x])]
    assert bad == [((1,), P.top)]
    assert rank[P.top] - rank[(1,)] == 4
    assert reduced_order_complex_euler(P) == -1 != fe.sphere_euler(3)


@pytest.mark.parametrize("name", list(INPUTS))
def test_classification_builds_no_mobius_row(name):
    P = INPUTS[name]()
    fe.classify_poset(P)
    assert P._mobius_cache == {}


@st.composite
def pure_complexes(draw):
    """A random pure complex of dimension 1 to 3 with at least two facets,
    or two disjoint copies of one (two 2-spheres are semi-Eulerian only)."""
    size = draw(st.integers(2, 4))
    n = draw(st.integers(size + 1, size + 4))
    pool = list(itertools.combinations(range(1, n + 1), size))
    facets = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=14, unique=True))
    if draw(st.booleans()):
        facets += [[v + n for v in f] for f in facets]
    return fe.SimplicialComplex(facets)


@settings(max_examples=150, deadline=None)
@given(pure_complexes())
def test_face_poset_classification_matches_the_complex(K):
    cls = fe.classify_poset(fe.face_poset(K))
    assert (cls == "Eulerian") == fe.is_eulerian(K)
    assert (cls != "Neither") == fe.is_semi_eulerian(K)


# -- the bitmask index and its value classes ----------------------------------


def counting_steps(monkeypatch) -> list:
    """Record the rank of every step call of the down-set helper."""
    calls, real = [], GradedPoset._down_set_sums

    def counting(self, bottom_value, step, **kw):
        return real(self, bottom_value, lambda r, sums: calls.append(r) or step(r, sums), **kw)

    monkeypatch.setattr(GradedPoset, "_down_set_sums", counting)
    return calls


@pytest.mark.parametrize("seed", range(30))
def test_posets_whose_values_never_repeat_compute_every_element(seed, monkeypatch):
    """The differential tests above take these posets as INPUTS["distinct<seed>"]."""
    calls = counting_steps(monkeypatch)
    P = distinct_value_poset(seed)
    fe.flag_vectors(P), fe.toric_h(P)
    rank = P.rank
    # chain table and toric tables: one call for rank 1, one per element above
    assert sorted(calls) == sorted(2 * [1] + [rank[e] for e in P.elements if rank[e] >= 2] * 2)
    for r in range(2, P.total_rank):  # distinct numbers of covers below
        covered = [len(P._lower[e]) for e in P.elements if rank[e] == r]
        assert len(set(covered)) == len(covered)


FLAG_H_INPUTS = {
    **{f"B{d}": INPUTS[f"B{d}"] for d in range(9)},
    "B9": lambda: fe.boolean_lattice(9),
    **{name: INPUTS[name] for name in ("torus_poset", "cp2_9", "kl_11_2", "rp2", "wedge_of_3_spheres")},
    **{f"face_poset_{name}": INPUTS[f"face_poset_{name}"] for name in LABELLED},
}


@pytest.mark.parametrize("name", list(FLAG_H_INPUTS))
def test_flag_h_transform_matches_the_double_sum(name):
    ff = fe.flag_vectors(FLAG_H_INPUTS[name]())[0]
    assert flag_h_from_flag_f(ff) == old_flag_h(ff)
    # any key set that holds every subset of each of its keys
    low = FlagVector(ff.d, {S: v for S, v in ff.entries.items() if len(S) <= 2}, "f")
    assert flag_h_from_flag_f(low) == old_flag_h(low)


@pytest.mark.parametrize("entries", [
    {frozenset(): 1, frozenset({1, 2}): 3},
    {frozenset({1}): 2, frozenset({2}): 2, frozenset({1, 2}): 3},
    {frozenset(): 1, frozenset({1}): 2, frozenset({1, 3}): 3},
], ids=["no-singletons", "no-empty-set", "no-3"])
def test_flag_h_of_keys_missing_a_subset_is_a_type_mismatch(entries):
    with pytest.raises(TypeVectorMismatch):
        flag_h_from_flag_f(FlagVector(3, entries, "f"))


def test_b9_matches_the_oracles_and_the_multinomials():
    P = fe.boolean_lattice(9)
    ff, fh = fe.flag_vectors(P)
    for S, v in ff.entries.items():  # old_flag_f would list 7,087,261 chains
        cuts = [0, *sorted(S), 9]
        assert v == factorial(9) // prod(factorial(b - a) for a, b in zip(cuts, cuts[1:]))
    assert fh == flag_h_from_flag_f(ff)
    assert _toric_tables(P) == old_toric_tables(P)
    for x in P.elements:
        assert P._mobius_row(x) == old_mobius_row(P, x)
    assert fe.classify_poset(P) == old_classify(P) == "Eulerian"


@pytest.mark.parametrize("n", range(1, 10))
def test_the_class_helper_computes_once_per_rank_of_a_boolean_lattice(n, monkeypatch):
    calls = counting_steps(monkeypatch)
    P = fe.boolean_lattice(n)
    P._chain_table  # noqa: B018
    assert calls == list(range(1, n + 1))
    calls.clear()
    fe.toric_h(P)
    assert calls == list(range(1, n + 1))


def test_toric_tables_are_built_once_per_poset(monkeypatch):
    calls = counting_steps(monkeypatch)
    P = fe.catalog("torus_poset").payload
    fe.toric_h(P), fe.toric_g(P), fe.toric_ds_defect(P), _toric_tables(P)
    assert calls.count(1) == 1
    other = fe.catalog("torus_poset").payload  # a second poset builds its own
    fe.toric_h(other)
    assert calls.count(1) == 2


def test_leq_on_cycles_and_on_invalid_cover_data():
    cyc = GradedPoset(["0", "a", "b"], [("0", "a"), ("a", "b"), ("b", "a")])
    with pytest.raises(InvalidPoset):
        cyc.leq("0", "a")
    loop = GradedPoset(["a"], [("a", "a")])
    with pytest.raises(InvalidPoset):
        loop.leq("a", "a")
    two_minima = GradedPoset(["a", "b", "c"], [("a", "c"), ("b", "c")])
    assert two_minima.leq("a", "c") and two_minima.leq("b", "c") and not two_minima.leq("a", "b")
    skip = GradedPoset(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])  # ambiguous rank
    assert skip.leq("0", "1") and skip.leq("a", "1") and not skip.leq("1", "a")
    assert fe.mobius(skip, "0", "1") == 0 and fe.mobius(two_minima, "a", "c") == -1


# -- classification on random ranked posets -----------------------------------


@st.composite
def ranked_posets(draw):
    """(poset, the class it must have or None): shuffled Boolean lattices and
    butterflies (Eulerian), face posets of disjoint boundaries of simplices
    (Eulerian or semi-Eulerian by their Euler characteristic), and random
    covers between levels, with a cover dropped or added at random."""
    kind = draw(st.sampled_from(["boolean", "butterfly", "spheres", "levels"]))
    if kind == "boolean":
        P, want = fe.boolean_lattice(draw(st.integers(0, 5))), "Eulerian"
    elif kind == "butterfly":
        n = draw(st.integers(1, 7))
        levels = [["0"]] + [[f"{r}a", f"{r}b"] for r in range(1, n)] + [["1"]]
        covers = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
        P, want = GradedPoset([e for level in levels for e in level], covers), "Eulerian"
    elif kind == "spheres":
        d, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        facets = [[v + (d + 1) * j for v in f] for j in range(k) for f in itertools.combinations(range(1, d + 2), d)]
        chi_sphere = 1 + (-1) ** (d - 1)
        P = fe.face_poset(fe.SimplicialComplex(facets))
        want = "Eulerian" if k == 1 or k * chi_sphere == chi_sphere else "SemiEulerian"
    else:
        n = draw(st.integers(1, 5))
        levels = [["0"]] + [[f"{r}.{i}" for i in range(draw(st.integers(1, 3)))] for r in range(1, n)] + [["1"]]
        covers = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi if draw(st.booleans())]
        covers += [(a, levels[r + 1][0]) for r, lo in enumerate(levels[:-1]) for a in lo]  # every element covered
        covers += [(levels[r - 1][0], b) for r, hi in enumerate(levels[1:], 1) for b in hi]
        P, want = GradedPoset([e for level in levels for e in level], covers), None
    covers, elements = list(P.covers), list(P.elements)
    edit = draw(st.sampled_from(["none", "none", "drop", "add"]))
    if edit == "drop" and covers:
        covers.pop(draw(st.integers(0, len(covers) - 1)))
        want = None
    elif edit == "add" and len(elements) > 1:
        covers.append((draw(st.sampled_from(elements)), draw(st.sampled_from(elements))))
        want = None
    return GradedPoset(elements, draw(st.permutations(covers))), want


@settings(max_examples=200, deadline=None)
@given(ranked_posets())
def test_classification_by_even_intervals_matches_the_sign_rule(case):
    P, want = case
    got = fe.classify_poset(P)
    assert got == old_classify(P)
    if want is not None:
        assert got == want


# -- face_poset order -----------------------------------------------------------


@pytest.mark.parametrize("name", list(LABELLED))
def test_face_poset_keeps_the_element_order_and_the_covers(name):
    K = LABELLED[name]()
    P = fe.face_poset(K)
    faces = sorted(K.faces(), key=lambda f: (len(f), face_key(f)))
    assert list(P.elements) == faces + ["top"]
    covers = {(f[:j] + f[j + 1:], f) for f in faces for j in range(len(f))} | {(f, "top") for f in K.facets}
    assert set(P.covers) == covers
    assert len(P.covers) == len(covers)  # no cover twice


# -- contracts: any cover data returns or raises a FaceEnumError ---------------


@st.composite
def cover_data(draw):
    """Elements and covers, mostly ranked levels, with cycles, self-covers,
    several minima or maxima, ambiguous ranks, duplicate covers, unknown and
    unhashable members."""
    n = draw(st.integers(0, 4))
    levels = [["0"]] + [[f"{r}.{i}" for i in range(draw(st.integers(1, 3)))] for r in range(1, n)] + [["1"]]
    elements = [e for level in levels for e in level]
    covers = [[a, b] for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi if draw(st.booleans())]
    covers += [[a, levels[r + 1][0]] for r, lo in enumerate(levels[:-1]) for a in lo]  # graded until edited
    covers += [[levels[r - 1][0], b] for r, hi in enumerate(levels[1:], 1) for b in hi]
    pick = st.sampled_from(elements)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["cycle", "self", "minimum", "maximum", "skip", "duplicate", "unknown", "unhashable"]))
        if edit in ("cycle", "skip"):  # backwards, or two levels up
            a, b = draw(pick), draw(pick)
            covers.append([a, b])
            covers.append([b, a] if edit == "cycle" else [a, b])
        elif edit == "self":
            a = draw(pick)
            covers.append([a, a])
        elif edit in ("minimum", "maximum"):
            e = f"extra{len(elements)}"
            elements.append(e)
            covers.append([e, draw(pick)] if edit == "minimum" else [draw(pick), e])
        elif edit == "duplicate" and covers:
            covers.append(list(draw(st.sampled_from(covers))))
        elif edit == "unknown":
            covers.append([draw(pick), "nowhere"])
        elif edit == "unhashable":
            if draw(st.booleans()):
                elements.append(["a", "list"])
            else:
                covers.append([draw(pick), {"a": 1}])
    return elements, covers


def _each_call(P, args):
    yield lambda: fe.classify_poset(P)
    yield lambda: fe.toric_h(P)
    yield lambda: fe.toric_g(P)
    yield lambda: fe.flag_vectors(P)
    yield lambda: fe.bayer_billera_defects(P)
    yield lambda: reduced_order_complex_euler(P)
    yield lambda: fe.cd_index(fe.ab_from_flag_h(fe.flag_vectors(P)[1]))
    for x, y in args:
        yield lambda x=x, y=y: fe.mobius(P, x, y)
        yield lambda x=x, y=y: P.leq(x, y)


@settings(max_examples=300, deadline=None)
@given(cover_data(), st.data())
def test_every_poset_call_returns_or_raises_a_library_error(data, draw):
    elements, covers = data
    try:
        P = GradedPoset(elements, covers)
    except FaceEnumError:
        return
    pool = list(P.elements) + ["nowhere", ["un", "hashable"]]
    args = draw.draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)), max_size=4))
    for call in _each_call(P, args):
        try:
            call()
        except FaceEnumError:
            pass
