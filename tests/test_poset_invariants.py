"""Differential tests of the poset invariants against the chain enumeration
they replaced.

The library computes flag vectors by a dynamic program over ranks, the Mobius
function one row per element and the order complex's Euler characteristic by
Hall's theorem.  The oracles below keep the earlier slow paths: one count per
listed chain, the pairwise recursion over interval sets, and the alternating
sum over chains.  Inputs are Boolean lattices, catalog posets, face posets of
closed manifolds and seeded random ranked posets, including invalid ones.
"""

from __future__ import annotations

import itertools
import random

import pytest

import faceenum as fe
from faceenum.errors import FaceEnumError, InvalidPoset, NotComparable
from faceenum.posets import _all_chains, reduced_order_complex_euler
from faceenum.vectors import FlagVector, flag_h_from_flag_f

# -- oracles: the chain-enumerating and pairwise paths -------------------------


def old_flag_f(P) -> FlagVector:
    P.validate()
    rank, d = P.rank, P.total_rank - 1
    counts = {frozenset(S): 0 for k in range(d + 1) for S in itertools.combinations(range(1, d + 1), k)}
    for chain in _all_chains(P, P.proper_part()):
        counts[frozenset(rank[e] for e in chain)] += 1
    counts[frozenset()] = 1
    return FlagVector(d, counts, "f")


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


def outcome(f, *args):
    """The value of f(*args), or the type of the library error it raised."""
    try:
        return f(*args)
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


INPUTS = {f"B{d}": (lambda d=d: fe.boolean_lattice(d)) for d in range(9)}
INPUTS["torus_poset"] = lambda: fe.catalog("torus_poset").payload
INPUTS["cp2_9"] = lambda: fe.face_poset(fe.catalog("cp2_9").payload)
INPUTS["s2xs2_sum"] = lambda: fe.face_poset(fe.catalog("s2xs2_sum").payload)
INPUTS["kl_11_2"] = lambda: fe.face_poset(fe.kuhnel_lassmann(11, 2))
INPUTS.update({f"random{s}": (lambda s=s: random_poset(s)) for s in range(60)})


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
