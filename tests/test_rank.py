"""Differential tests: the pivot-indexed eliminator against the rank loops it
replaced, and ``betti`` with clearing against the uncleared ranks.

``old_rank_gf2`` and ``old_rank_gfp`` are the finite-field loops as they were
before: each row is reduced against every pivot found so far.  Over Q the
oracle is plain Gaussian elimination with fractions.  ``old_betti`` is
``betti`` as it was before clearing: every boundary matrix ranked in full,
from the bottom up.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from conftest import rp2_six
from faceenum.homology import _boundary_rows, matrix_rank
from test_census import INPUTS, pure_complexes

FIELDS = (fe.RATIONALS, fe.GF2, fe.FieldSpec(3), fe.FieldSpec(5))


# ---------------------------------------------------------------------------
# the oracles


def old_rank_gf2(rows: list[int]) -> int:
    rank = 0
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
            rank += 1
    return rank


def old_rank_gfp(rows: list[dict], p: int) -> int:
    rank = 0
    pivots: list[tuple[int, dict]] = []
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        for c, prow in pivots:
            if c in row:
                f = row.pop(c)
                for cc, vv in prow.items():
                    if cc == c:
                        continue
                    nv = (row.get(cc, 0) - f * vv) % p
                    if nv:
                        row[cc] = nv
                    elif cc in row:
                        del row[cc]
        if row:
            c = min(row)
            inv = pow(row[c], p - 2, p)
            row = {cc: (vv * inv) % p for cc, vv in row.items()}
            pivots.append((c, row))
            rank += 1
    return rank


def fraction_rank(rows: list[dict]) -> int:
    rows = [{c: Fraction(v) for c, v in r.items() if v} for r in rows]
    rank = 0
    while rows:
        row = rows.pop()
        if not row:
            continue
        rank += 1
        c = min(row)
        for other in rows:
            if c in other:
                f = other[c] / row[c]
                for k, v in row.items():
                    nv = other.get(k, 0) - f * v
                    if nv:
                        other[k] = nv
                    else:
                        other.pop(k, None)
    return rank


def oracle_rank(rows: list[dict], field: fe.FieldSpec) -> int:
    if field.p is None:
        return fraction_rank(rows)
    if field.p == 2:
        return old_rank_gf2([sum(1 << c for c, v in r.items() if v % 2) for r in rows])
    return old_rank_gfp(rows, field.p)


# ---------------------------------------------------------------------------
# random sparse matrices


entries = st.integers(-6, 6).filter(bool)
sparse_rows = st.dictionaries(st.integers(0, 14), entries, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(sparse_rows, max_size=14), st.sampled_from(FIELDS))
def test_rank_matches_oracle_on_random_sparse_matrices(rows, field):
    before = [dict(r) for r in rows]
    assert matrix_rank(rows, field) == oracle_rank(rows, field)
    assert rows == before  # the input rows are left as they were


def test_rank_depends_on_the_characteristic():
    rows = [{0: 2, 1: 3}, {0: 3, 1: 2}]  # determinant -5
    assert [matrix_rank(rows, f) for f in FIELDS] == [2, 2, 2, 1]
    assert matrix_rank([{0: 6, 1: 4}], fe.GF2) == 0
    assert matrix_rank([{0: 6, 1: 4}], fe.FieldSpec(3)) == 1


# ---------------------------------------------------------------------------
# Betti numbers with the oracle ranks


def _rp2_suspension():
    return rp2_six().join(fe.from_facets([[7], [8]]))


BETTI_INPUTS = [
    ("cp2_9", fe.catalog("cp2_9").payload),
    ("s2xs2_sum", fe.catalog("s2xs2_sum").payload),
    ("bipyramid", fe.catalog("bipyramid").payload[0]),
    ("kl11_2", fe.kuhnel_lassmann(11, 2)),
    ("kl15_3", fe.kuhnel_lassmann(15, 3)),
    ("stacked30_4", fe.stacked_sphere(30, 4)),
    ("rp2", rp2_six()),
    ("susp-rp2", _rp2_suspension()),
    ("susp-susp-rp2", _rp2_suspension().join(fe.from_facets([[9], [10]]))),
]


def old_betti(K, field, rank=matrix_rank):
    """Reduced Betti numbers with every boundary matrix ranked in full, from
    the bottom up, without clearing."""
    d = K.dim
    if d == -1:
        return fe.BettiVector(field, (1,))
    faces = [list(K.all_faces(i)) for i in range(d + 1)]
    ranks = [1] + [0] * (d + 1)  # ranks[0]: the augmentation
    for k in range(1, d + 1):
        ranks[k] = rank(_boundary_rows(faces[k], {f: i for i, f in enumerate(faces[k - 1])}), field)
    return fe.BettiVector(field, (0, *(len(faces[i]) - ranks[i] - ranks[i + 1] for i in range(d + 1))))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", BETTI_INPUTS, ids=[n for n, _ in BETTI_INPUTS])
def test_betti_matches_oracle_ranks(name, K, field):
    assert fe.betti(fe.SimplicialComplex(K.facets), field) == old_betti(K, field, oracle_rank)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", INPUTS, ids=[n for n, _ in INPUTS])
def test_cleared_betti_matches_uncleared_betti(name, K, field):
    assert fe.betti(fe.SimplicialComplex(K.facets), field) == old_betti(K, field)


@settings(max_examples=80, deadline=None)
@given(pure_complexes((2, 3, 4, 5)), st.sampled_from(FIELDS))
def test_cleared_betti_matches_uncleared_betti_on_random_complexes(K, field):
    assert fe.betti(K, field) == old_betti(K, field)


@pytest.mark.parametrize("K", [rp2_six(), _rp2_suspension()], ids=["rp2", "susp-rp2"])
def test_clearing_keeps_the_characteristic(K):
    """Over GF(2) the top boundary of RP^2 and of its suspension has one pivot
    fewer, so fewer ridge rows are cleared, and H_top and H_top-1 appear."""
    betti = [fe.betti(fe.SimplicialComplex(K.facets), field) for field in FIELDS]
    assert betti == [old_betti(K, field) for field in FIELDS]
    q, gf2, gf3, gf5 = (b.reduced_betti for b in betti)
    assert gf2 != q == gf3 == gf5


def test_betti_of_rp2_suspensions_depends_on_the_field():
    S = _rp2_suspension()
    assert fe.betti(S).positive_range() == (0, 0, 0, 0)
    assert fe.betti(S, fe.FieldSpec(3)).positive_range() == (0, 0, 0, 0)
    assert fe.betti(S, fe.GF2).positive_range() == (0, 0, 1, 1)
    SS = S.join(fe.from_facets([[9], [10]]))
    assert fe.betti(SS).positive_range() == (0, 0, 0, 0, 0)
    assert fe.betti(SS, fe.GF2).positive_range() == (0, 0, 0, 1, 1)
