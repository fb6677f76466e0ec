"""Differential tests: the pivot-indexed eliminator against the rank loops it
replaced.

``old_rank_gf2`` and ``old_rank_gfp`` are the finite-field loops as they were
before: each row is reduced against every pivot found so far.  Over Q the
oracle is plain Gaussian elimination with fractions.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from conftest import rp2_six
from faceenum import homology
from faceenum.homology import matrix_rank

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


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name,K", BETTI_INPUTS, ids=[n for n, _ in BETTI_INPUTS])
def test_betti_matches_oracle_ranks(monkeypatch, name, K, field):
    want = fe.betti(fe.SimplicialComplex(K.facets), field)
    monkeypatch.setattr(homology, "matrix_rank", oracle_rank)
    assert fe.betti(fe.SimplicialComplex(K.facets), field) == want


def test_betti_of_rp2_suspensions_depends_on_the_field():
    S = _rp2_suspension()
    assert fe.betti(S).positive_range() == (0, 0, 0, 0)
    assert fe.betti(S, fe.FieldSpec(3)).positive_range() == (0, 0, 0, 0)
    assert fe.betti(S, fe.GF2).positive_range() == (0, 0, 1, 1)
    SS = S.join(fe.from_facets([[9], [10]]))
    assert fe.betti(SS).positive_range() == (0, 0, 0, 0, 0)
    assert fe.betti(SS, fe.GF2).positive_range() == (0, 0, 0, 1, 1)
