from __future__ import annotations

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum.errors import ArgumentOutOfRange, NotBalanced
from faceenum.vectors import FVector, HVector, _h_entries, _phi_formula


# --- f <-> h ---------------------------------------------------------------


def poly_eval_shift(coeffs_desc, x):
    """Evaluate sum c_i t^(n-i) at t = x, coefficients listed from t^n down."""
    total = 0
    for c in coeffs_desc:
        total = total * x + c
    return total


def test_h_from_f_simplex_boundary():
    for d in (3, 4, 6):
        K = fe.simplex_boundary(d)
        assert fe.h_vector(K).entries == tuple(1 for _ in range(d + 1))


def test_cp2_h(cp2):
    fv = fe.f_vector(cp2)
    assert fv.entries == (1, 9, 36, 84, 90, 36)
    hv = fe.h_from_f(fv)
    assert hv.entries == (1, 4, 10, 20, -1, 2)
    assert fe.g_from_h(hv).entries == (1, 3, 6)


def test_s2xs2_g(s2xs2):
    hv = fe.h_vector(s2xs2)
    assert hv[1] == 7 and hv[2] - hv[1] == 18
    assert fe.g_from_h(hv).entries == (1, 6, 18)


def test_transform_is_polynomial_identity():
    # h(x+1) = f(x), checked by exact evaluation at several points
    rng = random.Random(7)
    for _ in range(50):
        d = rng.randint(1, 8)
        f = [1] + [rng.randint(0, 40) for _ in range(d)]
        h = fe.h_from_f(FVector(tuple(f)))
        for x in (-3, -1, 0, 1, 2, 5):
            assert poly_eval_shift(h.entries, x + 1) == poly_eval_shift(f, x)


def test_cached_transform_rows_match_h_from_f():
    """The bistellar h check transforms plain tuples by rows cached per d."""
    rng = random.Random(20071017)
    for d in range(9):
        for _ in range(20):
            f = (1, *(rng.randint(-60, 600) for _ in range(d)))
            assert _h_entries(f) == fe.h_from_f(FVector(f)).entries


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=9))
def test_roundtrip_h_f(tail):
    hv = HVector(tuple([1] + tail))
    assert fe.h_from_f(fe.f_from_h(hv)).entries == hv.entries


def test_roundtrip_f_h_bulk():
    rng = random.Random(11)
    for _ in range(1000):
        d = rng.randint(1, 9)
        fv = FVector(tuple([1] + [rng.randint(0, 200) for _ in range(d)]))
        assert fe.f_from_h(fe.h_from_f(fv)).entries == fv.entries


def test_g_all_ones():
    hv = HVector((1, 1, 1, 1, 1))
    assert fe.g_from_h(hv).entries == (1, 0, 0)


# --- Dehn-Sommerville ------------------------------------------------------


def test_ds_defect(cp2, kl11):
    assert all(x == 0 for x in fe.ds_defect(cp2))
    assert all(x == 0 for x in fe.ds_defect(kl11))
    assert any(x != 0 for x in fe.ds_defect(fe.simplex(5)))


def test_ds_defect_values(cp2):
    hv = fe.h_vector(cp2)
    # correction chi - 2 = 1 is active: h5 - h0 = 1, h4 - h1 = -5, h3 - h2 = 10
    assert hv[5] - hv[0] == 1
    assert hv[4] - hv[1] == -5
    assert hv[3] - hv[2] == 10


# --- fine and flag vectors ---------------------------------------------------


def test_bipyramid_fine(bipyramid):
    K, col = bipyramid
    ff = fe.fine_f(K, col)
    assert ff.entries == {(0, 0): 1, (1, 0): 2, (0, 1): 5, (1, 1): 10, (0, 2): 5, (1, 2): 10}
    fh = fe.fine_h(ff)
    assert fh.entries == {(0, 0): 1, (1, 0): 1, (0, 1): 3, (1, 1): 3, (0, 2): 1, (1, 2): 1}
    defect = fe.fine_ds_defect(fh, fe.euler_characteristic(K))
    assert all(v == 0 for v in defect.values())


def test_fine_h_sums_to_h(bipyramid):
    K, col = bipyramid
    fh = fe.fine_h(fe.fine_f(K, col))
    hv = fe.h_vector(K)
    for i in range(K.d + 1):
        assert sum(v for b, v in fh.entries.items() if sum(b) == i) == hv[i]


def test_trivial_coloring_collapses_to_h(cp2):
    col = fe.Coloring((5,), {v: 1 for v in cp2.vertices})
    fh = fe.fine_h(fe.fine_f(cp2, col))
    hv = fe.h_vector(cp2)
    for i in range(6):
        assert fh.entries[(i,)] == hv[i]
    # type (d) reduces the fine relations to ordinary Dehn-Sommerville
    defect = fe.fine_ds_defect(fh, fe.euler_characteristic(cp2))
    assert all(v == 0 for v in defect.values())
    assert tuple(defect[(i,)] for i in range(6)) == fe.ds_defect(cp2)


def test_not_balanced_reports_facet(bipyramid):
    K, _ = bipyramid
    bad = fe.Coloring((1, 2), {6: 2, 7: 1, 1: 2, 2: 2, 3: 2, 4: 1, 5: 2})
    with pytest.raises(NotBalanced) as exc:
        fe.fine_f(K, bad)
    assert exc.value.facet is not None


def test_specialize_flag_identity_and_total(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    ff, fh = fe.flag_vectors(P)
    d = ff.d
    ident = fe.specialize_flag(ff, tuple(1 for _ in range(d)))
    for S, v in ff.entries.items():
        b = tuple(1 if i in S else 0 for i in range(1, d + 1))
        assert ident.entries[b] == v
    total = fe.specialize_flag(ff, (d,))
    for i in range(d + 1):
        assert total.entries[(i,)] == sum(v for S, v in ff.entries.items() if len(S) == i)


def test_specialize_flag_matches_direct_coloring(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    oc, rank_col, _ = fe.order_complex(P, reduced=True)
    ff, _ = fe.flag_vectors(P)
    spec = fe.specialize_flag(ff, (1, 2))
    psi = {1: 1, 2: 2, 3: 2}
    direct = fe.fine_f(oc, fe.Coloring((1, 2), {v: psi[c] for v, c in rank_col.phi.items()}))
    assert spec.entries == direct.entries


def test_affine_span_dim():
    assert fe.affine_span_dim((2, 2)) == 4
    assert fe.affine_span_dim((1, 2)) == 2
    for d in (3, 5, 7):
        assert fe.affine_span_dim((d,)) == (d - 1) // 2


# --- Schenzel h' and short h -------------------------------------------------


def test_h_prime_sphere():
    K = fe.simplex_boundary(5)
    hv, b = fe.h_vector(K), fe.betti(K)
    assert fe.h_prime(hv, b) == hv.entries


def test_h_prime_cp2(cp2):
    hv, b = fe.h_vector(cp2), fe.betti(cp2)
    hp = fe.h_prime(hv, b)
    assert hp == (1, 4, 10, 20, 4, 1)


def test_h_prime_s3xs3_floor():
    hv = HVector(fe.S3XS3_MIN_H)
    betti = fe.BettiVector(fe.RATIONALS, (0, 0, 0, 0, 2, 0, 0, 1))
    hp = fe.h_prime(hv, betti)
    assert hp[3] == 56 and hp[4] == 126
    assert hp[4] - hp[3] == 70 == comb(8, 4)


def test_short_h_recurrence():
    K = fe.simplex_boundary(5)
    for m in range(1, K.d - 1):
        for i in range(1, K.d - m):
            assert fe.short_h_recurrence_defect(K, m, i) == 0


def test_short_h_first_identity(cp2, kl11):
    for K in (cp2, kl11):
        hv = fe.h_vector(K)
        sh = fe.short_h(K, 1)
        assert sh[1] == 2 * hv[2] + (K.d - 1) * hv[1]


def test_short_h_walkup_equality():
    K = fe.stacked_sphere(9, 5)
    sh = fe.short_h(K, 1)
    assert sh[1] == sh[2]


# --- stacked-sphere counts ----------------------------------------------------


def test_phi_values():
    d = 6
    assert fe.phi(d + 1, d, 1) == comb(d + 1, 2)
    for n in (8, 11):
        assert fe.phi(n, d, d - 1) == (d - 1) * n - (d + 1) * (d - 2)
    with pytest.raises(ArgumentOutOfRange):
        fe.phi(4, 6, 1)


def test_phi_matches_generated_stacked_spheres():
    for (n, d) in ((10, 4), (9, 5), (8, 6)):
        K = fe.stacked_sphere(n, d)
        fv = fe.f_vector(K)
        for i in range(1, d):
            assert fv[i] == fe.phi(n, d, i)


def test_Phi_composition_independent():
    for comp in ((5, 5, 5, 5), (8, 6, 3, 3), (17, 1, 1, 1)):
        assert sum(_phi_formula(nj, 4, 1) for nj in comp) == fe.Phi(20, 4, 4, 1)
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 6)
        N = rng.randint(n, 40)
        cuts = sorted(rng.sample(range(1, N), n - 1))
        comp = [b - a for a, b in zip([0] + cuts, cuts + [N])]
        d, i = rng.choice([(4, 1), (5, 2), (6, 3)])
        assert sum(_phi_formula(nj, d, i) for nj in comp) == fe.Phi(N, n, d, i)


# --- Macaulay ------------------------------------------------------------------


def revlex_degree_monomials(degree, nvars):
    """Exponent vectors of the given degree, descending graded-revlex order."""
    vecs = []

    def rec(prefix, rest, slots):
        if slots == 1:
            vecs.append(tuple(prefix + [rest]))
            return
        for e in range(rest, -1, -1):
            rec(prefix + [e], rest - e, slots - 1)

    rec([], degree, nvars)
    vecs.sort(key=lambda e: tuple(reversed(e)))
    return vecs


def macaulay_growth_oracle(a, i):
    """Greedy multicomplex growth: the number of degree-(i+1) monomials all of
    whose degree-i divisors lie in the first a degree-i monomials in revlex."""
    if a == 0:
        return 0
    v = 1
    while comb(v + i - 1, i) < a:
        v += 1
    lex_seg = set(revlex_degree_monomials(i, v)[:a])
    count = 0
    for e in revlex_degree_monomials(i + 1, v):
        ok = True
        for j in range(v):
            if e[j] > 0:
                div = e[:j] + (e[j] - 1,) + e[j + 1:]
                if div not in lex_seg:
                    ok = False
                    break
        if ok:
            count += 1
    return count


def test_pseudopower_examples():
    assert fe.macaulay_pseudopower(10, 2) == 20
    assert fe.macaulay_pseudopower(2, 1) == 3
    assert fe.binomial_expansion(10, 2) == [(5, 2)]


def test_pseudopower_against_multicomplex_oracle():
    for i in range(1, 7):
        for a in range(0, 61):
            assert fe.macaulay_pseudopower(a, i) == macaulay_growth_oracle(a, i), (a, i)


def test_is_M_vector():
    assert fe.is_M_vector((1, 3, 6, 10))
    assert not fe.is_M_vector((1, 2, 5))
    assert fe.is_M_vector((1,))
    assert not fe.is_M_vector((2, 1))
    assert not fe.is_M_vector((1, 3, -1))


def m_vector_oracle(h):
    """Macaulay's theorem: h is an M-vector exactly when the first h_i
    monomials of degree i in h_1 variables, in revlex order, form an order
    ideal, each divisor of a chosen monomial chosen too."""
    if not h or h[0] != 1 or min(h) < 0:
        return False
    n = h[1] if len(h) > 1 else 0
    chosen = {(0,) * n}
    for i, hi in enumerate(h[1:], 1):
        monomials = revlex_degree_monomials(i, n) if n else []
        if hi > len(monomials):
            return False
        for e in monomials[:hi]:
            if any(e[j] and e[:j] + (e[j] - 1,) + e[j + 1:] not in chosen for j in range(n)):
                return False
        chosen.update(monomials[:hi])
    return True


def test_is_M_vector_against_order_ideals():
    """Every vector of degree <= 4 with h_0 in 0..2, h_1 in -1..3 and the
    other entries in -1..6."""
    ranges = [range(0, 3), range(-1, 4), *[range(-1, 7)] * 3]
    verdicts = set()
    for length in range(1, len(ranges) + 1):
        for h in itertools.product(*ranges[:length]):
            want = m_vector_oracle(h)
            assert fe.is_M_vector(h) == want, h
            verdicts.add((length, want))
    assert {(n, v) for n in range(1, 6) for v in (True, False)} == verdicts


# --- middle Betti invariant -----------------------------------------------------


def test_G_invariant(cp2):
    b = fe.betti(cp2)
    assert fe.G_invariant(b, 2) == 10
    k3 = fe.BettiVector(fe.RATIONALS, (0, 0, 0, 22, 0, 1))
    assert fe.G_invariant(k3, 2) == 220
    sphere = fe.betti(fe.simplex_boundary(5))
    assert fe.G_invariant(sphere, 2) == 0
