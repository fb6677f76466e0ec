from __future__ import annotations

import random
from fractions import Fraction

import pytest

import faceenum as fe
from faceenum.errors import NotComparable, NotInCDSpan, NotSemiEulerian
from faceenum.posets import cd_words, expand_cd_word


def test_boolean_lattice_basics():
    B4 = fe.boolean_lattice(4)
    assert B4.total_rank == 4
    assert fe.mobius(B4, B4.bottom, B4.top) == 1
    B5 = fe.boolean_lattice(5)
    assert fe.mobius(B5, B5.bottom, B5.top) == -1
    assert fe.classify_poset(B4) == "Eulerian"


def test_mobius_identity_and_errors():
    B3 = fe.boolean_lattice(3)
    for x in B3.elements:
        assert fe.mobius(B3, x, x) == 1
    with pytest.raises(NotComparable):
        fe.mobius(B3, frozenset({1}), frozenset({2}))


def test_mobius_against_zeta_inverse():
    rng = random.Random(5)
    for _ in range(15):
        # random graded poset with level sizes 1, a, b, 1
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        mids = [f"m{i}" for i in range(a)]
        tops = [f"t{i}" for i in range(b)]
        covers = [("0", m) for m in mids] + [(t, "1") for t in tops]
        for t in tops:
            lowers = rng.sample(mids, rng.randint(1, a))
            covers += [(m, t) for m in lowers]
        for m in mids:  # ensure every middle element reaches the top level
            if not any(c[0] == m for c in covers if c[1] != "1"):
                covers.append((m, rng.choice(tops)))
        P = fe.GradedPoset(["0", "1"] + mids + tops, set(covers))
        if not P.is_valid_graded():
            continue
        elems = list(P.elements)
        n = len(elems)
        idx = {e: i for i, e in enumerate(elems)}
        zeta = [[1 if P.leq(elems[i], elems[j]) else 0 for j in range(n)] for i in range(n)]
        # invert over Q
        aug = [[Fraction(zeta[i][j]) for j in range(n)] + [Fraction(i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            pr = next(r for r in range(c, n) if aug[r][c] != 0)
            aug[c], aug[pr] = aug[pr], aug[c]
            pv = aug[c][c]
            aug[c] = [x / pv for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c] != 0:
                    f = aug[r][c]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
        for x in elems:
            for y in elems:
                if P.leq(x, y):
                    assert fe.mobius(P, x, y) == aug[idx[x]][n + idx[y]]


def test_face_poset_shapes(cp2):
    tri = fe.from_facets([[1, 2], [2, 3], [1, 3]])
    P = fe.face_poset(tri, augment=True)
    assert P.total_rank == 3
    assert sum(1 for e in P.elements if P.rank[e] in (1, 2)) == 6
    # the full simplex needs no adjoined top: its face poset is Boolean
    full = fe.simplex(4)
    Pf = fe.face_poset(full, augment=True)
    assert Pf.total_rank == 4
    assert fe.classify_poset(Pf) == "Eulerian"
    # without completion the boundary complex has no top
    Pb = fe.face_poset(fe.simplex_boundary(3), augment=False)
    assert fe.classify_poset(Pb) == "Neither"


def test_torus_poset_is_semi_eulerian(torus_poset):
    assert fe.classify_poset(torus_poset) == "SemiEulerian"
    assert fe.mobius(torus_poset, torus_poset.bottom, torus_poset.top) == -1


def test_order_complex_balanced_and_homeomorphic(cp2):
    P = fe.face_poset(cp2, augment=True)
    oc, col, labels = fe.order_complex(P, reduced=True)
    col.check_balanced(oc)
    assert col.type_vector == (1, 1, 1, 1, 1)
    assert fe.betti(oc).positive_range() == fe.betti(cp2).positive_range()


def test_order_complex_homeomorphic_bipyramid(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    oc, _, _ = fe.order_complex(P, reduced=True)
    assert fe.betti(oc).positive_range() == fe.betti(K).positive_range()


def test_order_complex_of_chain():
    P = fe.GradedPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    oc, col, _ = fe.order_complex(P, reduced=False)
    assert len(oc.facets) == 1 and oc.dim == 2


def test_order_complex_of_empty_proper_part():
    oc, col, labels = fe.order_complex(fe.GradedPoset(["a", "b"], [("a", "b")]))
    assert oc == fe.SimplicialComplex([()])  # the (-1)-sphere
    assert col == fe.Coloring((), {}) and labels == {}


def test_toric_boolean():
    for d in (3, 4, 5):
        t = fe.toric_h(fe.boolean_lattice(d))
        assert t.indexed == tuple(1 for _ in range(d))
        g = fe.toric_g(fe.boolean_lattice(d))
        assert g[0] == 1 and all(x == 0 for x in g[1:])


def test_toric_torus_hand_computation(torus_poset):
    # independent route: the recursion unrolled by hand gives
    # (x-1)^3 + 4(x-1)^2 + 8(x-1) + 4(1+x): one empty-interval term, four
    # vertices, eight edges, and four squares with g-hat = 1 + x
    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_add(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    xm1 = [-1, 1]
    total = poly_mul(poly_mul(xm1, xm1), xm1)
    total = poly_add(total, [4 * c for c in poly_mul(xm1, xm1)])
    total = poly_add(total, [8 * c for c in xm1])
    total = poly_add(total, [4, 4])
    assert tuple(total) == (-1, 7, 1, 1)
    assert fe.toric_h(torus_poset).coeffs == tuple(total)


def test_torus_order_complex_has_torus_homology(torus_poset):
    oc, col, _ = fe.order_complex(torus_poset, reduced=True)
    col.check_balanced(oc)
    assert fe.betti(oc).positive_range() == (0, 2, 1)
    assert fe.euler_characteristic(oc) == 0
    rep = fe.manifold_report(oc)
    assert rep.is_homology_manifold and rep.closed


def test_toric_torus(torus_poset):
    t = fe.toric_h(torus_poset)
    assert t.indexed == (1, 1, 7, -1)
    assert t.coeffs == (-1, 7, 1, 1)


def test_toric_matches_h_for_simplicial(cp2, kl11):
    for K in (cp2, kl11):
        P = fe.face_poset(K, augment=True)
        t = fe.toric_h(P)
        assert t.indexed == fe.h_vector(K).entries


def test_toric_g_matches_truncated_g(bipyramid, cp2):
    # for sphere face posets (palindromic th) the companion polynomial is the
    # classical g-vector
    for K in (bipyramid[0], fe.simplex_boundary(5)):
        P = fe.face_poset(K, augment=True)
        g = fe.g_from_h(fe.h_vector(K))
        assert fe.toric_g(P) == g.entries
    # a non-Eulerian face poset takes top-end differences instead
    P = fe.face_poset(cp2, augment=True)
    hv = fe.h_vector(cp2)
    assert fe.toric_g(P) == (hv[5], hv[4] - hv[5], hv[3] - hv[4])


def test_toric_ds_defect(torus_poset):
    assert fe.toric_ds_defect(torus_poset) == (0, 0, 0, 0)
    B5 = fe.boolean_lattice(5)
    assert all(x == 0 for x in fe.toric_ds_defect(B5))
    t = fe.toric_h(torus_poset)
    assert t.th(2) - t.th(1) == 6  # the chi-correction instance


def test_toric_palindromic_for_eulerian(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    t = fe.toric_h(P)
    assert t.indexed == tuple(reversed(t.indexed))


def test_flag_vectors_bipyramid(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    ff, fh = fe.flag_vectors(P)
    want = {
        (): 1, (1,): 6, (2,): 14, (3,): 9,
        (1, 2): 9, (1, 3): 14, (2, 3): 6, (1, 2, 3): 1,
    }
    got = {tuple(sorted(S)): v for S, v in fh.entries.items()}
    assert got == want


def test_flag_h_of_boolean_counts_descent_sets():
    # h_S of B_d counts permutations of [d] with descent set S
    B3 = fe.boolean_lattice(3)
    _, fh = fe.flag_vectors(B3)
    got = {tuple(sorted(S)): v for S, v in fh.entries.items()}
    assert got == {(): 1, (1,): 2, (2,): 2, (1, 2): 1}
    assert sum(fh.entries.values()) == 6  # |S_3|


def test_flag_ds_for_balanced_semi_eulerian(torus_poset):
    _, fh = fe.flag_vectors(torus_poset)
    d = fh.d + 1
    chi = fe.posets.reduced_order_complex_euler(torus_poset) if hasattr(fe, "posets") else None
    from faceenum.posets import reduced_order_complex_euler

    X = reduced_order_complex_euler(torus_poset) - fe.sphere_euler(d - 2)
    full = frozenset(range(1, d))
    for S in fh.entries:
        comp = full - S
        assert fh.entries[comp] - fh.entries[S] == (-1) ** len(S) * X


def test_bayer_billera(torus_poset, bipyramid):
    bad = [r for r in fe.bayer_billera_defects(torus_poset) if r["defect"] != 0]
    assert len(bad) == 1
    assert bad[0]["S"] == () and bad[0]["defect"] == -2
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    assert all(r["defect"] == 0 for r in fe.bayer_billera_defects(P))
    assert all(r["defect"] == 0 for r in fe.bayer_billera_defects(fe.boolean_lattice(5)))


def test_semi_eulerian_correction(torus_poset):
    corr = fe.semi_eulerian_correction(torus_poset)
    nz = {tuple(sorted(S)): v for S, v in corr.entries.items() if v}
    assert nz == {(3,): -2}
    # subtracting the correction restores every relation
    ff, _ = fe.flag_vectors(torus_poset)
    fixed = fe.FlagVector(ff.d, {S: v - corr.entries[S] for S, v in ff.entries.items()}, "f")
    fh = fe.flag_h_from_flag_f(fixed)
    ab = fe.ab_from_flag_h(fh)
    cd = fe.cd_index(ab)  # must now be expressible
    assert cd.expand().coeffs == ab.coeffs
    # Eulerian posets need no correction
    corr2 = fe.semi_eulerian_correction(fe.boolean_lattice(4))
    assert all(v == 0 for v in corr2.entries.values())


def test_semi_eulerian_correction_guard():
    P = fe.face_poset(fe.simplex(3), augment=True)  # Boolean, fine
    fe.semi_eulerian_correction(P)
    # mu(a, top) = 0 on a proper interval: not even semi-Eulerian
    bad = fe.GradedPoset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("b", "c"), ("c", "1")],
    )
    assert fe.classify_poset(bad) == "Neither"
    with pytest.raises(NotSemiEulerian):
        fe.semi_eulerian_correction(bad)


def test_cd_index_bipyramid(bipyramid):
    K, _ = bipyramid
    P = fe.face_poset(K, augment=True)
    _, fh = fe.flag_vectors(P)
    ab = fe.ab_from_flag_h(fh)
    cd = fe.cd_index(ab)
    assert cd.nonzero() == {"ccc": 1, "cd": 8, "dc": 5}
    assert cd.expand().coeffs == ab.coeffs


def test_cd_index_boolean():
    # classical values, with the leading c^{d-1} coefficient always h_() = 1
    _, fh = fe.flag_vectors(fe.boolean_lattice(3))
    assert fe.cd_index(fe.ab_from_flag_h(fh)).nonzero() == {"cc": 1, "d": 1}
    _, fh = fe.flag_vectors(fe.boolean_lattice(4))
    assert fe.cd_index(fe.ab_from_flag_h(fh)).nonzero() == {"ccc": 1, "cd": 2, "dc": 2}
    for d in (3, 4, 5):
        _, fh = fe.flag_vectors(fe.boolean_lattice(d))
        cd = fe.cd_index(fe.ab_from_flag_h(fh))
        assert cd["c" * (d - 1)] == 1


def test_cd_index_torus_residual(torus_poset):
    _, fh = fe.flag_vectors(torus_poset)
    with pytest.raises(NotInCDSpan) as exc:
        fe.cd_index(fe.ab_from_flag_h(fh))
    assert any(v != 0 for v in exc.value.residual.coeffs.values())


def test_cd_words_fibonacci():
    # counts 1, 1, 2, 3, 5, 8 for degrees 0..5
    assert [len(cd_words(n)) for n in range(6)] == [1, 1, 2, 3, 5, 8]
    assert expand_cd_word("d") == {"ab": 1, "ba": 1}
    assert expand_cd_word("c") == {"a": 1, "b": 1}


def test_face_poset_mixed_labels():
    K = fe.from_facets([[1, 2, "a"], [2, "a", "b"]])
    P = fe.face_poset(K)
    assert len(P.elements) == sum(K.f_vector) + 1  # faces plus the adjoined top
    assert fe.classify_poset(P) == "Neither"
