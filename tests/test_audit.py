from __future__ import annotations

import importlib
from math import comb

import faceenum as fe
from faceenum.audit import HOLDS, INAPPLICABLE, TIGHT, VIOLATED, Assertions, binomial_pair_decomposition

audit_module = importlib.import_module("faceenum.audit")  # fe.audit is the function


def test_binomial_pair_decomposition():
    assert binomial_pair_decomposition(6) == (4, 0)
    assert binomial_pair_decomposition(18) == (6, 3)
    assert binomial_pair_decomposition(55) == (11, 0)
    assert binomial_pair_decomposition(0) == (1, 0)
    for v in range(0, 80):
        a, b = binomial_pair_decomposition(v)
        assert comb(a, 2) + b == v and a > b >= 0


def test_cp2_audit(cp2):
    rep = fe.audit(cp2, name="cp2")
    assert not rep.violations()
    assert rep.by_name("even_euler_b").status == TIGHT
    assert rep.by_name("even_euler_a").status == TIGHT
    assert rep.by_name("universal_upper").status == TIGHT
    assert rep.by_name("rigidity").status == HOLDS
    assert rep.by_name("covering_bound").status == INAPPLICABLE
    assert rep.by_name("dehn_sommerville").status == HOLDS


def test_kl11_audit_with_assertion(kl11):
    rep = fe.audit(kl11, assertions=Assertions(beta1_positive=True), name="kl11")
    assert not rep.violations()
    cb = rep.by_name("covering_bound")
    assert cb.status == TIGHT and cb.lhs == 15 == cb.rhs
    assert rep.by_name("min_first_betti").status == TIGHT
    assert rep.by_name("vertex_link_bound").status == TIGHT  # Walkup class member
    assert rep.by_name("even_euler_a").status == INAPPLICABLE  # G = -10 < 0


def test_subgroup_index_assertion(kl11):
    rep = fe.audit(kl11, assertions=Assertions(subgroup_index=3), name="kl11")
    cb = rep.by_name("covering_bound")
    # (t-1)/t C(6,2) = 10 <= g2 = 15, scaled by t: 30 <= 45
    assert cb.status == HOLDS and (cb.lhs, cb.rhs) == (30, 45)


def test_stacked_sphere_audit():
    K = fe.stacked_sphere(9, 5)
    rep = fe.audit(K, name="stacked")
    assert not rep.violations()
    assert rep.by_name("rigidity").status == TIGHT  # h1 = h2
    assert rep.by_name("vertex_link_bound").status == TIGHT
    assert rep.by_name("stacked_lower_bounds").status == TIGHT


def test_s2xs2_audit(s2xs2):
    rep = fe.audit(s2xs2, name="s2xs2")
    assert not rep.violations()
    ee = rep.by_name("even_euler_b")
    assert ee.status == HOLDS and ee.lhs == 40 and ee.rhs == 41
    ea = rep.by_name("even_euler_a")
    assert ea.status == HOLDS and ea.lhs == 40 and ea.rhs == comb(8, 3)


def test_simplex_audit_mostly_inapplicable():
    rep = fe.audit(fe.simplex(5), name="simplex")
    assert not rep.violations()
    assert rep.by_name("rigidity").status == INAPPLICABLE
    assert rep.by_name("dehn_sommerville").status == INAPPLICABLE


def test_bipyramid_audit(bipyramid):
    K, _ = bipyramid
    rep = fe.audit(K, name="bipyramid")
    assert not rep.violations()
    # d = 3: the d >= 4 guards keep the sphere-only theorems out
    assert rep.by_name("stacked_lower_bounds").status == INAPPLICABLE


def test_d7_derivation_agreement():
    K = fe.stacked_sphere(9, 7)
    rep = fe.audit(K, name="stacked7")
    chk = rep.by_name("d7_euler_bound")
    assert chk.status in (HOLDS, TIGHT)
    assert "disagreement" not in chk.notes
    assert not rep.violations()


def test_report_serialization(cp2):
    rep = fe.audit(cp2, name="cp2")
    payload = rep.to_jsonable()
    assert payload["complex"] == "cp2"
    names = [c["name"] for c in payload["checks"]]
    assert names == [c.name for c in rep.checks]
    kalai = next(c for c in payload["checks"] if c["name"] == "kalai_edge_conjecture")
    assert kalai["proven"] is False


def test_conjecture_never_counts_as_violation(kl11):
    rep = fe.audit(kl11, name="kl11")
    k = rep.by_name("kalai_edge_conjecture")
    assert not k.proven
    assert k.status in (HOLDS, TIGHT, VIOLATED, INAPPLICABLE)
    assert all(c.proven for c in rep.violations())


def test_violation_plumbing_and_exit_semantics():
    # proven violations drive violations(); advisory ones never do
    from faceenum.audit import AuditCheck, AuditReport

    rep = AuditReport(complex_name="synthetic", field=fe.RATIONALS)
    rep.checks.append(AuditCheck("a", "ref", VIOLATED, proven=True))
    rep.checks.append(AuditCheck("b", "ref", VIOLATED, proven=False))
    rep.checks.append(AuditCheck("c", "ref", HOLDS))
    assert [c.name for c in rep.violations()] == ["a"]
    assert rep.checks[1].ok() is True  # advisory violation never fails the run
    assert rep.checks[0].ok() is False


def test_wedge_of_spheres_vertex_link_bound_inapplicable():
    # two stacked 3-spheres glued at vertex 8: that vertex's link is two
    # disjoint 2-spheres, so the vertex-link bound (lhs 33 > rhs 27 here)
    # does not apply and must not be reported as a proven violation
    A = fe.stacked_sphere(8, 4)
    B = A.relabel({v: v + 7 for v in A.vertices})
    K = fe.SimplicialComplex(A.facets + B.facets)
    for field in (fe.RATIONALS, fe.GF2):
        rep = fe.audit(K, field, name="wedge")
        assert rep.by_name("vertex_link_bound").status == INAPPLICABLE
        assert not rep.violations()


def test_audit_of_a_point_reports_h2_checks_inapplicable():
    rep = fe.audit(fe.SimplicialComplex([[1]]), name="point")
    for name in ("universal_upper", "covering_bound", "closed_edge_bound", "kalai_edge_conjecture"):
        assert rep.by_name(name).status == INAPPLICABLE
    assert not rep.violations()


def test_min_first_betti_reference_is_built_once(monkeypatch):
    calls = []
    real = audit_module.kuhnel_lassmann

    def counting(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(audit_module, "kuhnel_lassmann", counting)
    audit_module._min_first_betti_reference.cache_clear()
    K = fe.kuhnel_lassmann(11, 2)
    first = fe.audit(K).by_name("min_first_betti")
    assert first.status == TIGHT
    assert fe.audit(fe.SimplicialComplex(K.facets)).by_name("min_first_betti") == first
    assert calls == [(11, 2)]


def test_audit_ranks_the_top_boundary_once(monkeypatch):
    """``betti`` and the orientability test of a closed manifold share one
    elimination of the top boundary matrix per complex and field.  ``betti``
    then eliminates each lower boundary once, from the top down, without the
    rows of the faces that lead a pivot one dimension up (clearing)."""
    homology = importlib.import_module("faceenum.homology")
    calls = []  # rows per elimination
    real = homology._eliminate

    def counting(rows, lead, reduce, settle):
        rows = list(rows)
        calls.append(len(rows))
        return real(rows, lead, reduce, settle)

    monkeypatch.setattr(homology, "_eliminate", counting)
    # f = (1, 30, 150, 300, 300, 120) and (1, 17, 119, 357, 595, 595, 357, 102):
    # uncleared, the rows would be 120, 300, 300, 150 and 102, 357, 595, 595, 357, 119
    for (n, m), rows in (((30, 2), [120, 181, 120, 30]), ((17, 3), [102, 256, 340, 255, 102, 17])):
        calls.clear()
        assert not fe.audit(fe.kuhnel_lassmann(n, m)).violations()
        assert calls == rows, (n, m)
        calls.clear()
        assert fe.manifold_report(fe.kuhnel_lassmann(n, m)).closed
        assert calls == rows[:1]  # the orientability rank, as before
    K = fe.kuhnel_lassmann(30, 2)
    calls.clear()
    fe.betti(K, fe.GF2)
    fe.manifold_report(K)  # over Q: its own rank
    assert calls == [120, 181, 120, 30, 120]
