"""Inequality auditor for homology manifolds.

Each check carries explicit applicability guards matching the hypotheses of
the theorem it implements; checks whose hypotheses fail are reported as
inapplicable rather than skipped silently.  Checks needing fundamental-group
facts the library cannot compute (covering-space bounds) run only when the
caller asserts them.  Kalai's conjectured edge bound is advisory: it is
reported but never counts as a proven violation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import comb

from .complexes import SimplicialComplex, _require_complex
from .constructions import kuhnel_lassmann
from .errors import DimensionParity
from .homology import (
    RATIONALS,
    BettiVector,
    FieldSpec,
    _link_census,
    betti,
    euler_characteristic,
    is_semi_eulerian,
    manifold_report,
)
from .vectors import (
    FVector,
    G_invariant,
    HVector,
    ds_defect_h,
    f_vector,
    h_prime,
    h_vector,
    phi,
)

HOLDS = "holds"
VIOLATED = "violated"
INAPPLICABLE = "inapplicable"
TIGHT = "tight"


@dataclass(frozen=True)
class AuditCheck:
    name: str
    reference: str
    status: str  # holds | violated | inapplicable | tight
    lhs: object = None
    rhs: object = None
    notes: str = ""
    proven: bool = True  # False marks advisory/conjectural checks

    def ok(self) -> bool:
        return self.status != VIOLATED or not self.proven


@dataclass(frozen=True)
class Assertions:
    """Facts about the fundamental group supplied by the caller."""

    beta1_positive: bool = False
    subgroup_index: int | None = None


@dataclass
class AuditReport:
    complex_name: str
    field: FieldSpec
    checks: list = field(default_factory=list)

    def violations(self) -> list:
        return [c for c in self.checks if c.status == VIOLATED and c.proven]

    def by_name(self, name: str) -> AuditCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_jsonable(self) -> dict:
        return {
            "complex": self.complex_name,
            "field": str(self.field),
            "checks": [
                {
                    "name": c.name,
                    "reference": c.reference,
                    "status": c.status,
                    "lhs": _json_num(c.lhs),
                    "rhs": _json_num(c.rhs),
                    "notes": c.notes,
                    "proven": c.proven,
                }
                for c in self.checks
            ],
        }


def _json_num(x):
    if isinstance(x, tuple):
        return list(x)
    return x


def _cmp_status(lhs, rhs, tight_when_equal: bool = True) -> str:
    """Status for an inequality lhs <= rhs."""
    if lhs > rhs:
        return VIOLATED
    if lhs == rhs and tight_when_equal:
        return TIGHT
    return HOLDS


@dataclass
class _Context:
    K: SimplicialComplex
    field: FieldSpec
    assertions: Assertions
    h: tuple
    f: tuple
    chi: int
    b: BettiVector
    report: object  # ManifoldReport
    no_boundary: bool
    closed: bool


def _links_closed(K: SimplicialComplex, field: FieldSpec, k: int) -> bool:
    """Every link of a k-face is a connected homology manifold without
    boundary.  Since lk_{lk rho}(sigma) = lk_K(rho u sigma), that holds when
    every face with more than k+1 vertices has a sphere link and every k-face
    has a connected link."""
    for row in _link_census(K, field):
        if (len(row.face) > k + 1 and row.cls != "sphere") or (len(row.face) == k + 1 and not row.connected):
            return False
    return True


def binomial_pair_decomposition(v: int) -> tuple[int, int]:
    """Write v = C(a,2) + C(b,1) with a > b by taking the largest a with
    C(a,2) <= v; the remainder is then automatically smaller than a."""
    a = 1
    while comb(a + 1, 2) <= v:
        a += 1
    b = v - comb(a, 2)
    return a, b


def _check_rigidity(ctx: _Context) -> AuditCheck:
    ref = "rigidity inequality (Kalai; Gromov)"
    if not ctx.no_boundary or ctx.K.d < 4:
        return AuditCheck("rigidity", ref, INAPPLICABLE, notes="needs a homology manifold without boundary")
    h = ctx.h
    if not (h[0] <= h[1] <= h[2]):
        return AuditCheck("rigidity", ref, VIOLATED, lhs=(h[0], h[1], h[2]), rhs=None)
    status = TIGHT if h[1] == h[2] or h[0] == h[1] else HOLDS
    return AuditCheck("rigidity", ref, status, lhs=h[1], rhs=h[2])


def _check_universal_upper(ctx: _Context) -> AuditCheck:
    ref = "universal bound h2 - h1 <= C(h1, 2) for pure complexes"
    if ctx.K.d < 2:
        return AuditCheck("universal_upper", ref, INAPPLICABLE, notes="needs h2, which exists only when d >= 2")
    lhs = ctx.h[2] - ctx.h[1]
    rhs = comb(ctx.h[1], 2)
    return AuditCheck("universal_upper", ref, _cmp_status(lhs, rhs), lhs=lhs, rhs=rhs)


def _check_covering(ctx: _Context) -> AuditCheck:
    ref = "covering-space edge bound from lifted rigidity"
    d = ctx.K.d
    if not ctx.closed or d < 2:
        return AuditCheck("covering_bound", ref, INAPPLICABLE, notes="needs a closed homology manifold and d >= 2")
    g2 = ctx.h[2] - ctx.h[1]
    if ctx.assertions.beta1_positive:
        lhs, rhs = comb(d + 1, 2), g2
        return AuditCheck("covering_bound", ref, _cmp_status(lhs, rhs),
                          lhs=lhs, rhs=rhs, notes="asserted beta_1 > 0")
    if ctx.assertions.subgroup_index is not None:
        t = ctx.assertions.subgroup_index
        # (t-1)/t C(d+1,2) <= g2, compared exactly
        lhs, rhs = (t - 1) * comb(d + 1, 2), t * g2
        return AuditCheck("covering_bound", ref, _cmp_status(lhs, rhs),
                          lhs=lhs, rhs=rhs, notes=f"asserted subgroup of index {t}; both sides scaled by {t}")
    return AuditCheck(
        "covering_bound", ref, INAPPLICABLE,
        notes="needs an asserted pi_1 fact (beta_1 > 0 or a subgroup index); the library cannot derive fundamental groups",
    )


def _check_vertex_link_rigidity(ctx: _Context) -> AuditCheck:
    ref = "vertex-link rigidity bound (d-1) h1 <= 3 h3 + (d-4) h2"
    d = ctx.K.d
    if d < 4:
        return AuditCheck("vertex_link_bound", ref, INAPPLICABLE, notes="needs d >= 4")
    if not _links_closed(ctx.K, ctx.field, 0):
        return AuditCheck("vertex_link_bound", ref, INAPPLICABLE,
                          notes="needs every vertex link to be a connected homology manifold without boundary")
    h = ctx.h
    lhs = (d - 1) * h[1]
    rhs = 3 * h[3] + (d - 4) * h[2]
    notes = "equality characterizes the Walkup class when d >= 5"
    return AuditCheck("vertex_link_bound", ref, _cmp_status(lhs, rhs), lhs=lhs, rhs=rhs, notes=notes)


def _check_dim5_euler(ctx: _Context) -> AuditCheck:
    ref = "four-manifold bound h2 - h1 >= -(15/2)(chi - 2) (Walkup)"
    d = ctx.K.d
    if d != 5 or not ctx.no_boundary:
        return AuditCheck("dim5_euler_bound", ref, INAPPLICABLE, notes="needs a 4-manifold without boundary")
    lhs = -15 * (ctx.chi - 2)  # compare 2(h2 - h1) >= -15(chi - 2)
    rhs = 2 * (ctx.h[2] - ctx.h[1])
    return AuditCheck("dim5_euler_bound", ref, _cmp_status(lhs, rhs),
                      lhs=lhs, rhs=rhs, notes="both sides doubled to stay integral")


def _check_edge_link_rigidity(ctx: _Context) -> AuditCheck:
    ref = "edge-link rigidity bound 12 h4 + 6(d-4) h3 + (d-2)(d-7) h2 - (d-1)(d-2) h1 >= 0"
    d = ctx.K.d
    if d < 5:
        return AuditCheck("edge_link_bound", ref, INAPPLICABLE, notes="needs d >= 5")
    if not _links_closed(ctx.K, ctx.field, 1):
        return AuditCheck("edge_link_bound", ref, INAPPLICABLE,
                          notes="needs every edge link to be a connected homology manifold without boundary")
    h = ctx.h
    val = 12 * h[4] + 6 * (d - 4) * h[3] + (d - 2) * (d - 7) * h[2] - (d - 1) * (d - 2) * h[1]
    return AuditCheck("edge_link_bound", ref, _cmp_status(0, val), lhs=0, rhs=val)


def _check_d7_euler(ctx: _Context) -> AuditCheck:
    ref = "six-manifold Euler bound chi <= 2 + (h3 - h1)/14, derived from the edge-link bound"
    d = ctx.K.d
    if d != 7 or not ctx.no_boundary:
        return AuditCheck("d7_euler_bound", ref, INAPPLICABLE, notes="needs a 6-manifold without boundary")
    if not _links_closed(ctx.K, ctx.field, 1):
        return AuditCheck("d7_euler_bound", ref, INAPPLICABLE,
                          notes="needs every edge link to be a connected homology manifold without boundary")
    h = ctx.h
    lhs = 14 * (ctx.chi - 2)
    rhs = h[3] - h[1]
    # consistency of the two derivations: the edge-link bound at d = 7 reads
    # 12(h4 - h3) >= 30(h1 - h3), and Dehn-Sommerville gives h4 - h3 = -35(chi-2)
    other = 12 * h[4] + 18 * h[3] + 0 * h[2] - 30 * h[1]
    agree = (lhs <= rhs) == (other >= 0)
    notes = "" if agree else "INTERNAL: disagreement between direct and derived route"
    status = _cmp_status(lhs, rhs)
    if not agree:
        status = VIOLATED
    return AuditCheck("d7_euler_bound", ref, status, lhs=lhs, rhs=rhs, notes=notes)


def _check_even_euler(ctx: _Context) -> list:
    ref_a = "middle-Betti bound against C(n-m-2, m+1) (Macaulay route)"
    ref_b = "middle-Betti bound against the h2 - h1 binomial decomposition"
    d = ctx.K.d
    dim = d - 1

    def inapplicable(note: str) -> list:
        return [AuditCheck("even_euler_a", ref_a, INAPPLICABLE, notes=note),
                AuditCheck("even_euler_b", ref_b, INAPPLICABLE, notes=note)]

    if dim % 2 != 0 or dim < 4 or not ctx.no_boundary:
        return inapplicable("needs an even-dimensional (>= 4) homology manifold without boundary")
    if not ctx.field.is_rationals:
        return inapplicable("defined with rational coefficients")
    m = dim // 2
    try:
        G = G_invariant(ctx.b, m)
    except DimensionParity:
        return inapplicable("Betti data has wrong length")
    if G <= 0:
        return inapplicable(f"needs G > 0; here G = {G}")
    duality_note = ""
    if not ctx.report.orientable:
        duality_note = "nonorientable input: the alternating Betti formula is evaluated literally"
    n = len(ctx.K.vertices)
    lhs = G + comb(2 * m, m) * ctx.b.get(m - 1)
    rhs_a = comb(n - m - 2, m + 1)
    a, bb = binomial_pair_decomposition(ctx.h[2] - ctx.h[1])
    rhs_b = comb(a + m - 1, m + 1) + comb(bb + m - 1, m)
    note_b = f"h2 - h1 = C({a},2) + C({bb},1)"
    if duality_note:
        note_b = note_b + "; " + duality_note
    return [
        AuditCheck("even_euler_a", ref_a, _cmp_status(lhs, rhs_a), lhs=lhs, rhs=rhs_a, notes=duality_note),
        AuditCheck("even_euler_b", ref_b, _cmp_status(lhs, rhs_b), lhs=lhs, rhs=rhs_b, notes=note_b),
    ]


def _check_surjectivity_bound(ctx: _Context) -> AuditCheck:
    ref = "top-degree surjectivity bound h'_{d-2} >= h'_{d-1} + (d-1) beta_{d-3}"
    d = ctx.K.d
    if not ctx.field.is_rationals:
        return AuditCheck("h_prime_top", ref, INAPPLICABLE, notes="stated for rational Betti numbers")
    if not ctx.report.is_homology_manifold or d < 4:
        return AuditCheck("h_prime_top", ref, INAPPLICABLE,
                          notes="needs a homology manifold (with or without boundary) and d >= 4")
    hp = h_prime(HVector(ctx.h), ctx.b)
    lhs = hp[d - 1] + (d - 1) * ctx.b.get(d - 3)
    rhs = hp[d - 2]
    return AuditCheck("h_prime_top", ref, _cmp_status(lhs, rhs), lhs=lhs, rhs=rhs)


def _check_closed_edge_bound(ctx: _Context) -> AuditCheck:
    ref = "closed-manifold edge bound h2 >= h1 + C(d+1,2) beta_1 - C(d-1,2) beta_2"
    d = ctx.K.d
    if not ctx.closed or not ctx.field.is_rationals or d < 4:
        return AuditCheck("closed_edge_bound", ref, INAPPLICABLE,
                          notes="needs a closed homology manifold, d >= 4 and rational Betti numbers")
    lhs = ctx.h[1] + comb(d + 1, 2) * ctx.b.get(1) - comb(d - 1, 2) * ctx.b.get(2)
    rhs = ctx.h[2]
    notes = ""
    if lhs == rhs and ctx.b.get(2) == 0 and d >= 5:
        notes = "equality with beta_2 = 0 places the complex in the Walkup class"
    return AuditCheck("closed_edge_bound", ref, _cmp_status(lhs, rhs), lhs=lhs, rhs=rhs, notes=notes)


def _check_kalai_conjecture(ctx: _Context) -> AuditCheck:
    ref = "conjectured edge bound h2 - h1 >= C(d+1,2) beta_1 (Kalai)"
    d = ctx.K.d
    if not ctx.no_boundary or not ctx.field.is_rationals or d < 4:
        return AuditCheck("kalai_edge_conjecture", ref, INAPPLICABLE, proven=False,
                          notes="stated for homology manifolds without boundary and d >= 4")
    lhs = comb(d + 1, 2) * ctx.b.get(1)
    rhs = ctx.h[2] - ctx.h[1]
    status = _cmp_status(lhs, rhs)
    proven_note = "proven when beta_2 = 0 and closed, and when beta_1 = 1; advisory otherwise"
    return AuditCheck("kalai_edge_conjecture", ref, status, lhs=lhs, rhs=rhs,
                      notes=proven_note, proven=False)


def _check_stacked_lower_bounds(ctx: _Context) -> AuditCheck:
    ref = "stacked-sphere lower bound f_i >= phi_i(n, d) (Kalai; Barnette)"
    d = ctx.K.d
    if not ctx.no_boundary or d < 4:
        return AuditCheck("stacked_lower_bounds", ref, INAPPLICABLE,
                          notes="needs a homology manifold without boundary and d >= 4")
    n = len(ctx.K.vertices)
    worst = None
    tight_i = []
    for i in range(1, d):
        lhs = phi(n, d, i)
        rhs = ctx.f[i + 1]  # f_i with offset for f_-1
        if lhs > rhs:
            return AuditCheck("stacked_lower_bounds", ref, VIOLATED, lhs=lhs, rhs=rhs,
                              notes=f"fails at i = {i}")
        if lhs == rhs:
            tight_i.append(i)
        worst = (lhs, rhs)
    if tight_i:
        return AuditCheck("stacked_lower_bounds", ref, TIGHT, lhs=worst[0], rhs=worst[1],
                          notes=f"equality at i = {tight_i}; the complex is a stacked sphere")
    return AuditCheck("stacked_lower_bounds", ref, HOLDS, lhs=worst[0], rhs=worst[1])


@functools.cache
def _min_first_betti_reference(d: int) -> FVector:
    """f-vector of Kuhnel's cyclic reference complex on 2d + 1 vertices."""
    return f_vector(kuhnel_lassmann(2 * d + 1, (d - 1) // 2))


def _check_min_first_betti(ctx: _Context) -> AuditCheck:
    ref = "minimal triangulation bound for beta_1 > 0 (Kuhnel's cyclic complexes)"
    d = ctx.K.d
    beta1 = ctx.b.get(1) > 0 or ctx.assertions.beta1_positive
    if not ctx.no_boundary or not beta1:
        return AuditCheck("min_first_betti", ref, INAPPLICABLE,
                          notes="needs a homology manifold without boundary and beta_1 > 0")
    if d % 2 == 0 or d < 5:
        return AuditCheck("min_first_betti", ref, INAPPLICABLE,
                          notes="reference complex generated only for odd d >= 5")
    fm = _min_first_betti_reference(d)
    for i in range(0, d):
        if ctx.f[i + 1] < fm[i]:
            return AuditCheck("min_first_betti", ref, VIOLATED, lhs=fm[i], rhs=ctx.f[i + 1],
                              notes=f"fails at i = {i}")
    tight = all(ctx.f[i + 1] == fm[i] for i in range(0, d))
    return AuditCheck("min_first_betti", ref, TIGHT if tight else HOLDS,
                      lhs=tuple(fm.entries[1:]), rhs=tuple(ctx.f[1:]))


def _check_dehn_sommerville(ctx: _Context) -> AuditCheck:
    ref = "generalized Dehn-Sommerville equations (Klee)"
    if not is_semi_eulerian(ctx.K):
        return AuditCheck("dehn_sommerville", ref, INAPPLICABLE, notes="complex is not semi-Eulerian")
    defect = ds_defect_h(HVector(ctx.h), ctx.chi)
    status = HOLDS if all(x == 0 for x in defect) else VIOLATED
    return AuditCheck("dehn_sommerville", ref, status, lhs=tuple(defect), rhs=None)


def audit(
    K: SimplicialComplex,
    field: FieldSpec = RATIONALS,
    assertions: Assertions = Assertions(),
    name: str = "complex",
) -> AuditReport:
    """Run the full battery of checks with applicability guards."""
    _require_complex(K)
    K.require_pure("audit")
    K.require_connected("audit")
    h = h_vector(K).entries
    f = f_vector(K).entries
    chi = euler_characteristic(K)
    b = betti(K, field)
    rep = manifold_report(K, field)
    no_boundary = rep.is_homology_manifold and rep.boundary is None
    ctx = _Context(
        K=K, field=field, assertions=assertions, h=h, f=f, chi=chi, b=b,
        report=rep, no_boundary=no_boundary, closed=rep.closed,
    )
    report = AuditReport(complex_name=name, field=field)
    report.checks.append(_check_rigidity(ctx))
    report.checks.append(_check_universal_upper(ctx))
    report.checks.append(_check_covering(ctx))
    report.checks.append(_check_vertex_link_rigidity(ctx))
    report.checks.append(_check_dim5_euler(ctx))
    report.checks.append(_check_edge_link_rigidity(ctx))
    report.checks.append(_check_d7_euler(ctx))
    report.checks.extend(_check_even_euler(ctx))
    report.checks.append(_check_surjectivity_bound(ctx))
    report.checks.append(_check_closed_edge_bound(ctx))
    report.checks.append(_check_kalai_conjecture(ctx))
    report.checks.append(_check_stacked_lower_bounds(ctx))
    report.checks.append(_check_min_first_betti(ctx))
    report.checks.append(_check_dehn_sommerville(ctx))
    return report
