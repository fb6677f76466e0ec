"""Face-count vector calculus: f/h/g transforms, Klee's generalized
Dehn-Sommerville defects, fine and flag vectors of balanced complexes,
Schenzel's corrected h-vector, short simplicial h-vectors, stacked-sphere
face counts, the f- and h-vector effects of bistellar moves, and Macaulay's
binomial growth machinery.

All arithmetic is exact integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb

from .complexes import Coloring, SimplicialComplex, _require_complex
from .errors import ArgumentOutOfRange, DimensionParity, IllegalMove, TypeVectorMismatch
from .homology import BettiVector, euler_characteristic, sphere_euler


# ---------------------------------------------------------------------------
# f / h / g


@dataclass(frozen=True)
class FVector:
    """(f_-1, f_0, ..., f_{d-1}) with f_-1 = 1."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if not self.entries or self.entries[0] != 1:
            raise ArgumentOutOfRange("f-vector must start with f_-1 = 1")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        """f_i, with i from -1 to d-1."""
        return self.entries[i + 1]

    def polynomial(self) -> list:
        """Coefficients of f(x) = sum f_{i-1} x^{d-i}, ascending in x."""
        return list(reversed(self.entries))


@dataclass(frozen=True)
class HVector:
    """(h_0, ..., h_d); entries may be negative."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(x) for x in self.entries))
        if not self.entries or self.entries[0] != 1:
            raise ArgumentOutOfRange("h-vector must start with h_0 = 1")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def __getitem__(self, i: int) -> int:
        return self.entries[i]

    def total(self) -> int:
        """sum h_i = f_{d-1}."""
        return sum(self.entries)


@dataclass(frozen=True)
class GVector:
    """(g_0, ..., g_{floor(d/2)}) with g_0 = 1 and g_i = h_i - h_{i-1}."""

    entries: tuple

    def __getitem__(self, i: int) -> int:
        return self.entries[i]


def f_vector(K: SimplicialComplex) -> FVector:
    _require_complex(K)
    K.require_pure("f-vector")
    return FVector(K.f_vector)


def h_from_f(fv: FVector) -> HVector:
    d = fv.d
    return HVector(
        tuple(
            sum((-1) ** (i - j) * comb(d - j, d - i) * fv[j - 1] for j in range(i + 1))
            for i in range(d + 1)
        )
    )


@cache
def _h_rows(d: int) -> tuple:
    """Row i of the f-to-h transform for facets of d vertices: the
    coefficients (-1)^(i-j) C(d-j, d-i) of f_{j-1}, j = 0..i."""
    return tuple(tuple((-1) ** (i - j) * comb(d - j, d - i) for j in range(i + 1)) for i in range(d + 1))


def _h_entries(f: tuple) -> tuple:
    """(h_0, ..., h_d) of the f-vector entries (f_-1, ..., f_{d-1}), by the
    transform rows cached per d; ``h_from_f`` without the vector types."""
    return tuple(sum(c * x for c, x in zip(row, f)) for row in _h_rows(len(f) - 1))


def bistellar_h_effect(h: tuple, m: int, d: int) -> tuple:
    """h-vector after an m-move: +1 on m < i < d-m, -1 on d-m <= i <= m."""
    out = list(h)
    for i in range(d + 1):
        if m < i < d - m:
            out[i] += 1
        elif d - m <= i <= m:
            out[i] -= 1
    return tuple(out)


@cache
def _move_delta(d: int, m: int) -> tuple:
    """The f-vector change of an m-move (F, G) on facets of d vertices:
    C(m + 1, j) faces F u t of size d - m + j go, for t a proper subset of
    G, and C(d - m, i) faces G u t' of size m + 1 + i come, for t' a proper
    subset of F.  Checked against ``bistellar_h_effect`` on first use per
    (d, m); a mismatch raises IllegalMove and is not cached."""
    delta = [0] * (d + 1)
    for j in range(m + 1):
        delta[d - m + j] -= comb(m + 1, j)
    for i in range(d - m):
        delta[m + 1 + i] += comb(d - m, i)
    if _h_entries(delta) != bistellar_h_effect((0,) * (d + 1), m, d):
        raise IllegalMove(f"h-vector effect mismatch for an {m}-move on facets of {d} vertices")
    return tuple(delta)


def _f_after_moves(f: tuple, ms) -> tuple:
    """The f-vector (f_-1, ..., f_{d-1}) of a pure complex after legal
    m-moves, one per m in ``ms``, by their closed-form changes.  f to h is
    linear, so a move changes h by the same amount whatever f is: checking
    that change once per (d, m) is the per-move h check."""
    out = list(f)
    for m in ms:
        out = [x + y for x, y in zip(out, _move_delta(len(f) - 1, m))]
    return tuple(out)


def f_from_h(hv: HVector) -> FVector:
    d = hv.d
    return FVector(
        tuple(
            sum(comb(d - j, d - i) * hv[j] for j in range(i + 1))
            for i in range(d + 1)
        )
    )


def h_vector(K: SimplicialComplex) -> HVector:
    return h_from_f(f_vector(K))


def g_from_h(hv: HVector) -> GVector:
    d = hv.d
    out = [1]
    for i in range(1, d // 2 + 1):
        out.append(hv[i] - hv[i - 1])
    return GVector(tuple(out))


def ds_defect_h(hv: HVector, chi: int) -> tuple:
    """Entry i of h_{d-i} - h_i - (-1)^i C(d,i)(chi - chi(S^{d-1})), i = 0..d.

    All-zero exactly when Klee's generalized Dehn-Sommerville equations hold.
    """
    d = hv.d
    corr = chi - sphere_euler(d - 1)
    return tuple(
        hv[d - i] - hv[i] - (-1) ** i * comb(d, i) * corr for i in range(d + 1)
    )


def ds_defect(K: SimplicialComplex) -> tuple:
    _require_complex(K)
    K.require_pure("Dehn-Sommerville defect")
    return ds_defect_h(h_vector(K), euler_characteristic(K))


# ---------------------------------------------------------------------------
# fine and flag vectors


@dataclass(frozen=True)
class FineVector:
    """Color-refined face or h counts: entries keyed by tuples b <= a."""

    type_vector: tuple
    entries: dict
    kind: str  # "f" or "h"

    def __getitem__(self, b) -> int:
        return self.entries[tuple(b)]

    def keys(self):
        return self.entries.keys()


@dataclass(frozen=True)
class FlagVector:
    """Rank-set refined counts: entries keyed by frozensets S of ranks 1..d."""

    d: int
    entries: dict
    kind: str  # "f" or "h"

    def __getitem__(self, S) -> int:
        return self.entries[frozenset(S)]


def _tuples_below(a: tuple):
    return itertools.product(*(range(x + 1) for x in a))


def fine_f(K: SimplicialComplex, coloring: Coloring) -> FineVector:
    """Counts f_b of faces meeting color class j in exactly b_j vertices."""
    K.require_pure("fine f-vector")
    coloring.check_balanced(K)
    a = coloring.type_vector
    counts = {b: 0 for b in _tuples_below(a)}
    for rho in K.faces():
        counts[coloring.color_counts(rho)] += 1
    return FineVector(a, counts, "f")


def fine_h(fv: FineVector) -> FineVector:
    """Fine h from fine f by the inclusion-exclusion transform
    h_b = sum_{c <= b} f_c prod_i (-1)^{b_i - c_i} C(a_i - c_i, b_i - c_i)."""
    if fv.kind != "f":
        raise TypeVectorMismatch("fine_h expects a fine f-vector")
    a = fv.type_vector
    out = {}
    for b in _tuples_below(a):
        total = 0
        for c in _tuples_below(b):
            coeff = 1
            for ai, bi, ci in zip(a, b, c):
                coeff *= (-1) ** (bi - ci) * comb(ai - ci, bi - ci)
            total += fv.entries[c] * coeff
        out[b] = total
    return FineVector(a, out, "h")


def fine_ds_defect(hv: FineVector, chi: int) -> dict:
    """Entry b of h_{a-b} - h_b - (-1)^{|b|} (chi - chi(S^{d-1})) prod C(a_j, b_j)."""
    a = hv.type_vector
    d = sum(a)
    corr = chi - sphere_euler(d - 1)
    out = {}
    for b in _tuples_below(a):
        ab = tuple(x - y for x, y in zip(a, b))
        prod = 1
        for aj, bj in zip(a, b):
            prod *= comb(aj, bj)
        out[b] = hv.entries[ab] - hv.entries[b] - (-1) ** sum(b) * corr * prod
    return out


def flag_h_from_flag_f(ff: FlagVector) -> FlagVector:
    """h_S = sum_{T subseteq S} (-1)^{|S - T|} f_T, by one subset-difference
    pass per rank i: h_S -= h_{S - i} for every key S that contains i.  Pass i
    reads only keys without i, which it leaves alone, so d 2^(d-1)
    subtractions do the full cube.  Every subset of each key must be a key."""
    if ff.kind != "f":
        raise TypeVectorMismatch("expected a flag f-vector")
    h = dict(ff.entries)
    for i in frozenset().union(*h):
        for S in h:
            if i in S:
                below = h.get(S - {i})
                if below is None:
                    raise TypeVectorMismatch(f"flag f-vector has {sorted(S)} but not {sorted(S - {i})}")
                h[S] -= below
    return FlagVector(ff.d, h, "h")


def specialize_flag(flag: FlagVector, a) -> FineVector:
    """Push a flag vector down to type a by the block partition of [d]:
    block j is the interval of length a_j; an entry lands on b when the rank
    set meets block j in b_j elements."""
    a = tuple(int(x) for x in a)
    if sum(a) != flag.d:
        raise TypeVectorMismatch(f"|a| = {sum(a)} but flag vector has d = {flag.d}")
    bounds = [0]
    for x in a:
        bounds.append(bounds[-1] + x)
    out = {b: 0 for b in _tuples_below(a)}
    for S, v in flag.entries.items():
        b = tuple(
            sum(1 for r in S if bounds[j] < r <= bounds[j + 1]) for j in range(len(a))
        )
        out[b] += v
    return FineVector(a, out, flag.kind)


def affine_span_dim(a) -> int:
    """Dimension of the affine span of fine h-vectors of balanced
    semi-Eulerian complexes of type a: (n(a)-1)/2 when every a_j is even,
    (n(a)-2)/2 otherwise, with n(a) = prod (a_j + 1)."""
    a = tuple(int(x) for x in a)
    if len(a) < 1 or any(x <= 0 for x in a):
        raise ArgumentOutOfRange("type vector must be nonempty and positive")
    n = 1
    for x in a:
        n *= x + 1
    if all(x % 2 == 0 for x in a):
        return (n - 1) // 2
    return (n - 2) // 2


# ---------------------------------------------------------------------------
# Schenzel's h' and the short simplicial h-vector


def h_prime(hv: HVector, b: BettiVector) -> tuple:
    """Schenzel's corrected vector
    h'_i = h_i + C(d,i) sum_{j=2}^{i-1} (-1)^{i-j-1} beta_{j-1},
    with reduced Betti numbers (reduced = unreduced in the range used).

    For a closed orientable homology manifold h'_d = 1; nonorientable gives 0.
    """
    d = hv.d
    out = []
    for i in range(d + 1):
        s = sum((-1) ** (i - j - 1) * b.get(j - 1) for j in range(2, i))
        out.append(hv[i] + comb(d, i) * s)
    return tuple(out)


def short_h(K: SimplicialComplex, m: int) -> tuple:
    """Sum of link h-vectors over all m-element faces."""
    K.require_pure("short simplicial h-vector")
    d = K.d
    if not (1 <= m <= d - 1):
        raise ArgumentOutOfRange(f"m={m} outside 1..{d - 1}")
    total = [0] * (d - m + 1)
    for rho in K.all_faces(m - 1):
        hv = h_vector(K.link(rho))
        for i, x in enumerate(hv.entries):
            total[i] += x
    return tuple(total)


def short_h_recurrence_defect(K: SimplicialComplex, m: int, i: int) -> int:
    """(m+1) h~^{(m+1)}_{i-1} - i h~^{(m)}_i - (d-m-i+1) h~^{(m)}_{i-1}."""
    d = K.d
    hm = short_h(K, m)
    hm1 = short_h(K, m + 1)
    return (m + 1) * hm1[i - 1] - i * hm[i] - (d - m - i + 1) * hm[i - 1]


# ---------------------------------------------------------------------------
# stacked-sphere face counts


def phi(n: int, d: int, i: int) -> int:
    """Face numbers of a (d-1)-dimensional stacked sphere on n vertices."""
    if n < d + 1:
        raise ArgumentOutOfRange(f"need n >= d+1, got n={n}, d={d}")
    return _phi_formula(n, d, i)


def _phi_formula(n: int, d: int, i: int) -> int:
    if i == 0:
        return n
    if not (1 <= i <= d - 1):
        raise ArgumentOutOfRange(f"i={i} outside 0..{d - 1}")
    if i <= d - 2:
        return comb(d, i) * n - comb(d + 1, i + 1) * i
    return (d - 1) * n - (d + 1) * (d - 2)


def Phi(N: int, n: int, d: int, i: int) -> int:
    """sum_j phi_i(N_j, d) over any composition of N into n nonzero parts;
    independent of the composition because phi_i is affine in its first
    argument."""
    if n < 1 or N < n:
        raise ArgumentOutOfRange("need a composition of N into n nonzero parts")
    # evaluate on the composition (N-n+1, 1, 1, ..., 1)
    return _phi_formula(N - n + 1, d, i) + (n - 1) * _phi_formula(1, d, i)


# ---------------------------------------------------------------------------
# Macaulay growth


def binomial_expansion(a: int, i: int) -> list:
    """The canonical i-binomial expansion a = C(a_i,i) + ... + C(a_j,j)
    with a_i > a_{i-1} > ... > a_j >= j >= 1; returns [(a_i, i), ...]."""
    if a < 0 or i < 1:
        raise ArgumentOutOfRange("need a >= 0 and i >= 1")
    out = []
    rest = a
    k = i
    while rest > 0 and k >= 1:
        top = k
        while comb(top + 1, k) <= rest:
            top += 1
        out.append((top, k))
        rest -= comb(top, k)
        k -= 1
    return out


def macaulay_pseudopower(a: int, i: int) -> int:
    """a^<i>: expand a in the i-binomial form then shift every binomial up."""
    return sum(comb(top + 1, k + 1) for top, k in binomial_expansion(a, i))


def is_M_vector(v) -> bool:
    """Macaulay's criterion: v_0 = 1, nonnegative, v_{i+1} <= v_i^<i>."""
    try:
        v = list(v)
    except TypeError:
        raise ArgumentOutOfRange(f"expected a sequence of ints, got {type(v).__name__}") from None
    if not all(isinstance(x, int) for x in v):
        raise ArgumentOutOfRange("an M-vector has int entries")
    if not v or v[0] != 1:
        return False
    if any(x < 0 for x in v):
        return False
    for i in range(1, len(v) - 1):
        if v[i + 1] > macaulay_pseudopower(v[i], i):
            return False
    return True


# ---------------------------------------------------------------------------
# the middle-degree Betti invariant of even-dimensional manifolds


def G_invariant(b: BettiVector, m: int) -> int:
    """The alternating Betti combination equal to h'_{m+1} - h'_m for a
    connected 2m-dimensional homology manifold without boundary.

    When the supplied Betti data satisfies Poincare duality (orientable case)
    this reduces to C(2m+1, m) (beta_m - beta_{m-1}).  Otherwise the full
    alternating formula is evaluated literally.
    """
    if m < 2:
        raise DimensionParity("defined for 2m-dimensional manifolds with m >= 2")
    if b.top_dim != 2 * m:
        raise DimensionParity(f"Betti vector has top dimension {b.top_dim}, expected {2 * m}")
    duality = b.get(2 * m) == 1 and all(b.get(j) == b.get(2 * m - j) for j in range(1, 2 * m))
    if duality:
        return comb(2 * m + 1, m) * (b.get(m) - b.get(m - 1))
    bracket = sum((-1) ** (j - 1) * (b.get(j) - b.get(2 * m - j)) for j in range(1, m - 1))
    bracket += (-1) ** m * (b.get(m) - b.get(m + 1))
    return (-1) ** m * comb(2 * m + 1, m) * bracket
