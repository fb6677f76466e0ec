"""Reference answers computed without faceenum.

Every output check in the benchmark compares against values from this module
or against closed-form goldens: face counts by enumeration, h from f, GF(2)
Betti numbers by bitset elimination, the stacked-sphere face counts and the
flag f-vectors of Boolean lattices and simplicial face posets.  Faces are
handled as frozensets, so label order and label type never matter here.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, factorial


class CheckFailed(Exception):
    """An output disagrees with its reference answer."""


def expect(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def faces_by_size(facets) -> list:
    """faces[m] is the set of m-element faces, m = 0 .. facet size."""
    top = max(len(f) for f in facets)
    out = [set() for _ in range(top + 1)]
    for f in facets:
        for m in range(len(f) + 1):
            out[m].update(frozenset(s) for s in combinations(f, m))
    return out


def f_vector(facets) -> tuple:
    """(f_-1, f_0, ..., f_{d-1}) with f_-1 = 1."""
    return tuple(len(s) for s in faces_by_size(facets))


def h_from_f(f: tuple) -> tuple:
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    )


def stacked_f(n: int, d: int) -> tuple:
    """f-vector of a stacked (d-1)-sphere on n vertices (facet size d)."""
    f = [1] + [comb(d, i) * n - comb(d + 1, i + 1) * i for i in range(d - 1)]
    f.append((d - 1) * n - (d + 1) * (d - 2))
    return tuple(f)


def vertices(facets) -> set:
    return {v for f in facets for v in f}


def is_closed_pseudomanifold(facets) -> bool:
    """Pure, and every ridge lies in exactly two facets."""
    d = len(next(iter(facets)))
    count: dict = {}
    for f in facets:
        if len(f) != d:
            return False
        for r in combinations(f, d - 1):
            r = frozenset(r)
            count[r] = count.get(r, 0) + 1
    return all(c == 2 for c in count.values())


def is_connected(facets) -> bool:
    facets = [frozenset(f) for f in facets]
    by_vertex: dict = {}
    for i, f in enumerate(facets):
        for v in f:
            by_vertex.setdefault(v, []).append(i)
    seen, todo = {0}, [0]
    while todo:
        for v in facets[todo.pop()]:
            for j in by_vertex[v]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
    return len(seen) == len(facets)


def is_two_neighborly(facets) -> bool:
    n = len(vertices(facets))
    return len(faces_by_size(facets)[2]) == comb(n, 2)


def betti_gf2(facets) -> tuple:
    """Reduced Betti numbers (b_-1, b_0, ..., b_top) over GF(2)."""
    faces = faces_by_size(facets)
    top = len(faces) - 1
    index = [{f: i for i, f in enumerate(fs)} for fs in faces]
    rank = [0] * (top + 2)
    rank[1] = 1  # augmentation: vertices onto the empty face
    for m in range(2, top + 1):
        pivots: dict = {}
        for f in faces[m]:
            row = 0
            for v in f:
                row |= 1 << index[m - 1][f - {v}]
            while row:
                hi = row.bit_length() - 1
                if hi not in pivots:
                    pivots[hi] = row
                    break
                row ^= pivots[hi]
        rank[m] = len(pivots)
    return (0,) + tuple(len(faces[m]) - rank[m] - rank[m + 1] for m in range(1, top + 1))


def multinomial(parts) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def flag_f_simplicial(f: tuple, S) -> int:
    """f_S of the face poset of a simplicial complex with f-vector f: a chain
    with ranks S picks a face of size max(S) and a flag of subsets in it."""
    S = sorted(S)
    if not S:
        return 1
    gaps = [b - a for a, b in zip([0] + S, S)]
    return f[S[-1]] * multinomial(gaps)


def flag_f_boolean(d: int, S) -> int:
    """f_S of the Boolean lattice B_d."""
    S = sorted(S)
    return multinomial([b - a for a, b in zip([0] + S, S + [d])])


def sphere_euler(dim: int) -> int:
    return 0 if dim < 0 else 1 + (-1) ** dim
