"""Differential tests of the one simple-tree attachment rule.

`validate_simple_tree`, `grow_simple_tree` and `find_spanning_tree_in_link`
share one test that reads ridge counts updated as facets are added.  The
per-facet scans they replaced are kept here as the oracle: the verdict and
the `NotSimpleTree.index`, the grown trees (and the random draws they
consume) and the found trees must agree.
"""

from __future__ import annotations

import itertools
import random

import pytest

import faceenum as fe
from faceenum.complexes import face, face_key
from faceenum.errors import IllegalMove, NotASphereLink, NotSimpleTree, TreeNotFound
from faceenum.trees import grow_simple_tree


# ---------------------------------------------------------------------------
# the old loops


def old_validate(host, ordered_facets):
    """(True, natural order) or (False, index), as the old scan decides."""
    facets = [face(f) for f in ordered_facets]
    if not facets:
        return False, 0
    size = len(facets[0])
    for idx, f in enumerate(facets):
        if len(f) != size or not host.has_face(f):
            return False, idx
    if len(set(facets)) != len(facets):
        return False, max(i for i, f in enumerate(facets) if f in facets[:i])
    seen = set(facets[0])
    order = list(facets[0])
    union_facets = [facets[0]]
    for idx in range(1, len(facets)):
        f = facets[idx]
        inter = set(f) & seen
        new = set(f) - seen
        if len(new) != 1 or len(inter) != size - 1:
            return False, idx
        ridge = face(inter)
        if sum(1 for g in union_facets if set(ridge) <= set(g)) != 1:
            return False, idx
        union_facets.append(f)
        order.extend(new)
        seen |= new
    return True, tuple(order)


def old_grow(host, length, rng):
    facets = list(host.facets)
    start = rng.choice(facets)
    chosen = [start]
    verts = set(start)
    for _ in range(length - 1):
        candidates = []
        for g in facets:
            if g in chosen:
                continue
            inter = set(g) & verts
            if len(inter) != len(g) - 1:
                continue
            if sum(1 for c in chosen if set(face(inter)) <= set(c)) == 1:
                candidates.append(g)
        if not candidates:
            return None
        nxt = rng.choice(candidates)
        chosen.append(nxt)
        verts |= set(nxt)
    return chosen


def old_search(K, rho, node_budget=200_000, seed=None):
    """The spanning 2-tree facets, or the name of the error raised."""
    rho = face(rho)
    if len(rho) != K.d - 3:
        return "NotASphereLink"
    L = K.link(rho)
    if L.dim != 2 or not fe.is_homology_sphere(L):
        return "NotASphereLink"
    target = len(L.vertices)
    facets = sorted(L.facets, key=face_key)
    rng = random.Random(seed) if seed is not None else None
    budget = [node_budget]

    def order(cands):
        cands = sorted(cands, key=face_key)
        if rng is not None:
            rng.shuffle(cands)
        return cands

    def search(chosen, verts):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        if len(verts) == target:
            return list(chosen)
        cands = []
        for g in facets:
            if g in chosen:
                continue
            inter = set(g) & verts
            if len(inter) != 2:
                continue
            if sum(1 for c in chosen if set(face(inter)) <= set(c)) != 1:
                continue
            cands.append(g)
        for g in order(cands):
            chosen.append(g)
            got = search(chosen, verts | set(g))
            if got is not None:
                return got
            chosen.pop()
        return None

    for start in order(list(facets)):
        got = search([start], set(start))
        if got is not None:
            return tuple(got)
        if budget[0] <= 0:
            break
    return "TreeNotFound"


# ---------------------------------------------------------------------------
# the differential tests


def _cp2():
    return fe.catalog("cp2_9").payload


def random_2_sphere(seed):
    """A stacked 2-sphere on 7..16 vertices after up to 40 random edge flips;
    the spanning-tree search backtracks on many of these."""
    rng = random.Random(seed)
    K = fe.simplex_boundary(3)
    while len(K.vertices) < rng.randint(7, 16):
        K = fe.apply_bistellar(K, fe.BistellarMove(rng.choice(K.facets), (len(K.vertices) + 1,)))
    for _ in range(rng.randint(0, 40)):
        e = rng.choice(sorted(K.edges))
        opposite = [x for f in K.facets_containing(e) for x in f if x not in e]
        move = fe.BistellarMove(e, opposite)
        try:
            K = fe.apply_bistellar(K, move)
        except IllegalMove:  # the opposite vertices are already adjacent
            pass
    return K


HOSTS = [
    ("cp2_9", _cp2()),
    ("kl11_2", fe.kuhnel_lassmann(11, 2)),
    ("stacked12_4", fe.stacked_sphere(12, 4)),
    ("cp2_9-link12", _cp2().link((1, 2))),
    # not a pseudomanifold: a ridge may lie in two tree facets
    ("skeleton2_6", fe.SimplicialComplex(list(itertools.combinations(range(1, 7), 3)))),
]


def new_validate(host, ordered_facets):
    try:
        return True, fe.validate_simple_tree(host, ordered_facets).natural_order
    except NotSimpleTree as e:
        return False, e.index


def orderings(host, rng, count):
    """Grown trees, grown trees with two facets swapped or one repeated, and
    random facet samples."""
    facets = list(host.facets)
    out = []
    while len(out) < count:
        kind = len(out) % 4
        if kind == 3:
            out.append(rng.sample(facets, rng.randint(1, min(6, len(facets)))))
            continue
        tree = old_grow(host, rng.randint(1, 8), rng)
        if tree is None:
            continue
        if kind == 1 and len(tree) > 1:
            i, j = rng.sample(range(len(tree)), 2)
            tree[i], tree[j] = tree[j], tree[i]
        elif kind == 2:
            tree.insert(rng.randint(1, len(tree)), rng.choice(tree))
        out.append(tree)
    return out


@pytest.mark.parametrize("name,host", HOSTS, ids=[n for n, _ in HOSTS])
def test_validate_matches_old_scan(name, host):
    rng = random.Random(f"validate-{name}")
    cases = orderings(host, rng, 300)
    verdicts = [old_validate(host, o) for o in cases]
    assert [new_validate(host, o) for o in cases] == verdicts
    accepted = sum(ok for ok, _ in verdicts)
    assert 0 < accepted < len(cases)  # both verdicts are exercised


@pytest.mark.parametrize("name,host", HOSTS, ids=[n for n, _ in HOSTS])
def test_grow_draws_match_old_loop(name, host):
    for seed in range(25):
        for length in (1, 3, 6, 12):
            r_old, r_new = random.Random(seed), random.Random(seed)
            want = old_grow(host, length, r_old)
            got = grow_simple_tree(host, length, r_new)
            assert (None if got is None else list(got.facets)) == want
            assert r_new.random() == r_old.random()  # same draws consumed


def _searches():
    cp2, kl, st = _cp2(), fe.kuhnel_lassmann(11, 2), fe.stacked_sphere(12, 4)
    out = [(cp2, e) for e in sorted(cp2.edges, key=face_key)[:6]]
    out += [(kl, e) for e in sorted(kl.edges, key=face_key)[:3]]
    out += [(st, (v,)) for v in st.vertices[:4]]
    out += [(fe.s2xs2_two_neighborly(), (1, 2)), (cp2, (1, 2, 3)), (cp2, (1,))]
    return out + [(random_2_sphere(seed), ()) for seed in range(40)]


def new_search(K, rho, **kw):
    try:
        return fe.find_spanning_tree_in_link(K, rho, **kw).facets
    except (NotASphereLink, TreeNotFound) as e:
        return type(e).__name__


@pytest.mark.parametrize("seed", [None, 0, 1, 5])
def test_search_matches_old_backtracking(seed):
    backtracked = 0
    for K, rho in _searches():
        assert new_search(K, rho, seed=seed) == old_search(K, rho, seed=seed)
        path = len(K.link(rho).vertices) - 2 if K.d == len(rho) + 3 else 0
        backtracked += path > 0 and old_search(K, rho, path, seed) == "TreeNotFound"
    assert backtracked  # some searches leave a dead end before they succeed
    for budget in (1, 7, 40):
        K, rho = fe.s2xs2_two_neighborly(), (1, 2)
        assert new_search(K, rho, seed=seed, node_budget=budget) == old_search(K, rho, budget, seed)
