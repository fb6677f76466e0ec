"""Fresh vertices of the host's label kind.

``fresh_vertex`` returns max + 1 on a complex whose labels are all ints and
the first unused 'w1', 'w2', ... otherwise, so a construction on an int seed
stays on int labels.  The earlier rule, 'w1', 'w2', ... on every host, stays
here as the oracle: each construction runs under both rules, and the two
results must agree on every invariant and replay exactly from their own
logs.  Where fewer than ten vertices are added they must also have the same
facets under w_i -> max + i; from 'w10' on, str order ('w10' < 'w2') is not
int order, so the two walks may take different paths.
"""

from __future__ import annotations

import random

import pytest

import faceenum as fe
from faceenum import constructions, trees
from faceenum import io as fio
from faceenum.catalog import s2xs2_two_neighborly
from faceenum.complexes import SimplicialComplex, fresh_vertex
from faceenum.homology import GF2, RATIONALS


def _w_rule(K):
    """The earlier rule: the first of 'w1', 'w2', ... that K does not use."""
    i = 1
    while f"w{i}" in K._vertex_to_facets:
        i += 1
    return f"w{i}"


@pytest.mark.parametrize("facets, want", [
    (fe.stacked_sphere(6, 3).facets, 7),
    ([(1, 5, 9), (2, 3)], 10),
    ([(-4, -2), (-2, -1)], 0),
    ([("a", "b"), ("b", "c")], "w1"),
    ([("w1", "w2"), ("w2", "w4")], "w3"),
    ([(1, 2, "w1"), (3, "w2")], "w3"),
    ([(7, "a")], "w1"),
    ([()], "w1"),  # no vertices
], ids=["int", "int-gaps", "negative", "str", "str-w", "mixed-w", "mixed", "vertex-free"])
def test_fresh_vertex_is_unused_and_of_the_hosts_kind(facets, want):
    K = SimplicialComplex(facets)
    v = fresh_vertex(K)
    assert v == want and type(v) is type(want)
    assert v not in K.vertices and not K.has_face((v,))


def _refit(log):
    return fe.two_neighborly_refit(fe.stacked_sphere(14, 4), log=log).complex


def _retriangulations(log):
    """Central retriangulations from their default fresh vertex, logged as
    replay reads them."""
    K = fe.stacked_sphere(12, 5)
    for length in (3, 5, 2, 6):
        tree = trees.grow_simple_tree(K, length, random.Random(length))
        K2 = trees.central_retriangulation(K, tree)
        (w,) = set(K2.vertices) - set(K.vertices)
        log.record("central_retriangulation", {"ball": [list(f) for f in tree.facets], "vertex": w}, K2)
        K = K2
    return K


# name -> (the complex the log replays from, the construction)
CASES = {
    "cp2_6_10": (lambda: fe.catalog("cp2_9").payload, lambda log: fe.realize_space("cp2", 6, 10, log=log)),
    "cp2_9_30": (lambda: fe.catalog("cp2_9").payload, lambda log: fe.realize_space("cp2", 9, 30, log=log)),
    "cp2_13_60": (lambda: fe.catalog("cp2_9").payload, lambda log: fe.realize_space("cp2", 13, 60, log=log)),
    "s2xs2_sum2_7_18": (lambda: fe.catalog("s2xs2_sum").payload,
                        lambda log: fe.realize_space("s2xs2_sum2", 7, 18, log=log)),
    "s2xs2_sum2_9_19": (lambda: fe.catalog("s2xs2_sum").payload,
                        lambda log: fe.realize_space("s2xs2_sum2", 9, 19, log=log)),
    "s2xs2_sum2_16_20": (lambda: fe.catalog("s2xs2_sum").payload,
                         lambda log: fe.realize_space("s2xs2_sum2", 16, 20, log=log)),
    "s2xs2_sum2_8_25": (s2xs2_two_neighborly, lambda log: fe.realize_space("s2xs2_sum2", 8, 25, log=log)),
    "s2xs2_sum2_11_50": (s2xs2_two_neighborly, lambda log: fe.realize_space("s2xs2_sum2", 11, 50, log=log)),
    "s1xs3_7_20": (lambda: fe.kuhnel_lassmann(13, 2), lambda log: fe.realize_space("s1xs3", 7, 20, log=log)),
    "fill14_80": (lambda: fe.kuhnel_lassmann(14, 2), lambda log: fe.s1xs3_fill(14, 80, log=log)[0]),
    "retriangulations": (lambda: fe.stacked_sphere(12, 5), _retriangulations),
    "refit_stacked14_4": (lambda: fe.stacked_sphere(14, 4), _refit),
}


def _invariants(K):
    return (
        K.f_vector,
        fe.h_vector(K).entries,
        fe.betti(K, RATIONALS).reduced_betti,
        fe.betti(K, GF2).reduced_betti,
        fe.manifold_report(K).closed,
        K.is_i_neighborly(2),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_host_kind_labels_agree_with_w_labels(name, monkeypatch):
    base_of, build = CASES[name]
    base = base_of()
    new_log, old_log = fe.MoveLog(), fe.MoveLog()
    new = build(new_log)
    with monkeypatch.context() as m:
        m.setattr(constructions, "fresh_vertex", _w_rule)
        m.setattr(trees, "fresh_vertex", _w_rule)
        old = build(old_log)
    added = len(new.vertices) - len(base.vertices)
    assert all(type(v) is int for v in new.vertices)
    assert sum(type(v) is str for v in old.vertices) == added
    assert _invariants(new) == _invariants(old)
    assert fio.replay_move_log(base, new_log.steps) == new
    assert fio.replay_move_log(base, old_log.steps) == old  # a log with w vertices replays on its int host
    if added < 10:
        top = max(base.vertices)
        assert old.relabel({f"w{i}": top + i for i in range(1, added + 1)}) == new
