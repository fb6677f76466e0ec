"""Refit's first stage closes nonedges with direct one-moves; the cycle of
central retriangulations stays as the fallback and as the oracle."""

from __future__ import annotations

import pytest

import faceenum as fe
from faceenum import io as fio
from faceenum import refit
from faceenum.trees import _lift_tree
from test_move_log import _seeded_stacked_sphere

INPUTS = {
    "kl12": lambda: fe.kuhnel_lassmann(12, 2),
    "kl13": lambda: fe.kuhnel_lassmann(13, 2),
    "kl14": lambda: fe.kuhnel_lassmann(14, 2),
    "kl16": lambda: fe.kuhnel_lassmann(16, 2),
    "s2xs2_sum": lambda: fe.catalog("s2xs2_sum").payload,
    "stacked10_5": lambda: fe.stacked_sphere(10, 5),
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_one_moves_alone_make_the_input_two_neighborly(name):
    K = INPUTS[name]()
    log = fe.MoveLog()
    res = fe.two_neighborly_refit(K, log=log)
    C = res.complex
    assert len(C.vertices) == len(K.vertices)
    assert C.is_i_neighborly(2)
    assert fe.manifold_report(C).closed
    assert fe.betti(C).reduced_betti == fe.betti(K).reduced_betti
    assert res.tree.is_spanning()
    assert all(set(res.rho) <= set(f) for f in res.tree.facets)
    assert log.steps
    assert all(s["op"] == "bistellar" and len(s["parameters"]["g"]) == 2 for s in log.steps)
    assert fio.replay_move_log(K, log.steps) == C


@pytest.mark.parametrize("build", [lambda: fe.kuhnel_lassmann(12, 2), lambda: fe.stacked_sphere(8, 4)],
                         ids=["kl12", "stacked8_4"])
def test_one_moves_agree_with_the_cycle_they_bypass(build, monkeypatch):
    K = build()
    fast = fe.two_neighborly_refit(K).complex
    monkeypatch.setattr(refit, "_direct_one_moves", lambda K, log: K)
    slow = fe.two_neighborly_refit(K).complex
    assert len(slow.vertices) > len(fast.vertices)
    assert fe.betti(slow).reduced_betti == fe.betti(fast).reduced_betti
    assert slow.is_i_neighborly(2) and fast.is_i_neighborly(2)


def test_nonedges_left_by_the_one_moves_go_through_the_cycle(monkeypatch):
    K = fe.stacked_sphere(14, 4)
    assert len(refit._direct_one_moves(K, None).nonedges()) == 1
    insert = refit._insert_edge
    cycles = []

    def counted(*args):
        cycles.append(args[3:5])
        return insert(*args)

    monkeypatch.setattr(refit, "_insert_edge", counted)
    log = fe.MoveLog()
    C = fe.two_neighborly_refit(K, log=log).complex
    assert len(cycles) == 1
    assert {s["op"] for s in log.steps} == {"bistellar", "central_retriangulation"}
    assert C.is_i_neighborly(2)
    assert fe.manifold_report(C).closed
    assert fe.betti(C).is_sphere(3)
    assert fio.replay_move_log(K, log.steps) == C


def test_concentrated_tree_through_the_star_retriangulation():
    K = _seeded_stacked_sphere(17, 4)
    log = fe.MoveLog()
    C, W, tree_facets = refit._concentrated_tree(K, log)
    ops = [s["op"] for s in log.steps]
    assert ops.count("central_retriangulation") > K.d - 3  # the rest are star retriangulations
    assert _lift_tree(C, W, tree_facets).is_spanning()
    assert fio.replay_move_log(K, log.steps) == C
