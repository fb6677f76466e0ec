"""The logged step path: every bistellar move and central retriangulation the
constructions perform goes through one step function per kind, and replay
re-runs the stored steps through the same two functions."""

from __future__ import annotations

import json
import random

import pytest

import faceenum as fe
from faceenum import io as fio
from faceenum import refit
from faceenum.catalog import s2xs2_two_neighborly
from faceenum.cli import main
from faceenum.errors import NotSimpleTree, ParseError


def _old_resulting(K):
    """The (f0, f1) pair as the log used to count it, from the full f-vector."""
    fv = K.f_vector
    return [fv[1], fv[2] if len(fv) > 2 else 0]


def _logged(build):
    log = fe.MoveLog()
    return build(log), log


LOGS = {
    "fill14_84": (lambda: fe.kuhnel_lassmann(14, 2),
                  lambda log: fe.s1xs3_fill(14, 84, log=log)[0]),
    "cp2_8_20": (lambda: fe.catalog("cp2_9").payload,
                 lambda log: fe.realize_space("cp2", 8, 20, log=log)),
    "s2xs2_sum2_7_19": (lambda: fe.catalog("s2xs2_sum").payload,
                        lambda log: fe.realize_space("s2xs2_sum2", 7, 19, log=log)),
    "s2xs2_sum2_7_24": (s2xs2_two_neighborly,
                        lambda log: fe.realize_space("s2xs2_sum2", 7, 24, log=log)),
    "refit_kl12": (lambda: fe.kuhnel_lassmann(12, 2),
                   lambda log: fe.two_neighborly_refit(fe.kuhnel_lassmann(12, 2), log=log).complex),
    "refit_stacked8": (lambda: fe.stacked_sphere(8, 4),
                       lambda log: fe.two_neighborly_refit(fe.stacked_sphere(8, 4), log=log).complex),
}


@pytest.mark.parametrize("name", sorted(LOGS))
def test_recorded_counts_match_a_full_recount(name):
    base, build = LOGS[name]
    K_out, log = _logged(build)
    assert log.steps
    K = base()
    for i, step in enumerate(log.steps):
        K = fio.replay_move_log(K, [step])
        assert step["resulting"] == _old_resulting(K), f"step {i}"
    assert K == K_out
    assert json.loads(json.dumps(log.steps)) == log.steps


def _seeded_stacked_sphere(seed, count):
    rng = random.Random(seed)
    K = fe.simplex_boundary(4)
    for v in range(6, 6 + count):
        K = fe.apply_bistellar(K, fe.BistellarMove(rng.choice(K.facets), (v,)))
    return K


def test_refit_through_the_star_retriangulation():
    K = _seeded_stacked_sphere(17, 4)
    _, phi = refit._grow_tree_map(K)
    assert len(set(phi.values())) < len(phi)  # two tree vertices share an image
    res, log = _logged(lambda log: fe.two_neighborly_refit(K, log=log))
    C = res.complex
    assert C.is_i_neighborly(2)
    assert fe.manifold_report(C).closed
    assert fe.betti(C).is_sphere(3)
    assert fio.replay_move_log(K, log.steps) == C


def test_certified_retriangulations_match_the_homology_checked_path(monkeypatch):
    # stage one and two of refit on seeded random stacked spheres: every ball
    # they retriangulate, embedded stars included, gives the same complex as
    # the public path that verifies ball homology
    step = refit._retriangulation_step
    calls = []

    def checked(K, tree, log, vertex=None):
        K2, w = step(K, tree, log, vertex)
        assert fe.central_retriangulation(K, fe.SimplicialComplex(tree.facets), w) == K2
        calls.append(w)
        return K2, w

    monkeypatch.setattr(refit, "_retriangulation_step", checked)
    stars = 0
    for seed in range(30):
        K = _seeded_stacked_sphere(seed, random.Random(seed).randint(3, 6))
        before = len(calls)
        refit._concentrated_tree(K, None)
        stars += len(calls) - before - (K.d - 3)  # d - 3 ambient steps, the rest are stars
    assert stars >= 5


def test_replay_rejects_a_ball_out_of_tree_order():
    cp2 = fe.catalog("cp2_9").payload
    facets = [[1, 2] + f for f in ([3, 4, 7], [3, 4, 5], [4, 5, 6], [5, 6, 8], [6, 8, 9])]
    ok = [{"op": "central_retriangulation", "parameters": {"ball": facets, "vertex": "w1"}}]
    assert len(fio.replay_move_log(cp2, ok).vertices) == 10
    shuffled = [facets[0], facets[4], facets[1], facets[2], facets[3]]
    bad = [{"op": "central_retriangulation", "parameters": {"ball": shuffled, "vertex": "w1"}}]
    with pytest.raises(NotSimpleTree):
        fio.replay_move_log(cp2, bad)


MOVE = {"f": [2, 3, 5, 6], "g": [1, 7]}
MALFORMED = {
    "missing f": [{"op": "bistellar", "parameters": {"g": [1, 7]}}],
    "f not a list": [{"op": "bistellar", "parameters": {"f": "2356", "g": [1, 7]}}],
    "float label": [{"op": "bistellar", "parameters": {"f": [2, 3, 5, 6.0], "g": [1, 7]}}],
    "bool label": [{"op": "bistellar", "parameters": {"f": [2, 3, 5, 6], "g": [True, 7]}}],
    "no parameters": [{"op": "bistellar"}],
    "parameters not a dict": [{"op": "bistellar", "parameters": [2, 3]}],
    "step without op or parameters": [MOVE],
    "step is a list": [["bistellar", MOVE]],
    "step is a string": ["bistellar"],
    "resulting wrong type": [{"op": "bistellar", "parameters": MOVE, "resulting": 12}],
    "missing ball": [{"op": "central_retriangulation", "parameters": {"vertex": "w1"}}],
    "ball facet not a list": [{"op": "central_retriangulation",
                               "parameters": {"ball": [7], "vertex": "w1"}}],
    "vertex not a label": [{"op": "central_retriangulation",
                            "parameters": {"ball": [[1, 2, 3, 4, 5]], "vertex": [1]}}],
    "unknown op": [{"op": "flip", "parameters": MOVE}],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_step_raises_parse_error_naming_it(case, tmp_path):
    K = fe.kuhnel_lassmann(12, 2)
    steps = [{"op": "bistellar", "parameters": MOVE}] + MALFORMED[case]
    with pytest.raises(ParseError, match="step 1"):
        fio.replay_move_log(K, steps)
    start, lp = tmp_path / "k.json", tmp_path / "log.json"
    fio.save_complex(K, start)
    lp.write_text(json.dumps(steps))
    assert main(["replay", "--input", str(start), "--log", str(lp)]) == 2
