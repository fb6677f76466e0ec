"""The h check of a move runs once per (d, m).

An m-move on facets of d vertices changes f by a closed form in (d, m), and
f to h is linear, so the move changes h by the same amount whatever f is.
``vectors._move_delta`` checks that change against ``bistellar_h_effect``
on first use per (d, m) and caches it; ``_f_after_moves`` adds the cached
changes.  The per-call form, which transformed h before and after every
call, stays here as the oracle.
"""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum import io as fio
from faceenum import vectors
from faceenum.constructions import BistellarMove, apply_bistellar
from faceenum.errors import IllegalMove
from faceenum.trees import central_retriangulation, grow_simple_tree
from faceenum.vectors import _f_after_moves, _h_entries, bistellar_h_effect
from test_successor_edit import _legal_moves

# built before any effect is patched; the reverse of the one-move is a 2-move
STACKED9_4 = fe.stacked_sphere(9, 4)
ONE_MOVED = apply_bistellar(STACKED9_4, _legal_moves(STACKED9_4)[1][0])


def _per_call_f_after_moves(f: tuple, ms) -> tuple:
    """The f-vector after the m-moves, its h-vector checked on every call."""
    d = len(f) - 1
    h, out = _h_entries(f), list(f)
    for m in ms:
        for j in range(m + 1):
            out[d - m + j] -= comb(m + 1, j)
        for i in range(d - m):
            out[m + 1 + i] += comb(d - m, i)
        h = bistellar_h_effect(h, m, d)
    out = tuple(out)
    if _h_entries(out) != h:
        raise IllegalMove(f"h-vector effect mismatch: got {_h_entries(out)}, expected {h}")
    return out


@st.composite
def f_and_moves(draw):
    d = draw(st.integers(1, 9))
    f = (1, *draw(st.lists(st.integers(0, 10**6), min_size=d, max_size=d)))
    moves = st.lists(st.integers(0, d - 1), max_size=12)
    if d >= 2:  # a central retriangulation: one 0-move, then one-moves
        moves |= st.integers(1, 12).map(lambda k: [0] + [1] * (k - 1))
    return f, draw(moves)


@settings(max_examples=300, deadline=None)
@given(f_and_moves())
def test_cached_form_equals_the_per_call_form(case):
    f, ms = case
    assert _f_after_moves(f, ms) == _per_call_f_after_moves(f, ms)


@pytest.fixture
def counted_effect(monkeypatch):
    """The calls of ``bistellar_h_effect``, from an empty cache."""
    calls = []
    real = vectors.bistellar_h_effect
    vectors._move_delta.cache_clear()
    monkeypatch.setattr(vectors, "bistellar_h_effect", lambda h, m, d: calls.append((d, m)) or real(h, m, d))
    yield calls
    vectors._move_delta.cache_clear()


def test_the_check_runs_once_per_d_and_m(counted_effect):
    fe.stacked_sphere(40, 5)
    fe.s1xs3_fill(16, 90)
    assert sorted(counted_effect) == [(5, 0), (5, 1)]


@pytest.fixture
def off_by_one(monkeypatch):
    """``bistellar_h_effect`` off by one in its last entry, from an empty
    cache: every check must now fail."""
    real = vectors.bistellar_h_effect
    vectors._move_delta.cache_clear()
    monkeypatch.setattr(vectors, "bistellar_h_effect", lambda h, m, d: (*real(h, m, d)[:-1], real(h, m, d)[-1] + 1))
    yield
    vectors._move_delta.cache_clear()


def test_a_wrong_effect_fails_the_first_move_of_each_m(off_by_one):
    cases = [(STACKED9_4, BistellarMove(STACKED9_4.facets[0], (10,)))]
    cases += [(K, legal[0]) for K in (STACKED9_4, ONE_MOVED) for legal in _legal_moves(K).values()]
    assert {move.m for _, move in cases} == {0, 1, 2, 3}
    for K, move in cases:
        with pytest.raises(IllegalMove, match="h-vector effect mismatch"):
            apply_bistellar(K, move)
    assert vectors._move_delta.cache_info().currsize == 0  # a failed check is not cached


def test_a_wrong_effect_fails_a_central_retriangulation(off_by_one):
    K = STACKED9_4
    for length in (1, 3):
        with pytest.raises(IllegalMove, match="h-vector effect mismatch"):
            central_retriangulation(K, grow_simple_tree(K, length, random.Random(length)))


@pytest.fixture
def logs():
    """A cp2 realization and a grouped fill, logged with the right effect."""
    cp2_log, fill_log = fe.MoveLog(), fe.MoveLog()
    K = fe.realize_space("cp2", 7, 20, log=cp2_log)
    assert fio.replay_move_log(fe.catalog("cp2_9").payload, cp2_log.steps) == K
    fe.s1xs3_fill(14, 75, log=fill_log)
    return cp2_log.steps, fill_log.steps


def test_a_wrong_effect_fails_replay(logs, off_by_one):
    cp2_steps, fill_steps = logs
    with pytest.raises(IllegalMove, match="h-vector effect mismatch"):
        fio.replay_move_log(fe.catalog("cp2_9").payload, cp2_steps)  # opens with a retriangulation
    with pytest.raises(IllegalMove, match="h-vector effect mismatch"):
        fio.replay_move_log(fe.kuhnel_lassmann(14, 2), fill_steps)  # one-moves only
