"""The README "Library tour" runs as written and states true values."""

from __future__ import annotations

from pathlib import Path

import faceenum as fe

README = Path(__file__).resolve().parents[1] / "README.md"

# expression in the tour -> the value its comment states
STATED = {
    "fe.h_vector(K).entries": (1, 4, 10, 20, -1, 2),
    "fe.betti(K).positive_range()": (0, 0, 1, 0, 1),
    "fe.manifold_report(K).closed": True,
    "fe.audit(K).violations()": [],
    "fe.toric_h(P).indexed": (1, 1, 7, -1),
    "res.complex.is_i_neighborly(2)": True,
}


def tour_lines() -> list:
    text = README.read_text()
    start = text.index("```python\n", text.index("## Library tour")) + len("```python\n")
    return text[start:text.index("```", start)].splitlines()


def test_library_tour_runs_and_states_true_values():
    lines = tour_lines()
    ns: dict = {}
    exec("\n".join(lines), ns)
    comments = {ln.split("#")[0].strip(): ln.split("#", 1)[1].strip() for ln in lines if "#" in ln}
    for expr, value in STATED.items():
        assert comments[expr].startswith(repr(value)), expr
        assert eval(expr, ns) == value, expr
    K = ns["K"]
    assert comments["fe.ds_defect(K)"].startswith("all zeros")
    assert all(v == 0 for v in eval("fe.ds_defect(K)", ns))
    assert "h1 = 6, h2 = 18, still CP^2" in comments[
        "bigger = fe.realize_g_pair(K, ambient, a=6, b=18)"]
    bigger = ns["bigger"]
    hv = fe.h_vector(bigger)
    assert (hv[1], hv[2]) == (6, 18)
    assert fe.betti(bigger).positive_range() == fe.betti(K).positive_range()
    assert fe.manifold_report(bigger).closed
    assert "Betti vector unchanged" in comments["res.complex.is_i_neighborly(2)"]
    assert fe.betti(ns["res"].complex).reduced_betti == fe.betti(fe.kuhnel_lassmann(12, 2)).reduced_betti
