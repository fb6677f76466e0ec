"""File formats.

Complexes: JSON {"vertices": [...], "facets": [[...], ...]} or plain text
with one facet per line, labels whitespace-separated.  Labels are ints or
strings in either format (any other JSON value is rejected); bare numerals in
text files are read as ints.  A declared vertex list must contain every
vertex of the facets.

Posets: a JSON object {"elements": [...], "covers": [["x","y"], ...]} whose
two values are lists; the special names "bottom"/"top" are optional and are
adjoined automatically when absent, provided the poset has a unique minimum
and maximum.

Move logs: JSON list of {"op": ..., "parameters": ..., "resulting": [f0, f1]}.
Replay re-runs each step through the code that recorded it, certifying every
logged ball as a simple tree in its recorded order, and raises ParseError
naming the first malformed step.
"""

from __future__ import annotations

import json
from pathlib import Path

from .complexes import SimplicialComplex, _require_complex, label_key
from .constructions import BistellarMove, MoveLog, _bistellar_step, _retriangulation_step
from .errors import ArgumentOutOfRange, ParseError
from .posets import BOTTOM_SENTINEL, TOP_SENTINEL, GradedPoset
from .trees import validate_simple_tree


def _label(tok: str):
    try:
        return int(tok)
    except ValueError:
        return tok


def _is_label(v) -> bool:
    try:
        label_key(v)
    except ArgumentOutOfRange:
        return False
    return True


def parse_complex_text(text: str) -> SimplicialComplex:
    facets = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.replace(",", " ").split()
        if len(set(toks)) != len(toks):
            raise ParseError(f"repeated label on line {ln}", line=ln)
        facets.append([_label(t) for t in toks])
    if not facets:
        raise ParseError("no facets found")
    return SimplicialComplex(facets)


def parse_complex_json(payload) -> SimplicialComplex:
    if not isinstance(payload, dict) or "facets" not in payload:
        raise ParseError('complex JSON needs a "facets" key')
    facets = payload["facets"]
    if not isinstance(facets, list) or not facets:
        raise ParseError('"facets" must be a nonempty list')
    for i, f in enumerate(facets):
        if not isinstance(f, list):
            raise ParseError(f"facet {i} is not a list")
    K = SimplicialComplex(facets)
    declared = payload.get("vertices")
    if declared is not None:
        if not isinstance(declared, list) or not all(_is_label(v) for v in declared):
            raise ParseError('"vertices" must be a list of int or string labels')
        undeclared = set(K.vertices) - set(declared)
        if undeclared:
            raise ParseError(f"facets mention undeclared vertices {sorted(undeclared, key=label_key)}")
    return K


def load_complex(path) -> SimplicialComplex:
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as e:
            raise ParseError(f"bad JSON: {e.msg}", line=e.lineno, column=e.colno) from e
        return parse_complex_json(payload)
    return parse_complex_text(text)


def complex_to_jsonable(K: SimplicialComplex) -> dict:
    return {"vertices": list(K.vertices), "facets": [list(f) for f in K.facets]}


def save_complex(K: SimplicialComplex, path):
    Path(path).write_text(json.dumps(complex_to_jsonable(K), indent=1) + "\n")


def load_poset(path) -> GradedPoset:
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(payload, dict) or "elements" not in payload or "covers" not in payload:
        raise ParseError('poset JSON needs an object with "elements" and "covers"')
    if not isinstance(payload["elements"], list) or not isinstance(payload["covers"], list):
        raise ParseError('poset "elements" and "covers" must be lists')

    def element(e):
        return _label(e) if isinstance(e, str) else e

    elements = [element(e) for e in payload["elements"]]
    covers = [[element(e) for e in c] if isinstance(c, list) else c for c in payload["covers"]]
    P = GradedPoset(elements, covers)
    mins = [e for e in P.elements if not P._lower[e]]
    maxs = [e for e in P.elements if not P._upper[e]]
    add_elements = list(elements)
    add_covers = list(covers)
    if len(mins) > 1:
        if BOTTOM_SENTINEL in add_elements:
            raise ParseError("multiple minima but 'bottom' already used")
        add_elements.append(BOTTOM_SENTINEL)
        add_covers += [(BOTTOM_SENTINEL, m) for m in mins]
    if len(maxs) > 1:
        if TOP_SENTINEL in add_elements:
            raise ParseError("multiple maxima but 'top' already used")
        add_elements.append(TOP_SENTINEL)
        add_covers += [(m, TOP_SENTINEL) for m in maxs]
    if len(add_elements) != len(elements):
        P = GradedPoset(add_elements, add_covers)
    return P


def poset_to_jsonable(P: GradedPoset) -> dict:
    return {
        "elements": [repr(e) if not isinstance(e, (int, str)) else e for e in P.elements],
        "covers": [
            [repr(a) if not isinstance(a, (int, str)) else a,
             repr(b) if not isinstance(b, (int, str)) else b]
            for a, b in P.covers
        ],
    }


def save_move_log(log: MoveLog, path):
    Path(path).write_text(json.dumps(log.to_jsonable(), indent=1) + "\n")


def load_move_log(path) -> list:
    try:
        steps = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno, column=e.colno) from e
    if not isinstance(steps, list):
        raise ParseError("move log must be a JSON list")
    return steps


def _labels(value, i: int, what: str) -> tuple:
    if not isinstance(value, list) or not all(_is_label(v) for v in value):
        raise ParseError(f"step {i}: {what} must be a list of int or string labels")
    return tuple(value)


def replay_move_log(K: SimplicialComplex, steps: list) -> SimplicialComplex:
    """Re-run a recorded construction through the step functions that
    recorded it; each step's (f0, f1) must equal the recorded one, so replays
    are byte-identical to the original run.  Every bistellar step checks its
    h-vector change, and logged balls are certified as simple trees in their
    recorded order."""
    _require_complex(K)
    if not isinstance(steps, list):
        raise ArgumentOutOfRange(f"a move log is a list of steps, got {type(steps).__name__}")
    for i, step in enumerate(steps):
        if not isinstance(step, dict) or not isinstance(step.get("parameters"), dict):
            raise ParseError(f'step {i} is not an object with a "parameters" object')
        op, params, want = step.get("op"), step["parameters"], step.get("resulting")
        if want is not None and not (isinstance(want, list) and len(want) == 2):
            raise ParseError(f"step {i}: resulting must be [f0, f1]")
        log = MoveLog()
        if op == "bistellar":
            move = BistellarMove(_labels(params.get("f"), i, "f"), _labels(params.get("g"), i, "g"))
            K = _bistellar_step(K, move, log)
        elif op == "central_retriangulation":
            ball = params.get("ball")
            if not isinstance(ball, list):
                raise ParseError(f"step {i}: ball must be a list of facets")
            vertex = params.get("vertex")
            if not _is_label(vertex):
                raise ParseError(f"step {i}: vertex must be an int or string label")
            tree = validate_simple_tree(K, [_labels(f, i, "each ball facet") for f in ball])
            K, _ = _retriangulation_step(K, tree, log, vertex)
        else:
            raise ParseError(f"unknown op {op!r} at step {i}")
        got = log.steps[-1]["resulting"]
        if want is not None and got != want:
            raise ParseError(f"replay diverged at step {i}: (f0, f1) = {got}, recorded {want}")
    return K
