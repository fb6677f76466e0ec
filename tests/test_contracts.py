"""Input contracts and theorem guards: labels are ints or strings, malformed
complex files raise FaceEnumError (CLI exit 2), and the audit reports no
proven violation on closed surfaces or the circle."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import faceenum as fe
from faceenum import io as fio
from faceenum.audit import INAPPLICABLE
from faceenum.cli import main
from faceenum.complexes import label_key
from faceenum.constructions import check_move
from faceenum.errors import ArgumentOutOfRange, FaceEnumError, InvalidPoset, ParseError
from faceenum.posets import cd_words
from test_census import _handle


def torus7():
    """Mobius' 7-vertex torus."""
    return fe.SimplicialComplex(
        [[i % 7 + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1] for i in range(7)]
        + [[i % 7 + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1] for i in range(7)]
    )


CIRCLE = fe.SimplicialComplex([[1, 2], [2, 3], [1, 3]])


@pytest.mark.parametrize("bad", [True, False, 1.5, None, [1], (1,)])
def test_label_key_accepts_only_int_and_str(bad):
    with pytest.raises(ArgumentOutOfRange):
        label_key(bad)
    with pytest.raises(ArgumentOutOfRange):
        fe.SimplicialComplex([[bad, 2], [2, 3]])


STACKED7_3 = fe.stacked_sphere(7, 3)


@pytest.mark.parametrize("call", [
    lambda: STACKED7_3.has_face(5),
    lambda: STACKED7_3.link(5),
    lambda: STACKED7_3.closed_star(None),
    lambda: STACKED7_3.facets_containing(7),
    lambda: fe.face(2.5),
    lambda: fe.BistellarMove(5, (1,)),
    lambda: fe.BistellarMove((1,), None),
    lambda: fe.SimplicialComplex([5]),
    lambda: fe.SimplicialComplex([[1, 2], 3]),
    lambda: fe.SimplicialComplex(5),
    lambda: fe.SimplicialComplex(None),
    lambda: fe.validate_simple_tree(STACKED7_3, 5),
    lambda: fe.validate_simple_tree(STACKED7_3, [STACKED7_3.facets[0], 5]),
    lambda: fe.central_retriangulation(STACKED7_3, None, "w1"),
    lambda: fe.central_retriangulation(STACKED7_3, [None], "w1"),
], ids=[
    "has_face", "link", "closed_star", "facets_containing", "face", "move-F", "move-G", "complex-facet",
    "complex-second-facet", "complex-int", "complex-none", "tree-int", "tree-facet", "retriangulation-none",
    "retriangulation-facet",
])
def test_a_face_or_facet_list_that_is_not_iterable_is_out_of_range(call):
    with pytest.raises(ArgumentOutOfRange):
        call()


MOVE = fe.BistellarMove(STACKED7_3.facets[0], (100,))
TREE = fe.validate_simple_tree(STACKED7_3, [STACKED7_3.facets[0]])


@pytest.mark.parametrize("call", [
    lambda: check_move("x", MOVE),
    lambda: check_move(STACKED7_3, (STACKED7_3.facets[0], (100,))),
    lambda: fe.apply_bistellar("x", MOVE),
    lambda: fe.apply_bistellar(STACKED7_3, None),
    lambda: fe.central_retriangulation("x", TREE, "w1"),
    lambda: fe.is_M_vector(None),
    lambda: fe.is_M_vector([1, "3"]),
    lambda: fio.replay_move_log("x", []),
    lambda: fio.replay_move_log(STACKED7_3, None),
], ids=[
    "check-complex", "check-move", "apply-complex", "apply-move", "retriangulation-complex", "m-vector-none",
    "m-vector-str", "replay-complex", "replay-steps",
])
def test_moves_vectors_and_replays_reject_what_is_out_of_range(call):
    with pytest.raises(ArgumentOutOfRange):
        call()


def test_the_guarded_calls_still_answer():
    assert check_move(STACKED7_3, MOVE) == [STACKED7_3.facets[0]]
    assert fio.replay_move_log(STACKED7_3, []) is STACKED7_3
    assert fe.is_M_vector((1, 3, 6)) and not fe.is_M_vector([1, 2, 4])


def test_mixed_int_and_str_labels_still_order():
    assert sorted(["b", 3, "a", 1], key=label_key) == [1, 3, "a", "b"]
    assert fe.face(["b", 3, "a", 1]) == (1, 3, "a", "b")


@pytest.mark.parametrize("payload", [
    {"facets": [[True, 2], [2, 3]]},
    {"facets": [[1.5, 2], [2, 3]]},
    {"facets": [[None, 2], [2, 3]]},
    {"facets": [[[1], 2], [2, 3]]},
])
def test_bad_labels_in_json_exit_2(payload, tmp_path):
    with pytest.raises(FaceEnumError):
        fio.parse_complex_json(payload)
    p = tmp_path / "k.json"
    p.write_text(json.dumps(payload))
    assert main(["analyze", str(p)]) == 2


@pytest.mark.parametrize("payload", [
    {"vertices": [1, 2, 3, 99], "facets": [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]},
    {"vertices": [1, 2], "facets": [[1, 2, 3]]},
    {"vertices": ["1", "2", "3"], "facets": [[1, 2, 3]]},
    {"vertices": [1, 2, [3]], "facets": [[1, 2, 3]]},
    {"facets": [[1, 2], 3]},
    {"facets": [[1, 2], "23"]},
])
def test_malformed_complex_json_raises_parse_error(payload, tmp_path):
    with pytest.raises(ParseError):
        fio.parse_complex_json(payload)
    p = tmp_path / "k.json"
    p.write_text(json.dumps(payload))
    assert main(["analyze", str(p)]) == 2


def test_declared_vertices_may_exceed_the_facets():
    K = fio.parse_complex_json({"vertices": [1, 2, 3, 99], "facets": [[1, 2, 3]]})
    assert K.vertices == (1, 2, 3)


@pytest.mark.parametrize("name,K", [("torus", torus7()), ("torus-handle", _handle(12, 3)), ("circle", CIRCLE)])
def test_audit_of_surfaces_and_circle_has_no_proven_violation(name, K):
    rep = fe.audit(K, name=name)
    assert not rep.violations()
    for check in ("closed_edge_bound", "h_prime_top", "kalai_edge_conjecture"):
        assert rep.by_name(check).status == INAPPLICABLE
        assert "d >= 4" in rep.by_name(check).notes


@pytest.mark.parametrize("n,d", [(14, 4), (16, 5)])
def test_audit_guards_keep_handle_additions_in_range(n, d):
    rep = fe.audit(_handle(n, d))
    assert not rep.violations()
    for check in ("closed_edge_bound", "h_prime_top"):
        assert rep.by_name(check).status in ("holds", "tight")


def test_cli_audit_exits_0_on_the_torus(tmp_path, capsys):
    p = tmp_path / "torus.json"
    fio.save_complex(torus7(), p)
    assert main(["audit", str(p)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("payload,error", [
    ({"elements": [[1], [2]], "covers": [[[1], [2]]]}, InvalidPoset),  # unhashable elements
    ({"elements": ["a", "b"], "covers": [["a"]]}, InvalidPoset),  # a cover that is not a pair
    (5, ParseError),
    ({"elements": ["a", "b"], "covers": 7}, ParseError),
    ({"elements": "ab", "covers": [["a", "b"]]}, ParseError),  # not one element per character
])
def test_malformed_poset_json_exit_2(payload, error, tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(error):
        fio.load_poset(p)
    assert main(["poset", str(p), "--which", "toric"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("elements,covers", [
    (["a", "b"], [("a", ["b"])]),  # an unhashable cover member is no element
    (["a", "b"], [("a", "b", "c")]),
    (["a", "b"], ["ab"]),
])
def test_graded_poset_rejects_malformed_covers(elements, covers):
    with pytest.raises(InvalidPoset):
        fe.GradedPoset(elements, covers)


@pytest.mark.parametrize("elements,covers", [(["a"], 7), (5, [])])
def test_graded_poset_rejects_non_iterable_elements_or_covers(elements, covers):
    with pytest.raises(InvalidPoset):
        fe.GradedPoset(elements, covers)


def test_cd_index_of_a_rank_zero_poset_is_out_of_range():
    with pytest.raises(ArgumentOutOfRange):
        cd_words(-1)
    fh = fe.flag_vectors(fe.boolean_lattice(0))[1]
    with pytest.raises(ArgumentOutOfRange):
        fe.cd_index(fe.ab_from_flag_h(fh))
    assert cd_words(0) == [""] and cd_words(1) == ["c"]


@pytest.mark.parametrize("ab", [
    fe.ABPolynomial(2, {"a": 1}),  # a word of another degree
    fe.ABPolynomial(2, {"ab": 1, "abb": 1}),
    fe.ABPolynomial(2, {"ac": 1}),  # a letter other than a and b
    fe.ABPolynomial(2, {"AB": 1}),
    fe.ABPolynomial(1, {5: 1}),  # a key that is no string
    fe.ABPolynomial(0, {"a": 1}),
    fe.ABPolynomial(-1, {}),  # a negative degree
    fe.ABPolynomial(-2, {"": 1}),
    fe.ABPolynomial(1.0, {"a": 1, "b": 1}),  # a degree that is no int
    fe.ABPolynomial("2", {}),
    fe.ABPolynomial(None, {}),
    fe.ABPolynomial(True, {"a": 1, "b": 1}),
    fe.ABPolynomial(1, {"a": 0.5, "b": 0.5}),  # a coefficient that is no int
    fe.ABPolynomial(1, {"a": Fraction(1, 2), "b": Fraction(1, 2)}),
    fe.ABPolynomial(1, {"a": "1", "b": "1"}),
    fe.ABPolynomial(1, {"a": None}),
    fe.ABPolynomial(1, {"a": True, "b": True}),
    fe.ABPolynomial(2, [("ab", 1)]),  # coefficients that are no dict
    fe.CDIndex(2, {"d": 1}),  # arguments that are no ABPolynomial
    {"ab": 1, "ba": 1},
    None,
    "ab",
])
def test_cd_index_rejects_what_is_no_ab_polynomial(ab):
    with pytest.raises(ArgumentOutOfRange):
        fe.cd_index(ab)


def test_cd_index_reads_missing_words_as_zero():
    assert fe.cd_index(fe.ABPolynomial(2, {"ab": 1, "ba": 1})).coeffs == {"cc": 0, "d": 1}
    assert fe.cd_index(fe.ABPolynomial(3, {})).nonzero() == {}
    assert fe.cd_index(fe.ABPolynomial(0, {"": -4})).coeffs == {"": -4}


NOT_A_POSET = {
    "none": None, "str": "B3", "int": 3, "function": fe.boolean_lattice, "complex": CIRCLE,
    "ab": fe.ABPolynomial(1, {"a": 1, "b": 1}),
}


@pytest.mark.parametrize("call", [
    fe.flag_vectors, fe.toric_h, fe.toric_g, fe.bayer_billera_defects, fe.classify_poset,
    fe.semi_eulerian_correction, fe.toric_ds_defect, fe.order_complex,
], ids=lambda f: f.__name__)
@pytest.mark.parametrize("arg", list(NOT_A_POSET))
def test_poset_invariants_reject_what_is_no_graded_poset(call, arg):
    with pytest.raises(ArgumentOutOfRange):
        call(NOT_A_POSET[arg])


@pytest.mark.parametrize("arg", [
    None, [[1, 2], [2, 3], [1, 3]], "B3", fe.boolean_lattice(2),
], ids=["none", "facet-list", "str", "poset"])
def test_face_poset_rejects_what_is_no_complex(arg):
    with pytest.raises(ArgumentOutOfRange):
        fe.face_poset(arg)


def test_face_poset_rejects_the_bipyramid_payload(bipyramid):
    with pytest.raises(ArgumentOutOfRange):  # a (complex, coloring) pair
        fe.face_poset(bipyramid)
    assert fe.classify_poset(fe.face_poset(bipyramid[0])) == "Eulerian"


@pytest.mark.parametrize("d", ["3", 2.0, -1, True, False, None])
def test_boolean_lattice_takes_only_an_int_d_at_least_0(d):
    with pytest.raises(ArgumentOutOfRange):
        fe.boolean_lattice(d)


def test_boolean_lattice_of_rank_0_is_one_element():
    P = fe.boolean_lattice(0)
    assert P.elements == (frozenset(),) and P.total_rank == 0


@pytest.mark.parametrize("arg", [
    *NOT_A_POSET.values(), {frozenset(): 1}, fe.CDIndex(0, {"": 1}), fe.boolean_lattice(2),
])
def test_ab_from_flag_h_rejects_what_is_no_flag_vector(arg):
    with pytest.raises(ArgumentOutOfRange):
        fe.ab_from_flag_h(arg)


def test_cli_cd_of_a_rank_zero_poset_exits_2(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"elements": ["a"], "covers": []}))
    assert main(["poset", str(p), "--which", "cd"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("x,y", [
    (frozenset(), "zz"),  # y is no element
    ("zz", frozenset()),  # x is no element
    ([1], frozenset({1})),  # an unhashable argument is no element
    (frozenset(), [1]),
])
def test_leq_and_mobius_reject_non_elements(x, y):
    P = fe.boolean_lattice(3)
    with pytest.raises(ArgumentOutOfRange):
        P.leq(x, y)
    with pytest.raises(ArgumentOutOfRange):
        fe.mobius(P, x, y)
    assert fe.mobius(P, frozenset(), frozenset({1, 2, 3})) == -1


@pytest.mark.parametrize("p", ["3", [2], 3.5, 2.0, True, False, 4, 1, 0, -3])
def test_field_spec_takes_only_none_or_a_prime_int(p):
    with pytest.raises(ArgumentOutOfRange):
        fe.FieldSpec(p)


@pytest.mark.parametrize("field", ["Q", None, 2, "gf2"])
@pytest.mark.parametrize("call", [
    fe.betti, fe.manifold_report, fe.is_homology_sphere, fe.is_homology_ball, fe.audit,
], ids=lambda f: f.__name__)
def test_recognition_rejects_a_field_that_is_no_field_spec(call, field):
    with pytest.raises(ArgumentOutOfRange):
        call(torus7(), field)


# every public function that takes a complex first, with its other arguments
COMPLEX_FUNCTIONS = [
    fe.audit, fe.betti, fe.manifold_report, fe.is_homology_sphere, fe.is_homology_ball, fe.is_semi_eulerian,
    fe.is_eulerian, fe.euler_characteristic, fe.f_vector, fe.h_vector, fe.ds_defect, fe.is_stacked_sphere,
    fe.in_walkup_class, fe.two_neighborly_refit,
]

NOT_A_COMPLEX = st.one_of(
    st.lists(st.lists(st.integers(1, 5), max_size=4), max_size=4),
    st.lists(st.integers(1, 5), max_size=4).map(tuple),
    st.none(),
    st.integers(),
    st.sampled_from([fe.boolean_lattice(2), fe.face_poset(CIRCLE), "K"]),
)

# a random small complex: up to 4 faces on the vertices 1..6, of sizes 1 to 5
SMALL_COMPLEXES = st.lists(
    st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True), min_size=1, max_size=4,
).map(fe.SimplicialComplex)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(COMPLEX_FUNCTIONS), st.one_of(NOT_A_COMPLEX, SMALL_COMPLEXES))
def test_complex_functions_return_or_raise_a_library_error(call, K):
    try:
        call(K)
    except FaceEnumError:
        pass


@pytest.mark.parametrize("call", COMPLEX_FUNCTIONS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("arg", [None, [[1, 2, 3]], ((1, 2), (2, 3)), 5, fe.boolean_lattice(2)],
                         ids=["none", "facet-list", "facet-tuple", "int", "poset"])
def test_complex_functions_reject_what_is_no_complex(call, arg):
    with pytest.raises(ArgumentOutOfRange):
        call(arg)
