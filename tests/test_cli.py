from __future__ import annotations

import json

import pytest

import faceenum as fe
from faceenum import cli
from faceenum import io as fio
from faceenum.cli import build_parser, main
from faceenum.errors import ParseError


def write_complex(tmp_path, K, name="k.json"):
    p = tmp_path / name
    fio.save_complex(K, p)
    return str(p)


def test_analyze_json(tmp_path, capsys):
    p = write_complex(tmp_path, fe.catalog("cp2_9").payload)
    assert main(["analyze", p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == [1, 4, 10, 20, -1, 2]
    assert out["euler"] == 3
    assert out["betti_reduced"] == [0, 0, 1, 0, 1]
    assert out["manifold"]["closed"] is True


def test_analyze_text_format_and_coloring(tmp_path, capsys):
    K, col = fe.catalog("bipyramid").payload
    p = tmp_path / "bipyr.txt"
    p.write_text("\n".join(" ".join(str(v) for v in f) for f in K.facets))
    cpath = tmp_path / "col.json"
    cpath.write_text(json.dumps({"type_vector": [1, 2], "phi": {str(v): c for v, c in col.phi.items()}}))
    assert main(["analyze", str(p), "--coloring", str(cpath)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["h"] == [1, 4, 4, 1]
    assert out["fine_h"]["(0, 1)"] == 3
    assert all(v == 0 for v in out["fine_ds_defect"].values())


def test_analyze_malformed(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    assert main(["analyze", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_exit_codes(tmp_path, capsys):
    p = write_complex(tmp_path, fe.kuhnel_lassmann(11, 2))
    assert main(["audit", p, "--assert-beta1-positive"]) == 0
    out = json.loads(capsys.readouterr().out)
    cb = next(c for c in out["checks"] if c["name"] == "covering_bound")
    assert cb["status"] == "tight"
    # a non-manifold input: checks mostly inapplicable, still exit 0
    p2 = write_complex(tmp_path, fe.simplex(5), "s.json")
    assert main(["audit", p2]) == 0


def test_analyze_disconnected_reports_what_is_defined(tmp_path, capsys):
    two_circles = fe.SimplicialComplex([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    p = write_complex(tmp_path, two_circles)
    assert main(["analyze", p]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["manifold"] is None
    assert out["betti_reduced"] == [1, 2]
    assert out["f"] == [6, 6] and out["euler"] == 0


def test_analyze_gf2_field(tmp_path, capsys):
    K = fe.from_facets(
        [[1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
         [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6]]
    )
    p = write_complex(tmp_path, K, "rp2.json")
    assert main(["analyze", p, "--field", "gf2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["field"] == "GF(2)"
    assert out["betti_reduced"] == [0, 1, 1]


def test_generate_stacked(tmp_path, capsys):
    out = tmp_path / "st.json"
    assert main(["generate", "stacked", "--n", "9", "--d", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    K = fio.load_complex(out)
    assert fe.h_vector(K).entries == (1, 5, 5, 5, 1)


def test_generate_kl_and_move(tmp_path, capsys):
    out = tmp_path / "kl12.json"
    assert main(["generate", "kl", "--n", "12", "--m", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    K = fio.load_complex(out)
    assert len(K.all_faces(1)) == 60
    moved = tmp_path / "moved.json"
    assert main(["move", "--input", str(out), "--f", "2,3,5,6", "--g", "1,7", "--out", str(moved)]) == 0
    capsys.readouterr()
    K2 = fio.load_complex(moved)
    assert (1, 7) in K2.edges


def test_generate_fill_and_replay(tmp_path, capsys):
    out = tmp_path / "fill.json"
    assert main(["generate", "fill", "--n", "12", "--edges", "66", "--out", str(out)]) == 0
    capsys.readouterr()
    start = tmp_path / "start.json"
    assert main(["generate", "kl", "--n", "12", "--m", "2", "--out", str(start)]) == 0
    capsys.readouterr()
    replayed = tmp_path / "re.json"
    assert main(["replay", "--input", str(start), "--log", str(out) + ".moves.json", "--out", str(replayed)]) == 0
    capsys.readouterr()
    assert json.load(open(out)) == json.load(open(replayed))


def test_generate_refit_and_replay(tmp_path, capsys):
    start = write_complex(tmp_path, fe.kuhnel_lassmann(13, 2), "K.json")
    out = tmp_path / "R.json"
    assert main(["generate", "refit", "--input", start, "--out", str(out)]) == 0
    replayed = tmp_path / "R2.json"
    assert main(["replay", "--input", start, "--log", str(out) + ".moves.json", "--out", str(replayed)]) == 0
    capsys.readouterr()
    R = fio.load_complex(out)
    assert len(R.vertices) == 13
    assert fio.load_complex(replayed).facets == R.facets


def test_generate_realize(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["generate", "realize", "--space", "cp2", "--g1", "5", "--g2", "12", "--out", str(out)]) == 0
    capsys.readouterr()
    K = fio.load_complex(out)
    hv = fe.h_vector(K)
    assert (hv[1], hv[2]) == (6, 18)


def test_generate_catalog_and_poset_cmds(tmp_path, capsys):
    tp = tmp_path / "torus.json"
    assert main(["generate", "catalog", "torus_poset", "--out", str(tp)]) == 0
    capsys.readouterr()
    assert main(["poset", str(tp), "--which", "toric"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["toric_h_indexed"] == [1, 1, 7, -1]
    assert main(["poset", str(tp), "--which", "classify"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "SemiEulerian"
    assert main(["poset", str(tp), "--which", "cd"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cd_index"] is None and out["residual"]


def test_poset_cd_of_bipyramid(tmp_path, capsys):
    K, _ = fe.catalog("bipyramid").payload
    P = fe.face_poset(K, augment=True)
    tp = tmp_path / "bip.json"
    tp.write_text(json.dumps(fio.poset_to_jsonable(P)))
    assert main(["poset", str(tp), "--which", "cd"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cd_index"] == {"ccc": 1, "cd": 8, "dc": 5}


def test_replay_divergence_detected(tmp_path):
    K = fe.kuhnel_lassmann(12, 2)
    start = write_complex(tmp_path, K, "s.json")
    log = [{"op": "bistellar", "parameters": {"f": [2, 3, 5, 6], "g": [1, 7]}, "resulting": [99, 99]}]
    lp = tmp_path / "log.json"
    lp.write_text(json.dumps(log))
    with pytest.raises(ParseError):
        fio.replay_move_log(fio.load_complex(start), fio.load_move_log(lp))


def test_io_string_labels(tmp_path):
    K = fe.from_facets([["a", "b", 1], ["b", 1, 2], ["a", 1, 2], ["a", "b", 2]])
    p = tmp_path / "mixed.json"
    fio.save_complex(K, p)
    K2 = fio.load_complex(p)
    assert K2 == K
    assert fe.betti(K2).is_sphere(2)


def test_io_roundtrip(tmp_path):
    K = fe.stacked_sphere(9, 4)
    p = tmp_path / "k.json"
    fio.save_complex(K, p)
    assert fio.load_complex(p) == K
    # text form
    t = tmp_path / "k.txt"
    t.write_text("\n".join(" ".join(map(str, f)) for f in K.facets))
    assert fio.load_complex(t) == K


def test_field_and_seed_flags_only_where_read(tmp_path, capsys):
    p = write_complex(tmp_path, fe.stacked_sphere(7, 4))
    with pytest.raises(SystemExit):
        main(["generate", "stacked", "--n", "7", "--d", "4", "--field", "gf2"])
    with pytest.raises(SystemExit):
        main(["generate", "stacked", "--n", "7", "--d", "4", "--seed", "1"])
    with pytest.raises(SystemExit):
        main(["generate", "refit", "--input", p, "--trace"])
    capsys.readouterr()
    args = build_parser().parse_args(["generate", "refit", "--input", p])
    assert args.seed is None
    assert main(["audit", p, "--field", "gf2"]) == 0


def test_parser_is_built_once_and_handlers_are_found_by_name(tmp_path, monkeypatch):
    """A handler replaced after the parser was built still gets the call."""
    assert build_parser() is build_parser()
    p = write_complex(tmp_path, fe.stacked_sphere(7, 4))
    seen = []
    monkeypatch.setattr(cli, "cmd_analyze", lambda args: seen.append(args.path) or 0)
    assert main(["analyze", p]) == 0
    assert seen == [p]
