"""Command-line surface.

Subcommands: analyze, audit, generate, move, poset, replay.  Every command is
a thin adapter around the library; JSON output serializes library results in
a fixed schema and the table format is a projection of the same data.

The audit exit code is nonzero exactly when a proven check is violated;
conjecture advisories never fail the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import io as fio
from .audit import Assertions, audit
from .catalog import CATALOG_NAMES, catalog, realize_space
from .complexes import Coloring, SimplicialComplex
from .constructions import (
    BistellarMove,
    MoveLog,
    apply_bistellar,
    kuhnel_lassmann,
    s1xs3_fill,
    stacked_sphere,
)
from .errors import FaceEnumError
from .homology import GF2, RATIONALS, betti, euler_characteristic, is_semi_eulerian, manifold_report, sphere_euler
from .posets import (
    ab_from_flag_h,
    bayer_billera_defects,
    cd_index,
    classify_poset,
    flag_vectors,
    toric_h,
)
from .errors import NotInCDSpan
from .refit import two_neighborly_refit
from .vectors import ds_defect, f_vector, fine_ds_defect, fine_f, fine_h, g_from_h, h_vector


def _field(args):
    return GF2 if args.field == "gf2" else RATIONALS


def _emit(payload: dict, args):
    if args.format == "json":
        print(json.dumps(payload, indent=1, default=str))
    else:
        _print_table(payload)


def _print_table(payload: dict, prefix: str = ""):
    for key, val in payload.items():
        if isinstance(val, dict):
            print(f"{prefix}{key}:")
            _print_table(val, prefix + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            for row in val:
                cells = "  ".join(f"{k}={row[k]}" for k in row)
                print(f"{prefix}{cells}")
        else:
            print(f"{prefix}{key:24} {val}")


def _analyze_payload(K: SimplicialComplex, args) -> dict:
    field = _field(args)
    hv = h_vector(K)
    chi = euler_characteristic(K)
    # manifold recognition needs a connected complex; run first, it caches the
    # link census that the semi-Eulerian test then reads
    rep = manifold_report(K, field) if K.is_connected() else None
    semi = is_semi_eulerian(K)
    payload = {
        "vertices": len(K.vertices),
        "dim": K.dim,
        "f": list(f_vector(K).entries[1:]),
        "h": list(hv.entries),
        "g": list(g_from_h(hv).entries),
        "euler": chi,
        "two_neighborly": K.is_i_neighborly(2),
        "field": str(field),
        "betti_reduced": list(betti(K, field).positive_range()),
        "semi_eulerian": semi,
        "eulerian": semi and chi == sphere_euler(K.dim),
        "ds_defect": list(ds_defect(K)),
        "manifold": None,
    }
    if rep is not None:
        payload["manifold"] = {
            "is_homology_manifold": rep.is_homology_manifold,
            "boundary_facets": [list(f) for f in rep.boundary.facets] if rep.boundary else [],
            "orientable": rep.orientable,
            "closed": rep.closed,
            "witness": list(rep.witness) if rep.witness else None,
        }
    if args.coloring:
        spec = json.loads(Path(args.coloring).read_text())
        phi = {fio._label(k): v for k, v in spec["phi"].items()}
        coloring = Coloring(tuple(spec["type_vector"]), phi)
        ff = fine_f(K, coloring)
        fh = fine_h(ff)
        payload["fine_f"] = {str(k): v for k, v in sorted(ff.entries.items())}
        payload["fine_h"] = {str(k): v for k, v in sorted(fh.entries.items())}
        payload["fine_ds_defect"] = {
            str(k): v for k, v in sorted(fine_ds_defect(fh, chi).items())
        }
    return payload


def cmd_analyze(args) -> int:
    K = fio.load_complex(args.path)
    _emit(_analyze_payload(K, args), args)
    return 0


def cmd_audit(args) -> int:
    K = fio.load_complex(args.path)
    assertions = Assertions(
        beta1_positive=args.assert_beta1_positive,
        subgroup_index=args.assert_subgroup_index,
    )
    report = audit(K, _field(args), assertions, name=str(args.path))
    _emit(report.to_jsonable(), args)
    return 1 if report.violations() else 0


def cmd_generate(args) -> int:
    out = Path(args.out) if args.out else None
    log = MoveLog()
    if args.kind == "stacked":
        K = stacked_sphere(args.n, args.d)
    elif args.kind == "kl":
        K = kuhnel_lassmann(args.n, args.m)
    elif args.kind == "catalog":
        entry = catalog(args.name)
        if entry.kind in ("complex", "balanced"):
            K = entry.complex()
        elif entry.kind == "poset":
            payload = fio.poset_to_jsonable(entry.payload)
            if out:
                out.write_text(json.dumps(payload, indent=1) + "\n")
                print(f"wrote {out}")
            else:
                _emit(payload, args)
            return 0
        else:
            payload = {"entry": entry.name, "note": entry.note,
                       "golden": {k: str(v) for k, v in entry.golden.items()}}
            if entry.kind == "tree":
                payload["facets"] = [list(f) for f in entry.payload.facets]
            if entry.kind == "moves":
                payload["moves"] = [{"f": list(m.F), "g": list(m.G)} for m in entry.payload]
            _emit(payload, args)
            return 0
    elif args.kind == "realize":
        K = realize_space(args.space, args.g1, args.g2, log=log)
    elif args.kind == "fill":
        K, log = s1xs3_fill(args.n, args.edges, log=log)
    elif args.kind == "refit":
        K = two_neighborly_refit(fio.load_complex(args.input), log=log, seed=args.seed).complex
    else:
        raise FaceEnumError(f"unknown generator {args.kind!r}")
    if out:
        fio.save_complex(K, out)
        fio.save_move_log(log, str(out) + ".moves.json")
        print(f"wrote {out} and {out}.moves.json")
    else:
        _emit(fio.complex_to_jsonable(K), args)
    return 0


def cmd_move(args) -> int:
    K = fio.load_complex(args.input)
    move = BistellarMove(
        tuple(fio._label(t) for t in args.f.split(",")),
        tuple(fio._label(t) for t in args.g.split(",")),
    )
    K2 = apply_bistellar(K, move)
    if args.out:
        fio.save_complex(K2, args.out)
        print(f"wrote {args.out}")
    else:
        _emit(fio.complex_to_jsonable(K2), args)
    return 0


def cmd_poset(args) -> int:
    P = fio.load_poset(args.path)
    which = args.which
    if which == "classify":
        _emit({"classification": classify_poset(P)}, args)
        return 0
    if which == "toric":
        t = toric_h(P)
        _emit({"toric_h_indexed": list(t.indexed), "polynomial": str(t)}, args)
        return 0
    if which == "flag":
        ff, fh = flag_vectors(P)
        payload = {
            "flag_f": {str(sorted(S)): v for S, v in sorted(ff.entries.items(), key=lambda kv: sorted(kv[0]))},
            "flag_h": {str(sorted(S)): v for S, v in sorted(fh.entries.items(), key=lambda kv: sorted(kv[0]))},
            "bayer_billera_nonzero": [
                r for r in bayer_billera_defects(P) if r["defect"] != 0
            ],
        }
        _emit(payload, args)
        return 0
    if which == "cd":
        _, fh = flag_vectors(P)
        ab = ab_from_flag_h(fh)
        try:
            cd = cd_index(ab)
            _emit({"cd_index": cd.nonzero()}, args)
        except NotInCDSpan as e:
            _emit(
                {
                    "cd_index": None,
                    "residual": e.residual.nonzero(),
                    "note": "not in the cd span (poset is not Eulerian)",
                },
                args,
            )
        return 0
    raise FaceEnumError(f"unknown poset report {which!r}")


def cmd_replay(args) -> int:
    K = fio.load_complex(args.input)
    steps = fio.load_move_log(args.log)
    K2 = fio.replay_move_log(K, steps)
    if args.out:
        fio.save_complex(K2, args.out)
        print(f"wrote {args.out}")
    else:
        _emit(fio.complex_to_jsonable(K2), args)
    return 0


def _add_common(p, field: bool = False):
    p.add_argument("--format", choices=["json", "table"], default="json")
    if field:
        p.add_argument("--field", choices=["q", "gf2"], default="q")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It names each command's
    handler only by the command, so ``main`` looks the handler up when it
    dispatches and sees a handler replaced after the parser was built."""
    ap = argparse.ArgumentParser(prog="faceenum", description="face enumeration toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="f/h/g, Euler, Betti, manifold and Eulerian verdicts")
    p.add_argument("path")
    p.add_argument("--coloring", help="JSON file with type_vector and phi for fine vectors")
    _add_common(p, field=True)

    p = sub.add_parser("audit", help="inequality battery; exit 1 on proven violation")
    p.add_argument("path")
    p.add_argument("--assert-beta1-positive", action="store_true")
    p.add_argument("--assert-subgroup-index", type=int, default=None)
    _add_common(p, field=True)

    p = sub.add_parser("generate", help="construct complexes and move logs")
    gsub = p.add_subparsers(dest="kind", required=True)
    g = gsub.add_parser("stacked")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g = gsub.add_parser("kl")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g = gsub.add_parser("catalog")
    g.add_argument("name", choices=list(CATALOG_NAMES))
    g = gsub.add_parser("realize")
    g.add_argument("--space", required=True, choices=["s1xs3", "cp2", "k3", "s2xs2_sum2"])
    g.add_argument("--g1", type=int, required=True)
    g.add_argument("--g2", type=int, required=True)
    g = gsub.add_parser("fill")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--edges", type=int, required=True)
    g = gsub.add_parser("refit")
    g.add_argument("--input", required=True)
    g.add_argument("--seed", type=int, default=None, help="shuffle the spanning-tree search deterministically")
    for g in gsub.choices.values():
        g.add_argument("--out")
        _add_common(g)

    p = sub.add_parser("move", help="apply one bistellar move")
    p.add_argument("--input", required=True)
    p.add_argument("--f", required=True, help="comma-separated vertices of F")
    p.add_argument("--g", required=True, help="comma-separated vertices of G")
    p.add_argument("--out")
    _add_common(p)

    p = sub.add_parser("poset", help="toric / cd / flag / classify reports")
    p.add_argument("path")
    p.add_argument("--which", choices=["toric", "cd", "flag", "classify"], required=True)
    _add_common(p)

    p = sub.add_parser("replay", help="re-run a move log against a complex")
    p.add_argument("--input", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out")
    _add_common(p)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except FaceEnumError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
