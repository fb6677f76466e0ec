"""The four workloads: seeded inputs, the timed job bodies and their checks.

``SETUP[name](seed, workdir)`` generates one workload's inputs from the seed
alone, writes the files its jobs read, and returns the fixed job list.  A job
builds its complex from a plain facet list, or loads it from its file, inside
the timed region, so no cached value of an earlier job reaches a later one.
Checks run after the timer stops and compare against ``oracle`` values or
closed-form goldens, never against answers computed by faceenum.

Sizes are drawn near fixed centres rather than across whole ranges, and
fields and label kinds alternate: runs made with different seeds are compared
with each other, so the work a seed selects must stay about the same.
"""

from __future__ import annotations

import contextlib
import importlib
import io as _io
import json
from dataclasses import dataclass, field
from itertools import combinations, cycle, islice, permutations, product
from math import comb
from pathlib import Path
from random import Random
from typing import Callable

import faceenum as fe
from faceenum import cli as fcli
from faceenum import io as fio
from faceenum.errors import NotInCDSpan

import oracle
from oracle import expect

fcat = importlib.import_module("faceenum.catalog")  # the package attribute is the function


@dataclass
class Job:
    id: str
    run: Callable[[], object]  # the timed body
    check: Callable[[object], None]  # raises oracle.CheckFailed
    cap_s: float
    out_vertices: Callable[[object], int]
    layer_counts: Callable[[object], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# input generators (independent of faceenum)


def kl_facets(n: int, m: int) -> list:
    """Kuhnel-Lassmann cyclic S^1 x S^{2m-1} on vertices 1..n."""
    gens = set(permutations((1,) * (2 * m - 1) + (2,)))
    out = set()
    for x in range(1, n + 1):
        for g in gens:
            fac, cur = [x], x
            for step in g:
                cur += step
                fac.append((cur - 1) % n + 1)
            out.add(tuple(sorted(fac)))
    return sorted(out)


def stacked_facets(n: int, d: int, rng: Random) -> list:
    """A stacked (d-1)-sphere on vertices 1..n, subdividing random facets."""
    facets = [tuple(x for x in range(1, d + 2) if x != i) for i in range(1, d + 2)]
    for v in range(d + 2, n + 1):
        target = facets.pop(rng.randrange(len(facets)))
        facets += [tuple(x for x in target if x != u) + (v,) for u in target]
    return facets


def cross_polytope_facets(d: int) -> list:
    return [tuple(i if s else -i for i, s in zip(range(1, d + 1), signs)) for signs in product((0, 1), repeat=d)]


def relabel(facets, rng: Random, kind: str) -> list:
    """'int': a random permutation onto 1..n; 'str': onto 'v1'..'vn';
    'order': increasing seeded three-digit ints, so that the label order is
    unchanged both by value and by repr (the library sorts some labels by repr)."""
    verts = sorted(oracle.vertices(facets))
    if kind == "order":
        new, cur = [], rng.randrange(100, 500)
        for _ in verts:
            new.append(cur)
            cur += rng.randrange(1, 4)
    else:
        new = list(range(1, len(verts) + 1))
        rng.shuffle(new)
        if kind == "str":
            new = [f"v{x}" for x in new]
    m = dict(zip(verts, new))
    return [tuple(m[v] for v in f) for f in facets]


def alternate(rng: Random, choices: tuple):
    """Cycle through the choices from a seeded start, so that each is used
    equally often whatever the seed."""
    it = islice(cycle(choices), rng.randrange(len(choices)), None)
    return lambda: next(it)


def write_complex(path: Path, facets) -> str:
    path.write_text(json.dumps({"facets": [list(f) for f in facets]}))
    return str(path)


def fs(facets) -> frozenset:
    return frozenset(frozenset(f) for f in facets)


def run_cli(argv) -> tuple:
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fcli.main(argv)
    return code, out.getvalue()


FIELDS = {"q": fe.RATIONALS, "gf2": fe.GF2}


# ---------------------------------------------------------------------------
# recognize


@dataclass
class Expect:
    """Known answers for a recognition input."""

    betti: tuple
    manifold: bool = True
    boundary: frozenset | None = None  # boundary facets, None when closed
    witness: frozenset | None = None
    sphere: bool = False
    golden: Callable[[dict], None] | None = None  # extra check on the analyze payload

    @property
    def closed(self) -> bool:
        return self.manifold and self.boundary is None


def sphere_betti(d: int) -> tuple:
    return (0,) * d + (1,)


def check_recognition(kind: str, exp: Expect, out):
    if kind == "audit":
        expect(not out.violations(), f"proven violations {[c.name for c in out.violations()]}")
    elif kind == "betti":
        expect(out.reduced_betti == exp.betti, f"betti {out.reduced_betti} != {exp.betti}")
    elif kind == "is_homology_sphere":
        expect(out is exp.sphere, f"is_homology_sphere {out} != {exp.sphere}")
    elif kind == "manifold_report":
        expect(out.is_homology_manifold == exp.manifold, "manifold verdict")
        if exp.manifold:
            got = None if out.boundary is None else fs(out.boundary.facets)
            expect(got == exp.boundary, "boundary facets")
            expect(out.closed == exp.closed, "closed verdict")
        else:
            expect(frozenset(out.witness) == exp.witness, f"witness {out.witness}")


def check_cli(cmd: str, exp: Expect, facets, out):
    code, text = out
    payload = json.loads(text)
    if cmd == "audit":
        expect(code == 0, f"audit exit code {code}")
        bad = [c["name"] for c in payload["checks"] if c["status"] == "violated" and c["proven"]]
        expect(not bad, f"proven violations {bad}")
        return
    expect(code == 0, f"analyze exit code {code}")
    expect(tuple(payload["f"]) == oracle.f_vector(facets)[1:], "f-vector")
    expect(tuple(payload["betti_reduced"]) == exp.betti[1:], "betti")
    expect(payload["manifold"]["is_homology_manifold"] == exp.manifold, "manifold verdict")
    expect(payload["manifold"]["closed"] == exp.closed, "closed verdict")
    if exp.golden:
        exp.golden(payload)


def kl2_golden(n: int):
    def golden(payload):
        expect(payload["f"][1] == 5 * n, "KL(n,2) has 5n edges")
        expect(payload["g"][2] == 15, "KL(n,2) has g2 = 15")
    return golden


LIB_CALLS = {
    "audit": lambda K, field: fe.audit(K, field),
    "manifold_report": lambda K, field: fe.manifold_report(K, field),
    "betti": lambda K, field: fe.betti(K, field),
    "is_homology_sphere": lambda K, field: fe.is_homology_sphere(K, field),
}
KINDS = tuple(LIB_CALLS)


def lib_job(jid: str, kind: str, facets, exp: Expect, field: str) -> Job:
    facets = [tuple(f) for f in facets]
    call, fld, nv = LIB_CALLS[kind], FIELDS[field], len(oracle.vertices(facets))
    return Job(
        id=f"{jid}:{kind}:{field}",
        run=lambda: call(fe.SimplicialComplex(facets), fld),
        check=lambda out: check_recognition(kind, exp, out),
        cap_s=30.0,
        out_vertices=lambda out: nv,
    )


def cli_job(jid: str, cmd: str, path: str, facets, exp: Expect, field: str) -> Job:
    nv = len(oracle.vertices(facets))
    return Job(
        id=f"{jid}:cli-{cmd}:{field}",
        run=lambda: run_cli([cmd, path, "--field", field]),
        check=lambda out: check_cli(cmd, exp, facets, out),
        cap_s=30.0,
        out_vertices=lambda out: nv,
    )


def wedge(rng: Random, d: int) -> tuple:
    """Two stacked spheres sharing one vertex, and that vertex."""
    a = stacked_facets(rng.randint(d + 3, d + 6), d, rng)
    b = stacked_facets(rng.randint(d + 3, d + 6), d, rng)
    shift = max(oracle.vertices(a))
    b = [tuple(v + shift - 1 for v in f) for f in b]  # vertex 1 of b becomes shift
    return a + b, shift


def setup_recognize(seed: int, work: Path) -> list:
    rng = Random(seed)
    field, label = alternate(rng, ("q", "gf2")), alternate(rng, ("int", "str"))
    off = rng.randrange(len(KINDS))
    jobs = []
    kl2 = Expect(betti=(0, 0, 1, 0, 1, 1))
    for n in range(11, 31):
        kind = KINDS[(n + off) % len(KINDS)]
        jobs.append(lib_job(f"kl{n}_2", kind, relabel(kl_facets(n, 2), rng, label()), kl2, field()))
    for n in (15, 17):
        jobs.append(lib_job(f"kl{n}_3", "audit", relabel(kl_facets(n, 3), rng, label()),
                            Expect(betti=(0, 0, 1, 0, 0, 0, 1, 1)), field()))
    for i in range(24):
        d = (3, 4, 5)[i % 3]
        n = d + 15 + rng.randint(-2, 2)
        jobs.append(lib_job(f"stacked{n}_{d}", KINDS[(i + off) % len(KINDS)],
                            relabel(stacked_facets(n, d, rng), rng, label()),
                            Expect(betti=sphere_betti(d), sphere=True), field()))
    catalog_inputs = [
        ("cp2_9", fcat.CP2_FACETS, Expect(betti=(0, 0, 0, 1, 0, 1)), ("audit", "betti")),
        ("s2xs2_sum", fcat.S2XS2_FACETS, Expect(betti=(0, 0, 0, 4, 0, 1)), ("audit", "manifold_report")),
        ("bipyramid", fcat.BIPYRAMID_FACETS, Expect(betti=sphere_betti(3), sphere=True),
         ("audit", "is_homology_sphere")),
    ]
    for name, facets, exp, kinds in catalog_inputs:
        for kind in kinds:
            jobs.append(lib_job(name, kind, relabel(facets, rng, label()), exp, field()))
    # manifolds with boundary: KL minus one facet, and closed vertex stars
    for i in range(4):
        n = rng.randint(12, 14)
        facets = relabel(kl_facets(n, 2), rng, label())
        gone = facets.pop(rng.randrange(len(facets)))
        exp = Expect(betti=(0, 0, 1, 0, 1, 0), boundary=fs(combinations(gone, 4)))
        jobs.append(lib_job(f"kl{n}_2-facet", ("audit", "manifold_report")[i % 2], facets, exp, field()))
    for i, kind in enumerate(("manifold_report", "is_homology_sphere", "betti", "manifold_report")):
        n = rng.randint(12, 14)
        facets = relabel(kl_facets(n, 2), rng, label())
        v = rng.choice(sorted(oracle.vertices(facets), key=str))
        star = [f for f in facets if v in f]
        link = fs(tuple(x for x in f if x != v) for f in star)
        jobs.append(lib_job(f"kl{n}_2-star", kind, star, Expect(betti=(0,) * 6, boundary=link), field()))
    # non-manifolds: two stacked spheres glued at a vertex
    for i in range(6):
        d = (4, 5)[i % 2]
        facets, shared = wedge(rng, d)
        exp = Expect(betti=(0,) * d + (2,), manifold=False, witness=frozenset({shared}))
        jobs.append(lib_job(f"wedge_{d}", ("manifold_report", "betti", "is_homology_sphere")[i % 3],
                            facets, exp, field()))
    # in-process CLI on small files; audit is skipped on the wedge, whose
    # expected audit verdict no theorem fixes
    pool = []
    for d in (3, 4, 5):
        n = d + 7 + rng.randint(-1, 1)
        pool.append((f"stacked{n}_{d}", stacked_facets(n, d, rng), Expect(betti=sphere_betti(d), sphere=True)))
    pool.append(("bipyramid", fcat.BIPYRAMID_FACETS, Expect(betti=sphere_betti(3), sphere=True)))
    pool.append(("cp2_9", fcat.CP2_FACETS, Expect(betti=(0, 0, 0, 1, 0, 1))))
    for n in (11, 12, 13):
        pool.append((f"kl{n}_2", kl_facets(n, 2), Expect(betti=(0, 0, 1, 0, 1, 1), golden=kl2_golden(n))))
    facets = kl_facets(12, 2)
    gone = facets.pop(rng.randrange(len(facets)))
    pool.append(("kl12_2-facet", facets, Expect(betti=(0, 0, 1, 0, 1, 0), boundary=fs(combinations(gone, 4)))))
    facets, shared = wedge(rng, 4)
    pool.append(("wedge_4", facets, Expect(betti=(0, 0, 0, 0, 2), manifold=False, witness=frozenset({shared}))))
    for name, facets, exp in pool:
        facets = relabel(facets, rng, label())
        path = write_complex(work / f"{name}.json", facets)
        for cmd in ("analyze", "audit", "analyze", "audit"):
            if cmd == "audit" and exp.witness is not None:
                cmd = "analyze"
            jobs.append(cli_job(name, cmd, path, facets, exp, field()))
    return jobs


# ---------------------------------------------------------------------------
# construct


def check_h_target(facets, h1: int, h2: int):
    expect(oracle.is_closed_pseudomanifold(facets), "not a closed pseudomanifold")
    h = oracle.h_from_f(oracle.f_vector(facets))
    expect((h[1], h[2]) == (h1, h2), f"(h1, h2) = {(h[1], h[2])}, wanted {(h1, h2)}")


def check_stacked(facets, n: int, d: int):
    expect(oracle.f_vector(facets) == oracle.stacked_f(n, d), "stacked f-vector")
    expect(oracle.is_closed_pseudomanifold(facets), "not a closed pseudomanifold")


def check_fill(out, n: int, e: int):
    K, log = out
    f = oracle.f_vector(K.facets)
    expect((f[1], f[2]) == (n, e), f"(f0, f1) = {(f[1], f[2])}, wanted {(n, e)}")
    check_h_target(K.facets, n - 5, e - 4 * n + 10)
    expect(len(log.steps) == e - 5 * n, "one logged move per added edge")


def count_vertices(out) -> int:
    K = out[0] if isinstance(out, tuple) else out
    return len(K.vertices)


def read_facets(path) -> list:
    return [tuple(f) for f in json.loads(Path(path).read_text())["facets"]]


def setup_construct(seed: int, work: Path) -> list:
    rng = Random(seed)
    jobs = []
    for k in range(6):
        d, n = (4, 5)[k % 2], 66 + 24 * k + rng.randint(-3, 3)
        jobs.append(Job(f"stacked{n}_{d}", lambda n=n, d=d: fe.stacked_sphere(n, d),
                        lambda K, n=n, d=d: check_stacked(K.facets, n, d), 30.0, count_vertices))
    for k in range(4):
        d, n = (4, 5)[k % 2], rng.randint(28, 32)
        out = work / f"gen_stacked{k}.json"

        def check(res, n=n, d=d, out=out):
            expect(res[0] == 0, f"exit code {res[0]}")
            check_stacked(read_facets(out), n, d)

        jobs.append(Job(f"cli-stacked{n}_{d}",
                        lambda n=n, d=d, out=out: run_cli(["generate", "stacked", "--n", str(n), "--d", str(d),
                                                           "--out", str(out)]),
                        check, 30.0, lambda res, n=n: n))
    for n in range(14, 31, 2):
        e = 5 * n + round((0.48 + 0.04 * rng.random()) * (comb(n, 2) - 5 * n))
        jobs.append(Job(f"fill{n}_{e}", lambda n=n, e=e: fe.s1xs3_fill(n, e, log=fe.MoveLog()),
                        lambda out, n=n, e=e: check_fill(out, n, e), 30.0, count_vertices))
    spaces = {
        # (g1 values, lowest g2).  s2xs2_sum2 starts at 21: realize_space
        # rejects g2 = 18..20 there although feasibility() accepts them
        "cp2": ((5, 6), 6),
        "s2xs2_sum2": ((10, 11), 21),
        "s1xs3": ((7, 8), 15),
    }
    g1s = {space: alternate(rng, g1_pair) for space, (g1_pair, _) in spaces.items()}
    for k in range(60):
        space = tuple(spaces)[k % 3]
        floor = spaces[space][1]
        g1 = g1s[space]()
        g2 = floor + round((0.4 + 0.2 * rng.random()) * (comb(g1 + 1, 2) - floor))
        jobs.append(Job(f"realize-{space}-{g1}-{g2}", lambda s=space, a=g1, b=g2: fe.realize_space(s, a, b),
                        lambda K, a=g1, b=g2: check_h_target(K.facets, a + 1, a + 1 + b), 30.0,
                        count_vertices))
    # move logs made here, replayed by the jobs
    logs = []
    for k in range(10):
        n = 13 + k % 4
        e = 5 * n + rng.randint(5, 9)
        K, log = fe.s1xs3_fill(n, e, log=fe.MoveLog())
        logs.append((f"fill{n}_{e}", fe.kuhnel_lassmann(n, 2).facets, log, K.facets))
    for k in range(6):
        g1 = rng.randint(4, 7)
        g2 = rng.randint(6, comb(g1 + 1, 2))
        log = fe.MoveLog()
        K = fe.realize_space("cp2", g1, g2, log=log)
        logs.append((f"cp2-{g1}-{g2}", fcat.CP2_FACETS, log, K.facets))
    for k, (name, base, log, result) in enumerate(logs):
        base_path = write_complex(work / f"base{k}.json", base)
        log_path = work / f"log{k}.json"
        log_path.write_text(json.dumps(log.steps))
        want, nv = fs(result), len(oracle.vertices(result))

        def check(K, want=want):
            expect(fs(K.facets) == want, "replay differs from the generated complex")

        jobs.append(Job(f"replay-{name}",
                        lambda b=base_path, p=str(log_path): fio.replay_move_log(fio.load_complex(b),
                                                                                 fio.load_move_log(p)),
                        check, 30.0, lambda K, nv=nv: nv))
    for k in range(4):
        base_path, log_path = work / f"base{k}.json", work / f"log{k}.json"
        out = work / f"replayed{k}.json"
        want, nv = fs(logs[k][3]), len(oracle.vertices(logs[k][3]))

        def check(res, want=want, out=out):
            expect(res[0] == 0, f"exit code {res[0]}")
            expect(fs(read_facets(out)) == want, "replay differs from the generated complex")

        jobs.append(Job(f"cli-replay-{logs[k][0]}",
                        lambda b=base_path, p=log_path, o=out: run_cli(["replay", "--input", str(b), "--log", str(p),
                                                                        "--out", str(o)]),
                        check, 30.0, lambda res, nv=nv: nv))
    return jobs


# ---------------------------------------------------------------------------
# refit


def check_refit(out, facets_in, betti: tuple):
    result, log = out
    got = result.complex.facets
    expect(oracle.is_two_neighborly(got), "output is not 2-neighborly")
    expect(oracle.is_closed_pseudomanifold(got) and oracle.is_connected(got),
           "output is not a connected closed pseudomanifold")
    expect(oracle.betti_gf2(got) == betti, "output Betti vector differs from the input's")
    replayed = fio.replay_move_log(fe.SimplicialComplex(facets_in), log.steps)
    expect(fs(replayed.facets) == fs(got), "output does not replay from its log")


def refit_counts(facets_in):
    def counts(out):
        n_in = len(oracle.vertices(facets_in))
        return {"refit.nonedges_in": comb(n_in, 2) - len(oracle.faces_by_size(facets_in)[2]),
                "refit.vertices_added": len(out[0].complex.vertices) - n_in}
    return counts


def run_refit(facets) -> tuple:
    log = fe.MoveLog()
    return fe.two_neighborly_refit(fe.SimplicialComplex(facets), seed=None, log=log), log


def setup_refit(seed: int, work: Path) -> list:
    rng = Random(seed)
    s1xs3 = (0, 0, 1, 0, 1, 1)
    # s2xs2_sum is the median job and runs under three relabelings, so that
    # job_p50_ms rests on three jobs rather than one
    s2xs2 = ("s2xs2_sum", fcat.S2XS2_FACETS, (0, 0, 0, 4, 0, 1))
    inputs = [
        s2xs2, s2xs2, s2xs2,
        ("kl12_2", fe.kuhnel_lassmann(12, 2).facets, s1xs3),
        ("kl13_2", fe.kuhnel_lassmann(13, 2).facets, s1xs3),
        ("stacked8_5", fe.stacked_sphere(8, 5).facets, sphere_betti(5)),
        ("stacked10_5", fe.stacked_sphere(10, 5).facets, sphere_betti(5)),
        ("cp2_9", fcat.CP2_FACETS, (0, 0, 0, 1, 0, 1)),
        ("kl11_2", fe.kuhnel_lassmann(11, 2).facets, s1xs3),
    ]
    jobs = []
    for name, facets, betti in inputs:
        # refit's path follows the label order, and random orders sent KL(13,2)
        # past three minutes, so labels move but keep their order
        facets = relabel(facets, rng, "order")
        jobs.append(Job(
            name,
            lambda f=facets: run_refit(f),
            lambda out, f=facets, b=betti: check_refit(out, f, b),
            120.0,
            lambda out: len(out[0].complex.vertices),
            refit_counts(facets),
        ))
    return jobs


# ---------------------------------------------------------------------------
# posets


@dataclass
class PosetExpect:
    cls: str  # "Eulerian" | "SemiEulerian"
    toric: Callable[[], tuple]
    flag_f: Callable[[frozenset], int]
    chi: int | None = None  # Euler characteristic, for semi-Eulerian posets


def check_poset(exp: PosetExpect, out):
    cls, toric, flag_f, bb, cd = out
    expect(cls == exp.cls, f"class {cls} != {exp.cls}")
    expect(toric == exp.toric(), f"toric h {toric}")
    d = len(toric) - 1
    for i in range(d + 1):
        corr = 0 if exp.chi is None else (-1) ** i * comb(d, i) * (exp.chi - oracle.sphere_euler(d - 1))
        expect(toric[d - i] - toric[i] == corr, f"toric Dehn-Sommerville defect at {i}")
    for S, v in flag_f.items():
        expect(v == exp.flag_f(S), f"flag f_{sorted(S)} = {v}")
    rank = d + 1
    for rec in bb:
        want = 0
        if exp.cls == "SemiEulerian" and not rec["S"]:
            want = exp.chi - oracle.sphere_euler(rank - 2)
        expect(rec["defect"] == want, f"Bayer-Billera defect at S={rec['S']}")
    if exp.cls == "Eulerian":
        expect(not isinstance(cd, Exception), "cd-index missing for an Eulerian poset")
        expect(cd["c" * cd.degree] == 1, "cd coefficient of c^n is not 1")
        expect(all(isinstance(c, int) and c >= 0 for c in cd.coeffs.values()), "cd-index not nonnegative")
    else:
        expect(isinstance(cd, NotInCDSpan), "even-rank semi-Eulerian poset has a cd-index")


def poset_invariants(P):
    cls = fe.classify_poset(P)
    toric = fe.toric_h(P).indexed
    ff, fh = fe.flag_vectors(P)
    bb = fe.bayer_billera_defects(P)
    try:
        cd = fe.cd_index(fe.ab_from_flag_h(fh))
    except NotInCDSpan as e:  # the documented answer off the Eulerian class
        cd = e
    return cls, toric, dict(ff.entries), bb, cd


def face_poset_job(jid: str, facets, cls: str, chi: int | None = None) -> Job:
    facets = [tuple(f) for f in facets]
    f = lambda: oracle.f_vector(facets)  # noqa: E731
    exp = PosetExpect(cls, lambda: oracle.h_from_f(f()), lambda S: oracle.flag_f_simplicial(f(), S), chi)
    nv = len(oracle.vertices(facets))
    return Job(jid, lambda: poset_invariants(fe.face_poset(fe.SimplicialComplex(facets))),
               lambda out: check_poset(exp, out), 60.0, lambda out: nv)


TORUS_FLAG_F = {(): 1, (1,): 4, (2,): 8, (3,): 4, (1, 2): 16, (1, 3): 16, (2, 3): 16, (1, 2, 3): 32}


def setup_posets(seed: int, work: Path) -> list:
    rng = Random(seed)
    label = alternate(rng, ("int", "str"))
    jobs = []
    for d, count in ((5, 12), (6, 8), (7, 2), (8, 1)):
        for _ in range(count):
            exp = PosetExpect("Eulerian", lambda d=d: (1,) * d, lambda S, d=d: oracle.flag_f_boolean(d, S))
            jobs.append(Job(f"B{d}", lambda d=d: poset_invariants(fe.boolean_lattice(d)),
                            lambda out, exp=exp: check_poset(exp, out), 60.0, lambda out, d=d: d))
    torus = PosetExpect("SemiEulerian", lambda: (1, 1, 7, -1), lambda S: TORUS_FLAG_F[tuple(sorted(S))], 0)
    for _ in range(5):
        jobs.append(Job("torus_poset", lambda: poset_invariants(fe.catalog("torus_poset").payload),
                        lambda out: check_poset(torus, out), 60.0, lambda out: 4))
    jobs.append(face_poset_job("cp2_9", relabel(fcat.CP2_FACETS, rng, label()), "SemiEulerian", 3))
    jobs.append(face_poset_job("s2xs2_sum", relabel(fcat.S2XS2_FACETS, rng, label()), "SemiEulerian", 6))
    for _ in range(5):
        jobs.append(face_poset_job("bipyramid", relabel(fcat.BIPYRAMID_FACETS, rng, label()), "Eulerian"))
    for k in range(65):
        shape = k % 5
        if shape == 0:
            d = 3 + k // 5 % 3
            name, facets = f"simplex_boundary{d}", list(combinations(range(1, d + 2), d))
        elif shape == 1:
            d = 3 + k // 5 % 2
            name, facets = f"cross{d}", cross_polytope_facets(d)
        else:
            d = (3, 4, 4)[shape - 2]
            n = d + 4 + rng.randint(-1, 1)
            name, facets = f"stacked{n}_{d}", stacked_facets(n, d, rng)
        jobs.append(face_poset_job(name, relabel(facets, rng, label()), "Eulerian"))
    return jobs


SETUP = {
    "recognize": setup_recognize,
    "construct": setup_construct,
    "refit": setup_refit,
    "posets": setup_posets,
}
