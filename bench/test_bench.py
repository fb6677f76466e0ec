"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import faceenum as fe
import pytest

import oracle
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def small_jobs(tmp_path, workload="construct"):
    """Cheap jobs of one workload: every layer of construct but the big inputs."""
    jobs = workloads.SETUP[workload](1, tmp_path)
    keep = ("realize-", "replay-", "cli-")
    return [j for j in jobs if j.id.startswith(keep)]


def test_benchmark_json_names_every_metric_the_run_prints():
    doc = spec()
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_every_metric_prints_with_unit_and_direction(tmp_path, capsys):
    runner = run.Runner(small_jobs(tmp_path))
    e2e = run.end_to_end(runner, [runner.run_pass()], 0.1)
    layer = run.traced(runner, 0.0, tmp_path / "spans.jsonl")
    for metrics, table in ((e2e, run.END_TO_END), (layer, run.PER_LAYER)):
        assert set(metrics) == set(table)
        run.print_metrics(metrics, table)
    lines = capsys.readouterr().out.splitlines()
    for name, (unit, better) in {**run.END_TO_END, **run.PER_LAYER}.items():
        line = next(x for x in lines if x.split()[0] == name)
        assert f" {unit} " in line and f"({better} is better)" in line
    assert not runner.failures


def corrupt_refit(out):
    result, log = out
    fewer = fe.SimplicialComplex(result.complex.facets[1:])
    return dataclasses.replace(result, complex=fewer), log


def corrupt_poset(out):
    cls, toric, flag_f, bb, cd = out
    flag_f = dict(flag_f)
    key = max(flag_f, key=len)
    flag_f[key] += 1
    return cls, toric, flag_f, bb, cd


@pytest.mark.parametrize("workload, job_id, corrupt", [
    ("refit", "stacked8_5", corrupt_refit),
    ("posets", "B5", corrupt_poset),
])
def test_corrupted_output_counts_as_failed(tmp_path, workload, job_id, corrupt):
    job = next(j for j in workloads.SETUP[workload](1, tmp_path) if j.id == job_id)
    runner = run.Runner([job])
    runner.run_pass()
    assert runner.failures == []
    bad = dataclasses.replace(job, run=lambda: corrupt(job.run()))
    runner = run.Runner([bad])
    runner.run_pass()
    assert len(runner.failures) == 1 and "check" in runner.failures[0]


def test_job_over_its_cap_is_a_timeout(tmp_path):
    job = next(j for j in workloads.SETUP["refit"](1, tmp_path) if j.id == "kl13_2")
    runner = run.Runner([dataclasses.replace(job, cap_s=0.05)])
    runner.run_pass()
    assert runner.failures == ["kl13_2: timeout"]


def test_two_traced_runs_at_one_seed_give_identical_counts(tmp_path):
    counts = []
    for _ in range(2):
        from tracing import Tracer

        runner = run.Runner(small_jobs(tmp_path))
        with Tracer() as tracer:
            runner.run_pass(tracer)
        assert not runner.failures
        counts.append(tracer.counts)
    assert counts[0] == counts[1]
    assert counts[0]["io.bytes_read"] > 0 and counts[0]["cli.calls"] > 0


def test_tracer_restores_the_library():
    from tracing import Tracer

    before = (fe.audit, fe.homology.matrix_rank, fe.SimplicialComplex.__init__)
    with Tracer():
        assert fe.audit is not before[0]
    assert (fe.audit, fe.homology.matrix_rank, fe.SimplicialComplex.__init__) == before


def test_without_the_library_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "refit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_matches_the_library_on_small_cases():
    for n, d in ((9, 4), (12, 5)):
        K = fe.stacked_sphere(n, d)
        assert oracle.stacked_f(n, d) == oracle.f_vector(K.facets) == K.f_vector
    for n, m in ((11, 2), (15, 3)):
        assert workloads.kl_facets(n, m) == list(fe.kuhnel_lassmann(n, m).facets)
    cp2 = fe.catalog("cp2_9").payload
    assert oracle.betti_gf2(cp2.facets) == fe.betti(cp2, fe.GF2).reduced_betti
    assert oracle.h_from_f(oracle.f_vector(cp2.facets)) == fe.h_vector(cp2).entries
    ff, _ = fe.flag_vectors(fe.face_poset(cp2))
    f = oracle.f_vector(cp2.facets)
    assert all(v == oracle.flag_f_simplicial(f, S) for S, v in ff.entries.items())
    ff, _ = fe.flag_vectors(fe.boolean_lattice(5))
    assert all(v == oracle.flag_f_boolean(5, S) for S, v in ff.entries.items())


def test_setup_depends_only_on_the_seed(tmp_path):
    a = [j.id for j in workloads.SETUP["recognize"](7, tmp_path)]
    b = [j.id for j in workloads.SETUP["recognize"](7, tmp_path)]
    c = [j.id for j in workloads.SETUP["recognize"](8, tmp_path)]
    assert a == b and a != c


def test_labels_are_all_int_or_all_str_per_complex():
    rng = workloads.Random(3)
    for kind in ("int", "str", "order"):
        facets = workloads.relabel(workloads.kl_facets(12, 2), rng, kind)
        types = {type(v) for f in facets for v in f}
        assert len(types) == 1
