"""faceenum benchmark: four workloads, end-to-end metrics, traced layer metrics.

    python3 bench/run.py --workload recognize|construct|refit|posets|all
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the library is imported from ``src/``.  One
process runs one workload, single-threaded: a single client sends the fixed
job list in a closed loop, the next job starting when the previous returns,
and repeats the list in passes until their job time reaches ``--seconds``.  Every output
is checked after its timer stops.  With ``--trace 0`` the last line carries
the end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it carries the per-layer metrics and the tracing overhead.
``--workload all`` runs the four workloads one after another, each in its own
process.  See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("recognize", "construct", "refit", "posets")
HELD_OUT_SEED = 20071017  # reserved for checking claims; never used while tuning
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 0.5  # cheap set-ups repeat until this much time has passed
RUN_LIMIT_S = 150.0  # no pass starts after this, so a run ends well inside 180 s

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "job_p50_ms": ("ms", "lower"),
    "job_p90_ms": ("ms", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "out_vertices": ("count", "lower"),
}

LAYERS = (
    "complexes", "homology", "vectors", "audit", "trees", "constructions",
    "refit", "posets", "catalog", "io", "cli",
)
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.failed"] = ("count", "lower")
for _name in (
    "complexes.init.calls", "complexes.init.facets", "complexes.link.calls", "complexes.faces.calls",
    "homology.betti.calls", "homology.manifold_report.calls", "homology.matrix_rank.calls",
    "homology.matrix_rank.rows", "homology.matrix_rank.nnz", "vectors.h_vector.calls",
    "constructions.apply_bistellar.calls", "constructions.check_move.calls",
    "trees.central_retriangulation.calls", "trees.validate_simple_tree.calls",
    "trees.find_spanning_tree_in_link.calls", "trees.find_spanning_tree_in_link.failed",
    "refit.nonedges_in", "refit.vertices_added", "posets.flag_vectors.calls",
    "posets.classify_poset.calls", "posets.chains",
):
    PER_LAYER[_name] = ("count", "lower")
PER_LAYER["refit.vertices_per_nonedge"] = ("ratio", "lower")
PER_LAYER["io.bytes_read"] = ("bytes", "lower")
PER_LAYER["io.bytes_written"] = ("bytes", "lower")
PER_LAYER["trace.overhead"] = ("ratio", "lower")


class JobTimeout(BaseException):
    """Raised inside a job that ran past its cap."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(job):
    """Run one job under its cap: (seconds, output, error or None)."""
    signal.setitimer(signal.ITIMER_REAL, job.cap_s)
    t0 = time.perf_counter()
    try:
        out, err = job.run(), None
    except JobTimeout:
        out, err = None, "timeout"
    except Exception as e:  # any exception a job does not document is a failure
        out, err = None, f"{type(e).__name__}: {e}"
    finally:
        elapsed = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return elapsed, out, err


class Runner:
    def __init__(self, jobs):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.jobs = jobs
        self.passed = [None] * len(jobs)  # last output that passed its check, per job
        self.latencies = [[] for _ in jobs]  # seconds, per job, one entry per pass
        self.attempted = 0
        self.failures: list = []
        self.out_vertices = None

    def check(self, i, out) -> str | None:
        if self.passed[i] is not None and self.passed[i] == out:
            return None  # same output as one already checked
        try:
            self.jobs[i].check(out)
        except CheckFailed as e:
            return f"check: {e}"
        except Exception as e:  # a malformed output fails its check
            return f"check: {type(e).__name__}: {e}"
        self.passed[i] = out
        return None

    def run_pass(self, tracer=None) -> float:
        """One pass over the job list; returns the summed job time."""
        gc.collect()  # each pass starts from a collected heap, so peak memory does not grow with passes
        total, verts = 0.0, 0
        for i, job in enumerate(self.jobs):
            span = None
            if tracer is not None:
                tracer.job = i
                span = tracer.open("job")
            elapsed, out, err = run_job(job)
            if span is not None:
                tracer.close(span)
                tracer.job = None  # calls made by the checks are not recorded
            total += elapsed
            self.latencies[i].append(elapsed)
            self.attempted += 1
            if err is None:
                err = self.check(i, out)
            if err is not None:
                self.failures.append(f"{job.id}: {err}")
                continue
            verts += job.out_vertices(out)
            if tracer is not None:
                tracer.counts.update(job.layer_counts(out))
        if self.out_vertices is None:
            self.out_vertices = verts
        return total


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def setup_jobs(workload: str, seed: int, work: Path):
    from workloads import SETUP

    times, jobs = [], None
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        t0 = time.perf_counter()
        jobs = SETUP[workload](seed, work)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def measure(runner: Runner, seconds: float) -> list:
    """Untraced passes until their job time reaches ``seconds``; pass times.

    Checks are not counted, so a workload with costly checks (refit) gets as
    many passes as the others."""
    start, times = time.perf_counter(), []
    while True:
        times.append(runner.run_pass())
        if (sum(times) + statistics.median(times) > seconds
                or time.perf_counter() - start > RUN_LIMIT_S):
            return times


def end_to_end(runner: Runner, pass_times: list, setup_s: float) -> dict:
    # a job's latency is its median over the passes, so the percentiles do
    # not depend on how many passes fitted into the run
    lat_ms = [statistics.median(x) * 1000 for x in runner.latencies]
    ok = runner.attempted - len(runner.failures)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(pass_times), "s"),
        "job_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "job_p90_ms": metric(percentile(lat_ms, 90), "ms"),
        "ok_ratio": metric(ok / runner.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "out_vertices": metric(runner.out_vertices or 0, "count"),
    }


def traced(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; layer metrics of the traced ones."""
    from tracing import Tracer

    plain, traced_times, selfs, first = [], [], [], None
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass())
        tracer = Tracer()
        with tracer:
            traced_times.append(runner.run_pass(tracer))
        selfs.append(tracer.self_times())
        if first is None:
            first = tracer  # counts and spans come from the first traced pass
        elif tracer.counts != first.counts:
            print("warning: traced passes disagree on counts", file=sys.stderr)
        used = sum(plain) + sum(traced_times)
        if (used + statistics.median(plain) + statistics.median(traced_times) > seconds
                or time.perf_counter() - start > RUN_LIMIT_S):
            break
    first.write_spans(spans_path)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name.endswith(".self_s"):
            layer = name.split(".")[0]
            value = statistics.median(s[layer] for s in selfs)
        else:
            value = first.counts[name]
        out[name] = metric(value, unit)
    added, nonedges = first.counts["refit.vertices_added"], first.counts["refit.nonedges_in"]
    out["refit.vertices_per_nonedge"] = metric(added / nonedges if nonedges else 0.0, "ratio")
    out["trace.overhead"] = metric(statistics.median(traced_times) / statistics.median(plain) - 1, "ratio")
    return out


def print_metrics(metrics: dict, table: dict):
    for name, m in metrics.items():
        print(f"  {name:44} {m['value']:>16.6g} {m['unit']:6} ({table[name][1]} is better)")


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "faceenum" / "__init__.py").is_file():
        print(f"error: no faceenum sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import faceenum

    if Path(faceenum.__file__).resolve().parent != (src / "faceenum").resolve():
        print(f"error: faceenum imported from {faceenum.__file__}, not {src}", file=sys.stderr)
        return 2
    work = ROOT / "bench" / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_s = setup_jobs(args.workload, args.seed, work)
        runner = Runner(jobs)
        print(f"workload={args.workload} seed={args.seed} held_out_seed={HELD_OUT_SEED} "
              f"jobs_per_pass={len(jobs)} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            out_dir = ROOT / "bench" / "_out"
            out_dir.mkdir(exist_ok=True)
            metrics = traced(runner, args.seconds, out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
            table = PER_LAYER
        else:
            pass_times = measure(runner, args.seconds)
            metrics = end_to_end(runner, pass_times, setup_s)
            table = END_TO_END
            print(f"passes={len(pass_times)} pass_s={['%.3f' % t for t in pass_times]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print_metrics(metrics, table)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    results, code = {}, 0
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 2
        results[w] = json.loads(lines[-1])
        code |= not results[w]["correct"]
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order follows string hashes, and some library loops
        # stop at the first bad face they meet in a set (audit's links_closed),
        # so the work done would change from run to run; restart with it fixed
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
