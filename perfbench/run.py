"""The tensorseq benchmark.

    python3 perfbench/run.py --workload mseq-grid --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

* mseq-grid    `tensorseq check m --m 2..3 --n 2..6 --field q,f3 --no-timing`
* sprime-grid  `tensorseq check sprime --m 6..8 --n 4..6 --field q,f3 --no-timing`
* nf-queries   one `build_context(Space(3, QQ), 6)`, then a closed loop of
               one client issuing seeded `cocycle` queries against it.

With `--trace 0` the end-to-end metrics are measured with no tracing,
and every time is calibrated to the speed of the core it ran on (see
calibrate.py); with `--trace 1` a separate traced run reports the
per-layer metrics and the tracing overhead.  Metric names and units come from BENCHMARK.json
at the root of the checkout.  Every run appends its raw samples to
perfbench/results/runs.jsonl and prints one JSON result as the last
line of standard output.  The package is imported from `src/` of the
checkout; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibrate
import tracer

ROOT = tracer.ROOT
BENCH_DIR = Path(__file__).resolve().parent
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference"

GRIDS = {
    "mseq-grid": ["check", "m", "--m", "2..3", "--n", "2..6", "--field", "q,f3", "--no-timing"],
    "sprime-grid": ["check", "sprime", "--m", "6..8", "--n", "4..6", "--field", "q,f3",
                    "--no-timing"],
}
WORKLOADS = (*GRIDS, "nf-queries")

SETUP_REPEATS = 15     # CLI start-ups per grid run (interpreter + package import)
NF_SETUP_REPEATS = 5   # context builds per nf-queries run
NF_M, NF_DEGREE = 3, 6
NF_SESSION = 200       # queries per timed session, between two probes
NF_WARMUP = 50
RUN_DEADLINE_S = 170.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- child processes --------------------------------------------------------

def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TENSORSEQ_SIZE_CAP"}
    env["PYTHONPATH"] = str(tracer.SRC) + (os.pathsep + env["PYTHONPATH"]
                                           if env.get("PYTHONPATH") else "")
    return env


def launch(argv: list[str], timeout: float) -> dict:
    """Run one process to completion; wall time from launch to exit and
    its own peak RSS.  Output goes to files, so a full pipe cannot block it."""
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"child-{os.getpid()}.out"
    err_path = RESULTS / f"child-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_cli_env())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
              "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}
    out_path.unlink()
    err_path.unlink()
    return result


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "tensorseq.cli", *args]


def grid_failures(workload: str, run: dict, reference: bytes) -> list[str]:
    """Cells of one grid invocation that failed, were capped or differ
    from the reference certificates."""
    n_cells = len(json.loads(reference))
    if run["code"] != 0:
        tail = run["stderr"].decode(errors="replace").strip().splitlines()[-1:]
        return [f"{workload}: exit code {run['code']} {tail}"] * n_cells
    if run["stdout"] == reference:
        return []
    try:
        got = json.loads(run["stdout"])
    except ValueError:
        return [f"{workload}: output is not JSON"] * n_cells
    want = json.loads(reference)
    bad = [f"{workload}: cell {w.get('m')},{w.get('n')},{w.get('field')} differs"
           for i, w in enumerate(want) if i >= len(got) or got[i] != w]
    return bad or [f"{workload}: output differs from the reference bytes"]


# --- grid workloads -----------------------------------------------------------

def launch_calibrated(meter: calibrate.Meter, argv: list[str], deadline: float) -> dict:
    mark = meter.mark()
    run = launch(argv, deadline - time.perf_counter())
    run["cal_s"] = run["wall_s"] * meter.factor_since(mark)
    return run


def run_grid(workload: str, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    reference = (REFERENCE / f"{workload}.json").read_bytes()
    cells = len(json.loads(reference))
    with calibrate.Meter() as meter:
        setups = [launch_calibrated(meter, cli_argv(["--help"]), deadline)
                  for _ in range(SETUP_REPEATS)]
        failures = [f"{workload}: --help exit code {s['code']}" for s in setups if s["code"]]
        runs = []
        begin = time.perf_counter()
        # stop before an invocation that would end past `seconds`
        while not runs or time.perf_counter() - begin + runs[-1]["wall_s"] <= seconds:
            runs.append(launch_calibrated(meter, cli_argv(GRIDS[workload]), deadline))
            failures += grid_failures(workload, runs[-1], reference)
            if time.perf_counter() > deadline:
                break
    walls = [r["cal_s"] for r in runs]
    rss = [r["rss_mb"] for r in runs]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(s["cal_s"] for s in setups),
        "peak_rss_mb": statistics.median(rss),
        # On a grid workload one query is one CLI invocation.
        "queries_per_s": len(runs) / sum(walls),
        "query_p50_ms": statistics.median(walls) * 1000.0,
        "query_p99_ms": percentile(walls, 0.99) * 1000.0,
    }
    samples = {"wall_s": walls, "raw_wall_s": [r["wall_s"] for r in runs], "rss_mb": rss,
               "setup_s": [s["cal_s"] for s in setups],
               "raw_setup_s": [s["wall_s"] for s in setups],
               "cells_per_invocation": cells, "attempted": len(runs) * cells}
    return metrics, samples, failures


def run_grid_traced(workload: str, deadline: float) -> tuple[dict, dict, list]:
    reference = (REFERENCE / f"{workload}.json").read_bytes()
    plain = launch(cli_argv(GRIDS[workload]), deadline - time.perf_counter())
    spans_path = RESULTS / f"spans-{os.getpid()}.json"
    traced = launch([sys.executable, str(BENCH_DIR / "tracer.py"), "--out", str(spans_path),
                     "--", *GRIDS[workload]], deadline - time.perf_counter())
    failures = grid_failures(workload, plain, reference)
    failures += [f + " (traced)" for f in grid_failures(workload, traced, reference)]
    try:
        spans = json.loads(spans_path.read_text())
        spans_path.unlink()
    except OSError:
        spans = {"metrics": tracer.Tracer().metrics(), "hidden_s": 0.0}
        failures.append(f"{workload}: traced run wrote no spans")
    metrics = spans["metrics"]
    metrics["cli.overhead_ms"] = ((traced["wall_s"] - spans["hidden_s"]) * 1000.0
                                  - metrics["certify.run_grid.ms"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    samples = {"untraced_wall_s": [plain["wall_s"]], "traced_wall_s": [traced["wall_s"]],
               "attempted": 2 * len(json.loads(reference))}
    return metrics, samples, failures


# --- nf-queries ---------------------------------------------------------------

def nf_queries(rng: random.Random, count: int) -> list[tuple]:
    """(permutation of 1..n in one-line form, word) pairs."""
    return [(tuple(rng.sample(range(1, NF_DEGREE + 1), NF_DEGREE)),
             tuple(rng.randint(1, NF_M) for _ in range(NF_DEGREE)))
            for _ in range(count)]


def nf_session(ctx, queries) -> tuple[float, list[float], list]:
    """Answer queries back to back; returns (session seconds, per-query
    seconds, answers).  A query that raises yields the exception as its answer."""
    from tensorseq import bimodule, tensor
    space = ctx.space
    clock = time.perf_counter
    lat, answers = [], []
    start = clock()
    for t, w in queries:
        q0 = clock()
        try:
            h = bimodule.cocycle(ctx, t, tensor.word_element(space, w))
        except Exception as e:
            h = e
        lat.append(clock() - q0)
        answers.append(h)
    return clock() - start, lat, answers


def nf_failures(ctx, queries, answers) -> list[str]:
    """Seed-independent invariants of every answer h to (t, w):
    expand(h) == a - t.a and normal_form(h) == h."""
    from tensorseq import bimodule, tensor
    bad = []
    for (t, w), h in zip(queries, answers):
        if isinstance(h, Exception):
            bad.append(f"nf-queries: t={t} w={w} raised {h!r}")
            continue
        a = tensor.word_element(ctx.space, w)
        elem = bimodule.element_of(ctx, h)
        if not (bimodule.expand_wedge(elem) == a - tensor.perm_action(t, a)
                and bimodule.normal_form(ctx, elem) == h):
            bad.append(f"nf-queries: t={t} w={w} answered wrongly")
    return bad


def _nf_space():
    from tensorseq import QQ, Space
    return Space(NF_M, QQ)


def run_nf(seed: int, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    from tensorseq import bimodule
    space = _nf_space()
    builds, raw_builds = [], []
    with calibrate.Meter() as meter:
        for _ in range(NF_SETUP_REPEATS):
            ctx = None  # free the previous context, so only one is ever alive
            mark = meter.mark()
            t0 = time.perf_counter()
            ctx = bimodule.build_context(space, NF_DEGREE)
            raw_builds.append(time.perf_counter() - t0)
            builds.append(raw_builds[-1] * meter.factor_since(mark))
    rng = random.Random(seed)
    nf_session(ctx, nf_queries(rng, NF_WARMUP))
    failures, sessions, raw_sessions, lat = [], [], [], []
    begin = time.perf_counter()
    # sessions and their checks fill `seconds`; only the sessions are timed,
    # each between two probes on the same core, with no thread running
    while not sessions or time.perf_counter() - begin < seconds:
        queries = nf_queries(rng, NF_SESSION)
        before = calibrate.probe_s()
        wall, q_lat, answers = nf_session(ctx, queries)
        scale = calibrate.factor([before, calibrate.probe_s()])
        raw_sessions.append(wall)
        sessions.append(wall * scale)
        lat += [x * scale for x in q_lat]
        failures += nf_failures(ctx, queries, answers)
        if time.perf_counter() > deadline:
            break
    metrics = {
        "wall_s": statistics.median(sessions),
        "setup_s": statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "queries_per_s": len(lat) / sum(sessions),
        "query_p50_ms": statistics.median(lat) * 1000.0,
        "query_p99_ms": percentile(lat, 0.99) * 1000.0,
    }
    samples = {"setup_s": builds, "raw_setup_s": raw_builds, "session_wall_s": sessions,
               "raw_session_wall_s": raw_sessions, "query_ms": [x * 1000.0 for x in lat],
               "attempted": len(lat)}
    return metrics, samples, failures


def run_nf_traced(seed: int, seconds: int, deadline: float) -> tuple[dict, dict, list]:
    """Traced context build, then the same sessions untraced and traced;
    answers are checked with tracing off."""
    from tensorseq import bimodule
    space = _nf_space()
    trace = tracer.Tracer()
    with tracer.installed(trace):
        ctx = bimodule.build_context(space, NF_DEGREE)
    rng = random.Random(seed)
    nf_session(ctx, nf_queries(rng, NF_WARMUP))
    batches, plain, traced, failures = [], [], [], []
    begin = time.perf_counter()
    while not batches or time.perf_counter() - begin < seconds / 2:
        batches.append(nf_queries(rng, NF_SESSION))
        wall, _, answers = nf_session(ctx, batches[-1])
        plain.append(wall)
        failures += nf_failures(ctx, batches[-1], answers)
    for queries in batches:
        with tracer.installed(trace):
            wall, _, answers = nf_session(ctx, queries)
        traced.append(wall)
        failures += nf_failures(ctx, queries, answers)
        if time.perf_counter() > deadline:
            break
    metrics = trace.metrics()
    metrics["cli.overhead_ms"] = 0.0
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced,
               "attempted": NF_SESSION * (len(plain) + len(traced))}
    return metrics, samples, failures


# --- entry point --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        tracer.use_checkout_source()
    except (FileNotFoundError, ImportError) as e:
        print(f"benchmark: cannot use the package sources: {e}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    core = calibrate.pin_to_one_core()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    deadline = time.perf_counter() + RUN_DEADLINE_S
    if args.workload == "nf-queries":
        run = run_nf_traced if args.trace else run_nf
        metrics, samples, failures = run(args.seed, args.seconds, deadline)
    elif args.trace:
        metrics, samples, failures = run_grid_traced(args.workload, deadline)
    else:
        metrics, samples, failures = run_grid(args.workload, args.seconds, deadline)
    if set(metrics) != set(units):
        print(f"benchmark: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = samples.pop("attempted")
    failed = min(len(failures), attempted)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": nproc, "core": core, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted, "failures": failures[:20],
        "metrics": metrics, "samples": samples,
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    for line in failures[:20]:
        print(line)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
