"""Tests of the benchmark itself: spans, binding sites, correctness gates.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402

tracer.use_checkout_source()

from tensorseq import QQ, Space, bimodule, cli, evensym, linalg  # noqa: E402

TINY_GRID = ["check", "both", "--m", "2..3", "--n", "2..4", "--field", "q,f3", "--no-timing"]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock, maxrss=lambda: 0)
    timeline = [
        (0, "certify.run_grid"), (1, "bimodule.verify_sequence"),
        (2, "bimodule.build_context"), (3, "linalg.echelon_rows.q"), (7, None),
        (8, None), (9, "linalg.echelon_rows.q"), (10, None), (12, None), (13, None),
    ]
    for t, name in timeline:
        clock.now = t
        tr.enter(name) if name else tr.exit()
    m = tr.metrics()
    assert m["linalg.echelon_rows.q.calls"] == 2
    assert (m["linalg.echelon_rows.q.ms"], m["linalg.echelon_rows.q.self_ms"]) == (5000, 5000)
    assert (m["bimodule.build_context.ms"], m["bimodule.build_context.self_ms"]) == (6000, 2000)
    verify = (m["bimodule.verify_sequence.ms"], m["bimodule.verify_sequence.self_ms"])
    assert verify == (11000, 4000)
    assert (m["certify.run_grid.ms"], m["certify.run_grid.self_ms"]) == (13000, 2000)


def test_untimed_bookkeeping_is_hidden_from_open_spans():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock, maxrss=lambda: 0)
    tr.enter("certify.run_grid")
    clock.now = 1
    tr.enter("bimodule.build_context")
    with tr.untimed():
        clock.now = 6
    clock.now = 7
    tr.exit()
    clock.now = 8
    tr.exit()
    m = tr.metrics()
    assert m["bimodule.build_context.ms"] == 1000
    assert (m["certify.run_grid.ms"], m["certify.run_grid.self_ms"]) == (3000, 2000)
    assert tr.hidden_s == 5


def test_every_span_fires_on_a_tiny_grid_and_queries():
    tr = tracer.Tracer()
    with tracer.installed(tr):
        cli.main.main(args=TINY_GRID, prog_name="tensorseq", standalone_mode=False)
        ctx = bimodule.build_context(Space(3, QQ), 4)
        _, _, answers = bench.nf_session(ctx, [((2, 4, 1, 3), (1, 2, 3, 1))])
    assert not bench.nf_failures(ctx, [((2, 4, 1, 3), (1, 2, 3, 1))], answers)
    silent = [name for name in tracer.SPANS if tr.stats.get(name, [0])[0] == 0]
    assert silent == []
    m = tr.metrics()
    assert m["bimodule.rel_rank"] > 0 and m["linalg.echelon_rows.in_nnz"] > 0
    assert 0 < m["linalg.echelon_rows.useful_ratio"] <= 1
    assert 0 < m["bimodule.relation_dedup_ratio"] <= 1


def test_declared_per_layer_metrics_match_the_tracer():
    spec = json.loads((tracer.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(tracer.Tracer().metrics()) | {"cli.overhead_ms", "trace.overhead_s"}


def test_wrappers_reach_every_binding_site_and_are_removed():
    original = linalg.echelon_rows
    tr = tracer.Tracer()
    with tracer.installed(tr):
        assert bimodule.echelon_rows is linalg.echelon_rows is evensym.echelon_rows
        assert linalg.echelon_rows is not original
        # rref reaches echelon_rows through linalg's own globals
        assert linalg.rank(linalg.matrix(QQ, [[1, 2], [2, 4]])) == 1
    assert tr.stats["linalg.echelon_rows.q"][0] == 1
    assert bimodule.echelon_rows is linalg.echelon_rows is evensym.echelon_rows is original


def test_missing_target_fails_loudly(monkeypatch):
    original = linalg.echelon_rows
    monkeypatch.delattr(linalg, "residue_list")
    with pytest.raises(RuntimeError, match="linalg.residue_list is missing"):
        with tracer.installed(tracer.Tracer()):
            pass
    assert bimodule.echelon_rows is original


def test_traced_cli_writes_the_untraced_certificates(tmp_path):
    plain = bench.launch(bench.cli_argv(TINY_GRID), 120)
    spans = tmp_path / "spans.json"
    traced = bench.launch([sys.executable, str(BENCH / "tracer.py"), "--out", str(spans),
                           "--", *TINY_GRID], 120)
    assert plain["code"] == traced["code"] == 0
    assert traced["stdout"] == plain["stdout"]
    assert json.loads(spans.read_text())["metrics"]["certify.run_grid.calls"] == 1


def test_grid_gate_counts_every_wrong_cell():
    ref = (bench.REFERENCE / "mseq-grid.json").read_bytes()
    cells = len(json.loads(ref))
    ok = {"code": 0, "stdout": ref, "stderr": b""}
    assert bench.grid_failures("mseq-grid", ok, ref) == []
    flipped = dict(ok, stdout=ref.replace(b'"pass":true}', b'"pass":false}', 1))
    assert len(bench.grid_failures("mseq-grid", flipped, ref)) == 1
    failed = dict(ok, code=1, stdout=b"")
    assert len(bench.grid_failures("mseq-grid", failed, ref)) == cells


def test_query_gate_rejects_a_wrong_answer():
    ctx = bimodule.build_context(Space(3, QQ), 4)
    query = [((2, 1, 3, 4), (1, 2, 3, 1))]
    _, _, answers = bench.nf_session(ctx, query)
    assert bench.nf_failures(ctx, query, answers) == []
    wrong = tuple(-x for x in answers[0])
    assert len(bench.nf_failures(ctx, query, [wrong])) == 1
    assert len(bench.nf_failures(ctx, query, [ValueError("boom")])) == 1


def test_calibration_scales_to_the_reference_probe_time():
    ref = calibrate.PROBE_REF_S
    assert calibrate.factor([ref, ref]) == 1.0
    assert calibrate.factor([2 * ref, 4 * ref]) == 1 / 3  # a slow core shrinks raw times
    with calibrate.Meter() as meter:
        mark = meter.mark()
        while meter.mark() - mark < 2:
            calibrate.probe()
        assert meter.factor_since(mark) > 0
        assert meter.factor_since(meter.mark() + 1) > 0  # empty interval: one probe now
    assert not meter._thread.is_alive()


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(tracer.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nf-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
