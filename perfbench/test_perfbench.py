"""Tests of the benchmark itself: tiny smoke runs and the output checks.

Run with ``python3 -m pytest -q perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run as bench
import tracer
import workload
import yardstick

BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(name, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH_DIR / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("name", bench.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_run_prints_every_metric_and_fails_nothing(name, trace):
    result, table = _run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == 0.0
    else:
        assert any(line.split()[:3] == ["fail_ratio", "0", "ratio"] for line in table)


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_traced_self_times_never_exceed_their_operation(name):
    _run(name, 1)
    path = bench.WORK / name / "spans.jsonl"
    spans = [tuple(json.loads(line)) for line in path.read_text(encoding="utf-8").splitlines()]
    own = tracer.self_times(spans)
    op_wall = {s[3]: s[5] - s[4] for s in spans if s[2] == "op"}
    assert op_wall
    for span in spans:
        assert own[span[0]] >= 0.0
        assert own[span[0]] <= op_wall[span[3]] + 1e-9, span


def test_self_time_subtracts_the_union_of_children():
    spans = [("p.0", None, "op", "t-0", 0.0, 10.0, 1, {}),
             ("w.1", "p.0", "a", "t-0", 1.0, 6.0, 2, {}),
             ("w.2", "p.0", "a", "t-0", 4.0, 8.0, 3, {}),  # overlaps w.1, as pool workers do
             ("w.3", "w.2", "b", "t-0", 5.0, 7.0, 3, {})]
    own = tracer.self_times(spans)
    assert own == {"p.0": 3.0, "w.1": 5.0, "w.2": 2.0, "w.3": 2.0}


def test_yardstick_divides_by_the_median_factor_around_each_segment():
    stick = yardstick.Yardstick()
    stick.factors = [1.0, 3.0, 1.0, 1.0, 1.0, 1.0]  # one disturbed boundary
    # Segment k lies between boundaries k and k + 1; its factor is the
    # median over boundaries k - 1 .. k + 2.
    assert [stick.segment_factor(k) for k in range(5)] == [1.0, 1.0, 1.0, 1.0, 1.0]
    stick.factors = [2.0, 2.0, 2.0]
    assert stick.adjust([1.0, 3.0], [0, 1]) == [0.5, 1.5]
    assert 0.1 < yardstick.block() < 10.0


def _tally_of(checker, label, outputs):
    tally = workload.Tally(checker, "t")
    for out in outputs:
        tally.record(label, out)
    return tally


def test_corrupted_outputs_count_as_failures():
    csv = workload.CsvEstimate.__new__(workload.CsvEstimate)
    csv.truth, csv.truth_se = 0.3, 0.001
    good = {"tau_hat": 0.3, "se": 0.01, "ci": [0.28, 0.32], "timestamp": "a"}
    assert _tally_of(csv, "estimate-stwcr", [good, dict(good, timestamp="b")]).failed == 0
    nan = dict(good, tau_hat=float("nan"))
    far = dict(good, tau_hat=0.5, ci=[0.48, 0.52])
    changed = dict(good, se=0.011)
    assert _tally_of(csv, "estimate-stwcr", [good, nan, far, changed]).failed == 3

    sweep = workload.Sweep.__new__(workload.Sweep)
    sym = SimpleNamespace(delta_hat=0.0, ci_delta=(-0.1, 0.1))
    assert _tally_of(sweep, "stwcrve:1:1:7:7", [sym]).failed == 0
    assert _tally_of(sweep, "stwcrve:1:1:7:7", [SimpleNamespace(delta_hat=1e-17, ci_delta=(-0.1, 0.1))]).failed == 1
    nan_risk = SimpleNamespace(tau_hat=float("nan"), ci=(0.1, 0.2))
    assert _tally_of(sweep, "stwcr:1:7.00", [nan_risk]).failed == 1

    sim = workload.SimulateI.__new__(workload.SimulateI)
    sim.reps = 200
    row = {"truth": 0.4, "mean_estimate": 0.41, "pct_bias": 1.0, "coverage": 0.95,
           "mean_se": 0.07, "reps": 200, "failed": 0}
    assert _tally_of(sim, "simulate", [[row], [row]]).failed == 0
    bad = [[dict(row, coverage=float("nan"))], [dict(row, failed=11, reps=189)]]
    tally = _tally_of(sim, "simulate", bad)
    assert tally.failed == 2 and tally.reps_failed == 11 and tally.reps_attempted == 400


def test_missing_package_exits_nonzero_without_a_result():
    bare = bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bench_copy = bare / "perfbench"
    bench_copy.mkdir(parents=True)
    for path in bench.BENCH_DIR.glob("*.py"):
        (bench_copy / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(bench_copy / "run.py"), "--workload", "sweep-1k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed():
    a, b, c = (bench.draw_trial(seed, 500, "II") for seed in (7, 7, 8))
    assert all((a[k] == b[k]).all() for k in a)
    assert not (a["s"] == c["s"]).all()
    folds = bench.balanced_folds(1, 1003, 5)
    assert sorted(set(folds.tolist())) == [1, 2, 3, 4, 5]
    sizes = [int((folds == k).sum()) for k in range(1, 6)]
    assert max(sizes) - min(sizes) <= 1
