"""One benchmark workload, run as a closed loop in its own process.

``run.py`` writes the inputs and a JSON config, then starts this script
with the config path. Running apart from ``run.py`` keeps input
generation and the oracle truth out of this process's peak RSS. The loop
has one caller: each operation starts when the previous one has ended,
and whole rounds run until ``seconds`` have passed (at least one round).
Outputs are read and checked outside the timed calls. Between rounds the
host-speed yardstick (``yardstick.py``) runs, and each operation's wall
time is divided by the speed factor measured around it.

Usage: python3 perfbench/workload.py <config.json>
"""

from __future__ import annotations

import json
import math
import resource
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter

from yardstick import EVERY_S, Yardstick

# |tau_hat - truth| may be at most this many combined standard errors
# (estimate SE and oracle Monte Carlo SE) on csv-estimate-200k. Over 25
# seeds of the seed commit the z-scores had SD 1.2 and max |z| 2.8, so 4
# would fail a correct estimate too often.
TRUTH_SES = 5.0
# simulate-I tolerates this share of failed replications per query, as
# the harness itself does.
MAX_FAILED_REP_SHARE = 0.05

SWEEP_STWCR_S = tuple(5.0 + 0.35 * k for k in range(20))
SWEEP_STWCRVE_S1 = (6.0, 8.0, 9.0, 10.0)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


class CliWorkload:
    """Operations that are in-process ``stwcr.cli.main`` calls writing ``out``."""

    def __init__(self, cfg, wrap):
        import stwcr.cli

        self.out = Path(cfg["work"]) / "out.json"
        self.main = wrap(stwcr.cli.main, "cli.main")
        self.ops = [(self.label, self._op)]

    def _op(self):
        code = self.main(self.argv)
        if code != 0:
            raise RuntimeError(f"stwcr exited with code {code}")
        return code

    def output(self, label, value):
        return json.loads(self.out.read_text(encoding="utf-8"))


class CsvEstimate(CliWorkload):
    """estimate-stwcr on a 200k-row Scenario II CSV, one query per file."""

    label = "estimate-stwcr"

    def __init__(self, cfg, wrap):
        super().__init__(cfg, wrap)
        self.argv = ["estimate-stwcr", "--input", cfg["csv"], "--a", "1", "--s", "9",
                     "--h", "0.1", "--out", str(self.out)]
        self.truth, self.truth_se = cfg["truth"], cfg["truth_mc_se"]

    def problems(self, label, rep, reference):
        out = []
        ci = rep.get("ci") or [math.nan, math.nan]
        if not _finite(rep.get("tau_hat"), rep.get("se"), *ci):
            return [f"non-finite estimate: tau_hat={rep.get('tau_hat')} se={rep.get('se')} ci={ci}"]
        if not ci[0] <= rep["tau_hat"] <= ci[1]:
            out.append(f"CI {ci} does not bracket tau_hat={rep['tau_hat']}")
        tol = TRUTH_SES * math.hypot(rep["se"], self.truth_se)
        if abs(rep["tau_hat"] - self.truth) > tol:
            out.append(f"tau_hat={rep['tau_hat']} is more than {TRUTH_SES} SEs from truth {self.truth}")
        strip = lambda r: {k: v for k, v in r.items() if k != "timestamp"}  # noqa: E731
        if reference is not None and strip(rep) != strip(reference):
            out.append("report differs from the first report of the run")
        return out


class SimulateI(CliWorkload):
    """simulate on Scenario I, truth included, over a 2-process pool."""

    label = "simulate"

    def __init__(self, cfg, wrap):
        super().__init__(cfg, wrap)
        self.reps = cfg["reps"]
        self.argv = ["simulate", "--scenario", "I", "--n", str(cfg["n"]), "--reps", str(self.reps),
                     "--query", "stwcr:1:7", "--h", "0.1", "--seed", str(cfg["seed"]),
                     "--threads", str(cfg["workers"]), "--format", "json", "--out", str(self.out)]

    def problems(self, label, rows, reference):
        out = []
        for row in rows:
            nums = [row.get(k) for k in ("truth", "mean_estimate", "pct_bias", "coverage", "mean_se")]
            if not _finite(*nums):
                out.append(f"non-finite value in row {row}")
                continue
            if row["failed"] > MAX_FAILED_REP_SHARE * self.reps:
                out.append(f"{row['failed']} of {self.reps} replications failed")
            if not 0.0 <= row["coverage"] <= 1.0:
                out.append(f"coverage {row['coverage']} outside [0, 1]")
        if reference is not None and rows != reference:
            out.append("metrics differ from the first run of the same seed")
        return out

    def replications(self, rows):
        """(attempted, failed) replications behind one output."""
        return self.reps * len(rows), sum(int(r.get("failed", 0)) for r in rows)


class Sweep:
    """25 in-memory queries on one Scenario I dataset with fixed folds."""

    def __init__(self, cfg, wrap):
        import numpy as np
        from stwcr.core import SmoothingParams
        from stwcr.eif import StwcrQuery, StwcrveQuery
        from stwcr.estimators import FoldAssignment, estimate_stwcr, estimate_stwcrve
        from stwcr.nuisance import Dataset

        with np.load(cfg["npz"]) as z:
            data = Dataset(y=z["y"], a=z["a"], s=z["s"], b=z["b"], x=z["x"],
                           covariate_names=("x1", "x2", "x3"), outcome_kind="binary")
            folds = FoldAssignment(k_folds=5, labels=z["folds"])
        params = SmoothingParams(h=0.1, h0=0.1, h1=0.1)
        risk = wrap(estimate_stwcr, "estimators.estimate")
        ve = wrap(estimate_stwcrve, "estimators.estimate")
        self.ops = []
        for s in SWEEP_STWCR_S:
            q = StwcrQuery(a=1, s=s)
            self.ops.append((f"stwcr:1:{s:.2f}", lambda q=q: risk(data, q, params, folds)))
        for s1 in SWEEP_STWCRVE_S1:
            q = StwcrveQuery(a1=1, a0=0, s1=s1, s0=7.0)
            self.ops.append((f"stwcrve:1:0:{s1:g}:7", lambda q=q: ve(data, q, params, folds)))
        q = StwcrveQuery(a1=1, a0=1, s1=7.0, s0=7.0)
        self.ops.append(("stwcrve:1:1:7:7", lambda q=q: ve(data, q, params, folds)))

    def output(self, label, report):
        return report

    def problems(self, label, rep, reference):
        out = []
        if hasattr(rep, "delta_hat"):
            value, ci = rep.delta_hat, rep.ci_delta
        else:
            value, ci = rep.tau_hat, rep.ci
        if not _finite(value, *ci):
            return [f"{label}: non-finite estimate {value} or CI {ci}"]
        if not ci[0] <= value <= ci[1]:
            out.append(f"{label}: CI {ci} does not bracket {value}")
        if label == "stwcrve:1:1:7:7" and rep.delta_hat != 0.0:
            out.append(f"{label}: symmetric query gave delta_hat={rep.delta_hat!r}, not 0.0")
        if reference is not None and repr(rep) != repr(reference):
            out.append(f"{label}: report differs from the first sweep")
        return out


WORKLOADS = {"csv-estimate-200k": CsvEstimate, "sweep-1k": Sweep, "simulate-I": SimulateI}


class Tally:
    """Operation times, outputs and failures of one phase of a run."""

    def __init__(self, workload, name):
        self.workload = workload
        self.name = name
        self.times = []
        self.segments = []
        self.elapsed = 0.0
        self.attempted = 0
        self.failed = 0
        self.reps_attempted = 0
        self.reps_failed = 0
        self.problems = []
        self.references = {}

    def op_ids(self):
        return {f"{self.name}-{i}" for i in range(len(self.times))}

    def record(self, label, output):
        """Check one operation's output; an output that fails counts once."""
        found = self.workload.problems(label, output, self.references.get(label))
        self.references.setdefault(label, output)
        if hasattr(self.workload, "replications"):
            attempted, failed = self.workload.replications(output)
            self.reps_attempted += attempted
            self.reps_failed += failed
        if found:
            self.failed += 1
            self.problems.extend(found)

    def fail(self, label, exc):
        self.failed += 1
        self.problems.append(f"{label}: {type(exc).__name__}: {exc}")

    def summary(self):
        return {"ops": len(self.times), "elapsed": self.elapsed, "attempted": self.attempted,
                "failed": self.failed, "reps_attempted": self.reps_attempted,
                "reps_failed": self.reps_failed, "problems": self.problems[:20]}


def closed_loop(workload, seconds, tally, tracer=None, rounds=None, yardstick=None):
    """Run whole rounds of ``workload.ops``: ``rounds`` of them, or until
    ``seconds`` have passed (at least one). With a ``yardstick``, its
    boundaries come first, last, and between rounds at most every
    ``EVERY_S``; ``tally.segments`` maps each operation to the
    boundary before it."""
    start = perf_counter()
    done = 0
    if yardstick is not None:
        yardstick.boundary(0.0)
        since = perf_counter()

    def finished():
        if rounds is not None:
            return done >= rounds
        return done > 0 and perf_counter() - start >= seconds

    while True:
        for label, op in workload.ops:
            if tracer is not None:
                tracer.op = f"{tally.name}-{len(tally.times)}"
            tally.attempted += 1
            if yardstick is not None:
                tally.segments.append(yardstick.segment)
            t0 = perf_counter()
            try:
                value = op()
            except Exception as exc:  # a failed operation is counted, not fatal
                tally.times.append(perf_counter() - t0)
                tally.fail(label, exc)
                traceback.print_exc(file=sys.stderr)
                continue
            tally.times.append(perf_counter() - t0)
            if tracer is not None:
                tracer.collect_workers()
            try:
                output = workload.output(label, value)
            except (OSError, ValueError) as exc:  # missing or unreadable output file
                tally.fail(label, exc)
                continue
            tally.record(label, output)
        done += 1
        over = finished()
        if yardstick is not None and (over or perf_counter() - since >= EVERY_S):
            yardstick.boundary(perf_counter() - since)
            since = perf_counter()
        if over:
            break
    tally.elapsed = perf_counter() - start
    return tally


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # ru_maxrss is in KiB on Linux


def _untraced(fn, name):
    return fn


def run(cfg):
    """Run the configured workload; returns the raw measurements."""
    cls = WORKLOADS[cfg["workload"]]
    workload = cls(cfg, _untraced)
    if cfg["warmup"]:
        closed_loop(workload, 0.0, Tally(workload, "warmup"), rounds=1)
    yardstick = Yardstick()
    if not cfg["trace"]:
        tally = closed_loop(workload, cfg["seconds"], Tally(workload, "untraced"), yardstick=yardstick)
        return {"times": yardstick.adjust(tally.times, tally.segments), "raw_times": tally.times,
                "segments": tally.segments, "factors": yardstick.factors,
                "tallies": [tally.summary()],
                "peak_rss_mb": _peak_rss_mb()}

    from tracer import Tracer, layer_metrics

    # The untraced and traced halves of one run give trace_overhead.
    untraced = closed_loop(workload, cfg["seconds"] / 2.0, Tally(workload, "untraced"),
                           yardstick=yardstick)
    tracer = Tracer(cfg["work"])
    tracer.install()
    traced_workload = cls(cfg, tracer.wrap)
    traced_workload.ops = [(label, tracer.wrap(op, "op")) for label, op in traced_workload.ops]
    # One round under tracemalloc gives peak allocations; its times are not used.
    tracemalloc.start()
    try:
        alloc = closed_loop(traced_workload, 0.0, Tally(traced_workload, "alloc"), tracer, rounds=1)
    finally:
        tracemalloc.stop()
    traced = closed_loop(traced_workload, cfg["seconds"] / 2.0, Tally(traced_workload, "traced"),
                         tracer, yardstick=yardstick)
    tracer.uninstall()
    tracer.write(Path(cfg["work"]) / "spans.jsonl")

    layers = layer_metrics(tracer.spans, traced.op_ids(), alloc.op_ids(), cfg.get("workers", 1))
    return {"times": yardstick.adjust(untraced.times, untraced.segments),
            "traced_times": yardstick.adjust(traced.times, traced.segments),
            "raw_times": untraced.times, "factors": yardstick.factors, "layers": layers,
            "absent": tracer.absent, "spans": len(tracer.spans),
            "tallies": [untraced.summary(), alloc.summary(), traced.summary()]}


def main(argv):
    cfg = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    from run import blas_threads, import_package

    import_package(cfg["src"])
    result = run(cfg)
    result["blas_threads"] = blas_threads()
    Path(cfg["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
