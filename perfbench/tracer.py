"""Span tracing for the traced benchmark mode, done from outside the package.

The tracer replaces public names in the namespaces of the modules that
call them (``stwcr.estimators.fit_outcome`` is wrapped where
``estimators`` looks it up, not inside ``nuisance``), so nothing under
``src/`` is instrumented. A name that a later refactor removes is
recorded as absent and its metrics read 0; the run goes on.

Spans are kept in memory as ``(id, parent, name, op, start, end, pid,
counts)`` and written out when the benchmark ends. Forked pool workers
inherit the wrappers; each worker dumps its own spans when it exits and
the parent merges them after every operation. ``perf_counter`` is the
system-wide monotonic clock on Linux, so worker and parent times compare
directly. Workers started with ``spawn`` or ``forkserver`` import the
package afresh and are not traced; their metrics then read 0 and the
replication numbers are parent-side only.
"""

from __future__ import annotations

import glob
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
import tracemalloc
from time import perf_counter

MB = 1024.0 * 1024.0

# Names whose peak traced allocation is recorded, during the one
# operation that runs under tracemalloc.
ALLOC_NAMES = ("cli.load_dataset", "eif.batch", "simulation.oracle")


class Call:
    """Arguments of one wrapped call, looked up by position or keyword."""

    def __init__(self, sig, args, kwargs):
        self.sig, self.args, self.kwargs = sig, args, kwargs

    def arg(self, index, name):
        if name in self.kwargs:
            return self.kwargs[name]
        if index < len(self.args):
            return self.args[index]
        return self.sig.parameters[name].default


def _rows(call, result):
    return {"rows": len(call.arg(0, "data"))}


def _eif_cells(call, result):
    rows = len(call.arg(0, "y"))
    params = call.arg(7, "params")
    arms = 2 if hasattr(call.arg(5, "q"), "a1") else 1
    return {"rows": rows, "cells": rows * int(params.quad_nodes) * arms}


def _oracle_cells(call, result):
    draws = int(call.arg(4, "mc_size"))
    arms = 1 if call.arg(0, "kind") == "stwcr" else 2
    return {"draws": draws, "cells": draws * int(call.arg(3, "params").quad_nodes) * arms}


def _indicator_elems(call, result):
    return {"elems": int(getattr(call.arg(0, "p"), "size", 1))}


def _loaded_rows(call, result):
    return {"rows": len(result)}


def _replications(call, result):
    return {"reps": int(call.arg(0, "config").reps),
            "failed": sum(int(row.failed) for row in result)}


# (module whose namespace is patched, attribute, span name, counter)
WRAPS = (
    ("stwcr.cli", "load_dataset", "cli.load_dataset", _loaded_rows),
    ("stwcr.cli", "estimate_stwcr", "estimators.estimate", None),
    ("stwcr.cli", "estimate_stwcrve", "estimators.estimate", None),
    ("stwcr.cli", "run_monte_carlo", "simulation.run_monte_carlo", _replications),
    ("stwcr.simulation", "compute_truths", "simulation.compute_truths", None),
    ("stwcr.simulation", "oracle_estimand", "simulation.oracle", _oracle_cells),
    ("stwcr.simulation", "gen_dataset", "simulation.gen_dataset", None),
    ("stwcr.simulation", "estimate_stwcr", "estimators.estimate", None),
    ("stwcr.simulation", "estimate_stwcrve", "estimators.estimate", None),
    ("stwcr.simulation", "smooth_indicator", "core.smooth_indicator", _indicator_elems),
    ("stwcr.simulation", "quad_rule", "core.quad_rule", None),
    ("stwcr.estimators", "fit_propensity", "nuisance.fit_propensity", _rows),
    ("stwcr.estimators", "fit_cond_density", "nuisance.fit_cond_density", _rows),
    ("stwcr.estimators", "fit_outcome", "nuisance.fit_outcome", _rows),
    ("stwcr.estimators", "eif_stwcr_batch", "eif.batch", _eif_cells),
    ("stwcr.estimators", "eif_stwcrve_batch", "eif.batch", _eif_cells),
    ("stwcr.nuisance", "irls_logistic", "nuisance.irls_logistic", None),
    ("stwcr.eif", "smooth_indicator", "core.smooth_indicator", _indicator_elems),
    ("stwcr.eif", "quad_rule", "core.quad_rule", None),
)


class Tracer:
    """Wraps callables so that each call leaves one span in memory."""

    def __init__(self, worker_dir):
        self.worker_dir = str(worker_dir)
        self.spans = []
        self.stack = []
        self.op = None
        self.pid = os.getpid()
        self.absent = []
        self._seq = itertools.count()
        self._restore = []

    def wrap(self, fn, name, counter=None):
        sig = inspect.signature(fn) if counter is not None else None
        track_alloc = name in ALLOC_NAMES
        tracer = self

        def traced(*args, **kwargs):
            sid = f"{tracer.pid}.{next(tracer._seq)}"
            parent = tracer.stack[-1] if tracer.stack else None
            alloc = track_alloc and tracemalloc.is_tracing()
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            tracer.stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                counts = {}
                if counter is not None and result is not None:
                    try:
                        counts = counter(Call(sig, args, kwargs), result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        counts = {}  # the call's shape changed; keep the span, drop the counts
                if alloc:
                    counts["peak_alloc_b"] = tracemalloc.get_traced_memory()[1] - base
                tracer.spans.append((sid, parent, name, tracer.op, start, end, tracer.pid, counts))

        return traced

    def install(self):
        for module_name, attr, name, counter in WRAPS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name, counter))
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def uninstall(self):
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore = []

    def _after_fork(self):
        # Runs in a multiprocessing child after its finalizer registry is
        # cleared, so the exit hook registered here survives.
        self.pid = os.getpid()
        self.spans = []
        multiprocessing.util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self):
        path = os.path.join(self.worker_dir, f"worker-{self.pid}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        os.replace(path + ".tmp", path)

    def collect_workers(self):
        """Merge the spans that exited workers dumped, and delete the dumps."""
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "worker-*.json"))):
            with open(path, "r", encoding="utf-8") as fh:
                self.spans.extend(tuple(s) for s in json.load(fh))
            os.remove(path)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= reach:
            continue
        s = max(s, reach)
        total += e - s
        reach = e
    return total


def self_times(spans):
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    return {span[0]: (span[5] - span[4]) - _covered(children.get(span[0], ()), span[4], span[5])
            for span in spans}


def layer_metrics(spans, ops, alloc_ops, n_workers):
    """Per-layer metrics from the spans of operations ``ops``.

    Times, calls, rows and cells are per-operation means. Peak
    allocations come from the spans of ``alloc_ops``, the operations run
    under tracemalloc, whose times are not used.
    """
    ops, alloc_ops = set(ops), set(alloc_ops)
    n_ops = max(len(ops), 1)
    own = self_times(spans)
    timed = [s for s in spans if s[3] in ops]
    by_name = {}
    for span in timed:
        by_name.setdefault(span[2], []).append(span)

    def total(name, key=None):
        group = by_name.get(name, ())
        if key is None:
            return sum(s[5] - s[4] for s in group)
        return sum(s[7].get(key, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        return sum(own[s[0]] for s in by_name.get(name, ()))

    def peak_mb(name):
        peaks = [s[7].get("peak_alloc_b", 0) for s in spans if s[3] in alloc_ops and s[2] == name]
        return max(peaks, default=0) / MB

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    fits = ("nuisance.fit_propensity", "nuisance.fit_cond_density", "nuisance.fit_outcome")
    truths_s = total("simulation.compute_truths")
    replications_s = total("simulation.run_monte_carlo") - truths_s
    # a worker's top-level spans are those whose parent lives in another process
    worker_busy = sum(s[5] - s[4] for s in timed
                      if s[1] is not None and str(s[6]) != s[1].split(".")[0])
    op_spans = by_name.get("op", ())
    metrics = {
        "cli.load_dataset.s": (total("cli.load_dataset") / n_ops, "s"),
        "cli.load_dataset.rows_per_s": (rate(total("cli.load_dataset", "rows"),
                                             total("cli.load_dataset")), "1/s"),
        "cli.load_dataset.peak_alloc_mb": (peak_mb("cli.load_dataset"), "MB"),
        "cli.main.self_s": (self_total("cli.main") / n_ops, "s"),
        "estimators.estimate.calls": (calls("estimators.estimate") / n_ops, "count"),
        "estimators.estimate.self_s": (self_total("estimators.estimate") / n_ops, "s"),
        "estimators.fits_per_query": (rate(calls("nuisance.fit_outcome"),
                                           calls("estimators.estimate")), "ratio"),
        "nuisance.fit_outcome.s": (total("nuisance.fit_outcome") / n_ops, "s"),
        "nuisance.fit_cond_density.s": (total("nuisance.fit_cond_density") / n_ops, "s"),
        "nuisance.fit_propensity.s": (total("nuisance.fit_propensity") / n_ops, "s"),
        "nuisance.fit.calls": (sum(calls(f) for f in fits) / n_ops, "count"),
        "nuisance.fit.rows": (sum(total(f, "rows") for f in fits) / n_ops, "count"),
        "nuisance.irls_logistic.calls": (calls("nuisance.irls_logistic") / n_ops, "count"),
        "eif.batch.s": (total("eif.batch") / n_ops, "s"),
        "eif.batch.calls": (calls("eif.batch") / n_ops, "count"),
        "eif.batch.rows": (total("eif.batch", "rows") / n_ops, "count"),
        "eif.grid_cells": (total("eif.batch", "cells") / n_ops, "count"),
        "eif.grid_bytes_computed": (8 * total("eif.batch", "cells") / n_ops, "B"),
        "eif.batch.peak_alloc_mb": (peak_mb("eif.batch"), "MB"),
        "core.smooth_indicator.s": (total("core.smooth_indicator") / n_ops, "s"),
        "core.smooth_indicator.elems": (total("core.smooth_indicator", "elems") / n_ops, "count"),
        "core.quad_rule.calls": (calls("core.quad_rule") / n_ops, "count"),
        "simulation.compute_truths.s": (truths_s / n_ops, "s"),
        "simulation.oracle.s": (total("simulation.oracle") / n_ops, "s"),
        "simulation.oracle.draws_per_s": (rate(total("simulation.oracle", "draws"),
                                               total("simulation.oracle")), "1/s"),
        "simulation.oracle.grid_cells": (total("simulation.oracle", "cells") / n_ops, "count"),
        "simulation.oracle.peak_alloc_mb": (peak_mb("simulation.oracle"), "MB"),
        "simulation.replications.s": (replications_s / n_ops, "s"),
        "simulation.reps_per_s": (rate(total("simulation.run_monte_carlo", "reps"),
                                       replications_s), "1/s"),
        "simulation.gen_dataset.s": (total("simulation.gen_dataset") / n_ops, "s"),
        "simulation.reps.failed": (total("simulation.run_monte_carlo", "failed") / n_ops, "count"),
        "simulation.pool_utilization": (rate(worker_busy, n_workers * replications_s), "ratio"),
        "op.unattributed_s": (sum(own[s[0]] for s in op_spans) / n_ops, "s"),
    }
    return metrics
