"""Print a fixed set of estimates, truths and CLI reports, for a same-numbers check.

A change that should leave every number as it was runs this script on the
parent's source and on its own, and compares the two outputs byte for byte:

    PYTHONPATH=<parent checkout>/src python tools/same_numbers.py > parent.txt
    PYTHONPATH=src python tools/same_numbers.py > change.txt
    cmp parent.txt change.txt

It pins no number itself. It prints:

* two rounds of 25 sweep queries (20 risk markers, 4 relative-efficacy
  markers and one symmetric query) on a 1,000-row Scenario I trial (seed
  11, folds seed 12) and a Scenario II one (seed 5, folds seed 3), with
  fitted nuisances and with the true nuisances injected;
* both estimators at n = 2000 with a fitted ``[1, b, x1]`` propensity and
  with a known propensity of 0.4;
* one ``estimate_stwcr`` on 40,000 Scenario II rows, whose folds are fit on
  threads;
* ``compute_truths`` on Scenarios I-III;
* ``run_monte_carlo`` rows for a risk and a relative-efficacy query, on one
  process and on two;
* the CLI reports of ``estimate-stwcr`` (default and
  ``--known-propensity 0.4``), ``estimate-stwcrve`` and
  ``simulate --threads 2`` on an emitted 40,000-row trial, without their
  ``timestamp``.

The trial CSV is written as ``trial.csv`` in a temporary working directory,
so the reports' ``input`` key is the same on every run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from stwcr import cli, estimators
from stwcr.core import SmoothingParams
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.estimators import ModelSpecs, make_folds
from stwcr.nuisance import FeatureSpec, intercept, raw
from stwcr.simulation import (
    ScenarioSpec,
    SimConfig,
    compute_truths,
    gen_dataset,
    run_monte_carlo,
    true_nuisances,
)

PARAMS = SmoothingParams(h=0.1, h0=0.1, h1=0.1)
SWEEP = ([StwcrQuery(1, 5.0 + 0.35 * k) for k in range(20)]
         + [StwcrveQuery(1, 0, s1, 7.0) for s1 in (6.0, 8.0, 9.0, 10.0)]
         + [StwcrveQuery(1, 1, 7.0, 7.0)])


def estimate(data, q, folds, **kwargs):
    return getattr(estimators, f"estimate_{q.kind}")(data, q, PARAMS, folds, **kwargs)


def sweeps():
    for scenario, seed, fold_seed in (("I", 11, 12), ("II", 5, 3)):
        data = gen_dataset(ScenarioSpec(scenario, 1000, seed))
        folds = make_folds(len(data), 5, fold_seed)
        for rnd in (1, 2):
            for q in SWEEP:
                print(f"sweep {scenario} round {rnd} fitted", q, estimate(data, q, folds))
        nuisances = true_nuisances(scenario)
        for q in SWEEP:
            print(f"sweep {scenario} injected", q, estimate(data, q, folds, nuisances=nuisances))


def propensities():
    data = gen_dataset(ScenarioSpec("I", 2000, 21))
    folds = make_folds(len(data), 5, 22)
    for propensity in (FeatureSpec([intercept(), raw("b"), raw("x1")]), 0.4):
        specs = ModelSpecs(propensity=propensity)
        for q in (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)):
            print("propensity", propensity, q, estimate(data, q, folds, model_specs=specs))


def large():
    data = gen_dataset(ScenarioSpec("II", 40_000, 31))
    q = StwcrQuery(1, 9.0)
    print("large II", q, estimate(data, q, make_folds(len(data), 5, 32)))


def truths():
    queries = (StwcrQuery(1, 7.0), StwcrQuery(0, 9.0), StwcrveQuery(1, 0, 8.0, 7.0))
    for scenario in ("I", "II", "III"):
        print("truths", scenario, compute_truths(scenario, queries, PARAMS))


def harness():
    queries = (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0))
    for n_jobs in (1, 2):
        config = SimConfig("I", 300, 6, queries, PARAMS, master_seed=41, n_jobs=n_jobs)
        for row in run_monte_carlo(config):
            print(f"run_monte_carlo n_jobs={n_jobs}", row)


def cli_reports():
    runs = {
        "estimate-stwcr": ["--input", "trial.csv", "--a", "1", "--s", "7", "--h", "0.1"],
        "estimate-stwcr known 0.4": ["--input", "trial.csv", "--a", "1", "--s", "7",
                                     "--h", "0.1", "--known-propensity", "0.4"],
        "estimate-stwcrve": ["--input", "trial.csv", "--a1", "1", "--a0", "0", "--s1", "8",
                             "--s0", "7", "--h0", "0.1", "--h1", "0.1"],
        "simulate": ["--scenario", "I", "--n", "300", "--reps", "6", "--query", "stwcr:1:7",
                     "--query", "stwcrve:1:0:8:7", "--h", "0.1", "--h0", "0.1", "--h1", "0.1",
                     "--format", "json", "--threads", "2"],
    }
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if cli.main(["emit-draws", "--scenario", "I", "--n", "40000", "--seed", "5",
                         "--out", "trial.csv"]) != 0:
                sys.exit("emit-draws failed")
            for label, args in runs.items():
                status = cli.main([label.split()[0], *args, "--out", "out.json"])
                if status != 0:
                    sys.exit(f"{label} exited {status}")
                with open("out.json", encoding="utf-8") as out:
                    report = json.load(out)
                if isinstance(report, dict):
                    report.pop("timestamp")
                print("cli", label, json.dumps(report, sort_keys=True))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    for part in (sweeps, propensities, large, truths, harness, cli_reports):
        part()
