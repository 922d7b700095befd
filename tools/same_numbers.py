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
* a fitted risk and a relative-efficacy query at marker 12 on that
  Scenario I trial, whose largest marker is 12.47: the folds' supports
  clip the kernel window at two different ends, so its parts take two
  quadrature rules;
* both estimators at n = 2000 with a fitted ``[1, b, x1]`` propensity and
  with a known propensity of 0.4;
* both estimators at n = 1000 with every model's spec holding squares and
  interactions of its role columns, so every term kind is fit and read on
  the grid;
* both estimators on a 2,000-row Scenario I draw (seed 71) whose y is
  replaced by a continuous outcome, 4.5 + 0.5 x2 + 2 x3 - 0.2 s - a - 0.3 b
  plus N(0, 1) noise (seed 72), built with ``outcome_kind="continuous"``, so
  the outcome is fit by least squares;
* one ``estimate_stwcr`` on 40,000 Scenario II rows, whose folds are fit on
  threads;
* both estimators on 100,000 Scenario II rows, whose five folds a query's
  batch call takes in two groups of rows, fitted and with the true
  nuisances injected, whose one part of every row is cut into groups too;
* ``compute_truths`` on Scenarios I-III;
* ``run_monte_carlo`` rows for a risk and a relative-efficacy query, on one
  process and on two;
* the CLI reports of ``estimate-stwcr`` (default and
  ``--known-propensity 0.4``), ``estimate-stwcrve`` and
  ``simulate --threads 2`` on an emitted 40,000-row Scenario I trial, of
  ``estimate-stwcr`` and ``estimate-stwcrve`` on an emitted 60,000-row
  Scenario II one, and of ``estimate-stwcr --outcome-kind continuous`` on
  the continuous-outcome draw above, written as CSV, without their
  ``timestamp``. On more than one CPU the CLI parses the two emitted files
  in parts on forked processes.

The trial CSVs are written as ``trial.csv``, ``trial-ii.csv`` and
``trial-continuous.csv`` in a temporary working directory, so the reports'
``input`` key is the same on every run.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

from stwcr import cli, estimators
from stwcr.core import SmoothingParams
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.estimators import ModelSpecs, make_folds
from stwcr.nuisance import Dataset, FeatureSpec, interaction, intercept, raw, square
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


def clipped():
    data = gen_dataset(ScenarioSpec("I", 1000, 11))
    folds = make_folds(len(data), 5, 12)
    for q in (StwcrQuery(1, 12.0), StwcrveQuery(1, 0, 12.0, 7.0)):
        print("clipped window", q, estimate(data, q, folds))


def propensities():
    data = gen_dataset(ScenarioSpec("I", 2000, 21))
    folds = make_folds(len(data), 5, 22)
    for propensity in (FeatureSpec([intercept(), raw("b"), raw("x1")]), 0.4):
        specs = ModelSpecs(propensity=propensity)
        for q in (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)):
            print("propensity", propensity, q, estimate(data, q, folds, model_specs=specs))


def feature_terms():
    data = gen_dataset(ScenarioSpec("I", 1000, 51))
    folds = make_folds(len(data), 5, 52)
    specs = ModelSpecs(
        propensity=FeatureSpec([intercept(), square("b"), interaction("b", "x1")]),
        cond_density_spec=FeatureSpec([intercept(), raw("b"), raw("a"), square("b"),
                                       interaction("a", "x2"), square("x2")]),
        outcome_spec=FeatureSpec([intercept(), raw("s"), raw("a"), interaction("a", "s"),
                                  square("s"), interaction("b", "x3"), raw("x2")]))
    for q in (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)):
        print("feature terms", q, estimate(data, q, folds, model_specs=specs))


def continuous_trial():
    """The 2,000-row Scenario I draw with a continuous y: a linear outcome in
    the simulation's outcome terms (1, x2, x3, s, a, b) plus N(0, 1) noise."""
    data = gen_dataset(ScenarioSpec("I", 2000, 71))
    x2, x3 = data.x[:, 1], data.x[:, 2]
    y = (4.5 + 0.5 * x2 + 2.0 * x3 - 0.2 * data.s - 1.0 * data.a - 0.3 * data.b
         + np.random.default_rng(72).standard_normal(len(data)))
    return Dataset(y=y, a=data.a, s=data.s, b=data.b, x=data.x,
                   covariate_names=data.covariate_names, outcome_kind="continuous")


def continuous():
    data = continuous_trial()
    folds = make_folds(len(data), 5, 73)
    for q in (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)):
        print("continuous outcome", q, estimate(data, q, folds))


def large():
    data = gen_dataset(ScenarioSpec("II", 40_000, 31))
    q = StwcrQuery(1, 9.0)
    print("large II", q, estimate(data, q, make_folds(len(data), 5, 32)))


def grouped():
    data = gen_dataset(ScenarioSpec("II", 100_000, 61))
    folds = make_folds(len(data), 5, 62)
    nuisances = true_nuisances("II")
    for q in (StwcrQuery(1, 9.0), StwcrveQuery(1, 0, 10.0, 9.0)):
        print("grouped II", q, estimate(data, q, folds))
        print("grouped II injected", q, estimate(data, q, folds, nuisances=nuisances))


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
        "estimate-stwcr II": ["--input", "trial-ii.csv", "--a", "1", "--s", "9", "--h", "0.1"],
        "estimate-stwcrve II": ["--input", "trial-ii.csv", "--a1", "1", "--a0", "0", "--s1", "9",
                                "--s0", "8", "--h0", "0.1", "--h1", "0.1"],
        "estimate-stwcr continuous": ["--input", "trial-continuous.csv", "--a", "1", "--s", "7",
                                      "--h", "0.1", "--outcome-kind", "continuous"],
    }
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for scenario, n, seed, out in (("I", 40_000, 5, "trial.csv"),
                                           ("II", 60_000, 8, "trial-ii.csv")):
                if cli.main(["emit-draws", "--scenario", scenario, "--n", str(n),
                             "--seed", str(seed), "--out", out]) != 0:
                    sys.exit("emit-draws failed")
            data = continuous_trial()
            # %.17g reads back as the same double, as emit-draws writes it
            np.savetxt("trial-continuous.csv",
                       np.column_stack([data.y, data.a, data.s, data.b, data.x]), fmt="%.17g",
                       delimiter=",", header=",".join(["y", "a", "s", "b", *data.covariate_names]),
                       comments="")
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
    for part in (sweeps, clipped, propensities, feature_terms, continuous, large, grouped, truths,
                 harness, cli_reports):
        part()
