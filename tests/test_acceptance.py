"""Acceptance suite: every release criterion, one test each, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. The Monte Carlo criteria use frozen master seeds; their
long-run values were verified to sit well inside each window, so the
frozen draws are representative rather than boundary cases.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from stwcr.core import SmoothingParams, smooth_indicator, smooth_indicator_deriv
from stwcr.eif import StwcrQuery, StwcrveQuery, eif_stwcr_batch, eif_stwcrve_batch
from stwcr.estimators import estimate_stwcr, estimate_stwcrve, make_folds
from stwcr.simulation import (
    ScenarioSpec,
    SimConfig,
    compute_truths,
    direct_plain_smoothed_risk,
    gen_dataset,
    oracle_estimand,
    run_monte_carlo,
    true_nuisances,
)

RISK_PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1)
VE_PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h0=0.1, h1=0.1)
BOTH_PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1)
ORACLE_MC = 2_000_000
N_JOBS = 4


def check(criterion: str, ok: bool, detail: str):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def scenario_I_risk_mc():
    config = SimConfig(
        scenario="I", n=1000, reps=300,
        queries=(StwcrQuery(1, 7.0), StwcrQuery(1, 10.0)),
        params=RISK_PARAMS, k_folds=5, master_seed=20260809,
        n_jobs=N_JOBS)
    start = time.monotonic()
    rows = run_monte_carlo(config)
    return rows, time.monotonic() - start


def test_criterion_01_scenario_I_s7_bias_and_coverage(scenario_I_risk_mc):
    rows, elapsed = scenario_I_risk_mc
    row = rows[0]
    ok = (abs(row.pct_bias) <= 3.0 and 0.91 <= row.coverage <= 0.98
          and elapsed <= 20 * 60)
    check("criterion 1: Scenario I, n=1000, STWCR(1,7), 300 reps", ok,
          f"pct_bias={row.pct_bias:+.2f}% (|.|<=3), coverage={100*row.coverage:.1f}% "
          f"(in [91,98]), elapsed={elapsed:.0f}s (<=1200s)")


def test_criterion_02_scenario_I_s10_boundary_degradation(scenario_I_risk_mc):
    rows, _ = scenario_I_risk_mc
    row7, row10 = rows
    ok = 0.84 <= row10.coverage <= 0.93 and row10.coverage < row7.coverage
    check("criterion 2: Scenario I, n=1000, STWCR(1,10), 300 reps", ok,
          f"coverage={100*row10.coverage:.1f}% (in [84,93]) "
          f"< s=7 coverage {100*row7.coverage:.1f}%")


def test_criterion_03_scenario_I_relative_efficacy():
    config = SimConfig(
        scenario="I", n=2000, reps=200, queries=(StwcrveQuery(1, 0, 8.0, 7.0),),
        params=VE_PARAMS, k_folds=5, master_seed=20260811,
        n_jobs=N_JOBS)
    start = time.monotonic()
    row = run_monte_carlo(config)[0]
    elapsed = time.monotonic() - start
    ok = (abs(row.pct_bias) <= 5.0 and 0.91 <= row.coverage <= 0.985
          and elapsed <= 45 * 60)
    check("criterion 3: Scenario I, n=2000, STWCRVE(1,0,8,7), 200 reps", ok,
          f"pct_bias={row.pct_bias:+.2f}% (|.|<=5), coverage={100*row.coverage:.1f}% "
          f"(in [91,98.5]), elapsed={elapsed:.0f}s (<=2700s)")


def test_criterion_04_scenario_II_s9_coverage():
    config = SimConfig(
        scenario="II", n=1000, reps=300, queries=(StwcrQuery(1, 9.0),),
        params=RISK_PARAMS, k_folds=5, master_seed=202,
        n_jobs=N_JOBS)
    row = run_monte_carlo(config)[0]
    ok = 0.875 <= row.coverage <= 0.95
    check("criterion 4: Scenario II, n=1000, STWCR(1,9), 300 reps", ok,
          f"coverage={100*row.coverage:.1f}% (in [87.5,95]), pct_bias={row.pct_bias:+.2f}%")


def test_criterion_05_mean_zero_identities():
    n = 200_000
    results = []
    for scenario in ("I", "II"):
        data = gen_dataset(ScenarioSpec(scenario, n, 2025))
        nuis = true_nuisances(scenario)
        risk_q = StwcrQuery(1, 7.0)
        ve_q = StwcrveQuery(1, 0, 8.0, 7.0)
        risk_truth, ve_truth = compute_truths(scenario, (risk_q, ve_q), BOTH_PARAMS)
        num, den, _ = eif_stwcr_batch(data.y, data.a, data.s, data.b, data.x,
                                      risk_q, nuis, BOTH_PARAMS)
        vnum, vden, _ = eif_stwcrve_batch(data.y, data.a, data.s, data.b, data.x,
                                          ve_q, nuis, BOTH_PARAMS)
        for label, vals, target in (
                ("risk num", num, risk_truth["num"]), ("risk den", den, risk_truth["den"]),
                ("rve num", vnum, ve_truth["num"]), ("rve den", vden, ve_truth["den"])):
            tol = 4.0 * vals.std(ddof=1) / math.sqrt(n)
            diff = abs(float(vals.mean()) - target)
            results.append((f"{scenario}/{label}", diff, tol, diff < tol))
    ok = all(r[3] for r in results)
    worst = max(results, key=lambda r: r[1] / r[2])
    check("criterion 5: mean-zero influence identities, N=200000", ok,
          f"all {len(results)} checks |mean-truth| < 4*sd/sqrt(N); "
          f"tightest margin {worst[0]}: {worst[1]:.2e} < {worst[2]:.2e}")


def test_criterion_06_symmetric_query_is_exact_zero():
    data = gen_dataset(ScenarioSpec("I", 600, 12))
    fitted = estimate_stwcrve(data, StwcrveQuery(1, 1, 7.5, 7.5), VE_PARAMS,
                              make_folds(600, 5, 2))
    oracle = estimate_stwcrve(data, StwcrveQuery(0, 0, 6.5, 6.5), VE_PARAMS,
                              make_folds(600, 5, 3), nuisances=true_nuisances("I"))
    ok = abs(fitted.delta_hat) < 1e-12 and abs(oracle.delta_hat) < 1e-12
    check("criterion 6: symmetric relative-efficacy query gives delta=0", ok,
          f"|delta| = {abs(fitted.delta_hat):.2e} (fitted), {abs(oracle.delta_hat):.2e} (oracle)")


def test_criterion_07_partition_invariance_bitwise():
    data = gen_dataset(ScenarioSpec("I", 1000, 13))
    nuis = true_nuisances("I")
    risk = [estimate_stwcr(data, StwcrQuery(1, 7.0), RISK_PARAMS,
                           make_folds(1000, 5, seed), nuisances=nuis).tau_hat
            for seed in range(5)]
    rve = [estimate_stwcrve(data, StwcrveQuery(1, 0, 8.0, 7.0), VE_PARAMS,
                            make_folds(1000, 5, seed), nuisances=nuis).delta_hat
           for seed in range(5)]
    ok = len(set(risk)) == 1 and len(set(rve)) == 1
    check("criterion 7: oracle-nuisance estimates fold-seed invariant", ok,
          f"5 fold seeds -> tau {risk[0]:.12f}, delta {rve[0]:.12f}, bit-identical={ok}")


def test_criterion_08_indicator_derivative_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    worst = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.05, 0.5))
        eps = float(rng.uniform(0.05, 0.5))
        p = max(0.0, t + eps * float(rng.uniform(-3, 3)))
        fd = (smooth_indicator(p + step, t, eps)
              - smooth_indicator(p - step, t, eps)) / (2 * step)
        an = smooth_indicator_deriv(p, t, eps)
        worst = max(worst, abs(fd - an) / an)
    check("criterion 8: smoothed-indicator derivative vs finite differences",
          worst < 1e-5, f"100 random points, max rel err {worst:.2e} < 1e-5")


def test_criterion_09_quadrature_stability():
    data = gen_dataset(ScenarioSpec("I", 1000, 14))
    nuis = true_nuisances("I")
    risk_q, ve_q = StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)

    def components(params):
        rn, rd, _ = eif_stwcr_batch(data.y, data.a, data.s, data.b, data.x,
                                    risk_q, nuis, params)
        vn, vd, _ = eif_stwcrve_batch(data.y, data.a, data.s, data.b, data.x,
                                      ve_q, nuis, params)
        return (rn, rd, vn, vd)

    base = components(BOTH_PARAMS)
    doubled = components(replace(BOTH_PARAMS, quad_nodes=128))
    win6 = components(replace(BOTH_PARAMS, window_halfwidth_in_h=6.0))
    win10 = components(replace(BOTH_PARAMS, window_halfwidth_in_h=10.0))
    worst = 0.0
    for pair in (zip(base, doubled), zip(win6, win10)):
        for a, b in pair:
            scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
            worst = max(worst, float(np.max(np.abs(a - b)) / scale))
    check("criterion 9: quadrature/window stability of influence values",
          worst < 1e-6, f"max relative change {worst:.2e} < 1e-6 over 1000 observations")


def test_criterion_10_oracle_self_consistency_and_trim_off():
    a = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), RISK_PARAMS,
                        mc_size=ORACLE_MC, seed=41)
    b = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), RISK_PARAMS,
                        mc_size=ORACLE_MC, seed=42)
    self_gap = abs(a.ratio - b.ratio)
    self_tol = 4 * math.hypot(a.mc_se, b.mc_se)

    trim_off = SmoothingParams(t=1e-9, epsilon=1e-4, h=0.1)
    orc = oracle_estimand("stwcr", "I", StwcrQuery(1, 8.0), trim_off,
                          mc_size=1_000_000, seed=31)
    direct, dse = direct_plain_smoothed_risk("I", 1, 8.0, 0.1, mc_size=1_000_000, seed=77)
    off_gap = abs(orc.ratio - direct)
    off_tol = 3 * math.hypot(orc.mc_se, dse)

    ok = self_gap < self_tol and off_gap < off_tol
    check("criterion 10: oracle self-consistency and trim-off cross-check", ok,
          f"two-seed gap {self_gap:.2e} < {self_tol:.2e}; "
          f"trim-off vs direct {off_gap:.2e} < {off_tol:.2e}")


def test_criterion_11_nuisance_recovery_at_scale():
    from stwcr.estimators import ModelSpecs
    from stwcr.nuisance import fit_cond_density, fit_outcome

    data = gen_dataset(ScenarioSpec("I", 100_000, 31))
    specs = ModelSpecs().for_dataset(data)
    cond = fit_cond_density(data, specs.cond_density_spec)
    outc = fit_outcome(data, specs.outcome_spec)
    cond_targets = {"(intercept)": 4.0, "b": 1.0, "a": 1.0, "x1": -0.5, "x2^2": 1.0}
    outc_targets = {"(intercept)": 1.5, "x2": 0.5, "x3": 2.0, "s": -0.2, "a": -1.0, "b": -0.3}
    errs = []
    for model, targets in ((cond, cond_targets), (outc, outc_targets)):
        fitted = dict(zip(model.spec.names(), model.coef))
        errs.extend(abs(fitted[k] - v) for k, v in targets.items())
    worst = max(errs)
    check("criterion 11: nuisance coefficient recovery at n=100000",
          worst < 0.1, f"max |coef error| {worst:.4f} < 0.1 over {len(errs)} coefficients")


def test_criterion_12_interval_duality():
    data = gen_dataset(ScenarioSpec("I", 800, 15))
    rep = estimate_stwcrve(data, StwcrveQuery(1, 0, 8.0, 7.0), VE_PARAMS,
                           make_folds(800, 5, 1))
    ok = rep.ci_delta == (1.0 - rep.ci_rho[1], 1.0 - rep.ci_rho[0])
    check("criterion 12: efficacy interval is the reflected ratio interval", ok,
          f"ci_delta={rep.ci_delta}, ci_rho={rep.ci_rho}, exact={ok}")
