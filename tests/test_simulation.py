import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from stwcr import estimators, simulation
from stwcr.cli import load_dataset
from stwcr.core import (
    Interval,
    SmoothingParams,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    smooth_indicator,
    smooth_indicator_deriv,
)
from stwcr.eif import (
    NuisanceParts,
    StwcrQuery,
    StwcrveQuery,
    eif_stwcr,
    eif_stwcr_batch,
    eif_stwcrve,
    eif_stwcrve_batch,
)
from stwcr.errors import EstimationError, HarnessError, InvalidParameterError
from stwcr.estimators import (
    FoldAssignment,
    ModelSpecs,
    estimate_stwcr,
    estimate_stwcrve,
    make_folds,
)
from stwcr.nuisance import (
    CondDensityModel,
    Dataset,
    FeatureSpec,
    KnownPropensity,
    Observation,
    OutcomeModel,
    PropensityModel,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    irls_logistic,
)
from stwcr.simulation import (
    MetricsRow,
    ScenarioSpec,
    SimConfig,
    compute_truths,
    direct_plain_smoothed_risk,
    gamma_truncation_points,
    gen_dataset,
    oracle_estimand,
    run_monte_carlo,
    true_nuisances,
)

PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1)


@pytest.fixture(scope="module")
def big_I():
    return gen_dataset(ScenarioSpec("I", 100_000, 99))


class TestGenDataset:
    def test_exposure_rate(self, big_I):
        assert abs(big_I.x[:, 0].mean() - 0.30) < 0.005

    def test_baseline_distribution_among_naive(self, big_I):
        naive = big_I.x[:, 0] == 0
        values, probs = (1, 2, 3, 4, 5), (0.2, 0.3, 0.4, 0.05, 0.05)
        for v, p in zip(values, probs):
            frac = np.mean(big_I.b[naive] == v)
            assert abs(frac - p) < 0.006, (v, frac)

    def test_scenario_iii_mass_at_zero(self):
        ds = gen_dataset(ScenarioSpec("III", 100_000, 98))
        naive = ds.x[:, 0] == 0
        assert abs(np.mean(ds.b[naive] == 0) - 0.60) < 0.007

    def test_marker_structural_recovery(self, big_I):
        X = np.column_stack([np.ones(len(big_I)), big_I.b, big_I.a,
                             big_I.x[:, 0], big_I.x[:, 1] ** 2])
        coef, *_ = np.linalg.lstsq(X, big_I.s, rcond=None)
        resid = big_I.s - X @ coef
        sd = math.sqrt(resid @ resid / (len(big_I) - 5))
        for est, target in zip(coef, (4.0, 1.0, 1.0, -0.5, 1.0)):
            assert abs(est - target) < 0.03
        assert abs(sd - 1.0) < 0.01

    def test_treatment_randomized(self, big_I):
        assert abs(big_I.a.mean() - 0.5) < 0.01
        # independence from baseline: mean b equal across arms
        assert abs(big_I.b[big_I.a == 1].mean() - big_I.b[big_I.a == 0].mean()) < 0.03

    def test_scenario_ii_truncated(self):
        ds = gen_dataset(ScenarioSpec("II", 100_000, 97))
        q_naive, q_exposed = gamma_truncation_points()
        naive = ds.x[:, 0] == 0
        assert ds.b[naive].max() <= q_naive
        assert ds.b[~naive].max() <= q_exposed
        # clamping leaves visible mass at the cap
        assert np.mean(ds.b[naive] == q_naive) > 0.001

    @pytest.mark.parametrize("scenario", ["I", "II", "III"])
    def test_draws_follow_structural_equations(self, scenario):
        # replays the generator's stream: baseline, arm, marker noise, outcome uniforms
        n, seed = 3000, 41
        ds = gen_dataset(ScenarioSpec(scenario, n, seed))
        rng = np.random.default_rng(seed)
        b, x = simulation._draw_baseline(rng, n, scenario)
        x1, x2, x3 = x.T
        a = (rng.random(n) < 0.5).astype(int)
        s = (4.0 + 1.0 * b + 1.0 * a + -0.5 * x1 + 1.0 * x2 ** 2) + 1.0 * rng.standard_normal(n)
        p = expit(1.5 + 0.5 * x2 + 2.0 * x3 + -0.2 * s + -1.0 * a + -0.3 * b)
        y = (rng.random(n) < p).astype(float)
        for got, want in ((ds.b, b), (ds.x, x), (ds.a, a), (ds.s, s), (ds.y, y)):
            assert np.array_equal(got, want)

    def test_deterministic(self):
        a = gen_dataset(ScenarioSpec("I", 500, 123))
        b = gen_dataset(ScenarioSpec("I", 500, 123))
        assert np.array_equal(a.s, b.s) and np.array_equal(a.y, b.y)

    def test_invalid_spec(self):
        with pytest.raises(InvalidParameterError):
            ScenarioSpec("IV", 100, 1)
        with pytest.raises(InvalidParameterError):
            ScenarioSpec("I", 10, 1)


class TestTrueNuisances:
    def test_outcome_value(self):
        nuis = true_nuisances("I")
        r = nuis.outcome.predict_at(1, np.array([8.0]), np.array([2.0]),
                                    np.array([[0.0, 0.5, 0.5]]))[0]
        assert r == pytest.approx(0.389361, abs=1e-6)

    def test_density_mode(self):
        nuis = true_nuisances("I")
        b, x = np.array([3.0]), np.array([[0.0, 0.5, 0.5]])
        mu = nuis.cond_density.mean(1, b, x)
        dens = nuis.cond_density.density_at(1, mu, b, x)[0]
        assert dens == pytest.approx(0.3989423, abs=1e-6)

    def test_propensity_constant(self):
        nuis = true_nuisances("II")
        assert np.all(nuis.propensity.prob(1, np.array([0.0, 5.0]), np.zeros((2, 3))) == 0.5)

    def test_support_covers_marker_means(self):
        nuis = true_nuisances("I")
        assert nuis.support.lo == pytest.approx(4.5 - 6.0)
        assert nuis.support.hi == pytest.approx(11.0 + 6.0)

    def test_estimator_default_specs_are_the_generating_specs(self):
        specs = ModelSpecs().for_dataset(gen_dataset(ScenarioSpec("I", 100, 1)))
        for scenario in ("I", "II", "III"):
            nuis = true_nuisances(scenario)
            assert specs.cond_density_spec == nuis.cond_density.spec
            assert specs.outcome_spec == nuis.outcome.spec


class TestOracle:
    def test_requires_large_mc(self):
        with pytest.raises(InvalidParameterError):
            oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, mc_size=1000)

    def test_risk_value_in_unit_interval(self):
        res = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS,
                              mc_size=100_000, seed=1)
        assert 0.0 < res.ratio < 1.0
        assert res.mc_se > 0

    def test_symmetric_relative_query_gives_zero(self):
        res = oracle_estimand("stwcrve_num_den", "I", StwcrveQuery(1, 1, 7.5, 7.5),
                              PARAMS, mc_size=100_000, seed=2)
        assert res.num == res.den
        assert res.delta == 0.0

    def test_self_consistency_small(self):
        a = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, mc_size=300_000, seed=41)
        b = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, mc_size=300_000, seed=42)
        assert abs(a.ratio - b.ratio) < 4 * math.hypot(a.mc_se, b.mc_se)

    def test_trim_off_matches_direct_route(self):
        trim_off = SmoothingParams(t=1e-9, epsilon=1e-4, h=0.1)
        orc = oracle_estimand("stwcr", "I", StwcrQuery(1, 8.0), trim_off,
                              mc_size=400_000, seed=31)
        direct, dse = direct_plain_smoothed_risk("I", 1, 8.0, 0.1, mc_size=400_000, seed=77)
        assert abs(orc.ratio - direct) < 3 * math.hypot(orc.mc_se, dse)

    def test_deterministic(self):
        a = oracle_estimand("stwcr", "II", StwcrQuery(1, 8.0), PARAMS, mc_size=100_000, seed=3)
        b = oracle_estimand("stwcr", "II", StwcrQuery(1, 8.0), PARAMS, mc_size=100_000, seed=3)
        assert a == b

    def test_scenario_I_matches_deterministic_enumeration(self):
        # fully deterministic route: enumerate the (B, x1) cells, Gauss-Legendre
        # over x2, x3, and the marker integral; no Monte Carlo anywhere
        from scipy.special import expit, ndtr

        t, eps, h, s, a = 0.1, 0.1, 0.1, 7.0, 1.0
        vals_b = np.array([1.0, 2, 3, 4, 5])
        p_naive = np.array([0.2, 0.3, 0.4, 0.05, 0.05])
        p_exposed = np.array([0.1, 0.15, 0.3, 0.3, 0.15])

        def gl(n, lo, hi):
            x, w = np.polynomial.legendre.leggauss(n)
            return (lo + hi) / 2 + (hi - lo) / 2 * x, (hi - lo) / 2 * w

        x2n, x2w = gl(48, 0, 1)
        x3n, x3w = gl(48, 0, 1)
        sn, sw = gl(96, s - 1.2, s + 1.2)
        ker = sw * np.exp(-0.5 * ((sn - s) / h) ** 2) / (h * math.sqrt(2 * math.pi))

        num = den = 0.0
        for x1, pb, px1 in ((0.0, p_naive, 0.7), (1.0, p_exposed, 0.3)):
            for b, pbv in zip(vals_b, pb):
                mu = b + a - 0.5 * x1 + x2n ** 2 + 4
                pi = np.exp(-0.5 * (sn[None, :] - mu[:, None]) ** 2) / math.sqrt(2 * math.pi)
                phi = ndtr((pi - t) / eps)
                eta = 1.5 + 0.5 * x2n[:, None] - 0.2 * sn[None, :] - a - 0.3 * b
                r_bar = sum(w3 * expit(eta + 2.0 * v3) for v3, w3 in zip(x3n, x3w))
                den += px1 * pbv * float(np.sum(x2w[:, None] * phi * ker[None, :]))
                num += px1 * pbv * float(np.sum(x2w[:, None] * phi * r_bar * ker[None, :]))

        orc = oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS,
                              mc_size=400_000, seed=19)
        assert abs(orc.ratio - num / den) < 4 * orc.mc_se
        assert abs(orc.num - num) < 4 * orc.num_se
        assert abs(orc.den - den) < 4 * orc.den_se

        truth = compute_truths("I", (StwcrQuery(1, 7.0),), PARAMS)[0]
        assert abs(truth["num"] - num) < 1e-9
        assert abs(truth["den"] - den) < 1e-9
        assert abs(truth["truth"] - num / den) < 1e-9

    @pytest.mark.parametrize("scenario, query", [
        ("I", StwcrveQuery(1, 0, 8.0, 7.0)),
        ("II", StwcrQuery(1, 9.0)),
        ("III", StwcrQuery(1, 7.0)),
    ])
    def test_quadrature_truth_matches_monte_carlo(self, scenario, query):
        kind = "stwcr" if isinstance(query, StwcrQuery) else "stwcrve_num_den"
        truth = compute_truths(scenario, (query,), PARAMS)[0]
        orc = oracle_estimand(kind, scenario, query, PARAMS, mc_size=400_000, seed=23)
        assert abs(orc.ratio - truth["num"] / truth["den"]) < 4 * orc.mc_se
        assert abs(orc.num - truth["num"]) < 4 * orc.num_se
        assert abs(orc.den - truth["den"]) < 4 * orc.den_se


@pytest.mark.parametrize("bad", [
    {"scenario": "IV"}, {"a": 2}, {"s": math.nan}, {"h": 0.0}, {"h": -0.1}, {"h": math.inf},
    {"h": math.nan}, {"mc_size": 1}, {"mc_size": 0}, {"mc_size": 2e3}, {"seed": -1},
    {"seed": 1.5},
], ids=repr)
def test_direct_route_rejects_what_it_cannot_draw(bad):
    args = {"scenario": "I", "a": 1, "s": 8.0, "h": 0.1, "mc_size": 1000, "seed": 7, **bad}
    with pytest.raises(InvalidParameterError):
        direct_plain_smoothed_risk(**args)


@pytest.mark.parametrize("call", [
    lambda: oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, mc_size=2e5),
    lambda: oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, 100_000, -1),
    lambda: ScenarioSpec("I", 100.5, 1),
    lambda: ScenarioSpec("I", 100, 1.5),
    lambda: SimConfig("I", 100, 2.5, (StwcrQuery(1, 7.0),), PARAMS),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, master_seed=-1),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, n_jobs=1.5),
    lambda: SimConfig("I", 10, 2, (StwcrQuery(1, 7.0),), PARAMS),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, k_folds=1),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, k_folds=2.5),
    lambda: SimConfig("I", 60, 2, (StwcrQuery(1, 7.0),), PARAMS, k_folds=61),
    lambda: oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, 100_000, True),
    lambda: ScenarioSpec("I", 100, True),
    lambda: SimConfig("I", 100, True, (StwcrQuery(1, 7.0),), PARAMS),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, master_seed=True),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, n_jobs=True),
    lambda: make_folds(100, 5, True),
    lambda: direct_plain_smoothed_risk("I", 1, 8.0, 0.1, mc_size=1000, seed=True),
], ids=["oracle_mc_size", "oracle_seed", "scenario_n", "scenario_seed", "config_reps",
        "config_master_seed", "config_n_jobs", "config_n", "config_k_folds_1",
        "config_k_folds_fraction", "config_k_folds_above_n", "oracle_seed_bool",
        "scenario_seed_bool", "config_reps_bool", "config_master_seed_bool", "config_n_jobs_bool",
        "make_folds_seed_bool", "direct_seed_bool"])
def test_bad_counts_and_seeds_are_typed_errors(call):
    with pytest.raises(InvalidParameterError):
        call()


_ONE, _PRODUCT = np.ones_like, np.multiply  # integrands of one and of two markers
_SUPPORT = Interval(0.0, 10.0)
_OBS = Observation(y=1.0, a=1, s=7.0, b=2.0, x=(0.0, 0.5, 0.5))
# two rows y, a, s, b, x for the batch functions
_ROWS = (np.array([1.0, 0.0]), np.array([1, 0]), np.array([7.0, 6.5]), np.array([2.0, 1.0]),
         np.zeros((2, 3)))


def _rows(**columns):
    """``_ROWS`` with ``columns`` replaced."""
    return [columns.get(name, col) for name, col in zip("yasbx", _ROWS)]


def _trial(**columns):
    """Scenario I's 100-row trial as a Dataset, with ``columns`` (or its
    ``covariate_names``) replaced."""
    ds = gen_dataset(ScenarioSpec("I", 100, 1))
    cols = {name: getattr(ds, name) for name in ("y", "a", "s", "b", "x", "covariate_names")}
    return Dataset(**{**cols, **columns})


@pytest.mark.parametrize("call", [
    lambda: StwcrQuery(1, "7"),
    lambda: StwcrQuery(1, None),
    lambda: StwcrveQuery(1, 0, "8", 7),
    lambda: StwcrQuery(True, 7.0),
    lambda: StwcrQuery(1.0, 7.0),
    lambda: StwcrveQuery(True, 0, 8.0, 7.0),
    lambda: StwcrveQuery(1, 0.0, 8.0, 7.0),
    lambda: kernel_weight(0.0, True),
    lambda: Interval(None, 1),
    lambda: Interval("0", 1),
    lambda: ModelSpecs(propensity="0.5"),
    lambda: ModelSpecs(cond_density_spec=[("intercept",), ("raw", "b")]),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), {"h": 0.1}),
    lambda: SimConfig("I", 100, 2, (StwcrQuery(1, 7.0),), PARAMS, model_specs="x"),
    lambda: SimConfig("IV", 100, 2, (StwcrQuery(1, 7.0),), PARAMS),
    lambda: compute_truths("IV", (), PARAMS),
    lambda: SmoothingParams(h=True),
    lambda: SmoothingParams(h0=True),
    lambda: SmoothingParams(h1=True),
    lambda: SmoothingParams(epsilon=True),
    lambda: FoldAssignment(2, [[1, 2], [1, 2]]),
    lambda: FoldAssignment(2, ["1", "b"]),
    lambda: fit_propensity(_trial(), None),
    lambda: fit_cond_density(_trial(), None),
    lambda: fit_outcome(_trial(), [("intercept",), ("raw", "s")]),
    lambda: PropensityModel(spec=[("intercept",)], coef=np.zeros(1)),
    lambda: CondDensityModel(spec=[("intercept",)], coef=np.zeros(1), residual_sd=1.0),
    lambda: OutcomeModel(kind="logistic", spec="intercept", coef=np.zeros(1)),
    lambda: FeatureSpec([]),
    lambda: irls_logistic(np.ones((10, 0)), np.zeros(10)),
    lambda: _trial(s=np.ones((100, 2))),
    lambda: _trial(x=np.ones((100, 3, 1))),
    lambda: _trial(y=np.zeros((100, 1))),
    lambda: _trial(y=["a", "b", "c"] * 33 + ["d"]),
    lambda: _trial(x=[[0.0, 0.5, 0.5]] * 99 + [[0.0, 0.5]]),
    lambda: _trial(covariate_names=None),
    lambda: _trial(x=np.zeros(100), covariate_names=(1,)),
    lambda: Observation(y="1", a=1, s=7.0, b=0.0, x=(0.0,)),
    lambda: Observation(y=1.0, a=1, s=7.0, b=0.0, x=None),
    lambda: Observation(y=1.0, a=1, s=7.0, b=0.0, x=("0",)),
    lambda: StwcrQuery(1, True),
    lambda: StwcrveQuery(1, 0, True, 7.0),
    lambda: Interval(True, 2.0),
    lambda: Interval(0.0, True),
    lambda: Observation(y=True, a=1, s=7.0, b=0.0, x=(0.0,)),
    lambda: Observation(y=1.0, a=True, s=7.0, b=0.0, x=(0.0,)),
    lambda: Observation(y=1.0, a=1, s=True, b=0.0, x=(0.0,)),
    lambda: Observation(y=1.0, a=1, s=7.0, b=True, x=(0.0,)),
    lambda: Observation(y=1.0, a=1, s=7.0, b=0.0, x=(True,)),
    lambda: CondDensityModel(spec=FeatureSpec([("intercept",)]), coef=np.zeros(1), residual_sd=True),
    lambda: CondDensityModel(spec=FeatureSpec([("intercept",)]), coef=np.zeros(1), residual_sd="0.1"),
    lambda: CondDensityModel(spec=FeatureSpec([("intercept",)]), coef=np.zeros(1), residual_sd=None),
    lambda: direct_plain_smoothed_risk("I", 1, True, 0.1, mc_size=1000),
    lambda: direct_plain_smoothed_risk("I", 1, 8.0, True, mc_size=1000),
    lambda: direct_plain_smoothed_risk("I", 1, 8.0, "0.1", mc_size=1000),
    lambda: direct_plain_smoothed_risk("I", 1, 8.0, None, mc_size=1000),
    lambda: SmoothingParams(quad_nodes=64.0),
    lambda: StwcrQuery(1, 10 ** 400),
    lambda: _trial(y=[10 ** 400] + [0.0] * 99),
    lambda: FoldAssignment(2, [1, 2, 10 ** 400]),
    lambda: OutcomeModel(kind="logistic", spec=FeatureSpec([("intercept",)]), coef=["a"]),
    lambda: CondDensityModel(spec=FeatureSpec([("intercept",)]), coef=None, residual_sd=1.0),
    lambda: PropensityModel(spec=FeatureSpec([("intercept",), ("raw", "b")]), coef=np.zeros(1)),
    lambda: OutcomeModel(kind="logistic", spec=FeatureSpec([("intercept",), ("raw", "s")]),
                         coef=np.zeros(1)),
    lambda: OutcomeModel(kind="logistic", spec=FeatureSpec([("intercept",)]), coef=np.zeros(2)),
    lambda: CondDensityModel(spec=FeatureSpec([("intercept",)]), coef=np.zeros((1, 1)),
                             residual_sd=1.0),
    lambda: KnownPropensity(prob_treated="0.5"),
    lambda: replace(true_nuisances("I"), support=(0, 10)),
    lambda: fit_outcome(_trial().x, FeatureSpec([("intercept",)])),
    lambda: eif_stwcr(_OBS, "stwcr:1:7", true_nuisances("I"), PARAMS),
    lambda: eif_stwcr(_OBS, StwcrQuery(1, 7.0), true_nuisances("I"), {"h": 0.1}),
    lambda: eif_stwcr((1.0, 1, 7.0, 0.0, (0.0,)), StwcrQuery(1, 7.0), true_nuisances("I"), PARAMS),
    lambda: eif_stwcr(_OBS, StwcrQuery(1, 7.0), None, PARAMS),
    lambda: eif_stwcrve(_OBS, StwcrQuery(1, 7.0), true_nuisances("I"), PARAMS),
    lambda: eif_stwcrve(_OBS, StwcrveQuery(1, 0, 8.0, 7.0), true_nuisances("I"), None),
    lambda: eif_stwcrve(None, StwcrveQuery(1, 0, 8.0, 7.0), true_nuisances("I"), PARAMS),
    lambda: eif_stwcrve(_OBS, StwcrveQuery(1, 0, 8.0, 7.0), {}, PARAMS),
    lambda: compute_truths("I", (StwcrQuery(1, 7.0),), None),
    lambda: compute_truths("I", 5, PARAMS),
    lambda: compute_truths(np.array(["I", "II"]), (StwcrQuery(1, 7.0),), PARAMS),
    lambda: oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), None, mc_size=100_000),
    lambda: oracle_estimand({"kind": "stwcr"}, "I", StwcrQuery(1, 7.0), PARAMS, mc_size=100_000),
    lambda: oracle_estimand("stwcr", np.array(["I", "II"]), StwcrQuery(1, 7.0), PARAMS,
                            mc_size=100_000),
    lambda: SimConfig("I", 100, 2, 5, PARAMS),
    lambda: eif_stwcr_batch(*_ROWS, None, true_nuisances("I"), PARAMS),
    lambda: eif_stwcr_batch(*_ROWS, StwcrQuery(1, 7.0), None, PARAMS),
    lambda: eif_stwcr_batch(*_ROWS, StwcrQuery(1, 7.0), true_nuisances("I"), None),
    lambda: eif_stwcr_batch(*_rows(s=["7.0", "6.5"]), StwcrQuery(1, 7.0), true_nuisances("I"), PARAMS),
    lambda: eif_stwcr_batch(*_rows(x=np.zeros((3, 3))), StwcrQuery(1, 7.0), true_nuisances("I"),
                            PARAMS),
    lambda: eif_stwcrve_batch(*_ROWS, StwcrQuery(1, 7.0), true_nuisances("I"), PARAMS),
    lambda: eif_stwcrve_batch(*_rows(y=[10 ** 400, 0.0]), StwcrveQuery(1, 0, 8.0, 7.0),
                              true_nuisances("I"), PARAMS),
    lambda: eif_stwcrve_batch(*_ROWS, StwcrveQuery(1, 0, 8.0, 7.0),
                              NuisanceParts((0, 1), (true_nuisances("I"),)), PARAMS),
    lambda: eif_stwcrve_batch(*_ROWS, StwcrveQuery(1, 0, 8.0, 7.0),
                              NuisanceParts((0, 1, 2), (true_nuisances("I"), None)), PARAMS),
    lambda: kernel_weight("x", 0.1),
    lambda: kernel_weight(10 ** 400, 0.1),
    lambda: integrate_kernel_weighted(_ONE, math.nan, 0.1, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted(_ONE, "7", 0.1, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted(_ONE, 7.0, None, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted(_ONE, 7.0, 0.1, (0, 10), PARAMS),
    lambda: integrate_kernel_weighted(_ONE, 7.0, 0.1, _SUPPORT, None),
    lambda: integrate_kernel_weighted("f", 7.0, 0.1, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted_2d(_PRODUCT, 7.0, 0.1, math.nan, 0.1, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted_2d(_PRODUCT, "7", 0.1, 8.0, 0.1, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted_2d(_PRODUCT, 7.0, 0.1, 8.0, None, _SUPPORT, PARAMS),
    lambda: integrate_kernel_weighted_2d(_PRODUCT, 7.0, 0.1, 8.0, 0.1, (0, 10), PARAMS),
    lambda: integrate_kernel_weighted_2d(_PRODUCT, 7.0, 0.1, 8.0, 0.1, _SUPPORT, None),
    lambda: integrate_kernel_weighted_2d(None, 7.0, 0.1, 8.0, 0.1, _SUPPORT, PARAMS),
    lambda: FeatureSpec([("intercept",)]).resolve(None, ("x1",)),
    lambda: FeatureSpec([("intercept",)]).resolve(("b",), 5),
    lambda: FeatureSpec([("intercept",)]).resolve(("b",), [["x1"]]),
    lambda: FeatureSpec([("intercept",)]).resolve(5, ("x1",)),
    lambda: FeatureSpec([("intercept",)]).resolve([["b"]], ("x1",)),
    lambda: FeatureSpec([("intercept",)]).resolve(("b",), None),
    # the column_map checks come before the file is opened, so the file need not exist
    lambda: load_dataset(None),
    lambda: load_dataset(1.5),
    lambda: load_dataset("trial.csv", 5),
    lambda: load_dataset("trial.csv", "x1"),
    lambda: load_dataset("trial.csv", {"x": "x1"}),
    lambda: load_dataset("trial.csv", {"Y": "y2"}),
    lambda: load_dataset("trial.csv", {"y": 5}),
    lambda: load_dataset("trial.csv", {"x": ["x1", 2]}),
    lambda: gen_dataset("I"),
    lambda: gen_dataset(None),
    lambda: smooth_indicator(0.3, math.nan, 0.1),
    lambda: smooth_indicator(0.3, None, 0.1),
    lambda: smooth_indicator(0.3, [0.1], 0.1),
    lambda: smooth_indicator("0.3", 0.1, 0.1),
    lambda: smooth_indicator(None, 0.1, 0.1),
    lambda: smooth_indicator([0.3, "a"], 0.1, 0.1),
    lambda: smooth_indicator_deriv(0.3, math.nan, 0.1),
    lambda: smooth_indicator_deriv(0.3, "0.1", 0.1),
    lambda: smooth_indicator_deriv(None, 0.1, 0.1),
    lambda: _trial().subset(np.array([0, 100])),
    lambda: _trial().subset(np.ones(99, dtype=bool)),
    lambda: _trial().subset(np.array([0.0, 1.0])),
    lambda: _trial().subset(1.5),
    lambda: _trial(outcome_kind=np.array(["binary", "continuous"])),
    # outcome_kind is checked before the file is opened, so the file need not exist
    lambda: load_dataset("trial.csv", None, np.array(["binary", "continuous"])),
    lambda: load_dataset("trial.csv", None, "ordinal"),
    lambda: FoldAssignment(10 ** 400, [1, 2]),
    lambda: make_folds(10 ** 400, 2, 0),
    lambda: irls_logistic(np.ones((10, 1)), np.zeros(10), ridge=None),
    lambda: irls_logistic(np.ones((10, 1)), np.zeros(10), ridge=10 ** 400),
    lambda: irls_logistic(np.ones((10, 1)), np.zeros(10), ridge=np.array(["a", "b"])),
    lambda: irls_logistic(np.ones((10, 1)), np.zeros(10), ridge=-0.001),
    lambda: fit_propensity(_trial(), FeatureSpec([("intercept",)]), ridge=None),
    lambda: fit_propensity(_trial(), FeatureSpec([("intercept",)]), ridge=10 ** 400),
    lambda: fit_propensity(_trial(), FeatureSpec([("intercept",)]), ridge=np.array(["a", "b"])),
    lambda: fit_propensity(_trial(), FeatureSpec([("intercept",)]), ridge=-0.001),
    lambda: fit_outcome(_trial(), FeatureSpec([("intercept",)]), ridge=None),
    lambda: fit_outcome(_trial(), FeatureSpec([("intercept",)]), ridge=10 ** 400),
    lambda: fit_outcome(_trial(), FeatureSpec([("intercept",)]), ridge=np.array(["a", "b"])),
    lambda: fit_outcome(_trial(), FeatureSpec([("intercept",)]), ridge=-0.001),
    lambda: fit_outcome(_trial(y=np.linspace(0.0, 1.0, 100)), FeatureSpec([("intercept",)]),
                        ridge=-0.001),
    lambda: irls_logistic(np.ones((10, 1)), np.zeros(10), rows="x"),
], ids=["query_marker_str", "query_marker_none", "ve_query_marker_str", "query_arm_bool",
        "query_arm_float", "ve_query_arm_bool", "ve_query_arm_float", "kernel_h_bool", "interval_none",
        "interval_str", "known_propensity_str", "spec_list", "config_params_dict",
        "config_model_specs_str", "config_scenario_unknown", "truths_scenario_unknown",
        "params_h_bool", "params_h0_bool", "params_h1_bool", "params_epsilon_bool",
        "fold_labels_2d", "fold_labels_str", "fit_propensity_no_spec",
        "fit_cond_density_no_spec", "fit_outcome_spec_list", "propensity_model_spec_list",
        "cond_density_model_spec_list", "outcome_model_spec_str", "spec_empty",
        "irls_no_columns", "dataset_s_2d", "dataset_x_3d", "dataset_y_2d", "dataset_y_str",
        "dataset_x_ragged", "dataset_names_none", "dataset_name_int",
        "observation_y_str", "observation_x_none", "observation_x_str", "query_marker_bool",
        "ve_query_marker_bool", "interval_lo_bool", "interval_hi_bool", "observation_y_bool",
        "observation_a_bool", "observation_s_bool", "observation_b_bool", "observation_x_bool",
        "residual_sd_bool", "residual_sd_str", "residual_sd_none", "direct_s_bool", "direct_h_bool",
        "direct_h_str", "direct_h_none", "params_quad_nodes_float", "query_marker_huge_int",
        "dataset_y_huge_int", "fold_labels_huge_int", "outcome_coef_str", "cond_density_coef_none",
        "propensity_coef_short", "outcome_coef_short", "outcome_coef_long", "cond_density_coef_2d",
        "known_propensity_model_str", "triple_support_tuple", "fit_outcome_data_array",
        "eif_stwcr_query_str", "eif_stwcr_params_dict", "eif_stwcr_obs_tuple", "eif_stwcr_nuis_none",
        "eif_stwcrve_query_risk", "eif_stwcrve_params_none", "eif_stwcrve_obs_none",
        "eif_stwcrve_nuis_dict", "truths_params_none", "truths_queries_int",
        "truths_scenario_array", "oracle_params_none", "oracle_kind_dict", "oracle_scenario_array",
        "config_queries_int", "batch_query_none", "batch_nuis_none", "batch_params_none",
        "batch_s_str", "batch_x_rows", "ve_batch_query_risk", "ve_batch_y_huge_int",
        "ve_batch_parts_short", "ve_batch_parts_triple_none", "kernel_u_str", "kernel_u_huge_int",
        "integral_center_nan", "integral_center_str", "integral_h_none", "integral_support_tuple",
        "integral_params_none", "integral_f_str", "integral_2d_c1_nan", "integral_2d_c0_str",
        "integral_2d_h1_none", "integral_2d_support_tuple", "integral_2d_params_none",
        "integral_2d_f_none", "resolve_roles_none", "resolve_names_int", "resolve_names_nested",
        "resolve_roles_int", "resolve_roles_nested", "resolve_names_none", "load_path_none",
        "load_path_float", "load_column_map_int", "load_column_map_str", "load_x_str",
        "load_unknown_role", "load_role_int", "load_x_name_int", "gen_dataset_str",
        "gen_dataset_none", "indicator_t_nan", "indicator_t_none", "indicator_t_list",
        "indicator_p_str", "indicator_p_none", "indicator_p_list_str", "indicator_deriv_t_nan",
        "indicator_deriv_t_str", "indicator_deriv_p_none", "subset_out_of_range",
        "subset_short_mask", "subset_floats", "subset_float", "dataset_outcome_kind_array",
        "load_outcome_kind_array", "load_outcome_kind_str", "fold_assignment_k_huge_int",
        "make_folds_n_huge_int", "irls_ridge_none", "irls_ridge_huge_int", "irls_ridge_str_array",
        "irls_ridge_negative", "fit_propensity_ridge_none", "fit_propensity_ridge_huge_int",
        "fit_propensity_ridge_str_array", "fit_propensity_ridge_negative", "fit_outcome_ridge_none",
        "fit_outcome_ridge_huge_int", "fit_outcome_ridge_str_array", "fit_outcome_ridge_negative",
        "fit_outcome_continuous_ridge_negative", "irls_rows_str"])
def test_wrong_input_type_is_typed_error_where_it_enters(call):
    with pytest.raises(InvalidParameterError):
        call()


def test_numpy_integer_counts_and_seeds_accepted():
    ds = gen_dataset(ScenarioSpec("I", np.int64(100), np.uint32(3)))
    assert np.array_equal(ds.s, gen_dataset(ScenarioSpec("I", 100, 3)).s)
    numpy_ints, ints = (direct_plain_smoothed_risk("I", 1, 8.0, 0.1, mc_size=m, seed=seed)
                        for m, seed in ((np.int64(1000), np.int64(7)), (1000, 7)))
    assert numpy_ints == ints
    assert oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, np.int64(100_000),
                           np.int64(5)).mc_size == 100_000
    assert SimConfig("I", 100, np.int64(2), (StwcrQuery(1, 7.0),), PARAMS).reps == 2
    assert StwcrQuery(np.int64(1), 7.0).label == "STWCR(a=1,s=7)"
    assert StwcrveQuery(np.uint8(1), np.int32(0), 8.0, 7.0).label == "STWCRVE(a1=1,a0=0,s1=8,s0=7)"


def test_truths_same_under_any_blas_threads_and_cpu_mask():
    # Scenario II's baseline grid has 148,608 points, long enough for a threaded ddot
    code = ("from stwcr import SmoothingParams, StwcrQuery, StwcrveQuery\n"
            "from stwcr.simulation import compute_truths\n"
            "print(repr(compute_truths('II', (StwcrQuery(1, 9.0), StwcrveQuery(1, 0, 9.0, 8.0)),"
            " SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1))))")
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    runs = [({"OPENBLAS_NUM_THREADS": "1"}, []), ({"OPENBLAS_NUM_THREADS": "2"}, []), ({}, [])]
    if shutil.which("taskset"):
        runs.append(({}, ["taskset", "-c", "0"]))
    truths = [subprocess.run([*prefix, sys.executable, "-c", code], env={**env, **blas},
                             capture_output=True, text=True, check=True, timeout=120).stdout
              for blas, prefix in runs]
    assert truths == truths[:1] * len(runs)


@pytest.mark.parametrize("call", [
    lambda ds: estimate_stwcr(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS, make_folds(200, 5, 1)),
    lambda ds: estimate_stwcrve(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(200, 5, 1)),
    lambda ds: oracle_estimand("stwcr", "I", StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               mc_size=100_000),
    lambda ds: oracle_estimand("stwcrve_num_den", "I", StwcrQuery(1, 7.0), PARAMS,
                               mc_size=100_000),
    lambda ds: compute_truths("I", (7.0,), PARAMS),
    lambda ds: run_monte_carlo(SimConfig("I", 100, 1, ("stwcr:1:7",), PARAMS)),
], ids=["estimate_stwcr", "estimate_stwcrve", "oracle_stwcr", "oracle_stwcrve", "compute_truths",
        "run_monte_carlo"])
def test_wrong_query_type_is_typed_error(call):
    with pytest.raises(InvalidParameterError, match="Query"):
        call(gen_dataset(ScenarioSpec("I", 200, 1)))


def test_compute_truths_names_a_query_that_is_not_one():
    with pytest.raises(InvalidParameterError, match="compute_truths needs each query as a StwcrQuery"):
        compute_truths("I", (StwcrQuery(1, 7.0), "stwcr:1:7"), PARAMS)


class TestQuadratureTruth:
    @pytest.mark.parametrize("q", [StwcrQuery(1, 100.0), StwcrveQuery(1, 0, 8.0, -10.0)])
    def test_window_outside_the_support_raises(self, q):
        # Scenario I's marker support is [-1.5, 17]
        with pytest.raises(InvalidParameterError, match="window lies outside the marker support"):
            compute_truths("I", (q,), PARAMS)
        kind = "stwcr" if isinstance(q, StwcrQuery) else "stwcrve_num_den"
        with pytest.raises(InvalidParameterError, match="window lies outside the marker support"):
            oracle_estimand(kind, "I", q, PARAMS, mc_size=100_000)

    @settings(max_examples=10, deadline=None)
    @given(scenario=st.sampled_from(("I", "II", "III")), arm=st.sampled_from((0, 1)),
           s=st.floats(min_value=5.0, max_value=11.0))
    def test_properties(self, scenario, arm, s):
        risk = (StwcrQuery(arm, s),)
        first = compute_truths(scenario, risk, PARAMS)[0]
        assert 0.0 < first["truth"] < 1.0
        assert compute_truths(scenario, risk, PARAMS)[0] == first
        symmetric = compute_truths(scenario, (StwcrveQuery(arm, arm, s, s),), PARAMS)[0]
        assert symmetric["truth"] == 0.0


def test_compute_truths_traced_peak_scenario_II():
    # bound and its reasoning in CHANGES.md: about 15 MB expected, against
    # 203-252 MB when each 100k-point chunk was one grid
    tracemalloc.start()
    try:
        compute_truths("II", (StwcrQuery(1, 9.0), StwcrveQuery(1, 0, 9.0, 8.0)), PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, f"traced peak {peak / 1e6:.1f} MB"


class TestRunMonteCarlo:
    def test_forced_truth_stub(self, monkeypatch):
        cfg = SimConfig(scenario="I", n=100, reps=1, queries=(StwcrQuery(1, 7.0),),
                        params=PARAMS)
        truth = compute_truths("I", cfg.queries, PARAMS)[0]["truth"]

        def forced(data, q, params, folds, model_specs):
            return SimpleNamespace(wald=(truth, truth, truth, 0.0))

        monkeypatch.setattr(simulation, "estimate_stwcr", forced)
        rows = run_monte_carlo(cfg)
        assert rows[0].pct_bias == 0.0
        assert rows[0].coverage == 1.0

    def test_deterministic_rows(self):
        cfg = SimConfig(scenario="I", n=200, reps=3, queries=(StwcrQuery(1, 7.0),),
                        params=PARAMS, master_seed=5)
        rows_a = run_monte_carlo(cfg)
        rows_b = run_monte_carlo(cfg)
        assert rows_a == rows_b

    def test_parallel_matches_serial(self):
        base = dict(scenario="I", n=200, reps=4, queries=(StwcrQuery(1, 7.0),),
                    params=PARAMS, master_seed=6)
        serial = run_monte_carlo(SimConfig(**base, n_jobs=1))
        parallel = run_monte_carlo(SimConfig(**base, n_jobs=2))
        assert serial == parallel

    def test_fold_fits_shared_across_queries(self, monkeypatch):
        cfg = SimConfig(scenario="I", n=300, reps=2, params=PARAMS, master_seed=8,
                        queries=(StwcrQuery(1, 7.0), StwcrQuery(1, 8.0),
                                 StwcrveQuery(1, 0, 8.0, 7.0)))
        calls = [0]
        real = estimators.fit_outcome

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        def cold(estimate):
            def on_a_copy(data, q, params, folds, model_specs):
                # a fresh copy per query, so no query reuses another's fold fits
                copy = Dataset(y=data.y.copy(), a=data.a.copy(), s=data.s.copy(),
                               b=data.b.copy(), x=data.x.copy(),
                               covariate_names=data.covariate_names,
                               outcome_kind=data.outcome_kind)
                return estimate(copy, q, params, folds, model_specs=model_specs)
            return on_a_copy

        monkeypatch.setattr(estimators, "fit_outcome", counting)
        shared = run_monte_carlo(cfg)
        assert calls[0] == cfg.reps * cfg.k_folds
        calls[0] = 0
        monkeypatch.setattr(simulation, "estimate_stwcr", cold(estimate_stwcr))
        monkeypatch.setattr(simulation, "estimate_stwcrve", cold(estimate_stwcrve))
        assert run_monte_carlo(cfg) == shared
        assert calls[0] == cfg.reps * cfg.k_folds * len(cfg.queries)

    def test_failures_counted_and_capped(self, monkeypatch):
        cfg = SimConfig(scenario="I", n=100, reps=5, queries=(StwcrQuery(1, 7.0),),
                        params=PARAMS)

        def failing(data, q, params, folds, model_specs):
            raise EstimationError("boom")

        monkeypatch.setattr(simulation, "estimate_stwcr", failing)
        with pytest.raises(HarnessError):
            run_monte_carlo(cfg)

    def test_failure_names_only_its_own_query(self, monkeypatch):
        cfg = SimConfig(scenario="I", n=100, reps=20, params=PARAMS,
                        queries=(StwcrQuery(1, 7.0), StwcrQuery(1, 8.0)))
        calls = []

        def failing(data, q, params, folds, model_specs):
            calls.append(q)
            # s=7 fails once, within the 5% allowed, and s=8 every time
            if q.s == 8.0 or calls.count(q) == 1:
                raise EstimationError(f"boom at s={q.s:g}")
            return SimpleNamespace(wald=(0.5, 0.4, 0.6, 0.05))

        monkeypatch.setattr(simulation, "estimate_stwcr", failing)
        with pytest.raises(HarnessError) as info:
            run_monte_carlo(cfg)
        message = str(info.value)
        assert message.startswith("20/20 replications failed for STWCR(a=1,s=8); first errors: ")
        assert "s=7" not in message and message.count("boom at s=8") == 3

    def test_mixed_queries(self):
        cfg = SimConfig(scenario="I", n=300, reps=2,
                        queries=(StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)),
                        params=PARAMS, master_seed=7)
        rows = run_monte_carlo(cfg)
        assert [r.query for r in rows] == ["STWCR(a=1,s=7)", "STWCRVE(a1=1,a0=0,s1=8,s0=7)"]
        assert all(isinstance(r, MetricsRow) for r in rows)
        assert all(r.reps == 2 for r in rows)

    def test_query_labels(self):
        assert StwcrQuery(1, 7.0).label == "STWCR(a=1,s=7)"
        assert StwcrveQuery(1, 0, 8.0, 7.0).label == "STWCRVE(a1=1,a0=0,s1=8,s0=7)"
        # a marker that :g would round is written in full, so labels stay unique
        assert StwcrQuery(1, 7.0000001).label == "STWCR(a=1,s=7.0000001)"
        assert StwcrQuery(1, 7.123456789).label == "STWCR(a=1,s=7.123456789)"
        assert StwcrQuery(1, np.float64(7.123456789)).label == "STWCR(a=1,s=7.123456789)"
        assert StwcrQuery(1, Fraction(15, 2)).label == "STWCR(a=1,s=7.5)"
        assert (StwcrveQuery(1, 0, 8.0, 7.0000001).label
                == "STWCRVE(a1=1,a0=0,s1=8,s0=7.0000001)")
