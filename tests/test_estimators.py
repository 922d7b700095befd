import copy
import gc
import math
import pickle
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from stwcr import eif, estimators, nuisance, parallel
from stwcr.core import Interval, SmoothingParams, kernel_window
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.errors import EstimationError, InvalidParameterError, SolverError
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
    NuisanceTriple,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    intercept,
    raw,
    support_bounds,
)
from stwcr.simulation import ScenarioSpec, compute_truths, gen_dataset, true_nuisances
from conftest import ThreadPools

PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1)


@pytest.fixture(scope="module")
def truth_i_s7():
    """Exact quadrature truth of scenario I STWCR(1, 7)."""
    return compute_truths("I", (StwcrQuery(1, 7.0),), PARAMS)[0]["truth"]


class TestMakeFolds:
    def test_balanced_even(self):
        folds = make_folds(10, 5, 1)
        assert sorted(np.bincount(folds.labels)[1:]) == [2, 2, 2, 2, 2]

    def test_balanced_uneven(self):
        folds = make_folds(11, 5, 1)
        assert sorted(np.bincount(folds.labels)[1:]) == [2, 2, 2, 2, 3]

    def test_deterministic(self):
        a = make_folds(137, 5, 42)
        b = make_folds(137, 5, 42)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_folds(137, 5, 1).labels, make_folds(137, 5, 2).labels)

    @pytest.mark.parametrize("n,k,seed", [
        *(pytest.param(n, k, 0, id=f"{n}-{k}") for n, k in ((5, 6), (10, 1), (3, 0), (10, 2.5))),
        (10, 2, 1.5), (10.5, 2, 0), (10, 2, None), (10, 2, -1)])
    def test_invalid(self, n, k, seed):
        with pytest.raises(InvalidParameterError):
            make_folds(n, k, seed)

    def test_assignment_validation(self):
        with pytest.raises(InvalidParameterError):
            FoldAssignment(k_folds=3, labels=np.array([1, 1, 2]))  # fold 3 empty
        with pytest.raises(InvalidParameterError, match="integer"):
            FoldAssignment(k_folds=2.5, labels=[1, 2, 1, 2])

    def test_label_zero_rejected(self):
        # five rows labelled 0 would never be held out, so their influence
        # values would stay unset
        labels = np.concatenate([np.zeros(5, dtype=int), np.repeat(np.arange(1, 6), 5)])
        with pytest.raises(InvalidParameterError, match="1..5"):
            FoldAssignment(k_folds=5, labels=labels)

    def test_negative_label_rejected(self):
        with pytest.raises(InvalidParameterError, match="1..3"):
            FoldAssignment(k_folds=3, labels=np.array([-1, 1, 2, 3]))

    @pytest.mark.parametrize("labels", [[1.7, 2.2, 1.0, 2.9], [1.0, 2.0, 1.0, np.nan]])
    def test_fractional_label_rejected(self, labels):
        # an int cast would read [1.7, 2.2, 1.0, 2.9] as folds [1, 2, 1, 2]
        with pytest.raises(InvalidParameterError, match="integers"):
            FoldAssignment(k_folds=2, labels=labels)

    def test_integral_float_labels_accepted(self):
        folds = FoldAssignment(k_folds=2, labels=[1.0, 2.0, 2.0, 1.0])
        assert folds.labels.tolist() == [1, 2, 2, 1]


class TestModelSpecs:
    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.2, np.nan, np.inf, None])
    def test_known_propensity_outside_unit_interval(self, p):
        with pytest.raises(InvalidParameterError, match=r"known propensity must lie in \(0,1\)"):
            ModelSpecs(propensity=p)

    def test_propensity_spec_fitted_in_every_fold(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 400, 27))
        spec = FeatureSpec([intercept(), raw("b")])
        calls = []
        real = estimators.fit_propensity

        def recording(data, spec, **kwargs):
            calls.append((spec, kwargs))
            return real(data, spec, **kwargs)

        monkeypatch.setattr(estimators, "fit_propensity", recording)
        estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(400, 5, 0),
                       model_specs=ModelSpecs(propensity=spec))
        assert len(calls) == 5 and all(got == spec for got, _ in calls)
        # fold 1 starts from zero (start None), folds 2..5 from fold 1's coefficients
        assert calls[0][1] == {"start": None}
        first = estimators._FOLD_FITS[ds].fits[0][0].propensity.coef
        assert all(set(kwargs) == {"start"} and np.array_equal(kwargs["start"], first)
                   for _, kwargs in calls[1:])

    @pytest.mark.parametrize("fn, q", [(estimate_stwcr, StwcrQuery(1, 7.0)),
                                       (estimate_stwcrve, StwcrveQuery(1, 0, 8.0, 7.0))])
    @pytest.mark.parametrize("kwargs, name", [
        ({"propensity": FeatureSpec([intercept(), raw("s")])}, "s"),
        ({"cond_density_spec": FeatureSpec([intercept(), raw("b"), raw("y")])}, "y"),
        ({"outcome_spec": FeatureSpec([intercept(), raw("y"), raw("s")])}, "y"),
    ])
    def test_unreadable_column_rejected_before_any_fit(self, monkeypatch, fn, q, kwargs, name):
        calls = []
        for fit in ("fit_propensity", "fit_cond_density", "fit_outcome"):
            monkeypatch.setattr(estimators, fit, lambda *args, fit=fit, **kw: calls.append(fit))
        ds = gen_dataset(ScenarioSpec("I", 400, 27))
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'"):
            fn(ds, q, PARAMS, make_folds(400, 5, 0), model_specs=ModelSpecs(**kwargs))
        assert calls == []


@pytest.fixture(scope="module")
def scen1():
    return gen_dataset(ScenarioSpec("I", 1000, 7)), true_nuisances("I")


class TestEstimateStwcr:
    def test_single_run_near_truth(self, scen1, truth_i_s7):
        ds, _ = scen1
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(1000, 5, 99))
        assert abs(rep.tau_hat - truth_i_s7) < 4 * rep.se
        assert rep.ci[0] <= rep.tau_hat <= rep.ci[1]
        assert rep.se == pytest.approx(np.sqrt(rep.sigma1_sq_hat / rep.n))
        assert rep.n == 1000
        # the harness's (estimate, lo, hi, se): se = sqrt(sigma1^2 / n)
        assert rep.wald == (rep.tau_hat, *rep.ci, rep.se)
        assert rep.wald[3] == math.sqrt(rep.sigma1_sq_hat / rep.n)

    def test_oracle_mode_partition_invariant(self, scen1):
        ds, nuis = scen1
        reports = [estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS,
                                  make_folds(1000, 5, seed), nuisances=nuis)
                   for seed in (1, 2, 3, 4, 5)]
        first = reports[0]
        for rep in reports[1:]:
            assert rep.tau_num_hat == first.tau_num_hat
            assert rep.tau_den_hat == first.tau_den_hat
            assert rep.tau_hat == first.tau_hat
            assert rep.sigma1_sq_hat == first.sigma1_sq_hat

    @pytest.mark.parametrize("q", [StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0),
                                   StwcrveQuery(1, 1, 7.0, 7.0)],
                             ids=["risk", "efficacy", "symmetric"])
    def test_oracle_mode_is_plain_mean(self, scen1, q):
        ds, nuis = scen1
        from stwcr.eif import eif_stwcr_batch, eif_stwcrve_batch

        risk = isinstance(q, StwcrQuery)
        batch, fn = (eif_stwcr_batch, estimate_stwcr) if risk else (eif_stwcrve_batch, estimate_stwcrve)
        num, den, hits = batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        rep = fn(ds, q, PARAMS, make_folds(1000, 5, 3), nuisances=nuis)
        assert rep.tau_num_hat == float(np.mean(num))
        assert rep.tau_den_hat == float(np.mean(den))
        assert (rep.density_floor_hits, rep.degenerate_folds) == (hits, 0)

    def test_variance_positive(self, scen1):
        ds, _ = scen1
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(1000, 5, 99))
        assert rep.sigma1_sq_hat > 0

    def test_missing_arm_raises(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 1))
        forced = Dataset(y=ds.y, a=np.ones(len(ds), dtype=int), s=ds.s, b=ds.b, x=ds.x,
                         covariate_names=ds.covariate_names, outcome_kind="binary")
        with pytest.raises(EstimationError, match="arm not present in training folds"):
            estimate_stwcr(forced, StwcrQuery(0, 7.0), PARAMS, make_folds(200, 5, 0))
        # nothing is fit with injected nuisances, so one arm is enough
        estimate_stwcr(forced, StwcrQuery(0, 7.0), PARAMS, make_folds(200, 5, 0),
                       nuisances=true_nuisances("I"))

    def test_fold_size_mismatch(self, scen1):
        ds, nuis = scen1
        for given in (None, nuis):
            with pytest.raises(InvalidParameterError, match="does not match dataset size"):
                estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(999, 5, 0),
                               nuisances=given)

    @pytest.mark.parametrize("fn, q", [(estimate_stwcr, StwcrQuery(1, 7.0)),
                                       (estimate_stwcrve, StwcrveQuery(1, 0, 8.0, 7.0))])
    @pytest.mark.parametrize("name, value", [
        ("data", (1.0, 2.0)), ("folds", None), ("folds", np.repeat([1, 2], 500)),
        ("params", {"h": 0.1}), ("model_specs", "x"), ("nuisances", "x")])
    def test_wrong_argument_type_named(self, scen1, fn, q, name, value):
        ds, _ = scen1
        args = {"data": ds, "q": q, "params": PARAMS, "folds": make_folds(1000, 5, 0), name: value}
        with pytest.raises(InvalidParameterError, match=f"{fn.__name__} needs {name} as a "):
            fn(**args)

    def test_unfilled_influence_slot_raises(self, scen1):
        ds, _ = scen1
        folds = make_folds(1000, 5, 0)
        labels = folds.labels.copy()
        labels[0] = 6
        # relabelled after validation, past the read-only labels: row 0 is never held out
        object.__setattr__(folds, "labels", labels)
        with pytest.raises(EstimationError, match="left unset"):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)

    def test_rows_in_no_fold_raise_before_any_fit(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 300, 41))
        folds = make_folds(300, 5, 1)
        labels = folds.labels.copy()
        labels[3] = 0
        object.__setattr__(folds, "labels", labels)  # as in the test above
        fits, real = [], estimators.fit_outcome

        def counting(train, spec, **kwargs):
            fits.append(train.held_out)
            return real(train, spec, **kwargs)

        monkeypatch.setattr(estimators, "fit_outcome", counting)
        with pytest.raises(EstimationError, match="left unset: a row was in no held-out fold"):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)
        assert fits == []
        assert ds not in estimators._FOLD_FITS

    def test_nonpositive_denominator_reported(self):
        # constant density just below the threshold with a sharp indicator
        # makes the subtracted correction dominate the plug-in integral
        from test_eif import constant_triple

        n = 60
        ds = Dataset(y=np.ones(n), a=np.ones(n, dtype=int), s=np.full(n, 50.0),
                     b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                     outcome_kind="binary")
        nuis = constant_triple(density=0.09, risk=0.4)
        params = SmoothingParams(t=0.1, epsilon=0.01, h=0.1)
        with pytest.raises(EstimationError, match="denominator nonpositive"):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), params, make_folds(n, 2, 0),
                           nuisances=nuis)

    def test_scale_equivariance_continuous_outcome(self):
        base = gen_dataset(ScenarioSpec("I", 800, 17))
        rng = np.random.default_rng(5)
        y = 0.3 + 0.1 * base.s - 0.05 * base.b + 0.1 * rng.standard_normal(len(base))
        lam = 3.0
        folds = make_folds(800, 5, 2)
        reports = []
        for scale in (1.0, lam):
            ds = Dataset(y=scale * y, a=base.a, s=base.s, b=base.b, x=base.x,
                         covariate_names=base.covariate_names, outcome_kind="continuous")
            reports.append(estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds))
        assert reports[1].tau_num_hat == pytest.approx(lam * reports[0].tau_num_hat, rel=1e-10)
        assert reports[1].tau_den_hat == reports[0].tau_den_hat

    def test_range_warning_for_binary(self, scen1):
        # force an out-of-range ratio through a crafted constant nuisance
        from test_eif import ConstantDensity, ConstantOutcome

        n = 60
        ds = Dataset(y=np.ones(n), a=np.ones(n, dtype=int), s=np.full(n, 7.0),
                     b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                     outcome_kind="binary")
        nuis = NuisanceTriple(
            propensity=KnownPropensity(prob_treated=0.5),
            cond_density=ConstantDensity(0.3), outcome=ConstantOutcome(-0.2),
            support=Interval.wide())
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(n, 2, 0),
                             nuisances=nuis)
        assert rep.tau_hat > 1.0
        assert any("outside [0, 1]" in w for w in rep.warnings)


class TestOutcomeScaleEquivariance:
    """y -> c*y + d maps tau to c*tau + d and se to |c|*se; y -> c*y leaves rho.

    Holds for a continuous y under a linear outcome spec with an intercept,
    up to the rounding of the refitted coefficients (see CHANGES.md).
    """

    TOL = 1e-9
    SPECS = ModelSpecs(outcome_spec=FeatureSpec(
        [intercept(), raw("s"), raw("a"), raw("b"), raw("x1"), raw("x2"), raw("x3")]))

    @staticmethod
    def continuous(seed, n, y=None):
        base = gen_dataset(ScenarioSpec("I", n, seed))
        if y is None:
            rng = np.random.default_rng(seed)
            y = 1.0 + base.s - 0.5 * base.b + rng.standard_normal(n)
        return Dataset(y=y, a=base.a, s=base.s, b=base.b, x=base.x,
                       covariate_names=base.covariate_names, outcome_kind="continuous")

    def report(self, fn, q, ds, params, folds):
        try:
            return fn(ds, q, params, folds, model_specs=self.SPECS)
        except EstimationError as exc:
            assert "denominator nonpositive" in str(exc)
            return None

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600), h=st.floats(0.05, 0.3),
           c=st.floats(0.1, 10.0), negative=st.booleans(), d=st.floats(-10.0, 10.0))
    def test_affine_map_of_y(self, seed, n, h, c, negative, d):
        c = -c if negative else c
        ds = self.continuous(seed, n)
        moved = self.continuous(seed, n, y=c * ds.y + d)
        params, folds, q = replace(PARAMS, h=h), make_folds(n, 5, seed), StwcrQuery(1, 7.0)
        rep = self.report(estimate_stwcr, q, ds, params, folds)
        rep2 = self.report(estimate_stwcr, q, moved, params, folds)
        # the denominator does not read y, so both fail or neither does
        assert (rep is None) == (rep2 is None)
        if rep is None:
            return
        y_scale = float(np.max(np.abs(ds.y)))
        assert abs(rep2.tau_hat - (c * rep.tau_hat + d)) <= self.TOL * (abs(c) * y_scale + abs(d))
        assert abs(rep2.se - abs(c) * rep.se) <= self.TOL * abs(c) * y_scale
        assert rep2.tau_den_hat == rep.tau_den_hat

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600), h=st.floats(0.05, 0.3),
           c=st.floats(0.1, 10.0))
    def test_ratio_unchanged_by_scale(self, seed, n, h, c):
        ds = self.continuous(seed, n)
        scaled = self.continuous(seed, n, y=c * ds.y)
        params, folds = replace(PARAMS, h0=h, h1=h), make_folds(n, 5, seed)
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        rep = self.report(estimate_stwcrve, q, ds, params, folds)
        rep2 = self.report(estimate_stwcrve, q, scaled, params, folds)
        assert (rep is None) == (rep2 is None)
        if rep is None:
            return
        assert abs(rep2.rho_hat - rep.rho_hat) <= self.TOL * max(1.0, abs(rep.rho_hat))


class ArmSignedOutcome:
    """Outcome regression +1 under arm 0 and -1 under arm 1, so rho < 0."""

    def predict_at(self, a, s, b, x):
        return np.full(np.broadcast_shapes(np.shape(s), np.shape(b)), 1.0 if a == 0 else -1.0)


class TestEstimateStwcrve:
    def test_single_run_near_truth(self):
        ds = gen_dataset(ScenarioSpec("I", 2000, 8))
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               make_folds(2000, 5, 99))
        truth = compute_truths("I", (StwcrveQuery(1, 0, 8.0, 7.0),), PARAMS)[0]["truth"]
        se = rep.rho_hat * np.sqrt(rep.sigma2log_sq_hat / rep.n)
        assert abs(rep.delta_hat - truth) < 4 * se
        assert rep.log_scale
        # log scale: the delta method's se of delta = 1 - rho, rho * sigma_log / sqrt(n)
        assert rep.wald == (rep.delta_hat, *rep.ci_delta,
                            rep.rho_hat * math.sqrt(rep.sigma2log_sq_hat / rep.n))

    def test_symmetric_query_gives_zero(self):
        ds = gen_dataset(ScenarioSpec("I", 600, 9))
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 1, 7.5, 7.5), PARAMS,
                               make_folds(600, 5, 4))
        assert rep.delta_hat == 0.0
        assert rep.rho_hat == 1.0

    def test_ci_duality_exact(self):
        ds = gen_dataset(ScenarioSpec("I", 600, 10))
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               make_folds(600, 5, 4))
        assert rep.ci_delta == (1.0 - rep.ci_rho[1], 1.0 - rep.ci_rho[0])
        assert rep.ci_rho[0] > 0

    def test_oracle_mode_partition_invariant(self):
        ds = gen_dataset(ScenarioSpec("I", 600, 11))
        nuis = true_nuisances("I")
        reports = [estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                                    make_folds(600, 5, seed), nuisances=nuis)
                   for seed in (1, 2, 3)]
        assert len({r.delta_hat for r in reports}) == 1
        assert len({r.sigma2log_sq_hat for r in reports}) == 1

    def test_both_arms_required(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 1))
        forced = Dataset(y=ds.y, a=np.ones(len(ds), dtype=int), s=ds.s, b=ds.b, x=ds.x,
                         covariate_names=ds.covariate_names, outcome_kind="binary")
        with pytest.raises(EstimationError, match="arm not present"):
            estimate_stwcrve(forced, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                             make_folds(200, 5, 0))

    def test_direct_scale_fallback_when_rho_negative(self):
        from test_eif import ConstantDensity

        n = 80
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, n)
        ds = Dataset(y=np.where(a == 0, 1.0, -1.0), a=a, s=rng.normal(7, 1, n),
                     b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                     outcome_kind="continuous")
        nuis = NuisanceTriple(
            propensity=KnownPropensity(prob_treated=0.5),
            cond_density=ConstantDensity(0.3), outcome=ArmSignedOutcome(),
            support=Interval.wide())
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               make_folds(n, 2, 0), nuisances=nuis)
        assert rep.rho_hat < 0
        assert not rep.log_scale
        assert rep.warnings
        assert rep.ci_delta[0] <= rep.delta_hat <= rep.ci_delta[1]
        assert rep.ci_delta == (1.0 - rep.ci_rho[1], 1.0 - rep.ci_rho[0])
        # direct scale: se = sigma_2 / sqrt(n), the se the interval was built from
        se = math.sqrt(rep.sigma2_sq_hat / rep.n)
        assert rep.wald == (rep.delta_hat, *rep.ci_delta, se)
        assert rep.ci_delta[1] - rep.delta_hat == pytest.approx(ndtri(0.975) * se, rel=1e-12)


class TestConsistencySweep:
    def test_error_decreases_with_n(self, truth_i_s7):
        sizes = (1000, 2000, 5000)
        medians = []
        for n in sizes:
            errs = []
            for r in range(50):
                ss = np.random.SeedSequence(1301, spawn_key=(n, r))
                ds = gen_dataset(ScenarioSpec("I", n, ss))
                folds = make_folds(n, 5, r)
                rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)
                errs.append(abs(rep.tau_hat - truth_i_s7))
            medians.append(float(np.median(errs)))
        assert medians[0] > medians[1] > medians[2]


def fresh_copy(ds):
    """A new Dataset of ``ds``'s rows, which holds its own copies: no fold fits to reuse."""
    return Dataset(y=ds.y, a=ds.a, s=ds.s, b=ds.b, x=ds.x,
                   covariate_names=ds.covariate_names, outcome_kind=ds.outcome_kind)


@pytest.fixture()
def count_outcome_fits(monkeypatch):
    """Counts calls of ``stwcr.estimators.fit_outcome`` in a one-item list."""
    calls = [0]
    real = estimators.fit_outcome

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(estimators, "fit_outcome", counting)
    return calls


SWEEP = ([StwcrQuery(1, 5.0 + 0.25 * k) for k in range(20)]
         + [StwcrveQuery(1, 0, s1, 7.0) for s1 in (6.0, 8.0, 9.0, 10.0)]
         + [StwcrveQuery(1, 1, 7.0, 7.0)])


def estimate(ds, q, folds, specs=ModelSpecs()):
    fn = estimate_stwcr if isinstance(q, StwcrQuery) else estimate_stwcrve
    return fn(ds, q, PARAMS, folds, model_specs=specs)


class TestFoldFitReuse:
    def test_sweep_fits_each_fold_once(self, count_outcome_fits):
        ds = gen_dataset(ScenarioSpec("I", 400, 21))
        folds = make_folds(400, 5, 1)
        for q in SWEEP:
            estimate(ds, q, folds)
        assert count_outcome_fits[0] == 5

    def test_warm_reports_equal_cold(self):
        ds = gen_dataset(ScenarioSpec("I", 400, 22))
        folds = make_folds(400, 5, 2)
        warm = [repr(estimate(ds, q, folds)) for q in SWEEP]
        cold = [repr(estimate(fresh_copy(ds), q, folds)) for q in SWEEP]
        assert warm == cold

    @pytest.mark.parametrize("change", ["new folds", "new specs"])
    def test_change_refits(self, count_outcome_fits, change):
        ds = gen_dataset(ScenarioSpec("I", 400, 23))
        folds = make_folds(400, 5, 3)
        specs = ModelSpecs()
        q = StwcrQuery(1, 7.0)
        first = estimate(ds, q, folds, specs)
        if change == "new folds":
            folds = make_folds(400, 5, 4)
        else:
            specs = ModelSpecs(outcome_spec=FeatureSpec(
                [intercept(), raw("s"), raw("a"), raw("b"), raw("x2")]))
        second = estimate(ds, q, folds, specs)
        assert count_outcome_fits[0] == 10
        assert repr(second) == repr(estimate(fresh_copy(ds), q, folds, specs))
        assert repr(second) != repr(first)

    def test_equal_folds_share_the_plan(self, count_outcome_fits):
        ds = gen_dataset(ScenarioSpec("I", 400, 23))
        folds = make_folds(400, 5, 3)
        equal = FoldAssignment(5, folds.labels)
        q = StwcrQuery(1, 7.0)
        first = repr(estimate(ds, q, folds))
        plan = estimators._FOLD_FITS[ds]
        assert repr(estimate(ds, q, equal)) == first
        assert estimators._FOLD_FITS[ds] is plan
        assert count_outcome_fits[0] == 5

    def test_injected_query_leaves_the_plan(self, count_outcome_fits):
        ds = gen_dataset(ScenarioSpec("I", 400, 32))
        folds = make_folds(400, 5, 5)
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        first = repr(estimate(ds, q, folds))
        plan = estimators._FOLD_FITS[ds]
        estimate_stwcrve(ds, q, PARAMS, folds, nuisances=true_nuisances("I"))
        assert estimators._FOLD_FITS[ds] is plan
        assert repr(estimate(ds, q, folds)) == first
        assert estimators._FOLD_FITS[ds] is plan
        assert count_outcome_fits[0] == 5

    def test_entry_dies_with_dataset(self):
        ds = gen_dataset(ScenarioSpec("I", 300, 24))
        before = len(estimators._FOLD_FITS)
        estimate(ds, StwcrQuery(1, 7.0), make_folds(300, 5, 0))
        assert len(estimators._FOLD_FITS) == before + 1
        alive = weakref.ref(ds)
        del ds
        gc.collect()
        assert alive() is None
        assert len(estimators._FOLD_FITS) == before

    def test_absent_arm_wins_over_fit_failure(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 200, 25))
        treated = Dataset(y=ds.y, a=np.ones(len(ds), dtype=int), s=ds.s, b=ds.b, x=ds.x,
                          covariate_names=ds.covariate_names, outcome_kind="binary")

        def failing(*args, **kwargs):
            raise SolverError("singular design")

        monkeypatch.setattr(estimators, "fit_outcome", failing)
        with pytest.raises(EstimationError, match="arm not present"):
            estimate_stwcr(treated, StwcrQuery(0, 7.0), PARAMS, make_folds(200, 5, 0))
        with pytest.raises(EstimationError, match="nuisance fit failed in fold 1"):
            estimate_stwcr(treated, StwcrQuery(1, 7.0), PARAMS, make_folds(200, 5, 0))

    def test_failed_fit_not_stored(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 200, 26))
        folds = make_folds(200, 5, 0)
        real = estimators.fit_outcome

        def failing(*args, **kwargs):
            raise SolverError("singular design")

        monkeypatch.setattr(estimators, "fit_outcome", failing)
        with pytest.raises(EstimationError, match="nuisance fit failed"):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)
        assert ds not in estimators._FOLD_FITS
        monkeypatch.setattr(estimators, "fit_outcome", real)
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)
        assert repr(rep) == repr(estimate_stwcr(fresh_copy(ds), StwcrQuery(1, 7.0), PARAMS, folds))

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600),
           h=st.floats(0.05, 0.3))
    def test_symmetric_zero_and_repeat_bitwise(self, seed, n, h):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        folds = make_folds(n, 5, seed)
        params = replace(PARAMS, h=h, h0=h, h1=h)

        def answer(fn, q):
            # at small n and h the one-step denominator can fall below 0
            # (e.g. seed 100467, n 200, h 0.0625): a typed error, not an estimate
            try:
                return fn(ds, q, params, folds)
            except EstimationError as exc:
                assert "denominator nonpositive" in str(exc)
                return repr(exc)

        first = repr(answer(estimate_stwcr, StwcrQuery(1, 7.0)))
        sym = answer(estimate_stwcrve, StwcrveQuery(1, 1, 7.0, 7.0))
        if isinstance(sym, estimators.StwcrveReport):
            assert sym.delta_hat == 0.0
        assert repr(answer(estimate_stwcr, StwcrQuery(1, 7.0))) == first


class TestImmutableInputs:
    """A Dataset and fold labels cannot change, so a fold plan needs no check of them."""

    COLUMNS = ("y", "a", "s", "b", "x")

    def test_columns_and_labels_are_read_only(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 29))
        for name in self.COLUMNS:
            with pytest.raises(ValueError, match="read-only"):
                getattr(ds, name)[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            make_folds(200, 5, 9).labels[0] = 2

    @pytest.mark.parametrize("name", [*COLUMNS, "covariate_names", "outcome_kind"])
    def test_attributes_cannot_be_rebound(self, name):
        ds = gen_dataset(ScenarioSpec("I", 200, 29))
        with pytest.raises(AttributeError, match="immutable"):
            setattr(ds, name, getattr(ds, name))

    def test_attributes_cannot_be_deleted(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 29))
        for name in [*self.COLUMNS, "covariate_names", "outcome_kind"]:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(ds, name)

    @pytest.mark.parametrize("copier", [lambda ds: pickle.loads(pickle.dumps(ds)), copy.deepcopy,
                                        copy.copy], ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_immutable_and_answer_alike(self, copier):
        ds = gen_dataset(ScenarioSpec("I", 400, 29))
        folds = make_folds(400, 5, 9)
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        copied = copier(ds)
        assert type(copied) is Dataset
        for name in self.COLUMNS:
            assert not getattr(copied, name).flags.writeable
            assert repr(getattr(copied, name)) == repr(getattr(ds, name))
        assert (copied.covariate_names, copied.outcome_kind) == (ds.covariate_names, ds.outcome_kind)
        assert repr(estimate(copied, q, folds)) == repr(estimate(ds, q, folds))
        with pytest.raises(AttributeError, match="immutable"):
            del copied.y

    def test_editing_the_callers_arrays_changes_nothing(self):
        trial = gen_dataset(ScenarioSpec("I", 400, 29))
        cols = {name: getattr(trial, name).astype(float) for name in self.COLUMNS}
        labels = make_folds(400, 5, 9).labels.astype(float)
        ds = Dataset(**cols, covariate_names=trial.covariate_names)
        folds = FoldAssignment(5, labels)
        kept = {name: getattr(ds, name).copy() for name in self.COLUMNS}
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        before = repr(estimate(ds, q, folds))
        for col in cols.values():
            col[:6] = 1 - col[:6]
        labels[:6] = labels[6:12]
        for name in self.COLUMNS:
            assert repr(getattr(ds, name)) == repr(kept[name])
        assert repr(estimate(ds, q, folds)) == before
        assert repr(estimate(fresh_copy(ds), q, folds)) == before

    def test_folds_compare_by_identity(self):
        folds = make_folds(100, 5, 9)
        equal = FoldAssignment(5, folds.labels)
        assert folds == folds and folds != equal
        assert len({folds, equal}) == 2


# the perfbench sweep-1k queries
SWEEP_1K = ([StwcrQuery(1, 5.0 + 0.35 * k) for k in range(20)]
            + [StwcrveQuery(1, 0, s1, 7.0) for s1 in (6.0, 8.0, 9.0, 10.0)]
            + [StwcrveQuery(1, 1, 7.0, 7.0)])


@pytest.fixture()
def count_local_terms(monkeypatch):
    """Counts calls of ``stwcr.eif.local_terms`` by arm."""
    calls = {0: 0, 1: 0}
    real = eif.local_terms

    def counting(*args):
        calls[args[5]] += 1
        return real(*args)

    monkeypatch.setattr(eif, "local_terms", counting)
    return calls


class TestFoldPlan:
    def test_sweep_equals_fresh_copies(self, count_local_terms):
        ds = gen_dataset(ScenarioSpec("I", 1000, 27))
        folds = make_folds(1000, 5, 7)
        warm = [repr(estimate(ds, q, folds)) for q in SWEEP_1K]
        # each arm's local terms once per fold, for the whole sweep
        assert count_local_terms == {0: 5, 1: 5}
        assert warm == [repr(estimate(fresh_copy(ds), q, folds)) for q in SWEEP_1K]
        assert "delta_hat=0.0," in warm[-1]

    def test_new_t_or_epsilon_replaces_the_terms(self, count_local_terms):
        ds = gen_dataset(ScenarioSpec("I", 400, 28))
        folds = make_folds(400, 5, 8)
        q = StwcrQuery(1, 7.5)
        for params in (PARAMS, replace(PARAMS, t=0.2), replace(PARAMS, epsilon=0.05), PARAMS):
            warm = estimate_stwcr(ds, q, params, folds)
            assert repr(warm) == repr(estimate_stwcr(fresh_copy(ds), q, params, folds))
            # one (t, epsilon) is kept: the terms of arm 1 at these params
            plan = estimators._FOLD_FITS[ds]
            assert plan._params[:2] == (params.t, params.epsilon)
            assert set(plan.terms) == {1}
        assert count_local_terms[1] == 4 * 5 + 4 * 5  # the copies are cold too

    def test_new_params_fill_the_same_dict(self):
        ds = gen_dataset(ScenarioSpec("I", 400, 37))
        folds = make_folds(400, 5, 15)
        estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)
        plan = estimators._FOLD_FITS[ds]
        terms = plan.terms
        for params in (replace(PARAMS, t=0.2), PARAMS):
            estimate_stwcr(ds, StwcrQuery(0, 7.0), params, folds)
            # emptied in place by the new params, so a reference taken before stays the plan's
            assert estimators._FOLD_FITS[ds] is plan and plan.terms is terms
            assert set(terms) == {0}

    def test_swapped_folds(self):
        ds = gen_dataset(ScenarioSpec("I", 400, 30))
        one, other = make_folds(400, 5, 10), make_folds(400, 4, 11)
        for folds in (one, other, one):
            for q in (StwcrQuery(0, 6.5), StwcrveQuery(0, 1, 7.0, 8.0)):
                assert repr(estimate(ds, q, folds)) == repr(estimate(fresh_copy(ds), q, folds))

    WINDOW_PARAMS = (PARAMS, PARAMS, replace(PARAMS, t=0.2), replace(PARAMS, epsilon=0.05),
                     replace(PARAMS, h=0.2, h0=0.2, h1=0.2), replace(PARAMS, quad_nodes=16),
                     replace(PARAMS, window_halfwidth_in_h=5.0))
    # arms and centers from small sets, so that windows repeat
    QUERIES = st.one_of(
        st.builds(StwcrQuery, st.sampled_from((0, 1)), st.sampled_from((6.5, 7.0))),
        st.builds(StwcrveQuery, st.sampled_from((0, 1)), st.sampled_from((0, 1)),
                  st.sampled_from((6.5, 7.0, 8.0)), st.sampled_from((6.5, 7.0))))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(300, 500),
           asked=st.lists(st.tuples(QUERIES, st.sampled_from(WINDOW_PARAMS)),
                          min_size=1, max_size=8))
    # the comparator's window kept, then asked with one other part of its key
    @example(seed=3, n=400, asked=[(StwcrveQuery(1, 0, s1, 7.0), params)
                                   for other in WINDOW_PARAMS[2:] for params in (PARAMS, other)
                                   for s1 in (6.5, 8.0)])
    # an arm asked two windows in one query keeps neither
    @example(seed=4, n=400, asked=[(StwcrveQuery(1, 0, 8.0, 7.0), PARAMS),
                                   (StwcrveQuery(0, 0, 6.5, 7.0), PARAMS),
                                   (StwcrveQuery(1, 0, 8.0, 6.5), PARAMS),
                                   (StwcrveQuery(1, 0, 7.0, 6.5), PARAMS)])
    def test_any_query_sequence_equals_fresh_copies(self, seed, n, asked):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        folds = make_folds(n, 5, seed)

        def answer(data, q, params):
            fn = estimate_stwcr if isinstance(q, StwcrQuery) else estimate_stwcrve
            try:
                return repr(fn(data, q, params, folds))
            except EstimationError as exc:  # a nonpositive denominator at small n
                return repr(exc)

        warm = [answer(ds, q, params) for q, params in asked]
        assert warm == [answer(fresh_copy(ds), q, params) for q, params in asked]

    def test_repeated_comparator_window_is_kept(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 400, 35))
        folds = make_folds(400, 5, 13)
        made = []
        real = eif._kernel_integrals_1d

        def counting(center, h, arm, *args):
            made.append(arm)
            return real(center, h, arm, *args)

        monkeypatch.setattr(eif, "_kernel_integrals_1d", counting)
        for s1 in (6.0, 8.0, 9.0):
            made.clear()
            estimate(ds, StwcrveQuery(1, 0, s1, 7.0), folds)
        # the comparator's window was asked by the first two queries in a row
        assert made == [1] * 5
        # terms are kept for one (t, epsilon, quad_nodes, window_halfwidth_in_h):
        # other params remake the comparator's window, and so do the old ones after them
        for params in (replace(PARAMS, quad_nodes=16), PARAMS,
                       replace(PARAMS, window_halfwidth_in_h=5.0), PARAMS):
            made.clear()
            estimate_stwcrve(ds, StwcrveQuery(1, 0, 10.0, 7.0), params, folds)
            assert made == [0] * 5 + [1] * 5  # each window on every fold, the comparator's first

    def test_one_query_keeps_no_window(self):
        for q, arms in ((StwcrQuery(1, 7.0), {1}), (StwcrveQuery(1, 0, 8.0, 7.0), {0, 1}),
                        (StwcrveQuery(0, 0, 8.0, 7.0), {0})):
            ds = gen_dataset(ScenarioSpec("I", 400, 36))
            estimate(ds, q, make_folds(400, 5, 14))
            # the plan keeps its arms' local terms and no window
            assert set(estimators._FOLD_FITS[ds].terms) == arms

    @pytest.mark.parametrize("group_rows", [64, 256])
    def test_groups_equal_one_group(self, monkeypatch, group_rows):
        # 64 cuts each 200-row part into pieces, 256 joins parts; both multiples of the block
        ds = gen_dataset(ScenarioSpec("I", 1000, 27))
        folds = make_folds(1000, 5, 7)
        queries = SWEEP_1K[:3] + SWEEP_1K[20:]
        one = [repr(estimate(ds, q, folds)) for q in queries]
        one_terms = estimators._FOLD_FITS[ds].terms
        monkeypatch.setattr(parallel, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(eif, "_GROUP_ROWS", group_rows)
        copy = fresh_copy(ds)
        assert [repr(estimate(copy, q, folds)) for q in queries] == one
        # the comparator's window, kept, was filled group by group
        terms = estimators._FOLD_FITS[copy].terms
        assert terms.keys() == one_terms.keys() == {0, 1, (0, 7.0, 0.1)}
        for key, value in terms.items():
            grouped, whole = (list(v.values()) if isinstance(v, dict) else list(v)
                              for v in (value, one_terms[key]))
            assert all(np.array_equal(u, v) for u, v in zip(grouped, whole, strict=True))

    def test_window_kept_by_its_query_is_made_once(self, monkeypatch):
        # in groups of 64 rows, the second query in a row on the comparator's window keeps
        # it: made ahead of the groups, each piece once, as the other window is group by group
        ds = gen_dataset(ScenarioSpec("I", 1000, 27))
        folds = make_folds(1000, 5, 7)
        monkeypatch.setattr(parallel, "_BLOCK_ROWS", 16)
        monkeypatch.setattr(eif, "_GROUP_ROWS", 64)
        made = []
        real = eif._kernel_integrals_1d

        def counting(center, h, arm, *args):
            made.append(arm)
            return real(center, h, arm, *args)

        monkeypatch.setattr(eif, "_kernel_integrals_1d", counting)
        estimate(ds, StwcrveQuery(1, 0, 6.0, 7.0), folds)
        made.clear()
        estimate(ds, StwcrveQuery(1, 0, 8.0, 7.0), folds)
        assert (0, 7.0, 0.1) in estimators._FOLD_FITS[ds].terms
        assert made.count(0) == made.count(1) > 5

    @pytest.mark.parametrize("q", [StwcrQuery(1, 12.0), StwcrveQuery(1, 0, 12.0, 7.0)])
    def test_clipped_window_equals_one_triple_batches(self, q):
        # the trial's largest markers are 12.47 and 12.40, both in fold 2, so fold 2's
        # support ends at 12.12 and the others' at 12.47: a window at 12 takes two rules
        ds = gen_dataset(ScenarioSpec("I", 1000, 11))
        folds = make_folds(1000, 5, 12)
        rep = estimate(ds, q, folds)
        fits = estimators._FOLD_FITS[ds].fits
        arm, center, h = q.windows(PARAMS)[-1]
        assert len({kernel_window(center, h, nuis.support, PARAMS) for nuis, _ in fits}) == 2
        # each fold's held-out rows in one call with that fold's triple alone
        batch = getattr(eif, f"eif_{q.kind}_batch")
        num, den = np.empty(1000), np.empty(1000)
        for k, (nuis, _) in enumerate(fits, start=1):
            held = folds.labels == k
            num[held], den[held], _ = batch(*(getattr(ds, name)[held] for name in "yasbx"),
                                            q, nuis, PARAMS)
        inf = estimators._Influence(num, den, float(np.mean(num)), float(np.mean(den)), 0, 0)
        ratio, var = inf.ratio_var()
        assert (rep.tau_num_hat, rep.tau_den_hat) == (inf.tau_num, inf.tau_den)
        if isinstance(q, StwcrQuery):
            assert (rep.tau_hat, rep.sigma1_sq_hat) == (ratio, var)
        else:
            assert (rep.rho_hat, rep.sigma2_sq_hat) == (ratio, var)

    def test_held_out_rows_keep_their_order(self):
        ds = gen_dataset(ScenarioSpec("I", 300, 31))
        folds = make_folds(300, 5, 12)
        plan = estimators._fold_plan(ds, folds, ModelSpecs())
        edges = plan.nuis.edges
        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]), start=1):
            assert np.array_equal(plan.index[lo:hi], np.flatnonzero(folds.labels == k))
            for col, name in zip(plan.rows, ("y", "a", "s", "b", "x")):
                assert np.array_equal(col[lo:hi], getattr(ds, name)[folds.labels == k])

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(50, 400), k=st.integers(2, 10), seed=st.integers(0, 2**32 - 1))
    def test_parts_are_the_folds(self, n, k, seed):
        # the batch reads the plan's parts unchecked: part j must be fold j + 1's
        # rows, evaluated with that fold's fit
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        folds = make_folds(n, k, seed)
        plan = estimators._fold_plan(ds, folds, ModelSpecs())
        edges, triples = plan.nuis
        assert len(edges) == k + 1 and all(type(edge) is int for edge in edges)
        assert edges[0] == 0 and edges[-1] == n
        assert all(lo < hi for lo, hi in zip(edges, edges[1:]))
        assert len(triples) == k
        for j, (triple, (fit, _)) in enumerate(zip(triples, plan.fits)):
            assert triple is fit
            assert triple.support == support_bounds(ds.subset(folds.labels != j + 1))
        assert np.array_equal(np.sort(plan.index), np.arange(n))
        for j, (lo, hi) in enumerate(zip(edges, edges[1:])):
            assert np.all(folds.labels[plan.index[lo:hi]] == j + 1)


def fitted_values(fits):
    """Every fitted number of a ``_FoldPlan``'s fits, fold by fold."""
    return [(degen, nuis.propensity.coef, nuis.cond_density.coef, nuis.cond_density.residual_sd,
             nuis.outcome.coef, nuis.support) for nuis, degen in fits]


class TestThreadedFoldFits:
    SPECS = ModelSpecs(propensity=FeatureSpec([intercept(), raw("b"), raw("x1")]))

    def test_coefficients_equal_serial(self, monkeypatch, thread_pools):
        ds = gen_dataset(ScenarioSpec("I", 600, 31))
        folds = make_folds(600, 5, 3)
        monkeypatch.setattr(estimators, "_THREADED_FIT_ROWS", 0)
        thread_pools.use(1)
        serial = fitted_values(estimators._fold_plan(fresh_copy(ds), folds, self.SPECS).fits)
        thread_pools.use(2)
        threaded = fitted_values(estimators._fold_plan(fresh_copy(ds), folds, self.SPECS).fits)
        assert thread_pools.made == [2]
        for left, right in zip(serial, threaded, strict=True):
            for u, v in zip(left, right, strict=True):
                assert np.array_equal(u, v)

    def test_threshold(self, thread_pools):
        thread_pools.use(2)
        small = gen_dataset(ScenarioSpec("I", 1000, 32))
        estimators._fold_plan(small, make_folds(1000, 5, 0), ModelSpecs())
        assert thread_pools.made == []
        n = estimators._THREADED_FIT_ROWS
        large = gen_dataset(ScenarioSpec("I", n, 33))
        estimators._fold_plan(large, make_folds(n, 5, 0), ModelSpecs())
        assert thread_pools.made == [2]

    def test_lowest_failing_fold_named(self, monkeypatch, thread_pools):
        ds = gen_dataset(ScenarioSpec("I", 400, 34))
        folds = make_folds(400, 5, 5)
        fold4_failed = threading.Event()
        real = estimators.fit_outcome

        def failing(train, spec, **kwargs):
            if train.held_out == 1:  # fold 2
                # fold 2 fails only after fold 4 has, so fold order, not
                # completion order, must pick the error
                assert fold4_failed.wait(timeout=30)
                raise SolverError("singular design")
            if train.held_out == 3:  # fold 4
                fold4_failed.set()
                raise SolverError("singular design")
            return real(train, spec, **kwargs)

        monkeypatch.setattr(estimators, "fit_outcome", failing)
        monkeypatch.setattr(estimators, "_THREADED_FIT_ROWS", 0)
        thread_pools.use(2)
        with pytest.raises(EstimationError, match="nuisance fit failed in fold 2:"):
            estimators._fold_plan(ds, folds, ModelSpecs())
        assert thread_pools.made == [2]
        assert fold4_failed.is_set()
        assert ds not in estimators._FOLD_FITS


def with_fourth_covariate(ds, x4):
    """``ds`` with covariate x4 added: default specs then read x1..x4 raw."""
    return Dataset(y=ds.y, a=ds.a, s=ds.s, b=ds.b, x=np.column_stack([ds.x, x4]),
                   covariate_names=("x1", "x2", "x3", "x4"), outcome_kind=ds.outcome_kind)


class TestFoldSlices:
    """Fold fits read the plan's rows sorted by fold: one design per model, no copies."""

    def test_duplicate_covariate_is_a_singular_design(self):
        ds = gen_dataset(ScenarioSpec("I", 400, 38))
        dup = with_fourth_covariate(ds, ds.x[:, 0])
        with pytest.raises(EstimationError, match="nuisance fit failed in fold 1: singular design"):
            estimate_stwcr(dup, StwcrQuery(1, 7.0), PARAMS, make_folds(400, 5, 0))
        assert dup not in estimators._FOLD_FITS

    def test_nearly_collinear_design_matches_lstsq(self):
        # bound and its reasoning in CHANGES.md: about kappa * eps per coefficient
        ds = gen_dataset(ScenarioSpec("I", 400, 39))
        noise = np.random.default_rng(0).normal(size=400)
        folds = make_folds(400, 5, 1)
        for scale, min_cond in ((1e-5, 1e5), (1e-7, 1e7)):
            near = with_fourth_covariate(ds, ds.x[:, 0] + scale * noise)
            specs = ModelSpecs().for_dataset(near)
            terms = specs.cond_density_spec.resolve(CondDensityModel.ROLES, near.covariate_names)
            assert np.linalg.cond(terms.design(near)) > min_cond
            plan = estimators._fold_plan(near, folds, specs)
            for k, (nuis, _) in enumerate(plan.fits, start=1):
                train = near.subset(folds.labels != k)
                # the plan's training rows are the same rows, sorted by fold
                coef, *_ = np.linalg.lstsq(terms.design(train), train.s, rcond=None)
                np.testing.assert_allclose(nuis.cond_density.coef, coef, rtol=1e-8)
            coef, *_ = np.linalg.lstsq(terms.design(near), near.s, rcond=None)
            np.testing.assert_allclose(fit_cond_density(near, specs.cond_density_spec).coef, coef,
                                       rtol=1e-8)

    @pytest.mark.parametrize("k", [2, 5, 10])
    def test_one_design_per_model(self, monkeypatch, k):
        ds = gen_dataset(ScenarioSpec("I", 600, 40))
        built = []
        real = nuisance._Terms.design
        monkeypatch.setattr(nuisance._Terms, "design",
                            lambda terms, data: built.append(len(data)) or real(terms, data))
        specs = ModelSpecs(propensity=FeatureSpec([intercept(), raw("b"), raw("x1")]))
        estimators._fold_plan(ds, make_folds(600, k, 2), specs)
        assert built == [600, 600, 600]  # propensity, density, outcome, each over every row

    def test_fold_plan_peak_memory(self, thread_pools):
        # bound and its reasoning in CHANGES.md: about 4 D expected; fold fits on
        # per-fold training subsets traced 5.5 D
        n = 40_000
        ds = gen_dataset(ScenarioSpec("I", n, 41))
        folds = make_folds(n, 5, 3)
        data_bytes = sum(col.nbytes for col in (ds.y, ds.a, ds.s, ds.b, ds.x))
        thread_pools.use(2)
        tracemalloc.start()
        try:
            estimators._fold_plan(ds, folds, ModelSpecs())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert thread_pools.made == [2]
        assert peak < 5 * data_bytes, f"peak {peak / data_bytes:.2f} x the dataset's bytes"


class TestWarmStartedFolds:
    """Folds 2..K start their logistic fits from fold 1's coefficients."""

    SPECS = ModelSpecs(propensity=FeatureSpec([intercept(), raw("b"), raw("x1")]))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 1500), k=st.sampled_from((2, 5, 10)),
           fitted=st.booleans(), continuous=st.booleans(),
           block_rows=st.sampled_from((7, 64, nuisance._FIT_BLOCK_ROWS)))
    @example(seed=3, n=1003, k=10, fitted=True, continuous=True, block_rows=7)  # n not divisible by K
    @example(seed=4, n=20_003, k=5, fitted=True, continuous=False,  # folds fit on threads
             block_rows=nuisance._FIT_BLOCK_ROWS)
    @example(seed=5, n=20_001, k=2, fitted=False, continuous=True, block_rows=nuisance._FIT_BLOCK_ROWS)
    def test_chained_fits_equal_cold_fits(self, seed, n, k, fitted, continuous, block_rows):
        # fold fits read the plan's sorted rows in blocks of block_rows; cold
        # fits get a gathered copy of each fold's training rows in their
        # original order, in blocks of the default size
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        if continuous:
            noise = np.random.default_rng(seed).normal(size=n)
            ds = Dataset(y=2.0 + ds.s - ds.a + 0.5 * ds.b + ds.x[:, 1] - ds.x[:, 2] + noise,
                         a=ds.a, s=ds.s, b=ds.b, x=ds.x, covariate_names=ds.covariate_names,
                         outcome_kind="continuous")
        folds = make_folds(n, k, seed)
        specs = (self.SPECS if fitted else ModelSpecs()).for_dataset(ds)
        with pytest.MonkeyPatch.context() as mp:
            pools = ThreadPools(mp)
            pools.use(2)
            mp.setattr(nuisance, "_FIT_BLOCK_ROWS", block_rows)
            plan = estimators._fold_plan(ds, folds, specs)
        threaded = n >= estimators._THREADED_FIT_ROWS and k > 2
        assert pools.made == ([2] if threaded else [])
        for fold, (nuis, degenerate) in enumerate(plan.fits, start=1):
            train = ds.subset(folds.labels != fold)
            ridge = {"ridge": estimators.DEGENERATE_RIDGE} if degenerate else {}
            cond = fit_cond_density(train, specs.cond_density_spec)
            np.testing.assert_allclose(nuis.cond_density.coef, cond.coef, rtol=1e-10, atol=0)
            assert nuis.cond_density.residual_sd == pytest.approx(cond.residual_sd, rel=1e-10)
            assert nuis.support == support_bounds(train)
            outcome = fit_outcome(train, specs.outcome_spec, **ridge)
            assert nuis.outcome.kind == ("linear" if continuous else "logistic")
            if continuous:
                np.testing.assert_allclose(nuis.outcome.coef, outcome.coef, rtol=1e-10, atol=0)
            cold = [] if continuous else [(nuis.outcome.coef, outcome.coef)]
            if fitted:
                cold.append((nuis.propensity.coef,
                             fit_propensity(train, spec=specs.propensity, **ridge).coef))
            # IRLS stops once the score's max-norm is below 1e-9, so fits from
            # two starts agree to about 1e-9 / (the Hessian's least eigenvalue)
            for chained, coef in cold:
                np.testing.assert_allclose(chained, coef, rtol=1e-10, atol=1e-9)

    def test_degenerate_fold_1_starts_no_fold(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 400, 36))
        calls = []
        real = estimators.fit_outcome

        def recording(train, spec, **kwargs):
            calls.append(kwargs)
            if len(calls) == 1:  # fold 1's first try
                raise SolverError("singular design")
            return real(train, spec, **kwargs)

        monkeypatch.setattr(estimators, "fit_outcome", recording)
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(400, 5, 6))
        # a start of None is a start from zero
        assert calls == ([{"start": None}, {"ridge": estimators.DEGENERATE_RIDGE}]
                         + [{"start": None}] * 4)
        assert rep.degenerate_folds == 1

    def test_failed_warm_fit_retried_from_zero(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 400, 37))
        folds = make_folds(400, 5, 7)
        calls = []
        real = estimators.fit_outcome

        def failing(train, spec, **kwargs):
            # a start of None is a start from zero, recorded as no start
            calls.append(sorted(k for k, v in kwargs.items() if v is not None))
            if train.held_out == 2 and "ridge" not in kwargs:  # fold 3's first try
                raise SolverError("singular design")
            return real(train, spec, **kwargs)

        monkeypatch.setattr(estimators, "fit_outcome", failing)
        plan = estimators._fold_plan(ds, folds, ModelSpecs())
        assert calls == [[], ["start"], ["start"], ["ridge"], ["start"], ["start"]]
        assert [degenerate for _, degenerate in plan.fits] == [False, False, True, False, False]

    def test_pinned_sweep_reports(self):
        # tau_hat and se (delta_hat and sigma2log_sq_hat) from fits that all
        # start at zero: a warm start may move them only in the last digits
        ds = gen_dataset(ScenarioSpec("I", 1000, 35))
        folds = make_folds(1000, 5, 13)
        pinned = [(SWEEP_1K[3], 0.4616298237434801, 0.08101637558327524),
                  (SWEEP_1K[10], 0.2859940324438155, 0.06778462426466116),
                  (SWEEP_1K[21], 0.5404277687527257, 50.29861548395229)]
        for q, value, spread in pinned:
            rep = estimate(ds, q, folds)
            if isinstance(q, StwcrQuery):
                got = (rep.tau_hat, rep.se)
            else:
                got = (rep.delta_hat, rep.sigma2log_sq_hat)
            assert got == (pytest.approx(value, rel=1e-10), pytest.approx(spread, rel=1e-10))
            assert rep.degenerate_folds == 0

    def test_injected_plan_holds_the_dataset_columns(self, monkeypatch, scen1):
        ds, nuis = scen1
        plans = []

        class Recording(estimators._FoldPlan):
            def __init__(self, *args):
                super().__init__(*args)
                plans.append(self)

        monkeypatch.setattr(estimators, "_FoldPlan", Recording)
        folds = make_folds(len(ds), 5, 0)
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds, nuisances=nuis)
        (plan,) = plans
        for col, name in zip(plan.rows, ("y", "a", "s", "b", "x"), strict=True):
            assert np.shares_memory(col, getattr(ds, name))
        monkeypatch.undo()
        assert repr(rep) == repr(estimate_stwcr(fresh_copy(ds), StwcrQuery(1, 7.0), PARAMS, folds,
                                                nuisances=nuis))


def reflected(ci):
    return (1.0 - ci[1], 1.0 - ci[0])


class TestIntervalDuality:
    # Each branch computes one interval and reflects it into the other, so
    # that direction is exact. Reflecting back rounds 1 - x twice, which is
    # exact only where Sterbenz's lemma holds, so it is held to 4 eps.
    @staticmethod
    def assert_dual(rep):
        assert rep.log_scale == (rep.rho_hat > 0)
        if rep.log_scale:
            assert rep.ci_delta == reflected(rep.ci_rho)
            assert rep.ci_rho[0] > 0
            assert rep.warnings == ()
        else:
            assert rep.ci_rho == reflected(rep.ci_delta)
            assert np.isnan(rep.sigma2log_sq_hat) and rep.warnings
        assert rep.ci_delta[0] <= rep.delta_hat <= rep.ci_delta[1]
        back = np.array(reflected(reflected(rep.ci_delta)))
        assert np.all(np.abs(back - rep.ci_delta) <= 4 * np.finfo(float).eps
                      * np.maximum(1.0, np.abs(rep.ci_delta)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600),
           h0=st.floats(0.05, 0.3), h1=st.floats(0.05, 0.3))
    def test_log_scale_branch(self, seed, n, h0, h1):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        params = replace(PARAMS, h0=h0, h1=h1)
        try:
            rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), params,
                                   make_folds(n, 5, seed), nuisances=true_nuisances("I"))
        except EstimationError as exc:
            assert "denominator nonpositive" in str(exc)
            return
        self.assert_dual(rep)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 400),
           h0=st.floats(0.05, 0.3), h1=st.floats(0.05, 0.3))
    def test_direct_scale_branch(self, seed, n, h0, h1):
        from test_eif import ConstantDensity

        rng = np.random.default_rng(seed)
        a = rng.permutation(np.arange(n) % 2)
        ds = Dataset(y=np.where(a == 0, 1.0, -1.0), a=a, s=rng.normal(7.5, 1.0, n),
                     b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                     outcome_kind="continuous")
        nuis = NuisanceTriple(
            propensity=KnownPropensity(prob_treated=0.5),
            cond_density=ConstantDensity(0.3), outcome=ArmSignedOutcome(),
            support=Interval.wide())
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), replace(PARAMS, h0=h0, h1=h1),
                               make_folds(n, 2, seed), nuisances=nuis)
        assert rep.rho_hat < 0
        self.assert_dual(rep)


def _oracle_report(fn, ds, q, params, folds):
    """The oracle-nuisance report, or the typed error's text."""
    try:
        return fn(ds, q, params, folds, nuisances=true_nuisances("I"))
    except EstimationError as exc:
        assert "denominator nonpositive" in str(exc)
        return repr(exc)


def _assert_close(left, right, fields, scale=0.0, rel=1e-12):
    """Fields equal to within ``rel`` of max(|value|, scale)."""
    for name in fields:
        u, v = np.ravel(getattr(left, name)), np.ravel(getattr(right, name))
        assert np.all(np.abs(u - v) <= rel * np.maximum(np.abs(u), scale)), name


class TestOracleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600), h=st.floats(0.05, 0.3),
           fold_seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    # half = 193: ci_delta's lower endpoint, -1.34e81, moves by 5e-12 relative
    @example(seed=166, n=200, h=0.15625, fold_seeds=(0, 0))
    def test_row_order_and_fold_seed(self, seed, n, h, fold_seeds):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        shuffled = ds.subset(np.random.default_rng(seed).permutation(n))
        params = replace(PARAMS, h=h, h0=h, h1=h)
        f1, f2 = (make_folds(n, 5, fs) for fs in fold_seeds)
        for fn, q in ((estimate_stwcr, StwcrQuery(1, 7.0)),
                      (estimate_stwcrve, StwcrveQuery(1, 0, 8.0, 7.0))):
            rep = _oracle_report(fn, ds, q, params, f1)
            # with the nuisances given, nothing is fit on the folds
            assert repr(_oracle_report(fn, ds, q, params, f2)) == repr(rep)
            moved = _oracle_report(fn, shuffled, q, params, f1)
            assert type(moved) is type(rep)
            if isinstance(rep, str):
                continue
            # row order changes only the summation order of the means and variances
            _assert_reports_close(rep, moved, params.alpha, rel=1e-12)


def _assert_reports_close(rep, moved, alpha, rel):
    """Two reports of one query agree to within ``rel``, and their counts are equal.

    Risks and ratios are compared on their unit scale: an estimate or CI
    endpoint near 0 is a difference of O(1) terms. Variances are compared
    relative to their size.
    """
    assert (moved.n, moved.density_floor_hits, moved.degenerate_folds) == (
        rep.n, rep.density_floor_hits, rep.degenerate_folds)
    if isinstance(rep, estimators.StwcrReport):
        _assert_close(rep, moved, ("tau_hat", "ci"), scale=1.0, rel=rel)
        _assert_close(rep, moved, ("se",), rel=rel)
        return
    assert moved.log_scale == rep.log_scale
    _assert_close(rep, moved, ("rho_hat", "delta_hat"), scale=1.0, rel=rel)
    # the log-scale variance is NaN when rho_hat <= 0
    _assert_close(rep, moved, ("sigma2_sq_hat",)
                  + (("sigma2log_sq_hat",) if rep.log_scale else ()), rel=rel)
    if rep.log_scale:
        # ci_rho = rho*exp(-+half) with half = z*sqrt(sigma2log_sq_hat/n):
        # a relative error e in the variance moves half by |half|*e/2,
        # and exp turns that into a relative error of the endpoint
        half = ndtri(1.0 - alpha / 2.0) * np.sqrt(rep.sigma2log_sq_hat / rep.n)
        tol = rel * (1.0 + abs(half))
        _assert_close(rep, moved, ("ci_rho",), rel=tol)
        # ci_delta = 1 - ci_rho: the same absolute error
        assert np.all(np.abs(np.subtract(rep.ci_delta, moved.ci_delta))
                      <= tol * np.abs(rep.ci_rho)[::-1])
    else:
        _assert_close(rep, moved, ("ci_delta",), scale=1.0, rel=rel)


def _fitted_report(fn, ds, q, folds, specs):
    """The fitted report, or the typed error's text."""
    try:
        return fn(ds, q, PARAMS, folds, model_specs=specs)
    except EstimationError as exc:
        assert "denominator nonpositive" in str(exc)
        return repr(exc)


class TestFittedRowOrder:
    # Permuting the rows together with their fold labels keeps every fold's
    # rows, so each fit solves the same problem from the same start and only
    # the order of its sums changes; bound and reasoning in CHANGES.md.
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 800), k=st.sampled_from((2, 5)),
           fitted=st.booleans())
    def test_rows_permuted_with_their_folds(self, seed, n, k, fitted):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        folds = make_folds(n, k, seed)
        perm = np.random.default_rng(seed).permutation(n)
        shuffled, moved_folds = ds.subset(perm), FoldAssignment(k, folds.labels[perm])
        specs = TestWarmStartedFolds.SPECS if fitted else ModelSpecs()
        for fn, q in ((estimate_stwcr, StwcrQuery(1, 7.0)),
                      (estimate_stwcrve, StwcrveQuery(1, 0, 8.0, 7.0))):
            rep = _fitted_report(fn, ds, q, folds, specs)
            moved = _fitted_report(fn, shuffled, q, moved_folds, specs)
            assert type(moved) is type(rep)
            if not isinstance(rep, str):
                _assert_reports_close(rep, moved, PARAMS.alpha, rel=1e-9)
