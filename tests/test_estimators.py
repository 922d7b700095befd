import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stwcr import estimators
from stwcr.core import Interval, SmoothingParams
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.errors import EstimationError, InvalidParameterError, SolverError
from stwcr.estimators import (
    FoldAssignment,
    ModelSpecs,
    estimate_stwcr,
    estimate_stwcrve,
    make_folds,
)
from stwcr.nuisance import Dataset, FeatureSpec, NuisanceTriple, PropensityModel, intercept, raw
from stwcr.simulation import ScenarioSpec, compute_truths, gen_dataset, true_nuisances

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

    @pytest.mark.parametrize("n,k", [(5, 6), (10, 1), (3, 0)])
    def test_invalid(self, n, k):
        with pytest.raises(InvalidParameterError):
            make_folds(n, k, 0)

    def test_assignment_validation(self):
        with pytest.raises(InvalidParameterError):
            FoldAssignment(k_folds=3, labels=np.array([1, 1, 2]))  # fold 3 empty

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
    @pytest.mark.parametrize("kwargs", [
        {"propensity_spec": FeatureSpec([intercept(), raw("b")])},  # known 0.5 still set
        {"known_propensity": None},
    ])
    def test_exactly_one_propensity_source(self, kwargs):
        with pytest.raises(InvalidParameterError, match="exactly one"):
            ModelSpecs(**kwargs)

    def test_propensity_spec_fitted_in_every_fold(self, monkeypatch):
        ds = gen_dataset(ScenarioSpec("I", 400, 27))
        spec = FeatureSpec([intercept(), raw("b")])
        calls = []
        real = estimators.fit_propensity

        def recording(data, **kwargs):
            calls.append(kwargs)
            return real(data, **kwargs)

        monkeypatch.setattr(estimators, "fit_propensity", recording)
        estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(400, 5, 0),
                       model_specs=ModelSpecs(known_propensity=None, propensity_spec=spec))
        assert calls == [{"spec": spec}] * 5


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

    def test_oracle_mode_is_plain_mean(self, scen1):
        ds, nuis = scen1
        from stwcr.eif import eif_stwcr_batch

        num, den, _ = eif_stwcr_batch(ds.y, ds.a, ds.s, ds.b, ds.x,
                                      StwcrQuery(1, 7.0), nuis, PARAMS)
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(1000, 5, 3),
                             nuisances=nuis)
        assert rep.tau_num_hat == float(np.mean(num))
        assert rep.tau_den_hat == float(np.mean(den))

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

    def test_fold_size_mismatch(self, scen1):
        ds, _ = scen1
        with pytest.raises(InvalidParameterError):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(999, 5, 0))

    def test_unfilled_influence_slot_raises(self, scen1):
        ds, _ = scen1
        folds = make_folds(1000, 5, 0)
        folds.labels[0] = 6  # relabelled after validation: row 0 is never held out
        with pytest.raises(EstimationError, match="left unset"):
            estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, folds)

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
            propensity=PropensityModel(kind="known", prob_treated=0.5),
            cond_density=ConstantDensity(0.3), outcome=ConstantOutcome(-0.2),
            support=Interval.wide())
        rep = estimate_stwcr(ds, StwcrQuery(1, 7.0), PARAMS, make_folds(n, 2, 0),
                             nuisances=nuis)
        assert rep.tau_hat > 1.0
        assert any("outside [0, 1]" in w for w in rep.warnings)


class TestEstimateStwcrve:
    def test_single_run_near_truth(self):
        ds = gen_dataset(ScenarioSpec("I", 2000, 8))
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               make_folds(2000, 5, 99))
        truth = compute_truths("I", (StwcrveQuery(1, 0, 8.0, 7.0),), PARAMS)[0]["truth"]
        se = rep.rho_hat * np.sqrt(rep.sigma2log_sq_hat / rep.n)
        assert abs(rep.delta_hat - truth) < 4 * se
        assert rep.log_scale

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

        class ArmSignedOutcome:
            # +1 risk under the comparator arm, -1 under the investigational
            def predict_at(self, a, s, b, x):
                return np.full(np.shape(b)[0], 1.0 if a == 0 else -1.0)

            def predict_grid(self, a, s_nodes, b, x):
                return np.full((np.shape(b)[0], np.shape(s_nodes)[0]),
                               1.0 if a == 0 else -1.0)

        n = 80
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, n)
        ds = Dataset(y=np.where(a == 0, 1.0, -1.0), a=a, s=rng.normal(7, 1, n),
                     b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                     outcome_kind="continuous")
        nuis = NuisanceTriple(
            propensity=PropensityModel(kind="known", prob_treated=0.5),
            cond_density=ConstantDensity(0.3), outcome=ArmSignedOutcome(),
            support=Interval.wide())
        rep = estimate_stwcrve(ds, StwcrveQuery(1, 0, 8.0, 7.0), PARAMS,
                               make_folds(n, 2, 0), nuisances=nuis)
        assert rep.rho_hat < 0
        assert not rep.log_scale
        assert rep.warnings
        assert rep.ci_delta[0] <= rep.delta_hat <= rep.ci_delta[1]
        assert rep.ci_delta == (1.0 - rep.ci_rho[1], 1.0 - rep.ci_rho[0])


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
    """A new Dataset with copies of ``ds``'s arrays: no fold fits to reuse."""
    return Dataset(y=ds.y.copy(), a=ds.a.copy(), s=ds.s.copy(), b=ds.b.copy(), x=ds.x.copy(),
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


def estimate(ds, q, folds, specs=None):
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

    @pytest.mark.parametrize("change", ["edit y in place", "new folds", "new specs"])
    def test_change_refits(self, count_outcome_fits, change):
        ds = gen_dataset(ScenarioSpec("I", 400, 23))
        folds = make_folds(400, 5, 3)
        specs = ModelSpecs()
        q = StwcrQuery(1, 7.0)
        first = estimate(ds, q, folds, specs)
        if change == "edit y in place":
            ds.y[:10] = 1.0 - ds.y[:10]
        elif change == "new folds":
            folds = make_folds(400, 5, 4)
        else:
            specs = ModelSpecs(outcome_spec=FeatureSpec(
                [intercept(), raw("s"), raw("a"), raw("b"), raw("x2")]))
        second = estimate(ds, q, folds, specs)
        assert count_outcome_fits[0] == 10
        assert repr(second) == repr(estimate(fresh_copy(ds), q, folds, specs))
        assert repr(second) != repr(first)

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
        params = PARAMS.with_(h=h, h0=h, h1=h)

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


def _oracle_report(fn, ds, q, params, folds):
    """The oracle-nuisance report, or the typed error's text."""
    try:
        return fn(ds, q, params, folds, nuisances=true_nuisances("I"))
    except EstimationError as exc:
        assert "denominator nonpositive" in str(exc)
        return repr(exc)


def _assert_close(left, right, fields, scale=0.0):
    """Fields equal to within a relative 1e-12 of max(|value|, scale)."""
    for name in fields:
        u, v = np.ravel(getattr(left, name)), np.ravel(getattr(right, name))
        assert np.all(np.abs(u - v) <= 1e-12 * np.maximum(np.abs(u), scale)), name


class TestOracleInvariance:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(200, 600), h=st.floats(0.05, 0.3),
           fold_seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_row_order_and_fold_seed(self, seed, n, h, fold_seeds):
        ds = gen_dataset(ScenarioSpec("I", n, seed))
        shuffled = ds.subset(np.random.default_rng(seed).permutation(n))
        params = PARAMS.with_(h=h, h0=h, h1=h)
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
            # row order changes only the summation order of the means and
            # variances. Risks and ratios are compared on their unit scale:
            # an estimate or CI endpoint near 0 is a difference of O(1) terms.
            if fn is estimate_stwcr:
                _assert_close(rep, moved, ("tau_hat", "ci"), scale=1.0)
                _assert_close(rep, moved, ("se",))
            else:
                assert moved.log_scale == rep.log_scale
                _assert_close(rep, moved, ("rho_hat", "delta_hat", "ci_delta"), scale=1.0)
                # the log-scale variance is NaN when rho_hat <= 0
                _assert_close(rep, moved, ("sigma2_sq_hat",)
                              + (("sigma2log_sq_hat",) if rep.log_scale else ()))
            assert moved.density_floor_hits == rep.density_floor_hits
