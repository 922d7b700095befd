import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from stwcr.errors import InvalidParameterError, SolverError
from stwcr.nuisance import (
    PROB_FLOOR,
    CondDensityModel,
    Dataset,
    FeatureSpec,
    KnownPropensity,
    Observation,
    OutcomeModel,
    PropensityModel,
    RowParts,
    TrainingRows,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    intercept,
    interaction,
    irls_logistic,
    raw,
    square,
    support_bounds,
)
from stwcr.simulation import ScenarioSpec, gen_dataset


def tiny_dataset(s_values, outcome_kind=None):
    n = len(s_values)
    return Dataset(y=np.zeros(n), a=np.zeros(n, dtype=int), s=s_values,
                   b=np.zeros(n), x=np.zeros((n, 1)), covariate_names=("x1",),
                   outcome_kind=outcome_kind)


class TestObservationAndDataset:
    def test_observation_validation(self):
        with pytest.raises(InvalidParameterError):
            Observation(y=0.0, a=2, s=1.0, b=0.0, x=(0.0,))
        with pytest.raises(InvalidParameterError):
            Observation(y=math.nan, a=1, s=1.0, b=0.0, x=(0.0,))

    def test_dataset_roundtrip_through_observations(self):
        ds = gen_dataset(ScenarioSpec("I", 60, 5))
        obs = ds.observations
        for name in ("y", "a", "s", "b", "x"):
            assert np.array_equal([getattr(o, name) for o in obs], getattr(ds, name))

    def test_binary_outcome_enforced(self):
        with pytest.raises(InvalidParameterError):
            Dataset(y=[0.5], a=[1], s=[1.0], b=[0.0], x=[[0.0]],
                    covariate_names=("x1",), outcome_kind="binary")

    def test_fractional_treatment_rejected(self):
        with pytest.raises(InvalidParameterError, match="treatment"):
            Dataset(y=[0, 1, 0], a=[0.5, 1, 0], s=[1.0, 2.0, 3.0], b=[0.0, 0.0, 0.0],
                    x=[[0.0], [1.0], [0.5]], covariate_names=("x1",))

    def test_outcome_kind_inferred(self):
        assert tiny_dataset([1.0, 2.0]).outcome_kind == "binary"
        ds = Dataset(y=[0.2, 1.4], a=[0, 1], s=[1.0, 2.0], b=[0.0, 0.0],
                     x=[[0.0], [1.0]], covariate_names=("x1",))
        assert ds.outcome_kind == "continuous"

    @pytest.mark.parametrize("pick", ["mask", "permutation"])
    def test_subset_equals_a_checked_dataset(self, pick):
        ds = gen_dataset(ScenarioSpec("I", 80, 6))
        rng = np.random.default_rng(0)
        idx = rng.random(80) < 0.6 if pick == "mask" else rng.permutation(80)
        sub = ds.subset(idx)
        built = Dataset(ds.y[idx], ds.a[idx], ds.s[idx], ds.b[idx], ds.x[idx],
                        ds.covariate_names, ds.outcome_kind)
        for name in ("y", "a", "s", "b", "x"):
            col, ref = getattr(sub, name), getattr(built, name)
            assert col.dtype == ref.dtype and col.flags.c_contiguous
            assert np.array_equal(col, ref)
        assert (sub.covariate_names, sub.outcome_kind) == (built.covariate_names, built.outcome_kind)

    def test_empty_subset_rejected(self):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            gen_dataset(ScenarioSpec("I", 50, 6)).subset(np.zeros(50, dtype=bool))

    def test_duplicate_and_reserved_names_rejected(self):
        with pytest.raises(InvalidParameterError):
            Dataset(y=[0], a=[0], s=[1.0], b=[0.0], x=[[0.0, 1.0]],
                    covariate_names=("x1", "x1"))
        with pytest.raises(InvalidParameterError):
            Dataset(y=[0], a=[0], s=[1.0], b=[0.0], x=[[0.0]],
                    covariate_names=("s",))


class TestFeatureSpec:
    def test_design_matrix_terms(self):
        # b is a role column, v a covariate
        spec = FeatureSpec([intercept(), raw("b"), square("b"), interaction("b", "v")])
        ds = Dataset(y=[0, 1], a=[0, 1], s=[5.0, 6.0], b=[1.0, 2.0], x=[[3.0], [4.0]],
                     covariate_names=("v",))
        X = spec.resolve(("b",), ds.covariate_names).design(ds)
        assert np.allclose(X, [[1, 1, 1, 3], [1, 2, 4, 8]])

    def test_design_equals_stacked_columns(self):
        ds = gen_dataset(ScenarioSpec("I", 50, 8))
        spec = FeatureSpec([intercept(), raw("a"), raw("s"), square("x2"), interaction("b", "x1")])
        X = spec.resolve(OutcomeModel.ROLES, ds.covariate_names).design(ds)
        x1, x2 = ds.x[:, 0], ds.x[:, 1]
        ref = np.column_stack([np.ones(50), ds.a, ds.s, x2 ** 2, ds.b * x1])
        assert X.flags.c_contiguous and np.array_equal(X, ref)

    def test_double_intercept_rejected(self):
        with pytest.raises(InvalidParameterError):
            FeatureSpec([intercept(), intercept()])

    def test_unknown_column_flagged(self):
        spec = FeatureSpec([raw("nope")])
        with pytest.raises(InvalidParameterError, match="unknown column 'nope'"):
            spec.resolve(("u",), ())

    def test_resolution_kept(self):
        spec = FeatureSpec([intercept(), raw("b"), square("x2")])
        first = spec.resolve(("b",), ("x1", "x2"))
        # an equal spec and names given as lists find the same resolution
        again = FeatureSpec([intercept(), raw("b"), square("x2")]).resolve(["b"], ["x1", "x2"])
        assert again is first
        assert spec.resolve(("a", "b"), ("x1", "x2")) is not first

    def test_failed_resolution_raises_every_time(self):
        spec = FeatureSpec([intercept(), raw("nope")])
        for _ in range(3):
            with pytest.raises(InvalidParameterError, match="unknown column 'nope'"):
                spec.resolve(("b",), ("x1",))

    @pytest.mark.parametrize("term", [
        ("raw",), ("square",), ("interaction", "x1"),  # too few names
        ("raw", "x1", "x2"), ("intercept", "x1"),  # too many
        ("raw", 5), ("interaction", "x1", None),  # a name that is not a string
        (), ("cube", "x1"), 7,
    ])
    def test_malformed_term_rejected_when_built(self, term):
        with pytest.raises(InvalidParameterError):
            FeatureSpec([intercept(), term])


class TestModelColumns:
    """Each model reads its roles and the covariates, and a spec naming any
    other column fails when the model is fit or built, before any solve."""

    DS = gen_dataset(ScenarioSpec("I", 200, 3))

    @pytest.mark.parametrize("name", ["s", "y", "a", "z"])
    def test_propensity_reads_b_and_x(self, name, monkeypatch):
        monkeypatch.setattr("stwcr.nuisance.irls_logistic", None)  # never reached
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'.*reads b, x1"):
            fit_propensity(self.DS, spec=FeatureSpec([intercept(), raw(name)]))
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'"):
            PropensityModel(spec=FeatureSpec([raw(name)]), coef=np.zeros(1),
                            covariate_names=self.DS.covariate_names)

    @pytest.mark.parametrize("name", ["s", "y", "z"])
    def test_density_reads_a_b_and_x(self, name):
        spec = FeatureSpec([intercept(), interaction("a", name)])
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'.*reads a, b, x1"):
            fit_cond_density(self.DS, spec)
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'"):
            CondDensityModel(spec=spec, coef=np.zeros(2), residual_sd=1.0,
                             covariate_names=self.DS.covariate_names)

    @pytest.mark.parametrize("name", ["y", "z"])
    def test_outcome_reads_a_s_b_and_x(self, name):
        spec = FeatureSpec([intercept(), square(name)])
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'.*reads a, s, b, x1"):
            fit_outcome(self.DS, spec)
        with pytest.raises(InvalidParameterError, match=f"unknown column '{name}'"):
            OutcomeModel(kind="linear", spec=spec, coef=np.zeros(2),
                         covariate_names=self.DS.covariate_names)

    @pytest.mark.parametrize("names", [("b",), ("x1", "x1")])
    def test_covariate_may_not_shadow_a_role(self, names):
        # a covariate named b would silently replace the b column in predictions
        with pytest.raises(InvalidParameterError, match="repeat or reuse a role"):
            CondDensityModel(spec=FeatureSpec([raw("b")]), coef=np.ones(1), residual_sd=1.0,
                             covariate_names=names)

    def test_every_readable_column_fits(self):
        terms = [intercept(), raw("b"), raw("x1"), square("x2"), interaction("x2", "x3")]
        prop = fit_propensity(self.DS, spec=FeatureSpec(terms))
        cond = fit_cond_density(self.DS, FeatureSpec(terms + [raw("a")]))
        outc = fit_outcome(self.DS, FeatureSpec(terms + [raw("a"), raw("s")]))
        assert prop.prob(1, self.DS.b, self.DS.x).shape == (200,)
        assert cond.mean(1, self.DS.b, self.DS.x).shape == (200,)
        assert outc.predict_at(1, self.DS.s, self.DS.b, self.DS.x).shape == (200,)

    def test_per_row_arms_match_single_arm_calls(self):
        terms = [intercept(), raw("b"), raw("a"), interaction("a", "x2"), square("x2")]
        cond = fit_cond_density(self.DS, FeatureSpec(terms))
        outc = fit_outcome(self.DS, FeatureSpec(terms + [raw("s"), interaction("a", "s")]))
        ds, on = self.DS, self.DS.a == 1
        assert np.array_equal(cond.mean(ds.a, ds.b, ds.x),
                              np.where(on, cond.mean(1, ds.b, ds.x), cond.mean(0, ds.b, ds.x)))
        assert np.array_equal(outc.predict_at(ds.a, ds.s, ds.b, ds.x),
                              np.where(on, outc.predict_at(1, ds.s, ds.b, ds.x),
                                       outc.predict_at(0, ds.s, ds.b, ds.x)))
        nodes, grid = np.linspace(5.0, 9.0, 7), (ds.b[:, None], ds.x[:, None, :])
        for model in (cond.density_at, outc.predict_at):
            assert np.array_equal(model(ds.a[:, None], nodes, *grid),
                                  np.where(on[:, None], model(1, nodes, *grid),
                                           model(0, nodes, *grid)))

    def test_design_and_prediction_read_the_same_columns(self):
        # a linear fit through points it can reproduce exactly predicts them back
        spec = FeatureSpec([intercept(), raw("s"), interaction("a", "b"), square("x2")])
        ds = self.DS
        y = 1.0 + 2.0 * ds.s - 0.5 * ds.a * ds.b + 3.0 * ds.x[:, 1] ** 2
        lin = Dataset(y=y, a=ds.a, s=ds.s, b=ds.b, x=ds.x, covariate_names=ds.covariate_names,
                      outcome_kind="continuous")
        model = fit_outcome(lin, spec)
        for arm in (0, 1):
            rows = ds.a == arm
            fitted = model.predict_at(arm, ds.s[rows], ds.b[rows], ds.x[rows])
            assert np.allclose(fitted, y[rows], rtol=1e-10)

    def test_grid_predictions_equal_explicit_formulas(self):
        # every term kind on a broadcast (rows, nodes) grid: squares of a role and of a
        # covariate, a role times a covariate, and the arm times the node marker s
        rng = np.random.default_rng(4)
        b, x = rng.normal(size=(6, 1)), rng.normal(size=(6, 1, 3))  # rows down
        nodes = np.linspace(5.0, 9.0, 5)  # nodes across
        x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
        names = ("x1", "x2", "x3")
        c = rng.normal(size=6)
        cond = CondDensityModel(
            spec=FeatureSpec([intercept(), raw("a"), square("b"), interaction("a", "x1"),
                              square("x2"), interaction("b", "x3")]),
            coef=c, residual_sd=0.7, covariate_names=names)
        outc = OutcomeModel(
            spec=FeatureSpec([intercept(), interaction("a", "s"), square("s"), interaction("s", "x2"),
                              square("x3"), raw("b")]),
            coef=c, covariate_names=names, kind="logistic")
        prop = PropensityModel(
            spec=FeatureSpec([intercept(), square("b"), interaction("b", "x1"), square("x2"),
                              raw("x3"), interaction("x1", "x2")]),
            coef=c, covariate_names=names)
        for a in (0, 1, rng.integers(0, 2, size=(6, 1))):
            mu = c[0] + c[1] * a + c[2] * (b * b) + c[3] * (a * x1) + c[4] * (x2 * x2) + c[5] * (b * x3)
            z = (nodes - mu) / 0.7
            assert np.array_equal(cond.density_at(a, nodes, b, x),
                                  np.exp(z * -0.5 * z) / (0.7 * math.sqrt(2.0 * math.pi)))
            eta = (c[0] + c[1] * (a * nodes) + c[2] * (nodes * nodes) + c[3] * (nodes * x2)
                   + c[4] * (x3 * x3) + c[5] * b)
            assert np.array_equal(outc.predict_at(a, nodes, b, x),
                                  np.clip(expit(eta), PROB_FLOOR, 1.0 - PROB_FLOOR))
        # the propensity reads no marker: its grid is rows by covariate settings
        xs = rng.normal(size=(1, 4, 3))
        eta = (c[0] + c[1] * (b * b) + c[2] * (b * xs[..., 0]) + c[3] * (xs[..., 1] * xs[..., 1])
               + c[4] * xs[..., 2] + c[5] * (xs[..., 0] * xs[..., 1]))
        p1 = expit(eta)
        assert np.array_equal(prop.prob(1, b, xs), np.clip(p1, PROB_FLOOR, 1.0 - PROB_FLOOR))
        assert np.array_equal(prop.prob(0, b, xs), np.clip(1.0 - p1, PROB_FLOOR, 1.0 - PROB_FLOOR))


class TestIrlsLogistic:
    def test_intercept_only_closed_form(self):
        y = np.array([1.0] * 30 + [0.0] * 70)
        X = np.ones((100, 1))
        beta = irls_logistic(X, y, ridge=0.0)
        assert beta[0] == pytest.approx(math.log(0.3 / 0.7), abs=1e-8)

    def test_gradient_small_at_optimum(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(500), rng.normal(size=500)])
        eta = 0.5 - 0.8 * X[:, 1]
        y = (rng.random(500) < 1 / (1 + np.exp(-eta))).astype(float)
        ridge, tol = 1e-8, 1e-9
        beta = irls_logistic(X, y, ridge=ridge, tol=tol)
        p = 1 / (1 + np.exp(-(X @ beta)))
        grad = X.T @ (y - p) - ridge * beta
        assert np.max(np.abs(grad)) < tol

    def test_perfect_separation_bounded_by_ridge(self):
        X = np.array([[1.0], [1.0], [-1.0], [-1.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        beta = irls_logistic(X, y, ridge=1e-4)
        assert np.all(np.isfinite(beta))

    def test_bad_labels_rejected(self):
        with pytest.raises(SolverError):
            irls_logistic(np.ones((3, 1)), np.array([0.0, 2.0, 1.0]))

    @pytest.mark.parametrize("design", [np.full((3, 1), "1.0"), [[1.0], [None], [2.0]],
                                        np.ones((3, 1), dtype=complex)],
                             ids=["str", "object", "complex"])
    def test_non_numeric_design_rejected(self, design):
        with pytest.raises(InvalidParameterError, match="design must hold numbers"):
            irls_logistic(design, np.array([0.0, 1.0, 1.0]))

    def test_float_design_read_in_place(self):
        # a copy of this 12.8 MB design would show in the traced peak, which
        # is about 4.3 MB without one (one step's per-block arrays)
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(100_000), 0.1 * rng.normal(size=(100_000, 15))])
        y = (rng.random(100_000) < 0.5).astype(float)
        tracemalloc.start()
        try:
            irls_logistic(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 2, f"traced peak {peak / 1e6:.1f} MB"

    @staticmethod
    def _problem(seed):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(400), rng.normal(size=400), rng.random(400)])
        eta = 0.3 - 0.7 * X[:, 1] + 1.2 * X[:, 2]
        return X, (rng.random(400) < 1 / (1 + np.exp(-eta))).astype(float)

    def test_start_at_the_solution_returned_unchanged(self):
        X, y = self._problem(5)
        beta_hat = irls_logistic(X, y)
        assert np.array_equal(irls_logistic(X, y, start=beta_hat), beta_hat)

    def test_start_elsewhere_reaches_the_same_solution(self):
        X, y = self._problem(6)
        cold = irls_logistic(X, y)
        start = cold + np.array([0.3, -0.2, 0.5])
        # both stop at a score below tol = 1e-9, within 1e-9 of each other
        assert np.allclose(irls_logistic(X, y, start=start), cold, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("rows", [
        [(-50, 400)],  # starts before the first row
        [(0, 500)],  # ends past the last row
        [(0, 250), (200, 400)],  # overlapping
        [(200, 400), (0, 100)],  # out of order
        [(0, 100), (150, 150)],  # empty
    ], ids=["negative", "past-end", "overlapping", "unordered", "empty"])
    def test_bad_rows_rejected(self, rows):
        X, y = self._problem(8)
        with pytest.raises(InvalidParameterError, match="rows must be increasing"):
            irls_logistic(X, y, rows=rows)

    def test_labels_must_match_the_design_rows(self):
        X, y = self._problem(8)
        with pytest.raises(InvalidParameterError, match="labels of shape"):
            irls_logistic(X, y[:300])

    def test_adjacent_rows_fit_as_one_range(self):
        X, y = self._problem(9)
        # other block edges, so the sums round apart in the last digits only
        np.testing.assert_allclose(irls_logistic(X, y, rows=[(0, 150), (150, 400)]),
                                   irls_logistic(X, y), rtol=1e-12)

    @pytest.mark.parametrize("start", [np.zeros(2), np.array([0.0, np.nan, 0.0])])
    def test_bad_start_rejected(self, start):
        X, y = self._problem(7)
        with pytest.raises(InvalidParameterError, match="start must hold 3 finite"):
            irls_logistic(X, y, start=start)


class TestFitPropensity:
    def test_known_constant(self):
        ds = gen_dataset(ScenarioSpec("I", 60, 1))
        model = KnownPropensity(prob_treated=0.5)
        assert np.all(model.prob(1, ds.b, ds.x) == 0.5)
        assert np.all(model.prob(0, ds.b, ds.x) == 0.5)

    def test_randomized_design_recovery(self):
        ds = gen_dataset(ScenarioSpec("I", 50_000, 11))
        model = fit_propensity(ds, spec=FeatureSpec([intercept()]))
        p = model.prob(1, ds.b[:1], ds.x[:1])[0]
        assert abs(p - 0.5) < 0.02

    def test_evaluations_floored(self):
        spec = FeatureSpec([intercept(), raw("b")])
        model = fit_propensity(gen_dataset(ScenarioSpec("I", 500, 2)), spec=spec)
        extreme_b = np.array([-1e6, 1e6])
        p = model.prob(1, extreme_b, np.zeros((2, 3)))
        assert np.all(p >= 1e-12) and np.all(p <= 1 - 1e-12)


class TestFitCondDensity:
    SPEC = FeatureSpec([intercept(), raw("b"), raw("a"), raw("x1"), square("x2")])

    def test_structural_recovery(self):
        ds = gen_dataset(ScenarioSpec("I", 50_000, 21))
        model = fit_cond_density(ds, self.SPEC)
        names = model.spec.names()
        coef = dict(zip(names, model.coef))
        assert coef["b"] == pytest.approx(1.0, abs=0.02)
        assert coef["a"] == pytest.approx(1.0, abs=0.03)
        assert coef["x1"] == pytest.approx(-0.5, abs=0.03)
        assert coef["x2^2"] == pytest.approx(1.0, abs=0.05)
        assert coef["(intercept)"] == pytest.approx(4.0, abs=0.05)
        assert model.residual_sd == pytest.approx(1.0, abs=0.02)

    def test_density_mode_value(self):
        ds = gen_dataset(ScenarioSpec("I", 2000, 3))
        model = fit_cond_density(ds, self.SPEC)
        mu = model.mean(1, ds.b[:5], ds.x[:5])
        dens = model.density_at(1, mu, ds.b[:5], ds.x[:5])
        assert np.allclose(dens, 1.0 / (model.residual_sd * math.sqrt(2 * math.pi)))

    def test_density_normalized(self):
        ds = gen_dataset(ScenarioSpec("I", 2000, 4))
        model = fit_cond_density(ds, self.SPEC)
        mu = float(model.mean(1, ds.b[:1], ds.x[:1])[0])
        nodes, weights = np.polynomial.legendre.leggauss(200)
        half = 8.0 * model.residual_sd
        svals = mu + half * nodes
        dens = model.density_at(1, svals, ds.b[:1, None], ds.x[:1, None, :])[0]
        assert float(dens @ (half * weights)) == pytest.approx(1.0, abs=1e-8)

    def test_singular_design_raises(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 5))
        with pytest.raises(SolverError):
            fit_cond_density(ds, FeatureSpec([intercept(), raw("b"), raw("b")]))

    def test_too_few_rows(self):
        with pytest.raises(InvalidParameterError):
            fit_cond_density(tiny_dataset([1.0, 2.0, 3.0]),
                             FeatureSpec([intercept(), raw("b")]))


class TestFitOutcome:
    SPEC = FeatureSpec([intercept(), raw("x2"), raw("x3"), raw("s"), raw("a"), raw("b")])

    def test_structural_recovery(self):
        ds = gen_dataset(ScenarioSpec("I", 100_000, 31))
        model = fit_outcome(ds, self.SPEC)
        expected = {"(intercept)": 1.5, "x2": 0.5, "x3": 2.0, "s": -0.2, "a": -1.0, "b": -0.3}
        coef = dict(zip(model.spec.names(), model.coef))
        for name, val in expected.items():
            assert coef[name] == pytest.approx(val, abs=0.1), name

    def test_degenerate_outcome_with_ridge(self):
        ds = gen_dataset(ScenarioSpec("I", 500, 6))
        ones = Dataset(y=np.ones(len(ds)), a=ds.a, s=ds.s, b=ds.b, x=ds.x,
                       covariate_names=ds.covariate_names, outcome_kind="binary")
        model = fit_outcome(ones, self.SPEC, ridge=1e-3)
        preds = model.predict_at(1, ds.s, ds.b, ds.x)
        assert np.all(preds >= 0.999)
        # the stronger fold-fallback ridge still gives near-degenerate fits
        fallback = fit_outcome(ones, self.SPEC, ridge=1e-2)
        assert np.all(fallback.predict_at(1, ds.s, ds.b, ds.x) >= 0.99)

    def test_continuous_exact_fit(self):
        ds = gen_dataset(ScenarioSpec("I", 200, 7))
        lin = Dataset(y=2.0 + 3.0 * ds.s, a=ds.a, s=ds.s, b=ds.b, x=ds.x,
                      covariate_names=ds.covariate_names, outcome_kind="continuous")
        model = fit_outcome(lin, FeatureSpec([intercept(), raw("s")]))
        assert model.kind == "linear"
        assert model.coef[0] == pytest.approx(2.0, abs=1e-8)
        assert model.coef[1] == pytest.approx(3.0, abs=1e-8)

    @pytest.mark.parametrize("start", [np.zeros(2), np.array([1e6, -3.5])])
    def test_continuous_ignores_start(self, start):
        # the fold fits pass every outcome fit a start; least squares has no use for it
        ds = gen_dataset(ScenarioSpec("I", 200, 7))
        lin = Dataset(y=2.0 + 3.0 * ds.s + ds.x[:, 1], a=ds.a, s=ds.s, b=ds.b, x=ds.x,
                      covariate_names=ds.covariate_names, outcome_kind="continuous")
        spec = FeatureSpec([intercept(), raw("s")])
        cold = fit_outcome(lin, spec)
        warm = fit_outcome(lin, spec, start=start)
        assert warm.kind == "linear"
        assert np.array_equal(warm.coef, cold.coef)

    def test_coef_is_a_read_only_copy(self):
        ds = gen_dataset(ScenarioSpec("I", 300, 9))
        coef = np.array([1.5, 0.5, 2.0, -0.2, -1.0, -0.3])
        model = OutcomeModel(kind="logistic", spec=self.SPEC, coef=coef,
                             covariate_names=ds.covariate_names)
        before = model.predict_at(1, ds.s, ds.b, ds.x)
        coef[:] = 0.0
        assert np.array_equal(model.predict_at(1, ds.s, ds.b, ds.x), before)
        assert not model.coef.flags.writeable
        assert not fit_outcome(ds, self.SPEC).coef.flags.writeable

    def test_binary_predictions_bounded(self):
        ds = gen_dataset(ScenarioSpec("I", 1000, 8))
        model = fit_outcome(ds, self.SPEC)
        extreme_s = np.array([-1e4, 1e4])
        preds = model.predict_at(1, extreme_s, ds.b[:2], ds.x[:2])
        assert np.all(preds >= 1e-12) and np.all(preds <= 1 - 1e-12)

    def test_grid_matches_pointwise(self):
        ds = gen_dataset(ScenarioSpec("I", 300, 9))
        model = fit_outcome(ds, self.SPEC)
        nodes = np.linspace(5.0, 9.0, 7)
        grid = model.predict_at(1, nodes, ds.b[:4, None], ds.x[:4, None, :])
        for j, s in enumerate(nodes):
            at = model.predict_at(1, np.full(4, s), ds.b[:4], ds.x[:4])
            assert np.allclose(grid[:, j], at, rtol=1e-12)


class TestSupportBounds:
    def test_min_max(self):
        iv = support_bounds(tiny_dataset([3.0, 7.0, 5.0]))
        assert (iv.lo, iv.hi) == (3.0, 7.0)

    def test_single_observation(self):
        iv = support_bounds(tiny_dataset([4.2]))
        assert (iv.lo, iv.hi) == (4.2, 4.2)

    def test_generated_sample_range(self):
        iv = support_bounds(gen_dataset(ScenarioSpec("I", 5000, 12)))
        assert iv.hi - iv.lo > 5.0


class TestRowParts:
    def test_only_what_a_second_fold_reads_is_kept(self):
        ds = gen_dataset(ScenarioSpec("I", 300, 13))
        parts = RowParts(ds, (0, 100, 200, 300))
        spec = FeatureSpec([intercept(), raw("b"), raw("a"), raw("x1")])
        fit_cond_density(TrainingRows(parts, 0), spec)
        # least squares keeps its per-part R factors, not the design they came from
        assert parts._designs == {}
        assert len(parts._factors) == 1
        assert [len(blocks) for blocks in next(iter(parts._factors.values()))] == [1, 1, 1]
        fit_cond_density(TrainingRows(parts, 1), spec)
        assert len(parts._factors) == 1
        # IRLS reads the logistic design on every fold, so it is kept
        fit_outcome(TrainingRows(parts, 0), FeatureSpec([intercept(), raw("s"), raw("a")]))
        assert len(parts._designs) == 1
        assert len(parts._factors) == 1
