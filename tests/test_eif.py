import math

import numpy as np
import pytest

from stwcr import eif, parallel
from stwcr.core import Interval, SmoothingParams, kernel_weight
from stwcr.core import integrate_kernel_weighted, smooth_indicator, smooth_indicator_deriv
from stwcr.eif import (
    EifPair,
    StwcrQuery,
    StwcrveQuery,
    eif_stwcr,
    eif_stwcr_batch,
    eif_stwcrve,
    eif_stwcrve_batch,
)
from stwcr.errors import EvaluationError, InvalidParameterError
from stwcr.nuisance import NuisanceTriple, Observation, PropensityModel
from stwcr.simulation import (
    OracleResult,
    ScenarioSpec,
    compute_truths,
    gen_dataset,
    oracle_estimand,
    true_nuisances,
)

PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1)


class ConstantDensity:
    """Marker conditional density pinned to a constant value."""

    def __init__(self, value):
        self.value = value

    def density_at(self, a, s, b, x):
        return np.full(np.broadcast_shapes(np.shape(s), np.shape(b)), self.value, dtype=float)


class ConstantOutcome:
    def __init__(self, value):
        self.value = value

    def predict_at(self, a, s, b, x):
        return np.full(np.broadcast_shapes(np.shape(s), np.shape(b)), self.value, dtype=float)


def constant_triple(density=0.3, risk=0.4, prob=0.5, support=None):
    return NuisanceTriple(
        propensity=PropensityModel(kind="known", prob_treated=prob),
        cond_density=ConstantDensity(density),
        outcome=ConstantOutcome(risk),
        support=support or Interval.wide())


class TestQueriesAndPair:
    def test_query_validation(self):
        with pytest.raises(InvalidParameterError):
            StwcrQuery(a=2, s=7.0)
        with pytest.raises(InvalidParameterError):
            StwcrQuery(a=1, s=math.inf)
        with pytest.raises(InvalidParameterError):
            StwcrveQuery(a1=1, a0=0, s1=math.nan, s0=7.0)

    def test_pair_must_be_finite(self):
        with pytest.raises(EvaluationError):
            EifPair(num=math.nan, den=1.0)


class TestRiskEifClosedForm:
    # With constant nuisances (density c, outcome risk rho, 1:1 randomization)
    # and a wide support, the influence values collapse to
    #   den = 2*dphi(c)*(K_h(S - s) - c) + phi(c)
    #   num = rho*den + 2*K_h(S - s)*(phi(c)/c)*(y - rho)
    C, RHO = 0.3, 0.4

    def expected(self, s_obs, s_query, y):
        phi = smooth_indicator(self.C, 0.1, 0.1)
        dphi = smooth_indicator_deriv(self.C, 0.1, 0.1)
        k = kernel_weight(s_obs - s_query, 0.1)
        den = 2.0 * dphi * (k - self.C) + phi
        num = self.RHO * den + 2.0 * k * (phi / self.C) * (y - self.RHO)
        return num, den

    def test_matched_arm_at_query_point(self):
        obs = Observation(y=1.0, a=1, s=7.0, b=0.0, x=(0.0,))
        pair = eif_stwcr(obs, StwcrQuery(1, 7.0), constant_triple(self.C, self.RHO), PARAMS)
        num, den = self.expected(7.0, 7.0, 1.0)
        # hand-derived frozen values for this configuration
        assert den == pytest.approx(4.961159929342421, abs=1e-9)
        assert num == pytest.approx(17.579115607040674, abs=1e-9)
        assert pair.den == pytest.approx(den, abs=1e-9)
        assert pair.num == pytest.approx(num, abs=1e-9)

    def test_matched_arm_off_query_point(self):
        obs = Observation(y=0.0, a=1, s=7.3, b=0.0, x=(0.0,))
        pair = eif_stwcr(obs, StwcrQuery(1, 7.0), constant_triple(self.C, self.RHO), PARAMS)
        num, den = self.expected(7.3, 7.0, 0.0)
        assert pair.den == pytest.approx(den, rel=1e-9)
        assert pair.num == pytest.approx(num, rel=1e-9)

    def test_mismatched_arm_leaves_plugin_integral(self):
        obs = Observation(y=1.0, a=0, s=7.0, b=0.0, x=(0.0,))
        pair = eif_stwcr(obs, StwcrQuery(1, 7.0), constant_triple(self.C, self.RHO), PARAMS)
        phi = smooth_indicator(self.C, 0.1, 0.1)
        assert pair.den == pytest.approx(phi, abs=1e-10)
        assert pair.den == pytest.approx(0.9772499, abs=1e-6)
        assert pair.num == pytest.approx(self.RHO * phi, abs=1e-10)



@pytest.fixture(scope="module")
def scen1_risk():
    return gen_dataset(ScenarioSpec("I", 400, 42)), true_nuisances("I")


@pytest.fixture(scope="module")
def scen1_ve():
    return gen_dataset(ScenarioSpec("I", 300, 43)), true_nuisances("I")


class TestRiskEifProperties:
    def test_batch_matches_scalar_reference(self, scen1_risk):
        ds, nuis = scen1_risk
        q = StwcrQuery(1, 7.0)
        num, den, _ = eif_stwcr_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        for i in range(0, 400, 37):
            pair = eif_stwcr(ds.observations[i], q, nuis, PARAMS)
            assert num[i] == pytest.approx(pair.num, rel=1e-10, abs=1e-12)
            assert den[i] == pytest.approx(pair.den, rel=1e-10, abs=1e-12)

    def test_linearity_in_outcome(self, scen1_risk):
        ds, nuis = scen1_risk
        q = StwcrQuery(1, 7.0)
        obs0 = Observation(y=0.0, a=1, s=7.1, b=3.0, x=(0.0, 0.5, 0.5))
        obs1 = Observation(y=1.0, a=1, s=7.1, b=3.0, x=(0.0, 0.5, 0.5))
        obs_mid = Observation(y=0.5, a=1, s=7.1, b=3.0, x=(0.0, 0.5, 0.5))
        p0, p1, pm = (eif_stwcr(o, q, nuis, PARAMS) for o in (obs0, obs1, obs_mid))
        assert pm.num == pytest.approx(0.5 * (p0.num + p1.num), abs=1e-12)
        assert p0.den == p1.den == pm.den

    def test_locality_far_observation(self, scen1_risk):
        _, nuis = scen1_risk
        q = StwcrQuery(1, 7.0)
        obs = Observation(y=1.0, a=1, s=8.2, b=3.0, x=(0.0, 0.5, 0.5))  # 12 bandwidths away
        pair = eif_stwcr(obs, q, nuis, PARAMS)

        def pi_of(nodes):
            m = nodes.size
            return nuis.cond_density.density_at(1, nodes, np.full(m, 3.0),
                                                np.tile([[0.0, 0.5, 0.5]], (m, 1)))

        def r_of(nodes):
            m = nodes.size
            return nuis.outcome.predict_at(1, nodes, np.full(m, 3.0),
                                           np.tile([[0.0, 0.5, 0.5]], (m, 1)))

        ind = 1.0 / 0.5
        int_g = integrate_kernel_weighted(
            lambda s0: smooth_indicator_deriv(pi_of(s0), 0.1, 0.1) * pi_of(s0),
            7.0, 0.1, nuis.support, PARAMS)
        int_phi = integrate_kernel_weighted(
            lambda s0: smooth_indicator(pi_of(s0), 0.1, 0.1), 7.0, 0.1, nuis.support, PARAMS)
        int_g_r = integrate_kernel_weighted(
            lambda s0: smooth_indicator_deriv(pi_of(s0), 0.1, 0.1) * pi_of(s0) * r_of(s0),
            7.0, 0.1, nuis.support, PARAMS)
        int_phi_r = integrate_kernel_weighted(
            lambda s0: smooth_indicator(pi_of(s0), 0.1, 0.1) * r_of(s0),
            7.0, 0.1, nuis.support, PARAMS)
        assert pair.den == pytest.approx(-ind * int_g + int_phi, abs=1e-10)
        assert pair.num == pytest.approx(-ind * int_g_r + int_phi_r, abs=1e-10)

    def test_quadrature_robustness(self, scen1_risk):
        ds, nuis = scen1_risk
        q = StwcrQuery(1, 7.0)
        base = eif_stwcr_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        fine = eif_stwcr_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis,
                               PARAMS.with_(quad_nodes=128))
        for comp in (0, 1):
            scale = max(np.max(np.abs(base[comp])), np.max(np.abs(fine[comp])))
            assert np.max(np.abs(base[comp] - fine[comp])) / scale < 1e-6

    def test_mean_zero_sanity(self, scen1_risk):
        # reduced-N version of the acceptance identity (full scale there)
        _, nuis = scen1_risk
        ds = gen_dataset(ScenarioSpec("I", 30_000, 2025))
        q = StwcrQuery(1, 7.0)
        num, den, _ = eif_stwcr_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        truth = compute_truths("I", (q,), PARAMS)[0]
        for vals, target in ((num, truth["num"]), (den, truth["den"])):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) < 6 * se

    def test_density_floor_counted(self):
        nuis = constant_triple(density=1e-15)
        num, den, hits = eif_stwcr_batch(
            np.array([1.0]), np.array([1]), np.array([7.0]), np.array([0.0]),
            np.zeros((1, 1)), StwcrQuery(1, 7.0), nuis, PARAMS)
        assert hits == 1
        assert np.all(np.isfinite(num))


class TestRelativeEfficacyEif:
    def test_batch_matches_scalar_reference(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        num, den, _ = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        for i in range(0, 300, 41):
            pair = eif_stwcrve(ds.observations[i], q, nuis, PARAMS)
            assert num[i] == pytest.approx(pair.num, rel=1e-9, abs=1e-11)
            assert den[i] == pytest.approx(pair.den, rel=1e-9, abs=1e-11)

    def test_symmetric_query_scalar(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 1, 7.5, 7.5)
        for i in (0, 11, 99):
            pair = eif_stwcrve(ds.observations[i], q, nuis, PARAMS)
            assert abs(pair.num - pair.den) < 1e-12

    def test_symmetric_query_batch_exact(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 1, 7.5, 7.5)
        num, den, _ = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        assert np.array_equal(num, den)

    def test_zero_residual_drops_residual_term(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        r_at_a0 = nuis.outcome.predict_at(0, ds.s, ds.b, ds.x)
        _, den_with_r, _ = eif_stwcrve_batch(r_at_a0, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        shifted = r_at_a0 + 0.0
        _, den_again, _ = eif_stwcrve_batch(shifted, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        assert np.array_equal(den_with_r, den_again)
        # and moving y by +1 shifts den only where the a0 residual term is active
        _, den_bumped, _ = eif_stwcrve_batch(r_at_a0 + 1.0, ds.a, ds.s, ds.b, ds.x,
                                             q, nuis, PARAMS)
        changed = den_bumped != den_with_r
        assert np.all(ds.a[changed] == 0)

    def test_linearity_in_outcome(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        obs = dict(a=np.array([0]), s=np.array([7.2]), b=np.array([3.0]),
                   x=np.array([[0.0, 0.5, 0.5]]))
        vals = []
        for y in (0.0, 1.0, 0.5):
            num, den, _ = eif_stwcrve_batch(np.array([y]), obs["a"], obs["s"], obs["b"],
                                            obs["x"], q, nuis, PARAMS)
            vals.append((num[0], den[0]))
        assert vals[2][0] == pytest.approx(0.5 * (vals[0][0] + vals[1][0]), abs=1e-12)
        assert vals[2][1] == pytest.approx(0.5 * (vals[0][1] + vals[1][1]), abs=1e-12)

    def test_quadrature_robustness(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        base = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        fine = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis,
                                 PARAMS.with_(quad_nodes=128))
        for comp in (0, 1):
            scale = max(np.max(np.abs(base[comp])), np.max(np.abs(fine[comp])))
            assert np.max(np.abs(base[comp] - fine[comp])) / scale < 1e-6

    def test_mean_zero_sanity(self):
        nuis = true_nuisances("I")
        ds = gen_dataset(ScenarioSpec("I", 30_000, 2025))
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        num, den, _ = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
        truth = compute_truths("I", (q,), PARAMS)[0]
        for vals, target in ((num, truth["num"]), (den, truth["den"])):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert abs(vals.mean() - target) < 6 * se


def both_batches(ds):
    """Oracle-nuisance risk and relative-efficacy batch outputs on ``ds``."""
    nuis = true_nuisances("I")
    cols = (ds.y, ds.a, ds.s, ds.b, ds.x)
    return (eif_stwcr_batch(*cols, StwcrQuery(1, 7.0), nuis, PARAMS),
            eif_stwcrve_batch(*cols, StwcrveQuery(1, 0, 8.0, 7.0), nuis, PARAMS))


def assert_batches_equal(left, right):
    for (num, den, hits), (r_num, r_den, r_hits) in zip(left, right, strict=True):
        assert np.array_equal(num, r_num) and np.array_equal(den, r_den)
        assert hits == r_hits


def risk_oracle():
    """A risk oracle result; 100_001 draws end in a one-draw block."""
    return oracle_estimand("stwcr", "I", StwcrQuery(1, 7.0), PARAMS, mc_size=100_001)


def grid_results(case, seed):
    """``both_batches`` on a ``case``-row dataset, or ``risk_oracle``."""
    if case == "oracle":
        return risk_oracle()
    return both_batches(gen_dataset(ScenarioSpec("I", case, seed)))


def assert_grid_results_equal(left, right):
    if isinstance(left, OracleResult):
        assert left == right
    else:
        assert_batches_equal(left, right)


class TestWindowOutsideTheSupport:
    # Scenario I's marker support is [-1.5, 17]: windows at 100 and -10 miss it
    @pytest.mark.parametrize("q", [StwcrQuery(1, 100.0), StwcrveQuery(1, 0, 100.0, 7.0),
                                   StwcrveQuery(1, 0, 8.0, -10.0)])
    def test_zero_integrals_equal_the_reference(self, q, scen1_ve):
        ds, nuis = scen1_ve
        risk = isinstance(q, StwcrQuery)
        batch, reference = (eif_stwcr_batch, eif_stwcr) if risk else (eif_stwcrve_batch, eif_stwcrve)
        terms = {}
        num, den, _ = batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS, _terms=terms)
        outside = [w for w in q.windows(PARAMS) if not nuis.support.lo < w[1] < nuis.support.hi]
        assert len(outside) == 1
        assert all(np.array_equal(v, np.zeros(len(ds))) for v in terms[outside[0]].values())
        for i in range(0, 300, 41):
            pair = reference(ds.observations[i], q, nuis, PARAMS)
            assert num[i] == pytest.approx(pair.num, rel=1e-9, abs=1e-11)
            assert den[i] == pytest.approx(pair.den, rel=1e-9, abs=1e-11)


class TestGridBlocking:
    # Block sizes stay multiples of 4 (see parallel._BLOCK_ROWS). m = 203 ends
    # in an 11-row block; m = 209 = 13 * 16 + 1 would end in a one-row block,
    # which the last full block absorbs. The oracle's first draw block splits
    # into 6250 blocks and its one-draw block goes straight to the integrands.
    @pytest.mark.parametrize("m", [203, 209, "oracle"])
    def test_blocked_equals_one_block(self, monkeypatch, m):
        unpatched = grid_results(m, 44)
        monkeypatch.setattr(parallel, "_BLOCK_ROWS", 16)
        assert_grid_results_equal(unpatched, grid_results(m, 44))

    @pytest.mark.parametrize("m", [203, 209, "oracle"])
    def test_threaded_blocks_equal_serial(self, monkeypatch, thread_pools, m):
        thread_pools.use(1)
        serial = grid_results(m, 45)
        assert thread_pools.made == []
        monkeypatch.setattr(parallel, "_BLOCK_ROWS", 16)
        thread_pools.use(2)
        threaded = grid_results(m, 45)
        # one pool per arm integral: one for the risk query, two for the VE
        # query; the oracle's one for its 100_000-draw block
        assert thread_pools.made == [2] * (1 if m == "oracle" else 3)
        assert_grid_results_equal(serial, threaded)


class ReadOnly:
    """Wraps a duck-typed model so that every array it returns is a read-only
    ``np.broadcast_to`` view."""

    def __init__(self, model):
        self.model = model

    def __getattr__(self, name):
        method = getattr(self.model, name)

        def read_only(*args):
            value = method(*args)
            return np.broadcast_to(value, np.shape(value))

        return read_only


class TestModelArraysAreOnlyRead:
    QUERIES = (StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 7.2, 7.0), StwcrveQuery(1, 1, 7.0, 7.0))

    @pytest.mark.parametrize("q", QUERIES)
    def test_read_only_models(self, q, scen1_ve):
        ds, _ = scen1_ve
        plain = constant_triple(density=0.35, risk=0.3)
        frozen = NuisanceTriple(propensity=ReadOnly(plain.propensity),
                                cond_density=ReadOnly(plain.cond_density),
                                outcome=ReadOnly(plain.outcome), support=plain.support)
        batch = eif_stwcr_batch if isinstance(q, StwcrQuery) else eif_stwcrve_batch
        cols = (ds.y, ds.a, ds.s, ds.b, ds.x)
        assert_batches_equal([batch(*cols, q, plain, PARAMS)], [batch(*cols, q, frozen, PARAMS)])

    def test_fitted_model_grids_are_not_written(self, scen1_ve):
        ds, nuis = scen1_ve
        q = StwcrveQuery(1, 0, 8.0, 7.0)
        returned = []

        class Recording:
            def __init__(self, model):
                self.model = model

            def __getattr__(self, name):
                method = getattr(self.model, name)

                def keep(*args):
                    value = method(*args)
                    returned.append((value, value.copy()))
                    return value

                return keep

        spy = NuisanceTriple(propensity=Recording(nuis.propensity),
                             cond_density=Recording(nuis.cond_density),
                             outcome=Recording(nuis.outcome), support=nuis.support)
        assert_batches_equal([eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)],
                             [eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, spy, PARAMS)])
        assert len(returned) == 10  # per arm: prob, then density_at and predict_at at S and on the grid
        for value, copy in returned:
            assert np.array_equal(value, copy)


class TestLocalTerms:
    def test_symmetric_query_builds_one_arm(self, monkeypatch, scen1_ve):
        ds, nuis = scen1_ve
        calls = []
        real = eif._kernel_integrals_1d
        monkeypatch.setattr(eif, "_kernel_integrals_1d",
                            lambda *args: calls.append(args[2]) or real(*args))
        for q, arms in ((StwcrveQuery(1, 1, 7.5, 7.5), [1]), (StwcrveQuery(1, 1, 7.5, 8.0), [1, 1]),
                        (StwcrveQuery(1, 0, 7.5, 7.5), [0, 1])):
            calls.clear()
            num, den, _ = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, q, nuis, PARAMS)
            assert calls == arms
        num, den, _ = eif_stwcrve_batch(ds.y, ds.a, ds.s, ds.b, ds.x, StwcrveQuery(1, 1, 7.5, 7.5),
                                        nuis, PARAMS)
        assert np.array_equal(num, den)

    @pytest.mark.parametrize("q", [StwcrQuery(0, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)])
    def test_passed_terms_equal_computed(self, q, scen1_ve, monkeypatch):
        ds, nuis = scen1_ve
        cols = (ds.y, ds.a, ds.s, ds.b, ds.x)
        terms = {arm: eif.local_terms(*cols, arm, nuis, PARAMS.t, PARAMS.epsilon) for arm in (0, 1)}
        batch = eif_stwcr_batch if isinstance(q, StwcrQuery) else eif_stwcrve_batch
        computed = batch(*cols, q, nuis, PARAMS)
        assert_batches_equal([computed], [batch(*cols, q, nuis, PARAMS, _terms=terms)])
        # a dict one call fills serves a second call, which makes nothing
        filled = {}
        assert_batches_equal([computed], [batch(*cols, q, nuis, PARAMS, _terms=filled)])
        windows = q.windows(PARAMS)
        assert set(filled) == {*(arm for arm, _, _ in windows), *windows}
        made = []
        for name in ("local_terms", "_kernel_integrals_1d"):
            monkeypatch.setattr(eif, name, lambda *args, name=name: made.append(name))
        assert_batches_equal([computed], [batch(*cols, q, nuis, PARAMS, _terms=filled)])
        assert made == []


def test_each_window_reads_its_own_bandwidth():
    # the comparator's window reads h0 and the investigational arm's h1
    params = SmoothingParams(h=0.1, h0=0.2, h1=0.3)
    assert StwcrQuery(1, 7.0).windows(params) == ((1, 7.0, 0.1),)
    assert StwcrveQuery(1, 0, 8.0, 7.0).windows(params) == ((0, 7.0, 0.2), (1, 8.0, 0.3))
