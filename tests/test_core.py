import math

import numpy as np
import pytest
from scipy.special import ndtr

from stwcr.core import (
    MAX_QUAD_NODES,
    Interval,
    SmoothingParams,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    quad_rule,
    smooth_indicator,
    smooth_indicator_deriv,
    softened_indicator,
)
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.errors import EvaluationError, InvalidParameterError

WIDE = Interval.wide()
PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1)


class TestSmoothingParams:
    def test_defaults_valid(self):
        p = SmoothingParams()
        assert p.t == 0.1 and p.quad_nodes == 64 and p.window_halfwidth_in_h == 8.0

    @pytest.mark.parametrize("kwargs", [
        {"t": 0.0}, {"t": 1.0}, {"epsilon": 0.0}, {"h": -0.1}, {"h0": 0.0},
        {"alpha": 0.0}, {"alpha": 1.0}, {"quad_nodes": 4}, {"window_halfwidth_in_h": 2.0},
        {"quad_nodes": MAX_QUAD_NODES + 1}, {"quad_nodes": 100_000_000},
        {"quad_nodes": math.nan}, {"quad_nodes": math.inf}, {"quad_nodes": None},
        {"t": None}, {"alpha": None}, {"window_halfwidth_in_h": None}, {"h": "0.1"},
        {"epsilon": "0.1"},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            SmoothingParams(**kwargs)

    def test_numpy_integer_nodes_and_infinite_window_accepted(self):
        # an integral float such as 64.0 is not an integer (test_simulation's typed-error table)
        p = SmoothingParams(quad_nodes=np.int64(64), window_halfwidth_in_h=math.inf)
        assert p.quad_nodes == 64 and p.window_halfwidth_in_h == math.inf

    @pytest.mark.parametrize("epsilon", [math.inf, -math.inf, math.nan])
    def test_nonfinite_epsilon_rejected(self, epsilon):
        with pytest.raises(InvalidParameterError, match="epsilon must be positive and finite"):
            SmoothingParams(epsilon=epsilon)

    def test_missing_bandwidth_flagged(self):
        # a query's windows read the bandwidths it names
        with pytest.raises(InvalidParameterError, match="needs the bandwidths h$"):
            StwcrQuery(1, 7.0).windows(SmoothingParams(h=None))
        with pytest.raises(InvalidParameterError, match="needs the bandwidths h0 and h1"):
            StwcrveQuery(1, 0, 8.0, 7.0).windows(SmoothingParams(h0=0.1))


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            Interval(2.0, 1.0)
        assert Interval(1.0, 1.0).lo == 1.0

    def test_wide(self):
        assert WIDE.lo == -math.inf and WIDE.hi == math.inf


class TestKernelWeight:
    def test_peak_value(self):
        assert kernel_weight(0.0, 0.1) == pytest.approx(3.9894228, abs=1e-6)

    def test_one_bandwidth_out(self):
        assert kernel_weight(0.1, 0.1) == pytest.approx(2.4197072, abs=1e-6)

    def test_symmetry(self):
        assert kernel_weight(-0.37, 0.25) == kernel_weight(0.37, 0.25)

    def test_symmetry_and_sign_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            u = float(rng.normal() * 3)
            h = float(rng.uniform(0.01, 2.0))
            assert kernel_weight(u, h) == kernel_weight(-u, h)
            assert kernel_weight(u, h) >= 0.0

    def test_far_displacement_weighs_zero(self):
        # u/h overflows to inf: no warning (warnings fail the tests), weight 0
        assert kernel_weight(-1e308, 0.1) == 0.0
        assert np.array_equal(kernel_weight(np.array([1e308, 0.0]), 1e-300),
                              [0.0, kernel_weight(0.0, 1e-300)])

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            kernel_weight(0.0, 0.0)
        with pytest.raises(InvalidParameterError):
            kernel_weight(math.nan, 0.1)

    def test_truncated_mass_within_8_bandwidths(self):
        # window of +-8h carries all but ~1e-15 of the kernel mass
        params = SmoothingParams(quad_nodes=96, window_halfwidth_in_h=8.0, h=0.1)
        val = integrate_kernel_weighted(lambda s: np.ones_like(s), 0.0, 0.1, WIDE, params)
        assert abs(val - 1.0) < 1e-14


class TestSmoothIndicator:
    @pytest.mark.parametrize("p,expected", [
        (0.1, 0.5), (0.2, 0.8413447), (0.0, 0.1586553),
    ])
    def test_reference_values(self, p, expected):
        assert smooth_indicator(p, 0.1, 0.1) == pytest.approx(expected, abs=1e-6)

    def test_monotone_and_bounded(self):
        # strict increase over the numerically resolvable transition band
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = float(rng.uniform(0.01, 0.9))
            eps = float(rng.uniform(0.01, 1.0))
            p1, p2 = sorted(t + eps * rng.uniform(-6.0, 6.0, size=2))
            v1, v2 = smooth_indicator(p1, t, eps), smooth_indicator(p2, t, eps)
            assert 0.0 < v1 < 1.0 and 0.0 < v2 < 1.0
            if p1 < p2:
                assert v1 < v2

    def test_saturation_stays_in_open_interval(self):
        assert 0.0 < smooth_indicator(0.0, 0.9, 0.001) < 1.0
        assert 0.0 < smooth_indicator(500.0, 0.1, 0.001) < 1.0

    def test_epsilon_validated(self):
        with pytest.raises(InvalidParameterError):
            smooth_indicator(0.5, 0.1, 0.0)


class TestSmoothIndicatorDeriv:
    @pytest.mark.parametrize("p,expected", [
        (0.1, 3.9894228), (0.2, 2.4197072),
    ])
    def test_reference_values(self, p, expected):
        assert smooth_indicator_deriv(p, 0.1, 0.1) == pytest.approx(expected, abs=1e-6)

    def test_maximized_at_threshold(self):
        grid = np.linspace(0.0, 1.0, 201)
        vals = smooth_indicator_deriv(grid, 0.37, 0.05)
        assert abs(grid[np.argmax(vals)] - 0.37) < 0.006

    def test_finite_difference_at_example_point(self):
        step = 1e-6
        fd = (smooth_indicator(0.17 + step, 0.1, 0.1)
              - smooth_indicator(0.17 - step, 0.1, 0.1)) / (2 * step)
        an = smooth_indicator_deriv(0.17, 0.1, 0.1)
        assert abs(fd - an) / an < 1e-6

    def test_finite_difference_100_random_points(self):
        rng = np.random.default_rng(7)
        step = 1e-6
        for _ in range(100):
            t = float(rng.uniform(0.05, 0.5))
            eps = float(rng.uniform(0.05, 0.5))
            p = max(0.0, t + eps * float(rng.uniform(-3, 3)))
            fd = (smooth_indicator(p + step, t, eps)
                  - smooth_indicator(p - step, t, eps)) / (2 * step)
            an = smooth_indicator_deriv(p, t, eps)
            assert abs(fd - an) / an < 1e-5


class TestSoftenedIndicator:
    def test_bitwise_equal_to_the_formulas(self):
        # the expressions as written before the grid shared one z; pi*dphi
        # as the grid forms it
        rng = np.random.default_rng(3)
        p = np.broadcast_to(rng.uniform(0.0, 1.5, (37, 64)), (37, 64))  # read-only
        t, eps = 0.13, 0.07
        z = (p - t) / eps
        phi, dphi = softened_indicator(p, t, eps)
        assert np.array_equal(phi, np.clip(ndtr(z), np.finfo(float).tiny, np.nextafter(1.0, 0.0)))
        assert np.array_equal(dphi, (1.0 / math.sqrt(2.0 * math.pi) / eps) * np.exp(-0.5 * z * z))
        assert np.array_equal(smooth_indicator(p, t, eps), phi)
        assert np.array_equal(smooth_indicator_deriv(p, t, eps), dphi)

    def test_far_from_threshold_saturates_without_warning(self):
        phi, dphi = softened_indicator(np.array([0.0, 1.0]), 0.5, 1e-300)
        assert np.array_equal(dphi, [0.0, 0.0])
        assert 0.0 < phi[0] < phi[1] < 1.0


class TestQuadRule:
    # W = 4: an unclipped window keeps the kernel mass within 4 bandwidths
    FOUR = PARAMS.with_(window_halfwidth_in_h=4.0)

    def test_weights_carry_the_kernel_mass(self):
        _, wk = quad_rule(0.3, 0.1, WIDE, self.FOUR)
        assert wk.sum() == pytest.approx(1.0 - 2.0 * ndtr(-4.0), abs=1e-12)

    def test_window_clipped_at_its_center_keeps_half(self):
        nodes, wk = quad_rule(0.3, 0.1, Interval(0.3, 50.0), self.FOUR)
        assert nodes.min() > 0.3
        assert wk.sum() == pytest.approx(0.5 - ndtr(-4.0), abs=1e-12)

    def test_empty_intersection_is_an_empty_rule(self):
        nodes, wk = quad_rule(0.0, 0.1, Interval(100.0, 101.0), PARAMS)
        assert nodes.shape == wk.shape == (0,)


class TestIntegrate1D:
    def test_kernel_normalization(self):
        val = integrate_kernel_weighted(lambda s: np.ones_like(s), 0.3, 0.1, WIDE, PARAMS)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_first_moment(self):
        val = integrate_kernel_weighted(lambda s: s, 2.0, 0.1, WIDE, PARAMS)
        assert val == pytest.approx(2.0, abs=1e-10)

    def test_second_moment(self):
        val = integrate_kernel_weighted(lambda s: s ** 2, 0.0, 0.1, WIDE, PARAMS)
        assert val == pytest.approx(0.01, abs=1e-9)

    def test_empty_intersection_returns_zero(self):
        val = integrate_kernel_weighted(lambda s: np.ones_like(s), 0.0, 0.1,
                                        Interval(100.0, 101.0), PARAMS)
        assert val == 0.0

    def test_nan_integrand_raises(self):
        with pytest.raises(EvaluationError):
            integrate_kernel_weighted(lambda s: np.full_like(s, np.nan), 0.0, 0.1, WIDE, PARAMS)

    def test_window_widening_stable(self):
        f = lambda s: 1.0 / (1.0 + s ** 2)
        narrow = integrate_kernel_weighted(
            f, 0.5, 0.1, WIDE, PARAMS.with_(window_halfwidth_in_h=6.0))
        wide = integrate_kernel_weighted(
            f, 0.5, 0.1, WIDE, PARAMS.with_(window_halfwidth_in_h=10.0))
        assert abs(narrow - wide) / abs(wide) < 1e-8

    def test_node_doubling_stable(self):
        f = lambda s: np.sin(s) + 2.0
        base = integrate_kernel_weighted(f, 1.0, 0.1, WIDE, PARAMS)
        fine = integrate_kernel_weighted(f, 1.0, 0.1, WIDE, PARAMS.with_(quad_nodes=128))
        assert abs(base - fine) / abs(fine) < 1e-7

    def test_support_clipping_halves_mass(self):
        # support starting exactly at the center keeps half the kernel mass
        val = integrate_kernel_weighted(lambda s: np.ones_like(s), 0.0, 0.1,
                                        Interval(0.0, 50.0), PARAMS)
        assert val == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize("support", [WIDE, Interval(0.0, math.inf)])
@pytest.mark.parametrize("constant", [True, False])
@pytest.mark.parametrize("dims", [1, 2])
def test_unbounded_window_rejected(dims, constant, support):
    # an infinite half-width clipped to an unbounded support leaves no finite
    # window to put nodes on: the window is named, not the integrand
    params = PARAMS.with_(window_halfwidth_in_h=math.inf)
    with pytest.raises(InvalidParameterError, match=r"kernel window \[-inf, inf\].*unbounded"):
        if dims == 1:
            integrate_kernel_weighted(
                (lambda s: np.ones_like(s)) if constant else (lambda s: s), 0.5, 0.1, support, params)
        else:
            integrate_kernel_weighted_2d(
                (lambda a, b: np.ones(np.broadcast_shapes(a.shape, b.shape))) if constant
                else (lambda a, b: a * b), 0.5, 0.1, 0.7, 0.1, support, params)


class TestIntegrate2D:
    def test_product_of_normalized_kernels(self):
        val = integrate_kernel_weighted_2d(lambda a, b: np.ones(np.broadcast_shapes(a.shape, b.shape)),
                                           0.0, 0.1, 1.0, 0.2, WIDE, PARAMS)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_separability(self):
        g = lambda s: 1.0 + 0.5 * np.tanh(s)
        k = lambda s: np.exp(-0.1 * s ** 2)
        twod = integrate_kernel_weighted_2d(lambda a, b: g(a) * k(b),
                                            0.3, 0.1, -0.2, 0.15, WIDE, PARAMS)
        oned = (integrate_kernel_weighted(g, 0.3, 0.1, WIDE, PARAMS)
                * integrate_kernel_weighted(k, -0.2, 0.15, WIDE, PARAMS))
        assert twod == pytest.approx(oned, abs=1e-9)

    def test_product_of_means(self):
        val = integrate_kernel_weighted_2d(lambda a, b: a * b, 1.0, 0.1, 2.0, 0.1, WIDE, PARAMS)
        assert val == pytest.approx(2.0, abs=1e-8)

    def test_node_doubling_stable(self):
        f = lambda a, b: np.cos(a) * (1 + b ** 2)
        base = integrate_kernel_weighted_2d(f, 0.5, 0.1, 0.7, 0.1, WIDE, PARAMS)
        fine = integrate_kernel_weighted_2d(f, 0.5, 0.1, 0.7, 0.1, WIDE,
                                            PARAMS.with_(quad_nodes=128))
        assert abs(base - fine) / abs(fine) < 1e-7

    def test_empty_window_returns_zero(self):
        val = integrate_kernel_weighted_2d(lambda a, b: a * b, 0.0, 0.1, 0.0, 0.1,
                                           Interval(50.0, 60.0), PARAMS)
        assert val == 0.0

    @pytest.mark.parametrize("c0,c1", [(55.0, 0.0), (0.0, 55.0)])
    def test_one_empty_window_returns_zero(self, c0, c1):
        val = integrate_kernel_weighted_2d(lambda a, b: 1.0 + a * b, c0, 0.1, c1, 0.1,
                                           Interval(50.0, 60.0), PARAMS)
        assert val == 0.0
