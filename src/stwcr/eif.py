"""Uncentered efficient-influence values for the trimmed-risk functionals.

For a risk query (arm ``a``, marker level ``s``) the estimand numerator
and denominator are population means, over the baseline distribution, of
kernel-weighted integrals of the softened trimming weight (times the
outcome regression, for the numerator). Their influence values decompose
into

* observation-local terms, active only when the observation's arm matches
  the query arm: a kernel-weighted derivative term and, for the
  numerator, a residual term dividing by the marker conditional density;
* a subtracted correction integral pairing the derivative of the softened
  weight with the density itself;
* a plug-in integral equal to the estimand's conditional functional.

The relative-efficacy (double-trimming) queries carry one such structure
per arm, coupled through products of the two single-arm integrals; the
double integrals factor over the two marker arguments but are evaluated
here by tensor-product quadrature in the reference path so each displayed
term maps to one code block.

``eif_stwcr`` / ``eif_stwcrve`` are single-observation reference
implementations. The ``*_batch`` variants vectorize over observations and
are what the cross-fitting estimators call; tests pin them to the
reference path. Both take each arm's terms from one per-arm builder,
``_arm_terms``: a risk query calls it for its arm, a relative-efficacy
query once per arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DENSITY_FLOOR,
    SmoothingParams,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    quad_rule,
    smooth_indicator,
    smooth_indicator_deriv,
)
from .errors import EvaluationError, InvalidParameterError
from .nuisance import NuisanceTriple, Observation

__all__ = [
    "EifPair",
    "StwcrQuery",
    "StwcrveQuery",
    "eif_stwcr",
    "eif_stwcrve",
    "eif_stwcr_batch",
    "eif_stwcrve_batch",
]


@dataclass(frozen=True)
class EifPair:
    """One observation's uncentered (numerator, denominator) influence values."""

    num: float
    den: float

    def __post_init__(self):
        if not (math.isfinite(self.num) and math.isfinite(self.den)):
            raise EvaluationError("influence values must be finite")


@dataclass(frozen=True)
class StwcrQuery:
    """Risk query: arm and marker level."""

    a: int
    s: float

    def __post_init__(self):
        if self.a not in (0, 1):
            raise InvalidParameterError("query arm must be 0 or 1")
        if not math.isfinite(self.s):
            raise InvalidParameterError("query marker level must be finite")


@dataclass(frozen=True)
class StwcrveQuery:
    """Relative-efficacy query: (investigational arm, comparator arm, markers)."""

    a1: int
    a0: int
    s1: float
    s0: float

    def __post_init__(self):
        if self.a1 not in (0, 1) or self.a0 not in (0, 1):
            raise InvalidParameterError("query arms must be 0 or 1")
        if not (math.isfinite(self.s1) and math.isfinite(self.s0)):
            raise InvalidParameterError("query marker levels must be finite")


def _obs_arrays(obs: Observation):
    return (np.asarray([obs.b]), np.asarray([obs.x], dtype=float))


def _check_finite(name: str, value):
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"non-finite value in term '{name}'")
    return value


def eif_stwcr(obs: Observation, q: StwcrQuery, nuis: NuisanceTriple,
              params: SmoothingParams) -> EifPair:
    """Influence values for one observation under a single-arm risk query."""
    h = params.require_h()
    t, eps = params.t, params.epsilon
    b1, x1 = _obs_arrays(obs)
    cond, outc, prop = nuis.cond_density, nuis.outcome, nuis.propensity

    indicator = 1.0 if obs.a == q.a else 0.0
    ind = indicator / float(prop.prob(q.a, b1, x1)[0])

    pi_S = float(cond.density_at(q.a, np.asarray([obs.s]), b1, x1)[0])
    r_S = float(outc.predict_at(q.a, np.asarray([obs.s]), b1, x1)[0])
    k_S = kernel_weight(obs.s - q.s, h)
    dphi_S = smooth_indicator_deriv(pi_S, t, eps)
    phi_S = smooth_indicator(pi_S, t, eps)

    def pi_of(nodes):
        m = nodes.size
        return cond.density_at(q.a, nodes, np.full(m, obs.b), np.tile(x1, (m, 1)))

    def r_of(nodes):
        m = nodes.size
        return outc.predict_at(q.a, nodes, np.full(m, obs.b), np.tile(x1, (m, 1)))

    int_dphi_pi = integrate_kernel_weighted(
        lambda s0: smooth_indicator_deriv(pi_of(s0), t, eps) * pi_of(s0),
        q.s, h, nuis.support, params)
    int_phi = integrate_kernel_weighted(
        lambda s0: smooth_indicator(pi_of(s0), t, eps),
        q.s, h, nuis.support, params)
    int_dphi_pi_r = integrate_kernel_weighted(
        lambda s0: smooth_indicator_deriv(pi_of(s0), t, eps) * pi_of(s0) * r_of(s0),
        q.s, h, nuis.support, params)
    int_phi_r = integrate_kernel_weighted(
        lambda s0: smooth_indicator(pi_of(s0), t, eps) * r_of(s0),
        q.s, h, nuis.support, params)

    _check_finite("observation kernel terms", [ind, pi_S, r_S, k_S])
    den = ind * k_S * dphi_S - ind * int_dphi_pi + int_phi
    residual = (phi_S / max(pi_S, DENSITY_FLOOR)) * (obs.y - r_S)
    num = (ind * k_S * dphi_S * r_S
           + ind * k_S * residual
           - ind * int_dphi_pi_r
           + int_phi_r)
    return EifPair(num=float(num), den=float(den))


def eif_stwcrve(obs: Observation, q: StwcrveQuery, nuis: NuisanceTriple,
                params: SmoothingParams) -> EifPair:
    """Influence values for one observation under a double-trimming query.

    The numerator evaluates the outcome regression at the investigational
    arm ``a1``; the denominator at the comparator arm ``a0``. Single
    integrals run over the arm whose observation term collapsed; double
    integrals use tensor-product quadrature, one call per displayed term.
    """
    h0, h1 = params.require_h0_h1()
    t, eps = params.t, params.epsilon
    b1, x1 = _obs_arrays(obs)
    cond, outc, prop = nuis.cond_density, nuis.outcome, nuis.propensity
    sup = nuis.support

    ind1 = (1.0 if obs.a == q.a1 else 0.0) / float(prop.prob(q.a1, b1, x1)[0])
    ind0 = (1.0 if obs.a == q.a0 else 0.0) / float(prop.prob(q.a0, b1, x1)[0])

    def nuis_at(arm, s_values):
        s_values = np.atleast_1d(np.asarray(s_values, dtype=float))
        m = s_values.size
        bb, xx = np.full(m, obs.b), np.tile(x1, (m, 1))
        pi = cond.density_at(arm, s_values, bb, xx)
        r = outc.predict_at(arm, s_values, bb, xx)
        return pi, r

    pi_S1, r_S1 = (float(v[0]) for v in nuis_at(q.a1, obs.s))
    pi_S0, r_S0 = (float(v[0]) for v in nuis_at(q.a0, obs.s))
    phi_S1, dphi_S1 = smooth_indicator(pi_S1, t, eps), smooth_indicator_deriv(pi_S1, t, eps)
    phi_S0, dphi_S0 = smooth_indicator(pi_S0, t, eps), smooth_indicator_deriv(pi_S0, t, eps)
    k1_S = kernel_weight(obs.s - q.s1, h1)
    k0_S = kernel_weight(obs.s - q.s0, h0)

    def phi0(sp):
        return smooth_indicator(nuis_at(q.a0, sp)[0], t, eps)

    def phi1(spp):
        return smooth_indicator(nuis_at(q.a1, spp)[0], t, eps)

    def g0(sp):
        pi, _ = nuis_at(q.a0, sp)
        return smooth_indicator_deriv(pi, t, eps) * pi

    def g1(spp):
        pi, _ = nuis_at(q.a1, spp)
        return smooth_indicator_deriv(pi, t, eps) * pi

    def r0(sp):
        return nuis_at(q.a0, sp)[1]

    def r1(spp):
        return nuis_at(q.a1, spp)[1]

    # single integrals over the arm whose observation term did not collapse
    int0_phi = integrate_kernel_weighted(phi0, q.s0, h0, sup, params)
    int0_phi_r = integrate_kernel_weighted(lambda sp: phi0(sp) * r0(sp), q.s0, h0, sup, params)
    int1_phi = integrate_kernel_weighted(phi1, q.s1, h1, sup, params)
    int1_phi_r = integrate_kernel_weighted(lambda spp: phi1(spp) * r1(spp), q.s1, h1, sup, params)

    def grid(fn_rows, fn_cols):
        # tensor-product integrand built from per-axis factors
        def f(sp, spp):
            rows = np.atleast_1d(fn_rows(sp[:, 0]))[:, None]
            cols = np.atleast_1d(fn_cols(spp[0, :]))[None, :]
            return rows * cols
        return f

    # numerator: outcome regression at the investigational arm a1
    num_t1 = ind1 * k1_S * dphi_S1 * r_S1 * int0_phi
    num_t2 = ind0 * k0_S * dphi_S0 * int1_phi_r
    num_t3 = ind1 * k1_S * (phi_S1 / max(pi_S1, DENSITY_FLOOR)) * (obs.y - r_S1) * int0_phi
    num_t4 = integrate_kernel_weighted_2d(
        lambda sp, spp: (ind1 * grid(phi0, lambda z: g1(z) * r1(z))(sp, spp)
                         + ind0 * grid(g0, lambda z: phi1(z) * r1(z))(sp, spp)),
        q.s0, h0, q.s1, h1, sup, params)
    num_t5 = integrate_kernel_weighted_2d(
        grid(phi0, lambda z: phi1(z) * r1(z)), q.s0, h0, q.s1, h1, sup, params)
    num = num_t1 + num_t2 + num_t3 - num_t4 + num_t5

    # denominator: outcome regression at the comparator arm a0
    den_t1 = ind1 * k1_S * dphi_S1 * int0_phi_r
    den_t2 = ind0 * k0_S * dphi_S0 * r_S0 * int1_phi
    den_t3 = ind0 * k0_S * (phi_S0 / max(pi_S0, DENSITY_FLOOR)) * (obs.y - r_S0) * int1_phi
    den_t4 = integrate_kernel_weighted_2d(
        lambda sp, spp: (ind1 * grid(lambda z: phi0(z) * r0(z), g1)(sp, spp)
                         + ind0 * grid(lambda z: g0(z) * r0(z), phi1)(sp, spp)),
        q.s0, h0, q.s1, h1, sup, params)
    den_t5 = integrate_kernel_weighted_2d(
        grid(lambda z: phi0(z) * r0(z), phi1), q.s0, h0, q.s1, h1, sup, params)
    den = den_t1 + den_t2 + den_t3 - den_t4 + den_t5

    return EifPair(num=float(num), den=float(den))


# --- vectorized paths used by the estimators --------------------------------

_INTEGRALS = ("phi", "phi_r", "g", "g_r")

# Observations per block of the m x quad_nodes grid: 1024 x 64 nodes is
# 512 KB per array, which stays in cache. A multiple of 4, because
# OpenBLAS's gemv kernel sums rows in groups of four and rounds a row in a
# group differently from one in a tail; blocks that start on a multiple of
# 4 keep every row's sum as in one call over all m rows.
_GRID_ROWS = 1024


def _kernel_integrals_1d(center, h, arm, nuis, params, b, x, t, eps):
    """Per-observation integrals of phi, phi*r, dphi*pi, dphi*pi*r on one arm.

    Returns dict of (m,) arrays; zeros when the window misses the support.
    The grid is evaluated over blocks of ``_GRID_ROWS`` observations, which
    bounds its memory and leaves every value as in one unblocked pass.
    """
    m = b.shape[0]
    rule = quad_rule(center, h, nuis.support, params)
    if rule is None:
        return {key: np.zeros(m) for key in _INTEGRALS}
    nodes, weights = rule
    wk = kernel_weight(nodes - center, h) * weights

    def block(b, x):
        pi = nuis.cond_density.density_grid(arm, nodes, b, x)
        r = nuis.outcome.predict_grid(arm, nodes, b, x)
        phi = smooth_indicator(pi, t, eps)
        g = smooth_indicator_deriv(pi, t, eps) * pi
        return phi @ wk, (phi * r) @ wk, g @ wk, (g * r) @ wk

    if m <= _GRID_ROWS:
        return dict(zip(_INTEGRALS, block(b, x)))
    # NaN until written, so a row no block reaches fails the finite check on
    # the influence values. A one-row block would go through numpy's vector
    # dot, which rounds differently from gemv, so the last block absorbs it.
    out = np.full((len(_INTEGRALS), m), np.nan)
    edges = [*range(0, m - 1, _GRID_ROWS), m]
    for lo, hi in zip(edges[:-1], edges[1:]):
        out[:, lo:hi] = block(b[lo:hi], x[lo:hi])
    return dict(zip(_INTEGRALS, out))


def _arm_terms(y, a, s, b, x, arm, center, h, nuis: NuisanceTriple,
               params: SmoothingParams):
    """One arm's ``(ind, plain, weighted, ints, floor_hits)``.

    ``ind`` is 1{A = arm}/P(A = arm | b, x); ``plain = k*dphi - int g`` and
    ``weighted = k*(dphi*r + phi/floor(pi)*(y - r)) - int g*r`` pair the
    observation-local terms with their correction integrals; ``ints`` is
    the arm's ``_kernel_integrals_1d`` dict.
    """
    t, eps = params.t, params.epsilon
    y, s, b, x = (np.asarray(v, dtype=float) for v in (y, s, b, x))
    a = np.asarray(a)
    ints = _kernel_integrals_1d(center, h, arm, nuis, params, b, x, t, eps)
    on_arm = a == arm
    ind = _check_finite(f"propensity weight (arm {arm})",
                        on_arm / nuis.propensity.prob(arm, b, x))
    pi_S = _check_finite(f"marker density (arm {arm})", nuis.cond_density.density_at(arm, s, b, x))
    r_S = _check_finite(f"outcome regression (arm {arm})", nuis.outcome.predict_at(arm, s, b, x))
    k_S = kernel_weight(s - center, h)
    dphi_S = smooth_indicator_deriv(pi_S, t, eps)
    phi_S = smooth_indicator(pi_S, t, eps)
    floored = np.maximum(pi_S, DENSITY_FLOOR)
    floor_hits = int(np.sum((pi_S < DENSITY_FLOOR) & on_arm))
    plain = k_S * dphi_S - ints["g"]
    weighted = k_S * (dphi_S * r_S + (phi_S / floored) * (y - r_S)) - ints["g_r"]
    return ind, plain, weighted, ints, floor_hits


def eif_stwcr_batch(y, a, s, b, x, q: StwcrQuery, nuis: NuisanceTriple,
                    params: SmoothingParams):
    """Vectorized influence values for a risk query.

    Returns ``(num, den, floor_hits)`` where num/den are (m,) arrays and
    floor_hits counts residual-term density-floor activations.
    """
    h = params.require_h()
    ind, plain, weighted, ints, floor_hits = _arm_terms(y, a, s, b, x, q.a, q.s, h, nuis, params)
    den = ind * plain + ints["phi"]
    num = ind * weighted + ints["phi_r"]
    _check_finite("risk influence values", np.concatenate([num, den]))
    return num, den, floor_hits


def eif_stwcrve_batch(y, a, s, b, x, q: StwcrveQuery, nuis: NuisanceTriple,
                      params: SmoothingParams):
    """Vectorized influence values for a relative-efficacy query.

    Term grouping pairs each observation-local term with its correction
    integral, so a symmetric query (a1 == a0, s1 == s0, h1 == h0) yields
    num == den exactly.
    """
    h0, h1 = params.require_h0_h1()
    ind0, plain0, weighted0, i0, hits0 = _arm_terms(y, a, s, b, x, q.a0, q.s0, h0, nuis, params)
    ind1, plain1, weighted1, i1, hits1 = _arm_terms(y, a, s, b, x, q.a1, q.s1, h1, nuis, params)
    # numerator: r at a1; denominator: r at a0
    num = ind0 * i1["phi_r"] * plain0 + ind1 * i0["phi"] * weighted1 + i0["phi"] * i1["phi_r"]
    den = ind1 * i0["phi_r"] * plain1 + ind0 * i1["phi"] * weighted0 + i1["phi"] * i0["phi_r"]
    _check_finite("relative-efficacy influence values", np.concatenate([num, den]))
    return num, den, hits0 + hits1
