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

Each query kind's facts live on its class: ``kind`` (the functional's
name, the CLI's query prefix and command suffix), ``bandwidths``,
``label``, ``windows`` and ``functional``. ``parse_query`` reads a
query's ``kind:field:...`` text and ``QUERY_TYPES`` gives each class by
its kind. The CLI, the harness and the oracle read these and branch on no
query type; only the influence values here, the estimators and the
oracle's combination of its integrals keep per-kind code.

``eif_stwcr`` / ``eif_stwcrve`` are single-observation reference
implementations. The ``*_batch`` variants vectorize over observations and
are what the cross-fitting estimators call; tests pin them to the
reference path. Each query names its ``(arm, center, h)`` kernel windows
(``windows``): a risk query one, a relative-efficacy query two, the
comparator's first. ``_arm_terms`` builds each window's terms from two
parts it keeps in one dict: under the arm, the query-independent
observation-local terms (``local_terms``), and under the window, its grid
integrals. A caller answering many queries passes that dict back in; the
estimators keep one per fold for each (t, epsilon, quad_nodes,
window_halfwidth_in_h), with every arm's local terms and each window asked
twice in a row on its arm, until that arm is asked another window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    DENSITY_FLOOR,
    SmoothingParams,
    _is_arm,
    _is_number,
    _require_type,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    quad_rule,
    smooth_indicator,
    smooth_indicator_deriv,
    softened_indicator,
)
from .errors import EvaluationError, InvalidParameterError
from .nuisance import NuisanceTriple, Observation
from .parallel import map_row_blocks

__all__ = [
    "EifPair",
    "QUERY_TYPES",
    "StwcrQuery",
    "StwcrveQuery",
    "parse_query",
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


class _Query:
    """What a query kind knows of itself (see the module docstring).

    Each subclass sets ``kind`` and ``bandwidths`` as class constants, not
    dataclass fields, so a query's repr and ``dataclasses.asdict`` hold its
    fields alone. Each field is checked as its ``field_types`` type reads
    it: an arm is the integer 0 or 1, a marker a finite number.
    """

    @classmethod
    def field_types(cls) -> dict:
        """Each field's name and the type its text parses as: an int for an arm
        ``a*``, a float for a marker ``s*``."""
        return {f.name: int if f.name.startswith("a") else float for f in fields(cls)}

    def __post_init__(self):
        for name, typ in self.field_types().items():
            value = getattr(self, name)
            if typ is int and not _is_arm(value):
                raise InvalidParameterError(f"query arm {name} must be an integer 0 or 1, got {value!r}")
            if typ is float and not _is_number(value):
                raise InvalidParameterError(
                    f"query marker level {name} must be a finite number, got {value!r}")

    @property
    def label(self) -> str:
        """``STWCR(a=1,s=7)``: each marker as ``:g`` writes it when that reads
        back as the same float, else as its shortest round-trip repr, so
        distinct markers never share a label."""
        values = (f"{name}={getattr(self, name) if typ is int else _marker_label(getattr(self, name))}"
                  for name, typ in self.field_types().items())
        return f"{self.kind.upper()}({','.join(values)})"

    def _bandwidths(self, params: SmoothingParams) -> tuple:
        """The values in ``params`` of ``bandwidths``; InvalidParameterError when one is unset."""
        if any(getattr(params, name) is None for name in self.bandwidths):
            raise InvalidParameterError(
                f"a {self.kind} query needs the bandwidths {' and '.join(self.bandwidths)}")
        return tuple(getattr(params, name) for name in self.bandwidths)


def _marker_label(s) -> str:
    s = float(s)  # a numpy float's repr names its type; a Fraction has no :g
    short = f"{s:g}"
    return short if float(short) == s else repr(s)


@dataclass(frozen=True)
class StwcrQuery(_Query):
    """Risk query: arm and marker level."""

    kind = "stwcr"
    bandwidths = ("h",)

    a: int
    s: float

    def windows(self, params: SmoothingParams):
        """The query's one ``(arm, center, h)`` kernel window."""
        (h,) = self._bandwidths(params)
        return ((self.a, self.s, h),)

    @staticmethod
    def functional(num: float, den: float) -> float:
        """The trimmed risk, num / den."""
        return num / den


@dataclass(frozen=True)
class StwcrveQuery(_Query):
    """Relative-efficacy query: (investigational arm, comparator arm, markers)."""

    kind = "stwcrve"
    bandwidths = ("h0", "h1")

    a1: int
    a0: int
    s1: float
    s0: float

    def windows(self, params: SmoothingParams):
        """The comparator's ``(arm, center, h)`` kernel window, then the
        investigational arm's; a symmetric query's two are equal."""
        h0, h1 = self._bandwidths(params)
        return (self.a0, self.s0, h0), (self.a1, self.s1, h1)

    @staticmethod
    def functional(num: float, den: float) -> float:
        """The relative efficacy, 1 - num / den."""
        return 1.0 - num / den


# each query class by its kind
QUERY_TYPES = {cls.kind: cls for cls in (StwcrQuery, StwcrveQuery)}


def parse_query(text: str):
    """The query that ``kind:field:...`` text names, its fields in order:
    ``stwcr:a:s`` or ``stwcrve:a1:a0:s1:s0``."""
    _require_type("parse_query", "text", text, str)
    kind, *values = text.split(":")
    query_type = QUERY_TYPES.get(kind)
    if query_type is not None and len(values) == len(query_type.field_types()):
        try:  # an InvalidParameterError from the query is a ValueError too
            return query_type(*(typ(v) for typ, v in zip(query_type.field_types().values(), values)))
        except ValueError:
            pass
    forms = " or ".join(":".join((cls.kind, *cls.field_types())) for cls in QUERY_TYPES.values())
    raise InvalidParameterError(f"cannot parse query {text!r}; expected {forms}")


def _obs_arrays(obs: Observation):
    return (np.asarray([obs.b]), np.asarray([obs.x], dtype=float))


def _require_obs_args(caller: str, obs, q, query_type, nuis, params) -> None:
    for name, value, cls in (("obs", obs, Observation), ("q", q, query_type),
                             ("nuis", nuis, NuisanceTriple), ("params", params, SmoothingParams)):
        _require_type(caller, name, value, cls)


def _check_finite(name: str, value):
    if not np.all(np.isfinite(value)):
        raise EvaluationError(f"non-finite value in term '{name}'")
    return value


def eif_stwcr(obs: Observation, q: StwcrQuery, nuis: NuisanceTriple,
              params: SmoothingParams) -> EifPair:
    """Influence values for one observation under a single-arm risk query."""
    _require_obs_args("eif_stwcr", obs, q, StwcrQuery, nuis, params)
    (h,) = q._bandwidths(params)
    t, eps = params.t, params.epsilon
    b1, x1 = _obs_arrays(obs)
    cond, outc, prop = nuis.cond_density, nuis.outcome, nuis.propensity

    indicator = 1.0 if obs.a == q.a else 0.0
    ind = indicator / float(prop.prob(q.a, b1, x1)[0])

    pi_S = float(cond.density_at(q.a, obs.s, b1, x1)[0])
    r_S = float(outc.predict_at(q.a, obs.s, b1, x1)[0])
    k_S = kernel_weight(obs.s - q.s, h)
    dphi_S = smooth_indicator_deriv(pi_S, t, eps)
    phi_S = smooth_indicator(pi_S, t, eps)

    def pi_of(nodes):
        return cond.density_at(q.a, nodes, b1, x1)

    def r_of(nodes):
        return outc.predict_at(q.a, nodes, b1, x1)

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
    _require_obs_args("eif_stwcrve", obs, q, StwcrveQuery, nuis, params)
    h0, h1 = q._bandwidths(params)
    t, eps = params.t, params.epsilon
    b1, x1 = _obs_arrays(obs)
    cond, outc, prop = nuis.cond_density, nuis.outcome, nuis.propensity
    sup = nuis.support

    ind1 = (1.0 if obs.a == q.a1 else 0.0) / float(prop.prob(q.a1, b1, x1)[0])
    ind0 = (1.0 if obs.a == q.a0 else 0.0) / float(prop.prob(q.a0, b1, x1)[0])

    def nuis_at(arm, s_values):
        return cond.density_at(arm, s_values, b1, x1), outc.predict_at(arm, s_values, b1, x1)

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


def _kernel_integrals_1d(center, h, arm, nuis, params, b, x, t, eps):
    """Per-observation integrals of phi, phi*r, dphi*pi, dphi*pi*r on one arm.

    Returns dict of (m,) arrays. The models are evaluated on the (rows,
    nodes) grid by broadcasting, in row blocks by ``map_row_blocks``, which
    bounds memory and leaves every value as in one unblocked serial pass.
    A window that misses the support is an empty rule, whose grid has no
    nodes, so every integral is zero.
    """
    nodes, wk = quad_rule(center, h, nuis.support, params)

    def block(b, x):
        # pi and r belong to the models and are only read; phi and g are
        # this block's own arrays, so the products are formed in them
        b, x = b[:, None], x[:, None, :]  # rows down, nodes across
        pi = nuis.cond_density.density_at(arm, nodes, b, x)
        r = nuis.outcome.predict_at(arm, nodes, b, x)
        phi, g = softened_indicator(pi, t, eps)
        g *= pi
        int_phi = phi @ wk
        phi *= r
        int_g = g @ wk
        g *= r
        return int_phi, phi @ wk, int_g, g @ wk

    return dict(zip(_INTEGRALS, map_row_blocks(block, b, x)))


class LocalTerms(NamedTuple):
    """One arm's query-independent observation-local terms on a set of rows.

    ``ind`` is 1{A = arm}/P(A = arm | b, x), ``dphi`` is dphi(pi(S)), and
    ``local = dphi*r + phi/floor(pi)*(y - r)`` at (arm, S); ``floor_hits``
    counts the arm's rows whose density was floored. They depend on the
    nuisances, t and epsilon, and not on the query's marker or bandwidth.
    """

    ind: np.ndarray
    dphi: np.ndarray
    local: np.ndarray
    floor_hits: int


def local_terms(y, a, s, b, x, arm, nuis: NuisanceTriple, t, eps) -> LocalTerms:
    """The ``LocalTerms`` on ``arm`` of rows given as arrays y, a, s, b, x."""
    on_arm = np.asarray(a) == arm
    ind = _check_finite(f"propensity weight (arm {arm})",
                        on_arm / nuis.propensity.prob(arm, b, x))
    pi_S = _check_finite(f"marker density (arm {arm})", nuis.cond_density.density_at(arm, s, b, x))
    r_S = _check_finite(f"outcome regression (arm {arm})", nuis.outcome.predict_at(arm, s, b, x))
    phi_S, dphi_S = softened_indicator(pi_S, t, eps)
    floored = np.maximum(pi_S, DENSITY_FLOOR)
    floor_hits = int(np.sum((pi_S < DENSITY_FLOOR) & on_arm))
    return LocalTerms(ind, dphi_S, dphi_S * r_S + (phi_S / floored) * (y - r_S), floor_hits)


def _arm_terms(rows, q, nuis: NuisanceTriple, params: SmoothingParams, terms: dict | None):
    """``(local, plain, weighted, ints)`` for each kernel window ``(arm,
    center, h)`` of query ``q``, on ``rows`` (y, a, s, b, x).

    ``local`` is the arm's ``LocalTerms``, read from ``terms`` (a new dict
    when None) under the arm, and ``ints`` the window's
    ``_kernel_integrals_1d`` dict, read under the window; whatever is
    missing is made and added to ``terms``, every arm's
    local terms before any window's grid, so that terms a caller keeps are
    not allocated among the grid blocks' short-lived arrays.
    ``plain = k*dphi - int g`` and ``weighted = k*local - int g*r`` pair the
    observation-local terms, weighted by the kernel k at S, with their
    correction integrals.
    """
    windows = q.windows(params)
    terms = {} if terms is None else terms
    y, a, s, b, x = rows
    y, s, b, x = (np.asarray(v, dtype=float) for v in (y, s, b, x))
    rows = y, np.asarray(a), s, b, x
    for arm, _, _ in windows:
        if arm not in terms:
            terms[arm] = local_terms(*rows, arm, nuis, params.t, params.epsilon)
    out = []
    for window in windows:
        arm, center, h = window
        if window not in terms:
            terms[window] = _kernel_integrals_1d(center, h, arm, nuis, params, b, x,
                                                 params.t, params.epsilon)
        local, ints = terms[arm], terms[window]
        k_S = kernel_weight(s - center, h)
        out.append((local, k_S * local.dphi - ints["g"], k_S * local.local - ints["g_r"], ints))
    return out


def eif_stwcr_batch(y, a, s, b, x, q: StwcrQuery, nuis: NuisanceTriple,
                    params: SmoothingParams, *, _terms=None):
    """Vectorized influence values for a risk query.

    Returns ``(num, den, floor_hits)`` where num/den are (m,) arrays and
    floor_hits counts residual-term density-floor activations. ``_terms``,
    for a caller that keeps terms across queries, maps an arm to its
    ``local_terms`` and a kernel window ``(arm, center, h)`` to its
    ``_kernel_integrals_1d``, all on these rows at params' t, epsilon,
    quad_nodes and window half-width; what the query needs and it lacks is
    made here and added to it.
    """
    ((loc, plain, weighted, ints),) = _arm_terms((y, a, s, b, x), q, nuis, params, _terms)
    den = loc.ind * plain + ints["phi"]
    num = loc.ind * weighted + ints["phi_r"]
    _check_finite("risk influence values", num)
    _check_finite("risk influence values", den)
    return num, den, loc.floor_hits


def eif_stwcrve_batch(y, a, s, b, x, q: StwcrveQuery, nuis: NuisanceTriple,
                      params: SmoothingParams, *, _terms=None):
    """Vectorized influence values for a relative-efficacy query.

    Term grouping pairs each observation-local term with its correction
    integral, so a symmetric query (a1 == a0, s1 == s0, h1 == h0) yields
    num == den exactly: its second arm finds both its terms made by the
    first. ``_terms`` is as for ``eif_stwcr_batch``.
    """
    (loc0, plain0, weighted0, i0), (loc1, plain1, weighted1, i1) = _arm_terms(
        (y, a, s, b, x), q, nuis, params, _terms)
    ind0, ind1 = loc0.ind, loc1.ind
    # numerator: r at a1; denominator: r at a0
    num = ind0 * i1["phi_r"] * plain0 + ind1 * i0["phi"] * weighted1 + i0["phi"] * i1["phi_r"]
    den = ind1 * i0["phi_r"] * plain1 + ind0 * i1["phi"] * weighted0 + i1["phi"] * i0["phi_r"]
    _check_finite("relative-efficacy influence values", num)
    _check_finite("relative-efficacy influence values", den)
    return num, den, loc0.floor_hits + loc1.floor_hits
