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
are what the cross-fitting estimators call, once per query on a fold
plan's rows sorted by fold (``NuisanceParts``: each fold's nuisances on
its own contiguous part); tests pin them to the reference path. Each
query names its ``(arm, center, h)`` kernel windows (``windows``): a risk
query one, a relative-efficacy query two, the comparator's first.
``_batch`` builds each window's terms from two parts, each under its own
key in one dict of whole-row arrays: under the arm, the query-independent
observation-local terms (``local_terms``), which keep the rows' density
mean, and under the window, its grid integrals, which read that mean.
Both depend on the nuisances, so each is made piece by piece, the parts
cut at every ``_GROUP_ROWS`` rows, and a window's grid keeps its row
blocks within each piece. Every arm's local terms and each kept window's
integrals are made whole ahead of the row groups. The groups, all rows up
to ``_GROUP_ROWS`` and groups of that many above, bound only what is not
kept: the integrals of a window the dict does not keep, the kernel
weights at S and the influence values. Once per query comes one
quadrature rule per distinct clipped window; the finite checks run once
on all rows. The dict is the batch functions' ``_terms``, which a caller
answering many queries on the same rows, nuisances and (t, epsilon,
quad_nodes, window_halfwidth_in_h) passes back in; ``_keep`` names the
keys it holds after the call, every key when None. The batch alone adds
and deletes entries, and the caller alone picks the keys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .core import (
    DENSITY_FLOOR,
    SmoothingParams,
    _is_arm,
    _is_number,
    _require_int,
    _require_items,
    _require_numbers,
    _require_type,
    integrate_kernel_weighted,
    integrate_kernel_weighted_2d,
    kernel_weight,
    kernel_window,
    quad_rule,
    smooth_indicator,
    smooth_indicator_deriv,
    softened_indicator,
)
from .errors import EvaluationError, InvalidParameterError
from .nuisance import NuisanceTriple, Observation
from .parallel import _BLOCK_ROWS, map_row_blocks, row_blocks

__all__ = [
    "EifPair",
    "QUERY_TYPES",
    "StwcrQuery",
    "StwcrveQuery",
    "parse_query",
    "eif_stwcr",
    "eif_stwcrve",
]


@dataclass(frozen=True)
class EifPair:
    """One observation's uncentered (numerator, denominator) influence values."""

    num: float
    den: float

    def __post_init__(self):
        if not (_is_number(self.num) and _is_number(self.den)):
            raise EvaluationError(
                f"influence values must be finite numbers, got {self.num!r} and {self.den!r}")


class _Query:
    """What a query kind knows of itself (see the module docstring).

    Each subclass sets ``kind`` and ``bandwidths`` as class constants, not
    dataclass fields, so a query's repr and ``dataclasses.asdict`` hold its
    fields alone. Each field is checked as its ``field_types`` type reads
    it: an arm is the integer 0 or 1, a marker a finite number, which is
    kept as a float, so that queries the estimators read alike are equal
    and equal labels mean equal queries.
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
            if typ is float:
                if not _is_number(value):
                    raise InvalidParameterError(
                        f"query marker level {name} must be a finite number, got {value!r}")
                object.__setattr__(self, name, float(value))

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


def _marker_label(s: float) -> str:
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


@dataclass(frozen=True, eq=False)
class NuisanceParts:
    """A batch's nuisances part by part: its rows ``edges[j]:edges[j + 1]``
    are evaluated with ``triples[j]``, a NuisanceTriple. ``edges`` rise from
    0, one more than the triples; the batch's rows must end at the last. A
    fold plan's rows, sorted by fold, hold one part per fold; a single
    ``NuisanceTriple`` is one part of all rows."""

    edges: tuple
    triples: tuple

    def __post_init__(self):
        _require_type("NuisanceParts", "edges", self.edges, tuple)
        _require_items("NuisanceParts", "triples", self.triples, "each triple", NuisanceTriple, tuple)
        for edge in self.edges:
            _require_int("each edge of NuisanceParts", edge, 0)
        edges = self.edges
        if not (len(edges) == len(self.triples) + 1 and edges[0] == 0
                and all(lo < hi for lo, hi in zip(edges, edges[1:]))):
            raise InvalidParameterError(
                f"NuisanceParts needs edges rising from 0, one more than its {len(self.triples)} "
                f"triples, got {edges!r}")


def _kernel_integrals_1d(center, h, arm, nuis, params, b, x, mean, rules):
    """Per-observation integrals of phi, phi*r, dphi*pi, dphi*pi*r on one arm.

    Returns a tuple of (m,) arrays in ``_INTEGRALS`` order, on the rows b,
    x whose density mean on the arm is ``mean``. The rule is
    ``rules[kernel_window(...)]`` on the support of ``nuis``, made and added
    when missing, so parts whose supports clip the window alike share one.
    The models are evaluated on the (rows, nodes) grid by broadcasting, in
    row blocks by ``map_row_blocks``, which bounds memory and leaves every
    value as in one unblocked serial pass. A window that misses the support
    is an empty rule, whose grid has no nodes, so every integral is zero.
    """
    window = kernel_window(center, h, nuis.support, params)
    if window not in rules:
        rules[window] = quad_rule(center, h, nuis.support, params)
    nodes, wk = rules[window]

    def block(b, x, mean):
        # pi and r belong to the models and are only read; phi and g are
        # this block's own arrays, so the products are formed in them
        b, x = b[:, None], x[:, None, :]  # rows down, nodes across
        pi = nuis.cond_density.density_from_mean(nodes, mean[:, None])
        r = nuis.outcome.predict_at(arm, nodes, b, x)
        phi, g = softened_indicator(pi, params.t, params.epsilon)
        g *= pi
        int_phi = phi @ wk
        phi *= r
        int_g = g @ wk
        g *= r
        return int_phi, phi @ wk, int_g, g @ wk

    return map_row_blocks(block, b, x, mean)


class LocalTerms(NamedTuple):
    """One arm's query-independent observation-local terms on a set of rows.

    ``ind`` is 1{A = arm}/P(A = arm | b, x), ``dphi`` is dphi(pi(S)),
    ``local = dphi*r + phi/floor(pi)*(y - r)`` at (arm, S) and ``mean`` the
    marker density's mean on the arm, which the grid reads; ``floor_hits``
    counts the arm's rows whose density was floored. They depend on the
    nuisances, t and epsilon, and not on the query's marker or bandwidth.
    """

    ind: np.ndarray
    dphi: np.ndarray
    local: np.ndarray
    mean: np.ndarray
    floor_hits: int


def local_terms(y, a, s, b, x, arm, nuis: NuisanceTriple, t, eps) -> LocalTerms:
    """The ``LocalTerms`` on ``arm`` of rows given as arrays y, a, s, b, x."""
    on_arm = np.asarray(a) == arm
    ind = _check_finite(f"propensity weight (arm {arm})",
                        on_arm / nuis.propensity.prob(arm, b, x))
    mean = nuis.cond_density.mean(arm, b, x)
    pi_S = _check_finite(f"marker density (arm {arm})", nuis.cond_density.density_from_mean(s, mean))
    r_S = _check_finite(f"outcome regression (arm {arm})", nuis.outcome.predict_at(arm, s, b, x))
    phi_S, dphi_S = softened_indicator(pi_S, t, eps)
    floored = np.maximum(pi_S, DENSITY_FLOOR)
    floor_hits = int(np.sum((pi_S < DENSITY_FLOOR) & on_arm))
    return LocalTerms(ind, dphi_S, dphi_S * r_S + (phi_S / floored) * (y - r_S), mean, floor_hits)


def _batch_args(caller, rows, q, query_type, nuis, params):
    """The rows (y, a, s, b, x) read in place, y, s, b and x as floats, and
    ``nuis`` as ``(lo, hi, triple)`` parts, each argument checked where it
    enters: the rows by dtype kind and shape, never copied."""
    _require_type(caller, "q", q, query_type)
    _require_type(caller, "nuis", nuis, (NuisanceTriple, NuisanceParts))
    _require_type(caller, "params", params, SmoothingParams)
    m = _require_numbers(f"{caller} row array y", rows[0], ndim=1).shape[0]
    y, a, s, b, x = (_require_numbers(f"{caller} row array {name}", v,
                                      ndim=2 if name == "x" else 1, rows=m)
                     for name, v in zip("yasbx", rows))
    y, s, b, x = (np.asarray(v, dtype=float) for v in (y, s, b, x))
    if isinstance(nuis, NuisanceTriple):
        return (y, a, s, b, x), [(0, m, nuis)]
    if nuis.edges[-1] != m:
        raise InvalidParameterError(f"{caller} has {m} rows, but its nuis parts end at row "
                                    f"{nuis.edges[-1]}")
    return (y, a, s, b, x), list(zip(nuis.edges[:-1], nuis.edges[1:], nuis.triples))


# Rows in a group. A batch makes its influence values, and the grid integrals
# of the windows it does not keep, one group of rows at a time, so that a
# group's arrays bound its memory. Up to this many rows one group holds every
# part, and each query makes one pass over all rows. A multiple of
# _BLOCK_ROWS, so that a part cut into groups keeps its grid blocks.
_GROUP_ROWS = 64 * _BLOCK_ROWS


def _groups(parts) -> list:
    """The ``(lo, hi, triple)`` parts in groups of consecutive pieces: each
    part cut into ``row_blocks`` of ``_GROUP_ROWS`` rows, and the pieces
    joined into groups of at least ``_GROUP_ROWS`` rows but the last."""
    runs, run = [], []
    for part_lo, part_hi, triple in parts:
        for lo, hi in row_blocks(part_lo, part_hi, _GROUP_ROWS):
            run.append((lo, hi, triple))
            if hi - run[0][0] >= _GROUP_ROWS:
                runs.append(run)
                run = []
    return runs + [run] if run else runs


def _by_part(make, parts):
    """What ``make(lo, hi, triple)`` returns for each of ``parts``, which run
    from row ``parts[0][0]``, joined in part order: each per-row array into
    one array over their rows, filled one part at a time so that one part's
    arrays live at a time, and each count summed."""
    start, whole = parts[0][0], None
    for lo, hi, triple in parts:
        piece = make(lo, hi, triple)
        if whole is None:
            whole = [np.empty(parts[-1][1] - start, dtype=v.dtype) if isinstance(v, np.ndarray)
                     else 0 for v in piece]
        for j, v in enumerate(piece):
            if isinstance(v, np.ndarray):
                whole[j][lo - start:hi - start] = v
            else:
                whole[j] += v
    return tuple(whole)


def _batch(caller, label, rows, q, query_type, nuis, params, terms, keep, combine):
    """``(num, den, floor_hits)`` of query ``q`` on ``rows`` (y, a, s, b, x),
    after ``_batch_args`` checks the arguments; EvaluationError naming
    ``label`` unless num and den are finite.

    Each kernel window ``(arm, center, h)`` of ``q`` reads its arm's
    ``LocalTerms`` under the arm in ``terms`` (a new dict when None) and its
    integrals by ``_INTEGRALS`` name under the window: whole-row arrays,
    made on every piece of every group with each piece's nuisances and
    written to ``terms`` once every piece is made. A window's pieces share
    one quadrature rule per clipped window. Ahead of the groups come every
    missing arm's local terms, and then the integrals of each missing window
    whose key is in ``keep`` (every key when None), so that what ``terms``
    keeps is not allocated among the grid blocks' short-lived arrays. The
    pieces then run in ``_groups``, which bound only what is not kept: the
    integrals of a missing window that ``keep`` leaves out, and the
    influence values. On each group, ``combine`` takes each window's
    ``(ind, plain, weighted, ints)`` on the group's rows, ind being its
    arm's ``LocalTerms.ind``, and returns their num and den. ``plain =
    k*dphi - int g`` and ``weighted = k*local - int g*r`` pair the
    observation-local terms, weighted by the kernel k at S, with their
    correction integrals. After the groups, every key of ``terms`` not in
    ``keep`` is deleted.
    """
    (y, a, s, b, x), parts = _batch_args(caller, rows, q, query_type, nuis, params)
    terms = {} if terms is None else terms
    windows = q.windows(params)
    arms = [arm for arm, _, _ in windows]
    groups = _groups(parts)
    pieces = [piece for group in groups for piece in group]
    rules = {}

    def integrals(window, pieces):
        """The window's integrals on ``pieces``, by ``_INTEGRALS`` name."""
        arm, center, h = window
        mean, rule = terms[arm].mean, rules.setdefault(window, {})
        return dict(zip(_INTEGRALS, _by_part(
            lambda lo, hi, triple: _kernel_integrals_1d(center, h, arm, triple, params, b[lo:hi],
                                                        x[lo:hi], mean[lo:hi], rule),
            pieces)))

    # the arms first: a window's grid reads its arm's density mean
    for key in dict.fromkeys((*arms, *windows)):
        if key in arms and key not in terms:
            terms[key] = LocalTerms(*_by_part(
                lambda lo, hi, triple: local_terms(y[lo:hi], a[lo:hi], s[lo:hi], b[lo:hi], x[lo:hi],
                                                   key, triple, params.t, params.epsilon),
                pieces))
        elif key not in terms and (keep is None or key in keep):
            terms[key] = integrals(key, pieces)

    def values(group):
        """The group's num and den: its arrays die with the call, not the next group's."""
        lo, hi = group[0][0], group[-1][1]
        ints = {window: integrals(window, group) for window in dict.fromkeys(windows)
                if window not in terms}
        window_terms = []
        for window in windows:
            arm, center, h = window
            loc = terms[arm]
            window_ints = ints.get(window) or {name: v[lo:hi] for name, v in terms[window].items()}
            k_S = kernel_weight(s[lo:hi] - center, h)
            window_terms.append((loc.ind[lo:hi], k_S * loc.dphi[lo:hi] - window_ints["g"],
                                 k_S * loc.local[lo:hi] - window_ints["g_r"], window_ints))
        return combine(*window_terms)

    num, den = np.empty(y.shape[0]), np.empty(y.shape[0])
    for group in groups:
        num[group[0][0]:group[-1][1]], den[group[0][0]:group[-1][1]] = values(group)
    hits = sum(terms[arm].floor_hits for arm in arms)
    if keep is not None:
        for key in terms.keys() - keep:
            del terms[key]
    _check_finite(label, num)
    _check_finite(label, den)
    return num, den, hits


def eif_stwcr_batch(y, a, s, b, x, q: StwcrQuery, nuis: NuisanceTriple | NuisanceParts,
                    params: SmoothingParams, *, _terms=None, _keep=None):
    """Vectorized influence values for a risk query.

    Returns ``(num, den, floor_hits)`` where num/den are (m,) arrays and
    floor_hits counts residual-term density-floor activations. ``nuis`` is
    one ``NuisanceTriple`` for every row, or ``NuisanceParts`` giving each
    contiguous part of the rows its own. ``_terms``, for a caller that keeps
    terms across queries, maps an arm to its ``LocalTerms`` and a kernel
    window ``(arm, center, h)`` to its integrals, all on these rows and
    parts at params' t, epsilon, quad_nodes and window half-width; what the
    query needs and it lacks is made here and added to it. After the call
    it holds the keys it held or the call made, only those in ``_keep``
    when that is given.
    """
    def combine(window):
        ind, plain, weighted, ints = window
        return ind * weighted + ints["phi_r"], ind * plain + ints["phi"]

    return _batch("eif_stwcr_batch", "risk influence values", (y, a, s, b, x), q, StwcrQuery,
                  nuis, params, _terms, _keep, combine)


def eif_stwcrve_batch(y, a, s, b, x, q: StwcrveQuery, nuis: NuisanceTriple | NuisanceParts,
                      params: SmoothingParams, *, _terms=None, _keep=None):
    """Vectorized influence values for a relative-efficacy query.

    Term grouping pairs each observation-local term with its correction
    integral, so a symmetric query (a1 == a0, s1 == s0, h1 == h0) yields
    num == den exactly: its second arm finds both its terms made by the
    first. ``nuis``, ``_terms`` and ``_keep`` are as for ``eif_stwcr_batch``.
    """
    def combine(comparator, investigational):
        (ind0, plain0, weighted0, i0), (ind1, plain1, weighted1, i1) = comparator, investigational
        # numerator: r at a1; denominator: r at a0
        num = ind0 * i1["phi_r"] * plain0 + ind1 * i0["phi"] * weighted1 + i0["phi"] * i1["phi_r"]
        den = ind1 * i0["phi_r"] * plain1 + ind0 * i1["phi"] * weighted0 + i1["phi"] * i0["phi_r"]
        return num, den

    return _batch("eif_stwcrve_batch", "relative-efficacy influence values", (y, a, s, b, x), q,
                  StwcrveQuery, nuis, params, _terms, _keep, combine)
