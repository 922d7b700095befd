"""Synthetic trial generator, ground-truth oracle, and Monte Carlo harness.

The simulated population has covariates x1 ~ Bernoulli(0.3) (prior
exposure), x2, x3 ~ Uniform[0,1], a baseline marker B whose law is one of
three scenarios (two categorical, one truncated-Gamma), 1:1 randomized
treatment, marker S = B + A - 0.5*x1 + x2^2 + 4 + N(0,1), and a binary
outcome with logit 0.5*x2 + 2*x3 - 0.2*S - A - 0.3*B + 1.5.

The generating equations are polynomial in the features, so the parametric
model classes hold them exactly: ``gen_dataset`` draws S and Y through
``MARKER_MODEL`` and ``OUTCOME_MODEL``, and ``true_nuisances`` returns them.

``compute_truths`` gives the ground truth, on the calling thread: the
defining kernel-quadrature integrals under the true nuisances, averaged
over the baseline law by deterministic quadrature (the (B, x1) cells or
truncated-Gamma densities, crossed with Gauss-Legendre over x2 and x3).
It needs no sample size or seed and never touches the influence code.
``oracle_estimand`` averages the same integrands over Monte Carlo draws,
in row blocks on threads; ``direct_plain_smoothed_risk`` samples marker
values straight from the kernel, with no quadrature: two cross-checks.

A query's facts come from its class in ``eif``: a metrics row's ``label``,
the truth from a numerator and denominator (``functional``), and the
estimator ``estimate_<kind>`` each replication calls. Only
``_oracle_integrands`` branches on the query's kind, to combine its
windows' integrals, which share no code with the influence values.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, gammaln, xlogy

from .core import (Interval, SmoothingParams, _require_int, _require_items, _require_positive,
                   _require_type, quad_rule, smooth_indicator)
from .eif import QUERY_TYPES, StwcrQuery, StwcrveQuery
from .errors import HarnessError, InvalidParameterError, StwcrError
# estimate_<kind> is looked up by name in _run_one_rep
from .estimators import ModelSpecs, estimate_stwcr, estimate_stwcrve, make_folds  # noqa: F401
from .nuisance import (
    CondDensityModel,
    Dataset,
    FeatureSpec,
    KnownPropensity,
    NuisanceTriple,
    OutcomeModel,
    intercept,
    raw,
    square,
)
from .parallel import map_row_blocks, single_threaded

__all__ = [
    "ScenarioSpec",
    "SimConfig",
    "MetricsRow",
    "OracleResult",
    "gen_dataset",
    "true_nuisances",
    "oracle_estimand",
    "direct_plain_smoothed_risk",
    "compute_truths",
    "run_monte_carlo",
]

COVARIATE_NAMES = ("x1", "x2", "x3")


# marker structural model: S = B + A - 0.5*x1 + x2^2 + 4 + N(0, 1)
MARKER_COEF = (4.0, 1.0, 1.0, -0.5, 1.0)  # over {1, b, a, x1, x2^2}
MARKER_SD = 1.0
MARKER_MODEL = CondDensityModel(
    spec=FeatureSpec([intercept(), raw("b"), raw("a"), raw("x1"), square("x2")]),
    coef=MARKER_COEF, residual_sd=MARKER_SD, covariate_names=COVARIATE_NAMES)
# outcome structural model: logit P(Y=1) = 1.5 + 0.5*x2 + 2*x3 - 0.2*s - a - 0.3*b
OUTCOME_COEF = (1.5, 0.5, 2.0, -0.2, -1.0, -0.3)  # over {1, x2, x3, s, a, b}
OUTCOME_MODEL = OutcomeModel(
    kind="logistic",
    spec=FeatureSpec([intercept(), raw("x2"), raw("x3"), raw("s"), raw("a"), raw("b")]),
    coef=OUTCOME_COEF, covariate_names=COVARIATE_NAMES)
TREATED_PROB = 0.5

# baseline law: x1 ~ Bernoulli(EXPOSED_PROB); B | x1 per scenario, indexed by x1
# (0 = naive, 1 = exposed); x2, x3 ~ U[0, 1]
EXPOSED_PROB = 0.3
_CATEGORICAL = {
    "I": {"values": (1, 2, 3, 4, 5),
          "p": ((0.2, 0.3, 0.4, 0.05, 0.05), (0.1, 0.15, 0.3, 0.3, 0.15))},
    "III": {"values": (0, 1, 2, 3, 4),
            "p": ((0.6, 0.2, 0.1, 0.05, 0.05), (0.1, 0.15, 0.3, 0.3, 0.15))},
}
_GAMMA = ({"shape": 2.5, "rate": 1.0}, {"shape": 3.0, "rate": 0.7})
_GAMMA_TRUNC_Q = 0.995

# Gauss-Legendre node counts of the quadrature truth. At t = epsilon = h = 0.1,
# raising them to 64 and 256 moves every truth by < 1e-14, while halving them
# moves Scenario II truths by up to 5e-9: the trimming weight turns sharply in b.
_X_NODES = 24  # per uniform covariate x2, x3
_B_NODES = 128  # per truncated-Gamma law, in u = sqrt(b)


def gamma_truncation_points() -> tuple[float, float]:
    """Theoretical 99.5th percentiles of the two Gamma baseline laws."""
    return tuple(float(gammaincinv(g["shape"], _GAMMA_TRUNC_Q) * (1.0 / g["rate"])) for g in _GAMMA)


def _require_scenario(scenario) -> None:
    if not (isinstance(scenario, str) and scenario in ("I", "II", "III")):
        raise InvalidParameterError(f"scenario must be I, II, or III, got {scenario!r}")


def baseline_marker_range(scenario: str) -> tuple[float, float]:
    _require_scenario(scenario)
    if scenario == "II":
        return 0.0, max(gamma_truncation_points())
    vals = _CATEGORICAL[scenario]["values"]
    return float(min(vals)), float(max(vals))


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic-trial draw: scenario label, sample size, seed."""

    scenario: str
    n: int
    seed: object  # int or numpy SeedSequence

    def __post_init__(self):
        _require_scenario(self.scenario)
        _require_int("n", self.n, 50)
        if not isinstance(self.seed, np.random.SeedSequence):
            _require_int("seed", self.seed, 0, math.inf)


def _draw_baseline(rng: np.random.Generator, n: int, scenario: str):
    """Draw (b, x) from the scenario's baseline population, x's columns x1, x2, x3."""
    x1 = (rng.random(n) < EXPOSED_PROB).astype(float)
    x2 = rng.random(n)
    x3 = rng.random(n)
    b = np.empty(n)
    cat = _CATEGORICAL.get(scenario)
    caps = None if cat else gamma_truncation_points()
    for e in (0, 1):
        rows = x1 == e
        m = int(rows.sum())
        if cat:
            b[rows] = rng.choice(np.asarray(cat["values"], dtype=float), size=m, p=cat["p"][e])
        else:
            g = _GAMMA[e]
            b[rows] = np.minimum(rng.gamma(shape=g["shape"], scale=1.0 / g["rate"], size=m),
                                 caps[e])
    return b, np.column_stack([x1, x2, x3])


def _unit_gauss_legendre(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _baseline_grid(scenario: str):
    """Quadrature rule for the baseline law: weights w and points (b, x).

    Scenarios I and III enumerate the (B, x1) cells. Scenario II integrates
    each truncated-Gamma density in u = sqrt(b), which removes the b^1.5
    behaviour at 0, and adds the point mass that truncation puts at each cap.
    Both cross the (B, x1) rule with Gauss-Legendre over x2 and x3.
    """
    cat = _CATEGORICAL.get(scenario)
    caps = None if cat else gamma_truncation_points()
    cells = []  # (weight, b, x1) per point of the (B, x1) rule
    for e, p_e in ((0, 1.0 - EXPOSED_PROB), (1, EXPOSED_PROB)):
        if cat:
            b, wb = cat["values"], cat["p"][e]
        else:
            g = _GAMMA[e]
            un, uw = _unit_gauss_legendre(_B_NODES)
            u = math.sqrt(caps[e]) * un
            scale = 1.0 / g["rate"]
            z = u * u / scale  # the Gamma(shape, scale) density at b = u^2
            dens = np.exp(xlogy(g["shape"] - 1.0, z) - z - gammaln(g["shape"])) / scale
            b = np.append(u * u, caps[e])
            wb = np.append(math.sqrt(caps[e]) * uw * dens * 2.0 * u, 1.0 - _GAMMA_TRUNC_Q)
        cells += [(p_e * w_i, float(b_i), float(e)) for w_i, b_i in zip(wb, b)]
    wb, b, x1 = (np.array(col) for col in zip(*cells))
    xn, xw = _unit_gauss_legendre(_X_NODES)
    c, i2, i3 = (g.ravel() for g in np.meshgrid(np.arange(wb.size), np.arange(_X_NODES),
                                                 np.arange(_X_NODES), indexing="ij"))
    return wb[c] * xw[i2] * xw[i3], b[c], np.column_stack([x1[c], xn[i2], xn[i3]])


def gen_dataset(spec: ScenarioSpec) -> Dataset:
    """One synthetic trial drawn through the generating models; deterministic given the seed."""
    _require_type("gen_dataset", "spec", spec, ScenarioSpec)
    rng = np.random.default_rng(spec.seed)
    b, x = _draw_baseline(rng, spec.n, spec.scenario)
    a = (rng.random(spec.n) < TREATED_PROB).astype(int)
    s = MARKER_MODEL.mean(a, b, x) + MARKER_SD * rng.standard_normal(spec.n)
    y = (rng.random(spec.n) < OUTCOME_MODEL.predict_at(a, s, b, x)).astype(float)
    return Dataset(y=y, a=a, s=s, b=b, x=x, covariate_names=COVARIATE_NAMES, outcome_kind="binary")


def true_nuisances(scenario: str) -> NuisanceTriple:
    """The generating models, with a marker support 6 sds past the extreme marker means."""
    b_lo, b_hi = baseline_marker_range(scenario)
    mu_lo, mu_hi = MARKER_MODEL.mean([0.0, 1.0], [b_lo, b_hi], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return NuisanceTriple(propensity=KnownPropensity(TREATED_PROB),
                          cond_density=MARKER_MODEL, outcome=OUTCOME_MODEL,
                          support=Interval(float(mu_lo) - 6.0, float(mu_hi) + 6.0))


@dataclass(frozen=True)
class OracleResult:
    """Ground-truth functional values with Monte Carlo error."""

    kind: str
    scenario: str
    num: float
    den: float
    ratio: float
    mc_se: float  # standard error of the ratio
    num_se: float
    den_se: float
    mc_size: int
    seed: int

    @property
    def delta(self) -> float:
        return 1.0 - self.ratio


_ORACLE_BLOCK = 100_000
_ORACLE_QUERIES = {"stwcr": StwcrQuery, "stwcrve_num_den": StwcrveQuery}


def _baseline_blocks(rng: np.random.Generator, mc_size: int, scenario: str):
    """``mc_size`` draws in ``_draw_baseline`` blocks, each drawn when asked for."""
    for done in range(0, mc_size, _ORACLE_BLOCK):
        yield _draw_baseline(rng, min(_ORACLE_BLOCK, mc_size - done), scenario)


def _require_truth_args(caller: str, scenario, queries, params) -> tuple:
    """The checks that ``compute_truths`` and ``SimConfig`` share: a known
    ``scenario``, ``queries`` a tuple or list of queries and ``params`` a
    SmoothingParams, else an InvalidParameterError naming the argument.
    Returns ``queries`` as a tuple."""
    _require_scenario(scenario)
    queries = _require_items(caller, "queries", queries, "each query", tuple(QUERY_TYPES.values()))
    _require_type(caller, "params", params, SmoothingParams)
    return queries


def _oracle_integrands(scenario: str, query, params: SmoothingParams):
    """The query's defining integrands under the true nuisances.

    Returns ``terms(b, x) -> (u, v)``: per baseline point, the numerator and
    denominator integrands, whose means over the baseline law are the
    functional's numerator and denominator. Each is a kernel-quadrature
    integral, over one of the query's ``windows``, of the smoothed trimming
    weight, times the outcome risk in the numerator. Independent of the
    influence-value code path. The one branch on the query's kind outside
    ``eif`` and ``estimators`` is here: how its windows' integrals combine.
    """
    nuis = true_nuisances(scenario)
    rules = []
    for arm, center, h in query.windows(params):
        nodes, wk = quad_rule(center, h, nuis.support, params)
        if nodes.size == 0:
            raise InvalidParameterError("query window lies outside the marker support")
        rules.append((arm, nodes, wk))

    def terms(b, x):
        b, x = b[:, None], x[:, None, :]  # points down, nodes across
        per_arm = []
        for arm, nodes, wk in rules:
            pi = nuis.cond_density.density_at(arm, nodes, b, x)
            phi = smooth_indicator(pi, params.t, params.epsilon)
            r = nuis.outcome.predict_at(arm, nodes, b, x)
            per_arm.append((phi @ wk, (phi * r) @ wk))
        if query.kind == "stwcr":
            plain, weighted = per_arm[0]
            return weighted, plain
        (plain0, weighted0), (plain1, weighted1) = per_arm
        # comparator-side plain x investigational-side risk, and the reverse
        return plain0 * weighted1, weighted0 * plain1

    return terms


def oracle_estimand(kind: str, scenario: str, query, params: SmoothingParams,
                    mc_size: int = 2_000_000, seed: int = 20_260_809) -> OracleResult:
    """Monte Carlo ground truth for a risk or relative-efficacy query.

    Averages the defining kernel-quadrature integrals under the true
    nuisances over ``mc_size`` baseline draws. Independent of the
    influence-value code path, and of the baseline quadrature behind
    :func:`compute_truths`, which it cross-checks. ``kind`` must be the
    query's: "stwcr" for a risk query, "stwcrve_num_den" for a
    relative-efficacy one, whose ratio is its rho.
    """
    if not (isinstance(kind, str) and kind in _ORACLE_QUERIES):
        raise InvalidParameterError(f"unknown oracle kind {kind!r}")
    _require_type(f"oracle kind {kind!r}", "query", query, _ORACLE_QUERIES[kind])
    _require_type("oracle_estimand", "params", params, SmoothingParams)
    terms = _oracle_integrands(scenario, query, params)
    _require_int("mc_size", mc_size, 100_000)
    _require_int("seed", seed, 0, math.inf)
    sums = np.zeros(5)  # sum u, sum v, sum u^2, sum v^2, sum u*v
    for b, x in _baseline_blocks(np.random.default_rng(seed), mc_size, scenario):
        u, v = map_row_blocks(terms, b, x)
        sums += (u.sum(), v.sum(), (u * u).sum(), (v * v).sum(), (u * v).sum())

    n = float(mc_size)
    num, den = sums[0] / n, sums[1] / n
    ratio = num / den
    resid_ss = sums[2] - 2.0 * ratio * sums[4] + ratio ** 2 * sums[3]
    mc_se = math.sqrt(max(resid_ss, 0.0) / (n - 1.0) / n) / den
    num_se = math.sqrt(max(sums[2] - n * num ** 2, 0.0) / (n - 1.0) / n)
    den_se = math.sqrt(max(sums[3] - n * den ** 2, 0.0) / (n - 1.0) / n)
    return OracleResult(kind=kind, scenario=scenario, num=float(num), den=float(den),
                        ratio=float(ratio), mc_se=float(mc_se), num_se=float(num_se),
                        den_se=float(den_se), mc_size=int(mc_size), seed=int(seed))


def direct_plain_smoothed_risk(scenario: str, a: int, s: float, h: float,
                               mc_size: int = 2_000_000, seed: int = 7):
    """Kernel-smoothed risk with no trimming, by direct Monte Carlo.

    Samples marker values straight from the kernel located at ``s`` and
    averages the structural outcome probability; uses neither quadrature
    nor the softened trimming weight. Returns (value, mc_se).
    """
    _require_scenario(scenario)
    StwcrQuery(a, s)  # arm 0 or 1, finite s
    _require_positive("bandwidth h", h)
    _require_int("mc_size", mc_size, 2)
    _require_int("seed", seed, 0, math.inf)
    rng = np.random.default_rng(seed)
    total, total_sq = 0.0, 0.0
    for b, x in _baseline_blocks(rng, mc_size, scenario):
        s_draw = rng.normal(loc=s, scale=h, size=b.size)
        vals = OUTCOME_MODEL.predict_at(a, s_draw, b, x)
        total += vals.sum()
        total_sq += (vals * vals).sum()
    mean = total / mc_size
    var = max(total_sq - mc_size * mean ** 2, 0.0) / (mc_size - 1)
    return float(mean), float(math.sqrt(var / mc_size))


# --- Monte Carlo harness -----------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Bias/coverage experiment configuration."""

    scenario: str
    n: int
    reps: int
    queries: tuple
    params: SmoothingParams
    k_folds: int = 5
    master_seed: int = 1
    model_specs: ModelSpecs = ModelSpecs()
    n_jobs: int = 1

    def __post_init__(self):
        queries = _require_truth_args("SimConfig", self.scenario, self.queries, self.params)
        object.__setattr__(self, "queries", queries)
        if not queries:
            raise InvalidParameterError("need at least one query")
        _require_int("n", self.n, 50)
        _require_int("k_folds", self.k_folds, 2)
        if self.k_folds > self.n:
            raise InvalidParameterError(
                f"need k_folds <= n, got k_folds={self.k_folds}, n={self.n}")
        _require_int("reps", self.reps, 1)
        _require_int("n_jobs", self.n_jobs, 1)
        _require_int("master_seed", self.master_seed, 0, math.inf)
        _require_type("SimConfig", "model_specs", self.model_specs, ModelSpecs)


@dataclass(frozen=True)
class MetricsRow:
    """One query's Monte Carlo summary."""

    query: str
    truth: float
    mean_estimate: float
    pct_bias: float
    coverage: float
    mean_se: float
    reps: int
    failed: int = 0


def compute_truths(scenario: str, queries, params: SmoothingParams) -> list[dict]:
    """Exact truth per query, in query order: ``{"truth", "num", "den"}``.

    ``num`` and ``den`` are the means of the defining integrands under the
    baseline law, by deterministic quadrature over that law (see
    ``_baseline_grid``); ``truth`` is their ratio for a risk query and
    1 - ratio for a relative-efficacy query (the query's ``functional``).
    """
    queries = _require_truth_args("compute_truths", scenario, queries, params)
    w, b, x = _baseline_grid(scenario)
    out = []
    for q in queries:
        terms = _oracle_integrands(scenario, q, params)
        num = den = 0.0
        for lo in range(0, w.size, _ORACLE_BLOCK):
            blk = slice(lo, lo + _ORACLE_BLOCK)
            # serial: in the simulate process, pool threads' malloc arenas
            # would keep memory past the call
            u, v = map_row_blocks(terms, b[blk], x[blk], threaded=False)
            # not w @ u: OpenBLAS's ddot rounds differently per thread count
            num += float(np.sum(w[blk] * u))
            den += float(np.sum(w[blk] * v))
        out.append({"truth": q.functional(num, den), "num": num, "den": den})
    return out


def _rep_seeds(master_seed: int, r: int):
    ss = np.random.SeedSequence(master_seed, spawn_key=(r,))
    data_ss, fold_ss = ss.spawn(2)
    return data_ss, int(fold_ss.generate_state(1)[0])


def _run_one_rep(config: SimConfig, r: int):
    """Replication ``r``: per query its estimator's ``wald`` tuple
    (estimate, lo, hi, se), or ``("error", message)`` when it raised a StwcrError."""
    data_ss, fold_seed = _rep_seeds(config.master_seed, r)
    data = gen_dataset(ScenarioSpec(config.scenario, config.n, data_ss))
    folds = make_folds(config.n, config.k_folds, fold_seed)
    out = []
    for q in config.queries:
        # estimate_<kind> resolved by name per call, so a wrapper set on this module's name sees it
        estimate = globals()[f"estimate_{q.kind}"]
        try:
            out.append(estimate(data, q, config.params, folds, model_specs=config.model_specs).wald)
        except StwcrError as exc:
            out.append(("error", f"{type(exc).__name__}: {exc}"))
    return out


def _replication_pool(n_jobs: int) -> ProcessPoolExecutor:
    """``n_jobs`` worker processes whose thread pools run on one thread each.

    The processes already share the CPUs; threads on top would oversubscribe
    them on large-n replications.
    """
    return ProcessPoolExecutor(max_workers=n_jobs, initializer=single_threaded)


def run_monte_carlo(config: SimConfig) -> list[MetricsRow]:
    """Repeated-sampling bias and coverage for each configured query.

    Truths come from :func:`compute_truths`. One ``_run_one_rep`` is mapped
    over the replications, by ``map`` on one job and by a pool of
    ``n_jobs`` processes otherwise. Replication r draws its seeds from the
    master seed by counter-based splitting, so results are independent of
    worker count and each replication is reproducible in isolation. Each
    query is summarized from its own replications: :class:`HarnessError`,
    naming that query's first errors, when more than 5% of them failed.
    ``pct_bias`` is NaN when the truth is 0.
    """
    _require_type("run_monte_carlo", "config", config, SimConfig)
    truths = compute_truths(config.scenario, config.queries, config.params)

    one_rep = functools.partial(_run_one_rep, config)
    if config.n_jobs > 1:
        with _replication_pool(config.n_jobs) as pool:
            results = list(pool.map(one_rep, range(config.reps),
                                    chunksize=max(1, config.reps // (8 * config.n_jobs))))
    else:
        results = list(map(one_rep, range(config.reps)))

    rows = []
    for q, truth, outcomes in zip(config.queries, (t["truth"] for t in truths), zip(*results)):
        label = q.label
        errors = [f"rep {r}, {label}: {out[1]}" for r, out in enumerate(outcomes)
                  if out[0] == "error"]
        if len(errors) > 0.05 * config.reps:
            raise HarnessError(f"{len(errors)}/{config.reps} replications failed for {label}; "
                               f"first errors: {errors[:3]}")
        # one row per successful replication: estimate, lo, hi, se
        est, lo, hi, se = np.array([out for out in outcomes if out[0] != "error"], dtype=float).T
        mean_est = float(np.mean(est))
        rows.append(MetricsRow(
            query=label, truth=float(truth), mean_estimate=mean_est,
            pct_bias=float(100.0 * (mean_est - truth) / truth) if truth != 0.0 else float("nan"),
            coverage=float(np.mean((lo <= truth) & (truth <= hi))), mean_se=float(np.mean(se)),
            reps=est.size, failed=len(errors)))
    return rows
