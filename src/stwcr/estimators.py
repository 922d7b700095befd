"""Cross-fitted one-step estimators with plug-in variances and Wald intervals.

The sample is split into K folds; nuisances are fit on each fold's
complement and influence values are evaluated on the held-out fold. Point
estimates are pooled means over all n held-out evaluations (the pooled
mean and the mean of fold means coincide for balanced folds; the pooled
form is used throughout). Injected (oracle) nuisances take the same path
on the dataset's own columns, one part of every row, which is never
cached. Influence values are scattered back into original observation
order before averaging, so results do not depend on fold order and
injected nuisances give fold-seed-invariant estimates bit for bit.

The rows are sorted by fold once per plan, into one Dataset copy, so fold
k's training rows are the two contiguous ranges on either side of part k
and every fold is fit from them in place (``nuisance.TrainingRows``).
Least squares stacks the other parts' R factors, made once per part from
the QR decompositions of its row blocks, and solves them with ``lstsq``;
IRLS sums over row blocks of each range of a logistic model's design,
built once. The factors and designs are freed once the fits are made.

Fold 1 is fit first, from zero. Folds 2..K start their logistic fits (the
binary outcome, and the propensity when it is fit) from fold 1's
coefficients, unless fold 1 was degenerate. Each fit still runs until its
own convergence test passes, so fitted estimates agree with all folds
started from zero to about 1e-12 relative, though not bit for bit.
Injected nuisances fit nothing and are unaffected.

No nuisance depends on the query, so repeated ``estimate_stwcr`` and
``estimate_stwcrve`` calls on the same ``Dataset`` with the same folds and
model specs reuse a fold plan built by the first: the fold fits, the
held-out rows sorted by fold, and one dict of whole-row influence terms
for the last (t, epsilon, quad_nodes, window_halfwidth_in_h) asked, which
each query's one batch call reads and fills, each fold's part with its own
nuisances. One rule picks what the dict keeps: every arm's
observation-local terms, and a kernel window's grid integrals once the
window has been asked twice in a row on its arm, until that arm is asked
another window. A marker sweep costs one fit per fold, and each
query its kernel weights, the grid integrals of its kernel windows on
each fold, and one scatter of its influence values into row order;
queries that hold the comparator's marker fixed compute its grid twice
and then read it, and a single query keeps no window. A ``Dataset`` and a
``FoldAssignment``'s labels are read-only, so the plan is kept per Dataset
object and its contents are never checked: it is reused when the specs
are equal and the folds are the same object or hold equal labels, and
other folds or specs rebuild it.

Each estimator makes one ``_influence`` call, which checks the query and
arguments, makes the one batch call and returns an ``_Influence`` record: the
influence values num_i and den_i in original row order, their pooled
means tau_num and tau_den (an EstimationError unless tau_den > 0), the
density-floor hits and the degenerate folds. The report is built from
that record alone. ``ratio_var`` gives the ratio tau_num/tau_den and its
direct-scale variance Var((num_i - ratio*den_i)/tau_den). Risk queries
report tau = the ratio, with variance that over n. Relative-efficacy
queries report delta = 1 - rho with the log-scale interval
rho*exp(+-z*sigma_log/sqrt(n)), sigma_log^2 = Var(num_i/tau_num -
den_i/tau_den); the direct-scale variance is also reported, and gives the
interval when rho_hat <= 0. Each report's ``wald`` property is its
(estimate, lo, hi, se), which the Monte Carlo harness reads.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from .core import SmoothingParams, _is_number, _require_array, _require_int, _require_type
from .eif import NuisanceParts, StwcrQuery, StwcrveQuery, eif_stwcr_batch, eif_stwcrve_batch
from .errors import EstimationError, InvalidParameterError, SolverError
from .nuisance import (
    CondDensityModel,
    Dataset,
    FeatureSpec,
    KnownPropensity,
    NuisanceTriple,
    OutcomeModel,
    PropensityModel,
    RowParts,
    TrainingRows,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    intercept,
    raw,
    square,
    support_bounds,
)
from .parallel import map_threaded

__all__ = [
    "FoldAssignment",
    "ModelSpecs",
    "StwcrReport",
    "StwcrveReport",
    "make_folds",
    "estimate_stwcr",
    "estimate_stwcrve",
]

DEGENERATE_RIDGE = 1e-2

# Datasets of at least this many rows fit their folds on threads. Below it
# the pool's start-up and the interpreter lock held between small numpy
# calls cost more than the second core saves.
_THREADED_FIT_ROWS = 20_000

_SIM_COVARIATES = ("x1", "x2", "x3")


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Balanced random partition; labels take values 1..k_folds.

    ``labels`` is a read-only int copy of the labels given, which
    ``core._require_array`` checks to be integers before the cast.
    Two assignments compare and hash by identity; compare their ``labels``
    for equal folds.
    """

    k_folds: int
    labels: np.ndarray

    def __post_init__(self):
        _require_int("k_folds", self.k_folds, 2)
        # checked as floats: the int cast would truncate 1.7 to fold 1
        raw = _require_array("fold labels", self.labels, integers=True)
        if raw.size and (raw.min() < 1 or raw.max() > self.k_folds):
            raise InvalidParameterError(f"fold labels must lie in 1..{self.k_folds}")
        labels = raw.astype(int)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        # tested ahead of the bincount, whose k_folds + 1 counts might not fit in memory
        if self.k_folds > labels.size:
            raise InvalidParameterError("every fold must be nonempty")
        counts = np.bincount(labels, minlength=self.k_folds + 1)[1:]
        if np.any(counts == 0):
            raise InvalidParameterError("every fold must be nonempty")
        if counts.max() - counts.min() > 1:
            raise InvalidParameterError("fold sizes may differ by at most 1")


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Uniformly random balanced K-fold partition, deterministic given seed."""
    _require_int("n", n, 2)
    _require_int("k", k, 2, n)
    _require_int("fold seed", seed, 0, math.inf)
    rng = np.random.default_rng(seed)
    try:  # a count numpy can size may still be more than memory holds
        sizes = np.full(k, n // k)
        sizes[: n % k] += 1
        labels = np.repeat(np.arange(1, k + 1), sizes)
        return FoldAssignment(k_folds=k, labels=rng.permutation(labels))
    except MemoryError:
        raise InvalidParameterError(
            f"make_folds cannot hold n = {n} fold labels in memory") from None


@dataclass(frozen=True)
class ModelSpecs:
    """Nuisance model configuration for the cross-fitting estimators, one
    field per nuisance model.

    ``propensity`` is either a known treatment probability in (0, 1), used
    as is (the default 0.5 matches 1:1 randomization), or a FeatureSpec of
    a logistic model fitted on each fold. Unset density and outcome specs
    are filled in per dataset by ``for_dataset``.
    """

    propensity: float | FeatureSpec = 0.5
    cond_density_spec: FeatureSpec | None = None
    outcome_spec: FeatureSpec | None = None

    def __post_init__(self):
        p = self.propensity
        if not (isinstance(p, FeatureSpec) or _is_number(p) and 0.0 < p < 1.0):
            raise InvalidParameterError(f"known propensity must lie in (0,1), got {p!r}; "
                                        "a FeatureSpec fits a logistic propensity")
        for name in ("cond_density_spec", "outcome_spec"):
            _require_type("ModelSpecs", name, getattr(self, name), FeatureSpec, optional=True)

    def for_dataset(self, data: Dataset) -> ModelSpecs:
        """These specs with unset density and outcome specs filled in for
        ``data`` (its covariates, or the simulated trial's feature sets when
        they are x1..x3), each checked against the columns its model reads."""
        covs = [raw(c) for c in data.covariate_names]
        defaults = {"cond_density_spec": [intercept(), raw("b"), raw("a"), *covs],
                    "outcome_spec": [intercept(), raw("s"), raw("a"), raw("b"), *covs]}
        if data.covariate_names == _SIM_COVARIATES:
            defaults = {"cond_density_spec": [intercept(), raw("b"), raw("a"), raw("x1"), square("x2")],
                        "outcome_spec": [intercept(), raw("x2"), raw("x3"), raw("s"), raw("a"), raw("b")]}
        specs = replace(self, **{name: FeatureSpec(terms) for name, terms in defaults.items()
                                 if getattr(self, name) is None})
        for model, spec in ((PropensityModel, specs.propensity),
                            (CondDensityModel, specs.cond_density_spec),
                            (OutcomeModel, specs.outcome_spec)):
            if isinstance(spec, FeatureSpec):
                spec.resolve(model.ROLES, data.covariate_names)
        return specs


@dataclass(frozen=True)
class StwcrReport:
    tau_num_hat: float
    tau_den_hat: float
    tau_hat: float
    sigma1_sq_hat: float
    se: float
    ci: tuple[float, float]
    n: int
    density_floor_hits: int
    degenerate_folds: int
    warnings: tuple[str, ...] = ()

    @property
    def wald(self) -> tuple[float, float, float, float]:
        """(tau_hat, lo, hi, se) of the Wald interval."""
        return self.tau_hat, self.ci[0], self.ci[1], self.se


@dataclass(frozen=True)
class StwcrveReport:
    tau_num_hat: float
    tau_den_hat: float
    rho_hat: float
    delta_hat: float
    sigma2log_sq_hat: float
    ci_rho: tuple[float, float]
    ci_delta: tuple[float, float]
    sigma2_sq_hat: float
    n: int
    density_floor_hits: int
    degenerate_folds: int
    log_scale: bool = True
    warnings: tuple[str, ...] = ()

    @property
    def wald(self) -> tuple[float, float, float, float]:
        """(delta_hat, lo, hi, se) of the delta interval. The se is
        rho_hat*sigma_log/sqrt(n) on the log scale (the delta method's se of
        delta), and sigma_2/sqrt(n) on the direct scale."""
        se = (self.rho_hat * math.sqrt(self.sigma2log_sq_hat / self.n) if self.log_scale
              else math.sqrt(self.sigma2_sq_hat / self.n))
        return self.delta_hat, self.ci_delta[0], self.ci_delta[1], se


def _fit_fold(train: TrainingRows, specs: ModelSpecs,
              warm: NuisanceTriple | None = None) -> tuple[NuisanceTriple, bool]:
    """Fit the nuisance triple on one fold's training rows, with ``specs`` filled in.

    A ``specs.propensity`` FeatureSpec is fitted as a logistic model; a
    number is a known propensity, built, not fit. The fitted propensity and
    the outcome start from ``warm``'s coefficients when given, which a
    least-squares outcome ignores. A fit that fails (separation, degenerate
    outcome) is retried from zero at ridge ``DEGENERATE_RIDGE`` and the
    fold flagged as degenerate.
    """
    degenerate = False

    def retried(fit, spec, start):
        nonlocal degenerate
        try:
            return fit(train, spec, start=start)
        except SolverError:
            degenerate = True
            return fit(train, spec, ridge=DEGENERATE_RIDGE)

    if isinstance(specs.propensity, FeatureSpec):
        prop = retried(fit_propensity, specs.propensity, warm and warm.propensity.coef)
    else:
        prop = KnownPropensity(float(specs.propensity))
    cond = fit_cond_density(train, specs.cond_density_spec)
    outc = retried(fit_outcome, specs.outcome_spec, warm and warm.outcome.coef)
    return NuisanceTriple(propensity=prop, cond_density=cond, outcome=outc,
                          support=support_bounds(train)), degenerate


class _FoldPlan:
    """What every query on one (dataset, folds, specs) shares.

    ``rows`` are the columns (y, a, s, b, x) of the Dataset the plan is
    made with, which each query's one batch call reads, ``index`` where
    they sit in the caller's dataset, and ``nuis`` their nuisances, a
    ``NuisanceTriple`` or ``NuisanceParts``. ``fits`` are the fold fits'
    ``(NuisanceTriple, degenerate)`` pairs. A fold plan is made with its
    dataset's copy sorted by fold, ``index`` the sort order and part j,
    fold j + 1, evaluated with ``fits[j]``'s triple; injected nuisances
    with the caller's dataset at ``slice(None)``, their one triple and no
    fits. Each query's batch call reads and fills ``terms``
    (``eif_stwcr_batch``'s ``_terms``): one dict of whole-row arrays, valid
    for one (t, epsilon, quad_nodes, window_halfwidth_in_h), which ``ask``
    empties in place for a query with another, so ``terms`` stays the same
    dict. ``ask`` names the keys it keeps, which the batch is given as
    ``_keep`` and keeps alone: every arm's ``LocalTerms``, and each window
    ``(arm, center, h)`` asked twice in a row on its arm, until that arm is
    asked another window (32 bytes a row); a run of one query keeps no
    window. Every entry is keyed by all it depends on and added only once
    every part is made, so a query that fails part way leaves nothing
    stale. The plan holds neither the caller's dataset nor the fits'
    ``RowParts``, whose designs go with them. ``folds`` and ``specs`` are
    what the fits were made from, None for injected nuisances.
    """

    def __init__(self, folds, specs, data: Dataset, index, nuis, fits):
        self.folds, self.specs = folds, specs
        self.rows = (data.y, data.a, data.s, data.b, data.x)
        self.index, self.nuis, self.fits = index, nuis, fits
        self.degenerate_folds = sum(int(degen) for _, degen in fits)
        self._params = None  # (t, epsilon, quad_nodes, window_halfwidth_in_h) of ``terms``
        self.terms = {}
        self._asked = {}  # arm -> (its last window, whether asked twice in a row)

    def ask(self, windows, params: SmoothingParams) -> set:
        """Record a query's ``windows`` under ``params``, emptying ``terms``
        when they are new params; returns the keys ``terms`` keeps: both arms
        and each window asked twice in a row."""
        key = (params.t, params.epsilon, params.quad_nodes, params.window_halfwidth_in_h)
        if key != self._params:
            self._params, self._asked = key, {}
            self.terms.clear()
        for window in dict.fromkeys(windows):
            last = self._asked.get(window[0])
            self._asked[window[0]] = (window, last is not None and last[0] == window)
        return {0, 1, *(window for window, again in self._asked.values() if again)}


# Per live dataset: the _FoldPlan of its last fitted (folds, specs). A plan
# holds no reference to its dataset, so an entry dies with it.
_FOLD_FITS: "weakref.WeakKeyDictionary[Dataset, _FoldPlan]" = weakref.WeakKeyDictionary()


def _fold_plan(data: Dataset, folds: FoldAssignment, specs: ModelSpecs) -> _FoldPlan:
    """The plan of ``data``'s folds, with each fold fit on its complement.

    Returns the previous call's plan on ``data`` when the specs are equal
    and the folds are the same or hold equal labels; ``data`` is immutable,
    so its contents need no check. Otherwise the specs are filled in once
    for all folds, so a bad spec fails before any fold is fit. The rows
    are sorted by fold once, into one copy, whose fold edges must run
    from 0 to every row, or an EstimationError is raised before any fit:
    labels changed after ``FoldAssignment`` checked them can leave a row
    in no fold. Each fold is fit from the ranges on either side of its
    own: what a second fold reads is made once, by fold 1, and freed with
    the fits' ``RowParts``. Fold 1 is fit first, in the calling thread;
    unless it was degenerate, folds 2..K start their logistic fits from
    its coefficients. From
    ``_THREADED_FIT_ROWS`` rows folds 2..K are fit on threads; either way a
    failure names the lowest failing fold, and nothing is stored.
    """
    plan = _FOLD_FITS.get(data)
    if plan is not None and plan.specs == specs and (
            plan.folds is folds or np.array_equal(plan.folds.labels, folds.labels)):
        return plan
    filled = specs.for_dataset(data)
    # a stable sort keeps each fold's rows in their original order; on the
    # smallest integer type that holds k_folds it is a radix sort, the same
    # permutation in 0.6 ms instead of 6.6 ms at 200k rows and 5 folds
    order = np.argsort(folds.labels.astype(np.min_scalar_type(folds.k_folds)), kind="stable")
    edges = np.searchsorted(folds.labels[order], np.arange(1, folds.k_folds + 2))
    # labels changed after FoldAssignment checked them can leave rows out of every fold
    if edges[0] != 0 or edges[-1] != len(data):
        raise EstimationError("influence values left unset: a row was in no held-out fold")
    parts = RowParts(data.subset(order), edges)

    def fit(k, warm=None):
        try:
            return _fit_fold(TrainingRows(parts, k - 1), filled, warm)
        except SolverError as exc:
            raise EstimationError(f"nuisance fit failed in fold {k}: {exc}") from exc

    first, degenerate = fit(1)
    warm = None if degenerate else first
    threaded = len(data) >= _THREADED_FIT_ROWS
    rest = map_threaded(lambda k: fit(k, warm), range(2, folds.k_folds + 1),
                        tasks=folds.k_folds - 1 if threaded else 1)
    fits = ((first, degenerate), *rest)
    nuis = NuisanceParts(tuple(parts.edges), tuple(triple for triple, _ in fits))
    _FOLD_FITS[data] = _FoldPlan(folds, specs, parts.data, order, nuis, fits)
    return _FOLD_FITS[data]


class _Influence(NamedTuple):
    """One query's cross-fitted influence values in original row order, their
    pooled means (tau_den > 0), the density-floor hits and the degenerate folds."""

    num: np.ndarray
    den: np.ndarray
    tau_num: float
    tau_den: float
    floor_hits: int
    degenerate_folds: int

    def ratio_var(self) -> tuple[float, float]:
        """tau_num/tau_den and its direct-scale variance Var((num_i - ratio*den_i)/tau_den)."""
        ratio = self.tau_num / self.tau_den
        return ratio, _sample_var((self.num - ratio * self.den) / self.tau_den)


def _influence(query_type, batch_fn, data: Dataset, query, params: SmoothingParams,
               folds: FoldAssignment, specs: ModelSpecs, nuisances) -> _Influence:
    """The arguments of ``query_type``'s ``estimate_<kind>`` checked, then
    ``batch_fn``'s influence values for all rows, from one call on the fold
    plan's rows, each fold's part with its own nuisances, or with injected
    ``nuisances`` on one uncached part of all rows. EstimationError unless
    tau_den > 0."""
    caller = f"estimate_{query_type.kind}"
    for name, value, cls in (("q", query, query_type), ("data", data, Dataset),
                             ("params", params, SmoothingParams), ("folds", folds, FoldAssignment),
                             ("model_specs", specs, ModelSpecs)):
        _require_type(caller, name, value, cls)
    _require_type(caller, "nuisances", nuisances, NuisanceTriple, optional=True)
    windows = query.windows(params)
    n = len(data)
    if folds.labels.shape[0] != n:
        raise InvalidParameterError("fold assignment does not match dataset size")
    if nuisances is not None:
        plan = _FoldPlan(None, None, data, slice(None), nuisances, ())
    else:
        # ahead of any fit: a fold without the arm would fail as a singular design.
        # A fold's training rows lack an arm exactly when it holds every row on the arm.
        for arm in {arm for arm, _, _ in windows}:
            on_arm = data.a == arm
            if np.bincount(folds.labels[on_arm], minlength=1).max() == on_arm.sum():
                raise EstimationError("arm not present in training folds")
        plan = _fold_plan(data, folds, specs)
    kept = plan.ask(windows, params)
    num, den, hits = batch_fn(*plan.rows, query, plan.nuis, params, _terms=plan.terms, _keep=kept)

    def scattered(values):
        # the plan's index covers every row, which _fold_plan checks
        out = np.empty(n)
        out[plan.index] = values
        return out

    # one at a time, so that each held-out order array is dropped once scattered
    num = scattered(num)
    den = scattered(den)
    tau_num = float(np.mean(num))
    tau_den = float(np.mean(den))
    if tau_den <= 0:
        raise EstimationError(
            f"denominator nonpositive: tau_den_hat={tau_den:.6g} (tau_num_hat={tau_num:.6g})")
    return _Influence(num, den, tau_num, tau_den, hits, plan.degenerate_folds)


def _sample_var(values: np.ndarray) -> float:
    return float(np.var(values, ddof=1)) if values.size > 1 else 0.0


def estimate_stwcr(data: Dataset, q: StwcrQuery, params: SmoothingParams,
                   folds: FoldAssignment, model_specs: ModelSpecs = ModelSpecs(),
                   nuisances: NuisanceTriple | None = None) -> StwcrReport:
    """Cross-fitted one-step estimate of the trimmed-risk ratio at (a, s).

    Pass ``nuisances`` to skip fitting and evaluate a known (oracle)
    nuisance triple on every observation instead.
    """
    inf = _influence(StwcrQuery, eif_stwcr_batch, data, q, params, folds, model_specs, nuisances)
    n, z = len(data), float(ndtri(1.0 - params.alpha / 2.0))
    tau, sigma1_sq = inf.ratio_var()
    se = float(np.sqrt(sigma1_sq / n))
    warnings = ()
    if data.outcome_kind == "binary" and not (0.0 <= tau <= 1.0):
        warnings = (f"point estimate {tau:.6g} outside [0, 1]; reported unclamped",)
    return StwcrReport(
        tau_num_hat=inf.tau_num, tau_den_hat=inf.tau_den, tau_hat=tau,
        sigma1_sq_hat=sigma1_sq, se=se, ci=(tau - z * se, tau + z * se), n=n,
        density_floor_hits=inf.floor_hits, degenerate_folds=inf.degenerate_folds,
        warnings=warnings)


def estimate_stwcrve(data: Dataset, q: StwcrveQuery, params: SmoothingParams,
                     folds: FoldAssignment, model_specs: ModelSpecs = ModelSpecs(),
                     nuisances: NuisanceTriple | None = None) -> StwcrveReport:
    """Cross-fitted one-step estimate of relative efficacy 1 - rho.

    Log-scale intervals are primary; when rho_hat <= 0 the log transform
    is unavailable and a direct-scale interval is reported with a warning.
    """
    inf = _influence(StwcrveQuery, eif_stwcrve_batch, data, q, params, folds, model_specs, nuisances)
    n, z = len(data), float(ndtri(1.0 - params.alpha / 2.0))
    rho, sigma2_sq = inf.ratio_var()
    delta = 1.0 - rho
    log_scale = rho > 0
    warnings = ()
    if log_scale:
        sigma2log_sq = _sample_var(inf.num / inf.tau_num - inf.den / inf.tau_den)
        half = z * np.sqrt(sigma2log_sq / n)
        ci_rho = (rho * float(np.exp(-half)), rho * float(np.exp(half)))
        ci_delta = (1.0 - ci_rho[1], 1.0 - ci_rho[0])
    else:
        sigma2log_sq = float("nan")
        half = z * float(np.sqrt(sigma2_sq / n))
        ci_delta = (delta - half, delta + half)
        ci_rho = (1.0 - ci_delta[1], 1.0 - ci_delta[0])
        warnings = ("rho_hat <= 0: log-scale interval unavailable, direct-scale interval reported",)
    return StwcrveReport(
        tau_num_hat=inf.tau_num, tau_den_hat=inf.tau_den, rho_hat=rho, delta_hat=delta,
        sigma2log_sq_hat=sigma2log_sq, ci_rho=ci_rho, ci_delta=ci_delta,
        sigma2_sq_hat=sigma2_sq, n=n, density_floor_hits=inf.floor_hits,
        degenerate_folds=inf.degenerate_folds, log_scale=log_scale, warnings=warnings)
