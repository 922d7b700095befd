"""Cross-fitted one-step estimators with plug-in variances and Wald intervals.

The sample is split into K folds; nuisances are fit on each fold's
complement and influence values are evaluated on the held-out fold. Point
estimates are pooled means over all n held-out evaluations (the pooled
mean and the mean of fold means coincide for balanced folds; the pooled
form is used throughout). Influence values are scattered back into
original observation order before averaging, so results do not depend on
fold order and injected (oracle) nuisances give fold-seed-invariant
estimates bit for bit.

No nuisance depends on the query, so repeated ``estimate_stwcr`` and
``estimate_stwcrve`` calls on the same ``Dataset`` with the same folds and
model specs reuse the fold fits of the previous call: a marker sweep costs
one fit per fold. Reuse is checked against a fingerprint of the data's
contents, so editing the arrays in place, or passing other folds or specs,
refits.

Risk queries report tau = num/den with variance
Var((num_i - tau*den_i)/tau_den)/n. Relative-efficacy queries report
delta = 1 - rho with the log-scale interval
rho*exp(+-z*sigma_log/sqrt(n)), sigma_log^2 = Var(num_i/tau_num -
den_i/tau_den); the direct-scale variance is also reported.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .core import SmoothingParams
from .eif import StwcrQuery, StwcrveQuery, eif_stwcr_batch, eif_stwcrve_batch
from .errors import EstimationError, InvalidParameterError, SolverError
from .nuisance import (
    Dataset,
    FeatureSpec,
    NuisanceTriple,
    fit_cond_density,
    fit_outcome,
    fit_propensity,
    intercept,
    raw,
    square,
    support_bounds,
)

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

_SIM_COVARIATES = ("x1", "x2", "x3")


@dataclass(frozen=True)
class FoldAssignment:
    """Balanced random partition; labels take values 1..k_folds."""

    k_folds: int
    labels: np.ndarray

    def __post_init__(self):
        if self.k_folds < 2:
            raise InvalidParameterError("need at least 2 folds")
        # checked as floats: the int cast would truncate 1.7 to fold 1
        raw = np.asarray(self.labels, dtype=float)
        if not np.all(raw == np.trunc(raw)):
            raise InvalidParameterError("fold labels must be integers")
        if raw.size and (raw.min() < 1 or raw.max() > self.k_folds):
            raise InvalidParameterError(f"fold labels must lie in 1..{self.k_folds}")
        labels = raw.astype(int)
        object.__setattr__(self, "labels", labels)
        counts = np.bincount(labels, minlength=self.k_folds + 1)[1:]
        if counts.size != self.k_folds or np.any(counts == 0):
            raise InvalidParameterError("every fold must be nonempty")
        if counts.max() - counts.min() > 1:
            raise InvalidParameterError("fold sizes may differ by at most 1")


def make_folds(n: int, k: int, seed: int) -> FoldAssignment:
    """Uniformly random balanced K-fold partition, deterministic given seed."""
    if k < 2 or k > n:
        raise InvalidParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    labels = np.repeat(np.arange(1, k + 1), sizes)
    rng = np.random.default_rng(seed)
    return FoldAssignment(k_folds=k, labels=rng.permutation(labels))


@dataclass(frozen=True)
class ModelSpecs:
    """Nuisance model configuration for the cross-fitting estimators.

    ``known_propensity`` short-circuits propensity fitting (the default
    0.5 matches 1:1 randomization); set it to None and give
    ``propensity_spec`` to fit a logistic model instead. Exactly one of the
    two must be set. Unset density and outcome specs resolve against the
    dataset's covariate names, with the simulated-trial feature sets used
    when those names are x1..x3.
    """

    known_propensity: float | None = 0.5
    propensity_spec: FeatureSpec | None = None
    cond_density_spec: FeatureSpec | None = None
    outcome_spec: FeatureSpec | None = None

    def __post_init__(self):
        if (self.known_propensity is None) == (self.propensity_spec is None):
            raise InvalidParameterError(
                "set exactly one of known_propensity and propensity_spec "
                "(known_propensity=None to fit propensity_spec)")

    def resolve_cond_spec(self, data: Dataset) -> FeatureSpec:
        if self.cond_density_spec is not None:
            return self.cond_density_spec
        if data.covariate_names == _SIM_COVARIATES:
            return FeatureSpec([intercept(), raw("b"), raw("a"), raw("x1"), square("x2")])
        return FeatureSpec([intercept(), raw("b"), raw("a")] + [raw(c) for c in data.covariate_names])

    def resolve_outcome_spec(self, data: Dataset) -> FeatureSpec:
        if self.outcome_spec is not None:
            return self.outcome_spec
        if data.covariate_names == _SIM_COVARIATES:
            return FeatureSpec([intercept(), raw("x2"), raw("x3"), raw("s"), raw("a"), raw("b")])
        return FeatureSpec([intercept(), raw("s"), raw("a"), raw("b")]
                           + [raw(c) for c in data.covariate_names])


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


def _fit_fold(train: Dataset, specs: ModelSpecs) -> tuple[NuisanceTriple, bool]:
    """Fit the nuisance triple on one training fold.

    A failed logistic fit (separation, degenerate outcome) is retried at
    ridge 1e-2 and the fold flagged as degenerate.
    """
    degenerate = False
    if specs.known_propensity is not None:
        prop = fit_propensity(train, known_prob=specs.known_propensity)
    else:
        try:
            prop = fit_propensity(train, spec=specs.propensity_spec)
        except SolverError:
            prop = fit_propensity(train, spec=specs.propensity_spec, ridge=DEGENERATE_RIDGE)
            degenerate = True
    cond = fit_cond_density(train, specs.resolve_cond_spec(train))
    out_spec = specs.resolve_outcome_spec(train)
    try:
        outc = fit_outcome(train, out_spec)
    except SolverError:
        outc = fit_outcome(train, out_spec, ridge=DEGENERATE_RIDGE)
        degenerate = True
    return NuisanceTriple(propensity=prop, cond_density=cond, outcome=outc,
                          support=support_bounds(train)), degenerate


# Per live dataset: (fit key, fold fits) of its last fitted (folds, specs).
# Values hold fitted models only, never the dataset, so an entry dies with it.
_FOLD_FITS: "weakref.WeakKeyDictionary[Dataset, tuple]" = weakref.WeakKeyDictionary()


def _fit_key(data: Dataset, folds: FoldAssignment, specs: ModelSpecs) -> tuple:
    """Everything the fold fits depend on, with the arrays as one content hash."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (data.y, data.a, data.s, data.b, data.x, folds.labels):
        h.update(np.ascontiguousarray(arr))  # hashes the buffer, no copy
    return h.digest(), data.covariate_names, data.outcome_kind, folds.k_folds, specs


def _fit_folds(data: Dataset, folds: FoldAssignment,
               specs: ModelSpecs) -> tuple[tuple[NuisanceTriple, bool], ...]:
    """Each fold's ``(NuisanceTriple, degenerate)``, fit on its complement.

    Returns the previous call's fits when ``data``'s contents, the folds
    and the specs are unchanged. A failed fit is not stored.
    """
    key = _fit_key(data, folds, specs)
    entry = _FOLD_FITS.get(data)
    if entry is not None and entry[0] == key:
        return entry[1]
    fits = []
    for k in range(1, folds.k_folds + 1):
        try:
            fits.append(_fit_fold(data.subset(folds.labels != k), specs))
        except SolverError as exc:
            raise EstimationError(f"nuisance fit failed in fold {k}: {exc}") from exc
    _FOLD_FITS[data] = (key, tuple(fits))
    return _FOLD_FITS[data][1]


def _crossfit_ifvals(data: Dataset, folds: FoldAssignment, specs: ModelSpecs,
                     nuisances: NuisanceTriple | None, batch_fn, query,
                     params: SmoothingParams, required_arms):
    """Influence values for all observations, in original order."""
    n = len(data)
    if folds.labels.shape[0] != n:
        raise InvalidParameterError("fold assignment does not match dataset size")
    if nuisances is not None:
        num, den, hits = batch_fn(data.y, data.a, data.s, data.b, data.x, query, nuisances, params)
        return num, den, hits, 0
    held_masks = [folds.labels == k for k in range(1, folds.k_folds + 1)]
    # ahead of any fit: a fold without the arm would fail as a singular design
    for held in held_masks:
        for arm in required_arms:
            if not np.any(data.a[~held] == arm):
                raise EstimationError("arm not present in training folds")
    fits = _fit_folds(data, folds, specs)
    # NaN until a fold writes it, so an unfilled slot cannot pass silently
    num = np.full(n, np.nan)
    den = np.full(n, np.nan)
    hits = 0
    degenerate = 0
    for held, (nuis, degen) in zip(held_masks, fits):
        degenerate += int(degen)
        f_num, f_den, f_hits = batch_fn(data.y[held], data.a[held], data.s[held],
                                        data.b[held], data.x[held], query, nuis, params)
        num[held] = f_num
        den[held] = f_den
        hits += f_hits
    if np.isnan(num).any() or np.isnan(den).any():
        raise EstimationError("influence values left unset: a row was in no held-out fold")
    return num, den, hits, degenerate


def _sample_var(values: np.ndarray) -> float:
    return float(np.var(values, ddof=1)) if values.size > 1 else 0.0


def estimate_stwcr(data: Dataset, q: StwcrQuery, params: SmoothingParams,
                   folds: FoldAssignment, model_specs: ModelSpecs | None = None,
                   nuisances: NuisanceTriple | None = None) -> StwcrReport:
    """Cross-fitted one-step estimate of the trimmed-risk ratio at (a, s).

    Pass ``nuisances`` to skip fitting and evaluate a known (oracle)
    nuisance triple on every observation instead.
    """
    specs = model_specs if model_specs is not None else ModelSpecs()
    num, den, hits, degenerate = _crossfit_ifvals(
        data, folds, specs, nuisances, eif_stwcr_batch, q, params, required_arms=(q.a,))
    n = len(data)
    tau_num = float(np.mean(num))
    tau_den = float(np.mean(den))
    if tau_den <= 0:
        raise EstimationError(
            f"denominator nonpositive: tau_den_hat={tau_den:.6g} (tau_num_hat={tau_num:.6g})")
    tau = tau_num / tau_den
    ifvals = (num - tau * den) / tau_den
    sigma1_sq = _sample_var(ifvals)
    se = float(np.sqrt(sigma1_sq / n))
    z = float(ndtri(1.0 - params.alpha / 2.0))
    warnings = ()
    if data.outcome_kind == "binary" and not (0.0 <= tau <= 1.0):
        warnings = (f"point estimate {tau:.6g} outside [0, 1]; reported unclamped",)
    return StwcrReport(
        tau_num_hat=tau_num, tau_den_hat=tau_den, tau_hat=tau,
        sigma1_sq_hat=sigma1_sq, se=se, ci=(tau - z * se, tau + z * se),
        n=n, density_floor_hits=hits, degenerate_folds=degenerate, warnings=warnings)


def estimate_stwcrve(data: Dataset, q: StwcrveQuery, params: SmoothingParams,
                     folds: FoldAssignment, model_specs: ModelSpecs | None = None,
                     nuisances: NuisanceTriple | None = None) -> StwcrveReport:
    """Cross-fitted one-step estimate of relative efficacy 1 - rho.

    Log-scale intervals are primary; when rho_hat <= 0 the log transform
    is unavailable and a direct-scale interval is reported with a warning.
    """
    specs = model_specs if model_specs is not None else ModelSpecs()
    num, den, hits, degenerate = _crossfit_ifvals(
        data, folds, specs, nuisances, eif_stwcrve_batch, q, params,
        required_arms=(q.a1,) if q.a1 == q.a0 else (q.a1, q.a0))
    n = len(data)
    tau_num = float(np.mean(num))
    tau_den = float(np.mean(den))
    if tau_den <= 0:
        raise EstimationError(
            f"denominator nonpositive: tau_den_hat={tau_den:.6g} (tau_num_hat={tau_num:.6g})")
    rho = tau_num / tau_den
    delta = 1.0 - rho
    z = float(ndtri(1.0 - params.alpha / 2.0))
    sigma2_sq = _sample_var((num - rho * den) / tau_den)
    warnings = ()
    if rho > 0:
        sigma2log_sq = _sample_var(num / tau_num - den / tau_den)
        half = z * np.sqrt(sigma2log_sq / n)
        ci_rho = (rho * float(np.exp(-half)), rho * float(np.exp(half)))
        ci_delta = (1.0 - ci_rho[1], 1.0 - ci_rho[0])
        log_scale = True
    else:
        sigma2log_sq = float("nan")
        half = z * float(np.sqrt(sigma2_sq / n))
        ci_delta = (delta - half, delta + half)
        ci_rho = (1.0 - ci_delta[1], 1.0 - ci_delta[0])
        log_scale = False
        warnings = ("rho_hat <= 0: log-scale interval unavailable, direct-scale interval reported",)
    return StwcrveReport(
        tau_num_hat=tau_num, tau_den_hat=tau_den, rho_hat=rho, delta_hat=delta,
        sigma2log_sq_hat=sigma2log_sq, ci_rho=ci_rho, ci_delta=ci_delta,
        sigma2_sq_hat=sigma2_sq, n=n, density_floor_hits=hits,
        degenerate_folds=degenerate, log_scale=log_scale, warnings=warnings)
