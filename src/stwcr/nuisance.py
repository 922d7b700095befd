"""Nuisance models: treatment probability, marker conditional density, outcome regression.

The influence-value computations need three fitted objects per training
fold, bundled with the marker support:

* ``PropensityModel``   -- P(A = a | B, X), either a known randomization
  probability or a logistic fit on features of (b, x);
* ``CondDensityModel``  -- the conditional density of the post-vaccination
  marker S given (A, B, X), modeled as a Gaussian whose mean is linear in
  user-chosen features of (a, b, x) with homoscedastic residual;
* ``OutcomeModel``      -- E[Y | A, S, B, X], logistic for binary outcomes
  and linear for continuous ones.

Feature sets are declared with :class:`FeatureSpec`, a small ordered
language of raw/squared/interaction terms, so that generating models
that are polynomial in the covariates can be specified exactly. A spec
may name its model's ``ROLES`` (b for the propensity; a, b for the
density; a, s, b for the outcome) and the covariates. It is resolved
against those columns once, when its model is fit or built, for both
the design matrix and the predictions; any other name, y included, is
an InvalidParameterError, which the estimators raise before any fold
is fit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import ClassVar, Iterable, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .core import Interval
from .errors import InvalidParameterError, SolverError

__all__ = [
    "Observation",
    "Dataset",
    "FeatureSpec",
    "intercept",
    "raw",
    "square",
    "interaction",
    "PropensityModel",
    "CondDensityModel",
    "OutcomeModel",
    "NuisanceTriple",
    "irls_logistic",
    "fit_propensity",
    "fit_cond_density",
    "fit_outcome",
    "support_bounds",
]

PROB_FLOOR = 1e-12

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Observation:
    """One participant: outcome, arm, post marker, baseline marker, covariates."""

    y: float
    a: int
    s: float
    b: float
    x: tuple[float, ...]

    def __post_init__(self):
        vals = (self.y, self.s, self.b) + tuple(self.x)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParameterError("observation fields must be finite")
        if self.a not in (0, 1):
            raise InvalidParameterError(f"treatment indicator must be 0 or 1, got {self.a}")


class Dataset:
    """Column-oriented i.i.d. sample of observations.

    ``outcome_kind`` is "binary" or "continuous"; binary outcomes must lie
    in {0, 1}.
    """

    def __init__(self, y, a, s, b, x, covariate_names, outcome_kind=None):
        self.y = np.ascontiguousarray(y, dtype=float)
        self.a = np.ascontiguousarray(a, dtype=float)  # cast to int once checked 0/1
        self.s = np.ascontiguousarray(s, dtype=float)
        self.b = np.ascontiguousarray(b, dtype=float)
        self.x = np.ascontiguousarray(x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        self.covariate_names = tuple(covariate_names)
        n = self.y.shape[0]
        if n == 0:
            raise InvalidParameterError("dataset must be nonempty")
        if not (self.a.shape[0] == self.s.shape[0] == self.b.shape[0] == self.x.shape[0] == n):
            raise InvalidParameterError("dataset columns have mismatched lengths")
        if self.x.shape[1] != len(self.covariate_names):
            raise InvalidParameterError(
                f"{self.x.shape[1]} covariate columns but {len(self.covariate_names)} names"
            )
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise InvalidParameterError("covariate names must be unique")
        reserved = {"y", "a", "s", "b"}
        if reserved & set(self.covariate_names):
            raise InvalidParameterError("covariate names y/a/s/b are reserved")
        for arr, name in ((self.y, "y"), (self.s, "s"), (self.b, "b"), (self.x, "x")):
            if not np.all(np.isfinite(arr)):
                raise InvalidParameterError(f"non-finite value in column {name}")
        if not np.all((self.a == 0) | (self.a == 1)):
            raise InvalidParameterError("treatment column must be 0/1")
        self.a = self.a.astype(int)
        if outcome_kind is None:
            outcome_kind = "binary" if np.all((self.y == 0) | (self.y == 1)) else "continuous"
        if outcome_kind not in ("binary", "continuous"):
            raise InvalidParameterError(f"unknown outcome_kind {outcome_kind!r}")
        if outcome_kind == "binary" and not np.all((self.y == 0) | (self.y == 1)):
            raise InvalidParameterError("binary-outcome dataset has y outside {0,1}")
        self.outcome_kind = outcome_kind

    @classmethod
    def from_observations(cls, observations: Iterable[Observation], covariate_names, outcome_kind=None):
        obs = list(observations)
        cols = {name: [getattr(o, name) for o in obs] for name in ("y", "a", "s", "b", "x")}
        return cls(**cols, covariate_names=covariate_names, outcome_kind=outcome_kind)

    def __len__(self):
        return self.y.shape[0]

    @property
    def observations(self) -> list[Observation]:
        return [
            Observation(y=float(self.y[i]), a=int(self.a[i]), s=float(self.s[i]),
                        b=float(self.b[i]), x=tuple(self.x[i]))
            for i in range(len(self))
        ]

    def subset(self, idx) -> "Dataset":
        """The rows ``idx`` selects. They come from this dataset's checked
        columns, so only emptiness is checked again."""
        sub = object.__new__(Dataset)
        sub.y, sub.a, sub.s, sub.b, sub.x = (np.ascontiguousarray(col[idx])
                                             for col in (self.y, self.a, self.s, self.b, self.x))
        if sub.y.shape[0] == 0:
            raise InvalidParameterError("dataset must be nonempty")
        sub.covariate_names = self.covariate_names
        sub.outcome_kind = self.outcome_kind
        return sub


# --- feature language ------------------------------------------------------

def intercept():
    return ("intercept",)


def raw(name: str):
    return ("raw", name)


def square(name: str):
    return ("square", name)


def interaction(name1: str, name2: str):
    return ("interaction", name1, name2)


# each term kind's name pattern, with one {} per column it names
_TERM_NAMES = {"intercept": "(intercept)", "raw": "{}", "square": "{}^2", "interaction": "{}:{}"}


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered covariate transformations defining a design matrix."""

    terms: tuple = ()

    def __init__(self, terms: Sequence):
        try:
            object.__setattr__(self, "terms", tuple(tuple(t) for t in terms))
        except TypeError:
            raise InvalidParameterError("each feature term must be a tuple") from None
        for t in self.terms:
            if not (t and isinstance(t[0], str) and t[0] in _TERM_NAMES
                    and len(t) == 1 + _TERM_NAMES[t[0]].count("{}")
                    and all(isinstance(name, str) for name in t[1:])):
                raise InvalidParameterError(
                    f"malformed feature term {t!r}: want ('intercept',), ('raw', name), "
                    "('square', name) or ('interaction', name1, name2), names as strings")
        if sum(1 for t in self.terms if t[0] == "intercept") > 1:
            raise InvalidParameterError("at most one intercept term allowed")

    def __len__(self):
        return len(self.terms)

    def resolve(self, roles, covariate_names) -> _Terms:
        """The terms against ``(*roles, *covariate_names)``, the only columns
        a model may read: any other name is an InvalidParameterError.

        A resolution is kept and handed back on the next call with the same
        arguments; a failed one is not kept, so it raises every time."""
        return _resolve(self, tuple(roles), tuple(covariate_names))

    def names(self) -> list[str]:
        return [_TERM_NAMES[t[0]].format(*t[1:]) for t in self.terms]


# Each fit and each model built resolves its spec, so a 5-fold plan asks for
# the same few resolutions about 20 times.
@functools.lru_cache(maxsize=256)
def _resolve(spec: FeatureSpec, roles: tuple, covariate_names: tuple) -> _Terms:
    position = {name: i for i, name in enumerate((*roles, *covariate_names))}
    if len(position) < len(roles) + len(covariate_names):
        raise InvalidParameterError(f"covariate names {covariate_names} repeat or "
                                    f"reuse a role of {roles}")
    try:
        return _Terms(roles, tuple((t[0], *[position[name] for name in t[1:]])
                                   for t in spec.terms))
    except KeyError as exc:
        raise InvalidParameterError(f"feature references unknown column {exc.args[0]!r}; "
                                    f"this model reads {', '.join(position)}") from None


class _Terms(NamedTuple):
    """A FeatureSpec resolved for one model."""

    roles: tuple  # the model's role columns, ahead of its covariates
    terms: tuple  # per term its kind, then its columns' positions in (*roles, *covariates)

    def _values(self, role_values, x):
        """Each term's value, left to right, from the role values and x's last axis."""
        x = np.asarray(x, dtype=float)
        cols = (*role_values, *(x[..., j] for j in range(x.shape[-1])))
        for kind, *pos in self.terms:
            if kind == "intercept":
                yield 1.0
            elif kind == "raw":
                yield cols[pos[0]]
            elif kind == "square":
                yield cols[pos[0]] ** 2
            else:
                yield cols[pos[0]] * cols[pos[1]]

    def design(self, data: Dataset) -> np.ndarray:
        X = np.empty((len(data), len(self.terms)))
        for j, value in enumerate(self._values([getattr(data, r) for r in self.roles], data.x)):
            X[:, j] = value
        return X

    def predictor(self, coef, role_values, x) -> np.ndarray:
        """Sum of coef * term, left to right, in a new float array that the caller
        may overwrite, never a column: it grows to the terms' broadcast shape and
        is updated in place, then takes the role values' shape if that is larger."""
        role_values = [np.asarray(v, dtype=float) for v in role_values]
        eta = 0.0
        for c, value in zip(coef, self._values(role_values, x)):
            term = c * value
            try:
                eta += term
            except ValueError:  # an array that must grow to the broadcast shape
                eta = eta + term
        eta = np.asarray(eta, dtype=float)
        shape = np.broadcast(eta, *role_values).shape
        return eta if eta.shape == shape else np.broadcast_to(eta, shape).copy()


def _normal_density(s, mu, sd):
    """N(mu, sd^2) density at s, broadcast, in new arrays updated in place."""
    z = np.subtract(s, mu, out=np.empty(np.broadcast_shapes(np.shape(s), np.shape(mu))))
    z /= sd
    dens = np.multiply(z, -0.5, out=np.empty(z.shape))
    dens *= z
    np.exp(dens, out=dens)
    dens /= sd * _SQRT_2PI
    return dens


# --- models ----------------------------------------------------------------

@dataclass(frozen=True)
class PropensityModel:
    """P(A = a | B, X): a known constant or a logistic fit on (b, x) features."""

    ROLES: ClassVar[tuple[str, ...]] = ("b",)

    kind: str  # "known" or "logistic"
    prob_treated: float | None = None
    spec: FeatureSpec | None = None
    coef: np.ndarray | None = None
    covariate_names: tuple = ()
    _terms: _Terms | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "known":
            if not (self.prob_treated is not None and 0.0 < self.prob_treated < 1.0):
                raise InvalidParameterError("known propensity must lie in (0,1)")
        elif self.kind == "logistic":
            if self.spec is None or self.coef is None or not np.all(np.isfinite(self.coef)):
                raise InvalidParameterError("logistic propensity needs a spec and finite coefficients")
        else:
            raise InvalidParameterError(f"unknown propensity kind {self.kind!r}")
        object.__setattr__(self, "_terms", self.spec.resolve(self.ROLES, self.covariate_names)
                           if self.kind == "logistic" else None)

    def prob(self, a: int, b, x):
        """P(A = a | b, x), floored into [1e-12, 1 - 1e-12]. Returns an array matching b."""
        b = np.asarray(b, dtype=float)
        if self.kind == "known":
            p1 = np.full_like(b, self.prob_treated)
        else:
            p1 = expit(self._terms.predictor(self.coef, (b,), x))
        p = p1 if a == 1 else 1.0 - p1
        return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


@dataclass(frozen=True)
class CondDensityModel:
    """Gaussian conditional density of S: mean linear in features of (a, b, x)."""

    ROLES: ClassVar[tuple[str, ...]] = ("a", "b")

    spec: FeatureSpec
    coef: np.ndarray
    residual_sd: float
    covariate_names: tuple = ()
    _terms: _Terms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.residual_sd > 0 and math.isfinite(self.residual_sd)):
            raise InvalidParameterError("residual_sd must be positive and finite")
        if not np.all(np.isfinite(self.coef)):
            raise InvalidParameterError("conditional-density coefficients must be finite")
        object.__setattr__(self, "_terms", self.spec.resolve(self.ROLES, self.covariate_names))

    def mean(self, a, b, x):
        """The marker mean at broadcastable arm a and baseline b, with x's
        covariates on its last axis: a may be one arm or one per row."""
        return self._terms.predictor(self.coef, (a, b), x)

    def density_at(self, a, s, b, x):
        """Density at broadcastable a, s and b, with x's covariates on its last axis."""
        return _normal_density(np.asarray(s, dtype=float), self.mean(a, b, x), self.residual_sd)


@dataclass(frozen=True)
class OutcomeModel:
    """E[Y | A, S, B, X]: logistic (binary Y) or linear (continuous Y) in features."""

    ROLES: ClassVar[tuple[str, ...]] = ("a", "s", "b")

    kind: str  # "logistic" or "linear"
    spec: FeatureSpec
    coef: np.ndarray
    covariate_names: tuple = ()
    _terms: _Terms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("logistic", "linear"):
            raise InvalidParameterError(f"unknown outcome kind {self.kind!r}")
        if not np.all(np.isfinite(self.coef)):
            raise InvalidParameterError("outcome coefficients must be finite")
        object.__setattr__(self, "_terms", self.spec.resolve(self.ROLES, self.covariate_names))

    def predict_at(self, a, s, b, x):
        """The mean at broadcastable a, s and b, with x's covariates on its last
        axis: a may be one arm or one per row."""
        eta = self._terms.predictor(self.coef, (a, s, b), x)
        if self.kind == "logistic":
            expit(eta, out=eta)
            np.clip(eta, PROB_FLOOR, 1.0 - PROB_FLOOR, out=eta)
        return eta


@dataclass(frozen=True)
class NuisanceTriple:
    """Fitted nuisances plus the marker support they were trained against."""

    propensity: PropensityModel
    cond_density: CondDensityModel
    outcome: OutcomeModel
    support: Interval


# --- fitting ---------------------------------------------------------------

def irls_logistic(design, labels, ridge=1e-8, tol=1e-9, max_iter=100, start=None):
    """Ridge-penalized logistic MLE via iteratively reweighted least squares.

    Starts from the coefficients ``start``, zero by default. Converges
    when the penalized score has max-norm below ``tol``; a ``start`` that
    already meets it is returned unchanged. Raises :class:`SolverError` on
    non-convergence (carrying the last gradient norm) or on a
    rank-deficient weighted system; callers may retry with a larger ridge.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, q = X.shape
    if n < q:
        raise SolverError(f"need at least as many rows ({n}) as features ({q})")
    if not np.all((y == 0) | (y == 1)):
        raise SolverError("labels must be 0/1")
    if start is None:
        beta = np.zeros(q)
    else:
        beta = np.array(start, dtype=float)
        if beta.shape != (q,) or not np.all(np.isfinite(beta)):
            raise InvalidParameterError(f"start must hold {q} finite coefficients")
    diag = np.diag_indices(q)
    Xw = np.empty_like(X)  # X with each row scaled by its weight, remade every step

    def penalized_ll(bta, eta):
        # softplus(eta) = log(1 + exp(eta)), written to stay finite at any eta
        softplus = np.log1p(np.exp(-np.abs(eta)))
        softplus += np.maximum(eta, 0.0)
        return float(y @ eta - np.sum(softplus) - 0.5 * ridge * bta @ bta)

    eta = X @ beta
    ll = penalized_ll(beta, eta)
    gnorm = np.inf
    for _ in range(max_iter):
        p = expit(eta)
        grad = X.T @ (y - p) - ridge * beta
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < tol:
            return beta
        w = np.maximum(p * (1.0 - p), 1e-10)
        np.multiply(X, w[:, None], out=Xw)
        hess = X.T @ Xw
        hess[diag] += ridge
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SolverError("rank-deficient weighted system in IRLS", gradient_norm=gnorm) from None
        # damped Newton: halve until the penalized likelihood does not decrease
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            cand_eta = X @ cand
            cand_ll = penalized_ll(cand, cand_eta)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        else:
            raise SolverError("IRLS line search failed", gradient_norm=gnorm)
        beta, eta, ll = cand, cand_eta, cand_ll
    raise SolverError(f"IRLS did not converge in {max_iter} iterations", gradient_norm=gnorm)


def fit_propensity(data: Dataset, spec: FeatureSpec | None = None, known_prob: float | None = None,
                   ridge=1e-8, tol=1e-9, max_iter=100, start=None) -> PropensityModel:
    """Fit P(A = 1 | b, x), from coefficients ``start`` if given, or declare
    it known (randomized designs)."""
    if (spec is None) == (known_prob is None):
        raise InvalidParameterError("provide exactly one of spec or known_prob")
    if known_prob is not None:
        return PropensityModel(kind="known", prob_treated=float(known_prob))
    X = spec.resolve(PropensityModel.ROLES, data.covariate_names).design(data)
    coef = irls_logistic(X, data.a, ridge=ridge, tol=tol, max_iter=max_iter, start=start)
    return PropensityModel(kind="logistic", spec=spec, coef=coef,
                           covariate_names=data.covariate_names)


def _least_squares(X, z):
    coef, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
    if rank < X.shape[1]:
        raise SolverError(f"singular design: rank {rank} < {X.shape[1]} columns")
    return coef


def fit_cond_density(data: Dataset, spec: FeatureSpec) -> CondDensityModel:
    """Gaussian fit of S on features of (a, b, x); residual sd uses the n - q divisor."""
    n, q = len(data), len(spec)
    if n <= q + 2:
        raise InvalidParameterError(f"need n > q + 2 rows (n={n}, q={q})")
    X = spec.resolve(CondDensityModel.ROLES, data.covariate_names).design(data)
    coef = _least_squares(X, data.s)
    resid = data.s - X @ coef
    sd = float(np.sqrt(np.sum(resid * resid) / (n - q)))  # ddot rounds per BLAS thread count
    if not sd > 0:
        raise SolverError("zero residual variance in conditional-density fit")
    return CondDensityModel(spec=spec, coef=coef, residual_sd=sd,
                            covariate_names=data.covariate_names)


def fit_outcome(data: Dataset, spec: FeatureSpec, ridge=1e-8, tol=1e-9, max_iter=100,
                start=None) -> OutcomeModel:
    """Fit E[Y | a, s, b, x]: logistic for binary outcomes, from coefficients
    ``start`` if given, and least squares, which takes no start, otherwise."""
    X = spec.resolve(OutcomeModel.ROLES, data.covariate_names).design(data)
    if data.outcome_kind == "binary":
        coef = irls_logistic(X, data.y, ridge=ridge, tol=tol, max_iter=max_iter, start=start)
        kind = "logistic"
    else:
        coef = _least_squares(X, data.y)
        kind = "linear"
    return OutcomeModel(kind=kind, spec=spec, coef=coef, covariate_names=data.covariate_names)


def support_bounds(data: Dataset) -> Interval:
    """Observed marker range [min S, max S]."""
    return Interval(float(np.min(data.s)), float(np.max(data.s)))
