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
that are polynomial in the covariates can be specified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        return cls(
            y=[o.y for o in obs],
            a=[o.a for o in obs],
            s=[o.s for o in obs],
            b=[o.b for o in obs],
            x=[o.x for o in obs],
            covariate_names=covariate_names,
            outcome_kind=outcome_kind,
        )

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
        return Dataset(self.y[idx], self.a[idx], self.s[idx], self.b[idx], self.x[idx],
                       self.covariate_names, self.outcome_kind)

    def columns(self) -> dict[str, np.ndarray]:
        return _named_columns(self.covariate_names, self.x, y=self.y, a=self.a.astype(float),
                              s=self.s, b=self.b)


def _named_columns(covariate_names, x, **roles) -> dict:
    """Role columns plus each named covariate off x's last axis: the one name
    binding that ``design_matrix`` (fitting) and ``linear_predictor`` read."""
    x = np.asarray(x, dtype=float)
    cols = dict(roles)
    for j, name in enumerate(covariate_names):
        cols[name] = x[..., j]
    return cols


# --- feature language ------------------------------------------------------

def intercept():
    return ("intercept",)


def raw(name: str):
    return ("raw", name)


def square(name: str):
    return ("square", name)


def interaction(name1: str, name2: str):
    return ("interaction", name1, name2)


@dataclass(frozen=True)
class FeatureSpec:
    """Ordered covariate transformations defining a design matrix."""

    terms: tuple = ()

    def __init__(self, terms: Sequence):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in terms))
        if sum(1 for t in self.terms if t[0] == "intercept") > 1:
            raise InvalidParameterError("at most one intercept term allowed")
        for t in self.terms:
            if t[0] not in ("intercept", "raw", "square", "interaction"):
                raise InvalidParameterError(f"unknown term kind {t[0]!r}")

    def __len__(self):
        return len(self.terms)

    def names(self) -> list[str]:
        out = []
        for t in self.terms:
            if t[0] == "intercept":
                out.append("(intercept)")
            elif t[0] == "interaction":
                out.append(f"{t[1]}:{t[2]}")
            elif t[0] == "square":
                out.append(f"{t[1]}^2")
            else:
                out.append(t[1])
        return out


def _term_value(term, columns):
    kind = term[0]
    try:
        if kind == "intercept":
            return 1.0
        if kind == "raw":
            return columns[term[1]]
        if kind == "square":
            return columns[term[1]] ** 2
        return columns[term[1]] * columns[term[2]]
    except KeyError as exc:
        raise InvalidParameterError(f"feature references unknown column {exc.args[0]!r}") from None


def design_matrix(spec: FeatureSpec, columns: dict, n: int) -> np.ndarray:
    cols = [np.broadcast_to(np.asarray(_term_value(t, columns), dtype=float), (n,)) for t in spec.terms]
    return np.column_stack(cols) if cols else np.empty((n, 0))


def linear_predictor(spec: FeatureSpec, coef: np.ndarray, columns: dict):
    """Sum of coef * term over broadcastable column arrays, left to right.

    The sum is a new array, never one of ``columns``, and is updated in
    place once it has its full broadcast shape.
    """
    eta = 0.0
    for c, t in zip(coef, spec.terms):
        term = c * _term_value(t, columns)
        try:
            eta += term
        except ValueError:  # an array that must grow to the broadcast shape
            eta = eta + term
    return eta


def _own_full(eta, shape) -> np.ndarray:
    """A linear predictor as a float array of ``shape`` that the caller may overwrite."""
    eta = np.asarray(eta, dtype=float)
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

    kind: str  # "known" or "logistic"
    prob_treated: float | None = None
    spec: FeatureSpec | None = None
    coef: np.ndarray | None = None
    covariate_names: tuple = ()

    def __post_init__(self):
        if self.kind == "known":
            if not (self.prob_treated is not None and 0.0 < self.prob_treated < 1.0):
                raise InvalidParameterError("known propensity must lie in (0,1)")
        elif self.kind == "logistic":
            if self.spec is None or self.coef is None or not np.all(np.isfinite(self.coef)):
                raise InvalidParameterError("logistic propensity needs a spec and finite coefficients")
        else:
            raise InvalidParameterError(f"unknown propensity kind {self.kind!r}")

    def prob(self, a: int, b, x):
        """P(A = a | b, x), floored into [1e-12, 1 - 1e-12]. Returns an array matching b."""
        b = np.asarray(b, dtype=float)
        if self.kind == "known":
            p1 = np.full_like(b, self.prob_treated)
        else:
            cols = _named_columns(self.covariate_names, x, b=b)
            p1 = expit(np.asarray(linear_predictor(self.spec, self.coef, cols)))
            p1 = np.broadcast_to(p1, b.shape).astype(float)
        p = p1 if a == 1 else 1.0 - p1
        return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


@dataclass(frozen=True)
class CondDensityModel:
    """Gaussian conditional density of S: mean linear in features of (a, b, x)."""

    spec: FeatureSpec
    coef: np.ndarray
    residual_sd: float
    covariate_names: tuple = ()

    def __post_init__(self):
        if not (self.residual_sd > 0 and math.isfinite(self.residual_sd)):
            raise InvalidParameterError("residual_sd must be positive and finite")
        if not np.all(np.isfinite(self.coef)):
            raise InvalidParameterError("conditional-density coefficients must be finite")

    def mean(self, a, b, x):
        b = np.asarray(b, dtype=float)
        mu = linear_predictor(self.spec, self.coef,
                              _named_columns(self.covariate_names, x, a=float(a), b=b))
        return _own_full(mu, b.shape)

    def density_at(self, a, s, b, x):
        """Density at aligned arrays: s, b of shape (m,), x of shape (m, p)."""
        return _normal_density(np.asarray(s, dtype=float), self.mean(a, b, x), self.residual_sd)

    def density_grid(self, a, s_nodes, b, x):
        """Density on a marker grid: returns shape (m, len(s_nodes))."""
        mu = self.mean(a, b, x)
        return _normal_density(np.asarray(s_nodes, dtype=float)[None, :], mu[:, None],
                               self.residual_sd)


@dataclass(frozen=True)
class OutcomeModel:
    """E[Y | A, S, B, X]: logistic (binary Y) or linear (continuous Y) in features."""

    kind: str  # "logistic" or "linear"
    spec: FeatureSpec
    coef: np.ndarray
    covariate_names: tuple = ()

    def __post_init__(self):
        if self.kind not in ("logistic", "linear"):
            raise InvalidParameterError(f"unknown outcome kind {self.kind!r}")
        if not np.all(np.isfinite(self.coef)):
            raise InvalidParameterError("outcome coefficients must be finite")

    def _mean(self, eta):
        """The mean at linear predictor ``eta``, written over it."""
        if self.kind == "logistic":
            expit(eta, out=eta)
            np.clip(eta, PROB_FLOOR, 1.0 - PROB_FLOOR, out=eta)
        return eta

    def predict_at(self, a, s, b, x):
        b = np.asarray(b, dtype=float)
        cols = _named_columns(self.covariate_names, x, a=float(a), s=np.asarray(s, dtype=float), b=b)
        return self._mean(_own_full(linear_predictor(self.spec, self.coef, cols), b.shape))

    def predict_grid(self, a, s_nodes, b, x):
        b = np.asarray(b, dtype=float)
        x = np.asarray(x, dtype=float)
        s_nodes = np.asarray(s_nodes, dtype=float)
        cols = _named_columns(self.covariate_names, x[:, None, :], a=float(a),
                              s=s_nodes[None, :], b=b[:, None])
        eta = linear_predictor(self.spec, self.coef, cols)
        return self._mean(_own_full(eta, (b.shape[0], s_nodes.shape[0])))


@dataclass(frozen=True)
class NuisanceTriple:
    """Fitted nuisances plus the marker support they were trained against."""

    propensity: PropensityModel
    cond_density: CondDensityModel
    outcome: OutcomeModel
    support: Interval


# --- fitting ---------------------------------------------------------------

def irls_logistic(design, labels, ridge=1e-8, tol=1e-9, max_iter=100):
    """Ridge-penalized logistic MLE via iteratively reweighted least squares.

    Converges when the penalized score has max-norm below ``tol``. Raises
    :class:`SolverError` on non-convergence (carrying the last gradient
    norm) or on a rank-deficient weighted system; callers may retry with
    a larger ridge.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(labels, dtype=float)
    n, q = X.shape
    if n < q:
        raise SolverError(f"need at least as many rows ({n}) as features ({q})")
    if not np.all((y == 0) | (y == 1)):
        raise SolverError("labels must be 0/1")
    beta = np.zeros(q)
    eye = np.eye(q)

    def penalized_ll(bta, eta):
        return float(y @ eta - np.sum(np.logaddexp(0.0, eta)) - 0.5 * ridge * bta @ bta)

    eta = X @ beta
    ll = penalized_ll(beta, eta)
    gnorm = np.inf
    for _ in range(max_iter):
        p = expit(eta)
        grad = X.T @ (y - p) - ridge * beta
        gnorm = float(np.max(np.abs(grad)))
        if gnorm < tol:
            return beta
        w = np.clip(p * (1.0 - p), 1e-10, None)
        hess = X.T @ (X * w[:, None]) + ridge * eye
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
                   ridge=1e-8, tol=1e-9, max_iter=100) -> PropensityModel:
    """Fit P(A = 1 | b, x), or declare it known (randomized designs)."""
    if (spec is None) == (known_prob is None):
        raise InvalidParameterError("provide exactly one of spec or known_prob")
    if known_prob is not None:
        return PropensityModel(kind="known", prob_treated=float(known_prob))
    cols = data.columns()
    X = design_matrix(spec, cols, len(data))
    coef = irls_logistic(X, data.a, ridge=ridge, tol=tol, max_iter=max_iter)
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
    X = design_matrix(spec, data.columns(), n)
    coef = _least_squares(X, data.s)
    resid = data.s - X @ coef
    sd = float(np.sqrt(resid @ resid / (n - q)))
    if not sd > 0:
        raise SolverError("zero residual variance in conditional-density fit")
    return CondDensityModel(spec=spec, coef=coef, residual_sd=sd,
                            covariate_names=data.covariate_names)


def fit_outcome(data: Dataset, spec: FeatureSpec, ridge=1e-8, tol=1e-9, max_iter=100) -> OutcomeModel:
    """Fit E[Y | a, s, b, x]: logistic for binary outcomes, least squares otherwise."""
    X = design_matrix(spec, data.columns(), len(data))
    if data.outcome_kind == "binary":
        coef = irls_logistic(X, data.y, ridge=ridge, tol=tol, max_iter=max_iter)
        kind = "logistic"
    else:
        coef = _least_squares(X, data.y)
        kind = "linear"
    return OutcomeModel(kind=kind, spec=spec, coef=coef, covariate_names=data.covariate_names)


def support_bounds(data: Dataset) -> Interval:
    """Observed marker range [min S, max S]."""
    return Interval(float(np.min(data.s)), float(np.max(data.s)))
