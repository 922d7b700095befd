"""Nuisance models: treatment probability, marker conditional density, outcome regression.

The influence-value computations need three nuisances per training
fold, bundled with the marker support:

* the treatment probability P(A = a | B, X): a ``KnownPropensity``, a
  randomized trial's known constant, which is built and never fit, or a
  ``PropensityModel``, a logistic fit on features of (b, x);
* ``CondDensityModel``  -- the conditional density of the post-vaccination
  marker S given (A, B, X), modeled as a Gaussian whose mean is linear in
  user-chosen features of (a, b, x) with homoscedastic residual;
* ``OutcomeModel``      -- E[Y | A, S, B, X], logistic for binary outcomes
  and linear for continuous ones.

The three fitted models share one base: a ``spec``, one coefficient per
term in ``coef`` and the ``covariate_names`` the spec may read. Only a
caller that reads ``ModelSpecs`` (the estimators) chooses between a known
and a fitted propensity; nothing here branches on it.

Feature sets are declared with :class:`FeatureSpec`, a small ordered
language of raw/squared/interaction terms, so that generating models
that are polynomial in the covariates can be specified exactly. A spec
may name its model's ``ROLES`` (b for the propensity; a, b for the
density; a, s, b for the outcome) and the covariates. It is resolved
against those columns once, when its model is fit or built, for both
the design matrix and the predictions; any other name, y included, is
an InvalidParameterError, which the estimators raise before any fold
is fit. A resolved term is the positions of the columns it multiplies:
none for the intercept, one for a raw column, the same one twice for a
square and two for an interaction.

A fit reads :class:`TrainingRows`: one or two contiguous row ranges of a
Dataset whose rows are grouped into parts (:class:`RowParts`). A fold plan
sorts its rows by fold and fits fold k from the ranges on either side of
part k, so no fit copies its training rows; a Dataset is read as one part
of all its rows. Both kinds of fit work over fixed row blocks: least
squares solves from the stacked QR R factors of each part's blocks, made
once per model, and IRLS sums over blocks of each training range of a
logistic model's design, built once over all rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from operator import index
from typing import ClassVar, NamedTuple, Sequence

import numpy as np
from scipy.special import expit

from .core import (Interval, _is_arm, _is_number, _require_array, _require_items,
                   _require_nonnegative, _require_numbers, _require_positive, _require_type)
from .errors import InvalidParameterError, SolverError
from .parallel import row_blocks

__all__ = [
    "Observation",
    "Dataset",
    "FeatureSpec",
    "intercept",
    "raw",
    "square",
    "interaction",
    "KnownPropensity",
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
        _require_type("Observation", "x", self.x, tuple)
        for name, val in (("y", self.y), ("s", self.s), ("b", self.b),
                          *((f"x[{i}]", v) for i, v in enumerate(self.x))):
            if not _is_number(val):
                raise InvalidParameterError(f"observation {name} must be a finite number, got {val!r}")
        if not _is_arm(self.a):
            raise InvalidParameterError(f"treatment indicator a must be an integer 0 or 1, got {self.a!r}")


class Dataset:
    """Column-oriented i.i.d. sample of observations.

    ``y``, ``a``, ``s`` and ``b`` are 1-D columns of one length; ``x`` holds
    the covariates as a 2-D (rows, covariates) array, or 1-D for one
    covariate. ``outcome_kind`` is "binary" or "continuous"; binary outcomes
    must lie in {0, 1}.

    A Dataset is immutable: each column is ``core._require_array``'s
    read-only float copy, never the caller's array, and attribute
    assignment and deletion are refused, so the fold plans that
    ``estimators`` keeps per Dataset stay valid for its lifetime. ``a`` is
    cast to a read-only int copy once checked 0/1. A pickled or copied
    Dataset is rebuilt by the constructor.
    """

    def __init__(self, y, a, s, b, x, covariate_names, outcome_kind=None):
        for name, col in zip("yasbx", (y, a, s, b, x)):
            col = _require_array(f"column {name}", col, ndim=(1, 2) if name == "x" else 1)
            object.__setattr__(self, name, col[:, None] if col.ndim == 1 and name == "x" else col)
        object.__setattr__(self, "covariate_names", _require_items(
            "Dataset", "covariate_names", covariate_names, "each covariate name", str))
        n = self.y.shape[0]
        if n == 0:
            raise InvalidParameterError("dataset must be nonempty")
        if not (self.a.shape[0] == self.s.shape[0] == self.b.shape[0] == self.x.shape[0] == n):
            raise InvalidParameterError("dataset columns have mismatched lengths")
        if self.x.shape[1] != len(self.covariate_names):
            raise InvalidParameterError(
                f"{self.x.shape[1]} covariate columns but {len(self.covariate_names)} names")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise InvalidParameterError("covariate names must be unique")
        if {"y", "a", "s", "b"} & set(self.covariate_names):
            raise InvalidParameterError("covariate names y/a/s/b are reserved")
        if not np.all((self.a == 0) | (self.a == 1)):
            raise InvalidParameterError("treatment column must be 0/1")
        a = self.a.astype(int)
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        _require_outcome_kind(outcome_kind)
        if outcome_kind is None:
            outcome_kind = "binary" if np.all((self.y == 0) | (self.y == 1)) else "continuous"
        if outcome_kind == "binary" and not np.all((self.y == 0) | (self.y == 1)):
            raise InvalidParameterError("binary-outcome dataset has y outside {0,1}")
        object.__setattr__(self, "outcome_kind", outcome_kind)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Dataset is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"a Dataset is immutable: cannot delete {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, so a copy's columns are read-only too
        return Dataset, (self.y, self.a, self.s, self.b, self.x, self.covariate_names, self.outcome_kind)

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
        """The rows ``idx`` selects, as a new Dataset that the constructor
        builds and checks like any other, with this one's covariate names
        and outcome kind. InvalidParameterError when numpy cannot index the
        rows with ``idx``: a position out of range, a mask of another
        length, or floats."""
        try:
            cols = [col[idx] for col in (self.y, self.a, self.s, self.b, self.x)]
        except IndexError as exc:
            raise InvalidParameterError(
                f"Dataset.subset cannot select rows of {len(self)}: {exc}") from None
        return Dataset(*cols, self.covariate_names, self.outcome_kind)


def _require_outcome_kind(outcome_kind) -> None:
    """InvalidParameterError unless ``outcome_kind`` is None, "binary" or
    "continuous", tested as a str first: an array's ``in`` is ambiguous."""
    if not (outcome_kind is None
            or isinstance(outcome_kind, str) and outcome_kind in ("binary", "continuous")):
        raise InvalidParameterError(f"unknown outcome_kind {outcome_kind!r}")


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
        if not self.terms:
            raise InvalidParameterError("a feature spec needs at least one term")
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
        arguments; a failed one is not kept, so it raises every time. Both
        arguments are tuples or lists of strings."""
        return _resolve(self, *(
            _require_items("FeatureSpec.resolve", name, names, f"each of {name}", str)
            for name, names in (("roles", roles), ("covariate_names", covariate_names))))

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
    # each term as the names of the columns it multiplies: a square's one name twice
    terms = (t[1:] * 2 if t[0] == "square" else t[1:] for t in spec.terms)
    try:
        return _Terms(roles, tuple(tuple(position[name] for name in names) for names in terms))
    except KeyError as exc:
        raise InvalidParameterError(f"feature references unknown column {exc.args[0]!r}; "
                                    f"this model reads {', '.join(position)}") from None


def _spec_terms(model, spec, covariate_names) -> _Terms:
    """``spec`` resolved for a ``model`` class, which reads its ``ROLES`` and
    the covariates: the one check, for every fit and model, that a spec is a
    FeatureSpec."""
    _require_type(model.__name__, "spec", spec, FeatureSpec)
    return spec.resolve(model.ROLES, covariate_names)


class _Terms(NamedTuple):
    """A FeatureSpec resolved for one model."""

    roles: tuple  # the model's role columns, ahead of its covariates
    terms: tuple  # per term the positions in (*roles, *covariates) of the columns it multiplies

    def _values(self, role_values, x):
        """Each term's value, left to right, from the role values and x's last
        axis: the product of its columns, 1.0 for none and a column itself for one."""
        x = np.asarray(x, dtype=float)
        cols = (*role_values, *(x[..., j] for j in range(x.shape[-1])))
        for pos in self.terms:
            value = cols[pos[0]] if pos else 1.0
            for p in pos[1:]:
                value = value * cols[p]
            yield value

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

def _arm_prob(a: int, p1):
    """P(A = a) from P(A = 1), floored into [1e-12, 1 - 1e-12]."""
    p = p1 if a == 1 else 1.0 - p1
    return np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)


@dataclass(frozen=True)
class KnownPropensity:
    """P(A = 1 | B, X) = ``prob_treated``, a randomized trial's known
    probability in (0, 1): built, never fit."""

    prob_treated: float

    def __post_init__(self):
        p = self.prob_treated
        if not (_is_number(p) and 0.0 < p < 1.0):
            raise InvalidParameterError(
                f"prob_treated must lie in (0,1) for a known propensity, got {p!r}")

    def prob(self, a: int, b, x):
        """P(A = a), floored as :class:`PropensityModel` floors it, in an array matching b."""
        return _arm_prob(a, np.full_like(np.asarray(b, dtype=float), self.prob_treated))


@dataclass(frozen=True)
class _FittedModel:
    """A model linear in the features ``spec`` of its ``ROLES`` and the
    covariates ``covariate_names``; ``coef`` is a read-only copy of the
    coefficients given, one finite number per term of ``spec``."""

    ROLES: ClassVar[tuple[str, ...]] = ()

    spec: FeatureSpec
    coef: np.ndarray
    covariate_names: tuple = ()
    _terms: _Terms = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model = type(self)
        object.__setattr__(self, "_terms", _spec_terms(model, self.spec, self.covariate_names))
        object.__setattr__(self, "coef", _require_array(f"{model.__name__} coef", self.coef,
                                                        shape=(len(self.spec),)))


@dataclass(frozen=True)
class PropensityModel(_FittedModel):
    """P(A = a | B, X): a logistic fit on features of (b, x)."""

    ROLES: ClassVar[tuple[str, ...]] = ("b",)

    def prob(self, a: int, b, x):
        """P(A = a | b, x), floored into [1e-12, 1 - 1e-12]. Returns an array matching b."""
        return _arm_prob(a, expit(self._terms.predictor(self.coef, (b,), x)))


@dataclass(frozen=True)
class CondDensityModel(_FittedModel):
    """Gaussian conditional density of S: mean linear in features of (a, b, x)."""

    ROLES: ClassVar[tuple[str, ...]] = ("a", "b")

    residual_sd: float = field(kw_only=True)

    def __post_init__(self):
        _require_positive("residual_sd", self.residual_sd)
        super().__post_init__()

    def mean(self, a, b, x):
        """The marker mean at broadcastable arm a and baseline b, with x's
        covariates on its last axis: a may be one arm or one per row."""
        return self._terms.predictor(self.coef, (a, b), x)

    def density_at(self, a, s, b, x):
        """Density at broadcastable a, s and b, with x's covariates on its last axis."""
        return self.density_from_mean(s, self.mean(a, b, x))

    def density_from_mean(self, s, mean):
        """Density at s of a marker whose mean is ``mean``, broadcast: a
        caller that keeps ``mean`` rows' mean reads their density at any s."""
        return _normal_density(np.asarray(s, dtype=float), mean, self.residual_sd)


@dataclass(frozen=True)
class OutcomeModel(_FittedModel):
    """E[Y | A, S, B, X]: logistic (binary Y) or linear (continuous Y) in features."""

    ROLES: ClassVar[tuple[str, ...]] = ("a", "s", "b")

    kind: str = field(kw_only=True)  # "logistic" or "linear"

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in ("logistic", "linear")):
            raise InvalidParameterError(f"unknown outcome kind {self.kind!r}")
        super().__post_init__()

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
    """Fitted nuisances plus the marker support they were trained against.

    ``support`` must be an Interval; the three models are duck-typed, so any
    object with the methods the influence values call will do: ``prob``,
    ``mean`` and ``density_from_mean`` (and ``density_at`` for the scalar
    reference path), and ``predict_at``."""

    propensity: KnownPropensity | PropensityModel
    cond_density: CondDensityModel
    outcome: OutcomeModel
    support: Interval

    def __post_init__(self):
        _require_type("NuisanceTriple", "support", self.support, Interval)


# --- fitting ---------------------------------------------------------------

# Rows per block of a fit's passes over its training rows. A block's
# weighted design is 0.8 MB at 6 features, so it stays in cache and is the
# same size at any n; block edges that depend only on the training rows
# keep every result the same under any BLAS thread count.
_FIT_BLOCK_ROWS = 16_384

# IRLS stops once the penalized score's max-norm is below IRLS_TOL, and
# raises a SolverError after IRLS_MAX_ITER Newton steps.
IRLS_TOL = 1e-9
IRLS_MAX_ITER = 100


class RowParts:
    """A Dataset with its rows grouped into contiguous parts, ``edges``, and
    what the fits on them share; with ``edges`` None, one part of all rows.

    A fold plan sorts its rows by fold, so that each fold is one part and
    trains on the others; a Dataset fit reads one part of all its rows.
    Only what a second fit reads is kept, made on first use and living as
    long as the parts: each logistic model's design matrix over all rows,
    which every fold's IRLS reads, and each least-squares model's per-part
    R factors, whose design is dropped once they are made. A fold plan fits
    fold 1 in the calling thread before folds 2..K start on threads, so
    the threads only read them.
    """

    def __init__(self, data: Dataset, edges=None):
        self.data = data
        # part j is rows edges[j]:edges[j + 1]
        self.edges = [0, len(data)] if edges is None else [int(e) for e in edges]
        self._designs = {}
        self._factors = {}

    def design(self, terms: _Terms) -> np.ndarray:
        X = self._designs.get(terms)
        if X is None:
            X = self._designs[terms] = terms.design(self.data)
        return X

    def factors(self, terms: _Terms, target: str) -> list:
        """Per part, the R factor of ``[X z]`` on each of its ``_FIT_BLOCK_ROWS``
        blocks, for the design X of ``terms`` and column z ``target``: a
        block's rows are ``Q @ R`` for a Q of orthonormal columns."""
        factors = self._factors.get((terms, target))
        if factors is None:
            X, z = terms.design(self.data), getattr(self.data, target)
            factors = self._factors[terms, target] = [
                [np.linalg.qr(np.column_stack([X[lo:hi], z[lo:hi]]), mode="r")
                 for lo, hi in row_blocks(start, stop, _FIT_BLOCK_ROWS)]
                for start, stop in zip(self.edges[:-1], self.edges[1:])]
        return factors


class TrainingRows:
    """The rows one fit reads: every part of a :class:`RowParts` but
    ``held_out``, counted from 0, or with ``held_out`` None all of them, as
    up to two contiguous row ranges of ``parts.data``.

    The fit functions take these or a Dataset, which they read as one part
    of all its rows. Fits read the parts' columns, designs and factors in
    place; nothing here copies a row.
    """

    def __init__(self, parts: RowParts, held_out: int | None):
        self.parts = parts
        self.held_out = held_out
        first, last = parts.edges[0], parts.edges[-1]
        if held_out is None:
            ranges = [(first, last)]
        else:
            ranges = [(first, parts.edges[held_out]), (parts.edges[held_out + 1], last)]
        self.ranges = [(lo, hi) for lo, hi in ranges if lo < hi]
        if not self.ranges:
            raise InvalidParameterError("a fit needs at least one training row")

    def __len__(self):
        return sum(hi - lo for lo, hi in self.ranges)


def _training_rows(caller: str, data: Dataset | TrainingRows) -> TrainingRows:
    _require_type(caller, "data", data, (Dataset, TrainingRows))
    return data if isinstance(data, TrainingRows) else TrainingRows(RowParts(data), None)


def _fit_input(caller: str, model, data: Dataset | TrainingRows, spec) -> tuple[TrainingRows, _Terms]:
    """What every fit reads first: its training rows, and ``spec`` resolved
    for a ``model`` class on their covariates."""
    rows = _training_rows(caller, data)
    return rows, _spec_terms(model, spec, rows.parts.data.covariate_names)


def irls_logistic(design, labels, ridge=1e-8, start=None, rows=None):
    """Ridge-penalized logistic MLE via iteratively reweighted least squares.

    Fits the rows of ``design`` and ``labels`` in ``rows``, a list of
    increasing, disjoint, nonempty ``(lo, hi)`` integer ranges within the
    design's rows, or all rows by default. ``ridge`` is a finite number >= 0.
    Starts from the coefficients ``start``, zero by default. Converges when
    the penalized score has max-norm below ``IRLS_TOL``; a ``start`` that
    already meets it is returned as its read-only copy.
    Raises :class:`SolverError` on non-convergence or on a rank-deficient
    weighted system; callers may retry from zero with a larger ridge.
    Every sum runs over the ranges in order, in blocks of
    ``_FIT_BLOCK_ROWS`` rows cut from each range by ``row_blocks``, so no
    step holds more than one block's weighted design.
    """
    _require_nonnegative("irls_logistic ridge", ridge)
    X = np.asarray(_require_numbers("design", design), dtype=float)  # no copy of a float64 design
    if X.ndim != 2 or X.shape[1] == 0:
        raise InvalidParameterError(
            f"design must be 2-D with at least one column, got shape {X.shape}")
    y = np.asarray(labels)
    q = X.shape[1]
    if y.shape != X.shape[:1]:
        raise InvalidParameterError(f"labels of shape {y.shape} for {X.shape[0]} design rows")
    try:  # pairs of integers, else a TypeError or ValueError
        ranges = [(0, X.shape[0])] if rows is None else [(index(lo), index(hi)) for lo, hi in rows]
        ends = [0, *(end for lo_hi in ranges for end in lo_hi), X.shape[0]]
        valid = all(lo < hi for lo, hi in ranges) and all(u <= v for u, v in zip(ends, ends[1:]))
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidParameterError(f"rows must be increasing, disjoint, nonempty ranges "
                                    f"within 0..{X.shape[0]}, got {rows!r}")
    blocks = [(X[lo:hi], y[lo:hi]) for lo_hi in ranges
              for lo, hi in row_blocks(*lo_hi, _FIT_BLOCK_ROWS)]
    n = sum(len(yb) for _, yb in blocks)
    if n < q:
        raise SolverError(f"need at least as many rows ({n}) as features ({q})")
    if not all(np.all((yb == 0) | (yb == 1)) for _, yb in blocks):
        raise SolverError("labels must be 0/1")
    beta = np.zeros(q) if start is None else _require_array("start", start, shape=(q,))
    diag = np.diag_indices(q)
    # softplus(eta) - y eta is softplus(sign eta), sign = 1 - 2y, kept a byte a row
    signs = [(1 - 2 * yb).astype(np.int8) for _, yb in blocks]
    # the largest block's rows, each scaled by its weight, remade every step
    Xw = np.empty((max(len(yb) for _, yb in blocks), q))

    def evaluate(bta):
        """The penalized log-likelihood at ``bta``, and each block's linear predictor."""
        etas, loss = [], 0.5 * ridge * float(bta @ bta)
        for (Xb, _), sign in zip(blocks, signs):
            eta = Xb @ bta
            # softplus(z) = log(1 + exp(z)), written to stay finite at any z
            z = sign * eta
            terms = np.abs(z)
            np.negative(terms, out=terms)
            np.exp(terms, out=terms)
            np.log1p(terms, out=terms)
            terms += np.maximum(z, 0.0, out=z)
            loss += terms.sum()  # a sum, not a BLAS ddot, so no thread count changes it
            etas.append(eta)
        return -float(loss), etas

    ll, etas = evaluate(beta)
    for _ in range(IRLS_MAX_ITER):
        ps = [expit(eta, out=eta) for eta in etas]  # the predictors are not read again
        del etas
        grad = 0.0
        for (Xb, yb), p in zip(blocks, ps):
            grad = grad + Xb.T @ (yb - p)
        grad = grad - ridge * beta
        if np.abs(grad).max() < IRLS_TOL:
            return beta
        hess = 0.0
        for (Xb, _), p in zip(blocks, ps):
            w = np.maximum(p * (1.0 - p), 1e-10)
            hess = hess + Xb.T @ np.multiply(Xb, w[:, None], out=Xw[:len(p)])
        hess[diag] += ridge
        del ps
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise SolverError("rank-deficient weighted system in IRLS") from None
        # damped Newton: halve until the penalized likelihood does not decrease
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            cand_ll, cand_etas = evaluate(cand)
            if np.isfinite(cand_ll) and cand_ll >= ll - 1e-12 * (1.0 + abs(ll)):
                break
            scale *= 0.5
        else:
            raise SolverError("IRLS line search failed")
        beta, etas, ll = cand, cand_etas, cand_ll
    raise SolverError(f"IRLS did not converge in {IRLS_MAX_ITER} iterations")


def fit_propensity(data: Dataset | TrainingRows, spec: FeatureSpec, ridge=1e-8,
                   start=None) -> PropensityModel:
    """Fit a logistic P(A = 1 | b, x) on features ``spec`` of a Dataset or a
    fit's training rows, from coefficients ``start`` if given. A known
    propensity (randomized designs) is not fit: it is a ``KnownPropensity``."""
    _require_nonnegative("fit_propensity ridge", ridge)
    rows, terms = _fit_input("fit_propensity", PropensityModel, data, spec)
    coef = irls_logistic(rows.parts.design(terms), rows.parts.data.a, ridge=ridge, start=start,
                         rows=rows.ranges)
    return PropensityModel(spec=spec, coef=coef, covariate_names=rows.parts.data.covariate_names)


def _least_squares(rows: TrainingRows, terms: _Terms, target: str):
    """Coefficients of column ``target`` on the design of ``terms`` over
    ``rows``, and their residual sum of squares, from the other parts' R
    factors stacked in part order: the same singular values, rank test and
    residual norm as ``lstsq`` on the training rows. Raises SolverError
    when the design is rank-deficient."""
    R = np.concatenate([r for j, part in enumerate(rows.parts.factors(terms, target))
                        if j != rows.held_out for r in part])
    q = R.shape[1] - 1
    coef, _, rank, _ = np.linalg.lstsq(R[:, :q], R[:, q], rcond=np.finfo(float).eps * len(rows))
    if rank < q:
        raise SolverError(f"singular design: rank {rank} < {q} columns")
    resid = R[:, q] - R[:, :q] @ coef
    return coef, float(np.sum(resid * resid))  # a ddot would round per BLAS thread count


def fit_cond_density(data: Dataset | TrainingRows, spec: FeatureSpec) -> CondDensityModel:
    """Gaussian fit of S on features of (a, b, x), on a Dataset or a fit's
    training rows; residual sd uses the n - q divisor."""
    rows, terms = _fit_input("fit_cond_density", CondDensityModel, data, spec)
    n, q = len(rows), len(spec)
    if n <= q + 2:
        raise InvalidParameterError(f"need n > q + 2 rows (n={n}, q={q})")
    coef, rss = _least_squares(rows, terms, "s")
    sd = math.sqrt(rss / (n - q))
    if not sd > 0:
        raise SolverError("zero residual variance in conditional-density fit")
    return CondDensityModel(spec=spec, coef=coef, residual_sd=sd,
                            covariate_names=rows.parts.data.covariate_names)


def fit_outcome(data: Dataset | TrainingRows, spec: FeatureSpec, ridge=1e-8,
                start=None) -> OutcomeModel:
    """Fit E[Y | a, s, b, x] on a Dataset or a fit's training rows: logistic
    for binary outcomes, from coefficients ``start`` if given, and least
    squares, which takes no start, otherwise."""
    _require_nonnegative("fit_outcome ridge", ridge)
    rows, terms = _fit_input("fit_outcome", OutcomeModel, data, spec)
    if rows.parts.data.outcome_kind == "binary":
        coef = irls_logistic(rows.parts.design(terms), rows.parts.data.y, ridge=ridge, start=start,
                             rows=rows.ranges)
        kind = "logistic"
    else:
        coef, _ = _least_squares(rows, terms, "y")
        kind = "linear"
    return OutcomeModel(kind=kind, spec=spec, coef=coef,
                        covariate_names=rows.parts.data.covariate_names)


def support_bounds(data: Dataset | TrainingRows) -> Interval:
    """Observed marker range [min S, max S] of a Dataset or a fit's training rows."""
    rows = _training_rows("support_bounds", data)
    s = [rows.parts.data.s[lo:hi] for lo, hi in rows.ranges]
    return Interval(min(float(np.min(part)) for part in s), max(float(np.max(part)) for part in s))
