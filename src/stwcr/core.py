"""Kernel, smoothed-indicator, and quadrature primitives.

Every estimand in this package is built from three ingredients:

* a Gaussian kernel ``K_h(u) = (1/h) * pdf_std(u/h)`` that smooths across
  the continuous marker,
* a normal-CDF softening ``Phi((p - t)/eps)`` of the trimming indicator
  ``1{p > t}``, which restores differentiability in the conditional
  density ``p``, and
* Gauss-Legendre quadrature of kernel-weighted integrands over a window
  of ``window_halfwidth_in_h`` bandwidths around the kernel center,
  clipped to the marker support. ``quad_rule`` gives that window's nodes
  and weights with the kernel already in the weights, so an integral is
  ``f(nodes) @ wk``; a window that misses the support is an empty rule,
  whose integrals are 0.

All functions here are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np
from scipy.special import ndtr

from .errors import EvaluationError, InvalidParameterError

__all__ = [
    "DENSITY_FLOOR",
    "MAX_QUAD_NODES",
    "SmoothingParams",
    "Interval",
    "kernel_weight",
    "smooth_indicator",
    "smooth_indicator_deriv",
    "integrate_kernel_weighted",
    "integrate_kernel_weighted_2d",
]

# Densities below this are floored before any division by them.
DENSITY_FLOOR = 1e-12

# Most Gauss-Legendre nodes a SmoothingParams takes. The rule's setup
# solves an eigenproblem of this order (about 1 s at 1024, 8 s at 2048),
# and each grid block holds arrays of 1024 rows by this many nodes.
MAX_QUAD_NODES = 1024

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class SmoothingParams:
    """Tuning tuple shared by every estimand computation.

    ``h`` is the bandwidth for single-marker risk queries; ``h0``/``h1``
    are the comparator-side and investigational-side bandwidths for
    relative-efficacy queries. Bandwidths not needed by a given query may
    be left unset; a query's ``bandwidths`` names those it needs.
    ``quad_nodes`` is an integer in 8..``MAX_QUAD_NODES``.
    """

    t: float = 0.1
    epsilon: float = 0.1
    h: float | None = None
    h0: float | None = None
    h1: float | None = None
    alpha: float = 0.05
    quad_nodes: int = 64
    window_halfwidth_in_h: float = 8.0

    def __post_init__(self):
        for name, val in (("t", self.t), ("alpha", self.alpha)):
            if not (_is_number(val) and 0.0 < val < 1.0):
                raise InvalidParameterError(f"{name} must be in (0,1), got {val!r}")
        _require_positive("epsilon", self.epsilon)
        for name in ("h", "h0", "h1"):
            if getattr(self, name) is not None:
                _require_positive(name, getattr(self, name))
        _require_int("quad_nodes", self.quad_nodes, 8, MAX_QUAD_NODES)  # 64.0 is not an integer
        window = self.window_halfwidth_in_h  # may be inf: a bounded support clips the window
        if not (_is_number(window, finite=False) and window >= 4.0):
            raise InvalidParameterError(f"window_halfwidth_in_h must be >= 4, got {window!r}")


@dataclass(frozen=True)
class Interval:
    """Closed interval, used for the marker support. Endpoints may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (_is_number(self.lo, finite=False) and _is_number(self.hi, finite=False)):
            raise InvalidParameterError(
                f"interval endpoints lo and hi must be numbers, not NaN, got {self.lo!r} and {self.hi!r}")
        if self.lo > self.hi:
            raise InvalidParameterError(f"interval lo={self.lo} > hi={self.hi}")

    @staticmethod
    def wide() -> "Interval":
        return Interval(-math.inf, math.inf)


def kernel_weight(u, h):
    """Gaussian kernel ``K_h(u) = (1/h) * pdf_std(u/h)``; symmetric, integrates to 1."""
    _require_positive("bandwidth h", h)
    u = np.asarray(_require_numbers("kernel displacement u", u), dtype=float)
    if not np.all(np.isfinite(u)):
        raise InvalidParameterError("kernel displacement u must be finite")
    with np.errstate(over="ignore"):  # see _scaled_pdf
        out = _scaled_pdf(np.divide(u, h, out=np.empty(u.shape)), h)
    return out if out.ndim else float(out)


def _scaled_pdf(z, scale):
    """``pdf_std(z)/scale`` as ``(1/sqrt(2 pi)/scale) * exp(-0.5*z*z)``, in one new array.

    Callers ignore overflow while they form z and call this: a z or z*z
    that overflows to inf lies far past the normal's reach, and its value
    rounds to 0 as it should.
    """
    out = np.multiply(z, -0.5, out=np.empty(np.shape(z)))
    out *= z
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI / scale
    return out


# --- one rule per argument kind: each public scalar, array and typed argument is checked here

def _is_number(val, finite: bool = True) -> bool:
    """A number: a real that is not a bool (``True`` is a ``Real`` that reads
    as 1), not NaN, and not an int too large for a float. With ``finite``,
    not infinite either."""
    if isinstance(val, bool) or not isinstance(val, Real):
        return False
    try:
        return math.isfinite(val) if finite else not math.isnan(val)
    except OverflowError:  # an int beyond the float range
        return False


def _require_positive(name: str, val) -> None:
    """InvalidParameterError naming ``name`` unless ``val`` is a positive
    finite number: the rule for every bandwidth, epsilon and residual_sd."""
    if not (_is_number(val) and val > 0.0):
        raise InvalidParameterError(f"{name} must be positive and finite, got {val!r}")


def _require_int(name: str, val, minimum: int, maximum=math.inf) -> None:
    """InvalidParameterError naming ``name`` unless ``val`` is an integer in
    ``minimum..maximum``: an ``Integral`` (numpy's too) that is not a bool."""
    if isinstance(val, bool) or not isinstance(val, Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {val!r}")
    if not minimum <= val <= maximum:
        raise InvalidParameterError(
            f"{name} must be an integer in {minimum}..{maximum}, got {val}" if maximum < math.inf
            else f"{name} must be nonnegative, got {val}" if minimum == 0
            else f"need {name} >= {minimum}, got {val}")


def _is_arm(a) -> bool:
    """An arm: the integer 0 or 1, not a bool nor a float, so that each arm
    has one label (``True`` == 1.0 == 1)."""
    return isinstance(a, Integral) and not isinstance(a, bool) and a in (0, 1)


def _require_array(name: str, val, ndim: int | tuple = 1, shape: tuple | None = None,
                   integers: bool = False) -> np.ndarray:
    """A read-only, C-order float64 copy of ``val``, never the caller's array:
    the rule for every array argument.

    InvalidParameterError naming ``name`` unless ``val`` holds numbers
    (bools, ints and floats: not strings, nor an int beyond the float
    range), all finite, and with ``integers`` all whole, in the ``shape``
    given, or else in ``ndim`` dimensions, one count or a tuple of the
    counts allowed.
    """
    try:
        arr = np.asarray(val)
        # strings would parse as floats; an object array may hold ints beyond the float range
        arr = np.array(arr, dtype=float, order="C") if arr.dtype.kind in "biufO" else None
    except (TypeError, ValueError, OverflowError):
        arr = None
    dims = ndim if isinstance(ndim, tuple) else (ndim,)
    if arr is None:
        given = "a value that is not a number within the float range"
    elif arr.shape != shape if shape is not None else arr.ndim not in dims:
        given = f"shape {arr.shape}"
    elif not np.isfinite(arr).all():
        given = "a non-finite value"
    elif integers and not np.all(arr == np.trunc(arr)):
        given = "a fraction"
    else:
        arr.setflags(write=False)
        return arr
    wanted = (" x ".join(map(str, shape)) if shape is not None
              else f"a {' or '.join(f'{d}-D' for d in dims)} array of")
    raise InvalidParameterError(
        f"{name} must hold {wanted} finite {'integers' if integers else 'numbers'}, got {given}")


def _require_numbers(name: str, val, ndim: int | None = None, rows: int | None = None) -> np.ndarray:
    """``val`` as an array, read in place, so an array is not copied: the
    rule for the array arguments that are not copied (``irls_logistic``'s
    design, the batch functions' rows, ``kernel_weight``'s displacements).

    InvalidParameterError naming ``name`` unless ``val`` holds numbers
    (bools, ints and floats: not strings, nor an int beyond the float
    range), in ``ndim`` dimensions and with ``rows`` rows when these are
    given. The values themselves are not checked.
    """
    try:
        arr = np.asarray(val)
    except (TypeError, ValueError):  # a ragged sequence
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        given = "a value that is not a number within the float range"
    elif ndim is not None and arr.ndim != ndim or rows is not None and arr.shape[:1] != (rows,):
        given = f"shape {arr.shape}"
    else:
        return arr
    wanted = "numbers" if ndim is None else f"a {ndim}-D array of numbers"
    wanted += "" if rows is None else f" with {rows} rows"
    raise InvalidParameterError(f"{name} must hold {wanted}, got {given}")


def _require_type(caller: str, name: str, val, cls, optional: bool = False) -> None:
    """InvalidParameterError unless ``val`` is a ``cls``, a class or a tuple
    of classes, or None when ``optional``: the rule for every typed argument.
    The message names ``caller``, the argument, the type wanted and the type given."""
    if isinstance(val, cls) or optional and val is None:
        return
    wanted = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
    wanted += " or None" if optional else ""
    article = "an" if wanted[0] in "AEIOU" else "a"
    raise InvalidParameterError(
        f"{caller} needs {name} as {article} {wanted}, got {type(val).__name__}")


_OPEN_UNIT_LO = np.finfo(float).tiny
_OPEN_UNIT_HI = float(np.nextafter(1.0, 0.0))


def smooth_indicator(p, t, epsilon):
    """Softened trimming weight ``Phi((p - t)/epsilon)``, increasing in p.

    Clipped into the open unit interval so saturated normal-CDF values
    never round to exactly 0 or 1. ``p`` is a number or an array of
    numbers, read in place and its values not checked; ``t`` is a finite
    number.
    """
    _require_indicator_args("smooth_indicator", p, t)
    out, _ = softened_indicator(p, t, epsilon)
    return out if out.ndim else float(out)


def smooth_indicator_deriv(p, t, epsilon):
    """Derivative of :func:`smooth_indicator` in p: ``pdf_std((p - t)/epsilon)/epsilon``."""
    _require_indicator_args("smooth_indicator_deriv", p, t)
    _, out = softened_indicator(p, t, epsilon)
    return out if out.ndim else float(out)


def _require_indicator_args(caller: str, p, t) -> None:
    """InvalidParameterError naming ``caller`` unless p holds numbers and t
    is a finite number."""
    _require_numbers(f"{caller} p", p)
    if not _is_number(t):
        raise InvalidParameterError(f"{caller} needs t as a finite number, got {t!r}")


def softened_indicator(p, t, epsilon):
    """``(smooth_indicator, smooth_indicator_deriv)`` at array p, from one
    ``z = (p - t)/epsilon``.

    Each result is a new array, so a caller may update it in place. ``p``
    itself is never written.
    """
    _require_positive("epsilon", epsilon)
    p = np.asarray(p, dtype=float)
    with np.errstate(over="ignore"):  # see _scaled_pdf; ndtr(+-inf) is 1 or 0
        z = np.subtract(p, t, out=np.empty(p.shape))
        z /= epsilon
        dphi = _scaled_pdf(z, epsilon)
    # z is spent: the weight overwrites it
    ndtr(z, out=z)
    return np.clip(z, _OPEN_UNIT_LO, _OPEN_UNIT_HI, out=z), dphi


_leggauss = lru_cache(maxsize=32)(np.polynomial.legendre.leggauss)


def kernel_window(center: float, h: float, support: Interval, params: SmoothingParams):
    """``(lo, hi)``: the window ``[center - W*h, center + W*h]`` intersected
    with the support, which ``quad_rule`` integrates over; empty unless lo < hi.
    Two supports that clip a window alike give the same rule."""
    half = params.window_halfwidth_in_h * h
    return max(center - half, support.lo), min(center + half, support.hi)


def quad_rule(center: float, h: float, support: Interval, params: SmoothingParams):
    """Gauss-Legendre nodes and kernel-weighted weights on ``kernel_window``.

    Returns ``(nodes, wk)``, where ``wk`` is the kernel ``K_h(nodes -
    center)`` times the interval-scaled quadrature weights, so ``f(nodes) @
    wk`` is the kernel-weighted integral of ``f``. A window that misses the
    support is an empty rule, two empty arrays, whose integrals are 0.
    Raises InvalidParameterError when the window is unbounded (an infinite
    ``window_halfwidth_in_h`` on an unbounded support).
    """
    lo, hi = kernel_window(center, h, support, params)
    if not lo < hi:
        return np.empty(0), np.empty(0)
    if not math.isfinite(hi - lo):
        half = params.window_halfwidth_in_h * h
        raise InvalidParameterError(
            f"kernel window [{center - half}, {center + half}] clipped to the support "
            f"[{support.lo}, {support.hi}] is unbounded; use a finite window_halfwidth_in_h "
            "or a bounded support")
    base_x, base_w = _leggauss(params.quad_nodes)
    mid = 0.5 * (lo + hi)
    scale = 0.5 * (hi - lo)
    nodes = mid + scale * base_x
    return nodes, kernel_weight(nodes - center, h) * (scale * base_w)


def _require_integral_args(caller, f, centers: dict, bandwidths: dict, support, params) -> None:
    """InvalidParameterError naming the argument unless ``f`` is callable,
    each of ``centers`` a finite number, each of ``bandwidths`` positive,
    ``support`` an Interval and ``params`` SmoothingParams."""
    _require_type(caller, "f", f, Callable)
    for name, center in centers.items():
        if not _is_number(center):
            raise InvalidParameterError(f"{caller} needs {name} as a finite number, got {center!r}")
    for name, h in bandwidths.items():
        _require_positive(f"{caller} bandwidth {name}", h)
    _require_type(caller, "support", support, Interval)
    _require_type(caller, "params", params, SmoothingParams)


def integrate_kernel_weighted(f, center, h, support, params):
    """``int K_h(s' - center) f(s') ds'`` over the truncated window.

    ``f`` must accept an ndarray of marker values and return an array of
    the same shape (scalars broadcast). Returns 0.0 when the window does
    not intersect the support.
    """
    _require_integral_args("integrate_kernel_weighted", f, {"center": center}, {"h": h},
                           support, params)
    nodes, wk = quad_rule(center, h, support, params)
    vals = np.asarray(f(nodes), dtype=float)
    vals = np.broadcast_to(vals, nodes.shape)
    if np.any(np.isnan(vals)):
        raise EvaluationError("integrand returned NaN inside the integration window")
    return float(np.sum(wk * vals))


def integrate_kernel_weighted_2d(f, c0, h0, c1, h1, support, params):
    """Tensor-product version: ``iint K_h0(s'-c0) K_h1(s''-c1) f(s', s'') ds' ds''``.

    ``f`` receives broadcastable arrays shaped ``(q0, 1)`` and ``(1, q1)``
    and must return the ``(q0, q1)`` integrand values. Returns 0.0 when
    either window does not intersect the support.
    """
    _require_integral_args("integrate_kernel_weighted_2d", f, {"c0": c0, "c1": c1},
                           {"h0": h0, "h1": h1}, support, params)
    x0, k0 = quad_rule(c0, h0, support, params)
    x1, k1 = quad_rule(c1, h1, support, params)
    vals = np.asarray(f(x0[:, None], x1[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (x0.size, x1.size))
    if np.any(np.isnan(vals)):
        raise EvaluationError("2d integrand returned NaN inside the integration window")
    return float(k0 @ vals @ k1)
