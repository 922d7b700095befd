"""Host-speed yardstick: fixed kernels timed between a workload's rounds.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a third over seconds to minutes, as other tenants come and go. The
drift moves every operation's wall time together. This module measures
it with three fixed kernels that stand apart from the package and mimic
its mix of work:

- ``small_arrays``: cross-fitted ridge-logistic IRLS and a kernel-grid
  average on 800 rows, many small numpy calls (like ``sweep-1k``);
- ``parse``: ``csv.reader`` and ``float`` over 2,000 rows of text held
  in memory (like the CSV ingest of ``csv-estimate-200k``);
- ``large_arrays``: a 4,000 x 64 normal-CDF grid (like the grid
  evaluation of ``csv-estimate-200k``).

One *block* runs each kernel once. Its speed factor is the geometric mean
of the kernels' times over their nominal times ``NOMINAL_S``: 1.0 at the
nominal speed, 1.3 when the host runs 30% slow. A workload divides each
operation's wall time by the factor measured around it, so its timings
read in seconds at the nominal host speed. The nominal times are fixed
constants (about the kernels' times on a 2-vCPU x86-64 VM, Python 3.11,
numpy 2.4, one BLAS thread); they set the scale and never change
between the commits being compared. The kernels do not touch ``stwcr``.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from time import perf_counter

import numpy as np
from scipy.special import expit, ndtr

NOMINAL_S = {"small_arrays": 0.006, "parse": 0.0125, "large_arrays": 0.0165}
# Boundaries fall between rounds, at most this often.
EVERY_S = 1.0
# At a boundary the yardstick spends about this share of the time since
# the previous boundary, in whole blocks, at least one.
SHARE = 0.08
MAX_BLOCKS = 25
# A segment's factor is the median over this many boundaries on each
# side of it, so one disturbed block does not move its operations.
HALF_WINDOW = 2

_rng = np.random.default_rng(20_261_017)
_N = 800
_X = np.column_stack([np.ones(_N), _rng.random((_N, 6))])
_Y = (_rng.random(_N) < expit(_X @ _rng.normal(0.0, 1.0, 7))).astype(float)
_S = _rng.normal(6.0, 1.5, _N)
_FOLD = np.arange(_N) % 5
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_CSV = "y,a,s,b,x1,x2,x3\n" + "".join(
    f"{int(r[0] < 0.4)},{int(r[1] < 0.5)},{r[2] * 9.0!r},{r[3] * 5.0!r},{int(r[4] < 0.3)},{r[5]!r},{r[6]!r}\n"
    for r in _rng.random((2_000, 7)).tolist())
_MU = _rng.normal(6.0, 1.0, 4_000)
_P = _rng.random(4_000)


def _irls(X, y, ridge=1e-8, tol=1e-9):
    beta = np.zeros(X.shape[1])
    eye = np.eye(X.shape[1])

    def penalized_ll(b, eta):
        return float(y @ eta - np.sum(np.logaddexp(0.0, eta)) - 0.5 * ridge * b @ b)

    eta = X @ beta
    ll = penalized_ll(beta, eta)
    for _ in range(50):
        p = expit(eta)
        grad = X.T @ (y - p) - ridge * beta
        if float(np.max(np.abs(grad))) < tol:
            break
        w = np.clip(p * (1.0 - p), 1e-10, None)
        step = np.linalg.solve(X.T @ (X * w[:, None]) + ridge * eye, grad)
        scale = 1.0
        while True:
            cand = beta + scale * step
            cand_eta = X @ cand
            cand_ll = penalized_ll(cand, cand_eta)
            if cand_ll >= ll - 1e-12 * (1.0 + abs(ll)) or scale < 1e-6:
                break
            scale *= 0.5
        beta, eta, ll = cand, cand_eta, cand_ll
    return beta


def small_arrays():
    total = 0.0
    for k in range(5):
        train = _FOLD != k
        beta = _irls(_X[train], _Y[train])
        coef = np.linalg.lstsq(_X[train], _S[train], rcond=None)[0]
        grid = 6.0 + 0.3 * _NODES
        dens = np.exp(-0.5 * np.subtract.outer(_X[~train] @ coef, grid) ** 2)
        trim = ndtr((expit(np.add.outer(_X[~train] @ beta, 0.01 * grid)) - 0.3) / 0.05)
        total += float(np.mean(np.sum(dens * trim * _WEIGHTS, axis=1)))
    return total


def parse():
    cols = [[] for _ in range(7)]
    reader = csv.reader(io.StringIO(_CSV))
    next(reader)
    for row in reader:
        for j, cell in enumerate(row):
            value = float(cell.strip())
            if not math.isfinite(value):
                raise ValueError(cell)
            cols[j].append(value)
    return float(np.asarray(cols).sum())


def large_arrays():
    gap = np.subtract.outer(_MU, 6.0 + 0.5 * _NODES)
    dens = np.exp(-0.5 * gap * gap)
    trim = np.clip(ndtr((np.add.outer(_P, 0.01 * _NODES) - 0.3) / 0.05), 1e-300, 1.0)
    return float(np.sum(dens * trim * _WEIGHTS) / _MU.size)


KERNELS = {"small_arrays": small_arrays, "parse": parse, "large_arrays": large_arrays}


def block():
    """Run each kernel once; returns the block's speed factor."""
    logs = []
    for name, kernel in KERNELS.items():
        t0 = perf_counter()
        kernel()
        logs.append(math.log((perf_counter() - t0) / NOMINAL_S[name]))
    return math.exp(sum(logs) / len(logs))


class Yardstick:
    """Speed factors at the boundaries between a workload's rounds."""

    def __init__(self):
        block()  # warm-up: first calls pay for lazy set-up
        self.factors = []

    def boundary(self, since_last_s):
        """Run blocks worth about ``SHARE`` of ``since_last_s``; record their median."""
        blocks = min(MAX_BLOCKS, max(1, round(SHARE * since_last_s / sum(NOMINAL_S.values()))))
        self.factors.append(statistics.median(block() for _ in range(blocks)))

    @property
    def segment(self):
        """Index of the segment that starts at the latest boundary."""
        return len(self.factors) - 1

    def adjust(self, times, segments):
        """Divide each time by the factor around its segment (see ``HALF_WINDOW``)."""
        return [t / self.segment_factor(k) for t, k in zip(times, segments)]

    def segment_factor(self, k):
        lo = max(0, k - HALF_WINDOW + 1)
        return statistics.median(self.factors[lo:k + HALF_WINDOW + 1])
