"""Trimmed, smoothed controlled-risk estimation for vaccine correlates analyses.

The public surface is each module's ``__all__``, re-exported here and
listed in ``__all__``: smoothing/quadrature primitives (:mod:`stwcr.core`),
nuisance models (:mod:`stwcr.nuisance`), queries and influence values
(:mod:`stwcr.eif`), cross-fitted estimators (:mod:`stwcr.estimators`),
the synthetic-trial oracle and Monte Carlo harness
(:mod:`stwcr.simulation`) and the error classes (:mod:`stwcr.errors`).
The command line's ``main`` and ``load_dataset`` are in :mod:`stwcr.cli`,
which is not imported here. Names outside those lists, such as the fold
plan's row parts and batch influence functions, are internal.
"""

from . import core, eif, errors, estimators, nuisance, simulation
from .core import *  # noqa: F401,F403
from .eif import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .nuisance import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403

__all__ = [name for module in (core, eif, errors, estimators, nuisance, simulation)
           for name in module.__all__]

__version__ = "0.1.0"
