"""Never a raw error, as one property over the declared public surface.

The surface is ``stwcr.__all__`` and ``stwcr.cli.load_dataset``. The
``calls`` fixture holds one cheap valid call of each callable on it,
naming every parameter. Each test replaces one argument at a time with
each hostile value, over every (argument, value) pair rather than a random
draw, so the run is the same every time: the call must return or raise a
``StwcrError``. An ``OSError`` is allowed only from ``load_dataset`` given
a path that does not exist.
"""

import inspect
import math
import os

import numpy as np
import pytest

import stwcr
from stwcr import cli, errors
from stwcr.core import Interval, SmoothingParams
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.errors import StwcrError
from stwcr.estimators import ModelSpecs, make_folds
from stwcr.nuisance import FeatureSpec, Observation, intercept, raw
from stwcr.simulation import ScenarioSpec, SimConfig, gen_dataset, true_nuisances


def hostile_values() -> dict:
    """Fresh each time, so that no call sees an array another call was given."""
    return {"none": None, "str": "x", "bytes": b"x", "list": [0.5, 1], "dict": {"a": 1},
            "bool": True, "huge_int": 10 ** 400, "nan": math.nan, "inf": math.inf,
            "minus_inf": -math.inf, "str_array": np.array(["a", "b"]),
            "nan_array": np.array([math.nan, math.nan]), "array_2d": np.ones((2, 2)),
            "object": object(), "lambda": lambda *args, **kwargs: None}


PARAMS = SmoothingParams(t=0.1, epsilon=0.1, h=0.1, h0=0.1, h1=0.1, quad_nodes=8)
DATA = gen_dataset(ScenarioSpec("I", 100, 1))
FOLDS = make_folds(100, 2, 0)
NAMES = ("x1", "x2", "x3")
RISK, VE = StwcrQuery(1, 7.0), StwcrveQuery(1, 0, 8.0, 7.0)
SPEC = FeatureSpec([intercept(), raw("b")])
OBS = Observation(y=1.0, a=1, s=7.0, b=2.0, x=(0.0, 0.5, 0.5))
NUIS = true_nuisances("I")
CONFIG = SimConfig("I", 200, 1, (RISK,), PARAMS, k_folds=2)
SURFACE = sorted({name for name in stwcr.__all__ if callable(getattr(stwcr, name))} | {"load_dataset"})


@pytest.fixture(scope="module")
def calls(tmp_path_factory) -> dict:
    """Each callable's name: the callable and the keyword arguments of one valid call."""
    csv_path = tmp_path_factory.mktemp("surface") / "trial.csv"
    csv_path.write_text("y,a,s,b,x1\n1,0,5.0,2.0,0.3\n0,1,6.5,1.0,0.7\n1,1,7.5,3.0,0.1\n",
                        encoding="utf-8")
    columns = {name: getattr(DATA, name) for name in ("y", "a", "s", "b", "x", "covariate_names")}
    report = dict(tau_num_hat=0.1, tau_den_hat=0.5, n=100, density_floor_hits=0, degenerate_folds=0,
                  warnings=())
    oracle = dict(kind="stwcr", scenario="I", num=0.1, den=0.5, ratio=0.2, mc_se=0.01, num_se=0.01,
                  den_se=0.01, mc_size=100_000, seed=1)
    table = {
        "SmoothingParams": dict(t=0.1, epsilon=0.1, h=0.1, h0=None, h1=None, alpha=0.05,
                                quad_nodes=8, window_halfwidth_in_h=8.0),
        "Interval": dict(lo=0.0, hi=10.0),
        "kernel_weight": dict(u=0.5, h=0.1),
        "smooth_indicator": dict(p=0.3, t=0.1, epsilon=0.1),
        "smooth_indicator_deriv": dict(p=0.3, t=0.1, epsilon=0.1),
        "integrate_kernel_weighted": dict(f=lambda s: s, center=7.0, h=0.1,
                                          support=Interval(0.0, 10.0), params=PARAMS),
        "integrate_kernel_weighted_2d": dict(f=lambda s0, s1: s0 * s1, c0=7.0, h0=0.1, c1=8.0,
                                             h1=0.1, support=Interval(0.0, 10.0), params=PARAMS),
        "EifPair": dict(num=0.1, den=0.5),
        "StwcrQuery": dict(a=1, s=7.0),
        "StwcrveQuery": dict(a1=1, a0=0, s1=8.0, s0=7.0),
        "parse_query": dict(text="stwcr:1:7"),
        "eif_stwcr": dict(obs=OBS, q=RISK, nuis=NUIS, params=PARAMS),
        "eif_stwcrve": dict(obs=OBS, q=VE, nuis=NUIS, params=PARAMS),
        **{name: {} for name in errors.__all__},  # an error class takes any arguments
        "FoldAssignment": dict(k_folds=2, labels=[1, 2, 1, 2]),
        "ModelSpecs": dict(propensity=0.5, cond_density_spec=None, outcome_spec=None),
        "StwcrReport": dict(report, tau_hat=0.2, sigma1_sq_hat=0.1, se=0.03, ci=(0.14, 0.26)),
        "StwcrveReport": dict(report, rho_hat=0.2, delta_hat=0.8, sigma2log_sq_hat=0.1,
                              ci_rho=(0.1, 0.3), ci_delta=(0.7, 0.9), sigma2_sq_hat=0.1,
                              log_scale=True),
        "make_folds": dict(n=10, k=2, seed=0),
        "estimate_stwcr": dict(data=DATA, q=RISK, params=PARAMS, folds=FOLDS,
                               model_specs=ModelSpecs(), nuisances=None),
        "estimate_stwcrve": dict(data=DATA, q=VE, params=PARAMS, folds=FOLDS,
                                 model_specs=ModelSpecs(), nuisances=None),
        "Observation": dict(y=1.0, a=1, s=7.0, b=2.0, x=(0.0, 0.5, 0.5)),
        "Dataset": dict(columns, outcome_kind=None),
        "FeatureSpec": dict(terms=[intercept(), raw("b")]),
        "intercept": {},
        "raw": dict(name="b"),
        "square": dict(name="x2"),
        "interaction": dict(name1="x1", name2="x2"),
        "KnownPropensity": dict(prob_treated=0.5),
        "PropensityModel": dict(spec=SPEC, coef=np.zeros(2), covariate_names=NAMES),
        "CondDensityModel": dict(spec=SPEC, coef=np.zeros(2), covariate_names=NAMES, residual_sd=1.0),
        "OutcomeModel": dict(spec=SPEC, coef=np.zeros(2), covariate_names=NAMES, kind="logistic"),
        "NuisanceTriple": dict(propensity=NUIS.propensity, cond_density=NUIS.cond_density,
                               outcome=NUIS.outcome, support=NUIS.support),
        "irls_logistic": dict(design=np.column_stack([np.ones(100), DATA.b]), labels=DATA.y,
                              ridge=1e-8, start=None, rows=[(0, 40), (60, 100)]),
        "fit_propensity": dict(data=DATA, spec=SPEC, ridge=1e-8, start=None),
        "fit_cond_density": dict(data=DATA, spec=SPEC),
        "fit_outcome": dict(data=DATA, spec=FeatureSpec([intercept(), raw("s")]), ridge=1e-8,
                            start=None),
        "support_bounds": dict(data=DATA),
        "ScenarioSpec": dict(scenario="I", n=60, seed=1),
        "SimConfig": dict(scenario="I", n=200, reps=1, queries=(RISK,), params=PARAMS, k_folds=2,
                          master_seed=1, model_specs=ModelSpecs(), n_jobs=1),
        "MetricsRow": dict(query=RISK.label, truth=0.1, mean_estimate=0.1, pct_bias=0.0,
                           coverage=1.0, mean_se=0.01, reps=1, failed=0),
        "OracleResult": oracle,
        "gen_dataset": dict(spec=ScenarioSpec("I", 60, 1)),
        "true_nuisances": dict(scenario="I"),
        "oracle_estimand": dict(kind="stwcr", scenario="I", query=RISK, params=PARAMS,
                                mc_size=100_000, seed=1),
        "direct_plain_smoothed_risk": dict(scenario="I", a=1, s=7.0, h=0.1, mc_size=1000, seed=7),
        "compute_truths": dict(scenario="I", queries=(RISK,), params=PARAMS),
        "run_monte_carlo": dict(config=CONFIG),
        "load_dataset": dict(path=str(csv_path), column_map=None, outcome_kind=None),
    }
    return {name: (getattr(cli if name == "load_dataset" else stwcr, name), kwargs)
            for name, kwargs in table.items()}


def _named_parameters(fn) -> set:
    try:
        sig = inspect.signature(fn)
    except ValueError:  # the error classes, which take any arguments
        return set()
    return {p.name for p in sig.parameters.values() if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)}


def test_calls_cover_the_surface(calls):
    """One valid call, naming every parameter, of each callable on the
    surface and no other; each returns. ``stwcr.__all__`` names no name twice."""
    assert len(stwcr.__all__) == len(set(stwcr.__all__))
    assert sorted(calls) == SURFACE
    for name, (fn, kwargs) in calls.items():
        assert set(kwargs) == _named_parameters(fn), name
        fn(**kwargs)


@pytest.mark.parametrize("name", SURFACE)
def test_hostile_argument_returns_or_raises_typed_error(calls, name):
    fn, kwargs = calls[name]
    raw_errors = []
    for arg in kwargs:
        for label, value in hostile_values().items():
            try:
                fn(**{**kwargs, arg: value})
            except StwcrError:
                pass
            except OSError as exc:
                if not (name == "load_dataset" and arg == "path" and not os.path.exists(value)):
                    raw_errors.append(f"{arg}={label}: {type(exc).__name__}: {exc}")
            except Exception as exc:  # noqa: BLE001 - every other error is the finding
                raw_errors.append(f"{arg}={label}: {type(exc).__name__}: {exc}")
    assert raw_errors == []
