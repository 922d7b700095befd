"""Command-line surface: dataset ingestion, estimation reports, simulations.

Commands::

    stwcr estimate-stwcr    --input data.csv --a 1 --s 7 --h 0.1 ...
    stwcr estimate-stwcrve  --input data.csv --a1 1 --a0 0 --s1 8 --s0 7 ...
    stwcr simulate          --scenario I --n 1000 --reps 300 --query stwcr:1:7 ...
    stwcr emit-draws        --scenario I --n 10000 --out draws.csv

Estimation commands emit a single JSON report embedding every parameter
needed to reproduce it; ``simulate`` emits a metrics table (CSV by
default, ``--format json``) against exact quadrature truths, over
``--threads`` worker processes; ``emit-draws`` writes raw (b, s, a, x1)
draws for external plotting. Failures exit nonzero with a
machine-readable error JSON on stderr.

Flags may also be supplied through ``--config file.json`` holding the
same keys (dashes as underscores); explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import logging
import math
import re
import sys
import warnings

import numpy as np

from . import __version__
from .core import SmoothingParams
from .eif import StwcrQuery, StwcrveQuery
from .errors import DatasetParseError, InvalidParameterError, StwcrError
from .estimators import ModelSpecs, estimate_stwcr, estimate_stwcrve, make_folds
from .nuisance import Dataset
from .simulation import (
    ScenarioSpec,
    SimConfig,
    gen_dataset,
    run_monte_carlo,
)

SCHEMA_VERSION = 1

logger = logging.getLogger("stwcr.cli")

_X_COL = re.compile(r"^x(\d+)$")


def load_dataset(path, column_map=None, outcome_kind=None) -> Dataset:
    """Read a headed CSV into a Dataset.

    ``column_map`` may override the default column names
    {"y": "y", "a": "a", "s": "s", "b": "b", "x": ["x1", ..., "xp"]};
    by default every header matching x<digits> becomes a covariate, in
    numeric order. Cells may be quoted, and columns that are not selected
    may hold text. Parse failures name the offending row and column.
    """
    try:
        return _load_dataset(path, dict(column_map or {}), outcome_kind)
    except UnicodeDecodeError as exc:
        raise DatasetParseError(f"{path}: not UTF-8 text: {exc}") from None


def _load_dataset(path, column_map, outcome_kind) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DatasetParseError(f"{path}: empty file (header row required)") from None
    header = [c.strip() for c in header]
    names = {"y": column_map.get("y", "y"), "a": column_map.get("a", "a"),
             "s": column_map.get("s", "s"), "b": column_map.get("b", "b")}
    x_cols = column_map.get("x")
    if x_cols is None:
        matches = sorted(((int(m.group(1)), c) for c in header if (m := _X_COL.match(c))))
        x_cols = [c for _, c in matches]
    idx = {}
    for role, col in list(names.items()) + [(f"x:{c}", c) for c in x_cols]:
        if col not in header:
            raise DatasetParseError(f"{path}: missing column {col!r}")
        idx[role] = header.index(col)

    # Unselected columns still pass through the parser, as 0.0, so that a
    # ragged row raises; `usecols` would accept it.
    skip = {j: _unparsed_cell for j in range(len(header)) if j not in idx.values()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file, reported below
        try:
            table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=float, ndmin=2,
                               comments=None, quotechar='"', encoding="utf-8",
                               converters=skip)
        except ValueError as exc:
            _scan_rows(path, header, idx)
            # a cell the row pass accepts but loadtxt does not
            raise DatasetParseError(f"{path}: {exc}") from None
    clean = table.shape == (_count_lines(path) - 1, len(header))
    if clean:
        a = table[:, idx["a"]]
        clean = bool(np.isfinite(table).all() and np.all((a == 0.0) | (a == 1.0)))
    if not clean:
        # loadtxt skips blank lines and takes a lone ragged row's width as
        # the table's; the row pass names those, and any non-finite or
        # non-binary-treatment cell. A quoted cell spanning lines lands here
        # too, and passes.
        _scan_rows(path, header, idx)
    if table.shape[0] == 0:
        raise DatasetParseError(f"{path}: no data rows")
    return Dataset(y=table[:, idx["y"]], a=table[:, idx["a"]], s=table[:, idx["s"]],
                   b=table[:, idx["b"]], x=table[:, [idx[f"x:{c}"] for c in x_cols]],
                   covariate_names=tuple(x_cols), outcome_kind=outcome_kind)


def _unparsed_cell(cell):
    return 0.0


def _count_lines(path) -> int:
    """Lines in a file, an unterminated last line included."""
    lines, last = 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            last = chunk[-1:]
    return lines + (last != b"\n")


def _scan_rows(path, header, idx):
    """Raise DatasetParseError at the first ragged row or bad selected cell.

    A per-cell pass, run only on a file the vectorized parse rejected or
    flagged; it returns when it finds nothing wrong.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise DatasetParseError(f"{path}: row {i}: expected {len(header)} cells, got {len(row)}")
            for role, j in idx.items():
                cell = row[j].strip()
                try:
                    val = float(cell)
                except ValueError:
                    val = None
                # float() also reads "1_000" and non-ASCII digits, which
                # the vectorized parse rejects
                if val is None or "_" in cell or not cell.isascii():
                    raise DatasetParseError(
                        f"{path}: row {i}, column {header[j]!r}: non-numeric value {cell!r}")
                if not math.isfinite(val):
                    raise DatasetParseError(
                        f"{path}: row {i}, column {header[j]!r}: non-finite value {cell!r}")
                if role == "a" and val not in (0.0, 1.0):
                    raise DatasetParseError(
                        f"{path}: row {i}, column {header[j]!r}: treatment must be 0 or 1, got {cell!r}")


def parse_query(text: str):
    """Parse ``stwcr:a:s`` or ``stwcrve:a1:a0:s1:s0``."""
    parts = text.split(":")
    try:
        if parts[0] == "stwcr" and len(parts) == 3:
            return StwcrQuery(a=int(parts[1]), s=float(parts[2]))
        if parts[0] == "stwcrve" and len(parts) == 5:
            return StwcrveQuery(a1=int(parts[1]), a0=int(parts[2]),
                                s1=float(parts[3]), s0=float(parts[4]))
    except ValueError:
        pass
    raise InvalidParameterError(
        f"cannot parse query {text!r}; expected stwcr:a:s or stwcrve:a1:a0:s1:s0")


# command -> (help, query flags in query-field order (arms a* are ints, markers
# s* floats), query type, report fields beyond the common ones)
_ESTIMATE_COMMANDS = {
    "estimate-stwcr": (
        "risk estimate at one (arm, marker) query", ("a", "s"), StwcrQuery,
        ("tau_num_hat", "tau_den_hat", "tau_hat", "sigma1_sq_hat", "se", "ci")),
    "estimate-stwcrve": (
        "relative-efficacy estimate", ("a1", "a0", "s1", "s0"), StwcrveQuery,
        ("tau_num_hat", "tau_den_hat", "rho_hat", "delta_hat", "sigma2log_sq_hat",
         "sigma2_sq_hat", "ci_rho", "ci_delta", "log_scale")),
}


def _build_parser() -> argparse.ArgumentParser:
    # no prefix matching: `emit-draws --h` would otherwise read as --help
    p = argparse.ArgumentParser(prog="stwcr", allow_abbrev=False,
                                description="Trimmed smoothed controlled-risk estimation")
    p.add_argument("--version", action="version", version=f"stwcr {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file with default values for any flag")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    # unset flags stay None: the defaults live in SmoothingParams, ModelSpecs and SimConfig
    def add_estimation(sp):
        add_common(sp)
        sp.add_argument("--t", type=float, default=None,
                        help=f"trim threshold (default {SmoothingParams.t})")
        sp.add_argument("--epsilon", type=float, default=None,
                        help=f"indicator smoothing scale (default {SmoothingParams.epsilon})")
        sp.add_argument("--h", type=float, default=None)
        sp.add_argument("--h0", type=float, default=None)
        sp.add_argument("--h1", type=float, default=None)
        sp.add_argument("--alpha", type=float, default=None,
                        help=f"CI miscoverage (default {SmoothingParams.alpha})")
        sp.add_argument("--quad-nodes", type=int, default=None,
                        help=f"quadrature nodes (default {SmoothingParams.quad_nodes})")
        sp.add_argument("--window", type=float, default=None,
                        help="kernel truncation radius in bandwidths "
                             f"(default {SmoothingParams.window_halfwidth_in_h})")
        sp.add_argument("--folds", type=int, default=None,
                        help=f"number of cross-fitting folds (default {SimConfig.k_folds})")
        sp.add_argument("--known-propensity", type=float, default=None,
                        help="known treatment probability P(A=1|b,x) "
                             f"(default {ModelSpecs.known_propensity})")

    def add_columns(sp):
        sp.add_argument("--input", required=True, help="CSV file with a header row")
        sp.add_argument("--y-col", default=None)
        sp.add_argument("--a-col", default=None)
        sp.add_argument("--s-col", default=None)
        sp.add_argument("--b-col", default=None)
        sp.add_argument("--x-cols", default=None, help="comma-separated covariate columns")
        sp.add_argument("--outcome-kind", choices=("binary", "continuous"), default=None)

    for command, (help_text, query_args, _, _) in _ESTIMATE_COMMANDS.items():
        sp = sub.add_parser(command, help=help_text, allow_abbrev=False)
        add_columns(sp)
        for name in query_args:
            sp.add_argument(f"--{name}", type=int if name.startswith("a") else float, required=True)
        add_estimation(sp)

    sp = sub.add_parser("simulate", help="bias/coverage Monte Carlo", allow_abbrev=False)
    sp.add_argument("--scenario", required=True, choices=("I", "II", "III"))
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--reps", type=int, default=None)
    sp.add_argument("--query", action="append", default=None,
                    help="stwcr:a:s or stwcrve:a1:a0:s1:s0 (repeatable)")
    sp.add_argument("--threads", type=int, default=None, help="worker processes")
    sp.add_argument("--format", choices=("json", "csv"), default=None)
    add_estimation(sp)

    sp = sub.add_parser("emit-draws", help="write raw (b, s, a, x1) draws", allow_abbrev=False)
    sp.add_argument("--scenario", required=True, choices=("I", "II", "III"))
    sp.add_argument("--n", type=int, default=None)
    add_common(sp)
    return p


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the optional JSON config file."""
    path = getattr(args, "config", None)
    if not path:
        return args
    with open(path, "r", encoding="utf-8") as fh:
        conf = json.load(fh)
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise InvalidParameterError(f"unknown config key {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, val)
    return args


def _given(args, **fields) -> dict:
    """``{field: value}`` for each ``flag=field`` pair whose flag was set."""
    return {field: getattr(args, flag) for flag, field in fields.items()
            if getattr(args, flag) is not None}


def _params_from(args, need=()) -> SmoothingParams:
    given = _given(args, t="t", epsilon="epsilon", h="h", h0="h0", h1="h1", alpha="alpha",
                   quad_nodes="quad_nodes", window="window_halfwidth_in_h")
    if "quad_nodes" in given:
        given["quad_nodes"] = int(given["quad_nodes"])  # a --config value may read 64.0
    params = SmoothingParams(**given)
    for name in need:
        if getattr(params, name) is None:
            raise InvalidParameterError(f"--{name} is required for this command")
    return params


def _model_specs_from(args) -> ModelSpecs | None:
    """None, the estimators' default specs, unless --known-propensity is set."""
    kp = args.known_propensity
    return None if kp is None else ModelSpecs(known_propensity=float(kp))


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dataset_from_args(args) -> Dataset:
    column_map = {}
    for role in ("y", "a", "s", "b"):
        v = getattr(args, f"{role}_col", None)
        if v:
            column_map[role] = v
    if getattr(args, "x_cols", None):
        column_map["x"] = [c.strip() for c in args.x_cols.split(",") if c.strip()]
    return load_dataset(args.input, column_map, outcome_kind=getattr(args, "outcome_kind", None))


def _report_json(command, params, query_dict, extra) -> str:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "timestamp": datetime.datetime.now().isoformat(),
        "params": dataclasses.asdict(params),
        "query": query_dict,
    }
    report.update(extra)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _cmd_estimate(args) -> int:
    _, query_args, query_type, fields = _ESTIMATE_COMMANDS[args.command]
    # resolved by name per call, so a wrapper set on this module's name sees it
    estimate = estimate_stwcr if query_type is StwcrQuery else estimate_stwcrve
    query = {name: getattr(args, name) for name in query_args}
    data = _dataset_from_args(args)
    params = _params_from(args, need=("h",) if query_type is StwcrQuery else ("h0", "h1"))
    seed = args.seed if args.seed is not None else 0
    k = args.folds if args.folds is not None else SimConfig.k_folds
    folds = make_folds(len(data), k, seed)
    rep = estimate(data, query_type(**query), params, folds, model_specs=_model_specs_from(args))
    extra = {"input": args.input, "n": rep.n, "k_folds": k, "fold_seed": seed}
    for name in fields + ("density_floor_hits", "degenerate_folds", "warnings"):
        value = getattr(rep, name)
        extra[name] = list(value) if isinstance(value, tuple) else value
    _emit(_report_json(args.command, params, query, extra), args.out)
    return 0


def _queries_from(args):
    if not args.query:
        raise InvalidParameterError("at least one --query is required")
    return tuple(parse_query(q) for q in args.query)


def _sim_config_from(args) -> SimConfig:
    queries = _queries_from(args)
    need = set()
    for q in queries:
        need.update(("h",) if isinstance(q, StwcrQuery) else ("h0", "h1"))
    params = _params_from(args, need=sorted(need))
    return SimConfig(
        scenario=args.scenario,
        n=args.n if args.n is not None else 1000,
        reps=args.reps if args.reps is not None else 1,
        queries=queries, params=params, model_specs=_model_specs_from(args),
        **_given(args, folds="k_folds", seed="master_seed", threads="n_jobs"))


def _cmd_simulate(args) -> int:
    config = _sim_config_from(args)
    rows = run_monte_carlo(config)
    fmt = args.format or "csv"
    if fmt == "json":
        payload = [{"scenario": config.scenario, "n": config.n, "query": r.query,
                    "truth": r.truth, "mean_estimate": r.mean_estimate,
                    "pct_bias": r.pct_bias, "coverage": r.coverage,
                    "mean_se": r.mean_se, "reps": r.reps, "failed": r.failed}
                   for r in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        import io

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["scenario", "n", "query", "truth", "mean_estimate",
                    "pct_bias", "coverage", "mean_se", "reps", "failed"])
        for r in rows:
            w.writerow([config.scenario, config.n, r.query, f"{r.truth:.8g}",
                        f"{r.mean_estimate:.8g}", f"{r.pct_bias:.6g}", f"{r.coverage:.6g}",
                        f"{r.mean_se:.6g}", r.reps, r.failed])
        _emit(buf.getvalue(), args.out)
    return 0


def _cmd_emit_draws(args) -> int:
    n = args.n if args.n is not None else 10_000
    seed = args.seed if args.seed is not None else 1
    data = gen_dataset(ScenarioSpec(args.scenario, n, seed))
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["b", "s", "a", "x1"])
    for i in range(n):
        w.writerow([f"{data.b[i]:.8g}", f"{data.s[i]:.8g}", int(data.a[i]),
                    f"{data.x[i, 0]:.8g}"])
    _emit(buf.getvalue(), args.out)
    return 0


_COMMANDS = {
    "estimate-stwcr": _cmd_estimate,
    "estimate-stwcrve": _cmd_estimate,
    "simulate": _cmd_simulate,
    "emit-draws": _cmd_emit_draws,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return _COMMANDS[args.command](args)
    except (StwcrError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "type": type(exc).__name__}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
