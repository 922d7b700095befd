"""Command-line surface: dataset ingestion, estimation reports, simulations.

Commands::

    stwcr estimate-stwcr    --input data.csv --a 1 --s 7 --h 0.1 ...
    stwcr estimate-stwcrve  --input data.csv --a1 1 --a0 0 --s1 8 --s0 7 ...
    stwcr simulate          --scenario I --n 1000 --reps 300 --query stwcr:1:7 ...
    stwcr emit-draws        --scenario I --n 10000 --out trial.csv

Estimation commands emit a single JSON report embedding every parameter
needed to reproduce it; ``simulate`` emits a metrics table (CSV by
default, ``--format json``) against exact quadrature truths, over
``--threads`` worker processes; ``emit-draws`` writes a simulated trial,
columns ``y,a,s,b,x1,x2,x3``, as a CSV that the estimation commands read.
Failures exit nonzero with a machine-readable error JSON on stderr.

Each query kind comes from its class in ``eif.QUERY_TYPES``: the command
``estimate-<kind>``, its required query flags (the class's fields, arms
as integers and markers as numbers), the bandwidth flags it requires
(``bandwidths``), the ``simulate --query kind:field:...`` text
(``parse_query``) and the estimator ``estimate_<kind>``.

Flags may also be supplied through ``--config file.json`` holding the
same keys (dashes as underscores), each value of its flag's type;
explicit flags win.
"""

from __future__ import annotations

import argparse
import array
import csv
import dataclasses
import datetime
import io
import json
import math
import os
import re
import sys
import warnings
from collections.abc import Mapping
from typing import NamedTuple

import numpy as np

from . import __version__, parallel
from .core import MAX_QUAD_NODES, SmoothingParams, _is_number, _require_items, _require_type
from .eif import QUERY_TYPES, parse_query
from .errors import DatasetParseError, InvalidParameterError, StwcrError
# estimate_<kind> is looked up by name in _cmd_estimate
from .estimators import ModelSpecs, estimate_stwcr, estimate_stwcrve, make_folds  # noqa: F401
from .nuisance import Dataset, _require_outcome_kind
from .simulation import (
    ScenarioSpec,
    SimConfig,
    gen_dataset,
    run_monte_carlo,
)

__all__ = ["main", "load_dataset"]

SCHEMA_VERSION = 1

_X_COL = re.compile(r"^x(\d+)$")
_ROLES = ("y", "a", "s", "b", "x")  # the keys of load_dataset's column_map


def load_dataset(path, column_map=None, outcome_kind=None) -> Dataset:
    """Read a headed CSV into a Dataset.

    ``column_map`` may override the default column names
    {"y": "y", "a": "a", "s": "s", "b": "b", "x": ["x1", ..., "xp"]};
    by default every header matching x<digits> becomes a covariate, in
    numeric order. Each role and covariate reads its own column. Cells may
    be quoted, and columns that are not selected may hold text. Parse
    failures name the offending row and column.

    ``path`` is a str or ``os.PathLike``, never a file descriptor, which
    ``open`` would close. ``column_map``'s keys are among y, a, s, b and
    x, each role's value a column name and "x"'s a list or tuple of them.
    ``outcome_kind`` is None, "binary" or "continuous", as for ``Dataset``.
    Any other argument is an InvalidParameterError naming it, raised
    before the file is opened.
    """
    _require_type("load_dataset", "path", path, (str, os.PathLike))
    _require_type("load_dataset", "column_map", column_map, Mapping, optional=True)
    column_map = dict(column_map or {})
    for role, col in column_map.items():
        if role not in _ROLES:
            raise InvalidParameterError(f"load_dataset column_map has a key {role!r}; "
                                        f"the keys are {', '.join(_ROLES)}")
        if role == "x":
            _require_items("load_dataset", "column_map['x']", col, "each column name of column_map['x']",
                           str, (list, tuple))
        else:
            _require_type("load_dataset", f"each column name of column_map[{role!r}]", col, str)
    _require_outcome_kind(outcome_kind)
    try:
        return _load_dataset(path, column_map, outcome_kind)
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
    idx, role_of = {}, {}
    for role, col in list(names.items()) + [(f"x:{c}", c) for c in x_cols]:
        if col not in header:
            raise DatasetParseError(f"{path}: missing column {col!r}")
        if header.count(col) > 1:
            raise DatasetParseError(f"{path}: the header names column {col!r} more than once")
        if col in role_of:
            raise DatasetParseError(f"{path}: column {col!r} is read both as "
                                    f"{_column_use(role_of[col])} and as {_column_use(role)}")
        idx[role], role_of[col] = header.index(col), role

    # Unselected columns still pass through the parser, as 0.0, so that a
    # ragged row raises; `usecols` would accept it.
    skip = {j: _unparsed_cell for j in range(len(header)) if j not in idx.values()}
    lines = _count_lines(path)
    table = _parse_in_parts(path, lines, len(header), skip)
    if table is None:
        try:
            table = _loadtxt(path, skip, skiprows=1)
        except ValueError as exc:
            _scan_rows(path, header, idx)
            # a cell the row pass accepts but loadtxt does not
            raise DatasetParseError(f"{path}: {exc}") from None
    clean = table.shape == (lines.count - 1, len(header))
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


def _column_use(role) -> str:
    return "a covariate" if role.startswith("x:") else f"role {role!r}"


def _unparsed_cell(cell):
    return 0.0


def _loadtxt(source, converters, **rows):
    """The table of ``source``'s lines, a path or a text file; ``rows`` are
    loadtxt's ``skiprows`` or ``max_rows``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # header-only file, reported by the caller
        return np.loadtxt(source, delimiter=",", dtype=float, ndmin=2, comments=None,
                          quotechar='"', encoding="utf-8", converters=converters, **rows)


class _Lines(NamedTuple):
    """A file's line count, an unterminated last line included, whether the
    file is plain, and the byte offset of each of its newlines, found in
    one pass over ``_CHUNK``-byte chunks.

    A plain file holds no '"', no '\\r' and no empty line, so each of its
    lines after the header is one row of the table, and a part of its lines
    parses to the same rows as within the whole file: data row ``i`` starts
    at the byte after newline ``i``.
    """

    count: int
    plain: bool
    newlines: np.ndarray


_CHUNK = 1 << 20

# Rows each part of a plain file must have for it to be parsed in parts,
# on forked processes (_parse_in_parts). On 2 CPUs, medians of 30
# alternating pairs of load_dataset on an emitted Scenario II file: 10k
# rows took 11.6 ms on one process against 13.0 ms on two, 15k rows 17.3
# against 17.5 ms, and 20k rows 23.8 against 21.2 ms (two faster in 29 of
# 30 pairs), with or without 130 MB resident in the forking process.
_PART_ROWS = 10_000


def _count_lines(path) -> _Lines:
    """The ``_Lines`` of a file. The newlines are found with numpy, and
    their offsets grow one array: a list of per-chunk arrays leaves a hole
    in glibc's heap, which at 1e6 rows pushed a 46 MB block of the first
    fold fit onto fresh pages and raised ``estimate-stwcr``'s peak from 287
    to 325 MiB."""
    newlines, plain, size, last = array.array("q"), True, 0, b"\n"
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            at = size + np.flatnonzero(np.frombuffer(chunk, dtype=np.uint8) == ord("\n"))
            newlines.frombytes(at.tobytes())
            plain = plain and not (b'"' in chunk or b"\r" in chunk)
            size, last = size + len(chunk), chunk[-1:]
    newlines = np.frombuffer(newlines, dtype=np.int64)
    # an empty line is a newline first in the file, or right after another
    plain = plain and not (np.any(newlines[:1] == 0) or np.any(np.diff(newlines) == 1))
    return _Lines(newlines.size + (last != b"\n"), plain, newlines)


def _parse_in_parts(path, lines, width, converters):
    """The table of a plain file's data lines, parsed in up to
    ``parallel.fork_count()`` parts of at least ``_PART_ROWS`` lines each,
    on forked processes; None for another file, or when a part fails, which
    leaves the fault to the one-process parse."""
    rows = lines.count - 1
    parts = min(parallel.fork_count(), rows // _PART_ROWS) if lines.plain else 1
    if parts < 2:
        return None
    bounds = [rows * k // parts for k in range(parts + 1)]

    def parse(lo, hi):
        with open(path, "rb") as raw:
            raw.seek(int(lines.newlines[lo]) + 1)
            with io.TextIOWrapper(raw, encoding="utf-8") as fh:
                return _loadtxt(fh, converters, max_rows=hi - lo)

    try:
        return parallel.map_forked_rows(parse, list(zip(bounds, bounds[1:])), (rows, width))
    except ValueError:  # a bad cell or byte in the first part
        return None


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


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, and each command's subparser by name."""
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
        for name, kind in ((h, cls.kind) for cls in QUERY_TYPES.values() for h in cls.bandwidths):
            sp.add_argument(f"--{name}", type=float, default=None, help=f"bandwidth of a {kind} query")
        sp.add_argument("--alpha", type=float, default=None,
                        help=f"CI miscoverage (default {SmoothingParams.alpha})")
        sp.add_argument("--quad-nodes", type=int, default=None,
                        help=f"quadrature nodes, at most {MAX_QUAD_NODES} "
                             f"(default {SmoothingParams.quad_nodes})")
        sp.add_argument("--window", type=float, default=None,
                        help="kernel truncation radius in bandwidths "
                             f"(default {SmoothingParams.window_halfwidth_in_h})")
        sp.add_argument("--folds", type=int, default=None,
                        help=f"number of cross-fitting folds (default {SimConfig.k_folds})")
        sp.add_argument("--known-propensity", type=float, default=None,
                        help="known treatment probability P(A=1|b,x) "
                             f"(default {ModelSpecs.propensity})")

    def add_columns(sp):
        sp.add_argument("--input", required=True, help="CSV file with a header row")
        sp.add_argument("--y-col", default=None)
        sp.add_argument("--a-col", default=None)
        sp.add_argument("--s-col", default=None)
        sp.add_argument("--b-col", default=None)
        sp.add_argument("--x-cols", default=None, help="comma-separated covariate columns")
        sp.add_argument("--outcome-kind", choices=("binary", "continuous"), default=None)

    for kind, query_type in QUERY_TYPES.items():
        fields = query_type.field_types()
        sp = sub.add_parser(f"estimate-{kind}", allow_abbrev=False,
                            help=f"{kind.upper()} estimate at ({', '.join(fields)})")
        add_columns(sp)
        for name, typ in fields.items():
            sp.add_argument(f"--{name}", type=typ, required=True)
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

    sp = sub.add_parser("emit-draws", help="write a simulated trial (y,a,s,b,x1,x2,x3) as CSV",
                        allow_abbrev=False)
    sp.add_argument("--scenario", required=True, choices=("I", "II", "III"))
    sp.add_argument("--n", type=int, default=None)
    add_common(sp)
    return p, sub.choices


def _merge_config(args: argparse.Namespace, command: argparse.ArgumentParser) -> argparse.Namespace:
    """Fill unset flags from the optional JSON config file.

    Each value is checked against the type of ``command``'s flag of the same
    name and converted as that flag would convert it.
    """
    path = getattr(args, "config", None)
    if not path:
        return args
    try:
        with open(path, "r", encoding="utf-8") as fh:
            conf = json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path}: config is not UTF-8 text: {exc}") from None
    if not isinstance(conf, dict):
        raise InvalidParameterError(f"{path}: config must be a JSON object")
    actions = {action.dest: action for action in command._actions}
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr) or attr not in actions:
            raise InvalidParameterError(f"unknown config key {key!r}")
        val = _config_value(actions[attr], key, val)
        if getattr(args, attr) is None:
            setattr(args, attr, val)
    return args


def _config_value(action: argparse.Action, key: str, val):
    """``val`` as ``action``'s flag gives it, or InvalidParameterError."""
    if isinstance(action, argparse._AppendAction):
        if isinstance(val, list) and all(isinstance(v, str) for v in val):
            return val
        expected = "a list of strings"
    elif action.type in (int, float):
        # JSON true/false load as bool, a subclass of int; NaN and Infinity as floats
        number = _is_number(val, finite=False)
        if number and action.type is float:
            return float(val)
        if number and float(val).is_integer():
            return int(val)  # 64.0 from a JSON writer that types every number as float
        expected = "an integer" if action.type is int else "a number"
    elif isinstance(val, str) and (action.choices is None or val in action.choices):
        return val
    else:
        expected = ("one of " + ", ".join(action.choices)) if action.choices else "a string"
    raise InvalidParameterError(f"config key {key!r} must be {expected}, got {json.dumps(val)}")


def _given(args, **fields) -> dict:
    """``{field: value}`` for each ``flag=field`` pair whose flag was set."""
    return {field: getattr(args, flag) for flag, field in fields.items()
            if getattr(args, flag) is not None}


def _params_from(args, queries) -> SmoothingParams:
    """The smoothing flags as SmoothingParams; each bandwidth that one of
    ``queries`` needs, its ``bandwidths``, is a required flag."""
    given = _given(args, t="t", epsilon="epsilon", h="h", h0="h0", h1="h1", alpha="alpha",
                   quad_nodes="quad_nodes", window="window_halfwidth_in_h")
    params = SmoothingParams(**given)
    for name in sorted({name for q in queries for name in q.bandwidths}):
        if getattr(params, name) is None:
            raise InvalidParameterError(f"--{name} is required for this command")
    return params


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dataset_from_args(args) -> Dataset:
    column_map = {role: col for role in ("y", "a", "s", "b")
                  if (col := getattr(args, f"{role}_col", None))}
    if getattr(args, "x_cols", None):
        column_map["x"] = [c.strip() for c in args.x_cols.split(",") if c.strip()]
    return load_dataset(args.input, column_map, outcome_kind=getattr(args, "outcome_kind", None))


def _cmd_estimate(args) -> int:
    query_type = QUERY_TYPES[args.command.removeprefix("estimate-")]
    query = query_type(**{name: getattr(args, name) for name in query_type.field_types()})
    data = _dataset_from_args(args)
    params = _params_from(args, (query,))
    seed = args.seed if args.seed is not None else 0
    k = args.folds if args.folds is not None else SimConfig.k_folds
    folds = make_folds(len(data), k, seed)
    specs = ModelSpecs(**_given(args, known_propensity="propensity"))
    # estimate_<kind> resolved by name per call, so a wrapper set on this module's name sees it
    rep = globals()[f"estimate_{query.kind}"](data, query, params, folds, model_specs=specs)
    report = {"schema_version": SCHEMA_VERSION, "command": args.command,
              "timestamp": datetime.datetime.now().isoformat(), "params": dataclasses.asdict(params),
              "query": dataclasses.asdict(query), "input": args.input, "k_folds": k,
              "fold_seed": seed, **dataclasses.asdict(rep)}
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    if not args.query:
        raise InvalidParameterError("at least one --query is required")
    queries = tuple(parse_query(q) for q in args.query)
    config = SimConfig(
        scenario=args.scenario,
        n=args.n if args.n is not None else 1000,
        reps=args.reps if args.reps is not None else 1,
        queries=queries, params=_params_from(args, queries),
        model_specs=ModelSpecs(**_given(args, known_propensity="propensity")),
        **_given(args, folds="k_folds", seed="master_seed", threads="n_jobs"))
    rows = run_monte_carlo(config)
    if args.format == "json":
        payload = [{"scenario": config.scenario, "n": config.n, **dataclasses.asdict(r)}
                   for r in rows]
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
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
    buf = io.StringIO()
    # %.17g reads back as the same double
    np.savetxt(buf, np.column_stack([data.y, data.a, data.s, data.b, data.x]), fmt="%.17g",
               delimiter=",", header=",".join(["y", "a", "s", "b", *data.covariate_names]),
               comments="")
    _emit(buf.getvalue(), args.out)
    return 0


_COMMANDS = {
    **{f"estimate-{kind}": _cmd_estimate for kind in QUERY_TYPES},
    "simulate": _cmd_simulate,
    "emit-draws": _cmd_emit_draws,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, commands[args.command])
        return _COMMANDS[args.command](args)
    except (StwcrError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps(
            {"error": str(exc), "type": type(exc).__name__}, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
