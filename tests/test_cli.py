import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stwcr import cli, estimators, parallel
from stwcr.cli import _build_parser, _params_from, load_dataset, main, parse_query
from stwcr.core import SmoothingParams
from stwcr.eif import QUERY_TYPES, StwcrQuery, StwcrveQuery
from stwcr.errors import DatasetParseError, InvalidParameterError
from stwcr.estimators import (
    StwcrReport,
    StwcrveReport,
    estimate_stwcr,
    estimate_stwcrve,
    make_folds,
)
from stwcr.simulation import ScenarioSpec, SimConfig, gen_dataset
from test_parallel import assert_no_child_left


# csv's line end; TestLoadDatasetForked writes plain "\n" lines, whose
# files may be parsed in parts
LINE_END = "\r\n"


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator=LINE_END)
        w.writerow(header)
        w.writerows(rows)


def emit_trial(path, scenario, n, seed):
    """``path``, holding the trial ``gen_dataset(ScenarioSpec(scenario, n, seed))``
    as ``emit-draws`` writes it."""
    assert main(["emit-draws", "--scenario", scenario, "--n", str(n), "--seed", str(seed),
                 "--out", str(path)]) == 0
    return path


class TestLoadDataset:
    def test_roundtrip_small(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"],
                  [[1, 0, 5.0, 2.0, 0.3], [0, 1, 6.5, 1.0, 0.7], [1, 1, 7.2, 3.0, 0.1]])
        ds = load_dataset(p)
        assert len(ds) == 3
        assert ds.covariate_names == ("x1",)
        assert ds.outcome_kind == "binary"
        assert np.allclose(ds.s, [5.0, 6.5, 7.2])

    def test_bad_treatment_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"],
                  [[1, 0, 5.0, 2.0, 0.3], [0, 2, 6.5, 1.0, 0.7]])
        with pytest.raises(DatasetParseError, match="row 2.*treatment"):
            load_dataset(p)

    def test_non_numeric_names_cell(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"], [[1, 0, "oops", 2.0, 0.3]])
        with pytest.raises(DatasetParseError, match="row 1, column 's'"):
            load_dataset(p)

    @pytest.mark.parametrize("rows,message", [
        ([[1, 0, 5.0, 2.0, 0.3], [0, 1, 6.5, 1.0, 0.7, 9]], "row 2: expected 5 cells, got 6"),
        ([[1, 0, 5.0, 2.0, 0.3], [0, 1, 6.5, 1.0]], "row 2: expected 5 cells, got 4"),
        ([[1, 0, 5.0, 2.0]], "row 1: expected 5 cells, got 4"),
        ([[1, 0, 5.0, 2.0, 0.3], [], [0, 1, 6.5, 1.0, 0.7]], "row 2: expected 5 cells, got 0"),
    ])
    def test_ragged_row_named(self, tmp_path, rows, message):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"], rows)
        with pytest.raises(DatasetParseError, match=message):
            load_dataset(p)

    @pytest.mark.parametrize("cell,column", [("nan", "s"), ("-inf", "x1"), ("inf", "a")])
    def test_non_finite_names_cell(self, tmp_path, cell, column):
        row = {"y": 1, "a": 0, "s": 5.0, "b": 2.0, "x1": 0.3}
        row[column] = cell
        p = tmp_path / "d.csv"
        write_csv(p, list(row), [[0, 1, 6.5, 1.0, 0.7], list(row.values())])
        with pytest.raises(DatasetParseError,
                           match=f"row 2, column '{column}': non-finite value '{cell}'"):
            load_dataset(p)

    def test_quoted_numeric_cells(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('y,a,s,b,x1\n"1","0","5.5",2.0,"0.25"\n0,1,6.5,1.0,0.7\n')
        ds = load_dataset(p)
        assert ds.s.tolist() == [5.5, 6.5]
        assert ds.x[:, 0].tolist() == [0.25, 0.7]

    def test_unselected_text_column_ignored(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('id,y,a,s,b,x1\nP-01,1,0,5.0,2.0,0.3\n"Smith, J",0,1,6.5,1.0,0.7\n,1,1,7.0,1.0,0.1\n')
        ds = load_dataset(p)
        assert len(ds) == 3
        assert ds.a.tolist() == [0, 1, 1]

    def test_cell_float_accepts_but_parser_rejects(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"], [[1, 0, "1_000", 2.0, 0.3]])
        with pytest.raises(DatasetParseError,
                           match="row 1, column 's': non-numeric value '1_000'"):
            load_dataset(p)

    @pytest.mark.parametrize("cell", ["\u0663", "\uff13.5"])
    def test_non_ascii_digit_named(self, tmp_path, cell):
        # float() reads Arabic-Indic and fullwidth digits; loadtxt does not
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"], [[1, 0, cell, 2.0, 0.3]])
        with pytest.raises(DatasetParseError,
                           match=f"row 1, column 's': non-numeric value '{cell}'"):
            load_dataset(p)

    def test_not_utf8_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes("id,y,a,s,b,x1\ncaf\u00e9,1,0,5.0,2.0,0.3\n".encode("latin-1"))
        with pytest.raises(DatasetParseError, match="not UTF-8"):
            load_dataset(p)

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "x1"], [[1, 0, 5.0, 0.3]])
        with pytest.raises(DatasetParseError, match="missing column 'b'"):
            load_dataset(p)

    def test_column_mapping(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["outcome", "arm", "marker", "baseline", "age"],
                  [[1, 0, 5.0, 2.0, 41.0], [0, 1, 6.0, 1.0, 52.0]])
        ds = load_dataset(p, {"y": "outcome", "a": "arm", "s": "marker",
                              "b": "baseline", "x": ["age"]})
        assert ds.covariate_names == ("age",)

    @pytest.mark.parametrize("column_map,message", [
        ({"y": "a"}, "column 'a' is read both as role 'y' and as role 'a'"),
        ({"s": "x2"}, "column 'x2' is read both as role 's' and as a covariate"),
        ({"x": ["x1", "b"]}, "column 'b' is read both as role 'b' and as a covariate"),
        ({"x": ["x1", "x1"]}, "column 'x1' is read both as a covariate and as a covariate"),
    ], ids=["y_reads_a", "s_reads_x2", "covariate_reads_b", "covariate_twice"])
    def test_column_read_for_two_roles_rejected(self, tmp_path, column_map, message):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1", "x2"], [[1, 0, 5.0, 2.0, 0.3, 0.6]])
        with pytest.raises(DatasetParseError, match=message):
            load_dataset(p, column_map)

    @pytest.mark.parametrize("header", [["y", "a", "s", "b", "x1", "s"], ["y", "a", "s", "b", "x1", "x1"]],
                             ids=["role", "covariate"])
    def test_repeated_header_name_rejected(self, tmp_path, header):
        p = tmp_path / "d.csv"
        write_csv(p, header, [[1, 0, 5.0, 2.0, 0.3, 9.0], [0, 1, 6.5, 1.0, 0.7, 9.5]])
        with pytest.raises(DatasetParseError, match=f"names column '{header[-1]}' more than once"):
            load_dataset(p)

    def test_x_columns_autodetected_in_order(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "x2", "s", "b", "x1", "x10"],
                  [[1, 0, 0.5, 5.0, 2.0, 0.3, 0.9]])
        ds = load_dataset(p)
        assert ds.covariate_names == ("x1", "x2", "x10")

    def test_outcome_kind_override(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"], [[1, 0, 5.0, 2.0, 0.3], [0, 1, 6.0, 1.0, 0.7]])
        assert load_dataset(p, outcome_kind="continuous").outcome_kind == "continuous"

    def test_csv_roundtrip_estimate_identical(self, tmp_path):
        # each estimation command on an emitted trial reports what the
        # estimator gives on the trial in memory
        ds = gen_dataset(ScenarioSpec("I", 400, 13))
        trial = emit_trial(tmp_path / "trial.csv", "I", 400, 13)
        runs = [("estimate-stwcr", estimate_stwcr, StwcrQuery(1, 7.0), SmoothingParams(h=0.1),
                 ["--a", "1", "--s", "7", "--h", "0.1"]),
                ("estimate-stwcrve", estimate_stwcrve, StwcrveQuery(1, 0, 8.0, 7.0),
                 SmoothingParams(h0=0.1, h1=0.2),
                 ["--a1", "1", "--a0", "0", "--s1", "8", "--s0", "7",
                  "--h0", "0.1", "--h1", "0.2"])]
        for command, estimate, query, params, flags in runs:
            out = tmp_path / f"{command}.json"
            assert main([command, "--input", str(trial), *flags, "--folds", "5", "--seed", "3",
                         "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["timestamp"], report["input"]
            rep = estimate(ds, query, params, make_folds(400, 5, 3))
            expected = {"schema_version": 1, "command": command,
                        "params": dataclasses.asdict(params), "query": dataclasses.asdict(query),
                        "k_folds": 5, "fold_seed": 3, **dataclasses.asdict(rep)}
            assert report == json.loads(json.dumps(expected))  # tuples as JSON lists


def test_descriptor_path_rejected_and_left_open():
    # an int path would be opened as a file descriptor and closed with the file
    fd = os.dup(1)
    try:
        with pytest.raises(InvalidParameterError, match="load_dataset needs path"):
            load_dataset(fd)
        os.fstat(fd)  # OSError if the descriptor was closed
    finally:
        os.close(fd)


def load_outcome(path):
    """``load_dataset(path)``'s columns, or the message it raised."""
    try:
        ds = load_dataset(path)
    except DatasetParseError as exc:
        return str(exc)
    return [(name, getattr(ds, name).dtype, getattr(ds, name).tobytes())
            for name in ("y", "a", "s", "b", "x")] + [ds.covariate_names, ds.outcome_kind]


@pytest.fixture()
def fork_results(monkeypatch):
    """What each ``map_forked_rows`` call gave: a table, None for a child
    that failed, or the exception of the first part."""
    results, real = [], parallel.map_forked_rows

    def recording(*args):
        try:
            results.append(real(*args))
        except ValueError as exc:
            results.append(exc)
            raise
        return results[-1]

    monkeypatch.setattr(parallel, "map_forked_rows", recording)
    yield results
    assert_no_child_left()


class TestLoadDatasetForked(TestLoadDataset):
    """Every ingest test again, with files of two or more rows written with
    plain line ends and parsed in up to three forked parts."""

    @pytest.fixture(autouse=True)
    def _forked(self, fork_results, monkeypatch, thread_pools):
        thread_pools.use(3)
        monkeypatch.setattr(cli, "_PART_ROWS", 1)
        monkeypatch.setattr(sys.modules[__name__], "LINE_END", "\n")
        self.parses = fork_results

    def test_clean_file_parsed_in_parts(self, tmp_path):
        p = tmp_path / "d.csv"
        write_csv(p, ["y", "a", "s", "b", "x1"],
                  [[1, i % 2, 5.0 + i, 2.0, 0.1 * i] for i in range(7)])
        ds = load_dataset(p)
        assert [t.shape for t in self.parses] == [(7, 5)]
        assert ds.s.tolist() == [5.0 + i for i in range(7)]
        assert ds.x[:, 0].tolist() == [0.1 * i for i in range(7)]

    # Nine rows in three parts of three: each fault sits in row 2 (the
    # first part, parsed in this process) or row 8 (the last, in a child).
    FAULTS = {
        "blank line": lambda line: "\n" + line,
        "quoted cell spanning lines": lambda line: '"P\n' + line[1:].replace(",", '",', 1),
        "CRLF line end": lambda line: line.replace("\n", "\r\n"),
        "non-numeric cell": lambda line: line.replace(",5.", ",oops", 1),
        "ragged row": lambda line: line.replace(",0.5\n", "\n"),
    }

    @pytest.mark.parametrize("row", [2, 8], ids=["first_part", "last_part"])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_gives_one_process_outcome(self, tmp_path, monkeypatch, fault, row):
        header = "id,y,a,s,b,x1\n"
        lines = [f"P{i},{i % 2},{(i // 2) % 2},5.{i},2.0,0.5\n" for i in range(1, 10)]
        lines[row - 1] = self.FAULTS[fault](lines[row - 1])
        p = tmp_path / "d.csv"
        p.write_bytes((header + "".join(lines)).encode())
        forked = load_outcome(p)
        assert_no_child_left()
        monkeypatch.setattr(cli, "_PART_ROWS", 10**9)
        assert forked == load_outcome(p)
        # the faults whose bytes make a file not plain take the one parse
        assert len(self.parses) == (fault in ("non-numeric cell", "ragged row"))
        if fault == "blank line":
            # a split on line counts alone would have read a row twice
            assert forked.endswith(f"row {row}: expected 6 cells, got 0")
        elif fault == "non-numeric cell":
            assert forked.endswith(f"row {row}, column 's': non-numeric value 'oops{row}'")
            assert [isinstance(t, np.ndarray) for t in self.parses] == [False]
        elif fault == "ragged row":
            assert forked.endswith(f"row {row}: expected 6 cells, got 5")
            assert [isinstance(t, np.ndarray) for t in self.parses] == [False]
        else:
            assert not isinstance(forked, str)

    def test_no_child_left_after_success_or_failure(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = [[1, 0, 5.0, 2.0, 0.3]] * 6
        write_csv(p, ["y", "a", "s", "b", "x1"], rows)
        load_dataset(p)
        assert_no_child_left()
        write_csv(p, ["y", "a", "s", "b", "x1"], rows + [[1, 0, "oops", 2.0, 0.3]])
        with pytest.raises(DatasetParseError, match="row 7, column 's'"):
            load_dataset(p)
        assert_no_child_left()
        assert [isinstance(t, np.ndarray) for t in self.parses] == [True, False]


@example(data=b"", chunk=1)
@example(data=b"\ny\n1\n", chunk=4)  # an empty first line
@example(data=b"y\n1\n\n2\n", chunk=4)  # an empty line whose two newlines fall in two chunks
@example(data=b"y\n1\n2", chunk=3)  # a last line with no newline
@example(data=b'y\n1\n2\n3"\n', chunk=2)  # a quote in a late chunk
@example(data=b"y\n1\n2\n3\r\n", chunk=2)  # a carriage return in a late chunk
@given(data=st.lists(st.sampled_from([b"1", b",", b"\n", b'"', b"\r"]), max_size=40).map(b"".join),
       chunk=st.integers(1, 5))
@settings(max_examples=200, deadline=None)
def test_count_lines_matches_bytes(tmp_path_factory, data, chunk):
    # chunks of a few bytes, so that lines and empty lines span them
    path = tmp_path_factory.getbasetemp() / "count_lines.csv"
    path.write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK", chunk)
        lines = cli._count_lines(path)
    assert lines.count == data.count(b"\n") + (data[-1:] not in (b"", b"\n"))
    assert lines.plain == (b'"' not in data and b"\r" not in data and not data.startswith(b"\n")
                           and b"\n\n" not in data)
    # a part from data row b on starts at line 1 + b, the byte after newline b
    starts = np.cumsum([len(line) + 1 for line in data.split(b"\n")[:-1]])
    assert (lines.newlines + 1).tolist() == starts.tolist()


def test_large_file_parsed_in_parts_as_in_one(tmp_path, thread_pools, fork_results):
    # from 2 * _PART_ROWS rows a plain file is parsed in two parts
    thread_pools.use(2)
    trial = emit_trial(tmp_path / "trial.csv", "II", 2 * cli._PART_ROWS, 7)
    forked = load_outcome(trial)
    assert [t.shape for t in fork_results] == [(2 * cli._PART_ROWS, 7)]
    assert_no_child_left()
    thread_pools.use(1)
    assert forked == load_outcome(trial)
    assert len(fork_results) == 1


class TestParseQuery:
    def test_forms(self):
        assert parse_query("stwcr:1:7") == StwcrQuery(a=1, s=7.0)
        assert parse_query("stwcrve:1:0:8:7") == StwcrveQuery(a1=1, a0=0, s1=8.0, s0=7.0)

    def test_rejects_malformed(self):
        for bad in ("stwcr:1", "stwcrve:1:0:8", "risky:1:7", "stwcr:x:7"):
            with pytest.raises(InvalidParameterError):
                parse_query(bad)


def _query_of(query_type):
    return st.builds(query_type, **{
        name: st.sampled_from((0, 1)) if typ is int else st.floats(allow_nan=False, allow_infinity=False)
        for name, typ in query_type.field_types().items()})


_QUERIES = st.sampled_from(tuple(QUERY_TYPES.values())).flatmap(_query_of)
_PARSER, _COMMANDS = _build_parser()


class TestQuerySurface:
    """What each query kind tells the CLI and the harness, for drawn arms and finite markers."""

    @settings(max_examples=100, deadline=None)
    @given(q=_QUERIES, other=_QUERIES)
    def test_text_label_bandwidths_and_flags(self, q, other):
        types = q.field_types()
        # values as text: an arm as its integer, a marker as its round-trip repr
        text = {name: str(getattr(q, name)) if typ is int else repr(float(getattr(q, name)))
                for name, typ in types.items()}
        assert parse_query(":".join((q.kind, *text.values()))) == q

        # STWCR(a=1,s=7): each field in order, each marker a float that reads back as itself
        match = re.fullmatch(rf"{q.kind.upper()}\(" + ",".join(f"{name}=([^,]+)" for name in types)
                             + r"\)", q.label)
        assert match is not None, q.label
        for (name, typ), written in zip(types.items(), match.groups()):
            assert typ(written) == getattr(q, name)
        assert q == other or q.label != other.label
        marker = next(name for name, typ in types.items() if typ is float)
        value = getattr(q, marker)
        nudged = dataclasses.replace(q, **{marker: math.nextafter(value, 0.0 if value else 1.0)})
        assert nudged.label != q.label

        # --h, or --h0 and --h1: exactly the query's bandwidths are required
        unset = {"t": None, "epsilon": None, "alpha": None, "quad_nodes": None, "window": None}
        for name in ("h", "h0", "h1"):
            others = {h: 0.1 for h in ("h", "h0", "h1") if h != name}
            args = argparse.Namespace(**unset, **others, **{name: None})
            if name in q.bandwidths:
                with pytest.raises(InvalidParameterError, match=f"--{name} is required"):
                    _params_from(args, (q,))
            else:
                _params_from(args, (q,))

        # estimate-<kind> requires --input and the query's fields, and reads them back
        command = f"estimate-{q.kind}"
        required = {action.dest for action in _COMMANDS[command]._actions if action.required}
        assert required == {"input", *types}
        args = _PARSER.parse_args([command, "--input", "trial.csv",
                                   *(f"--{name}={value}" for name, value in text.items())])
        assert type(q)(**{name: getattr(args, name) for name in types}) == q


@pytest.fixture()
def trial_csv(tmp_path):
    return emit_trial(tmp_path / "trial.csv", "I", 400, 14)


class TestMain:
    def test_estimate_stwcr_report(self, trial_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--h", "0.1", "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["query"] == {"a": 1, "s": 7.0}
        assert report["params"]["h"] == 0.1
        assert "tau_hat" in report and "ci" in report and "timestamp" in report
        assert report["fold_seed"] == 3

    def test_report_reproducible_apart_from_timestamp(self, trial_csv, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                       "--h", "0.1", "--seed", "3", "--out", str(out)])
            assert rc == 0
            rep = json.loads(out.read_text())
            rep.pop("timestamp")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]

    def test_estimate_stwcrve_report(self, trial_csv, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["estimate-stwcrve", "--input", str(trial_csv), "--a1", "1", "--a0", "0",
                   "--s1", "8", "--s0", "7", "--h0", "0.1", "--h1", "0.1",
                   "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert "delta_hat" in report and "ci_delta" in report and "ci_rho" in report

    @pytest.mark.parametrize("command,flags,report_type", [
        ("estimate-stwcr", ["--a", "1", "--s", "7", "--h", "0.1"], StwcrReport),
        ("estimate-stwcrve", ["--a1", "1", "--a0", "0", "--s1", "8", "--s0", "7",
                              "--h0", "0.1", "--h1", "0.1"], StwcrveReport),
    ])
    def test_report_keys_are_common_plus_report_fields(self, trial_csv, tmp_path, command, flags,
                                                       report_type):
        out = tmp_path / "r.json"
        assert main([command, "--input", str(trial_csv), *flags, "--out", str(out)]) == 0
        common = {"schema_version", "command", "timestamp", "params", "query", "input",
                  "k_folds", "fold_seed"}
        fields = {f.name for f in dataclasses.fields(report_type)}
        assert set(json.loads(out.read_text())) == common | fields

    @pytest.mark.parametrize("command,flags", [
        ("estimate-stwcr", ["--a", "1", "--s", "7", "--h", "0.1"]),
        ("estimate-stwcrve", ["--a1", "1", "--a0", "0", "--s1", "8", "--s0", "7",
                              "--h0", "0.1", "--h1", "0.1"]),
    ])
    def test_estimator_resolved_per_call(self, trial_csv, tmp_path, monkeypatch,
                                         command, flags):
        # a wrapper set on the module's name (as a tracer does) sees the call
        from stwcr import cli

        name = command.replace("-", "_")
        calls = []
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(1) or real(*a, **k))
        rc = main([command, "--input", str(trial_csv), *flags,
                   "--out", str(tmp_path / "r.json")])
        assert rc == 0 and calls == [1]

    def test_missing_bandwidth_fails(self, trial_csv, capsys):
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "--h" in err["error"]

    def test_absent_arm_error(self, tmp_path, capsys):
        # the treated rows of an emitted trial
        header, *rows = emit_trial(tmp_path / "trial.csv", "I", 400, 15).read_text().splitlines()
        p = tmp_path / "one_arm.csv"
        p.write_text("\n".join([header, *(row for row in rows if row.split(",")[1] == "1")]))
        rc = main(["estimate-stwcr", "--input", str(p), "--a", "0", "--s", "7", "--h", "0.1"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "arm not present in training folds" in err["error"]

    def test_simulate_smoke_csv(self, tmp_path):
        out = tmp_path / "metrics.csv"
        rc = main(["simulate", "--scenario", "I", "--n", "300", "--reps", "2",
                   "--query", "stwcr:1:7", "--h", "0.1",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        with out.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["query"] == "STWCR(a=1,s=7)"
        assert rows[0]["reps"] == "2"
        assert set(rows[0]) == {"scenario", "n", "query", "truth", "mean_estimate",
                                "pct_bias", "coverage", "mean_se", "reps", "failed"}

    def test_emit_draws(self, tmp_path):
        out = tmp_path / "trial.csv"
        rc = main(["emit-draws", "--scenario", "II", "--n", "500", "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "y,a,s,b,x1,x2,x3"
        assert len(lines) == 501

    @pytest.mark.parametrize("scenario", ["I", "II", "III"])
    def test_emitted_trial_loads_as_drawn(self, tmp_path, scenario):
        drawn = gen_dataset(ScenarioSpec(scenario, 2000, 21))
        loaded = load_dataset(emit_trial(tmp_path / "trial.csv", scenario, 2000, 21))
        for column in ("y", "a", "s", "b", "x"):
            assert np.array_equal(getattr(loaded, column), getattr(drawn, column)), column
        assert loaded.outcome_kind == drawn.outcome_kind
        assert loaded.covariate_names == drawn.covariate_names

    def test_emit_draws_without_out_writes_stdout(self, tmp_path, capsys):
        emitted = emit_trial(tmp_path / "trial.csv", "III", 60, 4).read_text()
        assert main(["emit-draws", "--scenario", "III", "--n", "60", "--seed", "4"]) == 0
        assert capsys.readouterr().out == emitted

    def test_config_file_merging(self, trial_csv, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"h": 0.1, "seed": 3}))
        out = tmp_path / "r.json"
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--config", str(conf), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["params"]["h"] == 0.1 and report["fold_seed"] == 3
        # explicit flag wins over the file value
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--config", str(conf), "--seed", "8", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["fold_seed"] == 8

    def test_unknown_config_key_fails(self, trial_csv, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"bandwidth": 0.1}))
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--config", str(conf)])
        assert rc == 1
        assert "bandwidth" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_simulate_json_format(self, tmp_path):
        out = tmp_path / "metrics.json"
        rc = main(["simulate", "--scenario", "I", "--n", "300", "--reps", "2",
                   "--query", "stwcr:1:7", "--h", "0.1", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload[0]["query"] == "STWCR(a=1,s=7)"

    def test_simulate_zero_truth_gives_nan_pct_bias(self, tmp_path):
        out = tmp_path / "metrics.json"
        rc = main(["simulate", "--scenario", "I", "--n", "300", "--reps", "2",
                   "--query", "stwcrve:1:1:7:7", "--h0", "0.1", "--h1", "0.1",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())[0]
        assert row["truth"] == 0.0
        assert math.isnan(row["pct_bias"])

    @pytest.mark.parametrize("flag", [["--threads", "2"], ["--format", "json"]])
    @pytest.mark.parametrize("command", ["estimate-stwcr", "emit-draws"])
    def test_simulate_only_flags_rejected(self, trial_csv, command, flag):
        args = (["--input", str(trial_csv), "--a", "1", "--s", "7", "--h", "0.1"]
                if command == "estimate-stwcr" else ["--scenario", "I"])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, *flag])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--h", "0.1"], ["--quad-nodes", "3"], ["--t", "0.9"],
                                      ["--folds", "3"], ["--known-propensity", "0.4"]])
    def test_emit_draws_rejects_estimation_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["emit-draws", "--scenario", "I", *flag])
        assert exc.value.code == 2

    def test_unset_flags_take_dataclass_defaults(self, trial_csv, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--h", "0.1", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["params"] == dataclasses.asdict(SmoothingParams(h=0.1))
        assert report["k_folds"] == SimConfig.k_folds

    def test_config_quad_nodes_cast_to_int(self, trial_csv, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"h": 0.1, "quad_nodes": 32.0}))
        out = tmp_path / "r.json"
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--config", str(conf), "--out", str(out)])
        assert rc == 0
        assert json.dumps(json.loads(out.read_text())["params"]["quad_nodes"]) == "32"

    @pytest.mark.parametrize("argv, conf, message", [
        (["simulate", "--scenario", "I", "--n", "200", "--query", "stwcr:1:7", "--h", "0.1"],
         {"t": "0.2"}, "config key 't' must be a number, got \"0.2\""),
        (None, {"quad_nodes": 64.7}, "config key 'quad_nodes' must be an integer, got 64.7"),
        (None, {"quad_nodes": True}, "must be an integer, got true"),
        (None, {"t": False}, "must be a number, got false"),
        (None, {"out": 5}, "must be a string, got 5"),
        (["simulate", "--scenario", "I", "--h", "0.1"], {"query": "stwcr:1:7"},
         "must be a list of strings"),
        (["simulate", "--scenario", "I", "--query", "stwcr:1:7", "--h", "0.1"],
         {"format": "xml"}, "must be one of json, csv"),
        (None, [0.1], "config must be a JSON object"),
        (None, {"t": math.nan}, "config key 't' must be a number, got NaN"),
        (None, {"quad_nodes": 10 ** 400}, "config key 'quad_nodes' must be an integer, got 1000"),
    ])
    def test_config_value_type_checked(self, trial_csv, tmp_path, capsys, argv, conf, message):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        argv = argv or ["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                        "--h", "0.1"]
        assert main(argv + ["--config", str(path)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "InvalidParameterError" and message in err["error"]

    def test_config_numbers_take_flag_type(self, trial_csv, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"h": 1, "folds": 4.0, "seed": 2.0}))
        out = tmp_path / "r.json"
        rc = main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                   "--config", str(conf), "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert json.dumps([report["params"]["h"], report["k_folds"], report["fold_seed"]]) == \
            "[1.0, 4, 2]"

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--scenario", "I", "--n", "60", "--query", "stwcr:1:7", "--h", "0.1",
          "--threads", "0"], "need n_jobs >= 1, got 0"),
        (["simulate", "--scenario", "I", "--n", "60", "--query", "stwcr:1:7", "--h", "0.1",
          "--threads", "-1"], "need n_jobs >= 1, got -1"),
        (["simulate", "--scenario", "I", "--n", "60", "--query", "stwcr:1:7", "--h", "0.1",
          "--seed", "-1"], "master_seed must be nonnegative"),
        (["emit-draws", "--scenario", "I", "--n", "60", "--seed", "-1"], "seed must be nonnegative"),
        (["--quad-nodes", "100000000"], "quad_nodes must be an integer in 8..1024"),
        (["--seed", "-1"], "fold seed must be nonnegative"),
        (["simulate", "--scenario", "I", "--n", "1000", "--reps", "40", "--query", "stwcr:1:7",
          "--h", "0.1", "--known-propensity", "1.5"], "known propensity must lie in (0,1)"),
    ])
    def test_out_of_range_flag_gives_error_json(self, trial_csv, capsys, argv, message):
        if argv[0].startswith("--"):
            argv = ["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                    "--h", "0.1", *argv]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "InvalidParameterError" and message in err["error"]

    @pytest.mark.parametrize("flag, conf", [(["--epsilon", "inf"], None), ([], {"epsilon": math.inf}),
                                            (["--epsilon", "nan"], None)])
    def test_nonfinite_epsilon_gives_error_json(self, trial_csv, tmp_path, capsys, monkeypatch,
                                                flag, conf):
        # rejected when the parameters are built, not after the fold fits
        fits = []
        monkeypatch.setattr(estimators, "fit_cond_density", lambda *args: fits.append(args))
        argv = ["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7", "--h", "0.1",
                *flag]
        if conf is not None:
            path = tmp_path / "conf.json"
            path.write_text(json.dumps(conf))  # writes Infinity, which json.loads reads back
            argv += ["--config", str(path)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "InvalidParameterError"
        assert "epsilon must be positive and finite" in err["error"] and fits == []

    def test_config_not_utf8_gives_error_json(self, trial_csv, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_bytes('{"h": 0.1, "note": "café"}'.encode("latin-1"))
        assert main(["estimate-stwcr", "--input", str(trial_csv), "--a", "1", "--s", "7",
                     "--config", str(conf)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["type"] == "InvalidParameterError" and "not UTF-8" in err["error"]

    def test_truth_command_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["truth", "--scenario", "I", "--query", "stwcr:1:7", "--h", "0.1"])
        assert exc.value.code == 2


# Every flag of every command, with values a user might pass: good ones,
# out-of-range ones and ones of the wrong type. {name} is a file of the
# cli_files fixture. Sizes stay small: --n at most 60, --reps at most 2.
_FLAG_VALUES = {
    "--input": ["{csv}", "{missing}", "{latin1}", "{empty}"],
    "--y-col": ["y", "nope"], "--a-col": ["a", "b"], "--s-col": ["s"], "--b-col": ["b", "s"],
    "--x-cols": ["x1", "x1,x2", "nope", ","],
    "--outcome-kind": ["binary", "continuous", "ordinal"],
    "--a": ["1", "0", "2", "x"], "--a1": ["1", "0", "-1"], "--a0": ["0", "1", "2"],
    "--s": ["7", "8.5", "-1e3", "nan", "inf"], "--s1": ["8", "nan"], "--s0": ["7", "1e308"],
    "--h0": ["0.1", "0", "nan"], "--h1": ["0.2", "-1", "1e-300", "inf"],
    "--h": ["0.1", "0.3", "0", "-0.1", "1e-9", "1e-300", "nan", "inf", "x"],
    "--t": ["0.1", "0.5", "0", "1", "nan"], "--epsilon": ["0.1", "0", "-1", "1e-300", "inf"],
    "--alpha": ["0.05", "0", "1", "nan"],
    "--quad-nodes": ["8", "64", "4", "1025", "100000000", "64.5", "x"],
    "--window": ["8", "4", "3", "1e6", "inf", "nan"],
    "--folds": ["2", "5", "1", "0", "-3", "500"],
    "--known-propensity": ["0.5", "0", "1", "nan"],
    "--seed": ["0", "7", "-1", "x"], "--scenario": ["I", "II", "III", "IV"],
    "--n": ["-5", "0", "49", "50", "60", "x"], "--reps": ["-1", "0", "1", "2"],
    "--threads": ["-1", "0", "1", "2", "x"],
    "--query": ["stwcr:1:7", "stwcrve:1:0:8:7", "stwcr:2:7", "stwcr:1:nan", "junk"],
    "--format": ["json", "csv", "xml"],
    "--out": ["{out}", "{dir}"], "--config": ["{missing}", "{latin1}", "{empty}"],
    "--bogus": ["1"],
}

# A complete command line per command, which the drawn flags extend and override.
_BASES = {
    "estimate-stwcr": ["--input", "{csv}", "--a", "1", "--s", "7", "--h", "0.1"],
    "estimate-stwcrve": ["--input", "{csv}", "--a1", "1", "--a0", "0", "--s1", "8",
                         "--s0", "7", "--h0", "0.1", "--h1", "0.1"],
    "simulate": ["--scenario", "I", "--n", "60", "--reps", "1", "--query", "stwcr:1:7",
                 "--h", "0.1"],
    "emit-draws": ["--scenario", "II", "--n", "50"],
}

_CONFIG_KEYS = sorted({flag[2:].replace("-", "_") for flag in _FLAG_VALUES} - {"n", "reps"})
_JSON_VALUES = (st.none() | st.booleans() | st.integers(-3, 100) | st.sampled_from([0.1, 0.5, -1.0, 8.0])
                | st.sampled_from(["0.2", "I", "json", "stwcr:1:7", ""])
                | st.lists(st.sampled_from(["stwcr:1:7", "junk"]), max_size=2))


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_runs")
    emit_trial(root / "trial.csv", "I", 60, 16)
    (root / "latin1.json").write_bytes('{"t": 0.2, "name": "café"}'.encode("latin-1"))
    (root / "empty.csv").write_text("")
    return {"csv": root / "trial.csv", "missing": root / "missing.csv",
            "latin1": root / "latin1.json", "empty": root / "empty.csv",
            "out": root / "out.txt", "dir": root, "conf": root / "conf.json"}


def _command_flags():
    """Each command's own flags, from the parser."""
    _, commands = _build_parser()
    return {name: sorted(flag for action in sub._actions for flag in action.option_strings
                         if flag in _FLAG_VALUES)
            for name, sub in commands.items()}


@st.composite
def cli_runs(draw):
    """(argv with {file} placeholders, --config dict or None). Most flags are
    the command's own; one in ten is any flag, usually a usage error."""
    command = draw(st.sampled_from([*_BASES, "bogus"]))
    own = _command_flags().get(command, [])
    argv = [command] + (_BASES.get(command, []) if draw(st.integers(0, 3)) else [])
    for _ in range(draw(st.integers(0, 4))):
        anywhere = not own or draw(st.integers(0, 9)) == 0
        flag = draw(st.sampled_from(sorted(_FLAG_VALUES) if anywhere else own))
        argv += [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    keys = [key for key in _CONFIG_KEYS if f"--{key.replace('_', '-')}" in own] or _CONFIG_KEYS
    conf = draw(st.none() | st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=3))
    return argv, conf


class TestNoTraceback:
    @settings(max_examples=150, deadline=None)
    @given(run=cli_runs())
    def test_any_argv_ends_in_report_error_or_usage(self, cli_files, run):
        argv, conf = run
        argv = [token.format(**cli_files) for token in argv]
        if conf is not None:
            cli_files["conf"].write_text(json.dumps(conf))
            argv += ["--config", str(cli_files["conf"])]
        cli_files["out"].unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(cli_files["dir"])  # an --out from the config is a relative path
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code == 2:
                assert "usage:" in err.getvalue()
            elif code == 1:
                error = json.loads(err.getvalue().strip().splitlines()[-1])
                assert set(error) == {"error", "type"}
            else:
                assert code == 0
                flags = [v for f, v in zip(argv, argv[1:]) if f == "--out"]
                target = flags[-1] if flags else (conf or {}).get("out")
                if target:
                    with open(target, encoding="utf-8") as fh:
                        report = fh.read()
                else:
                    report = out.getvalue()
                assert report.strip()
        finally:
            os.chdir(cwd)


def test_import_leaves_out_scipy_stats():
    # scipy.stats takes about a second to import, which every CLI call would pay
    code = "import sys, stwcr, stwcr.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    # past the row counts from which fold fits and grid blocks run on threads
    return emit_trial(tmp_path_factory.mktemp("large") / "trial.csv", "II", 40_000, 18)


@pytest.mark.parametrize("command,flags", [
    ("estimate-stwcr", ["--a", "1", "--s", "9", "--h", "0.1"]),
    ("estimate-stwcrve", ["--a1", "1", "--a0", "0", "--s1", "9", "--s0", "8",
                          "--h0", "0.1", "--h1", "0.1"]),
], ids=["stwcr", "stwcrve"])
def test_report_same_under_any_blas_threads_and_cpu_mask(large_csv, command, flags):
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    runs = [({"OPENBLAS_NUM_THREADS": "1"}, []), ({"OPENBLAS_NUM_THREADS": "2"}, [])]
    if shutil.which("taskset"):
        runs.append(({}, ["taskset", "-c", "0"]))
    reports = []
    for blas, prefix in runs:
        done = subprocess.run([*prefix, sys.executable, "-m", "stwcr.cli", command,
                               "--input", str(large_csv), *flags],
                              env={**env, **blas}, capture_output=True, text=True, check=True,
                              timeout=120)
        lines = done.stdout.splitlines(keepends=True)
        reports.append("".join(line for line in lines if '"timestamp"' not in line))
    assert reports == reports[:1] * len(runs)
