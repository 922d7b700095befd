import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from stwcr.cli import load_dataset, main, parse_query
from stwcr.core import SmoothingParams
from stwcr.eif import StwcrQuery, StwcrveQuery
from stwcr.errors import DatasetParseError, InvalidParameterError
from stwcr.estimators import estimate_stwcr, make_folds
from stwcr.simulation import ScenarioSpec, SimConfig, gen_dataset


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def export_dataset(ds, path):
    header = ["y", "a", "s", "b", *ds.covariate_names]
    rows = [[repr(float(ds.y[i])), int(ds.a[i]), repr(float(ds.s[i])), repr(float(ds.b[i])),
             *[repr(float(v)) for v in ds.x[i]]] for i in range(len(ds))]
    write_csv(path, header, rows)


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
        ds = gen_dataset(ScenarioSpec("I", 400, 13))
        p = tmp_path / "trial.csv"
        export_dataset(ds, p)
        reloaded = load_dataset(p)
        params = SmoothingParams(t=0.1, epsilon=0.1, h=0.1)
        folds = make_folds(400, 5, 3)
        a = estimate_stwcr(ds, StwcrQuery(1, 7.0), params, folds)
        b = estimate_stwcr(reloaded, StwcrQuery(1, 7.0), params, folds)
        assert a.tau_hat == b.tau_hat
        assert a.ci == b.ci


class TestParseQuery:
    def test_forms(self):
        assert parse_query("stwcr:1:7") == StwcrQuery(a=1, s=7.0)
        assert parse_query("stwcrve:1:0:8:7") == StwcrveQuery(a1=1, a0=0, s1=8.0, s0=7.0)

    def test_rejects_malformed(self):
        for bad in ("stwcr:1", "stwcrve:1:0:8", "risky:1:7", "stwcr:x:7"):
            with pytest.raises(InvalidParameterError):
                parse_query(bad)


@pytest.fixture()
def trial_csv(tmp_path):
    ds = gen_dataset(ScenarioSpec("I", 400, 14))
    p = tmp_path / "trial.csv"
    export_dataset(ds, p)
    return p


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
        ds = gen_dataset(ScenarioSpec("I", 200, 15))
        forced_rows = [[int(ds.y[i]), 1, repr(float(ds.s[i])), repr(float(ds.b[i])),
                        *[repr(float(v)) for v in ds.x[i]]] for i in range(len(ds))]
        p = tmp_path / "one_arm.csv"
        write_csv(p, ["y", "a", "s", "b", "x1", "x2", "x3"], forced_rows)
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
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["query"] == "STWCR(a=1,s=7)"
        assert rows[0]["reps"] == "2"
        assert set(rows[0]) == {"scenario", "n", "query", "truth", "mean_estimate",
                                "pct_bias", "coverage", "mean_se", "reps", "failed"}

    def test_emit_draws(self, tmp_path):
        out = tmp_path / "draws.csv"
        rc = main(["emit-draws", "--scenario", "II", "--n", "500", "--seed", "9",
                   "--out", str(out)])
        assert rc == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 500
        assert set(rows[0]) == {"b", "s", "a", "x1"}

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

    def test_truth_command_removed(self):
        with pytest.raises(SystemExit) as exc:
            main(["truth", "--scenario", "I", "--query", "stwcr:1:7", "--h", "0.1"])
        assert exc.value.code == 2
