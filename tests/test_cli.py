"""Tests for the command-line surface and its exit codes."""

import contextlib
import csv
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spatialfl import cli
from spatialfl.cli import main
from spatialfl.errors import ConfigError, SpatialFLError
from spatialfl.federation import serialize_model
from spatialfl.nn import ModelParams, flat_length

SPEC = {"n_regions": 2, "clients_per_region": 2, "rows_per_client": 30,
        "n_classes": 2, "noise_rate": 0.0, "seed": 3}


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return path


def run_module(*args):
    """Run ``python -m spatialfl`` in a fresh interpreter, as a user would."""
    env_src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "spatialfl", *args],
        capture_output=True, text=True, env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin"},
    )


def synthetic_config_file(tmp_path, **overrides):
    raw = {
        "seed": 4,
        "data": {"kind": "synthetic", "spec": SPEC},
        "training": {"learning_rate": 0.05, "epochs": 3},
        "aggregation": {"mode": "sample_weighted", "rounds": 2},
        "output_dir": str(tmp_path / "out"),
    }
    raw.update(overrides)
    return write_json(tmp_path / "config.json", raw)


class TestValidateConfig:
    def test_valid_config_exits_zero(self, tmp_path, capsys):
        path = synthetic_config_file(tmp_path)
        assert main(["validate-config", "--config", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json", {"data": {"kind": "csv"}, "oops": 1})
        assert main(["validate-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "oops" in err and "path" in err

    def test_missing_config_exits_two(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "none.json")]) == 2

    def test_directory_as_data_path_exits_two_naming_it(self, tmp_path, capsys):
        folder = tmp_path / "d1"
        folder.mkdir()
        path = write_json(tmp_path / "config.json", {"data": {"kind": "csv", "path": "d1"}})
        for command in ("validate-config", "run"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err.splitlines() == [f"config error: data.path is a directory: {folder}"]

    def test_key_of_the_other_data_kind_exits_two_naming_it(self, tmp_path, capsys):
        path = synthetic_config_file(tmp_path, data={"kind": "synthetic", "spec": SPEC, "path": 5})
        assert main(["validate-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: unknown key 'path' in data for kind 'synthetic'"]


class TestRun:
    def test_run_writes_reports_and_models(self, tmp_path, capsys):
        path = synthetic_config_file(tmp_path)
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        for name in ("report.json", "tier_accuracy.csv", "global_comparison.csv",
                     "client_predictions.csv"):
            assert (out / name).exists()
        assert (out / "models" / "global.bin").exists()
        assert "n_tier_fl" in capsys.readouterr().out

    def test_seed_override_changes_report(self, tmp_path):
        path = synthetic_config_file(tmp_path)
        main(["run", "--config", str(path), "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["run", "--config", str(path), "--out", str(tmp_path / "b"), "--seed", "2"])
        report_a = json.loads((tmp_path / "a" / "report.json").read_text())
        report_b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report_a != report_b
        assert report_a["seeds"]["master"] == 1

    def test_labels_with_commas_quotes_and_spaces(self, tmp_path, capsys):
        # The report CSVs quote what must be quoted, and every node gets a
        # model file of its own, though "st 1" and "st_1" differ only in a
        # character that is not safe in a file name.
        labels = ["Paris, FR", 'say "hi"', "st 1", "st_1"]
        with (tmp_path / "geo.csv").open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(GEO_HEADER.split(","))
            for i in range(32):
                k = i % 4
                writer.writerow([labels[k], f"c{k % 2}", 44.0 + k, -66.0 - k,
                                 f"2020-01-{1 + i // 4:02d}", i * 1.5, i % 5 / 4])
        config = write_json(tmp_path / "config.json", {
            "data": {"kind": "csv", "path": "geo.csv"}, "training": {"epochs": 1}, "min_rows": 3,
            "baselines": [], "output_dir": str(tmp_path / "out")})
        assert main(["run", "--config", str(config)]) == 0
        out = tmp_path / "out"
        ids = {}
        for name in ("tier_accuracy.csv", "client_predictions.csv"):
            with (out / name).open(newline="", encoding="utf-8") as handle:
                rows = list(csv.reader(handle))
            assert {len(row) for row in rows} == {4}, name
            ids[name] = {row[0] for row in rows[1:]}
        assert ids["client_predictions.csv"] == set(labels)
        assert ids["tier_accuracy.csv"] == {*labels, "c0", "c1", "global"}
        models = list((out / "models").glob("*.bin"))
        assert len(models) == 7
        assert f"wrote {4 + len(models)} files" in capsys.readouterr().out

    def test_thin_client_data_exits_three(self, tmp_path):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("client_label,latitude,longitude,ref_date,target,feature_1\n"
                            "NB,45.0,-66.0,2020-01-01,1.0,0.5\n")
        config = write_json(tmp_path / "config.json",
                            {"data": {"kind": "csv", "path": str(csv_path)}})
        assert main(["run", "--config", str(config)]) == 3

    @pytest.mark.parametrize("header, row, named", [
        ("client_label", "NB,45.0,-66.0,2020-01-01,1.0,inf",
         "line 2: column 'feature_1' holds non-finite value 'inf'"),
        ("client_label", "global,45.0,-66.0,2020-01-01,1.0,0.5",
         "line 2: column 'client_label' holds 'global', the reserved label"),
        ("client_label,level_1", "stn1,global,45.0,-66.0,2020-01-01,1.0,0.5",
         "line 2: column 'level_1' holds 'global', the reserved label"),
    ])
    def test_bad_cell_exits_three_naming_it(self, tmp_path, capsys, header, row, named):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(f"{header},latitude,longitude,ref_date,target,feature_1\n{row}\n")
        config = write_json(tmp_path / "config.json",
                            {"data": {"kind": "csv", "path": str(csv_path)}})
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0]

    @pytest.mark.parametrize("paths, named", [
        ([("s1", "c1", "p1"), ("c1", "c1", "p1")], "label 'c1' is used at levels [0, 1]"),
        ([("s1", "c1", "p1"), ("s2", "c1", "p2")],
         "label 'c1' at level 1 has conflicting parents: ['p1', 'p2']"),
    ], ids=["label-at-two-levels", "two-parents"])
    def test_hierarchy_label_collision_exits_three_naming_it(self, tmp_path, capsys, paths, named):
        rows = [f"{','.join(path)},45.0,-66.0,2020-01-{day:02d},{day}.5,0.{day}"
                for path in paths for day in range(1, 9)]
        csv_path = tmp_path / "geo.csv"
        csv_path.write_text("\n".join(["client_label,level_1,level_2,latitude,longitude,ref_date,target,feature_1",
                                       *rows]) + "\n")
        config = write_json(tmp_path / "config.json", {
            "data": {"kind": "csv", "path": str(csv_path)}, "training": {"epochs": 1}, "baselines": [],
            "output_dir": str(tmp_path / "out")})
        assert main(["run", "--config", str(config)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and named in err[0], err

    def test_divergent_training_exits_four_naming_client_and_round(self, tmp_path):
        path = synthetic_config_file(tmp_path, training={"learning_rate": 1e300, "epochs": 2})
        result = run_module("run", "--config", str(path))
        assert result.returncode == 4
        err = result.stderr.splitlines()
        assert len(err) == 1, result.stderr
        assert "client 'r00c00' in round 1: training diverged" in err[0]

    @pytest.mark.parametrize("mode, baselines, message", [
        ("uniform", [], "error [stage=federated]: round 1: node 'region00': aggregate diverged "
                        "(layer1_weights contains non-finite entries)"),
        ("sample_weighted", ["flat_fedavg"], "error [stage=baselines]: flat_fedavg baseline: aggregate "
                                             "diverged (layer1_weights contains non-finite entries)"),
    ])
    def test_overflowing_aggregate_exits_four_naming_it(self, tmp_path, mode, baselines, message):
        # One Adam step of about the learning rate leaves every client's
        # parameters near +-1e308: finite, but a plain sum of three overflows.
        path = synthetic_config_file(
            tmp_path, data={"kind": "synthetic", "spec": {**SPEC, "clients_per_region": 3, "rows_per_client": 40}},
            training={"learning_rate": 1e308, "epochs": 1, "batch_size": 64},
            aggregation={"mode": mode, "rounds": 1}, baselines=baselines)
        result = run_module("run", "--config", str(path))
        assert result.returncode == 4, result.stderr
        assert result.stderr.splitlines() == [message]

    def test_overflowing_logits_exit_four_naming_the_node(self, tmp_path):
        # Sample-weighted aggregates of those near-overflow client models
        # stay finite, but scoring them overflows.
        path = synthetic_config_file(
            tmp_path, data={"kind": "synthetic", "spec": {**SPEC, "clients_per_region": 3, "rows_per_client": 40}},
            training={"learning_rate": 1e308, "epochs": 1, "batch_size": 64},
            aggregation={"mode": "sample_weighted", "rounds": 1}, baselines=[])
        result = run_module("run", "--config", str(path))
        assert result.returncode == 4, result.stderr
        assert result.stderr.splitlines() == [
            "error [stage=evaluate]: node 'r00c00': scoring diverged (non-finite logits)"]

    def test_out_of_memory_exits_four_in_one_line(self, tmp_path, capsys, monkeypatch):
        # A config such as hidden_dim 1e12 asks for more memory than there
        # is; the allocation is simulated, not made.
        def allocate(config):
            raise MemoryError("Unable to allocate 116. TiB for an array with shape (1000000000000, 16)")

        monkeypatch.setattr("spatialfl.cli.run_experiment", allocate)
        path = synthetic_config_file(tmp_path, hidden_dim=1_000_000_000_000)
        assert main(["run", "--config", str(path)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: out of memory (Unable to allocate 116. TiB for an array with shape "
            "(1000000000000, 16))"]


    @pytest.mark.parametrize("group", ["global", "r00c00"])
    def test_group_named_like_root_or_leaf_exits_two(self, tmp_path, group):
        leaves = ["r00c00", "r00c01", "r01c00", "r01c01"]
        path = synthetic_config_file(tmp_path, topology={group: leaves})
        result = run_module("run", "--config", str(path))
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1, result.stderr
        assert err[0].startswith("config error:") and f"topology group {group!r}" in err[0]


GEO_HEADER = "client_label,level_1,latitude,longitude,ref_date,target,feature_1"
GEO_ROWS = [
    f"s{i % 3},c{i % 3 % 2},{44.0 + i % 3},{-66.0 - i % 3},2020-01-{1 + i // 3:02d},{i * 1.5},{i % 5 / 4}"
    for i in range(24)
]
BAD_CELLS = ["inf", "-Infinity", "nan", "1e999", "text", "", " ", "global", "2020-02-30", "95.0"]
CONFIG_FAULTS = [
    {}, {"n_classes": 5}, {"split_ratio": 1.0}, {"split_ratio": 0.01}, {"min_rows": 50},
    {"min_rows": 0}, {"hidden_dim": "wide"}, {"training": {"epochs": -1}},
    {"training": {"learning_rate": 1e300}}, {"training": {"batch_size": 0}},
    {"aggregation": {"mode": "median"}}, {"preprocess": {"outlier_zscore": 0.01}},
    {"preprocess": {"fill_missing": False}}, {"baselines": ["nonesuch"]},
    {"topology": {"g": ["nope"]}}, {"topology": {"g": ["s0", "s1"]}},
    {"topology": {"g1": ["s0", "s1"], "g2": ["g1", "s2"]}}, {"topology": {"global": ["s0", "s1", "s2"]}},
    {"encoding": {"use_coordinates": False, "use_hierarchy": False}}, {"surplus": 1},
    {"data": {"kind": "csv", "path": "absent.csv"}},
    {"data": {"kind": "csv", "path": "geo.csv", "schema": {"target": "yield"}}},
]


class TestMalformedInputs:
    @given(
        cells=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 6), st.sampled_from(BAD_CELLS)),
                       max_size=3),
        short=st.lists(st.tuples(st.integers(0, 23), st.integers(0, 6)), max_size=1),
        fault=st.sampled_from(CONFIG_FAULTS),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_run_exits_with_a_known_code_and_one_line(self, tmp_path, cells, short, fault):
        rows = [row.split(",") for row in GEO_ROWS]
        for i, j, text in cells:
            rows[i][j] = text
        for i, width in short:
            rows[i] = rows[i][:width]
        (tmp_path / "geo.csv").write_text("\n".join([GEO_HEADER, *map(",".join, rows)]) + "\n")
        raw = {"data": {"kind": "csv", "path": "geo.csv"}, "training": {"epochs": 1},
               "min_rows": 3, "baselines": [], "output_dir": str(tmp_path / "out")}
        raw.update(fault)
        config = write_json(tmp_path / "config.json", raw)

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as warned:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(config)])
        # Outside a test run a warning prints to stderr as well.
        assert [str(w.message) for w in warned] == []
        assert code in (0, 2, 3, 4)
        if code:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()


    @pytest.mark.parametrize("row", [
        b"N\xffB,c0,44.0,-66.0,2020-01-09,1.5,0.5",
        b'"' + b"s" * 140_000 + b'",c0,44.0,-66.0,2020-01-09,1.5,0.5',
    ], ids=["not-utf8", "cell-too-long"])
    def test_unreadable_row_exits_three_naming_its_line(self, tmp_path, row):
        lines = [GEO_HEADER.encode(), *(r.encode() for r in GEO_ROWS), row, b""]
        (tmp_path / "geo.csv").write_bytes(b"\n".join(lines))
        config = write_json(tmp_path / "config.json", {
            "data": {"kind": "csv", "path": "geo.csv"}, "training": {"epochs": 1}, "min_rows": 3,
            "baselines": [], "output_dir": str(tmp_path / "out")})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(config)])
        assert code == 3
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
        assert "line 26: " in err.getvalue()


class TestNonFiniteNumbers:
    # Python's JSON reader accepts NaN and Infinity; every number in a
    # config or spec must be finite.
    @pytest.mark.parametrize("command, key, value", [
        ("run", "data.spec.region_separation", float("inf")),
        ("run", "data.spec.region_separation", float("nan")),
        ("run", "training.adam_epsilon", float("inf")),
        ("run", "training.adam_epsilon", float("nan")),
        ("run", "training.learning_rate", float("nan")),
        ("run", "training.learning_rate", float("inf")),
        ("run", "preprocess.outlier_zscore", float("nan")),
        ("gen-synthetic", "spec.region_separation", float("inf")),
    ], ids=str)
    def test_exits_two_naming_the_key(self, tmp_path, capsys, command, key, value):
        *sections, name = key.split(".")
        if command == "gen-synthetic":
            path = write_json(tmp_path / "spec.json", dict(SPEC, **{name: value}))
            args = ["gen-synthetic", "--spec", str(path), "--out", str(tmp_path / "bench.csv")]
        else:
            raw = json.loads(synthetic_config_file(tmp_path).read_text())
            section = raw
            for part in sections:
                section = section.setdefault(part, {})
            section[name] = value
            args = ["run", "--config", str(write_json(tmp_path / "config.json", raw))]
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {key} must be a finite number"]


class TestUnreadableInputFile:
    """A config or spec file that is not UTF-8 text, or a directory in its
    place, exits 2 with one line naming it."""

    @pytest.mark.parametrize("command, flag, what", [
        ("run", "--config", "config"),
        ("validate-config", "--config", "config"),
        ("gen-synthetic", "--spec", "spec"),
    ])
    def test_exits_two_naming_the_file(self, tmp_path, capsys, command, flag, what):
        binary = tmp_path / "input.json"
        binary.write_bytes(b"\xff\xfe{\"seed\": 1}")
        folder = tmp_path / "folder.json"
        folder.mkdir()
        extra = ["--out", str(tmp_path / "x.csv")] if command == "gen-synthetic" else []
        for path, problem in ((binary, "is not UTF-8 text"), (folder, "cannot be read")):
            assert main([command, flag, str(path), *extra]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: {what} file {problem}: {path} ("), err


class TestGenSynthetic:
    def test_writes_ingestable_csv(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", SPEC)
        out_csv = tmp_path / "bench.csv"
        assert main(["gen-synthetic", "--spec", str(spec_path), "--out", str(out_csv)]) == 0
        assert "120 rows" in capsys.readouterr().out
        from spatialfl.data import ingest_csv
        assert len(ingest_csv(out_csv)) == 120

    def test_bad_spec_exits_two(self, tmp_path):
        spec_path = write_json(tmp_path / "spec.json", {"n_regions": 0})
        assert main(["gen-synthetic", "--spec", str(spec_path),
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestEvaluateModel:
    def test_scores_written_model_against_csv(self, tmp_path, capsys):
        # Round trip: generate a CSV, run an experiment over it, then score
        # the emitted global model on the same file.
        spec_path = write_json(tmp_path / "spec.json", SPEC)
        csv_path = tmp_path / "bench.csv"
        main(["gen-synthetic", "--spec", str(spec_path), "--out", str(csv_path)])
        config = write_json(tmp_path / "config.json", {
            "seed": 9,
            "data": {"kind": "csv", "path": str(csv_path)},
            "n_classes": 2,
            "training": {"learning_rate": 0.05, "epochs": 5},
            "aggregation": {"rounds": 2},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", "--config", str(config)]) == 0
        capsys.readouterr()
        code = main(["evaluate-model",
                     "--model", str(tmp_path / "out" / "models" / "global.bin"),
                     "--data", str(csv_path),
                     "--config", str(config)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        assert 0.0 <= float(out.split("=")[1]) <= 1.0

    def test_missing_model_exits_four(self, tmp_path, capsys):
        config = synthetic_config_file(tmp_path)
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("client_label,latitude,longitude,ref_date,target,feature_1\n")
        assert main(["evaluate-model", "--model", str(tmp_path / "none.bin"),
                     "--data", str(csv_path), "--config", str(config)]) == 4
        assert capsys.readouterr().err.splitlines() == [f"error: model file does not exist: {tmp_path / 'none.bin'}"]

    def test_missing_data_exits_three(self, tmp_path, capsys):
        config = synthetic_config_file(tmp_path)
        model = tmp_path / "m.bin"
        model.write_bytes(b"ESFL")
        assert main(["evaluate-model", "--model", str(model),
                     "--data", str(tmp_path / "none.csv"), "--config", str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: data file does not exist: {tmp_path / 'none.csv'}"]

    def test_directory_as_data_exits_three_naming_it(self, tmp_path, capsys):
        config = synthetic_config_file(tmp_path)
        model = tmp_path / "m.bin"
        model.write_bytes(b"ESFL")
        folder = tmp_path / "d1"
        folder.mkdir()
        assert main(["evaluate-model", "--model", str(model),
                     "--data", str(folder), "--config", str(config)]) == 3
        assert capsys.readouterr().err.splitlines() == [f"data error: data file is a directory: {folder}"]

    def test_corrupt_model_exits_four(self, tmp_path):
        spec_path = write_json(tmp_path / "spec.json", SPEC)
        csv_path = tmp_path / "bench.csv"
        main(["gen-synthetic", "--spec", str(spec_path), "--out", str(csv_path)])
        config = write_json(tmp_path / "config.json", {
            "data": {"kind": "csv", "path": str(csv_path)}, "n_classes": 2,
        })
        model = tmp_path / "m.bin"
        model.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        assert main(["evaluate-model", "--model", str(model),
                     "--data", str(csv_path), "--config", str(config)]) == 4


    def test_model_of_other_width_exits_four_naming_both_widths(self, tmp_path):
        # A leaf's model scored on only that leaf's rows: the vocabulary
        # rebuilt from those rows is narrower than the one it trained with.
        spec_path = write_json(tmp_path / "spec.json", SPEC)
        csv_path = tmp_path / "bench.csv"
        main(["gen-synthetic", "--spec", str(spec_path), "--out", str(csv_path)])
        config = write_json(tmp_path / "config.json", {
            "seed": 9,
            "data": {"kind": "csv", "path": str(csv_path)},
            "n_classes": 2,
            "training": {"learning_rate": 0.05, "epochs": 2},
            "output_dir": str(tmp_path / "out"),
        })
        assert main(["run", "--config", str(config)]) == 0
        lines = csv_path.read_text().splitlines()
        leaf_csv = tmp_path / "leaf.csv"
        leaf_csv.write_text("\n".join([lines[0]] + [x for x in lines if x.startswith("r00c00,")]) + "\n")
        result = run_module("evaluate-model", "--model", str(tmp_path / "out" / "models" / "r00c00.bin"),
                            "--data", str(leaf_csv), "--config", str(config))
        assert result.returncode == 4
        assert result.stderr.splitlines() == [
            "error: rows of 4 encoding + 3 raw columns do not fit input_dim 11 "
            "(raw rows (30, 3), encodings (1, 4))"]

    def test_overflowing_model_exits_four_naming_the_file(self, tmp_path, capsys):
        spec_path = write_json(tmp_path / "spec.json", SPEC)
        csv_path = tmp_path / "bench.csv"
        main(["gen-synthetic", "--spec", str(spec_path), "--out", str(csv_path)])
        config = write_json(tmp_path / "config.json", {
            "data": {"kind": "csv", "path": str(csv_path)}, "n_classes": 2, "encoding": {"enabled": False}})
        model = tmp_path / "huge.bin"
        dims = (3, 2, 2)
        model.write_bytes(serialize_model(ModelParams(np.full(flat_length(dims), 1e308), dims)))
        assert main(["evaluate-model", "--model", str(model),
                     "--data", str(csv_path), "--config", str(config)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: model {model}: scoring diverged (non-finite logits)"]


def error_classes(cls=SpatialFLError):
    """Every subclass of ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from error_classes(sub)


# The errors of unusable input data; every other error but ConfigError
# exits 4.
DATA_ERRORS = {
    "DataError", "SchemaError", "RowError", "UnitUnusableError", "ThinClientError", "SplitError",
    "EmptyCorpusError", "InconsistentHierarchyError", "EmptyDatasetError", "MissingClientError",
    "UnknownRegionError", "EmptyClientError",
}


class TestExitCodes:
    @pytest.mark.parametrize("cls", sorted(set(error_classes()), key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_every_error_class_exits_with_its_code(self, monkeypatch, capsys, cls):
        def fail(args):
            raise cls(["boom"]) if cls is ConfigError else cls("boom")

        monkeypatch.setattr(cli, "cmd_validate_config", fail)
        expected = 2 if cls is ConfigError else 3 if cls.__name__ in DATA_ERRORS else 4
        assert main(["validate-config", "--config", "config.json"]) == expected
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestArgumentParsing:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_module_entry_point(self, tmp_path):
        path = synthetic_config_file(tmp_path)
        result = run_module("validate-config", "--config", str(path))
        assert result.returncode == 0
        assert "config OK" in result.stdout
