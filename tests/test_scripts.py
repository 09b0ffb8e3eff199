"""Smoke tests for the scripts under ``scripts/``, which build their
configs in code rather than from JSON."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from spatialfl import nn
from spatialfl.harness import config_from_dict

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_synthetic_prints_the_global_table():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_synthetic.py"), "--regions", "2", "--clients", "2",
         "--rows", "20", "--classes", "2", "--rounds", "2", "--epochs", "1", "--hidden", "4"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    table = done.stdout.split("global (root) accuracy per method\n")[1].splitlines()
    assert [line.split()[0] for line in table] == [
        "n_tier_fl", "centralized_nn", "centralized_nn_regional", "ensemble", "flat_fedavg", "flat_fedavg_weighted"]
    assert all(0.0 <= float(line.split()[1]) <= 1.0 for line in table)


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_scale_config_round_trips_through_the_config_reader():
    config = load_script("scale_run").scale_config(600)
    assert config_from_dict(config.to_json_dict()) == config


def test_kernel_bench_trains_one_cohort():
    kernel_bench = load_script("kernel_bench")
    dims = (7, 3, 2)
    plan, train, iterations = kernel_bench.cohort_call(nn, dims, 5, 40, 3, (3,))
    assert iterations == 2 * kernel_bench.EPOCHS
    models, diverged = train(plan())
    assert diverged == {} and len(models) == 3
    # Each client trains 5 of the 7 inputs (two coordinates, one of three
    # one-hot columns, two raw columns): 26 of a model's 32 parameters.
    assert [values.shape for values in models.values] == [(3, nn.flat_length((5, 3, 2)))]
    assert kernel_bench.result_floats(models) == 3 * 26
    assert models.vector(2).shape == (nn.flat_length(dims),) == (32,)


def test_op_bench_alternates_a_tree_with_itself():
    src = str(SCRIPTS.parent / "src")
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "op_bench.py"), "--workload", "csv_deep", "--pairs", "2", src, src],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    *trees, summary = map(json.loads, done.stdout.splitlines())
    assert [tree["pairs"] for tree in trees] == [2, 2] and sum(tree["won"] for tree in trees) == 2
    assert trees[0]["digest"] == trees[1]["digest"] and summary["digests_equal"] is True
