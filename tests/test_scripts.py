"""Smoke tests for the scripts under ``scripts/``, which build their
configs in code rather than from JSON."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_scale_config_round_trips_through_the_config_reader():
    spec = importlib.util.spec_from_file_location("scale_run", SCRIPTS / "scale_run.py")
    scale_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scale_run)
    config = scale_run.scale_config(600)
    assert config_from_dict(config.to_json_dict()) == config
