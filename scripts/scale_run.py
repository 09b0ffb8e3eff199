#!/usr/bin/env python3
"""Run the scale config in-process and print one JSON line of timings,
peak memory and the report digest.

Two peaks are printed: ``peak_rss_run_mib``, the process's peak resident
set right after ``run_experiment`` returns, and ``peak_rss_mib``, the
peak at the end, after the report and the model files are written; a
higher second one means writing the models set the peak.

The config: 20 regions x (clients / 20) clients x 50 rows of synthetic
data, 2 rounds of sample-weighted aggregation, 1 local epoch, batch 32,
hidden width 16, all four baselines, master and data seed 1. The report
and the model files are written to a temporary directory, which is
removed afterwards (at 2,000 clients the models take about 500 MB).

Example:
    python scripts/scale_run.py --clients 600
"""

import argparse
import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spatialfl.baselines import BaselineKind
from spatialfl.data import SyntheticSpec
from spatialfl.federation import AggregationPolicy
from spatialfl.harness import ExperimentConfig, SyntheticSource, emit_report, run_experiment, write_models
from spatialfl.nn import TrainingConfig

REGIONS = 20


def scale_config(clients: int) -> ExperimentConfig:
    return ExperimentConfig(
        data=SyntheticSource(SyntheticSpec(n_regions=REGIONS, clients_per_region=clients // REGIONS,
                                           rows_per_client=50, seed=1)),
        seed=1,
        training=TrainingConfig(epochs=1, batch_size=32),
        hidden_dim=16,
        policy=AggregationPolicy("sample_weighted", 2),
        baselines=tuple(BaselineKind),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--clients", type=int, choices=(600, 2000), default=600)
    args = parser.parse_args()

    config = scale_config(args.clients)
    start = time.perf_counter()
    result = run_experiment(config)
    run_s = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux.
    peak_run = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with tempfile.TemporaryDirectory() as out:
        emit_report(result.report, out, formats=("json",))
        digest = hashlib.sha256((Path(out) / "report.json").read_bytes()).hexdigest()
        start = time.perf_counter()
        write_models(result.node_models, out)
        write_s = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"clients": args.clients, "run_experiment_s": round(run_s, 3),
                      "write_models_s": round(write_s, 3), "peak_rss_run_mib": round(peak_run, 1),
                      "peak_rss_mib": round(peak, 1), "report_sha256": digest}))


if __name__ == "__main__":
    main()
