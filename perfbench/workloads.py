"""Benchmark workloads: configs and inputs derived from the workload seed.

Every input the program sees (synthetic spec seed, master seed, the geo
CSV) is a pure function of the workload name and ``--seed``. Shapes do
not depend on the seed, so the work per op is the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import date, timedelta
from pathlib import Path

ALL_BASELINES = ["centralized_nn", "ensemble", "flat_fedavg", "flat_fedavg_weighted"]

# The scripts/run_synthetic.py defaults, and a wide shallow fan-out.
SYNTHETIC = {
    "synthetic_rounds": {"regions": 3, "clients": 4, "rows": 200, "rounds": 30, "epochs": 3},
    "fanout_eval": {"regions": 10, "clients": 15, "rows": 50, "rounds": 1, "epochs": 1},
}

# csv_deep: 2 provinces x 5 cities x 8 stations, TOTAL_ROWS rows split
# raggedly across stations.
PROVINCES, CITIES, STATIONS = 2, 5, 8
TOTAL_ROWS = 12_000
N_FEATURES = 4
EMPTY_RATE = 0.02
SPIKE_RATE = 0.005


def derive(seed: int, *labels: str) -> int:
    """A 31-bit seed from the workload seed and labels."""
    text = "|".join(["perfbench", str(seed), *labels]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "little") >> 1


def synthetic_config(workload: str, seed: int) -> dict:
    shape = SYNTHETIC[workload]
    return {
        "seed": derive(seed, workload, "master"),
        "data": {"kind": "synthetic", "spec": {
            "n_regions": shape["regions"],
            "clients_per_region": shape["clients"],
            "rows_per_client": shape["rows"],
            "n_classes": 3,
            "region_separation": 1.0,
            "noise_rate": 0.05,
            "seed": derive(seed, workload, "spec"),
        }},
        "training": {"learning_rate": 0.05, "epochs": shape["epochs"], "batch_size": 32},
        "hidden_dim": 16,
        "aggregation": {"mode": "sample_weighted", "rounds": shape["rounds"]},
        "baselines": ALL_BASELINES,
    }


def csv_config(seed: int, csv_name: str) -> dict:
    return {
        "seed": derive(seed, "csv_deep", "master"),
        "data": {"kind": "csv", "path": csv_name},
        "training": {"learning_rate": 0.02, "epochs": 1, "batch_size": 32},
        "hidden_dim": 16,
        "aggregation": {"mode": "sample_weighted", "rounds": 2},
        "baselines": ["flat_fedavg_weighted"],
    }


def _station_sizes(rng: random.Random, n: int, total: int) -> list[int]:
    """Ragged sizes (weights 0.4..1.6) that sum to exactly ``total``."""
    weights = [rng.uniform(0.4, 1.6) for _ in range(n)]
    scale = total / sum(weights)
    sizes = [int(w * scale) for w in weights]
    for i in range(total - sum(sizes)):
        sizes[i % n] += 1
    return sizes


def geo_csv_lines(seed: int) -> list[str]:
    """The csv_deep input in the default schema, header first.

    Station -> city (level_1) -> province (level_2); daily dates per
    station; about 2% empty feature and target cells and 0.5% target
    spikes that the outlier filter should drop. Rows are shuffled so the
    program has to restore date order itself.
    """
    rng = random.Random(derive(seed, "csv_deep", "csv"))
    stations = [(p, c, s) for p in range(PROVINCES) for c in range(CITIES) for s in range(STATIONS)]
    sizes = _station_sizes(rng, len(stations), TOTAL_ROWS)
    weights = [1.0, -0.7, 0.5, 0.3]
    # Small regional effects and noise: the target is mostly linear in the
    # features, so the briefly trained model's accuracy varies little
    # from seed to seed.
    city_effect = {(p, c): rng.gauss(0.0, 0.2) for p in range(PROVINCES) for c in range(CITIES)}
    rows = []
    for (p, c, s), size in zip(stations, sizes):
        label, city, province = f"p{p}c{c}s{s}", f"p{p}c{c}", f"p{p}"
        lat = 40.0 + 4.0 * p + 0.6 * c + 0.05 * s
        lon = -100.0 + 6.0 * p + 0.8 * c + 0.07 * s
        effect = city_effect[(p, c)] + rng.gauss(0.0, 0.075)
        start = date(2021, 1, 1) + timedelta(days=rng.randrange(30))
        for day in range(size):
            feats = [rng.gauss(0.0, 1.0) for _ in range(N_FEATURES)]
            target = sum(w * f for w, f in zip(weights, feats)) + effect + rng.gauss(0.0, 0.1)
            if rng.random() < SPIKE_RATE:
                target += rng.choice((-1.0, 1.0)) * 25.0
            cells = [f"{v:.4f}" for v in feats]
            cells = ["" if rng.random() < EMPTY_RATE else v for v in cells]
            target_cell = "" if rng.random() < EMPTY_RATE else f"{target:.4f}"
            rows.append(",".join([label, city, province, f"{lat:.4f}", f"{lon:.4f}",
                                  (start + timedelta(days=day)).isoformat(), target_cell, *cells]))
    rng.shuffle(rows)
    header = ",".join(["client_label", "level_1", "level_2", "latitude", "longitude",
                       "ref_date", "target", *(f"feature_{j}" for j in range(1, N_FEATURES + 1))])
    return [header, *rows]


def prepare(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's inputs under ``run_dir``; return the plan.

    The plan is what the worker process needs: the config (inline for
    synthetic data, a file for the CLI) and a description of the inputs
    for the result record. Paths in it are relative to ``run_dir``.
    """
    if workload in SYNTHETIC:
        config = synthetic_config(workload, seed)
        text = json.dumps(config, sort_keys=True)
        return {"kind": "synthetic", "config": config, "inputs": {
            "spec": config["data"]["spec"], "master_seed": config["seed"],
            "config_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }}
    if workload == "csv_deep":
        text = "\n".join(geo_csv_lines(seed)) + "\n"
        csv_path = run_dir / "geo.csv"
        csv_path.write_text(text, encoding="utf-8")
        config_path = run_dir / "config.json"
        config = csv_config(seed, csv_path.name)
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return {"kind": "csv", "config_path": config_path.name, "csv_path": csv_path.name, "inputs": {
            "csv_rows": text.count("\n") - 1, "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "master_seed": config["seed"],
        }}
    raise KeyError(workload)
