"""Golden digests: pinned sha256 of every output file for two small fixed
configs, one synthetic and one CSV, both multi-round with all baselines.

The determinism tests compare two runs of the same code, so they cannot
catch a refactor that moves the numerics. These digests can. A change
that alters one of them changes the program's numerics and must say so.
"""

import hashlib
import json
import random
from datetime import date, timedelta

from spatialfl.harness import config_from_dict, emit_report, run_experiment, write_models

ALL_BASELINES = ["centralized_nn", "ensemble", "flat_fedavg", "flat_fedavg_weighted"]
REPORT_FILES = ("report.json", "tier_accuracy.csv", "global_comparison.csv", "client_predictions.csv")

SYNTHETIC_RAW = {
    "seed": 41,
    "data": {"kind": "synthetic", "spec": {
        "n_regions": 2, "clients_per_region": 3, "rows_per_client": 40,
        "n_classes": 3, "region_separation": 1.0, "noise_rate": 0.05, "seed": 8,
    }},
    "training": {"learning_rate": 0.05, "epochs": 2, "batch_size": 16},
    "hidden_dim": 8,
    "aggregation": {"mode": "sample_weighted", "rounds": 3},
    "baselines": ALL_BASELINES,
    # Groups that interleave the generated regions, so that no node's
    # clients are a run of the ascending client ids.
    "topology": {"east": ["r00c02", "r01c00", "r01c01"], "west": ["r00c00", "r00c01", "r01c02"]},
}

CSV_RAW = {
    "seed": 13,
    "data": {"kind": "csv", "path": "geo.csv"},
    "training": {"learning_rate": 0.02, "epochs": 2, "batch_size": 16},
    "hidden_dim": 8,
    "aggregation": {"mode": "uniform", "rounds": 2},
    "baselines": ALL_BASELINES,
}

GOLDEN = {
    "synthetic": {
        "report.json": "e0204ae74d358c44f7bcae21853b7095fd33b2f4e2912c8e145374c433fd3d48",
        "tier_accuracy.csv": "aabc8c4f84e25e53eaa8d8677fed3516f1b196a3fb6d162d6bacc29988df3a00",
        "global_comparison.csv": "09f192b951ed662da458248db830e5b54478ec105354292159e714e557a35f6e",
        "client_predictions.csv": "2b05813bc4af32611d5a7c3db781f46c28e66c67495abcd9733adf73c13ec7ef",
        "models": "1fba14afda139c88a7bf4eaee353bae7d1c4bdb07f6e074cac19acb8291620f9",
    },
    "csv": {
        "report.json": "93167ec2a57280df6c6d3bb44537ef1332d9799191587258cfc17c8a5e7914a3",
        "tier_accuracy.csv": "4d6f4ef0cca5804c28d093b336b6ee1976accfa653f3e55dcc04125d4ffd9ae9",
        "global_comparison.csv": "3a7ded322ef7ecbeb836380a53d114be5e1462a5d782ad6d6960d356f56bad68",
        "client_predictions.csv": "a583154eec8b94d7d84a3e0738ed52c3f4c856259d55023a9887db13c9661570",
        "models": "aa8d31a7280f7c72139884638bc040a9123d9cced7ec69f7ef6ea5d14f7cc303",
    },
}


def geo_csv_text():
    """2 provinces x 2 cities x 3 stations with ragged sizes, a few empty
    cells and one target spike: station -> city -> province -> global."""
    rng = random.Random(2024)
    lines = ["client_label,level_1,level_2,latitude,longitude,ref_date,target,"
             "feature_1,feature_2,feature_3"]
    for p in range(2):
        for c in range(2):
            for s in range(3):
                lat, lon = 40.0 + 3.0 * p + 0.5 * c + 0.1 * s, -90.0 + 2.0 * p + 0.7 * c + 0.05 * s
                start = date(2022, 3, 1) + timedelta(days=rng.randrange(20))
                for day in range(rng.randrange(24, 40)):
                    feats = [rng.gauss(0.0, 1.0) for _ in range(3)]
                    target = feats[0] - 0.5 * feats[1] + 0.3 * p - 0.2 * c + rng.gauss(0.0, 0.2)
                    if (p, c, s, day) == (0, 0, 0, 5):
                        target += 40.0
                    cells = ["" if rng.random() < 0.02 else f"{v:.4f}" for v in feats]
                    lines.append(",".join([f"p{p}c{c}s{s}", f"p{p}c{c}", f"p{p}", f"{lat:.4f}", f"{lon:.4f}",
                                           (start + timedelta(days=day)).isoformat(), f"{target:.4f}",
                                           *cells]))
    return "\n".join(lines) + "\n"


def output_digests(raw, base_dir, out_dir):
    config = config_from_dict(json.loads(json.dumps(raw)), base_dir=base_dir)
    result = run_experiment(config)
    emit_report(result.report, out_dir)
    models = write_models(result.node_models, out_dir)
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in REPORT_FILES}
    combined = hashlib.sha256()
    for path in sorted(models):
        combined.update(path.name.encode() + b"\0" + path.read_bytes())
    digests["models"] = combined.hexdigest()
    return digests


def test_synthetic_outputs_match_golden_digests(tmp_path):
    assert output_digests(SYNTHETIC_RAW, tmp_path, tmp_path / "out") == GOLDEN["synthetic"]


def test_csv_outputs_match_golden_digests(tmp_path):
    (tmp_path / "geo.csv").write_text(geo_csv_text(), encoding="utf-8")
    assert output_digests(CSV_RAW, tmp_path, tmp_path / "out") == GOLDEN["csv"]
