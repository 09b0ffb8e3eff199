"""Golden digests: pinned sha256 of every output file for two small fixed
configs, one synthetic and one CSV, both multi-round with all baselines,
each with the default encoding and with three encoding variants.

The determinism tests compare two runs of the same code, so they cannot
catch a refactor that moves the numerics. These digests can. A change
that alters one of them changes the program's numerics and must say so.
"""

import hashlib
import json
import random
from datetime import date, timedelta

import pytest

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


# The same configs with the encoding switched off, or reduced to one of
# its parts: the E = 0 and coordinates-only scoring paths.
ENCODING_VARIANTS = {
    "off": {"enabled": False},
    "no_hierarchy": {"use_hierarchy": False},
    "no_coordinates": {"use_coordinates": False},
}

GOLDEN_VARIANTS = {
    ("synthetic", "off"): {
        "report.json": "00daf0a936b8229c0e5c9faed62b651ce15a3050036d1ab0749190de6ad6f903",
        "tier_accuracy.csv": "ba8a0c1f473c215c870139321a6cf29927654aa8a71175f3a989217df1475811",
        "global_comparison.csv": "4eb77ab9d8da4e175eef59f5398d5863e72a340d373e0a6831dc4232eb513cd3",
        "client_predictions.csv": "7afa0568c723c6c889eaf82adb342a42e37380a04bf36e6fe203122827f8e49f",
        "models": "842d1483a225b6ef9be70beca107f7a7697c3b6ae94e84d15854ae750b5484f5",
    },
    ("synthetic", "no_hierarchy"): {
        "report.json": "b8591b1ae330e6dda6ddf90fc981336dce74248f4f91dfe26ff09e5c72cf3631",
        "tier_accuracy.csv": "a732e7c6c7bee67535061f76343d87f3b442af3be7d63ae9550d202f56f84be9",
        "global_comparison.csv": "1a07d54e3540304349d2c4ecf6d5bdeab495fe888cf61abd399a93135110a5e4",
        "client_predictions.csv": "c4e919b41b0433865958c8bdecf14a3cf537a34b9a97749984af12af0071c4e2",
        "models": "15dccb6e76e174a18c12922b1b1caad9afe14380ce77f0ebdb303fe3100b9ec5",
    },
    ("synthetic", "no_coordinates"): {
        "report.json": "f26804113453cc47c570bb0ac4d2a269fcaae2b2c85c0c941365b4dc56bfbc5b",
        "tier_accuracy.csv": "40ee497292a332e63a02676529f3246b55d0613fa3bf6e4d898423d56bedca0d",
        "global_comparison.csv": "d5651d304b986a83edd8e4906fcbdd9684b1f494489650f0817da2312a380ccc",
        "client_predictions.csv": "e3200eb4d68ecc01b266d96c410c13dc6b1a3bb8307deeb285f38d6b8c6b55f0",
        "models": "b9234965590b9c8cb33e221f7ee59f55203f7599b8cc6af5f26cbf6e5a062b75",
    },
    ("csv", "off"): {
        "report.json": "b813d9b7479a3a3656e4dfa43ed2c819ad7306fd31eb79fc494ebf3132233779",
        "tier_accuracy.csv": "25f89e32d70977b182683dd49d4ed44199f487763d0fe15b5396143fbb0ca1e1",
        "global_comparison.csv": "d71612d19bee12effdcaebc4e0a0c501669f0f4180b19c568f1a41e1700be5ed",
        "client_predictions.csv": "cb872ea782cdc13dd36a14fe7f1065e65775bdfab13c5377c7669694b5c79bdb",
        "models": "1164bfa4ffbad83f369c55ab7e23b4ee3a931bb52369c54f0336d8c0fd869997",
    },
    ("csv", "no_hierarchy"): {
        "report.json": "5c6f8c6b1485355bc581048fab096d3a38382ff47bb9b66bc52d073591910927",
        "tier_accuracy.csv": "863448e5f0c11c26e9a830c37a4ccd838b7a8cf067ab9ca7d435d159edbc2058",
        "global_comparison.csv": "a08ffb7db478b8eefefe0c41b9b28c1478602a1774a872bcf8a94ff3fa92fe80",
        "client_predictions.csv": "c16f72d352ddba4e75eb025bcdbbab0de2d3ab29dfe64a69720dedd7ca74c2c2",
        "models": "1c416371164bcad5fcfe1b1d33a5a169916b1ddfbad0c6ca10d824bab538c2a2",
    },
    ("csv", "no_coordinates"): {
        "report.json": "82e91267e5cb0a11833165d20f367495e22ba0a3a4ca0c749483c52c47dab54c",
        "tier_accuracy.csv": "a8ca9a03e218d7ae519d7e42bce4abfdf51ce7f37ae4608997a1ab2df49673e1",
        "global_comparison.csv": "f54ac2319296c544c7ec07f2549d039400ff0410bdd75f5d29f502a8d06a7f1e",
        "client_predictions.csv": "ca5c93ce9b04cc575075dd89124f38702a368051e03256e39c436429c035ecb0",
        "models": "dead40f307518c5e1b2ad6c0f2377e237f9375ca4451ed6a98f5765fffaa635f",
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


@pytest.mark.parametrize("source, variant", sorted(GOLDEN_VARIANTS))
def test_encoding_variants_match_golden_digests(tmp_path, source, variant):
    raw = dict(SYNTHETIC_RAW if source == "synthetic" else CSV_RAW, encoding=ENCODING_VARIANTS[variant])
    (tmp_path / "geo.csv").write_text(geo_csv_text(), encoding="utf-8")
    assert output_digests(raw, tmp_path, tmp_path / "out") == GOLDEN_VARIANTS[source, variant]
