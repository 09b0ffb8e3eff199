"""Tests of the benchmark's own machinery: tracer arithmetic, wrapping,
output checks and input generation.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import SETUP_OP, Target, Tracer, summarize, union_length  # noqa: E402

TINY = {
    "seed": 3,
    "data": {"kind": "synthetic", "spec": {"n_regions": 2, "clients_per_region": 2, "rows_per_client": 20}},
    "training": {"epochs": 1},
    "aggregation": {"rounds": 2},
}


def test_union_length_merges_and_clips():
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert union_length([], 0, 10) == 0


def test_self_time_and_coverage_on_hand_built_tree():
    spans = [
        ["harness.run_experiment", 0.0, 8.0, None, "op1"],   # 0
        ["nn.train", 1.0, 3.0, 0, "op1"],                    # 1
        ["nn.train", 4.0, 6.0, 0, "op1"],                    # 2
        ["nn.predict_batch", 4.5, 5.0, 2, "op1"],            # 3
        ["nn.train", 5.2, 5.6, 2, "op1"],                    # 4: nested in a train span
        ["harness.emit_report", 9.0, 9.5, None, "op1"],      # 5
        ["harness.config_from_dict", -2.0, -1.5, None, SETUP_OP],
    ]
    ops = {SETUP_OP: [-2.0, -1.0], "op1": [0.0, 10.0]}
    m = summarize(spans, ops, {}, absent=["harness.gone"])
    assert m["harness.run_experiment.s"] == 8.0
    assert m["harness.run_experiment.self_s"] == 8.0 - 4.0
    assert m["nn.train.calls"] == 3
    assert m["nn.train.s"] == 4.0  # span 4 lies inside span 2 and is not counted twice
    assert m["nn.train.self_s"] == pytest.approx(2.0 + (2.0 - 0.9) + 0.4)
    assert m["harness.config_from_dict.s"] == 0.5  # per call, set-up included
    assert m["trace.coverage"] == pytest.approx(0.85)
    assert m["trace.absent"] == 1


def test_summarize_averages_over_ops_and_derives_ratios():
    spans = [["nn.train", 0.0, 2.0, None, "a"], ["nn.train", 10.0, 11.0, None, "b"]]
    counts = {("a", "nn.train"): {"steps": 10}, ("b", "nn.train"): {"steps": 10},
              ("a", "spatial.encode_rows"): {"rows": 6, "attempts": 2, "distinct": 1}}
    spans += [["spatial.encode_rows", 0.5, 0.6, 0, "a"]] * 2
    m = summarize(spans, {"a": [0.0, 4.0], "b": [10.0, 11.0]}, counts)
    assert m["nn.train.calls"] == 1
    assert m["nn.train.s"] == 1.5
    assert m["nn.train.us_per_step"] == pytest.approx(1e6 * 3.0 / 20)
    assert m["spatial.encode_rows.useful_ratio"] == 0.5
    assert m["trace.coverage"] == pytest.approx((0.5 + 1.0) / 2)


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.mod defines f and Cls; fakepkg.user imported f by name."""
    pkg, mod, user = (types.ModuleType(n) for n in ("fakepkg", "fakepkg.mod", "fakepkg.user"))

    def f(x):
        return x + 1

    class Cls:
        def method(self):
            return mod.f(1)

    mod.f, mod.Cls, user.f = f, Cls, f
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    return mod, user, f


def test_tracer_wraps_every_alias_and_reports_absent_targets(fake_package):
    mod, user, f = fake_package
    tracer = Tracer()
    tracer.install([Target("mod.f"), Target("mod.Cls.method"), Target("mod.missing"),
                    Target("gone.f"), Target("mod.Gone.method")], package="fakepkg")
    assert tracer.absent == ["mod.missing", "gone.f", "mod.Gone.method"]
    tracer.begin("op1")
    assert user.f(1) == 2
    assert mod.Cls().method() == 2
    tracer.end()
    tracer.uninstall()
    assert mod.f is f and user.f is f and "method" in vars(mod.Cls)
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("mod.f", None), ("mod.Cls.method", None), ("mod.f", 1)]
    m = summarize(tracer.spans, tracer.ops, tracer.finished_counts(), tracer.absent,
                  targets=[Target("mod.f"), Target("mod.Cls.method")])
    assert m["mod.f.calls"] == 2 and m["trace.absent"] == 3


def test_traced_op_reaches_aliased_functions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = {"kind": "synthetic", "config": TINY}
    op = worker.make_op(plan, worker.validate_config(plan))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin("op1")
        op(Path("out"))
        tracer.end()
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    m = summarize(tracer.spans, tracer.ops, tracer.finished_counts())
    # federation imports nn.train by name; each local_train trains once.
    assert m["nn.train.calls"] == m["federation.local_train.calls"] == 2 * 4
    assert m["harness.write_models.files"] == 4 + 2 + 1
    assert m["spatial.encode_rows.calls"] > 0
    assert 0.9 < m["trace.coverage"] <= 1.0
    # Every per-layer metric the benchmark declares is produced, except
    # counts of layers this op never calls and the overhead, which comes
    # from comparing two phases.
    declared = {x["name"] for x in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    missing = declared - set(m) - {"trace.overhead_s"}
    assert all(m[name.rsplit(".", 1)[0] + ".calls"] == 0 for name in missing)


def test_tampered_output_counts_as_failed_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = {"kind": "synthetic", "config": TINY}
    real_op = worker.make_op(plan, worker.validate_config(plan))
    calls = []

    def op(out_dir):
        extra = real_op(out_dir)
        calls.append(out_dir)
        if len(calls) == 3:  # flip one payload byte of one model
            path = sorted((out_dir / "models").glob("*.bin"))[0]
            blob = bytearray(path.read_bytes())
            blob[-3] ^= 0x01
            path.write_bytes(bytes(blob))
        return extra

    ops = worker.OpSet(op)
    assert [ops.run()[1] for _ in range(3)] == [True, True, False]
    assert (ops.attempted, ops.failed) == (3, 1)  # fail_rate 1/3
    assert "differs from the first op" in ops.errors[0]


def test_host_speed_rescales_by_the_bracketing_calibrations():
    loops = iter([0.2, 0.2, 0.1, 0.3])
    speed = worker.HostSpeed(loop=lambda: next(loops))
    # A sample taken while the calibration loop ran at twice its reference
    # time took twice as long as it would at the reference speed.
    assert speed.rescale(3.0) == pytest.approx(3.0 * worker.CAL_REF_S / 0.2)
    assert speed.rescale(1.0) == pytest.approx(1.0 * worker.CAL_REF_S / 0.15)
    assert speed.rescale(2.0) == pytest.approx(2.0 * worker.CAL_REF_S / 0.2)
    assert speed.calibrations == [0.2, 0.2, 0.1, 0.3]


def test_check_outputs_rejects_inconsistent_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    plan = {"kind": "synthetic", "config": TINY}
    worker.make_op(plan, worker.validate_config(plan))(Path("out"))
    assert 0.0 <= worker.check_outputs(Path("out")) <= 1.0
    (Path("out/models") / "global.bin").unlink()
    with pytest.raises(worker.OpFailed, match="model files"):
        worker.check_outputs(Path("out"))


def test_geo_csv_is_deterministic_and_shaped():
    lines = workloads.geo_csv_lines(7)
    assert lines == workloads.geo_csv_lines(7)
    assert lines != workloads.geo_csv_lines(8)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == workloads.TOTAL_ROWS
    assert lines[0].split(",")[:3] == ["client_label", "level_1", "level_2"]
    per_station = {}
    for r in rows:
        per_station.setdefault(r[0], []).append(r[5])
        assert r[0].startswith(r[1]) and r[1].startswith(r[2])
    assert len(per_station) == 80 and len({r[1] for r in rows}) == 10 and len({r[2] for r in rows}) == 2
    sizes = sorted(len(v) for v in per_station.values())
    assert sizes[-1] > 2 * sizes[0]  # ragged
    assert all(len(set(d)) == len(d) for d in per_station.values())  # one row per day
    cells = [c for r in rows for c in r[6:]]
    assert 0.01 < sum(c == "" for c in cells) / len(cells) < 0.03
    spikes = sum(abs(float(r[6])) > 15 for r in rows if r[6])
    assert 0.002 * len(rows) < spikes < 0.01 * len(rows)
