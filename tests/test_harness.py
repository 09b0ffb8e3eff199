"""Tests for config validation, evaluation, the experiment pipeline, and
report emission."""

import dataclasses
import json
import re
import sys
from collections import Counter
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_tree
from reference import params_equal
from spatialfl.baselines import BaselineKind, ensemble_predict_batch
from spatialfl.data import ClientDataset, SyntheticSpec
from spatialfl.errors import ConfigError
from spatialfl.harness import (
    METHOD_CENTRALIZED_REGIONAL,
    METHOD_TIERED,
    EncodingConfig,
    ExperimentConfig,
    SyntheticSource,
    config_from_dict,
    emit_report,
    fold_correct,
    grouped_topology,
    load_config,
    load_datasets,
    run_experiment,
    write_models,
)
from spatialfl import federation, nn, spatial
from spatialfl.federation import (
    ROOT_ID,
    AggregationPolicy,
    deserialize_model,
    round_seed,
    serialize_model,
    stack_rows,
    stack_split,
)
from spatialfl.nn import ModelParams, TrainingConfig, init_params, predict_rows
from spatialfl.seeding import derive_seed
from spatialfl.spatial import SpatialAttribute, build_vocabulary, encoding_table

FAST_TRAINING = TrainingConfig(learning_rate=0.05, epochs=3, batch_size=32)


def synthetic_config(seed=5, baselines=(), encoding=True, rounds=3, spec=None, **kwargs):
    return ExperimentConfig(
        data=SyntheticSource(spec or SyntheticSpec(2, 2, 40, n_classes=2, seed=17)),
        seed=seed,
        encoding=EncodingConfig(enabled=encoding),
        training=FAST_TRAINING,
        policy=AggregationPolicy("sample_weighted", rounds),
        baselines=tuple(BaselineKind(b) for b in baselines),
        **kwargs,
    )


def minimal_raw_config():
    return {
        "seed": 1,
        "data": {"kind": "synthetic",
                 "spec": {"n_regions": 2, "clients_per_region": 2, "rows_per_client": 30}},
    }


class TestFoldedAccuracy:
    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_folded_counts_equal_per_subtree_scoring(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_tree(rng, int(rng.integers(2, 12)))
        datasets = {}
        for cid in topo.clients():
            # Each client's validation rows: about half of n, the first always.
            n = int(rng.integers(2, 14))
            validation = rng.random(n) >= 0.5
            validation[0] = True
            spatial = SpatialAttribute(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)), (cid,))
            datasets[cid] = ClientDataset(cid, spatial, (rng.normal(size=(n, 2)) * 3.0)[validation],
                                          rng.integers(0, 3, n)[validation], n_classes=3)
        vocab = build_vocabulary([datasets[c].spatial for c in sorted(datasets)])
        dims = (vocab.encoding_length + 2, 4, 3)
        model = init_params(dims, seed=int(rng.integers(0, 2 ** 31)))
        members = {f"m{k}": init_params(dims, seed=int(rng.integers(0, 2 ** 31))) for k in range(3)}

        raw, labels, codes, spans = stack_split(topo, datasets)
        enc = encoding_table([datasets[c].spatial for c in topo.client_order], vocab)
        single = fold_correct(predict_rows(model, raw, codes, enc), labels, spans)
        voted = fold_correct(ensemble_predict_batch(members, raw, codes, enc), labels, spans)
        for node_id, (lo, hi) in spans.items():
            subtree = [datasets[c] for c in topo.subtree_clients(node_id)]
            pooled_raw, pooled_labels, pooled_codes, _ = stack_rows(subtree)
            pooled_enc = encoding_table([c.spatial for c in subtree], vocab)
            assert single[node_id] / (hi - lo) == np.mean(
                predict_rows(model, pooled_raw, pooled_codes, pooled_enc) == pooled_labels)
            assert voted[node_id] / (hi - lo) == np.mean(
                ensemble_predict_batch(members, pooled_raw, pooled_codes, pooled_enc) == pooled_labels)


class TestConfigValidation:
    def test_minimal_config_fills_defaults(self):
        config = config_from_dict(minimal_raw_config())
        assert config.hidden_dim == 16
        assert config.split_ratio == 0.8
        assert config.policy.rounds == 1
        assert config.policy.mode == "sample_weighted"
        assert config.training.epochs == 50
        assert config.n_classes == 3
        assert config.baselines == ()

    def test_bad_n_classes_rejected(self):
        raw = minimal_raw_config()
        raw["data"]["spec"]["n_classes"] = 4
        with pytest.raises(ConfigError, match="n_classes"):
            config_from_dict(raw)

    def test_misspelled_key_named(self):
        raw = minimal_raw_config()
        raw["hiden_dim"] = 16
        with pytest.raises(ConfigError, match="hiden_dim"):
            config_from_dict(raw)

    def test_all_errors_collected(self):
        raw = minimal_raw_config()
        raw["split_ratio"] = 2.0
        raw["hidden_dim"] = 0
        raw["typo"] = 1
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        text = str(info.value)
        assert "split_ratio" in text and "hidden_dim" in text and "typo" in text
        assert len(info.value.errors) >= 3

    def test_missing_csv_path_reported(self, tmp_path):
        raw = {"data": {"kind": "csv", "path": "absent.csv"}}
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_dict(raw, base_dir=tmp_path)

    def test_unknown_baseline_rejected(self):
        raw = minimal_raw_config()
        raw["baselines"] = ["gradient_boosting"]
        with pytest.raises(ConfigError, match="gradient_boosting"):
            config_from_dict(raw)

    def test_conflicting_n_classes_rejected(self):
        raw = minimal_raw_config()
        raw["n_classes"] = 2
        with pytest.raises(ConfigError, match="conflicts"):
            config_from_dict(raw)

    def test_duplicate_topology_assignment_rejected(self):
        raw = minimal_raw_config()
        raw["topology"] = {"g1": ["a", "b"], "g2": ["b"]}
        with pytest.raises(ConfigError, match="both"):
            config_from_dict(raw)

    def test_group_named_like_root_rejected(self):
        raw = minimal_raw_config()
        raw["topology"] = {ROOT_ID: ["a", "b"]}
        with pytest.raises(ConfigError, match=f"topology group '{ROOT_ID}' is the reserved id"):
            config_from_dict(raw)

    def test_fully_disabled_encoding_rejected(self):
        raw = minimal_raw_config()
        raw["encoding"] = {"use_coordinates": False, "use_hierarchy": False}
        with pytest.raises(ConfigError, match="encoding"):
            config_from_dict(raw)

    def test_keys_of_the_other_kind_rejected(self, tmp_path):
        (tmp_path / "rows.csv").write_text("client_label\n")
        raw = {"data": {"kind": "csv", "path": "rows.csv", "spec": {"bogus": 1}}}
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw, base_dir=tmp_path)
        assert info.value.errors == ["unknown key 'spec' in data for kind 'csv'"]
        raw = minimal_raw_config()
        raw["data"].update(path=5, schema="x")
        with pytest.raises(ConfigError) as info:
            config_from_dict(raw)
        assert info.value.errors == ["unknown key 'path' in data for kind 'synthetic'",
                                     "unknown key 'schema' in data for kind 'synthetic'"]

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_raw_config()))
        config = load_config(path)
        assert isinstance(config.data, SyntheticSource)
        assert config.seed == 1

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.json")

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


def optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


LEAVES = ["a", "b", "c", "d"]
NAME = st.text(max_size=8)
# Float keys are given ints as well as floats wherever an int is valid.
SPEC_RAW = st.fixed_dictionaries(
    {"n_regions": st.integers(1, 4), "clients_per_region": st.integers(1, 4), "rows_per_client": st.integers(1, 500)},
    optional={"n_classes": st.sampled_from([2, 3]), "region_separation": st.integers(0, 5) | st.floats(0, 10),
              "noise_rate": st.just(0) | st.floats(0, 0.49), "seed": st.integers(0, 2 ** 31)})
SCHEMA_RAW = optional(
    client_label=NAME, latitude=NAME, longitude=NAME, ref_date=NAME, target=NAME,
    hierarchy=st.none() | st.lists(NAME, max_size=3), features=st.none() | st.lists(NAME, max_size=3))
DATA_RAW = (st.fixed_dictionaries({"kind": st.just("synthetic"), "spec": SPEC_RAW})
            | st.fixed_dictionaries({"kind": st.just("csv"), "path": st.just("geo.csv")},
                                    optional={"schema": SCHEMA_RAW}))
# Every leaf in exactly one group.
TOPOLOGY_RAW = st.lists(st.sampled_from(["east", "west", "north"]), min_size=len(LEAVES), max_size=len(LEAVES)).map(
    lambda names: {g: [leaf for leaf, n in zip(LEAVES, names) if n == g] for g in sorted(set(names))})
CONFIG_RAW = st.fixed_dictionaries({"data": DATA_RAW}, optional={
    "seed": st.integers(0, 2 ** 32),
    "n_classes": st.sampled_from([2, 3]),
    "preprocess": optional(fill_missing=st.booleans(), drop_outliers=st.booleans(),
                           outlier_zscore=st.integers(1, 5) | st.floats(0.1, 10)),
    "encoding": optional(enabled=st.booleans(), use_coordinates=st.booleans(), use_hierarchy=st.booleans()).filter(
        lambda e: not e.get("enabled", True) or e.get("use_coordinates", True) or e.get("use_hierarchy", True)),
    "topology": st.none() | TOPOLOGY_RAW,
    "training": optional(learning_rate=st.integers(1, 2) | st.floats(1e-6, 1.0), epochs=st.integers(0, 100),
                         batch_size=st.integers(1, 64), adam_beta1=st.floats(0.01, 0.99),
                         adam_beta2=st.floats(0.01, 0.999), adam_epsilon=st.integers(1, 2) | st.floats(1e-12, 1e-3)),
    "hidden_dim": st.integers(1, 64),
    "aggregation": optional(mode=st.sampled_from(["uniform", "sample_weighted"]), rounds=st.integers(1, 5)),
    "baselines": st.lists(st.sampled_from([b.value for b in BaselineKind]), unique=True),
    "split_ratio": st.floats(0.05, 0.95) | st.just(0.5),
    "min_rows": st.integers(1, 10),
    "include_date_feature": st.booleans(),
    "output_dir": NAME,
})


def assert_holds_given(written, raw):
    """Every key given in ``raw`` is written back with the value given."""
    for key, value in raw.items():
        if isinstance(value, dict) and key != "topology":
            assert_holds_given(written[key], value)
        else:
            assert written[key] == value, key


def assert_floats_are_floats(obj):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type == "float":
            assert type(value) is float, f.name
        elif dataclasses.is_dataclass(value):
            assert_floats_are_floats(value)


class TestConfigRoundTrip:
    @given(raw=CONFIG_RAW)
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_reader_and_writer_round_trip(self, tmp_path, raw):
        (tmp_path / "geo.csv").touch()
        if raw["data"]["kind"] == "synthetic" and "n_classes" in raw:
            raw["data"]["spec"]["n_classes"] = raw["n_classes"]
        config = config_from_dict(raw, tmp_path)
        assert_floats_are_floats(config)
        written = config.to_json_dict()
        assert_holds_given(written, raw)
        again = config_from_dict(written, tmp_path)
        assert again == config
        assert json.dumps(again.to_json_dict(), sort_keys=True) == json.dumps(written, sort_keys=True)

    def test_readme_examples_carry_exactly_the_accepted_keys(self, tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = text[text.index("## Config file"):]
        section = section[:section.index("\n## ")]
        full, csv = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", section, re.S)]
        (tmp_path / csv["data"]["path"]).touch()

        def assert_same_keys(example, written):
            for key, value in example.items():
                if isinstance(value, dict):
                    assert set(value) == set(written[key]), key
                    assert_same_keys(value, written[key])

        for example in (full, csv):
            written = config_from_dict(example, tmp_path).to_json_dict()
            assert_same_keys(example, written)
        assert set(full) == set(config_from_dict(full, tmp_path).to_json_dict())


class TestGroupedTopology:
    def test_groups_become_tier_one(self):
        topo = grouped_topology(["a", "b", "c", "d"], {"g1": ["a", "b"], "g2": ["c", "d"]})
        assert topo.max_tier == 2
        assert topo.children("g1") == ["a", "b"]
        assert topo.children(topo.root_id) == ["g1", "g2"]
        # Nodes by tier, each tier in id order, whatever order the groups
        # and their leaves are given in.
        topo = grouped_topology(["d", "c", "b", "a"], {"g2": ["d", "a"], "g1": ["c", "b"]})
        assert [(n.node_id, n.tier, n.parent) for n in topo.nodes] == [
            ("a", 0, "g2"), ("b", 0, "g1"), ("c", 0, "g1"), ("d", 0, "g2"),
            ("g1", 1, ROOT_ID), ("g2", 1, ROOT_ID), (ROOT_ID, 2, None)]

    def test_unknown_leaf_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            grouped_topology(["a", "b"], {"g1": ["a", "b", "z"]})

    def test_group_of_groups_rejected_naming_the_one_tier_limit(self):
        with pytest.raises(ConfigError) as info:
            grouped_topology(["a", "b", "c"], {"g1": ["a", "b"], "g2": ["g1", "c"]})
        assert info.value.errors == [
            "topology override references unknown leaves: ['g1'] "
            "(groups hold leaf labels only: they form one tier and do not nest)"]

    def test_unassigned_leaf_rejected(self):
        with pytest.raises(ConfigError, match="unassigned"):
            grouped_topology(["a", "b", "c"], {"g1": ["a", "b"]})

    def test_group_named_like_leaf_rejected(self):
        with pytest.raises(ConfigError, match="topology group 'a' has the name of a leaf"):
            grouped_topology(["a", "b"], {"a": ["a", "b"]})


class TestRunExperiment:
    def test_deterministic_reports_and_files(self, tmp_path):
        config = synthetic_config(baselines=("flat_fedavg",))
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.report == second.report

        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for result, out in ((first, dir_a), (second, dir_b)):
            emit_report(result.report, out)
            write_models(result.node_models, out)
        files_a = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (dir_a / rel).read_bytes() == (dir_b / rel).read_bytes()

    @staticmethod
    def spy_on_kernel(monkeypatch, calls):
        """Record the seeds of every call to the cohort kernel, at every
        ``spatialfl`` module alias."""
        original = nn.train_cohort

        def spy(plan, init, seeds):
            calls.append(list(seeds))
            return original(plan, init, seeds)

        for name, module in list(sys.modules.items()):
            if name.startswith("spatialfl") and getattr(module, "train_cohort", None) is original:
                monkeypatch.setattr(module, "train_cohort", spy)

    def test_each_client_trains_once_per_round(self, monkeypatch):
        # The ensemble and both flat baselines are built from the tiered
        # run's round-1 updates, so enabling them trains no client again.
        # A client's round seed names it on its way into the kernel.
        config = synthetic_config(baselines=("centralized_nn", "ensemble", "flat_fedavg",
                                             "flat_fedavg_weighted"), rounds=2)
        clients = ["r00c00", "r00c01", "r01c00", "r01c01"]
        owner = {derive_seed(config.seed, "train", c, r): (c, r) for c in clients for r in (1, 2)}
        calls = []
        self.spy_on_kernel(monkeypatch, calls)
        result = run_experiment(config)
        assert sorted(result.report.client_predictions) == clients
        trained = Counter(owner.get(seed, "centralized") for seeds in calls for seed in seeds)
        # One kernel call per round, and one for the pooled centralized
        # network and one network per region.
        assert len(calls) == 3
        assert trained.pop("centralized") == 3
        assert trained == {(c, r): 1 for c in clients for r in (1, 2)}

    def test_rounds_train_one_plan(self, monkeypatch):
        # The run plans the tier rounds' training once and trains that
        # plan every round; the centralized baselines plan their own.
        config = synthetic_config(baselines=("centralized_nn",), rounds=3)
        plans, trained = [], []
        plan_cohort, train_cohort = nn.plan_cohort, nn.train_cohort

        def plan_spy(*args):
            plans.append(plan_cohort(*args))
            return plans[-1]

        def train_spy(plan, init, seeds):
            trained.append(plan)
            return train_cohort(plan, init, seeds)

        for name, module in list(sys.modules.items()):
            if name.startswith("spatialfl"):
                for attr, original, spy in [("plan_cohort", plan_cohort, plan_spy),
                                            ("train_cohort", train_cohort, train_spy)]:
                    if getattr(module, attr, None) is original:
                        monkeypatch.setattr(module, attr, spy)
        run_experiment(config)
        assert len(plans) == 2
        assert [id(plan) for plan in trained] == [id(plans[0])] * 3 + [id(plans[1])]

    def test_reported_seeds_are_the_trained_ones(self, monkeypatch):
        # seeds.train_round1[c] is the seed client c trains with in round
        # 1, and round r trains it with round_seed(master, c, r). The
        # kernel takes one seed per client, in ascending client order.
        config = synthetic_config(rounds=3)
        calls = []
        original = federation.train_cohort

        def spy(plan, init, seeds):
            calls.append(list(seeds))
            return original(plan, init, seeds)

        monkeypatch.setattr(federation, "train_cohort", spy)
        report = run_experiment(config).report
        clients = sorted(report.client_predictions)
        assert len(calls) == 3
        assert dict(zip(clients, calls[0])) == report.seeds["train_round1"]
        for round_index, seeds in enumerate(calls, start=1):
            assert seeds == [round_seed(config.seed, c, round_index) for c in clients]

    def test_each_split_is_stacked_once(self, monkeypatch):
        # The tiered loop, the centralized baselines and scoring share one
        # stack per split, and both stacks one table of encodings: two
        # stackings, and one table over every client in depth-first order.
        config = synthetic_config(baselines=("centralized_nn", "ensemble", "flat_fedavg",
                                             "flat_fedavg_weighted"), rounds=2)
        datasets, topology, _ = load_datasets(config)
        calls = []
        for function in (stack_rows, spatial.encoding_table):
            def spy(*args, original=function):
                calls.append((original.__name__, args))
                return original(*args)

            for name, module in list(sys.modules.items()):
                if name.startswith("spatialfl") and getattr(module, function.__name__, None) is function:
                    monkeypatch.setattr(module, function.__name__, spy)
        run_experiment(config)
        assert [name for name, _ in calls] == ["stack_rows", "stack_rows", "encoding_table"]
        for _, (clients,) in calls[:2]:
            assert [c.client_id for c in clients] == list(topology.client_order)
        attrs, vocab = calls[2][1]
        assert attrs == [datasets[c].spatial for c in topology.client_order]
        assert vocab is not None and len(attrs) == len(topology.clients())

    def test_cohorts_of_one_give_identical_models(self, monkeypatch):
        config = synthetic_config(rounds=2)
        calls = []
        original = nn._train_part

        def spy(plan, part, init, seeds, scratch, out):
            calls.append(list(seeds))
            return original(plan, part, init, seeds, scratch, out)

        monkeypatch.setattr(nn, "_train_part", spy)
        cohort = run_experiment(config).node_models
        # Every client's rows have one code, so all four train at one
        # active width: one cohort per round.
        assert [len(seeds) for seeds in calls] == [4, 4]
        calls.clear()
        monkeypatch.setattr(nn, "COHORT_BYTES", 1)
        single = run_experiment(config).node_models
        assert [len(seeds) for seeds in calls] == [1] * 8
        assert sorted(cohort) == sorted(single)
        for node_id in cohort:
            assert params_equal(cohort[node_id], single[node_id]), node_id

    def test_different_seed_changes_report(self):
        a = run_experiment(synthetic_config(seed=5))
        b = run_experiment(synthetic_config(seed=6))
        assert a.report != b.report

    def test_without_baselines_only_tiered_sections(self):
        report = run_experiment(synthetic_config()).report
        methods = {row["method"] for row in report.tier_accuracy}
        assert methods == {METHOD_TIERED}
        assert list(report.global_accuracy) == [METHOD_TIERED]

    def test_every_node_once_per_method(self):
        config = synthetic_config(baselines=("centralized_nn", "ensemble", "flat_fedavg",
                                             "flat_fedavg_weighted"))
        result = run_experiment(config)
        methods = {row["method"] for row in result.report.tier_accuracy}
        assert methods == {METHOD_TIERED, "centralized_nn", METHOD_CENTRALIZED_REGIONAL,
                           "ensemble", "flat_fedavg", "flat_fedavg_weighted"}
        node_ids = sorted(result.node_models)
        for method in methods:
            rows = [r for r in result.report.tier_accuracy if r["method"] == method]
            assert sorted(r["node_id"] for r in rows) == node_ids
        assert set(result.report.global_accuracy) == methods

    def test_report_accuracies_match_prediction_vectors(self):
        result = run_experiment(synthetic_config())
        report = result.report
        tier0 = {r["node_id"]: r["accuracy"] for r in report.tier_accuracy if r["tier"] == 0}
        for cid, vectors in report.client_predictions.items():
            recomputed = np.mean(np.array(vectors["predicted"]) == np.array(vectors["actual"]))
            assert tier0[cid] == recomputed

    def test_noiseless_synthetic_close_to_oracle(self):
        # Separable benchmark: the tiered model must land within 0.05 of the
        # construction's best achievable accuracy.
        spec = SyntheticSpec(2, 2, 300, n_classes=2, noise_rate=0.0, seed=7)
        config = synthetic_config(seed=7, spec=spec, rounds=40)
        report = run_experiment(config).report
        assert report.oracle_accuracy == 1.0
        assert report.global_accuracy[METHOD_TIERED] >= 0.95

    def test_topology_override_applies(self):
        spec = SyntheticSpec(2, 2, 40, n_classes=2, seed=17)
        groups = {"east": ["r00c00", "r01c00"], "west": ["r00c01", "r01c01"]}
        config = synthetic_config(spec=spec, topology_groups=groups)
        result = run_experiment(config)
        tier1 = {r["node_id"] for r in result.report.tier_accuracy if r["tier"] == 1}
        assert tier1 == {"east", "west"}

    def test_topology_override_unknown_leaf_fails(self):
        config = synthetic_config(topology_groups={"g": ["nope"]})
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_stage_annotation_present(self):
        config = synthetic_config(topology_groups={"g": ["nope"]})
        try:
            run_experiment(config)
            assert False, "expected ConfigError"
        except ConfigError as exc:
            assert exc.stage == "topology"

    def test_encoding_disabled_drops_vocabulary(self):
        report = run_experiment(synthetic_config(encoding=False)).report
        assert report.vocabulary is None

    def test_vocabulary_embedded_when_enabled(self):
        report = run_experiment(synthetic_config()).report
        assert report.vocabulary is not None
        assert len(report.vocabulary["levels"]) == 2
        assert report.vocabulary["lat_bounds"][0] <= report.vocabulary["lat_bounds"][1]


class TestEmitReport:
    def test_json_round_trips_to_equal_report(self, tmp_path):
        report = run_experiment(synthetic_config()).report
        (path,) = emit_report(report, tmp_path, formats=("json",))
        assert json.loads(path.read_text()) == report.to_json_dict()

    def test_csv_headers(self, tmp_path):
        report = run_experiment(synthetic_config(baselines=("flat_fedavg",))).report
        emit_report(report, tmp_path, formats=("csv",))
        assert (tmp_path / "tier_accuracy.csv").read_text().splitlines()[0] == \
            "node_id,tier,method,accuracy"
        assert (tmp_path / "global_comparison.csv").read_text().splitlines()[0] == \
            "method,accuracy"
        assert (tmp_path / "client_predictions.csv").read_text().splitlines()[0] == \
            "client_id,row_index,predicted,actual"

    def test_empty_baselines_single_comparison_row(self, tmp_path):
        report = run_experiment(synthetic_config()).report
        emit_report(report, tmp_path, formats=("csv",))
        lines = (tmp_path / "global_comparison.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith(METHOD_TIERED + ",")

    def test_written_models_load_back(self, tmp_path):
        result = run_experiment(synthetic_config())
        paths = write_models(result.node_models, tmp_path)
        assert len(paths) == len(result.node_models)
        for node_id in result.node_models:
            blob = (tmp_path / "models" / f"{node_id}.bin").read_bytes()
            assert params_equal(deserialize_model(blob), result.node_models[node_id])

    def test_node_models_hand_out_no_shared_buffer(self, tmp_path):
        # A client's model is rebuilt on every lookup: two lookups are equal
        # but independent, and writing into one changes neither the next
        # lookup nor the bytes write_models writes.
        result = run_experiment(synthetic_config(baselines=("ensemble",)))
        models = result.node_models
        assert isinstance(models, Mapping) and not isinstance(models, dict)
        client = sorted(result.report.client_predictions)[0]
        first, second = models[client], models[client]
        assert params_equal(first, second) and not np.shares_memory(first.vector, second.vector)
        expected = first.vector.copy()
        first.vector[:] = 0.0
        second.layer1_weights[...] = 1.0
        assert models[client].vector.tobytes() == expected.tobytes()
        write_models(models, tmp_path)
        blob = (tmp_path / "models" / f"{client}.bin").read_bytes()
        assert blob == serialize_model(ModelParams(expected, first.dims))
        for node_id in models:
            assert (tmp_path / "models" / f"{node_id}.bin").read_bytes() == serialize_model(models[node_id])
        with pytest.raises(TypeError):
            models[client] = second

    def test_ids_differing_in_unsafe_characters_get_files_of_their_own(self, tmp_path):
        ids = ["st 1", "st_1", "st%201", "a/b"]
        models = {node_id: init_params((2, 3, 2), seed) for seed, node_id in enumerate(ids)}
        paths = write_models(models, tmp_path)
        assert sorted((tmp_path / "models").iterdir()) == sorted(paths)
        assert len(set(paths)) == len(ids)
        for node_id, path in zip(sorted(ids), paths):
            assert params_equal(deserialize_model(path.read_bytes()), models[node_id])

    def test_unknown_format_rejected(self, tmp_path):
        report = run_experiment(synthetic_config()).report
        with pytest.raises(ValueError):
            emit_report(report, tmp_path, formats=("xml",))
