"""Tests for the tier tree, aggregation algebra, the round protocol, and
the binary model format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import alone_update, no_encoding, random_tree, random_update, separable_client, train_alone, vector_params
from reference import params_equal
from spatialfl.data import SyntheticSpec, generate_synthetic, train_valid_split
from spatialfl.errors import (
    CorruptModelError,
    DegenerateWeightsError,
    DivergenceError,
    EmptyAggregationError,
    EmptyClientError,
    MissingClientError,
    ShapeError,
    TopologyError,
)
from spatialfl import federation
from spatialfl.federation import (
    MODEL_MAGIC,
    AggregationPolicy,
    ClientUpdate,
    TierNode,
    TierTopology,
    aggregate_tree,
    cohort_slices,
    deserialize_model,
    fedavg,
    normalize_weights,
    per_round_config,
    run_tier_round,
    serialize_model,
    weighted_aggregate,
)
from spatialfl.harness import evaluate
from spatialfl.nn import TrainingConfig, init_params, predict_rows, working_set_bytes
from spatialfl.seeding import derive_seed

DIMS = (1, 1, 1)  # four flat parameters; enough for aggregation algebra


def update(client_id, values, count=1, raw=None):
    return ClientUpdate(client_id, vector_params(DIMS, values),
                        float(count if raw is None else raw))


class TestTopology:
    def test_three_tier_tree_valid(self):
        topo = TierTopology((
            TierNode("c1", 0, "m1"), TierNode("c2", 0, "m1"),
            TierNode("c3", 0, "m2"),
            TierNode("m1", 1, "root"), TierNode("m2", 1, "root"),
            TierNode("root", 2, None),
        ))
        assert topo.clients() == ["c1", "c2", "c3"]
        assert topo.root_id == "root"
        assert topo.subtree_clients("m1") == ["c1", "c2"]
        assert topo.subtree_clients("root") == ["c1", "c2", "c3"]

    def test_depth_first_client_order(self):
        topo = TierTopology((
            TierNode("a", 0, "m2"), TierNode("b", 0, "m1"), TierNode("c", 0, "m2"),
            TierNode("m1", 1, "root"), TierNode("m2", 1, "root"),
            TierNode("root", 2, None),
        ))
        assert topo.client_order == ("b", "a", "c")
        assert topo.client_span("m1") == (0, 1)
        assert topo.client_span("m2") == (1, 3)
        assert topo.client_span("root") == (0, 3)
        assert topo.client_span("c") == (2, 3)
        assert topo.subtree_clients("m2") == ["a", "c"]

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_depth_first_spans_cover_each_subtree(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_tree(rng, int(rng.integers(2, 14)))
        parent = {n.node_id: n.parent for n in topo.nodes}

        def ancestors(node_id):
            while node_id is not None:
                yield node_id
                node_id = parent[node_id]

        assert sorted(topo.client_order) == topo.clients()
        for node_id in topo.node_ids():
            below = sorted(c for c in topo.clients() if node_id in ancestors(c))
            lo, hi = topo.client_span(node_id)
            assert sorted(topo.client_order[lo:hi]) == below == topo.subtree_clients(node_id)
            kids = topo.children(node_id)
            assert kids == sorted(n for n, p in parent.items() if p == node_id)
            if kids:
                # The children's spans tile the node's span in ascending id order.
                bounds = [topo.client_span(k) for k in kids]
                assert bounds[0][0] == lo and bounds[-1][1] == hi
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            TierTopology((TierNode("a", 0, "r"), TierNode("a", 0, "r"), TierNode("r", 1, None)))

    def test_two_roots_rejected(self):
        with pytest.raises(TopologyError, match="root"):
            TierTopology((TierNode("a", 0, None), TierNode("b", 1, None)))

    def test_parent_must_be_one_tier_above(self):
        with pytest.raises(TopologyError, match="one tier above"):
            TierTopology((TierNode("a", 0, "r"), TierNode("r", 2, None)))

    def test_childless_aggregator_rejected(self):
        with pytest.raises(TopologyError, match="no children"):
            TierTopology((
                TierNode("a", 0, "m1"), TierNode("m1", 1, "r"),
                TierNode("m2", 1, "r"), TierNode("r", 2, None),
            ))

    def test_missing_parent_rejected(self):
        with pytest.raises(TopologyError, match="missing parent"):
            TierTopology((TierNode("a", 0, "ghost"), TierNode("r", 1, None)))


class TestLocalTrain:
    """A client's local training in a tier round: a one-client tree."""

    @staticmethod
    def first_update(ds, init, config):
        topo = TierTopology((TierNode(ds.client_id, 0, "root"), TierNode("root", 1, None)))
        _, (update,) = run_tier_round(topo, {ds.client_id: ds}, init, AggregationPolicy(), config, None)
        return update

    def test_zero_epochs_returns_init_bit_equal(self):
        ds = separable_client("c", n=10, seed=1)
        init = init_params((2, 4, 2), seed=0)
        out = self.first_update(ds, init, TrainingConfig(epochs=0))
        assert params_equal(out.params, init)

    def test_sample_count_matches_rows(self):
        ds = separable_client("c", n=37, seed=2)
        out = self.first_update(ds, init_params((2, 4, 2), 0), TrainingConfig(epochs=1))
        assert out.spatial_weight_raw == 37.0

    def test_separable_client_reaches_full_training_accuracy(self):
        ds = separable_client("c", n=20, seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=200, seed=4)
        out = self.first_update(ds, init_params((2, 16, 2), seed=3), config)
        features, labels = ds.rows("train")
        assert np.mean(predict_rows(out.params, *no_encoding(features)) == labels) == 1.0

    def test_no_training_rows_rejected(self):
        ds = separable_client("c", n=6, seed=0)
        ds.split_tags[:] = "validation"
        with pytest.raises(EmptyClientError):
            self.first_update(ds, init_params((2, 4, 2), 0), TrainingConfig())

    def test_dim_mismatch_rejected(self):
        ds = separable_client("c", n=6, seed=0)
        with pytest.raises(ShapeError):
            self.first_update(ds, init_params((5, 4, 2), 0), TrainingConfig(epochs=1))


class TestFedavg:
    def test_mean_of_two(self):
        out = fedavg([update("a", [1, 2, 3, 4]), update("b", [5, 6, 7, 8])])
        assert np.array_equal(out.vector, [3.0, 4.0, 5.0, 6.0])

    def test_mean_of_three_constants(self):
        out = fedavg([update("a", [0] * 4), update("b", [3] * 4), update("c", [6] * 4)])
        assert np.array_equal(out.vector, [3.0] * 4)

    def test_power_of_two_identical_models_bit_exact(self):
        p = init_params((2, 3, 2), seed=8)
        for k in (2, 4, 8):
            out = fedavg([ClientUpdate(f"c{i}", p, 1.0) for i in range(k)])
            assert params_equal(out, p)

    def test_other_counts_within_1e15(self):
        p = init_params((2, 3, 2), seed=8)
        out = fedavg([ClientUpdate(f"c{i}", p, 1.0) for i in range(3)])
        assert np.allclose(out.vector, p.vector, atol=1e-15, rtol=0.0)

    def test_empty_rejected(self):
        with pytest.raises(EmptyAggregationError):
            fedavg([])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fedavg([update("a", [0] * 4),
                    ClientUpdate("b", init_params((2, 3, 2), 0), 1.0)])


class TestNormalizeWeights:
    def test_proportional(self):
        assert normalize_weights([2.0, 6.0]) == [0.25, 0.75]

    def test_single(self):
        assert normalize_weights([5.0]) == [1.0]

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_weights([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            normalize_weights([1.0, -0.5])

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=10).filter(lambda w: sum(w) > 0))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, raws):
        out = normalize_weights(raws)
        assert abs(sum(out) - 1.0) < 1e-12
        total = sum(raws)
        assert all(abs(o - r / total) < 1e-12 for o, r in zip(out, raws))


class TestWeightedAggregate:
    def test_quarter_three_quarters(self):
        out = weighted_aggregate([update("a", [0] * 4, raw=1), update("b", [4] * 4, raw=3)])
        assert np.array_equal(out.vector, [3.0] * 4)

    def test_equal_raw_weights_match_fedavg(self):
        updates = [update("a", [1, 2, 3, 4], raw=7), update("b", [5, 6, 7, 8], raw=7),
                   update("c", [0, 1, 0, 1], raw=7)]
        assert np.allclose(weighted_aggregate(updates).vector,
                           fedavg(updates).vector, atol=1e-15, rtol=0.0)

    def test_single_update_identity(self):
        p = init_params((3, 2, 2), seed=5)
        out = weighted_aggregate([ClientUpdate("only", p, 9.0)])
        assert params_equal(out, p)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(DegenerateWeightsError):
            weighted_aggregate([update("a", [1] * 4, raw=0), update("b", [2] * 4, raw=0)])


class TestAggregationProperties:
    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_permutation_bit_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        updates = [random_update(f"c{i:02d}", dims, rng) for i in range(int(rng.integers(2, 7)))]
        shuffled = [updates[i] for i in rng.permutation(len(updates))]
        assert params_equal(fedavg(updates), fedavg(shuffled))
        assert params_equal(weighted_aggregate(updates), weighted_aggregate(shuffled))

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_convexity(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        updates = [random_update(f"c{i:02d}", dims, rng) for i in range(int(rng.integers(1, 7)))]
        stacked = np.stack([u.params.vector for u in updates])
        for aggregate in (fedavg, weighted_aggregate):
            vec = aggregate(updates).vector
            assert np.all(vec >= stacked.min(axis=0) - 1e-15)
            assert np.all(vec <= stacked.max(axis=0) + 1e-15)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_hierarchical_equals_flat_weighted(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_tree(rng, int(rng.integers(2, 10)))
        updates = [random_update(c, (2, 3, 2), rng) for c in topo.clients()]
        root = aggregate_tree(topo, updates, "sample_weighted")[topo.root_id]
        flat = weighted_aggregate(updates)
        assert np.allclose(root.vector, flat.vector, atol=1e-12, rtol=0.0)

    def test_uniform_equals_flat_on_balanced_tree(self):
        rng = np.random.default_rng(3)
        nodes = []
        for g in range(2):
            for c in range(3):
                nodes.append(TierNode(f"g{g}c{c}", 0, f"g{g}"))
            nodes.append(TierNode(f"g{g}", 1, "root"))
        nodes.append(TierNode("root", 2, None))
        topo = TierTopology(tuple(nodes))
        updates = [ClientUpdate(c, init_params((2, 3, 2), int(rng.integers(0, 99))), 10.0)
                   for c in topo.clients()]
        root = aggregate_tree(topo, updates, "uniform")[topo.root_id]
        assert np.allclose(root.vector, fedavg(updates).vector, atol=1e-12, rtol=0.0)

    def test_aggregate_tree_missing_update_rejected(self):
        topo = random_tree(np.random.default_rng(0), 3)
        updates = [random_update(c, DIMS, np.random.default_rng(1)) for c in topo.clients()[:-1]]
        with pytest.raises(MissingClientError):
            aggregate_tree(topo, updates, "uniform")


class TestRunTierRound:
    def two_level_topology(self, client_ids):
        nodes = [TierNode(c, 0, "root") for c in client_ids]
        nodes.append(TierNode("root", 1, None))
        return TierTopology(tuple(nodes))

    def test_single_client_root_is_client_model(self):
        topo = self.two_level_topology(["c0"])
        ds = {"c0": separable_client("c0", n=12, seed=0)}
        init = init_params((2, 4, 2), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=5, seed=42)
        models, first_round = run_tier_round(
            topo, ds, init, AggregationPolicy("uniform", 1), config, None)
        direct = train_alone(ds["c0"], init, per_round_config(config, "c0", 1))
        assert params_equal(models["root"], direct)
        assert params_equal(models["c0"], direct)
        assert [u.client_id for u in first_round] == ["c0"]
        assert params_equal(first_round[0].params, direct)

    def test_zero_epochs_returns_init_everywhere(self):
        rng = np.random.default_rng(7)
        topo = random_tree(rng, 4)
        ds = {c: separable_client(c, n=8, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 4, 2), seed=9)
        models, _ = run_tier_round(topo, ds, init, AggregationPolicy("sample_weighted", 1),
                                   TrainingConfig(epochs=0), None)
        for node_id, model in models.items():
            assert params_equal(model, init), node_id

    def test_balanced_tree_matches_flat_weighted(self):
        nodes = []
        for g in range(2):
            for c in range(2):
                nodes.append(TierNode(f"g{g}c{c}", 0, f"g{g}"))
            nodes.append(TierNode(f"g{g}", 1, "root"))
        nodes.append(TierNode("root", 2, None))
        topo = TierTopology(tuple(nodes))
        ds = {c: separable_client(c, n=10, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=3, seed=5)
        models, _ = run_tier_round(topo, ds, init, AggregationPolicy("sample_weighted", 1),
                                   config, None)
        updates = [alone_update(ds[c], init, per_round_config(config, c, 1)) for c in topo.clients()]
        assert np.allclose(models["root"].vector, weighted_aggregate(updates).vector,
                           atol=1e-12, rtol=0.0)

    def diverging_round(self, blown_up):
        # Adam's step is about the learning rate whatever the gradient's
        # scale, so scaled features alone stay finite; with this rate the
        # first step's weights times 1e300-scaled features overflow.
        topo = self.two_level_topology(["c0", "c1"])
        ds = {c: separable_client(c, n=12, seed=i) for i, c in enumerate(["c0", "c1"])}
        for c in blown_up:
            ds[c].features *= 1e300
        init = init_params((2, 4, 2), 1)
        config = TrainingConfig(learning_rate=1e9, epochs=2, batch_size=4, seed=3)
        assert cohort_slices(2, init.dims, config.batch_size) == [slice(0, 2)]
        with pytest.raises(DivergenceError) as info:
            run_tier_round(topo, ds, init, AggregationPolicy("uniform", 2), config, None)
        return str(info.value)

    def test_divergence_inside_a_cohort_names_the_client(self):
        # Pinned to the message of the per-client loop that preceded cohorts.
        assert self.diverging_round(["c1"]) == (
            "client 'c1' in round 1: training diverged (layer1_weights contains non-finite entries)")

    def test_divergence_of_two_members_names_the_lower_id(self):
        assert self.diverging_round(["c0", "c1"]) == (
            "client 'c0' in round 1: training diverged (layer1_weights contains non-finite entries)")

    def test_cohorts_group_by_row_count_within_the_byte_budget(self, monkeypatch):
        # Cohorts are consecutive runs of the clients in descending
        # training-row order (ties by id), each within the byte budget.
        ds = {c: separable_client(c, n=n, seed=i) for i, (c, n) in
              enumerate([("a", 10), ("b", 12), ("c", 10), ("d", 14), ("e", 12)])}
        topo = self.two_level_topology(sorted(ds))
        init = init_params((2, 4, 2), 1)
        config = TrainingConfig(epochs=1, batch_size=4, seed=3)
        per_client = working_set_bytes(init.dims, config.batch_size)
        owner = {per_round_config(config, c, 1).seed: c for c in ds}
        calls = []
        original = federation.train_cohort

        def spy(init, raw, labels, codes, enc, offsets, config, seeds):
            calls.append(([owner[s] for s in seeds], np.diff(offsets).tolist()))
            return original(init, raw, labels, codes, enc, offsets, config, seeds)

        monkeypatch.setattr(federation, "train_cohort", spy)
        run_tier_round(topo, ds, init, AggregationPolicy(), config, None)
        assert calls == [(["d", "b", "e", "a", "c"], [14, 12, 12, 10, 10])]
        calls.clear()
        monkeypatch.setattr(federation, "COHORT_BYTES", 2 * per_client + 1)
        run_tier_round(topo, ds, init, AggregationPolicy(), config, None)
        assert calls == [(["d", "b"], [14, 12]), (["e", "a"], [12, 10]), (["c"], [10])]
        assert all(len(ids) * per_client <= federation.COHORT_BYTES for ids, _ in calls)

    def test_cohort_cut_stays_bounded_at_scale(self):
        # Pure arithmetic at the scale config's dims: 20 regions x 100
        # clients, a one-hot leaf encoding of about 2,024 inputs.
        for dims in [(2024, 16, 3), (2024, 16, 2), (170, 16, 3), (12, 16, 2)]:
            per_client = working_set_bytes(dims, 32)
            parts = cohort_slices(2000, dims, 32)
            assert [i for p in parts for i in range(p.start, p.stop)] == list(range(2000))
            assert all((p.stop - p.start) * per_client <= federation.COHORT_BYTES for p in parts)
            # Tight: one more client would not have fitted.
            assert all((p.stop - p.start + 1) * per_client > federation.COHORT_BYTES
                       for p in parts[:-1])
        # A client whose working set alone exceeds the budget trains alone.
        huge = (200_000, 16, 3)
        assert working_set_bytes(huge, 32) > federation.COHORT_BYTES
        assert cohort_slices(3, huge, 32) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_missing_dataset_rejected(self):
        topo = self.two_level_topology(["c0", "c1"])
        with pytest.raises(MissingClientError, match="c1"):
            run_tier_round(topo, {"c0": separable_client("c0", n=8)},
                           init_params((2, 4, 2), 0), AggregationPolicy(),
                           TrainingConfig(epochs=1), None)

    def test_full_run_bit_reproducible(self):
        rng = np.random.default_rng(13)
        topo = random_tree(rng, 5)
        ds = {c: separable_client(c, n=12, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 6, 2), seed=2)
        config = TrainingConfig(learning_rate=0.03, epochs=4, seed=77)
        policy = AggregationPolicy("sample_weighted", 3)
        first, _ = run_tier_round(topo, ds, init, policy, config, None)
        second, _ = run_tier_round(topo, ds, init, policy, config, None)
        assert set(first) == set(second)
        for node_id in first:
            assert params_equal(first[node_id], second[node_id])

    def test_more_rounds_do_not_degrade_root_accuracy(self):
        # Non-degradation smoke check on the separable benchmark.
        datasets, topo, _ = generate_synthetic(SyntheticSpec(3, 2, 100, n_classes=3, seed=4))
        datasets = {cid: train_valid_split(ds, 0.8, derive_seed(4, "split", cid))
                    for cid, ds in datasets.items()}
        from spatialfl.spatial import build_vocabulary
        vocab = build_vocabulary([datasets[c].spatial for c in sorted(datasets)])
        init = init_params((vocab.encoding_length + 2, 16, 3), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=5, seed=21)

        def root_accuracy(rounds):
            models, _ = run_tier_round(topo, datasets, init,
                                       AggregationPolicy("sample_weighted", rounds), config, vocab)
            return evaluate(models[topo.root_id], datasets.values(), vocab)

        assert root_accuracy(5) >= root_accuracy(1) - 0.02


class TestModelSerialization:
    def test_golden_byte_layout(self):
        p = vector_params(DIMS, [1.5, -2.0, 0.25, 7.0])
        blob = serialize_model(p)
        expected = (MODEL_MAGIC + b"\x01" + struct.pack("<III", 1, 1, 1)
                    + struct.pack("<4d", 1.5, -2.0, 0.25, 7.0))
        assert blob == expected

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        dims = (int(rng.integers(1, 8)), int(rng.integers(1, 8)), int(rng.integers(2, 5)))
        p = init_params(dims, seed=seed)
        assert params_equal(deserialize_model(serialize_model(p)), p)

    def test_wrong_magic_rejected(self):
        blob = serialize_model(init_params((2, 3, 2), 0))
        with pytest.raises(CorruptModelError, match="magic"):
            deserialize_model(b"XXXX" + blob[4:])

    def test_wrong_version_rejected(self):
        blob = serialize_model(init_params((2, 3, 2), 0))
        with pytest.raises(CorruptModelError, match="version"):
            deserialize_model(blob[:4] + b"\x02" + blob[5:])

    def test_truncated_header_rejected(self):
        with pytest.raises(CorruptModelError, match="short"):
            deserialize_model(b"ESFL\x01")

    def test_short_payload_rejected(self):
        header = MODEL_MAGIC + b"\x01" + struct.pack("<III", 2, 3, 2)
        with pytest.raises(CorruptModelError, match="payload"):
            deserialize_model(header + b"\x00" * 8)

    def test_trailing_bytes_rejected(self):
        blob = serialize_model(init_params((2, 3, 2), 0))
        with pytest.raises(CorruptModelError, match="payload"):
            deserialize_model(blob + b"\x00")

    def test_zero_dimension_header_rejected(self):
        header = MODEL_MAGIC + b"\x01" + struct.pack("<III", 0, 3, 2)
        with pytest.raises(CorruptModelError, match="dims"):
            deserialize_model(header)

    def test_non_finite_payload_rejected(self):
        p = vector_params(DIMS, [1.0, 2.0, 3.0, 4.0])
        blob = serialize_model(p)
        bad = blob[:17] + struct.pack("<4d", np.nan, 0.0, 0.0, 0.0)
        with pytest.raises(CorruptModelError):
            deserialize_model(bad)
