"""Tests for the tier tree, aggregation algebra, the round protocol, and
the binary model format."""

import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    alone_round,
    dense,
    child_order_models,
    flat_topology,
    interleaved_topology,
    no_encoding,
    random_buffer,
    random_paths,
    random_tree,
    run_rounds,
    separable_client,
    split_clients,
    tier_round,
    train_alone,
    train_rows,
    vector_params,
    without_rows_of,
)
from reference import dense_rows, params_equal, tree_sum_levels
from spatialfl.baselines import BaselineKind
from spatialfl.data import ClientDataset, SyntheticSpec, generate_synthetic
from spatialfl.errors import DataError, DivergenceError, SpatialFLError
from spatialfl import federation, nn
from spatialfl.federation import (
    AGGREGATION_MODES,
    MODEL_MAGIC,
    ROOT_ID,
    AggregationPolicy,
    TierTopology,
    aggregate,
    aggregate_tree,
    deserialize_model,
    normalize_weights,
    plan_rounds,
    round_seed,
    run_tier_round,
    serialize_model,
    stack_rows,
    stack_split,
)
from spatialfl.harness import ExperimentConfig, SyntheticSource, run_experiment
from spatialfl.nn import TrainingConfig, cohort_slices, init_params, predict_rows, working_set_bytes
from spatialfl.spatial import SpatialAttribute, build_vocabulary, encoding_table

DIMS = (1, 1, 1)  # four flat parameters; enough for aggregation algebra


def uniform(*rows):
    """The uniform aggregate of rows of DIMS."""
    return aggregate(np.asarray(rows, dtype=np.float64), [1.0] * len(rows), "uniform", DIMS)


def weighted(*pairs):
    """The sample-weighted aggregate of (raw weight, row of DIMS) pairs."""
    return aggregate(np.asarray([v for _, v in pairs], dtype=np.float64), [r for r, _ in pairs],
                     "sample_weighted", DIMS)


class TestTopology:
    def test_three_tier_tree_valid(self):
        topo = TierTopology([("c1", "m1"), ("c2", "m1"), ("c3", "m2")])
        assert topo.clients() == ["c1", "c2", "c3"]
        assert topo.root_id == ROOT_ID
        assert topo.subtree_clients("m1") == ["c1", "c2"]
        assert topo.subtree_clients(ROOT_ID) == ["c1", "c2", "c3"]

    def test_depth_first_client_order(self):
        topo = TierTopology([("a", "m2"), ("b", "m1"), ("c", "m2")])
        assert topo.client_order == ("b", "a", "c")
        assert topo.client_span("m1") == (0, 1)
        assert topo.client_span("m2") == (1, 3)
        assert topo.client_span(ROOT_ID) == (0, 3)
        assert topo.client_span("c") == (2, 3)
        assert topo.subtree_clients("m2") == ["a", "c"]

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_depth_first_spans_cover_each_subtree(self, seed):
        rng = np.random.default_rng(seed)
        paths = random_paths(rng, int(rng.integers(2, 14)))
        topo = TierTopology(paths)
        # The paths in any order, one of them twice, build the same tree.
        shuffled = TierTopology([paths[i] for i in rng.permutation(len(paths))] + paths[-1:])
        assert shuffled == topo
        assert (shuffled.nodes, shuffled.client_order) == (topo.nodes, topo.client_order)
        assert [shuffled.client_span(n) for n in topo.node_ids()] == [topo.client_span(n) for n in topo.node_ids()]
        # Nodes by tier, each tier in id order, the root last.
        assert [(n.tier, n.node_id) for n in topo.nodes] == sorted((n.tier, n.node_id) for n in topo.nodes)
        assert (topo.nodes[-1].node_id, topo.nodes[-1].tier) == (ROOT_ID, topo.max_tier)
        parent = {n.node_id: n.parent for n in topo.nodes}
        assert all(parent[path[0]] == (path[1:] or (ROOT_ID,))[0] for path in paths)

        def ancestors(node_id):
            while node_id is not None:
                yield node_id
                node_id = parent[node_id]

        assert sorted(topo.client_order) == topo.clients() == sorted(path[0] for path in paths)
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

    @pytest.mark.parametrize("paths", [[], [()]])
    def test_no_leaves_rejected(self, paths):
        with pytest.raises(DataError, match="^no leaves to build a topology from$"):
            TierTopology(paths)

    def test_paths_of_unequal_depth_rejected(self):
        with pytest.raises(DataError, match="^hierarchy paths have mixed lengths$"):
            TierTopology([("a", "m"), ("b",)])

    @pytest.mark.parametrize("paths", [[("a", ROOT_ID)], [(ROOT_ID, "m")]])
    def test_root_id_as_a_label_rejected(self, paths):
        with pytest.raises(DataError, match=f"^label '{ROOT_ID}' is the reserved id of the root node$"):
            TierTopology(paths)

    def test_label_at_two_levels_rejected(self):
        with pytest.raises(DataError, match=r"^label 'm' is used at levels \[0, 1\]$"):
            TierTopology([("a", "m"), ("m", "n")])

    @pytest.mark.parametrize("paths, message", [
        ([("a", "m1"), ("a", "m2")], r"label 'a' at level 0 has conflicting parents: \['m1', 'm2'\]"),
        ([("a", "m", "r1"), ("b", "m", "r2")], r"label 'm' at level 1 has conflicting parents: \['r1', 'r2'\]"),
    ])
    def test_label_with_two_parents_rejected(self, paths, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            TierTopology(paths)


class TestLocalTrain:
    """A client's local training in a tier round: a one-client tree."""

    @staticmethod
    def first_model(ds, init, config, seed=0):
        """The client's round-1 model and training-row count, as
        :func:`run_tier_round` returns them."""
        topo = flat_topology([ds.client_id])
        params, (count,), _ = tier_round(topo, train_rows(topo, {ds.client_id: ds}), init, "sample_weighted",
                                             config, seed, 1)
        return params[0], count

    def test_zero_epochs_returns_init_bit_equal(self):
        ds = separable_client("c", n=10, seed=1)
        init = init_params((2, 4, 2), seed=0)
        out, _ = self.first_model(ds, init, TrainingConfig(epochs=0))
        assert params_equal(out, init)

    def test_sample_count_matches_rows(self):
        ds = separable_client("c", n=37, seed=2)
        _, count = self.first_model(ds, init_params((2, 4, 2), 0), TrainingConfig(epochs=1))
        assert count == 37

    def test_separable_client_reaches_full_training_accuracy(self):
        ds = separable_client("c", n=20, seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=200)
        out, _ = self.first_model(ds, init_params((2, 16, 2), seed=3), config, seed=4)
        assert np.mean(predict_rows(out, *no_encoding(ds.features)) == ds.labels) == 1.0

    def test_no_training_rows_rejected(self):
        topo = flat_topology(["c"])
        rows, table = train_rows(topo, {"c": separable_client("c", n=6, seed=0)})
        with pytest.raises(DataError, match="^client 'c' has no training rows$"):
            plan_rounds(topo, without_rows_of(rows, ["c"]), table, (2, 4, 2), TrainingConfig())
        # The lowest id without rows is named, also where depth-first order
        # (c1, c3, c0, c2 in the interleaved tree) reaches another first.
        ds = {c: separable_client(c, n=6, seed=i) for i, c in enumerate(["c0", "c1", "c2", "c3"])}
        for layout in (flat_topology, interleaved_topology):
            topo = layout(sorted(ds))
            rows, table = train_rows(topo, ds)
            with pytest.raises(DataError, match="^client 'c0' has no training rows$"):
                plan_rounds(topo, without_rows_of(rows, ["c0", "c3"]), table, (2, 4, 2), TrainingConfig())

    def test_dim_mismatch_rejected(self):
        ds = separable_client("c", n=6, seed=0)
        with pytest.raises(SpatialFLError, match=r"^cohort raw rows \(6, 2\), .* disagree for input_dim 5$"):
            self.first_model(ds, init_params((5, 4, 2), 0), TrainingConfig(epochs=1))


class TestFedavg:
    """The uniform mode of :func:`aggregate`."""

    def test_mean_of_two(self):
        out = uniform([1, 2, 3, 4], [5, 6, 7, 8])
        assert np.array_equal(out.vector, [3.0, 4.0, 5.0, 6.0])

    def test_mean_of_three_constants(self):
        out = uniform([0] * 4, [3] * 4, [6] * 4)
        assert np.array_equal(out.vector, [3.0] * 4)

    def test_power_of_two_identical_models_bit_exact(self):
        p = init_params((2, 3, 2), seed=8)
        for k in (2, 4, 8):
            out = aggregate(np.stack([p.vector] * k), [1.0] * k, "uniform", p.dims)
            assert params_equal(out, p)

    def test_other_counts_within_1e15(self):
        p = init_params((2, 3, 2), seed=8)
        out = aggregate(np.stack([p.vector] * 3), [1.0] * 3, "uniform", p.dims)
        assert np.allclose(out.vector, p.vector, atol=1e-15, rtol=0.0)

    def test_empty_rejected(self):
        with pytest.raises(SpatialFLError, match="^no vectors to aggregate$"):
            aggregate(np.empty((0, 4)), [], "uniform", DIMS)


class TestNormalizeWeights:
    def test_proportional(self):
        assert normalize_weights([2.0, 6.0]) == [0.25, 0.75]

    def test_single(self):
        assert normalize_weights([5.0]) == [1.0]

    def test_all_zero_rejected(self):
        with pytest.raises(SpatialFLError, match="^raw weights sum to zero$"):
            normalize_weights([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(SpatialFLError, match="^raw weights must be non-negative$"):
            normalize_weights([1.0, -0.5])

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=10).filter(lambda w: sum(w) > 0))
    @settings(max_examples=100, deadline=None)
    def test_sums_to_one(self, raws):
        out = normalize_weights(raws)
        assert abs(sum(out) - 1.0) < 1e-12
        total = sum(raws)
        assert all(abs(o - r / total) < 1e-12 for o, r in zip(out, raws))


class TestWeightedAggregate:
    """The sample-weighted mode of :func:`aggregate`."""

    def test_quarter_three_quarters(self):
        out = weighted((1, [0] * 4), (3, [4] * 4))
        assert np.array_equal(out.vector, [3.0] * 4)

    def test_equal_raw_weights_match_fedavg(self):
        rows = ([1, 2, 3, 4], [5, 6, 7, 8], [0, 1, 0, 1])
        assert np.allclose(weighted(*((7, v) for v in rows)).vector, uniform(*rows).vector,
                           atol=1e-15, rtol=0.0)

    def test_single_update_identity(self):
        p = init_params((3, 2, 2), seed=5)
        out = aggregate(p.vector[None, :], [9.0], "sample_weighted", p.dims)
        assert params_equal(out, p)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(SpatialFLError, match="^raw weights sum to zero$"):
            weighted((0, [1] * 4), (0, [2] * 4))


def traced_peak(call):
    """The result of ``call()`` and the peak bytes tracemalloc saw it hold
    beyond what was held before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


class TestStreamedPairwiseSum:
    """The streamed pairwise sum against the level-by-level list fold."""

    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 300))
    @settings(max_examples=80, deadline=None)
    def test_same_bits_as_level_by_level_fold(self, seed, k):
        rng = np.random.default_rng(seed)
        # Magnitudes from 1e-8 to 1e8, so every pairing rounds differently.
        params = rng.standard_normal((k, 4)) * 10.0 ** rng.uniform(-8, 8, (k, 4))
        copies = list(params.copy())
        raws = rng.integers(1, 1000, k).astype(float)
        assert aggregate(params, raws, "uniform", DIMS).vector.tobytes() == (tree_sum_levels(copies) / k).tobytes()
        folded = tree_sum_levels([w * v for w, v in zip(normalize_weights(raws), copies)])
        assert aggregate(params, raws, "sample_weighted", DIMS).vector.tobytes() == folded.tobytes()
        # The clients' rows are read, never written.
        assert np.array_equal(params, copies)

    def test_power_of_two_identical_inputs_sum_exactly(self):
        v = np.random.default_rng(0).standard_normal(5) * 1e3
        for k in (1, 2, 4, 8, 64, 256):
            assert federation._tree_sum([v] * k).tobytes() == (k * v).tobytes()

    @pytest.mark.parametrize("mode", AGGREGATION_MODES)
    def test_holds_logarithmically_many_vectors(self, mode):
        # 64 clients of about 10,000 parameters: a list fold holds dozens
        # of sums (or all 64 weighted products) at once.
        dims = (400, 24, 16)
        n = nn.flat_length(dims)
        rng = np.random.default_rng(1)
        params = rng.standard_normal((64, n))
        raws = [1.0 + i for i in range(64)]
        _, peak = traced_peak(lambda: aggregate(params, raws, mode, dims))
        assert peak < (math.log2(64) + 3) * 8 * n


class TestAggregationProperties:
    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_permutation_bit_invariance(self, seed):
        # The order in which the paths are listed does not change the
        # tree, and each interior node folds its children in ascending id
        # order, whatever order the tree holds them in.
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        paths = random_paths(rng, int(rng.integers(2, 7)))
        topo = TierTopology(paths)
        params, counts = random_buffer(len(topo.clients()), dims, rng)
        assert TierTopology(paths[i] for i in rng.permutation(len(paths))) == topo
        rows = dict(zip(topo.clients(), zip(params, counts)))
        for mode in AGGREGATION_MODES:
            models = aggregate_tree(topo, params, counts, dims, mode)
            expected = child_order_models(topo, rows, dims, mode)
            assert models.keys() == expected.keys()
            assert all(params_equal(models[n], expected[n]) for n in models)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=100, deadline=None)
    def test_convexity(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3, 2)
        params, counts = random_buffer(int(rng.integers(1, 7)), dims, rng)
        for mode in AGGREGATION_MODES:
            vec = aggregate(params, counts, mode, dims).vector
            assert np.all(vec >= params.min(axis=0) - 1e-15)
            assert np.all(vec <= params.max(axis=0) + 1e-15)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=60, deadline=None)
    def test_hierarchical_equals_flat_weighted(self, seed):
        rng = np.random.default_rng(seed)
        topo = random_tree(rng, int(rng.integers(2, 10)))
        params, counts = random_buffer(len(topo.clients()), (2, 3, 2), rng)
        root = aggregate_tree(topo, params, counts, (2, 3, 2), "sample_weighted")[topo.root_id]
        flat = aggregate(params, counts, "sample_weighted", (2, 3, 2))
        assert np.allclose(root.vector, flat.vector, atol=1e-12, rtol=0.0)

    def test_uniform_equals_flat_on_balanced_tree(self):
        rng = np.random.default_rng(3)
        topo = TierTopology((f"g{g}c{c}", f"g{g}") for g in range(2) for c in range(3))
        params = np.stack([init_params((2, 3, 2), int(rng.integers(0, 99))).vector for _ in topo.clients()])
        counts = [10.0] * len(params)
        root = aggregate_tree(topo, params, counts, (2, 3, 2), "uniform")[topo.root_id]
        assert np.allclose(root.vector, aggregate(params, counts, "uniform", (2, 3, 2)).vector,
                           atol=1e-12, rtol=0.0)

    def test_aggregate_tree_missing_update_rejected(self):
        # One row, or one weight, fewer than the tree has clients: nothing
        # may pair the rest up silently.
        topo = random_tree(np.random.default_rng(0), 3)
        params, counts = random_buffer(len(topo.clients()), DIMS, np.random.default_rng(1))
        for short in ((params[:-1], counts), (params, counts[:-1]), (params[:-1], counts[:-1])):
            with pytest.raises(SpatialFLError, match=f"^{len(short[0])} parameter rows and {len(short[1])} weights "
                                                     "for 3 clients$"):
                aggregate_tree(topo, *short, DIMS, "uniform")


@st.composite
def compact_rounds(draw):
    """A random ragged tier tree of depth 1 to 3 (the length of every
    hierarchy path) over one to nine clients of 1 to 30 training rows,
    an aggregation mode, encoding on or off, and a cohort budget that
    cuts the clients into cohorts of one or leaves them in one."""
    depth = draw(st.integers(1, 3))
    n_clients = draw(st.integers(1, 9))
    below = [f"c{i}" for i in range(n_clients)]
    paths = [[c] for c in below]
    for level in range(1, depth):
        parents = [f"t{level}n{j}" for j in range(draw(st.integers(1, min(3, len(below)))))]
        parent_of = {node: parents[draw(st.integers(0, len(parents) - 1))] for node in below}
        for path in paths:
            path.append(parent_of[path[-1]])
        below = sorted(set(parent_of.values()))
    return dict(paths=[tuple(path) for path in paths],
                counts=draw(st.lists(st.integers(1, 30), min_size=n_clients, max_size=n_clients)),
                mode=draw(st.sampled_from(AGGREGATION_MODES)), encoding=draw(st.booleans()),
                cohort_bytes=draw(st.sampled_from([None, 1])), seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestCompactClientModels:
    """A round's client models are compact rows over the broadcast; every
    client vector they rebuild and every aggregate over them is bit for bit
    that of the dense path (``reference.dense_rows``, then the fold over
    dense vectors)."""

    @given(case=compact_rounds())
    @settings(max_examples=40, deadline=None)
    def test_rebuilt_vectors_and_aggregates_equal_the_dense_path(self, case):
        rng = np.random.default_rng(case["seed"])
        topo = TierTopology(case["paths"])
        datasets = {path[0]: ClientDataset(path[0], SpatialAttribute(rng.uniform(-60, 60), rng.uniform(-170, 170),
                                                                     path),
                                           rng.normal(size=(n, 2)), rng.integers(0, 3, size=n), 3)
                    for path, n in zip(case["paths"], case["counts"])}
        vocab = build_vocabulary([ds.spatial for ds in datasets.values()]) if case["encoding"] else None
        rows, table = train_rows(topo, datasets, vocab)
        dims = (table[0].shape[1] + 2, 4, 3)
        config = TrainingConfig(learning_rate=0.05, epochs=2, batch_size=8)
        mode, clients = case["mode"], topo.clients()
        with mock.patch.object(nn, "COHORT_BYTES", case["cohort_bytes"] or nn.COHORT_BYTES):
            plan = plan_rounds(topo, rows, table, dims, config)
        broadcast = init_params(dims, seed=case["seed"] % 1000)
        # Two rounds: the second starts from the first's root, not from init.
        for round_index in (1, 2):
            models, counts, interior = run_tier_round(topo, plan, broadcast, mode, case["seed"], round_index)
            buffer = dense_rows(plan, models)
            assert len(models) == len(clients) == len(buffer)
            for k, model in enumerate(models.each()):
                assert models.vector(k).tobytes() == buffer[k].tobytes()
                assert models[k].vector.tobytes() == model.vector.tobytes() == buffer[k].tobytes()
                assert models.scaled(k, 0.3).tobytes() == (0.3 * buffer[k]).tobytes()
            folded = child_order_models(topo, {c: (buffer[k], counts[k]) for k, c in enumerate(clients)}, dims, mode)
            assert sorted(folded) == sorted(interior)
            for node, model in interior.items():
                assert model.vector.tobytes() == folded[node].vector.tobytes(), node
            for flat_mode in AGGREGATION_MODES:
                assert (aggregate(models, counts, flat_mode, dims).vector.tobytes()
                        == aggregate(buffer, counts, flat_mode, dims).vector.tobytes())
            broadcast = interior[ROOT_ID]

    @pytest.mark.parametrize("mode", AGGREGATION_MODES)
    def test_aggregate_tree_holds_logarithmically_many_client_vectors(self, mode):
        # 64 clients of about 10,000 parameters, each of which moved 500,
        # under one root: a dense buffer alone would be 64 vectors.
        dims = (400, 24, 16)
        n = nn.flat_length(dims)
        rng = np.random.default_rng(2)
        index = np.sort(np.stack([rng.choice(n, 500, replace=False) for _ in range(64)]), axis=1)
        models = nn.ClientModels(init_params(dims, seed=0), [np.arange(64)], [index], [rng.standard_normal((64, 500))])
        topo = flat_topology([f"c{i:02d}" for i in range(64)])
        raws = [1.0 + i for i in range(64)]
        root, peak = traced_peak(lambda: aggregate_tree(topo, models, raws, dims, mode)[ROOT_ID])
        assert peak < (math.log2(64) + 3) * 8 * n
        assert root.vector.tobytes() == aggregate(dense(models), raws, mode, dims).vector.tobytes()


class TestRunTierRound:
    def test_single_client_root_is_client_model(self):
        topo = flat_topology(["c0"])
        ds = {"c0": separable_client("c0", n=12, seed=0)}
        init = init_params((2, 4, 2), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=5)
        models, (params, counts) = run_rounds(topo, train_rows(topo, ds), init, "uniform", config, 42, 1)
        direct = train_alone(ds["c0"], init, config, round_seed(42, "c0", 1))
        assert params_equal(models[ROOT_ID], direct)
        assert params_equal(models["c0"], direct)
        assert len(params) == 1 and counts == [ds["c0"].n_rows]
        assert params_equal(params[0], direct)

    def test_zero_epochs_returns_init_everywhere(self):
        rng = np.random.default_rng(7)
        topo = random_tree(rng, 4)
        ds = {c: separable_client(c, n=8, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 4, 2), seed=9)
        models, _ = run_rounds(topo, train_rows(topo, ds), init, "sample_weighted", TrainingConfig(epochs=0), 0, 1)
        for node_id, model in models.items():
            assert params_equal(model, init), node_id

    def test_balanced_tree_matches_flat_weighted(self):
        topo = TierTopology((f"g{g}c{c}", f"g{g}") for g in range(2) for c in range(2))
        ds = {c: separable_client(c, n=10, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=3)
        _, _, models = tier_round(topo, train_rows(topo, ds), init, "sample_weighted", config, 5, 1)
        params, counts = alone_round(ds, init, config, 5)
        assert np.allclose(models[ROOT_ID].vector, aggregate(params, counts, "sample_weighted", init.dims).vector,
                           atol=1e-12, rtol=0.0)

    def test_first_round_buffer_rows_follow_ascending_client_ids(self):
        # The interleaved tree trains in depth-first order c1, c3, c0, c2,
        # yet client model k and counts[k] belong to the k-th client in
        # ascending id order, and every node aggregates its own clients.
        ds = {c: separable_client(c, n=n, seed=i) for i, (c, n) in
              enumerate([("c0", 6), ("c1", 8), ("c2", 10), ("c3", 12)])}
        topo = interleaved_topology(sorted(ds))
        assert topo.client_order == ("c1", "c3", "c0", "c2")
        init = init_params((2, 4, 2), seed=2)
        config = TrainingConfig(learning_rate=0.05, epochs=2)
        params, counts, models = tier_round(topo, train_rows(topo, ds), init, "sample_weighted", config, 6, 1)
        direct, direct_counts = alone_round(ds, init, config, 6)
        assert counts == direct_counts == [6, 8, 10, 12]
        assert dense(params).tobytes() == direct.tobytes()
        east = aggregate(params.select([1, 3]), [8, 12], "sample_weighted", init.dims)
        west = aggregate(params.select([0, 2]), [6, 10], "sample_weighted", init.dims)
        root = aggregate([east.vector, west.vector], [20, 16], "sample_weighted", init.dims)
        assert params_equal(models["east"], east) and params_equal(models["west"], west)
        assert params_equal(models[ROOT_ID], root)

    def diverging_round(self, blown_up, layout=flat_topology):
        # Adam's step is about the learning rate whatever the gradient's
        # scale, so scaled features alone stay finite; with this rate the
        # first step's weights times 1e300-scaled features overflow.
        topo = layout(["c0", "c1"])
        ds = {c: separable_client(c, n=12, seed=i) for i, c in enumerate(["c0", "c1"])}
        for c in blown_up:
            ds[c].features *= 1e300
        init = init_params((2, 4, 2), 1)
        config = TrainingConfig(learning_rate=1e9, epochs=2, batch_size=4)
        assert cohort_slices(2, init.dims, config.batch_size) == [slice(0, 2)]
        with pytest.raises(DivergenceError) as info:
            run_rounds(topo, train_rows(topo, ds), init, "uniform", config, 3, 2)
        return str(info.value)

    def test_divergence_inside_a_cohort_names_the_client(self):
        # Pinned to the message of the per-client loop that preceded cohorts.
        assert self.diverging_round(["c1"]) == (
            "client 'c1' in round 1: training diverged (layer1_weights contains non-finite entries)")

    def test_divergence_of_two_members_names_the_lower_id(self):
        # In the interleaved tree, depth-first order is c1, c0.
        for layout in (flat_topology, interleaved_topology):
            assert self.diverging_round(["c0", "c1"], layout) == (
                "client 'c0' in round 1: training diverged (layer1_weights contains non-finite entries)")

    def test_cohorts_group_by_row_count_within_the_byte_budget(self, monkeypatch):
        # Cohorts are consecutive runs of the clients in descending
        # training-row order (ties by id), each within the byte budget.
        ds = {c: separable_client(c, n=n, seed=i) for i, (c, n) in
              enumerate([("a", 10), ("b", 12), ("c", 10), ("d", 14), ("e", 12)])}
        topo = flat_topology(sorted(ds))
        init = init_params((2, 4, 2), 1)
        config = TrainingConfig(epochs=1, batch_size=4)
        per_client = working_set_bytes(init.dims, config.batch_size)
        owner = {round_seed(3, c, 1): c for c in ds}
        calls = []
        original = nn._train_part

        def spy(plan, part, init, seeds, scratch, out):
            calls.append(([owner[s] for s in seeds], np.diff(part.bounds).tolist()))
            return original(plan, part, init, seeds, scratch, out)

        monkeypatch.setattr(nn, "_train_part", spy)
        tier_round(topo, train_rows(topo, ds), init, "sample_weighted", config, 3, 1)
        assert calls == [(["d", "b", "e", "a", "c"], [14, 12, 12, 10, 10])]
        calls.clear()
        monkeypatch.setattr(nn, "COHORT_BYTES", 2 * per_client + 1)
        tier_round(topo, train_rows(topo, ds), init, "sample_weighted", config, 3, 1)
        assert calls == [(["d", "b"], [14, 12]), (["e", "a"], [12, 10]), (["c"], [10])]
        assert all(len(ids) * per_client <= nn.COHORT_BYTES for ids, _ in calls)

    def test_cohort_cut_stays_bounded_at_scale(self):
        # Pure arithmetic at the scale config's dims: 20 regions x 100
        # clients, a one-hot leaf encoding of about 2,024 inputs.
        for dims in [(2024, 16, 3), (2024, 16, 2), (170, 16, 3), (12, 16, 2)]:
            per_client = working_set_bytes(dims, 32)
            parts = cohort_slices(2000, dims, 32)
            assert [i for p in parts for i in range(p.start, p.stop)] == list(range(2000))
            assert all((p.stop - p.start) * per_client <= nn.COHORT_BYTES for p in parts)
            # Tight: one more client would not have fitted.
            assert all((p.stop - p.start + 1) * per_client > nn.COHORT_BYTES
                       for p in parts[:-1])
        # A client whose working set alone exceeds the budget trains alone.
        huge = (200_000, 16, 3)
        assert working_set_bytes(huge, 32) > nn.COHORT_BYTES
        assert cohort_slices(3, huge, 32) == [slice(0, 1), slice(1, 2), slice(2, 3)]

    def test_holds_one_rounds_buffer_at_a_time(self, monkeypatch):
        # A run's round loop: every kernel call returns compact client
        # models, never a dense (K, P) buffer, and what the loop holds at
        # a call stops growing after round 2. Beyond the first call it
        # holds round 1's compact models (the baselines' input), the last
        # round's and that round's interior models, not every round's.
        config = ExperimentConfig(
            data=SyntheticSource(SyntheticSpec(2, 4, 8, n_classes=2, seed=3)), seed=2,
            training=TrainingConfig(epochs=1), hidden_dim=400, policy=AggregationPolicy("sample_weighted", 4),
            baselines=(BaselineKind.ENSEMBLE, BaselineKind.FLAT_FEDAVG))
        held, widths = [], []
        original = federation.train_cohort

        def spy(plan, init, seeds):
            held.append(tracemalloc.get_traced_memory()[0])
            models, failed = original(plan, init, seeds)
            widths.append(({values.shape[1] for values in models.values}, len(models), init.n_params))
            return models, failed

        monkeypatch.setattr(federation, "train_cohort", spy)
        traced_peak(lambda: run_experiment(config))
        ((width, k, n_params),) = {(tuple(w), k, n) for w, k, n in widths}
        assert len(held) == 4 and k == 8 and all(w < n_params for w in width)
        assert abs(held[3] - held[2]) < n_params * 8

    def test_missing_dataset_rejected(self):
        topo = flat_topology(["c0", "c1"])
        with pytest.raises(DataError, match=r"^no dataset for clients: \['c1'\]$"):
            stack_split(topo, {"c0": separable_client("c0", n=8)})

    def test_full_run_bit_reproducible(self):
        rng = np.random.default_rng(13)
        topo = random_tree(rng, 5)
        ds = {c: separable_client(c, n=12, seed=i) for i, c in enumerate(topo.clients())}
        init = init_params((2, 6, 2), seed=2)
        config = TrainingConfig(learning_rate=0.03, epochs=4)
        first, _ = run_rounds(topo, train_rows(topo, ds), init, "sample_weighted", config, 77, 3)
        second, _ = run_rounds(topo, train_rows(topo, ds), init, "sample_weighted", config, 77, 3)
        assert set(first) == set(second)
        for node_id in first:
            assert params_equal(first[node_id], second[node_id])

    def test_more_rounds_do_not_degrade_root_accuracy(self):
        # Non-degradation smoke check on the separable benchmark.
        datasets, topo, _ = generate_synthetic(SyntheticSpec(3, 2, 100, n_classes=3, seed=4))
        train, valid = split_clients(datasets, 4)
        vocab = build_vocabulary([train[c].spatial for c in sorted(train)])
        init = init_params((vocab.encoding_length + 2, 16, 3), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=5)

        def root_accuracy(rounds):
            models, _ = run_rounds(topo, train_rows(topo, train, vocab), init, "sample_weighted", config, 21, rounds)
            raw, labels, codes, _ = stack_rows(list(valid.values()))
            enc, _ = encoding_table([c.spatial for c in valid.values()], vocab)
            return np.mean(predict_rows(models[topo.root_id], raw, codes, enc) == labels)

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
        with pytest.raises(SpatialFLError, match="^bad magic b'XXXX'$"):
            deserialize_model(b"XXXX" + blob[4:])

    def test_wrong_version_rejected(self):
        blob = serialize_model(init_params((2, 3, 2), 0))
        with pytest.raises(SpatialFLError, match="^unsupported format version 2$"):
            deserialize_model(blob[:4] + b"\x02" + blob[5:])

    def test_truncated_header_rejected(self):
        with pytest.raises(SpatialFLError, match=r"^file too short \(5 bytes\) for a model header$"):
            deserialize_model(b"ESFL\x01")

    def test_short_payload_rejected(self):
        header = MODEL_MAGIC + b"\x01" + struct.pack("<III", 2, 3, 2)
        with pytest.raises(SpatialFLError, match=r"^payload is 8 bytes, dims \(2, 3, 2\) require 136$"):
            deserialize_model(header + b"\x00" * 8)

    def test_trailing_bytes_rejected(self):
        blob = serialize_model(init_params((2, 3, 2), 0))
        with pytest.raises(SpatialFLError, match=r"^payload is 137 bytes, dims \(2, 3, 2\) require 136$"):
            deserialize_model(blob + b"\x00")

    def test_zero_dimension_header_rejected(self):
        header = MODEL_MAGIC + b"\x01" + struct.pack("<III", 0, 3, 2)
        with pytest.raises(SpatialFLError, match=r"^header declares invalid dims \(0, 3, 2\)$"):
            deserialize_model(header)

    def test_non_finite_payload_rejected(self):
        p = vector_params(DIMS, [1.0, 2.0, 3.0, 4.0])
        blob = serialize_model(p)
        bad = blob[:17] + struct.pack("<4d", np.nan, 0.0, 0.0, 0.0)
        with pytest.raises(SpatialFLError, match="^payload rejected: layer1_weights contains non-finite entries$"):
            deserialize_model(bad)
