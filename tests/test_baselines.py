"""Tests for the centralized, ensemble, and flat-averaging baselines."""

import mmap
import weakref

import numpy as np
import pytest

from helpers import alone_update, no_encoding, separable_client, train_alone
from reference import params_equal
from spatialfl.baselines import ensemble_predict_batch, train_centralized
from spatialfl.data import SyntheticSpec, generate_synthetic, train_valid_split
from spatialfl.errors import DivergenceError, EmptyAggregationError, EmptyDatasetError, ShapeError
from spatialfl.federation import (
    AggregationPolicy,
    TierNode,
    TierTopology,
    fedavg,
    per_round_config,
    run_tier_round,
    stack_rows,
    weighted_aggregate,
)
from spatialfl.harness import evaluate
from spatialfl.nn import ModelParams, TrainingConfig, flat_length, init_params, predict_rows
from spatialfl.seeding import derive_seed
from spatialfl.spatial import build_vocabulary, encode_spatial


def constant_class_model(n_classes, winner, input_dim=2, hidden=2):
    """Zero weights and a peaked output bias: predicts one class for any input."""
    dims = (input_dim, hidden, n_classes)
    vec = np.zeros(flat_length(dims))
    vec[-n_classes + winner] = 9.0 if winner else 0.0
    if winner == 0:
        vec[-n_classes] = 9.0
    return ModelParams(vec, dims)


class TestCentralized:
    def test_single_client_pool_matches_local_train(self):
        ds = separable_client("only", n=14, seed=2)
        init = init_params((2, 4, 2), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=6, seed=33)
        pooled = train_centralized([ds], init, config, None)
        assert params_equal(pooled, train_alone(ds, init, config))

    def test_zero_epochs_return_init(self):
        ds = separable_client("c", n=8, seed=0)
        init = init_params((2, 4, 2), seed=7)
        assert params_equal(train_centralized([ds], init, TrainingConfig(epochs=0), None), init)

    def test_pool_order_does_not_matter(self):
        clients = [separable_client(f"c{i}", n=10, seed=i) for i in range(4)]
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.02, epochs=3, seed=11)
        forward_order = train_centralized(clients, init, config, None)
        reverse_order = train_centralized(list(reversed(clients)), init, config, None)
        assert params_equal(forward_order, reverse_order)

    def test_empty_pool_rejected(self):
        ds = separable_client("c", n=6, seed=0)
        ds.split_tags[:] = "validation"
        with pytest.raises(EmptyDatasetError):
            train_centralized([ds], init_params((2, 4, 2), 0), TrainingConfig(), None)

    def test_divergence_names_the_baseline(self):
        ds = separable_client("c", n=12, seed=0)
        config = TrainingConfig(learning_rate=1e300, epochs=2, seed=1)
        with pytest.raises(DivergenceError, match="^centralized baseline: training diverged"):
            train_centralized([ds], init_params((2, 4, 2), 0), config, None)

    def test_noiseless_synthetic_reaches_095(self):
        # The construction is separable given region identity, so a pooled
        # model over encoded features must get at least 0.95.
        datasets, _, _ = generate_synthetic(SyntheticSpec(3, 2, 100, n_classes=3, seed=6))
        datasets = {cid: train_valid_split(ds, 0.8, derive_seed(6, "split", cid))
                    for cid, ds in datasets.items()}
        vocab = build_vocabulary([datasets[c].spatial for c in sorted(datasets)])
        init = init_params((vocab.encoding_length + 2, 16, 3), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=100, seed=2)
        model = train_centralized(list(datasets.values()), init, config, vocab)
        assert evaluate(model, datasets.values(), vocab) >= 0.95


def encoded_blocks(clients, vocab, split):
    """Each client's rows of a split with its encoding prepended, built
    row by row: the model inputs the row format stands for."""
    blocks = []
    for c in clients:
        feats = c.rows(split)[0]
        head = encode_spatial(c.spatial, vocab) if vocab is not None else np.empty(0)
        rows = [np.concatenate([head, row]) for row in feats]
        blocks.append(np.array(rows).reshape(len(feats), head.size + feats.shape[1]))
    return blocks


class TestStackRows:
    def test_assembled_rows_match_per_client_encoded_rows(self):
        clients = [separable_client(f"c{i}", n=6 + i, seed=i) for i in range(4)]
        for i, ds in enumerate(clients):
            ds.split_tags[:: i + 2] = "validation"
        vocab = build_vocabulary([c.spatial for c in clients])
        for v in (vocab, None):
            raw, labels, codes, enc, offsets = stack_rows(clients, v, "validation")
            blocks = encoded_blocks(clients, v, "validation")
            assert np.array_equal(np.hstack([enc[codes], raw]), np.vstack(blocks))
            assert np.array_equal(labels, np.concatenate([c.rows("validation")[1] for c in clients]))
            assert offsets.tolist() == np.cumsum([0] + [b.shape[0] for b in blocks]).tolist()
            assert enc.shape == (len(clients), v.encoding_length if v is not None else 0)
            assert codes.tolist() == np.repeat(np.arange(len(clients)), np.diff(offsets)).tolist()

    def test_matrix_has_its_own_mapping_released_with_its_last_view(self):
        clients = [separable_client(f"c{i}", n=6, seed=i) for i in range(3)]
        vocab = build_vocabulary([c.spatial for c in clients])
        raw, *_ = stack_rows(clients, vocab, "train")
        mapping = raw
        while not isinstance(mapping, mmap.mmap):
            mapping = mapping.obj if isinstance(mapping, memoryview) else mapping.base
        released = weakref.ref(mapping)
        del mapping
        view = raw[1:]
        del raw
        assert released() is not None
        del view
        assert released() is None

    def test_no_rows_gives_an_empty_matrix(self):
        clients = [separable_client("c0", n=4, seed=0)]
        vocab = build_vocabulary([c.spatial for c in clients])
        raw, labels, codes, enc, offsets = stack_rows(clients, vocab, "validation")
        assert raw.shape == (0, 2) and enc.shape == (1, vocab.encoding_length)
        assert labels.shape == codes.shape == (0,) and offsets.tolist() == [0, 0]


def one_row(features):
    """A single feature vector as one row of that format."""
    return no_encoding(np.asarray(features, dtype=np.float64)[None, :])


class TestEnsemblePredict:
    def test_majority_wins(self):
        models = [constant_class_model(2, 1), constant_class_model(2, 1),
                  constant_class_model(2, 0)]
        assert ensemble_predict_batch(models, *one_row(np.zeros(2))).tolist() == [1]

    def test_tie_breaks_to_lowest_class(self):
        models = [constant_class_model(2, 0), constant_class_model(2, 1)]
        assert ensemble_predict_batch(models, *one_row(np.zeros(2))).tolist() == [0]

    def test_single_model_is_its_prediction(self):
        model = constant_class_model(3, 2)
        assert ensemble_predict_batch([model], *one_row(np.ones(2))).tolist() == [2]

    def test_copies_of_one_model_predict_like_it(self):
        rng = np.random.default_rng(8)
        model = init_params((3, 5, 3), seed=4)
        batch = rng.normal(size=(20, 3))
        single = predict_rows(model, *no_encoding(batch))
        for k in (2, 3, 5):
            assert np.array_equal(ensemble_predict_batch([model] * k, *no_encoding(batch)), single)

    def test_votes_match_per_row_bincount(self):
        rng = np.random.default_rng(21)
        models = [init_params((3, 4, 3), seed=k) for k in range(7)]
        batch = rng.normal(size=(40, 3)) * 3.0
        votes = np.stack([predict_rows(m, *no_encoding(batch)) for m in models])
        expected = [np.argmax(np.bincount(votes[:, i], minlength=3)) for i in range(batch.shape[0])]
        assert np.array_equal(ensemble_predict_batch(models, *no_encoding(batch)), expected)

    def test_empty_ensemble_rejected(self):
        with pytest.raises(EmptyAggregationError):
            ensemble_predict_batch([], *one_row(np.zeros(2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ensemble_predict_batch([init_params((2, 3, 2), 0), init_params((3, 3, 2), 0)],
                                   *one_row(np.zeros(2)))


class TestFlatFedavg:
    """The flat baselines are one aggregation step over the tiered run's
    round-1 client updates, and the ensemble members are their params."""

    @staticmethod
    def one_level_run(clients, init, config, mode="uniform", rounds=1):
        nodes = [TierNode(c.client_id, 0, "root") for c in clients]
        nodes.append(TierNode("root", 1, None))
        datasets = {c.client_id: c for c in clients}
        return run_tier_round(TierTopology(tuple(nodes)), datasets, init,
                              AggregationPolicy(mode, rounds), config, None)

    def test_single_client_returns_its_model(self):
        ds = separable_client("solo", n=12, seed=3)
        init = init_params((2, 4, 2), seed=2)
        config = TrainingConfig(learning_rate=0.05, epochs=4, seed=19)
        _, first_round = self.one_level_run([ds], init, config)
        direct = train_alone(ds, init, per_round_config(config, "solo", 1))
        assert params_equal(fedavg(first_round), direct)
        assert params_equal(weighted_aggregate(first_round), direct)

    def test_equal_counts_weighted_matches_unweighted(self):
        clients = [separable_client(f"c{i}", n=10, seed=i) for i in range(3)]
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=2, seed=8)
        _, first_round = self.one_level_run(clients, init, config)
        plain = fedavg(first_round).vector
        weighted = weighted_aggregate(first_round).vector
        assert np.allclose(np.abs(plain - weighted), 0.0, atol=1e-15)

    def test_matches_degenerate_tier_round_bit_exact(self):
        # One round over a one-level tree must equal one aggregation step
        # over clients trained directly from the init with round-1 seeds,
        # for both policies; later rounds must not alter the round-1 updates.
        clients = [separable_client(f"c{i}", n=8 + 2 * i, seed=i) for i in range(4)]
        init = init_params((2, 4, 2), seed=5)
        config = TrainingConfig(learning_rate=0.03, epochs=3, seed=31)
        direct = [alone_update(c, init, per_round_config(config, c.client_id, 1)) for c in clients]
        for mode, aggregate in (("uniform", fedavg), ("sample_weighted", weighted_aggregate)):
            tree_models, first_round = self.one_level_run(clients, init, config, mode)
            assert params_equal(tree_models["root"], aggregate(direct))
            assert params_equal(aggregate(first_round), aggregate(direct))
            _, kept = self.one_level_run(clients, init, config, mode, rounds=3)
            assert [u.client_id for u in kept] == [u.client_id for u in direct]
            assert all(params_equal(a.params, b.params) for a, b in zip(kept, direct))

    def test_client_models_use_per_client_seeds(self):
        clients = [separable_client(f"c{i}", n=10, seed=0) for i in range(2)]
        init = init_params((2, 4, 2), seed=0)
        _, (c0, c1) = self.one_level_run(clients, init, TrainingConfig(epochs=2, seed=3))
        # identical data but distinct derived seeds produce distinct models
        assert not params_equal(c0.params, c1.params)
