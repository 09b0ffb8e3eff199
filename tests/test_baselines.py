"""Tests for the centralized, ensemble, and flat-averaging baselines."""

import numpy as np
import pytest

from helpers import (
    alone_round,
    dense,
    flat_topology,
    interleaved_topology,
    no_encoding,
    separable_client,
    run_rounds,
    spans,
    split_clients,
    train_alone,
    train_rows,
    without_rows_of,
)
from reference import dense_encodings, params_equal
from spatialfl import nn
from spatialfl.baselines import ensemble_predict_batch, train_centralized
from spatialfl.data import SyntheticSpec, generate_synthetic
from spatialfl.errors import DataError, DivergenceError, SpatialFLError
from spatialfl.federation import AGGREGATION_MODES, ROOT_ID, aggregate, round_seed, stack_rows
from spatialfl.nn import (
    ModelParams,
    TrainingConfig,
    flat_length,
    init_params,
    plan_cohort,
    predict_rows,
    train_cohort,
)
from spatialfl.spatial import build_vocabulary, encoding_table


def constant_class_model(n_classes, winner, input_dim=2, hidden=2):
    """Zero weights and a peaked output bias: predicts one class for any input."""
    dims = (input_dim, hidden, n_classes)
    vec = np.zeros(flat_length(dims))
    vec[-n_classes + winner] = 9.0 if winner else 0.0
    if winner == 0:
        vec[-n_classes] = 9.0
    return ModelParams(vec, dims)


def pooled(groups, init, config, seed, vocab=None, layout=flat_topology):
    """:func:`train_centralized` over groups of clients, on the training
    rows of all of them laid out under ``layout``."""
    datasets = {c.client_id: c for group in groups for c in group}
    rows, enc = train_rows(layout(sorted(datasets)), datasets, vocab)
    return train_centralized([[c.client_id for c in group] for group in groups], init, config, seed, rows, enc)


class TestCentralized:
    def test_single_client_pool_matches_local_train(self):
        ds = separable_client("only", n=14, seed=2)
        init = init_params((2, 4, 2), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=6)
        [model] = pooled([[ds]], init, config, 33)
        assert params_equal(model, train_alone(ds, init, config, 33))

    def test_zero_epochs_return_init(self):
        ds = separable_client("c", n=8, seed=0)
        init = init_params((2, 4, 2), seed=7)
        [model] = pooled([[ds]], init, TrainingConfig(epochs=0), 0)
        assert params_equal(model, init)

    def test_pool_order_does_not_matter(self):
        clients = [separable_client(f"c{i}", n=10, seed=i) for i in range(4)]
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.02, epochs=3)
        [forward_order] = pooled([clients], init, config, 11)
        [reverse_order] = pooled([list(reversed(clients))], init, config, 11)
        assert params_equal(forward_order, reverse_order)

    def test_empty_pool_rejected(self):
        rows, enc = train_rows(flat_topology(["c"]), {"c": separable_client("c", n=6, seed=0)})
        with pytest.raises(DataError, match="^pooled training set is empty$"):
            train_centralized([["c"]], init_params((2, 4, 2), 0), TrainingConfig(), 0, without_rows_of(rows, ["c"]),
                              enc)

    def test_divergence_names_the_baseline(self):
        ds = separable_client("c", n=12, seed=0)
        config = TrainingConfig(learning_rate=1e300, epochs=2)
        with pytest.raises(DivergenceError, match="^centralized baseline: training diverged"):
            pooled([[ds]], init_params((2, 4, 2), 0), config, 1)

    @staticmethod
    def pooled_alone(group, init, config, seed, vocab):
        """A group's pooled training rows trained as the only client of a
        kernel call."""
        group = sorted(group, key=lambda c: c.client_id)
        raw, labels, codes, _ = stack_rows(group)
        enc = encoding_table([c.spatial for c in group], vocab)
        plan = plan_cohort(raw, labels, codes, enc, spans([0, labels.size]), init.dims, config)
        models, diverged = train_cohort(plan, init, [seed])
        assert diverged == {}
        return models[0]

    @pytest.mark.parametrize("cohort_bytes", [None, 1])
    def test_each_group_matches_it_trained_alone(self, monkeypatch, cohort_bytes):
        # Overlapping, ragged groups in no order of size, the first one
        # repeated last; every row keeps its own client's encoding. Under
        # the interleaved tree the stack's client order (c1, c3, c0, c2) is
        # not id order, and each group still pools in ascending id order.
        clients = [separable_client(f"c{i}", n=6 + 3 * i, seed=i) for i in range(4)]
        c0, c1, c2, c3 = clients
        groups = [[c1], [c3, c0], clients, [c2, c1, c3], [c1]]
        vocab = build_vocabulary([c.spatial for c in clients])
        init = init_params((vocab.encoding_length + 2, 5, 2), seed=3)
        config = TrainingConfig(learning_rate=0.05, epochs=3, batch_size=4)
        if cohort_bytes is not None:
            monkeypatch.setattr(nn, "COHORT_BYTES", cohort_bytes)
        for layout in (flat_topology, interleaved_topology):
            models = pooled(groups, init, config, 12, vocab, layout)
            assert len(models) == len(groups)
            for group, model in zip(groups, models):
                assert params_equal(model, self.pooled_alone(group, init, config, 12, vocab))

    def test_divergence_in_a_later_group_names_the_baseline(self):
        calm = separable_client("c0", n=12, seed=0)
        wild = separable_client("c1", n=10, seed=1)
        wild.features *= 1e300
        init = init_params((2, 4, 2), 1)
        config = TrainingConfig(learning_rate=1e9, epochs=2, batch_size=4)
        pooled([[calm]], init, config, 1)
        # The two diverging groups fail in different layers; the first of
        # them in the order given is reported.
        for groups, layer in [([[calm], [calm, wild], [wild]], "layer2_weights"),
                              ([[calm], [wild], [calm, wild]], "layer1_weights")]:
            with pytest.raises(DivergenceError) as info:
                pooled(groups, init, config, 1)
            assert str(info.value) == (
                f"centralized baseline: training diverged ({layer} contains non-finite entries)")

    def test_empty_group_rejected(self):
        ds = {c: separable_client(c, n=6, seed=i) for i, c in enumerate(["c0", "c1"])}
        rows, enc = train_rows(flat_topology(sorted(ds)), ds)
        with pytest.raises(DataError, match="^pooled training set is empty$"):
            train_centralized([["c0", "c1"], ["c1"]], init_params((2, 4, 2), 0), TrainingConfig(), 0,
                              without_rows_of(rows, ["c1"]), enc)

    def test_noiseless_synthetic_reaches_095(self):
        # The construction is separable given region identity, so a pooled
        # model over encoded features must get at least 0.95.
        datasets, _, _ = generate_synthetic(SyntheticSpec(3, 2, 100, n_classes=3, seed=6))
        train, valid = split_clients(datasets, 6)
        vocab = build_vocabulary([train[c].spatial for c in sorted(train)])
        init = init_params((vocab.encoding_length + 2, 16, 3), seed=1)
        config = TrainingConfig(learning_rate=0.05, epochs=100)
        [model] = pooled([train.values()], init, config, 2, vocab)
        raw, labels, codes, _ = stack_rows(list(valid.values()))
        enc = encoding_table([c.spatial for c in valid.values()], vocab)
        assert np.mean(predict_rows(model, raw, codes, enc) == labels) >= 0.95


def encoded_blocks(clients, vocab):
    """Each client's rows with its encoding prepended, built row by row:
    the model inputs the row format stands for."""
    blocks = []
    for c in clients:
        feats = c.features
        [head] = dense_encodings(encoding_table([c.spatial], vocab))
        rows = [np.concatenate([head, row]) for row in feats]
        blocks.append(np.array(rows).reshape(len(feats), head.size + feats.shape[1]))
    return blocks


class TestStackRows:
    def test_assembled_rows_match_per_client_encoded_rows(self):
        clients = [separable_client(f"c{i}", n=6 + i, seed=i) for i in range(4)]
        vocab = build_vocabulary([c.spatial for c in clients])
        for v in (vocab, None):
            raw, labels, codes, offsets = stack_rows(clients)
            enc = encoding_table([c.spatial for c in clients], v)
            blocks = encoded_blocks(clients, v)
            assert np.array_equal(np.hstack([dense_encodings(enc)[codes], raw]), np.vstack(blocks))
            assert np.array_equal(labels, np.concatenate([c.labels for c in clients]))
            assert offsets.tolist() == np.cumsum([0] + [b.shape[0] for b in blocks]).tolist()
            assert (len(enc), enc.width) == (len(clients), v.encoding_length if v is not None else 0)
            assert codes.tolist() == np.repeat(np.arange(len(clients)), np.diff(offsets)).tolist()
            assert enc.labels.tolist() == [encoding_table([c.spatial], v).labels[0].tolist() for c in clients]

    def test_no_rows_gives_an_empty_matrix(self):
        vocab = build_vocabulary([separable_client("c0", n=4, seed=0).spatial])
        raw, labels, codes, offsets = stack_rows([])
        enc = encoding_table([], vocab)
        assert raw.shape == (0, 0) and (len(enc), enc.width) == (0, vocab.encoding_length)
        assert labels.shape == codes.shape == (0,) and offsets.tolist() == [0]
        assert enc.coords.shape == (0, 2) and enc.labels.shape == (0, 1)


def members(*models):
    """Ensemble members keyed by made-up client ids, in the order given."""
    return {f"c{i}": model for i, model in enumerate(models)}


def one_row(features):
    """A single feature vector as one row of that format."""
    return no_encoding(np.asarray(features, dtype=np.float64)[None, :])


class TestEnsemblePredict:
    def test_majority_wins(self):
        models = members(constant_class_model(2, 1), constant_class_model(2, 1), constant_class_model(2, 0))
        assert ensemble_predict_batch(models, *one_row(np.zeros(2))).tolist() == [1]

    def test_tie_breaks_to_lowest_class(self):
        models = members(constant_class_model(2, 0), constant_class_model(2, 1))
        assert ensemble_predict_batch(models, *one_row(np.zeros(2))).tolist() == [0]

    def test_single_model_is_its_prediction(self):
        model = constant_class_model(3, 2)
        assert ensemble_predict_batch(members(model), *one_row(np.ones(2))).tolist() == [2]

    def test_copies_of_one_model_predict_like_it(self):
        rng = np.random.default_rng(8)
        model = init_params((3, 5, 3), seed=4)
        batch = rng.normal(size=(20, 3))
        single = predict_rows(model, *no_encoding(batch))
        for k in (2, 3, 5):
            assert np.array_equal(ensemble_predict_batch(members(*[model] * k), *no_encoding(batch)), single)

    def test_votes_match_per_row_bincount(self):
        rng = np.random.default_rng(21)
        models = [init_params((3, 4, 3), seed=k) for k in range(7)]
        batch = rng.normal(size=(40, 3)) * 3.0
        votes = np.stack([predict_rows(m, *no_encoding(batch)) for m in models])
        expected = [np.argmax(np.bincount(votes[:, i], minlength=3)) for i in range(batch.shape[0])]
        assert np.array_equal(ensemble_predict_batch(members(*models), *no_encoding(batch)), expected)

    def test_overflowing_member_names_its_client(self):
        dims = (2, 2, 2)
        huge = ModelParams(np.full(flat_length(dims), 1e308), dims)
        with pytest.raises(DivergenceError, match=r"^client 'c1': scoring diverged \(non-finite logits\)$"):
            ensemble_predict_batch(members(constant_class_model(2, 0), huge), *one_row(np.ones(2)))

    def test_empty_ensemble_rejected(self):
        with pytest.raises(SpatialFLError, match="^ensemble needs at least one model$"):
            ensemble_predict_batch({}, *one_row(np.zeros(2)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(SpatialFLError, match="^ensemble members disagree on dims$"):
            ensemble_predict_batch(members(init_params((2, 3, 2), 0), init_params((3, 3, 2), 0)),
                                   *one_row(np.zeros(2)))


class TestFlatFedavg:
    """The flat baselines are one aggregation step over the tiered run's
    round-1 client models, which are also the ensemble's members."""

    @staticmethod
    def one_level_run(clients, init, config, seed, mode="uniform", rounds=1):
        topo = flat_topology([c.client_id for c in clients])
        models, (params, counts) = run_rounds(topo, train_rows(topo, {c.client_id: c for c in clients}), init,
                                              mode, config, seed, rounds)
        return models, params, counts

    def test_single_client_returns_its_model(self):
        ds = separable_client("solo", n=12, seed=3)
        init = init_params((2, 4, 2), seed=2)
        config = TrainingConfig(learning_rate=0.05, epochs=4)
        _, params, counts = self.one_level_run([ds], init, config, 19)
        direct = train_alone(ds, init, config, round_seed(19, "solo", 1))
        for mode in AGGREGATION_MODES:
            assert params_equal(aggregate(params, counts, mode, init.dims), direct)

    def test_equal_counts_weighted_matches_unweighted(self):
        clients = [separable_client(f"c{i}", n=10, seed=i) for i in range(3)]
        init = init_params((2, 4, 2), seed=0)
        config = TrainingConfig(learning_rate=0.05, epochs=2)
        _, params, counts = self.one_level_run(clients, init, config, 8)
        plain = aggregate(params, counts, "uniform", init.dims).vector
        weighted = aggregate(params, counts, "sample_weighted", init.dims).vector
        assert np.allclose(np.abs(plain - weighted), 0.0, atol=1e-15)

    def test_matches_degenerate_tier_round_bit_exact(self):
        # One round over a one-level tree must equal one aggregation step
        # over clients trained directly from the init with round-1 seeds,
        # for both policies; later rounds must not alter the round-1 models.
        clients = [separable_client(f"c{i}", n=8 + 2 * i, seed=i) for i in range(4)]
        init = init_params((2, 4, 2), seed=5)
        config = TrainingConfig(learning_rate=0.03, epochs=3)
        direct, direct_counts = alone_round({c.client_id: c for c in clients}, init, config, 31)
        expected = {mode: aggregate(direct, direct_counts, mode, init.dims) for mode in AGGREGATION_MODES}
        for mode in AGGREGATION_MODES:
            tree_models, params, counts = self.one_level_run(clients, init, config, 31, mode)
            assert params_equal(tree_models[ROOT_ID], expected[mode])
            assert params_equal(aggregate(params, counts, mode, init.dims), expected[mode])
            _, kept, kept_counts = self.one_level_run(clients, init, config, 31, mode, rounds=3)
            assert kept_counts == counts == direct_counts
            assert np.array_equal(dense(kept), direct)

    def test_client_models_use_per_client_seeds(self):
        clients = [separable_client(f"c{i}", n=10, seed=0) for i in range(2)]
        init = init_params((2, 4, 2), seed=0)
        _, (c0, c1), _ = self.one_level_run(clients, init, TrainingConfig(epochs=2), 3)
        # identical data but distinct derived seeds produce distinct models
        assert not np.array_equal(c0.vector, c1.vector)
