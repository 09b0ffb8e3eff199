"""Tests for the two-layer classifier: the model vector, the training
kernel and the scorer, and the reference chain (forward, loss, backprop,
Adam) that the kernel is checked against."""

import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import empty_encodings, no_encoding, spans
from reference import (
    adam_step,
    backward,
    compact_reference_train,
    dense_encodings,
    dense_rows,
    forward,
    init_optimizer_state,
    loss_and_grad,
    params_equal,
    reference_train,
    softmax,
)
from spatialfl import nn
from spatialfl.baselines import ensemble_predict_batch
from spatialfl.errors import DivergenceError, SpatialFLError
from spatialfl.nn import (
    ModelParams,
    TrainingConfig,
    cohort_slices,
    flat_length,
    hidden_rows,
    init_params,
    plan_cohort,
    predict_rows,
    train_cohort,
    working_set_bytes,
)
from spatialfl.spatial import Encodings


def numerical_gradient(f, x0, h=1e-6):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        plus = x0.copy()
        plus.flat[i] += h
        minus = x0.copy()
        minus.flat[i] -= h
        grad.flat[i] = (f(plus) - f(minus)) / (2.0 * h)
    return grad


def max_relative_error(analytic, numeric, scale_floor=1e-3):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), scale_floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def separable_toy_set(n=20, seed=0):
    """Two 2-D clusters split by the sign of the first feature, margin 1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x_neg = np.column_stack([rng.uniform(-1.5, -0.5, half), rng.uniform(-1, 1, half)])
    x_pos = np.column_stack([rng.uniform(0.5, 1.5, n - half), rng.uniform(-1, 1, n - half)])
    features = np.vstack([x_neg, x_pos])
    labels = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    return features, labels


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params((2, 3, 2), seed=42)
        b = init_params((2, 3, 2), seed=42)
        assert params_equal(a, b)

    def test_biases_start_at_zero(self):
        p = init_params((2, 3, 2), seed=7)
        assert np.array_equal(p.layer1_bias, np.zeros(3))
        assert np.array_equal(p.layer2_bias, np.zeros(2))

    def test_zero_dimension_rejected(self):
        with pytest.raises(SpatialFLError, match=r"^dims must be three integers >= 1, got \(0, 3, 2\)$"):
            init_params((0, 3, 2), seed=1)

    def test_weights_respect_fan_in_scale(self):
        p = init_params((4, 8, 3), seed=5)
        assert np.abs(p.layer1_weights).max() <= 1.0 / math.sqrt(4)
        assert np.abs(p.layer2_weights).max() <= 1.0 / math.sqrt(8)

    def test_different_seeds_differ(self):
        assert not params_equal(init_params((2, 3, 2), 1), init_params((2, 3, 2), 2))


class TestForward:
    def test_all_zero_model_gives_zero_logits(self):
        dims = (3, 4, 2)
        p = ModelParams(np.zeros(flat_length(dims)), dims)
        out = forward(p, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_hand_computed_product(self):
        # hidden = relu(I x) for the identity first layer, so the logits are
        # just the second layer applied to the positive part of the input.
        p = ModelParams(np.array([1.0, 0.0, 0.0, 1.0,     # layer-1 weights: identity
                                  0.0, 0.0,               # layer-1 bias
                                  1.0, 2.0, 3.0, 4.0,     # layer-2 weights
                                  0.5, -0.5]), (2, 2, 2))  # layer-2 bias
        out = forward(p, np.array([[1.0, 0.0]]))
        assert np.allclose(out, [[1.0 * 1.0 + 0.5, 3.0 * 1.0 - 0.5]])

    def test_wrong_width_rejected(self):
        p = init_params((3, 4, 2), seed=0)
        with pytest.raises(SpatialFLError, match=r"^batch shape \(5, 4\) incompatible with input_dim 3$"):
            forward(p, np.zeros((5, 4)))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_classes(self):
        loss, _ = loss_and_grad(np.zeros((1, 3)), np.array([1]))
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_saturated_correct_class_loss_near_zero(self):
        loss, _ = loss_and_grad(np.array([[1000.0, 0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(SpatialFLError, match=r"^labels must lie in \[0, 3\)$"):
            loss_and_grad(np.zeros((2, 3)), np.array([0, 3]))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        _, grad = loss_and_grad(logits, labels)
        numeric = numerical_gradient(lambda z: loss_and_grad(z, labels)[0], logits)
        assert max_relative_error(grad, numeric) < 1e-6

    @given(st.integers(0, 2 ** 31), st.integers(1, 8), st.integers(2, 5))
    @settings(max_examples=50, deadline=None)
    def test_softmax_rows_sum_to_one_and_loss_nonnegative(self, seed, n, classes):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=5.0, size=(n, classes))
        labels = rng.integers(0, classes, size=n)
        assert np.allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-12)
        loss, _ = loss_and_grad(logits, labels)
        assert loss >= 0.0


class TestBackward:
    def test_zero_grad_logits_give_zero_gradient(self):
        p = init_params((2, 3, 2), seed=3)
        batch = np.random.default_rng(0).normal(size=(4, 2))
        grad = backward(p, batch, np.zeros((4, 2)))
        assert np.array_equal(grad, np.zeros(p.n_params))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        p = init_params((2, 3, 2), seed=9)
        batch = rng.normal(size=(4, 2))
        labels = rng.integers(0, 2, size=4)

        def loss_of(flat):
            model = ModelParams(flat, p.dims)
            return loss_and_grad(forward(model, batch), labels)[0]

        _, grad_logits = loss_and_grad(forward(p, batch), labels)
        analytic = backward(p, batch, grad_logits)
        numeric = numerical_gradient(loss_of, p.vector)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_duplicated_rows_match_single_row(self):
        # The loss is a mean, so repeating the batch must not change the gradient.
        rng = np.random.default_rng(5)
        p = init_params((3, 4, 2), seed=1)
        row = rng.normal(size=(1, 3))
        labels1 = np.array([1])

        def full_grad(batch, labels):
            _, gl = loss_and_grad(forward(p, batch), labels)
            return backward(p, batch, gl)

        single = full_grad(row, labels1)
        doubled = full_grad(np.vstack([row, row]), np.array([1, 1]))
        assert np.allclose(single, doubled, rtol=1e-14, atol=0.0)

    def test_shape_mismatch_rejected(self):
        p = init_params((2, 3, 2), seed=0)
        with pytest.raises(SpatialFLError,
                           match=r"^grad_logits shape \(4, 3\) incompatible with model \(2, 3, 2\)$"):
            backward(p, np.zeros((4, 2)), np.zeros((4, 3)))


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = init_params((2, 3, 2), seed=11)
        state = init_optimizer_state(p)
        new_p, new_state = adam_step(p, np.zeros(p.n_params), state, TrainingConfig())
        assert params_equal(p, new_p)
        assert new_state.step_count == 1

    def test_first_step_closed_form(self):
        # With fresh moments the bias correction cancels, so the update is
        # exactly lr * g / (|g| + eps).
        dims = (1, 1, 1)
        p = ModelParams(np.zeros(flat_length(dims)), dims)
        grad = np.array([0.5, 0.0, 0.0, 0.0])
        config = TrainingConfig(learning_rate=0.001)
        new_p, state = adam_step(p, grad, state=init_optimizer_state(p), config=config)
        expected = 0.001 * 0.5 / (0.5 + 1e-8)
        updated = new_p.vector
        assert updated[0] == pytest.approx(-expected, rel=1e-15)
        assert np.array_equal(updated[1:], np.zeros(3))
        assert state.step_count == 1
        assert np.all(state.second_moment >= 0.0)

    def test_ten_step_trajectory_matches_reference_loop(self):
        # Straight-line reference Adam in pure Python on the quadratic
        # 0.5 * ||x - target||^2, whose gradient is x - target.
        dims = (1, 2, 1)
        n = flat_length(dims)
        target = np.linspace(-1.0, 2.0, n)
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        config = TrainingConfig(learning_rate=lr, adam_beta1=b1, adam_beta2=b2, adam_epsilon=eps)

        x = [0.0] * n
        m = [0.0] * n
        v = [0.0] * n
        reference = []
        for t in range(1, 11):
            g = [x[i] - target[i] for i in range(n)]
            for i in range(n):
                m[i] = b1 * m[i] + (1 - b1) * g[i]
                v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
                m_hat = m[i] / (1 - b1 ** t)
                v_hat = v[i] / (1 - b2 ** t)
                x[i] = x[i] - lr * m_hat / (math.sqrt(v_hat) + eps)
            reference.append(list(x))

        p = ModelParams(np.zeros(n), dims)
        state = init_optimizer_state(p)
        for t in range(10):
            grad = p.vector - target
            p, state = adam_step(p, grad, state, config)
            assert np.allclose(p.vector, reference[t], atol=1e-12, rtol=0.0)

    def test_length_mismatch_rejected(self):
        p = init_params((2, 3, 2), seed=0)
        with pytest.raises(SpatialFLError, match=r"^gradient length \(18,\) != parameter count 17$"):
            adam_step(p, np.zeros(p.n_params + 1), init_optimizer_state(p), TrainingConfig())


def predict(params, features):
    """The class :func:`predict_rows` gives one feature vector as a row."""
    return int(predict_rows(params, *no_encoding(np.asarray(features)[None, :]))[0])


class TestPredict:
    def test_tie_breaks_to_lowest_class(self):
        # Zero weights route everything through the output bias.
        dims = (2, 2, 3)
        vec = np.zeros(flat_length(dims))
        vec[-3:] = [0.5, 0.5, 0.1]
        p = ModelParams(vec, dims)
        assert predict(p, np.array([3.0, -1.0])) == 0

    def test_clear_winner(self):
        dims = (2, 2, 3)
        vec = np.zeros(flat_length(dims))
        vec[-3:] = [0.0, 0.0, 9.0]
        p = ModelParams(vec, dims)
        assert predict(p, np.array([1.0, 1.0])) == 2

    def test_all_zero_model_predicts_class_zero(self):
        dims = (2, 3, 3)
        p = ModelParams(np.zeros(flat_length(dims)), dims)
        rng = np.random.default_rng(4)
        for _ in range(5):
            assert predict(p, rng.normal(size=2)) == 0

    def test_wrong_feature_length_rejected(self):
        p = init_params((3, 2, 2), seed=0)
        with pytest.raises(SpatialFLError, match=r"^rows of 0 encoding \+ 2 raw columns do not fit input_dim 3 "):
            predict(p, np.zeros(2))


class Scoring(NamedTuple):
    """A random scoring case: ``rows`` rows of ``raw`` raw columns coded
    into ``tables`` encodings, with two coordinates or none and one
    one-hot block per size in ``blocks``; the codes of rows ``lo:hi``,
    drawn from ``first:last + 1``, are scored by a model and an ensemble
    of ``members``."""

    seed: int
    hidden: int
    classes: int
    raw: int
    coordinates: bool
    blocks: tuple
    tables: int
    first: int
    last: int
    rows: int
    lo: int
    hi: int
    members: int

    @property
    def dims(self):
        return (2 * self.coordinates + sum(self.blocks) + self.raw, self.hidden, self.classes)


@st.composite
def scoring_cases(draw):
    coordinates = draw(st.booleans())
    blocks = tuple(draw(st.lists(st.integers(1, 100), min_size=0 if coordinates else 1, max_size=3)))
    tables = draw(st.integers(1, 40))
    first = draw(st.integers(0, tables - 1))
    rows = draw(st.integers(0, 60))
    lo = draw(st.integers(0, rows))
    return Scoring(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        hidden=draw(st.integers(1, 24)),
        classes=draw(st.integers(1, 4)),
        raw=draw(st.integers(1 if not (coordinates or blocks) else 0, 8)),
        coordinates=coordinates,
        blocks=blocks,
        tables=tables,
        first=first,
        last=draw(st.integers(first, tables - 1)),
        rows=rows,
        lo=lo,
        hi=draw(st.integers(lo, rows)),
        members=draw(st.integers(1, 5)),
    )


def random_model(dims, rng):
    """Every parameter drawn, biases included, so no layer is trivially zero."""
    return ModelParams(rng.normal(size=flat_length(dims)), dims)


def random_encodings(rng, tables, coordinates, blocks):
    """``tables`` encodings with two random coordinates (or none) and one
    random label in each one-hot block of the sizes ``blocks``."""
    head = 2 * coordinates
    starts = np.cumsum([head, *blocks])[:-1]
    labels = starts + rng.integers(0, blocks, size=(tables, len(blocks)))
    return Encodings(rng.uniform(size=(tables, head)), labels.reshape(tables, len(blocks)), head + sum(blocks))


class TestPredictRows:
    @given(case=scoring_cases())
    # The fan-out shape: one-hot-wide encodings, many encodings, a span.
    @example(case=Scoring(1, 16, 3, 2, True, (150, 10), 40, 0, 39, 60, 10, 55, 5))
    # The 600-client scale shape: 622 encoding columns.
    @example(case=Scoring(3, 16, 3, 2, True, (600, 20), 60, 5, 50, 80, 0, 80, 2))
    # Coordinates only, and no encoding at all.
    @example(case=Scoring(4, 8, 3, 3, True, (), 5, 1, 3, 30, 0, 30, 2))
    @example(case=Scoring(2, 4, 3, 5, False, (), 1, 0, 0, 30, 0, 30, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_forward_on_assembled_rows(self, case):
        # The differential test of the factored scorer: its hidden layer
        # against reference.forward's on the dense rows of the encodings.
        rng = np.random.default_rng(case.seed)
        raw = rng.normal(size=(case.rows, case.raw)) * 3.0
        codes = rng.integers(case.first, case.last + 1, size=case.rows)
        enc = random_encodings(rng, case.tables, case.coordinates, case.blocks)
        model = random_model(case.dims, rng)
        members = [random_model(case.dims, rng) for _ in range(case.members)]
        raw, codes = raw[case.lo:case.hi], codes[case.lo:case.hi]
        batch = np.hstack([dense_encodings(enc)[codes], raw])

        hidden = hidden_rows(model, raw, codes, enc)
        logits = hidden @ model.layer2_weights.T + model.layer2_bias
        predicted = predict_rows(model, raw, codes, enc)
        expected = forward(model, batch)
        reference = np.maximum(batch @ model.layer1_weights.T + model.layer1_bias, 0.0)
        assert np.array_equal(predicted, np.argmax(logits, axis=1))
        assert np.abs(hidden - reference).max(initial=0.0) <= 1e-12
        assert np.allclose(logits, expected, rtol=1e-9)
        if enc.width == 0:
            # The same float operations as forward, so the same bits.
            assert hidden.tobytes() == reference.tobytes()
            assert logits.tobytes() == expected.tobytes()
            assert predicted.tobytes() == np.argmax(expected, axis=1).tobytes()
            assert predict_rows(model, *no_encoding(batch)).tobytes() == predicted.tobytes()
        # Predictions agree wherever the top two logits are not within
        # rounding of each other.
        top = np.sort(expected, axis=1)
        margin = top[:, -1] - top[:, -2] if case.dims[2] > 1 else np.full(len(top), np.inf)
        clear = margin > 1e-9 * np.abs(expected).max(axis=1, initial=0.0)
        assert np.array_equal(predicted[clear], np.argmax(expected, axis=1)[clear])

        votes = np.stack([predict_rows(m, raw, codes, enc) for m in members])
        tally = [np.argmax(np.bincount(votes[:, i], minlength=case.dims[2])) for i in range(len(raw))]
        assert ensemble_predict_batch({f"m{i}": m for i, m in enumerate(members)}, raw, codes, enc).tolist() == tally

    def test_tie_breaks_to_lowest_class_with_encoding(self):
        dims = (4, 2, 3)
        vec = np.zeros(flat_length(dims))
        vec[-3:] = [0.5, 0.5, 0.1]
        model = ModelParams(vec, dims)
        raw, enc = np.array([[3.0, -1.0], [0.0, 2.0]]), Encodings(np.empty((2, 0)), [[0], [1]], 2)
        assert predict_rows(model, raw, np.array([1, 0]), enc).tolist() == [0, 0]

    def test_overflowing_logits_raise_divergence_without_warning(self):
        # Finite parameters near the float limit: the hidden layer (or, with
        # a zero first layer, only the logits) overflow. Pytest turns any
        # numpy warning into a failure.
        dims = (2, 2, 2)
        raw, codes, enc = np.array([[1.0, 1.0]]), np.array([0]), empty_encodings(1)
        huge = np.full(flat_length(dims), 1e308)
        hidden_overflow = ModelParams(huge, dims)
        logit_overflow = ModelParams(np.where(np.arange(huge.size) < 4, 0.0, huge), dims)
        assert np.isfinite(hidden_rows(logit_overflow, raw, codes, enc)).all()
        for model in (hidden_overflow, logit_overflow):
            with pytest.raises(DivergenceError, match=r"^scoring diverged \(non-finite logits\)$"):
                predict_rows(model, raw, codes, enc)

    def test_shape_errors_name_both_widths(self):
        model = init_params((6, 3, 2), seed=0)
        raw, codes, enc = np.zeros((4, 3)), np.array([0, 1, 1, 0]), Encodings(np.zeros((2, 2)), [[2], [2]], 3)
        predict_rows(model, raw, codes, enc)
        with pytest.raises(SpatialFLError, match=r"^rows of 3 encoding \+ 2 raw columns do not fit input_dim 6 "):
            predict_rows(model, raw[:, :2], codes, enc)
        with pytest.raises(SpatialFLError, match=r"^rows of 0 encoding \+ 10 raw columns do not fit input_dim 6 "):
            predict_rows(model, *no_encoding(np.zeros((5, 10))))
        fit = r"^rows of 3 encoding \+ 3 raw columns do not fit input_dim 6 "
        bad = [
            ((raw[0], codes, enc), fit + r"\(raw rows \(3,\)\)$"),  # one row, not a matrix of rows
            ((raw, codes[:3], enc), r"^3 row codes for 4 rows$"),  # a code per row
            ((raw, codes + 1, enc), r"^row codes must lie in \[0, 2\)$"),  # a code past the table
            ((raw, codes - 1, enc), r"^row codes must lie in \[0, 2\)$"),  # a negative code
        ]
        for case, message in bad:
            with pytest.raises(SpatialFLError, match=message):
                predict_rows(model, *case)


class TestFlattenRoundTrip:
    """A model is its flat vector; the layers are views of it."""

    def test_flattening_order_contract(self):
        p = ModelParams(np.arange(1.0, 18.0), (2, 3, 2))
        assert np.array_equal(p.layer1_weights, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(p.layer1_bias, [7.0, 8.0, 9.0])
        assert np.array_equal(p.layer2_weights, [[10.0, 11.0, 12.0], [13.0, 14.0, 15.0]])
        assert np.array_equal(p.layer2_bias, [16.0, 17.0])
        layers = (p.layer1_weights, p.layer1_bias, p.layer2_weights, p.layer2_bias)
        assert all(layer.base is not None and np.shares_memory(layer, p.vector) for layer in layers)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        dims = (int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(2, 5)))
        vec = rng.normal(scale=1e3, size=flat_length(dims))
        p = ModelParams(vec, dims)
        layers = (p.layer1_weights, p.layer1_bias, p.layer2_weights, p.layer2_bias)
        assert p.vector.tobytes() == vec.tobytes()
        assert np.concatenate([layer.ravel() for layer in layers]).tobytes() == vec.tobytes()

    def test_wrong_length_rejected(self):
        with pytest.raises(SpatialFLError, match=r"^expected flat vector of length 17, got shape \(5,\)$"):
            ModelParams(np.zeros(5), (2, 3, 2))

    def test_non_finite_entry_names_its_layer(self):
        for i, name in [(0, "layer1_weights"), (6, "layer1_bias"), (10, "layer2_weights"),
                        (16, "layer2_bias")]:
            vec = np.zeros(17)
            vec[i] = np.inf
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                ModelParams(vec, (2, 3, 2))


def train_one(init, features, labels, config, seed):
    """``init`` trained on raw rows as a cohort of one, seeded with
    ``seed``; None if training diverged."""
    raw, codes, enc = no_encoding(features)
    plan = plan_cohort(raw, labels, codes, enc, spans([0, len(raw)]), init.dims, config)
    models, diverged = train_cohort(plan, init, [seed])
    return None if diverged else models[0]


class TestTrain:
    """Training one client: a cohort of one of the kernel."""

    def test_zero_epochs_return_init_bit_equal(self):
        p = init_params((2, 4, 2), seed=1)
        features, labels = separable_toy_set()
        out = train_one(p, features, labels, TrainingConfig(epochs=0), seed=3)
        assert params_equal(p, out)

    def test_separable_set_reaches_full_training_accuracy(self):
        features, labels = separable_toy_set(n=20, seed=0)
        init = init_params((2, 16, 2), seed=2)
        config = TrainingConfig(learning_rate=0.05, epochs=200, batch_size=32)
        model = train_one(init, features, labels, config, seed=2)
        assert np.mean(predict_rows(model, *no_encoding(features)) == labels) == 1.0

    def test_training_is_deterministic(self):
        features, labels = separable_toy_set(n=20, seed=1)
        init = init_params((2, 8, 2), seed=5)
        config = TrainingConfig(learning_rate=0.02, epochs=7, batch_size=8)
        assert params_equal(train_one(init, features, labels, config, seed=9),
                            train_one(init, features, labels, config, seed=9))

    def test_all_outputs_finite_after_training(self):
        features, labels = separable_toy_set(n=16, seed=3)
        model = train_one(init_params((2, 8, 2), seed=0), features, labels,
                          TrainingConfig(learning_rate=0.5, epochs=50), seed=1)
        assert model is not None and np.all(np.isfinite(model.vector))


class Cohort(NamedTuple):
    """Shape of a random ragged cohort: clients with ``counts`` rows (not
    increasing) after ``lead`` rows of other clients, rows coded into
    ``tables`` encodings ``e_dim`` wide (:func:`encoding_layout`). Every
    row of a client has one code, except for the clients in ``pooled``,
    whose rows draw theirs at random."""

    seed: int
    dims: tuple
    e_dim: int
    tables: int
    counts: list
    batch_size: int
    epochs: int
    lead: int
    pooled: tuple = ()


@st.composite
def ragged_cohorts(draw):
    batch_size = draw(st.integers(1, 16))
    # Distinct counts, drawn to hit a short client (n < batch_size) and
    # whole multiples of batch_size (no ragged last batch) often.
    count = st.one_of(st.integers(1, 70), st.integers(1, batch_size),
                      st.integers(1, 4).map(lambda q: q * batch_size))
    counts = draw(st.lists(count, min_size=1, max_size=5, unique=True))
    input_dim = draw(st.integers(1, 48))
    return Cohort(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=(input_dim, draw(st.integers(1, 24)), draw(st.integers(1, 4))),
        e_dim=draw(st.one_of(st.just(0), st.integers(0, input_dim))),
        tables=draw(st.integers(1, 4)),
        counts=sorted(counts, reverse=True),
        batch_size=batch_size,
        epochs=draw(st.integers(1, 3)),
        lead=draw(st.integers(0, 3)),
        pooled=tuple(sorted(draw(st.sets(st.integers(0, len(counts) - 1))))),
    )


def encoding_layout(rng, tables, e_dim):
    """``tables`` encodings ``e_dim`` wide as a vocabulary lays them out:
    two coordinates unless ``e_dim`` is below 2 (each at its minimum, 0.0,
    in some rows), then up to three one-hot blocks of random sizes, one
    label column each."""
    head = 2 if e_dim >= 2 else 0
    cuts = np.sort(rng.choice(np.arange(head + 1, e_dim), size=min(2, max(0, e_dim - head - 1)),
                              replace=False)).tolist()
    blocks = [(lo, hi) for lo, hi in zip([head, *cuts], [*cuts, e_dim]) if lo < hi]
    coords = rng.uniform(0.0, 1.0, size=(tables, head)) * rng.integers(0, 2, size=(tables, head))
    labels = np.empty((tables, len(blocks)), dtype=np.intp)
    for j, (lo, hi) in enumerate(blocks):
        labels[:, j] = rng.integers(lo, hi, size=tables)
    return Encodings(coords, labels, e_dim)


def cohort_arrays(case):
    """Raw rows, labels, codes, encodings (see :func:`encoding_layout`),
    offsets and seeds of a case; two rows of no client trail the
    cohort's."""
    rng = np.random.default_rng(case.seed)
    offsets = case.lead + np.cumsum([0] + case.counts)
    n = int(offsets[-1]) + 2
    raw = rng.normal(size=(n, case.dims[0] - case.e_dim))
    labels = rng.integers(0, case.dims[2], size=n)
    codes = rng.integers(0, case.tables, size=n)
    for k, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
        if k not in case.pooled:
            codes[lo:hi] = codes[lo]
    enc = encoding_layout(rng, case.tables, case.e_dim)
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=len(case.counts))]
    return raw, labels, codes, enc, offsets, seeds


def active_columns(codes, enc, input_dim, rows):
    """The input columns a client on ``rows`` trains: the coordinates and
    its rows' codes' label columns, then every raw column."""
    return np.concatenate([np.arange(enc.head), np.unique(enc.labels[codes[rows]]),
                           np.arange(enc.width, input_dim)]).astype(np.intp)


def assert_tables_cut_dense_rows(plan, codes, enc):
    """Every row position's compact table row is its code's dense
    encoding cut down to its member's active encoding columns (the first
    of the member's compact first-layer places), bit for bit, then zeros
    where the kernel writes the raw features."""
    dense = dense_encodings(enc)
    for part in plan.parts:
        width = part.dims[0] - plan.raw.shape[1]
        for i in range(part.members.size):
            at = slice(part.bounds[i], part.bounds[i + 1])
            compact = part.table[part.slots[at]]
            assert compact[:, :width].tobytes() == dense[codes[part.rows[at]]][:, part.index[i, :width]].tobytes()
            assert not compact[:, width:].any()


def plan_state(plan):
    """Every value a plan holds, as bytes and plain values."""
    state = [a.tobytes() for a in (plan.raw, plan.labels)]
    state += [plan.dims, plan.config, plan.counts]
    for part in plan.parts:
        state += [part.dims, list(part.bounds)]
        state += [a.tobytes() for a in (part.members, part.index, part.table, part.rows, part.slots)]
        state += [(list(new), [(lo, hi, n, positions.tobytes()) for lo, hi, n, positions in group])
                  for new, group in part.schedule]
    return state


def assembled(raw, codes, enc, lo, hi):
    """Rows ``lo:hi`` as the model sees them: dense encoding, then raw features."""
    return np.hstack([dense_encodings(enc)[codes[lo:hi]], raw[lo:hi]])


class RowSets(NamedTuple):
    """Shape of a random call whose clients come in no order of size:
    ``rows`` rows coded into ``tables`` encodings of ``e_dim`` coordinates
    (two or none, so every column is active); client ``k`` trains on
    ``counts[k]`` of them drawn at random, so row sets overlap and leave
    gaps, and the clients in ``poisoned`` also train on one more row, of
    NaNs."""

    seed: int
    dims: tuple
    e_dim: int
    tables: int
    rows: int
    counts: list
    poisoned: tuple
    batch_size: int
    epochs: int


@st.composite
def row_set_calls(draw):
    rows = draw(st.integers(1, 70))
    e_dim = draw(st.sampled_from([0, 2]))
    # At least one raw column, which the poisoned row fills with NaN.
    input_dim = draw(st.integers(e_dim + 1, 48))
    counts = draw(st.lists(st.integers(1, rows), min_size=1, max_size=6))
    return RowSets(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=(input_dim, draw(st.integers(1, 24)), draw(st.integers(1, 4))),
        e_dim=e_dim,
        tables=draw(st.integers(1, 4)),
        rows=rows,
        counts=counts,
        poisoned=tuple(sorted(draw(st.sets(st.integers(0, len(counts) - 1))))),
        batch_size=draw(st.integers(1, 16)),
        epochs=draw(st.integers(1, 3)),
    )


class TestTrainCohort:
    @given(case=ragged_cohorts())
    # batch_size above every count: one ragged step per epoch.
    @example(case=Cohort(1, (3, 4, 2), 1, 3, [10, 9, 7], 32, 2, 0))
    # Ragged last batches at different iterations, multiples of batch_size
    # among them, a short client, no encoding.
    @example(case=Cohort(2, (5, 8, 3), 0, 1, [23, 16, 8, 5], 8, 3, 2))
    # K = 1 over pooled rows of mixed codes.
    @example(case=Cohort(3, (12, 6, 3), 9, 4, [57], 8, 2, 1, (0,)))
    # Clients of one code and pooled ones, in cohorts of several widths.
    @example(case=Cohort(4, (160, 16, 3), 150, 4, [40, 33, 21, 12], 32, 1, 0, (1, 3)))
    # One class and two, each with a ragged one-row last batch: the
    # elementwise class maximum and sum fold one class slice or two.
    @example(case=Cohort(12, (1, 1, 1), 0, 1, [9, 5], 4, 2, 0))
    @example(case=Cohort(13, (3, 2, 2), 1, 2, [17, 9], 8, 2, 1, (1,)))
    # numpy sums 8 or more classes pairwise.
    @example(case=Cohort(14, (4, 3, 9), 2, 3, [19, 10], 6, 1, 0))
    # One hidden unit: numpy sums a single column's rows pairwise.
    @example(case=Cohort(18, (3, 1, 3), 1, 2, [40, 37], 16, 2, 0))
    # Only encoding columns: a client's compact input is its active ones.
    @example(case=Cohort(19, (9, 5, 3), 9, 3, [14, 11, 6], 4, 2, 1, (2,)))
    @settings(max_examples=60, deadline=None)
    def test_every_member_matches_reference_chain(self, case):
        # Bit-exact, not allclose: BLAS may tile differently as shapes
        # grow, so the shapes are drawn at random and never skipped.
        # One plan serves three rounds, each from another init with other
        # seeds, as a fresh plan per round would, and is never written.
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        plan = plan_cohort(raw, labels, codes, enc, spans(offsets), case.dims, config)
        planned = plan_state(plan)
        assert_tables_cut_dense_rows(plan, codes, enc)
        for round_index in range(3):
            init = init_params(case.dims, case.seed + round_index)
            round_seeds = [seed + round_index for seed in seeds]
            models, diverged = train_cohort(plan, init, round_seeds)
            assert diverged == {}
            assert [values.shape for values in models.values] == [
                (part.members.size, flat_length(part.dims)) for part in plan.parts]
            params = dense_rows(plan, models)
            fresh = plan_cohort(raw, labels, codes, enc, spans(offsets), case.dims, config)
            assert dense_rows(fresh, train_cohort(fresh, init, round_seeds)[0]).tobytes() == params.tobytes()
            for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
                active = active_columns(codes, enc, case.dims[0], np.arange(lo, hi))
                expected = compact_reference_train(init, assembled(raw, codes, enc, lo, hi), labels[lo:hi],
                                                   config, round_seeds[i], active)
                assert params[i].tobytes() == expected.vector.tobytes()
                assert models[i].vector.tobytes() == expected.vector.tobytes()
        assert plan_state(plan) == planned

    @given(case=ragged_cohorts())
    @example(case=Cohort(4, (160, 16, 3), 150, 4, [40, 33, 21, 12], 32, 1, 0, (1, 3)))
    @settings(max_examples=25, deadline=None)
    def test_dense_chain_leaves_inactive_parameters_at_init(self, case):
        # The dense chain on the full rows: every weight of a column the
        # client's codes do not list multiplies only exact zeros, so its
        # gradient is zero and Adam leaves it at init, bit for bit. The
        # rest differ from the compact chain only by the rounding of a
        # longer dot product.
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        init = init_params(case.dims, case.seed)
        plan = plan_cohort(raw, labels, codes, enc, spans(offsets), case.dims, config)
        models, diverged = train_cohort(plan, init, seeds)
        assert diverged == {}
        params = dense_rows(plan, models)
        for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            dense = reference_train(init, assembled(raw, codes, enc, lo, hi), labels[lo:hi], config, seeds[i])
            inactive = np.ones(case.dims[0], dtype=bool)
            inactive[active_columns(codes, enc, case.dims[0], np.arange(lo, hi))] = False
            assert dense.layer1_weights[:, inactive].tobytes() == init.layer1_weights[:, inactive].tobytes()
            assert np.abs(dense.vector - params[i]).max() <= 1e-12

    @given(case=row_set_calls())
    # Counts rising, tied and falling; the second client diverges.
    @example(case=RowSets(5, (4, 6, 3), 2, 3, 20, [3, 9, 9, 14, 1], (1,), 4, 2))
    @settings(max_examples=60, deadline=None)
    def test_row_sets_in_any_order_match_reference_chain(self, case):
        # The kernel orders the clients itself; every result row and
        # divergence key belongs to the client at that index of the call.
        rng = np.random.default_rng(case.seed)
        n = case.rows
        raw = rng.normal(size=(n + 1, case.dims[0] - case.e_dim))
        raw[n] = np.nan
        labels = rng.integers(0, case.dims[2], size=n + 1)
        codes = rng.integers(0, case.tables, size=n + 1)
        enc = Encodings(rng.normal(size=(case.tables, case.e_dim)), np.empty((case.tables, 0)), case.e_dim)
        rows = [rng.choice(n, size=count, replace=False) for count in case.counts]
        for k in case.poisoned:
            rows[k] = np.insert(rows[k], rng.integers(0, rows[k].size + 1), n)
        seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=len(rows))]
        init = init_params(case.dims, case.seed)
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        plan = plan_cohort(raw, labels, codes, enc, rows, init.dims, config)
        assert_tables_cut_dense_rows(plan, codes, enc)
        models, diverged = train_cohort(plan, init, seeds)
        assert len(models) == len(rows)
        params = dense_rows(plan, models)
        assert sorted(diverged) == list(case.poisoned)
        for k, r in enumerate(rows):
            if k not in diverged:
                expected = reference_train(init, np.hstack([dense_encodings(enc)[codes[r]], raw[r]]), labels[r],
                                           config, seeds[k])
                assert params[k].tobytes() == expected.vector.tobytes()

    def test_members_train_independently(self):
        # A member diverging leaves the others' rows equal to training alone.
        # Its message is the one the per-step chain raises for it alone.
        case = Cohort(8, (3, 4, 2), 1, 3, [14, 12, 9], 5, 2, 0)
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        raw[offsets[1]:offsets[2]] *= 1e300
        init = init_params(case.dims, seed=1)
        config = TrainingConfig(learning_rate=1e9, epochs=case.epochs, batch_size=case.batch_size)
        plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
        models, diverged = train_cohort(plan, init, seeds)
        assert diverged == {1: "training diverged (layer1_weights contains non-finite entries)"}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^layer1_weights contains non-finite entries$"):
            reference_train(init, assembled(raw, codes, enc, offsets[1], offsets[2]),
                            labels[offsets[1]:offsets[2]], config, seeds[1])
        for i in (0, 2):
            plan = plan_cohort(raw, labels, codes, enc, spans(offsets[i:i + 2]), init.dims, config)
            alone, _ = train_cohort(plan, init, [seeds[i]])
            assert models[i].vector.tobytes() == alone[0].vector.tobytes()

    def test_saturated_softmax_matches_reference_chain(self):
        # Raw features 1e4 times larger saturate the softmax: most
        # non-maximum exp terms underflow to exactly 0.0, and many masked
        # hidden-layer gradients are negative, where the reference's
        # np.where writes +0.0, not -0.0.
        case = Cohort(16, (6, 8, 3), 2, 2, [24, 11], 8, 2, 0)
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        raw *= 1e4
        init = init_params(case.dims, case.seed)
        rows = assembled(raw, codes, enc, offsets[0], offsets[1])
        logits = forward(init, rows)
        assert (np.exp(logits - logits.max(axis=1, keepdims=True)) == 0.0).sum() > 30
        _, grad_logits = loss_and_grad(logits, labels[offsets[0]:offsets[1]])
        masked = rows @ init.layer1_weights.T + init.layer1_bias <= 0.0
        assert ((grad_logits @ init.layer2_weights)[masked] < 0.0).sum() > 20
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
        models, diverged = train_cohort(plan, init, seeds)
        assert diverged == {}
        for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            expected = reference_train(init, assembled(raw, codes, enc, lo, hi), labels[lo:hi],
                                       config, seeds[i])
            assert models[i].vector.tobytes() == expected.vector.tobytes()

    def test_overflowing_masked_gradient_matches_reference_chain(self):
        # Every hidden unit is off, its pre-activation exactly 0.0 (W1 = 0,
        # b1 = 0), and W2 is so large that the hidden-layer gradient
        # overflows at every entry, all of them masked. The reference's
        # np.where zeroes them and nothing diverges; inf times a zero mask
        # would be NaN, and a mask of pre >= 0 would pass the inf on.
        dims = (2, 3, 3)
        vector = np.zeros(flat_length(dims))
        vector[9:18] = np.repeat([-1.7e308, 1.7e308, 1.7e308], 3)
        init = ModelParams(vector, dims)
        raw = np.random.default_rng(17).normal(size=(6, 2))
        labels = np.zeros(6, dtype=np.int64)
        config = TrainingConfig(epochs=2, batch_size=1)
        with np.errstate(over="ignore"):
            _, grad_logits = loss_and_grad(forward(init, raw[:1]), labels[:1])
            assert np.isinf(grad_logits @ init.layer2_weights).all()
            expected = reference_train(init, raw, labels, config, 5)
        _, codes, enc = no_encoding(raw)
        plan = plan_cohort(raw, labels, codes, enc, [np.arange(6)], init.dims, config)
        models, diverged = train_cohort(plan, init, [5])
        assert diverged == {}
        assert models[0].vector.tobytes() == expected.vector.tobytes()

    def test_cohort_budget_changes_no_bit(self, monkeypatch):
        # One ragged call cut into cohorts of one, of two (the last one
        # smaller) and one cohort of all. Client 1 diverges in the first
        # cohort, so Adam moments or other scratch carried into a later
        # cohort would change its clients' rows or spread the divergence.
        case = Cohort(9, (3, 4, 2), 1, 3, [14, 12, 9, 7, 5], 5, 2, 0)
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        raw[offsets[1]:offsets[2]] *= 1e300
        init = init_params(case.dims, seed=1)
        config = TrainingConfig(learning_rate=1e9, epochs=case.epochs, batch_size=case.batch_size)
        per_client = working_set_bytes(init.dims, config.batch_size)
        results = []
        for size, cut in [(1, [1, 1, 1, 1, 1]), (2, [2, 2, 1]), (5, [5])]:
            monkeypatch.setattr(nn, "COHORT_BYTES", size * per_client)
            assert [p.stop - p.start for p in cohort_slices(5, init.dims, config.batch_size)] == cut
            plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
            models, failed = train_cohort(plan, init, seeds)
            results.append((dense_rows(plan, models), failed))
        (params, diverged), *others = results
        assert list(diverged) == [1]
        for other, failed in others:
            assert failed == diverged
            assert other.tobytes() == params.tobytes()

    def test_cohorts_train_at_their_active_width(self, monkeypatch):
        # Two coordinate columns and two blocks of two one-hot columns,
        # then two raw columns. Clients 0 and 1 have one code each and
        # train 4 + 2 inputs, client 2 pools two codes (5 + 2), clients 3
        # and 4 pool every code and train every input: each cohort of one
        # of them reads the one shared table of full input rows.
        enc = Encodings([[0.5, 0.0], [0.25, 1.0], [0.0, 0.5], [1.0, 0.75]], [[2, 4], [3, 4], [2, 5], [3, 5]], 6)
        rng = np.random.default_rng(21)
        codes = np.repeat(np.arange(4), 5)
        raw, labels = rng.normal(size=(20, 2)), rng.integers(0, 2, size=20)
        rows = [np.arange(5), np.arange(5, 10), np.arange(10), np.arange(20), np.arange(15, 0, -1)]
        config = TrainingConfig(epochs=2, batch_size=4)
        plan = plan_cohort(raw, labels, codes, enc, rows, (8, 3, 2), config)
        assert [(part.members.tolist(), part.dims) for part in plan.parts] == [
            ([0, 1], (6, 3, 2)), ([2], (7, 3, 2)), ([3, 4], (8, 3, 2))]
        assert plan.parts[0].table.tolist() == [[0.5, 0.0, 1, 1, 0, 0], [0.25, 1.0, 1, 1, 0, 0]]
        assert plan.parts[1].table.tolist() == [[0.5, 0.0, 1, 0, 1, 0, 0], [0.25, 1.0, 0, 1, 1, 0, 0]]
        assert plan.parts[2].table.tolist() == np.hstack([dense_encodings(enc), np.zeros((4, 2))]).tolist()
        init = init_params((8, 3, 2), seed=4)
        models, diverged = train_cohort(plan, init, [1, 2, 3, 4, 5])
        assert diverged == {}
        params = dense_rows(plan, models)
        for k, active in enumerate([[0, 1, 2, 4, 6, 7], [0, 1, 3, 4, 6, 7], [0, 1, 2, 3, 4, 6, 7],
                                    range(8), range(8)]):
            inputs = np.hstack([dense_encodings(enc)[codes[rows[k]]], raw[rows[k]]])
            expected = compact_reference_train(init, inputs, labels[rows[k]], config, k + 1, list(active))
            assert params[k].tobytes() == expected.vector.tobytes()
        monkeypatch.setattr(nn, "COHORT_BYTES", 1)
        single = plan_cohort(raw, labels, codes, enc, rows, (8, 3, 2), config)
        assert [part.members.tolist() for part in single.parts] == [[0], [1], [2], [3], [4]]
        assert single.parts[3].table is single.parts[4].table
        assert single.parts[3].table.shape == (4, 8)
        assert dense_rows(single, train_cohort(single, init, [1, 2, 3, 4, 5])[0]).tobytes() == params.tobytes()

    def test_scratch_is_sized_for_one_cohort(self, monkeypatch):
        # tracemalloc sees numpy's buffers. Twelve clients of one code each
        # in cohorts of three at their compact dims: the call's peak is
        # one cohort's working set plus the compact result (one block and
        # a view of it per cohort) and the plan, not twelve working sets.
        # The plan is the compact encoding tables,
        # the parameter indices (one per active parameter of each client),
        # the row numbers, their table rows and their positions, one per
        # row and epoch, and its schedule's objects, as is what training
        # adds beyond the working set: one cohort's epoch orders and their
        # identity, and the views of its runs.
        for case in [
            Cohort(10, (40, 16, 3), 8, 12, [40] * 6 + [33] * 6, 32, 2, 0),
            # Few inputs and many hidden units or classes, with full
            # batches: numpy's buffer for adding the bias across the
            # rows is as large as the array it serves.
            Cohort(10, (3, 40, 2), 1, 12, [100] * 6 + [80] * 6, 64, 2, 0),
            Cohort(10, (10, 2, 30), 4, 12, [100] * 6 + [80] * 6, 64, 2, 0),
        ]:
            raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
            init = init_params(case.dims, seed=2)
            config = TrainingConfig(epochs=case.epochs, batch_size=case.batch_size)
            compact = (enc.head + enc.labels.shape[1] + raw.shape[1], *case.dims[1:])
            per_client = working_set_bytes(compact, config.batch_size)
            monkeypatch.setattr(nn, "COHORT_BYTES", 3 * per_client)
            assert len(cohort_slices(12, compact, config.batch_size)) == 4
            tracemalloc.start()
            try:
                plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
                planned = tracemalloc.get_traced_memory()[0]
                models, diverged = train_cohort(plan, init, seeds)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert diverged == {}
            result = sum(values.nbytes for values in models.values)
            assert [part.dims for part in plan.parts] == [compact] * 4
            tables = sum(part.table.nbytes for part in plan.parts)
            index = 12 * flat_length(compact) * 8
            runs = [[run for _, group in part.schedule for run in group] for part in plan.parts]
            assert planned <= (tables + index + 8 * sum(case.counts) * (case.epochs + 2)
                               + 1024 * sum(map(len, runs)))
            orders = 16 * plan.parts[0].bounds[-1]
            views = 4096 * max(len({run[:3] for run in part}) for part in runs) + 1024 * len(plan.parts)
            assert peak <= nn.COHORT_BYTES + result + planned + orders + views
            assert 12 * per_client > nn.COHORT_BYTES + result + tables + index

    def test_five_float_scratch_rows_per_client(self):
        # Parameters, gradient, both Adam moments and one Adam step at the
        # compact dims: with wide models and one-row batches the call's
        # peak is those five (K, P_w) rows, the compact result copied out
        # of them, the plan's (K, P_w) parameter indices and the
        # finiteness mask. A sixth float row would add another compact
        # buffer's worth, and a dense (K, P) result far more. With no
        # encoding every column is active and P_w is P.
        for case in [Cohort(11, (400, 25, 2), 0, 1, [1] * 8, 1, 2, 0),
                     Cohort(11, (400, 400, 2), 390, 8, [1] * 8, 1, 2, 0)]:
            raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
            init = init_params(case.dims, seed=3)
            config = TrainingConfig(epochs=case.epochs, batch_size=case.batch_size)
            dims = (enc.head + enc.labels.shape[1] + raw.shape[1], *case.dims[1:])
            assert len(cohort_slices(8, dims, config.batch_size)) == 1
            compact = 8 * flat_length(dims) * 8
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
                models, diverged = train_cohort(plan, init, seeds)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert diverged == {} and [values.nbytes for values in models.values] == [compact]
            assert [part.dims for part in plan.parts] == [dims]
            assert 7 * compact < peak < 7.5 * compact

    def test_labels_checked_once_per_call(self):
        labels = np.zeros(12, dtype=np.int64)
        labels[10] = 2
        args = (np.zeros((12, 2)), labels, np.zeros(12), empty_encodings(1))
        with pytest.raises(SpatialFLError, match=r"^labels must lie in \[0, 2\)$"):
            plan_cohort(*args, spans([0, 6, 12]), (2, 3, 2), TrainingConfig(epochs=1))
        # Rows outside the cohort are not its labels.
        plan_cohort(*args, spans([0, 6]), (2, 3, 2), TrainingConfig(epochs=1))

    def test_shape_mismatch_rejected(self):
        dims = (4, 3, 2)
        # Two encodings one column wide, that column a label's.
        enc = Encodings(np.empty((2, 0)), [[0], [0]], 1)
        raw, labels, codes = np.zeros((12, 3)), np.zeros(12), np.zeros(12)
        config = TrainingConfig(epochs=1)
        plan_cohort(raw, labels, codes, enc, spans([0, 6, 12]), dims, config)
        disagree = r"^cohort raw rows \(12, {}\), labels \({},\), .* disagree for input_dim 4$"
        outside = r"^row numbers must lie in \[0, 12\)$"
        bad = [
            # width != input_dim
            ((np.zeros((12, 2)), labels, codes, enc, spans([0, 6, 12])), disagree.format(2, 12)),
            # labels per row
            ((raw, labels[:11], codes, enc, spans([0, 6, 12])), disagree.format(3, 11)),
            ((raw, labels, codes, enc, spans([0, 6, 13])), outside),             # past the last row
            ((raw, labels, codes, enc, [np.arange(6), [6, -1]]), outside),       # a negative row
            ((raw, labels, codes, enc, [np.arange(6), [12]]), outside),          # row N
            # a client without rows
            ((raw, labels, codes, enc, spans([0, 6, 6])), r"^client 1 has no rows$"),
            # code past the table
            ((raw, labels, codes + 2, enc, spans([0, 6, 12])), r"^row codes must lie in \[0, 2\)$"),
        ]
        for case, message in bad:
            with pytest.raises(SpatialFLError, match=message):
                plan_cohort(*case, dims, config)

    def test_training_disagreeing_with_its_plan_rejected(self):
        config = TrainingConfig(epochs=1)
        enc = Encodings(np.empty((2, 0)), [[0], [0]], 1)
        plan = plan_cohort(np.zeros((12, 3)), np.zeros(12), np.zeros(12), enc, spans([0, 6, 12]), (4, 3, 2), config)
        train_cohort(plan, init_params((4, 3, 2), seed=0), [0, 1])
        for init, seeds in [(init_params((4, 3, 2), seed=0), [0]),        # one seed for two
                            (init_params((4, 3, 2), seed=0), [0, 1, 2]),  # three seeds for two
                            (init_params((4, 5, 2), seed=0), [0, 1]),     # another hidden width
                            (init_params((4, 3, 3), seed=0), [0, 1])]:    # another class count
            message = (rf"^init dims \({', '.join(map(str, init.dims))}\) and {len(seeds)} seeds disagree "
                       r"with a plan for dims \(4, 3, 2\) and 2 clients$")
            with pytest.raises(SpatialFLError, match=message):
                train_cohort(plan, init, seeds)
