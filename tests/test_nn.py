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

from helpers import no_encoding, spans
from reference import (
    adam_step,
    backward,
    forward,
    init_optimizer_state,
    loss_and_grad,
    params_equal,
    reference_train,
    softmax,
)
from spatialfl import nn
from spatialfl.baselines import ensemble_predict_batch
from spatialfl.errors import DivergenceError, InvalidDimensionError, InvalidLabelError, ShapeError
from spatialfl.nn import (
    ModelParams,
    TrainingConfig,
    cohort_slices,
    flat_length,
    hidden_rows,
    init_params,
    predict_rows,
    train_cohort,
    working_set_bytes,
)


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
        with pytest.raises(InvalidDimensionError):
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
        with pytest.raises(ShapeError):
            forward(p, np.zeros((5, 4)))


class TestLossAndGrad:
    def test_uniform_logits_loss_is_log_classes(self):
        loss, _ = loss_and_grad(np.zeros((1, 3)), np.array([1]))
        assert loss == pytest.approx(math.log(3.0), rel=1e-12)

    def test_saturated_correct_class_loss_near_zero(self):
        loss, _ = loss_and_grad(np.array([[1000.0, 0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(InvalidLabelError):
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
        with pytest.raises(ShapeError):
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
        with pytest.raises(ShapeError):
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
        with pytest.raises(ShapeError):
            predict(p, np.zeros(2))


class Scoring(NamedTuple):
    """A random scoring case: ``rows`` rows coded into a table of
    ``tables`` encodings ``e_dim`` wide, of which rows ``lo:hi`` are
    scored by a model and an ensemble of ``members``."""

    seed: int
    dims: tuple
    e_dim: int
    tables: int
    rows: int
    lo: int
    hi: int
    members: int


@st.composite
def scoring_cases(draw):
    input_dim = draw(st.integers(1, 48))
    rows = draw(st.integers(0, 60))
    lo = draw(st.integers(0, rows))
    return Scoring(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=(input_dim, draw(st.integers(1, 24)), draw(st.integers(1, 4))),
        e_dim=draw(st.one_of(st.just(0), st.integers(0, input_dim))),
        tables=draw(st.integers(1, 6)),
        rows=rows,
        lo=lo,
        hi=draw(st.integers(lo, rows)),
        members=draw(st.integers(1, 5)),
    )


def random_model(dims, rng):
    """Every parameter drawn, biases included, so no layer is trivially zero."""
    return ModelParams(rng.normal(size=flat_length(dims)), dims)


class TestPredictRows:
    @given(case=scoring_cases())
    # The fan-out shape: one-hot-wide encodings, many table rows, a span.
    @example(case=Scoring(1, (164, 16, 3), 160, 40, 60, 10, 55, 5))
    @example(case=Scoring(2, (5, 4, 3), 0, 1, 30, 0, 30, 3))
    @settings(max_examples=80, deadline=None)
    def test_matches_forward_on_assembled_rows(self, case):
        rng = np.random.default_rng(case.seed)
        raw = rng.normal(size=(case.rows, case.dims[0] - case.e_dim)) * 3.0
        codes = rng.integers(0, case.tables, size=case.rows)
        enc = rng.normal(size=(case.tables, case.e_dim))
        model = random_model(case.dims, rng)
        members = [random_model(case.dims, rng) for _ in range(case.members)]
        raw, codes = raw[case.lo:case.hi], codes[case.lo:case.hi]
        batch = np.hstack([enc[codes], raw])

        hidden = hidden_rows(model, raw, codes, enc)
        logits = hidden @ model.layer2_weights.T + model.layer2_bias
        predicted = predict_rows(model, raw, codes, enc)
        expected = forward(model, batch)
        assert np.array_equal(predicted, np.argmax(logits, axis=1))
        if case.e_dim == 0:
            # The same float operations as forward, so the same bits.
            reference = np.maximum(batch @ model.layer1_weights.T + model.layer1_bias, 0.0)
            assert hidden.tobytes() == reference.tobytes()
            assert logits.tobytes() == expected.tobytes()
            assert predicted.tobytes() == np.argmax(expected, axis=1).tobytes()
            assert predict_rows(model, *no_encoding(batch)).tobytes() == predicted.tobytes()
        else:
            assert np.allclose(logits, expected, rtol=1e-9)
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
        raw, enc = np.array([[3.0, -1.0], [0.0, 2.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        assert predict_rows(model, raw, np.array([1, 0]), enc).tolist() == [0, 0]

    def test_overflowing_logits_raise_divergence_without_warning(self):
        # Finite parameters near the float limit: the hidden layer (or, with
        # a zero first layer, only the logits) overflow. Pytest turns any
        # numpy warning into a failure.
        dims = (2, 2, 2)
        raw, codes, enc = np.array([[1.0, 1.0]]), np.array([0]), np.zeros((1, 0))
        huge = np.full(flat_length(dims), 1e308)
        hidden_overflow = ModelParams(huge, dims)
        logit_overflow = ModelParams(np.where(np.arange(huge.size) < 4, 0.0, huge), dims)
        assert np.isfinite(hidden_rows(logit_overflow, raw, codes, enc)).all()
        for model in (hidden_overflow, logit_overflow):
            with pytest.raises(DivergenceError, match=r"^scoring diverged \(non-finite logits\)$"):
                predict_rows(model, raw, codes, enc)

    def test_shape_errors_name_both_widths(self):
        model = init_params((6, 3, 2), seed=0)
        raw, codes, enc = np.zeros((4, 3)), np.array([0, 1, 1, 0]), np.zeros((2, 3))
        predict_rows(model, raw, codes, enc)
        with pytest.raises(ShapeError, match=r"^rows of 3 encoding \+ 2 raw columns do not fit input_dim 6 "):
            predict_rows(model, raw[:, :2], codes, enc)
        with pytest.raises(ShapeError, match=r"^rows of 0 encoding \+ 10 raw columns do not fit input_dim 6 "):
            predict_rows(model, *no_encoding(np.zeros((5, 10))))
        bad = [
            (raw[0], codes, enc),            # one row, not a matrix of rows
            (raw, codes, enc[0]),            # one encoding, not a table
            (raw, codes[:3], enc),           # a code per row
            (raw, codes + 1, enc),           # a code past the table
            (raw, codes - 1, enc),           # a negative code
        ]
        for case in bad:
            with pytest.raises(ShapeError):
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
        with pytest.raises(ShapeError):
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
    params, diverged = train_cohort(init, raw, labels, codes, enc, spans([0, len(raw)]), config, [seed])
    return None if diverged else ModelParams(params[0], init.dims)


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
    increasing) after ``lead`` rows of other clients, rows coded into a
    table of ``tables`` encodings ``e_dim`` wide."""

    seed: int
    dims: tuple
    e_dim: int
    tables: int
    counts: list
    batch_size: int
    epochs: int
    lead: int


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
    )


def cohort_arrays(case):
    """Raw rows, labels, codes, encoding table, offsets and seeds of a case;
    two rows of no client trail the cohort's."""
    rng = np.random.default_rng(case.seed)
    offsets = case.lead + np.cumsum([0] + case.counts)
    n = int(offsets[-1]) + 2
    raw = rng.normal(size=(n, case.dims[0] - case.e_dim))
    labels = rng.integers(0, case.dims[2], size=n)
    codes = rng.integers(0, case.tables, size=n)
    enc = rng.normal(size=(case.tables, case.e_dim))
    seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=len(case.counts))]
    return raw, labels, codes, enc, offsets, seeds


def assembled(raw, codes, enc, lo, hi):
    """Rows ``lo:hi`` as the model sees them: encoding, then raw features."""
    return np.hstack([enc[codes[lo:hi]], raw[lo:hi]])


class RowSets(NamedTuple):
    """Shape of a random call whose clients come in no order of size:
    ``rows`` rows coded into a table of ``tables`` encodings ``e_dim``
    wide; client ``k`` trains on ``counts[k]`` of them drawn at random, so
    row sets overlap and leave gaps, and the clients in ``poisoned`` also
    train on one more row, of NaNs."""

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
    input_dim = draw(st.integers(1, 48))
    counts = draw(st.lists(st.integers(1, rows), min_size=1, max_size=6))
    return RowSets(
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        dims=(input_dim, draw(st.integers(1, 24)), draw(st.integers(1, 4))),
        # At least one raw column, which the poisoned row fills with NaN.
        e_dim=draw(st.one_of(st.just(0), st.integers(0, input_dim - 1))),
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
    @example(case=Cohort(3, (12, 6, 3), 9, 4, [57], 8, 2, 1))
    @example(case=Cohort(4, (160, 16, 3), 150, 4, [40, 33], 32, 1, 0))
    @settings(max_examples=60, deadline=None)
    def test_every_member_matches_reference_chain(self, case):
        # Bit-exact, not allclose: BLAS may tile differently as shapes
        # grow, so the shapes are drawn at random and never skipped.
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        init = init_params(case.dims, case.seed)
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        params, diverged = train_cohort(init, raw, labels, codes, enc, spans(offsets), config, seeds)
        assert diverged == {}
        assert params.shape == (len(case.counts), init.n_params)
        for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
            expected = reference_train(init, assembled(raw, codes, enc, lo, hi), labels[lo:hi],
                                       config, seeds[i])
            assert params[i].tobytes() == expected.vector.tobytes()

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
        enc = rng.normal(size=(case.tables, case.e_dim))
        rows = [rng.choice(n, size=count, replace=False) for count in case.counts]
        for k in case.poisoned:
            rows[k] = np.insert(rows[k], rng.integers(0, rows[k].size + 1), n)
        seeds = [int(s) for s in rng.integers(0, 2 ** 32, size=len(rows))]
        init = init_params(case.dims, case.seed)
        config = TrainingConfig(learning_rate=0.05, epochs=case.epochs, batch_size=case.batch_size)
        params, diverged = train_cohort(init, raw, labels, codes, enc, rows, config, seeds)
        assert params.shape == (len(rows), init.n_params)
        assert sorted(diverged) == list(case.poisoned)
        for k, r in enumerate(rows):
            if k not in diverged:
                expected = reference_train(init, np.hstack([enc[codes[r]], raw[r]]), labels[r],
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
        params, diverged = train_cohort(init, raw, labels, codes, enc, spans(offsets), config, seeds)
        assert diverged == {1: "training diverged (layer1_weights contains non-finite entries)"}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="^layer1_weights contains non-finite entries$"):
            reference_train(init, assembled(raw, codes, enc, offsets[1], offsets[2]),
                            labels[offsets[1]:offsets[2]], config, seeds[1])
        for i in (0, 2):
            alone, _ = train_cohort(init, raw, labels, codes, enc, spans(offsets[i:i + 2]), config, [seeds[i]])
            assert params[i].tobytes() == alone[0].tobytes()

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
            results.append(train_cohort(init, raw, labels, codes, enc, spans(offsets), config, seeds))
        (params, diverged), *others = results
        assert list(diverged) == [1]
        for other, failed in others:
            assert failed == diverged
            assert other.tobytes() == params.tobytes()

    def test_scratch_is_sized_for_one_cohort(self, monkeypatch):
        # tracemalloc sees numpy's buffers. Twelve clients in cohorts of
        # three: the call's peak is one cohort's working set plus the
        # (K, P) result and the encoding table, not twelve working sets.
        case = Cohort(10, (40, 16, 3), 8, 12, [40] * 6 + [33] * 6, 32, 2, 0)
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        init = init_params(case.dims, seed=2)
        config = TrainingConfig(epochs=case.epochs, batch_size=case.batch_size)
        per_client = working_set_bytes(init.dims, config.batch_size)
        monkeypatch.setattr(nn, "COHORT_BYTES", 3 * per_client)
        assert len(cohort_slices(12, init.dims, config.batch_size)) == 4
        tracemalloc.start()
        try:
            params, diverged = train_cohort(init, raw, labels, codes, enc, spans(offsets), config, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diverged == {}
        table = case.tables * case.dims[0] * 8
        assert peak <= nn.COHORT_BYTES + params.nbytes + table
        assert 12 * per_client > nn.COHORT_BYTES + params.nbytes + table

    def test_five_float_scratch_rows_per_client(self):
        # Parameters, gradient, both Adam moments and one Adam step: with a
        # wide model and one-row batches the call's peak is those five
        # (K, P) rows, the (K, P) result and the finiteness mask. A sixth
        # float row would add another buffer's worth.
        case = Cohort(11, (400, 25, 2), 0, 1, [1] * 8, 1, 2, 0)
        raw, labels, codes, enc, offsets, seeds = cohort_arrays(case)
        init = init_params(case.dims, seed=3)
        config = TrainingConfig(epochs=case.epochs, batch_size=case.batch_size)
        assert len(cohort_slices(8, init.dims, config.batch_size)) == 1
        buffer = 8 * flat_length(init.dims) * 8
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            params, diverged = train_cohort(init, raw, labels, codes, enc, spans(offsets), config, seeds)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert diverged == {} and params.nbytes == buffer
        assert 6 * buffer < peak < 6.5 * buffer

    def test_labels_checked_once_per_call(self):
        init = init_params((2, 3, 2), seed=0)
        labels = np.zeros(12, dtype=np.int64)
        labels[10] = 2
        args = (np.zeros((12, 2)), labels, np.zeros(12), np.empty((1, 0)))
        with pytest.raises(InvalidLabelError):
            train_cohort(init, *args, spans([0, 6, 12]), TrainingConfig(epochs=1), [0, 1])
        # Rows outside the cohort are not its labels.
        train_cohort(init, *args, spans([0, 6]), TrainingConfig(epochs=1), [0])

    def test_shape_mismatch_rejected(self):
        init = init_params((4, 3, 2), seed=0)
        raw, labels, codes, enc = np.zeros((12, 3)), np.zeros(12), np.zeros(12), np.zeros((2, 1))
        config = TrainingConfig(epochs=1)
        train_cohort(init, raw, labels, codes, enc, spans([0, 6, 12]), config, [0, 1])
        bad = [
            (np.zeros((12, 2)), labels, codes, enc, spans([0, 6, 12]), [0, 1]),  # width != input_dim
            (raw, labels, codes, enc, spans([0, 6, 12]), [0]),                  # one seed for two
            (raw, labels[:11], codes, enc, spans([0, 6, 12]), [0, 1]),          # labels per row
            (raw, labels, codes, enc, spans([0, 6, 13]), [0, 1]),               # past the last row
            (raw, labels, codes, enc, [np.arange(6), [6, -1]], [0, 1]),         # a negative row
            (raw, labels, codes, enc, [np.arange(6), [12]], [0, 1]),            # row N
            (raw, labels, codes, enc, spans([0, 6, 6]), [0, 1]),                # a client without rows
            (raw, labels, codes + 2, enc, spans([0, 6, 12]), [0, 1]),           # code past the table
        ]
        for case in bad:
            with pytest.raises(ShapeError):
                train_cohort(init, *case[:5], config, case[5])
