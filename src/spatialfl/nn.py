"""Dense two-layer classifier trained with softmax cross-entropy and Adam.

Everything here is plain float64 numpy: forward pass, loss, hand-written
backpropagation, and a bias-corrected Adam step over the flattened
parameter vector. The flattening order (layer-1 weights row-major,
layer-1 bias, layer-2 weights row-major, layer-2 bias) is a contract: the
binary model file format stores parameters in exactly this order.

All training runs through one kernel, :func:`train_cohort`. It trains a
cohort of clients that share ``init``, row count and config, each with
its own minibatch seed, over one ``(K, P)`` parameter buffer whose rows
the layers view and which Adam updates in place. Its contract is
bit-exactness: every client's parameters equal, bit for bit, those of
the reference chain :func:`forward` -> :func:`loss_and_grad` ->
:func:`backward` -> :func:`adam_step` run for that client alone, which
the tests check on random shapes. :func:`train` is a cohort of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceError, InvalidDimensionError, InvalidLabelError, ShapeError

Dims = tuple[int, int, int]  # (input_dim, hidden_dim, n_classes)


@dataclass(frozen=True)
class ModelParams:
    """Weights and biases of a two-layer ReLU classifier."""

    layer1_weights: np.ndarray  # (hidden, input)
    layer1_bias: np.ndarray     # (hidden,)
    layer2_weights: np.ndarray  # (classes, hidden)
    layer2_bias: np.ndarray     # (classes,)
    dims: Dims

    def __post_init__(self):
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise InvalidDimensionError(f"dims must be three integers >= 1, got {self.dims}")
        input_dim, hidden_dim, n_classes = self.dims
        expected = {
            "layer1_weights": (hidden_dim, input_dim),
            "layer1_bias": (hidden_dim,),
            "layer2_weights": (n_classes, hidden_dim),
            "layer2_bias": (n_classes,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def hidden_dim(self) -> int:
        return self.dims[1]

    @property
    def n_classes(self) -> int:
        return self.dims[2]

    @property
    def n_params(self) -> int:
        return flat_length(self.dims)


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for local training."""

    learning_rate: float = 0.01
    epochs: int = 50
    batch_size: int = 32
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValueError("adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0:
            raise ValueError("adam_epsilon must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class OptimizerState:
    """Adam moment estimates over the flattened parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int


def flat_length(dims: Dims) -> int:
    input_dim, hidden_dim, n_classes = dims
    return hidden_dim * input_dim + hidden_dim + n_classes * hidden_dim + n_classes


def init_params(dims: Dims, seed: int) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    if len(dims) != 3 or min(dims) < 1:
        raise InvalidDimensionError(f"dims must be three integers >= 1, got {dims}")
    input_dim, hidden_dim, n_classes = dims
    rng = np.random.default_rng(seed)
    scale1 = 1.0 / np.sqrt(input_dim)
    scale2 = 1.0 / np.sqrt(hidden_dim)
    return ModelParams(
        layer1_weights=rng.uniform(-scale1, scale1, size=(hidden_dim, input_dim)),
        layer1_bias=np.zeros(hidden_dim),
        layer2_weights=rng.uniform(-scale2, scale2, size=(n_classes, hidden_dim)),
        layer2_bias=np.zeros(n_classes),
        dims=(input_dim, hidden_dim, n_classes),
    )


def init_optimizer_state(params: ModelParams) -> OptimizerState:
    n = params.n_params
    return OptimizerState(np.zeros(n), np.zeros(n), 0)


def flatten(params: ModelParams) -> np.ndarray:
    """Flatten to a single vector in the model-file order."""
    return np.concatenate([
        params.layer1_weights.ravel(),
        params.layer1_bias,
        params.layer2_weights.ravel(),
        params.layer2_bias,
    ])


def _layer_views(buffer: np.ndarray, dims: Dims) -> tuple[np.ndarray, ...]:
    """The layers of a flat vector, or of every row of a ``(K, P)``
    buffer, as views in the model-file order: ``W1, b1, W2, b2``."""
    input_dim, hidden_dim, n_classes = dims
    a = hidden_dim * input_dim
    b = a + hidden_dim
    c = b + n_classes * hidden_dim
    lead = buffer.shape[:-1]
    return (buffer[..., :a].reshape(*lead, hidden_dim, input_dim), buffer[..., a:b],
            buffer[..., b:c].reshape(*lead, n_classes, hidden_dim), buffer[..., c:])


def unflatten(dims: Dims, vector: np.ndarray) -> ModelParams:
    """Inverse of :func:`flatten`; bit-exact round trip."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1 or vector.size != flat_length(dims):
        raise ShapeError(f"expected flat vector of length {flat_length(dims)}, got shape {vector.shape}")
    w1, b1, w2, b2 = (view.copy() for view in _layer_views(vector, dims))
    return ModelParams(w1, b1, w2, b2, dims=dims)


def _check_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise ShapeError(f"batch shape {batch.shape} incompatible with input_dim {params.input_dim}")
    return batch


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Logits for a batch: relu(x W1' + b1) W2' + b2."""
    batch = _check_batch(params, batch)
    hidden = np.maximum(batch @ params.layer1_weights.T + params.layer1_bias, 0.0)
    return hidden @ params.layer2_weights.T + params.layer2_bias


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def loss_and_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    The gradient of the mean loss is (softmax(row) - onehot(label)) / n.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    n, n_classes = logits.shape
    if n == 0:
        raise ShapeError("cannot take the loss of an empty batch")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise InvalidLabelError(f"labels must lie in [0, {n_classes})")
    labels = labels.astype(np.int64)
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, np.finfo(np.float64).tiny))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def backward(params: ModelParams, batch: np.ndarray, grad_logits: np.ndarray) -> np.ndarray:
    """Backpropagate a logits gradient to the flattened parameter gradient."""
    batch = _check_batch(params, batch)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != (batch.shape[0], params.n_classes):
        raise ShapeError(f"grad_logits shape {grad_logits.shape} incompatible with model {params.dims}")
    pre_hidden = batch @ params.layer1_weights.T + params.layer1_bias
    hidden = np.maximum(pre_hidden, 0.0)
    grad_w2 = grad_logits.T @ hidden
    grad_b2 = grad_logits.sum(axis=0)
    grad_hidden = grad_logits @ params.layer2_weights
    grad_hidden = np.where(pre_hidden > 0.0, grad_hidden, 0.0)
    grad_w1 = grad_hidden.T @ batch
    grad_b1 = grad_hidden.sum(axis=0)
    return np.concatenate([grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2])


def adam_step(
    params: ModelParams,
    grad: np.ndarray,
    state: OptimizerState,
    config: TrainingConfig,
) -> tuple[ModelParams, OptimizerState]:
    """One bias-corrected Adam update over the flattened parameters."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (params.n_params,):
        raise ShapeError(f"gradient length {grad.shape} != parameter count {params.n_params}")
    t = state.step_count + 1
    m = config.adam_beta1 * state.first_moment + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * state.second_moment + (1.0 - config.adam_beta2) * grad * grad
    m_hat = m / (1.0 - config.adam_beta1 ** t)
    v_hat = v / (1.0 - config.adam_beta2 ** t)
    flat = flatten(params) - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return unflatten(params.dims, flat), OptimizerState(m, v, t)


def train_cohort(
    init: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, dict[int, str]]:
    """Train a cohort of K clients from ``init``: the training kernel.

    ``features`` is ``(K, n, input_dim)`` and ``labels`` is ``(K, n)``:
    every client has the same number of rows and the same ``config``,
    and client ``k`` draws its minibatch order from a generator seeded
    with ``seeds[k]``. Client ``k``'s parameters are row ``k`` of the
    returned ``(K, P)`` buffer, in the model-file order. Each row is
    bit-identical to chaining :func:`forward`, :func:`loss_and_grad`,
    :func:`backward` and :func:`adam_step` for that client alone: the
    3-D matmuls make the same BLAS call per client, and every
    elementwise step keeps the reference's operation order. The returned
    dict maps the index of each client whose parameters went non-finite
    to the message of its first such step; that client's row is garbage.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if (labels.ndim != 2 or not labels.shape[0] or len(seeds) != labels.shape[0]
            or features.shape != (*labels.shape, init.input_dim)):
        raise ShapeError(f"cohort features {features.shape}, labels {labels.shape} and "
                         f"{len(seeds)} seeds disagree for input_dim {init.input_dim}")
    k, n = labels.shape
    if labels.size and (labels.min() < 0 or labels.max() >= init.n_classes):
        raise InvalidLabelError(f"labels must lie in [0, {init.n_classes})")
    params = np.tile(flatten(init), (k, 1))
    grad = np.zeros_like(params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    m_hat, v_hat = np.empty_like(params), np.empty_like(params)  # also scratch
    w1, b1, w2, b2 = _layer_views(params, init.dims)
    g_w1, g_b1, g_w2, g_b2 = _layer_views(grad, init.dims)
    lr, beta1, beta2, eps = (config.learning_rate, config.adam_beta1,
                             config.adam_beta2, config.adam_epsilon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    clients = np.arange(k)[:, None]
    diverged: dict[int, str] = {}
    t = 0
    # Overflow is reported once, as the client's divergence message, not
    # as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            for start in range(0, n, config.batch_size):
                idx = order[:, start:start + config.batch_size]
                batch, batch_labels = features[clients, idx], labels[clients, idx]
                rows = idx.shape[1]
                # Forward, keeping the pre-activation for backward.
                pre_hidden = np.matmul(batch, w1.transpose(0, 2, 1))
                pre_hidden += b1[:, None, :]
                hidden = np.maximum(pre_hidden, 0.0)
                probs = np.matmul(hidden, w2.transpose(0, 2, 1))
                probs += b2[:, None, :]
                # Softmax cross-entropy gradient w.r.t. the logits, in place.
                probs -= probs.max(axis=2, keepdims=True)
                np.exp(probs, out=probs)
                probs /= probs.sum(axis=2, keepdims=True)
                probs[clients, np.arange(rows), batch_labels] -= 1.0
                probs /= rows
                # Backward into the flat gradient buffer.
                np.matmul(probs.transpose(0, 2, 1), hidden, out=g_w2)
                np.sum(probs, axis=1, out=g_b2)
                grad_hidden = np.where(pre_hidden > 0.0, np.matmul(probs, w2), 0.0)
                np.matmul(grad_hidden.transpose(0, 2, 1), batch, out=g_w1)
                np.sum(grad_hidden, axis=1, out=g_b1)
                # Bias-corrected Adam, in place, in adam_step's order.
                t += 1
                m *= beta1
                np.multiply(1.0 - beta1, grad, out=m_hat)
                m += m_hat
                v *= beta2
                np.multiply(1.0 - beta2, grad, out=v_hat)
                v_hat *= grad
                v += v_hat
                np.divide(m, 1.0 - beta1 ** t, out=m_hat)
                np.multiply(lr, m_hat, out=m_hat)
                np.divide(v, 1.0 - beta2 ** t, out=v_hat)
                np.sqrt(v_hat, out=v_hat)
                v_hat += eps
                m_hat /= v_hat
                params -= m_hat
                finite = np.isfinite(params).all(axis=1)
                if not finite.all():
                    for i in np.flatnonzero(~finite).tolist():
                        if i not in diverged:
                            diverged[i] = _divergence_message(params[i], init.dims)
    return params, diverged


def _divergence_message(vector: np.ndarray, dims: Dims) -> str:
    names = ("layer1_weights", "layer1_bias", "layer2_weights", "layer2_bias")
    name = next(name for name, layer in zip(names, _layer_views(vector, dims))
                if not np.isfinite(layer).all())
    return f"training diverged ({name} contains non-finite entries)"


def train(
    init: ModelParams,
    features: np.ndarray,
    labels: np.ndarray,
    config: TrainingConfig,
) -> ModelParams:
    """Run ``config.epochs`` epochs of seeded minibatch Adam from ``init``.

    A cohort of one through :func:`train_cohort`: the minibatch order is
    drawn from a generator seeded with ``config.seed``, so identical
    inputs reproduce bit-identical parameters. A step that leaves a
    non-finite parameter raises :class:`DivergenceError`.
    """
    features, labels = np.asarray(features), np.asarray(labels)
    params, diverged = train_cohort(init, features[None], labels[None], config, [config.seed])
    if diverged:
        raise DivergenceError(diverged[0])
    return unflatten(init.dims, params[0])


def predict(params: ModelParams, features: np.ndarray) -> int:
    """Argmax class for one feature vector; ties resolve to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (params.input_dim,):
        raise ShapeError(f"feature length {features.shape} != input_dim {params.input_dim}")
    return int(np.argmax(forward(params, features[None, :])[0]))


def predict_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward(params, batch), axis=1)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of dims and every parameter."""
    return a.dims == b.dims and np.array_equal(flatten(a), flatten(b))
