"""The reference chain: the test oracle of the training kernel.

A straightforward per-step implementation of what ``nn.train_cohort``
computes: a dense forward pass, mean softmax cross-entropy and its
gradient, hand-written backpropagation to the flat gradient vector, and
one bias-corrected Adam step over the flat parameter vector. Every
function works on one client's assembled rows and allocates freely. The
finite-difference and Adam oracles check this chain, and the kernel must
reproduce it bit for bit on each client's active input columns
(:func:`compact_reference_train`). :func:`dense_rows` is the dense
layout of the kernel's results, which every rebuilt client vector must
equal, and :func:`dense_encodings` the dense layout of the encodings,
the rows the chain and :func:`forward` read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spatialfl.errors import SpatialFLError
from spatialfl.nn import ModelParams, TrainingConfig


@dataclass(frozen=True)
class OptimizerState:
    """Adam moment estimates over the flat parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int


def init_optimizer_state(params: ModelParams) -> OptimizerState:
    n = params.n_params
    return OptimizerState(np.zeros(n), np.zeros(n), 0)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of dims and every parameter."""
    return a.dims == b.dims and np.array_equal(a.vector, b.vector)


def _check_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != params.input_dim:
        raise SpatialFLError(f"batch shape {batch.shape} incompatible with input_dim {params.input_dim}")
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
        raise SpatialFLError(f"logits {logits.shape} vs labels {labels.shape}")
    n, n_classes = logits.shape
    if n == 0:
        raise SpatialFLError("cannot take the loss of an empty batch")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise SpatialFLError(f"labels must lie in [0, {n_classes})")
    labels = labels.astype(np.int64)
    probs = softmax(logits)
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, np.finfo(np.float64).tiny))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def backward(params: ModelParams, batch: np.ndarray, grad_logits: np.ndarray) -> np.ndarray:
    """Backpropagate a logits gradient to the flat parameter gradient."""
    batch = _check_batch(params, batch)
    grad_logits = np.asarray(grad_logits, dtype=np.float64)
    if grad_logits.shape != (batch.shape[0], params.n_classes):
        raise SpatialFLError(f"grad_logits shape {grad_logits.shape} incompatible with model {params.dims}")
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
    """One bias-corrected Adam update over the flat parameters. A
    non-finite result fails :class:`ModelParams`'s check, naming its
    first non-finite layer."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (params.n_params,):
        raise SpatialFLError(f"gradient length {grad.shape} != parameter count {params.n_params}")
    t = state.step_count + 1
    m = config.adam_beta1 * state.first_moment + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * state.second_moment + (1.0 - config.adam_beta2) * grad * grad
    m_hat = m / (1.0 - config.adam_beta1 ** t)
    v_hat = v / (1.0 - config.adam_beta2 ** t)
    flat = params.vector - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return ModelParams(flat, params.dims), OptimizerState(m, v, t)


def reference_train(init, features, labels, config, seed):
    """The per-step chain that the training kernel must reproduce bit for
    bit: ``config.epochs`` epochs of minibatch Adam over assembled rows,
    each epoch's order drawn from a generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    params, state = init, init_optimizer_state(init)
    n = features.shape[0]
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            _, grad_logits = loss_and_grad(forward(params, features[idx]), labels[idx])
            grad = backward(params, features[idx], grad_logits)
            params, state = adam_step(params, grad, state, config)
    return params


def compact_reference_train(init, features, labels, config, seed, active):
    """The kernel's contract: :func:`reference_train` on the assembled rows
    cut down to the input columns ``active`` (ascending), from ``init`` cut
    down to them, with the result scattered back into ``init``. Every
    other first-layer weight keeps ``init``'s value."""
    active = np.asarray(active, dtype=np.intp)
    input_dim, hidden_dim, n_classes = init.dims
    w1_end = hidden_dim * input_dim
    compact = ModelParams(np.concatenate([init.layer1_weights[:, active].ravel(), init.vector[w1_end:]]),
                          (active.size, hidden_dim, n_classes))
    trained = reference_train(compact, features[:, active], labels, config, seed)
    vector = init.vector.copy()
    vector[:w1_end].reshape(hidden_dim, input_dim)[:, active] = trained.layer1_weights
    vector[w1_end:] = trained.vector[hidden_dim * active.size:]
    return ModelParams(vector, init.dims)


def dense_rows(plan, models) -> np.ndarray:
    """The dense path that the kernel's compact results replace: a
    ``(K, P)`` buffer filled with the broadcast, each cohort's trained
    values (``models.values``) scattered at the plan's index of them, row
    ``k`` the ``k``-th client of the call."""
    buffer = np.empty((len(plan.counts), models.broadcast.n_params))
    buffer[:] = models.broadcast.vector
    for part, values in zip(plan.parts, models.values):
        buffer[part.members[:, None], part.index] = values
    return buffer


def dense_encodings(enc) -> np.ndarray:
    """The ``(K, E)`` dense rows of :class:`~spatialfl.spatial.Encodings`,
    which the program never builds: each row's coordinates, then 1.0 at
    each of its label columns and 0.0 everywhere else."""
    dense = np.zeros((len(enc), enc.width))
    dense[:, :enc.head] = enc.coords
    np.put_along_axis(dense, enc.labels, 1.0, axis=1)
    return dense


def tree_sum_levels(vectors: list[np.ndarray]) -> np.ndarray:
    """The oracle of the aggregation's pairwise sum: a list folded level by
    level, each level summing neighbouring pairs and carrying an odd last
    vector up unchanged."""
    while len(vectors) > 1:
        paired = [vectors[i] + vectors[i + 1] for i in range(0, len(vectors) - 1, 2)]
        if len(vectors) % 2:
            paired.append(vectors[-1])
        vectors = paired
    return vectors[0]
