"""Dense two-layer classifier trained with softmax cross-entropy and Adam.

Everything here is plain float64 numpy: forward pass, loss, hand-written
backpropagation, and a bias-corrected Adam step over the flattened
parameter vector. The flattening order (layer-1 weights row-major,
layer-1 bias, layer-2 weights row-major, layer-2 bias) is a contract: the
binary model file format stores parameters in exactly this order.

All training runs through one kernel, :func:`train_cohort`. It trains a
cohort of clients that share ``init`` and config, each with its own rows
(any count) and minibatch seed, over one ``(K, P)`` parameter buffer
whose rows the layers view and which Adam updates in place. Rows arrive
raw, each with a code into a table of encodings, and the kernel
assembles a minibatch's inputs only when it trains on them. Training is
step-aligned: iteration ``g`` takes every client's own ``g``-th step,
grouping neighbouring clients whose batches have the same size. Its
contract is bit-exactness: every client's parameters equal, bit for bit,
those of the reference chain :func:`forward` -> :func:`loss_and_grad` ->
:func:`backward` -> :func:`adam_step` run for that client alone on its
encoded rows, which the tests check on random ragged cohorts.
:func:`train` is a cohort of one.

All scoring runs through one scorer, :func:`predict_rows`, which reads
rows in the kernel's format and never assembles them: its first layer is
factored into a matmul over the raw columns plus, per row, its code's
row of ``enc @ W1_enc'``, computed once per call for the table rows the
codes span. :func:`predict_batch` is its call with no encoding (``E =
0``), the same float operations as :func:`forward`. With an encoding,
the factored sums round differently from :func:`forward` on the
assembled rows, so logits may differ in the last bits; the golden
digests pin the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    # Derived per run from the master seed, so it is no config key.
    seed: int = field(default=0, metadata={"key": None})

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


def working_set_bytes(dims: Dims, batch_size: int) -> int:
    """Bytes :func:`train_cohort` works in per client of a cohort whose
    clients each use one encoding, beyond the rows themselves.

    Six rows of ``P`` floats (parameters, gradient, both Adam moments and
    two scratch rows) and a ``P``-byte finiteness mask; the client's row
    of the full-width encoding table; and one minibatch of ``batch_size``
    rows with what a step computes from it: the assembled inputs and
    their raw part, four hidden-layer arrays, the logits, the ReLU mask
    and four index vectors.
    """
    input_dim, hidden_dim, n_classes = dims
    n_params = flat_length(dims)
    words = 6 * n_params + input_dim + batch_size * (2 * input_dim + 4 * hidden_dim + n_classes + 4)
    return 8 * words + n_params + batch_size * hidden_dim


def _view(buffer: np.ndarray, clients: int, rows: int, cols: int) -> np.ndarray:
    """The start of a flat scratch buffer, shaped ``(clients, rows, cols)``."""
    return buffer[:clients * rows * cols].reshape(clients, rows, cols)


def _schedule(counts: np.ndarray, batch_size: int, epochs: int) -> list:
    """The step-aligned schedule of a cohort whose row counts do not increase.

    Iteration ``g`` takes the ``g``-th step of every client that still has
    one; those clients are a prefix of the cohort. For each iteration the
    result holds the clients whose step starts an epoch, and the runs
    ``(lo, hi, rows, starts)`` of neighbouring clients whose batch holds
    ``rows`` rows, with ``starts[i]`` the position of client ``lo + i``'s
    batch in the cohort's epoch orders. Its size grows with the number of
    client steps, not with clients times iterations.
    """
    steps = -(-counts // batch_size)  # per epoch
    total = steps * epochs
    # One entry per (iteration g, client k) with k still training at g,
    # ordered by g, then k.
    active = np.searchsorted(-total, -np.arange(int(total[0])), side="left")
    g = np.repeat(np.arange(active.size), active)
    k = np.arange(g.size) - np.repeat(np.cumsum(active) - active, active)
    step = g % steps[k]
    size = np.where(step == steps[k] - 1, counts[k] - (steps[k] - 1) * batch_size, batch_size)
    starts = np.cumsum(counts)[k] - counts[k] + step * batch_size
    schedule: list = [([], []) for _ in range(active.size)]
    its, clients, sizes = g.tolist(), k.tolist(), size.tolist()
    for i in np.flatnonzero(step == 0).tolist():
        schedule[its[i]][0].append(clients[i])
    cuts = (np.flatnonzero((g[1:] != g[:-1]) | (size[1:] != size[:-1])) + 1).tolist()
    for i, j in zip([0, *cuts], [*cuts, g.size]):
        if i < j:
            schedule[its[i]][1].append((clients[i], clients[j - 1] + 1, sizes[i], starts[i:j]))
    return schedule


def train_cohort(
    init: ModelParams,
    raw: np.ndarray,
    labels: np.ndarray,
    codes: np.ndarray,
    enc: np.ndarray,
    offsets: Sequence[int],
    config: TrainingConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, dict[int, str]]:
    """Train a cohort of K clients from ``init``: the training kernel.

    Client ``k`` owns rows ``offsets[k]:offsets[k + 1]`` of the raw
    feature matrix ``raw`` ``(N, F)`` and of ``labels`` ``(N,)``, and its
    row counts must not increase along the cohort. Row ``i``'s model input
    is ``[enc[codes[i]], raw[i]]``: a row of the ``(C, E)`` encoding table
    (``E`` is 0 with encoding off) followed by the raw features. Every
    client shares ``config`` and draws its minibatch order at the start of
    each of its epochs from a generator seeded with ``seeds[k]``.

    Training is step-aligned: iteration ``g`` takes every client's own
    ``g``-th step, so every client still training has taken the same
    number of Adam steps, and those clients, a prefix of the cohort, take
    one in-place Adam update over their rows of the ``(K, P)`` buffers.
    Forward and backward run once per run of neighbouring clients whose
    step has the same batch size (a full ``batch_size``, or an epoch's
    ragged last batch), as 3-D matmuls that make the same BLAS call per
    client as training it alone.

    Client ``k``'s parameters are row ``k`` of the returned ``(K, P)``
    buffer, in the model-file order, bit-identical to chaining
    :func:`forward`, :func:`loss_and_grad`, :func:`backward` and
    :func:`adam_step` on its assembled rows alone. The returned dict maps
    the index of each client whose parameters went non-finite to the
    message of its first such step; that client's row is garbage.
    """
    raw = np.asarray(raw, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.intp)
    enc = np.asarray(enc, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    k = counts.size
    if (raw.ndim != 2 or enc.ndim != 2 or enc.shape[1] + raw.shape[1] != init.input_dim
            or labels.shape != raw.shape[:1] or codes.shape != raw.shape[:1]
            or k == 0 or len(seeds) != k or offsets[0] < 0 or offsets[-1] > len(raw)):
        raise ShapeError(f"cohort raw rows {raw.shape}, labels {labels.shape}, codes "
                         f"{codes.shape}, encodings {enc.shape}, {len(offsets)} offsets and "
                         f"{len(seeds)} seeds disagree for input_dim {init.input_dim}")
    if counts.min() < 1 or (np.diff(counts) > 0).any():
        raise ShapeError(f"cohort row counts {counts.tolist()} must be positive and not increase")
    # From here on, rows are numbered within the cohort.
    rows = slice(int(offsets[0]), int(offsets[-1]))
    raw, labels, codes, offsets = raw[rows], labels[rows], codes[rows], offsets - offsets[0]
    if labels.min() < 0 or labels.max() >= init.n_classes:
        raise InvalidLabelError(f"labels must lie in [0, {init.n_classes})")
    first_code, last_code = int(codes.min()), int(codes.max())
    if first_code < 0 or last_code >= len(enc):
        raise ShapeError(f"row codes must lie in [0, {len(enc)})")
    e_dim, (i_dim, h_dim, c_dim) = enc.shape[1], init.dims
    # The encodings the cohort's rows use, as full input rows whose raw
    # columns each batch overwrites: one take then assembles a batch.
    table = np.zeros((last_code + 1 - first_code, i_dim))
    table[:, :e_dim] = enc[first_code:last_code + 1]
    codes = codes - first_code
    schedule = _schedule(counts, config.batch_size, config.epochs)
    width = min(config.batch_size, int(counts[0]))
    positions = np.arange(width)
    bounds = offsets.tolist()

    params = np.tile(flatten(init), (k, 1))
    grad = np.zeros_like(params)
    m, v = np.zeros_like(params), np.zeros_like(params)
    m_hat, v_hat = np.empty_like(params), np.empty_like(params)  # also scratch
    finite = np.empty(params.shape, dtype=bool)
    w1, b1, w2, b2 = _layer_views(params, init.dims)
    g_w1, g_b1, g_w2, g_b2 = _layer_views(grad, init.dims)
    # One minibatch per client, viewed per run at the run's shape.
    batch_buf = np.empty(k * width * i_dim)
    pre_buf, hidden_buf = np.empty(k * width * h_dim), np.empty(k * width * h_dim)
    probs_buf = np.empty(k * width * c_dim)
    order = np.empty(bounds[-1], dtype=np.int64)  # each client's epoch order, as row numbers
    clients = np.arange(k)[:, None]

    lr, beta1, beta2, eps = (config.learning_rate, config.adam_beta1,
                             config.adam_beta2, config.adam_epsilon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    diverged: dict[int, str] = {}
    # Overflow is reported once, as the client's divergence message, not
    # as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for t, (new, group) in enumerate(schedule, start=1):
            for c in new:
                start, stop = bounds[c], bounds[c + 1]
                np.add(rngs[c].permutation(stop - start), start, out=order[start:stop])
            for lo, hi, n, starts in group:
                g = hi - lo
                idx = order[starts[:, None] + positions[:n]]
                # The rows' inputs [enc[codes[idx]], raw[idx]], assembled as
                # one contiguous (clients, rows, input_dim) batch.
                batch = np.take(table, codes[idx], axis=0, mode="clip", out=_view(batch_buf, g, n, i_dim))
                batch[..., e_dim:] = raw[idx]
                # Forward, keeping the pre-activation for backward.
                pre_hidden = np.matmul(batch, w1[lo:hi].transpose(0, 2, 1),
                                       out=_view(pre_buf, g, n, h_dim))
                pre_hidden += b1[lo:hi, None, :]
                hidden = np.maximum(pre_hidden, 0.0, out=_view(hidden_buf, g, n, h_dim))
                probs = np.matmul(hidden, w2[lo:hi].transpose(0, 2, 1), out=_view(probs_buf, g, n, c_dim))
                probs += b2[lo:hi, None, :]
                # Softmax cross-entropy gradient w.r.t. the logits, in place.
                probs -= probs.max(axis=2, keepdims=True)
                np.exp(probs, out=probs)
                probs /= probs.sum(axis=2, keepdims=True)
                probs[clients[:g], positions[:n], labels[idx]] -= 1.0
                probs /= n
                # Backward into the flat gradient buffer.
                np.matmul(probs.transpose(0, 2, 1), hidden, out=g_w2[lo:hi])
                np.sum(probs, axis=1, out=g_b2[lo:hi])
                grad_hidden = np.where(pre_hidden > 0.0, np.matmul(probs, w2[lo:hi]), 0.0)
                np.matmul(grad_hidden.transpose(0, 2, 1), batch, out=g_w1[lo:hi])
                np.sum(grad_hidden, axis=1, out=g_b1[lo:hi])
            # Bias-corrected Adam over the clients still training, in place,
            # in adam_step's order: each of them has now taken t steps.
            live = group[-1][1]
            x, dx, m1, v1, m1_hat, v1_hat = (
                buf[:live] for buf in (params, grad, m, v, m_hat, v_hat))
            m1 *= beta1
            np.multiply(1.0 - beta1, dx, out=m1_hat)
            m1 += m1_hat
            v1 *= beta2
            np.multiply(1.0 - beta2, dx, out=v1_hat)
            v1_hat *= dx
            v1 += v1_hat
            np.divide(m1, 1.0 - beta1 ** t, out=m1_hat)
            np.multiply(lr, m1_hat, out=m1_hat)
            np.divide(v1, 1.0 - beta2 ** t, out=v1_hat)
            np.sqrt(v1_hat, out=v1_hat)
            v1_hat += eps
            m1_hat /= v1_hat
            x -= m1_hat
            if not np.isfinite(x, out=finite[:live]).all():
                for i in np.flatnonzero(~finite[:live].all(axis=1)).tolist():
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

    A cohort of one through :func:`train_cohort`, with ``features`` as
    the raw rows and no encoding: the minibatch order is drawn from a
    generator seeded with ``config.seed``, so identical inputs reproduce
    bit-identical parameters. A step that leaves a non-finite parameter
    raises :class:`DivergenceError`.
    """
    features = np.asarray(features, dtype=np.float64)
    n = len(features)
    params, diverged = train_cohort(init, features, labels, np.zeros(n, dtype=np.intp),
                                    np.empty((1, 0)), [0, n], config, [config.seed])
    if diverged:
        raise DivergenceError(diverged[0])
    return unflatten(init.dims, params[0])


def predict(params: ModelParams, features: np.ndarray) -> int:
    """Argmax class for one feature vector; ties resolve to the lowest index."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (params.input_dim,):
        raise ShapeError(f"feature length {features.shape} != input_dim {params.input_dim}")
    return int(np.argmax(forward(params, features[None, :])[0]))


def hidden_rows(params: ModelParams, raw: np.ndarray, codes: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """The hidden layer, ``relu(x W1' + b1)``, of rows in the training
    kernel's format: row ``i``'s input is ``[enc[codes[i]], raw[i]]``.

    The first layer is factored, so no row is ever assembled: the raw
    columns are one matmul over the rows, and the encoding columns one
    matmul over the table rows ``first:last + 1`` that the codes span,
    gathered per row. With ``E = 0`` this is exactly :func:`forward`'s
    first layer; with ``E > 0`` sums are grouped differently from
    :func:`forward` on the assembled rows, so they may differ in the last
    bits.
    """
    raw = np.asarray(raw, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.intp)
    enc = np.asarray(enc, dtype=np.float64)
    if raw.ndim != 2 or enc.ndim != 2 or enc.shape[1] + raw.shape[1] != params.input_dim:
        raise ShapeError(f"rows of {enc.shape[-1]} encoding + {raw.shape[-1]} raw columns do not "
                         f"fit input_dim {params.input_dim} (raw rows {raw.shape}, encodings {enc.shape})")
    if codes.shape != raw.shape[:1]:
        raise ShapeError(f"{codes.size} row codes for {len(raw)} rows")
    e_dim, w1 = enc.shape[1], params.layer1_weights
    pre_hidden = raw @ w1[:, e_dim:].T
    if codes.size:
        first, last = int(codes.min()), int(codes.max())
        if first < 0 or last >= len(enc):
            raise ShapeError(f"row codes must lie in [0, {len(enc)})")
        if e_dim:
            pre_hidden += np.take(enc[first:last + 1] @ w1[:, :e_dim].T, codes - first, axis=0)
    pre_hidden += params.layer1_bias
    return np.maximum(pre_hidden, 0.0, out=pre_hidden)


def predict_rows(params: ModelParams, raw: np.ndarray, codes: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """Argmax class per row of the training kernel's format (see
    :func:`hidden_rows`); ties resolve to the lowest index."""
    hidden = hidden_rows(params, raw, codes, enc)
    return np.argmax(hidden @ params.layer2_weights.T + params.layer2_bias, axis=1)


def predict_batch(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row of assembled inputs; ties resolve to the
    lowest index. The ``E = 0`` call of :func:`predict_rows`, so the same
    float operations as :func:`forward`."""
    batch = np.asarray(batch, dtype=np.float64)
    return predict_rows(params, batch, np.zeros(batch.shape[:1], dtype=np.intp), np.empty((1, 0)))


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Bit-exact equality of dims and every parameter."""
    return a.dims == b.dims and np.array_equal(flatten(a), flatten(b))
