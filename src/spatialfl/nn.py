"""Dense two-layer classifier trained with softmax cross-entropy and Adam.

Everything here is plain float64 numpy. A model is one flat parameter
vector (:class:`ModelParams`) whose layers are views of it. Its order
(layer-1 weights row-major, layer-1 bias, layer-2 weights row-major,
layer-2 bias) is a contract: the kernel's ``(K, P)`` buffer rows, the
aggregation algebra and the binary model file all use exactly this
order, so a model moves between them without conversion.

All training runs through one kernel, :func:`train_cohort`. One call
trains any number of clients that share ``init`` and config, each with
its own set of row numbers (any count, in any order, overlapping or not)
and minibatch seed, and returns their parameters as the rows of one
freshly allocated ``(K, P)`` buffer, in the order the clients were
given. Rows arrive raw, each with a code into a table of encodings, and
the kernel assembles a minibatch's inputs only when it trains on them.
The call orders its clients by row count, most first, cuts them into
consecutive cohorts whose working set fits :data:`COHORT_BYTES` and
trains them one after another in one set of scratch buffers, where Adam
updates each cohort's parameters in place. Within a cohort training is
step-aligned: iteration ``g`` takes every client's own ``g``-th step,
grouping neighbouring clients whose batches have the same size. Its
contract is bit-exactness: every client's parameters equal, bit for bit,
those of a per-step reference chain (forward, softmax cross-entropy,
backpropagation, Adam; ``tests/reference.py``) run for that client alone
on its encoded rows, which the tests check on random ragged cohorts.

All scoring runs through one scorer, :func:`predict_rows`, which reads
rows in the kernel's format and never assembles them: its first layer is
factored into a matmul over the raw columns plus, per row, its code's
row of ``enc @ W1_enc'``, computed once per call for the table rows the
codes span. With no encoding (``E = 0``) it makes the same float
operations as a dense forward pass. With an encoding, the factored sums
round differently from a dense pass over the assembled rows, so logits
may differ in the last bits; the golden digests pin the predictions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, InvalidDimensionError, InvalidLabelError, ShapeError

Dims = tuple[int, int, int]  # (input_dim, hidden_dim, n_classes)


@dataclass(frozen=True)
class ModelParams:
    """A two-layer ReLU classifier: one flat float64 vector in the
    model-file order, whose layers are views of it."""

    vector: np.ndarray  # (n_params,)
    dims: Dims
    layer1_weights: np.ndarray = field(init=False, repr=False, compare=False)  # (hidden, input)
    layer1_bias: np.ndarray = field(init=False, repr=False, compare=False)     # (hidden,)
    layer2_weights: np.ndarray = field(init=False, repr=False, compare=False)  # (classes, hidden)
    layer2_bias: np.ndarray = field(init=False, repr=False, compare=False)     # (classes,)

    def __post_init__(self):
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise InvalidDimensionError(f"dims must be three integers >= 1, got {self.dims}")
        vector = np.asarray(self.vector, dtype=np.float64)
        if vector.shape != (flat_length(self.dims),):
            raise ShapeError(f"expected flat vector of length {flat_length(self.dims)}, "
                             f"got shape {vector.shape}")
        name = _non_finite_layer(vector, self.dims)
        if name is not None:
            raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "vector", vector)
        for name, view in zip(_LAYERS, _layer_views(vector, self.dims)):
            object.__setattr__(self, name, view)

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


def flat_length(dims: Dims) -> int:
    input_dim, hidden_dim, n_classes = dims
    return hidden_dim * input_dim + hidden_dim + n_classes * hidden_dim + n_classes


def init_params(dims: Dims, seed: int) -> ModelParams:
    """Seeded uniform init scaled by 1/sqrt(fan_in); biases start at zero."""
    if len(dims) != 3 or min(dims) < 1:
        raise InvalidDimensionError(f"dims must be three integers >= 1, got {dims}")
    input_dim, hidden_dim, n_classes = dims
    rng = np.random.default_rng(seed)
    vector = np.zeros(flat_length(dims))
    w1, _, w2, _ = _layer_views(vector, dims)
    scale1 = 1.0 / np.sqrt(input_dim)
    scale2 = 1.0 / np.sqrt(hidden_dim)
    w1[...] = rng.uniform(-scale1, scale1, size=w1.shape)
    w2[...] = rng.uniform(-scale2, scale2, size=w2.shape)
    return ModelParams(vector, (input_dim, hidden_dim, n_classes))


_LAYERS = ("layer1_weights", "layer1_bias", "layer2_weights", "layer2_bias")


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


def _non_finite_layer(vector: np.ndarray, dims: Dims) -> str | None:
    """The name of the first layer of a flat vector that holds a
    non-finite entry, or None if every entry is finite."""
    if np.isfinite(vector).all():
        return None
    return next(name for name, layer in zip(_LAYERS, _layer_views(vector, dims))
                if not np.isfinite(layer).all())


def working_set_bytes(dims: Dims, batch_size: int) -> int:
    """Bytes :func:`train_cohort` works in per client of a cohort whose
    clients each use one encoding, beyond the rows themselves.

    Five rows of ``P`` floats (parameters, gradient, both Adam moments and
    the Adam step) and a ``P``-byte finiteness mask; the client's row of
    the full-width encoding table; and one minibatch of ``batch_size``
    rows with what a step computes from it: the assembled inputs and
    their raw part, four hidden-layer arrays, the logits, the ReLU mask
    and four index vectors.
    """
    input_dim, hidden_dim, n_classes = dims
    n_params = flat_length(dims)
    words = 5 * n_params + input_dim + batch_size * (2 * input_dim + 4 * hidden_dim + n_classes + 4)
    return 8 * words + n_params + batch_size * hidden_dim


# Upper bound on the memory one call of the training kernel works in
# (working_set_bytes per client of a cohort), beyond its rows, its
# encoding table and its (K, P) result. Training rows are held raw, so this bounds training's
# memory beyond them whatever the number of clients; a cohort this large
# already shares the per-step numpy overhead among enough clients that
# larger ones gain little.
COHORT_BYTES = 4 << 20


def cohort_slices(n_clients: int, dims: Dims, batch_size: int) -> list[slice]:
    """Consecutive clients cut into cohorts whose kernel working set fits
    :data:`COHORT_BYTES`; a client that alone exceeds it is a cohort of one."""
    size = max(1, COHORT_BYTES // working_set_bytes(dims, batch_size))
    return [slice(lo, min(lo + size, n_clients)) for lo in range(0, n_clients, size)]


class _Scratch(NamedTuple):
    """The working buffers of one kernel call, sized for its first cohort
    (the most clients, the most rows, the widest batch). Every cohort
    works in their start."""

    params: np.ndarray    # (clients, P), like the gradient, Adam moments and step
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step: np.ndarray
    finite: np.ndarray    # (clients, P) bool
    batch: np.ndarray     # one minibatch per client, flat, viewed per run
    pre: np.ndarray
    hidden: np.ndarray
    probs: np.ndarray
    order: np.ndarray     # each client's epoch order, as row numbers of the call


def _scratch(clients: int, rows: int, width: int, dims: Dims) -> _Scratch:
    i_dim, h_dim, c_dim = dims
    shape = (clients, flat_length(dims))
    return _Scratch(
        *(np.empty(shape) for _ in range(5)), np.empty(shape, dtype=bool),
        np.empty(clients * width * i_dim), np.empty(clients * width * h_dim),
        np.empty(clients * width * h_dim), np.empty(clients * width * c_dim),
        np.empty(rows, dtype=np.int64))


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
    rows: Sequence[np.ndarray],
    config: TrainingConfig,
    seeds: Sequence[int],
) -> tuple[np.ndarray, dict[int, str]]:
    """Train K clients from ``init``: the training kernel.

    Client ``k`` trains on the rows numbered ``rows[k]`` (a 1-D integer
    array, at least one row) of the raw feature matrix ``raw`` ``(N, F)``
    and of ``labels`` ``(N,)``. Clients may come in any order, and their
    row sets may overlap or leave gaps. Row ``i``'s model input is
    ``[enc[codes[i]], raw[i]]``: a row of the ``(C, E)`` encoding table
    (``E`` is 0 with encoding off) followed by the raw features. Every
    client shares ``config`` and draws its minibatch order at the start of
    each of its epochs from a generator seeded with ``seeds[k]``, as a
    permutation of ``rows[k]``.

    The kernel orders the clients by row count, most first (ties keep the
    order given), and trains them in consecutive cohorts
    (:func:`cohort_slices`) whose working set fits :data:`COHORT_BYTES`,
    one after another in one set of scratch buffers allocated per call.
    Within a cohort, training is step-aligned: iteration ``g`` takes
    every client's own ``g``-th step, so every client still training has
    taken the same number of Adam steps, and those clients, a prefix of
    the cohort, take one in-place Adam update over their rows. Forward
    and backward run once per run of neighbouring clients whose step has
    the same batch size (a full ``batch_size``, or an epoch's ragged last
    batch), as 3-D matmuls that make the same BLAS call per client as
    training it alone.

    Client ``k``'s parameters are row ``k`` of the returned ``(K, P)``
    buffer, in the model-file order, bit-identical to the reference
    chain's (forward, loss gradient, backward, Adam step) on its
    assembled rows alone. Every call allocates the buffer afresh. The
    returned dict maps the index ``k`` of each client whose parameters
    went non-finite to the message of its first such step; that client's
    row is garbage.
    """
    raw = np.asarray(raw, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.intp)
    enc = np.asarray(enc, dtype=np.float64)
    rows = [np.asarray(r, dtype=np.intp) for r in rows]
    k = len(rows)
    if (raw.ndim != 2 or enc.ndim != 2 or enc.shape[1] + raw.shape[1] != init.input_dim
            or labels.shape != raw.shape[:1] or codes.shape != raw.shape[:1]
            or k == 0 or len(seeds) != k or any(r.ndim != 1 for r in rows)):
        raise ShapeError(f"cohort raw rows {raw.shape}, labels {labels.shape}, codes "
                         f"{codes.shape}, encodings {enc.shape}, {k} row sets and "
                         f"{len(seeds)} seeds disagree for input_dim {init.input_dim}")
    counts = np.array([r.size for r in rows])
    if counts.min() < 1:
        raise ShapeError(f"client {int(np.argmin(counts))} has no rows")
    # Only the rows some client trains on are checked.
    used = np.zeros(len(raw), dtype=bool)
    for r in rows:
        if r.min() < 0 or r.max() >= len(raw):
            raise ShapeError(f"row numbers must lie in [0, {len(raw)})")
        used[r] = True
    if labels.min(where=used, initial=0) < 0 or labels.max(where=used, initial=0) >= init.n_classes:
        raise InvalidLabelError(f"labels must lie in [0, {init.n_classes})")
    last_code = int(codes.max(where=used, initial=0))
    if codes.min(where=used, initial=0) < 0 or last_code >= len(enc):
        raise ShapeError(f"row codes must lie in [0, {len(enc)})")
    # The encodings up to the last one the rows use, as full input rows
    # whose raw columns each batch overwrites: one take then assembles a
    # batch.
    table = np.zeros((last_code + 1, init.input_dim))
    table[:, :enc.shape[1]] = enc[:last_code + 1]

    # The schedule needs row counts that do not increase along a cohort.
    order = np.argsort(-counts, kind="stable")
    parts = cohort_slices(k, init.dims, config.batch_size)
    first = order[parts[0]]
    scratch = _scratch(first.size, int(counts[first].sum()),
                       min(config.batch_size, int(counts[first[0]])), init.dims)
    params = np.empty((k, init.n_params))
    diverged: dict[int, str] = {}
    # Overflow is reported once, as the client's divergence message, not
    # as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for part in parts:
            members = order[part]
            failed = _train_part(init, raw, labels, codes, table, [rows[i] for i in members],
                                 config, [seeds[i] for i in members], scratch)
            params[members] = scratch.params[:members.size]
            diverged.update((int(members[i]), message) for i, message in failed.items())
    return params, diverged


def _train_part(
    init: ModelParams,
    raw: np.ndarray,
    labels: np.ndarray,
    codes: np.ndarray,
    table: np.ndarray,
    rows: Sequence[np.ndarray],
    config: TrainingConfig,
    seeds: Sequence[int],
    scratch: _Scratch,
) -> dict[int, str]:
    """Train one cohort of :func:`train_cohort` from ``init`` in the start
    of the call's scratch buffers, leaving client ``i``'s parameters in
    ``scratch.params[i]``.

    The cohort's clients train on the rows ``rows[i]`` of the call, whose
    counts do not increase; row ``j``'s input is ``table[codes[j]]`` with
    its raw columns replaced by ``raw[j]``. Returns the divergence
    messages by client number within the cohort.
    """
    k = len(rows)
    counts = np.array([r.size for r in rows])
    i_dim, h_dim, c_dim = init.dims
    e_dim = i_dim - raw.shape[1]
    schedule = _schedule(counts, config.batch_size, config.epochs)
    bounds = [0, *np.cumsum(counts).tolist()]
    # The six (clients, P) buffers, cut to the cohort's clients.
    params, grad, m, v, step, finite = (buf[:k] for buf in scratch[:6])
    params[:] = init.vector
    m.fill(0.0)
    v.fill(0.0)
    order = scratch.order
    clients = np.arange(k)[:, None]
    positions = np.arange(min(config.batch_size, int(counts[0])))
    w1, b1, w2, b2 = _layer_views(params, init.dims)
    g_w1, g_b1, g_w2, g_b2 = _layer_views(grad, init.dims)

    lr, beta1, beta2, eps = (config.learning_rate, config.adam_beta1,
                             config.adam_beta2, config.adam_epsilon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    diverged: dict[int, str] = {}
    for t, (new, group) in enumerate(schedule, start=1):
        for c in new:
            np.take(rows[c], rngs[c].permutation(rows[c].size), out=order[bounds[c]:bounds[c + 1]])
        for lo, hi, n, starts in group:
            g = hi - lo
            idx = order[starts[:, None] + positions[:n]]
            # The rows' inputs [enc[codes[idx]], raw[idx]], assembled as
            # one contiguous (clients, rows, input_dim) batch.
            batch = np.take(table, codes[idx], axis=0, mode="clip", out=_view(scratch.batch, g, n, i_dim))
            batch[..., e_dim:] = raw[idx]
            # Forward, keeping the pre-activation for backward.
            pre_hidden = np.matmul(batch, w1[lo:hi].transpose(0, 2, 1),
                                   out=_view(scratch.pre, g, n, h_dim))
            pre_hidden += b1[lo:hi, None, :]
            hidden = np.maximum(pre_hidden, 0.0, out=_view(scratch.hidden, g, n, h_dim))
            probs = np.matmul(hidden, w2[lo:hi].transpose(0, 2, 1), out=_view(scratch.probs, g, n, c_dim))
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
        # in the reference Adam step's order: each of them has now taken t
        # steps. Once v is updated the gradient rows are free (the next
        # backward rewrites them), so they hold the denominator.
        live = group[-1][1]
        x, dx, m1, v1, s = (buf[:live] for buf in (params, grad, m, v, step))
        m1 *= beta1
        np.multiply(1.0 - beta1, dx, out=s)
        m1 += s
        v1 *= beta2
        np.multiply(1.0 - beta2, dx, out=s)
        s *= dx
        v1 += s
        np.divide(m1, 1.0 - beta1 ** t, out=s)
        s *= lr
        np.divide(v1, 1.0 - beta2 ** t, out=dx)
        np.sqrt(dx, out=dx)
        dx += eps
        s /= dx
        x -= s
        if not np.isfinite(x, out=finite[:live]).all():
            for i in np.flatnonzero(~finite[:live].all(axis=1)).tolist():
                if i not in diverged:
                    diverged[i] = _divergence_message(params[i], init.dims)
    return diverged


def _divergence_message(vector: np.ndarray, dims: Dims) -> str:
    return f"training diverged ({_non_finite_layer(vector, dims)} contains non-finite entries)"


def hidden_rows(params: ModelParams, raw: np.ndarray, codes: np.ndarray, enc: np.ndarray) -> np.ndarray:
    """The hidden layer, ``relu(x W1' + b1)``, of rows in the training
    kernel's format: row ``i``'s input is ``[enc[codes[i]], raw[i]]``.

    The first layer is factored, so no row is ever assembled: the raw
    columns are one matmul over the rows, and the encoding columns one
    matmul over the table rows ``first:last + 1`` that the codes span,
    gathered per row. With ``E = 0`` this is exactly a dense forward
    pass's first layer; with ``E > 0`` sums are grouped differently from
    a dense pass over the assembled rows, so they may differ in the last
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
    :func:`hidden_rows`); ties resolve to the lowest index. A non-finite
    logit (the forward pass overflowed) raises :class:`DivergenceError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = hidden_rows(params, raw, codes, enc) @ params.layer2_weights.T + params.layer2_bias
    if not np.isfinite(logits).all():
        raise DivergenceError("scoring diverged (non-finite logits)")
    return np.argmax(logits, axis=1)
