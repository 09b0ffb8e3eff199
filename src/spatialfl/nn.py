"""Dense two-layer classifier trained with softmax cross-entropy and Adam.

Everything here is plain float64 numpy. A model is one flat parameter
vector (:class:`ModelParams`) whose layers are views of it. Its order
(layer-1 weights row-major, layer-1 bias, layer-2 weights row-major,
layer-2 bias) is a contract: the vectors the kernel's results rebuild,
the aggregation algebra and the binary model file all use exactly this
order, so a model moves between them without conversion.

All training runs through one kernel in two calls. :func:`plan_cohort`
checks and lays out the training of any number of clients that share a
config, each with its own set of row numbers (any count, in any order,
overlapping or not). Rows stay raw, each with a code into the run's
encodings, held as their structure
(:class:`~spatialfl.spatial.Encodings`: coordinates and one label
column per hierarchy level), and a client trains only its active input
columns: every raw column, the coordinates and its codes' label columns.
Every other first-layer weight multiplies exact zeros, so it gets a zero
gradient and Adam never moves it. The plan groups the clients by active
width, orders each group by row count, most first, cuts it into
consecutive cohorts whose working set at the group's compact dims fits
:data:`COHORT_BYTES`, and builds per cohort the places of its members'
compact parameters in the model vector, a compact encoding table built
from the structure, and the step schedule, whose runs carry their rows'
positions; the kernel assembles a minibatch's compact inputs only when
it trains on them.
:func:`train_cohort` then trains a plan from an ``init`` with one
minibatch seed per client, as often as a caller needs (a run's rounds
share one plan), and returns the clients' models compactly, as
:class:`ClientModels`: per cohort its members' trained ``(k, P_w)``
values and the plan's index of where they sit in the model vector, over
``init``, which every client keeps everywhere else. That type alone
knows the layout; it rebuilds one client's dense vector at a time, so no
call holds a dense vector per client. Training runs the cohorts one
after another in one set of scratch buffers allocated per call, where
Adam updates each cohort's compact parameters in place, and builds the
views a run of clients steps in once per call.
Within a cohort training is step-aligned: iteration ``g`` takes every
client's own ``g``-th step, grouping neighbouring clients whose batches
have the same size. A plan is only read by training. Its contract is
bit-exactness: every client's parameters equal, bit for bit, those of a
per-step reference chain (forward, softmax cross-entropy,
backpropagation, Adam; ``tests/reference.py``) run for that client alone
on its encoded rows cut down to its active columns, from ``init`` cut
down to them, which the tests check on random ragged cohorts. In exact
arithmetic that is the dense model's training; in floating point only
the forward pass's dot products are shorter, so the parameters differ
from a dense chain's in the last bits.
A step's arrays are small (a few thousand entries), so numpy's per-call
cost, not arithmetic, sets its time. The softmax's maximum and sum over
a short class axis therefore run as elementwise ops over the class
slices, and the bias gradients' sums over a batch's rows as one
reduction over a rows-first copy, both cheaper than numpy's reduction
over that axis. Each keeps the order in which numpy reduces one client's
rows in the reference, so the reference needs no change. The ReLU mask
is an AND on the gradient's bits, which gives np.where's bits in place.

All scoring runs through one scorer, :func:`predict_rows`, which reads
rows in the kernel's format and never assembles them: its first layer is
factored into a matmul over the raw columns plus, per row, its code's
encoding term, computed once per call for the encodings the codes span
as a matmul over their coordinates plus, level by level, the ``W1``
column of each one's label. With no encoding (``E = 0``) it makes the
same float operations as a dense forward pass. With an encoding, the
factored sums round differently from a dense pass over the assembled
rows, so logits may differ in the last bits; the golden digests pin the
predictions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DivergenceError, SpatialFLError
from .spatial import Encodings

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
            raise SpatialFLError(f"dims must be three integers >= 1, got {self.dims}")
        vector = np.asarray(self.vector, dtype=np.float64)
        if vector.shape != (flat_length(self.dims),):
            raise SpatialFLError(f"expected flat vector of length {flat_length(self.dims)}, "
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
        raise SpatialFLError(f"dims must be three integers >= 1, got {dims}")
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
    """The layers of a flat vector, or of every row of a ``(clients, P)``
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
    """Bytes :func:`train_cohort` works in per client of a cohort at
    ``dims`` (its compact dims, see :func:`plan_cohort`) whose clients
    each use one encoding, beyond the rows themselves.

    Five rows of ``P`` floats (parameters, gradient, both Adam moments and
    the Adam step) and a ``P``-byte finiteness mask; the client's row of
    its cohort's encoding table; and one minibatch of ``batch_size`` rows
    with what a step computes from it: the assembled inputs and, while
    they are assembled, their raw part; five hidden-layer arrays (the
    pre-activation, the activation, the gradient, a spare one that holds
    the 64-bit ReLU mask and then the gradient's rows-first copy for its
    bias sum, and numpy's buffer for adding the bias across a batch's
    rows, as large as the pre-activation up to 64 KiB); the logits and one
    more array as wide (numpy's buffer for adding their bias, their class
    maximum or sum, or their rows-first copy for the bias sum, one at a
    time); the one-byte ReLU mask; and four index vectors (the rows'
    positions, their numbers, their table rows or flat label index, and
    the label base).
    """
    input_dim, hidden_dim, n_classes = dims
    n_params = flat_length(dims)
    words = 5 * n_params + input_dim + batch_size * (2 * input_dim + 5 * hidden_dim + 2 * n_classes + 4)
    return 8 * words + n_params + batch_size * hidden_dim


# Upper bound on the memory one training call works in (working_set_bytes
# per client of a cohort, at the cohort's compact dims), beyond its rows,
# its plan and its compact result. Training rows are held raw, so this
# bounds training's memory beyond them whatever the number of clients; a
# cohort this large already shares the per-step numpy overhead among
# enough clients that larger ones gain little. What it cannot bound grows
# with the rows, the steps and the active parameters, not with the
# clients of a cohort: the plan's compact encoding tables, its parameter
# indices (8 bytes per active parameter of every client), its row
# numbers, their table rows and their position arrays (8 bytes per row
# and epoch), the call's epoch orders and their identity (16 bytes per
# row of a cohort), and the Python objects of the plan's schedule, of a
# cohort's minibatch generators and of its views, about a KB per client
# and a few KB per run of clients that take a step together.
COHORT_BYTES = 4 << 20


def cohort_slices(n_clients: int, dims: Dims, batch_size: int) -> list[slice]:
    """Consecutive clients cut into cohorts whose kernel working set fits
    :data:`COHORT_BYTES`; a client that alone exceeds it is a cohort of one."""
    size = max(1, COHORT_BYTES // working_set_bytes(dims, batch_size))
    return [slice(lo, min(lo + size, n_clients)) for lo in range(0, n_clients, size)]


class _Scratch(NamedTuple):
    """The working buffers of one training call, each sized for the
    plan's cohort that needs most of it. Every cohort carves its buffers
    from their start (:func:`_carve`), so that a step allocates no array
    as large as its minibatch's hidden layer."""

    floats: np.ndarray    # parameters, gradient, Adam moments and step, then the batch arrays
    finite: np.ndarray    # bool, one entry per compact parameter of the cohort
    on: np.ndarray        # the ReLU mask's bytes: one per hidden unit of a minibatch row
    order: np.ndarray     # each client's epoch order, as positions of its part's rows
    positions: np.ndarray  # arange: the positions in order


def _sizes(part: "_Part", batch_size: int) -> tuple[int, list[int]]:
    """A cohort's compact parameter count per client and the floats of
    its buffers: five ``(clients, P_w)`` rows, then one minibatch per
    client of its inputs, pre-activations, activations, logits, hidden
    gradient and one spare array as wide (the int64 ReLU mask, then the
    gradient's rows-first copy for its bias sum)."""
    k, (i_dim, h_dim, c_dim) = part.members.size, part.dims
    n_params, width = flat_length(part.dims), k * min(batch_size, part.bounds[1])
    return n_params, [k * n_params] * 5 + [width * w for w in (i_dim, h_dim, h_dim, c_dim, h_dim, h_dim)]


def _scratch(parts: Sequence["_Part"], batch_size: int) -> _Scratch:
    sizes = [_sizes(part, batch_size)[1] for part in parts]
    rows = max(part.bounds[-1] for part in parts)
    # The finiteness mask is as long as a (clients, P_w) row, the ReLU
    # mask as a minibatch's pre-activations.
    return _Scratch(np.empty(max(map(sum, sizes))), np.empty(max(size[0] for size in sizes), dtype=bool),
                    np.empty(max(size[6] for size in sizes), dtype=bool), np.empty(rows, dtype=np.intp),
                    np.arange(rows))


def _carve(scratch: _Scratch, part: "_Part", batch_size: int) -> list[np.ndarray]:
    """A cohort's five ``(clients, P_w)`` buffers, then its six flat
    minibatch buffers, as consecutive views of ``scratch.floats``."""
    n_params, sizes = _sizes(part, batch_size)
    bounds = np.cumsum([0, *sizes]).tolist()
    views = [scratch.floats[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return [view.reshape(-1, n_params) for view in views[:5]] + views[5:]


def _view(buffer: np.ndarray, clients: int, rows: int, cols: int) -> np.ndarray:
    """The start of a flat scratch buffer, shaped ``(clients, rows, cols)``."""
    return buffer[:clients * rows * cols].reshape(clients, rows, cols)


def _schedule(counts: np.ndarray, batch_size: int, epochs: int) -> list:
    """The step-aligned schedule of a cohort whose row counts do not increase.

    Iteration ``g`` takes the ``g``-th step of every client that still has
    one; those clients are a prefix of the cohort. For each iteration the
    result holds the clients whose step starts an epoch, and the runs
    ``(lo, hi, rows, positions)`` of neighbouring clients whose batch holds
    ``rows`` rows, with ``positions[i]`` the positions of client
    ``lo + i``'s batch in the cohort's epoch orders. Its size grows with
    the number of client steps, not with clients times iterations.
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
    within = np.arange(batch_size)
    schedule: list = [([], []) for _ in range(active.size)]
    its, clients, sizes = g.tolist(), k.tolist(), size.tolist()
    for i in np.flatnonzero(step == 0).tolist():
        schedule[its[i]][0].append(clients[i])
    cuts = (np.flatnonzero((g[1:] != g[:-1]) | (size[1:] != size[:-1])) + 1).tolist()
    for i, j in zip([0, *cuts], [*cuts, g.size]):
        if i < j:
            schedule[its[i]][1].append((clients[i], clients[j - 1] + 1, sizes[i],
                                        starts[i:j, None] + within[:sizes[i]]))
    return schedule


class _Part(NamedTuple):
    """One cohort of a :class:`CohortPlan`: clients that train at the same
    compact dims."""

    members: np.ndarray   # the clients' indices in the call, most rows first
    dims: Dims            # (active input columns, hidden, classes) of every member
    index: np.ndarray     # (members, P_w): where each compact parameter sits in the model vector
    table: np.ndarray     # compact encoding rows as input rows, whose raw columns each batch overwrites
    rows: np.ndarray      # the members' row numbers, client after client
    slots: np.ndarray     # the table row of each position of rows
    bounds: list[int]     # member i's rows are rows[bounds[i]:bounds[i + 1]]
    schedule: list        # its step-aligned schedule (_schedule)


class CohortPlan(NamedTuple):
    """A training call's inputs, checked and laid out once by
    :func:`plan_cohort` for any number of :func:`train_cohort` calls,
    which only read it.

    ``raw`` and ``labels`` are the caller's arrays (copied only where
    their dtype differs), and ``counts`` every client's row count in the
    order given. ``parts`` are the cohorts, in training order, each with
    its own compact encoding table.
    """

    raw: np.ndarray
    labels: np.ndarray
    dims: Dims
    config: TrainingConfig
    counts: tuple[int, ...]
    parts: tuple[_Part, ...]


def plan_cohort(
    raw: np.ndarray,
    labels: np.ndarray,
    codes: np.ndarray,
    enc: Encodings,
    rows: Sequence[np.ndarray],
    dims: Dims,
    config: TrainingConfig,
) -> CohortPlan:
    """Check and lay out the training of K clients at ``dims`` under
    ``config``, for :func:`train_cohort`.

    Client ``k`` trains on the rows numbered ``rows[k]`` (a 1-D integer
    array, at least one row) of the raw feature matrix ``raw`` ``(N, F)``
    and of ``labels`` ``(N,)``. Clients may come in any order, and their
    row sets may overlap or leave gaps. Row ``i``'s model input is
    encoding ``codes[i]`` of ``enc`` (:class:`~spatialfl.spatial.Encodings`,
    ``E`` columns wide, 0 with encoding off) followed by the raw features.

    A client's active input columns are every raw column and, of each
    code its rows use, the coordinates and the label columns. Every other
    first-layer weight multiplies only exact zeros in its inputs, so its
    gradient is zero and Adam never moves it: the client trains a compact
    model over its active columns from ``init`` cut down to them, and its
    other parameters stay ``init``'s.

    The plan groups the clients by active width, then orders each group
    by row count, most first (ties keep the order given), and cuts it into
    consecutive cohorts (:func:`cohort_slices`, at the group's compact
    dims) whose working set fits :data:`COHORT_BYTES`. Per cohort it
    holds its members' compact parameters' places in the model vector,
    its compact encoding table, built from the encodings' structure (a
    cohort whose members use every column reads one table of full input
    rows, shared by every such cohort), with the table row of each of its
    rows, and its step schedule. Shapes, row numbers and codes that
    disagree, or a label of a row some client trains on outside
    ``[0, n_classes)``, raise :class:`SpatialFLError`.
    """
    if len(dims) != 3 or min(dims) < 1:
        raise SpatialFLError(f"dims must be three integers >= 1, got {dims}")
    dims = tuple(dims)
    input_dim, hidden_dim, n_classes = dims
    raw = np.asarray(raw, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.intp)
    rows = [np.asarray(r, dtype=np.intp) for r in rows]
    k, e_dim, head = len(rows), enc.width, enc.head
    if (raw.ndim != 2 or e_dim + raw.shape[1] != input_dim
            or labels.shape != raw.shape[:1] or codes.shape != raw.shape[:1]
            or k == 0 or any(r.ndim != 1 for r in rows)):
        raise SpatialFLError(f"cohort raw rows {raw.shape}, labels {labels.shape}, codes "
                             f"{codes.shape}, encodings of width {e_dim} and {k} row sets "
                             f"disagree for input_dim {input_dim}")
    counts = np.array([r.size for r in rows])
    if counts.min() < 1:
        raise SpatialFLError(f"client {int(np.argmin(counts))} has no rows")
    # Only the rows some client trains on are checked.
    every = np.concatenate(rows)
    if every.min() < 0 or every.max() >= len(raw):
        raise SpatialFLError(f"row numbers must lie in [0, {len(raw)})")
    if labels[every].min() < 0 or labels[every].max() >= n_classes:
        raise SpatialFLError(f"labels must lie in [0, {n_classes})")
    every_code = codes[every]
    if every_code.min() < 0 or every_code.max() >= len(enc):
        raise SpatialFLError(f"row codes must lie in [0, {len(enc)})")

    # Each client's active encoding columns: the coordinates and its
    # code's label columns, or for a client whose rows use several codes,
    # the union of theirs. (Masks, not np.unique, which imports numpy.ma:
    # a lasting MiB of memory.)
    starts = np.cumsum(counts) - counts
    first = np.minimum.reduceat(every_code, starts)
    pooled = np.flatnonzero(first != np.maximum.reduceat(every_code, starts)).tolist()
    one_width = head + enc.labels.shape[1]
    widths = np.full(k, one_width)
    union = {}  # a pooled client's codes, ascending, and its columns
    for i in pooled:
        used = np.zeros(len(enc), dtype=bool)
        used[every_code[starts[i]:starts[i] + counts[i]]] = True
        active = np.zeros(e_dim, dtype=bool)
        active[:head] = True
        active[enc.labels[used]] = True
        union[i] = np.flatnonzero(used), np.flatnonzero(active)
        widths[i] = union[i][1].size
    # Row-long and no longer needed: freed before the cohorts' own arrays.
    del every, every_code
    one_code = np.ones(k, dtype=bool)
    one_code[pooled] = False

    # Grouped by width, then ordered by row count, most first: the
    # schedule needs row counts that do not increase along a cohort.
    order = np.argsort(-counts, kind="stable")
    order = order[np.argsort(widths[order], kind="stable")]
    cuts = [0, *(np.flatnonzero(np.diff(widths[order])) + 1).tolist(), k]
    shared = []  # the table of full input rows, once a cohort needs it
    parts = []
    for lo, hi in zip(cuts, cuts[1:]):
        width = int(widths[order[lo]])
        part_dims = (width + raw.shape[1], hidden_dim, n_classes)
        for part in cohort_slices(hi - lo, part_dims, config.batch_size):
            members = order[lo:hi][part]
            part_rows = np.concatenate([rows[i] for i in members])
            bounds = [0, *np.cumsum(counts[members]).tolist()]
            cols = np.empty((members.size, width), dtype=np.intp)
            single = one_code[members]
            if width == one_width:
                cols[single, :head] = np.arange(head)
                cols[single, head:] = enc.labels[first[members[single]]]
            for j in np.flatnonzero(~single).tolist():
                cols[j] = union[int(members[j])][1]
            if width == e_dim:
                # Every column is active: the compact rows are the full rows.
                if not shared:
                    shared.append(np.zeros((len(enc), input_dim)))
                    shared[0][:, :head] = enc.coords
                    np.put_along_axis(shared[0], enc.labels, 1.0, axis=1)
                table, slots = shared[0], codes[part_rows]
            else:
                table, slots = _compact_table(enc, codes, first, union, members, single, cols, part_rows,
                                              bounds, part_dims[0])
            parts.append(_Part(members, part_dims, _compact_index(cols, e_dim, dims), table, part_rows, slots,
                               bounds, _schedule(counts[members], config.batch_size, config.epochs)))
    return CohortPlan(raw, labels, dims, config, tuple(counts.tolist()), tuple(parts))


def _compact_index(cols: np.ndarray, e_dim: int, dims: Dims) -> np.ndarray:
    """Where each client's compact parameters sit in the model vector,
    ``(clients, P_w)``: its first-layer weights at its active encoding
    columns ``cols`` and at every raw column (those from ``e_dim`` on),
    row by row, then every bias and second-layer weight."""
    input_dim, hidden_dim, _ = dims
    k = cols.shape[0]
    raw_cols = np.broadcast_to(np.arange(e_dim, input_dim), (k, input_dim - e_dim))
    w1 = np.arange(hidden_dim)[:, None] * input_dim + np.concatenate([cols, raw_cols], axis=1)[:, None, :]
    tail = np.arange(hidden_dim * input_dim, flat_length(dims))
    return np.concatenate([w1.reshape(k, -1), np.broadcast_to(tail, (k, tail.size))], axis=1)


def _compact_table(enc: Encodings, codes: np.ndarray, first: np.ndarray, union: dict,
                   members: np.ndarray, single: np.ndarray, cols: np.ndarray, rows: np.ndarray,
                   bounds: list[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """A cohort's compact encoding table, as input rows ``width`` wide
    whose raw columns are zero, and the table row of each position of its
    ``rows``: one table row per member of one code (``single``), its
    coordinates and then 1.0 per level, then one per code of each member
    whose rows use several (``union``), its coordinates and 1.0 at its
    label columns among the member's ``cols``."""
    head, n = enc.head, int(np.count_nonzero(single))
    pooled = np.flatnonzero(~single).tolist()
    table = np.zeros((n + sum(union[int(members[j])][0].size for j in pooled), width))
    table[:n, :head] = enc.coords[first[members[single]]]
    table[:n, head:cols.shape[1]] = 1.0
    slot = np.zeros(members.size, dtype=np.intp)
    slot[single] = np.arange(n)
    slots = np.repeat(slot, np.diff(bounds))
    for j in pooled:
        used = union[int(members[j])][0]
        rank = np.zeros(len(enc), dtype=np.intp)
        rank[used] = np.arange(n, n + used.size)
        slots[bounds[j]:bounds[j + 1]] = rank[codes[rows[bounds[j]:bounds[j + 1]]]]
        block = table[n:n + used.size]
        block[:, :head] = enc.coords[used]
        np.put_along_axis(block, np.searchsorted(cols[j], enc.labels[used]), 1.0, axis=1)
        n += used.size
    return table, slots


def train_cohort(
    plan: CohortPlan,
    init: ModelParams,
    seeds: Sequence[int],
) -> tuple["ClientModels", dict[int, str]]:
    """Train the K clients of ``plan`` (:func:`plan_cohort`) from
    ``init``: the training kernel.

    Client ``k`` draws its minibatch order at the start of each of its
    epochs from a generator seeded with ``seeds[k]``, as a permutation of
    its rows. ``init`` dims or a seed count that disagree with the plan
    raise :class:`SpatialFLError`. The plan's cohorts train one after another
    in one set of scratch buffers allocated per call, each member from
    ``init`` cut down to its active columns. Within a cohort, training is
    step-aligned: iteration ``g`` takes every client's own ``g``-th step,
    so every client still training has taken the same number of Adam
    steps, and those clients, a prefix of the cohort, take one in-place
    Adam update over their compact parameters. Forward and backward run
    once per run of neighbouring clients whose step has the same batch
    size (a full ``batch_size``, or an epoch's ragged last batch), as 3-D
    matmuls that make the same BLAS call per client as training it alone.

    Returns the clients' models as :class:`ClientModels`: each cohort's
    trained ``(k, P_w)`` values, freshly allocated per call, with the
    plan's index of them, over ``init``. Client ``k``'s model, in the
    model-file order, is at its active parameters bit-identical to the
    reference chain's (forward, loss gradient, backward, Adam step) on its
    assembled rows cut down to its active columns, alone, and everywhere
    else ``init``'s. The returned dict maps the index ``k`` of each client
    whose parameters went non-finite to the message of its first such
    step, which names the first non-finite layer; that client's model is
    garbage.
    """
    if tuple(init.dims) != plan.dims or len(seeds) != len(plan.counts):
        raise SpatialFLError(f"init dims {init.dims} and {len(seeds)} seeds disagree with a plan "
                             f"for dims {plan.dims} and {len(plan.counts)} clients")
    # The results outlive the call, so they are allocated before the
    # scratch: freeing the scratch then leaves no hole below them.
    sizes = [part.members.size * flat_length(part.dims) for part in plan.parts]
    results = np.empty(sum(sizes))
    bounds = np.cumsum([0, *sizes]).tolist()
    values = [results[lo:hi].reshape(part.members.size, -1)
              for part, lo, hi in zip(plan.parts, bounds, bounds[1:])]
    scratch = _scratch(plan.parts, plan.config.batch_size)
    diverged: dict[int, str] = {}
    # Overflow is reported once, as the client's divergence message, not
    # as numpy warnings along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for part, out in zip(plan.parts, values):
            members = part.members
            failed = _train_part(plan, part, init, [seeds[i] for i in members], scratch, out)
            diverged.update((int(members[i]), message) for i, message in failed.items())
    return ClientModels(init, [part.members for part in plan.parts], [part.index for part in plan.parts],
                        values), diverged


class ClientModels:
    """The models of the K clients of one :func:`train_cohort` call, held
    compactly: the one place that knows their layout.

    A client moves only its active parameters, so its model is the
    broadcast it started from, :attr:`broadcast`, everywhere else. Per
    cohort of the plan this holds its members' trained ``(k, P_w)``
    values (:attr:`values`) and the plan's ``(k, P_w)`` index of where
    they sit in the model vector (:attr:`index`), and it rebuilds one
    client's dense vector at a time, afresh: as a checked model
    (``models[k]``, also by iteration), a vector (:meth:`vector`) or
    weighted (:meth:`scaled`). Clients are numbered as the call numbered
    them. Nothing writes the arrays it holds.
    """

    def __init__(self, broadcast: ModelParams, members: Sequence[np.ndarray], index: Sequence[np.ndarray],
                 values: Sequence[np.ndarray]):
        self.broadcast = broadcast
        self.index = tuple(index)
        self.values = tuple(values)
        # Client k's rows of its cohort's index and values.
        self._rows: list = [None] * sum(m.size for m in members)
        for m, where, trained in zip(members, self.index, self.values):
            for row, k in enumerate(m.tolist()):
                self._rows[k] = where[row], trained[row]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, k: int) -> ModelParams:
        """Client ``k``'s model, built afresh and checked: a non-finite
        entry raises ValueError as :class:`ModelParams` does."""
        return ModelParams(self.vector(k), self.broadcast.dims)

    def vector(self, k: int) -> np.ndarray:
        """Client ``k``'s dense vector, as a new vector."""
        index, values = self._rows[k]
        out = self.broadcast.vector.copy()
        out[index] = values
        return out

    def scaled(self, k: int, weight: float) -> np.ndarray:
        """``weight`` times client ``k``'s dense vector, as a new vector:
        ``weight * broadcast`` with ``weight * values`` written at the
        client's index, which equals the product of the rebuilt vector
        element for element."""
        index, values = self._rows[k]
        out = weight * self.broadcast.vector
        out[index] = weight * values
        return out

    def select(self, clients: Sequence[int]) -> "ClientModels":
        """The models of ``clients``, numbered in the order given, sharing
        this object's arrays."""
        picked = copy.copy(self)
        picked._rows = [self._rows[k] for k in clients]
        return picked


class _RunViews(NamedTuple):
    """What one step of a run of clients ``lo:hi`` with ``n``-row batches
    works in: views of the scratch buffers and of the clients' layers."""

    batch: np.ndarray       # (clients, n, input_dim)
    pre_hidden: np.ndarray  # (clients, n, hidden)
    hidden: np.ndarray
    probs: np.ndarray       # (clients, n, classes)
    probs_t: np.ndarray
    w1_t: np.ndarray
    b1: np.ndarray          # broadcast over the rows
    w2_t: np.ndarray
    w2: np.ndarray
    b2: np.ndarray          # broadcast over the rows
    g_w1: np.ndarray
    g_b1: np.ndarray
    g_w2: np.ndarray
    g_b2: np.ndarray
    label_base: np.ndarray  # (clients, n): where each row's logits start in the flat logits buffer
    grad_hidden: np.ndarray  # (clients, n, hidden)
    grad_hidden_t: np.ndarray
    grad_bits: np.ndarray   # grad_hidden's bits, as int64
    on: np.ndarray          # (clients, n, hidden) bool
    on_bytes: np.ndarray    # on, as int8
    mask: np.ndarray        # (clients, n, hidden) int64, in the spare buffer
    grad_rows: np.ndarray   # (n, clients, hidden), in the spare buffer


def _run_views(buffers: list, on: np.ndarray, layers: tuple, grads: tuple, label_base: np.ndarray,
               dims: Dims, lo: int, hi: int, n: int) -> _RunViews:
    i_dim, h_dim, c_dim = dims
    g = hi - lo
    w1, b1, w2, b2 = (layer[lo:hi] for layer in layers)
    batch, pre, hidden, probs, grad_hidden, spare = buffers
    probs, grad_hidden = _view(probs, g, n, c_dim), _view(grad_hidden, g, n, h_dim)
    return _RunViews(
        _view(batch, g, n, i_dim), _view(pre, g, n, h_dim),
        _view(hidden, g, n, h_dim), probs, probs.transpose(0, 2, 1),
        w1.transpose(0, 2, 1), b1[:, None, :], w2.transpose(0, 2, 1), w2, b2[:, None, :],
        *(grad[lo:hi] for grad in grads), label_base[:g * n].reshape(g, n),
        grad_hidden, grad_hidden.transpose(0, 2, 1), grad_hidden.view(np.int64), _view(on, g, n, h_dim), _view(on.view(np.int8), g, n, h_dim),
        _view(spare.view(np.int64), g, n, h_dim), _view(spare, n, g, h_dim))


def _train_part(
    plan: CohortPlan,
    part: _Part,
    init: ModelParams,
    seeds: Sequence[int],
    scratch: _Scratch,
    out: np.ndarray,
) -> dict[int, str]:
    """Train one cohort of a plan from ``init`` at its compact dims in the
    start of the call's scratch buffers.

    Row position ``j``'s input is ``part.table[part.slots[j]]`` with its
    raw columns replaced by ``plan.raw[part.rows[j]]``. Copies the
    members' compact parameters into ``out``, ``(members, P_w)`` in the
    order of ``part.index``, and returns the divergence messages by member
    number.
    """
    config, raw, labels = plan.config, plan.raw, plan.labels
    rows, slots, table, bounds, dims = part.rows, part.slots, part.table, part.bounds, part.dims
    k = part.members.size
    e_dim = dims[0] - raw.shape[1]
    params, grad, m, v, step, *buffers = _carve(scratch, part, config.batch_size)
    finite = scratch.finite[:params.size].reshape(params.shape)
    np.take(init.vector, part.index, mode="clip", out=params)
    m.fill(0.0)
    v.fill(0.0)
    order, flat_probs = scratch.order, buffers[3]
    layers, grads = _layer_views(params, dims), _layer_views(grad, dims)
    # Where row j of a batch's flat logits starts in the logits buffer.
    label_base = np.arange(k * min(config.batch_size, bounds[1])) * dims[2]
    # Each run's views, built at its first step.
    views: dict[tuple[int, int, int], _RunViews] = {}

    lr, beta1, beta2, eps = (config.learning_rate, config.adam_beta1,
                             config.adam_beta2, config.adam_epsilon)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    diverged: dict[int, str] = {}
    for t, (new, group) in enumerate(part.schedule, start=1):
        for c in new:
            # The client's row positions shuffled in place: the same
            # permutation, and the same draws, as rng.permutation(n).
            epoch = order[bounds[c]:bounds[c + 1]]
            epoch[:] = scratch.positions[bounds[c]:bounds[c + 1]]
            rngs[c].shuffle(epoch)
        for lo, hi, n, positions in group:
            run = views.get((lo, hi, n))
            if run is None:
                run = views[lo, hi, n] = _run_views(buffers, scratch.on, layers, grads, label_base, dims,
                                                    lo, hi, n)
            (batch, pre_hidden, hidden, probs, probs_t, w1_t, b1, w2_t, w2, b2,
             g_w1, g_b1, g_w2, g_b2, run_base, grad_hidden, grad_hidden_t, grad_bits, on, on_bytes,
             mask, grad_rows) = run
            at = order[positions]
            idx = rows[at]
            # The rows' compact inputs, assembled as one contiguous
            # (clients, rows, input_dim) batch.
            np.take(table, slots[at], axis=0, mode="clip", out=batch)
            batch[..., e_dim:] = np.take(raw, idx, axis=0)
            # Forward, keeping the pre-activation for backward.
            np.matmul(batch, w1_t, out=pre_hidden)
            pre_hidden += b1
            np.maximum(pre_hidden, 0.0, out=hidden)
            np.matmul(hidden, w2_t, out=probs)
            probs += b2
            # Softmax cross-entropy gradient w.r.t. the logits, in place.
            # The class maximum and sum are elementwise ops over the class
            # slices, cheaper than reductions over so short an axis, taken
            # in numpy's reduction order: the reference's bits, unchanged.
            probs -= _class_reduce(np.maximum, probs)[..., None]
            np.exp(probs, out=probs)
            probs /= _class_reduce(np.add, probs)[..., None]
            # The label entries, by one flat index into the buffer.
            hit = labels[idx]
            hit += run_base
            flat_probs[hit] -= 1.0
            probs /= n
            # Backward into the flat gradient buffer.
            np.matmul(probs_t, hidden, out=g_w2)
            _row_sum(probs, g_b2, np.empty((n, hi - lo, dims[2])))
            # The ReLU gradient, masked in place: its bits ANDed with all
            # ones where the unit is on and all zeros where it is off. That
            # is the reference's np.where bit for bit (+0.0 at every masked
            # entry, inf and NaN too) without allocating its result.
            # The mask is built as int8 0 / -1 and widened, which numpy
            # does without the buffer a cast inside a ufunc would take.
            np.matmul(probs, w2, out=grad_hidden)
            np.greater(pre_hidden, 0.0, out=on)
            np.negative(on_bytes, out=on_bytes)
            np.copyto(mask, on_bytes)
            np.bitwise_and(grad_bits, mask, out=grad_bits)
            np.matmul(grad_hidden_t, batch, out=g_w1)
            _row_sum(grad_hidden, g_b1, grad_rows)
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
                    diverged[i] = _divergence_message(params[i], dims)
    np.copyto(out, params)
    return diverged


def _class_reduce(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=-1)`` over the class axis of ``x``, for
    ``np.maximum`` or ``np.add``.

    Below 8 classes it runs as elementwise ops over the class slices,
    left to right: over so short an axis a reduction costs several times
    as much. A maximum is exact in any order, and numpy sums fewer than 8
    contiguous terms left to right (8 or more pairwise), so the result is
    the reduction's, bit for bit.
    """
    classes = x.shape[-1]
    if classes >= 8:
        return ufunc.reduce(x, axis=-1)
    out = ufunc(x[..., 0], x[..., 1]) if classes > 1 else x[..., 0].copy()
    for c in range(2, classes):
        ufunc(out, x[..., c], out=out)
    return out


def _row_sum(x: np.ndarray, out: np.ndarray, rows_first: np.ndarray) -> None:
    """``x.sum(axis=1)`` of a ``(clients, rows, width)`` array into ``out``,
    each client's equal bit for bit to the sum of its ``(rows, width)``
    part over axis 0. numpy sums that part row after row, except a single
    column, which it sums pairwise as a contiguous axis. Row after row
    runs fastest with the rows outermost, as a contiguous copy (into the
    ``(rows, clients, width)`` buffer ``rows_first``), summed into a
    contiguous ``(clients, width)`` array and then assigned: numpy would
    buffer the whole copy to sum it into the strided ``out``."""
    if x.shape[2] == 1:
        np.sum(x, axis=1, out=out)
    else:
        np.copyto(rows_first, x.transpose(1, 0, 2))
        out[...] = np.add.reduce(rows_first, axis=0)


def _divergence_message(vector: np.ndarray, dims: Dims) -> str:
    return f"training diverged ({_non_finite_layer(vector, dims)} contains non-finite entries)"


def hidden_rows(params: ModelParams, raw: np.ndarray, codes: np.ndarray, enc: Encodings) -> np.ndarray:
    """The hidden layer, ``relu(x W1' + b1)``, of rows in the training
    kernel's format: row ``i``'s input is encoding ``codes[i]`` of ``enc``
    followed by ``raw[i]``.

    The first layer is factored, so no row is ever assembled: the raw
    columns are one matmul over the rows, and the encoding term of the
    encodings ``first:last + 1`` that the codes span is their coordinates'
    matmul plus, level by level, the ``W1`` column of each one's label,
    gathered per row. With ``E = 0`` this is exactly a dense forward
    pass's first layer; with ``E > 0`` sums are grouped differently from
    a dense pass over the assembled rows, so they may differ in the last
    bits.
    """
    raw = np.asarray(raw, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.intp)
    e_dim, w1 = enc.width, params.layer1_weights
    if raw.ndim != 2 or e_dim + raw.shape[1] != params.input_dim:
        raise SpatialFLError(f"rows of {e_dim} encoding + {raw.shape[-1]} raw columns do not "
                             f"fit input_dim {params.input_dim} (raw rows {raw.shape})")
    if codes.shape != raw.shape[:1]:
        raise SpatialFLError(f"{codes.size} row codes for {len(raw)} rows")
    pre_hidden = raw @ w1[:, e_dim:].T
    if codes.size:
        first, last = int(codes.min()), int(codes.max())
        if first < 0 or last >= len(enc):
            raise SpatialFLError(f"row codes must lie in [0, {len(enc)})")
        if e_dim:
            span = slice(first, last + 1)
            term = enc.coords[span] @ w1[:, :enc.head].T
            for level in enc.labels[span].T:
                term += w1[:, level].T
            pre_hidden += np.take(term, codes - first, axis=0)
    pre_hidden += params.layer1_bias
    return np.maximum(pre_hidden, 0.0, out=pre_hidden)


def predict_rows(params: ModelParams, raw: np.ndarray, codes: np.ndarray, enc: Encodings) -> np.ndarray:
    """Argmax class per row of the training kernel's format (see
    :func:`hidden_rows`); ties resolve to the lowest index. A non-finite
    logit (the forward pass overflowed) raises :class:`DivergenceError`."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits = hidden_rows(params, raw, codes, enc) @ params.layer2_weights.T + params.layer2_bias
    if not np.isfinite(logits).all():
        raise DivergenceError("scoring diverged (non-finite logits)")
    return np.argmax(logits, axis=1)
