"""Tiered federated averaging over a tree of aggregators.

Clients at tier 0 train locally and send their parameters plus a raw
spatial weight (their training sample count) upward. Every interior node
replaces its model with the uniform mean of its children's models, or
with the convex combination given by the children's normalised raw
weights; an interior node's own raw weight is the sum of its descendants'
raw weights, which makes hierarchical weighted aggregation compose
exactly with flat weighted aggregation. After each round the root model
is broadcast back down and the cycle repeats.

Aggregation accumulates over children in ascending node-id order using a
fixed pairwise reduction, so results are bit-identical no matter how the
inputs are presented or how client training is scheduled. The reduction
streams over the children, holding O(log K) partial sums, never K
vectors.

A run splits every client into a training and a validation dataset and
stacks each side's rows once (:func:`stack_split`), for the tiered loop,
the centralized baselines and scoring alike. Each round trains every
client on its span of the training stack in one call of the training
kernel, which cuts the clients into cohorts whose working memory fits
:data:`~spatialfl.nn.COHORT_BYTES`. The call returns every client's
parameters as one ``(K, P)`` buffer, row ``k`` the ``k``-th client in
ascending id order, and :func:`aggregate_tree` reads that buffer as it is:
there is one aggregation function, :func:`aggregate`, and no per-client
object until the last round's client models are returned. A round's
buffer is released before the next round trains, so a run holds one at a
time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CorruptModelError,
    DegenerateWeightsError,
    DivergenceError,
    EmptyAggregationError,
    EmptyClientError,
    MissingClientError,
    ShapeError,
    TopologyError,
)
from .nn import Dims, ModelParams, TrainingConfig, flat_length, train_cohort
from .seeding import derive_seed
from .spatial import SpatialVocabulary, encode_spatial

if TYPE_CHECKING:
    from .data import ClientDataset

MODEL_MAGIC = b"ESFL"
MODEL_VERSION = 1

AGGREGATION_MODES = ("uniform", "sample_weighted")


@dataclass(frozen=True)
class TierNode:
    node_id: str
    tier: int
    parent: str | None


@dataclass(frozen=True)
class TierTopology:
    """A tree of nodes: clients at tier 0, one parentless root on top.

    Indexed once on construction: the root, the sorted children of every
    node, and the clients in depth-first order from the root (children
    ascending), in which every node's clients form one contiguous span.
    """

    nodes: tuple[TierNode, ...]
    root_id: str = field(init=False, repr=False, compare=False)
    client_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _client_spans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        validate_topology(self)
        object.__setattr__(self, "root_id", next(n.node_id for n in self.nodes if n.parent is None))
        kids: dict[str, list[str]] = {n.node_id: [] for n in self.nodes}
        for n in self.nodes:
            if n.parent is not None:
                kids[n.parent].append(n.node_id)
        children = {nid: tuple(sorted(ks)) for nid, ks in kids.items()}
        order: list[str] = []
        spans: dict[str, tuple[int, int]] = {}

        def visit(node_id: str) -> None:
            lo = len(order)
            if not children[node_id]:
                order.append(node_id)
            for child in children[node_id]:
                visit(child)
            spans[node_id] = (lo, len(order))

        visit(self.root_id)
        object.__setattr__(self, "client_order", tuple(order))
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_client_spans", spans)

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]

    def clients(self) -> list[str]:
        return sorted(n.node_id for n in self.nodes if n.tier == 0)

    @property
    def max_tier(self) -> int:
        return max(n.tier for n in self.nodes)

    def children(self, node_id: str) -> list[str]:
        return list(self._children[node_id])

    def client_span(self, node_id: str) -> tuple[int, int]:
        """The ``[lo, hi)`` slice of :attr:`client_order` below (or at) a node."""
        return self._client_spans[node_id]

    def subtree_clients(self, node_id: str) -> list[str]:
        """Client ids below (or at) a node, ascending."""
        lo, hi = self._client_spans[node_id]
        return sorted(self.client_order[lo:hi])


def validate_topology(topology: TierTopology) -> None:
    """Raise :class:`TopologyError` unless the node list forms a legal tree."""
    nodes = topology.nodes
    if not nodes:
        raise TopologyError("topology has no nodes")
    ids = [n.node_id for n in nodes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise TopologyError(f"duplicate node ids: {dupes}")
    by_id = {n.node_id: n for n in nodes}
    roots = [n for n in nodes if n.parent is None]
    if len(roots) != 1:
        raise TopologyError(f"expected exactly one root, found {len(roots)}")
    if any(n.tier < 0 for n in nodes):
        raise TopologyError("tier levels must be non-negative")
    children: dict[str, int] = {}
    for n in nodes:
        if n.parent is not None:
            parent = by_id.get(n.parent)
            if parent is None:
                raise TopologyError(f"node {n.node_id!r} references missing parent {n.parent!r}")
            if parent.tier != n.tier + 1:
                raise TopologyError(
                    f"parent {parent.node_id!r} at tier {parent.tier} must sit one tier "
                    f"above child {n.node_id!r} at tier {n.tier}"
                )
            children[n.parent] = children.get(n.parent, 0) + 1
    for n in nodes:
        if n.tier > 0 and children.get(n.node_id, 0) == 0:
            raise TopologyError(f"aggregator {n.node_id!r} has no children")
    if not any(n.tier == 0 for n in nodes):
        raise TopologyError("topology has no clients (tier-0 nodes)")


@dataclass(frozen=True)
class AggregationPolicy:
    """How each tier combines its children, and how many rounds to run."""

    mode: str = "sample_weighted"
    rounds: int = 1

    def __post_init__(self):
        if self.mode not in AGGREGATION_MODES:
            raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {self.mode!r}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


def round_seed(master: int, client_id: str, round_index: int) -> int:
    """The minibatch seed a client trains with in a given round.

    Seeds derive from (master seed, client id, round), so every client and
    round gets an independent minibatch stream.
    """
    return derive_seed(master, "train", client_id, round_index)


def stack_rows(
    clients: Sequence["ClientDataset"],
    vocab: SpatialVocabulary | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clients' rows in the format the training kernel and the scorer
    read.

    Returns the raw ``(N, F)`` feature rows and labels of the clients, in
    the order given, each row's code (the index of its client), the
    ``(K, E)`` table of the clients' encodings (``E`` is 0 with
    ``vocab=None``) and the client row offsets (client ``k`` owns rows
    ``offsets[k]:offsets[k + 1]``). Nothing is encoded per row: row
    ``i``'s model input is ``[enc[codes[i]], raw[i]]``.
    """
    offsets = np.cumsum([0] + [c.n_rows for c in clients])
    n_raw = clients[0].features.shape[1] if clients else 0
    raw = np.empty((offsets[-1], n_raw))
    labels = np.empty(offsets[-1], dtype=np.int64)
    enc = np.empty((len(clients), vocab.encoding_length if vocab is not None else 0))
    for i, (client, lo, hi) in enumerate(zip(clients, offsets, offsets[1:])):
        raw[lo:hi], labels[lo:hi] = client.features, client.labels
        if vocab is not None:
            enc[i] = encode_spatial(client.spatial, vocab)
    codes = np.repeat(np.arange(len(clients)), np.diff(offsets))
    return raw, labels, codes, enc, offsets


# :func:`stack_split`'s raw rows, labels, codes, encodings and node spans.
StackedRows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, tuple[int, int]]]


def stack_split(
    topology: TierTopology,
    datasets: Mapping[str, "ClientDataset"],
    vocab: SpatialVocabulary | None,
) -> StackedRows:
    """Every topology client's rows (:func:`stack_rows`), in depth-first
    client order, with the ``[lo, hi)`` row span of every node, clients
    included. A run stacks its training datasets and its validation
    datasets this way, once each. A topology client without a dataset
    raises :class:`MissingClientError`."""
    missing = [c for c in topology.clients() if c not in datasets]
    if missing:
        raise MissingClientError(f"no dataset for clients: {missing}")
    raw, labels, codes, enc, offsets = stack_rows([datasets[c] for c in topology.client_order], vocab)
    spans = {}
    for node_id in topology.node_ids():
        first, last = topology.client_span(node_id)
        spans[node_id] = (int(offsets[first]), int(offsets[last]))
    return raw, labels, codes, enc, spans


def _tree_sum(vectors: Iterable[np.ndarray]) -> np.ndarray:
    """The fixed pairwise sum of vectors in the order given: deterministic,
    and exact for 2^k identical inputs, which plain left-to-right
    accumulation is not.

    The pairing is a level-by-level fold (sum neighbouring pairs, carry
    an odd last vector up a level) computed as a binary counter over the
    stream: each vector is pushed and merged with the partial sums of the
    same level, and the stack is collapsed from its top at the end. So at
    most one partial sum per level, O(log K) vectors, is held at once. The
    inputs are never written: a level-0 merge allocates ``left + right``,
    and every later merge adds into the left partial sum, which it owns.
    """
    stack: list[tuple[int, np.ndarray]] = []
    for vector in vectors:
        level = 0
        while stack and stack[-1][0] == level:
            _, left = stack.pop()
            if level:
                left += vector
                vector = left
            else:
                vector = left + vector
            level += 1
        stack.append((level, vector))
    _, total = stack.pop()
    while stack:
        # Every partial sum below the top has a level above 0: it is owned.
        _, left = stack.pop()
        left += total
        total = left
    return total


def aggregate(vectors: Sequence[np.ndarray], raws: Sequence[float], mode: str, dims: Dims) -> ModelParams:
    """The aggregate of parameter vectors (a ``(K, P)`` buffer or a list of
    rows) as a model of ``dims``: their mean, or with ``sample_weighted``
    their convex combination by the normalised raw weights ``raws``, one
    per vector, each weighted vector formed only when the sum takes it.

    The vectors are summed in the order given (see :func:`_tree_sum`), so
    callers pass them in ascending id order. Always a new vector. No
    vectors raises :class:`EmptyAggregationError`; a non-finite entry (the
    sum overflowed) raises :class:`DivergenceError`.
    """
    if len(vectors) == 0:
        raise EmptyAggregationError("no vectors to aggregate")
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "uniform":
            vector = _tree_sum(vectors) / len(vectors)
        else:
            vector = _tree_sum(w * v for w, v in zip(normalize_weights(raws), vectors))
    try:
        return ModelParams(vector, dims)
    except ValueError as exc:  # ModelParams' only ValueError: a non-finite entry
        raise DivergenceError(f"aggregate diverged ({exc})") from None


def normalize_weights(raws: Iterable[float]) -> list[float]:
    """Scale non-negative raw weights into a convex combination."""
    raws = [float(r) for r in raws]
    if not raws:
        raise EmptyAggregationError("no weights to normalise")
    if any(r < 0 for r in raws):
        raise DegenerateWeightsError("raw weights must be non-negative")
    total = sum(raws)
    if total == 0:
        raise DegenerateWeightsError("raw weights sum to zero")
    return [r / total for r in raws]


def aggregate_tree(
    topology: TierTopology,
    params: Sequence[np.ndarray],
    counts: Sequence[float],
    dims: Dims,
    mode: str = "sample_weighted",
) -> dict[str, ModelParams]:
    """Fold a round's client parameters up the tree; returns the model of
    every interior node.

    Row ``k`` of ``params`` (the training kernel's ``(K, P)`` buffer) and
    ``counts[k]``, its raw weight, belong to the ``k``-th client of
    :meth:`TierTopology.clients` (ascending id order); a row count or
    weight count other than the client count raises :class:`ShapeError`.
    Interior nodes carry the sum of their descendants' raw weights, so
    with the sample-weighted mode the root equals the flat weighted
    average over all clients (up to rounding). Every interior node
    combines its children's vectors in ascending id order, exactly as
    :func:`aggregate` over their vectors would. An aggregate with a
    non-finite entry raises :class:`DivergenceError` naming the node.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    clients = topology.clients()
    if not len(params) == len(counts) == len(clients):
        raise ShapeError(f"{len(params)} parameter rows and {len(counts)} weights "
                         f"for {len(clients)} clients")
    vectors = dict(zip(clients, params))
    weights = dict(zip(clients, counts))
    models = {}
    for tier in range(1, topology.max_tier + 1):
        for node in sorted(n.node_id for n in topology.nodes if n.tier == tier):
            kids = topology.children(node)
            with DivergenceError.naming(f"node {node!r}"):
                models[node] = aggregate([vectors[k] for k in kids], [weights[k] for k in kids], mode, dims)
            vectors[node] = models[node].vector
            weights[node] = float(sum(weights[k] for k in kids))
    return models


def run_tier_round(
    topology: TierTopology,
    rows: StackedRows,
    global_init: ModelParams,
    policy: AggregationPolicy,
    config: TrainingConfig,
    first_round: Callable[[np.ndarray, list[int]], None] | None = None,
) -> dict[str, ModelParams]:
    """Run the full tiered protocol for ``policy.rounds`` rounds on the
    training stack ``rows`` (:func:`stack_split`).

    Each round every client trains from the current broadcast model
    (round 1 broadcasts ``global_init``), the round's parameters flow up
    the tree, and the root model becomes the next broadcast. Returns the
    final model of every node: localized models at tier 0, one aggregate
    per interior node, the global model at the root.

    ``first_round``, if given, is called once with round 1's ``(K, P)``
    parameter buffer and the clients' training-row counts (their raw
    weights), both in ascending client order (:meth:`TierTopology.clients`),
    after round 1's aggregation and before round 2 trains. Its rows are
    the clients' models trained once from ``global_init``; one-round flat
    federated averaging and the per-client ensemble are built from them.
    Before each round after the first trains, the previous round's buffer
    and node models are released (unless the callback kept them), so one
    round's buffer is held at a time.

    Each round trains every client on its span of ``rows`` in one call
    of the training kernel, seeded by :func:`round_seed` with
    ``config.seed`` as the master seed. A client without training rows,
    or whose training diverges (which fails the round once every client
    has trained), is named by the lowest such client id; a non-finite
    aggregate fails the round naming the node.
    """
    raw, labels, codes, enc, spans = rows
    clients = topology.clients()
    counts = [spans[c][1] - spans[c][0] for c in clients]
    if 0 in counts:
        raise EmptyClientError(f"client {clients[counts.index(0)]!r} has no training rows")
    client_rows = [np.arange(*spans[c]) for c in clients]
    broadcast = global_init
    for round_index in range(1, policy.rounds + 1):
        if round_index > 1:
            # Only the broadcast, a fresh vector, outlives a round.
            del params, models
        seeds = [round_seed(config.seed, c, round_index) for c in clients]
        params, failed = train_cohort(broadcast, raw, labels, codes, enc, client_rows, config, seeds)
        if failed:
            i = min(failed)
            raise DivergenceError(f"client {clients[i]!r} in round {round_index}: {failed[i]}")
        with DivergenceError.naming(f"round {round_index}"):
            models = aggregate_tree(topology, params, counts, broadcast.dims, policy.mode)
        if round_index == 1 and first_round is not None:
            first_round(params, counts)
        broadcast = models[topology.root_id]
    # Views of the last buffer's rows: every kernel call allocates its
    # buffer afresh and nothing writes it once the call returns.
    return {**{c: ModelParams(vector, broadcast.dims) for c, vector in zip(clients, params)}, **models}


def serialize_model(params: ModelParams) -> bytes:
    """Binary model format: magic, version, u32 dims, float64 payload.

    Layout (all little-endian): ``b"ESFL"``, one version byte, three u32
    dims (input, hidden, classes), then the parameter vector as
    64-bit IEEE-754 floats. No padding.
    """
    header = MODEL_MAGIC + bytes([MODEL_VERSION]) + struct.pack("<III", *params.dims)
    payload = np.ascontiguousarray(params.vector, dtype="<f8").tobytes()
    return header + payload


def deserialize_model(blob: bytes) -> ModelParams:
    """Parse :func:`serialize_model` output; any inconsistency is rejected."""
    if len(blob) < 17:
        raise CorruptModelError(f"file too short ({len(blob)} bytes) for a model header")
    if blob[:4] != MODEL_MAGIC:
        raise CorruptModelError(f"bad magic {blob[:4]!r}")
    if blob[4] != MODEL_VERSION:
        raise CorruptModelError(f"unsupported format version {blob[4]}")
    dims = struct.unpack("<III", blob[5:17])
    if min(dims) < 1:
        raise CorruptModelError(f"header declares invalid dims {dims}")
    expected = 8 * flat_length(dims)
    payload = blob[17:]
    if len(payload) != expected:
        raise CorruptModelError(
            f"payload is {len(payload)} bytes, dims {dims} require {expected}"
        )
    vector = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    try:
        return ModelParams(vector, dims)
    except (ShapeError, ValueError) as exc:
        raise CorruptModelError(f"payload rejected: {exc}") from exc
