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
inputs are presented or how client training is scheduled.

A run stacks every client's raw training rows and spatial encoding once
(:func:`stack_rows`), in order of descending training-row count, and
each round trains the clients through the training kernel in
consecutive cohorts whose working memory fits :data:`COHORT_BYTES`.
"""

from __future__ import annotations

import mmap
import struct
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

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
from .nn import ModelParams, TrainingConfig, flat_length, train_cohort, working_set_bytes
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
class ClientUpdate:
    """One client's contribution to a round of aggregation."""

    client_id: str
    params: ModelParams
    spatial_weight_raw: float

    def __post_init__(self):
        if self.spatial_weight_raw < 0:
            raise ValueError("spatial_weight_raw must be non-negative")


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


def per_round_config(config: TrainingConfig, client_id: str, round_index: int) -> TrainingConfig:
    """The training config a client uses in a given round.

    Seeds derive from (master seed, client id, round), so every client and
    round gets an independent minibatch stream.
    """
    return replace(config, seed=derive_seed(config.seed, "train", client_id, round_index))


def _mapped_empty(shape: tuple[int, int]) -> np.ndarray:
    """An uninitialised float64 matrix on pages mapped for it alone, which
    go back to the OS as soon as the matrix and its views are dropped.

    Stacked rows are the largest arrays of a run (the pooled centralized
    training set is megabytes) and are rebuilt at the same size every
    run. From malloc, glibc places such a block on the heap once it has
    freed one like it (its mmap threshold rises to the freed size), and
    whether the next one fits in a free hole or grows the heap by its
    full size depends on how other allocations have split the heap, so
    peak memory jumped by the block's size at an unpredictable run.
    """
    nbytes = shape[0] * shape[1] * 8
    if nbytes == 0:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=np.float64).reshape(shape)


def stack_rows(
    clients: Sequence["ClientDataset"],
    vocab: SpatialVocabulary | None,
    split: str | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clients' rows of one split in the format the training kernel
    and the scorer read.

    Returns the raw ``(N, F)`` feature rows and labels of the clients, in
    the order given, each row's code (the index of its client), the
    ``(K, E)`` table of the clients' encodings (``E`` is 0 with
    ``vocab=None``) and the client row offsets (client ``k`` owns rows
    ``offsets[k]:offsets[k + 1]``). Nothing is encoded per row: row
    ``i``'s model input is ``[enc[codes[i]], raw[i]]``.
    """
    offsets = np.cumsum([0] + [c.count(split) for c in clients])
    n_raw = clients[0].features.shape[1] if clients else 0
    raw = _mapped_empty((int(offsets[-1]), n_raw))
    labels = np.empty(offsets[-1], dtype=np.int64)
    enc = np.empty((len(clients), vocab.encoding_length if vocab is not None else 0))
    for i, (client, lo, hi) in enumerate(zip(clients, offsets, offsets[1:])):
        raw[lo:hi], labels[lo:hi] = client.rows(split)
        if vocab is not None:
            enc[i] = encode_spatial(client.spatial, vocab)
    codes = np.repeat(np.arange(len(clients)), np.diff(offsets))
    return raw, labels, codes, enc, offsets


def _client_rows(
    clients: Sequence["ClientDataset"],
    init: ModelParams,
    vocab: SpatialVocabulary | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The training rows (:func:`stack_rows`) of clients that must each
    train ``init``."""
    for dataset in clients:
        if dataset.n_classes != init.n_classes:
            raise ShapeError(f"dataset has {dataset.n_classes} classes, model {init.n_classes}")
    raw, labels, codes, enc, offsets = stack_rows(clients, vocab, "train")
    empty = np.flatnonzero(np.diff(offsets) == 0)
    if empty.size:
        raise EmptyClientError(f"client {clients[empty[0]].client_id!r} has no training rows")
    return raw, labels, codes, enc, offsets


# Upper bound on the memory one call of the training kernel works in
# (nn.working_set_bytes per client). Training rows are held raw, once per
# run, so this bounds training's memory beyond them whatever the number of
# clients; a cohort this large already shares the per-step numpy overhead
# among enough clients that larger ones gain little.
COHORT_BYTES = 4 << 20


def cohort_slices(n_clients: int, dims: tuple[int, int, int], batch_size: int) -> list[slice]:
    """Consecutive clients cut into cohorts whose kernel working set fits
    :data:`COHORT_BYTES`; a client that alone exceeds it is a cohort of one."""
    size = max(1, COHORT_BYTES // working_set_bytes(dims, batch_size))
    return [slice(lo, min(lo + size, n_clients)) for lo in range(0, n_clients, size)]


def _sorted_consistent(updates: Iterable[ClientUpdate]) -> list[ClientUpdate]:
    ordered = sorted(updates, key=lambda u: u.client_id)
    if not ordered:
        raise EmptyAggregationError("no updates to aggregate")
    dims = ordered[0].params.dims
    for u in ordered:
        if u.params.dims != dims:
            raise ShapeError(f"update {u.client_id!r} has dims {u.params.dims}, expected {dims}")
    return ordered


def _tree_sum(vectors: list[np.ndarray]) -> np.ndarray:
    # Fixed pairwise reduction: deterministic, and exact for 2^k identical
    # inputs, which plain left-to-right accumulation is not.
    while len(vectors) > 1:
        paired = [vectors[i] + vectors[i + 1] for i in range(0, len(vectors) - 1, 2)]
        if len(vectors) % 2:
            paired.append(vectors[-1])
        vectors = paired
    return vectors[0]


def _combine(vectors: list[np.ndarray], raws: list[float], mode: str) -> np.ndarray:
    """The aggregate of parameter vectors given in ascending id order: their
    mean, or with ``sample_weighted`` their convex combination by the
    normalised raw weights. Always a new array."""
    if mode == "uniform":
        return _tree_sum(vectors) / len(vectors)
    return _tree_sum([w * v for w, v in zip(normalize_weights(raws), vectors)])


def _aggregate(updates: Iterable[ClientUpdate], mode: str) -> ModelParams:
    ordered = _sorted_consistent(updates)
    vector = _combine([u.params.vector for u in ordered], [u.spatial_weight_raw for u in ordered], mode)
    return ModelParams(vector, ordered[0].params.dims)


def fedavg(updates: Iterable[ClientUpdate]) -> ModelParams:
    """Uniform federated average: the elementwise mean of the parameters."""
    return _aggregate(updates, "uniform")


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


def weighted_aggregate(updates: Iterable[ClientUpdate]) -> ModelParams:
    """Convex combination of parameters weighted by normalised raw weights."""
    return _aggregate(updates, "sample_weighted")


def aggregate_tree(
    topology: TierTopology,
    updates: Iterable[ClientUpdate],
    mode: str = "sample_weighted",
) -> dict[str, ModelParams]:
    """Fold client updates up the tree; returns one model per node.

    Interior nodes carry the sum of their descendants' raw weights, so
    with the sample-weighted mode the root equals the flat weighted
    average over all clients (up to rounding). Every interior node
    combines its children's vectors in ascending id order, exactly as
    :func:`fedavg` or :func:`weighted_aggregate` over their updates would.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    by_id = {u.client_id: u for u in updates}
    clients = topology.clients()
    missing = [c for c in clients if c not in by_id]
    if missing:
        raise MissingClientError(f"no update for clients: {missing}")
    extra = sorted(set(by_id) - set(clients))
    if extra:
        raise TopologyError(f"updates for unknown clients: {extra}")
    dims = _sorted_consistent(by_id.values())[0].params.dims

    models = {c: by_id[c].params for c in clients}
    vectors = {c: models[c].vector for c in clients}
    weights = {c: by_id[c].spatial_weight_raw for c in clients}
    for tier in range(1, topology.max_tier + 1):
        for node in sorted(n.node_id for n in topology.nodes if n.tier == tier):
            kids = topology.children(node)
            vectors[node] = _combine([vectors[k] for k in kids], [weights[k] for k in kids], mode)
            models[node] = ModelParams(vectors[node], dims)
            weights[node] = float(sum(weights[k] for k in kids))
    return models


def run_tier_round(
    topology: TierTopology,
    datasets: Mapping[str, "ClientDataset"],
    global_init: ModelParams,
    policy: AggregationPolicy,
    config: TrainingConfig,
    vocab: SpatialVocabulary | None,
) -> tuple[dict[str, ModelParams], list[ClientUpdate]]:
    """Run the full tiered protocol for ``policy.rounds`` rounds.

    Each round every client trains from the current broadcast model
    (round 1 broadcasts ``global_init``), updates flow up the tree, and
    the root model becomes the next broadcast. Returns the final model of
    every node (localized models at tier 0, one aggregate per interior
    node, the global model at the root) and the round-1 client updates in
    ascending client order. Those are the clients' models trained once
    from ``global_init``; one-round flat federated averaging and the
    per-client ensemble are built from them.

    Every client's training rows are stacked once, before the first
    round, in order of descending training-row count and then id, and
    cut into cohorts by :func:`cohort_slices`; each round trains every
    cohort in one call of the training kernel. A client whose training
    diverges fails the round once every cohort has trained, naming the
    lowest such client id.
    """
    clients = topology.clients()
    missing = [c for c in clients if c not in datasets]
    if missing:
        raise MissingClientError(f"no dataset for clients: {missing}")
    # Within a cohort in this order, the clients still training at any
    # step are a prefix.
    order = sorted(clients, key=lambda c: (-datasets[c].count("train"), c))
    raw, labels, codes, enc, offsets = _client_rows([datasets[c] for c in order], global_init, vocab)
    counts = np.diff(offsets).tolist()
    broadcast = global_init
    for round_index in range(1, policy.rounds + 1):
        seeds = [per_round_config(config, c, round_index).seed for c in order]
        trained: dict[str, ClientUpdate] = {}
        diverged: dict[str, str] = {}
        for part in cohort_slices(len(order), global_init.dims, config.batch_size):
            params, failed = train_cohort(broadcast, raw, labels, codes, enc,
                                          offsets[part.start:part.stop + 1], config, seeds[part])
            for i, c in enumerate(order[part]):
                if i in failed:
                    diverged[c] = failed[i]
                else:
                    # A view of the client's row: every kernel call
                    # allocates its buffer afresh and nothing writes it
                    # once the call returns.
                    trained[c] = ClientUpdate(c, ModelParams(params[i], broadcast.dims),
                                              float(counts[part.start + i]))
        if diverged:
            c = min(diverged)
            raise DivergenceError(f"client {c!r} in round {round_index}: {diverged[c]}")
        updates = [trained[c] for c in clients]
        if round_index == 1:
            first_round = updates
        models = aggregate_tree(topology, updates, policy.mode)
        broadcast = models[topology.root_id]
    return models, first_round


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
