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
stacks each side's raw rows once (:func:`stack_split`), for the tiered
rounds, the centralized baselines and scoring alike; a row's code picks
its client's row of the run's one table of encodings. A run plans the
clients' training once (:func:`plan_rounds`): the kernel's checks, its
layout and its schedule, with the clients cut into cohorts whose working
memory fits :data:`~spatialfl.nn.COHORT_BYTES`. Each round
(:func:`run_tier_round`) then trains every client on its span of the
training stack in one call of the training kernel on that plan.
The call returns the clients' models compactly, as
:class:`~spatialfl.nn.ClientModels` (client ``k`` the ``k``-th in
ascending id order): each moved only its active parameters away from
the broadcast. :func:`aggregate_tree` streams each client's vector,
rebuilt and weighted as the sum takes it, into the pairwise reduction,
so a round never holds a dense vector per client, and there is one
aggregation function, :func:`aggregate`. :class:`NodeModels` maps node
ids to models, rebuilding a client's on each lookup. The loop over
rounds, which broadcasts each round's root model to the next, is the
run's (:func:`spatialfl.harness.run_experiment`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, DivergenceError, SpatialFLError
from .nn import ClientModels, CohortPlan, Dims, ModelParams, TrainingConfig, flat_length, plan_cohort, train_cohort
from .seeding import derive_seed

if TYPE_CHECKING:
    from .data import ClientDataset

MODEL_MAGIC = b"ESFL"
MODEL_VERSION = 1

AGGREGATION_MODES = ("uniform", "sample_weighted")

# The id of every tier tree's root; no hierarchy label may take it.
ROOT_ID = "global"


@dataclass(frozen=True)
class TierNode:
    node_id: str
    tier: int
    parent: str | None


@dataclass(frozen=True)
class TierTopology:
    """The tier tree of leaf-to-root hierarchy paths: a path's ``i``-th
    label names a node at tier ``i`` (its first, a client at tier 0) whose
    parent is the next label, and one root, :data:`ROOT_ID`, sits above
    every path's last label.

    The paths are stored sorted and without repeats, so equal trees
    compare equal whatever order their paths came in. No leaves, paths
    of unequal length, and a label that is :data:`ROOT_ID` or sits at two
    levels or under two parents each raise :class:`DataError`.

    Indexed once on construction: the nodes (the clients ascending, then
    each tier's labels ascending, then the root), the sorted children of
    every node, and the clients in depth-first order from the root
    (children ascending), in which every node's clients form one
    contiguous span.
    """

    paths: tuple[tuple[str, ...], ...]
    nodes: tuple[TierNode, ...] = field(init=False, repr=False, compare=False)
    root_id: str = field(default=ROOT_ID, init=False, repr=False, compare=False)
    client_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)
    _client_spans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        paths = tuple(sorted({tuple(path) for path in self.paths}))
        object.__setattr__(self, "paths", paths)
        if not any(paths):
            raise DataError("no leaves to build a topology from")
        if len({len(path) for path in paths}) > 1:
            raise DataError("hierarchy paths have mixed lengths")
        levels: dict[str, set[int]] = {}
        parents: dict[str, set[str]] = {}
        for path in paths:
            for level, (label, parent) in enumerate(zip(path, path[1:] + (ROOT_ID,))):
                levels.setdefault(label, set()).add(level)
                parents.setdefault(label, set()).add(parent)
        if ROOT_ID in levels:
            raise DataError(f"label {ROOT_ID!r} is the reserved id of the root node")
        shared = sorted(label for label, at in levels.items() if len(at) > 1)
        if shared:
            raise DataError(f"label {shared[0]!r} is used at levels {sorted(levels[shared[0]])}")
        level_of = {label: min(at) for label, at in levels.items()}
        conflicts = sorted((level_of[label], label) for label, at in parents.items() if len(at) > 1)
        if conflicts:
            level, label = conflicts[0]
            raise DataError(f"label {label!r} at level {level} has conflicting parents: {sorted(parents[label])}")
        nodes = [TierNode(label, level_of[label], min(parents[label]))
                 for label in sorted(levels, key=lambda label: (level_of[label], label))]
        nodes.append(TierNode(ROOT_ID, len(paths[0]), None))
        children: dict[str, list[str]] = {n.node_id: [] for n in nodes}
        for n in nodes[:-1]:
            children[n.parent].append(n.node_id)  # in node order: ascending
        order: list[str] = []
        spans: dict[str, tuple[int, int]] = {}

        def visit(node_id: str) -> None:
            lo = len(order)
            if not children[node_id]:
                order.append(node_id)
            for child in children[node_id]:
                visit(child)
            spans[node_id] = (lo, len(order))

        visit(ROOT_ID)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "client_order", tuple(order))
        object.__setattr__(self, "_children", children)
        object.__setattr__(self, "_client_spans", spans)

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]

    def clients(self) -> list[str]:
        return [path[0] for path in self.paths]

    @property
    def max_tier(self) -> int:
        return len(self.paths[0])

    def children(self, node_id: str) -> list[str]:
        return list(self._children[node_id])

    def client_span(self, node_id: str) -> tuple[int, int]:
        """The ``[lo, hi)`` slice of :attr:`client_order` below (or at) a node."""
        return self._client_spans[node_id]

    def subtree_clients(self, node_id: str) -> list[str]:
        """Client ids below (or at) a node, ascending."""
        lo, hi = self._client_spans[node_id]
        return sorted(self.client_order[lo:hi])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The clients' rows in the format the training kernel and the scorer
    read.

    Returns the raw ``(N, F)`` feature rows and labels of the clients, in
    the order given, each row's code (the index of its client) and the
    client row offsets (client ``k`` owns rows ``offsets[k]:offsets[k + 1]``).
    Nothing is encoded here: row ``i``'s model input is
    ``[enc[codes[i]], raw[i]]``, ``enc`` the clients' encodings in the same
    order (:func:`~spatialfl.spatial.encoding_table`).
    """
    offsets = np.cumsum([0] + [c.n_rows for c in clients])
    n_raw = clients[0].features.shape[1] if clients else 0
    raw = np.empty((offsets[-1], n_raw))
    labels = np.empty(offsets[-1], dtype=np.int64)
    for client, lo, hi in zip(clients, offsets, offsets[1:]):
        raw[lo:hi], labels[lo:hi] = client.features, client.labels
    codes = np.repeat(np.arange(len(clients)), np.diff(offsets))
    return raw, labels, codes, offsets


# :func:`stack_split`'s raw rows, labels, codes and node spans.
StackedRows = tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, tuple[int, int]]]


def stack_split(topology: TierTopology, datasets: Mapping[str, "ClientDataset"]) -> StackedRows:
    """Every topology client's rows (:func:`stack_rows`), in depth-first
    client order (:attr:`TierTopology.client_order`, which the row codes
    count in), with the ``[lo, hi)`` row span of every node, clients
    included. A run stacks its training datasets and its validation
    datasets this way, once each, and both index one table of encodings.
    A topology client without a dataset raises :class:`DataError`."""
    missing = [c for c in topology.clients() if c not in datasets]
    if missing:
        raise DataError(f"no dataset for clients: {missing}")
    raw, labels, codes, offsets = stack_rows([datasets[c] for c in topology.client_order])
    spans = {}
    for node_id in topology.node_ids():
        first, last = topology.client_span(node_id)
        spans[node_id] = (int(offsets[first]), int(offsets[last]))
    return raw, labels, codes, spans


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


def _terms(vectors: ClientModels | Sequence[np.ndarray], weights: Sequence[float] | None) -> Iterator[np.ndarray]:
    """Each vector, or with ``weights`` each times its weight, formed only
    when the sum takes it; a client of :class:`~spatialfl.nn.ClientModels`
    rebuilt afresh."""
    if isinstance(vectors, ClientModels):
        if weights is None:
            return (vectors.vector(k) for k in range(len(vectors)))
        return (vectors.scaled(k, w) for k, w in enumerate(weights))
    return iter(vectors) if weights is None else (w * v for w, v in zip(weights, vectors))


def aggregate(vectors: ClientModels | Sequence[np.ndarray], raws: Sequence[float], mode: str,
              dims: Dims) -> ModelParams:
    """The aggregate of parameter vectors (a list of vectors, the rows of a
    2-D array, or clients' models as :class:`~spatialfl.nn.ClientModels`)
    as a model of ``dims``: their mean, or with ``sample_weighted`` their
    convex combination by the normalised raw weights ``raws``, one per
    vector, each weighted vector formed only when the sum takes it.

    The vectors are summed in the order given (see :func:`_tree_sum`), so
    callers pass them in ascending id order. A client's vector rebuilt
    from :class:`~spatialfl.nn.ClientModels` is bit for bit its dense
    vector, and so is its weighted vector, so the aggregate does not
    depend on which form the clients come in. Always a new vector. No
    vectors raises :class:`SpatialFLError`; a non-finite entry (the sum
    overflowed) raises :class:`DivergenceError`.
    """
    if len(vectors) == 0:
        raise SpatialFLError("no vectors to aggregate")
    with np.errstate(over="ignore", invalid="ignore"):
        if mode == "uniform":
            vector = _tree_sum(_terms(vectors, None)) / len(vectors)
        else:
            vector = _tree_sum(_terms(vectors, normalize_weights(raws)))
    try:
        return ModelParams(vector, dims)
    except ValueError as exc:  # ModelParams' only ValueError: a non-finite entry
        raise DivergenceError(f"aggregate diverged ({exc})") from None


def normalize_weights(raws: Iterable[float]) -> list[float]:
    """Scale non-negative raw weights into a convex combination."""
    raws = [float(r) for r in raws]
    if not raws:
        raise SpatialFLError("no weights to normalise")
    if any(r < 0 for r in raws):
        raise SpatialFLError("raw weights must be non-negative")
    total = sum(raws)
    if total == 0:
        raise SpatialFLError("raw weights sum to zero")
    return [r / total for r in raws]


def aggregate_tree(
    topology: TierTopology,
    params: ClientModels | Sequence[np.ndarray],
    counts: Sequence[float],
    dims: Dims,
    mode: str = "sample_weighted",
) -> dict[str, ModelParams]:
    """Fold a round's client parameters up the tree; returns the model of
    every interior node.

    Client ``k`` of ``params`` (the training kernel's
    :class:`~spatialfl.nn.ClientModels`, or any sequence of dense vectors)
    and ``counts[k]``, its raw weight, belong to the ``k``-th client of
    :meth:`TierTopology.clients` (ascending id order); a client count or
    weight count other than the topology's raises :class:`SpatialFLError`.
    Interior nodes carry the sum of their descendants' raw weights, so
    with the sample-weighted mode the root equals the flat weighted
    average over all clients (up to rounding). Every interior node
    combines its children's vectors in ascending id order, exactly as
    :func:`aggregate` over their vectors would; a client's vector is
    rebuilt only when the sum takes it, so O(log K) of them are held at
    once. An aggregate with a non-finite entry raises
    :class:`DivergenceError` naming the node.
    """
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"mode must be one of {AGGREGATION_MODES}, got {mode!r}")
    clients = topology.clients()
    if not len(params) == len(counts) == len(clients):
        raise SpatialFLError(f"{len(params)} parameter rows and {len(counts)} weights "
                             f"for {len(clients)} clients")
    number = {c: k for k, c in enumerate(clients)}
    vectors = {}  # every interior node's, once aggregated
    weights = dict(zip(clients, counts))
    models = {}
    # Above the clients, the nodes come tiers ascending, ids ascending:
    # every node after its children.
    for node in topology.node_ids()[len(clients):]:
        kids = topology.children(node)
        if kids[0] in number:
            # A tier-1 node: every path has one length, so every child is a client.
            ks = [number[k] for k in kids]
            children = params.select(ks) if isinstance(params, ClientModels) else [params[k] for k in ks]
        else:
            children = [vectors[k] for k in kids]
        with DivergenceError.naming(f"node {node!r}"):
            models[node] = aggregate(children, [weights[k] for k in kids], mode, dims)
        vectors[node] = models[node].vector
        weights[node] = float(sum(weights[k] for k in kids))
    return models


def plan_rounds(topology: TierTopology, rows: StackedRows, table: tuple[np.ndarray, np.ndarray],
                dims: Dims, config: TrainingConfig) -> CohortPlan:
    """The training of every client of ``topology`` on its span of the
    training stack ``rows`` (:func:`stack_split`) at ``dims`` under
    ``config``, planned once for every :func:`run_tier_round` of a run,
    clients in ascending order (:meth:`TierTopology.clients`), ``table``
    the encodings the codes index (:func:`~spatialfl.spatial.encoding_table`).

    A client without training rows is named by the lowest such client id.
    """
    raw, labels, codes, spans = rows
    enc, columns = table
    clients = topology.clients()
    empty = [c for c in clients if spans[c][0] == spans[c][1]]
    if empty:
        raise DataError(f"client {empty[0]!r} has no training rows")
    return plan_cohort(raw, labels, codes, enc, [np.arange(*spans[c]) for c in clients], dims, config,
                       columns)


def run_tier_round(
    topology: TierTopology,
    plan: CohortPlan,
    broadcast: ModelParams,
    mode: str,
    seed: int,
    round_index: int,
) -> tuple[ClientModels, list[int], dict[str, ModelParams]]:
    """One round of the tiered protocol, training as ``plan``
    (:func:`plan_rounds`) says: every client trains from ``broadcast``
    and the round's parameters flow up the tree.

    Returns the round's client models (:class:`~spatialfl.nn.ClientModels`)
    and the clients' training-row counts (their raw weights), both in
    ascending client order (:meth:`TierTopology.clients`), and the model
    of every interior node; the root's is the next round's broadcast.
    Client ``k``'s model is the ``k``-th client's localized model.

    Every client trains in one call of the training kernel, seeded by
    :func:`round_seed` with ``seed`` as the master seed. A client whose
    training diverges (which fails the round once every client has
    trained) is named by the lowest such client id; a non-finite
    aggregate fails the round naming the node.
    """
    clients = topology.clients()
    params, failed = train_cohort(plan, broadcast, [round_seed(seed, c, round_index) for c in clients])
    if failed:
        i = min(failed)
        raise DivergenceError(f"client {clients[i]!r} in round {round_index}: {failed[i]}")
    with DivergenceError.naming(f"round {round_index}"):
        models = aggregate_tree(topology, params, plan.counts, broadcast.dims, mode)
    return params, list(plan.counts), models


class NodeModels(Mapping[str, ModelParams]):
    """Models by node id, read-only: the clients' from the training
    kernel's :class:`~spatialfl.nn.ClientModels`, ``clients[k]`` the id of
    client ``k``, and ``interior``, every other node's by id.

    A lookup of a client builds its model afresh, so no two lookups share
    a buffer and writing into one changes nothing else; an interior
    node's model is the one given. Iteration gives the clients in the
    order given, then the interior nodes. :meth:`in_turn` rebuilds the
    clients one after another in one buffer instead.
    """

    def __init__(self, clients: Sequence[str], trained: ClientModels,
                 interior: Mapping[str, ModelParams] | None = None):
        self._number = {c: k for k, c in enumerate(clients)}
        self._trained = trained
        self._interior = dict(interior or {})

    def __getitem__(self, node_id: str) -> ModelParams:
        k = self._number.get(node_id)
        return self._interior[node_id] if k is None else self._trained[k]

    def __contains__(self, node_id) -> bool:
        return node_id in self._number or node_id in self._interior

    def __iter__(self) -> Iterator[str]:
        yield from self._number
        yield from self._interior

    def __len__(self) -> int:
        return len(self._number) + len(self._interior)

    def in_turn(self, node_ids: Iterable[str]) -> Iterator[tuple[str, ModelParams]]:
        """``(id, model)`` for ``node_ids`` in the order given. The
        clients' models share one buffer, rebuilt for each
        (:meth:`~spatialfl.nn.ClientModels.each`): a client's model is
        valid only until the next pair is taken."""
        node_ids = list(node_ids)
        clients = self._trained.each([self._number[n] for n in node_ids if n in self._number])
        for node_id in node_ids:
            yield node_id, next(clients) if node_id in self._number else self._interior[node_id]


def models_in_turn(models: Mapping[str, ModelParams], node_ids: Iterable[str]) -> Iterator[tuple[str, ModelParams]]:
    """``(id, model)`` for ``node_ids`` in the order given: by
    :meth:`NodeModels.in_turn` from :class:`NodeModels` (a model is valid
    only until the next pair is taken), by lookup from any other mapping."""
    if isinstance(models, NodeModels):
        return models.in_turn(node_ids)
    return ((node_id, models[node_id]) for node_id in node_ids)


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
        raise SpatialFLError(f"file too short ({len(blob)} bytes) for a model header")
    if blob[:4] != MODEL_MAGIC:
        raise SpatialFLError(f"bad magic {blob[:4]!r}")
    if blob[4] != MODEL_VERSION:
        raise SpatialFLError(f"unsupported format version {blob[4]}")
    dims = struct.unpack("<III", blob[5:17])
    if min(dims) < 1:
        raise SpatialFLError(f"header declares invalid dims {dims}")
    expected = 8 * flat_length(dims)
    payload = blob[17:]
    if len(payload) != expected:
        raise SpatialFLError(
            f"payload is {len(payload)} bytes, dims {dims} require {expected}"
        )
    vector = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    try:
        return ModelParams(vector, dims)
    except ValueError as exc:
        raise SpatialFLError(f"payload rejected: {exc}") from exc
