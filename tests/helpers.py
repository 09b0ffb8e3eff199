"""Shared builders for federation-level tests."""

from dataclasses import replace

import numpy as np

from spatialfl.data import ClientDataset, train_valid_split
from spatialfl.federation import TierNode, TierTopology, round_seed, stack_rows, stack_split
from spatialfl.nn import ModelParams, TrainingConfig, init_params, train_cohort
from spatialfl.seeding import derive_seed
from spatialfl.spatial import SpatialAttribute


def vector_params(dims, values):
    return ModelParams(np.asarray(values, dtype=np.float64), dims)


def no_encoding(batch):
    """Rows of raw features in the row format with no encoding."""
    batch = np.asarray(batch, dtype=np.float64)
    return batch, np.zeros(len(batch), dtype=np.intp), np.empty((1, 0))


def spans(offsets):
    """Contiguous client row sets: client ``k`` owns rows
    ``offsets[k]:offsets[k + 1]``."""
    return [np.arange(lo, hi) for lo, hi in zip(offsets, offsets[1:])]


def flat_topology(client_ids):
    """One root over the given clients: depth-first order is id order."""
    nodes = [TierNode(c, 0, "root") for c in client_ids]
    nodes.append(TierNode("root", 1, None))
    return TierTopology(tuple(nodes))


def interleaved_topology(client_ids):
    """Two regions taking every other id of two or more clients, ``east``
    the odd ones, under one root: depth-first order (``east`` first) is
    not id order. For ``c0``..``c3`` it is ``c1, c3, c0, c2``."""
    nodes = [TierNode(c, 0, "east" if i % 2 else "west") for i, c in enumerate(sorted(client_ids))]
    nodes += [TierNode("east", 1, "root"), TierNode("west", 1, "root"), TierNode("root", 2, None)]
    return TierTopology(tuple(nodes))


def train_rows(topology, datasets, vocab=None):
    """``datasets`` (by client id) laid out under ``topology`` as a run
    lays out its training rows (:func:`stack_split`)."""
    return stack_split(topology, datasets, vocab)


def without_rows_of(rows, client_ids):
    """The stack ``rows`` (:func:`stack_split`) with the rows of the given
    clients removed and every node's span shrunk to match: those clients'
    spans are empty, which no stack of datasets (each holding at least one
    row) gives."""
    raw, labels, codes, enc, node_spans = rows
    keep = np.ones(labels.size, dtype=bool)
    for c in client_ids:
        keep[slice(*node_spans[c])] = False
    kept = np.concatenate(([0], np.cumsum(keep)))
    return (raw[keep], labels[keep], codes[keep], enc,
            {node_id: (int(kept[lo]), int(kept[hi])) for node_id, (lo, hi) in node_spans.items()})


def split_clients(datasets, seed):
    """Every client of ``datasets`` (by client id) split 80/20 as a run
    with master seed ``seed`` splits it: the training and the validation
    datasets, each by client id."""
    train, valid = {}, {}
    for cid, ds in datasets.items():
        train[cid], valid[cid] = train_valid_split(ds, 0.8, derive_seed(seed, "split", cid))
    return train, valid


def per_round_config(config: TrainingConfig, client_id: str, round_index: int) -> TrainingConfig:
    """``config`` seeded as the tiered loop seeds a client in a given round,
    with ``config.seed`` as the master seed."""
    return replace(config, seed=round_seed(config.seed, client_id, round_index))


def train_alone(dataset, init, config, vocab=None):
    """A client's model trained from ``init`` on its training rows alone:
    a cohort of one of the training kernel, seeded with ``config.seed``."""
    raw, labels, codes, enc, offsets = stack_rows([dataset], vocab)
    params, diverged = train_cohort(init, raw, labels, codes, enc, spans(offsets), config, [config.seed])
    assert diverged == {}
    return ModelParams(params[0], init.dims)


def alone_round(datasets, init, config, vocab=None):
    """Round 1 of the clients in ``datasets`` (by client id) as the tiered
    loop hands it on, with each client trained alone (:func:`train_alone`,
    with its round-1 seed): the ``(K, P)`` buffer in ascending client order
    and the clients' training-row counts."""
    ids = sorted(datasets)
    params = np.stack([train_alone(datasets[c], init, per_round_config(config, c, 1), vocab).vector for c in ids])
    return params, [datasets[c].n_rows for c in ids]


def random_buffer(k, dims, rng, max_count=50):
    """``k`` random models of ``dims`` as a ``(K, P)`` buffer, and ``k`` raw
    weights in ``1..max_count``, drawn model, weight, model, weight."""
    rows, counts = [], []
    for _ in range(k):
        rows.append(init_params(dims, seed=int(rng.integers(0, 2 ** 32))).vector)
        counts.append(float(rng.integers(1, max_count + 1)))
    return np.stack(rows), counts


def random_tree(rng, n_clients):
    """A random legal tier tree over ``n_clients`` tier-0 nodes."""
    parent_of = {}
    tiers = [[f"t0n{i:02d}" for i in range(n_clients)]]
    while len(tiers[-1]) > 1:
        children = tiers[-1]
        tier = len(tiers)
        max_parents = len(children) - 1 if len(children) > 2 else 1
        n_parents = int(rng.integers(1, min(max_parents, 4) + 1))
        parents = [f"t{tier}n{j:02d}" for j in range(n_parents)]
        shuffled = [children[i] for i in rng.permutation(len(children))]
        for j in range(n_parents):
            parent_of[shuffled[j]] = parents[j]
        for child in shuffled[n_parents:]:
            parent_of[child] = parents[int(rng.integers(0, n_parents))]
        tiers.append(parents)
    nodes = [
        TierNode(node_id, tier, parent_of.get(node_id))
        for tier, ids in enumerate(tiers)
        for node_id in ids
    ]
    return TierTopology(tuple(nodes))


def separable_client(client_id, n=20, seed=0, flip=False):
    """A 2-class client whose label is the sign of the first feature."""
    rng = np.random.default_rng(seed)
    half = n // 2
    x_neg = np.column_stack([rng.uniform(-1.5, -0.5, half), rng.uniform(-1, 1, half)])
    x_pos = np.column_stack([rng.uniform(0.5, 1.5, n - half), rng.uniform(-1, 1, n - half)])
    features = np.vstack([x_neg, x_pos])
    labels = np.array([0] * half + [1] * (n - half), dtype=np.int64)
    if flip:
        labels = 1 - labels
    return ClientDataset(
        client_id, SpatialAttribute(45.0, -66.0, (client_id,)),
        features, labels, n_classes=2,
    )
