"""Shared builders for federation-level tests."""

import numpy as np

from spatialfl.data import ClientDataset, train_valid_split
from spatialfl.federation import (
    TierTopology,
    aggregate,
    plan_rounds,
    round_seed,
    run_tier_round,
    stack_rows,
    stack_split,
)
from spatialfl.nn import ModelParams, init_params, plan_cohort, train_cohort
from spatialfl.seeding import derive_seed
from spatialfl.spatial import Encodings, SpatialAttribute, encoding_table


def vector_params(dims, values):
    return ModelParams(np.asarray(values, dtype=np.float64), dims)


def no_encoding(batch):
    """Rows of raw features in the row format with no encoding."""
    batch = np.asarray(batch, dtype=np.float64)
    return batch, np.zeros(len(batch), dtype=np.intp), empty_encodings(1)


def empty_encodings(k):
    """``k`` encodings of width 0: encoding off."""
    return Encodings(np.empty((k, 0)), np.empty((k, 0), dtype=np.intp), 0)


def spans(offsets):
    """Contiguous client row sets: client ``k`` owns rows
    ``offsets[k]:offsets[k + 1]``."""
    return [np.arange(lo, hi) for lo, hi in zip(offsets, offsets[1:])]


def flat_topology(client_ids):
    """One root over the given clients: depth-first order is id order."""
    return TierTopology((c,) for c in client_ids)


def interleaved_topology(client_ids):
    """Two regions taking every other id of two or more clients, ``east``
    the odd ones, under one root: depth-first order (``east`` first) is
    not id order. For ``c0``..``c3`` it is ``c1, c3, c0, c2``."""
    return TierTopology((c, "east" if i % 2 else "west") for i, c in enumerate(sorted(client_ids)))


def train_rows(topology, datasets, vocab=None):
    """``datasets`` (by client id) laid out under ``topology`` as a run
    lays out its training rows (:func:`stack_split`), and the clients'
    encodings that the rows' codes index
    (:func:`~spatialfl.spatial.encoding_table`)."""
    return stack_split(topology, datasets), encoding_table(
        [datasets[c].spatial for c in topology.client_order], vocab)


def without_rows_of(rows, client_ids):
    """The stack ``rows`` (:func:`stack_split`) with the rows of the given
    clients removed and every node's span shrunk to match: those clients'
    spans are empty, which no stack of datasets (each holding at least one
    row) gives."""
    raw, labels, codes, node_spans = rows
    keep = np.ones(labels.size, dtype=bool)
    for c in client_ids:
        keep[slice(*node_spans[c])] = False
    kept = np.concatenate(([0], np.cumsum(keep)))
    return (raw[keep], labels[keep], codes[keep],
            {node_id: (int(kept[lo]), int(kept[hi])) for node_id, (lo, hi) in node_spans.items()})


def split_clients(datasets, seed):
    """Every client of ``datasets`` (by client id) split 80/20 as a run
    with master seed ``seed`` splits it: the training and the validation
    datasets, each by client id."""
    train, valid = {}, {}
    for cid, ds in datasets.items():
        train[cid], valid[cid] = train_valid_split(ds, 0.8, derive_seed(seed, "split", cid))
    return train, valid


def train_alone(dataset, init, config, seed, vocab=None):
    """A client's model trained from ``init`` on its training rows alone:
    a cohort of one of the training kernel, seeded with ``seed``."""
    raw, labels, codes, offsets = stack_rows([dataset])
    enc = encoding_table([dataset.spatial], vocab)
    plan = plan_cohort(raw, labels, codes, enc, spans(offsets), init.dims, config)
    models, diverged = train_cohort(plan, init, [seed])
    assert diverged == {}
    return models[0]


def alone_round(datasets, init, config, seed, vocab=None):
    """Round 1 of the clients in ``datasets`` (by client id) as
    :func:`run_tier_round` returns it under master seed ``seed``, with each
    client trained alone (:func:`train_alone`, with its round-1 seed): the
    ``(K, P)`` buffer in ascending client order and the clients'
    training-row counts."""
    ids = sorted(datasets)
    params = np.stack([train_alone(datasets[c], init, config, round_seed(seed, c, 1), vocab).vector for c in ids])
    return params, [datasets[c].n_rows for c in ids]


def tier_round(topology, stacked, broadcast, mode, config, seed, round_index):
    """One :func:`run_tier_round` on the training stack and encodings
    ``stacked`` (:func:`train_rows`), planned for it alone."""
    plan = plan_rounds(topology, *stacked, broadcast.dims, config)
    return run_tier_round(topology, plan, broadcast, mode, seed, round_index)


def run_rounds(topology, stacked, init, mode, config, seed, rounds):
    """``rounds`` rounds of :func:`run_tier_round` from ``init``, each
    broadcasting the last root model, on one plan of the training stack
    and encodings ``stacked`` (:func:`train_rows`), as a run loops
    them: the final model of every node, clients included, and round 1's
    client models and counts."""
    plan = plan_rounds(topology, *stacked, init.dims, config)
    broadcast = init
    for round_index in range(1, rounds + 1):
        params, counts, models = run_tier_round(topology, plan, broadcast, mode, seed, round_index)
        if round_index == 1:
            first = params, counts
        broadcast = models[topology.root_id]
    return {**dict(zip(topology.clients(), params)), **models}, first


def dense(models):
    """Client models (:class:`~spatialfl.nn.ClientModels`) as the rows of
    one ``(K, P)`` array, each rebuilt on its own."""
    return np.stack([models.vector(k) for k in range(len(models))])


def random_buffer(k, dims, rng, max_count=50):
    """``k`` random models of ``dims`` as a ``(K, P)`` buffer, and ``k`` raw
    weights in ``1..max_count``, drawn model, weight, model, weight."""
    rows, counts = [], []
    for _ in range(k):
        rows.append(init_params(dims, seed=int(rng.integers(0, 2 ** 32))).vector)
        counts.append(float(rng.integers(1, max_count + 1)))
    return np.stack(rows), counts


def random_paths(rng, n_clients):
    """The leaf-to-root paths, in ascending leaf order, of a random tier
    tree over ``n_clients`` (two or more) clients: each tier above the
    clients has one to four nodes, fewer than the tier below it, until a
    tier of one node, which the tree's root stands for."""
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
    paths = []
    for leaf in tiers[0]:
        # Up to the last tier's one node, which the tree's root replaces.
        path = [leaf]
        while path[-1] in parent_of and parent_of[path[-1]] in parent_of:
            path.append(parent_of[path[-1]])
        paths.append(tuple(path))
    return paths


def random_tree(rng, n_clients):
    """A random tier tree over ``n_clients`` (two or more) clients
    (:func:`random_paths`)."""
    return TierTopology(random_paths(rng, n_clients))


def child_order_models(topology, rows, dims, mode):
    """Every interior node's model as :func:`aggregate` over its
    children in ascending id order, from ``rows``: client id to
    (parameter row, raw weight). An interior child brings its own model
    and the sum of its clients' weights."""
    models = {}

    def fold(node):
        if node in rows:
            return rows[node]
        parts = [fold(child) for child in sorted(topology.children(node))]
        models[node] = aggregate([v for v, _ in parts], [w for _, w in parts], mode, dims)
        return models[node].vector, sum(w for _, w in parts)

    fold(topology.root_id)
    return models


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
