"""Shared builders for federation-level tests."""

import numpy as np

from spatialfl.data import ClientDataset
from spatialfl.federation import ClientUpdate, TierNode, TierTopology, stack_rows
from spatialfl.nn import ModelParams, init_params, train_cohort
from spatialfl.spatial import SpatialAttribute


def vector_params(dims, values):
    return ModelParams(np.asarray(values, dtype=np.float64), dims)


def no_encoding(batch):
    """Rows of raw features in the row format with no encoding."""
    batch = np.asarray(batch, dtype=np.float64)
    return batch, np.zeros(len(batch), dtype=np.intp), np.empty((1, 0))


def train_alone(dataset, init, config, vocab=None):
    """A client's model trained from ``init`` on its training rows alone:
    a cohort of one of the training kernel, seeded with ``config.seed``."""
    raw, labels, codes, enc, offsets = stack_rows([dataset], vocab, "train")
    params, diverged = train_cohort(init, raw, labels, codes, enc, offsets, config, [config.seed])
    assert diverged == {}
    return ModelParams(params[0], init.dims)


def alone_update(dataset, init, config, vocab=None):
    """:func:`train_alone` as the client's update, weighted by its rows."""
    return ClientUpdate(dataset.client_id, train_alone(dataset, init, config, vocab),
                        float(dataset.count("train")))


def random_update(client_id, dims, rng, max_count=50):
    return ClientUpdate(
        client_id=client_id,
        params=init_params(dims, seed=int(rng.integers(0, 2 ** 32))),
        spatial_weight_raw=float(rng.integers(1, max_count + 1)),
    )


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
