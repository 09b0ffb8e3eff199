"""Comparison methods that share the tiered protocol's primitives:
centralized networks over pooled rows and a per-client majority-vote
ensemble.

The ensemble members and the single-level federated averages (uniform or
sample-weighted) are not trained here: they are built from the round-1
client updates that :func:`~spatialfl.federation.run_tier_round` passes
to its ``first_round`` callback, so every client is trained once per
round. The run scores them in that callback, before round 2 trains, so
round 1's models are released before round 2's exist. All baselines encode
inputs exactly like the tiered method (pass ``vocab=None`` for the
encoding-off ablation), so accuracy differences isolate the aggregation
strategy.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .data import ClientDataset
from .errors import DivergenceError, EmptyAggregationError, EmptyDatasetError, ShapeError
from .federation import stack_rows
from .nn import ModelParams, TrainingConfig, predict_rows, train_cohort
from .spatial import SpatialVocabulary


class BaselineKind(str, Enum):
    CENTRALIZED_NN = "centralized_nn"
    ENSEMBLE = "ensemble"
    FLAT_FEDAVG = "flat_fedavg"
    FLAT_FEDAVG_WEIGHTED = "flat_fedavg_weighted"


def train_centralized(
    groups: Sequence[Iterable[ClientDataset]],
    init: ModelParams,
    config: TrainingConfig,
    vocab: SpatialVocabulary | None,
) -> list[ModelParams]:
    """One model per group of clients, in the order given, each over its
    clients' training rows pooled in canonical (client_id, row) order,
    seeded with ``config.seed`` and deterministic.

    Every group trains in one call of the training kernel, as one of its
    clients. The clients' rows and encodings are stacked once; a group's
    row set is its clients' rows, so each client's encoding is in the
    table once and every row keeps its own client's encoding. A group
    without training rows raises :class:`EmptyDatasetError`; if training
    diverges, the first such group in the order given is reported.
    """
    groups = [list(group) for group in groups]
    clients = sorted({c.client_id: c for group in groups for c in group}.values(), key=lambda c: c.client_id)
    raw, labels, codes, enc, _ = stack_rows(clients, vocab, "train")
    # A row's code is its client's index, so a group's rows in (client_id,
    # row) order are the rows whose codes are its clients', ascending.
    position = {c.client_id: i for i, c in enumerate(clients)}
    rows = [np.flatnonzero(np.isin(codes, [position[c.client_id] for c in group])) for group in groups]
    if any(r.size == 0 for r in rows):
        raise EmptyDatasetError("pooled training set is empty")
    params, diverged = train_cohort(init, raw, labels, codes, enc, rows, config, [config.seed] * len(groups))
    if diverged:
        raise DivergenceError(f"centralized baseline: {diverged[min(diverged)]}")
    return [ModelParams(vector, init.dims) for vector in params]


def ensemble_predict_batch(
    models: Sequence[ModelParams],
    raw: np.ndarray,
    codes: np.ndarray,
    enc: np.ndarray,
) -> np.ndarray:
    """Hard majority vote per row (ties to the lowest class) over rows in
    the training kernel's format (see :func:`~spatialfl.nn.predict_rows`),
    counted one member at a time into a classes x rows array."""
    if not models:
        raise EmptyAggregationError("ensemble needs at least one model")
    dims = models[0].dims
    if any(m.dims != dims for m in models):
        raise ShapeError("ensemble members disagree on dims")
    rows = np.arange(len(raw))
    counts = np.zeros((dims[2], rows.size), dtype=np.int64)
    for m in models:
        counts[predict_rows(m, raw, codes, enc), rows] += 1
    return np.argmax(counts, axis=0)
