"""Comparison methods that share the tiered protocol's primitives: a
centralized network over pooled rows and a per-client majority-vote
ensemble.

The ensemble members and the single-level federated averages (uniform or
sample-weighted) are not trained here: they are built from the round-1
client updates that :func:`~spatialfl.federation.run_tier_round`
returns, so every client is trained once per round. All baselines encode
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
    clients: Iterable[ClientDataset],
    init: ModelParams,
    config: TrainingConfig,
    vocab: SpatialVocabulary | None,
) -> ModelParams:
    """One model over every client's training rows, pooled in canonical
    (client_id, row) order, seeded and deterministic: a cohort of one
    whose rows carry their own clients' encodings."""
    raw, labels, codes, enc, _ = stack_rows(sorted(clients, key=lambda c: c.client_id), vocab, "train")
    if labels.size == 0:
        raise EmptyDatasetError("pooled training set is empty")
    params, diverged = train_cohort(init, raw, labels, codes, enc, [0, labels.size], config, [config.seed])
    if diverged:
        raise DivergenceError(f"centralized baseline: {diverged[0]}")
    return ModelParams(params[0], init.dims)


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
