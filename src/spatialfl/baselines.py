"""Comparison methods that share the tiered protocol's primitives:
centralized networks over pooled rows and a per-client majority-vote
ensemble.

The ensemble members and the single-level federated averages (uniform or
sample-weighted) are not trained here: they are built from the round-1
``(K, P)`` parameter buffer and training-row counts that
:func:`~spatialfl.federation.run_tier_round` passes to its ``first_round``
callback, so every client is trained once per round. The members are
views of the buffer's rows, and a flat average is
:func:`~spatialfl.federation.aggregate` over all of them. The run scores
them in that callback, before round 2 trains, so round 1's buffer is
released before round 2's exists. All baselines read the tiered method's
rows (:func:`~spatialfl.federation.stack_split`), so accuracy differences
isolate the aggregation strategy.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DivergenceError, EmptyAggregationError, EmptyDatasetError, ShapeError
from .federation import StackedRows
from .nn import ModelParams, TrainingConfig, predict_rows, train_cohort


class BaselineKind(str, Enum):
    CENTRALIZED_NN = "centralized_nn"
    ENSEMBLE = "ensemble"
    FLAT_FEDAVG = "flat_fedavg"
    FLAT_FEDAVG_WEIGHTED = "flat_fedavg_weighted"


def train_centralized(
    groups: Sequence[Iterable[str]],
    init: ModelParams,
    config: TrainingConfig,
    rows: StackedRows,
) -> list[ModelParams]:
    """One model per group of client ids, in the order given, each over
    its clients' spans of the training stack ``rows``
    (:func:`~spatialfl.federation.stack_split`) pooled in canonical
    (client_id, row) order, seeded with ``config.seed`` and deterministic.

    Every group trains in one call of the training kernel, as one of its
    clients. A group without training rows raises
    :class:`EmptyDatasetError`; if training diverges, the first such group
    in the order given is reported.
    """
    raw, labels, codes, enc, spans = rows
    pools = [np.concatenate([np.arange(*spans[c]) for c in sorted(set(group))] or [np.arange(0)])
             for group in groups]
    if any(r.size == 0 for r in pools):
        raise EmptyDatasetError("pooled training set is empty")
    params, diverged = train_cohort(init, raw, labels, codes, enc, pools, config, [config.seed] * len(pools))
    if diverged:
        raise DivergenceError(f"centralized baseline: {diverged[min(diverged)]}")
    return [ModelParams(vector, init.dims) for vector in params]


def ensemble_predict_batch(
    models: Mapping[str, ModelParams],
    raw: np.ndarray,
    codes: np.ndarray,
    enc: np.ndarray,
) -> np.ndarray:
    """Hard majority vote per row (ties to the lowest class) of the member
    models, keyed by their clients' ids, over rows in the training
    kernel's format (see :func:`~spatialfl.nn.predict_rows`), counted one
    member at a time into a classes x rows array. A member whose logits
    are not finite raises :class:`DivergenceError` naming its client."""
    if not models:
        raise EmptyAggregationError("ensemble needs at least one model")
    dims = next(iter(models.values())).dims
    if any(m.dims != dims for m in models.values()):
        raise ShapeError("ensemble members disagree on dims")
    rows = np.arange(len(raw))
    counts = np.zeros((dims[2], rows.size), dtype=np.int64)
    for client_id, m in models.items():
        with DivergenceError.naming(f"client {client_id!r}"):
            counts[predict_rows(m, raw, codes, enc), rows] += 1
    return np.argmax(counts, axis=0)
