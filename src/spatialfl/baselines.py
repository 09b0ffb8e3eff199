"""Comparison methods that share the tiered protocol's primitives:
centralized networks over pooled rows and a per-client majority-vote
ensemble.

The ensemble members and the single-level federated averages (uniform or
sample-weighted) are not trained here: they are built from the round-1
client models (:class:`~spatialfl.nn.ClientModels`) and training-row
counts that :func:`~spatialfl.federation.run_tier_round` returns, so
every client is trained once per round. The ensemble looks its members
up one at a time, and a flat average is
:func:`~spatialfl.federation.aggregate` over all of them, which rebuilds
each client's weighted vector as its sum takes it. All baselines read the
tiered method's rows (:func:`~spatialfl.federation.stack_split`), so
accuracy differences isolate the aggregation strategy.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, DivergenceError, SpatialFLError
from .federation import StackedRows
from .nn import ClientModels, ModelParams, TrainingConfig, plan_cohort, predict_rows, train_cohort
from .spatial import Encodings


class BaselineKind(str, Enum):
    CENTRALIZED_NN = "centralized_nn"
    ENSEMBLE = "ensemble"
    FLAT_FEDAVG = "flat_fedavg"
    FLAT_FEDAVG_WEIGHTED = "flat_fedavg_weighted"


def train_centralized(
    groups: Sequence[Iterable[str]],
    init: ModelParams,
    config: TrainingConfig,
    seed: int,
    rows: StackedRows,
    enc: Encodings,
) -> ClientModels:
    """One model per group of client ids, in the order given, each over
    its clients' spans of the training stack ``rows``
    (:func:`~spatialfl.federation.stack_split`) pooled in canonical
    (client_id, row) order, each seeded with ``seed`` and deterministic.
    ``enc`` is the encodings its codes index (:func:`~spatialfl.spatial.encoding_table`).

    Every group trains in one call of the training kernel, as one of its
    clients, and the call's :class:`~spatialfl.nn.ClientModels` are
    returned. A group without training rows raises
    :class:`DataError`; if training diverges, the first such group
    in the order given is reported.
    """
    raw, labels, codes, spans = rows
    pools = [np.concatenate([np.arange(*spans[c]) for c in sorted(set(group))] or [np.arange(0)])
             for group in groups]
    if any(r.size == 0 for r in pools):
        raise DataError("pooled training set is empty")
    plan = plan_cohort(raw, labels, codes, enc, pools, init.dims, config)
    models, diverged = train_cohort(plan, init, [seed] * len(pools))
    if diverged:
        raise DivergenceError(f"centralized baseline: {diverged[min(diverged)]}")
    return models


def ensemble_predict_batch(
    models: Mapping[str, ModelParams],
    raw: np.ndarray,
    codes: np.ndarray,
    enc: Encodings,
) -> np.ndarray:
    """Hard majority vote per row (ties to the lowest class) of the member
    models, keyed by their clients' ids, over rows in the training
    kernel's format (see :func:`~spatialfl.nn.predict_rows`), counted one
    member at a time into a classes x rows array, each member looked up
    only when it is counted. A member whose dims differ from the first's
    raises :class:`SpatialFLError`, and one whose logits are not finite
    :class:`DivergenceError` naming its client."""
    if not models:
        raise SpatialFLError("ensemble needs at least one model")
    rows = np.arange(len(raw))
    dims = counts = None
    for client_id in models:
        m = models[client_id]
        if counts is None:
            dims, counts = m.dims, np.zeros((m.n_classes, rows.size), dtype=np.int64)
        elif m.dims != dims:
            raise SpatialFLError("ensemble members disagree on dims")
        with DivergenceError.naming(f"client {client_id!r}"):
            counts[predict_rows(m, raw, codes, enc), rows] += 1
    return np.argmax(counts, axis=0)
