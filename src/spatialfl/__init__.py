"""Deterministic simulator of spatially encoded multi-tier federated
averaging: from-scratch two-layer classifiers trained per client, spatial
encodings prepended to model inputs, and per-tier (uniform or
sample-weighted) aggregation up a configurable tree, benchmarked against
centralized, ensemble, and flat federated baselines.
"""

from ._version import __version__
from .baselines import BaselineKind, train_centralized
from .data import (
    ClientDataset,
    CsvSchema,
    GeoTable,
    PreprocessConfig,
    SyntheticSpec,
    discretize_target,
    export_csv,
    generate_synthetic,
    ingest_csv,
    partition_clients,
    preprocess,
    train_valid_split,
)
from .federation import (
    AggregationPolicy,
    ClientUpdate,
    TierNode,
    TierTopology,
    aggregate_tree,
    deserialize_model,
    fedavg,
    local_train,
    normalize_weights,
    run_tier_round,
    serialize_model,
    weighted_aggregate,
)
from .harness import (
    EncodingConfig,
    ExperimentConfig,
    ExperimentResult,
    MetricsReport,
    SyntheticSource,
    CsvSource,
    accuracy_score,
    emit_report,
    evaluate,
    load_config,
    run_experiment,
    write_models,
)
from .nn import (
    ModelParams,
    OptimizerState,
    TrainingConfig,
    adam_step,
    backward,
    flatten,
    forward,
    init_params,
    loss_and_grad,
    predict,
    predict_batch,
    predict_rows,
    train,
    unflatten,
)
from .spatial import (
    SpatialAttribute,
    SpatialVocabulary,
    build_vocabulary,
    encode_spatial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
