"""Deterministic simulator of spatially encoded multi-tier federated
averaging: from-scratch two-layer classifiers trained per client, spatial
encodings prepended to model inputs, and per-tier (uniform or
sample-weighted) aggregation up a configurable tree, benchmarked against
centralized, ensemble, and flat federated baselines.
"""

from ._version import __version__
from .baselines import BaselineKind
from .data import CsvSchema, PreprocessConfig, SyntheticSpec, export_csv, generate_synthetic
from .federation import AggregationPolicy, deserialize_model, serialize_model
from .harness import (
    CsvSource,
    EncodingConfig,
    ExperimentConfig,
    ExperimentResult,
    MetricsReport,
    SyntheticSource,
    config_from_dict,
    emit_report,
    load_config,
    load_datasets,
    run_experiment,
    synthetic_spec_from_dict,
    vocabulary,
    write_models,
)
from .nn import ModelParams, TrainingConfig, init_params, plan_cohort, predict_rows, train_cohort

# What the CLI, scripts/, the benchmark and the README use: the config
# sections, the pipeline and the model file. Everything else is reached
# through its module.
__all__ = [
    "__version__",
    # Config sections.
    "ExperimentConfig", "SyntheticSource", "CsvSource", "SyntheticSpec", "CsvSchema",
    "PreprocessConfig", "EncodingConfig", "TrainingConfig", "AggregationPolicy", "BaselineKind",
    # The pipeline.
    "load_config", "config_from_dict", "synthetic_spec_from_dict", "load_datasets", "vocabulary",
    "run_experiment", "ExperimentResult", "MetricsReport", "emit_report", "write_models",
    "generate_synthetic", "export_csv",
    # Models: the training kernel, the scorer and the model file.
    "ModelParams", "init_params", "plan_cohort", "train_cohort", "predict_rows",
    "serialize_model", "deserialize_model",
]
