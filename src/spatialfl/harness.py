"""Experiment orchestration: validated JSON configs, the full pipeline
(data, split, encoding, tiered training, baselines), and deterministic
report emission.

Identical config plus master seed reproduces byte-identical report files
and model files. All randomness below the master seed is derived per
component (init, per-client splits, per-client per-round training), so
adding a client or a baseline never perturbs the others.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._version import __version__
from .baselines import BaselineKind, ensemble_predict_batch, train_centralized
from .data import (
    ROOT_ID,
    ClientDataset,
    CsvSchema,
    PreprocessConfig,
    SyntheticSpec,
    generate_synthetic,
    ingest_csv,
    partition_clients,
    preprocess,
    train_valid_split,
)
from .errors import ConfigError, EmptyEvaluationError, SpatialFLError
from .federation import (
    AggregationPolicy,
    TierNode,
    TierTopology,
    fedavg,
    run_tier_round,
    serialize_model,
    stack_rows,
    weighted_aggregate,
)
from .nn import ModelParams, TrainingConfig, init_params, predict_rows
from .seeding import derive_seed
from .spatial import SpatialVocabulary, build_vocabulary

METHOD_TIERED = "n_tier_fl"
METHOD_CENTRALIZED_REGIONAL = "centralized_nn_regional"

_TOP_KEYS = {
    "seed", "data", "n_classes", "preprocess", "encoding", "topology", "training",
    "hidden_dim", "aggregation", "baselines", "split_ratio", "min_rows",
    "include_date_feature", "output_dir",
}
_DATA_KEYS = {"kind", "path", "schema", "spec"}
_SCHEMA_KEYS = {"client_label", "hierarchy", "latitude", "longitude", "ref_date", "target", "features"}
_SPEC_KEYS = {"n_regions", "clients_per_region", "rows_per_client", "n_classes",
              "region_separation", "noise_rate", "seed"}
_PREPROCESS_KEYS = {"fill_missing", "drop_outliers", "outlier_zscore"}
_ENCODING_KEYS = {"enabled", "use_coordinates", "use_hierarchy"}
_TRAINING_KEYS = {"learning_rate", "epochs", "batch_size", "adam_beta1", "adam_beta2", "adam_epsilon"}
_AGGREGATION_KEYS = {"mode", "rounds"}


@dataclass(frozen=True)
class EncodingConfig:
    """Whether spatial encodings are prepended to model inputs at all, and
    which parts they carry."""

    enabled: bool = True
    use_coordinates: bool = True
    use_hierarchy: bool = True


@dataclass(frozen=True)
class CsvSource:
    path: str
    resolved: Path
    schema: CsvSchema


@dataclass(frozen=True)
class SyntheticSource:
    spec: SyntheticSpec


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; see README for the JSON shape."""

    data: CsvSource | SyntheticSource
    seed: int = 0
    n_classes: int = 3
    preprocess: PreprocessConfig = PreprocessConfig()
    encoding: EncodingConfig = EncodingConfig()
    topology_groups: dict[str, tuple[str, ...]] | None = None
    training: TrainingConfig = TrainingConfig()
    hidden_dim: int = 16
    policy: AggregationPolicy = AggregationPolicy()
    baselines: tuple[BaselineKind, ...] = ()
    split_ratio: float = 0.8
    min_rows: int = 5
    include_date_feature: bool = True
    output_dir: str = "out"

    def __post_init__(self):
        # Synthetic data owns the class count.
        if isinstance(self.data, SyntheticSource):
            self.n_classes = self.data.spec.n_classes

    def to_json_dict(self) -> dict:
        if isinstance(self.data, SyntheticSource):
            spec = self.data.spec
            data = {"kind": "synthetic", "spec": {
                "n_regions": spec.n_regions,
                "clients_per_region": spec.clients_per_region,
                "rows_per_client": spec.rows_per_client,
                "n_classes": spec.n_classes,
                "region_separation": spec.region_separation,
                "noise_rate": spec.noise_rate,
                "seed": spec.seed,
            }}
        else:
            schema = self.data.schema
            data = {"kind": "csv", "path": self.data.path, "schema": {
                "client_label": schema.client_label,
                "hierarchy": list(schema.hierarchy) if schema.hierarchy is not None else None,
                "latitude": schema.latitude,
                "longitude": schema.longitude,
                "ref_date": schema.ref_date,
                "target": schema.target,
                "features": list(schema.features) if schema.features is not None else None,
            }}
        return {
            "seed": self.seed,
            "data": data,
            "n_classes": self.n_classes,
            "preprocess": {
                "fill_missing": self.preprocess.fill_missing,
                "drop_outliers": self.preprocess.drop_outliers,
                "outlier_zscore": self.preprocess.outlier_zscore,
            },
            "encoding": {
                "enabled": self.encoding.enabled,
                "use_coordinates": self.encoding.use_coordinates,
                "use_hierarchy": self.encoding.use_hierarchy,
            },
            "topology": {k: list(v) for k, v in self.topology_groups.items()}
            if self.topology_groups is not None else None,
            "training": {
                "learning_rate": self.training.learning_rate,
                "epochs": self.training.epochs,
                "batch_size": self.training.batch_size,
                "adam_beta1": self.training.adam_beta1,
                "adam_beta2": self.training.adam_beta2,
                "adam_epsilon": self.training.adam_epsilon,
            },
            "hidden_dim": self.hidden_dim,
            "aggregation": {"mode": self.policy.mode, "rounds": self.policy.rounds},
            "baselines": [b.value for b in self.baselines],
            "split_ratio": self.split_ratio,
            "min_rows": self.min_rows,
            "include_date_feature": self.include_date_feature,
            "output_dir": self.output_dir,
        }


@dataclass
class MetricsReport:
    """Everything an experiment produced, JSON-shaped and reproducible."""

    version: str
    config: dict
    seeds: dict
    vocabulary: dict | None
    oracle_accuracy: float | None
    tier_accuracy: list[dict]
    global_accuracy: dict[str, float]
    client_predictions: dict[str, dict]

    def __post_init__(self):
        for row in self.tier_accuracy:
            if not 0.0 <= row["accuracy"] <= 1.0:
                raise ValueError(f"accuracy out of range in row {row}")
        for acc in self.global_accuracy.values():
            if not 0.0 <= acc <= 1.0:
                raise ValueError("global accuracy out of range")
        for client_id, vectors in self.client_predictions.items():
            if len(vectors["predicted"]) != len(vectors["actual"]):
                raise ValueError(f"client {client_id!r} prediction vectors differ in length")

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config,
            "seeds": self.seeds,
            "vocabulary": self.vocabulary,
            "oracle_accuracy": self.oracle_accuracy,
            "tier_accuracy": self.tier_accuracy,
            "global_accuracy": self.global_accuracy,
            "client_predictions": self.client_predictions,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping) -> "MetricsReport":
        return cls(**{k: payload[k] for k in (
            "version", "config", "seeds", "vocabulary", "oracle_accuracy",
            "tier_accuracy", "global_accuracy", "client_predictions",
        )})


@dataclass
class ExperimentResult:
    report: MetricsReport
    node_models: dict[str, ModelParams]


# -- evaluation ----------------------------------------------------------------

def accuracy_score(predicted: Sequence[int], actual: Sequence[int]) -> float:
    """Fraction of positions where predicted equals actual."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError(f"length mismatch: {predicted.shape} vs {actual.shape}")
    if predicted.size == 0:
        raise EmptyEvaluationError("cannot score zero rows")
    return float(np.mean(predicted == actual))


def evaluate(
    model: ModelParams,
    datasets: Iterable[ClientDataset],
    vocab: SpatialVocabulary | None,
    split: str | None = "validation",
) -> float:
    """Accuracy of one model over the pooled rows of the given clients."""
    raw, labels, codes, enc, _ = stack_rows(list(datasets), vocab, split)
    if labels.size == 0:
        raise EmptyEvaluationError("no rows to evaluate")
    return accuracy_score(predict_rows(model, raw, codes, enc), labels)


# -- config loading -------------------------------------------------------------

def _reject_unknown(section: Mapping, allowed: set, where: str, errors: list) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"unknown key {key!r}" + (f" in {where}" if where else ""))


def _expect_int(section: Mapping, key: str, default, errors: list, where: str,
                minimum: int | None = None):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        errors.append(f"{where}{key} must be an integer")
        return default
    if minimum is not None and value < minimum:
        errors.append(f"{where}{key} must be >= {minimum}")
        return default
    return value


def _expect_number(section: Mapping, key: str, default, errors: list, where: str):
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errors.append(f"{where}{key} must be a number")
        return default
    return float(value)


def _expect_bool(section: Mapping, key: str, default, errors: list, where: str):
    value = section.get(key, default)
    if not isinstance(value, bool):
        errors.append(f"{where}{key} must be a boolean")
        return default
    return value


def _expect_str(section: Mapping, key: str, default, errors: list, where: str):
    value = section.get(key, default)
    if not isinstance(value, str):
        errors.append(f"{where}{key} must be a string")
        return default
    return value


def _section(raw: Mapping, key: str, errors: list) -> Mapping:
    value = raw.get(key)
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        errors.append(f"{key} must be an object")
        return {}
    return value


def _parse_spec(spec_raw: Mapping, errors: list, where: str) -> SyntheticSpec | None:
    _reject_unknown(spec_raw, _SPEC_KEYS, where, errors)
    fields = {
        "n_regions": _expect_int(spec_raw, "n_regions", 1, errors, f"{where}.", minimum=1),
        "clients_per_region": _expect_int(spec_raw, "clients_per_region", 1, errors, f"{where}.", minimum=1),
        "rows_per_client": _expect_int(spec_raw, "rows_per_client", 1, errors, f"{where}.", minimum=1),
        "n_classes": _expect_int(spec_raw, "n_classes", 3, errors, f"{where}."),
        "region_separation": _expect_number(spec_raw, "region_separation", 1.0, errors, f"{where}."),
        "noise_rate": _expect_number(spec_raw, "noise_rate", 0.0, errors, f"{where}."),
        "seed": _expect_int(spec_raw, "seed", 0, errors, f"{where}."),
    }
    for key in ("n_regions", "clients_per_region", "rows_per_client"):
        if key not in spec_raw:
            errors.append(f"{where}.{key} is required")
    try:
        return SyntheticSpec(**fields)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def synthetic_spec_from_dict(raw: Mapping) -> SyntheticSpec:
    """Validate a bare synthetic-spec document (the gen-synthetic input)."""
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigError(["spec root must be an object"])
    spec = _parse_spec(raw, errors, "spec")
    if errors:
        raise ConfigError(errors)
    assert spec is not None
    return spec


def _parse_data(raw: Mapping, base_dir: Path, errors: list):
    data = raw.get("data")
    if not isinstance(data, Mapping):
        errors.append("data section is required and must be an object")
        return None, None
    _reject_unknown(data, _DATA_KEYS, "data", errors)
    kind = data.get("kind")
    if kind == "synthetic":
        spec_raw = data.get("spec")
        if not isinstance(spec_raw, Mapping):
            errors.append("data.spec is required for synthetic data")
            return None, None
        spec = _parse_spec(spec_raw, errors, "data.spec")
        if spec is None:
            return None, None
        return SyntheticSource(spec), spec
    if kind == "csv":
        path = _expect_str(data, "path", "", errors, "data.")
        if not path:
            errors.append("data.path is required for csv data")
            return None, None
        resolved = Path(path)
        if not resolved.is_absolute():
            resolved = base_dir / resolved
        if not resolved.exists():
            errors.append(f"data.path does not exist: {resolved}")
        schema_raw = data.get("schema", {})
        if not isinstance(schema_raw, Mapping):
            errors.append("data.schema must be an object")
            schema_raw = {}
        _reject_unknown(schema_raw, _SCHEMA_KEYS, "data.schema", errors)
        kwargs = {}
        for key in ("client_label", "latitude", "longitude", "ref_date", "target"):
            if key in schema_raw:
                kwargs[key] = _expect_str(schema_raw, key, getattr(CsvSchema, key), errors, "data.schema.")
        for key in ("hierarchy", "features"):
            if key in schema_raw and schema_raw[key] is not None:
                value = schema_raw[key]
                if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                    errors.append(f"data.schema.{key} must be a list of column names")
                else:
                    kwargs[key] = tuple(value)
        return CsvSource(path=path, resolved=resolved, schema=CsvSchema(**kwargs)), None
    errors.append("data.kind must be 'csv' or 'synthetic'")
    return None, None


def config_from_dict(raw: Mapping, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Validate a JSON-shaped config, collecting every problem before failing."""
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigError(["config root must be an object"])
    _reject_unknown(raw, _TOP_KEYS, "", errors)

    seed = _expect_int(raw, "seed", 0, errors, "")
    source, spec = _parse_data(raw, base_dir, errors)

    n_classes_given = raw.get("n_classes")
    if spec is not None:
        n_classes = spec.n_classes
        if n_classes_given is not None and n_classes_given != spec.n_classes:
            errors.append("n_classes conflicts with data.spec.n_classes")
    else:
        n_classes = n_classes_given if n_classes_given is not None else 3
    if not isinstance(n_classes, int) or isinstance(n_classes, bool) or n_classes not in (2, 3):
        errors.append("n_classes must be 2 or 3")
        n_classes = 3

    pre_raw = _section(raw, "preprocess", errors)
    _reject_unknown(pre_raw, _PREPROCESS_KEYS, "preprocess", errors)
    zscore = _expect_number(pre_raw, "outlier_zscore", 3.0, errors, "preprocess.")
    if zscore <= 0:
        errors.append("preprocess.outlier_zscore must be positive")
        zscore = 3.0
    pre = PreprocessConfig(
        fill_missing=_expect_bool(pre_raw, "fill_missing", True, errors, "preprocess."),
        drop_outliers=_expect_bool(pre_raw, "drop_outliers", True, errors, "preprocess."),
        outlier_zscore=zscore,
    )

    enc_raw = _section(raw, "encoding", errors)
    _reject_unknown(enc_raw, _ENCODING_KEYS, "encoding", errors)
    enc = EncodingConfig(
        enabled=_expect_bool(enc_raw, "enabled", True, errors, "encoding."),
        use_coordinates=_expect_bool(enc_raw, "use_coordinates", True, errors, "encoding."),
        use_hierarchy=_expect_bool(enc_raw, "use_hierarchy", True, errors, "encoding."),
    )
    if enc.enabled and not (enc.use_coordinates or enc.use_hierarchy):
        errors.append("encoding: enable coordinates or hierarchy, or disable encoding entirely")

    groups = None
    if raw.get("topology") is not None:
        topo_raw = raw["topology"]
        if not isinstance(topo_raw, Mapping):
            errors.append("topology must be an object mapping group name to leaf list")
        else:
            groups = {}
            seen: dict[str, str] = {}
            for name, leaves in topo_raw.items():
                if not isinstance(leaves, list) or not leaves or not all(isinstance(v, str) for v in leaves):
                    errors.append(f"topology.{name} must be a non-empty list of leaf labels")
                    continue
                if name == ROOT_ID:
                    errors.append(f"topology group {name!r} is the reserved id of the root node")
                    continue
                for leaf in leaves:
                    if leaf in seen:
                        errors.append(f"topology assigns leaf {leaf!r} to both {seen[leaf]!r} and {name!r}")
                    seen[leaf] = name
                groups[name] = tuple(leaves)

    train_raw = _section(raw, "training", errors)
    _reject_unknown(train_raw, _TRAINING_KEYS, "training", errors)
    try:
        training = TrainingConfig(
            learning_rate=_expect_number(train_raw, "learning_rate", 0.01, errors, "training."),
            epochs=_expect_int(train_raw, "epochs", 50, errors, "training."),
            batch_size=_expect_int(train_raw, "batch_size", 32, errors, "training."),
            adam_beta1=_expect_number(train_raw, "adam_beta1", 0.9, errors, "training."),
            adam_beta2=_expect_number(train_raw, "adam_beta2", 0.999, errors, "training."),
            adam_epsilon=_expect_number(train_raw, "adam_epsilon", 1e-8, errors, "training."),
            seed=seed if isinstance(seed, int) else 0,
        )
    except ValueError as exc:
        errors.append(f"training: {exc}")
        training = TrainingConfig(seed=0)

    hidden_dim = _expect_int(raw, "hidden_dim", 16, errors, "", minimum=1)

    agg_raw = _section(raw, "aggregation", errors)
    _reject_unknown(agg_raw, _AGGREGATION_KEYS, "aggregation", errors)
    mode = _expect_str(agg_raw, "mode", "sample_weighted", errors, "aggregation.")
    rounds = _expect_int(agg_raw, "rounds", 1, errors, "aggregation.")
    try:
        policy = AggregationPolicy(mode=mode, rounds=rounds)
    except ValueError as exc:
        errors.append(f"aggregation: {exc}")
        policy = AggregationPolicy()

    baselines: list[BaselineKind] = []
    baselines_raw = raw.get("baselines", [])
    if not isinstance(baselines_raw, list):
        errors.append("baselines must be a list")
    else:
        valid = {k.value for k in BaselineKind}
        for name in baselines_raw:
            if not isinstance(name, str) or name not in valid:
                errors.append(f"unknown baseline {name!r}; choose from {sorted(valid)}")
            elif BaselineKind(name) in baselines:
                errors.append(f"baseline {name!r} listed twice")
            else:
                baselines.append(BaselineKind(name))

    split_ratio = _expect_number(raw, "split_ratio", 0.8, errors, "")
    if not 0.0 < split_ratio < 1.0:
        errors.append("split_ratio must lie strictly between 0 and 1")
        split_ratio = 0.8
    min_rows = _expect_int(raw, "min_rows", 5, errors, "", minimum=1)
    include_date = _expect_bool(raw, "include_date_feature", True, errors, "")
    output_dir = _expect_str(raw, "output_dir", "out", errors, "")

    if errors:
        raise ConfigError(errors)
    assert source is not None
    return ExperimentConfig(
        data=source, seed=seed, n_classes=n_classes, preprocess=pre, encoding=enc,
        topology_groups=groups, training=training, hidden_dim=hidden_dim, policy=policy,
        baselines=tuple(baselines), split_ratio=split_ratio, min_rows=min_rows,
        include_date_feature=include_date, output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file; lists every problem at once."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file does not exist: {path}"])
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    return config_from_dict(raw, base_dir=path.parent)


# -- experiment pipeline ---------------------------------------------------------

@contextmanager
def _stage(name: str):
    """Annotate any package error with the pipeline stage it came from."""
    try:
        yield
    except SpatialFLError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
        raise


def grouped_topology(leaves: Iterable[str], groups: Mapping[str, Sequence[str]]) -> TierTopology:
    """Apply a config-level grouping of leaves into tier-1 nodes."""
    leaves = sorted(leaves)
    assigned: dict[str, str] = {}
    for name in sorted(groups):
        for leaf in groups[name]:
            assigned[leaf] = name
    unknown = sorted(set(assigned) - set(leaves))
    if unknown:
        raise ConfigError([f"topology override references unknown leaves: {unknown} "
                           "(groups hold leaf labels only: they form one tier and do not nest)"])
    unassigned = sorted(set(leaves) - set(assigned))
    if unassigned:
        raise ConfigError([f"topology override leaves clients unassigned: {unassigned}"])
    clashes = sorted(set(groups) & set(leaves))
    if clashes:
        raise ConfigError([f"topology group {name!r} has the name of a leaf" for name in clashes])
    nodes = [TierNode(leaf, 0, assigned[leaf]) for leaf in leaves]
    nodes += [TierNode(name, 1, ROOT_ID) for name in sorted(groups)]
    nodes.append(TierNode(ROOT_ID, 2, None))
    return TierTopology(tuple(nodes))


def _load_datasets(config: ExperimentConfig):
    if isinstance(config.data, SyntheticSource):
        datasets, topology, oracle = generate_synthetic(config.data.spec)
        return datasets, topology, oracle
    records = ingest_csv(config.data.resolved, config.data.schema)
    records = preprocess(records, config.preprocess)
    datasets, topology = partition_clients(
        records, config.n_classes, config.min_rows, config.include_date_feature,
    )
    return datasets, topology, None


def validation_rows(
    topology: TierTopology,
    datasets: Mapping[str, ClientDataset],
    vocab: SpatialVocabulary | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[str, tuple[int, int]]]:
    """Every client's validation rows (:func:`stack_rows`: raw rows, labels,
    row codes and one encoding per client), stacked in depth-first client
    order, so that each node's rows are one contiguous span ``[lo, hi)``."""
    raw, labels, codes, enc, offsets = stack_rows(
        [datasets[c] for c in topology.client_order], vocab, "validation")
    spans = {}
    for node_id in topology.node_ids():
        first, last = topology.client_span(node_id)
        spans[node_id] = (int(offsets[first]), int(offsets[last]))
    return raw, labels, codes, enc, spans


def fold_correct(
    predicted: np.ndarray,
    labels: np.ndarray,
    spans: Mapping[str, tuple[int, int]],
) -> dict[str, int]:
    """Correct counts of one prediction per row, summed over each node's span."""
    cum = np.concatenate(([0], np.cumsum(predicted == labels)))
    return {nid: int(cum[hi] - cum[lo]) for nid, (lo, hi) in spans.items()}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the tiered method plus enabled baselines; deterministic per seed."""
    with _stage("data"):
        datasets, topology, oracle = _load_datasets(config)
    with _stage("split"):
        datasets = {
            cid: train_valid_split(datasets[cid], config.split_ratio, derive_seed(config.seed, "split", cid))
            for cid in sorted(datasets)
        }
    with _stage("topology"):
        if config.topology_groups is not None:
            topology = grouped_topology(datasets.keys(), config.topology_groups)
    with _stage("encoding"):
        vocab = None
        if config.encoding.enabled:
            vocab = build_vocabulary(
                [datasets[cid].spatial for cid in sorted(datasets)],
                include_coordinates=config.encoding.use_coordinates,
                include_hierarchy=config.encoding.use_hierarchy,
            )

    clients = topology.clients()
    n_raw = datasets[clients[0]].features.shape[1]
    input_dim = (vocab.encoding_length if vocab is not None else 0) + n_raw
    dims = (input_dim, config.hidden_dim, config.n_classes)
    init = init_params(dims, derive_seed(config.seed, "init"))
    training = replace(config.training, seed=config.seed)
    node_order = sorted(topology.nodes, key=lambda n: (-n.tier, n.node_id))

    with _stage("federated"):
        node_models, client_updates = run_tier_round(
            topology, datasets, init, config.policy, training, vocab)

    with _stage("evaluate"):
        raw, labels, codes, enc, spans = validation_rows(topology, datasets, vocab)

        def score(model: ModelParams, lo: int = 0, hi: int = labels.size) -> np.ndarray:
            return predict_rows(model, raw[lo:hi], codes[lo:hi], enc)

        tiered = {nid: score(node_models[nid], lo, hi) for nid, (lo, hi) in spans.items()}
        correct = {METHOD_TIERED: {nid: int(np.count_nonzero(tiered[nid] == labels[lo:hi]))
                                   for nid, (lo, hi) in spans.items()}}
        client_predictions = {}
        for cid in clients:
            lo, hi = spans[cid]
            client_predictions[cid] = {"predicted": tiered[cid].tolist(), "actual": labels[lo:hi].tolist()}

    with _stage("baselines"):
        for kind in config.baselines:
            if kind is BaselineKind.CENTRALIZED_NN:
                pooled = train_centralized(datasets.values(), init, training, vocab)
                correct[kind.value] = fold_correct(score(pooled), labels, spans)
                # One network per child of the root, trained on and scoring
                # only its own subtree's rows.
                regional = np.empty_like(labels)
                for region in topology.children(topology.root_id):
                    model = train_centralized(
                        [datasets[c] for c in topology.subtree_clients(region)], init, training, vocab)
                    lo, hi = spans[region]
                    regional[lo:hi] = score(model, lo, hi)
                correct[METHOD_CENTRALIZED_REGIONAL] = fold_correct(regional, labels, spans)
            elif kind is BaselineKind.ENSEMBLE:
                votes = ensemble_predict_batch([u.params for u in client_updates], raw, codes, enc)
                correct[kind.value] = fold_correct(votes, labels, spans)
            else:
                # One round of flat federated averaging over the clients'
                # round-1 models, which the tiered run already trained.
                aggregate = weighted_aggregate if kind is BaselineKind.FLAT_FEDAVG_WEIGHTED else fedavg
                model = aggregate(client_updates)
                correct[kind.value] = fold_correct(score(model), labels, spans)

    with _stage("report"):
        seeds = {
            "master": config.seed,
            "init": derive_seed(config.seed, "init"),
            "split": {cid: derive_seed(config.seed, "split", cid) for cid in clients},
            "train_round1": {cid: derive_seed(config.seed, "train", cid, 1) for cid in clients},
        }
        tier_rows = []
        for method, counts in correct.items():
            for node in node_order:
                lo, hi = spans[node.node_id]
                tier_rows.append({
                    "node_id": node.node_id, "tier": node.tier,
                    "method": method, "accuracy": counts[node.node_id] / (hi - lo),
                })
        global_accuracy = {row["method"]: row["accuracy"] for row in tier_rows
                           if row["node_id"] == topology.root_id}
        report = MetricsReport(
            version=__version__,
            config=config.to_json_dict(),
            seeds=seeds,
            vocabulary=vocab.to_json_dict() if vocab is not None else None,
            oracle_accuracy=oracle,
            tier_accuracy=tier_rows,
            global_accuracy=global_accuracy,
            client_predictions=client_predictions,
        )
    return ExperimentResult(report, node_models)


# -- report emission --------------------------------------------------------------

def _safe_filename(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", name)


def emit_report(
    report: MetricsReport,
    out_dir: str | Path,
    formats: Sequence[str] = ("json", "csv"),
) -> list[Path]:
    """Write the report as a single JSON document and/or one CSV per table."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for fmt in formats:
        if fmt == "json":
            path = out_dir / "report.json"
            path.write_text(json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
            written.append(path)
        elif fmt == "csv":
            path = out_dir / "tier_accuracy.csv"
            lines = ["node_id,tier,method,accuracy"]
            lines += [f"{r['node_id']},{r['tier']},{r['method']},{r['accuracy']!r}"
                      for r in report.tier_accuracy]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

            path = out_dir / "global_comparison.csv"
            lines = ["method,accuracy"]
            lines += [f"{method},{acc!r}" for method, acc in report.global_accuracy.items()]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)

            path = out_dir / "client_predictions.csv"
            lines = ["client_id,row_index,predicted,actual"]
            for cid in sorted(report.client_predictions):
                vectors = report.client_predictions[cid]
                lines += [f"{cid},{i},{p},{a}"
                          for i, (p, a) in enumerate(zip(vectors["predicted"], vectors["actual"]))]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    return written


def write_models(node_models: Mapping[str, ModelParams], out_dir: str | Path) -> list[Path]:
    """Serialize every node's final model under ``out_dir/models/``."""
    models_dir = Path(out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for node_id in sorted(node_models):
        path = models_dir / f"{_safe_filename(node_id)}.bin"
        path.write_bytes(serialize_model(node_models[node_id]))
        written.append(path)
    return written
