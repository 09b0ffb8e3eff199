"""Experiment orchestration: validated JSON configs, the full pipeline
(data, split, encoding, tiered training, baselines), and deterministic
report emission.

Identical config plus master seed reproduces byte-identical report files
and model files. All randomness below the master seed is derived per
component (init, per-client splits, per-client per-round training), so
adding a client or a baseline never perturbs the others.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence
from urllib.parse import quote

import numpy as np

from ._version import __version__
from .baselines import BaselineKind, ensemble_predict_batch, train_centralized
from .data import (
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
from .errors import ConfigError, DivergenceError, SpatialFLError
from .federation import (
    ROOT_ID,
    AggregationPolicy,
    NodeModels,
    TierTopology,
    aggregate,
    models_in_turn,
    plan_rounds,
    round_seed,
    run_tier_round,
    serialize_model,
    stack_split,
)
from .nn import ModelParams, TrainingConfig, init_params, predict_rows
from .seeding import derive_seed
from .spatial import SpatialVocabulary, build_vocabulary, encoding_table

METHOD_TIERED = "n_tier_fl"
METHOD_CENTRALIZED_REGIONAL = "centralized_nn_regional"

@dataclass(frozen=True)
class EncodingConfig:
    """Whether spatial encodings are prepended to model inputs at all, and
    which parts they carry."""

    enabled: bool = True
    use_coordinates: bool = True
    use_hierarchy: bool = True

    def __post_init__(self):
        if self.enabled and not (self.use_coordinates or self.use_hierarchy):
            raise ValueError("enable coordinates or hierarchy, or disable encoding entirely")


@dataclass(frozen=True)
class CsvSource:
    path: str
    resolved: Path = field(metadata={"key": None})  # ``path`` against the config's directory
    schema: CsvSchema


@dataclass(frozen=True)
class SyntheticSource:
    spec: SyntheticSpec


@dataclass
class ExperimentConfig:
    """Fully resolved experiment description; see README for the JSON shape.

    Its fields and those of its sections (``SyntheticSpec``, ``CsvSchema``,
    ``PreprocessConfig``, ``EncodingConfig``, ``TrainingConfig``,
    ``AggregationPolicy``) are the config schema. A field's key is its
    name, or ``metadata["key"]`` where that is set (``None`` for a field
    that is no key); the field's default is the key's default and its
    annotation picks how the key is read.
    """

    data: CsvSource | SyntheticSource
    seed: int = 0
    n_classes: int = 3
    preprocess: PreprocessConfig = PreprocessConfig()
    encoding: EncodingConfig = EncodingConfig()
    topology_groups: dict[str, tuple[str, ...]] | None = field(default=None, metadata={"key": "topology"})
    training: TrainingConfig = TrainingConfig()
    hidden_dim: int = 16
    policy: AggregationPolicy = field(default=AggregationPolicy(), metadata={"key": "aggregation"})
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
        """Every key written from its field; :func:`config_from_dict` reads
        the result back to an equal config."""
        out = _to_json(self)
        out["data"]["kind"] = "synthetic" if isinstance(self.data, SyntheticSource) else "csv"
        return out


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class ExperimentResult:
    """A run's report and every node's final model by id: a read-only
    :class:`~spatialfl.federation.NodeModels`, which rebuilds a client's
    model afresh on each lookup."""

    report: MetricsReport
    node_models: Mapping[str, ModelParams]


# -- config loading -------------------------------------------------------------

# The section dataclasses are the schema (see ExperimentConfig): one
# reader and one writer walk their fields.

# Per field annotation: which JSON values the key accepts, what its field
# then holds, and the error otherwise. A float must be finite: the bound
# also rejects NaN, which Python's JSON reader accepts, and integers
# beyond the float range.
_TYPES = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), int, "must be an integer"),
    "float": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
              float, "must be a finite number"),
    "bool": (lambda v: isinstance(v, bool), bool, "must be a boolean"),
    "str": (lambda v: isinstance(v, str), str, "must be a string"),
    "tuple[str, ...] | None": (
        lambda v: v is None or isinstance(v, list) and all(isinstance(s, str) for s in v),
        lambda v: None if v is None else tuple(v), "must be a list of column names"),
}

# Bounds reported per key, so that each violation names its key. Every
# other invariant is checked by its section's __post_init__.
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_BOUNDS = {
    **dict.fromkeys(("n_regions", "clients_per_region", "rows_per_client", "hidden_dim", "min_rows"),
                    _AT_LEAST_ONE),
    "split_ratio": (lambda v: 0.0 < v < 1.0, "must lie strictly between 0 and 1"),
    "outlier_zscore": (lambda v: v > 0, "must be positive"),
}

_SECTIONS = {cls.__name__: cls for cls in (PreprocessConfig, EncodingConfig, TrainingConfig, AggregationPolicy)}


def _keyed_fields(cls) -> dict:
    """The fields of a dataclass that are config keys, by key."""
    return {key: f for f in fields(cls) if (key := f.metadata.get("key", f.name)) is not None}


def _to_json(value):
    """A config value as JSON: a dataclass as an object of its keys, tuples
    as lists, enums by value."""
    if is_dataclass(value):
        return {key: _to_json(getattr(value, f.name)) for key, f in _keyed_fields(type(value)).items()}
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, dict):
        return {k: _to_json(v) for k, v in value.items()}
    return value.value if isinstance(value, Enum) else value


def _read(cls, raw: Mapping, where: str, errors: list, by_hand: Sequence[str] = ()) -> dict:
    """The valid values of the keys of ``cls`` given in ``raw``, by field name.

    Reports every unknown key, missing required key and value of the wrong
    type or out of bounds; such a value is left out, so its field keeps its
    default. A section key is read into its dataclass, and null stands for
    the default section. The fields named in ``by_hand`` are the caller's.
    """
    prefix = f"{where}." if where else ""
    keyed = _keyed_fields(cls)
    errors.extend(f"unknown key {key!r}" + (f" in {where}" if where else "") for key in raw if key not in keyed)
    values = {}
    for key, f in keyed.items():
        if f.name in by_hand:
            continue
        if key not in raw:
            if f.default is MISSING:
                errors.append(f"{prefix}{key} is required")
            continue
        value = raw[key]
        if f.type in _SECTIONS:
            if value is not None:
                value = _section(_SECTIONS[f.type], value, prefix + key, errors)
                if value is not None:
                    values[f.name] = value
            continue
        accepts, convert, problem = _TYPES[f.type]
        if accepts(value):
            value = convert(value)
            within, problem = _BOUNDS.get(key, (lambda v: True, problem))
            if within(value):
                values[f.name] = value
                continue
        errors.append(f"{prefix}{key} {problem}")
    return values


def _section(cls, raw, where: str, errors: list):
    """A section dataclass built from its JSON object; None, with the
    reasons reported, when it cannot be."""
    if not isinstance(raw, Mapping):
        errors.append(f"{where} must be an object")
        return None
    values = _read(cls, raw, where, errors)
    # Every required key is a count. One that failed (and is reported)
    # stands at 1, so that the section's own invariants are still checked.
    required = {f.name: 1 for f in fields(cls) if f.default is MISSING}
    try:
        return cls(**required | values)
    except ValueError as exc:
        errors.append(f"{where}: {exc}")
        return None


def synthetic_spec_from_dict(raw: Mapping) -> SyntheticSpec:
    """Validate a bare synthetic-spec document (the gen-synthetic input)."""
    if not isinstance(raw, Mapping):
        raise ConfigError(["spec root must be an object"])
    errors: list[str] = []
    spec = _section(SyntheticSpec, raw, "spec", errors)
    if errors:
        raise ConfigError(errors)
    return spec


def _read_data(data, base_dir: Path, errors: list) -> CsvSource | SyntheticSource | None:
    """The data source: ``kind`` picks its class, and a CSV path resolves
    against the config's directory."""
    if not isinstance(data, Mapping):
        errors.append("data section is required and must be an object")
        return None
    # Each kind accepts only its own keys; with no valid kind, only keys of
    # neither kind are named.
    kind = data.get("kind")
    sources = {"csv": CsvSource, "synthetic": SyntheticSource}
    if isinstance(kind, str) and kind in sources:
        known, where = _keyed_fields(sources[kind]), f"data for kind {kind!r}"
    else:
        known, where = {**_keyed_fields(CsvSource), **_keyed_fields(SyntheticSource)}, "data"
    errors.extend(f"unknown key {key!r} in {where}" for key in data if key != "kind" and key not in known)
    if kind == "synthetic":
        if not isinstance(data.get("spec"), Mapping):
            errors.append("data.spec is required for synthetic data")
            return None
        spec = _section(SyntheticSpec, data["spec"], "data.spec", errors)
        return None if spec is None else SyntheticSource(spec)
    if kind == "csv":
        path = data.get("path", "")
        if not isinstance(path, str):
            errors.append("data.path must be a string")
            path = ""
        if not path:
            errors.append("data.path is required for csv data")
            return None
        resolved = Path(path) if Path(path).is_absolute() else base_dir / path
        if not resolved.exists():
            errors.append(f"data.path does not exist: {resolved}")
        elif resolved.is_dir():
            errors.append(f"data.path is a directory: {resolved}")
        schema = _section(CsvSchema, data.get("schema", {}), "data.schema", errors)
        return None if schema is None else CsvSource(path=path, resolved=resolved, schema=schema)
    errors.append("data.kind must be 'csv' or 'synthetic'")
    return None


def config_from_dict(raw: Mapping, base_dir: Path = Path(".")) -> ExperimentConfig:
    """Validate a JSON-shaped config, collecting every problem before failing."""
    errors: list[str] = []
    if not isinstance(raw, Mapping):
        raise ConfigError(["config root must be an object"])
    values = _read(ExperimentConfig, raw, "", errors,
                   by_hand=("data", "n_classes", "topology_groups", "baselines"))
    values["data"] = source = _read_data(raw.get("data"), base_dir, errors)

    # Synthetic data owns the class count; a count given next to it must agree.
    n_classes = raw.get("n_classes")
    if isinstance(source, SyntheticSource):
        if n_classes is not None and n_classes != source.spec.n_classes:
            errors.append("n_classes conflicts with data.spec.n_classes")
    elif n_classes is not None:
        if not isinstance(n_classes, int) or isinstance(n_classes, bool) or n_classes not in (2, 3):
            errors.append("n_classes must be 2 or 3")
        values["n_classes"] = n_classes

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
            values["topology_groups"] = groups

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
    values["baselines"] = tuple(baselines)

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**values)


def read_json_file(path: Path, what: str):
    """The JSON document in a UTF-8 file. A file that is missing, cannot be
    read (a directory, say), is not UTF-8 or is not JSON raises a one-line
    :class:`ConfigError` naming it as ``what`` (``config`` or ``spec``)."""
    if not path.exists():
        raise ConfigError([f"{what} file does not exist: {path}"])
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{what} is not valid JSON: {exc}"]) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError([f"{what} file is not UTF-8 text: {path} (byte {exc.start}: {exc.reason})"]) from None
    except OSError as exc:
        raise ConfigError([f"{what} file cannot be read: {path} ({exc.strerror})"]) from None


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a JSON config file; lists every problem at once."""
    path = Path(path)
    return config_from_dict(read_json_file(path, "config"), base_dir=path.parent)


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
    return TierTopology((leaf, assigned[leaf]) for leaf in leaves)


def load_datasets(config: ExperimentConfig, csv_path: str | Path | None = None):
    """The clients, topology and oracle accuracy (None for CSV data) of a
    config's data source. With ``csv_path``, that CSV is read in the
    config's schema (the default schema for a synthetic config) instead."""
    if csv_path is None and isinstance(config.data, SyntheticSource):
        return generate_synthetic(config.data.spec)
    schema = config.data.schema if isinstance(config.data, CsvSource) else CsvSchema()
    records = ingest_csv(config.data.resolved if csv_path is None else csv_path, schema)
    records = preprocess(records, config.preprocess)
    datasets, topology = partition_clients(
        records, config.n_classes, config.min_rows, config.include_date_feature,
    )
    return datasets, topology, None


def vocabulary(config: ExperimentConfig, datasets: Mapping[str, ClientDataset]) -> SpatialVocabulary | None:
    """The spatial vocabulary of the clients under the config's encoding
    settings; None with encoding off."""
    if not config.encoding.enabled:
        return None
    return build_vocabulary(
        [datasets[cid].spatial for cid in sorted(datasets)],
        include_coordinates=config.encoding.use_coordinates,
        include_hierarchy=config.encoding.use_hierarchy,
    )


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
        datasets, topology, oracle = load_datasets(config)
    with _stage("split"):
        # Derived once: the splits use these seeds and the report records them.
        split_seeds = {cid: derive_seed(config.seed, "split", cid) for cid in sorted(datasets)}
        train_sets, valid_sets = {}, {}
        for cid, seed in split_seeds.items():
            train_sets[cid], valid_sets[cid] = train_valid_split(datasets[cid], config.split_ratio, seed)
        del datasets
    with _stage("topology"):
        if config.topology_groups is not None:
            topology = grouped_topology(train_sets.keys(), config.topology_groups)
    with _stage("encoding"):
        vocab = vocabulary(config, train_sets)
        # The one row layout of the run: each side of the split stacked
        # once, in depth-first client order, every node's rows one span;
        # the codes of both index one encoding per client, in that order.
        train = stack_split(topology, train_sets)
        raw, labels, codes, spans = stack_split(topology, valid_sets)
        table = encoding_table([train_sets[c].spatial for c in topology.client_order], vocab)
        enc = table[0]

    clients = topology.clients()
    dims = (enc.shape[1] + raw.shape[1], config.hidden_dim, config.n_classes)
    init = init_params(dims, derive_seed(config.seed, "init"))
    node_order = sorted(topology.nodes, key=lambda n: (-n.tier, n.node_id))

    def score(model: ModelParams, where: str, lo: int = 0, hi: int = labels.size) -> np.ndarray:
        with DivergenceError.naming(where):
            return predict_rows(model, raw[lo:hi], codes[lo:hi], enc)

    with _stage("federated"):
        # Every round trains the same clients on the same rows: their
        # checks, layout and schedule are planned once.
        plan = plan_rounds(topology, train, table, dims, config.training)
        broadcast = init
        for round_index in range(1, config.policy.rounds + 1):
            trained, counts, models = run_tier_round(topology, plan, broadcast, config.policy.mode,
                                                     config.seed, round_index)
            if round_index == 1:
                first_round = trained
            broadcast = models[topology.root_id]
        del plan
        node_models = NodeModels(clients, trained, models)

    first_round_correct = {}
    with _stage("baselines"):
        # The baselines built from round 1's client models, scored before
        # the tiered models, so that a failure of theirs is the one a run
        # reports.
        for kind in config.baselines:
            if kind is BaselineKind.CENTRALIZED_NN:
                continue
            with DivergenceError.naming(f"{kind.value} baseline"):
                if kind is BaselineKind.ENSEMBLE:
                    predicted = ensemble_predict_batch(NodeModels(clients, first_round), raw, codes, enc)
                else:
                    # One round of flat federated averaging over the
                    # clients' round-1 models.
                    mode = "sample_weighted" if kind is BaselineKind.FLAT_FEDAVG_WEIGHTED else "uniform"
                    predicted = predict_rows(aggregate(first_round, counts, mode, dims), raw, codes, enc)
            first_round_correct[kind.value] = fold_correct(predicted, labels, spans)

    with _stage("evaluate"):
        tiered = {nid: score(model, f"node {nid!r}", *spans[nid]) for nid, model in node_models.in_turn(spans)}
        correct = {METHOD_TIERED: {nid: int(np.count_nonzero(tiered[nid] == labels[lo:hi]))
                                   for nid, (lo, hi) in spans.items()}}
        client_predictions = {}
        for cid in clients:
            lo, hi = spans[cid]
            client_predictions[cid] = {"predicted": tiered[cid].tolist(), "actual": labels[lo:hi].tolist()}

    with _stage("baselines"):
        for kind in config.baselines:
            if kind is not BaselineKind.CENTRALIZED_NN:
                correct[kind.value] = first_round_correct[kind.value]
                continue
            # The pooled network, and one per child of the root, trained
            # on and scoring only its own subtree's rows.
            regions = topology.children(topology.root_id)
            centralized = train_centralized(
                [clients] + [topology.subtree_clients(region) for region in regions], init, config.training,
                config.seed, train, table).each()
            correct[kind.value] = fold_correct(score(next(centralized), f"{kind.value} baseline"), labels, spans)
            regional = np.empty_like(labels)
            for region, model in zip(regions, centralized):
                lo, hi = spans[region]
                regional[lo:hi] = score(model, f"{METHOD_CENTRALIZED_REGIONAL} baseline: node {region!r}",
                                        lo, hi)
            correct[METHOD_CENTRALIZED_REGIONAL] = fold_correct(regional, labels, spans)

    with _stage("report"):
        seeds = {
            "master": config.seed,
            "init": derive_seed(config.seed, "init"),
            "split": split_seeds,
            "train_round1": {cid: round_seed(config.seed, cid, 1) for cid in clients},
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
            predictions = report.client_predictions
            tables = {
                "tier_accuracy.csv": (["node_id", "tier", "method", "accuracy"],
                                      [[r["node_id"], r["tier"], r["method"], r["accuracy"]]
                                       for r in report.tier_accuracy]),
                "global_comparison.csv": (["method", "accuracy"], report.global_accuracy.items()),
                "client_predictions.csv": (["client_id", "row_index", "predicted", "actual"], [
                    [cid, i, p, a] for cid in sorted(predictions)
                    for i, (p, a) in enumerate(zip(predictions[cid]["predicted"], predictions[cid]["actual"]))]),
            }
            for name, (header, rows) in tables.items():
                path = out_dir / name
                with path.open("w", encoding="utf-8", newline="") as handle:
                    writer = csv.writer(handle, lineterminator="\n")
                    writer.writerow(header)
                    writer.writerows(rows)
                written.append(path)
        else:
            raise ValueError(f"unknown report format {fmt!r}")
    return written


def write_models(node_models: Mapping[str, ModelParams], out_dir: str | Path) -> list[Path]:
    """Serialize every node's final model under ``out_dir/models/``, one
    file per node named by its percent-encoded id, so that distinct ids
    never share a file. The clients of a
    :class:`~spatialfl.federation.NodeModels` are rebuilt one at a time
    into one buffer."""
    models_dir = Path(out_dir) / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for node_id, model in models_in_turn(node_models, sorted(node_models)):
        path = models_dir / f"{quote(node_id, safe='')}.bin"
        path.write_bytes(serialize_model(model))
        written.append(path)
    return written
