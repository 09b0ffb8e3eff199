"""Geo-tagged data handling: CSV ingestion, cleaning, class discretisation,
per-client partitioning with a derived tier tree, and synthetic
spatially-clustered benchmarks with a known best achievable accuracy.
"""

from __future__ import annotations

import codecs
import csv
import math
import re
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyCorpusError,
    InconsistentHierarchyError,
    RowError,
    SchemaError,
    SplitError,
    ThinClientError,
    TopologyError,
    UnitUnusableError,
)
from .federation import TierNode, TierTopology
from .seeding import derive_seed
from .spatial import SpatialAttribute, check_coordinates

ROOT_ID = "global"
SPLIT_TRAIN = "train"
SPLIT_VALIDATION = "validation"


@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for geo-tagged CSV files.

    ``hierarchy`` lists the columns above the client label, nearest level
    first; ``None`` picks up ``level_1``/``level_2`` when present.
    ``features`` defaults to every column whose name starts with
    ``feature_``, in header order.
    """

    client_label: str = "client_label"
    hierarchy: tuple[str, ...] | None = None
    latitude: str = "latitude"
    longitude: str = "longitude"
    ref_date: str = "ref_date"
    target: str = "target"
    features: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.hierarchy is not None:
            object.__setattr__(self, "hierarchy", tuple(self.hierarchy))
        if self.features is not None:
            object.__setattr__(self, "features", tuple(self.features))


@dataclass(frozen=True)
class GeoTable:
    """Geo-tagged rows held as columns, one array per field.

    Row ``i`` lies on the hierarchy path ``paths[path_index[i]]`` (leaf
    first); ``paths`` holds each distinct path once. ``ordinals`` are the
    rows' reference dates as ``date.toordinal()`` values. Missing feature
    and target cells are NaN markers.
    """

    paths: tuple[tuple[str, ...], ...]
    path_index: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    ordinals: np.ndarray
    features: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(tuple(p) for p in self.paths))
        for name, dtype in (("path_index", np.int64), ("latitude", np.float64),
                            ("longitude", np.float64), ("ordinals", np.int64),
                            ("features", np.float64), ("target", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.target.shape[0]
        columns = (self.path_index, self.latitude, self.longitude, self.ordinals, self.target)
        if any(c.shape != (n,) for c in columns) or self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("table columns must all hold one value per row")
        if n and not 0 <= self.path_index.min() <= self.path_index.max() < len(self.paths):
            raise ValueError("path_index points outside paths")

    def __len__(self) -> int:
        return int(self.target.shape[0])

    def take(self, rows: np.ndarray) -> GeoTable:
        """The given rows, in the given order."""
        return GeoTable(self.paths, self.path_index[rows], self.latitude[rows], self.longitude[rows],
                        self.ordinals[rows], self.features[rows], self.target[rows])

    def leaf_codes(self) -> tuple[list[str], np.ndarray]:
        """The distinct leaf labels, sorted, and each row's index into them."""
        leaves = sorted({path[0] for path in self.paths})
        rank = {leaf: k for k, leaf in enumerate(leaves)}
        of_path = np.array([rank[path[0]] for path in self.paths], dtype=np.int64)
        return leaves, of_path[self.path_index]


@dataclass(frozen=True)
class PreprocessConfig:
    """Cleaning toggles. With ``fill_missing`` off, rows that still carry
    missing values are dropped instead of interpolated."""

    fill_missing: bool = True
    drop_outliers: bool = True
    outlier_zscore: float = 3.0


@dataclass
class ClientDataset:
    """One spatial unit's rows: features, class labels, and split tags."""

    client_id: str
    spatial: SpatialAttribute
    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    split_tags: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.shape[0]
        if n == 0:
            raise ValueError(f"client {self.client_id!r} has no rows")
        if self.features.ndim != 2 or self.labels.shape != (n,):
            raise ValueError(f"client {self.client_id!r} has inconsistent row shapes")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError(f"client {self.client_id!r} has labels outside [0, {self.n_classes})")
        if self.split_tags is None:
            self.split_tags = np.full(n, SPLIT_TRAIN, dtype="<U10")
        else:
            self.split_tags = np.asarray(self.split_tags, dtype="<U10")
            if self.split_tags.shape != (n,):
                raise ValueError("split_tags length mismatch")
            if not np.isin(self.split_tags, [SPLIT_TRAIN, SPLIT_VALIDATION]).all():
                raise ValueError("split tags must be 'train' or 'validation'")

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    def count(self, split: str | None = None) -> int:
        """Number of rows, optionally only those with the given split tag."""
        return self.n_rows if split is None else int(np.count_nonzero(self.split_tags == split))

    def rows(self, split: str | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Feature matrix and labels, optionally filtered by split tag."""
        if split is None:
            return self.features, self.labels
        mask = self.split_tags == split
        return self.features[mask], self.labels[mask]


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic spatially-clustered benchmark.

    Each region owns a linear labelling rule over 2-D features; the rule's
    direction is rotated per region by an angle scaled with
    ``region_separation``, so large separations make region identity
    essential for prediction while the features themselves are identically
    distributed everywhere. Labels flip to a different class with
    probability ``noise_rate``; the best achievable accuracy is therefore
    ``1 - noise_rate``.
    """

    n_regions: int
    clients_per_region: int
    rows_per_client: int
    n_classes: int = 3
    region_separation: float = 1.0
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_regions, self.clients_per_region, self.rows_per_client) < 1:
            raise ValueError("all synthetic counts must be >= 1")
        if self.n_classes not in (2, 3):
            raise ValueError("n_classes must be 2 or 3")
        if not 0.0 <= self.noise_rate < 0.5:
            raise ValueError("noise_rate must lie in [0, 0.5)")
        if self.region_separation < 0:
            raise ValueError("region_separation must be non-negative")


def ingest_csv(path: str | Path, schema: CsvSchema = CsvSchema()) -> GeoTable:
    """Read geo-tagged rows; empty numeric cells become NaN, never zero.

    Each row's cells are checked in the order labels, latitude, longitude,
    coordinate range, reference date, features, target; the first bad cell
    raises a RowError naming its file line and column. Blank lines are
    skipped and cells beyond the mapped columns are ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        rows = _read_rows(reader, path)
        header = next(rows, [])
        hierarchy = schema.hierarchy
        if hierarchy is None:
            hierarchy = tuple(c for c in ("level_1", "level_2") if c in header)
        features = schema.features
        if features is None:
            features = tuple(c for c in header if c.startswith("feature_"))
        required = [schema.client_label, schema.latitude, schema.longitude,
                    schema.ref_date, schema.target, *hierarchy, *features]
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"CSV header is missing mapped columns: {missing}")

        # A repeated header name maps to its last column, as in csv.DictReader.
        index = {name: i for i, name in enumerate(header)}
        label_cols = [(index[c], c) for c in (schema.client_label, *hierarchy)]
        lat_i, lon_i, date_i, target_i = (index[c] for c in (
            schema.latitude, schema.longitude, schema.ref_date, schema.target))
        feature_cols = [(index[c], c) for c in features]
        # The order in which a row's cells are read, to name a short row's
        # first missing column.
        read_order = [*label_cols, (lat_i, schema.latitude), (lon_i, schema.longitude),
                      (date_i, schema.ref_date), *feature_cols, (target_i, schema.target)]

        path_codes: dict[tuple[str, ...], int] = {}
        path_index, lats, lons, ordinals, feats, targets = [], [], [], [], [], []
        for row in rows:
            if not row:
                continue
            try:
                row_path = tuple([_label(row[i], c) for i, c in label_cols])
                lat = _number(row[lat_i], schema.latitude, required=True)
                lon = _number(row[lon_i], schema.longitude, required=True)
                check_coordinates(lat, lon)
                ordinal = _ordinal(row[date_i], schema.ref_date)
                feats.extend([_number(row[i], c, required=False) for i, c in feature_cols])
                target = _number(row[target_i], schema.target, required=False)
            except IndexError:
                column = next(c for i, c in read_order if i >= len(row))
                raise RowError(f"line {reader.line_num}: row is short a value for column {column!r}") from None
            except ValueError as exc:
                raise RowError(f"line {reader.line_num}: {exc}") from exc
            path_index.append(path_codes.setdefault(row_path, len(path_codes)))
            lats.append(lat)
            lons.append(lon)
            ordinals.append(ordinal)
            targets.append(target)
    return GeoTable(tuple(path_codes), path_index, lats, lons, ordinals,
                    np.array(feats, dtype=np.float64).reshape(len(targets), len(features)), targets)


def _read_rows(reader, path: Path):
    """The reader's rows, with a failure to read one raised as a RowError
    naming its line. Text is decoded in blocks of the file, ahead of the
    row being parsed, so a byte that is not UTF-8 is located by a scan of
    the file's bytes."""
    try:
        yield from reader
    except csv.Error as exc:
        raise RowError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        data = path.read_bytes()
        start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        try:
            data[start:].decode("utf-8")
        except UnicodeDecodeError as scan:
            at = start + scan.start
            line = len(re.findall(rb"\r\n|\r|\n", data[:at])) + 1
            raise RowError(f"line {line}: byte 0x{data[at]:02x} is not UTF-8 text; "
                           "the file must be UTF-8 encoded") from None
        raise RowError(f"the file is not UTF-8 text ({exc.reason})") from None


def _label(text: str, column: str) -> str:
    text = text.strip()
    if text == "":
        raise ValueError(f"column {column!r} must not be empty")
    if text == ROOT_ID:
        raise ValueError(f"column {column!r} holds {ROOT_ID!r}, the reserved label of the root node")
    return text


def _number(text: str, column: str, required: bool) -> float:
    # An empty cell is the only missing-value marker; "nan" and "inf"
    # text would otherwise pass float() and poison training later.
    text = text.strip()
    if text == "":
        if required:
            raise ValueError(f"column {column!r} must not be empty")
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"column {column!r} holds {text!r}, not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"column {column!r} holds non-finite value {text!r}")
    return value


def _ordinal(text: str, column: str) -> int:
    text = text.strip()
    try:
        return date.fromisoformat(text).toordinal()
    except ValueError:
        raise ValueError(f"column {column!r} holds {text!r}, not a date") from None


def _interpolate(values: np.ndarray) -> np.ndarray:
    """Linear interpolation over positions; boundary gaps take the nearest value."""
    known = ~np.isnan(values)
    idx = np.arange(values.size, dtype=np.float64)
    return np.interp(idx, idx[known], values[known])


def _outlier_keep(targets: np.ndarray, threshold: float) -> np.ndarray:
    # Iterated to a fixed point so that preprocessing is idempotent: no
    # retained row is an outlier with respect to the retained sample.
    # A threshold below 1 can drop every row; the loop then stops before
    # taking the moments of an empty sample.
    keep = np.ones(targets.size, dtype=bool)
    while keep.any():
        vals = targets[keep]
        std = vals.std()
        if std == 0.0:
            return keep
        z = np.abs(targets - vals.mean()) / std
        drop = keep & (z > threshold)
        if not drop.any():
            return keep
        keep &= ~drop
    return keep


def preprocess(table: GeoTable, config: PreprocessConfig = PreprocessConfig()) -> GeoTable:
    """Clean a corpus unit by unit (a unit is one leaf label).

    Rows are date-ordered per unit (equal dates keep input order), missing
    feature and target values are filled by linear interpolation along the
    series (nearest value at the boundaries), and rows whose target z-score
    within the unit exceeds the threshold are dropped. The output holds
    the units in sorted leaf order and carries no missing markers.
    """
    if not len(table):
        return table
    leaves, leaf = table.leaf_codes()
    order = np.lexsort((np.arange(len(table)), table.ordinals, leaf))
    table, leaf = table.take(order), leaf[order]
    # take() copies, so the unit slices below are filled in place.
    targets, feats = table.target, table.features
    if config.fill_missing:
        keep = np.ones(len(table), dtype=bool)
    else:
        keep = ~(np.isnan(targets) | np.isnan(feats).any(axis=1))

    starts = np.flatnonzero(np.diff(leaf)) + 1
    for lo, hi in zip([0, *starts], [*starts, len(table)]):
        unit = leaves[leaf[lo]]
        if np.isnan(targets[lo:hi]).all():
            raise UnitUnusableError(f"unit {unit!r} has no target values")
        if config.fill_missing:
            targets[lo:hi] = _interpolate(targets[lo:hi])
            for j in range(feats.shape[1]):
                if np.isnan(feats[lo:hi, j]).all():
                    raise UnitUnusableError(f"unit {unit!r} has no values for feature {j}")
                feats[lo:hi, j] = _interpolate(feats[lo:hi, j])
        elif not keep[lo:hi].any():
            raise UnitUnusableError(f"unit {unit!r} has no complete rows")

        if config.drop_outliers:
            kept_idx = np.flatnonzero(keep[lo:hi])
            inlier = _outlier_keep(targets[lo:hi][kept_idx], config.outlier_zscore)
            keep[lo + kept_idx[~inlier]] = False
            if not inlier.any():
                raise UnitUnusableError(
                    f"unit {unit!r} has no rows left after dropping target outliers at z > {config.outlier_zscore}")
    return table.take(np.flatnonzero(keep))


def discretize_target(values: Iterable[float], n_classes: int) -> np.ndarray:
    """Quantile-bin a continuous target into class indices 0..n_classes-1.

    Thresholds sit at the k/n_classes corpus quantiles; a value equal to a
    threshold takes the higher class. A constant corpus collapses to
    class 0.
    """
    if n_classes not in (2, 3):
        raise ValueError("n_classes must be 2 or 3")
    if isinstance(values, np.ndarray):
        values = values.astype(np.float64, copy=False)
    else:
        values = np.fromiter(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot discretise an empty corpus")
    if np.isnan(values).any():
        raise ValueError("targets contain missing values; preprocess the corpus first")
    if values.min() == values.max():
        return np.zeros(values.size, dtype=np.int64)
    thresholds = [np.quantile(values, k / n_classes) for k in range(1, n_classes)]
    classes = np.zeros(values.size, dtype=np.int64)
    for t in thresholds:
        classes += values >= t
    return classes


def partition_clients(
    table: GeoTable,
    n_classes: int,
    min_rows: int = 5,
    include_date_feature: bool = True,
) -> tuple[dict[str, ClientDataset], TierTopology]:
    """Split a preprocessed corpus into one client per leaf label.

    Targets are discretised with corpus-wide thresholds so every client
    shares one class scale. The tier tree is derived from the hierarchy
    paths: leaves at tier 0, one node per distinct label above them, and a
    root on top. The reference date enters the feature matrix as a
    min-max normalised ordinal unless switched off. Each client keeps its
    rows in table order.
    """
    if not len(table):
        raise EmptyCorpusError("cannot partition an empty corpus")
    if len({len(table.paths[c]) for c in np.unique(table.path_index)}) > 1:
        raise InconsistentHierarchyError("hierarchy paths have mixed lengths")

    labels = discretize_target(table.target, n_classes)
    ordinals = table.ordinals.astype(np.float64)
    lo, hi = ordinals.min(), ordinals.max()
    date_feature = np.full(ordinals.size, 0.5) if lo == hi else (ordinals - lo) / (hi - lo)

    leaves, leaf = table.leaf_codes()
    counts = np.bincount(leaf, minlength=len(leaves))
    thin = [leaves[k] for k in np.flatnonzero((counts > 0) & (counts < min_rows))]
    if thin:
        raise ThinClientError(f"leaves with fewer than {min_rows} rows: {thin}")

    by_leaf = np.argsort(leaf, kind="stable")
    ends = np.cumsum(counts)
    datasets: dict[str, ClientDataset] = {}
    paths: dict[str, tuple[str, ...]] = {}
    for k in np.flatnonzero(counts):
        leaf_id = leaves[k]
        idx = by_leaf[ends[k] - counts[k]:ends[k]]
        leaf_paths = {table.paths[c] for c in np.unique(table.path_index[idx])}
        if len(leaf_paths) > 1:
            raise InconsistentHierarchyError(f"leaf {leaf_id!r} appears under multiple paths: {sorted(leaf_paths)}")
        paths[leaf_id] = next(iter(leaf_paths))
        feats = table.features[idx]
        if include_date_feature:
            feats = np.hstack([feats, date_feature[idx][:, None]])
        attr = SpatialAttribute(
            latitude=float(np.mean(table.latitude[idx])),
            longitude=float(np.mean(table.longitude[idx])),
            hierarchy_path=paths[leaf_id],
        )
        datasets[leaf_id] = ClientDataset(leaf_id, attr, feats, labels[idx], n_classes)
    return datasets, topology_from_paths(paths)


def topology_from_paths(paths: Mapping[str, tuple[str, ...]]) -> TierTopology:
    """Build the tier tree implied by leaf-to-root hierarchy paths."""
    if not paths:
        raise EmptyCorpusError("no leaves to build a topology from")
    depth = len(next(iter(paths.values())))
    nodes = [
        TierNode(leaf, 0, paths[leaf][1] if depth > 1 else ROOT_ID)
        for leaf in sorted(paths)
    ]
    for level in range(1, depth):
        parents: dict[str, set[str]] = {}
        for path in paths.values():
            parent = path[level + 1] if level + 1 < depth else ROOT_ID
            parents.setdefault(path[level], set()).add(parent)
        for label in sorted(parents):
            if len(parents[label]) > 1:
                raise TopologyError(
                    f"label {label!r} at level {level} has conflicting parents: {sorted(parents[label])}"
                )
            nodes.append(TierNode(label, level, next(iter(parents[label]))))
    nodes.append(TierNode(ROOT_ID, depth, None))
    return TierTopology(tuple(nodes))


def train_valid_split(dataset: ClientDataset, ratio: float, seed: int) -> ClientDataset:
    """Tag floor(ratio * n) rows as train via a seeded shuffle."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n = dataset.n_rows
    n_train = int(math.floor(ratio * n))
    if n_train == 0 or n_train == n:
        raise SplitError(f"client {dataset.client_id!r}: ratio {ratio} leaves an empty split for {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    tags = np.full(n, SPLIT_VALIDATION, dtype="<U10")
    tags[perm[:n_train]] = SPLIT_TRAIN
    return ClientDataset(
        dataset.client_id, dataset.spatial, dataset.features.copy(),
        dataset.labels.copy(), dataset.n_classes, tags,
    )


def _region_rule(spec: SyntheticSpec, region: int) -> tuple[np.ndarray, float]:
    angle = 2.0 * math.pi * spec.region_separation * region / spec.n_regions
    direction = np.array([math.cos(angle), math.sin(angle)])
    reach = abs(direction[0]) + abs(direction[1])
    return direction, reach / 3.0


def generate_synthetic(spec: SyntheticSpec) -> tuple[dict[str, ClientDataset], TierTopology, float]:
    """Build a clustered benchmark whose best achievable accuracy is known.

    Every client draws features uniformly from [-1, 1]^2 and labels them
    with its region's rule, so raw features alone cannot identify the
    region. Deterministic per spec seed; clients use derived seeds, so
    enlarging the benchmark never changes existing clients' rows.
    """
    datasets: dict[str, ClientDataset] = {}
    paths: dict[str, tuple[str, ...]] = {}
    for region in range(spec.n_regions):
        direction, threshold = _region_rule(spec, region)
        region_id = f"region{region:02d}"
        base_lat = -60.0 + 120.0 * (region + 0.5) / spec.n_regions
        base_lon = -150.0 + 300.0 * (region + 0.5) / spec.n_regions
        for c in range(spec.clients_per_region):
            client_id = f"r{region:02d}c{c:02d}"
            rng = np.random.default_rng(derive_seed(spec.seed, "synthetic", client_id))
            feats = rng.uniform(-1.0, 1.0, size=(spec.rows_per_client, 2))
            score = feats @ direction
            if spec.n_classes == 2:
                labels = (score > 0).astype(np.int64)
            else:
                labels = (score >= -threshold).astype(np.int64) + (score > threshold)
            flips = rng.random(spec.rows_per_client) < spec.noise_rate
            if flips.any():
                shift = rng.integers(1, spec.n_classes, size=int(flips.sum()))
                labels[flips] = (labels[flips] + shift) % spec.n_classes
            offset = 2.0 * (c + 1) / (spec.clients_per_region + 1) - 1.0
            attr = SpatialAttribute(base_lat + offset, base_lon + offset, (client_id, region_id))
            paths[client_id] = attr.hierarchy_path
            datasets[client_id] = ClientDataset(client_id, attr, feats, labels, spec.n_classes)
    return datasets, topology_from_paths(paths), 1.0 - spec.noise_rate


def export_csv(datasets: Mapping[str, ClientDataset], path: str | Path) -> None:
    """Write clients back out in the default CSV schema.

    Client datasets keep no per-row dates, so sequential dates are
    synthesised per client; targets are the integer class labels.
    """
    datasets = dict(datasets)
    if not datasets:
        raise EmptyCorpusError("no clients to export")
    first = next(iter(datasets.values()))
    depth = len(first.spatial.hierarchy_path)
    n_features = first.features.shape[1]
    header = (
        ["client_label"]
        + [f"level_{i}" for i in range(1, depth)]
        + ["latitude", "longitude", "ref_date", "target"]
        + [f"feature_{j}" for j in range(1, n_features + 1)]
    )
    base = date(2020, 1, 1)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for client_id in sorted(datasets):
            ds = datasets[client_id]
            for i in range(ds.n_rows):
                writer.writerow(
                    list(ds.spatial.hierarchy_path)
                    + [repr(ds.spatial.latitude), repr(ds.spatial.longitude)]
                    + [(base + timedelta(days=i)).isoformat(), int(ds.labels[i])]
                    + [repr(float(v)) for v in ds.features[i]]
                )
