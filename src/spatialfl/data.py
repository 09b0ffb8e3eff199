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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .federation import ROOT_ID, TierTopology
from .seeding import derive_seed
from .spatial import SpatialAttribute, check_coordinates


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
    """One spatial unit's rows: features and class labels, at least one
    row. A train/validation split is two of them
    (:func:`train_valid_split`)."""

    client_id: str
    spatial: SpatialAttribute
    features: np.ndarray
    labels: np.ndarray
    n_classes: int

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

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])


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

    Rows are parsed a block at a time, one column at a time. A row is bad
    if it is short a mapped column, or if a label, latitude, longitude,
    coordinate range, reference date, feature or target cell is bad; the
    first bad row in file order raises a DataError naming its file line and
    its first bad column in that order. Blank lines are skipped and cells
    beyond the mapped columns are ignored.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
        except (csv.Error, UnicodeDecodeError) as exc:
            raise _read_error(exc, reader, path) from None
        parser = _BlockParser(header, schema)
        for block, lines in _blocks(reader, path):
            if not parser.parse(block):
                parser.raise_first_bad_row(block, lines)
    return parser.table()


# Rows are held a block at a time so that few row lists are alive at once;
# each one the cyclic GC sees counts toward its next collection. Measured
# over `run` plus `evaluate-model` on a 12,000-row file (two reads): with
# every row of the file held at once, the GC ran about 60 generation-0,
# 5.5 generation-1 and 0.5 generation-2 collections per run, 29 ms, which
# ate much of what the column passes save; with 1,024-row blocks about
# 26, 2.3 and 0.25 (8 ms); with 256-row blocks about 4.6, 0.4 and 0.08
# (2 ms; the per-row reader's run took 0.7 ms).
_BLOCK_ROWS = 256


def _blocks(reader, path: Path):
    """The reader's non-blank rows in lists of up to ``_BLOCK_ROWS``, each
    with its rows' file lines. A failure to read a row is raised as a
    DataError after the rows read before it have been yielded, so a bad
    cell among those rows is reported first."""
    block, lines = [], []
    try:
        for row in reader:
            if row:
                block.append(row)
                lines.append(reader.line_num)
                if len(block) == _BLOCK_ROWS:
                    yield block, lines
                    block, lines = [], []
    except (csv.Error, UnicodeDecodeError) as exc:
        error = _read_error(exc, reader, path)
    else:
        error = None
    if block:
        yield block, lines
    if error is not None:
        raise error


def _read_error(exc: csv.Error | UnicodeDecodeError, reader, path: Path) -> DataError:
    """A failure to read a row as a DataError naming its line. Text is
    decoded in blocks of the file, ahead of the row being parsed, so a
    byte that is not UTF-8 is located by a scan of the file's bytes."""
    if isinstance(exc, csv.Error):
        return DataError(f"line {reader.line_num}: {exc}")
    data = path.read_bytes()
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        data[start:].decode("utf-8")
    except UnicodeDecodeError as scan:
        at = start + scan.start
        line = len(re.findall(rb"\r\n|\r|\n", data[:at])) + 1
        return DataError(f"line {line}: byte 0x{data[at]:02x} is not UTF-8 text; "
                         "the file must be UTF-8 encoded")
    return DataError(f"the file is not UTF-8 text ({exc.reason})")


class _BlockParser:
    """Checks and converts blocks of one file's rows, one column at a time,
    and keeps the converted columns.

    Each distinct label path and date text is checked once per file. Label
    paths are coded in order of first appearance.
    """

    def __init__(self, header: list[str], schema: CsvSchema):
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
            raise DataError(f"CSV header is missing mapped columns: {missing}")

        # A repeated header name maps to its last column, as in csv.DictReader.
        index = {name: i for i, name in enumerate(header)}
        self.schema = schema
        self.label_cols = [(index[c], c) for c in (schema.client_label, *hierarchy)]
        self.lat_i, self.lon_i, self.date_i, self.target_i = (index[c] for c in (
            schema.latitude, schema.longitude, schema.ref_date, schema.target))
        self.feature_cols = [(index[c], c) for c in features]
        # The order in which a row's cells are checked, to name a short
        # row's first missing column.
        self.read_order = [*self.label_cols, (self.lat_i, schema.latitude), (self.lon_i, schema.longitude),
                           (self.date_i, schema.ref_date), *self.feature_cols, (self.target_i, schema.target)]
        self.width = 1 + max(i for i, _ in self.read_order)
        self.label_cells = itemgetter(*(i for i, _ in self.label_cols))

        self.paths: dict[tuple[str, ...], int] = {}
        self.path_codes: dict = {}
        self.ordinals: dict[str, int] = {}
        # Per block: path codes, latitude, longitude, ordinals, target,
        # then one array per feature.
        self.parts: list[list[np.ndarray]] = [[] for _ in range(5 + len(self.feature_cols))]

    def parse(self, block: list[list[str]]) -> bool:
        """Convert a block of rows and keep its columns; False if any row
        of it is bad."""
        if min(map(len, block)) < self.width:
            return False
        columns = [self._path_codes(block),
                   _floats([row[self.lat_i] for row in block], required=True),
                   _floats([row[self.lon_i] for row in block], required=True),
                   self._ordinals(block),
                   *(_floats([row[i] for row in block], required=False)
                     for i in (self.target_i, *(i for i, _ in self.feature_cols)))]
        if any(column is None for column in columns):
            return False
        _, lat, lon, *_ = columns
        try:
            check_coordinates(lat.min(), lon.min())
            check_coordinates(lat.max(), lon.max())
        except ValueError:
            return False
        for parts, column in zip(self.parts, columns):
            parts.append(column)
        return True

    def _path_codes(self, block: list[list[str]]) -> np.ndarray | None:
        keys = list(map(self.label_cells, block))
        for key in dict.fromkeys(keys):
            if key not in self.path_codes:
                cells = (key,) if isinstance(key, str) else key
                try:
                    path = tuple([_label(text, c) for text, (_, c) in zip(cells, self.label_cols)])
                except ValueError:
                    return None
                self.path_codes[key] = self.paths.setdefault(path, len(self.paths))
        return np.array([self.path_codes[key] for key in keys], dtype=np.int64)

    def _ordinals(self, block: list[list[str]]) -> np.ndarray | None:
        texts = [row[self.date_i] for row in block]
        for text in set(texts).difference(self.ordinals):
            try:
                self.ordinals[text] = _ordinal(text, self.schema.ref_date)
            except ValueError:
                return None
        return np.array([self.ordinals[text] for text in texts], dtype=np.int64)

    def raise_first_bad_row(self, block: list[list[str]], lines: list[int]) -> None:
        """Check a block's rows one at a time and raise a DataError for the
        first bad one."""
        schema = self.schema
        for row, line in zip(block, lines):
            try:
                for i, c in self.label_cols:
                    _label(row[i], c)
                lat = _number(row[self.lat_i], schema.latitude, required=True)
                lon = _number(row[self.lon_i], schema.longitude, required=True)
                check_coordinates(lat, lon)
                _ordinal(row[self.date_i], schema.ref_date)
                for i, c in self.feature_cols:
                    _number(row[i], c, required=False)
                _number(row[self.target_i], schema.target, required=False)
            except IndexError:
                column = next(c for i, c in self.read_order if i >= len(row))
                raise DataError(f"line {line}: row is short a value for column {column!r}") from None
            except ValueError as exc:
                raise DataError(f"line {line}: {exc}") from exc
        raise AssertionError("the column checks rejected a block whose rows all parse")

    def table(self) -> GeoTable:
        """Every kept block's rows as one table."""
        if not self.parts[0]:
            return GeoTable((), [], [], [], [], np.empty((0, len(self.feature_cols))), [])
        codes, lat, lon, ordinals, target, *features = (np.concatenate(parts) for parts in self.parts)
        return GeoTable(tuple(self.paths), codes, lat, lon, ordinals,
                        np.stack(features, axis=1) if features else np.empty((len(target), 0)), target)


def _floats(cells: list[str], required: bool) -> np.ndarray | None:
    """The cells as numbers, blank ones as NaN; None if any cell is not a
    number, holds a non-finite value, or (when required) is blank. This
    is :func:`_number` over a column."""
    try:
        values = np.array([float(text) if (text := cell.strip()) else math.nan for cell in cells],
                          dtype=np.float64)
    except ValueError:
        return None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size and (required or any(cells[k].strip() for k in bad)):
        return None
    return values


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
            raise DataError(f"unit {unit!r} has no target values")
        if config.fill_missing:
            targets[lo:hi] = _interpolate(targets[lo:hi])
            for j in range(feats.shape[1]):
                if np.isnan(feats[lo:hi, j]).all():
                    raise DataError(f"unit {unit!r} has no values for feature {j}")
                feats[lo:hi, j] = _interpolate(feats[lo:hi, j])
        elif not keep[lo:hi].any():
            raise DataError(f"unit {unit!r} has no complete rows")

        if config.drop_outliers:
            kept_idx = np.flatnonzero(keep[lo:hi])
            inlier = _outlier_keep(targets[lo:hi][kept_idx], config.outlier_zscore)
            keep[lo + kept_idx[~inlier]] = False
            if not inlier.any():
                raise DataError(
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
    shares one class scale. The tier tree is that of the clients'
    hierarchy paths (:class:`TierTopology`). The reference date enters
    the feature matrix as a min-max normalised ordinal unless switched
    off. Each client keeps its rows in table order.
    """
    if not len(table):
        raise DataError("cannot partition an empty corpus")

    labels = discretize_target(table.target, n_classes)
    ordinals = table.ordinals.astype(np.float64)
    lo, hi = ordinals.min(), ordinals.max()
    date_feature = np.full(ordinals.size, 0.5) if lo == hi else (ordinals - lo) / (hi - lo)

    leaves, leaf = table.leaf_codes()
    counts = np.bincount(leaf, minlength=len(leaves))
    thin = [leaves[k] for k in np.flatnonzero((counts > 0) & (counts < min_rows))]
    if thin:
        raise DataError(f"leaves with fewer than {min_rows} rows: {thin}")

    by_leaf = np.argsort(leaf, kind="stable")
    ends = np.cumsum(counts)
    datasets: dict[str, ClientDataset] = {}
    for k in np.flatnonzero(counts):
        leaf_id = leaves[k]
        idx = by_leaf[ends[k] - counts[k]:ends[k]]
        leaf_paths = {table.paths[c] for c in np.unique(table.path_index[idx])}
        if len(leaf_paths) > 1:
            raise DataError(f"leaf {leaf_id!r} appears under multiple paths: {sorted(leaf_paths)}")
        feats = table.features[idx]
        if include_date_feature:
            feats = np.hstack([feats, date_feature[idx][:, None]])
        attr = SpatialAttribute(
            latitude=float(np.mean(table.latitude[idx])),
            longitude=float(np.mean(table.longitude[idx])),
            hierarchy_path=next(iter(leaf_paths)),
        )
        datasets[leaf_id] = ClientDataset(leaf_id, attr, feats, labels[idx], n_classes)
    return datasets, TierTopology(ds.spatial.hierarchy_path for ds in datasets.values())


def train_valid_split(dataset: ClientDataset, ratio: float, seed: int) -> tuple[ClientDataset, ClientDataset]:
    """The client's training and validation rows, as two datasets: a
    seeded shuffle picks floor(ratio * n) rows to train on, the rest
    validate, and each half keeps the client's row order. A split that
    leaves either half empty raises :class:`DataError`."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    n = dataset.n_rows
    n_train = int(math.floor(ratio * n))
    if n_train == 0 or n_train == n:
        raise DataError(f"client {dataset.client_id!r}: ratio {ratio} leaves an empty split for {n} rows")
    train = np.zeros(n, dtype=bool)
    train[np.random.default_rng(seed).permutation(n)[:n_train]] = True
    return tuple(
        ClientDataset(dataset.client_id, dataset.spatial, dataset.features[rows], dataset.labels[rows],
                      dataset.n_classes)
        for rows in (train, ~train)
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
            datasets[client_id] = ClientDataset(client_id, attr, feats, labels, spec.n_classes)
    return datasets, TierTopology(ds.spatial.hierarchy_path for ds in datasets.values()), 1.0 - spec.noise_rate


def export_csv(datasets: Mapping[str, ClientDataset], path: str | Path) -> None:
    """Write clients back out in the default CSV schema.

    Client datasets keep no per-row dates, so sequential dates are
    synthesised per client; targets are the integer class labels.
    """
    datasets = dict(datasets)
    if not datasets:
        raise DataError("no clients to export")
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
