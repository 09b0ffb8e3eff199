"""The per-row CSV reader: the test oracle of ``data.ingest_csv``.

It parses one row at a time, checking each row's cells in the order
labels, latitude, longitude, coordinate range, reference date, features,
target, and raises a RowError for the first bad cell. ``ingest_csv``
checks whole columns of a block of rows at once and must return the same
table, or raise the same error, on every file.
"""

from __future__ import annotations

import codecs
import csv
import math
import re
from datetime import date
from pathlib import Path

import numpy as np

from spatialfl.data import ROOT_ID, CsvSchema, GeoTable
from spatialfl.errors import RowError, SchemaError
from spatialfl.spatial import check_coordinates


def reference_ingest(path: str | Path, schema: CsvSchema = CsvSchema()) -> GeoTable:
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

        index = {name: i for i, name in enumerate(header)}
        label_cols = [(index[c], c) for c in (schema.client_label, *hierarchy)]
        lat_i, lon_i, date_i, target_i = (index[c] for c in (
            schema.latitude, schema.longitude, schema.ref_date, schema.target))
        feature_cols = [(index[c], c) for c in features]
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
