"""Numeric encodings of a client's geographic identity.

A client is identified by coordinates and a hierarchy path ordered leaf
to root (e.g. ``[station, city]``). Its encoding is two min-max
normalised coordinates followed by one one-hot block per hierarchy
level, leaf level first; the encoding is prepended to raw model inputs.
A run builds one table of them, a row per client (:func:`encoding_table`),
which its row codes index. Only the coordinates and one column per block
can be non-zero, and the table comes with that layout, which the
training kernel relies on.
Coordinates and hierarchy blocks can each be switched off when the
vocabulary is built.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DataError


def check_coordinates(latitude: float, longitude: float) -> None:
    """Raise ValueError unless the coordinates lie on the globe."""
    if not -90.0 <= latitude <= 90.0:
        raise ValueError(f"latitude {latitude} outside [-90, 90]")
    if not -180.0 <= longitude <= 180.0:
        raise ValueError(f"longitude {longitude} outside [-180, 180]")


@dataclass(frozen=True)
class SpatialAttribute:
    """Raw geographic identity: coordinates plus a leaf-to-root label path."""

    latitude: float
    longitude: float
    hierarchy_path: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "hierarchy_path", tuple(str(p) for p in self.hierarchy_path))
        check_coordinates(self.latitude, self.longitude)
        if not self.hierarchy_path:
            raise ValueError("hierarchy_path must be non-empty")

    @property
    def leaf(self) -> str:
        return self.hierarchy_path[0]


@dataclass(frozen=True)
class SpatialVocabulary:
    """Per-level label tables plus coordinate bounds seen in the corpus.

    Labels are stored sorted lexicographically, so indices do not depend
    on record order.
    """

    levels: tuple[tuple[str, ...], ...]
    lat_bounds: tuple[float, float]
    lon_bounds: tuple[float, float]
    include_coordinates: bool = True
    include_hierarchy: bool = True

    def __post_init__(self):
        if self.lat_bounds[0] > self.lat_bounds[1] or self.lon_bounds[0] > self.lon_bounds[1]:
            raise ValueError("coordinate bounds must satisfy min <= max")
        if not (self.include_coordinates or self.include_hierarchy):
            raise ValueError("encoding would be empty: enable coordinates or hierarchy")

    @property
    def encoding_length(self) -> int:
        length = 2 if self.include_coordinates else 0
        if self.include_hierarchy:
            length += sum(len(level) for level in self.levels)
        return length

    def level_index(self, level: int, label: str) -> int:
        table = self.levels[level]
        idx = bisect_left(table, label)
        if idx == len(table) or table[idx] != label:
            raise DataError(f"label {label!r} unknown at hierarchy level {level}")
        return idx

    def to_json_dict(self) -> dict:
        return {
            "levels": [list(level) for level in self.levels],
            "lat_bounds": list(self.lat_bounds),
            "lon_bounds": list(self.lon_bounds),
            "include_coordinates": self.include_coordinates,
            "include_hierarchy": self.include_hierarchy,
        }


def build_vocabulary(
    records: list[SpatialAttribute],
    *,
    include_coordinates: bool = True,
    include_hierarchy: bool = True,
) -> SpatialVocabulary:
    """Collect per-level label tables and coordinate bounds from a corpus."""
    if not records:
        raise DataError("cannot build a vocabulary from zero records")
    depth = len(records[0].hierarchy_path)
    if any(len(r.hierarchy_path) != depth for r in records):
        raise DataError("hierarchy paths have mixed lengths")
    levels = tuple(
        tuple(sorted({r.hierarchy_path[level] for r in records}))
        for level in range(depth)
    )
    lats = [r.latitude for r in records]
    lons = [r.longitude for r in records]
    return SpatialVocabulary(
        levels=levels,
        lat_bounds=(min(lats), max(lats)),
        lon_bounds=(min(lons), max(lons)),
        include_coordinates=include_coordinates,
        include_hierarchy=include_hierarchy,
    )


def _normalise(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    if lo == hi:
        return 0.5
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def encoding_table(attrs: list[SpatialAttribute],
                   vocab: SpatialVocabulary | None) -> tuple[np.ndarray, np.ndarray]:
    """The encodings of ``attrs`` against ``vocab`` as a ``(K, E)`` table
    (``E`` is ``vocab.encoding_length``), in the order given, and its
    ``(K, A)`` layout; pure and deterministic. Row ``k`` of the layout
    lists, ascending, the columns of encoding ``k`` that may be non-zero:
    both coordinates, then the attribute's label column in each level's
    block, which holds 1.0. Every other entry is exactly 0.0. A coordinate
    at its bound encodes 0.0 too, and is listed all the same: the columns
    follow from the vocabulary's layout, never from values. With
    ``vocab=None`` both arrays are ``K`` rows of width 0. An unknown label
    or a path of another depth raises :class:`DataError`."""
    if vocab is None:
        return np.empty((len(attrs), 0)), np.empty((len(attrs), 0), dtype=np.intp)
    head = 2 if vocab.include_coordinates else 0
    # Each level's block starts after the coordinates and the blocks before it.
    starts = np.cumsum([head] + [len(level) for level in vocab.levels])[:-1]
    table = np.zeros((len(attrs), vocab.encoding_length))
    columns = np.empty((len(attrs), head + len(starts) * vocab.include_hierarchy), dtype=np.intp)
    columns[:, :head] = np.arange(head)
    for k, attr in enumerate(attrs):
        if vocab.include_coordinates:
            table[k, :2] = (_normalise(attr.latitude, vocab.lat_bounds),
                            _normalise(attr.longitude, vocab.lon_bounds))
        if vocab.include_hierarchy:
            path = attr.hierarchy_path
            if len(path) != len(vocab.levels):
                raise DataError(f"path depth {len(path)} != vocabulary depth {len(vocab.levels)}")
            columns[k, head:] = starts + [vocab.level_index(level, label) for level, label in enumerate(path)]
            table[k, columns[k, head:]] = 1.0
    return table, columns
