"""Numeric encodings of a client's geographic identity.

A client is identified by coordinates and a hierarchy path ordered leaf
to root (e.g. ``[station, city]``). Its encoding is two min-max
normalised coordinates followed by one one-hot block per hierarchy
level, leaf level first; the encoding is prepended to raw model inputs.
A run builds the encodings once, a row per client (:func:`encoding_table`),
which its row codes index, and holds them as their structure
(:class:`Encodings`): the coordinates and the one set column of each
level, never the dense row, whose width grows with the number of leaves.
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


@dataclass(frozen=True)
class Encodings:
    """The encodings of K clients as their structure, checked on
    construction. Encoding ``k`` is ``width`` columns wide: ``coords[k]``
    in its first ``head`` columns (``coords`` is ``(K, 2)``, or ``(K, 0)``
    without coordinates), 1.0 in each column ``labels[k]`` lists (one per
    hierarchy level, ascending, after the coordinates) and 0.0 in every
    other. A label column among the coordinates or at or past ``width``,
    labels that do not ascend, or row counts that differ raise
    ValueError."""

    coords: np.ndarray  # (K, head) float64
    labels: np.ndarray  # (K, L) intp
    width: int

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.intp)
        if coords.ndim != 2 or coords.shape[1] not in (0, 2) or labels.ndim != 2 or self.width < coords.shape[1]:
            raise ValueError(f"coordinates {coords.shape} must be (K, 2) or (K, 0) and labels (K, L) "
                             f"{labels.shape}, in width {self.width}")
        if len(labels) != len(coords):
            raise ValueError(f"{len(coords)} rows of coordinates and {len(labels)} of labels")
        if labels.size and (labels.min() < coords.shape[1] or labels.max() >= self.width):
            raise ValueError(f"label columns must lie in [{coords.shape[1]}, {self.width})")
        if (np.diff(labels, axis=1) <= 0).any():
            raise ValueError("label columns must ascend along each row")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def head(self) -> int:
        """The number of coordinate columns, 2 or 0."""
        return self.coords.shape[1]


def encoding_table(attrs: list[SpatialAttribute], vocab: SpatialVocabulary | None) -> Encodings:
    """The encodings of ``attrs`` against ``vocab``, in the order given,
    as :class:`Encodings` of width ``vocab.encoding_length``; pure and
    deterministic. Level ``l``'s label column is its block's start (after
    the coordinates and the blocks before it) plus the label's index in
    the level. With ``vocab=None`` they are ``K`` rows of width 0. An
    unknown label or a path of another depth raises :class:`DataError`."""
    k = len(attrs)
    if vocab is None:
        return Encodings(np.empty((k, 0)), np.empty((k, 0), dtype=np.intp), 0)
    coords = np.empty((k, 0))
    if vocab.include_coordinates:
        coords = np.array([(_normalise(a.latitude, vocab.lat_bounds), _normalise(a.longitude, vocab.lon_bounds))
                           for a in attrs]).reshape(k, 2)
    starts = np.cumsum([coords.shape[1]] + [len(level) for level in vocab.levels])[:-1]
    labels = np.empty((k, len(starts) if vocab.include_hierarchy else 0), dtype=np.intp)
    for row, attr in zip(labels, attrs if vocab.include_hierarchy else ()):
        path = attr.hierarchy_path
        if len(path) != len(vocab.levels):
            raise DataError(f"path depth {len(path)} != vocabulary depth {len(vocab.levels)}")
        row[:] = starts + [vocab.level_index(level, label) for level, label in enumerate(path)]
    return Encodings(coords, labels, vocab.encoding_length)
