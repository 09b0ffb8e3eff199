"""Exception types shared across the package.

Every error is a :class:`SpatialFLError`. The command line exits 2 for a
:class:`ConfigError`, 3 for a :class:`DataError` (the input data cannot
be used as given) and 4 for any other error.
"""

from contextlib import contextmanager


class SpatialFLError(Exception):
    """Base class for every error raised by this package."""


class DataError(SpatialFLError):
    """Base class for errors whose cause is the input data: its file,
    its rows, or the clients, hierarchy and splits derived from them."""


# -- model arithmetic ---------------------------------------------------------

class InvalidDimensionError(SpatialFLError):
    """A model dimension is zero or negative."""


class ShapeError(SpatialFLError):
    """Array shapes are inconsistent with the model's dimensions."""


class InvalidLabelError(SpatialFLError):
    """A class label lies outside [0, n_classes)."""


class DivergenceError(SpatialFLError):
    """Training, aggregation or scoring produced a non-finite value."""

    @classmethod
    @contextmanager
    def naming(cls, where: str):
        """Lead the message of a divergence raised inside with ``where``."""
        try:
            yield
        except cls as exc:
            raise cls(f"{where}: {exc}") from None


# -- spatial encoding ---------------------------------------------------------

class EmptyCorpusError(DataError):
    """A vocabulary was requested for an empty record set."""


class InconsistentHierarchyError(DataError):
    """Hierarchy paths disagree in length or parentage."""


class UnknownRegionError(DataError):
    """A hierarchy label is absent from the vocabulary."""


# -- federation ---------------------------------------------------------------

class EmptyClientError(DataError):
    """A client was asked to train on an empty dataset."""


class EmptyAggregationError(SpatialFLError):
    """Aggregation was requested over zero updates."""


class DegenerateWeightsError(SpatialFLError):
    """Aggregation weights are negative or sum to zero."""


class MissingClientError(DataError):
    """A topology client has no dataset or no update."""


class TopologyError(SpatialFLError):
    """The tier tree violates a structural invariant."""


class CorruptModelError(SpatialFLError):
    """A serialized model file failed validation."""


# -- data pipeline ------------------------------------------------------------

class SchemaError(DataError):
    """The CSV header does not carry a mapped column."""


class RowError(DataError):
    """A CSV data row failed to parse."""


class UnitUnusableError(DataError):
    """A spatial unit has no usable target values."""


class ThinClientError(DataError):
    """One or more leaves carry fewer rows than the minimum."""


class SplitError(DataError):
    """A train/validation split would leave one side empty."""


class EmptyDatasetError(DataError):
    """A pooled training set is empty."""


# -- harness ------------------------------------------------------------------

class EmptyEvaluationError(SpatialFLError):
    """Accuracy was requested over zero rows."""


class ConfigError(SpatialFLError):
    """One or more experiment-config validation failures."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))
