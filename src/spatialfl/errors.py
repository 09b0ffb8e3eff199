"""Exception types shared across the package.

There are four, one per way a caller tells failures apart. Every error
is a :class:`SpatialFLError`; the command line exits 2 for a
:class:`ConfigError`, 3 for a :class:`DataError` (the input data cannot
be used as given) and 4 for any other error. A :class:`DivergenceError`
(exit 4) is told apart so that each caller can lead its message with the
client, round, node or model that diverged. No code branches on any
finer cause, so the message, not the type, names it.
"""

from contextlib import contextmanager


class SpatialFLError(Exception):
    """Base class for every error raised by this package: bad dimensions,
    shapes, labels, weights, topologies or model files."""


class ConfigError(SpatialFLError):
    """One or more experiment-config validation failures."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))


class DataError(SpatialFLError):
    """The input data cannot be used as given: its file, its rows, or the
    clients, hierarchy and splits derived from them."""


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
