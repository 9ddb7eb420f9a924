"""Exception types raised across the toolkit."""

from __future__ import annotations


class ModelWatchError(Exception):
    """Base class for all library errors."""


class SchemaError(ModelWatchError):
    """A schema violates its structural invariants."""


class MissingColumn(ModelWatchError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found")
        self.name = name


class DuplicateHeader(ModelWatchError):
    def __init__(self, name: str):
        super().__init__(f"header {name!r} appears more than once")
        self.name = name


class CsvFormatError(ModelWatchError):
    """A file cannot be read as UTF-8 CSV: bytes that are not UTF-8, or a
    cell beyond the csv module's field size limit."""


class TypeParseError(ModelWatchError):
    def __init__(self, row: int, column: str, token: str):
        super().__init__(f"row {row}, column {column!r}: cannot parse {token!r}")
        self.row = row
        self.column = column
        self.token = token


class ShortRow(ModelWatchError):
    """A CSV data row has too few cells to hold every schema column."""

    def __init__(self, row: int, expected: int, found: int):
        super().__init__(f"row {row}: expected {expected} cells as in the header, found {found}")
        self.row = row
        self.expected = expected
        self.found = found


class EmptyDataset(ModelWatchError):
    """Operation requires at least one row."""


class EmptySample(ModelWatchError):
    """Operation requires a nonempty sample."""


class TooFewRows(ModelWatchError):
    """Operation requires more observations than were supplied."""


class AllMissingColumn(ModelWatchError):
    def __init__(self, name: str):
        super().__init__(f"column {name!r} has no observed values to aggregate")
        self.name = name


class StrategyKindMismatch(ModelWatchError):
    """Imputation strategy incompatible with the column kind."""


class DimensionMismatch(ModelWatchError):
    """Matrix arguments disagree on column count."""


class SchemaMismatch(ModelWatchError):
    """Two datasets disagree on column names or kinds."""


class InsufficientCalibration(ModelWatchError):
    def __init__(self, n: int, k: int):
        super().__init__(
            f"calibration set of {n} rows cannot supply rank {k}; add rows or raise alpha"
        )
        self.n = n
        self.k = k


class ModeMismatch(ModelWatchError):
    """Calibration object used with the wrong interval constructor."""


class MissingQuantileColumns(ModelWatchError):
    """Dataset lacks the quantile prediction columns required for CQR."""


class LengthMismatch(ModelWatchError):
    """Paired inputs must have equal length."""


class RangeError(ModelWatchError):
    """Input values fall outside the documented range."""


class UnknownFeature(ModelWatchError):
    def __init__(self, name: str):
        super().__init__(f"feature {name!r} not in frame")
        self.name = name


class KExceedsRows(ModelWatchError):
    """Requested cluster count exceeds the number of rows."""


class MetricIncompatible(ModelWatchError):
    """Requested metric is incompatible with the prediction/target type."""


class EmptyDevSet(ModelWatchError):
    """Nearest-neighbor matching needs a nonempty development set."""


class NoTimestamps(ModelWatchError):
    """Time-sliced evaluation needs a timestamped dataset."""


class InvariantViolation(ModelWatchError):
    """An internal invariant of an algorithm failed; a bug, not bad input."""


class ConfigError(ModelWatchError):
    """Invalid monitoring configuration. ``pointer`` is a JSON-pointer path."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class ModelProtocolError(ModelWatchError):
    """External model subprocess broke the scoring protocol.

    ``reason`` is one of ``exit_code``, ``parse``, ``count``, ``timeout``.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(f"[{reason}] {message}")
        self.reason = reason
