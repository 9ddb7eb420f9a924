"""Core data structures: schema, columnar frames, scored datasets, CSV IO, splits.

Everything here is immutable after construction and safe to share across
threads. Missing cells are tracked with explicit boolean masks; a missing
numeric cell is stored as NaN but must never be read as a value.

Residuals are defined as ``y_true - y_pred`` on whatever numeric scale the
prediction column carries (probabilities, scores, or regression outputs);
classification models therefore get probability residuals, not 0/1 error
indicators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields, replace
from itertools import compress, repeat, zip_longest
from numbers import Real
from typing import Generic, Iterable, Mapping, Sequence, TypeVar

import numpy as np

from .errors import (
    CsvFormatError,
    DuplicateHeader,
    EmptyDataset,
    MissingColumn,
    SchemaError,
    SchemaMismatch,
    ShortRow,
    TypeParseError,
)

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN", "null"})

KINDS = ("numeric", "categorical")
# Roles that may appear on at most one column each, with the ScoredDataset
# field and dtype that carry them (None: numbers or ISO-8601 text as given).
SCORED_ROLES = {
    "target": ("y_true", np.float64),
    "prediction": ("y_pred", np.float64),
    "prediction_lower": ("y_pred_lower", np.float64),
    "prediction_upper": ("y_pred_upper", np.float64),
    "timestamp": ("timestamps", None),
    "split_tag": ("split_tag", object),
}
ROLES = ("feature", *SCORED_ROLES)
_C = TypeVar("_C")  # the column type a schema or frame holds


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _codes_in_order(values: Sequence, absent=()) -> tuple[tuple, np.ndarray]:
    """The distinct values not in ``absent``, in first-appearance order, and
    each value's int64 code into them: -1 for a value in ``absent``."""
    labels = tuple(v for v in dict.fromkeys(values) if v not in absent)
    index = dict(zip(labels, range(len(labels))))
    return labels, np.fromiter(map(index.get, values, repeat(-1)), np.int64, len(values))


def _as_row_indices(idx) -> np.ndarray:
    idx = np.asarray(idx)
    if idx.dtype == bool:
        return np.nonzero(idx)[0]
    return idx.astype(np.intp, copy=False)


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: str
    role: str = "feature"
    valid_range: tuple[float, float] | None = None
    valid_categories: frozenset[str] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"column name must be a string, got {self.name!r}")
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")
        # lists, as JSON gives them, are stored as the declared tuple and frozenset
        vr, vc = self.valid_range, self.valid_categories
        if vr is not None:
            if self.kind != "numeric":
                raise SchemaError(f"column {self.name!r}: valid_range on non-numeric column")
            if not (
                isinstance(vr, (list, tuple)) and len(vr) == 2
                and all(isinstance(v, Real) and not isinstance(v, bool) for v in vr)
            ):
                raise SchemaError(f"column {self.name!r}: valid_range must be [low, high], got {vr!r}")
            lo, hi = map(float, vr)
            if not lo <= hi:
                raise SchemaError(f"column {self.name!r}: valid_range lower bound exceeds upper")
            object.__setattr__(self, "valid_range", (lo, hi))
        if vc is not None:
            if self.kind != "categorical":
                raise SchemaError(f"column {self.name!r}: valid_categories on non-categorical column")
            if not (isinstance(vc, (list, tuple, set, frozenset)) and all(isinstance(v, str) for v in vc)):
                raise SchemaError(f"column {self.name!r}: valid_categories must be a list of strings")
            object.__setattr__(self, "valid_categories", frozenset(vc))


def json_value(value):
    """The JSON form of a declared value: a tuple as a list, a frozenset as a sorted list."""
    if isinstance(value, frozenset):
        return sorted(value)
    return list(value) if isinstance(value, tuple) else value


class _NamedColumns(Generic[_C]):
    """Columns with unique names, kept in order and looked up by name."""

    def __init__(self, columns: Sequence[_C]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        self.columns: tuple[_C, ...] = tuple(columns)
        self._by_name = {c.name: c for c in self.columns}

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> _C:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingColumn(name) from None


class Schema(_NamedColumns[ColumnSpec]):
    """Typed column layout for a dataset.

    Column names are unique and each non-feature role (target, prediction,
    quantile bounds, timestamp, split tag) appears at most once. A schema
    used to load a :class:`ScoredDataset` must carry both a target and a
    prediction column.
    """

    def __init__(self, columns: Sequence[ColumnSpec]):
        super().__init__(columns)
        seen_roles: dict[str, str] = {}
        for c in columns:
            if c.role == "feature":
                continue
            if c.role in seen_roles:
                raise SchemaError(
                    f"role {c.role!r} given to both {seen_roles[c.role]!r} and {c.name!r}"
                )
            seen_roles[c.role] = c.name
            if SCORED_ROLES[c.role][1] is np.float64 and c.kind != "numeric":
                raise SchemaError(f"column {c.name!r}: role {c.role!r} must be numeric")
        if ("prediction_lower" in seen_roles) != ("prediction_upper" in seen_roles):
            raise SchemaError("prediction_lower and prediction_upper must both be present")
        self._by_role = seen_roles

    def __iter__(self):
        return iter(self.columns)

    def role_column(self, role: str) -> str | None:
        return self._by_role.get(role)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == "feature")

    def is_scored(self) -> bool:
        return "target" in self._by_role and "prediction" in self._by_role

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Schema":
        keys = [f.name for f in fields(ColumnSpec)]
        for entry in doc["columns"]:
            if not isinstance(entry, Mapping):
                raise SchemaError(f"a column must be an object, got {entry!r}")
            unknown = [key for key in entry if key not in keys]
            if unknown:
                raise SchemaError(f"unknown column key {unknown[0]!r}; valid: {keys}")
        return cls([ColumnSpec(**entry) for entry in doc["columns"]])

    def to_json_dict(self) -> dict:
        return {
            "columns": [
                {key: json_value(value) for key, value in asdict(c).items() if value is not None}
                for c in self.columns
            ]
        }


@dataclass(frozen=True)
class NumericColumn:
    name: str
    values: np.ndarray
    missing_mask: np.ndarray

    kind = "numeric"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.missing_mask, dtype=bool)
        if values.shape != mask.shape or values.ndim != 1:
            raise SchemaError(f"column {self.name!r}: values/mask shape mismatch")
        values = values.copy()
        values[mask] = np.nan
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "missing_mask", _frozen(mask.copy()))

    @classmethod
    def from_values(cls, name: str, values) -> "NumericColumn":
        """Build from raw values, treating NaN as missing."""
        arr = np.asarray(values, dtype=np.float64)
        return cls(name, arr, np.isnan(arr))

    def observed(self) -> np.ndarray:
        return self.values[~self.missing_mask]

    def take(self, idx: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.name, self.values[idx], self.missing_mask[idx])


@dataclass(frozen=True)
class CategoricalColumn:
    name: str
    codes: np.ndarray
    labels: tuple[str, ...]
    missing_mask: np.ndarray

    kind = "categorical"

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64).copy()
        mask = np.asarray(self.missing_mask, dtype=bool).copy()
        if codes.shape != mask.shape or codes.ndim != 1:
            raise SchemaError(f"column {self.name!r}: codes/mask shape mismatch")
        codes[mask] = -1
        observed = codes[~mask]
        if observed.size and (observed.min() < 0 or observed.max() >= len(self.labels)):
            raise SchemaError(f"column {self.name!r}: code outside label table")
        object.__setattr__(self, "codes", _frozen(codes))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "missing_mask", _frozen(mask))

    @classmethod
    def from_labels(cls, name: str, values: Sequence[str | None]) -> "CategoricalColumn":
        """Build from label strings; None marks missing. Label table keeps
        first-appearance order so downstream frequency tables are deterministic."""
        labels, codes = _codes_in_order(values, absent=(None,))
        return cls(name, codes, labels, codes < 0)

    def label_at(self, row: int) -> str | None:
        if self.missing_mask[row]:
            return None
        return self.labels[self.codes[row]]

    def observed_labels(self) -> list[str]:
        return [self.labels[c] for c in self.codes[~self.missing_mask]]

    def take(self, idx: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(self.name, self.codes[idx], self.labels, self.missing_mask[idx])


Column = NumericColumn | CategoricalColumn


class FeatureFrame(_NamedColumns[Column]):
    """Immutable columnar table of typed feature columns with missingness masks."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("frame needs at least one column")
        super().__init__(columns)
        n = len(columns[0].missing_mask)
        for c in columns:
            if len(c.missing_mask) != n:
                raise SchemaError(f"column {c.name!r} has {len(c.missing_mask)} rows, expected {n}")
        self._n_rows = n

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def check_same_columns(self, other: "FeatureFrame", what: str) -> None:
        """Raise ``SchemaMismatch`` at the first column whose name or kind differs in ``other``."""
        for i, pair in enumerate(zip_longest(self.columns, other.columns)):
            a, b = ("no column" if c is None else f"{c.name!r} ({c.kind})" for c in pair)
            if a != b:
                raise SchemaMismatch(f"{what} disagree on columns: column {i} is {a} vs {b}")

    def numeric_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if isinstance(c, NumericColumn))

    def categorical_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if isinstance(c, CategoricalColumn))

    def numeric_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack numeric columns into an (n_rows, k) float matrix; NaN at missing."""
        use = names if names is not None else self.numeric_names()
        cols = []
        for name in use:
            col = self.column(name)
            if not isinstance(col, NumericColumn):
                raise SchemaError(f"column {name!r} is not numeric")
            cols.append(col.values)
        return np.column_stack(cols) if cols else np.empty((self._n_rows, 0))

    def complete_rows(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Boolean mask of rows with no missing cell among the given columns."""
        use = names if names is not None else self.names
        ok = np.ones(self._n_rows, dtype=bool)
        for name in use:
            ok &= ~self.column(name).missing_mask
        return ok

    def take(self, idx) -> "FeatureFrame":
        idx = _as_row_indices(idx)
        return FeatureFrame([c.take(idx) for c in self.columns])

    def replace_column(self, column: Column) -> "FeatureFrame":
        if column.name not in self:
            raise MissingColumn(column.name)
        return FeatureFrame([column if c.name == column.name else c for c in self.columns])

    @classmethod
    def from_numeric(cls, matrix, names: Sequence[str] | None = None) -> "FeatureFrame":
        """Convenience constructor from a 2-D float array (NaN marks missing)."""
        m = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
        if names is None:
            names = [f"x{i}" for i in range(m.shape[1])]
        return cls([NumericColumn.from_values(n, m[:, j]) for j, n in enumerate(names)])


@dataclass(frozen=True)
class ScoredDataset:
    """A feature frame plus actual outcomes and model predictions.

    ``y_pred_lower``/``y_pred_upper`` carry optional quantile predictions;
    ``timestamps`` are opaque sortable values (numbers or ISO-8601 strings);
    ``split_tag`` labels each row's split membership.
    """

    frame: FeatureFrame
    y_true: np.ndarray
    y_pred: np.ndarray
    y_pred_lower: np.ndarray | None = None
    y_pred_upper: np.ndarray | None = None
    timestamps: np.ndarray | None = None
    split_tag: np.ndarray | None = None

    def __post_init__(self):
        if (self.y_pred_lower is None) != (self.y_pred_upper is None):
            raise SchemaError("y_pred_lower and y_pred_upper must be given together")
        for field, dtype in SCORED_ROLES.values():
            values = getattr(self, field)
            if values is None and self.__dataclass_fields__[field].default is None:
                continue  # an optional role left out
            values = np.array(values, dtype=dtype)
            if values.dtype.kind == "U":  # text timestamps are kept as str objects
                values = values.astype(object)
            if values.ndim != 1 or len(values) != self.frame.n_rows:
                raise SchemaError(f"{field} length must equal frame.n_rows")
            if dtype is np.float64 and not np.isfinite(values).all():
                row = int(np.argmin(np.isfinite(values)))
                bad = float(values[row])
                raise SchemaError(f"{field} must be finite, got {bad!r} at row {row}")
            object.__setattr__(self, field, _frozen(values))
        if self.y_pred_lower is not None and np.any(self.y_pred_lower > self.y_pred_upper):
            raise SchemaError("y_pred_lower exceeds y_pred_upper on some rows")

    @property
    def n_rows(self) -> int:
        return self.frame.n_rows

    def take(self, idx) -> "ScoredDataset":
        idx = _as_row_indices(idx)
        pick = lambda a: None if a is None else a[idx]
        return ScoredDataset(
            frame=self.frame.take(idx),
            **{field: pick(getattr(self, field)) for field, _ in SCORED_ROLES.values()},
        )


@dataclass(frozen=True)
class Residuals:
    """Per-row ``y_true - y_pred``; never contains missing entries."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if np.any(np.isnan(v)):
            raise SchemaError("residuals contain NaN")
        object.__setattr__(self, "values", _frozen(v.copy()))

    def __len__(self) -> int:
        return len(self.values)


def residuals(ds: ScoredDataset) -> Residuals:
    """Residuals ``y_true - y_pred`` of a scored dataset."""
    return Residuals(ds.y_true - ds.y_pred)


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _plain_number_text(text: str) -> bool:
    """False for what ``float()`` reads beyond ASCII numbers: ``_`` digit
    separators, non-ASCII digits and non-ASCII whitespace."""
    return text.isascii() and "_" not in text


def _plain_numbers(tokens: list[str]) -> np.ndarray | None:
    """The tokens as floats when every one is a finite plain number, else
    None; a caller's per-token loop then names the first that is not."""
    try:
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        return None
    if np.isfinite(values).all() and _plain_number_text("".join(tokens)):
        return values
    return None


def _plain_number(token: str) -> float | None:
    """``float(token)``, finite or not, when the token is a plain number:
    ASCII text without ``_`` that ``float()`` reads. None for anything else."""
    try:
        return float(token) if _plain_number_text(token) else None
    except ValueError:
        return None


def _parse_numeric(token: str, row: int, col: str) -> float:
    value = _plain_number(token)
    if value is None or not math.isfinite(value):  # NaN only ever marks a missing cell
        raise TypeParseError(row, col, token)
    return value


def _timestamp_values(raw: Sequence[str], col: str) -> np.ndarray:
    """Finite numbers, or ISO-8601 text when any cell is not a number."""
    try:
        for token in raw:
            float(token)
    except ValueError:
        return np.array(raw, dtype=object)
    return np.array([_parse_numeric(token, i, col) for i, token in enumerate(raw)])


def _read_rows(path) -> list[list[str]]:
    """Every row of a UTF-8 CSV file, BOM dropped; any other file raises ``CsvFormatError``."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            return list(reader)
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except csv.Error as exc:
            raise CsvFormatError(f"{path}, line {reader.line_num}: {exc}") from None


def load_csv(
    path,
    schema: Schema,
    missing_tokens: Iterable[str] = DEFAULT_MISSING_TOKENS,
) -> FeatureFrame | ScoredDataset:
    """Load an RFC-4180 CSV under a schema.

    The header row must contain every schema column (order-insensitive);
    extra columns are ignored. Cells matching ``missing_tokens`` become
    missing. Returns a :class:`ScoredDataset` when the schema has both a
    target and a prediction column, otherwise a :class:`FeatureFrame`.
    Missing cells in target/prediction/quantile columns are parse errors:
    scored rows must be fully scored. A numeric cell is a finite number in
    ASCII, as Python's ``float()`` reads it, without ``_`` digit separators;
    surrounding ASCII whitespace is accepted. Anything else raises
    :class:`TypeParseError` naming the first bad cell. A file that is not
    UTF-8 CSV raises :class:`CsvFormatError`; a leading byte-order mark is
    dropped, so it never joins the first header name.
    """
    missing = frozenset(missing_tokens)
    rows = _read_rows(path)
    if not rows:
        raise EmptyDataset(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    positions: dict[str, int] = {}
    for i, name in enumerate(header):
        if name in schema:
            if name in positions:
                raise DuplicateHeader(name)
            positions[name] = i
    for spec in schema:
        if spec.name not in positions:
            raise MissingColumn(spec.name)
    needed = max(positions.values(), default=-1) + 1
    for i, r in enumerate(rows):
        if len(r) < needed:
            raise ShortRow(i, len(header), len(r))

    if (schema.role_column("target") is None) != (schema.role_column("prediction") is None):
        raise SchemaError("schema must carry both target and prediction roles, or neither")

    columns = list(zip(*rows)) or [()] * needed  # every row has >= needed cells
    cells = {spec.name: columns[positions[spec.name]] for spec in schema}

    def numeric_column(spec: ColumnSpec, allow_missing: bool) -> NumericColumn:
        raw = cells[spec.name]
        mask = np.fromiter(map(missing.__contains__, raw), bool, len(raw))
        present = ~mask
        values = np.zeros(len(raw))  # NumericColumn stores NaN where mask is set
        kept = list(compress(raw, present.tolist()))
        parsed = _plain_numbers(kept) if allow_missing or not mask.any() else None
        if parsed is not None:
            values[present] = parsed
        else:  # the per-cell loop names the first bad cell
            for i, token in enumerate(raw):
                if token in missing:
                    if not allow_missing:
                        raise TypeParseError(i, spec.name, token)
                else:
                    values[i] = _parse_numeric(token, i, spec.name)
        return NumericColumn(spec.name, values, mask)

    feature_cols: list[Column] = []
    for spec in schema:
        if spec.role != "feature":
            continue
        if spec.kind == "numeric":
            feature_cols.append(numeric_column(spec, allow_missing=True))
        else:
            labels, codes = _codes_in_order(cells[spec.name], missing)
            feature_cols.append(CategoricalColumn(spec.name, codes, labels, codes < 0))
    frame = FeatureFrame(feature_cols)

    if not schema.is_scored():
        return frame

    fields = {}
    for role, (field, dtype) in SCORED_ROLES.items():
        name = schema.role_column(role)
        if name is None:
            continue
        if dtype is np.float64:
            fields[field] = numeric_column(schema.column(name), allow_missing=False).values
        elif dtype is object:
            fields[field] = np.array(cells[name], dtype=object)
        else:
            fields[field] = _timestamp_values(cells[name], name)
    return ScoredDataset(frame=frame, **fields)


def _format_float(v: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(v))


def feature_cells(col: Column) -> list[str]:
    """CSV cells of a feature column: missing cells empty, floats in their
    shortest round-tripping form, categories as their labels."""
    missing = col.missing_mask.tolist()
    if isinstance(col, NumericColumn):
        return ["" if m else _format_float(v) for v, m in zip(col.values.tolist(), missing)]
    return ["" if m else col.labels[c] for c, m in zip(col.codes.tolist(), missing)]


def write_csv(obj: FeatureFrame | ScoredDataset, path, schema: Schema) -> None:
    """Write a frame or scored dataset as CSV in schema column order.

    Missing cells are written as empty strings, floats via their shortest
    round-tripping representation, so ``load_csv`` reproduces values and
    missing masks exactly.
    """
    frame = obj.frame if isinstance(obj, ScoredDataset) else obj

    def column_cells(spec: ColumnSpec) -> list[str]:
        if spec.role == "feature":
            return feature_cells(frame.column(spec.name))
        if not isinstance(obj, ScoredDataset):
            raise SchemaError(f"schema role {spec.role!r} requires a ScoredDataset")
        arr = getattr(obj, SCORED_ROLES[spec.role][0])
        if arr is None:
            raise SchemaError(f"dataset has no values for role {spec.role!r}")
        if arr.dtype == object:
            return [str(v) for v in arr]
        return [_format_float(v) for v in arr]

    columns = [column_cells(spec) for spec in schema]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(schema.names))
        writer.writerows(zip(*columns))


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------


def split_dataset(
    ds: ScoredDataset,
    fractions: Sequence[tuple[str, float]],
    seed: int,
) -> list[ScoredDataset]:
    """Random disjoint exhaustive partition of rows into labeled parts.

    Weights are normalized to sum to one. Part sizes are floor-allocated;
    remainder rows go to labels in declared order. Row order within each
    part follows the original dataset. Identical inputs and seed give an
    identical partition.
    """
    n = ds.n_rows
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    if not fractions:
        raise ValueError("fractions must be nonempty")
    weights = np.array([w for _, w in fractions], dtype=np.float64)
    if np.any(weights <= 0):
        raise ValueError("fraction weights must be positive")
    weights = weights / weights.sum()

    sizes = [math.floor(w * n) for w in weights]
    remainder = n - sum(sizes)
    for i in range(remainder):
        sizes[i % len(sizes)] += 1

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    parts = []
    start = 0
    for (label, _), size in zip(fractions, sizes):
        idx = np.sort(perm[start : start + size])
        start += size
        parts.append(replace(ds.take(idx), split_tag=np.array([label] * size, dtype=object)))
    return parts
