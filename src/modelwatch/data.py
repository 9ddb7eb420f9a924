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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateHeader,
    EmptyDataset,
    MissingColumn,
    SchemaError,
    ShortRow,
    TypeParseError,
)

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN", "null"})

KINDS = ("numeric", "categorical")
ROLES = (
    "feature",
    "target",
    "prediction",
    "prediction_lower",
    "prediction_upper",
    "timestamp",
    "split_tag",
)
# Roles that may appear on at most one column each.
_SINGLETON_ROLES = frozenset(ROLES) - {"feature"}


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        if self.kind not in KINDS:
            raise SchemaError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"column {self.name!r}: unknown role {self.role!r}")
        if self.valid_range is not None:
            if self.kind != "numeric":
                raise SchemaError(f"column {self.name!r}: valid_range on non-numeric column")
            lo, hi = self.valid_range
            if not lo <= hi:
                raise SchemaError(f"column {self.name!r}: valid_range lower bound exceeds upper")
        if self.valid_categories is not None and self.kind != "categorical":
            raise SchemaError(f"column {self.name!r}: valid_categories on non-categorical column")


class Schema:
    """Typed column layout for a dataset.

    Column names are unique and each non-feature role (target, prediction,
    quantile bounds, timestamp, split tag) appears at most once. A schema
    used to load a :class:`ScoredDataset` must carry both a target and a
    prediction column.
    """

    def __init__(self, columns: Sequence[ColumnSpec]):
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dupes}")
        seen_roles: dict[str, str] = {}
        for c in columns:
            if c.role in _SINGLETON_ROLES:
                if c.role in seen_roles:
                    raise SchemaError(
                        f"role {c.role!r} given to both {seen_roles[c.role]!r} and {c.name!r}"
                    )
                seen_roles[c.role] = c.name
            if c.role in ("target", "prediction", "prediction_lower", "prediction_upper"):
                if c.kind != "numeric":
                    raise SchemaError(f"column {c.name!r}: role {c.role!r} must be numeric")
        if "prediction_lower" in seen_roles or "prediction_upper" in seen_roles:
            if not ("prediction_lower" in seen_roles and "prediction_upper" in seen_roles):
                raise SchemaError("prediction_lower and prediction_upper must both be present")
        self.columns: tuple[ColumnSpec, ...] = tuple(columns)
        self._by_name = {c.name: c for c in self.columns}
        self._by_role = seen_roles

    def __iter__(self):
        return iter(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> ColumnSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingColumn(name) from None

    def role_column(self, role: str) -> str | None:
        return self._by_role.get(role)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.role == "feature")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def is_scored(self) -> bool:
        return "target" in self._by_role and "prediction" in self._by_role

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Schema":
        cols = []
        for entry in doc["columns"]:
            vr = entry.get("valid_range")
            vc = entry.get("valid_categories")
            cols.append(
                ColumnSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    role=entry.get("role", "feature"),
                    valid_range=tuple(float(v) for v in vr) if vr is not None else None,
                    valid_categories=frozenset(vc) if vc is not None else None,
                )
            )
        return cls(cols)

    def to_json_dict(self) -> dict:
        cols = []
        for c in self.columns:
            entry: dict = {"name": c.name, "kind": c.kind, "role": c.role}
            if c.valid_range is not None:
                entry["valid_range"] = list(c.valid_range)
            if c.valid_categories is not None:
                entry["valid_categories"] = sorted(c.valid_categories)
            cols.append(entry)
        return {"columns": cols}


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
        labels: list[str] = []
        index: dict[str, int] = {}
        codes = np.empty(len(values), dtype=np.int64)
        mask = np.zeros(len(values), dtype=bool)
        for i, v in enumerate(values):
            if v is None:
                codes[i] = -1
                mask[i] = True
                continue
            if v not in index:
                index[v] = len(labels)
                labels.append(v)
            codes[i] = index[v]
        return cls(name, codes, tuple(labels), mask)

    def label_at(self, row: int) -> str | None:
        if self.missing_mask[row]:
            return None
        return self.labels[self.codes[row]]

    def observed_labels(self) -> list[str]:
        return [self.labels[c] for c in self.codes[~self.missing_mask]]

    def take(self, idx: np.ndarray) -> "CategoricalColumn":
        return CategoricalColumn(self.name, self.codes[idx], self.labels, self.missing_mask[idx])


Column = NumericColumn | CategoricalColumn


class FeatureFrame:
    """Immutable columnar table of typed feature columns with missingness masks."""

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise SchemaError("frame needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in frame")
        n = len(columns[0].values if isinstance(columns[0], NumericColumn) else columns[0].codes)
        for c in columns:
            length = len(c.values) if isinstance(c, NumericColumn) else len(c.codes)
            if length != n:
                raise SchemaError(f"column {c.name!r} has {length} rows, expected {n}")
        self._columns: tuple[Column, ...] = tuple(columns)
        self._by_name = {c.name: c for c in self._columns}
        self._n_rows = n

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def columns(self) -> tuple[Column, ...]:
        return self._columns

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise MissingColumn(name) from None

    def numeric_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns if isinstance(c, NumericColumn))

    def categorical_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self._columns if isinstance(c, CategoricalColumn))

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
        return FeatureFrame([c.take(idx) for c in self._columns])

    def replace_column(self, column: Column) -> "FeatureFrame":
        if column.name not in self._by_name:
            raise MissingColumn(column.name)
        return FeatureFrame([column if c.name == column.name else c for c in self._columns])

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
        n = self.frame.n_rows
        y_true = _frozen(np.asarray(self.y_true, dtype=np.float64).copy())
        y_pred = _frozen(np.asarray(self.y_pred, dtype=np.float64).copy())
        if len(y_true) != n or len(y_pred) != n:
            raise SchemaError("y_true/y_pred length must equal frame.n_rows")
        object.__setattr__(self, "y_true", y_true)
        object.__setattr__(self, "y_pred", y_pred)
        lower, upper = self.y_pred_lower, self.y_pred_upper
        if (lower is None) != (upper is None):
            raise SchemaError("y_pred_lower and y_pred_upper must be given together")
        if lower is not None:
            lower = np.asarray(lower, dtype=np.float64).copy()
            upper = np.asarray(upper, dtype=np.float64).copy()
            if len(lower) != n or len(upper) != n:
                raise SchemaError("quantile prediction length must equal frame.n_rows")
            if np.any(lower > upper):
                raise SchemaError("y_pred_lower exceeds y_pred_upper on some rows")
            object.__setattr__(self, "y_pred_lower", _frozen(lower))
            object.__setattr__(self, "y_pred_upper", _frozen(upper))
        if self.timestamps is not None:
            ts = np.asarray(self.timestamps)
            if len(ts) != n:
                raise SchemaError("timestamps length must equal frame.n_rows")
            object.__setattr__(self, "timestamps", _frozen(ts.copy()))
        if self.split_tag is not None:
            tags = np.asarray(self.split_tag, dtype=object)
            if len(tags) != n:
                raise SchemaError("split_tag length must equal frame.n_rows")
            object.__setattr__(self, "split_tag", _frozen(tags.copy()))

    @property
    def n_rows(self) -> int:
        return self.frame.n_rows

    def take(self, idx) -> "ScoredDataset":
        idx = _as_row_indices(idx)
        pick = lambda a: None if a is None else a[idx]
        return ScoredDataset(
            frame=self.frame.take(idx),
            y_true=self.y_true[idx],
            y_pred=self.y_pred[idx],
            y_pred_lower=pick(self.y_pred_lower),
            y_pred_upper=pick(self.y_pred_upper),
            timestamps=pick(self.timestamps),
            split_tag=pick(self.split_tag),
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


def _parse_numeric(token: str, row: int, col: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise TypeParseError(row, col, token) from None


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
    scored rows must be fully scored.
    """
    missing = frozenset(missing_tokens)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataset(f"{path}: empty file") from None
        positions: dict[str, int] = {}
        for i, name in enumerate(header):
            if name in schema:
                if name in positions:
                    raise DuplicateHeader(name)
                positions[name] = i
        for spec in schema:
            if spec.name not in positions:
                raise MissingColumn(spec.name)
        rows = list(reader)
    needed = max(positions.values(), default=-1) + 1
    for i, r in enumerate(rows):
        if len(r) < needed:
            raise ShortRow(i, len(header), len(r))

    has_target = schema.role_column("target") is not None
    has_pred = schema.role_column("prediction") is not None
    if has_target != has_pred:
        raise SchemaError("schema must carry both target and prediction roles, or neither")

    cells: dict[str, list[str]] = {
        spec.name: [r[positions[spec.name]] for r in rows] for spec in schema
    }

    def numeric_column(spec: ColumnSpec, allow_missing: bool) -> NumericColumn:
        raw = cells[spec.name]
        values = np.empty(len(raw), dtype=np.float64)
        mask = np.zeros(len(raw), dtype=bool)
        for i, token in enumerate(raw):
            if token in missing:
                if not allow_missing:
                    raise TypeParseError(i, spec.name, token)
                values[i] = np.nan
                mask[i] = True
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
            labels = [None if t in missing else t for t in cells[spec.name]]
            feature_cols.append(CategoricalColumn.from_labels(spec.name, labels))
    frame = FeatureFrame(feature_cols)

    if not has_target:
        return frame

    def role_values(role: str) -> np.ndarray | None:
        name = schema.role_column(role)
        if name is None:
            return None
        return numeric_column(schema.column(name), allow_missing=False).values

    timestamps = None
    ts_name = schema.role_column("timestamp")
    if ts_name is not None:
        raw = cells[ts_name]
        try:
            timestamps = np.array([float(t) for t in raw], dtype=np.float64)
        except ValueError:
            timestamps = np.array(raw, dtype=object)

    split_tag = None
    tag_name = schema.role_column("split_tag")
    if tag_name is not None:
        split_tag = np.array(cells[tag_name], dtype=object)

    return ScoredDataset(
        frame=frame,
        y_true=role_values("target"),
        y_pred=role_values("prediction"),
        y_pred_lower=role_values("prediction_lower"),
        y_pred_upper=role_values("prediction_upper"),
        timestamps=timestamps,
        split_tag=split_tag,
    )


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
        arrays = {
            "target": obj.y_true,
            "prediction": obj.y_pred,
            "prediction_lower": obj.y_pred_lower,
            "prediction_upper": obj.y_pred_upper,
            "timestamp": obj.timestamps,
            "split_tag": obj.split_tag,
        }
        arr = arrays[spec.role]
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
        part = ds.take(idx)
        tagged = ScoredDataset(
            frame=part.frame,
            y_true=part.y_true,
            y_pred=part.y_pred,
            y_pred_lower=part.y_pred_lower,
            y_pred_upper=part.y_pred_upper,
            timestamps=part.timestamps,
            split_tag=np.array([label] * size, dtype=object),
        )
        parts.append(tagged)
    return parts
