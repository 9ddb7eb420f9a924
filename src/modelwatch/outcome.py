"""Model weakness identification and robustness testing.

Segments come from explicit/quantile binning of a feature or from k-means
clusters; per-segment error metrics and their lift over the overall metric
locate weak regions. Robustness tests rescore perturbed inputs through any
object with a ``predict(frame) -> array`` method; one that also has
``predict_many(frames) -> list of arrays``, such as the external model
adapter, scores each test's frames in one call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, Sequence

import numpy as np

from ._geometry import complete_matrix, exact_sq_dists, standardize
from .data import FeatureFrame, NumericColumn, ScoredDataset
from .errors import (
    InvariantViolation,
    KExceedsRows,
    LengthMismatch,
    MetricIncompatible,
    SchemaError,
    SchemaMismatch,
    UnknownFeature,
)
from .quality import fill_value, filled_column

DEFAULT_MIN_ROWS = 30


class Scorer(Protocol):
    def predict(self, frame: FeatureFrame) -> np.ndarray: ...


@dataclass(frozen=True)
class SegmentAssignment:
    """Per-row segment ids with human-readable labels."""

    segment_ids: np.ndarray
    labels: tuple[str, ...]
    source: str  # binned | kmeans


@dataclass(frozen=True)
class KMeansAssignment(SegmentAssignment):
    centroids: np.ndarray = field(default=None)  # original feature units
    inertia: float = 0.0
    n_iter: int = 0


@dataclass(frozen=True)
class SegmentMetricRow:
    label: str
    rows: int
    value: float | None
    lift: float | None
    degenerate: bool = False


@dataclass(frozen=True)
class SegmentMetricsTable:
    metric: str
    overall_value: float | None
    overall_rows: int
    segments: list[SegmentMetricRow]


@dataclass(frozen=True)
class WeakRegion:
    feature: str
    range_label: str
    rows: int
    metric: str
    value: float
    lift: float


@dataclass(frozen=True)
class FitGapRow:
    label: str
    train_rows: int
    test_rows: int
    train_value: float | None
    test_value: float | None
    gap: float | None
    flag: str  # overfit | underfit | ok


@dataclass(frozen=True)
class FitGapTable:
    metric: str
    overall_train: float
    overall_test: float
    rows: list[FitGapRow]


@dataclass(frozen=True)
class FeatureSensitivity:
    feature: str
    noise_scale: float
    mean_abs_delta: float
    p95_abs_delta: float


@dataclass(frozen=True)
class SensitivityReport:
    rows: list[FeatureSensitivity]
    n_repeats: int
    seed: int


@dataclass(frozen=True)
class InvarianceReport:
    max_abs_delta: float
    mean_abs_delta: float
    violating_rows: list[int]
    tolerance: float
    mode: str


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------

METRIC_NAMES = ("mae", "rmse", "error_rate", "auc")


def _is_binary(y: np.ndarray) -> bool:
    return bool(np.all(np.isin(y, (0.0, 1.0))))


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a`` with ties sharing their mean rank, as
    ``scipy.stats.rankdata`` gives them (its ``average`` method): all NaN
    when any value is NaN."""
    if np.isnan(a).any():
        return np.full(a.shape, np.nan)
    order = np.argsort(a, kind="mergesort")
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.arange(order.size)
    sorted_a = a[order]
    obs = np.r_[True, sorted_a[1:] != sorted_a[:-1]]
    dense = obs.cumsum()[inverse]
    count = np.r_[np.nonzero(obs)[0], obs.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def metric_value(metric: str, y: np.ndarray, pred: np.ndarray, threshold: float) -> float | None:
    if metric == "mae":
        return float(np.mean(np.abs(y - pred)))
    if metric == "rmse":
        return float(np.sqrt(np.mean((y - pred) ** 2)))
    if metric == "error_rate":
        return float(np.mean((pred >= threshold) != (y == 1.0)))
    if metric == "auc":
        pos = y == 1.0
        n_pos = int(pos.sum())
        n_neg = y.size - n_pos
        if n_pos == 0 or n_neg == 0:
            return None  # single-class sample: AUC undefined
        ranks = _average_ranks(pred)
        return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
    raise ValueError(f"unknown metric {metric!r}")


def check_metric(metric: str, y: np.ndarray) -> None:
    if metric not in METRIC_NAMES:
        raise ValueError(f"unknown metric {metric!r}; valid: {METRIC_NAMES}")
    if metric in ("error_rate", "auc") and not _is_binary(y):
        raise MetricIncompatible(f"{metric} needs binary 0/1 targets")


def default_error_metric(y: np.ndarray) -> str:
    """MAE for continuous targets, error rate at 0.5 for binary ones."""
    return "error_rate" if _is_binary(y) else "mae"


def resolve_metric(metric: str | None, *targets: np.ndarray) -> str:
    """The metric to score with: ``metric`` if given, else the default for
    the first target array; checked against every target array."""
    metric = metric or default_error_metric(targets[0])
    for y in targets:
        check_metric(metric, y)
    return metric


def score_groups(
    ds: ScoredDataset, groups: Iterable, metric: str, min_rows: int, threshold: float
) -> list[tuple[int, float | None]]:
    """``(rows, value)`` for each row group of ``ds``: a boolean mask, a
    slice or an index array. Groups with fewer than ``min_rows`` rows, and
    empty groups always, get no value."""
    scores = []
    for group in groups:
        y = ds.y_true[group]
        rows = y.size
        if rows >= max(min_rows, 1):
            scores.append((rows, metric_value(metric, y, ds.y_pred[group], threshold)))
        else:
            scores.append((rows, None))
    return scores


def _lift(value: float | None, overall: float | None) -> tuple[float | None, bool]:
    if value is None or overall is None:
        return None, False
    if overall == 0:
        if value == 0:
            return 1.0, True  # degenerate by convention: nothing to compare
        return float("inf"), True
    return value / overall, False


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------


def _format_edges(edges: np.ndarray) -> list[str]:
    """Edges with the fewest significant digits, from 6 (as ``:g``) up to
    17, that keep distinct edge values distinct."""
    values = edges.tolist()
    distinct = set(values)
    for digits in range(6, 18):
        if len({f"{v:.{digits}g}" for v in distinct}) == len(distinct):
            break
    return [f"{v:.{digits}g}" for v in values]


def _bin_labels(feature: str, edges: np.ndarray) -> list[str]:
    text = _format_edges(edges)
    closes = [")"] * (len(edges) - 2) + ["]"]
    return [f"{feature} in [{lo}, {hi}{close}" for lo, hi, close in zip(text, text[1:], closes)]


def _numeric_feature(frame: FeatureFrame, feature: str) -> NumericColumn:
    if feature not in frame:
        raise UnknownFeature(feature)
    col = frame.column(feature)
    if not isinstance(col, NumericColumn):
        raise SchemaError(f"segment_by_bins needs a numeric feature, got {feature!r}")
    return col


def _bin_edges(col: NumericColumn, edges: Sequence[float] | int) -> np.ndarray:
    """``edges`` checked as ascending, or the deduplicated edges of that many
    quantile bins of the observed values; equal edges collapse to one bin [a, a]."""
    if isinstance(edges, (int, np.integer)):
        if edges < 2:
            raise ValueError("quantile count must be >= 2")
        observed = col.observed()
        if observed.size == 0:
            raise SchemaError(f"feature {col.name!r} has no observed values")
        edges = np.unique(np.quantile(observed, np.linspace(0, 1, int(edges) + 1)))
    else:
        edges = np.asarray(edges, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) < 0):
            raise ValueError("explicit edges must be ascending with >= 2 entries")
    return edges[[0, -1]] if edges[0] == edges[-1] else edges


def segment_by_bins(
    frame: FeatureFrame,
    feature: str,
    edges: Sequence[float] | int,
) -> SegmentAssignment:
    """Segment rows by value ranges of a numeric feature.

    ``edges`` is either explicit ascending bin edges or a quantile count.
    Bins are right-open except the last; quantile edges are deduplicated
    when the feature has ties. Missing values form their own "missing"
    segment, and values outside explicit edges an "out_of_range" segment,
    each only when present.
    """
    col = _numeric_feature(frame, feature)
    edge_arr = _bin_edges(col, edges)
    n_bins = len(edge_arr) - 1
    labels = _bin_labels(feature, edge_arr)
    with np.errstate(invalid="ignore"):
        ids = np.searchsorted(edge_arr, col.values, side="right") - 1
        ids = np.where(col.values == edge_arr[-1], n_bins - 1, ids)  # close the last bin
        in_range = (col.values >= edge_arr[0]) & (col.values <= edge_arr[-1])
    ids = np.clip(ids, 0, n_bins - 1)

    out_of_range = ~col.missing_mask & ~in_range
    if col.missing_mask.any():
        ids = np.where(col.missing_mask, len(labels), ids)
        labels.append(f"{feature} missing")
    if out_of_range.any():
        ids = np.where(out_of_range, len(labels), ids)
        labels.append(f"{feature} out_of_range")
    return SegmentAssignment(np.asarray(ids, dtype=np.int64), tuple(labels), "binned")


def kmeans(
    frame: FeatureFrame,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansAssignment:
    """Lloyd's k-means with k-means++ seeding on z-standardized features.

    Deterministic for fixed inputs and seed. Empty clusters are re-seeded
    from the point farthest from its assigned centroid. Iterates until the
    largest centroid movement falls below ``tol`` or ``max_iter`` is hit.
    Seeding and every Lloyd step take ``_geometry.exact_sq_dists``: no BLAS
    call, so a step's time and bits do not depend on BLAS threads.
    """
    X = complete_matrix(frame, "kmeans")
    n, d = X.shape
    if k < 1 or k > n:
        raise KExceedsRows(f"need 1 <= k <= n_rows, got k={k}, n={n}")

    mean, scale = standardize(X)
    Z = np.asfortranarray((X - mean) / scale)  # feature columns contiguous

    rng = np.random.default_rng(seed)
    centroids = np.empty((k, d))
    closest_sq = np.full(n, np.inf)
    for j in range(k):
        total = closest_sq.sum()
        if total == 0 or total == np.inf:  # the first pick, or every row on a centroid
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest_sq / total))
        centroids[j] = Z[pick]
        closest_sq = np.minimum(closest_sq, exact_sq_dists(centroids[j : j + 1], Z)[0])

    rows = np.arange(n)
    prev_inertia = movement = np.inf
    n_iter = 0  # centroid updates made
    while True:  # assign, check, then stop or update
        d2 = exact_sq_dists(centroids, Z)
        ids = np.argmin(d2, axis=0)  # the first minimum: the lower centroid
        inertia = float(d2[ids, rows].sum())
        if inertia > prev_inertia + 1e-9 * max(1.0, prev_inertia):
            raise InvariantViolation(
                f"k-means inertia increased from {prev_inertia!r} to {inertia!r}"
            )
        if movement < tol or n_iter >= max_iter:
            break
        prev_inertia = inertia
        n_iter += 1

        counts = np.bincount(ids, minlength=k)
        new_centroids = centroids.copy()
        for j in np.flatnonzero(counts):
            new_centroids[j] = Z[ids == j].mean(axis=0)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            farthest = np.argsort(-d2[ids, rows], kind="stable")
            new_centroids[empty] = Z[farthest[: empty.size]]
        movement = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids

    labels = tuple(f"cluster {j}" for j in range(k))
    return KMeansAssignment(
        segment_ids=np.asarray(ids, dtype=np.int64),
        labels=labels,
        source="kmeans",
        centroids=centroids * scale + mean,
        inertia=inertia,
        n_iter=n_iter,
    )


def segment_metrics(
    ds: ScoredDataset,
    seg: SegmentAssignment,
    metric: str = "mae",
    threshold: float = 0.5,
) -> SegmentMetricsTable:
    """Decompose an error metric across segments with lift over the overall.

    The overall value is recomputed on the full dataset, never averaged
    from segments. When overall and segment values are both 0 the lift is
    reported as 1.0 and marked degenerate; single-class segments report an
    absent AUC.
    """
    check_metric(metric, ds.y_true)
    if len(seg.segment_ids) != ds.n_rows:
        raise SchemaMismatch("segment assignment does not match dataset rows")
    overall = metric_value(metric, ds.y_true, ds.y_pred, threshold)
    groups = (seg.segment_ids == sid for sid in range(len(seg.labels)))
    rows = []
    for label, (count, value) in zip(seg.labels, score_groups(ds, groups, metric, 1, threshold)):
        lift, degenerate = _lift(value, overall)
        rows.append(SegmentMetricRow(label, count, value, lift, degenerate))
    return SegmentMetricsTable(metric, overall, ds.n_rows, rows)


def score_segments(
    datasets: Sequence[ScoredDataset], assignments: Sequence[SegmentAssignment],
    metric: str, min_rows: int, threshold: float,
) -> tuple[tuple[str, ...], list[list[tuple[int, float | None]]]]:
    """All assignments' labels in first-appearance order, and for each
    dataset the ``score_groups`` of its rows under its assignment, one
    ``(rows, value)`` per label."""
    labels = tuple(dict.fromkeys(label for seg in assignments for label in seg.labels))
    index = {label: i for i, label in enumerate(labels)}
    scores = []
    for ds, seg in zip(datasets, assignments):
        ids = np.array([index[label] for label in seg.labels], dtype=np.int64)[seg.segment_ids]
        groups = (ids == sid for sid in range(len(labels)))
        scores.append(score_groups(ds, groups, metric, min_rows, threshold))
    return labels, scores


def weak_region_scan(
    ds: ScoredDataset,
    features: Sequence[str],
    bins: int = 5,
    min_rows: int = DEFAULT_MIN_ROWS,
    metric: str | None = None,
    threshold: float = 0.5,
) -> list[WeakRegion]:
    """Rank (feature, value-range) regions by error lift.

    Every quantile-binned region with at least ``min_rows`` rows is scored
    by segment metric / overall metric and sorted by descending lift, ties
    broken by row count descending then feature name. Regions below
    ``min_rows`` are omitted to suppress noise.
    """
    metric = resolve_metric(metric, ds.y_true)
    regions: list[WeakRegion] = []
    for feature in features:
        seg = segment_by_bins(ds.frame, feature, bins)
        table = segment_metrics(ds, seg, metric, threshold)
        for row in table.segments:
            if row.rows < min_rows or row.value is None or row.lift is None:
                continue
            regions.append(WeakRegion(feature, row.label, row.rows, metric, row.value, row.lift))
    regions.sort(key=lambda r: (-r.lift, -r.rows, r.feature, r.range_label))
    return regions


def fit_gap(
    train: ScoredDataset,
    test: ScoredDataset,
    feature: str | None = None,
    edges: Sequence[float] | int | None = None,
    metric: str | None = None,
    overfit_gap_fraction: float = 0.2,
    underfit_multiplier: float = 1.5,
    threshold: float = 0.5,
) -> FitGapTable:
    """Per-segment train/test gap with overfit/underfit flags.

    The segmentation basis (feature plus edges) is applied identically to
    both datasets; with no basis a single "all" segment is used. A segment
    is flagged overfit when gap > overfit_gap_fraction * overall test
    metric while its train metric sits below the overall train metric, and
    underfit when both its train and test metrics exceed
    underfit_multiplier times the respective overall values.
    """
    train.frame.check_same_columns(test.frame, "train and test frames")
    metric = resolve_metric(metric, train.y_true, test.y_true)

    if feature is None:
        assignments = [
            SegmentAssignment(np.zeros(ds.n_rows, dtype=np.int64), ("all",), "binned")
            for ds in (train, test)
        ]
    else:
        if edges is None:
            raise ValueError("fit_gap needs explicit edges when a feature is given")
        # shared edges from train, so both sets bin identically
        edges = _bin_edges(_numeric_feature(train.frame, feature), edges)
        assignments = [segment_by_bins(ds.frame, feature, edges) for ds in (train, test)]

    overall_train = metric_value(metric, train.y_true, train.y_pred, threshold)
    overall_test = metric_value(metric, test.y_true, test.y_pred, threshold)
    labels, scores = score_segments((train, test), assignments, metric, 1, threshold)

    rows = []
    for label, (tr_n, tr_v), (te_n, te_v) in zip(labels, *scores):
        if tr_v is None or te_v is None:
            rows.append(FitGapRow(label, tr_n, te_n, tr_v, te_v, None, "ok"))
            continue
        gap = te_v - tr_v
        flag = "ok"
        if gap > overfit_gap_fraction * overall_test and tr_v < overall_train:
            flag = "overfit"
        elif tr_v > underfit_multiplier * overall_train and te_v > underfit_multiplier * overall_test:
            flag = "underfit"
        rows.append(FitGapRow(label, tr_n, te_n, tr_v, te_v, gap, flag))
    return FitGapTable(metric, overall_train, overall_test, rows)


# ---------------------------------------------------------------------------
# Robustness
# ---------------------------------------------------------------------------


def _predict_all(model: Scorer, frames: Sequence[FeatureFrame]) -> list[np.ndarray]:
    """The model's predictions on each frame, one float per row: from one
    ``predict_many`` call when the model has that method, else from a
    ``predict`` call per frame."""
    if hasattr(model, "predict_many"):
        parts = model.predict_many(frames)
    else:
        parts = map(model.predict, frames)  # each checked before the next is scored
    checked = []
    for frame, part in zip(frames, parts, strict=True):
        pred = np.asarray(part, dtype=np.float64)
        if pred.shape != (frame.n_rows,):
            raise LengthMismatch(f"scorer returned shape {pred.shape} for {frame.n_rows} rows")
        checked.append(pred)
    return checked


def perturbation_test(
    model: Scorer,
    frame: FeatureFrame,
    noise_fraction: float = 0.05,
    n_repeats: int = 5,
    seed: int = 0,
) -> SensitivityReport:
    """Noise-sensitivity test: perturb one feature at a time and rescore.

    Each numeric feature independently receives Gaussian noise with
    std = noise_fraction * feature std while the others stay fixed;
    |prediction delta| statistics against the predictions on ``frame``,
    scored in the same call as the variants, are pooled over rows and
    repeats. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    names, variants = frame.numeric_names(), []
    for name in names:
        col = frame.column(name)
        std = float(col.observed().std()) if col.observed().size else 0.0
        noise_std = noise_fraction * std
        for _ in range(n_repeats):
            noise = rng.normal(0.0, 1.0, frame.n_rows) * noise_std
            variants.append(
                frame.replace_column(NumericColumn(name, col.values + noise, col.missing_mask))
            )
    baseline, *preds = _predict_all(model, [frame, *variants])
    deltas = [np.abs(pred - baseline) for pred in preds]
    rows = []
    for i, name in enumerate(names):
        pooled = np.concatenate(deltas[i * n_repeats : (i + 1) * n_repeats])
        rows.append(
            FeatureSensitivity(
                feature=name,
                noise_scale=noise_fraction,
                mean_abs_delta=float(pooled.mean()),
                p95_abs_delta=float(np.percentile(pooled, 95)),
            )
        )
    return SensitivityReport(rows, n_repeats, seed)


def invariance_test(
    model: Scorer,
    frame: FeatureFrame,
    irrelevant: Sequence[str],
    mode: str = "permute",
    seed: int = 0,
    tolerance: float = 1e-9,
) -> InvarianceReport:
    """Alter declared-irrelevant features and check predictions stand still.

    ``permute`` shuffles each irrelevant column with the run seed;
    ``constant`` sets it to its median (numeric) or mode (categorical).
    Rows whose |prediction delta| from the predictions on ``frame``, scored
    in the same call, exceeds ``tolerance`` are reported.
    """
    if mode not in ("permute", "constant"):
        raise ValueError(f"unknown invariance mode {mode!r}")
    for name in irrelevant:
        if name not in frame:
            raise UnknownFeature(name)
    if not irrelevant:
        return InvarianceReport(0.0, 0.0, [], tolerance, mode)

    rng = np.random.default_rng(seed)
    altered = frame
    for name in irrelevant:
        col = altered.column(name)
        if mode == "permute":
            perm = rng.permutation(frame.n_rows)
            altered = altered.replace_column(col.take(perm))
        else:
            fill = fill_value(col)
            fill = 0 if fill is None else fill  # nothing observed: 0.0, or code 0 of "__EMPTY__"
            labels = ("__EMPTY__",) if col.kind == "categorical" and not col.labels else None
            altered = altered.replace_column(filled_column(col, fill, slice(None), labels))
    baseline, pred = _predict_all(model, [frame, altered])
    deltas = np.abs(pred - baseline)
    violating = np.nonzero(deltas > tolerance)[0]
    return InvarianceReport(
        max_abs_delta=float(deltas.max()) if deltas.size else 0.0,
        mean_abs_delta=float(deltas.mean()) if deltas.size else 0.0,
        violating_rows=[int(i) for i in violating],
        tolerance=tolerance,
        mode=mode,
    )
