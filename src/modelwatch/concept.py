"""Concept-drift diagnosis: nearest-neighbor input control, residual tests,
sliding-window evaluation, paired model comparison, segment error tracking.

The core protocol distinguishes concept drift from input drift: match each
new point to its nearest development rows, then compare the residual
distribution of the new data against the matched development residuals.
Similar residual distributions point to input drift only; divergent ones
indicate the input-output relationship itself has changed. Matching is
with replacement (a development row may serve many new rows), which
reweights the development residuals toward the new input distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Sequence

import numpy as np
from scipy.stats import cramervonmises_2samp
from scipy.stats import t as _student_t

from .data import FeatureFrame, Residuals, ScoredDataset, residuals
from .errors import (
    EmptyDevSet,
    EmptySample,
    LengthMismatch,
    NoTimestamps,
    SchemaError,
    SchemaMismatch,
    TooFewRows,
)
from .outcome import DEFAULT_MIN_ROWS, check_metric, metric_value, default_error_metric, segment_by_bins
from .shift import DriftResult, DriftScanConfig, drift_scan, ks_two_sample


@dataclass(frozen=True)
class MatchResult:
    """Nearest development rows for each new row (k columns per row)."""

    matched_dev_indices: np.ndarray
    mean_match_distance: float
    distance_metric: str  # euclidean_standardized | mahalanobis


@dataclass(frozen=True)
class ResidualTestResult:
    test_name: str
    statistic: float
    p_value: float


@dataclass(frozen=True)
class DriftDiagnosis:
    """Outcome of the concept-vs-input drift pipeline.

    ``verdict`` is one of no_drift, input_drift, concept_drift, both.
    """

    verdict: str
    input_drift_evidence: list[DriftResult]
    residual_test: ResidualTestResult
    mean_match_distance: float
    notes: str = ""


@dataclass(frozen=True)
class WindowPoint:
    window_start: float | str
    rows: int
    value: float | None


@dataclass(frozen=True)
class PairedComparison:
    mean_diff: float
    t_statistic: float
    p_value: float
    better: str  # a | b | tie


@dataclass(frozen=True)
class SegmentSeries:
    labels: tuple[str, ...]
    values: list[list[float | None]]  # segments x batches
    metric: str


def _matching_matrix(frame: FeatureFrame) -> np.ndarray:
    X = frame.numeric_matrix()
    if np.isnan(X).any():
        raise SchemaError("matching requires no missing values in numeric features; impute first")
    return X


def nn_match(
    new: FeatureFrame,
    dev: FeatureFrame,
    k: int = 1,
    metric: str = "euclidean_standardized",
) -> MatchResult:
    """Find the k nearest development rows for each new row.

    Standardization and the Mahalanobis covariance come from the
    development data; ties break toward the lower development index.
    Development rows may match many new rows (sampling with replacement).
    """
    if new.names != dev.names:
        raise SchemaMismatch("new and development frames disagree on columns")
    if dev.n_rows == 0:
        raise EmptyDevSet("development set is empty")
    if k < 1 or k > dev.n_rows:
        raise ValueError(f"need 1 <= k <= dev rows, got k={k}")
    Xn = _matching_matrix(new)
    Xd = _matching_matrix(dev)

    if metric == "euclidean_standardized":
        mean = Xd.mean(axis=0)
        std = Xd.std(axis=0)
        scale = np.where(std > 0, std, 1.0)
        Zn = (Xn - mean) / scale
        Zd = (Xd - mean) / scale
    elif metric == "mahalanobis":
        mean = Xd.mean(axis=0)
        cov = np.cov(Xd, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
        d = cov.shape[0]
        ridge = 1e-6 * np.trace(cov) / d
        L = np.linalg.cholesky(cov + max(ridge, 1e-12) * np.eye(d))
        Zn = np.linalg.solve(L, (Xn - mean).T).T
        Zd = np.linalg.solve(L, (Xd - mean).T).T
    else:
        raise ValueError(f"unknown matching metric {metric!r}")

    sq = (
        np.sum(Zn * Zn, axis=1)[:, None]
        + np.sum(Zd * Zd, axis=1)[None, :]
        - 2.0 * Zn @ Zd.T
    )
    dist = np.sqrt(np.maximum(sq, 0.0))
    order = np.argsort(dist, axis=1, kind="stable")  # stable: ties -> lower dev index
    matched = order[:, :k]
    mean_distance = float(dist[np.arange(Xn.shape[0])[:, None], matched].mean())
    return MatchResult(matched, mean_distance, metric)


def residual_two_sample_test(
    res_new: Residuals,
    res_matched: Residuals,
    test: str = "ks",
) -> ResidualTestResult:
    """Two-sample test between new and matched development residuals.

    ``ks`` uses the exact-sup KS statistic with asymptotic p-value; ``cvm``
    the two-sample Cramer-von Mises criterion with its asymptotic p-value.
    """
    x = res_new.values
    y = res_matched.values
    if x.size == 0 or y.size == 0:
        raise EmptySample("residual test needs nonempty samples")
    if test == "ks":
        stat, p = ks_two_sample(x, y)
        return ResidualTestResult("ks", stat, p)
    if test == "cvm":
        r = cramervonmises_2samp(x, y, method="asymptotic")
        return ResidualTestResult("cvm", float(r.statistic), float(min(max(r.pvalue, 0.0), 1.0)))
    raise ValueError(f"unknown residual test {test!r}")


@dataclass(frozen=True)
class ClassifyDriftConfig:
    p_threshold: float = 0.01
    k: int = 1
    match_metric: str = "euclidean_standardized"
    residual_test: str = "ks"
    scan: DriftScanConfig = field(default_factory=DriftScanConfig)


def classify_drift(
    reference: ScoredDataset,
    new: ScoredDataset,
    config: ClassifyDriftConfig | None = None,
    input_scan: list[DriftResult] | None = None,
) -> DriftDiagnosis:
    """Distinguish concept drift from input drift.

    Pipeline: (a) input drift scan reference vs new, (b) nearest-neighbor
    match of new rows into the reference set, (c) residual two-sample test
    between new residuals and the matched reference residuals. A residual
    p-value below the threshold means concept drift ("both" when the input
    scan also fails); otherwise a failing input scan means input drift, and
    a clean scan plus a clean residual test means no drift. A precomputed
    ``input_scan`` may be passed to avoid rescanning.
    """
    cfg = config or ClassifyDriftConfig()
    scan = input_scan if input_scan is not None else drift_scan(reference, new, cfg.scan)
    input_drift = any(r.verdict == "fail" for r in scan)

    match = nn_match(new.frame, reference.frame, cfg.k, cfg.match_metric)
    ref_res = residuals(reference)
    matched_res = Residuals(ref_res.values[match.matched_dev_indices.ravel()])
    test = residual_two_sample_test(residuals(new), matched_res, cfg.residual_test)

    concept = test.p_value < cfg.p_threshold
    if concept and input_drift:
        verdict = "both"
    elif concept:
        verdict = "concept_drift"
    elif input_drift:
        verdict = "input_drift"
    else:
        verdict = "no_drift"
    notes = (
        f"residual {test.test_name} p={test.p_value:.4g} vs threshold {cfg.p_threshold:g}; "
        f"input scan {'failed' if input_drift else 'clean'}; "
        f"k={cfg.k} matching ({cfg.match_metric}), mean match distance {match.mean_match_distance:.4g}"
    )
    return DriftDiagnosis(verdict, list(scan), test, match.mean_match_distance, notes)


def _epoch_seconds(text: str) -> float:
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:  # naive: UTC, whatever the local time zone
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


def _timestamp_axis(ts: np.ndarray) -> np.ndarray:
    """Numeric axis for duration windows; ISO-8601 strings become epoch
    seconds, with naive timestamps read as UTC."""
    if ts.dtype == object:
        try:
            return np.array([_epoch_seconds(str(v)) for v in ts])
        except ValueError as exc:
            raise NoTimestamps(f"timestamps are not numeric or ISO-8601: {exc}") from None
    return ts.astype(np.float64)


def sliding_window_eval(
    ds: ScoredDataset,
    window,
    step,
    metric: str | None = None,
    mode: str = "rows",
    min_rows: int = DEFAULT_MIN_ROWS,
    threshold: float = 0.5,
) -> list[WindowPoint]:
    """Evaluate a metric over sliding windows of a time-stamped dataset.

    ``mode="rows"`` slides a window of ``window`` rows by ``step`` rows over
    the time-sorted data (full windows only); ``mode="time"`` slides a
    closed interval of ``window`` duration by ``step`` on the timestamp
    axis. Windows with fewer than ``min_rows`` rows report an absent value.
    """
    if ds.timestamps is None:
        raise NoTimestamps("sliding_window_eval needs a timestamped dataset")
    if step > window:
        raise ValueError("step must not exceed window")
    metric = metric or default_error_metric(ds.y_true)
    check_metric(metric, ds.y_true)

    order = np.argsort(ds.timestamps, kind="stable")
    y = ds.y_true[order]
    pred = ds.y_pred[order]
    ts_sorted = ds.timestamps[order]
    n = ds.n_rows
    points: list[WindowPoint] = []

    if mode == "rows":
        window = int(window)
        step = int(step)
        if window < 1 or step < 1:
            raise ValueError("row windows need window >= 1 and step >= 1")
        start = 0
        while start + window <= n:
            sl = slice(start, start + window)
            rows = window
            value = metric_value(metric, y[sl], pred[sl], threshold) if rows >= min_rows else None
            points.append(WindowPoint(ts_sorted[start], rows, value))
            start += step
    elif mode == "time":
        axis = _timestamp_axis(ts_sorted)
        window = float(window)
        step = float(step)
        if window <= 0 or step <= 0:
            raise ValueError("time windows need window > 0 and step > 0")
        t0, t_max = axis[0], axis[-1]
        span_eps = 1e-9 * max(abs(t_max - t0), 1.0)
        start = t0
        while True:
            members = (axis >= start) & (axis <= start + window)
            rows = int(members.sum())
            value = (
                metric_value(metric, y[members], pred[members], threshold)
                if rows >= min_rows
                else None
            )
            points.append(WindowPoint(float(start), rows, value))
            start += step
            if start + window > t_max + span_eps:
                break
    else:
        raise ValueError(f"unknown window mode {mode!r}")
    return points


def paired_model_comparison(errors_a, errors_b) -> PairedComparison:
    """Paired t-test on per-row error differences between two models.

    Degenerate cases: all differences zero gives t=0, p=1, tie; constant
    nonzero differences give a signed infinite t marker with p=0. Otherwise
    ``better`` names the lower-error model when p < 0.05, else tie.
    """
    a = np.asarray(errors_a, dtype=np.float64)
    b = np.asarray(errors_b, dtype=np.float64)
    if a.size != b.size:
        raise LengthMismatch(f"{a.size} vs {b.size} error rows")
    n = a.size
    if n < 2:
        raise TooFewRows("paired comparison needs at least 2 rows")
    d = a - b
    mean_diff = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean_diff == 0.0:
            return PairedComparison(0.0, 0.0, 1.0, "tie")
        t_stat = float("inf") if mean_diff > 0 else float("-inf")
        return PairedComparison(mean_diff, t_stat, 0.0, "b" if mean_diff > 0 else "a")
    t_stat = mean_diff / (sd / np.sqrt(n))
    p = float(2.0 * _student_t.sf(abs(t_stat), df=n - 1))
    if p < 0.05:
        better = "b" if mean_diff > 0 else "a"
    else:
        better = "tie"
    return PairedComparison(mean_diff, float(t_stat), p, better)


def segment_error_tracking(
    batches: Sequence[ScoredDataset],
    feature: str,
    edges: Sequence[float],
    metric: str | None = None,
    min_rows: int = DEFAULT_MIN_ROWS,
    threshold: float = 0.5,
) -> SegmentSeries:
    """Track a per-segment error metric across a series of dataset batches.

    The same explicit binning basis is applied to every batch so segment
    labels align; cells with fewer than ``min_rows`` rows are absent.
    """
    if not batches:
        raise EmptySample("segment_error_tracking needs at least one batch")
    names = batches[0].frame.names
    for b in batches[1:]:
        if b.frame.names != names:
            raise SchemaMismatch("batches disagree on columns")
    metric = metric or default_error_metric(batches[0].y_true)

    per_batch: list[dict[str, tuple[int, float | None]]] = []
    label_order: list[str] = []
    for ds in batches:
        check_metric(metric, ds.y_true)
        seg = segment_by_bins(ds.frame, feature, edges)
        cells: dict[str, tuple[int, float | None]] = {}
        for sid, label in enumerate(seg.labels):
            members = seg.segment_ids == sid
            rows = int(members.sum())
            value = (
                metric_value(metric, ds.y_true[members], ds.y_pred[members], threshold)
                if rows >= min_rows
                else None
            )
            cells[label] = (rows, value)
            if label not in label_order:
                label_order.append(label)
        per_batch.append(cells)

    values = [
        [cells.get(label, (0, None))[1] for cells in per_batch] for label in label_order
    ]
    return SegmentSeries(tuple(label_order), values, metric)
