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

from ._geometry import complete_matrix, nearest, standardize
from .data import FeatureFrame, Residuals, ScoredDataset, residuals
from .errors import (
    EmptyDevSet,
    EmptySample,
    LengthMismatch,
    NoTimestamps,
    SchemaError,
    TooFewRows,
)
from .outcome import DEFAULT_MIN_ROWS, resolve_metric, score_groups, score_segments, segment_by_bins
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


def nn_match(
    new: FeatureFrame,
    dev: FeatureFrame,
    k: int = 1,
    metric: str = "euclidean_standardized",
) -> MatchResult:
    """Find the k nearest development rows for each new row.

    Standardization and the Mahalanobis covariance come from the
    development data, except that a development column with one value takes
    the standard deviation of both frames pooled; ties break toward the
    lower development index.
    Development rows may match many new rows (sampling with replacement).
    """
    new.check_same_columns(dev, "new and development frames")
    if dev.n_rows == 0:
        raise EmptyDevSet("development set is empty")
    if k < 1 or k > dev.n_rows:
        raise ValueError(f"need 1 <= k <= dev rows, got k={k}")
    Xn = complete_matrix(new, "matching")
    Xd = complete_matrix(dev, "matching")

    if metric == "euclidean_standardized":
        mean, scale = standardize(Xd)
        constant = np.ptp(Xd, axis=0) == 0
        if constant.any():  # scale 1 would leave new rows' offsets in the column's own unit
            scale = np.where(constant, standardize(np.vstack([Xd, Xn]))[1], scale)
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

    matched, dist = nearest(Zn, Zd, k)
    return MatchResult(matched, float(dist.mean()), metric)


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
        from scipy.stats import cramervonmises_2samp  # on use: scipy.stats dominates start-up

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

    concept = bool(test.p_value < cfg.p_threshold)
    verdict = (("no_drift", "input_drift"), ("concept_drift", "both"))[concept][input_drift]
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

    Rows are taken in time order: numbers, or ISO-8601 instants (naive ones
    as UTC; other text raises ``NoTimestamps``). ``mode="rows"`` slides a
    window of ``window`` rows by ``step`` rows (full windows only);
    ``mode="time"`` slides a closed interval of ``window`` duration by
    ``step`` on that axis. Windows with fewer than ``min_rows`` rows report
    an absent value.
    """
    if ds.timestamps is None:
        raise NoTimestamps("sliding_window_eval needs a timestamped dataset")
    if step > window:
        raise ValueError("step must not exceed window")
    metric = resolve_metric(metric, ds.y_true)

    axis = _timestamp_axis(ds.timestamps)
    if not np.isfinite(axis).all():
        raise NoTimestamps("timestamps must be finite")
    order = np.argsort(axis, kind="stable")
    axis = axis[order]

    if mode == "rows":
        window = int(window)
        step = int(step)
        if window < 1 or step < 1:
            raise ValueError("row windows need window >= 1 and step >= 1")
        starts = range(0, ds.n_rows - window + 1, step)
        groups = (order[start : start + window] for start in starts)
        window_starts = [ds.timestamps[order[start]] for start in starts]
    elif mode == "time":
        window = float(window)
        step = float(step)
        if window <= 0 or step <= 0:
            raise ValueError("time windows need window > 0 and step > 0")
        if axis.size == 0:
            return []  # no rows, no windows, as in rows mode
        t0, t_max = axis[0], axis[-1]
        span_eps = 1e-9 * max(abs(t_max - t0), 1.0)
        starts = [t0]
        while starts[-1] + step + window <= t_max + span_eps:
            starts.append(starts[-1] + step)
        groups = (order[(axis >= start) & (axis <= start + window)] for start in starts)
        window_starts = [float(start) for start in starts]
    else:
        raise ValueError(f"unknown window mode {mode!r}")
    scores = score_groups(ds, groups, metric, min_rows, threshold)
    return [WindowPoint(start, rows, value) for start, (rows, value) in zip(window_starts, scores)]


def paired_model_comparison(errors_a, errors_b) -> PairedComparison:
    """Paired t-test on per-row error differences between two models.

    Degenerate cases: all differences zero gives t=0, p=1, tie; constant
    nonzero differences give a signed infinite t marker with p=0. Otherwise
    ``better`` names the lower-error model when p < 0.05, else tie. A
    missing (NaN) or infinite error row raises ``SchemaError``.
    """
    a = np.asarray(errors_a, dtype=np.float64)
    b = np.asarray(errors_b, dtype=np.float64)
    if a.size != b.size:
        raise LengthMismatch(f"{a.size} vs {b.size} error rows")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise SchemaError("paired comparison requires error rows with no missing values or infinities")
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
    from scipy.special import stdtr  # loaded on first use, not at import

    t_stat = mean_diff / (sd / np.sqrt(n))
    # two-sided Student-t tail: stdtr(df, -|t|) is scipy.stats.t.sf(|t|, df)
    p = float(2.0 * stdtr(n - 1, -abs(t_stat)))
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
    for b in batches[1:]:
        batches[0].frame.check_same_columns(b.frame, "batches")
    metric = resolve_metric(metric, *(ds.y_true for ds in batches))
    assignments = [segment_by_bins(ds.frame, feature, edges) for ds in batches]
    labels, columns = score_segments(batches, assignments, metric, min_rows, threshold)
    values = [[value for _, value in cells] for cells in zip(*columns)]
    return SegmentSeries(labels, values, metric)
