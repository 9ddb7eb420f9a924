"""Data-quality checks: missingness, rule validation, imputation, outliers.

Quantile conventions used throughout: linear interpolation between order
statistics (numpy's default), so the median of an even-length sample is the
interpolated midpoint. Detectors flag rows, they never mutate data; what to
do with flagged rows (capping, exclusion, human review) is the caller's
decision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._geometry import complete_matrix, exact_sq_dists, fit_pca, row_blocks, standardize, top_k
from .data import CategoricalColumn, FeatureFrame, NumericColumn, Schema
from .errors import AllMissingColumn, SchemaError, StrategyKindMismatch, TooFewRows

MISSING_CATEGORY = "__MISSING__"


@dataclass(frozen=True)
class ColumnMissingness:
    missing_count: int
    missing_fraction: float


@dataclass(frozen=True)
class MissingnessProfile:
    per_column: dict[str, ColumnMissingness]
    row_complete_fraction: float


@dataclass(frozen=True)
class RuleViolation:
    row: int
    column: str
    kind: str  # out_of_range | invalid_category | wrong_type
    observed: str


@dataclass(frozen=True)
class OutlierScoreSet:
    """Per-row outlier scores and flags for one detection method.

    ``flags[i]`` is True exactly when ``scores[i]`` exceeds the method's
    threshold rule; rows with missing inputs carry NaN scores and are never
    flagged.
    """

    method: str
    scores: np.ndarray
    flags: np.ndarray
    params: dict = field(default_factory=dict)


def profile_missingness(frame: FeatureFrame) -> MissingnessProfile:
    """Count missing cells per column and the fraction of fully-observed rows."""
    n = frame.n_rows
    per_column = {}
    complete = np.ones(n, dtype=bool)
    for col in frame.columns:
        count = int(col.missing_mask.sum())
        per_column[col.name] = ColumnMissingness(count, count / n if n else 0.0)
        complete &= ~col.missing_mask
    return MissingnessProfile(per_column, float(complete.mean()) if n else 1.0)


def impute(frame: FeatureFrame, strategies: Mapping[str, str]) -> FeatureFrame:
    """Fill missing cells per column.

    Strategies: ``mean``/``median`` (numeric, statistic over observed values),
    ``mode`` (categorical, most frequent label, first-appearance tie-break),
    ``missing_as_category`` (categorical, missing becomes its own label).
    Columns not named in ``strategies`` pass through unchanged.
    """
    out = frame
    for name, strategy in strategies.items():
        col = frame.column(name)
        if strategy in ("mean", "median", "mode"):
            kind = "categorical" if strategy == "mode" else "numeric"
            if col.kind != kind:
                raise StrategyKindMismatch(f"{strategy} imputation needs a {kind} column: {name}")
            fill = fill_value(col, strategy)
            if fill is None:
                raise AllMissingColumn(name)
            out = out.replace_column(filled_column(col, fill, col.missing_mask))
        elif strategy == "missing_as_category":
            if not isinstance(col, CategoricalColumn):
                raise StrategyKindMismatch(f"missing_as_category needs a categorical column: {name}")
            if not col.missing_mask.any():
                continue
            labels = col.labels + (MISSING_CATEGORY,)
            out = out.replace_column(filled_column(col, len(labels) - 1, col.missing_mask, labels))
        else:
            raise ValueError(f"unknown imputation strategy {strategy!r}")
    return out


def fill_value(col, statistic: str = "median") -> float | int | None:
    """The mean or median of a numeric column's observed values, or the code
    of a categorical column's most frequent label, ties going to the earliest
    label; None when no value is observed."""
    observed = col.observed() if isinstance(col, NumericColumn) else col.codes[~col.missing_mask]
    if observed.size == 0:
        return None
    if isinstance(col, CategoricalColumn):
        return int(np.argmax(np.bincount(observed, minlength=len(col.labels))))  # first maximum on ties
    return float(np.mean(observed) if statistic == "mean" else np.median(observed))


def filled_column(col, fill, rows, labels: tuple[str, ...] | None = None):
    """``col`` with ``fill`` written at ``rows`` and no cell missing; a
    categorical column takes ``labels``, when given, as its label table."""
    if isinstance(col, NumericColumn):
        values = col.values.copy()
        values[rows] = fill
        return NumericColumn(col.name, values, np.zeros(len(values), bool))
    codes = col.codes.copy()
    codes[rows] = fill
    labels = col.labels if labels is None else labels
    return CategoricalColumn(col.name, codes, labels, np.zeros(len(codes), bool))


def validate_rules(frame: FeatureFrame, schema: Schema) -> list[RuleViolation]:
    """Check every cell against the schema's range and category rules.

    Missing cells never violate a rule. Non-finite numeric values that are
    not masked as missing are reported as ``wrong_type``.
    """
    violations: list[RuleViolation] = []
    for col in frame.columns:
        if col.name not in schema:
            continue
        spec = schema.column(col.name)
        if isinstance(col, NumericColumn):
            observed = ~col.missing_mask
            bad = observed & ~np.isfinite(col.values)
            for row in np.nonzero(bad)[0]:
                violations.append(RuleViolation(int(row), col.name, "wrong_type", repr(col.values[row])))
            if spec.valid_range is not None:
                lo, hi = spec.valid_range
                with np.errstate(invalid="ignore"):
                    out = observed & ~bad & ((col.values < lo) | (col.values > hi))
                for row in np.nonzero(out)[0]:
                    violations.append(
                        RuleViolation(int(row), col.name, "out_of_range", repr(float(col.values[row])))
                    )
        else:
            if spec.valid_categories is not None and col.labels:
                valid = np.array([lbl in spec.valid_categories for lbl in col.labels], dtype=bool)
                observed = ~col.missing_mask
                bad = observed & ~valid[np.clip(col.codes, 0, None)]
                for row in np.nonzero(bad)[0]:
                    violations.append(
                        RuleViolation(int(row), col.name, "invalid_category", col.labels[col.codes[row]])
                    )
    violations.sort(key=lambda v: (v.row, v.column))
    return violations


def _observed(column, at_least: int, method: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The column's values, its missing mask and its observed values; fewer
    than ``at_least`` observed values, or an infinite one, is an error."""
    values = column.values if isinstance(column, NumericColumn) else np.asarray(column, dtype=np.float64)
    mask = np.isnan(values)
    observed = values[~mask]
    if observed.size < at_least:
        raise TooFewRows(f"{method} needs at least {at_least} observed values")
    if np.isinf(observed).any():  # it would make every score NaN or flag only itself
        raise SchemaError(f"{method} requires a column with no infinite values")
    return values, mask, observed


def outliers_zscore(column, z_threshold: float = 3.0) -> OutlierScoreSet:
    """Z-score outliers: scores |x - mean| / std over observed values.

    A zero-variance column yields all-zero scores and no flags (with a
    warning) so batch profiling never aborts.
    """
    values, mask, observed = _observed(column, 2, "z-score")
    mean = observed.mean()
    std = observed.std()
    scores = np.full(len(values), np.nan)
    if std == 0:
        warnings.warn("zero-variance column: all z-scores set to 0, no flags", stacklevel=2)
        scores[~mask] = 0.0
    else:
        scores[~mask] = np.abs(observed - mean) / std
    with np.errstate(invalid="ignore"):
        flags = scores > z_threshold
    flags[mask] = False
    return OutlierScoreSet("zscore", scores, flags, {"z_threshold": z_threshold})


def outliers_iqr(column, multiplier: float = 1.5) -> OutlierScoreSet:
    """IQR fence outliers: flag x below Q1 - m*IQR or above Q3 + m*IQR.

    Scores are the distance beyond the nearer quartile in IQR units, so
    ``flags == scores > multiplier``. A zero-IQR column scores values unequal
    to the quartiles as infinite, flagging exactly the values != Q1.
    """
    values, mask, observed = _observed(column, 4, "IQR method")
    q1, q3 = np.quantile(observed, [0.25, 0.75])  # linear interpolation
    iqr = q3 - q1
    deviation = np.maximum(q1 - values, values - q3)
    scores = np.full(len(values), np.nan)
    if iqr > 0:
        scores[~mask] = deviation[~mask] / iqr
    else:
        dev = deviation[~mask]
        scores[~mask] = np.where(dev > 0, np.inf, 0.0)
    with np.errstate(invalid="ignore"):
        flags = scores > multiplier
    flags[mask] = False
    return OutlierScoreSet(
        "iqr", scores, flags, {"multiplier": multiplier, "q1": float(q1), "q3": float(q3)}
    )


_LOF_EPS = 1e-12


def outliers_lof(frame: FeatureFrame, k: int = 20, flag_threshold: float = 1.5) -> OutlierScoreSet:
    """Local Outlier Factor over the numeric columns of a complete frame.

    Features are z-standardized before distance computation (LOF is
    scale-dependent otherwise). Uses the usual construction: k-distance,
    reachability distance, local reachability density, and the mean density
    ratio against the k nearest neighbors. Distances are floored at a tiny
    epsilon so duplicate points get density ratio 1 instead of dividing by
    zero; a frame of identical points scores 1.0 everywhere.

    Cost: O(n^2 d) time. Distances are ``_geometry.exact_sq_dists``, taken
    in blocks of about 2^20 / (n d) rows, and only each row's k neighbours
    are kept, so memory is O(block x n), never the n x n matrix; a pair's
    distance does not depend on its block.
    """
    X = complete_matrix(frame, "LOF")
    n, d = X.shape
    if not 1 <= k < n:
        raise TooFewRows(f"LOF needs 1 <= k < n_rows, got k={k}, n={n}")

    mean, scale = standardize(X)
    Z = np.asfortranarray((X - mean) / scale)  # feature columns contiguous

    neighbors = np.empty((n, k), dtype=np.intp)  # ties broken toward lower index
    neighbor_dist = np.empty((n, k))
    for start, stop in row_blocks(n, n * d):
        dist = exact_sq_dists(Z[start:stop], Z)
        np.sqrt(dist, out=dist)
        dist[np.arange(stop - start), np.arange(start, stop)] = np.inf  # not its own neighbour
        top = top_k(dist, k)
        neighbors[start:stop] = top
        neighbor_dist[start:stop] = np.take_along_axis(dist, top, axis=1)
    kth = neighbor_dist[:, -1]  # k-distance of each point

    # reach_dist[i, j] = max(k-distance(o_j), d(i, o_j)) for i's j-th neighbor
    reach = np.maximum(kth[neighbors], neighbor_dist)
    lrd = 1.0 / np.maximum(reach.mean(axis=1), _LOF_EPS)

    scores = (lrd[neighbors].mean(axis=1)) / lrd
    flags = scores > flag_threshold
    return OutlierScoreSet("lof", scores, flags, {"k": k, "flag_threshold": flag_threshold})


def outliers_pca_mahalanobis(
    frame: FeatureFrame,
    variance_fraction: float = 0.95,
    alpha: float = 0.01,
) -> OutlierScoreSet:
    """PCA + Mahalanobis outliers on the numeric columns of a complete frame.

    Fits a PCA basis retaining the smallest component count reaching
    ``variance_fraction``, computes the squared Mahalanobis distance in
    component space (diagonal covariance given by the component variances),
    and flags rows whose squared distance exceeds the chi-squared
    ``1 - alpha`` quantile at ``dof = retained components``.
    """
    X = complete_matrix(frame, "PCA-Mahalanobis")
    basis = fit_pca(X, variance_fraction)
    params = {"variance_fraction": variance_fraction, "alpha": alpha, "n_components": basis.n_components}
    if basis.n_components == 0:
        warnings.warn("constant data: Mahalanobis distances set to 0, no flags", stacklevel=2)
        scores = np.zeros(X.shape[0])
        return OutlierScoreSet("pca_mahalanobis", scores, np.zeros(scores.size, dtype=bool), params)
    scores = np.sum(basis.transform(X) ** 2 / basis.variances, axis=1)
    from scipy.special import gammaincinv  # loaded on first use, not at import

    # the chi-squared quantile: 2 * P^-1(df / 2, q), the bits of scipy.stats.chi2.ppf
    params["threshold"] = threshold = float(2.0 * gammaincinv(basis.n_components / 2, 1 - alpha))
    return OutlierScoreSet("pca_mahalanobis", scores, scores > threshold, params)
