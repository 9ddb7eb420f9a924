"""Distribution-shift statistics and the per-feature drift scan.

Univariate measures compare empirical CDFs (KS, Wasserstein-1) or binned
PMF estimates (KL, JSD, PSI, TVD); multivariate measures are energy
distance, Gaussian-kernel MMD, Mahalanobis distance, and PCA reconstruction
error, with permutation-based significance for the two-sample statistics.

Conventions: KL is reported in nats; JSD in bits so it is bounded by 1.
PSI is the index sum((p - q) * ln(p / q)), a symmetrized KL distinct from
JSD even though the two names are sometimes conflated; the drift scan
reports them separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._pca import PcaBasis, fit_pca
from .data import FeatureFrame, NumericColumn, ScoredDataset
from .errors import DimensionMismatch, EmptySample, SchemaMismatch

DEFAULT_BINS = 10
DEFAULT_EPSILON = 1e-6


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Sorted sample values supporting right-continuous ECDF evaluation."""

    sorted_values: np.ndarray
    n: int

    @classmethod
    def from_sample(cls, values) -> "EmpiricalDistribution":
        v = np.sort(np.asarray(values, dtype=np.float64))
        if v.size == 0:
            raise EmptySample("empirical distribution needs at least one value")
        return cls(v, v.size)

    def cdf(self, x) -> np.ndarray:
        return np.searchsorted(self.sorted_values, x, side="right") / self.n


@dataclass(frozen=True)
class HistogramPair:
    """Aligned, epsilon-smoothed PMF estimates of two samples on shared bins.

    For categorical data the bins are category indices and ``categories``
    names them; ``bin_edges`` is then just 0..k.
    """

    bin_edges: np.ndarray
    p: np.ndarray
    q: np.ndarray
    smoothing_epsilon: float
    categories: tuple[str, ...] | None = None


@dataclass(frozen=True)
class DriftResult:
    """One metric evaluation with its threshold verdict."""

    metric: str
    statistic: float
    verdict: str  # pass | warn | fail
    feature: str | None = None
    p_value: float | None = None
    thresholds: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature,
            "metric": self.metric,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "verdict": self.verdict,
            "thresholds": dict(self.thresholds),
        }


# ---------------------------------------------------------------------------
# Univariate statistics
# ---------------------------------------------------------------------------


def _kolmogorov_sf(lam: float, terms: int = 100) -> float:
    """Asymptotic Kolmogorov survival function 2*sum (-1)^(j-1) exp(-2 j^2 lam^2)."""
    if lam <= 0:
        return 1.0
    j = np.arange(1, terms + 1)
    s = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * (j * lam) ** 2))
    return float(min(1.0, max(0.0, s)))


def ks_two_sample(x, y) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value.

    D is the exact supremum of |F_n - G_m| over the pooled sample points;
    the p-value uses effective size n*m/(n+m).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EmptySample("ks_two_sample needs nonempty samples")
    fx = EmpiricalDistribution.from_sample(x)
    fy = EmpiricalDistribution.from_sample(y)
    pooled = np.concatenate([fx.sorted_values, fy.sorted_values])
    d = float(np.max(np.abs(fx.cdf(pooled) - fy.cdf(pooled))))
    ne = x.size * y.size / (x.size + y.size)
    p = _kolmogorov_sf(np.sqrt(ne) * d)
    return d, p


def make_histogram_pair(x, y, bins=DEFAULT_BINS, epsilon: float = DEFAULT_EPSILON) -> HistogramPair:
    """Bin two samples on shared equal-width edges spanning the pooled range.

    ``bins`` may be a count or explicit ascending edges. Each PMF gets
    ``epsilon`` added per bin and is renormalized, keeping KL finite on
    empirical data. If all pooled values coincide the pair degenerates to a
    single bin with both PMFs equal to [1].
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise EmptySample("histogram pair needs nonempty samples")
    if isinstance(bins, (int, np.integer)):
        if bins < 2:
            raise ValueError("bin count must be >= 2")
        lo = min(x.min(), y.min())
        hi = max(x.max(), y.max())
        if lo == hi:
            one = np.ones(1)
            return HistogramPair(np.array([lo, hi]), one, one.copy(), epsilon)
        edges = np.linspace(lo, hi, int(bins) + 1)
    else:
        edges = np.asarray(bins, dtype=np.float64)
        if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
            raise ValueError("explicit edges must be ascending with >= 2 entries")

    def pmf(sample: np.ndarray) -> np.ndarray:
        counts, _ = np.histogram(sample, bins=edges)
        probs = counts / sample.size
        probs = probs + epsilon
        return probs / probs.sum()

    return HistogramPair(edges, pmf(x), pmf(y), epsilon)


def make_frequency_pair(
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    epsilon: float = DEFAULT_EPSILON,
) -> HistogramPair:
    """Category frequency tables over the union of observed categories.

    Category order is first appearance in the reference sample, then new
    categories in current-sample order, so repeated runs are deterministic.
    """
    if len(x_labels) == 0 or len(y_labels) == 0:
        raise EmptySample("frequency pair needs nonempty samples")
    categories: list[str] = []
    index: dict[str, int] = {}
    for lbl in list(x_labels) + list(y_labels):
        if lbl not in index:
            index[lbl] = len(categories)
            categories.append(lbl)

    def pmf(sample: Sequence[str]) -> np.ndarray:
        counts = np.zeros(len(categories))
        for lbl in sample:
            counts[index[lbl]] += 1
        probs = counts / len(sample) + epsilon
        return probs / probs.sum()

    edges = np.arange(len(categories) + 1, dtype=np.float64)
    return HistogramPair(edges, pmf(x_labels), pmf(y_labels), epsilon, tuple(categories))


def kl_divergence(h: HistogramPair) -> float:
    """KL(p || q) = sum p * ln(p / q), in nats. Asymmetric."""
    return float(np.sum(h.p * np.log(h.p / h.q)))


def jsd(h: HistogramPair) -> float:
    """Jensen-Shannon divergence in bits: symmetric and bounded by [0, 1]."""
    m = 0.5 * (h.p + h.q)
    return float(0.5 * np.sum(h.p * np.log2(h.p / m)) + 0.5 * np.sum(h.q * np.log2(h.q / m)))


def psi(h: HistogramPair) -> float:
    """Population Stability Index sum((p - q) * ln(p / q)). Symmetric, >= 0."""
    return float(np.sum((h.p - h.q) * np.log(h.p / h.q)))


def tvd(h: HistogramPair) -> float:
    """Total variation distance 0.5 * sum |p - q|, in [0, 1]."""
    return float(0.5 * np.sum(np.abs(h.p - h.q)))


def wasserstein1(x, y) -> float:
    """First-order Wasserstein distance between two empirical distributions.

    Computed exactly as the area between the empirical CDFs via
    piecewise-constant integration over the pooled breakpoints; for equal
    sample sizes this equals the mean |x_(i) - y_(i)| over sorted pairs.
    """
    fx = EmpiricalDistribution.from_sample(x)
    fy = EmpiricalDistribution.from_sample(y)
    pooled = np.sort(np.concatenate([fx.sorted_values, fy.sorted_values]))
    deltas = np.diff(pooled)
    gaps = np.abs(fx.cdf(pooled[:-1]) - fy.cdf(pooled[:-1]))
    return float(np.sum(gaps * deltas))


# ---------------------------------------------------------------------------
# Multivariate statistics
# ---------------------------------------------------------------------------


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    return X


def _check_pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    X, Y = _as_matrix(X), _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"column counts differ: {X.shape[1]} vs {Y.shape[1]}")
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise EmptySample("multivariate statistics need nonempty samples")
    return X, Y


def _pairwise_sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    aa = np.sum(A * A, axis=1)[:, None]
    bb = np.sum(B * B, axis=1)[None, :]
    sq = aa + bb - 2.0 * (A @ B.T)
    return np.maximum(sq, 0.0)


def energy_distance(X, Y) -> float:
    """Energy distance 2*E||X-Y|| - E||X-X'|| - E||Y-Y'|| (V-statistic).

    All pairwise Euclidean distances enter the within-sample means,
    including the zero self-pairs, so identical sample sets give exactly 0.
    """
    X, Y = _check_pair(X, Y)
    d_xy = np.sqrt(_pairwise_sq_dists(X, Y)).mean()
    d_xx = np.sqrt(_pairwise_sq_dists(X, X)).mean()
    d_yy = np.sqrt(_pairwise_sq_dists(Y, Y)).mean()
    return float(2.0 * d_xy - d_xx - d_yy)


def median_heuristic_bandwidth(X, Y) -> float:
    """Median of the off-diagonal pairwise distances of the pooled sample."""
    X, Y = _check_pair(X, Y)
    Z = np.vstack([X, Y])
    sq = _pairwise_sq_dists(Z, Z)
    off = sq[np.triu_indices(Z.shape[0], k=1)]
    return float(np.sqrt(np.median(off)))


def mmd2(X, Y, bandwidth: float | str = "median", unbiased: bool = False) -> float:
    """Squared maximum mean discrepancy with a Gaussian kernel.

    ``bandwidth`` is the kernel sigma in exp(-||a-b||^2 / (2 sigma^2)), or
    "median" for the median heuristic on the pooled sample. The default
    biased V-statistic is exactly 0 for identical sample sets; the unbiased
    U-statistic drops the diagonal terms. All points identical makes the
    median bandwidth 0, in which case MMD^2 is defined as 0.
    """
    X, Y = _check_pair(X, Y)
    if bandwidth == "median":
        sigma = median_heuristic_bandwidth(X, Y)
        if sigma == 0.0:
            return 0.0
    else:
        sigma = float(bandwidth)
        if sigma <= 0:
            raise ValueError("bandwidth must be positive")
    n, m = X.shape[0], Y.shape[0]
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_xx = np.exp(-gamma * _pairwise_sq_dists(X, X))
    k_yy = np.exp(-gamma * _pairwise_sq_dists(Y, Y))
    k_xy = np.exp(-gamma * _pairwise_sq_dists(X, Y))
    if unbiased:
        if n < 2 or m < 2:
            raise EmptySample("unbiased MMD^2 needs at least 2 rows per sample")
        term_xx = (k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
        term_yy = (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
    else:
        term_xx = k_xx.mean()
        term_yy = k_yy.mean()
    return float(term_xx + term_yy - 2.0 * k_xy.mean())


def mahalanobis(point, mean, covariance) -> float:
    """Mahalanobis distance sqrt((x - mu)^T Sigma^-1 (x - mu)).

    The covariance is ridge-regularized with lambda = 1e-6 * trace / d
    before inversion; if it is singular even then, the pseudo-inverse is
    used and a warning emitted.
    """
    x = np.asarray(point, dtype=np.float64).ravel()
    mu = np.asarray(mean, dtype=np.float64).ravel()
    cov = np.atleast_2d(np.asarray(covariance, dtype=np.float64))
    d = x.size
    ridge = 1e-6 * np.trace(cov) / d
    reg = cov + ridge * np.eye(d)
    diff = x - mu
    try:
        solved = np.linalg.solve(reg, diff)
    except np.linalg.LinAlgError:
        warnings.warn("covariance singular after ridge; using pseudo-inverse", stacklevel=2)
        solved = np.linalg.pinv(reg) @ diff
    return float(np.sqrt(max(diff @ solved, 0.0)))


def pca_reconstruction_fit(reference, variance_fraction: float = 0.95) -> PcaBasis:
    """Fit the PCA reconstruction model on a reference matrix."""
    return fit_pca(_as_matrix(reference), variance_fraction)


def pca_reconstruction_errors(model: PcaBasis, X) -> np.ndarray:
    """Per-row squared reconstruction error under a fitted reference basis.

    A 1-D input is treated as a single point, not a univariate sample.
    """
    X = np.asarray(X, dtype=np.float64)
    X = X[None, :] if X.ndim == 1 else _as_matrix(X)
    if X.shape[1] != model.n_features:
        raise DimensionMismatch(f"expected {model.n_features} columns, got {X.shape[1]}")
    return model.reconstruction_errors(X)


# ---------------------------------------------------------------------------
# Permutation significance
# ---------------------------------------------------------------------------


def _energy_from_dists(dist: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> float:
    return float(
        2.0 * dist[np.ix_(ix, iy)].mean()
        - dist[np.ix_(ix, ix)].mean()
        - dist[np.ix_(iy, iy)].mean()
    )


def permutation_pvalue(metric: str, X, Y, n_permutations: int = 199, seed: int = 0) -> float:
    """Permutation p-value (1 + #{perm >= observed}) / (n_permutations + 1).

    ``metric`` is "energy" or "mmd2". The pooled pairwise matrix is computed
    once and re-sliced per permutation; for MMD the median-heuristic
    bandwidth is fixed from the original pooled sample so every permutation
    sees the same kernel.
    """
    if n_permutations < 99:
        raise ValueError("n_permutations must be at least 99")
    X, Y = _check_pair(X, Y)
    n, m = X.shape[0], Y.shape[0]
    Z = np.vstack([X, Y])
    sq = _pairwise_sq_dists(Z, Z)
    if metric == "energy":
        pooled = np.sqrt(sq)
    elif metric == "mmd2":
        off = sq[np.triu_indices(n + m, k=1)]
        sigma_sq = np.median(off)
        if sigma_sq == 0.0:
            return 1.0  # all points identical: every split ties the observed 0
        pooled = np.exp(-sq / (2.0 * sigma_sq))
        np.negative(pooled, out=pooled)  # negate so the energy slicer computes +MMD^2
    else:
        raise ValueError(f"unknown permutation metric {metric!r}")

    ix = np.arange(n)
    iy = np.arange(n, n + m)
    observed = _energy_from_dists(pooled, ix, iy)
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_permutations):
        perm = rng.permutation(n + m)
        if _energy_from_dists(pooled, perm[:n], perm[n:]) >= observed:
            count += 1
    return (1 + count) / (n_permutations + 1)


# ---------------------------------------------------------------------------
# Drift scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Samples:
    """Reference and current values of one scan block, its histogram pair
    (univariate features only) and the scan settings."""

    x: object
    y: object
    hist: HistogramPair | None
    cfg: "DriftScanConfig"


def _pvalue(metric: str, s: _Samples) -> float:
    return permutation_pvalue(metric, s.x, s.y, s.cfg.n_permutations, s.cfg.seed)


def _pca_recon_ratio(s: _Samples) -> float:
    basis = pca_reconstruction_fit(s.x, s.cfg.variance_fraction)
    ref_err = float(pca_reconstruction_errors(basis, s.x).mean())
    cur_err = float(pca_reconstruction_errors(basis, s.y).mean())
    if ref_err <= 1e-12:
        return 1.0 if cur_err <= 1e-12 else np.inf
    return cur_err / ref_err


@dataclass(frozen=True)
class Metric:
    """One thresholded metric. ``kinds``: "numeric", "categorical",
    "multivariate" (scan blocks) or "report" (computed by report assembly).
    ``direction`` "high" thresholds the statistic, larger is worse; "low"
    thresholds the p-value, smaller is worse, and ``statistic`` then returns
    (statistic, p-value). ``scaled`` thresholds are in reference stds."""

    kinds: tuple[str, ...]
    direction: str
    defaults: tuple[float, float]  # (warn, fail)
    statistic: Callable[[_Samples], object] | None = None
    scaled: bool = False


# The one source of metric kinds, directions and default thresholds, in the
# scan's result order: PSI's industry-convention (0.1, 0.25) for divergences,
# (0.05, 0.01) p-value levels, a current/reference mean error ratio for
# pca_recon. Statistics call module-level names so installed wrappers see them.
METRICS = {
    "ks": Metric(("numeric",), "low", (0.05, 0.01), lambda s: ks_two_sample(s.x, s.y)),
    "psi": Metric(("numeric", "categorical"), "high", (0.1, 0.25), lambda s: psi(s.hist)),
    "jsd": Metric(("numeric", "categorical"), "high", (0.1, 0.25), lambda s: jsd(s.hist)),
    "tvd": Metric(("categorical",), "high", (0.1, 0.25), lambda s: tvd(s.hist)),
    "wasserstein1": Metric(
        ("numeric",), "high", (0.1, 0.25), lambda s: wasserstein1(s.x, s.y), scaled=True
    ),
    "energy": Metric(
        ("multivariate",), "low", (0.05, 0.01),
        lambda s: (energy_distance(s.x, s.y), _pvalue("energy", s)),
    ),
    "mmd2": Metric(
        ("multivariate",), "low", (0.05, 0.01), lambda s: (mmd2(s.x, s.y), _pvalue("mmd2", s))
    ),
    "pca_recon": Metric(("multivariate",), "high", (2.0, 4.0), lambda s: _pca_recon_ratio(s)),
    "missing_fraction": Metric(("report",), "high", (0.2, 0.5)),
    "outlier_fraction": Metric(("report",), "high", (0.05, 0.10)),
    "perf_ratio": Metric(("report",), "high", (1.2, 1.5)),
    "coverage_shortfall": Metric(("report",), "high", (0.02, 0.05)),
}


def _metrics_of(kind: str) -> tuple[str, ...]:
    return tuple(name for name, m in METRICS.items() if kind in m.kinds)


NUMERIC_METRICS = _metrics_of("numeric")
CATEGORICAL_METRICS = _metrics_of("categorical")
MULTIVARIATE_METRICS = _metrics_of("multivariate")


@dataclass(frozen=True)
class DriftScanConfig:
    bins: int = DEFAULT_BINS
    epsilon: float = DEFAULT_EPSILON
    numeric_metrics: tuple[str, ...] = NUMERIC_METRICS
    categorical_metrics: tuple[str, ...] = CATEGORICAL_METRICS
    multivariate_metrics: tuple[str, ...] = MULTIVARIATE_METRICS
    thresholds: dict = field(default_factory=dict)
    n_permutations: int = 199
    seed: int = 0
    variance_fraction: float = 0.95

    def threshold_pair(self, metric: str) -> tuple[float, float]:
        pair = self.thresholds.get(metric, METRICS[metric].defaults)
        return float(pair[0]), float(pair[1])


def apply_thresholds(value: float, warn: float, fail: float, direction: str = "high") -> str:
    """Map a value to pass/warn/fail. ``direction`` high: larger is worse;
    low: smaller is worse (p-values). NaN is always "fail": a statistic that
    could not be computed must never pass."""
    if np.isnan(value):
        return "fail"
    if direction == "high":
        if value >= fail:
            return "fail"
        if value >= warn:
            return "warn"
    else:
        if value <= fail:
            return "fail"
        if value <= warn:
            return "warn"
    return "pass"


def _frames_compatible(a: FeatureFrame, b: FeatureFrame) -> None:
    if a.names != b.names:
        raise SchemaMismatch(f"column names differ: {a.names} vs {b.names}")
    for name in a.names:
        if type(a.column(name)) is not type(b.column(name)):
            raise SchemaMismatch(f"column {name!r} kind differs between frames")


def _evaluate(metric: str, kind: str, feature: str | None, s: _Samples) -> DriftResult:
    """Compute one metric and threshold it in its direction: the p-value
    against (warn_p, fail_p) for "low" metrics, else the statistic against
    (warn, fail)."""
    spec = METRICS.get(metric)
    if spec is None or kind not in spec.kinds:
        raise ValueError(f"unknown {kind} metric {metric!r}")
    warn, fail = s.cfg.threshold_pair(metric)
    if spec.direction == "low":
        statistic, p = spec.statistic(s)
        verdict = apply_thresholds(p, warn, fail, "low")
        return DriftResult(metric, statistic, verdict, feature, p, {"warn_p": warn, "fail_p": fail})
    statistic = spec.statistic(s)
    if spec.scaled:
        scale = float(s.x.std())
        if scale > 0:
            warn, fail = warn * scale, fail * scale
    verdict = apply_thresholds(statistic, warn, fail)
    return DriftResult(
        metric, float(statistic), verdict, feature, thresholds={"warn": warn, "fail": fail}
    )


def drift_scan(
    reference: ScoredDataset | FeatureFrame,
    current: ScoredDataset | FeatureFrame,
    config: DriftScanConfig | None = None,
) -> list[DriftResult]:
    """Per-feature and multivariate distribution-shift scan.

    Numeric features get KS, PSI, JSD, and Wasserstein-1 (the Wasserstein
    verdict thresholds are scaled by the reference std, echoed scaled);
    categorical features get PSI/JSD/TVD on category frequency tables.
    The multivariate block runs energy distance and MMD with permutation
    p-values plus the current/reference mean PCA reconstruction error
    ratio, over complete rows of the numeric features. Results follow frame
    column order, multivariate entries last.
    """
    cfg = config or DriftScanConfig()
    ref = reference.frame if isinstance(reference, ScoredDataset) else reference
    cur = current.frame if isinstance(current, ScoredDataset) else current
    _frames_compatible(ref, cur)

    blocks: list[tuple[str, str | None, tuple[str, ...], _Samples]] = []  # kind, feature, metrics
    for name in ref.names:
        rcol, ccol = ref.column(name), cur.column(name)
        if isinstance(rcol, NumericColumn):
            x, y = rcol.observed(), ccol.observed()
            if x.size and y.size:
                samples = _Samples(x, y, make_histogram_pair(x, y, cfg.bins, cfg.epsilon), cfg)
                blocks.append(("numeric", name, cfg.numeric_metrics, samples))
        else:
            x, y = rcol.observed_labels(), ccol.observed_labels()
            if x and y:
                samples = _Samples(x, y, make_frequency_pair(x, y, cfg.epsilon), cfg)
                blocks.append(("categorical", name, cfg.categorical_metrics, samples))

    numeric = ref.numeric_names()
    if cfg.multivariate_metrics and numeric:
        X = ref.numeric_matrix(numeric)[ref.complete_rows(numeric)]
        Y = cur.numeric_matrix(numeric)[cur.complete_rows(numeric)]
        if X.shape[0] >= 2 and Y.shape[0] >= 2:
            samples = _Samples(X, Y, None, cfg)
            blocks.append(("multivariate", None, cfg.multivariate_metrics, samples))

    return [
        _evaluate(metric, kind, feature, s)
        for kind, feature, metrics, s in blocks
        for metric in metrics
    ]
