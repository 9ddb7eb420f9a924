"""Distribution-shift statistics and the per-feature drift scan.

Univariate measures compare empirical CDFs (KS, Wasserstein-1) or binned
PMF estimates (KL, JSD, PSI, TVD); multivariate measures are energy
distance, Gaussian-kernel MMD, Mahalanobis distance, and PCA reconstruction
error, with permutation-based significance for the two-sample statistics.
The permutation test scores every split of the pooled sample at once: the
splits are the columns of a 0/1 indicator matrix, and one matrix product
with the pooled distance (or kernel) matrix, built in row blocks, gives all
their statistics in O(N^2 B) BLAS work for N pooled rows and B permutations
and the observed statistic by plain sums. So a drift scan builds the pooled
matrix once per test, plus once for the MMD median (one partition of
N(N-1)/2 floats); memory is O(block*N + N*B) plus that vector. A permuted
statistic tying the observed one up to rounding counts as >= it.

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

from ._geometry import PcaBasis, fit_pca, row_blocks, sq_dists
from .data import FeatureFrame, NumericColumn, ScoredDataset
from .errors import DimensionMismatch, EmptySample, SchemaError, SchemaMismatch

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


def _smoothed_pmf(counts: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """Bin counts of n draws as a PMF with ``epsilon`` added to every bin and
    renormalized, so no bin is empty and the log ratios stay finite."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    probs = counts / n + epsilon
    return probs / probs.sum()


def make_histogram_pair(x, y, bins=DEFAULT_BINS, epsilon: float = DEFAULT_EPSILON) -> HistogramPair:
    """Bin two samples on shared equal-width edges spanning the pooled range.

    ``bins`` may be a count or explicit ascending edges. Each PMF gets a
    positive ``epsilon`` added per bin and is renormalized, keeping KL finite
    on empirical data. If all pooled values coincide the pair degenerates to
    a single bin with both PMFs equal to [1].
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
        return _smoothed_pmf(counts, sample.size, epsilon)

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
    categories = tuple(dict.fromkeys([*x_labels, *y_labels]))
    index = {lbl: i for i, lbl in enumerate(categories)}

    def pmf(sample: Sequence[str]) -> np.ndarray:
        codes = np.fromiter((index[lbl] for lbl in sample), dtype=np.intp, count=len(sample))
        counts = np.bincount(codes, minlength=len(categories))
        return _smoothed_pmf(counts, len(sample), epsilon)

    edges = np.arange(len(categories) + 1, dtype=np.float64)
    return HistogramPair(edges, pmf(x_labels), pmf(y_labels), epsilon, categories)


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


def _pooled(X, Y) -> tuple[np.ndarray, int]:
    """The pooled sample, X's rows then Y's, and X's row count."""
    X, Y = _as_matrix(X), _as_matrix(Y)
    if X.shape[1] != Y.shape[1]:
        raise DimensionMismatch(f"column counts differ: {X.shape[1]} vs {Y.shape[1]}")
    if X.shape[0] == 0 or Y.shape[0] == 0:
        raise EmptySample("multivariate statistics need nonempty samples")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        kind = "missing values" if np.isnan(X).any() or np.isnan(Y).any() else "infinite values"
        raise SchemaError(f"multivariate statistics require samples with no {kind}")
    return np.vstack([X, Y]), len(X)


def _pooled_pass(Z: np.ndarray, n: int, sq_median: float | None, S=None, unbiased: bool = False):
    """(statistic, r = K 1, K S) for the pooled matrix K of Z's first n rows
    (x) and the rest (y): distances, or with ``sq_median`` the negated kernel
    -exp(d^2 / (-2 sq_median)). Its row blocks are reduced and freed. The
    statistic 2*sxy/(n*m) - sxx/n^2 - syy/m^2 (sums of K over the x-x, x-y,
    y-y blocks) comes from plain row sums, so it does not depend on S;
    ``unbiased`` drops the diagonal and divides by n(n-1) and m(m-1). With
    no S (r and K S are None) K's y-x cells are not built."""
    N, m = len(Z), len(Z) - n
    rx, ry, diagonal = np.empty(N), np.empty(N), np.empty(N)
    r, KS = (None, None) if S is None else (np.empty(N), np.empty_like(S))
    for start, stop in row_blocks(N, N):
        lo = n if S is None and start >= n else 0  # first column of the block
        K = sq_dists(Z[start:stop], Z[lo:])
        if sq_median is None:
            np.sqrt(K, out=K)
        else:
            np.divide(K, -2.0 * sq_median, out=K)
            np.exp(K, out=K)
            np.negative(K, out=K)  # negated kernel: the energy form gives +MMD^2
        rx[start:stop], ry[start:stop] = K[:, : n - lo].sum(axis=1), K[:, n - lo :].sum(axis=1)
        if unbiased:
            diagonal[start:stop] = K.diagonal(start - lo)
        if S is not None:
            r[start:stop] = K.sum(axis=1)
            KS[start:stop] = K @ S
        del K  # freed before the next block is built
    sxx, sxy, syy = rx[:n].sum(), ry[:n].sum(), ry[n:].sum()
    if unbiased:  # no diagonal: n(n-1) and m(m-1) pairs
        sxx, syy = sxx - diagonal[:n].sum(), syy - diagonal[n:].sum()
    within = sxx / (n * (n - unbiased)) + syy / (m * (m - unbiased))
    return float(2.0 * sxy / (n * m) - within), r, KS


def energy_distance(X, Y) -> float:
    """Energy distance 2*E||X-Y|| - E||X-X'|| - E||Y-Y'|| (V-statistic).

    All pairwise Euclidean distances enter the within-sample means, self-pairs
    too, so identical sample sets give 0 up to rounding: ``sq_dists`` can
    leave a point's distance to its copy at the root of a rounding residue.
    """
    return _pooled_pass(*_pooled(X, Y), None)[0]


def _pooled_sq_median(Z: np.ndarray) -> float:
    """Median of the strictly upper-triangular entries of ``sq_dists(Z, Z)``.

    The matrix is built in row blocks, and each row's entries right of the
    diagonal are copied, in row-major order (that of a triangle-index
    lookup), into one vector of N(N-1)/2 floats, so the N x N matrix is
    never held. One partition then selects ``np.median``'s order statistics
    (the entries are finite, so its NaN probe is not needed).
    """
    N = len(Z)
    upper = np.empty(N * (N - 1) // 2)
    at = 0
    for start, stop in row_blocks(N, N):
        block = sq_dists(Z[start:stop], Z)
        for i in range(start, stop):
            upper[at : at + N - 1 - i] = block[i - start, i + 1 :]
            at += N - 1 - i
        del block  # freed before the next block is built
    k = len(upper) // 2
    upper.partition(k)
    return float(upper[k] if len(upper) % 2 else np.mean([upper[:k].max(), upper[k]]))


def median_heuristic_bandwidth(X, Y) -> float:
    """Median of the off-diagonal pairwise distances of the pooled sample."""
    return float(np.sqrt(_pooled_sq_median(_pooled(X, Y)[0])))


def mmd2(X, Y, bandwidth: float | str = "median", unbiased: bool = False) -> float:
    """Squared maximum mean discrepancy with a Gaussian kernel.

    ``bandwidth`` is the kernel sigma in exp(-||a-b||^2 / (2 sigma^2)), or
    "median" for the median heuristic on the pooled sample (its squared
    median is sigma^2). The default biased V-statistic is 0 up to rounding
    for identical sample sets; the unbiased U-statistic drops the diagonal
    terms. All points identical makes the median bandwidth 0, in which case
    MMD^2 is defined as 0.
    """
    Z, n = _pooled(X, Y)
    if unbiased and (n < 2 or len(Z) - n < 2):
        raise EmptySample("unbiased MMD^2 needs at least 2 rows per sample")
    if bandwidth == "median":
        sq_median = _pooled_sq_median(Z)
        if sq_median == 0.0:
            return 0.0
    else:
        sigma = float(bandwidth)
        if sigma <= 0:
            raise ValueError("bandwidth must be positive")
        sq_median = sigma * sigma
    return _pooled_pass(Z, n, sq_median, unbiased=unbiased)[0]


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


def permutation_pvalue(
    metric: str, X, Y, n_permutations: int = 199, seed: int = 0, *, with_statistic: bool = False
) -> float | tuple[float, float]:
    """Permutation p-value (1 + #{perm >= observed}) / (n_permutations + 1),
    or with ``with_statistic`` the pair (observed statistic, p-value).

    ``metric`` is "energy" or "mmd2". K is the pooled matrix of pairwise
    distances (energy) or of the negated Gaussian kernel (MMD^2, bandwidth
    fixed by the median heuristic on the original pooled sample), so a
    split's statistic is 2*sxy/(n*m) - sxx/n^2 - syy/m^2 with sxx, sxy, syy
    the sums of K over its x-x, x-y and y-y blocks. The one pass over K
    (``_pooled_pass``) also gives the observed statistic, that of
    ``energy_distance(X, Y)`` or ``mmd2(X, Y)``: bit for bit up to 1024
    pooled rows (one block), else up to rounding.

    All splits are scored at once. Column 0 of the 0/1 indicator matrix S
    marks the observed x rows, column b the first n entries of the b-th
    ``rng.permutation(n+m)``; with r = K 1 and T = 1'r, sxx = colsum(S * KS),
    sxy = S'r - sxx and syy = T - 2 S'r + sxx. A permuted statistic within
    1e-12 * (|between| + |within_x| + |within_y|) of the observed split's
    terms counts as >= it, so exact ties count whatever the rounding.

    Cost: O(N^2 d) for K plus O(N^2 B) in BLAS products (N = n+m,
    B = n_permutations); memory O(block*N + N*B), plus N(N-1)/2 floats for
    the MMD median. At 1000+1000 rows of 5 features and B = 199 on 2 vCPUs:
    about 0.06 s for energy, 0.1 s for MMD^2 with its median (0.03 s of it).
    """
    if n_permutations < 99:
        raise ValueError("n_permutations must be at least 99")
    Z, n = _pooled(X, Y)
    N, m = len(Z), len(Z) - n
    if metric not in ("energy", "mmd2"):
        raise ValueError(f"unknown permutation metric {metric!r}")
    sq_median = _pooled_sq_median(Z) if metric == "mmd2" else None
    if sq_median == 0.0:  # all points identical: MMD^2 is 0 and every split ties it
        return (0.0, 1.0) if with_statistic else 1.0

    rng = np.random.default_rng(seed)
    S = np.zeros((N, n_permutations + 1))
    S[:n, 0] = 1.0
    for b in range(1, n_permutations + 1):
        S[rng.permutation(N)[:n], b] = 1.0
    statistic, r, KS = _pooled_pass(Z, n, sq_median, S)
    sx = S.T @ r
    sxx = np.einsum("ib,ib->b", S, KS)
    between = 2.0 * (sx - sxx) / (n * m)
    within_x = sxx / (n * n)
    within_y = (r.sum() - 2.0 * sx + sxx) / (m * m)
    stats = between - within_x - within_y
    tol = 1e-12 * (abs(between[0]) + abs(within_x[0]) + abs(within_y[0]))
    p_value = (1 + int(np.count_nonzero(stats[1:] >= stats[0] - tol))) / (n_permutations + 1)
    return (statistic, p_value) if with_statistic else p_value


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


def _permutation_test(metric: str, s: _Samples) -> tuple[float, float]:
    """The block's statistic and p-value, from one pooled pass."""
    return permutation_pvalue(metric, s.x, s.y, s.cfg.n_permutations, s.cfg.seed, with_statistic=True)


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
    "energy": Metric(("multivariate",), "low", (0.05, 0.01), lambda s: _permutation_test("energy", s)),
    "mmd2": Metric(("multivariate",), "low", (0.05, 0.01), lambda s: _permutation_test("mmd2", s)),
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
