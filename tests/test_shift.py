from collections import Counter
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelwatch import shift
from modelwatch._geometry import sq_dists
from modelwatch.config import parse_config
from modelwatch.data import CategoricalColumn, FeatureFrame, NumericColumn
from modelwatch.errors import DimensionMismatch, EmptySample, SchemaError
from modelwatch.report import run_monitor
from modelwatch.shift import (
    DEFAULT_EPSILON,
    DriftScanConfig,
    HistogramPair,
    _smoothed_pmf,
    apply_thresholds,
    drift_scan,
    energy_distance,
    jsd,
    kl_divergence,
    ks_two_sample,
    mahalanobis,
    make_frequency_pair,
    make_histogram_pair,
    median_heuristic_bandwidth,
    mmd2,
    pca_reconstruction_errors,
    pca_reconstruction_fit,
    permutation_pvalue,
    psi,
    tvd,
    wasserstein1,
)

from conftest import make_frame, make_scored, write_pipeline_fixture


# --- independent oracles ---------------------------------------------------


def ks_brute_force(x, y):
    """Double-loop ECDF sup over all pooled points."""
    points = sorted(set(x) | set(y))
    best = 0.0
    for t in points:
        fx = sum(v <= t for v in x) / len(x)
        fy = sum(v <= t for v in y) / len(y)
        best = max(best, abs(fx - fy))
    return best


def sorted_pair_mean(x, y):
    return float(np.mean(np.abs(np.sort(x) - np.sort(y))))


class TestKs:
    def test_identical_samples(self):
        d, p = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert d == 0.0
        assert p == 1.0

    def test_disjoint_supports(self):
        d, _ = ks_two_sample([1, 2, 3], [4, 5, 6])
        assert d == 1.0

    def test_half_overlap(self):
        d, _ = ks_two_sample([1, 2], [1, 3])
        assert d == pytest.approx(ks_brute_force([1, 2], [1, 3]))
        assert d == 0.5

    def test_matches_brute_force_on_random_pairs(self, rng):
        for _ in range(200):
            n, m = rng.integers(1, 21, size=2)
            x = rng.normal(size=n).round(1)  # rounding forces ties
            y = rng.normal(size=m).round(1)
            d, _ = ks_two_sample(x, y)
            assert d == pytest.approx(ks_brute_force(list(x), list(y)), abs=1e-12)

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])

    def test_shifted_samples_have_small_p(self, rng):
        x = rng.normal(size=300)
        y = rng.normal(size=300) + 2.0
        _, p = ks_two_sample(x, y)
        assert p < 1e-6


class TestHistogramPair:
    def test_identical_samples_equal_pmfs(self, rng):
        x = rng.normal(size=100)
        h = make_histogram_pair(x, x.copy())
        np.testing.assert_array_equal(h.p, h.q)

    def test_equal_width_edges(self):
        h = make_histogram_pair([0.0, 10.0], [5.0], bins=10)
        np.testing.assert_allclose(h.bin_edges, np.arange(11.0))

    def test_disjoint_masses(self):
        h = make_histogram_pair([0.0] * 5, [1.0] * 5, bins=2)
        assert h.p[0] > 0.999 and h.p[1] < 1e-5
        assert h.q[1] > 0.999 and h.q[0] < 1e-5

    def test_degenerate_range(self):
        h = make_histogram_pair([3.0, 3.0], [3.0], bins=10)
        np.testing.assert_array_equal(h.p, [1.0])
        np.testing.assert_array_equal(h.q, [1.0])

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    @pytest.mark.parametrize(
        "make_pair",
        [
            lambda eps: make_histogram_pair([0.0, 1.0, 2.0, 3.0], [2.5, 3.0], 10, eps),
            lambda eps: make_frequency_pair(["a", "b"], ["b", "c"], eps),
        ],
        ids=["histogram", "frequency"],
    )
    def test_nonpositive_epsilon_rejected(self, make_pair, epsilon):
        # epsilon 0 gave PSI inf and JSD nan; a negative one let shifts pass
        with pytest.raises(ValueError, match="epsilon must be positive"):
            make_pair(epsilon)

    def test_pmfs_sum_to_one(self, rng):
        h = make_histogram_pair(rng.normal(size=50), rng.normal(size=70), bins=7)
        assert h.p.sum() == pytest.approx(1.0, abs=1e-9)
        assert h.q.sum() == pytest.approx(1.0, abs=1e-9)


def pair(p, q):
    """HistogramPair from explicit PMFs (already positive)."""
    from modelwatch.shift import HistogramPair

    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return HistogramPair(np.arange(len(p) + 1.0), p, q, 0.0)


class TestPmfDivergences:
    def test_kl_zero_on_identical(self):
        assert kl_divergence(pair([0.5, 0.5], [0.5, 0.5])) == 0.0

    def test_kl_two_term_value(self):
        # oracle: direct two-term summation
        expected = 0.5 * np.log(0.5 / 0.25) + 0.5 * np.log(0.5 / 0.75)
        got = kl_divergence(pair([0.5, 0.5], [0.25, 0.75]))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.1438, abs=1e-4)

    def test_kl_asymmetric(self):
        h1 = pair([0.5, 0.5], [0.25, 0.75])
        h2 = pair([0.25, 0.75], [0.5, 0.5])
        assert kl_divergence(h1) != kl_divergence(h2)

    def test_jsd_zero_on_identical(self):
        assert jsd(pair([0.3, 0.7], [0.3, 0.7])) == 0.0

    def test_jsd_bound_on_disjoint(self):
        h = make_histogram_pair([0.0] * 20, [1.0] * 20, bins=2)
        assert jsd(h) > 0.999
        assert jsd(h) <= 1.0

    def test_jsd_symmetric(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            assert jsd(pair(p, q)) == pytest.approx(jsd(pair(q, p)), abs=1e-12)

    def test_psi_zero_on_identical(self):
        assert psi(pair([0.5, 0.5], [0.5, 0.5])) == 0.0

    def test_psi_direct_summation(self):
        # oracle: direct summation of (p-q) ln(p/q)
        p, q = [0.5, 0.5], [0.25, 0.75]
        expected = sum((pi - qi) * np.log(pi / qi) for pi, qi in zip(p, q))
        got = psi(pair(p, q))
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.2747, abs=1e-4)

    def test_psi_symmetric(self, rng):
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        assert psi(pair(p, q)) == pytest.approx(psi(pair(q, p)), abs=1e-12)

    def test_tvd_values(self):
        assert tvd(pair([0.5, 0.5], [0.5, 0.5])) == 0.0
        assert tvd(pair([1.0, 0.0], [0.0, 1.0])) == 1.0
        assert tvd(pair([0.5, 0.5], [0.25, 0.75])) == pytest.approx(0.25)


class TestWasserstein:
    def test_point_masses(self):
        assert wasserstein1([0.0], [3.0]) == pytest.approx(3.0)

    def test_identical(self, rng):
        x = rng.normal(size=30)
        assert wasserstein1(x, x.copy()) == 0.0

    def test_sorted_pair_oracle(self):
        assert wasserstein1([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_equal_size_equals_sorted_pair_mean(self, rng):
        for _ in range(30):
            x = rng.normal(size=25)
            y = rng.normal(size=25) * 2 + 1
            assert wasserstein1(x, y) == pytest.approx(sorted_pair_mean(x, y), abs=1e-12)

    def test_scale_equivariance(self, rng):
        x = rng.normal(size=20)
        y = rng.normal(size=35)
        for a in (0.5, 2.0, 7.3):
            assert wasserstein1(a * x, a * y) == pytest.approx(a * wasserstein1(x, y), rel=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            x = rng.normal(size=rng.integers(2, 15))
            y = rng.normal(size=rng.integers(2, 15))
            z = rng.normal(size=rng.integers(2, 15))
            assert wasserstein1(x, z) <= wasserstein1(x, y) + wasserstein1(y, z) + 1e-12


class TestEnergy:
    def test_identical(self, rng):
        X = rng.normal(size=(20, 3))
        assert energy_distance(X, X.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses_hand_value(self):
        # oracle: 2*3 - 0 - 0 = 6 for point masses at distance 3
        X = np.zeros((4, 2))
        Y = np.full((4, 2), 3.0 / np.sqrt(2))
        assert energy_distance(X, Y) == pytest.approx(6.0, abs=1e-9)

    def test_symmetry(self, rng):
        X = rng.normal(size=(15, 2))
        Y = rng.normal(size=(25, 2))
        assert energy_distance(X, Y) == pytest.approx(energy_distance(Y, X), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))


class TestMmd:
    def test_identical_is_zero(self, rng):
        X = rng.normal(size=(20, 2))
        assert mmd2(X, X.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_closed_form(self):
        # oracle: closed-form 2 (1 - exp(-t^2 / (2 sigma^2)))
        sigma = 1.7
        t = 2.3
        got = mmd2(np.array([[0.0]]), np.array([[t]]), bandwidth=sigma)
        assert got == pytest.approx(2.0 * (1.0 - np.exp(-(t**2) / (2 * sigma**2))), abs=1e-12)

    def test_symmetry(self, rng):
        X = rng.normal(size=(12, 3))
        Y = rng.normal(size=(18, 3))
        assert mmd2(X, Y) == pytest.approx(mmd2(Y, X), abs=1e-12)

    def test_all_identical_points_defined_zero(self):
        assert mmd2(np.zeros((5, 2)), np.zeros((7, 2))) == 0.0

    def test_unbiased_mean_near_zero(self, rng):
        values = [
            mmd2(rng.normal(size=(40, 2)), rng.normal(size=(40, 2)), bandwidth=1.0, unbiased=True)
            for _ in range(200)
        ]
        mean = np.mean(values)
        se = np.std(values, ddof=1) / np.sqrt(len(values))
        assert abs(mean) < 3 * se


class TestMahalanobis:
    def test_zero_at_mean(self):
        assert mahalanobis([1.0, 2.0], [1.0, 2.0], np.eye(2)) == 0.0

    def test_identity_reduces_to_euclidean(self):
        assert mahalanobis([3.0, 4.0], [0.0, 0.0], np.eye(2)) == pytest.approx(5.0, rel=1e-6)

    def test_diagonal_covariance(self):
        # oracle: 2 / sqrt(4) = 1
        got = mahalanobis([2.0, 0.0], [0.0, 0.0], np.diag([4.0, 1.0]))
        assert got == pytest.approx(1.0, rel=1e-6)

    def test_singular_covariance_warns(self):
        cov = np.zeros((2, 2))
        with pytest.warns(UserWarning):
            d = mahalanobis([1.0, 1.0], [0.0, 0.0], cov)
        assert np.isfinite(d)


class TestPcaReconstruction:
    def test_full_retention_zero_errors(self, rng):
        X = rng.normal(size=(50, 3))
        basis = pca_reconstruction_fit(X, variance_fraction=1.0)
        errors = pca_reconstruction_errors(basis, X)
        np.testing.assert_allclose(errors, 0.0, atol=1e-8)

    def test_off_axis_point(self, rng):
        # reference on the x-axis; the point (0, 5) projects to the origin
        X = np.column_stack([rng.normal(size=100), np.zeros(100)])
        basis = pca_reconstruction_fit(X, variance_fraction=0.95)
        assert basis.n_components == 1
        err = pca_reconstruction_errors(basis, np.array([[0.0, 5.0]]))
        assert err[0] == pytest.approx(25.0, rel=1e-9)

    def test_mean_row_zero_error(self, rng):
        X = rng.normal(size=(60, 3))
        basis = pca_reconstruction_fit(X, variance_fraction=0.5)
        err = pca_reconstruction_errors(basis, X.mean(axis=0))
        assert err[0] == pytest.approx(0.0, abs=1e-12)


class TestPermutation:
    def test_null_p_is_roughly_uniform(self):
        ps = []
        for seed in range(50):
            r = np.random.default_rng(1000 + seed)
            X = r.normal(size=(40, 2))
            Y = r.normal(size=(40, 2))
            ps.append(permutation_pvalue("energy", X, Y, n_permutations=199, seed=seed))
        assert 0.35 <= np.mean(ps) <= 0.65

    def test_shifted_alternative_rejects(self, rng):
        X = rng.normal(size=(200, 2))
        Y = rng.normal(size=(200, 2)) + 3.0
        assert permutation_pvalue("energy", X, Y, 199, seed=1) <= 0.01
        assert permutation_pvalue("mmd2", X, Y, 199, seed=1) <= 0.01

    def test_identical_samples_high_p(self, rng):
        X = rng.normal(size=(30, 2))
        assert permutation_pvalue("energy", X, X.copy(), 199, seed=0) >= 0.5

    def test_deterministic_in_seed(self, rng):
        X = rng.normal(size=(30, 2))
        Y = rng.normal(size=(30, 2))
        a = permutation_pvalue("mmd2", X, Y, 99, seed=42)
        b = permutation_pvalue("mmd2", X, Y, 99, seed=42)
        assert a == b

    def test_minimum_permutations_enforced(self, rng):
        X = rng.normal(size=(10, 1))
        with pytest.raises(ValueError):
            permutation_pvalue("energy", X, X, n_permutations=10)


def _pooled_sq_dists(X, Y):
    Z = np.vstack([X, Y])
    zz = np.sum(Z * Z, axis=1)
    return np.maximum(zz[:, None] + zz[None, :] - 2.0 * (Z @ Z.T), 0.0)


def _replayed_pvalue(stat, n, m, n_permutations, seed):
    """(1 + #{perm >= observed}) / (n_permutations + 1) for ``stat(ix, iy)``,
    on the same ``default_rng(seed).permutation`` draws as the library."""
    observed = stat(np.arange(n), np.arange(n, n + m))
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_permutations):
        perm = rng.permutation(n + m)
        count += stat(perm[:n], perm[n:]) >= observed
    return (1 + count) / (n_permutations + 1)


def _slicing_pvalue(metric, X, Y, n_permutations, seed):
    """The per-permutation ``np.ix_`` slicing kernel that the indicator-matrix
    product replaced, kept as a reference for the p-values it must repeat."""
    n, m = X.shape[0], Y.shape[0]
    sq = _pooled_sq_dists(X, Y)
    if metric == "energy":
        pooled = np.sqrt(sq)
    else:
        pooled = -np.exp(-sq / (2.0 * np.median(sq[np.triu_indices(n + m, k=1)])))

    def stat(ix, iy):
        return (
            2.0 * pooled[np.ix_(ix, iy)].mean()
            - pooled[np.ix_(ix, ix)].mean()
            - pooled[np.ix_(iy, iy)].mean()
        )

    return _replayed_pvalue(stat, n, m, n_permutations, seed)


def _exact_energy_pvalue(x, y, n_permutations, seed):
    """Energy permutation p-value on 1-D integer data in integer arithmetic:
    n^2 m^2 times a split's statistic is 2 Sxy n m - Sxx m^2 - Syy n^2, with
    Sxx, Sxy, Syy the int64 sums of |a - b| over its blocks, so ties are
    exact."""
    x, y = np.asarray(x, dtype=np.int64), np.asarray(y, dtype=np.int64)
    n, m = x.size, y.size
    z = np.concatenate([x, y])
    dist = np.abs(z[:, None] - z[None, :])

    def scaled_stat(ix, iy):
        sxx = dist[np.ix_(ix, ix)].sum()
        sxy = dist[np.ix_(ix, iy)].sum()
        syy = dist[np.ix_(iy, iy)].sum()
        return 2 * sxy * n * m - sxx * m * m - syy * n * n

    return _replayed_pvalue(scaled_stat, n, m, n_permutations, seed)


class TestPermutationKernel:
    @pytest.mark.parametrize("case", range(40))
    def test_matches_slicing_kernel(self, case):
        r = np.random.default_rng(500 + case)
        n, m = int(r.integers(8, 60)), int(r.integers(8, 60))
        if n == m:
            m += 1
        d = case % 5 + 1
        B = (99, 199)[case % 2]
        X = r.normal(size=(n, d))
        Y = r.normal(size=(m, d)) * r.uniform(0.8, 1.3) + r.uniform(0.0, 0.6)
        for metric in ("energy", "mmd2"):
            expected = _slicing_pvalue(metric, X, Y, B, seed=case)
            assert permutation_pvalue(metric, X, Y, B, seed=case) == expected, metric

    @pytest.mark.parametrize("case", range(30))
    def test_ties_count_exactly_on_integer_data(self, case):
        r = np.random.default_rng(case)
        n, m = int(r.integers(5, 40)), int(r.integers(5, 40))
        x, y = r.integers(0, 4, n), r.integers(0, 4, m)
        got = permutation_pvalue("energy", x.astype(float), y.astype(float), 99, seed=case)
        assert got == _exact_energy_pvalue(x, y, 99, seed=case)

    def test_tied_splits_not_undercounted(self):
        # Rounding made the slicing kernel count 32 of 99 permutations here
        # where 45 are >= the observed statistic exactly.
        r = np.random.default_rng(16)
        x, y = r.integers(0, 4, 13), r.integers(0, 4, 13)
        assert _exact_energy_pvalue(x, y, 99, seed=0) == 0.46
        assert permutation_pvalue("energy", x.astype(float), y.astype(float), 99, seed=0) == 0.46

    def test_median_bandwidth_matches_triangle_indexing(self, rng):
        X, Y = rng.normal(size=(37, 3)), rng.normal(size=(23, 3))
        sq = _pooled_sq_dists(X, Y)
        expected = float(np.sqrt(np.median(sq[np.triu_indices(60, k=1)])))
        assert median_heuristic_bandwidth(X, Y) == expected

    # two row blocks; a block's cells equal the whole matrix's where the
    # pooled row count is a multiple of 8 or the data lie on an integer
    # grid (exact products)
    @pytest.mark.parametrize("n, m, grid", [(600, 600, False), (600, 613, True)])
    def test_median_bandwidth_matches_triangle_indexing_beyond_one_block(self, n, m, grid):
        r = np.random.default_rng(n + m)
        X, Y = r.normal(size=(n, 3)), r.normal(size=(m, 3))
        if grid:
            X, Y = np.round(2 * X), np.round(2 * Y)
        sq = _pooled_sq_dists(X, Y)
        expected = float(np.sqrt(np.median(sq[np.triu_indices(n + m, k=1)])))
        assert median_heuristic_bandwidth(X, Y) == expected


def _dense_statistics(X, Y, n_permutations, seed):
    """The unblocked path the row-blocked kernels replaced: one pooled
    ``sq_dists(Z, Z)``, its masked upper-triangle median and the full
    ``K @ S``. Returns the pooled squared median, mmd2 on it, and the energy
    and mmd2 permutation p-values."""
    n, m = X.shape[0], Y.shape[0]
    N = n + m
    Z = np.vstack([X, Y])
    idx = np.arange(N)
    sq_median = float(np.median(sq_dists(Z, Z)[idx[:, None] < idx[None, :]]))
    sigma = float(np.sqrt(sq_median))
    gamma = 1.0 / (2.0 * sigma * sigma)
    k_xx = np.exp(-gamma * sq_dists(X, X))
    k_yy = np.exp(-gamma * sq_dists(Y, Y))
    k_xy = np.exp(-gamma * sq_dists(X, Y))
    statistic = float(k_xx.mean() + k_yy.mean() - 2.0 * k_xy.mean())

    rng = np.random.default_rng(seed)
    S = np.zeros((N, n_permutations + 1))
    S[:n, 0] = 1.0
    for b in range(1, n_permutations + 1):
        S[rng.permutation(N)[:n], b] = 1.0
    pvalues = {}
    for metric in ("energy", "mmd2"):
        K = sq_dists(Z, Z)
        K = np.sqrt(K) if metric == "energy" else -np.exp(K / (-2.0 * sq_median))
        r = K.sum(axis=1)
        sx = S.T @ r
        sxx = np.einsum("ib,ib->b", S, K @ S)
        between = 2.0 * (sx - sxx) / (n * m)
        within_x = sxx / (n * n)
        within_y = (r.sum() - 2.0 * sx + sxx) / (m * m)
        stats = between - within_x - within_y
        tol = 1e-12 * (abs(between[0]) + abs(within_x[0]) + abs(within_y[0]))
        pvalues[metric] = (1 + int(np.count_nonzero(stats[1:] >= stats[0] - tol))) / (n_permutations + 1)
    return sq_median, statistic, pvalues


class TestBlockedKernels:
    """Row-blocked pooled kernels against the dense path, beyond one block
    (1024 pooled rows), with the pooled row count a multiple of 8 and not.

    p-values are held equal. The median (so the bandwidth) is held to the
    same bits where every block cell equals the dense cell: a pooled row
    count that is a multiple of 8, or integer-grid data, whose products are
    exact. Otherwise the BLAS may give the last N % 8 columns of a block
    other last bits than the full product, and the median is held to 1e-12
    relative. The mmd2 statistic sums the kernel in another order than the
    dense path's three means, so it is held to 1e-12 relative throughout."""

    @pytest.mark.parametrize("grid", [False, True], ids=["continuous", "grid"])
    @pytest.mark.parametrize("n, m", [(1100, 1100), (1500, 1513)])
    def test_match_the_dense_path(self, n, m, grid):
        r = np.random.default_rng(n + m)
        X = r.normal(size=(n, 3))
        Y = r.normal(size=(m, 3)) * 1.05 + 0.05
        if grid:
            X, Y = np.round(2 * X), np.round(2 * Y)
        sq_median, statistic, pvalues = _dense_statistics(X, Y, 99, seed=4)

        got = shift._pooled_sq_median(np.vstack([X, Y]))
        if (n + m) % 8 == 0 or grid:
            assert got == sq_median
        else:
            assert got == pytest.approx(sq_median, rel=1e-12, abs=0)
        assert mmd2(X, Y) == pytest.approx(statistic, rel=1e-12, abs=0)
        for metric in ("energy", "mmd2"):
            assert permutation_pvalue(metric, X, Y, 99, seed=4) == pvalues[metric], metric



class TestPublicStatisticsBeyondOneBlock:
    """``energy_distance`` and ``mmd2`` build a block of y rows only over the
    y columns, so past one block (1024 pooled rows) their y-y cells come
    from another product than the permutation pass's. They are held to a
    three-matrix reference and to the pass's statistic up to rounding."""

    @staticmethod
    def _reference(X, Y, kernel, unbiased=False):
        blocks = [kernel(sq_dists(A, B)) for A, B in ((X, X), (X, Y), (Y, Y))]
        if not unbiased:
            return float(2.0 * blocks[1].mean() - blocks[0].mean() - blocks[2].mean())
        n, m = len(X), len(Y)
        within = [(K.sum() - np.trace(K)) / (k * (k - 1)) for K, k in ((blocks[0], n), (blocks[2], m))]
        return float(2.0 * blocks[1].mean() - within[0] - within[1])

    @pytest.mark.parametrize("n, m", [(1100, 1100), (1500, 1513), (300, 1100)])
    def test_match_three_matrices_and_the_permutation_pass(self, n, m):
        r = np.random.default_rng(n + m)
        X, Y = r.normal(size=(n, 3)), r.normal(size=(m, 3)) * 1.05 + 0.3
        gaussian = lambda sq: -np.exp(-sq / (2.0 * 1.3**2))  # negated: the energy form gives +MMD^2
        assert energy_distance(X, Y) == pytest.approx(self._reference(X, Y, np.sqrt), rel=1e-12)
        assert mmd2(X, Y, bandwidth=1.3) == pytest.approx(self._reference(X, Y, gaussian), rel=1e-12)
        unbiased = self._reference(X, Y, gaussian, unbiased=True)
        assert mmd2(X, Y, bandwidth=1.3, unbiased=True) == pytest.approx(unbiased, rel=1e-12)
        for metric, public in (("energy", energy_distance), ("mmd2", mmd2)):
            statistic = permutation_pvalue(metric, X, Y, 99, with_statistic=True)[0]
            assert statistic == pytest.approx(public(X, Y), rel=1e-12), metric

    @pytest.mark.parametrize("n", [5, 550])
    def test_identical_samples_give_zero_up_to_rounding(self, n):
        # a point's distance to its copy can be the root of a rounding
        # residue of the expansion, so energy is not always exactly 0
        X = np.random.default_rng(n).normal(size=(n, 3))
        assert energy_distance(X, X.copy()) == pytest.approx(0.0, abs=1e-12)
        assert mmd2(X, X.copy()) == pytest.approx(0.0, abs=1e-12)

def _masked_median(Z):
    """``np.median`` of the strictly upper triangle of ``sq_dists(Z, Z)``:
    the reduction ``_pooled_sq_median`` replaced."""
    idx = np.arange(len(Z))
    return float(np.median(sq_dists(Z, Z)[idx[:, None] < idx[None, :]]))


class TestPooledSqMedian:
    """The one-partition median against ``np.median`` on the same entries,
    bit for bit: order statistics are values, so only the selection differs."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 60),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["continuous", "grid", "duplicates"]),
    )
    def test_equals_np_median(self, N, d, seed, kind):
        rng = np.random.default_rng(seed)
        Z = rng.normal(size=(N, d))
        if kind == "grid":  # exact products, many tied distances
            Z = np.round(2 * Z)
        elif kind == "duplicates":  # repeated rows: zero distances and ties
            Z = Z[rng.integers(0, max(1, N // 3), size=N)]
        assert shift._pooled_sq_median(Z) == _masked_median(Z)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])  # 1, 3, 6 and 10 pairs: odd and even counts
    def test_small_pair_counts(self, N):
        Z = np.arange(N * 2, dtype=float).reshape(N, 2) ** 1.5
        assert shift._pooled_sq_median(Z) == _masked_median(Z)

    # beyond one block (1024 rows), with an even (604450) and an odd (606651)
    # pair count; grid data, so every block cell equals the dense cell
    @pytest.mark.parametrize("N", [1100, 1102])
    def test_beyond_one_block(self, N):
        Z = np.round(2 * np.random.default_rng(N).normal(size=(N, 3)))
        assert shift._pooled_sq_median(Z) == _masked_median(Z)


class TestFrequencyPair:
    def test_union_categories_and_order(self):
        h = make_frequency_pair(["a", "b", "a"], ["b", "c"])
        assert h.categories == ("a", "b", "c")
        assert len(h.p) == 3

    def test_new_category_tvd(self):
        # oracle: frequency arithmetic, 30% mass moved to an unseen category
        x = ["a"] * 50 + ["b"] * 50
        y = ["a"] * 35 + ["b"] * 35 + ["c"] * 30
        h = make_frequency_pair(x, y)
        expected = 0.5 * sum(abs(p - q) for p, q in zip(h.p, h.q))
        assert tvd(h) == pytest.approx(expected, abs=1e-12)
        assert tvd(h) >= 0.29


def loop_frequency_pair(
    x_labels: Sequence[str],
    y_labels: Sequence[str],
    epsilon: float = DEFAULT_EPSILON,
) -> HistogramPair:
    """make_frequency_pair as written before it counted codes: a dict
    lookup and a float increment per label."""
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
        return _smoothed_pmf(counts, len(sample), epsilon)

    edges = np.arange(len(categories) + 1, dtype=np.float64)
    return HistogramPair(edges, pmf(x_labels), pmf(y_labels), epsilon, tuple(categories))


LABEL_SAMPLES = st.lists(st.sampled_from(["a", "b", "c", "d", "", "a b"]) | st.text(max_size=2), max_size=40)


class TestFrequencyPairMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(LABEL_SAMPLES, LABEL_SAMPLES, st.sampled_from([DEFAULT_EPSILON, 1e-3, 0.5]))
    def test_same_categories_and_pmf_bits(self, x, y, epsilon):
        try:
            expected = loop_frequency_pair(x, y, epsilon)
        except EmptySample:
            with pytest.raises(EmptySample):
                make_frequency_pair(x, y, epsilon)
            return
        got = make_frequency_pair(x, y, epsilon)
        assert got.categories == expected.categories
        assert np.array_equal(got.bin_edges, expected.bin_edges)
        assert np.array_equal(got.p, expected.p)
        assert np.array_equal(got.q, expected.q)


SAMPLES = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 2.5]), min_size=1, max_size=40
)


class TestDivergenceProperties:
    """Invariants of the histogram divergences and the two-sample statistics
    on random inputs, beyond the hand values above."""

    @settings(max_examples=200, deadline=None)
    @given(SAMPLES, SAMPLES, st.integers(2, 12), st.sampled_from([DEFAULT_EPSILON, 1e-3, 0.5]))
    def test_jsd_and_tvd_bounded_and_symmetric(self, x, y, bins, epsilon):
        h = make_histogram_pair(x, y, bins=bins, epsilon=epsilon)
        swapped = HistogramPair(h.bin_edges, h.q, h.p, h.smoothing_epsilon)
        assert 0.0 <= jsd(h) <= 1.0 + 1e-12
        assert 0.0 <= tvd(h) <= 1.0
        assert jsd(h) == jsd(swapped)
        assert tvd(h) == tvd(swapped)

    @settings(max_examples=100, deadline=None)
    @given(SAMPLES, SAMPLES, st.randoms(use_true_random=False))
    def test_ks_ignores_row_order(self, x, y, random):
        x_perm, y_perm = random.sample(x, len(x)), random.sample(y, len(y))
        assert ks_two_sample(x_perm, y) == ks_two_sample(x, y)
        assert ks_two_sample(x, y_perm) == ks_two_sample(x, y)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1.0, 0.25]),
    )
    def test_energy_ignores_row_order(self, n, m, d, seed, grid):
        # grid 1.0 makes ties and zero distances; permuting rows only
        # reorders the sums, so the value may move by rounding alone
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n, d)) / grid) * grid
        Y = np.round(rng.normal(size=(m, d)) / grid) * grid
        expected = energy_distance(X, Y)
        for got in (energy_distance(rng.permutation(X), Y), energy_distance(X, rng.permutation(Y))):
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def two_col_scored(rng, n=400, shift=0.0, shifted_feature=None):
    x0 = rng.normal(size=n)
    x1 = rng.normal(size=n)
    if shifted_feature == "x0":
        x0 = x0 + shift
    if shifted_feature == "x1":
        x1 = x1 + shift
    frame = make_frame(x0=x0, x1=x1)
    y = rng.normal(size=n)
    return make_scored(frame, y, y)


class TestDriftScan:
    def test_identical_datasets_all_pass(self, rng):
        ds = two_col_scored(rng)
        results = drift_scan(ds, ds, DriftScanConfig(n_permutations=99))
        assert results, "scan produced no results"
        for r in results:
            assert r.verdict == "pass", (r.metric, r.feature, r.statistic)
            if r.metric in ("ks", "psi", "jsd", "wasserstein1", "energy", "mmd2"):
                assert r.statistic == pytest.approx(0.0, abs=1e-12)
            if r.metric == "pca_recon":
                assert r.statistic == pytest.approx(1.0, abs=1e-9)

    def test_single_shifted_feature_fails_psi(self, rng):
        ref = two_col_scored(rng, n=500)
        cur = two_col_scored(rng, n=500, shift=5.0, shifted_feature="x1")
        results = drift_scan(ref, cur, DriftScanConfig(multivariate_metrics=()))
        psi_fails = {r.feature for r in results if r.metric == "psi" and r.verdict == "fail"}
        assert psi_fails == {"x1"}

    def test_categorical_new_category(self, rng):
        ref = make_scored(
            make_frame(g=["a"] * 70 + ["b"] * 30), np.zeros(100), np.zeros(100)
        )
        cur = make_scored(
            make_frame(g=["a"] * 49 + ["b"] * 21 + ["c"] * 30), np.zeros(100), np.zeros(100)
        )
        results = drift_scan(ref, cur, DriftScanConfig(multivariate_metrics=()))
        tvd_result = next(r for r in results if r.metric == "tvd")
        assert tvd_result.statistic >= 0.29

    def test_nonnegativity_on_random_data(self, rng):
        for _ in range(20):
            x = rng.normal(size=rng.integers(5, 50))
            y = rng.normal(size=rng.integers(5, 50)) * 2 + 1
            h = make_histogram_pair(x, y)
            assert kl_divergence(h) >= 0
            assert psi(h) >= 0
            assert 0 <= jsd(h) <= 1
            assert 0 <= tvd(h) <= 1
            assert wasserstein1(x, y) >= 0
            X = rng.normal(size=(10, 2))
            Y = rng.normal(size=(12, 2)) + 0.5
            assert energy_distance(X, Y) >= 0
            assert mmd2(X, Y) >= 0

    def test_multivariate_block_takes_the_pooled_median_once(self, rng, monkeypatch):
        X, Y = rng.normal(size=(60, 3)), rng.normal(size=(50, 3)) + 0.3
        ref = make_scored(make_frame(a=X[:, 0], b=X[:, 1], c=X[:, 2]), np.zeros(60), np.zeros(60))
        cur = make_scored(make_frame(a=Y[:, 0], b=Y[:, 1], c=Y[:, 2]), np.zeros(50), np.zeros(50))
        cfg = DriftScanConfig(numeric_metrics=(), multivariate_metrics=("energy", "mmd2"), n_permutations=99)
        calls = []
        original = shift._pooled_sq_median
        monkeypatch.setattr(shift, "_pooled_sq_median", lambda Z: calls.append(len(Z)) or original(Z))
        energy, result = drift_scan(ref, cur, cfg)[-2:]
        assert calls == [110]
        # the shared median gives the bits of the public calls, which take their own
        assert result.metric == "mmd2"
        assert result.statistic == mmd2(X, Y)
        assert result.p_value == permutation_pvalue("mmd2", X, Y, 99, cfg.seed)
        assert len(calls) == 3
        # the statistics come from the permutation passes, with the public calls' bits
        assert energy.metric == "energy"
        assert energy.statistic == energy_distance(X, Y)
        assert energy.p_value == permutation_pvalue("energy", X, Y, 99, cfg.seed)

    def test_multivariate_block_of_identical_points(self):
        # a zero median bandwidth defines MMD^2 as 0, and every split ties it
        ds = make_scored(make_frame(a=np.ones(20), b=np.full(20, 2.0)), np.zeros(20), np.zeros(20))
        cfg = DriftScanConfig(numeric_metrics=(), multivariate_metrics=("mmd2",), n_permutations=99)
        (result,) = drift_scan(ds, ds, cfg)
        assert (result.statistic, result.p_value, result.verdict) == (0.0, 1.0, "pass")

    def test_monitored_scan_takes_statistics_from_the_permutation_passes(self, tmp_path, monkeypatch):
        # one pooled pass per test plus one median; no separate statistic call
        calls = Counter()

        def counted(name):
            original = getattr(shift, name)
            return lambda *args, **kwargs: calls.update([name]) or original(*args, **kwargs)

        for name in ("permutation_pvalue", "_pooled_sq_median", "energy_distance", "mmd2"):
            monkeypatch.setattr(shift, name, counted(name))
        drift = {"multivariate_metrics": ["energy", "mmd2"], "n_permutations": 99}
        report = run_monitor(parse_config(write_pipeline_fixture(tmp_path, 0.3, {"drift": drift})))
        results = report.sections["drift"]["results"]
        assert [r["metric"] for r in results if r["feature"] is None] == ["energy", "mmd2"]
        assert calls == Counter({"permutation_pvalue": 2, "_pooled_sq_median": 1})

    def test_results_follow_column_order(self, rng):
        ds = make_scored(
            make_frame(b=rng.normal(size=50), a=rng.normal(size=50)),
            np.zeros(50),
            np.zeros(50),
        )
        results = drift_scan(ds, ds, DriftScanConfig(multivariate_metrics=()))
        features = [r.feature for r in results]
        assert features == sorted(features, key=lambda f: ["b", "a"].index(f))


MULTIVARIATE_CALLS = {
    "energy_distance": energy_distance,
    "mmd2": mmd2,
    "median_heuristic_bandwidth": median_heuristic_bandwidth,
    "energy permutation_pvalue": lambda X, Y: permutation_pvalue("energy", X, Y, 99),
    "mmd2 permutation_pvalue": lambda X, Y: permutation_pvalue("mmd2", X, Y, 99),
}


class TestNonFiniteMultivariateInput:
    # one inf in Y made energy and mmd2 NaN, and both permutation tests then
    # gave p = 0.005: a "fail" that meant nothing
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", MULTIVARIATE_CALLS)
    def test_is_a_schema_error(self, name, bad):
        rng = np.random.default_rng(0)
        X, Y = rng.normal(size=(50, 2)), rng.normal(size=(50, 2))
        Y[7, 1] = bad
        kind = "missing" if np.isnan(bad) else "infinite"
        with pytest.raises(SchemaError, match=f"^multivariate statistics require samples with no {kind} values$"):
            MULTIVARIATE_CALLS[name](X, Y)


class TestNonFiniteStatistics:
    def test_nan_never_passes(self):
        assert apply_thresholds(float("nan"), 0.1, 0.25, "high") == "fail"
        assert apply_thresholds(float("nan"), 0.05, 0.01, "low") == "fail"

    def test_unmasked_inf_fails_instead_of_passing(self, rng):
        # one inf that load-time masking missed makes the histogram edges
        # infinite, so PSI and JSD come out NaN on a 5 sd shift
        x = rng.normal(size=500)
        y = rng.normal(size=500) + 5.0
        y[0] = np.inf
        ref = make_scored(make_frame(x=x), np.zeros(500), np.zeros(500))
        cur = make_scored(make_frame(x=y), np.zeros(500), np.zeros(500))
        with np.errstate(invalid="ignore"):
            results = drift_scan(ref, cur, DriftScanConfig(multivariate_metrics=()))
        by_metric = {r.metric: r for r in results}
        for metric in ("psi", "jsd"):
            assert np.isnan(by_metric[metric].statistic)
            assert by_metric[metric].verdict == "fail"
        assert all(r.verdict != "pass" for r in results)
