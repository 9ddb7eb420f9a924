import numpy as np
import pytest

from modelwatch.data import CategoricalColumn, FeatureFrame, NumericColumn
from modelwatch.errors import DimensionMismatch, EmptySample
from modelwatch.shift import (
    DriftScanConfig,
    apply_thresholds,
    drift_scan,
    energy_distance,
    jsd,
    kl_divergence,
    ks_two_sample,
    mahalanobis,
    make_frequency_pair,
    make_histogram_pair,
    mmd2,
    pca_reconstruction_errors,
    pca_reconstruction_fit,
    permutation_pvalue,
    psi,
    tvd,
    wasserstein1,
)

from conftest import make_frame, make_scored


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

    def test_results_follow_column_order(self, rng):
        ds = make_scored(
            make_frame(b=rng.normal(size=50), a=rng.normal(size=50)),
            np.zeros(50),
            np.zeros(50),
        )
        results = drift_scan(ds, ds, DriftScanConfig(multivariate_metrics=()))
        features = [r.feature for r in results]
        assert features == sorted(features, key=lambda f: ["b", "a"].index(f))


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
