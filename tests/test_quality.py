import math
import tracemalloc

import numpy as np
import pytest

from modelwatch import _geometry, quality
from modelwatch.data import ColumnSpec, FeatureFrame, Schema
from modelwatch.errors import AllMissingColumn, SchemaError, StrategyKindMismatch, TooFewRows
from modelwatch.quality import (
    _LOF_EPS,
    MISSING_CATEGORY,
    impute,
    outliers_iqr,
    outliers_lof,
    outliers_pca_mahalanobis,
    outliers_zscore,
    profile_missingness,
    validate_rules,
)

from conftest import make_frame

nan = np.nan


class TestMissingness:
    def test_no_missing(self):
        profile = profile_missingness(make_frame(a=[1.0, 2.0], b=["x", "y"]))
        assert all(c.missing_fraction == 0 for c in profile.per_column.values())
        assert profile.row_complete_fraction == 1.0

    def test_fully_missing_column(self):
        profile = profile_missingness(make_frame(a=[nan, nan], b=[1.0, 2.0]))
        assert profile.per_column["a"].missing_fraction == 1.0
        assert profile.row_complete_fraction == 0.0

    def test_half_missing(self):
        profile = profile_missingness(make_frame(a=[nan, 1.0, nan, 2.0]))
        assert profile.per_column["a"].missing_count == 2
        assert profile.per_column["a"].missing_fraction == 0.5


class TestImpute:
    def test_mean(self):
        frame = impute(make_frame(a=[1.0, nan, 3.0]), {"a": "mean"})
        np.testing.assert_array_equal(frame.column("a").values, [1.0, 2.0, 3.0])
        assert not frame.column("a").missing_mask.any()

    def test_median_on_odd_observed_set(self):
        # observed {1, 3, 100}: interpolated median of an odd set is the middle value
        frame = impute(make_frame(a=[1.0, nan, 3.0, 100.0]), {"a": "median"})
        assert frame.column("a").values[1] == 3.0

    def test_missing_as_category(self):
        frame = impute(make_frame(g=["a", None, "a", "b"]), {"g": "missing_as_category"})
        col = frame.column("g")
        assert col.label_at(1) == MISSING_CATEGORY
        assert not col.missing_mask.any()

    def test_mode(self):
        frame = impute(make_frame(g=["b", "a", None, "a"]), {"g": "mode"})
        assert frame.column("g").label_at(2) == "a"

    def test_mean_preserves_observed_mean(self, rng):
        values = rng.normal(size=50)
        values[rng.choice(50, size=10, replace=False)] = nan
        observed_mean = np.nanmean(values)
        frame = impute(make_frame(a=values), {"a": "mean"})
        assert frame.column("a").values.mean() == pytest.approx(observed_mean, abs=1e-12)

    def test_untouched_columns_unchanged(self):
        frame = make_frame(a=[1.0, nan], b=[nan, 2.0])
        out = impute(frame, {"a": "mean"})
        assert out.column("b").missing_mask[0]

    def test_all_missing_errors(self):
        with pytest.raises(AllMissingColumn):
            impute(make_frame(a=[nan, nan]), {"a": "mean"})

    def test_kind_mismatch(self):
        with pytest.raises(StrategyKindMismatch):
            impute(make_frame(g=["a", "b"]), {"g": "mean"})
        with pytest.raises(StrategyKindMismatch):
            impute(make_frame(a=[1.0, 2.0]), {"a": "mode"})


class TestValidateRules:
    schema = Schema(
        [
            ColumnSpec("score", "numeric", valid_range=(300, 850)),
            ColumnSpec("grade", "categorical", valid_categories=frozenset({"A", "B"})),
        ]
    )

    def test_out_of_range(self):
        frame = make_frame(score=[400.0, 900.0], grade=["A", "B"])
        violations = validate_rules(frame, self.schema)
        assert len(violations) == 1
        assert violations[0].kind == "out_of_range"
        assert violations[0].row == 1

    def test_invalid_category(self):
        frame = make_frame(score=[400.0], grade=["X"])
        violations = validate_rules(frame, self.schema)
        assert [v.kind for v in violations] == ["invalid_category"]

    def test_clean_frame(self):
        frame = make_frame(score=[400.0, 500.0], grade=["A", "B"])
        assert validate_rules(frame, self.schema) == []

    def test_missing_cells_never_violate(self):
        frame = make_frame(score=[nan], grade=[None])
        assert validate_rules(frame, self.schema) == []


class TestZscore:
    def test_degenerate_column(self):
        with pytest.warns(UserWarning):
            result = outliers_zscore(np.array([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_array_equal(result.scores, 0.0)
        assert not result.flags.any()

    def test_flags_match_direct_computation(self):
        values = np.array([0.0, 0.0, 0.0, 0.0, 10.0])
        result = outliers_zscore(values, z_threshold=1.5)
        # oracle: direct mean/std computation
        expected_scores = np.abs(values - values.mean()) / values.std()
        np.testing.assert_allclose(result.scores, expected_scores)
        np.testing.assert_array_equal(result.flags, expected_scores > 1.5)
        assert list(np.nonzero(result.flags)[0]) == [4]

    def test_symmetric_pair(self):
        result = outliers_zscore(np.array([-1.0, 1.0]))
        assert result.scores[0] == result.scores[1]

    def test_affine_invariance(self, rng):
        values = rng.normal(size=40)
        base = outliers_zscore(values)
        shifted = outliers_zscore(5.0 * values - 3.0)
        np.testing.assert_allclose(base.scores, shifted.scores, atol=1e-10)
        np.testing.assert_array_equal(base.flags, shifted.flags)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            outliers_zscore(np.array([1.0]))

    def test_infinite_value_is_an_error(self):
        # an inf made every score NaN, so the 50 here went unflagged
        values = np.array([1.0, 2.0, 3.0, 2.0, 1.5, 50.0] + [2.0] * 30)
        assert outliers_zscore(values).flags[5]
        with pytest.raises(SchemaError, match="^z-score requires a column with no infinite values$"):
            outliers_zscore(np.insert(values, 5, np.inf))
        with pytest.raises(SchemaError, match="^IQR method requires a column with no infinite values$"):
            outliers_iqr(np.insert(values, 5, -np.inf))


class TestIqr:
    def test_small_clean_sample(self):
        # oracle: hand quantiles of [1,2,3,4] -> q1=1.75, q3=3.25, fences [-0.5, 5.5]
        result = outliers_iqr(np.array([1.0, 2.0, 3.0, 4.0]))
        assert not result.flags.any()
        assert result.params["q1"] == pytest.approx(1.75)
        assert result.params["q3"] == pytest.approx(3.25)

    def test_extreme_value_flagged(self):
        # oracle: q1=2, q3=4, IQR=2, upper fence 4 + 1.5*2 = 7
        result = outliers_iqr(np.array([1.0, 2.0, 3.0, 4.0, 1000.0]), multiplier=1.5)
        assert list(np.nonzero(result.flags)[0]) == [4]

    def test_constant_column_flags_values_off_q1(self):
        result = outliers_iqr(np.array([5.0, 5.0, 5.0, 5.0]))
        assert not result.flags.any()
        result = outliers_iqr(np.array([5.0, 5.0, 5.0, 5.0, 5.0, 7.0]))
        assert list(np.nonzero(result.flags)[0]) == [5]

    def test_shift_invariance(self, rng):
        values = rng.normal(size=60)
        base = outliers_iqr(values)
        shifted = outliers_iqr(values + 17.0)
        np.testing.assert_array_equal(base.flags, shifted.flags)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            outliers_iqr(np.array([1.0, 2.0, 3.0]))


def grid_frame(side=10, extra=None):
    xs, ys = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    pts = np.column_stack([xs.ravel(), ys.ravel()])
    if extra is not None:
        pts = np.vstack([pts, extra])
    return FeatureFrame.from_numeric(pts)


def lof_oracle(Z: np.ndarray, k: int) -> list[float]:
    """LOF by plain loops over standardized rows: exact distances, exactly
    k neighbours with ties to the lower index, the mean reach distance
    floored at _LOF_EPS, and the mean neighbour-to-own lrd ratio."""
    rows = Z.tolist()
    n = len(rows)
    dist = [[math.sqrt(sum((a - b) ** 2 for a, b in zip(p, q))) for q in rows] for p in rows]
    neighbors = [sorted((j for j in range(n) if j != i), key=lambda j: (dist[i][j], j))[:k] for i in range(n)]
    kdist = [dist[i][neighbors[i][-1]] for i in range(n)]
    lrd = []
    for i in range(n):
        reach = [max(kdist[o], dist[i][o]) for o in neighbors[i]]
        lrd.append(1.0 / max(sum(reach) / k, _LOF_EPS))
    return [sum(lrd[o] for o in neighbors[i]) / k / lrd[i] for i in range(n)]


class TestLof:
    @pytest.mark.parametrize(
        "n, d, k", [(30, 1, 3), (45, 2, 5), (60, 3, 8), (80, 4, 10), (100, 5, 12), (120, 6, 15), (90, 8, 9), (70, 9, 6)]
    )
    def test_matches_loop_oracle(self, n, d, k):
        X = np.random.default_rng(n + d + k).normal(size=(n, d))
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        ours = outliers_lof(FeatureFrame.from_numeric(X), k=k)
        np.testing.assert_allclose(ours.scores, lof_oracle(Z, k), rtol=1e-12)

    def test_matches_loop_oracle_with_duplicated_rows(self):
        # row 0 appears 5 times, so with k=4 its copies have mean reach
        # distance 0 and hit the floor; rows 1-11 appear twice and rows
        # 12-19 three times, so neighbours tie at distance 0
        rng = np.random.default_rng(7)
        base = rng.normal(size=(40, 3))
        X = np.vstack([base, np.repeat(base[:1], 4, axis=0), base[1:12], base[12:20], base[12:20]])
        X = X[rng.permutation(len(X))]
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        ours = outliers_lof(FeatureFrame.from_numeric(X), k=4)
        np.testing.assert_allclose(ours.scores, lof_oracle(Z, 4), rtol=1e-12)

    def test_uniform_grid_scores_near_one(self):
        result = outliers_lof(grid_frame(10), k=10)
        assert result.scores.min() > 0.8
        assert result.scores.max() < 1.2

    def test_isolated_point_has_top_score(self):
        frame = grid_frame(10, extra=np.array([[50.0, 50.0]]))
        result = outliers_lof(frame, k=10)
        assert np.argmax(result.scores) == frame.n_rows - 1
        assert result.scores[-1] > 2.0
        assert result.flags[-1]

    def test_identical_points_score_one(self):
        frame = FeatureFrame.from_numeric(np.zeros((8, 2)))
        result = outliers_lof(frame, k=3)
        np.testing.assert_allclose(result.scores, 1.0)

    def test_matches_reference_implementation(self, rng):
        sklearn = pytest.importorskip("sklearn.neighbors")
        X = rng.normal(size=(80, 3))
        frame = FeatureFrame.from_numeric(X)
        ours = outliers_lof(frame, k=12)
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        ref = sklearn.LocalOutlierFactor(n_neighbors=12)
        ref.fit(Z)
        np.testing.assert_allclose(ours.scores, -ref.negative_outlier_factor_, rtol=1e-8)

    def test_uniform_data_concentrates_near_one(self, rng):
        frame = FeatureFrame.from_numeric(rng.uniform(size=(500, 2)))
        result = outliers_lof(frame, k=20)
        assert 0.9 < result.scores.mean() < 1.1

    def test_k_bounds(self):
        with pytest.raises(TooFewRows):
            outliers_lof(FeatureFrame.from_numeric(np.zeros((3, 1))), k=3)

    def test_infinite_cell_is_a_schema_error(self):
        # an inf gave every row a NaN score and no flags
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[7, 1] = np.inf
        with pytest.raises(SchemaError, match="^LOF requires a frame with no infinite values$"):
            outliers_lof(FeatureFrame.from_numeric(X), k=5)

    def test_no_numeric_column_is_a_schema_error(self):
        # a categorical-only frame scored 1.0 everywhere with no flags
        frame = make_frame(grade=["a", "b", "c", "a"] * 10)
        with pytest.raises(SchemaError, match="^LOF needs at least one numeric feature$"):
            outliers_lof(frame, k=5)

    @pytest.mark.parametrize("data", ["continuous", "grid"])
    @pytest.mark.parametrize("blocks", ["one-row", "smallest", "ragged"])
    def test_row_blocks_give_the_single_block_bits(self, blocks, data, monkeypatch):
        # a pair's difference-form distance never depends on its block
        rng = np.random.default_rng(11)
        if data == "continuous":
            X = rng.normal(size=(61, 3))
        else:
            X = rng.integers(0, 4, size=(61, 3)).astype(float)
        frame = FeatureFrame.from_numeric(X)
        assert len(_geometry.row_blocks(61, 61 * 3)) == 1
        single = outliers_lof(frame, k=7)
        if blocks == "one-row":
            monkeypatch.setattr(quality, "row_blocks", lambda n, row_cells: [(i, i + 1) for i in range(n)])
        else:
            # 2-row blocks ending in a 3-row one, or 7-row blocks ending in a 5-row one
            monkeypatch.setattr(_geometry, "_BLOCK_CELLS", 1 if blocks == "smallest" else 7 * 61 * 3)
        blocked = outliers_lof(frame, k=7)
        np.testing.assert_array_equal(blocked.scores, single.scores)
        np.testing.assert_array_equal(blocked.flags, single.flags)

    def test_memory_stays_at_one_block(self):
        frame = FeatureFrame.from_numeric(np.random.default_rng(0).normal(size=(3000, 5)))
        tracemalloc.start()
        try:
            outliers_lof(frame, k=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20  # the 3000 x 3000 x 5 difference tensor alone is 360 MB


class TestPcaMahalanobis:
    def test_rank_one_data_retains_single_component(self, rng):
        t = rng.normal(size=100)
        frame = FeatureFrame.from_numeric(np.column_stack([t, 2.0 * t]))
        result = outliers_pca_mahalanobis(frame, variance_fraction=0.95)
        assert result.params["n_components"] == 1

    def test_gaussian_flag_rate(self, rng):
        frame = FeatureFrame.from_numeric(rng.normal(size=(5000, 3)))
        result = outliers_pca_mahalanobis(frame, alpha=0.01)
        rate = result.flags.mean()
        assert 0.005 <= rate <= 0.02

    def test_mean_point_never_flagged(self, rng):
        X = rng.normal(size=(200, 3))
        X[0] = X.mean(axis=0)  # plant the mean as a row
        result = outliers_pca_mahalanobis(FeatureFrame.from_numeric(X), variance_fraction=1.0)
        # replanted row is not exactly the post-plant mean; use a fresh exact check
        X2 = np.vstack([X, X.mean(axis=0)])
        r2 = outliers_pca_mahalanobis(FeatureFrame.from_numeric(X2), variance_fraction=1.0)
        assert r2.scores[-1] == pytest.approx(0.0, abs=1e-6)
        assert not r2.flags[-1]

    def test_threshold_is_the_chi_squared_quantile(self, rng):
        from scipy.stats import chi2

        X = rng.normal(size=(80, 64))
        for df in range(1, 65):
            frame = FeatureFrame.from_numeric(X[:, :df])
            for alpha in (0.001, 0.01, 0.05, 0.1, 0.5):
                result = outliers_pca_mahalanobis(frame, variance_fraction=1.0, alpha=alpha)
                assert result.params["n_components"] == df
                assert result.params["threshold"] == float(chi2.ppf(1 - alpha, df=df)), (df, alpha)

    def test_chi_squared_mean_property(self, rng):
        d = 4
        frame = FeatureFrame.from_numeric(rng.normal(size=(5000, d)))
        result = outliers_pca_mahalanobis(frame, variance_fraction=1.0)
        assert abs(result.scores.mean() - d) / d < 0.15

    def test_constant_data_gives_zero_scores_and_no_flags(self):
        frame = FeatureFrame.from_numeric(np.full((30, 3), 2.5))
        with pytest.warns(UserWarning, match="^constant data: Mahalanobis distances set to 0, no flags$"):
            result = outliers_pca_mahalanobis(frame, variance_fraction=0.9, alpha=0.05)
        np.testing.assert_array_equal(result.scores, np.zeros(30))
        assert result.flags.dtype == bool and not result.flags.any()
        assert result.params == {"variance_fraction": 0.9, "alpha": 0.05, "n_components": 0}

    def test_infinite_cell_is_a_schema_error(self):
        # an inf reached the SVD, which raised a bare LinAlgError
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[7, 1] = -np.inf
        with pytest.raises(SchemaError, match="^PCA-Mahalanobis requires a frame with no infinite values$"):
            outliers_pca_mahalanobis(FeatureFrame.from_numeric(X))

    def test_no_numeric_column_is_a_schema_error(self):
        # a categorical-only frame gave all-zero distances, no flags and only a warning
        frame = make_frame(grade=["a", "b", "c", "a"] * 10)
        with pytest.raises(SchemaError, match="^PCA-Mahalanobis needs at least one numeric feature$"):
            outliers_pca_mahalanobis(frame)
