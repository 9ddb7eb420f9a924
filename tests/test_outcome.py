import re
import warnings
from typing import Sequence

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from modelwatch.concept import (
    SegmentSeries,
    WindowPoint,
    _timestamp_axis,
    segment_error_tracking,
    sliding_window_eval,
)
from modelwatch.data import FeatureFrame, NumericColumn, ScoredDataset
from modelwatch.errors import (
    EmptySample,
    KExceedsRows,
    LengthMismatch,
    MetricIncompatible,
    NoTimestamps,
    SchemaError,
    SchemaMismatch,
    UnknownFeature,
)
from modelwatch.outcome import (
    DEFAULT_MIN_ROWS,
    FitGapRow,
    FitGapTable,
    SegmentAssignment,
    SegmentMetricRow,
    SegmentMetricsTable,
    WeakRegion,
    _lift,
    check_metric,
    default_error_metric,
    fit_gap,
    invariance_test,
    kmeans,
    metric_value,
    perturbation_test,
    segment_by_bins,
    segment_metrics,
    weak_region_scan,
)

from conftest import make_frame, make_scored

nan = np.nan


class TestSegmentByBins:
    def test_explicit_edges(self):
        frame = make_frame(score=[350.0, 700.0, 800.0, nan])
        seg = segment_by_bins(frame, "score", [0, 600, 750, 850])
        assert len(seg.labels) == 4  # 3 ranges + missing
        assert seg.labels[-1] == "score missing"
        assert seg.segment_ids[0] == 0
        assert seg.segment_ids[1] == 1
        assert seg.segment_ids[2] == 2
        assert seg.segment_ids[3] == 3

    def test_last_bin_right_closed(self):
        frame = make_frame(x=[0.0, 5.0, 10.0])
        seg = segment_by_bins(frame, "x", [0, 5, 10])
        assert seg.segment_ids[2] == 1  # 10 belongs to the last bin
        assert seg.segment_ids[1] == 1  # 5 is right-open out of the first

    def test_quantile_bins_balanced(self, rng):
        frame = make_frame(x=rng.permutation(np.arange(100.0)))
        seg = segment_by_bins(frame, "x", 4)
        counts = np.bincount(seg.segment_ids)
        assert len(counts) == 4
        assert all(24 <= c <= 26 for c in counts)

    def test_constant_feature_single_segment(self):
        frame = make_frame(x=[3.0] * 10)
        seg = segment_by_bins(frame, "x", 4)
        assert len(seg.labels) == 1
        assert set(seg.segment_ids) == {0}

    def test_out_of_range_segment(self):
        frame = make_frame(x=[-5.0, 1.0, 2.0])
        seg = segment_by_bins(frame, "x", [0, 2, 3])
        assert "x out_of_range" in seg.labels
        assert seg.segment_ids[0] == seg.labels.index("x out_of_range")

    def test_unknown_feature(self):
        with pytest.raises(UnknownFeature):
            segment_by_bins(make_frame(x=[1.0]), "y", 2)


class TestKmeans:
    def test_single_cluster_centroid_is_mean(self, rng):
        X = rng.normal(size=(30, 3)) * 2 + 5
        result = kmeans(FeatureFrame.from_numeric(X), k=1, seed=0)
        np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-9)
        assert set(result.segment_ids) == {0}

    def test_k_equals_n(self, rng):
        X = rng.normal(size=(6, 2))
        result = kmeans(FeatureFrame.from_numeric(X), k=6, seed=0)
        assert len(set(result.segment_ids)) == 6
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_separated_blobs_recovered(self, rng):
        a = rng.normal(size=(100, 2))
        b = rng.normal(size=(100, 2)) + 10.0
        X = np.vstack([a, b])
        result = kmeans(FeatureFrame.from_numeric(X), k=2, seed=3)
        ids = result.segment_ids
        # cluster indices are arbitrary; check the partition matches blobs
        agreement = max(
            np.mean(np.concatenate([ids[:100] == c, ids[100:] == 1 - c]))
            for c in (0, 1)
        )
        assert agreement >= 0.99

    def test_deterministic(self, rng):
        X = rng.normal(size=(50, 2))
        frame = FeatureFrame.from_numeric(X)
        a = kmeans(frame, k=4, seed=9)
        b = kmeans(frame, k=4, seed=9)
        np.testing.assert_array_equal(a.segment_ids, b.segment_ids)

    def test_affine_rescaling_invariance(self, rng):
        X = rng.normal(size=(80, 2))
        scaled = X * np.array([100.0, 0.01]) + np.array([5.0, -3.0])
        a = kmeans(FeatureFrame.from_numeric(X), k=3, seed=1)
        b = kmeans(FeatureFrame.from_numeric(scaled), k=3, seed=1)
        np.testing.assert_array_equal(a.segment_ids, b.segment_ids)

    def test_k_exceeds_rows(self):
        with pytest.raises(KExceedsRows):
            kmeans(FeatureFrame.from_numeric(np.zeros((3, 1))), k=4)

    def test_infinite_cell_is_a_schema_error(self):
        # an inf made every k-means++ pick probability NaN: a bare ValueError
        X = np.random.default_rng(0).normal(size=(50, 2))
        X[7, 1] = np.inf
        with pytest.raises(SchemaError, match="^kmeans requires a frame with no infinite values$"):
            kmeans(FeatureFrame.from_numeric(X), k=3)

    def test_no_numeric_column_is_a_schema_error(self):
        # a categorical-only frame put every row in cluster 0 with inertia 0
        frame = make_frame(grade=["a", "b", "c", "a"] * 10)
        with pytest.raises(SchemaError, match="^kmeans needs at least one numeric feature$"):
            kmeans(frame, k=3)


class TestSegmentMetrics:
    def test_perfect_predictions_degenerate_lift(self):
        frame = make_frame(x=[1.0, 2.0, 3.0, 4.0])
        ds = make_scored(frame, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        seg = segment_by_bins(frame, "x", [0, 2.5, 5])
        table = segment_metrics(ds, seg, "mae")
        for row in table.segments:
            assert row.value == 0.0
            assert row.lift == 1.0
            assert row.degenerate

    def test_concentrated_errors_lift(self):
        # two equal segments, all error in the second: lift = n_total / n_segment = 2
        frame = make_frame(x=[0.0, 0.0, 1.0, 1.0])
        ds = make_scored(frame, [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0])
        seg = segment_by_bins(frame, "x", [0, 0.5, 1])
        table = segment_metrics(ds, seg, "mae")
        assert table.overall_value == 0.5
        assert table.segments[0].lift == 0.0
        assert table.segments[1].lift == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "value, overall, expected",
        [
            (0.5, 0.25, (2.0, False)),
            (0.0, 0.0, (1.0, True)),  # nothing to compare
            (0.5, 0.0, (np.inf, True)),
            (None, 0.0, (None, False)),
        ],
    )
    def test_lift_over_the_overall_value(self, value, overall, expected):
        assert _lift(value, overall) == expected

    def test_auc_single_class_segment_absent(self):
        frame = make_frame(x=[0.0, 0.0, 1.0, 1.0])
        ds = make_scored(frame, [1.0, 1.0, 1.0, 0.0], [0.9, 0.8, 0.7, 0.2])
        seg = segment_by_bins(frame, "x", [0, 0.5, 1])
        table = segment_metrics(ds, seg, "auc")
        assert table.segments[0].value is None  # only positives
        assert table.segments[1].value is not None

    def test_metric_incompatible(self):
        frame = make_frame(x=[0.0, 1.0])
        ds = make_scored(frame, [0.5, 1.5], [0.5, 1.5])
        with pytest.raises(MetricIncompatible):
            segment_metrics(ds, segment_by_bins(frame, "x", [0, 1]), "auc")

    def test_weighted_decomposition(self, rng):
        frame = make_frame(x=rng.normal(size=200))
        ds = make_scored(frame, rng.normal(size=200), rng.normal(size=200))
        seg = segment_by_bins(frame, "x", 4)
        table = segment_metrics(ds, seg, "mae")
        weighted = sum(r.rows * r.value for r in table.segments if r.value is not None)
        assert weighted / ds.n_rows == pytest.approx(table.overall_value, abs=1e-9)


class TestWeakRegionScan:
    def make_planted(self, seed, n=1000):
        r = np.random.default_rng(seed)
        x0 = r.uniform(size=n)
        x1 = r.uniform(size=n)
        noise = r.normal(size=n)
        scale = np.where(x0 >= np.quantile(x0, 0.8), 5.0, 1.0)
        y = noise * scale
        frame = make_frame(x0=x0, x1=x1)
        return make_scored(frame, y, np.zeros(n))

    def test_planted_region_ranks_first(self):
        ds = self.make_planted(seed=0)
        regions = weak_region_scan(ds, ["x0", "x1"], bins=5)
        top = regions[0]
        assert top.feature == "x0"
        assert "[0.8" in top.range_label or top.range_label.startswith("x0 in [0.79")
        assert top.lift > 2.0

    def test_homogeneous_errors_flat_lifts(self, rng):
        n = 2000
        frame = make_frame(x0=rng.uniform(size=n), x1=rng.uniform(size=n))
        ds = make_scored(frame, rng.normal(size=n), np.zeros(n))
        regions = weak_region_scan(ds, ["x0", "x1"], bins=5)
        assert all(0.8 <= r.lift <= 1.2 for r in regions)
        again = weak_region_scan(ds, ["x0", "x1"], bins=5)
        assert [(r.feature, r.range_label) for r in regions] == [
            (r.feature, r.range_label) for r in again
        ]

    def test_small_dataset_empty(self, rng):
        frame = make_frame(x0=rng.uniform(size=10))
        ds = make_scored(frame, rng.normal(size=10), np.zeros(10))
        assert weak_region_scan(ds, ["x0"], bins=5) == []

    def test_scale_invariant_ranking(self, rng):
        ds = self.make_planted(seed=5)
        scaled = make_scored(ds.frame, ds.y_true * 100, ds.y_pred * 100)
        a = weak_region_scan(ds, ["x0", "x1"], bins=5)
        b = weak_region_scan(scaled, ["x0", "x1"], bins=5)
        assert [(r.feature, r.range_label) for r in a] == [(r.feature, r.range_label) for r in b]
        for ra, rb in zip(a, b):
            assert ra.lift == pytest.approx(rb.lift, rel=1e-9)


class TestFitGap:
    def make_pair(self, rng, train_err, test_err, n=200):
        x = rng.uniform(size=n)
        frame = make_frame(x=x)
        train = make_scored(frame, train_err(x, rng), np.zeros(n))
        x2 = rng.uniform(size=n)
        frame2 = make_frame(x=x2)
        test = make_scored(frame2, test_err(x2, rng), np.zeros(n))
        return train, test

    def test_identical_sets_all_ok(self, rng):
        x = rng.uniform(size=100)
        frame = make_frame(x=x)
        ds = make_scored(frame, rng.normal(size=100), np.zeros(100))
        table = fit_gap(ds, ds, "x", [0, 0.5, 1.0])
        assert all(row.flag == "ok" for row in table.rows)
        assert all(row.gap == 0.0 for row in table.rows)

    def test_overfit_segment_flagged(self, rng):
        # segment x < 0.5: near-zero train error, large test error
        def train_err(x, r):
            return np.where(x < 0.5, 0.01, 1.0) * np.abs(r.normal(size=len(x)))

        def test_err(x, r):
            return np.where(x < 0.5, 3.0, 1.0) * np.abs(r.normal(size=len(x)))

        train, test = self.make_pair(rng, train_err, test_err, n=400)
        table = fit_gap(train, test, "x", [0, 0.5, 1.0])
        low = next(r for r in table.rows if "[0, 0.5)" in r.label)
        assert low.flag == "overfit"

    def test_column_kind_mismatch(self):
        # the same column names with another kind once gave a table silently
        train = make_scored(make_frame(x=[0.1, 0.6], g=[1.0, 2.0]), [1.0, 0.0], [0.9, 0.2])
        test = make_scored(make_frame(x=[0.2, 0.7], g=["a", "b"]), [1.0, 0.0], [0.8, 0.1])
        message = "train and test frames disagree on columns: column 1 is 'g' (numeric) vs 'g' (categorical)"
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
            fit_gap(train, test, "x", [0, 0.5, 1.0])

    def test_underfit_segment_flagged(self, rng):
        def both_err(x, r):
            return np.where(x < 0.2, 8.0, 1.0) * np.abs(r.normal(size=len(x)))

        train, test = self.make_pair(rng, both_err, both_err, n=500)
        table = fit_gap(train, test, "x", [0, 0.2, 1.0])
        low = next(r for r in table.rows if "[0, 0.2)" in r.label)
        assert low.flag == "underfit"


class LinearModel:
    """Deterministic fixture scorer: y = sum(coef * col)."""

    def __init__(self, coefs):
        self.coefs = coefs

    def predict(self, frame):
        total = np.zeros(frame.n_rows)
        for name, c in self.coefs.items():
            total = total + c * frame.column(name).values
        return total


class TestPerturbation:
    def test_ignored_feature_zero_delta(self, rng):
        frame = make_frame(x0=rng.normal(size=100), x1=rng.normal(size=100))
        report = perturbation_test(LinearModel({"x0": 3.0}), frame, 0.05, n_repeats=3, seed=0)
        by_name = {r.feature: r for r in report.rows}
        assert by_name["x1"].mean_abs_delta == 0.0
        assert by_name["x0"].mean_abs_delta > 0.0

    def test_linear_model_folded_normal_mean(self, rng):
        # |delta| = |3 * noise|, noise ~ N(0, s^2): mean = 3 s sqrt(2/pi)
        frame = make_frame(x0=rng.normal(size=2000))
        s = 0.05 * frame.column("x0").values.std()
        report = perturbation_test(LinearModel({"x0": 3.0}), frame, 0.05, n_repeats=5, seed=1)
        expected = 3.0 * s * np.sqrt(2.0 / np.pi)
        assert report.rows[0].mean_abs_delta == pytest.approx(expected, rel=0.05)

    def test_zero_noise_zero_delta(self, rng):
        frame = make_frame(x0=rng.normal(size=50))
        report = perturbation_test(LinearModel({"x0": 2.0}), frame, 0.0, n_repeats=2, seed=0)
        assert report.rows[0].mean_abs_delta == 0.0

    def test_linear_scaling_in_noise(self, rng):
        frame = make_frame(x0=rng.normal(size=800))
        model = LinearModel({"x0": 2.0})
        levels = np.array([0.01, 0.02, 0.04, 0.08, 0.16])
        deltas = np.array(
            [
                perturbation_test(model, frame, lvl, n_repeats=3, seed=7).rows[0].mean_abs_delta
                for lvl in levels
            ]
        )
        slope, intercept = np.polyfit(levels, deltas, 1)
        fitted = slope * levels + intercept
        ss_res = np.sum((deltas - fitted) ** 2)
        ss_tot = np.sum((deltas - deltas.mean()) ** 2)
        assert 1 - ss_res / ss_tot >= 0.99

    def test_deterministic(self, rng):
        frame = make_frame(x0=rng.normal(size=60))
        model = LinearModel({"x0": 1.0})
        a = perturbation_test(model, frame, 0.05, n_repeats=2, seed=3)
        b = perturbation_test(model, frame, 0.05, n_repeats=2, seed=3)
        assert a.rows[0].mean_abs_delta == b.rows[0].mean_abs_delta


class TestBaseline:
    """Each test's baseline is the scorer's answer on the unaltered frame."""

    @pytest.mark.parametrize("first_call", [True, False])
    def test_scorer_output_of_wrong_shape_is_a_length_mismatch(self, rng, first_call):
        # a scorer answering [1.0] after its first call was broadcast against
        # the baseline: mean_abs_delta 0.0 and an invariance pass
        class OneValueModel:
            calls = 0

            def predict(self, frame):
                self.calls += 1
                return [1.0] if first_call or self.calls > 1 else np.ones(frame.n_rows)

        frame = make_frame(x0=rng.normal(size=50), junk=rng.normal(size=50))
        for run in (
            lambda model: perturbation_test(model, frame, 0.05, n_repeats=2, seed=0),
            lambda model: invariance_test(model, frame, ["junk"], seed=0),
        ):
            with pytest.raises(LengthMismatch, match=r"^scorer returned shape \(1,\) for 50 rows$"):
                run(OneValueModel())


class StackingModel(LinearModel):
    """Scores a list of frames in one call, as the external model adapter does."""

    def __init__(self, coefs):
        super().__init__(coefs)
        self.calls = []

    def predict_many(self, frames):
        self.calls.append(len(frames))
        return [self.predict(f) for f in frames]


class TestPredictMany:
    def test_each_test_scores_its_frames_in_one_call(self, rng):
        frame = make_frame(x0=rng.normal(size=60), x1=rng.normal(size=60), junk=rng.normal(size=60))
        coefs = {"x0": 2.0, "junk": 1e-3}
        model = StackingModel(coefs)
        sens = perturbation_test(model, frame, 0.05, n_repeats=2, seed=4)
        inv = invariance_test(model, frame, ["junk"], seed=4)
        # each call carries the unaltered frame first
        assert model.calls == [1 + 3 * 2, 1 + 1]
        assert sens == perturbation_test(LinearModel(coefs), frame, 0.05, n_repeats=2, seed=4)
        assert inv == invariance_test(LinearModel(coefs), frame, ["junk"], seed=4)

    def test_each_part_is_shape_checked(self, rng):
        class ShortPartModel(StackingModel):
            def predict_many(self, frames):
                return [p[:-1] if i == 2 else p for i, p in enumerate(super().predict_many(frames))]

        frame = make_frame(x0=rng.normal(size=50), x1=rng.normal(size=50))
        with pytest.raises(LengthMismatch, match=r"^scorer returned shape \(49,\) for 50 rows$"):
            perturbation_test(ShortPartModel({"x0": 1.0}), frame, 0.05, n_repeats=2, seed=0)


class TestInvariance:
    def test_model_not_reading_column(self, rng):
        frame = make_frame(x0=rng.normal(size=80), junk=rng.normal(size=80))
        report = invariance_test(LinearModel({"x0": 2.0}), frame, ["junk"], seed=0)
        assert report.max_abs_delta == 0.0
        assert report.violating_rows == []

    def test_model_secretly_reading_column(self, rng):
        frame = make_frame(x0=rng.normal(size=80), junk=rng.normal(size=80))
        report = invariance_test(LinearModel({"x0": 2.0, "junk": 0.5}), frame, ["junk"], seed=0)
        assert report.max_abs_delta > 0.0
        assert len(report.violating_rows) > 0

    def test_empty_irrelevant_list(self, rng):
        frame = make_frame(x0=rng.normal(size=10))
        report = invariance_test(LinearModel({"x0": 1.0}), frame, [], seed=0)
        assert report.max_abs_delta == 0.0

    def test_constant_mode(self, rng):
        frame = make_frame(x0=rng.normal(size=40), junk=rng.normal(size=40))
        report = invariance_test(
            LinearModel({"junk": 1.0}), frame, ["junk"], mode="constant", seed=0
        )
        assert report.max_abs_delta > 0.0

    def test_unknown_feature(self, rng):
        frame = make_frame(x0=rng.normal(size=5))
        with pytest.raises(UnknownFeature):
            invariance_test(LinearModel({}), frame, ["ghost"])

    @pytest.mark.parametrize(
        "columns, expected",
        [
            # nothing observed: 0.0, or code 0 of the one label "__EMPTY__"
            ({"num": [nan, nan, nan]}, {"num": [0.0] * 3}),
            ({"cat": [None, None, None]}, {"cat": ["__EMPTY__"] * 3}),
            # the median of the observed values; the mode with ties to the earliest label
            (
                {"num": [1.0, 5.0, nan, 2.0, 9.0], "cat": ["b", "a", None, "a", "b"]},
                {"num": [3.5] * 5, "cat": ["b"] * 5},
            ),
        ],
    )
    def test_constant_mode_fills(self, columns, expected):
        class Recorder:
            frames = []

            def predict(self, frame):
                self.frames.append(frame)
                return np.zeros(frame.n_rows)

        frame = make_frame(x0=np.arange(len(next(iter(columns.values())))), **columns)
        model = Recorder()
        invariance_test(model, frame, list(columns), mode="constant")
        altered = model.frames[-1]
        for name, fills in expected.items():
            col = altered.column(name)
            assert not col.missing_mask.any()
            if col.kind == "numeric":
                assert col.values.tolist() == fills
            else:
                assert [col.label_at(i) for i in range(altered.n_rows)] == fills


def average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a`` with ties sharing their mean rank, as
    ``scipy.stats.rankdata`` gives them (its ``average`` method): all NaN
    when any value is NaN. The rank table the AUC was once summed from."""
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


def rank_sum_auc(y: np.ndarray, pred: np.ndarray) -> float | None:
    """metric_value("auc", ...) as written before it counted Mann-Whitney
    pairs: the positives' rank sum less its minimum."""
    pos = y == 1.0
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(pred)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


SCORES = st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, np.inf, -np.inf, np.nan]) | st.floats(-2, 2, width=16)


class TestAverageRanks:
    # the reference rank table above must itself be scipy's
    @settings(max_examples=300, deadline=None)
    @given(st.lists(SCORES, min_size=1, max_size=60))
    def test_equals_scipy_rankdata(self, values):
        from scipy.stats import rankdata

        a = np.array(values)
        got = average_ranks(a)
        expected = rankdata(a)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert np.array_equal(got, expected, equal_nan=True)


class TestAucMatchesRankSum:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0]), SCORES), min_size=1, max_size=60))
    def test_same_bits_as_the_rank_sum(self, rows):
        # ties, +-0.0 and +-inf rank as before; one class gives None, a NaN score NaN
        y, pred = (np.array(v) for v in zip(*rows))
        assert repr(metric_value("auc", y, pred, 0.5)) == repr(rank_sum_auc(y, pred))

    def test_same_bits_on_many_tied_rows(self, rng):
        y = (rng.random(20_000) < 0.3).astype(float)
        pred = np.round(rng.normal(size=20_000) + y, 1)
        got = metric_value("auc", y, pred, 0.5)
        assert 0.5 < got < 1.0
        assert repr(got) == repr(rank_sum_auc(y, pred))


class TestMetricValue:
    def test_auc_rank_formula(self):
        y = np.array([1.0, 0.0, 1.0, 0.0])
        p = np.array([0.9, 0.1, 0.8, 0.3])
        assert metric_value("auc", y, p, 0.5) == 1.0

    def test_error_rate_threshold(self):
        y = np.array([1.0, 0.0])
        p = np.array([0.6, 0.6])
        assert metric_value("error_rate", y, p, 0.5) == 0.5


# ---------------------------------------------------------------------------
# One segment-scoring path: the merged functions against a reference copy
# ---------------------------------------------------------------------------

# Reference implementations: each of the five functions written out on its
# own, with its own metric choice, per-group rule, label alignment and
# quantile edges (docstrings dropped). The property tests below require the
# library functions to give equal results, or raise the same error, on every
# input outside the differences the tests name.


def ref_segment_metrics(
    ds: ScoredDataset,
    seg: SegmentAssignment,
    metric: str = "mae",
    threshold: float = 0.5,
) -> SegmentMetricsTable:
    check_metric(metric, ds.y_true)
    if len(seg.segment_ids) != ds.n_rows:
        raise SchemaMismatch("segment assignment does not match dataset rows")
    overall = metric_value(metric, ds.y_true, ds.y_pred, threshold)
    rows = []
    for sid, label in enumerate(seg.labels):
        members = seg.segment_ids == sid
        count = int(members.sum())
        if count == 0:
            rows.append(SegmentMetricRow(label, 0, None, None))
            continue
        value = metric_value(metric, ds.y_true[members], ds.y_pred[members], threshold)
        lift, degenerate = _lift(value, overall)
        rows.append(SegmentMetricRow(label, count, value, lift, degenerate))
    return SegmentMetricsTable(metric, overall, ds.n_rows, rows)


def ref_weak_region_scan(
    ds: ScoredDataset,
    features: Sequence[str],
    bins: int = 5,
    min_rows: int = DEFAULT_MIN_ROWS,
    metric: str | None = None,
    threshold: float = 0.5,
) -> list[WeakRegion]:
    metric = metric or default_error_metric(ds.y_true)
    check_metric(metric, ds.y_true)
    overall = metric_value(metric, ds.y_true, ds.y_pred, threshold)
    regions: list[WeakRegion] = []
    for feature in features:
        seg = segment_by_bins(ds.frame, feature, bins)
        table = ref_segment_metrics(ds, seg, metric, threshold)
        for row in table.segments:
            if row.rows < min_rows or row.value is None or row.lift is None:
                continue
            regions.append(
                WeakRegion(feature, row.label, row.rows, metric, row.value, row.lift)
            )
    regions.sort(key=lambda r: (-r.lift, -r.rows, r.feature, r.range_label))
    return regions


def ref_fit_gap(
    train: ScoredDataset,
    test: ScoredDataset,
    feature: str | None = None,
    edges: Sequence[float] | int | None = None,
    metric: str | None = None,
    overfit_gap_fraction: float = 0.2,
    underfit_multiplier: float = 1.5,
    threshold: float = 0.5,
) -> FitGapTable:
    if train.frame.names != test.frame.names:
        raise SchemaMismatch("train and test frames disagree on columns")
    metric = metric or default_error_metric(train.y_true)
    check_metric(metric, train.y_true)
    check_metric(metric, test.y_true)

    if feature is None:
        labels = ("all",)
        train_ids = np.zeros(train.n_rows, dtype=np.int64)
        test_ids = np.zeros(test.n_rows, dtype=np.int64)
    else:
        if edges is None:
            raise ValueError("fit_gap needs explicit edges when a feature is given")
        if isinstance(edges, (int, np.integer)):
            # derive shared quantile edges from train so both sets bin identically
            col = train.frame.column(feature)
            if not isinstance(col, NumericColumn):
                raise SchemaError(f"fit_gap needs a numeric feature, got {feature!r}")
            edges = np.unique(np.quantile(col.observed(), np.linspace(0, 1, int(edges) + 1)))
            if edges.size == 1:
                edges = np.array([edges[0], edges[0]])
        seg_train = segment_by_bins(train.frame, feature, edges)
        seg_test = segment_by_bins(test.frame, feature, edges)
        # align label spaces: extras like "missing" may exist on one side only
        labels = tuple(dict.fromkeys(seg_train.labels + seg_test.labels))
        index = {lbl: i for i, lbl in enumerate(labels)}
        train_ids = np.array([index[seg_train.labels[i]] for i in seg_train.segment_ids])
        test_ids = np.array([index[seg_test.labels[i]] for i in seg_test.segment_ids])

    overall_train = metric_value(metric, train.y_true, train.y_pred, threshold)
    overall_test = metric_value(metric, test.y_true, test.y_pred, threshold)

    rows = []
    for sid, label in enumerate(labels):
        tr = train_ids == sid
        te = test_ids == sid
        tr_n, te_n = int(tr.sum()), int(te.sum())
        tr_v = metric_value(metric, train.y_true[tr], train.y_pred[tr], threshold) if tr_n else None
        te_v = metric_value(metric, test.y_true[te], test.y_pred[te], threshold) if te_n else None
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


def ref_sliding_window_eval(
    ds: ScoredDataset,
    window,
    step,
    metric: str | None = None,
    mode: str = "rows",
    min_rows: int = DEFAULT_MIN_ROWS,
    threshold: float = 0.5,
) -> list[WindowPoint]:
    if ds.timestamps is None:
        raise NoTimestamps("sliding_window_eval needs a timestamped dataset")
    if step > window:
        raise ValueError("step must not exceed window")
    metric = metric or default_error_metric(ds.y_true)
    check_metric(metric, ds.y_true)

    axis = _timestamp_axis(ds.timestamps)
    order = np.argsort(axis, kind="stable")
    axis = axis[order]
    y = ds.y_true[order]
    pred = ds.y_pred[order]
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
            points.append(WindowPoint(ds.timestamps[order[start]], rows, value))
            start += step
    elif mode == "time":
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


def ref_segment_error_tracking(
    batches: Sequence[ScoredDataset],
    feature: str,
    edges: Sequence[float],
    metric: str | None = None,
    min_rows: int = DEFAULT_MIN_ROWS,
    threshold: float = 0.5,
) -> SegmentSeries:
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


GRID = [-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0]  # coarse: many ties
SCORE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def scored_datasets(draw, binary: bool):
    """Two numeric features with ties and missing cells, a numeric timestamp
    with ties, and binary or continuous targets."""
    n = draw(st.integers(1, 40))
    cells = st.lists(st.sampled_from(GRID + [np.nan]), min_size=n, max_size=n)
    if binary:
        y = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
        pred = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n))
    else:
        y = draw(st.lists(st.sampled_from(GRID), min_size=n, max_size=n))
        pred = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    timestamps = np.array(draw(st.lists(st.integers(0, 30), min_size=n, max_size=n)), float)
    # now and then a feature with no observed value at all
    x, z = ([nan] * n if draw(st.integers(0, 9)) == 0 else draw(cells) for _ in range(2))
    frame = make_frame(x=x, z=z)
    return make_scored(frame, y, pred, timestamps=timestamps)


def any_datasets(count: int = 1):
    return st.booleans().flatmap(
        lambda binary: st.lists(scored_datasets(binary), min_size=count, max_size=count)
    )


METRICS = st.sampled_from([None, "mae", "rmse", "error_rate", "auc"])
EXPLICIT_EDGES = st.lists(st.sampled_from(GRID), min_size=2, max_size=5).map(sorted)
EDGES = st.one_of(st.integers(2, 6), EXPLICIT_EDGES)


def outcome_of(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


class TestSegmentScoringMatchesReference:
    @SCORE_SETTINGS
    @given(any_datasets(), EDGES, METRICS.filter(bool))
    def test_segment_metrics(self, datasets, edges, metric):
        (ds,) = datasets
        seg = outcome_of(segment_by_bins, ds.frame, "x", edges)
        assume(isinstance(seg, SegmentAssignment))
        assert outcome_of(segment_metrics, ds, seg, metric) == outcome_of(
            ref_segment_metrics, ds, seg, metric
        )

    @SCORE_SETTINGS
    @given(any_datasets(), st.integers(2, 6), st.integers(1, 8), METRICS)
    def test_weak_region_scan(self, datasets, bins, min_rows, metric):
        (ds,) = datasets
        args = (ds, ["x", "z"], bins, min_rows, metric)
        assert outcome_of(weak_region_scan, *args) == outcome_of(ref_weak_region_scan, *args)

    @SCORE_SETTINGS
    @given(any_datasets(2), st.sampled_from([None, "x"]), EDGES, METRICS)
    def test_fit_gap(self, datasets, feature, edges, metric):
        train, test = datasets
        new = outcome_of(fit_gap, train, test, feature, edges, metric)
        ref = outcome_of(ref_fit_gap, train, test, feature, edges, metric)
        if isinstance(ref, tuple) and ref[0] is IndexError:
            # quantile edges of an all-missing train feature: now a structured error
            assert train.frame.column("x").observed().size == 0
            assert new == (SchemaError, "feature 'x' has no observed values")
        else:
            assert new == ref

    @SCORE_SETTINGS
    @given(
        any_datasets(),
        st.sampled_from(["rows", "time"]),
        st.integers(1, 15).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, w))),
        st.integers(1, 5),
        METRICS,
    )
    def test_sliding_window_eval(self, datasets, mode, window_step, min_rows, metric):
        (ds,) = datasets
        window, step = window_step
        args = (ds, window, step, metric, mode, min_rows)
        assert outcome_of(sliding_window_eval, *args) == outcome_of(ref_sliding_window_eval, *args)

    @SCORE_SETTINGS
    @given(st.integers(1, 3).flatmap(any_datasets), EXPLICIT_EDGES, st.integers(1, 5), METRICS)
    def test_segment_error_tracking(self, batches, edges, min_rows, metric):
        # labels that print alike (edges closer than the label's digits) are
        # pooled now, where the reference kept the last such bin's cell
        labels = segment_by_bins(batches[0].frame, "x", edges).labels
        assume(len(set(labels)) == len(labels))
        # the reference checked the metric batch by batch, interleaved with
        # binning; explicit edges never fail to bin, so the order is not seen
        args = (batches, "x", edges, metric, min_rows)
        new = outcome_of(segment_error_tracking, *args)
        assert new == outcome_of(ref_segment_error_tracking, *args)


CLOSE_EDGES = [0, 1.0000001, 1.0000002, 1.0000003, 2]  # alike at 6 significant digits


class TestSegmentScoringRegressions:
    def test_close_edges_get_distinct_labels(self):
        seg = segment_by_bins(make_frame(x=[0.5, 1.00000015, 1.00000025, 1.5]), "x", CLOSE_EDGES)
        assert seg.labels == (
            "x in [0, 1.0000001)",
            "x in [1.0000001, 1.0000002)",
            "x in [1.0000002, 1.0000003)",
            "x in [1.0000003, 2]",
        )
        assert seg.segment_ids.tolist() == [0, 1, 2, 3]

    def test_fit_gap_keeps_close_edge_bins_apart(self):
        frame = make_frame(x=[0.5, 1.00000015, 1.00000025, 1.5])
        ds = make_scored(frame, [1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 4.0])
        table = fit_gap(ds, ds, "x", CLOSE_EDGES)
        assert len({row.label for row in table.rows}) == 4
        assert [(row.train_rows, row.test_rows) for row in table.rows] == [(1, 1)] * 4

    def test_fit_gap_constant_train_feature_is_one_closed_bin(self):
        # train's quantile edges collapse to [3, 3], and test is binned by them
        frame = make_frame(x=[3.0, 3.0, 3.0, 3.0])
        train = make_scored(frame, [1.0, 2.0, 3.0, 4.0], [1.5, 2.0, 2.5, 4.0])
        test = make_scored(frame, [1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 3.0])
        table = fit_gap(train, test, "x", 4)
        assert [(row.label, row.train_rows, row.test_rows) for row in table.rows] == [("x in [3, 3]", 4, 4)]
        assert (table.rows[0].train_value, table.rows[0].test_value) == (0.25, 0.25)

    def test_fit_gap_all_missing_train_feature_is_schema_error(self):
        train = make_scored(make_frame(x=[nan, nan, nan]), [1.0, 2.0, 3.0], [1.0, 2.5, 2.0])
        test = make_scored(make_frame(x=[0.0, 1.0, 2.0]), [1.0, 2.0, 3.0], [1.0, 2.5, 2.0])
        with pytest.raises(SchemaError, match="feature 'x' has no observed values"):
            fit_gap(train, test, "x", 4)

    def test_empty_time_window_with_zero_min_rows_has_no_value(self):
        ds = make_scored(
            make_frame(x=[0.0, 1.0, 2.0, 3.0]),
            [1.0, 2.0, 3.0, 4.0],
            [1.5, 2.0, 2.5, 4.0],
            timestamps=np.array([0.0, 1.0, 8.0, 9.0]),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = sliding_window_eval(ds, 3, 3, mode="time", min_rows=0)
        assert [(p.window_start, p.rows) for p in points] == [(0.0, 2), (3.0, 0), (6.0, 2)]
        assert [p.value is None for p in points] == [False, True, False]
