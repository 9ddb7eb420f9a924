import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from modelwatch.concept import (
    ClassifyDriftConfig,
    _timestamp_axis,
    classify_drift,
    nn_match,
    paired_model_comparison,
    residual_two_sample_test,
    segment_error_tracking,
    sliding_window_eval,
)
from modelwatch.data import Residuals
from modelwatch.config import parse_config
from modelwatch.errors import EmptyDevSet, LengthMismatch, NoTimestamps, SchemaError, SchemaMismatch
from modelwatch.report import run_stage
from modelwatch.shift import DriftScanConfig

from conftest import make_frame, make_scored, write_pipeline_fixture


def cvm_rank_oracle(x, y):
    """Two-sample Cramer-von Mises statistic via the rank formula.

    T = U / (n m N) - (4 m n - 1) / (6 N) with
    U = n sum (r_i - i)^2 + m sum (s_j - j)^2 over pooled midranks.
    """
    from scipy.stats import rankdata

    x = np.asarray(x, float)
    y = np.asarray(y, float)
    n, m = len(x), len(y)
    big_n = n + m
    ranks = rankdata(np.concatenate([x, y]))
    r = np.sort(ranks[:n])
    s = np.sort(ranks[n:])
    u = n * np.sum((r - np.arange(1, n + 1)) ** 2) + m * np.sum((s - np.arange(1, m + 1)) ** 2)
    return u / (n * m * big_n) - (4 * m * n - 1) / (6 * big_n)


class TestNoNumericFeatures:
    # with no numeric column every distance is 0, every new row matched
    # reference row 0 and the residual KS called concept drift (p ~ 1e-118)
    @staticmethod
    def categorical_only(seed):
        rng = np.random.default_rng(seed)
        frame = make_frame(grade=list(rng.choice(["a", "b", "c"], size=500)))
        return make_scored(frame, rng.normal(size=500), rng.normal(size=500))

    def test_nn_match_refuses(self):
        reference, current = self.categorical_only(1), self.categorical_only(2)
        with pytest.raises(SchemaError, match="^matching needs at least one numeric feature$"):
            nn_match(current.frame, reference.frame)

    def test_concept_section_is_an_error(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0))
        datasets = {"reference": self.categorical_only(1), "current": self.categorical_only(2)}
        data = SimpleNamespace(scored=datasets.__getitem__, scan=[])
        assert run_stage("concept_drift", cfg, data) == {
            "status": "error",
            "error": "SchemaError: matching needs at least one numeric feature",
        }


class TestNnMatch:
    def test_self_match(self, rng):
        frame = make_frame(x0=rng.normal(size=20), x1=rng.normal(size=20))
        result = nn_match(frame, frame, k=1)
        np.testing.assert_array_equal(result.matched_dev_indices.ravel(), np.arange(20))
        assert result.mean_match_distance == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("side", ["new", "dev"])
    def test_infinite_cell_is_a_schema_error(self, rng, side):
        # an inf gave a NaN mean_match_distance and no error
        X = {name: rng.normal(size=(50, 2)) for name in ("new", "dev")}
        X[side][7, 1] = np.inf
        frames = {name: make_frame(x0=x[:, 0], x1=x[:, 1]) for name, x in X.items()}
        with pytest.raises(SchemaError, match="^matching requires a frame with no infinite values$"):
            nn_match(frames["new"], frames["dev"])

    def test_single_dev_row(self, rng):
        new = make_frame(x0=rng.normal(size=5))
        dev = make_frame(x0=np.array([0.0]))
        result = nn_match(new, dev, k=1)
        assert set(result.matched_dev_indices.ravel()) == {0}

    def test_nearer_point_wins(self):
        dev = make_frame(x0=np.array([0.0, 10.0]))
        new = make_frame(x0=np.array([2.0]))
        result = nn_match(new, dev, k=1)
        assert result.matched_dev_indices[0, 0] == 0

    def test_tie_breaks_to_lower_index(self):
        dev = make_frame(x0=np.array([1.0, 3.0, 1.0]))
        new = make_frame(x0=np.array([1.0]))
        result = nn_match(new, dev, k=2)
        np.testing.assert_array_equal(result.matched_dev_indices[0], [0, 2])

    def test_affine_invariance(self, rng):
        new_x = rng.normal(size=(30, 2))
        dev_x = rng.normal(size=(100, 2))
        scale = np.array([250.0, 0.004])
        shift = np.array([-7.0, 3.0])
        a = nn_match(
            make_frame(x0=new_x[:, 0], x1=new_x[:, 1]),
            make_frame(x0=dev_x[:, 0], x1=dev_x[:, 1]),
            k=3,
        )
        b = nn_match(
            make_frame(x0=new_x[:, 0] * scale[0] + shift[0], x1=new_x[:, 1] * scale[1] + shift[1]),
            make_frame(x0=dev_x[:, 0] * scale[0] + shift[0], x1=dev_x[:, 1] * scale[1] + shift[1]),
            k=3,
        )
        np.testing.assert_array_equal(a.matched_dev_indices, b.matched_dev_indices)

    def test_mahalanobis_metric(self, rng):
        dev = make_frame(x0=rng.normal(size=50), x1=rng.normal(size=50))
        new = make_frame(x0=rng.normal(size=10), x1=rng.normal(size=10))
        result = nn_match(new, dev, k=1, metric="mahalanobis")
        assert result.distance_metric == "mahalanobis"
        assert result.matched_dev_indices.shape == (10, 1)

    def test_empty_dev(self, rng):
        new = make_frame(x0=np.array([1.0]))
        dev = new.take([])
        with pytest.raises(EmptyDevSet):
            nn_match(new, dev, k=1)

    def test_schema_mismatch(self):
        with pytest.raises(SchemaMismatch):
            nn_match(make_frame(a=[1.0]), make_frame(b=[1.0]))

    def test_column_kind_mismatch(self):
        # g numeric in one frame and categorical in the other once reached
        # the distance code and failed there with a bare numpy ValueError
        new = make_frame(x=[0.0, 1.0], g=[1.0, 2.0])
        dev = make_frame(x=[0.0, 1.0, 2.0], g=["a", "b", "a"])
        message = "new and development frames disagree on columns: column 1 is 'g' (numeric) vs 'g' (categorical)"
        with pytest.raises(SchemaMismatch, match=f"^{re.escape(message)}$"):
            nn_match(new, dev)


class TestResidualTest:
    def test_identical_ks(self, rng):
        res = Residuals(rng.normal(size=40))
        result = residual_two_sample_test(res, Residuals(res.values.copy()), "ks")
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_shifted_residuals_reject(self, rng):
        a = Residuals(rng.normal(size=500))
        b = Residuals(rng.normal(size=500) + 5.0)
        for test in ("ks", "cvm"):
            result = residual_two_sample_test(a, b, test)
            assert result.p_value < 0.001, test

    def test_cvm_matches_rank_formula(self, rng):
        for _ in range(50):
            n, m = rng.integers(3, 11, size=2)
            x = rng.normal(size=n)
            y = rng.normal(size=m)
            result = residual_two_sample_test(Residuals(x), Residuals(y), "cvm")
            assert result.statistic == pytest.approx(cvm_rank_oracle(x, y), abs=1e-12)


# Synthetic generators for the drift discrimination protocol. The "deployed
# model" is a fixed imperfect linear fit, shared by every dataset it scores.
TRUE_COEFS = np.array([3.0, -2.0, 1.0])
MODEL_COEFS = np.array([2.8, -2.1, 1.1])


def generate(r, n, input_shift=0.0, func_shift=0.0):
    X = r.normal(size=(n, 3))
    X[:, 0] += input_shift
    y = X @ TRUE_COEFS + func_shift + r.normal(size=n)
    pred = X @ MODEL_COEFS
    frame = make_frame(x0=X[:, 0], x1=X[:, 1], x2=X[:, 2])
    return make_scored(frame, y, pred)


def quiet_scan_config():
    # univariate only: the multivariate permutation block is exercised elsewhere
    return DriftScanConfig(multivariate_metrics=())


class TestClassifyDrift:
    def test_no_drift_on_identical(self, rng):
        ds = generate(rng, 400)
        diag = classify_drift(ds, ds, ClassifyDriftConfig(scan=quiet_scan_config()))
        assert diag.verdict == "no_drift"
        assert diag.residual_test.p_value == 1.0

    def test_subset_never_concept_drift(self, rng):
        ds = generate(rng, 500)
        sub = ds.take(np.arange(0, 500, 3))
        diag = classify_drift(ds, sub, ClassifyDriftConfig(scan=quiet_scan_config()))
        assert diag.verdict in ("no_drift", "input_drift")
        assert diag.residual_test.p_value == 1.0

    def test_covariate_shift_classified_as_input_drift(self):
        r = np.random.default_rng(77)
        ref = generate(r, 2000)
        new = generate(r, 400, input_shift=1.5)
        diag = classify_drift(ref, new, ClassifyDriftConfig(scan=quiet_scan_config()))
        assert diag.verdict == "input_drift"
        assert diag.residual_test.p_value >= 0.01

    def test_changed_function_classified_as_concept_drift(self):
        r = np.random.default_rng(78)
        ref = generate(r, 2000)
        new = generate(r, 400, func_shift=1.5)
        diag = classify_drift(ref, new, ClassifyDriftConfig(scan=quiet_scan_config()))
        assert diag.verdict == "concept_drift"
        assert diag.residual_test.p_value < 0.01

    def test_both_drifts(self):
        r = np.random.default_rng(79)
        ref = generate(r, 2000)
        new = generate(r, 400, input_shift=1.5, func_shift=2.0)
        diag = classify_drift(ref, new, ClassifyDriftConfig(scan=quiet_scan_config()))
        assert diag.verdict == "both"


class TestSlidingWindow:
    def make_ts(self, errors, ts=None):
        n = len(errors)
        frame = make_frame(x=np.zeros(n))
        return make_scored(
            frame,
            np.asarray(errors, float),
            np.zeros(n),
            timestamps=np.arange(n, dtype=float) if ts is None else ts,
        )

    @pytest.mark.parametrize("mode", ["rows", "time"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_timestamp_rejected(self, mode, bad):
        # with an infinite end the time mode would never find its last window
        ds = self.make_ts([1.0, 2.0, 3.0], ts=np.array([0.0, 1.0, bad]))
        with pytest.raises(NoTimestamps, match="timestamps must be finite"):
            sliding_window_eval(ds, 1, 1, metric="mae", mode=mode)

    def test_empty_dataset_has_no_windows_in_either_mode(self):
        ds = self.make_ts([], ts=np.array([]))
        assert sliding_window_eval(ds, 1, 1, metric="mae", mode="rows") == []
        assert sliding_window_eval(ds, 1.0, 1.0, metric="mae", mode="time") == []

    def test_constant_residuals_flat_series(self):
        ds = self.make_ts([2.0] * 120)
        points = sliding_window_eval(ds, window=40, step=40, metric="mae", mode="rows")
        values = [p.value for p in points]
        assert values == [2.0, 2.0, 2.0]

    def test_step_change_detected(self, rng):
        first = np.abs(rng.normal(size=300))
        second = 2.0 * np.abs(rng.normal(size=300))
        ds = self.make_ts(np.concatenate([first, second]))
        points = sliding_window_eval(ds, window=100, step=100, metric="mae", mode="rows")
        early = np.mean([p.value for p in points[:3]])
        late = np.mean([p.value for p in points[3:]])
        assert 1.8 <= late / early <= 2.2

    def test_full_range_single_point(self):
        ds = self.make_ts(np.arange(50, dtype=float))
        points = sliding_window_eval(ds, window=50, step=50, metric="mae", mode="rows")
        assert len(points) == 1
        assert points[0].value == pytest.approx(np.mean(np.arange(50.0)))

    def test_time_mode_full_range(self):
        ds = self.make_ts(np.ones(40))
        span = 39.0
        points = sliding_window_eval(ds, window=span, step=span, metric="mae", mode="time")
        assert len(points) == 1
        assert points[0].rows == 40

    def test_small_windows_absent(self):
        ds = self.make_ts(np.ones(100))
        points = sliding_window_eval(ds, window=10, step=10, metric="mae", mode="rows", min_rows=30)
        assert all(p.value is None for p in points)

    def test_iso_timestamps(self):
        ts = np.array([f"2024-01-{d:02d}" for d in range(1, 31)], dtype=object)
        frame = make_frame(x=np.zeros(30))
        ds = make_scored(frame, np.ones(30), np.zeros(30), timestamps=ts)
        day = 86400.0
        points = sliding_window_eval(ds, window=29 * day, step=29 * day, metric="mae", mode="time", min_rows=5)
        assert len(points) == 1
        assert points[0].value == 1.0

    def test_iso_timestamps_from_a_list_of_str(self):
        # a plain list of ISO dates used to be stored as a '<U10' array
        ts = [f"2024-01-{d:02d}" for d in range(1, 31)]
        ds = make_scored(make_frame(x=np.zeros(30)), np.ones(30), np.zeros(30), timestamps=ts)
        assert ds.timestamps.dtype == object
        day = 86400.0
        points = sliding_window_eval(ds, window=29 * day, step=29 * day, metric="mae", mode="time", min_rows=5)
        assert [(p.rows, p.value) for p in points] == [(30, 1.0)]
        rows = sliding_window_eval(ds, window=10, step=10, metric="mae", mode="rows", min_rows=1)
        assert [p.window_start for p in rows] == ["2024-01-01", "2024-01-11", "2024-01-21"]

    @pytest.mark.parametrize("zone", ["UTC", "America/New_York"])
    def test_naive_iso_timestamps_read_as_utc(self, zone, monkeypatch):
        # 01:30 -> 03:30 spans the 2021 US spring-forward gap: two hours in
        # UTC but one in New York local time
        monkeypatch.setenv("TZ", zone)
        time.tzset()
        try:
            axis = _timestamp_axis(np.array(["2021-03-14T01:30", "2021-03-14T03:30"], dtype=object))
        finally:
            monkeypatch.undo()
            time.tzset()
        assert axis.tolist() == [1615685400.0, 1615692600.0]

    def test_rows_ordered_by_instant_not_text(self):
        # as text these sort as rows [2, 1, 0]; as instants (05:00Z, 06:00Z,
        # 04:00Z) the order is [2, 0, 1]
        ts = np.array(
            ["2024-01-01T10:00+05:00", "2024-01-01T06:00Z", "2024-01-01T04:00Z"], dtype=object
        )
        ds = make_scored(make_frame(x=np.zeros(3)), np.array([1.0, 2.0, 3.0]), np.zeros(3), timestamps=ts)
        points = sliding_window_eval(ds, window=1, step=1, metric="mae", mode="rows", min_rows=1)
        assert [p.value for p in points] == [3.0, 1.0, 2.0]

    def test_non_iso_text_timestamps_rejected_in_rows_mode(self):
        ts = np.array(["day one", "day two"], dtype=object)
        ds = make_scored(make_frame(x=np.zeros(2)), np.ones(2), np.zeros(2), timestamps=ts)
        with pytest.raises(NoTimestamps):
            sliding_window_eval(ds, window=1, step=1, metric="mae", mode="rows", min_rows=1)

    def test_no_timestamps(self):
        ds = make_scored(make_frame(x=[1.0]), [1.0], [1.0])
        with pytest.raises(NoTimestamps):
            sliding_window_eval(ds, 1, 1)


class TestPairedComparison:
    def test_identical_errors_tie(self):
        result = paired_model_comparison([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.mean_diff == 0.0
        assert result.p_value == 1.0
        assert result.better == "tie"

    def test_constant_offset_degenerate(self):
        result = paired_model_comparison([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert result.p_value == 0.0
        assert result.t_statistic == float("inf")
        assert result.better == "b"

    def test_simulated_better_model(self):
        r = np.random.default_rng(5)
        base = np.abs(r.normal(size=200)) + 0.5
        a = base
        b = base * 0.8 + r.normal(size=200) * 0.05
        result = paired_model_comparison(a, b)
        assert result.p_value < 0.01
        assert result.better == "b"

    def test_antisymmetry(self, rng):
        a = rng.exponential(size=60)
        b = rng.exponential(size=60)
        fwd = paired_model_comparison(a, b)
        rev = paired_model_comparison(b, a)
        assert fwd.mean_diff == pytest.approx(-rev.mean_diff)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)
        swap = {"a": "b", "b": "a", "tie": "tie"}
        assert swap[fwd.better] == rev.better

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            paired_model_comparison([1.0], [1.0, 2.0])

    def test_p_value_is_the_two_sided_student_t_tail(self):
        from scipy.stats import t

        r = np.random.default_rng(11)
        cases = [([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), ([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])]  # sd == 0
        cases += [([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]), ([0.0, 0.0], [0.0, 0.0])]
        for n in (2, 3, 5, 10, 31, 100, 401):
            for shift in (0.0, 0.01, 0.1, 0.5, 2.0, 10.0):
                a = r.exponential(size=n)
                cases.append((a, a - shift + r.normal(scale=0.3, size=n)))
        for a, b in cases:
            result = paired_model_comparison(a, b)
            expected = float(2.0 * t.sf(abs(result.t_statistic), df=len(a) - 1))
            assert result.p_value == expected, (len(a), result.t_statistic)


class TestSegmentErrorTracking:
    def make_batch(self, rng, n=200, degraded=False):
        x = rng.uniform(size=n)
        err = np.abs(rng.normal(size=n))
        if degraded:
            err = np.where(x < 0.33, err * 4.0, err)
        frame = make_frame(x=x)
        return make_scored(frame, err, np.zeros(n))

    def test_identical_batches_constant_series(self, rng):
        batch = self.make_batch(rng)
        series = segment_error_tracking([batch, batch, batch], "x", [0, 0.33, 0.66, 1.0])
        for row in series.values:
            assert len(set(row)) == 1

    def test_localized_drift_detected(self, rng):
        healthy = [self.make_batch(rng) for _ in range(3)]
        sick = self.make_batch(rng, degraded=True)
        series = segment_error_tracking(healthy + [sick], "x", [0, 0.33, 0.66, 1.0])
        first_segment = series.values[0]
        others = series.values[1:3]
        assert first_segment[-1] / np.mean(first_segment[:3]) > 2.0
        for row in others:
            assert 0.8 <= row[-1] / np.mean(row[:3]) <= 1.2

    def test_single_batch(self, rng):
        series = segment_error_tracking([self.make_batch(rng)], "x", [0, 0.5, 1.0])
        assert all(len(row) == 1 for row in series.values)

    def test_batches_with_different_column_kinds(self, rng):
        batch = self.make_batch(rng, n=4)
        other = make_scored(make_frame(x=["a", "b", "a", "b"]), batch.y_true, batch.y_pred)
        with pytest.raises(SchemaMismatch, match="^batches disagree on columns: column 0 is 'x' "):
            segment_error_tracking([batch, batch, other], "x", [0, 0.5, 1.0])
