import numpy as np
import pytest

from modelwatch.data import (
    ColumnSpec,
    FeatureFrame,
    NumericColumn,
    Schema,
    ScoredDataset,
    load_csv,
    residuals,
    split_dataset,
    write_csv,
)
from modelwatch.errors import (
    DuplicateHeader,
    EmptyDataset,
    MissingColumn,
    SchemaError,
    ShortRow,
    TypeParseError,
)

from conftest import make_frame, make_scored, simple_schema


def feature_schema():
    return Schema(
        [
            ColumnSpec("age", "numeric", valid_range=(0, 120)),
            ColumnSpec("grade", "categorical", valid_categories=frozenset({"A", "B"})),
        ]
    )


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([ColumnSpec("a", "numeric"), ColumnSpec("a", "numeric")])

    def test_two_targets_rejected(self):
        with pytest.raises(SchemaError):
            Schema(
                [
                    ColumnSpec("a", "numeric", role="target"),
                    ColumnSpec("b", "numeric", role="target"),
                ]
            )

    def test_valid_range_on_categorical_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSpec("g", "categorical", valid_range=(0, 1))

    def test_valid_categories_on_numeric_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSpec("x", "numeric", valid_categories=frozenset({"A"}))

    def test_json_round_trip(self):
        schema = feature_schema()
        again = Schema.from_json_dict(schema.to_json_dict())
        assert again.names == schema.names
        assert again.column("age").valid_range == (0.0, 120.0)


class TestLoadCsv:
    def test_identity_parse(self, tmp_path):
        path = write(tmp_path, "age,grade\n30,A\n40,B\n50,A\n")
        frame = load_csv(path, feature_schema())
        assert isinstance(frame, FeatureFrame)
        assert frame.n_rows == 3
        assert not any(c.missing_mask.any() for c in frame.columns)
        np.testing.assert_array_equal(frame.column("age").values, [30, 40, 50])

    def test_declared_missing_token(self, tmp_path):
        path = write(tmp_path, "age,grade\nNA,A\n40,B\n")
        frame = load_csv(path, feature_schema())
        assert frame.column("age").missing_mask[0]
        assert not frame.column("age").missing_mask[1]

    def test_bad_numeric_token(self, tmp_path):
        path = write(tmp_path, "age,grade\nabc,A\n")
        with pytest.raises(TypeParseError) as exc:
            load_csv(path, feature_schema())
        assert exc.value.row == 0
        assert exc.value.column == "age"
        assert exc.value.token == "abc"

    def test_short_row_is_structured_error(self, tmp_path):
        path = write(tmp_path, "age,grade\n30,A\n40\n")
        with pytest.raises(ShortRow) as exc:
            load_csv(path, feature_schema())
        assert exc.value.row == 1  # data rows numbered from 0, as in TypeParseError
        assert (exc.value.expected, exc.value.found) == (2, 1)
        assert "row 1" in str(exc.value)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "age\n30\n")
        with pytest.raises(MissingColumn):
            load_csv(path, feature_schema())

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "age,age,grade\n30,31,A\n")
        with pytest.raises(DuplicateHeader):
            load_csv(path, feature_schema())

    def test_header_order_insensitive_and_extras_ignored(self, tmp_path):
        path = write(tmp_path, "junk,grade,age\nz,B,25\n")
        frame = load_csv(path, feature_schema())
        assert frame.column("age").values[0] == 25
        assert frame.column("grade").label_at(0) == "B"

    def test_scored_dataset_loads(self, tmp_path):
        path = write(tmp_path, "x0,x1,y,pred\n1,2,3,2.5\n4,5,6,6.5\n")
        ds = load_csv(path, simple_schema())
        assert isinstance(ds, ScoredDataset)
        np.testing.assert_array_equal(ds.y_true, [3, 6])
        np.testing.assert_array_equal(ds.y_pred, [2.5, 6.5])

    def test_missing_prediction_cell_is_error(self, tmp_path):
        path = write(tmp_path, "x0,x1,y,pred\n1,2,3,\n")
        with pytest.raises(TypeParseError):
            load_csv(path, simple_schema())

    def test_categorical_label_order_is_first_appearance(self, tmp_path):
        path = write(tmp_path, "age,grade\n1,B\n2,A\n3,B\n")
        frame = load_csv(path, feature_schema())
        assert frame.column("grade").labels == ("B", "A")


class TestRoundTrip:
    def test_frame_round_trip_exact(self, tmp_path, rng):
        values = rng.normal(size=20) * 1e3
        values[[2, 7]] = np.nan
        labels = [rng.choice(["A", "B"]) if i % 5 else None for i in range(20)]
        frame = make_frame(age=values, grade=list(labels))
        schema = Schema(
            [ColumnSpec("age", "numeric"), ColumnSpec("grade", "categorical")]
        )
        path = tmp_path / "rt.csv"
        write_csv(frame, path, schema)
        again = load_csv(path, schema)
        for name in frame.names:
            a, b = frame.column(name), again.column(name)
            np.testing.assert_array_equal(a.missing_mask, b.missing_mask)
            if isinstance(a, NumericColumn):
                observed = ~a.missing_mask
                np.testing.assert_array_equal(a.values[observed], b.values[observed])
            else:
                assert a.labels == b.labels
                np.testing.assert_array_equal(a.codes, b.codes)

    def test_scored_round_trip(self, tmp_path, rng):
        frame = make_frame(x0=rng.normal(size=8), x1=rng.normal(size=8))
        ds = make_scored(frame, rng.normal(size=8), rng.normal(size=8))
        schema = simple_schema()
        path = tmp_path / "rt.csv"
        write_csv(ds, path, schema)
        again = load_csv(path, schema)
        np.testing.assert_array_equal(ds.y_true, again.y_true)
        np.testing.assert_array_equal(ds.y_pred, again.y_pred)


class TestSplit:
    def make(self, n, rng):
        frame = make_frame(x0=rng.normal(size=n), x1=rng.normal(size=n))
        return make_scored(frame, rng.normal(size=n), rng.normal(size=n))

    def test_exact_halves(self, rng):
        ds = self.make(10, rng)
        parts = split_dataset(ds, [("train", 0.5), ("calib", 0.5)], seed=7)
        assert [p.n_rows for p in parts] == [5, 5]
        a = set(map(tuple, np.column_stack([parts[0].y_true, parts[0].y_pred])))
        b = set(map(tuple, np.column_stack([parts[1].y_true, parts[1].y_pred])))
        assert not a & b

    def test_identity_split(self, rng):
        ds = self.make(6, rng)
        (part,) = split_dataset(ds, [("all", 1.0)], seed=0)
        assert part.n_rows == 6
        np.testing.assert_array_equal(np.sort(part.y_true), np.sort(ds.y_true))

    def test_remainder_goes_to_first_label(self, rng):
        # floor allocation: floor(2.5) = 2 each, the leftover row goes to "a"
        ds = self.make(5, rng)
        parts = split_dataset(ds, [("a", 0.5), ("b", 0.5)], seed=3)
        assert [p.n_rows for p in parts] == [3, 2]
        assert set(parts[0].split_tag) == {"a"}

    def test_partition_property(self, rng):
        ds = self.make(23, rng)
        marker = np.arange(23.0)
        ds = make_scored(ds.frame, marker, marker)
        for seed in range(10):
            parts = split_dataset(ds, [("a", 0.3), ("b", 0.5), ("c", 0.2)], seed=seed)
            seen = np.concatenate([p.y_true for p in parts])
            assert len(seen) == 23
            assert set(seen) == set(marker)

    def test_deterministic(self, rng):
        ds = self.make(17, rng)
        a = split_dataset(ds, [("x", 0.4), ("y", 0.6)], seed=11)
        b = split_dataset(ds, [("x", 0.4), ("y", 0.6)], seed=11)
        for p, q in zip(a, b):
            np.testing.assert_array_equal(p.y_true, q.y_true)

    def test_empty_dataset(self):
        frame = make_frame(x0=np.array([1.0]))
        ds = make_scored(frame, [1.0], [1.0]).take([])
        with pytest.raises(EmptyDataset):
            split_dataset(ds, [("a", 1.0)], seed=0)


class TestResiduals:
    def test_perfect_model(self):
        ds = make_scored(make_frame(x0=[1.0, 2.0]), [1.0, 2.0], [1.0, 2.0])
        np.testing.assert_array_equal(residuals(ds).values, [0.0, 0.0])

    def test_direct_subtraction(self):
        ds = make_scored(make_frame(x0=[0.0]), [3.0], [1.0])
        np.testing.assert_array_equal(residuals(ds).values, [2.0])

    def test_signed(self):
        ds = make_scored(make_frame(x0=[0.0, 0.0]), [1.0, 2.0], [2.0, 0.0])
        np.testing.assert_array_equal(residuals(ds).values, [-1.0, 2.0])


class TestImmutability:
    def test_numeric_values_frozen(self):
        frame = make_frame(x0=[1.0, 2.0])
        with pytest.raises(ValueError):
            frame.column("x0").values[0] = 9.0

    def test_quantile_bounds_validated(self):
        frame = make_frame(x0=[1.0])
        with pytest.raises(SchemaError):
            ScoredDataset(frame, [1.0], [1.0], y_pred_lower=[2.0], y_pred_upper=[1.0])
