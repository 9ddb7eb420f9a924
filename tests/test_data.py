import csv
import math
import re
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modelwatch.data import (
    DEFAULT_MISSING_TOKENS,
    SCORED_ROLES,
    CategoricalColumn,
    ColumnSpec,
    FeatureFrame,
    NumericColumn,
    ROLES,
    Schema,
    ScoredDataset,
    load_csv,
    residuals,
    split_dataset,
    write_csv,
)
from modelwatch.errors import (
    CsvFormatError,
    DuplicateHeader,
    EmptyDataset,
    MissingColumn,
    ModelWatchError,
    SchemaError,
    SchemaMismatch,
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

    def test_schema_and_frame_name_their_duplicate_columns(self):
        # one unique-name check serves both containers, with the same message
        with pytest.raises(SchemaError, match=re.escape("duplicate column names: ['a']")):
            Schema([ColumnSpec("a", "numeric"), ColumnSpec("b", "numeric"), ColumnSpec("a", "numeric")])
        with pytest.raises(SchemaError, match=re.escape("duplicate column names: ['a']")):
            FeatureFrame.from_numeric(np.zeros((3, 3)), ["a", "b", "a"])

    def test_schema_and_frame_lookup_by_name(self):
        schema = simple_schema(scored=False)
        frame = FeatureFrame.from_numeric(np.zeros((3, 2)), ["x0", "x1"])
        for container in (schema, frame):
            assert container.names == ("x0", "x1")
            assert "x1" in container and "y" not in container
            assert container.column("x1") is container.columns[1]
            with pytest.raises(MissingColumn):
                container.column("y")

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

    @pytest.mark.parametrize(
        "spec",
        [
            # each was accepted, or ended in a bare TypeError, when the
            # checks ran only on the JSON path ("NS" matched labels by substring)
            dict(name="g", kind="categorical", valid_categories="NS"),
            dict(name=3, kind="numeric"),
            dict(name="x", kind="numeric", valid_range=(0, "x")),
            dict(name="x", kind="numeric", valid_range=(0, 1, 2)),
        ],
    )
    def test_malformed_spec_built_in_code_rejected(self, spec):
        with pytest.raises(SchemaError):
            ColumnSpec(**spec)

    def test_rules_round_trip_to_equal_specs(self):
        schema = Schema(
            [
                ColumnSpec("age", "numeric", valid_range=[0, 120]),
                ColumnSpec("grade", "categorical", valid_categories=["B", "A"]),
            ]
        )
        doc = schema.to_json_dict()
        assert doc["columns"][0]["valid_range"] == [0.0, 120.0]
        assert doc["columns"][1]["valid_categories"] == ["A", "B"]
        assert Schema.from_json_dict(doc).columns == schema.columns == feature_schema().columns


class TestSameColumns:
    @pytest.mark.parametrize(
        "other, message",
        [
            (dict(x=[1.0], g=["a"]), "column 1 is 'g' (numeric) vs 'g' (categorical)"),
            (dict(g=[1.0], x=[1.0]), "column 0 is 'x' (numeric) vs 'g' (numeric)"),
            (dict(x=[1.0]), "column 1 is 'g' (numeric) vs no column"),
            (dict(x=[1.0], g=[1.0], z=["a"]), "column 2 is no column vs 'z' (categorical)"),
        ],
    )
    def test_first_differing_column_is_named(self, other, message):
        frame = make_frame(x=[1.0, 2.0], g=[3.0, 4.0])
        with pytest.raises(SchemaMismatch) as exc:
            frame.check_same_columns(make_frame(**other), "two frames")
        assert str(exc.value) == f"two frames disagree on columns: {message}"

    def test_same_names_and_kinds_pass_whatever_the_rows(self):
        frame = make_frame(x=[1.0, 2.0], g=["a", None])
        frame.check_same_columns(make_frame(x=[5.0], g=["b"]), "two frames")


class TestLoadCsv:
    def test_identity_parse(self, tmp_path):
        path = write(tmp_path, "age,grade\n30,A\n40,B\n50,A\n")
        frame = load_csv(path, feature_schema())
        assert isinstance(frame, FeatureFrame)
        assert frame.n_rows == 3
        assert not any(c.missing_mask.any() for c in frame.columns)
        np.testing.assert_array_equal(frame.column("age").values, [30, 40, 50])

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a BOM stayed in the first header name: MissingColumn 'age'
        path = tmp_path / "data.csv"
        path.write_bytes("\ufeffage,grade\n30,A\n40,B\n".encode("utf-8"))
        frame = load_csv(path, feature_schema())
        assert frame.names == ("age", "grade")
        np.testing.assert_array_equal(frame.column("age").values, [30, 40])

    def test_declared_missing_token(self, tmp_path):
        path = write(tmp_path, "age,grade\nNA,A\n40,B\n")
        frame = load_csv(path, feature_schema())
        assert frame.column("age").missing_mask[0]
        assert not frame.column("age").missing_mask[1]

    @pytest.mark.parametrize("role", ["target", "prediction"])
    def test_one_scored_role_without_the_other_is_a_schema_error(self, tmp_path, role):
        path = write(tmp_path, "x0,y\n1,2\n")
        schema = Schema([ColumnSpec("x0", "numeric"), ColumnSpec("y", "numeric", role=role)])
        with pytest.raises(SchemaError, match="^schema must carry both target and prediction roles, or neither$"):
            load_csv(path, schema)

    def test_bad_numeric_token(self, tmp_path):
        path = write(tmp_path, "age,grade\nabc,A\n")
        with pytest.raises(TypeParseError) as exc:
            load_csv(path, feature_schema())
        assert exc.value.row == 0
        assert exc.value.column == "age"
        assert exc.value.token == "abc"

    @pytest.mark.parametrize("column", ["x0", "y"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_number_is_parse_error(self, tmp_path, token, column):
        # NaN only ever marks a missing cell; a non-finite value is no number
        cells = {"x0": "1", "x1": "2", "y": "3", "pred": "2.5"}
        cells[column] = token
        path = write(tmp_path, "x0,x1,y,pred\n4,5,6,6.5\n" + ",".join(cells.values()) + "\n")
        with pytest.raises(TypeParseError) as exc:
            load_csv(path, simple_schema())
        assert (exc.value.row, exc.value.column, exc.value.token) == (1, column, token)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity", "1e400"])
    def test_non_finite_timestamp_is_parse_error(self, tmp_path, token):
        # a time axis with an infinite end has no last window
        schema = Schema([*simple_schema(), ColumnSpec("t", "numeric", role="timestamp")])
        path = write(tmp_path, f"x0,x1,y,pred,t\n1,2,3,2.5,10\n4,5,6,6.5,{token}\n")
        with pytest.raises(TypeParseError) as exc:
            load_csv(path, schema)
        assert (exc.value.row, exc.value.column, exc.value.token) == (1, "t", token)

    @pytest.mark.parametrize("token", ["1_000", "\u0661\u0662", "\uff13", "2.5\u00a0", "1e1_0"])
    @pytest.mark.parametrize("column", ["x0", "y"])
    def test_separator_or_non_ascii_number_is_parse_error(self, tmp_path, token, column):
        # float() reads all of these; a CSV number is ASCII without separators
        cells = {"x0": "1", "x1": "2", "y": "3", "pred": "2.5", column: token}
        path = write(tmp_path, "x0,x1,y,pred\n4,5,6,6.5\n" + ",".join(cells.values()) + "\n")
        with pytest.raises(TypeParseError) as exc:
            load_csv(path, simple_schema())
        assert (exc.value.row, exc.value.column, exc.value.token) == (1, column, token)

    def test_ascii_whitespace_around_a_number_is_accepted(self, tmp_path):
        path = write(tmp_path, "x0,x1,y,pred\n 1 ,\t2,3 ,2.5\n")
        ds = load_csv(path, simple_schema())
        assert ds.frame.column("x0").values.tolist() == [1.0]
        assert ds.frame.column("x1").values.tolist() == [2.0]
        assert ds.y_true.tolist() == [3.0]

    def test_timestamp_column_with_a_non_number_loads_as_text(self, tmp_path):
        schema = Schema([*simple_schema(), ColumnSpec("t", "categorical", role="timestamp")])
        path = write(tmp_path, "x0,x1,y,pred,t\n1,2,3,2.5,inf\n4,5,6,6.5,2024-01-01\n")
        ds = load_csv(path, schema)
        assert ds.timestamps.dtype == object
        assert ds.timestamps.tolist() == ["inf", "2024-01-01"]

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

    def test_bytes_that_are_not_utf8_are_a_format_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("age,grade\n30,\u00c9\n".encode("latin-1"))
        with pytest.raises(CsvFormatError, match="not UTF-8 text"):
            load_csv(path, feature_schema())

    def test_a_cell_beyond_the_csv_field_limit_is_a_format_error(self, tmp_path):
        path = write(tmp_path, "age,grade\n30,A\n40," + "B" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(CsvFormatError, match=r", line 3: field larger than field limit"):
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

    def test_header_only_file_is_zero_scored_rows(self, tmp_path):
        path = write(tmp_path, "x0,x1,y,pred\n")
        ds = load_csv(path, simple_schema())
        assert isinstance(ds, ScoredDataset)
        assert ds.frame.names == ("x0", "x1") and ds.frame.n_rows == 0
        assert ds.y_true.shape == ds.y_pred.shape == (0,)

    def test_missing_token_category_is_missing_not_a_label(self, tmp_path):
        path = write(tmp_path, "age,grade\n1,NA\n2,B\n3,NA\n4,A\n")
        grade = load_csv(path, feature_schema()).column("grade")
        assert grade.labels == ("B", "A")
        assert grade.missing_mask.tolist() == [True, False, True, False]
        assert grade.codes.tolist() == [-1, 0, -1, 1]

    def test_rows_longer_than_the_header_load_as_trimmed(self, tmp_path):
        longer = load_csv(write(tmp_path, "age,grade\n1,B,x\n2,A,y,z\n3,B\n", "a.csv"), feature_schema())
        trimmed = load_csv(write(tmp_path, "age,grade\n1,B\n2,A\n3,B\n", "b.csv"), feature_schema())
        assert longer.names == trimmed.names
        assert longer.column("age").values.tolist() == trimmed.column("age").values.tolist()
        a, b = longer.column("grade"), trimmed.column("grade")
        assert (a.labels, a.codes.tolist()) == (b.labels, b.codes.tolist())


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

    def test_str_timestamps_round_trip(self, tmp_path):
        # a plain list of ISO dates used to be stored as a '<U10' array,
        # which write_csv tried to format as floats
        ts = ["2024-01-01", "2024-01-02", "2024-01-03"]
        ds = make_scored(make_frame(x0=[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0], [0.0, 0.0, 0.0], timestamps=ts)
        schema = Schema([*simple_schema(1), ColumnSpec("t", "categorical", role="timestamp")])
        path = tmp_path / "ts.csv"
        write_csv(ds, path, schema)
        again = load_csv(path, schema)
        assert again.timestamps.dtype == object
        assert again.timestamps.tolist() == ts


FINITE = st.floats(-1e6, 1e6, allow_nan=False)
TAGS = st.sampled_from(["train", "test", "hold out", ""])
ISO_DATES = st.dates().map(date.isoformat)


@st.composite
def role_datasets(draw):
    """A scored dataset with each optional role present or absent; its
    timestamps are numbers or ISO-8601 dates."""
    n = draw(st.integers(0, 12))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    kwargs = {}
    if draw(st.booleans()):
        lower = np.array(column(FINITE))
        kwargs["y_pred_lower"] = lower
        kwargs["y_pred_upper"] = lower + np.abs(column(FINITE))
    if draw(st.booleans()):
        if draw(st.booleans()):
            kwargs["timestamps"] = np.array(column(FINITE))
        else:
            kwargs["timestamps"] = np.array(column(ISO_DATES), dtype=object)
    if draw(st.booleans()):
        kwargs["split_tag"] = np.array(column(TAGS), dtype=object)
    frame = make_frame(x0=np.arange(n, dtype=float))
    return make_scored(frame, column(FINITE), column(FINITE), **kwargs)


def role_schema(ds: ScoredDataset) -> Schema:
    cols = [ColumnSpec("x0", "numeric")]
    for role, (field, dtype) in SCORED_ROLES.items():
        values = getattr(ds, field)
        if values is not None:
            kind = "numeric" if values.dtype == np.float64 else "categorical"
            cols.append(ColumnSpec(f"c_{role}", kind, role=role))
    return Schema(cols)


def role_by_role_loaded_fields(path, schema: Schema) -> dict:
    """The scored fields as load_csv built them role by role before
    SCORED_ROLES: float targets, predictions and bounds, numeric-or-text
    timestamps, object split tags."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))

    def cells(role):
        name = schema.role_column(role)
        return None if name is None else [r[name] for r in rows]

    def numbers(role):
        raw = cells(role)
        return None if raw is None else np.array([float(t) for t in raw], dtype=np.float64)

    timestamps = cells("timestamp")
    if timestamps is not None:
        try:
            timestamps = np.array([float(t) for t in timestamps], dtype=np.float64)
        except ValueError:
            timestamps = np.array(timestamps, dtype=object)
    split_tag = cells("split_tag")
    return {
        "y_true": numbers("target"),
        "y_pred": numbers("prediction"),
        "y_pred_lower": numbers("prediction_lower"),
        "y_pred_upper": numbers("prediction_upper"),
        "timestamps": timestamps,
        "split_tag": None if split_tag is None else np.array(split_tag, dtype=object),
    }


def role_by_role_taken_fields(ds: ScoredDataset, idx) -> dict:
    """The scored fields as ScoredDataset.take picked them field by field
    before SCORED_ROLES."""
    idx = np.asarray(idx)
    idx = np.nonzero(idx)[0] if idx.dtype == bool else idx.astype(np.intp, copy=False)
    pick = lambda a: None if a is None else a[idx]
    return {
        "y_true": ds.y_true[idx],
        "y_pred": ds.y_pred[idx],
        "y_pred_lower": pick(ds.y_pred_lower),
        "y_pred_upper": pick(ds.y_pred_upper),
        "timestamps": pick(ds.timestamps),
        "split_tag": pick(ds.split_tag),
    }


def assert_scored_fields(ds: ScoredDataset, expected: dict) -> None:
    for field, _ in SCORED_ROLES.values():
        got, want = getattr(ds, field), expected[field]
        if want is None:
            assert got is None, field
        else:
            assert got.dtype == want.dtype, field
            np.testing.assert_array_equal(got, want, err_msg=field)


class TestScoredRoles:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(role_datasets(), st.data())
    def test_round_trip_and_take_match_role_by_role_code(self, ds, data):
        schema = role_schema(ds)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.csv"
            write_csv(ds, path, schema)
            assert_scored_fields(load_csv(path, schema), role_by_role_loaded_fields(path, schema))
        n = ds.n_rows
        idx = data.draw(
            st.one_of(
                st.lists(st.integers(0, n - 1), max_size=2 * n) if n else st.just([]),
                st.lists(st.booleans(), min_size=n, max_size=n),
            )
        )
        assert_scored_fields(ds.take(idx), role_by_role_taken_fields(ds, idx))

    @pytest.mark.parametrize("field", [field for field, _ in SCORED_ROLES.values()])
    def test_length_mismatch_names_the_field(self, field):
        fields = {name: np.zeros(3) for name, _ in SCORED_ROLES.values()}
        fields[field] = np.zeros(4)
        with pytest.raises(SchemaError, match=f"^{field} length must equal frame.n_rows$"):
            ScoredDataset(make_frame(x0=[1.0, 2.0, 3.0]), **fields)

    @pytest.mark.parametrize("values", [None, np.zeros((2, 1))])
    @pytest.mark.parametrize("field", ["y_true", "y_pred"])
    def test_required_field_none_or_not_1d_is_schema_error(self, field, values):
        fields = {"y_true": np.zeros(2), "y_pred": np.zeros(2), field: values}
        with pytest.raises(SchemaError, match=f"^{field} length"):
            ScoredDataset(make_frame(x0=[1.0, 2.0]), **fields)

    def test_every_scored_role_is_a_schema_role_on_one_column(self):
        assert ROLES == ("feature", *SCORED_ROLES)
        for role in SCORED_ROLES:
            with pytest.raises(SchemaError, match="given to both"):
                Schema([ColumnSpec("a", "numeric", role=role), ColumnSpec("b", "numeric", role=role)])

    @pytest.mark.parametrize(
        "role", [role for role, (_, dtype) in SCORED_ROLES.items() if dtype is np.float64]
    )
    def test_float_roles_must_be_numeric(self, role):
        with pytest.raises(SchemaError, match="must be numeric"):
            Schema([ColumnSpec("a", "categorical", role=role)])


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


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [field for field, dtype in SCORED_ROLES.values() if dtype is np.float64])
    def test_rejected_naming_the_field(self, field, bad):
        fields = {
            "y_true": [0.0, 1.0, 0.0, 1.0],
            "y_pred": [0.1, 0.4, 0.2, 0.9],
            "y_pred_lower": [0.0, 0.0, 0.0, 0.0],
            "y_pred_upper": [1.0, 1.0, 1.0, 1.0],
        }
        fields[field][1] = bad
        frame = make_frame(x0=[1.0, 2.0, 3.0, 4.0])
        with pytest.raises(SchemaError, match=f"^{field} must be finite, got {re.escape(repr(bad))} at row 1$"):
            ScoredDataset(frame, **fields)


# A schema with a feature of each kind and every kind of scored role, and
# pieces of CSV text that probe the reader: header names, numbers, missing
# tokens, quotes, separators, a BOM, NUL and other control characters.
FUZZ_SCHEMA = Schema(
    [
        ColumnSpec("x", "numeric"),
        ColumnSpec("g", "categorical"),
        ColumnSpec("y", "numeric", role="target"),
        ColumnSpec("p", "numeric", role="prediction"),
        ColumnSpec("t", "numeric", role="timestamp"),
        ColumnSpec("s", "categorical", role="split_tag"),
    ]
)
CSV_PIECES = st.one_of(
    st.sampled_from(
        ["x", "g", "y", "p", "t", "s", "1", "0.5", "-2", "1e400", "nan", "NA", "", ",", "\n", "\r\n", "\r",
         '"', '""', 'a"b', '"1,2"', "\ufeff", "\x00", "1_0", " 3", "2024-01-01", "x,g,y,p,t,s\n", "x,x,"]
    ),
    st.text(max_size=4),
)


class TestLoadCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(CSV_PIECES, max_size=40),
        header=st.sampled_from(["", "x,g,y,p,t,s\n", "\ufeffx,g,y,p,t,s\n", "\n", "x,g,y,p,t,s,x\n"]),
        raw=st.binary(max_size=3),
    )
    def test_only_library_errors_escape(self, pieces, header, raw):
        # raw bytes at the end: usually not UTF-8
        text = (header + "".join(pieces)).encode() + raw
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(text)
            try:
                loaded = load_csv(path, FUZZ_SCHEMA)
            except ModelWatchError:
                return
        assert isinstance(loaded, ScoredDataset)
        assert np.isfinite(loaded.y_true).all() and np.isfinite(loaded.y_pred).all()


def loop_from_labels(values):
    """CategoricalColumn.from_labels as written before one coder served it
    and load_csv: labels, codes and missing mask from a per-value loop."""
    labels: list[str] = []
    index: dict[str, int] = {}
    codes = np.full(len(values), -1, dtype=np.int64)
    mask = np.zeros(len(values), dtype=bool)
    for i, v in enumerate(values):
        if v is None:
            mask[i] = True
            continue
        if v not in index:
            index[v] = len(labels)
            labels.append(v)
        codes[i] = index[v]
    return tuple(labels), codes, mask


class TestFromLabelsMatchesLoop:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.none() | st.sampled_from(["a", "b", "", "NA", "a b"]) | st.text(max_size=2), max_size=40))
    def test_same_labels_codes_and_mask(self, values):
        labels, codes, mask = loop_from_labels(values)
        col = CategoricalColumn.from_labels("g", values)
        assert col.labels == labels
        assert col.codes.dtype == np.int64 and col.codes.tolist() == codes.tolist()
        assert col.missing_mask.tolist() == mask.tolist()


def per_cell_numeric(raw: list[str], column: str, allow_missing: bool):
    """The per-cell numeric parse load_csv used before its vectorised pass:
    values (NaN where missing) and the missing mask, or the first bad cell."""
    values = np.full(len(raw), np.nan)
    mask = np.zeros(len(raw), dtype=bool)
    for i, token in enumerate(raw):
        if token in DEFAULT_MISSING_TOKENS:
            if not allow_missing:
                raise TypeParseError(i, column, token)
            mask[i] = True
            continue
        try:
            value = float(token) if token.isascii() and "_" not in token else math.nan
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise TypeParseError(i, column, token)
        values[i] = value
    return values, mask


NUMERIC_TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(
        ["", "NA", "NaN", "null", "nan", "inf", "-Infinity", "1e400", "abc", " 2.5", "1_000", "0x10", "+.5e-3",
         "\u0661\u0662", "\u00a02", "\t7 "]
    ),
)


class TestNumericParse:
    @settings(max_examples=200, deadline=None)
    @given(tokens=st.lists(NUMERIC_TOKENS, min_size=1, max_size=30), scored=st.booleans())
    def test_matches_the_per_cell_loop(self, tokens, scored):
        # as a feature a missing cell is allowed; as a target it is an error
        rows = [{"x0": "0", "y": t, "pred": "0"} if scored else {"x0": t} for t in tokens]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "parse.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
            schema = simple_schema(1) if scored else Schema([ColumnSpec("x0", "numeric")])
            try:
                expected = per_cell_numeric(tokens, "y" if scored else "x0", allow_missing=not scored)
            except TypeParseError as exc:
                with pytest.raises(TypeParseError) as got:
                    load_csv(path, schema)
                assert (got.value.row, got.value.column, got.value.token) == (exc.row, exc.column, exc.token)
                return
            loaded = load_csv(path, schema)
        if scored:
            np.testing.assert_array_equal(loaded.y_true, expected[0])
        else:
            column = loaded.column("x0")
            np.testing.assert_array_equal(column.values, expected[0])
            np.testing.assert_array_equal(column.missing_mask, expected[1])
