import numpy as np
import pytest

from modelwatch.data import (
    CategoricalColumn,
    ColumnSpec,
    FeatureFrame,
    NumericColumn,
    Schema,
    ScoredDataset,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_frame(**columns) -> FeatureFrame:
    """Build a frame from keyword columns: float arrays (NaN = missing) or
    lists of labels/None for categoricals."""
    cols = []
    for name, values in columns.items():
        if isinstance(values, (list, tuple)) and any(isinstance(v, (str, type(None))) for v in values):
            cols.append(CategoricalColumn.from_labels(name, values))
        else:
            cols.append(NumericColumn.from_values(name, np.asarray(values, dtype=float)))
    return FeatureFrame(cols)


def make_scored(frame: FeatureFrame, y_true, y_pred, **kwargs) -> ScoredDataset:
    return ScoredDataset(frame=frame, y_true=y_true, y_pred=y_pred, **kwargs)


def simple_schema(n_features: int = 2, scored: bool = True) -> Schema:
    cols = [ColumnSpec(f"x{i}", "numeric") for i in range(n_features)]
    if scored:
        cols.append(ColumnSpec("y", "numeric", role="target"))
        cols.append(ColumnSpec("pred", "numeric", role="prediction"))
    return Schema(cols)


# --- full-pipeline fixtures -------------------------------------------------

PIPELINE_SCHEMA_DOC = {
    "columns": [
        {"name": "x0", "kind": "numeric", "role": "feature"},
        {"name": "x1", "kind": "numeric", "role": "feature"},
        {"name": "y", "kind": "numeric", "role": "target"},
        {"name": "pred", "kind": "numeric", "role": "prediction"},
    ]
}


def pipeline_dataset(seed: int, n: int, shift: float = 0.0) -> ScoredDataset:
    """Synthetic scored dataset: y = 2 x0 - x1 + noise, scored by the true
    function, with an optional mean shift on x0."""
    r = np.random.default_rng(seed)
    x0 = r.normal(size=n) + shift
    x1 = r.normal(size=n)
    y = 2 * x0 - x1 + r.normal(size=n)
    pred = 2 * x0 - x1
    return make_scored(make_frame(x0=x0, x1=x1), y, pred)


def write_pipeline_fixture(tmp_path, shift: float = 0.0, config_overrides: dict | None = None):
    """Write reference/current CSVs plus a config JSON; returns the config path.
    The overrides merge into a copy, so ``PIPELINE_SCHEMA_DOC`` never changes."""
    import copy
    import json

    from modelwatch.data import Schema, write_csv

    schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
    reference = pipeline_dataset(seed=1, n=800)
    current = pipeline_dataset(seed=2, n=400, shift=shift)
    write_csv(reference, tmp_path / "reference.csv", schema)
    write_csv(current, tmp_path / "current.csv", schema)
    config = {
        "schema": copy.deepcopy(PIPELINE_SCHEMA_DOC),
        "data": {"reference": "reference.csv", "current": "current.csv"},
        "seed": 0,
        "drift": {
            "numeric_metrics": ["psi"],
            "categorical_metrics": [],
            "multivariate_metrics": [],
        },
    }
    if config_overrides:
        _deep_update(config, config_overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return config_path


def _deep_update(base: dict, overrides: dict) -> None:
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], value)
        else:
            base[key] = value
