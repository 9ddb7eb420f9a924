"""Monitoring run configuration: JSON parsing, defaults, validation.

A config is a single JSON document carrying the schema, dataset paths,
metric selection, thresholds, and the optional extras (calibration split,
segmentation features, external model command). Defaults are filled at
parse time and echoed into the report so every run is auditable. Dataset
paths are resolved relative to the config file's directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .data import DEFAULT_MISSING_TOKENS, Schema
from .errors import ConfigError, SchemaError
from .shift import (
    CATEGORICAL_METRICS,
    DEFAULT_BINS,
    DEFAULT_EPSILON,
    METRICS,
    MULTIVARIATE_METRICS,
    NUMERIC_METRICS,
)

VALID_RESIDUAL_TESTS = ("ks", "cvm")
VALID_MATCH_METRICS = ("euclidean_standardized", "mahalanobis")
VALID_INVARIANCE_MODES = ("permute", "constant")


@dataclass(frozen=True)
class MonitorConfig:
    schema: Schema
    reference_path: Path
    current_path: Path
    train_path: Path | None
    calibration_path: Path | None
    seed: int
    missing_tokens: frozenset[str]
    bins: int
    epsilon: float
    numeric_metrics: tuple[str, ...]
    categorical_metrics: tuple[str, ...]
    multivariate_metrics: tuple[str, ...]
    n_permutations: int
    variance_fraction: float
    thresholds: dict[str, tuple[float, float]]
    concept_p_threshold: float
    concept_k: int
    concept_match_metric: str
    concept_residual_test: str
    conformal_alpha: float
    segmentation_features: tuple[str, ...]
    segmentation_bins: int
    min_rows: int
    irrelevant_features: tuple[str, ...]
    invariance_mode: str
    invariance_tolerance: float
    noise_fraction: float
    noise_repeats: int
    z_threshold: float
    iqr_multiplier: float
    model_command: str | None
    model_timeout: float
    effective: dict = field(repr=False, default_factory=dict)

    def threshold_pair(self, key: str) -> tuple[float, float]:
        return self.thresholds[key]


def _require(doc: dict, key: str, pointer: str):
    if key not in doc:
        raise ConfigError(f"missing required key {key!r}", pointer)
    return doc[key]


def _check_type(value, types, pointer: str, description: str):
    if not isinstance(value, types):
        raise ConfigError(f"expected {description}", pointer)
    return value


def _parse_thresholds(doc: dict) -> dict[str, tuple[float, float]]:
    merged = {key: metric.defaults for key, metric in METRICS.items()}
    user = doc.get("thresholds", {})
    _check_type(user, dict, "/thresholds", "an object of metric: {warn, fail}")
    for key, pair in user.items():
        pointer = f"/thresholds/{key}"
        if key not in METRICS:
            raise ConfigError(f"unknown threshold {key!r}; valid: {sorted(METRICS)}", pointer)
        _check_type(pair, dict, pointer, "an object {warn, fail}")
        try:
            warn = float(pair["warn"])
            fail = float(pair["fail"])
        except (KeyError, TypeError, ValueError):
            raise ConfigError("needs numeric 'warn' and 'fail'", pointer) from None
        high = METRICS[key].direction == "high"
        if high and warn > fail:
            raise ConfigError(f"warn {warn:g} must not exceed fail {fail:g}", pointer)
        if not high and warn < fail:
            raise ConfigError(
                f"warn {warn:g} must not be below fail {fail:g} for p-value metrics", pointer
            )
        merged[key] = (warn, fail)
    return merged


def _parse_metric_list(drift: dict, kind: str, valid: tuple[str, ...]) -> tuple[str, ...]:
    pointer = f"/drift/{kind}_metrics"
    names = drift.get(f"{kind}_metrics", list(valid))
    _check_type(names, list, pointer, "a list of metric names")
    for name in names:
        if name not in valid:
            raise ConfigError(f"unknown metric {name!r}; valid: {list(valid)}", f"{pointer}/{name}")
    return tuple(names)


def build_config(doc: dict, base_dir: Path | str = ".") -> MonitorConfig:
    """Validate a config document and fill defaults."""
    base = Path(base_dir)
    _check_type(doc, dict, "", "a JSON object")

    schema_doc = _require(doc, "schema", "/schema")
    try:
        schema = Schema.from_json_dict(schema_doc)
    except (SchemaError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid schema: {exc}", "/schema") from None

    data = _require(doc, "data", "/data")
    _check_type(data, dict, "/data", "an object with dataset paths")
    reference = _require(data, "reference", "/data/reference")
    current = _require(data, "current", "/data/current")

    def path_or_none(key: str) -> Path | None:
        value = data.get(key)
        if value is None:
            return None
        return base / str(value)

    drift = doc.get("drift", {})
    _check_type(drift, dict, "/drift", "an object")
    numeric_metrics = _parse_metric_list(drift, "numeric", NUMERIC_METRICS)
    categorical_metrics = _parse_metric_list(drift, "categorical", CATEGORICAL_METRICS)
    multivariate_metrics = _parse_metric_list(drift, "multivariate", MULTIVARIATE_METRICS)

    thresholds = _parse_thresholds(doc)

    concept = doc.get("concept_drift", {})
    _check_type(concept, dict, "/concept_drift", "an object")
    residual_test = concept.get("residual_test", "ks")
    if residual_test not in VALID_RESIDUAL_TESTS:
        raise ConfigError(
            f"unknown residual test {residual_test!r}; valid: {list(VALID_RESIDUAL_TESTS)}",
            "/concept_drift/residual_test",
        )
    match_metric = concept.get("match_metric", "euclidean_standardized")
    if match_metric not in VALID_MATCH_METRICS:
        raise ConfigError(
            f"unknown match metric {match_metric!r}; valid: {list(VALID_MATCH_METRICS)}",
            "/concept_drift/match_metric",
        )

    segmentation = doc.get("segmentation", {})
    _check_type(segmentation, dict, "/segmentation", "an object")
    seg_features = tuple(segmentation.get("features", ()))
    for name in seg_features:
        if name not in schema:
            raise ConfigError(f"feature {name!r} not in schema", "/segmentation/features")

    robustness = doc.get("robustness", {})
    _check_type(robustness, dict, "/robustness", "an object")
    irrelevant = tuple(robustness.get("irrelevant_features", ()))
    for name in irrelevant:
        if name not in schema:
            raise ConfigError(f"feature {name!r} not in schema", "/robustness/irrelevant_features")
    invariance_mode = robustness.get("invariance_mode", "permute")
    if invariance_mode not in VALID_INVARIANCE_MODES:
        raise ConfigError(
            f"unknown invariance mode {invariance_mode!r}; valid: {list(VALID_INVARIANCE_MODES)}",
            "/robustness/invariance_mode",
        )

    quality = doc.get("quality", {})
    _check_type(quality, dict, "/quality", "an object")

    conformal = doc.get("conformal", {})
    _check_type(conformal, dict, "/conformal", "an object")
    alpha = float(conformal.get("alpha", 0.1))
    if not 0 < alpha < 1:
        raise ConfigError("alpha must be in (0, 1)", "/conformal/alpha")

    model = doc.get("model", {})
    _check_type(model, dict, "/model", "an object")
    command = model.get("command")
    if command is not None:
        command = str(command)

    seed = int(doc.get("seed", 0))
    n_permutations = int(drift.get("n_permutations", 199))
    if n_permutations < 99:
        raise ConfigError("n_permutations must be at least 99", "/drift/n_permutations")

    cfg = MonitorConfig(
        schema=schema,
        reference_path=base / str(reference),
        current_path=base / str(current),
        train_path=path_or_none("train"),
        calibration_path=path_or_none("calibration"),
        seed=seed,
        missing_tokens=frozenset(doc.get("missing_tokens", DEFAULT_MISSING_TOKENS)),
        bins=int(drift.get("bins", DEFAULT_BINS)),
        epsilon=float(drift.get("epsilon", DEFAULT_EPSILON)),
        numeric_metrics=numeric_metrics,
        categorical_metrics=categorical_metrics,
        multivariate_metrics=multivariate_metrics,
        n_permutations=n_permutations,
        variance_fraction=float(drift.get("variance_fraction", 0.95)),
        thresholds=thresholds,
        concept_p_threshold=float(concept.get("p_threshold", 0.01)),
        concept_k=int(concept.get("k", 1)),
        concept_match_metric=match_metric,
        concept_residual_test=residual_test,
        conformal_alpha=alpha,
        segmentation_features=seg_features,
        segmentation_bins=int(segmentation.get("bins", 5)),
        min_rows=int(segmentation.get("min_rows", 30)),
        irrelevant_features=irrelevant,
        invariance_mode=invariance_mode,
        invariance_tolerance=float(robustness.get("tolerance", 1e-9)),
        noise_fraction=float(robustness.get("noise_fraction", 0.05)),
        noise_repeats=int(robustness.get("n_repeats", 3)),
        z_threshold=float(quality.get("z_threshold", 3.0)),
        iqr_multiplier=float(quality.get("iqr_multiplier", 1.5)),
        model_command=command,
        model_timeout=float(model.get("timeout", 60.0)),
    )
    object.__setattr__(cfg, "effective", _effective_dict(cfg, doc))
    return cfg


def _effective_dict(cfg: MonitorConfig, doc: dict) -> dict:
    """Full config with defaults applied, for the report echo and digest."""
    return {
        "schema": cfg.schema.to_json_dict(),
        "data": {
            "reference": str(doc["data"]["reference"]),
            "current": str(doc["data"]["current"]),
            "train": doc["data"].get("train"),
            "calibration": doc["data"].get("calibration"),
        },
        "seed": cfg.seed,
        "missing_tokens": sorted(cfg.missing_tokens),
        "drift": {
            "bins": cfg.bins,
            "epsilon": cfg.epsilon,
            "numeric_metrics": list(cfg.numeric_metrics),
            "categorical_metrics": list(cfg.categorical_metrics),
            "multivariate_metrics": list(cfg.multivariate_metrics),
            "n_permutations": cfg.n_permutations,
            "variance_fraction": cfg.variance_fraction,
        },
        "thresholds": {
            key: {"warn": warn, "fail": fail} for key, (warn, fail) in sorted(cfg.thresholds.items())
        },
        "concept_drift": {
            "p_threshold": cfg.concept_p_threshold,
            "k": cfg.concept_k,
            "match_metric": cfg.concept_match_metric,
            "residual_test": cfg.concept_residual_test,
        },
        "conformal": {"alpha": cfg.conformal_alpha},
        "segmentation": {
            "features": list(cfg.segmentation_features),
            "bins": cfg.segmentation_bins,
            "min_rows": cfg.min_rows,
        },
        "robustness": {
            "irrelevant_features": list(cfg.irrelevant_features),
            "invariance_mode": cfg.invariance_mode,
            "tolerance": cfg.invariance_tolerance,
            "noise_fraction": cfg.noise_fraction,
            "n_repeats": cfg.noise_repeats,
        },
        "quality": {"z_threshold": cfg.z_threshold, "iqr_multiplier": cfg.iqr_multiplier},
        "model": {"command": cfg.model_command, "timeout": cfg.model_timeout},
    }


def parse_config(path) -> MonitorConfig:
    """Load and validate a JSON config file; defaults filled."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return build_config(doc, base_dir=path.parent)
