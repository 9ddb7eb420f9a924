"""Monitoring run configuration: JSON parsing, defaults, validation.

A config is a single JSON document carrying the schema, dataset paths,
metric selection, thresholds, and the optional extras (calibration split,
segmentation features, external model command). Each section is a frozen
dataclass whose fields are its JSON keys, so each default and type is
declared once; the effective config (defaults applied) echoed into the
report for audit is read back from the same objects. Wrong types, values
out of range and unknown keys raise ConfigError with the JSON pointer.
Dataset paths are resolved relative to the config file's directory.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cached_property
from numbers import Integral, Real
from pathlib import Path
from typing import get_type_hints

from .concept import ClassifyDriftConfig
from .data import DEFAULT_MISSING_TOKENS, Schema, json_value
from .errors import ConfigError, SchemaError
from .outcome import DEFAULT_MIN_ROWS
from .shift import CATEGORICAL_METRICS, METRICS, MULTIVARIATE_METRICS, NUMERIC_METRICS, DriftScanConfig


@dataclass(frozen=True)
class DataConfig:
    reference: str
    current: str
    train: str | None = None
    calibration: str | None = None
    base_dir: Path = Path(".")  # the config file's directory

    def path(self, key: str) -> Path | None:
        value = getattr(self, key)
        return None if value is None else self.base_dir / value


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float = 0.1


@dataclass(frozen=True)
class SegmentationConfig:
    features: tuple[str, ...] = ()
    bins: int = 5
    min_rows: int = DEFAULT_MIN_ROWS


@dataclass(frozen=True)
class RobustnessConfig:
    irrelevant_features: tuple[str, ...] = ()
    invariance_mode: str = "permute"
    tolerance: float = 1e-9
    noise_fraction: float = 0.05
    n_repeats: int = 3


@dataclass(frozen=True)
class QualityConfig:
    z_threshold: float = 3.0
    iqr_multiplier: float = 1.5


@dataclass(frozen=True)
class ModelConfig:
    command: str | None = None
    timeout: float = 60.0


@dataclass(frozen=True, kw_only=True)
class MonitorConfig:
    # built in field order, so each value wired into a section comes first
    schema: Schema
    data: DataConfig
    seed: int = 0
    missing_tokens: frozenset[str] = DEFAULT_MISSING_TOKENS
    thresholds: dict[str, tuple[float, float]]
    drift: DriftScanConfig
    concept_drift: ClassifyDriftConfig
    conformal: ConformalConfig
    segmentation: SegmentationConfig
    robustness: RobustnessConfig
    quality: QualityConfig
    model: ModelConfig

    @cached_property
    def effective(self) -> dict:
        """Full config with defaults applied, for the report echo and digest."""
        return _echo(self, "")


# Fields set from another value, neither read nor echoed under their own
# key: JSON pointer -> pointer of the source ("base_dir": the config's directory).
WIRED = {
    "/data/base_dir": "base_dir",
    "/drift/seed": "/seed",
    "/drift/thresholds": "/thresholds",
    "/concept_drift/scan": "/drift",
}


def _one_of(valid: tuple) -> tuple:
    """A rule that passes a value, or each element of a list, in ``valid``."""
    return lambda v: set(v if isinstance(v, tuple) else (v,)) <= set(valid), f"one of {list(valid)}"


# JSON pointer -> (test, requirement) for a coerced value
RULES = {
    "/drift/bins": (lambda v: v >= 2, "at least 2"),
    "/drift/epsilon": (lambda v: v > 0, "positive"),
    "/drift/numeric_metrics": _one_of(NUMERIC_METRICS),
    "/drift/categorical_metrics": _one_of(CATEGORICAL_METRICS),
    "/drift/multivariate_metrics": _one_of(MULTIVARIATE_METRICS),
    "/drift/n_permutations": (lambda v: v >= 99, "at least 99"),
    "/drift/variance_fraction": (lambda v: 0 < v <= 1, "in (0, 1]"),
    "/concept_drift/k": (lambda v: v >= 1, "at least 1"),
    "/concept_drift/match_metric": _one_of(("euclidean_standardized", "mahalanobis")),
    "/concept_drift/residual_test": _one_of(("ks", "cvm")),
    "/conformal/alpha": (lambda v: 0 < v < 1, "in (0, 1)"),
    "/segmentation/bins": (lambda v: v >= 2, "at least 2"),
    "/robustness/invariance_mode": _one_of(("permute", "constant")),
    "/robustness/n_repeats": (lambda v: v >= 1, "at least 1"),
    "/model/timeout": (lambda v: v > 0, "positive"),
}


def _strings(value) -> list[str]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return value
    raise TypeError


def _finite(value: Real) -> float:
    """``value`` as a float; NaN or an infinity, where no threshold or rule could fire, raises."""
    if not math.isfinite(value):
        raise ValueError
    return float(value)


def _only(kind, convert=lambda v: v):
    """A coercion that takes only instances of ``kind``, never a bool."""
    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError
        return convert(value)
    return coerce


# field type -> (coercion, the JSON value it takes); a value of another JSON
# type is an error, never converted
COERCIONS = {
    int: (_only(Integral, int), "an integer"),
    float: (_only(Real, _finite), "a finite number"),
    str: (_only(str), "a string"),
    str | None: (lambda v: None if v is None else _only(str)(v), "a string or null"),
    tuple[str, ...]: (lambda v: tuple(_strings(v)), "a list of strings"),
    frozenset[str]: (lambda v: frozenset(_strings(v)), "a list of strings"),
}


def _parse_schema(doc: dict) -> Schema:
    if "schema" not in doc:
        raise ConfigError("missing required key 'schema'", "/schema")
    try:
        return Schema.from_json_dict(doc["schema"])
    except (SchemaError, KeyError, TypeError) as exc:
        raise ConfigError(f"invalid schema: {exc}", "/schema") from None


def _parse_thresholds(doc: dict) -> dict[str, tuple[float, float]]:
    merged = {key: metric.defaults for key, metric in METRICS.items()}
    user = doc.get("thresholds", {})
    if not isinstance(user, dict):
        raise ConfigError("expected an object of metric: {warn, fail}", "/thresholds")
    for key, pair in user.items():
        pointer = f"/thresholds/{key}"
        if key not in METRICS:
            raise ConfigError(f"unknown threshold {key!r}; valid: {sorted(METRICS)}", pointer)
        try:
            warn, fail = (COERCIONS[float][0](pair[bound]) for bound in ("warn", "fail"))
        except (KeyError, TypeError, ValueError, OverflowError):
            raise ConfigError("needs finite numeric 'warn' and 'fail'", pointer) from None
        high = METRICS[key].direction == "high"
        if high and warn > fail:
            raise ConfigError(f"warn {warn:g} must not exceed fail {fail:g}", pointer)
        if not high and warn < fail:
            raise ConfigError(
                f"warn {warn:g} must not be below fail {fail:g} for p-value metrics", pointer
            )
        merged[key] = (warn, fail)
    return merged


# JSON pointer -> (parse from the enclosing document, echo) for the two
# fields that are not plain values
SPECIAL = {
    "/schema": (_parse_schema, Schema.to_json_dict),
    "/thresholds": (
        _parse_thresholds,
        lambda pairs: {key: {"warn": w, "fail": f} for key, (w, f) in sorted(pairs.items())},
    ),
}


def _coerce(raw, kind, pointer: str):
    convert, description = COERCIONS[kind]
    try:
        value = convert(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"expected {description}, got {raw!r}", pointer) from None
    test, requirement = RULES.get(pointer, (None, None))
    if test is not None and not test(value):
        raise ConfigError(f"must be {requirement}, got {raw!r}", pointer)
    return value


def _own_fields(cls, pointer: str) -> list[str]:
    return [f.name for f in fields(cls) if f"{pointer}/{f.name}" not in WIRED]


def _build(cls, doc, pointer: str, built: dict):
    """An instance of ``cls`` read from ``doc`` at ``pointer``; omitted
    fields take their defaults. Each value is recorded in ``built`` under
    its pointer, for the fields wired from it."""
    if not isinstance(doc, dict):
        raise ConfigError("expected a JSON object", pointer)
    own = _own_fields(cls, pointer)
    for key in doc:
        if key not in own:
            raise ConfigError(f"unknown key {key!r}; valid: {own}", f"{pointer}/{key}")
    hints = get_type_hints(cls)
    values = {}
    for f in fields(cls):
        at = f"{pointer}/{f.name}"
        if at in WIRED:
            value = built[WIRED[at]]
        elif at in SPECIAL:
            value = SPECIAL[at][0](doc)
        elif is_dataclass(hints[f.name]):
            value = _build(hints[f.name], doc.get(f.name, {}), at, built)
        elif f.name in doc:
            value = _coerce(doc[f.name], hints[f.name], at)
        elif f.default is MISSING:
            raise ConfigError(f"missing required key {f.name!r}", at)
        else:
            value = f.default
        values[f.name] = built[at] = value
    return cls(**values)


def _echo(value, pointer: str):
    """The JSON form of a config value, as ``build_config`` reads it."""
    if pointer in SPECIAL:
        return SPECIAL[pointer][1](value)
    if is_dataclass(value):
        own = _own_fields(value, pointer)
        return {name: _echo(getattr(value, name), f"{pointer}/{name}") for name in own}
    return json_value(value)


def build_config(doc: dict, base_dir: Path | str = ".") -> MonitorConfig:
    """Validate a config document and fill defaults."""
    built: dict = {"base_dir": Path(base_dir)}
    cfg = _build(MonitorConfig, doc, "", built)
    for pointer in ("/segmentation/features", "/robustness/irrelevant_features"):
        for name in built[pointer]:
            if name not in cfg.schema:
                raise ConfigError(f"feature {name!r} not in schema", pointer)
    return cfg


def parse_config(path) -> MonitorConfig:
    """Load and validate a JSON config file; defaults filled."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a byte-order mark is dropped, as in load_csv
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    return build_config(doc, base_dir=path.parent)
