"""Monitoring report assembly: the full pipeline behind the CLI.

A run executes data-quality profiling on the current dataset, the
reference-to-current drift scan, concept-drift classification, performance
tracking, and the optional conformal/weakness/robustness sections, then
collects every warn/fail verdict into the alert list. Reports serialize
deterministically: stable key order, no wall-clock content when
SOURCE_DATE_EPOCH is set, and a run id derived from the config digest and
dataset fingerprints.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from collections import Counter
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from . import conformal as cp
from . import outcome, quality
from .concept import classify_drift
from .config import MonitorConfig
from .data import SCORED_ROLES, FeatureFrame, NumericColumn, ScoredDataset, load_csv
from .errors import ConfigError, RangeError
from .external import ExternalModel
from .shift import METRICS, DriftResult, apply_thresholds, drift_scan


@dataclass(frozen=True)
class MonitoringReport:
    run_id: str
    created_at: str
    status: str  # complete | incomplete
    config_digest: str
    config: dict
    datasets: dict
    sections: dict
    alerts: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _json_safe(value):
    """Recursively convert to JSON-serializable types; non-finite floats
    become strings so documents stay strictly standard JSON."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            return "inf" if v > 0 else ("-inf" if v < 0 else "nan")
        return v
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _column_hash(parts: list[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()[:16]  # 64-bit fingerprint


def fingerprint_dataset(obj: FeatureFrame | ScoredDataset) -> dict:
    """Row count plus a 64-bit per-column content hash, so reports are
    auditable without embedding the data itself."""
    frame = obj.frame if isinstance(obj, ScoredDataset) else obj
    columns: dict[str, str] = {}
    for col in frame.columns:
        if isinstance(col, NumericColumn):
            columns[col.name] = _column_hash(
                [b"num", np.nan_to_num(col.values).tobytes(), col.missing_mask.tobytes()]
            )
        else:
            columns[col.name] = _column_hash(
                [b"cat", col.codes.tobytes(), "\x1f".join(col.labels).encode(), col.missing_mask.tobytes()]
            )
    if isinstance(obj, ScoredDataset):
        for field, dtype in SCORED_ROLES.values():
            values = getattr(obj, field)
            if dtype is np.float64 and values is not None:
                columns[field] = _column_hash([values.tobytes()])
        if obj.timestamps is not None:
            ts = obj.timestamps
            raw = ts.tobytes() if ts.dtype != object else "\x1f".join(map(str, ts)).encode()
            columns["timestamp"] = _column_hash([raw])
    return {"rows": frame.n_rows, "columns": columns}


def config_digest(effective: dict) -> str:
    canonical = json.dumps(_json_safe(effective), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _created_at() -> str:
    # SOURCE_DATE_EPOCH (reproducible-build convention) pins the timestamp
    # so identical runs emit byte-identical reports.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _verdict(cfg: MonitorConfig, key: str, value: float) -> str:
    warn, fail = cfg.thresholds[key]
    return apply_thresholds(value, warn, fail, METRICS[key].direction)


def _node(result, drop: str = "", **renamed: str) -> dict:
    """A result dataclass as a report node: its fields but ``drop``, renamed ``new="old"``."""
    new_name = {old: new for new, old in renamed.items()}
    return {new_name.get(k, k): v for k, v in asdict(result).items() if k != drop}


class RunInputs:
    """What a run's stages read, each loaded or computed once: reference and
    current up front, so a data error stops the run before any stage; train,
    calibration and the drift scan on first use. The drift and concept-drift
    stages read the one scan of the un-imputed data, whichever command runs."""

    def __init__(self, cfg: MonitorConfig):
        self.cfg = cfg
        self.reference = self._load("reference")
        self.current = self._load("current")

    def _load(self, key: str) -> FeatureFrame | ScoredDataset | None:
        path = self.cfg.data.path(key)
        return None if path is None else load_csv(path, self.cfg.schema, self.cfg.missing_tokens)

    @cached_property
    def train(self) -> ScoredDataset | None:
        return self._load("train")

    @cached_property
    def calibration(self) -> ScoredDataset | None:
        return self._load("calibration")

    @cached_property
    def scan(self) -> list[DriftResult]:
        return drift_scan(self.scored("reference"), self.scored("current"), self.cfg.drift)

    def scored(self, which: str) -> ScoredDataset:
        dataset = getattr(self, which)
        if not isinstance(dataset, ScoredDataset):
            raise ConfigError(f"{which} dataset must carry target and prediction columns")
        return dataset


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def quality_section(cfg: MonitorConfig, current: FeatureFrame | ScoredDataset) -> dict:
    frame = current.frame if isinstance(current, ScoredDataset) else current
    profile = quality.profile_missingness(frame)
    missing = {}
    for name, item in profile.per_column.items():
        missing[name] = {
            **asdict(item),
            "column": name,
            "verdict": _verdict(cfg, "missing_fraction", item.missing_fraction),
        }

    violations = quality.validate_rules(frame, cfg.schema)
    rules = {
        "count": len(violations),
        "per_column": dict(Counter(v.column for v in violations)),
        "subject": "rules",
        "verdict": "fail" if violations else "pass",
        "examples": [asdict(v) for v in violations[:10]],
    }

    outliers = {}
    for name in frame.numeric_names():
        col = frame.column(name)
        observed = col.observed()
        if observed.size < 4:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            z = quality.outliers_zscore(col, cfg.quality.z_threshold)
            iqr = quality.outliers_iqr(col, cfg.quality.iqr_multiplier)
        flagged = {"zscore_flagged": int(z.flags.sum()), "iqr_flagged": int(iqr.flags.sum())}
        worst = max(flagged.values()) / observed.size
        outliers[name] = {
            "column": name,
            **flagged,
            "flag_fraction": worst,
            "verdict": _verdict(cfg, "outlier_fraction", worst),
        }

    return {
        "status": "ok",
        "row_complete_fraction": profile.row_complete_fraction,
        "missingness": missing,
        "rule_violations": rules,
        "outliers": outliers,
    }


def drift_section(scan: list[DriftResult]) -> dict:
    return {"status": "ok", "results": [r.to_json_dict() for r in scan]}


def _impute_numeric_medians(ds: ScoredDataset) -> tuple[ScoredDataset, list[str]]:
    frame = ds.frame
    touched = [
        name for name in frame.numeric_names()
        if frame.column(name).missing_mask.any() and frame.column(name).observed().size
    ]
    return replace(ds, frame=quality.impute(frame, dict.fromkeys(touched, "median"))), touched


def concept_section(
    cfg: MonitorConfig, reference: ScoredDataset, current: ScoredDataset, scan: list[DriftResult]
) -> dict:
    reference, imputed_ref = _impute_numeric_medians(reference)
    current, imputed_cur = _impute_numeric_medians(current)
    diag = classify_drift(reference, current, cfg.concept_drift, input_scan=scan)
    residual_test = _node(diag.residual_test, test="test_name")
    severity = {
        "no_drift": "pass",
        "input_drift": "warn",
        "concept_drift": "fail",
        "both": "fail",
    }[diag.verdict]
    failing_features = sorted(
        {r.feature for r in diag.input_drift_evidence if r.verdict == "fail" and r.feature}
    )
    return {
        "status": "ok",
        "subject": "concept_drift",
        "verdict": severity,
        "diagnosis": {
            "drift_type": diag.verdict,
            "residual_test": {**residual_test, "p_threshold": cfg.concept_drift.p_threshold},
            "mean_match_distance": diag.mean_match_distance,
            "input_drift_features": failing_features,
            "imputed_features": sorted(set(imputed_ref + imputed_cur)),
            "notes": diag.notes,
        },
    }


def _ratio(cur: float, ref: float) -> float:
    if ref == 0:
        return 1.0 if cur == 0 else float("inf")
    return cur / ref


def performance_section(cfg: MonitorConfig, reference: ScoredDataset, current: ScoredDataset) -> dict:
    binary = outcome.default_error_metric(reference.y_true) == "error_rate" and (
        outcome.default_error_metric(current.y_true) == "error_rate"
    )
    metrics = ("error_rate", "auc") if binary else ("mae", "rmse")
    tracked = metrics[0]

    def values(ds: ScoredDataset) -> dict:
        out = {m: outcome.metric_value(m, ds.y_true, ds.y_pred, 0.5) for m in metrics}
        if binary:
            out["accuracy"] = None if out["error_rate"] is None else 1.0 - out["error_rate"]
        return out

    ref_vals = values(reference)
    cur_vals = values(current)
    ratio = _ratio(cur_vals[tracked], ref_vals[tracked])
    return {
        "status": "ok",
        "prediction_type": "binary" if binary else "regression",
        "tracked_metric": tracked,
        "reference": ref_vals,
        "current": cur_vals,
        "subject": tracked,
        "ratio_current_over_reference": ratio,
        "verdict": _verdict(cfg, "perf_ratio", ratio),
    }


def uncertainty_section(
    cfg: MonitorConfig, current: ScoredDataset, calibration: ScoredDataset | None
) -> dict:
    if calibration is None:
        return {"status": "not_configured"}
    cal = cp.conformal_fit(calibration, cfg.conformal.alpha)
    lo, hi = cp.conformal_interval(cal, current.y_pred)
    coverage = cp.empirical_coverage(np.column_stack([lo, hi]), current.y_true)
    target = 1.0 - cfg.conformal.alpha
    shortfall = max(0.0, target - coverage)
    section = {
        "status": "ok",
        **asdict(cal),
        "achieved_coverage": coverage,
        "target_coverage": target,
        "subject": "coverage",
        "coverage_shortfall": shortfall,
        "verdict": _verdict(cfg, "coverage_shortfall", shortfall),
    }
    with suppress(RangeError):  # no Brier score unless 0/1 outcomes and [0, 1] predictions
        section["brier_score"] = cp.brier_score(current.y_pred, current.y_true)
    return section


def weakness_section(
    cfg: MonitorConfig, current: ScoredDataset, train: ScoredDataset | None
) -> dict:
    seg = cfg.segmentation
    if not seg.features:
        return {"status": "not_configured"}
    regions = outcome.weak_region_scan(current, seg.features, bins=seg.bins, min_rows=seg.min_rows)
    section: dict = {
        "status": "ok",
        "metric": regions[0].metric if regions else outcome.default_error_metric(current.y_true),
        "regions": [_node(r, "metric", range="range_label") for r in regions[:20]],
    }
    if train is not None:
        gaps = {}
        for feature in seg.features:
            gaps[feature] = _node(outcome.fit_gap(train, current, feature, seg.bins), segments="rows")
        section["fit_gap"] = gaps
    return section


def robustness_section(cfg: MonitorConfig, current: ScoredDataset) -> dict:
    if cfg.model.command is None:
        return {"status": "not_configured"}
    model = ExternalModel(cfg.model.command, cfg.model.timeout)
    rob, frame = cfg.robustness, current.frame
    sensitivity = outcome.perturbation_test(model, frame, rob.noise_fraction, rob.n_repeats, seed=cfg.seed)
    section: dict = {
        "status": "ok",
        "noise_fraction": rob.noise_fraction,
        "n_repeats": rob.n_repeats,
        "sensitivity": [_node(row, "noise_scale") for row in sensitivity.rows],
    }
    if rob.irrelevant_features:
        inv = outcome.invariance_test(
            model, frame, rob.irrelevant_features, mode=rob.invariance_mode, seed=cfg.seed,
            tolerance=rob.tolerance,
        )
        section["invariance"] = {
            **asdict(inv),
            "subject": "invariance",
            "violating_rows": inv.violating_rows[:50],
            "n_violations": len(inv.violating_rows),
            "verdict": "fail" if inv.violating_rows else "pass",
        }
    return section


# ---------------------------------------------------------------------------
# Alerts and assembly
# ---------------------------------------------------------------------------


def collect_alerts(sections: dict) -> list[dict]:
    """Every warn/fail verdict in the section tree becomes exactly one alert."""
    alerts: list[dict] = []

    def walk(node, section: str, path: str):
        if isinstance(node, dict):
            verdict = node.get("verdict")
            if verdict in ("warn", "fail"):
                subject = node.get("feature") or node.get("column") or node.get("subject") or path
                metric = node.get("metric")
                detail = f" [{metric}]" if metric and metric != subject else ""
                alerts.append(
                    {
                        "section": section,
                        "subject": str(subject) + detail,
                        "severity": verdict,
                        "message": f"{section}: {subject}{detail} -> {verdict}",
                    }
                )
            for key, child in node.items():
                walk(child, section, f"{path}/{key}" if path else str(key))
        elif isinstance(node, list):
            for i, child in enumerate(node):
                walk(child, section, f"{path}/{i}")

    for name in sections:
        walk(sections[name], name, "")
    return alerts


# Section name -> stage taking (cfg, RunInputs), in report order. The
# stages call the section functions through their module-level names, so
# wrappers installed on those names see the calls.
SECTIONS = {
    "data_quality": lambda cfg, data: quality_section(cfg, data.current),
    "drift": lambda cfg, data: drift_section(data.scan),
    "concept_drift": lambda cfg, data: concept_section(
        cfg, data.scored("reference"), data.scored("current"), data.scan
    ),
    "performance": lambda cfg, data: performance_section(
        cfg, data.scored("reference"), data.scored("current")
    ),
    "uncertainty": lambda cfg, data: uncertainty_section(cfg, data.scored("current"), data.calibration),
    "weakness": lambda cfg, data: weakness_section(
        cfg, data.scored("current"), data.train if cfg.segmentation.features else None
    ),
    "robustness": lambda cfg, data: robustness_section(cfg, data.scored("current")),
}


def run_stage(name: str, cfg: MonitorConfig, data: RunInputs) -> dict:
    """Run one section stage; a failure other than a ``ConfigError`` becomes
    a ``status: error`` section instead of aborting the command."""
    try:
        return _json_safe(SECTIONS[name](cfg, data))
    except ConfigError:
        raise
    except Exception as exc:
        return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}


def run_monitor(cfg: MonitorConfig) -> MonitoringReport:
    """Execute the full monitoring pipeline under a parsed config."""
    data = RunInputs(cfg)
    datasets = {key: fingerprint_dataset(data.scored(key)) for key in ("reference", "current")}
    sections = {name: run_stage(name, cfg, data) for name in SECTIONS}
    status = "complete"
    if any(section["status"] == "error" for section in sections.values()):
        status = "incomplete"
    # fingerprinted after the stages, so an optional dataset is not held in
    # memory through the stages before the one that reads it; one that cannot
    # be loaded, like a failing stage, yields a structured error and an
    # incomplete report instead of aborting the run
    for key in ("train", "calibration"):
        try:
            if getattr(data, key) is not None:
                datasets[key] = fingerprint_dataset(getattr(data, key))
        except Exception as exc:
            status = "incomplete"
            datasets[key] = {"error": f"{type(exc).__name__}: {exc}"}

    alerts = collect_alerts(sections)
    digest = config_digest(cfg.effective)
    run_id = hashlib.sha256(
        (digest + json.dumps(datasets, sort_keys=True)).encode()
    ).hexdigest()[:16]
    return MonitoringReport(
        run_id=run_id,
        created_at=_created_at(),
        status=status,
        config_digest=digest,
        config=_json_safe(cfg.effective),
        datasets=datasets,
        sections=sections,
        alerts=alerts,
    )


def render_report(report: MonitoringReport, format: str = "json") -> str:
    """Render a report as canonical JSON or a human-readable text summary."""
    doc = _json_safe(report.to_json_dict())
    if format == "json":
        return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if format != "text":
        raise ValueError(f"unknown format {format!r}")

    lines = [
        f"modelwatch report {report.run_id} ({report.status})",
        f"created: {report.created_at}",
        "",
    ]
    if report.alerts:
        lines.append(f"ALERTS: {len(report.alerts)}")
        for alert in report.alerts:
            lines.append(f"  [{alert['severity'].upper()}] {alert['section']}: {alert['subject']}")
    else:
        lines.append("ALERTS: none")
    lines.append("")
    # in run order, also for a saved report, whose JSON holds them sorted by name
    rank = {name: i for i, name in enumerate(SECTIONS)}
    in_run_order = sorted(report.sections.items(), key=lambda item: rank.get(item[0], len(rank)))
    for name, section in in_run_order:
        status = section.get("status", "ok")
        lines.append(f"{name}: {status}")
        if name == "drift" and status == "ok":
            verdicts = [r["verdict"] for r in section["results"]]
            warns, fails = verdicts.count("warn"), verdicts.count("fail")
            lines.append(f"  {len(verdicts)} results, {warns} warn, {fails} fail")
        if name == "concept_drift" and status == "ok":
            lines.append(f"  drift_type: {section['diagnosis']['drift_type']}")
        if name == "performance" and status == "ok":
            lines.append(
                f"  {section['tracked_metric']}: ratio {section['ratio_current_over_reference']}"
            )
    return "\n".join(lines) + "\n"


def exit_code(complete: bool, alerts: list[dict]) -> int:
    """CI exit contract: 1 incomplete or errored, else 4 any fail, 3 warns only, 0 all pass."""
    severities = {a["severity"] for a in alerts}
    return 1 if not complete else 4 if "fail" in severities else 3 if "warn" in severities else 0


def exit_code_for(report: MonitoringReport) -> int:
    return exit_code(report.status == "complete", report.alerts)
