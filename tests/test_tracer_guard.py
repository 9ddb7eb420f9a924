"""The benchmark tracer must keep seeing the calls it times.

``perfbench/tracer.py`` records spans by rebinding module attributes, so a
call made through a function object stored elsewhere (a dispatch table, a
default argument) silently drops out of its per-layer metrics. The tracer
is read as source and never written or imported as a package.
"""

import importlib
import sys
import types
from pathlib import Path

from modelwatch.config import parse_config
from modelwatch.data import Schema, write_csv
from modelwatch.report import run_monitor

from conftest import PIPELINE_SCHEMA_DOC, pipeline_dataset, write_pipeline_fixture

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER_PATH)
    source = TRACER_PATH.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER_PATH), "exec"), module.__dict__)
    return module


def test_trace_points_resolve():
    tracer = load_tracer()
    for module_name, attr, _, _ in tracer.TRACE_POINTS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_monitor_sections_are_traced(tmp_path):
    tracer = load_tracer()
    schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
    write_csv(pipeline_dataset(seed=9, n=300), tmp_path / "calibration.csv", schema)
    cfg = parse_config(
        write_pipeline_fixture(
            tmp_path,
            shift=0.3,
            config_overrides={
                "data": {"calibration": "calibration.csv"},
                "segmentation": {"features": ["x0"], "bins": 4},
                "drift": {"numeric_metrics": ["ks", "psi"], "multivariate_metrics": ["energy"],
                          "n_permutations": 99},
            },
        )
    )
    spans = tracer.Tracer()
    spans.job = 0
    spans.install()
    try:
        report = run_monitor(cfg)
    finally:
        spans.uninstall()
    assert report.status == "complete"
    names = {s["name"] for s in spans.spans}
    for name in (
        "quality.section",
        "shift.drift_scan",
        "shift.univariate",
        "shift.permutation_pvalue",
        "concept.nn_match",
        "conformal.section",
        "outcome.weakness",
    ):
        assert name in names, name
    assert any(
        s["name"] == "shift.univariate" and tracer._under(spans.spans, s, "shift.drift_scan")
        for s in spans.spans
    )
    # the scan takes its energy/mmd2 statistics from the permutation pass,
    # so that span covers all the pooled work and no statistic span occurs
    assert "shift.statistic" not in names
    assert all(
        tracer._under(spans.spans, s, "shift.drift_scan")
        for s in spans.spans
        if s["name"] == "shift.permutation_pvalue"
    )


LINEAR_MODEL = """\
import csv, sys
reader = csv.DictReader(sys.stdin)
for row in reader:
    print(2.0 * float(row["x0"]) - float(row["x1"]))
"""


def test_each_scorer_call_renders_its_frame_once(tmp_path):
    tracer = load_tracer()
    script = tmp_path / "model.py"
    script.write_text(LINEAR_MODEL)
    cfg = parse_config(
        write_pipeline_fixture(
            tmp_path,
            config_overrides={
                "model": {"command": f"{sys.executable} {script}"},
                "robustness": {"n_repeats": 2, "irrelevant_features": ["x1"]},
            },
        )
    )
    spans = tracer.Tracer()
    spans.job = 0
    spans.install()
    try:
        report = run_monitor(cfg)
    finally:
        spans.uninstall()
    assert report.status == "complete"
    k = sum(spec.role == "feature" and spec.kind == "numeric" for spec in cfg.schema)
    assert k == 2
    scores = [i for i, s in enumerate(spans.spans) if s["name"] == "external.score"]
    # the current frame with n_repeats frames per numeric feature, then with
    # the invariance frame
    assert len(scores) == 2
    for i, n_frames in zip(scores, [1 + 2 * k, 2]):
        children = [s for s in spans.spans if s["parent"] == i]
        assert [s["name"] for s in children] == ["external.frame_to_csv"] * n_frames
