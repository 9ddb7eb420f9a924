import json
import sys

import numpy as np
import pytest

from modelwatch import outcome
from modelwatch import report as report_module
from modelwatch.config import parse_config
from modelwatch.data import Schema, write_csv
from modelwatch.errors import ConfigError
from modelwatch.report import (
    collect_alerts,
    exit_code_for,
    fingerprint_dataset,
    render_report,
    run_monitor,
)

from conftest import PIPELINE_SCHEMA_DOC, make_frame, make_scored, pipeline_dataset, write_pipeline_fixture


def count_verdicts(node):
    """Independent recount of warn/fail verdicts embedded in the sections."""
    count = 0
    if isinstance(node, dict):
        if node.get("verdict") in ("warn", "fail"):
            count += 1
        for child in node.values():
            count += count_verdicts(child)
    elif isinstance(node, list):
        count += sum(count_verdicts(child) for child in node)
    return count


class TestRunMonitor:
    def test_clean_run_no_alerts(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0))
        report = run_monitor(cfg)
        assert report.status == "complete"
        assert report.alerts == []
        assert exit_code_for(report) == 0
        assert report.sections["concept_drift"]["diagnosis"]["drift_type"] == "no_drift"
        assert report.sections["uncertainty"] == {"status": "not_configured"}
        assert report.sections["weakness"] == {"status": "not_configured"}
        assert report.sections["robustness"] == {"status": "not_configured"}

    def test_warn_shift(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.3))
        report = run_monitor(cfg)
        severities = {a["severity"] for a in report.alerts}
        assert severities == {"warn"}
        assert exit_code_for(report) == 3

    def test_fail_shift_exactly_one_fail_alert(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.75))
        report = run_monitor(cfg)
        fails = [a for a in report.alerts if a["severity"] == "fail"]
        assert len(fails) == 1
        assert "x0" in fails[0]["subject"]
        assert exit_code_for(report) == 4
        # the concept stage sees the shifted inputs but an unchanged function
        assert report.sections["concept_drift"]["diagnosis"]["drift_type"] == "input_drift"

    def test_unscored_schema_is_a_config_error(self, tmp_path):
        features = [c for c in PIPELINE_SCHEMA_DOC["columns"] if c["role"] == "feature"]
        cfg = parse_config(write_pipeline_fixture(tmp_path, config_overrides={"schema": {"columns": features}}))
        with pytest.raises(ConfigError, match="reference dataset must carry target and prediction"):
            run_monitor(cfg)

    def test_alert_count_matches_embedded_verdicts(self, tmp_path):
        for shift in (0.0, 0.3, 0.75):
            sub = tmp_path / f"s{shift}"
            sub.mkdir()
            cfg = parse_config(write_pipeline_fixture(sub, shift=shift))
            report = run_monitor(cfg)
            assert len(report.alerts) == count_verdicts(report.sections)

    def test_deterministic_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.3))
        a = render_report(run_monitor(cfg), "json")
        b = render_report(run_monitor(cfg), "json")
        assert a == b

    def test_conformal_section_when_configured(self, tmp_path):
        from modelwatch.data import Schema, write_csv
        from conftest import PIPELINE_SCHEMA_DOC

        schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
        calibration = pipeline_dataset(seed=9, n=500)
        write_csv(calibration, tmp_path / "calibration.csv", schema)
        cfg = parse_config(
            write_pipeline_fixture(
                tmp_path,
                shift=0.0,
                config_overrides={
                    "data": {"calibration": "calibration.csv"},
                    "conformal": {"alpha": 0.1},
                },
            )
        )
        report = run_monitor(cfg)
        section = report.sections["uncertainty"]
        assert section["status"] == "ok"
        assert section["n_calibration"] == 500
        assert section["q_hat"] > 0
        assert 0.85 <= section["achieved_coverage"] <= 1.0

    @pytest.mark.parametrize(
        "y_true, y_pred, brier",
        [
            ([0.0, 1.0, 1.0, 0.0], [0.2, 0.9, 0.6, 0.0], 0.0525),  # binary, probabilities
            ([0.0, 1.0, 1.0, 0.0], [0.2, 1.5, 0.6, 0.0], None),  # binary, a score above 1
            ([0.5, 2.0, 1.0, 3.0], [0.2, 0.9, 0.6, 0.0], None),  # a regression target
        ],
    )
    def test_brier_score_only_for_binary_probabilities(self, tmp_path, y_true, y_pred, brier):
        cfg = parse_config(write_pipeline_fixture(tmp_path))
        current = make_scored(make_frame(x0=[0.0] * 4, x1=[1.0] * 4), y_true, y_pred)
        section = report_module.uncertainty_section(cfg, current, pipeline_dataset(seed=9, n=50))
        assert section["status"] == "ok"
        assert section.get("brier_score") == (None if brier is None else pytest.approx(brier))

    def test_weakness_section_when_configured(self, tmp_path):
        cfg = parse_config(
            write_pipeline_fixture(
                tmp_path,
                shift=0.0,
                config_overrides={"segmentation": {"features": ["x0"], "bins": 4}},
            )
        )
        report = run_monitor(cfg)
        section = report.sections["weakness"]
        assert section["status"] == "ok"
        assert section["regions"]
        assert all("lift" in region for region in section["regions"])

    def test_robustness_section_with_external_model(self, tmp_path):
        script = tmp_path / "model.py"
        script.write_text(
            "import csv, sys\n"
            "reader = csv.reader(sys.stdin)\n"
            "header = next(reader)\n"
            "i0, i1 = header.index('x0'), header.index('x1')\n"
            "for row in reader:\n"
            "    print(2 * float(row[i0]) - float(row[i1]))\n"
        )
        cfg = parse_config(
            write_pipeline_fixture(
                tmp_path,
                shift=0.0,
                config_overrides={
                    "model": {"command": f"{sys.executable} {script}"},
                    "robustness": {"n_repeats": 2},
                },
            )
        )
        report = run_monitor(cfg)
        section = report.sections["robustness"]
        assert section["status"] == "ok"
        by_feature = {row["feature"]: row for row in section["sensitivity"]}
        assert by_feature["x0"]["mean_abs_delta"] > 0

    def test_robustness_scores_the_current_frame_once(self, tmp_path, monkeypatch):
        # the perturbation and invariance tests share one baseline call: 8
        # scorer calls for 2 features x 3 repeats (each test scoring its own
        # made 9), and the report bytes are those of tests that ignore it
        calls = []

        class CountingModel:
            def __init__(self, command, timeout):
                pass

            def predict(self, frame):
                calls.append(frame.n_rows)
                return 2.0 * frame.column("x0").values - frame.column("x1").values ** 2

        monkeypatch.setattr(report_module, "ExternalModel", CountingModel)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        overrides = {
            "model": {"command": "counting-model"},
            "robustness": {"n_repeats": 3, "irrelevant_features": ["x1"]},
        }
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0, config_overrides=overrides))
        shared = render_report(run_monitor(cfg), "json")
        assert len(calls) == 8

        def own_baseline(test):
            return lambda *args, baseline=None, **kwargs: test(*args, **kwargs)

        for name in ("perturbation_test", "invariance_test"):
            monkeypatch.setattr(outcome, name, own_baseline(getattr(outcome, name)))
        calls.clear()
        assert render_report(run_monitor(cfg), "json") == shared
        assert len(calls) == 1 + 8 + 1  # the section's call is then unused
        robustness = json.loads(shared)["sections"]["robustness"]
        assert robustness["status"] == "ok"
        assert robustness["invariance"]["verdict"] == "fail"

    def test_broken_stage_marks_incomplete(self, tmp_path):
        # calibration path configured but pointing at a missing file:
        # the stage errors, other sections survive, status goes incomplete
        cfg = parse_config(
            write_pipeline_fixture(
                tmp_path,
                shift=0.0,
                config_overrides={"data": {"calibration": "missing.csv"}},
            )
        )
        report = run_monitor(cfg)
        assert report.status == "incomplete"
        assert report.sections["uncertainty"]["status"] == "error"
        assert report.sections["drift"]["status"] == "ok"
        assert exit_code_for(report) == 1


class TestReportShape:
    def test_config_digest_stable(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0))
        a = run_monitor(cfg)
        b = run_monitor(cfg)
        assert a.config_digest == b.config_digest
        assert a.run_id == b.run_id

    def test_fingerprints_detect_changes(self):
        a = fingerprint_dataset(pipeline_dataset(seed=1, n=50))
        b = fingerprint_dataset(pipeline_dataset(seed=2, n=50))
        assert a["rows"] == b["rows"]
        assert a["columns"]["x0"] != b["columns"]["x0"]
        assert a == fingerprint_dataset(pipeline_dataset(seed=1, n=50))

    def test_run_id_covers_the_calibration_data(self, tmp_path):
        # calibration was not fingerprinted: two runs whose calibration files
        # differed shared a run_id although their uncertainty sections did not
        schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
        overrides = {"data": {"calibration": "calibration.csv"}}
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0, config_overrides=overrides))
        reports = []
        for seed in (9, 10):
            write_csv(pipeline_dataset(seed=seed, n=300), tmp_path / "calibration.csv", schema)
            reports.append(run_monitor(cfg))
        a, b = reports
        assert a.sections["uncertainty"]["q_hat"] != b.sections["uncertainty"]["q_hat"]
        assert a.datasets["calibration"] != b.datasets["calibration"]
        assert a.run_id != b.run_id

    def test_render_text_lists_alerts(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.75))
        report = run_monitor(cfg)
        text = render_report(report, "text")
        assert "ALERTS: " in text
        assert "[FAIL]" in text

    def test_render_text_no_alerts(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0))
        text = render_report(run_monitor(cfg), "text")
        assert "ALERTS: none" in text

    def test_json_is_valid_and_sorted(self, tmp_path):
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0))
        doc = json.loads(render_report(run_monitor(cfg), "json"))
        assert list(doc["sections"].keys()) == sorted(doc["sections"].keys())
        assert doc["status"] == "complete"


class TestCollectAlerts:
    def test_nested_verdicts_found(self):
        sections = {
            "drift": {
                "results": [
                    {"feature": "a", "metric": "psi", "verdict": "fail"},
                    {"feature": "b", "metric": "psi", "verdict": "pass"},
                ]
            },
            "quality": {"missingness": {"c": {"column": "c", "verdict": "warn"}}},
        }
        alerts = collect_alerts(sections)
        assert len(alerts) == 2
        assert {a["severity"] for a in alerts} == {"warn", "fail"}
