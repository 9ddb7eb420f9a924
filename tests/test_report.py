import json
import subprocess
import sys

import numpy as np
import pytest

from modelwatch import external
from modelwatch import report as report_module
from modelwatch.config import build_config, parse_config
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

    def test_robustness_stacks_the_current_frame_first_in_both_calls(self, tmp_path, monkeypatch):
        # each test scores its own unaltered frame in its one call: 2 scorer
        # calls, none of them a baseline shared between the tests
        def score(frame):
            return 2.0 * frame.column("x0").values - frame.column("x1").values ** 2

        calls = []

        class ScoringModel:
            def __init__(self, command, timeout):
                pass

            def predict(self, frame):
                calls.append([frame])
                return score(frame)

        class StackingModel(ScoringModel):
            def predict_many(self, frames):
                calls.append(list(frames))
                return [score(f) for f in frames]

        overrides = {
            "model": {"command": "stacking-model"},
            "robustness": {"n_repeats": 3, "irrelevant_features": ["x1"]},
        }
        cfg = parse_config(write_pipeline_fixture(tmp_path, shift=0.0, config_overrides=overrides))
        current = report_module.RunInputs(cfg).scored("current")
        monkeypatch.setattr(report_module, "ExternalModel", StackingModel)
        stacked = json.dumps(report_module.robustness_section(cfg, current), sort_keys=True)
        assert [len(frames) for frames in calls] == [1 + 2 * 3, 2]
        assert all(frames[0] is current.frame for frames in calls)
        monkeypatch.setattr(report_module, "ExternalModel", ScoringModel)
        assert json.dumps(report_module.robustness_section(cfg, current), sort_keys=True) == stacked
        robustness = json.loads(stacked)
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


SCORING_MODEL = """\
import csv, sys
reader = csv.reader(sys.stdin)
next(reader)
for x0, x1, c in reader:
    print(2.0 * float(x0 or 0.0) + len(c))
"""


class TestRobustnessStdin:
    """A robustness stage makes two scorer calls, each formatting a column
    its frames share with their first frame once, yet every call must get on
    stdin what fresh renders of its frames give: the first frame's with its
    header, each later frame's without."""

    @pytest.mark.parametrize("mode", ["permute", "constant"])
    def test_each_payload_is_a_fresh_render(self, tmp_path, monkeypatch, mode):
        script = tmp_path / "model.py"
        script.write_text(SCORING_MODEL)
        columns = [{"name": n, "kind": "numeric", "role": "feature"} for n in ("x0", "x1")]
        columns += [
            {"name": "c", "kind": "categorical", "role": "feature"},
            {"name": "y", "kind": "numeric", "role": "target"},
            {"name": "pred", "kind": "numeric", "role": "prediction"},
        ]
        cfg = build_config({
            "schema": {"columns": columns},
            "data": {"reference": "reference.csv", "current": "current.csv"},
            "model": {"command": f"{sys.executable} {script}"},
            # x1 and c are replaced by new column objects of the same names
            "robustness": {"n_repeats": 2, "irrelevant_features": ["x1", "c"], "invariance_mode": mode},
        })
        r = np.random.default_rng(7)
        x0 = r.normal(size=40)
        x0[::5] = np.nan  # missing cells render empty
        labels = ['say "hi"', "a,b", "plain", None]  # quoted, comma-holding and missing labels
        frame = make_frame(x0=x0, x1=r.normal(size=40), c=[labels[i % 4] for i in range(40)])
        current = make_scored(frame, np.zeros(40), np.zeros(40))

        calls, payloads, formatted = [], [], []
        score, run, cells = external.score_external, subprocess.run, external.feature_cells

        def read_stdin(*a, **kw):
            payloads.append(kw["stdin"].read())
            kw["stdin"].seek(0)
            return run(*a, **kw)

        monkeypatch.setattr(external, "score_external", lambda m, *fs: calls.append(fs) or score(m, *fs))
        monkeypatch.setattr(subprocess, "run", read_stdin)
        monkeypatch.setattr(external, "feature_cells", lambda col: formatted.append(col.name) or cells(col))
        section = report_module.robustness_section(cfg, current)
        monkeypatch.undo()

        assert section["status"] == "ok"
        # the current frame and every perturbation; the current frame and the
        # invariance frame
        assert [len(fs) for fs in calls] == [1 + 2 * 2, 2]
        assert all(fs[0] is frame for fs in calls)
        assert len(payloads) == 2
        header = "x0,x1,c\r\n"
        for fs, payload in zip(calls, payloads):
            fresh = [external.frame_to_csv(f) for f in fs]
            assert all(text.startswith(header) for text in fresh)
            assert payload == fresh[0] + "".join(text[len(header):] for text in fresh[1:])
        # each call's first frame in full, then only the altered columns: the
        # perturbed x0 and x1 twice each, the invariance frame's x1 and c
        assert sorted(formatted) == sorted(["x0", "x1", "c"] * 2 + ["x0", "x0", "x1", "x1"] + ["x1", "c"])


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
