import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modelwatch.report as report_module
from modelwatch.cli import SECTION_COMMANDS, main
from modelwatch.data import Schema, write_csv

from conftest import (
    PIPELINE_SCHEMA_DOC,
    make_frame,
    make_scored,
    pipeline_dataset,
    write_pipeline_fixture,
)


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("SOURCE_DATE_EPOCH", "1700000000")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "modelwatch", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestExitCodes:
    def test_clean_run_exits_zero(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        proc = run_cli(["monitor", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr

    def test_warn_run_exits_three(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.3)
        proc = run_cli(["monitor", "--config", str(config)])
        assert proc.returncode == 3, proc.stderr

    def test_fail_run_exits_four(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.75)
        proc = run_cli(["monitor", "--config", str(config)])
        assert proc.returncode == 4, proc.stderr

    def test_config_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        proc = run_cli(["monitor", "--config", str(bad)])
        assert proc.returncode == 2
        assert "config error" in proc.stderr

    def test_wrong_typed_config_value_exits_two_with_pointer(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, config_overrides={"drift": {"bins": "x"}})
        proc = run_cli(["drift", "--config", str(config)])
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: /drift/bins: ")

    @pytest.mark.parametrize("segmentation", [[], ["x0"]])
    def test_missing_train_file_gives_incomplete_report(self, tmp_path, segmentation):
        config = write_pipeline_fixture(
            tmp_path,
            config_overrides={
                "data": {"train": "missing.csv"},
                "segmentation": {"features": segmentation},
            },
        )
        out = tmp_path / "report.json"
        proc = run_cli(["monitor", "--config", str(config), "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        report = json.loads(out.read_text())
        assert report["status"] == "incomplete"
        assert report["datasets"]["train"]["error"].startswith("FileNotFoundError: ")
        assert report["sections"]["drift"]["status"] == "ok"
        weakness = report["sections"]["weakness"]
        if segmentation:
            assert weakness["status"] == "error"
            assert weakness["error"] == report["datasets"]["train"]["error"]
        else:
            assert weakness == {"status": "not_configured"}

    def test_usage_error_exits_two(self):
        proc = run_cli(["monitor"])  # missing --config
        assert proc.returncode == 2


    def test_short_csv_row_is_a_structured_error(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        with open(tmp_path / "current.csv", "a", encoding="utf-8") as fh:
            fh.write("0.5,0.25\n")  # the fixture's current set has 400 data rows
        proc = run_cli(["monitor", "--config", str(config)])
        assert proc.returncode == 1
        assert proc.stderr == "error: row 400: expected 4 cells as in the header, found 2\n"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.3)
        out1 = tmp_path / "report1.json"
        out2 = tmp_path / "report2.json"
        p1 = run_cli(["monitor", "--config", str(config), "--out", str(out1)])
        p2 = run_cli(["monitor", "--config", str(config), "--out", str(out2)])
        assert p1.returncode == p2.returncode == 3
        assert out1.read_bytes() == out2.read_bytes()


class TestSectionCommands:
    def test_quality_command(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        proc = run_cli(["quality", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["section"] == "data_quality"
        assert doc["result"]["status"] == "ok"

    def test_quality_command_without_target_or_prediction(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        doc = json.loads(config.read_text())
        doc["schema"]["columns"] = [c for c in doc["schema"]["columns"] if c["role"] == "feature"]
        config.write_text(json.dumps(doc))
        proc = run_cli(["quality", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "ok"

    def test_each_command_reads_only_its_datasets(self, tmp_path, monkeypatch):
        schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
        write_csv(pipeline_dataset(seed=9, n=200), tmp_path / "calibration.csv", schema)
        write_csv(pipeline_dataset(seed=3, n=200), tmp_path / "train.csv", schema)
        config = write_pipeline_fixture(
            tmp_path,
            shift=0.0,
            config_overrides={
                "data": {"calibration": "calibration.csv", "train": "train.csv"},
                "segmentation": {"features": ["x0"], "bins": 4},
            },
        )
        both = ["current.csv", "reference.csv"]
        expected = {
            "quality": both,
            "drift": both,
            "concept-drift": both,
            "conformal": ["calibration.csv", *both],
            "weakness": [*both, "train.csv"],
            "robustness": both,
            "monitor": ["calibration.csv", *both, "train.csv"],
        }
        opened = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if str(file).endswith(".csv") and "r" in mode:
                opened.append(Path(file).name)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        for command, files in expected.items():
            opened.clear()
            code = main([command, "--config", str(config), "--out", str(tmp_path / "out.json")])
            assert code in (0, 3), command
            assert sorted(opened) == files, command

    def test_drift_command_reports_shift(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.75)
        proc = run_cli(["drift", "--config", str(config)])
        assert proc.returncode == 4
        doc = json.loads(proc.stdout)
        fails = [r for r in doc["result"]["results"] if r["verdict"] == "fail"]
        assert {r["feature"] for r in fails} == {"x0"}

    def test_concept_drift_command(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        proc = run_cli(["concept-drift", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["diagnosis"]["drift_type"] == "no_drift"

    def test_conformal_not_configured(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        proc = run_cli(["conformal", "--config", str(config)])
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["result"]["status"] == "not_configured"

    def test_weakness_command(self, tmp_path):
        config = write_pipeline_fixture(
            tmp_path,
            shift=0.0,
            config_overrides={"segmentation": {"features": ["x0"], "bins": 4}},
        )
        proc = run_cli(["weakness", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["result"]["regions"]

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("conformal", {"data": {"calibration": "missing.csv"}}),
            ("weakness", {"data": {"train": "missing.csv"}, "segmentation": {"features": ["x0"]}}),
        ],
    )
    def test_missing_optional_dataset_gives_error_section(self, tmp_path, command, overrides):
        # the same config under `monitor` reports this section as an error and exits 1
        config = write_pipeline_fixture(tmp_path, shift=0.0, config_overrides=overrides)
        proc = run_cli([command, "--config", str(config)])
        assert proc.returncode == 1, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result["status"] == "error"
        assert result["error"].startswith("FileNotFoundError: ")

    def test_weakness_all_missing_train_feature_is_schema_error(self, tmp_path):
        with open(tmp_path / "train.csv", "w", encoding="utf-8") as fh:
            fh.write("x0,x1,y,pred\n" + ",0.5,2.5,1.25\n" * 50)
        config = write_pipeline_fixture(
            tmp_path,
            shift=0.0,
            config_overrides={
                "data": {"train": "train.csv"},
                "segmentation": {"features": ["x0"], "bins": 4},
            },
        )
        proc = run_cli(["weakness", "--config", str(config)])
        assert proc.returncode == 1, proc.stderr
        result = json.loads(proc.stdout)["result"]
        assert result == {"status": "error", "error": "SchemaError: feature 'x0' has no observed values"}

    def test_weakness_without_segmentation_ignores_missing_train(self, tmp_path):
        config = write_pipeline_fixture(
            tmp_path, shift=0.0, config_overrides={"data": {"train": "missing.csv"}}
        )
        proc = run_cli(["weakness", "--config", str(config)])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["status"] == "not_configured"


class TestSectionMatchesMonitor:
    """A single-section command writes exactly the section ``monitor``
    writes. The concept-drift command used to rescan median-imputed frames:
    with about 45 % of the current x0 missing, the imputed spike failed KS,
    so the command called input drift on x0 where ``monitor``, reading the
    drift stage's scan of the loaded data, called no drift."""

    @pytest.fixture
    def config(self, tmp_path, monkeypatch):
        class InProcessModel:  # the robustness stage, without a subprocess
            def __init__(self, command, timeout):
                pass

            def predict(self, frame):
                return 2.0 * frame.column("x1").values

        monkeypatch.setattr(report_module, "ExternalModel", InProcessModel)
        schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
        write_csv(pipeline_dataset(seed=9, n=300), tmp_path / "calibration.csv", schema)
        write_csv(pipeline_dataset(seed=3, n=300), tmp_path / "train.csv", schema)
        config = write_pipeline_fixture(
            tmp_path,
            config_overrides={
                "data": {"calibration": "calibration.csv", "train": "train.csv"},
                "drift": {"numeric_metrics": ["ks", "psi"]},
                "segmentation": {"features": ["x1"], "bins": 4},
                "model": {"command": "in-process"},
                "robustness": {"n_repeats": 2, "irrelevant_features": ["x1"]},
            },
        )
        write_csv(pipeline_dataset(seed=1, n=600), tmp_path / "reference.csv", schema)
        current = pipeline_dataset(seed=2, n=600)
        x0 = current.frame.column("x0").values.copy()
        x0[np.random.default_rng(5).random(600) < 0.45] = np.nan
        frame = make_frame(x0=x0, x1=current.frame.column("x1").values)
        write_csv(make_scored(frame, current.y_true, current.y_pred), tmp_path / "current.csv", schema)
        return config

    @pytest.mark.parametrize("command", sorted(SECTION_COMMANDS))
    def test_section_command_writes_the_monitor_section(self, tmp_path, config, command):
        report_path, section_path = tmp_path / "report.json", tmp_path / "section.json"
        main(["monitor", "--config", str(config), "--out", str(report_path)])
        main([command, "--config", str(config), "--out", str(section_path)])
        report, doc = json.loads(report_path.read_text()), json.loads(section_path.read_text())
        name = SECTION_COMMANDS[command][0]
        assert doc["result"]["status"] in ("ok", "not_configured")
        assert doc["result"] == report["sections"][name]
        assert doc["alerts"] == [a for a in report["alerts"] if a["section"] == name]


class TestReportCommand:
    def test_rerender_saved_report(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.75)
        saved = tmp_path / "report.json"
        run_cli(["monitor", "--config", str(config), "--out", str(saved)])
        proc = run_cli(["report", "--in", str(saved), "--format", "text"])
        assert proc.returncode == 0
        assert "[FAIL]" in proc.stdout

    @pytest.mark.parametrize(
        "content, message",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "not a saved report: missing keys ['run_id'"),
            ('{"run_id": "x"}', "not a saved report: missing keys ['created_at'"),
        ],
    )
    def test_malformed_saved_report_exits_2(self, tmp_path, content, message):
        saved = tmp_path / "report.json"
        saved.write_text(content)
        proc = run_cli(["report", "--in", str(saved)])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {saved}: ")
        assert message in proc.stderr

    @pytest.fixture
    def saved(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        config, saved = write_pipeline_fixture(tmp_path, shift=0.75), tmp_path / "report.json"
        assert main(["monitor", "--config", str(config), "--out", str(saved)]) == 4
        return saved

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("sections", {"drift": {"status": "ok"}}, "KeyError('results')"),
            ("sections", ["drift"], "AttributeError"),
            ("alerts", [{"section": "drift"}], "KeyError('severity')"),
            ("alerts", 3, "TypeError"),
        ],
    )
    def test_saved_report_with_malformed_node_exits_2(self, saved, capsys, key, value, message):
        doc = json.loads(saved.read_text())
        doc[key] = value
        saved.write_text(json.dumps(doc))
        assert main(["report", "--in", str(saved)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {saved}: not a saved report: ")
        assert message in err

    def test_saved_report_renders_as_saved(self, saved, capsys):
        assert main(["report", "--in", str(saved), "--format", "json"]) == 0
        assert capsys.readouterr().out == saved.read_text()

    def test_saved_report_rerenders_to_the_monitor_text(self, saved, capsys):
        # the saved JSON holds the sections sorted by name; the text lists
        # them in run order, as monitor printed it
        config = saved.parent / "config.json"
        assert main(["monitor", "--config", str(config), "--format", "text"]) == 4
        monitor_text = capsys.readouterr().out
        assert monitor_text.index("\ndata_quality: ") < monitor_text.index("\nconcept_drift: ")
        assert main(["report", "--in", str(saved), "--format", "text"]) == 0
        assert capsys.readouterr().out == monitor_text

    def test_monitor_text_format(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        proc = run_cli(["monitor", "--config", str(config), "--format", "text"])
        assert "ALERTS: none" in proc.stdout


class TestMainFunction:
    def test_seed_override(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.0)
        out = tmp_path / "r.json"
        code = main(["monitor", "--config", str(config), "--seed", "5", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["seed"] == 5
