import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modelwatch.cli import main
from modelwatch.data import Schema, write_csv

from conftest import PIPELINE_SCHEMA_DOC, pipeline_dataset, write_pipeline_fixture


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


class TestReportCommand:
    def test_rerender_saved_report(self, tmp_path):
        config = write_pipeline_fixture(tmp_path, shift=0.75)
        saved = tmp_path / "report.json"
        run_cli(["monitor", "--config", str(config), "--out", str(saved)])
        proc = run_cli(["report", "--in", str(saved), "--format", "text"])
        assert proc.returncode == 0
        assert "[FAIL]" in proc.stdout

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
