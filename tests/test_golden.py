"""Golden report hashes: the pipeline fixtures must render byte-identically.

The hashes were recorded before the metric and section tables replaced the
hand-synced direction/threshold maps and section dispatch, and pin that
refactors of the report path change no byte of the JSON or text render.
They depend on numpy's floating-point results, so a different numpy build
may legitimately need them re-recorded.
"""

import hashlib

import pytest

from modelwatch.config import parse_config
from modelwatch.data import Schema, write_csv
from modelwatch.report import render_report, run_monitor

from conftest import PIPELINE_SCHEMA_DOC, pipeline_dataset, write_pipeline_fixture

EXTRAS = {
    "data": {"calibration": "calibration.csv", "train": "train.csv"},
    "segmentation": {"features": ["x0", "x1"], "bins": 4},
    "drift": {
        "numeric_metrics": ["ks", "psi", "jsd", "wasserstein1"],
        "multivariate_metrics": ["energy", "mmd2", "pca_recon"],
        "n_permutations": 99,
    },
}

# fixture -> (shift, config overrides, sha256 of JSON render, sha256 of text render)
GOLDEN = {
    "clean": (
        0.0,
        None,
        "99d8c4fa59ece97536d0bf829dc3fb3a08a3af291df817f074cb2c177823fb42",
        "421b5995c3b549686a3bed7c6f54aba75fb0136dacfb8c7f492fa646c5443a2a",
    ),
    "warn": (
        0.3,
        None,
        "2b6d57fcddcf4b1ecc6d1f392a8e3eb2c482825e0fd616079814cf9d2dee9962",
        "8d7c7f23e5a01a3ca1793679c603156078d054d5452afffcae83d89b68fe1656",
    ),
    "fail": (
        0.75,
        None,
        "c2e1ca95a86b4c8e2573ef37dee3e7dbbb12e8002021a6bc5ed97e185ca0a129",
        "453658d1f08bb72ad1877a34b4411f44c4bb89ebc051974fe5321531be3b23c4",
    ),
    "extras": (
        0.3,
        EXTRAS,
        "1f14fad3293e85ecfda21d537012e5563d2ac6f802b1137182196c1d38c8c594",
        "89bd1ba5ce27f8a7280802b8f7ac38c6e4dbf628313d68b4d9545f73673e73a1",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_bytes_pinned(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    shift, overrides, json_sha, text_sha = GOLDEN[name]
    if overrides is EXTRAS:
        schema = Schema.from_json_dict(PIPELINE_SCHEMA_DOC)
        write_csv(pipeline_dataset(seed=9, n=500), tmp_path / "calibration.csv", schema)
        write_csv(pipeline_dataset(seed=3, n=600), tmp_path / "train.csv", schema)
    report = run_monitor(parse_config(write_pipeline_fixture(tmp_path, shift, overrides)))
    assert report.status == "complete"
    assert _sha(render_report(report, "json")) == json_sha
    assert _sha(render_report(report, "text")) == text_sha
