"""Subprocess adapter for scoring through an external model command.

Protocol: the command receives the frame as RFC-4180 CSV (header row plus
one row per record) on stdin and must write exactly one decimal prediction
per input row to stdout, in order. A prediction follows the number rule of
CSV cells: a finite ASCII number as ``float()`` reads it, without ``_``
digit separators; surrounding ASCII whitespace is accepted. Its stderr is
passed through. Nonzero exit status, unparsable output, a row-count
mismatch, or exceeding the timeout raise :class:`ModelProtocolError` with
the matching reason.
"""

from __future__ import annotations

import csv
import io
import shlex
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

from .data import FeatureFrame, _plain_number_text, feature_cells
from .errors import ModelProtocolError


def frame_to_csv(frame: FeatureFrame) -> str:
    """Render a frame as CSV text; missing cells become empty strings."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(frame.names))
    writer.writerows(zip(*(feature_cells(col) for col in frame.columns)))
    return buf.getvalue()


@dataclass(frozen=True)
class ExternalModel:
    command: str
    timeout: float = 60.0

    def predict(self, frame: FeatureFrame) -> np.ndarray:
        return score_external(self, frame)


def score_external(model: ExternalModel, frame: FeatureFrame) -> np.ndarray:
    """Run the external command on a frame and collect its predictions."""
    args = shlex.split(model.command)
    if not args:
        raise ModelProtocolError("exit_code", "empty model command")
    payload = frame_to_csv(frame)
    try:
        proc = subprocess.run(
            args,
            input=payload,
            capture_output=True,
            text=True,
            timeout=model.timeout,
        )
    except subprocess.TimeoutExpired:
        raise ModelProtocolError(
            "timeout", f"model exceeded {model.timeout:g}s timeout and was terminated"
        ) from None
    except OSError as exc:
        raise ModelProtocolError("exit_code", f"could not launch model: {exc}") from None

    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ModelProtocolError(
            "exit_code", f"model exited with status {proc.returncode}"
        )

    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    predictions = np.empty(len(lines), dtype=np.float64)
    for i, line in enumerate(lines):
        try:
            if not _plain_number_text(line):
                raise ValueError(line)
            predictions[i] = float(line)
        except ValueError:
            raise ModelProtocolError("parse", f"line {i + 1}: not a decimal: {line!r}") from None
        if not np.isfinite(predictions[i]):
            raise ModelProtocolError("parse", f"line {i + 1}: not a finite decimal: {line!r}")
    if len(lines) != frame.n_rows:
        raise ModelProtocolError(
            "count", f"model returned {len(lines)} predictions for {frame.n_rows} rows"
        )
    return predictions
