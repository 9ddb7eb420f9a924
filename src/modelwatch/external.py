"""Subprocess adapter for scoring through an external model command.

Protocol: the command receives one or more frames as one RFC-4180 CSV
table on stdin, a header row and then each frame's rows in order, and must
write exactly one decimal prediction per input row to stdout, in order. It
must score each row on its own, whatever other rows share its input and
however many there are. A prediction follows the number rule of CSV cells:
a finite ASCII number as ``float()`` reads it, without ``_`` digit
separators; surrounding ASCII whitespace is accepted. Its stderr is passed
through. Nonzero exit status, unparsable output, a row-count mismatch, or
exceeding the timeout raise :class:`ModelProtocolError` with the matching
reason.
"""

from __future__ import annotations

import csv
import io
import math
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .data import Column, FeatureFrame, _plain_number_text, _plain_numbers, feature_cells
from .errors import ModelProtocolError


def _csv_rows(rows: Iterable) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def frame_to_csv(frame: FeatureFrame, memo: dict | None = None) -> str:
    """Render a frame as CSV text; missing cells become empty strings.

    ``memo`` maps a column name to the first column of that name rendered
    with it, and that column's cells. A later frame holding that very column
    object reuses the cells; a different object, even one with the same
    name, is formatted afresh. The memo keeps its columns alive, so a freed
    column's identity can never pass to a new one.
    """
    cells = (_column_cells(col, memo) for col in frame.columns)
    return _csv_rows([frame.names]) + _csv_rows(zip(*cells))


def _column_cells(col: Column, memo: dict | None) -> list[str]:
    if memo is None:
        return feature_cells(col)
    if col.name not in memo:
        memo[col.name] = (col, feature_cells(col))
    kept, cells = memo[col.name]
    return cells if kept is col else feature_cells(col)


def _write_payload(stdin: IO[str], frames: Sequence[FeatureFrame]) -> None:
    """Write ``frames`` to ``stdin`` as one CSV table, one frame's text at a
    time, through one memo: each column of the first frame is formatted
    once, however many later frames hold it."""
    memo: dict = {}
    header = len(_csv_rows([frames[0].names]))
    for i, frame in enumerate(frames):
        text = frame_to_csv(frame, memo)
        stdin.write(text[header:] if i else text)


@dataclass(frozen=True)
class ExternalModel:
    command: str
    timeout: float = 60.0

    def predict(self, frame: FeatureFrame) -> np.ndarray:
        return score_external(self, frame)

    def predict_many(self, frames: Sequence[FeatureFrame]) -> list[np.ndarray]:
        """The predictions on each of ``frames``, from one launch of the command."""
        preds = score_external(self, *frames)
        return np.split(preds, np.cumsum([f.n_rows for f in frames[:-1]]))


def score_external(model: ExternalModel, frame: FeatureFrame, *more: FeatureFrame) -> np.ndarray:
    """Run the external command once on ``frame`` and each of ``more``, sent
    as one table, and collect the predictions of all their rows in order.
    The timeout is ``model.timeout`` per frame."""
    args = shlex.split(model.command)
    if not args:
        raise ModelProtocolError("exit_code", "empty model command")
    for other in more:
        frame.check_same_columns(other, "frames scored in one call")
    frames = (frame, *more)
    n_rows = sum(f.n_rows for f in frames)
    timeout = model.timeout * len(frames)
    # the payload goes to a file a frame at a time, never whole into memory
    with tempfile.TemporaryFile("w+", newline="") as stdin:
        _write_payload(stdin, frames)
        stdin.seek(0)
        try:
            proc = subprocess.run(args, stdin=stdin, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ModelProtocolError(
                "timeout", f"model exceeded {timeout:g}s timeout and was terminated"
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
    predictions = _plain_numbers(lines)
    if predictions is None:  # the per-line loop names the first bad line
        for i, line in enumerate(lines):
            try:
                if not _plain_number_text(line):
                    raise ValueError(line)
                value = float(line)
            except ValueError:
                raise ModelProtocolError("parse", f"line {i + 1}: not a decimal: {line!r}") from None
            if not math.isfinite(value):
                raise ModelProtocolError("parse", f"line {i + 1}: not a finite decimal: {line!r}")
    if len(lines) != n_rows:
        raise ModelProtocolError("count", f"model returned {len(lines)} predictions for {n_rows} rows")
    return predictions
