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
import math
import shlex
import subprocess
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .data import Column, FeatureFrame, _plain_number_text, _plain_numbers, feature_cells
from .errors import ModelProtocolError

# The cell memo of the innermost ``shared_cells`` block, None outside one.
_CELL_MEMO: ContextVar[dict | None] = ContextVar("modelwatch_cell_memo", default=None)


def frame_to_csv(frame: FeatureFrame, memo: dict | None = None) -> str:
    """Render a frame as CSV text; missing cells become empty strings.

    ``memo`` maps a column name to the first column of that name rendered
    with it, and that column's cells. A later frame holding that very column
    object reuses the cells; a different object, even one with the same
    name, is formatted afresh. The memo keeps its columns alive, so a freed
    column's identity can never pass to a new one.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(list(frame.names))
    writer.writerows(zip(*(_column_cells(col, memo) for col in frame.columns)))
    return buf.getvalue()


def _column_cells(col: Column, memo: dict | None) -> list[str]:
    if memo is None:
        return feature_cells(col)
    if col.name not in memo:
        memo[col.name] = (col, feature_cells(col))
    kept, cells = memo[col.name]
    return cells if kept is col else feature_cells(col)


@contextmanager
def shared_cells():
    """Within the block, ``score_external`` renders through one memo (see
    ``frame_to_csv``), so scoring one-column variants of a frame formats only
    the changed column each time. The memo is dropped when the block ends."""
    token = _CELL_MEMO.set({})
    try:
        yield
    finally:
        _CELL_MEMO.reset(token)


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
    payload = frame_to_csv(frame, _CELL_MEMO.get())
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
    if len(lines) != frame.n_rows:
        raise ModelProtocolError(
            "count", f"model returned {len(lines)} predictions for {frame.n_rows} rows"
        )
    return predictions
