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

The payload streams to the command through a pipe while it runs, a frame at
a time, so it never sits whole in memory and a command that reads row by row
overlaps the library's formatting. The timeout runs from launch and covers
sending the payload. A command that exits without reading all its input is
judged by its exit status and its output alone. The command runs in its own
session, and on timeout its whole process group is killed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shlex
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

try:
    import fcntl
except ImportError:  # not POSIX: the pipe keeps its default size
    fcntl = None

from .data import Column, FeatureFrame, _plain_number, _plain_numbers, feature_cells
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


_PIPE_BYTES = 1 << 20  # several frames' text: formatting runs ahead of a reading command


def _feed(write_end: int, frames: Sequence[FeatureFrame], errors: list) -> None:
    """Write ``frames`` to ``write_end`` as one CSV table, one frame's text at
    a time, through one memo, and close it; keep any error. Each column of the
    first frame is formatted once, however many later frames hold it. The
    caller reads the pipe to its end, so no write meets a closed pipe."""
    try:
        with open(write_end, "w", newline="") as stdin:
            memo: dict = {}
            header = len(_csv_rows([frames[0].names]))
            for i, frame in enumerate(frames):
                text = frame_to_csv(frame, memo)
                stdin.write(text[header:] if i else text)
    except Exception as exc:
        errors.append(exc)


def _kill_group(proc) -> None:
    """Kill the command's process group, so the processes it started end
    with it; where there are no process groups, the command alone."""
    if not hasattr(os, "killpg"):
        proc.kill()
        return
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


@dataclass(frozen=True)
class ExternalModel:
    command: str
    timeout: float = 60.0

    def predict(self, frame: FeatureFrame) -> np.ndarray:
        return score_external(self, frame)

    def predict_many(self, frames: Sequence[FeatureFrame]) -> list[np.ndarray]:
        """The predictions on each of ``frames``, from one launch of the
        command, or none for no frames."""
        if not frames:
            return []
        preds = score_external(self, *frames)
        return np.split(preds, np.cumsum([f.n_rows for f in frames[:-1]]))


def score_external(model: ExternalModel, frame: FeatureFrame, *more: FeatureFrame) -> np.ndarray:
    """Run the external command once on ``frame`` and each of ``more``, sent
    as one table, and collect the predictions of all their rows in order.

    The table streams to the command as the module docstring describes;
    the timeout is ``model.timeout`` per frame from launch, sending
    included. An error while formatting the table is raised as itself,
    ahead of any protocol check."""
    args = shlex.split(model.command)
    if not args:
        raise ModelProtocolError("exit_code", "empty model command")
    for other in more:
        frame.check_same_columns(other, "frames scored in one call")
    frames = (frame, *more)
    n_rows = sum(f.n_rows for f in frames)
    timeout = model.timeout * len(frames)
    read_end, write_end = os.pipe()
    with contextlib.suppress(AttributeError, OSError):  # else keep the default size
        fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    errors: list = []
    writer = threading.Thread(target=_feed, args=(write_end, frames, errors), daemon=True)
    try:
        writer.start()
    except RuntimeError:
        os.close(write_end)
        os.close(read_end)
        raise
    failure = None
    try:
        with subprocess.Popen(
            args, stdin=read_end, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except BaseException:
                _kill_group(proc)
                proc.wait()
                raise
    except (subprocess.TimeoutExpired, OSError) as exc:
        failure = exc
    finally:
        # Drain the pipe rather than only close it: a process the command
        # started may still hold the read end without reading, and the writer
        # must finish all the same.
        while os.read(read_end, 1 << 16):
            pass
        os.close(read_end)
        writer.join()
    if errors:
        raise errors[0]
    if isinstance(failure, subprocess.TimeoutExpired):
        raise ModelProtocolError("timeout", f"model exceeded {timeout:g}s timeout and was terminated")
    if failure is not None:
        raise ModelProtocolError("exit_code", f"could not launch model: {failure}")

    if stderr:
        sys.stderr.write(stderr)
    if proc.returncode != 0:
        raise ModelProtocolError(
            "exit_code", f"model exited with status {proc.returncode}"
        )

    lines = [line for line in stdout.splitlines() if line.strip()]
    predictions = _plain_numbers(lines)
    if predictions is None:  # the per-line loop names the first bad line
        for i, line in enumerate(lines):
            value = _plain_number(line)
            if value is None:
                raise ModelProtocolError("parse", f"line {i + 1}: not a decimal: {line!r}")
            if not math.isfinite(value):
                raise ModelProtocolError("parse", f"line {i + 1}: not a finite decimal: {line!r}")
    if len(lines) != n_rows:
        raise ModelProtocolError("count", f"model returned {len(lines)} predictions for {n_rows} rows")
    return predictions
