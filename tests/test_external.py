import contextlib
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from modelwatch import external
from modelwatch.data import NumericColumn
from modelwatch.errors import ModelProtocolError, SchemaMismatch
from modelwatch.external import ExternalModel, frame_to_csv, score_external

from conftest import make_frame

IDENTITY_MODEL = """\
import csv, sys
reader = csv.reader(sys.stdin)
header = next(reader)
idx = header.index("x")
for row in reader:
    print(row[idx])
"""

SHORT_OUTPUT_MODEL = """\
import csv, sys
reader = csv.reader(sys.stdin)
header = next(reader)
rows = list(reader)
for row in rows[:-1]:
    print(row[header.index("x")])
"""

GARBAGE_MODEL = """\
import sys
data = sys.stdin.read()
n = data.count("\\n") - 1
for i in range(n):
    print("not-a-number")
"""

NAN_MODEL = """\
import sys
data = sys.stdin.read()
n = data.count("\\n") - 1
for i in range(n):
    print("nan")
"""

CONSTANT_MODEL = """\
import sys
data = sys.stdin.read()
n = data.count("\\n") - 1
for i in range(n):
    print({line!r})
"""

SLEEPER_MODEL = """\
import sys, time
sys.stdin.read()
time.sleep(30)
"""

FAILING_MODEL = """\
import sys
sys.stdin.read()
sys.stderr.write("boom\\n")
sys.exit(3)
"""


def model_command(tmp_path, source, name):
    script = tmp_path / name
    script.write_text(source)
    return f"{sys.executable} {script}"


@pytest.fixture
def frame(rng):
    return make_frame(x=rng.normal(size=10), other=rng.normal(size=10))


class TestScoreExternal:
    def test_identity_round_trip(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, IDENTITY_MODEL, "identity.py"))
        preds = score_external(model, frame)
        np.testing.assert_array_equal(preds, frame.column("x").values)

    def test_row_order_preserved_under_permutation(self, tmp_path, frame, rng):
        model = ExternalModel(model_command(tmp_path, IDENTITY_MODEL, "identity.py"))
        perm = rng.permutation(frame.n_rows)
        base = score_external(model, frame)
        permuted = score_external(model, frame.take(perm))
        np.testing.assert_array_equal(permuted, base[perm])

    def test_count_mismatch(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, SHORT_OUTPUT_MODEL, "short.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "count"

    def test_parse_error(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, GARBAGE_MODEL, "garbage.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "parse"

    def test_non_finite_prediction_is_parse_error(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, NAN_MODEL, "nan.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert str(exc.value) == "[parse] line 1: not a finite decimal: 'nan'"

    @pytest.mark.parametrize("line", ["1_000", "\u0661\u0662", "\u00a02.5", "2.5\u2003"])
    def test_number_outside_the_csv_rule_is_parse_error(self, tmp_path, frame, line):
        # float() reads these as 1000.0, 12.0 and 2.5; a CSV cell may not hold them
        model = ExternalModel(model_command(tmp_path, CONSTANT_MODEL.format(line=line), "constant.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert str(exc.value) == f"[parse] line 1: not a decimal: {line!r}"

    def test_surrounding_ascii_whitespace_accepted(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, CONSTANT_MODEL.format(line=" \t2.5 "), "constant.py"))
        np.testing.assert_array_equal(score_external(model, frame), np.full(frame.n_rows, 2.5))

    def test_timeout(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, SLEEPER_MODEL, "sleeper.py"), timeout=1.0)
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "timeout"

    def test_nonzero_exit(self, tmp_path, frame, capsys):
        model = ExternalModel(model_command(tmp_path, FAILING_MODEL, "failing.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "exit_code"
        assert "boom" in capsys.readouterr().err  # stderr passed through

    def test_predict_scores_the_one_frame(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, IDENTITY_MODEL, "identity.py"))
        np.testing.assert_array_equal(model.predict(frame), score_external(model, frame))

    def test_blank_command_is_an_empty_model_command(self, frame):
        with pytest.raises(ModelProtocolError) as exc:
            ExternalModel("   ").predict(frame)
        assert str(exc.value) == "[exit_code] empty model command"

    def test_unlaunchable_command(self, frame):
        model = ExternalModel("/nonexistent/binary")
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "exit_code"


ONES_MODEL = """\
import sys
n = sum(1 for _ in sys.stdin) - 1
sys.stdout.write("1\\n" * n)
"""


class TestStackedCall:
    """``score_external(model, frame, *more)`` scores several frames in one
    launch: one header, then each frame's rows in order."""

    def test_stacked_call_equals_one_call_per_frame(self, tmp_path, frame, rng):
        model = ExternalModel(model_command(tmp_path, IDENTITY_MODEL, "identity.py"))
        other = make_frame(x=rng.normal(size=7), other=rng.normal(size=7))
        stacked = score_external(model, frame, other)
        np.testing.assert_array_equal(
            stacked, np.concatenate([score_external(model, frame), score_external(model, other)])
        )
        parts = model.predict_many([frame, other, frame])
        assert [p.shape for p in parts] == [(10,), (7,), (10,)]
        np.testing.assert_array_equal(np.concatenate(parts), np.r_[stacked, parts[0]])

    def test_frames_disagreeing_on_columns_fail_before_any_launch(self, tmp_path, frame, monkeypatch):
        model = ExternalModel(model_command(tmp_path, IDENTITY_MODEL, "identity.py"))
        launches = []
        monkeypatch.setattr(subprocess, "run", lambda *a, **kw: launches.append(a))
        other = make_frame(x=[1.0, 2.0], renamed=[3.0, 4.0])
        with pytest.raises(SchemaMismatch, match="column 1 is 'other' \\(numeric\\) vs 'renamed'"):
            score_external(model, frame, other)
        assert launches == []

    def test_no_frames_launch_nothing(self, monkeypatch):
        launches = []
        monkeypatch.setattr(subprocess, "run", lambda *a, **kw: launches.append(a))
        assert ExternalModel("/nonexistent/binary").predict_many([]) == []
        assert launches == []

    def test_count_mismatch_names_the_total_rows(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, SHORT_OUTPUT_MODEL, "short.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame, frame)
        assert str(exc.value) == "[count] model returned 19 predictions for 20 rows"

    def test_timeout_scales_with_the_frames_and_still_fires(self, tmp_path, frame):
        model = ExternalModel(model_command(tmp_path, SLEEPER_MODEL, "sleeper.py"), timeout=0.5)
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame, frame)
        assert str(exc.value) == "[timeout] model exceeded 1s timeout and was terminated"

    def test_payload_is_streamed_a_frame_at_a_time(self, tmp_path):
        # One frame's formatted cells alone take several times its CSV text,
        # so the bound is on what 23 more frames add: well under the ~23
        # payloads they would add if the whole table were built in memory.
        model = ExternalModel(model_command(tmp_path, ONES_MODEL, "ones.py"))
        r = np.random.default_rng(3)
        base = make_frame(**{f"x{j}": r.normal(size=500) for j in range(8)})
        frames = [  # as a perturbation test makes them: one column changed in each
            base.replace_column(NumericColumn.from_values(f"x{k % 8}", base.column(f"x{k % 8}").values + k))
            for k in range(24)
        ]
        payload = len(frame_to_csv(frames[0]))
        peaks = []
        for call in (frames[:1], frames):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                np.testing.assert_array_equal(score_external(model, *call), np.ones(500 * len(call)))
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 3 * payload


@contextlib.contextmanager
def leaves_nothing_behind():
    threads, fds = threading.active_count(), len(os.listdir("/proc/self/fd"))
    yield
    assert threading.active_count() == threads
    assert len(os.listdir("/proc/self/fd")) == fds


def _ended(pid, wait_s=2.0):
    """Whether process ``pid`` is gone or a zombie within ``wait_s``: a
    SIGKILL is acted on when the process next runs."""
    deadline = time.monotonic() + wait_s
    while True:
        try:
            with open(f"/proc/{pid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return True
        if state in ("Z", "X") or time.monotonic() > deadline:
            return state in ("Z", "X")
        time.sleep(0.01)


class TestStreamedPayload:
    """The payload streams through a pipe while the command runs. These
    frames' 2.4 MB outgrow the pipe, so a command that stops reading leaves
    the writer blocked until the call ends, and the call must still end."""

    @pytest.fixture
    def frames(self):
        r = np.random.default_rng(5)
        return [make_frame(x=r.normal(size=20_000), other=r.normal(size=20_000)) for _ in range(3)]

    def test_sleeper_that_never_reads_times_out_on_time(self, tmp_path, frames):
        model = ExternalModel(model_command(tmp_path, "import time\ntime.sleep(30)\n", "sleeper.py"), timeout=0.5)
        start = time.perf_counter()
        with leaves_nothing_behind(), pytest.raises(ModelProtocolError) as exc:
            score_external(model, *frames)
        assert time.perf_counter() - start < 1.5 + 1.0
        assert str(exc.value) == "[timeout] model exceeded 1.5s timeout and was terminated"

    def test_timeout_holds_while_a_forked_process_keeps_stdin(self, tmp_path, frames):
        pid_file = tmp_path / "orphan.pid"
        source = (
            "import subprocess, sys, time\n"
            "orphan = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)'])\n"
            f"open({str(pid_file)!r}, 'w').write(str(orphan.pid))\n"
            "time.sleep(30)\n"
        )
        model = ExternalModel(model_command(tmp_path, source, "forks.py"), timeout=0.5)
        start = time.perf_counter()
        try:
            with leaves_nothing_behind(), pytest.raises(ModelProtocolError) as exc:
                score_external(model, *frames)
            assert time.perf_counter() - start < 1.5 + 1.0
            assert str(exc.value) == "[timeout] model exceeded 1.5s timeout and was terminated"
            # the command's whole process group was killed: the orphan is
            # dead, at most waiting to be reaped by its new parent
            assert _ended(int(pid_file.read_text()))
        finally:
            with contextlib.suppress(OSError, ValueError):
                os.kill(int(pid_file.read_text()), 9)

    def test_exit_without_reading_is_judged_by_its_status(self, tmp_path, frames):
        model = ExternalModel(model_command(tmp_path, "import sys\nsys.exit(3)\n", "exit.py"))
        start = time.perf_counter()
        with leaves_nothing_behind(), pytest.raises(ModelProtocolError) as exc:
            score_external(model, *frames)
        assert time.perf_counter() - start < 10.0  # the call's timeout is 180 s
        assert str(exc.value) == "[exit_code] model exited with status 3"

    def test_output_without_reading_is_returned(self, tmp_path, frames):
        source = 'import sys\nsys.stdout.write("1\\n" * 60_000)\n'
        model = ExternalModel(model_command(tmp_path, source, "ones.py"))
        with leaves_nothing_behind():
            preds = score_external(model, *frames)
        np.testing.assert_array_equal(preds, np.ones(60_000))

    def test_formatting_error_surfaces_as_itself(self, tmp_path, frames, monkeypatch):
        class Boom(Exception):
            pass

        cells, formatted = external.feature_cells, []

        def failing_cells(col):
            formatted.append(col.name)
            if len(formatted) == 3:  # the second frame's first column
                raise Boom("while formatting the second frame")
            return cells(col)

        monkeypatch.setattr(external, "feature_cells", failing_cells)
        model = ExternalModel(model_command(tmp_path, ONES_MODEL, "ones.py"))
        with leaves_nothing_behind(), pytest.raises(Boom, match="second frame"):
            score_external(model, *frames)
        assert formatted == ["x", "other", "x"]


    def test_writer_that_cannot_start_leaves_no_fd(self, tmp_path, frames, monkeypatch):
        def refuse(self):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        model = ExternalModel(model_command(tmp_path, ONES_MODEL, "ones.py"))
        with leaves_nothing_behind(), pytest.raises(RuntimeError, match="new thread"):
            score_external(model, *frames)

    def test_formatting_error_does_not_mask_an_interrupt(self, frames, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        def failing_cells(col):
            raise ValueError("formatting failed")

        monkeypatch.setattr(subprocess, "Popen", interrupted)
        monkeypatch.setattr(external, "feature_cells", failing_cells)
        with leaves_nothing_behind(), pytest.raises(KeyboardInterrupt):
            score_external(ExternalModel("model"), *frames)


class TestFrameToCsv:
    def test_missing_cells_empty(self):
        frame = make_frame(x=[1.0, np.nan], g=["a", None])
        text = frame_to_csv(frame)
        lines = text.strip().split("\r\n")
        assert lines[0] == "x,g"
        assert lines[1] == "1.0,a"
        assert lines[2] == ","

    def test_quoting(self):
        frame = make_frame(g=["has,comma", "plain"])
        text = frame_to_csv(frame)
        assert '"has,comma"' in text

    def test_memo_reuses_only_the_same_column_object(self):
        frame = make_frame(x=[1.5, np.nan, -2.0], g=['say "hi"', None, "a,b"])
        memo: dict = {}
        assert frame_to_csv(frame, memo) == frame_to_csv(frame)
        x = frame.column("x")
        kept = memo["x"][1]
        # same name, new object: formatted afresh, and the first column's cells stay
        twin = frame.replace_column(NumericColumn("x", x.values + 1.0, x.missing_mask))
        assert frame_to_csv(twin, memo) == frame_to_csv(twin)
        assert memo["x"][0] is x and memo["x"][1] is kept
        assert frame_to_csv(frame, memo) == frame_to_csv(frame)


MIXED_MODEL = """\
import sys
data = sys.stdin.read()
n = data.count("\\n") - 1
for i in range(n):
    print({lines!r}[i] if i < {count} else "1.0")
"""


class TestFirstBadLine:
    @pytest.mark.parametrize(
        "lines, message",
        [
            (["1.0", "2.5", "x", "nan"], "line 3: not a decimal: 'x'"),
            (["1.0", "inf", "1_0"], "line 2: not a finite decimal: 'inf'"),
            (["1.0", " 2 ", "1_0", "nan"], "line 3: not a decimal: '1_0'"),
        ],
    )
    def test_the_first_line_breaking_the_rule_is_named(self, tmp_path, frame, lines, message):
        source = MIXED_MODEL.format(lines=lines, count=len(lines))
        model = ExternalModel(model_command(tmp_path, source, "mixed.py"))
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert str(exc.value) == f"[parse] {message}"
