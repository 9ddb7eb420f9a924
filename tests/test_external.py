import sys

import numpy as np
import pytest

from modelwatch.errors import ModelProtocolError
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

    def test_unlaunchable_command(self, frame):
        model = ExternalModel("/nonexistent/binary")
        with pytest.raises(ModelProtocolError) as exc:
            score_external(model, frame)
        assert exc.value.reason == "exit_code"


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
