"""Source-level checks on the library package."""

import ast
import re
from pathlib import Path

import modelwatch

PACKAGE = Path(modelwatch.__file__).parent


def test_no_assert_statements_in_library():
    # `python -O` strips assert statements, so a library invariant written as
    # one silently stops being checked; raise a ModelWatchError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_row_geometry_only_in_geometry_module():
    # z-standardisation and the |a|^2 + |b|^2 - 2 a.b distance expansion are
    # written once, in _geometry.py; a second copy drifts from the first
    expansion = re.compile(r"2(\.0)?\s*\*.*@.*\.T\b")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "_geometry.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if ".std(axis=0)" in line or expansion.search(line)
    ]
    assert found == []


def test_segment_scoring_only_in_outcome_module():
    # metric choice, the per-group rule and quantile edges are written once,
    # in outcome.py; concept.py reaches them through its shared helpers
    concept = (PACKAGE / "concept.py").read_text(encoding="utf-8")
    found = [call for call in ("metric_value(", "check_metric(") if call in concept]
    found += [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "outcome.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "np.quantile(" in line and "np.linspace(" in line
    ]
    assert found == []


def test_scored_role_fields_only_in_data_module():
    # the role-to-field mapping is written once, as data.SCORED_ROLES; a
    # module that names a role or field as a string keeps a second copy
    literals = [f"{q}{word}{q}" for word in ("prediction_lower", "y_pred_lower") for q in "\"'"]
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "data.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(literal in line for literal in literals)
    ]
    assert found == []
