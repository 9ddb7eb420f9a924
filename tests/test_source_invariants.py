"""Source-level checks on the library package."""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import modelwatch
from modelwatch.data import Schema

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


def test_pairwise_differences_only_in_geometry_module():
    # exact pairwise differences are written once, as _geometry.exact_sq_dists:
    # no np.subtract.outer, and no broadcast subscript with None among three
    # or more entries, such as [:, None, :]
    subscript = re.compile(r"\[([^\[\]]*)\]")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "_geometry.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "subtract.outer" in line
        or any(
            "None" in [part.strip() for part in entries.split(",")] and entries.count(",") >= 2
            for entries in subscript.findall(line)
        )
    ]
    assert found == []


def test_no_pooled_matrix_in_shift_module():
    # the pooled N x N distance (or kernel) matrix is never held whole: every
    # sq_dists call on the pooled sample Z sits in a loop over row_blocks
    tree = ast.parse((PACKAGE / "shift.py").read_text(encoding="utf-8"))

    def calls(node, name):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name

    blocked = {
        id(node)
        for loop in ast.walk(tree)
        if isinstance(loop, ast.For) and calls(loop.iter, "row_blocks")
        for node in ast.walk(loop)
    }
    pooled = [
        node
        for node in ast.walk(tree)
        if calls(node, "sq_dists")
        and any(isinstance(n, ast.Name) and n.id == "Z" for arg in node.args for n in ast.walk(arg))
    ]
    assert pooled, "no pooled sq_dists call left to check"
    assert [f"shift.py:{node.lineno}" for node in pooled if id(node) not in blocked] == []


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


def test_segment_edges_and_labels_aligned_once_in_outcome_module():
    # equal edges collapse to [a, a] in one place, and assignments' labels
    # are aligned by one map, in outcome.py; a module that compares segment
    # ids with a label index builds a second copy of that alignment
    source = (PACKAGE / "outcome.py").read_text(encoding="utf-8")
    collapses = re.findall(r"\.size == 1\b|\w+\[0\] == \w+\[-1\]", source)
    assert len(collapses) == 1
    assert source.count("dict.fromkeys(") == 1
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "outcome.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bsegment_ids\b|\w+ == \w+ for \w+ in", line)
    ]
    assert found == []


def test_sample_rules_written_once():
    # each rule below has one owner; a second copy drifts from the first:
    # the two ECDFs of a KS or W1 pair (shift._cdf_gaps), a declared value's
    # JSON form (data.json_value) and the mode fill (quality.fill_value);
    # _geometry's argmax is a pivot search, not a mode
    shift = (PACKAGE / "shift.py").read_text(encoding="utf-8")
    assert shift.count("EmpiricalDistribution.from_sample(") == 2
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))}
    assert sum(source.count("isinstance(value, frozenset)") for source in sources.values()) == 1
    assert sum(source.count("np.argmax(") for name, source in sources.items() if name != "_geometry.py") == 1


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


def test_column_rules_only_in_column_spec():
    # a column's field rules are written once, in ColumnSpec.__post_init__,
    # so a schema built in code meets the same checks as one read from JSON
    source = inspect.getsource(Schema.from_json_dict)
    assert [word for word in ("valid_range", "valid_categories") if word in source] == []


def test_column_lookup_and_unique_names_once_in_data_module():
    # Schema and FeatureFrame share one by-name lookup and one unique-name
    # check; a second copy lets their errors drift apart
    source = (PACKAGE / "data.py").read_text(encoding="utf-8")
    assert source.count("raise MissingColumn(name) from None") == 1
    assert len(re.findall(r"len\(set\((\w+)\)\) != len\(\1\)", source)) == 1
    assert source.count("duplicate column names") == 1


def test_frame_columns_compared_only_in_data_module():
    # FeatureFrame.check_same_columns is the one rule for two frames holding
    # the same columns; a names-only copy elsewhere let kinds slip through
    compare = re.compile(r"\.names\s*[!=]=|[!=]=\s*[\w.()\[\]]*\.names\b")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "data.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if compare.search(line)
    ]
    assert found == []


def test_import_loads_no_scipy():
    # scipy.stats alone took over a second to import, on every CLI run; the
    # library imports scipy inside the functions that need it
    code = (
        "import sys, modelwatch, modelwatch.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def import_time_nodes(node: ast.AST):
    """Every node that runs when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from import_time_nodes(child)


def test_no_module_level_scipy_import():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in import_time_nodes(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == []


def test_one_scorer_launch_and_no_context_state():
    # external.score_external is the one place a model command is launched,
    # once per call however many frames it scores; its cell memo is a local
    # of that call, not state in a context variable
    found = [
        (path.name, name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in ("subprocess.run", "ContextVar")
        for _ in range(path.read_text(encoding="utf-8").count(name))
    ]
    assert found == [("external.py", "subprocess.run")]


def test_report_scores_only_through_the_robustness_tests():
    # each robustness test scores its own unaltered frame in its one stacked
    # call, so the stage itself never calls the scorer
    tree = ast.parse((PACKAGE / "report.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("predict", "predict_many")
    ]
    assert found == []
