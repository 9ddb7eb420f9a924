import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modelwatch.cli import main
from modelwatch.config import RULES, WIRED, build_config, parse_config
from modelwatch.errors import ConfigError
from modelwatch.report import config_digest

from conftest import PIPELINE_SCHEMA_DOC, write_pipeline_fixture

NAN, INF = float("nan"), float("inf")


def minimal_doc():
    return {
        "schema": json.loads(json.dumps(PIPELINE_SCHEMA_DOC)),
        "data": {"reference": "ref.csv", "current": "cur.csv"},
    }


class TestBuildConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = build_config(minimal_doc())
        assert cfg.seed == 0
        assert cfg.drift.bins == 10
        assert cfg.thresholds["psi"] == (0.1, 0.25)
        assert cfg.thresholds["ks"] == (0.05, 0.01)
        assert cfg.concept_drift.p_threshold == 0.01
        assert cfg.drift.numeric_metrics == ("ks", "psi", "jsd", "wasserstein1")
        assert cfg.model.command is None

    def test_effective_echo_contains_defaults(self):
        cfg = build_config(minimal_doc())
        assert cfg.effective["thresholds"]["psi"] == {"warn": 0.1, "fail": 0.25}
        assert cfg.effective["concept_drift"]["k"] == 1

    def test_threshold_ordering_violation(self):
        doc = minimal_doc()
        doc["thresholds"] = {"psi": {"warn": 0.5, "fail": 0.2}}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/thresholds/psi"

    def test_p_value_threshold_ordering(self):
        doc = minimal_doc()
        doc["thresholds"] = {"ks": {"warn": 0.001, "fail": 0.05}}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/thresholds/ks"

    def test_unknown_metric_lists_valid_names(self):
        doc = minimal_doc()
        doc["drift"] = {"numeric_metrics": ["ks", "chi2"]}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert "chi2" in str(exc.value)
        assert "psi" in str(exc.value)

    def test_unknown_threshold_key(self):
        doc = minimal_doc()
        doc["thresholds"] = {"nope": {"warn": 0.1, "fail": 0.2}}
        with pytest.raises(ConfigError):
            build_config(doc)

    def test_unknown_segmentation_feature(self):
        doc = minimal_doc()
        doc["segmentation"] = {"features": ["ghost"]}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/segmentation/features"

    def test_missing_data_key(self):
        doc = minimal_doc()
        del doc["data"]["current"]
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/data/current"

    def test_invalid_residual_test(self):
        doc = minimal_doc()
        doc["concept_drift"] = {"residual_test": "anderson"}
        with pytest.raises(ConfigError):
            build_config(doc)

    def test_invalid_alpha(self):
        doc = minimal_doc()
        doc["conformal"] = {"alpha": 1.5}
        with pytest.raises(ConfigError):
            build_config(doc)

    def test_bad_schema_reported_with_pointer(self):
        doc = minimal_doc()
        doc["schema"]["columns"].append({"name": "x0", "kind": "numeric"})
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/schema"


class TestParseConfig:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_doc()))
        cfg = parse_config(path)
        assert cfg.data.path("reference") == tmp_path / "ref.csv"
        assert cfg.data.path("current") == tmp_path / "cur.csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.json")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet and Windows editors often write one; json.load refused it
        path = tmp_path / "config.json"
        path.write_text(json.dumps(minimal_doc()), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = build_config(minimal_doc(), base_dir=tmp_path)
        assert parse_config(path).effective == expected.effective

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestValueErrors:
    @pytest.mark.parametrize(
        "section, key, value, pointer",
        [
            ("drift", "bins", "x", "/drift/bins"),
            (None, "seed", "abc", "/seed"),
            (None, "seed", None, "/seed"),
            ("conformal", "alpha", "x", "/conformal/alpha"),
            (None, "missing_tokens", "NA", "/missing_tokens"),
            (None, "missing_tokens", ["NA", 1], "/missing_tokens"),
            ("segmentation", "features", "x0", "/segmentation/features"),
            ("robustness", "irrelevant_features", "x0", "/robustness/irrelevant_features"),
            ("drift", "numeric_metrics", "ks", "/drift/numeric_metrics"),
            ("drift", None, [], "/drift"),
            # no value is converted to another JSON type
            ("drift", "n_permutations", 199.9, "/drift/n_permutations"),
            ("drift", "n_permutations", 199.0, "/drift/n_permutations"),
            (None, "seed", 3.9, "/seed"),
            ("drift", "bins", "7", "/drift/bins"),
            ("conformal", "alpha", "0.2", "/conformal/alpha"),
            ("model", "timeout", True, "/model/timeout"),
            ("robustness", "n_repeats", True, "/robustness/n_repeats"),
            ("model", "command", 5, "/model/command"),
            ("thresholds", "psi", {"warn": "0.1", "fail": 0.25}, "/thresholds/psi"),
            ("thresholds", "psi", {"warn": 0.1, "fail": True}, "/thresholds/psi"),
            # a number field takes only a finite number: with JSON's NaN or
            # Infinity, which Python's json reads, a rule could never fire
            ("thresholds", "psi", {"warn": NAN, "fail": NAN}, "/thresholds/psi"),
            ("thresholds", "ks", {"warn": 0.05, "fail": -INF}, "/thresholds/ks"),
            ("thresholds", "psi", {"warn": 0.1, "fail": 10**400}, "/thresholds/psi"),
            ("model", "timeout", INF, "/model/timeout"),
            ("drift", "epsilon", INF, "/drift/epsilon"),
            ("quality", "z_threshold", NAN, "/quality/z_threshold"),
            ("robustness", "tolerance", NAN, "/robustness/tolerance"),
        ],
    )
    def test_wrong_type_is_config_error(self, section, key, value, pointer):
        doc = minimal_doc()
        if section is None:
            doc[key] = value
        elif key is None:
            doc[section] = value
        else:
            doc[section] = {key: value}
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == pointer

    def test_missing_tokens_string_is_not_split_into_characters(self):
        doc = minimal_doc()
        doc["missing_tokens"] = "NA"
        with pytest.raises(ConfigError, match="list of strings"):
            build_config(doc)
        doc["missing_tokens"] = ["NA"]
        assert build_config(doc).missing_tokens == frozenset({"NA"})


# JSON pointer -> (rejected values, accepted values); every RULES entry needs one
RULE_CASES = {
    "/drift/bins": ([1, 0, -3], [2, 40]),
    "/drift/epsilon": ([0, -1, float("nan")], [1e-12, 0.5]),
    "/drift/numeric_metrics": ([["chi2"], ["ks", "tvd"]], [[], ["wasserstein1", "ks"]]),
    "/drift/categorical_metrics": ([["ks"]], [["tvd"]]),
    "/drift/multivariate_metrics": ([["psi"]], [["pca_recon"]]),
    "/drift/n_permutations": ([98, 0], [99, 500]),
    "/drift/variance_fraction": ([0, -0.5, 1.5, float("nan")], [1, 0.5, 1e-6]),
    "/concept_drift/k": ([0, -1], [1, 7]),
    "/concept_drift/match_metric": (["cosine"], ["mahalanobis", "euclidean_standardized"]),
    "/concept_drift/residual_test": (["anderson"], ["ks", "cvm"]),
    "/conformal/alpha": ([0, 1, 1.5, float("nan")], [0.5, 1e-3]),
    "/segmentation/bins": ([1, 0], [2, 10]),
    "/robustness/invariance_mode": (["drop"], ["constant", "permute"]),
    "/robustness/n_repeats": ([0, -2], [1, 5]),
    "/model/timeout": ([0, -1.5, float("nan")], [0.5, 60]),
}


def doc_with(pointer: str, value):
    doc = minimal_doc()
    section, key = pointer.strip("/").split("/")
    doc[section] = {key: value}
    return doc


class TestRules:
    def test_every_rule_has_cases(self):
        assert set(RULE_CASES) == set(RULES)

    @pytest.mark.parametrize("pointer", sorted(RULES))
    def test_rule_rejects_and_accepts(self, pointer):
        rejected, accepted = RULE_CASES[pointer]
        for value in rejected:
            with pytest.raises(ConfigError) as exc:
                build_config(doc_with(pointer, value))
            assert exc.value.pointer == pointer, value
        for value in accepted:
            build_config(doc_with(pointer, value))


class TestUnknownKeys:
    @pytest.mark.parametrize(
        "path, key",
        [
            ((), "sed"),
            (("data",), "trian"),
            (("drift",), "n_permutation"),
            (("concept_drift",), "scan"),
            (("drift",), "seed"),
            (("conformal",), "alpha_"),
            (("segmentation",), "feature"),
            (("robustness",), "tolerence"),
            (("quality",), "z"),
            (("model",), "cmd"),
        ],
    )
    def test_unknown_key_lists_valid_keys(self, path, key):
        doc = minimal_doc()
        node = doc
        for part in path:
            node = node.setdefault(part, {})
        node[key] = 1
        with pytest.raises(ConfigError) as exc:
            build_config(doc)
        assert exc.value.pointer == "/" + "/".join((*path, key))
        assert "valid:" in str(exc.value)


class TestSchemaEntries:
    # each ended in "internal error: ..." (exit 1), in "column 3 not found"
    # (exit 1), or loaded silently (an unknown key; categories split into
    # characters, so every row broke a rule)
    @pytest.mark.parametrize(
        "change",
        [
            {"valid_range": "ab"},
            {"valid_range": [1]},
            {"valid_range": [0, "x"]},
            {"name": 3},
            {"extra": 1},
            {"kind": "categorical", "valid_categories": "NS"},
            {"kind": "categorical", "valid_categories": {"N": 1}},
            {"valid_range": [True, 2]},
        ],
    )
    def test_bad_column_entry_exits_2(self, tmp_path, capsys, change):
        config = write_pipeline_fixture(tmp_path)
        doc = json.loads(config.read_text())
        doc["schema"]["columns"][0].update(change)
        config.write_text(json.dumps(doc))
        assert main(["quality", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("config error: /schema: invalid schema: ")


class TestPipelineFixture:
    def test_schema_override_leaves_the_template_unchanged(self, tmp_path):
        # the override used to be merged into PIPELINE_SCHEMA_DOC itself,
        # which then carried it into every later test of the session
        before = json.loads(json.dumps(PIPELINE_SCHEMA_DOC))
        columns = [dict(before["columns"][0], valid_range=[0, 1]), *before["columns"][1:]]
        config = write_pipeline_fixture(tmp_path, config_overrides={"schema": {"columns": columns}})
        assert json.loads(config.read_text())["schema"]["columns"] == columns
        assert PIPELINE_SCHEMA_DOC == before


# The JSON keys of every section, as accepted and echoed; a section's
# dataclass may hold more fields only if they are wired from elsewhere.
SECTION_KEYS = {
    "data": ["reference", "current", "train", "calibration"],
    "drift": [
        "bins",
        "epsilon",
        "numeric_metrics",
        "categorical_metrics",
        "multivariate_metrics",
        "n_permutations",
        "variance_fraction",
    ],
    "concept_drift": ["p_threshold", "k", "match_metric", "residual_test"],
    "conformal": ["alpha"],
    "segmentation": ["features", "bins", "min_rows"],
    "robustness": ["irrelevant_features", "invariance_mode", "tolerance", "noise_fraction", "n_repeats"],
    "quality": ["z_threshold", "iqr_multiplier"],
    "model": ["command", "timeout"],
}
TOP_KEYS = ["schema", "seed", "missing_tokens", "thresholds", *SECTION_KEYS]


class TestOneSource:
    def test_echo_keys_are_the_dataclass_fields(self):
        cfg = build_config(minimal_doc())
        assert sorted(cfg.effective) == sorted(TOP_KEYS)
        for name, keys in SECTION_KEYS.items():
            own = [
                f.name
                for f in dataclasses.fields(getattr(cfg, name))
                if f"/{name}/{f.name}" not in WIRED
            ]
            assert list(cfg.effective[name]) == own == keys, name

    def test_wired_values_are_shared(self):
        doc = minimal_doc()
        doc["seed"] = 17
        doc["thresholds"] = {"psi": {"warn": 0.2, "fail": 0.3}}
        cfg = build_config(doc, base_dir="conf")
        assert cfg.drift.seed == 17
        assert cfg.drift.thresholds is cfg.thresholds
        assert cfg.drift.threshold_pair("psi") == (0.2, 0.3)
        assert cfg.concept_drift.scan is cfg.drift
        assert cfg.data.path("reference") == Path("conf") / "ref.csv"
        assert cfg.data.path("train") is None


def golden_docs(tmp_path):
    from test_golden import GOLDEN

    for name, (shift, overrides, _, _) in sorted(GOLDEN.items()):
        sub = tmp_path / name
        sub.mkdir()
        yield json.loads(write_pipeline_fixture(sub, shift, overrides).read_text())


finite = dict(allow_nan=False, allow_infinity=False)
open_unit = st.floats(0, 1, exclude_min=True, exclude_max=True, **finite)
names = st.sampled_from(["x0", "x1", "y", "pred"])


def section(**values):
    return st.fixed_dictionaries({}, optional=values)


VALID_DOCS = st.fixed_dictionaries(
    {
        "schema": st.just(PIPELINE_SCHEMA_DOC),
        "data": st.fixed_dictionaries(
            {"reference": st.text(min_size=1), "current": st.text(min_size=1)},
            optional={"train": st.none() | st.text(min_size=1), "calibration": st.none() | st.text(min_size=1)},
        ),
    },
    optional={
        "seed": st.integers(0, 2**63),
        "missing_tokens": st.lists(st.text(max_size=4), unique=True),
        "drift": section(
            bins=st.integers(2, 100),
            epsilon=st.floats(1e-12, 1, **finite),
            numeric_metrics=st.lists(st.sampled_from(["ks", "psi", "jsd", "wasserstein1"]), unique=True),
            categorical_metrics=st.lists(st.sampled_from(["psi", "jsd", "tvd"]), unique=True),
            multivariate_metrics=st.lists(st.sampled_from(["energy", "mmd2", "pca_recon"]), unique=True),
            n_permutations=st.integers(99, 10_000),
            variance_fraction=st.floats(0, 1, exclude_min=True, **finite),
        ),
        "thresholds": section(psi=st.just({"warn": 0.2, "fail": 0.4}), ks=st.just({"warn": 0.1, "fail": 0.01})),
        "concept_drift": section(
            p_threshold=open_unit,
            k=st.integers(1, 50),
            match_metric=st.sampled_from(["euclidean_standardized", "mahalanobis"]),
            residual_test=st.sampled_from(["ks", "cvm"]),
        ),
        "conformal": section(alpha=open_unit),
        "segmentation": section(
            features=st.lists(names, unique=True), bins=st.integers(2, 20), min_rows=st.integers(1, 500)
        ),
        "robustness": section(
            irrelevant_features=st.lists(names, unique=True),
            invariance_mode=st.sampled_from(["permute", "constant"]),
            tolerance=st.floats(0, 1, **finite),
            noise_fraction=st.floats(0, 1, **finite),
            n_repeats=st.integers(1, 20),
        ),
        "quality": section(z_threshold=st.floats(0, 10, **finite), iqr_multiplier=st.floats(0, 10, **finite)),
        "model": section(command=st.none() | st.text(min_size=1), timeout=st.floats(0.1, 600, **finite)),
    },
)


class TestRoundTrip:
    """The CLI's --seed override rebuilds the config from ``cfg.effective``,
    so the echo must parse back to the same config."""

    def assert_round_trip(self, doc):
        cfg = build_config(doc)
        again = build_config(cfg.effective)
        assert again.effective == cfg.effective
        assert config_digest(again.effective) == config_digest(cfg.effective)

    def test_golden_fixture_docs(self, tmp_path):
        docs = list(golden_docs(tmp_path))
        assert len(docs) == 5
        for doc in docs:
            self.assert_round_trip(doc)

    @settings(max_examples=150, deadline=None)
    @given(VALID_DOCS)
    def test_valid_documents(self, doc):
        self.assert_round_trip(doc)
