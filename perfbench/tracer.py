"""Spans around the calls into each modelwatch layer, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every loaded ``modelwatch`` module that binds it (``from .data import
load_csv`` makes a second binding), so ``src/`` stays untouched. Spans are
kept in memory as dicts with name, start, end, parent span index and job
id; ``layer_metrics`` turns them into the per-layer metrics.

When ``tracemalloc`` is tracing, the leaf kernels in ``PEAK_SPANS`` also
record the peak traced memory above their starting level.
"""

from __future__ import annotations

import statistics
import sys
import tracemalloc
from time import perf_counter


def _rows(result) -> dict:
    frame = getattr(result, "frame", result)
    return {"rows": frame.n_rows}


def _matches(result) -> dict:
    matched = result.matched_dev_indices
    return {"matches": int(matched.size), "unique": int(len(set(matched.ravel().tolist())))}


def _iters(result) -> dict:
    return {"iters": int(result.n_iter)}


def _bytes(result) -> dict:
    return {"bytes": len(result.encode())}


# (module, function, span name, attribute recorder)
TRACE_POINTS = (
    ("modelwatch.config", "parse_config", "config.parse", None),
    ("modelwatch.data", "load_csv", "data.load_csv", _rows),
    ("modelwatch.report", "run_monitor", "report.run_monitor", None),
    ("modelwatch.report", "render_report", "report.render", None),
    ("modelwatch.report", "quality_section", "quality.section", None),
    ("modelwatch.report", "uncertainty_section", "conformal.section", None),
    ("modelwatch.report", "weakness_section", "outcome.weakness", None),
    ("modelwatch.quality", "outliers_lof", "quality.outliers_lof", None),
    ("modelwatch.quality", "outliers_pca_mahalanobis", "quality.outliers_pca_mahalanobis", None),
    ("modelwatch.shift", "drift_scan", "shift.drift_scan", None),
    ("modelwatch.shift", "permutation_pvalue", "shift.permutation_pvalue", None),
    ("modelwatch.shift", "energy_distance", "shift.statistic", None),
    ("modelwatch.shift", "mmd2", "shift.statistic", None),
    ("modelwatch.shift", "ks_two_sample", "shift.univariate", None),
    ("modelwatch.shift", "make_histogram_pair", "shift.univariate", None),
    ("modelwatch.shift", "make_frequency_pair", "shift.univariate", None),
    ("modelwatch.shift", "wasserstein1", "shift.univariate", None),
    ("modelwatch.concept", "classify_drift", "concept.classify_drift", None),
    ("modelwatch.concept", "nn_match", "concept.nn_match", _matches),
    ("modelwatch.concept", "residual_two_sample_test", "concept.residual_test", None),
    ("modelwatch.outcome", "kmeans", "outcome.kmeans", _iters),
    ("modelwatch.outcome", "perturbation_test", "outcome.perturbation", None),
    ("modelwatch.outcome", "invariance_test", "outcome.invariance", None),
    ("modelwatch.external", "score_external", "external.score", None),
    ("modelwatch.external", "frame_to_csv", "external.frame_to_csv", _bytes),
)

PEAK_SPANS = frozenset({"shift.permutation_pvalue", "concept.nn_match", "quality.outliers_lof"})

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str, recorder):
        track_peak = name in PEAK_SPANS

        def traced(*args, **kwargs):
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "job": self.job,
                "start": perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            base = 0
            if track_peak and tracemalloc.is_tracing():
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
                if track_peak and tracemalloc.is_tracing():
                    span["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / MB
            if recorder is not None:
                span.update(recorder(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every trace point in every loaded modelwatch module."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "modelwatch"]
        for module_name, attr, name, recorder in TRACE_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(original, name, recorder)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _under(spans: list[dict], span: dict, ancestor: str) -> bool:
    parent = span["parent"]
    while parent is not None:
        if spans[parent]["name"] == ancestor:
            return True
        parent = spans[parent]["parent"]
    return False


def _job_values(spans: list[dict], own: list[float], members: list[int]) -> dict[str, float]:
    """Per-layer values of one job, whose spans are ``spans[i]`` for ``i`` in ``members``."""
    mine = [(spans[i], own[i]) for i in members]

    def total(name: str, key: str | None = None) -> float:
        if key is None:
            return sum(s["end"] - s["start"] for s, _ in mine if s["name"] == name)
        return sum(s.get(key, 0) for s, _ in mine if s["name"] == name)

    def self_time(name: str) -> float:
        return sum(t for s, t in mine if s["name"] == name)

    def count(name: str, errors: bool = False) -> int:
        return sum(1 for s, _ in mine if s["name"] == name and (not errors or s.get("error")))

    load_s = total("data.load_csv")
    matches = total("concept.nn_match", "matches")
    return {
        "data.load_csv_s": load_s,
        "data.load_csv_rows_per_s": total("data.load_csv", "rows") / load_s if load_s else 0.0,
        "quality.section_s": self_time("quality.section"),
        "quality.outliers_lof_s": self_time("quality.outliers_lof"),
        "shift.permutation_pvalue_s": self_time("shift.permutation_pvalue"),
        "shift.permutation_pvalue_calls": count("shift.permutation_pvalue"),
        "shift.statistic_s": self_time("shift.statistic"),
        "shift.univariate_s": sum(
            t for s, t in mine
            if s["name"] == "shift.univariate" and _under(spans, s, "shift.drift_scan")
        ),
        "concept.nn_match_s": self_time("concept.nn_match"),
        "concept.matched_unique_frac": total("concept.nn_match", "unique") / matches if matches else 0.0,
        "conformal.section_s": self_time("conformal.section"),
        "outcome.weakness_s": self_time("outcome.weakness"),
        "outcome.kmeans_s": self_time("outcome.kmeans"),
        "outcome.kmeans_iters": total("outcome.kmeans", "iters"),
        "outcome.perturbation_self_s": self_time("outcome.perturbation"),
        "external.calls": count("external.score"),
        "external.frame_to_csv_s": self_time("external.frame_to_csv"),
        "external.wait_s": self_time("external.score"),
        "external.bytes_out": total("external.frame_to_csv", "bytes"),
        "external.errors": count("external.score", errors=True),
        "report.assemble_s": self_time("report.run_monitor") + total("report.render"),
        "config.parse_s": total("config.parse"),
    }


def peak_values(spans: list[dict]) -> dict[str, float]:
    """Largest traced-memory peak of each ``PEAK_SPANS`` kernel, in MB."""
    def peak(name: str) -> float:
        return max((s.get("peak_mb", 0.0) for s in spans if s["name"] == name), default=0.0)

    return {
        "quality.outliers_lof_peak_mb": peak("quality.outliers_lof"),
        "shift.permutation_pvalue_peak_mb": peak("shift.permutation_pvalue"),
        "concept.nn_match_peak_mb": peak("concept.nn_match"),
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over jobs of each job's per-layer values."""
    own = _self_times(spans)
    jobs: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        jobs.setdefault(span["job"], []).append(i)
    per_job = [_job_values(spans, own, members) for members in jobs.values()]
    return {key: statistics.median(v[key] for v in per_job) for key in per_job[0]}
