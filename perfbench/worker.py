"""Timed worker: a fresh interpreter that imports modelwatch and runs jobs.

Usage: ``python3 perfbench/worker.py WORKDIR WORKLOAD SECONDS TRACE``, with
``src`` on ``PYTHONPATH`` and the workload's inputs already in WORKDIR.
Writes ``result.json`` (and, when TRACE is 1, ``spans.json``) into WORKDIR.

TRACE 0 runs untraced jobs for SECONDS. TRACE 1 runs untraced jobs for half
of SECONDS, traced jobs for the other half, then one job under
``tracemalloc`` for the per-kernel memory peaks. Every phase runs at least
one job.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
import tracemalloc
from pathlib import Path
from time import perf_counter


def run_phase(timed, check, seconds: float, tracer=None, min_jobs: int = 1) -> list[dict]:
    jobs: list[dict] = []
    deadline = perf_counter() + seconds
    while len(jobs) < min_jobs or perf_counter() < deadline:
        if tracer is not None:
            tracer.job = len(jobs)
        start = perf_counter()
        try:
            result = timed()
            wall_s = perf_counter() - start
            outcome = check(result)
        except Exception:
            traceback.print_exc()
            jobs.append({"wall_s": perf_counter() - start, "digest": None,
                         "failures": ["raised " + traceback.format_exc(limit=1).strip()],
                         "verdict_errors": [], "stage_errors": 0})
            continue
        jobs.append({"wall_s": wall_s, "digest": outcome.digest, "failures": outcome.failures,
                     "verdict_errors": outcome.verdict_errors, "stage_errors": outcome.stage_errors})
    return jobs


def main(argv: list[str]) -> int:
    workdir, name, seconds, trace = Path(argv[0]), argv[1], float(argv[2]), argv[3] == "1"
    start = perf_counter()
    import modelwatch

    import_s = perf_counter() - start
    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(modelwatch.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"imported {modelwatch.__file__}, not the modelwatch under {src}")
    import tracer as tracing
    import workloads

    timed, check = workloads.make_job(name, workdir)
    out: dict = {"import_s": import_s,
                 "import_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    window = seconds / 2 if trace else seconds
    phase_start = perf_counter()
    first = run_phase(timed, check, 0.0)
    # peak of a fresh process that has run one job; ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rest = run_phase(timed, check, window - (perf_counter() - phase_start), min_jobs=0)
    out["plain"] = first + rest
    if trace:
        tr = tracing.Tracer()
        tr.install()
        out["traced"] = run_phase(timed, check, seconds / 2, tr)
        tr.uninstall()
        spans = tr.spans
        tr = tracing.Tracer()
        tr.install()
        tracemalloc.start()
        out["tracemalloc"] = run_phase(timed, check, 0.0, tr)
        tracemalloc.stop()
        tr.uninstall()
        out["peaks"] = tracing.peak_values(tr.spans)
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (workdir / "result.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
