"""modelwatch benchmark: run one seeded workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs (CSVs, config, scorer) are generated from the seed
into a scratch directory under ``.perfbench_work/``; generation is not
timed. The modelwatch under ``src/`` is then measured in fresh child
interpreters:

* ``--trace 0`` prints the end-to-end metrics: ``run_s`` (median wall time
  of a job in a warm process, untraced), ``rows_per_s``, ``peak_rss_mb`` (a
  fresh process that has run one job) and ``setup_s`` (median over
  ``SETUP_REPEATS`` fresh interpreters of ``import modelwatch`` plus
  ``parse_config``).
* ``--trace 1`` prints the per-layer metrics from spans recorded around the
  calls into each module (see ``tracer.py``), the ``tracemalloc`` peaks of
  the quadratic kernels, and the tracing overhead.

Every job is checked: it fails if it raises, returns ``status !=
"complete"``, exits with another code than the workload expects, or
produces output bytes that differ from the first job of the run or from an
earlier run of the same seed and source tree. Planted-truth checks that the
job gets wrong are counted as verdict errors. The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DIGESTS = WORK / "digests.json"
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
PROBE = "import sys, modelwatch.config as c\nif len(sys.argv) > 1: c.parse_config(sys.argv[1])"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["SOURCE_DATE_EPOCH"] = workloads.SOURCE_DATE_EPOCH
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def machine() -> dict:
    """What a recorded measurement ran on."""
    model = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        model = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                      if line.startswith("model name")), "")
    return {
        "cpu": model or platform.machine(),
        "cpus": len(os.sched_getaffinity(0)),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def source_hash() -> str:
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "modelwatch").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_against_store(key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same key recorded."""
    store = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    if key in store:
        return None if store[key] == digest else "output differs from an earlier run of this seed"
    store[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, DIGESTS)
    return None


def percentile_note(values: list[float]) -> str:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0, 50.0):
        beyond = int(len(ordered) * (1 - p / 100))
        if beyond >= 10:
            return f"p{p:g} {ordered[len(ordered) - beyond - 1]:.4f} s"
    return "no percentile has ten samples beyond it"


def run_worker(workdir: Path, name: str, seconds: float, trace: int, env: dict,
               timeout: float = WORKER_TIMEOUT_S) -> dict:
    """Run ``worker.py`` in ``workdir`` and return its result."""
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(workdir), name, str(seconds),
                    str(trace)], env=env, cwd=workdir, check=True, timeout=timeout)
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def setup_times(config: Path | None, env: dict) -> list[float]:
    args = [sys.executable, "-c", PROBE] + ([str(config)] if config else [])
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(args, env=env, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "modelwatch" / "__init__.py").is_file():
        print(f"perfbench: no modelwatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        workloads.generate(args.workload, args.seed, workdir)
        rows = workloads.rows_per_job(args.workload, workdir)
        result = run_worker(workdir, args.workload, args.seconds, args.trace, env)
        config = workdir / "config.json"
        setup = [] if args.trace else setup_times(config if config.exists() else None, env)
        if args.trace:
            spans = json.loads((workdir / "spans.json").read_text(encoding="utf-8"))
            shutil.copy(workdir / "spans.json", WORK / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs = result["plain"] + result.get("traced", []) + result.get("tracemalloc", [])
    first = jobs[0]["digest"]
    for job in jobs:
        if job["digest"] is not None and job["digest"] != first:
            job["failures"].append("output differs from the first job of the run")
    if first is not None:
        stored = check_against_store(f"{args.workload}:{args.seed}:{source_hash()}", first)
        if stored:
            for job in jobs:
                job["failures"].append(stored)
    failed = sum(1 for job in jobs if job["failures"])
    verdict_errors = max(len(job["verdict_errors"]) for job in jobs)
    unexpected = any(not workloads.is_known_defect(args.workload, e)
                     for job in jobs for e in job["verdict_errors"])

    plain_s = [job["wall_s"] for job in result["plain"]]
    run_s = statistics.median(plain_s)
    if args.trace:
        traced_s = [job["wall_s"] for job in result["traced"]]
        metrics = tracer.layer_metrics(spans)
        metrics.update(result["peaks"])
        metrics["setup.import_s"] = result["import_s"]
        metrics["report.stage_errors"] = max(job["stage_errors"] for job in result["traced"])
        metrics["trace.overhead_s"] = statistics.median(traced_s) - run_s
        metrics["gate.verdict_errors"] = verdict_errors
    else:
        metrics = {
            "run_s": run_s,
            "rows_per_s": rows / run_s,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    print(f"workload {args.workload}, seed {args.seed}, {rows} input rows per job, "
          f"{threads} BLAS threads")
    print(f"run_s: median {run_s:.4f} s over {len(plain_s)} untraced jobs; {percentile_note(plain_s)}")
    print(f"failed_frac: {failed}/{len(jobs)}")
    for message in sorted({f for job in jobs for f in job["failures"]}):
        print(f"  failure: {message}")
    print(f"verdict_errors: {verdict_errors} per job")
    for message in sorted({e for job in jobs for e in job["verdict_errors"]}):
        known = workloads.is_known_defect(args.workload, message)
        print(f"  verdict error{' (known defect)' if known else ''}: {message}")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and not unexpected,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
