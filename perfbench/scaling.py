"""One-off scaling record: run_s and peak_rss_mb against rows per side.

Usage, from the repository root: ``python3 perfbench/scaling.py``.
Runs one untraced job of seed ``SEED`` in a fresh worker at each size
below and writes the points plus the fitted log-log exponents to
``perfbench/scaling.json``. It
is not part of the gated benchmark; it gives later sub-quadratic work a
curve to beat.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 0
SIZES = {"drift_multivariate": (500, 1000, 2000), "wide_rows": (2500, 5000)}


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def measure(name: str, n: int, seed: int, env: dict) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=f"scaling-{name}-{n}-", dir=run.WORK))
    try:
        workloads.generate(name, seed, workdir, n)
        result = run.run_worker(workdir, name, 0, 0, env, timeout=600)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    job = result["plain"][0]
    return {"rows_per_side": n, "run_s": job["wall_s"], "peak_rss_mb": result["peak_rss_mb"],
            "import_rss_mb": result["import_rss_mb"],
            "failures": job["failures"], "verdict_errors": job["verdict_errors"]}


def main() -> int:
    threads = len(os.sched_getaffinity(0))
    env = run.child_env(threads)
    run.WORK.mkdir(exist_ok=True)
    record: dict = {"seed": SEED, "blas_threads": threads, "machine": run.machine(),
                    "workloads": {}}
    for name, sizes in SIZES.items():
        points = []
        for n in sizes:
            points.append(measure(name, n, SEED, env))
            print(json.dumps({"workload": name, **points[-1]}), flush=True)
        rows = [p["rows_per_side"] for p in points]
        record["workloads"][name] = {
            "points": points,
            "run_s_exponent": slope(rows, [p["run_s"] for p in points]),
            "peak_rss_mb_exponent": slope(rows, [p["peak_rss_mb"] for p in points]),
            # the interpreter and imports are a fixed ~100 MB; this is the job's own growth
            "peak_rss_above_import_exponent": slope(
                rows, [p["peak_rss_mb"] - p["import_rss_mb"] for p in points]
            ),
        }
    out = run.HERE / "scaling.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
