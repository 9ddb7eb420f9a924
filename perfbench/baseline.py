"""Record the benchmark's baseline: every workload on several seeds.

Usage, from the repository root: ``python3 perfbench/baseline.py``.
Runs ``run.py --trace 0`` on each seed in ``SEEDS`` and ``--trace 1`` on
each seed in ``TRACE_SEEDS``, for every workload, one run at a time, and writes
``perfbench/baseline.json``: for every metric its median, quartiles and
spread (quartile distance / median, as ``statistics.quantiles(n=4)`` gives
them), the verdict errors seen per seed, and the machine.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import run
import workloads

SEEDS = list(range(1, 11))
TRACE_SEEDS = [1, 2]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"median": median, "min": min(values), "max": max(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
    return out


def run_once(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line.strip() for line in lines if "verdict error" in line]


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]

    record: dict = {"machine": run.machine(), "run_seconds": seconds, "workloads": {}}
    for name in workloads.WORKLOADS:
        entry: dict = {"seeds": SEEDS, "trace_seeds": TRACE_SEEDS, "runs": []}
        values: dict[str, list[float]] = {}
        for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS)):
            for seed in seeds:
                result, verdict_errors = run_once(name, seed, seconds, trace)
                entry["runs"].append({"seed": seed, "trace": trace, "correct": result["correct"],
                                      "attempted": result["attempted"], "failed": result["failed"],
                                      "verdict_errors": verdict_errors})
                for metric, value in result["metrics"].items():
                    values.setdefault(metric, []).append(value["value"])
                print(name, seed, trace, json.dumps(result), flush=True)
        entry["metrics"] = {metric: summarize(v) for metric, v in values.items()}
        record["workloads"][name] = entry
    out = run.HERE / "baseline.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
