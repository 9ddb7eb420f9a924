"""External model for the ``external_model`` workload: a fixed linear scorer.

Follows the modelwatch external-model protocol: RFC-4180 CSV with a header
on stdin, one decimal prediction per row on stdout, in input order. It reads
x0..x6 and c0 and never looks at x7, the feature the workload declares
irrelevant, so x7 must show zero sensitivity and pass the invariance check.
"""

import csv
import sys

WEIGHTS = {"x0": 0.8, "x1": -0.5, "x2": 0.3, "x3": 0.6, "x4": -0.2, "x5": 0.4, "x6": 0.1}
CATEGORY_EFFECT = {"a": 0.0, "b": 0.3, "c": -0.2}


def predict(row: dict) -> float:
    total = CATEGORY_EFFECT[row["c0"]]
    for name, weight in WEIGHTS.items():
        total += weight * float(row[name])
    return total


def main() -> None:
    out = [repr(predict(row)) for row in csv.DictReader(sys.stdin)]
    sys.stdout.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
