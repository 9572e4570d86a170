"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines of run.py (its last output line), one per run,
for one workload and one --trace setting, for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload report-mid --seed $seed \
          --seconds 36 --trace 0 | tail -n 1 >> base.jsonl
    done

For every metric it prints both medians, the change, and each side's
spread (quartile distance over median). It gives no verdict: its output is
advisory, and two unpaired medians are no proof of a gain or a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: str) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        result = json.loads(line)
        if not result["correct"]:
            print(f"{path}: a run reports failed={result['failed']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def main() -> int:
    base, new = load(sys.argv[1]), load(sys.argv[2])
    print(f"{'metric':42s} {'base':>12s} {'new':>12s} {'change':>8s} "
          f"{'b.spread':>8s} {'n.spread':>8s}")
    for name in sorted(set(base) & set(new)):
        b, n = statistics.median(base[name]), statistics.median(new[name])
        change = (n - b) / abs(b) if b else 0.0
        print(f"{name:42s} {b:12.6g} {n:12.6g} {change:+8.2%} "
              f"{spread(base[name]):8.2%} {spread(new[name]):8.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
