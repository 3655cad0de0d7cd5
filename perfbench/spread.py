"""Summarize results files written by `run.py --out`.

    python3 perfbench/spread.py FILE.jsonl [FILE.jsonl ...]

For each (commit, workload, traced) group and each metric: the number of
runs, the median, the quartiles (statistics.quantiles, n=4) and the spread,
which is the distance between the quartiles as a share of the median.  Run
it on ten seeds per workload to see whether every spread stays within its
metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main(paths: list[str]) -> int:
    bounds = {m["name"]: m.get("bound") for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    groups: dict[tuple, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    failures = defaultdict(int)
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            p, result = record["provenance"], record["result"]
            key = (p["commit"][:12], p["workload"], "traced" if p["traced"] else "untraced")
            failures[key] += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                groups[key][name].append(metric["value"])
    for key in sorted(groups):
        print(" ".join(key), f"failures={failures[key]}")
        for name, values in groups[key].items():
            if len(values) < 2:
                print(f"  {name:44s} n={len(values)} value={values[0]:.6g}")
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            verdict = "" if bound is None else (" ok" if spread <= bound / 3 else
                                                " within bound" if spread <= bound else " WIDE")
            print(f"  {name:44s} n={len(values)} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.3f}" + (f" bound={bound}{verdict}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
