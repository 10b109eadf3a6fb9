"""Compare two result sets, or show the spread of one.

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py results.jsonl

Result sets are the JSON-lines files sweep.py writes. For each
(workload, end-to-end metric) of ``BENCHMARK.json``, with its bound B:

- one set: median, quartiles, and the quartile spread as a share of the
  median, flagged ``wide`` above B/3 and ``over`` above B;
- two sets (parent first): both medians and quartiles, the pairs the
  change won (runs with the same seed pair up; ties count for neither),
  and a verdict:
  - ``better``: the change won at least 9/10 of all pairs and its median
    is better than the parent's by more than the parent's quartile spread;
  - ``worse``: the change's median is worse than the parent's by more
    than B;
  - ``unresolved``: neither, and the parent's quartile spread exceeds B,
    unless every change run reads better than every parent run;
  - ``unchanged``: otherwise.

The command exits 1 when any verdict is ``worse`` or any change run
failed an op, so a script can gate on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> tuple[dict[tuple[str, str], dict[int, float]], int]:
    """((workload, metric) -> {seed: value}, failed ops) of a result set."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    failed = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        failed += record["result"]["failed"]
        for name, metric in record["result"]["metrics"].items():
            by_seed = values.setdefault((record["workload"], name), {})
            if record["seed"] in by_seed:
                raise SystemExit(f"{path}: {record['workload']} seed {record['seed']} "
                                 "appears more than once")
            by_seed[record["seed"]] = metric["value"]
    return values, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict[int, float], change: dict[int, float], bound: float,
            lower_is_better: bool) -> tuple[str, int, int]:
    """(verdict, pairs the change won, pairs) by the rules in the docstring."""
    sign = -1.0 if lower_is_better else 1.0  # sign * (b - a) > 0 means b is better
    seeds = sorted(parent.keys() & change.keys())
    won = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    a_q1, a_med, a_q3 = quartiles(list(parent.values()))
    b_med = statistics.median(change.values())
    gain = sign * (b_med - a_med)
    if seeds and won >= 0.9 * len(seeds) and gain > a_q3 - a_q1:
        return "better", won, len(seeds)
    if -gain > bound * abs(a_med):
        return "worse", won, len(seeds)
    if a_q3 - a_q1 > bound * abs(a_med):
        if lower_is_better and max(change.values()) < min(parent.values()):
            return "unchanged", won, len(seeds)
        if not lower_is_better and min(change.values()) > max(parent.values()):
            return "unchanged", won, len(seeds)
        return "unresolved", won, len(seeds)
    return "unchanged", won, len(seeds)


def main() -> int:
    parser = argparse.ArgumentParser(description="Compare benchmark result sets.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    args = parser.parse_args()

    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    parent, parent_failed = load(args.parent)
    change, change_failed = load(args.change) if args.change else (None, 0)
    status = 0
    print(f"failed ops: {parent_failed} in {args.parent}"
          + (f", {change_failed} in {args.change}" if args.change else ""))
    if change_failed:
        status = 1
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%})")
        for workload in workloads:
            a = parent.get((workload, name))
            if not a:
                continue
            a_q1, a_med, a_q3 = quartiles(list(a.values()))
            spread = (a_q3 - a_q1) / abs(a_med)
            row = (f"  {workload:<16} n={len(a):<3} median {a_med:<11.5g} "
                   f"q1 {a_q1:<11.5g} q3 {a_q3:<11.5g} spread {spread:6.1%}")
            if change is None:
                flag = "over" if spread > bound else "wide" if spread > bound / 3 else "ok"
                print(f"{row}  {flag}")
                continue
            b = change.get((workload, name))
            if not b:
                print(f"{row}  | missing from {args.change}")
                continue
            b_q1, b_med, b_q3 = quartiles(list(b.values()))
            outcome, won, pairs = verdict(a, b, bound, lower)
            status |= outcome == "worse"
            print(f"{row}  | median {b_med:<11.5g} q1 {b_q1:<11.5g} q3 {b_q3:<11.5g} "
                  f"{(b_med - a_med) / abs(a_med):+7.1%}  won {won}/{pairs}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
