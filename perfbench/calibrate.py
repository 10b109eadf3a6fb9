"""Calibration task: a fixed piece of Python and numpy work, timed
between the ops of a run to tell how fast the host runs such code at
that moment.

The shared sandbox the benchmark was sized on changes speed by up to 2x
over minutes, on every workload at once, so a run's raw op times say as
much about the host as about the program. The task does what utilrank's
ops do, at a small fixed size and with none of utilrank's code: draw
normal values from a pure-Python 64-bit generator, write them as CSV,
parse the CSV back, group the values by pair, sum them with
``math.fsum``, format and JSON-encode the results, and reduce a numpy
array. Dividing the median op by the median task of the same run
(``op_p50_rel``) cancels the host's speed; a change to utilrank moves
only the op.

The task runs in its own interpreter, which imports nothing from the
checkout, so the program's heap, caches and collector settings cannot
speed it up or slow it down. Protocol: one line on stdin runs the task
once and prints its wall time in seconds; end of input ends the process.

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
import time

import numpy as np

ALTERNATIVES, ATTRIBUTES, SITUATIONS = 200, 10, 10
MASK = (1 << 64) - 1


def generate() -> str:
    """CSV text of normal draws from a pure-Python 64-bit generator
    (splitmix64 and Box-Muller), written with ``csv.writer``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["alternative", "attribute", "situation", "utility"])
    state = 20250717
    for i in range(ALTERNATIVES):
        for j in range(ATTRIBUTES):
            for s in range(1, SITUATIONS + 1):
                state = (state + 0x9E3779B97F4A7C15) & MASK
                z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
                u1, u2 = ((z ^ (z >> 31)) >> 11) * 2.0 ** -53, (z & 0xFFFFFF) * 2.0 ** -24
                utility = 0.5 + 0.1 * math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(6.28 * u2)
                writer.writerow([f"A{i:04d}", f"k{j:02d}", f"s{s:05d}", repr(utility)])
    return out.getvalue()


def task() -> int:
    """One pass of the task; returns the length of its JSON output."""
    rows = csv.reader(io.StringIO(generate()))
    next(rows)
    groups: dict[tuple[str, str], list[float]] = {}
    for alternative, attribute, _situation, utility in rows:
        groups.setdefault((alternative, attribute), []).append(float(utility))
    summary = []
    for (alternative, attribute), values in sorted(groups.items()):
        mean = math.fsum(values) / len(values)
        variance = math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)
        summary.append({"pair": f"{alternative}/{attribute}", "mean": repr(mean),
                        "variance": variance})
    matrix = np.array([s["variance"] for s in summary]).reshape(ALTERNATIVES, ATTRIBUTES)
    p = matrix / matrix.sum(axis=0)
    entropy = -(p * np.log(p)).sum(axis=0)
    return len(json.dumps({"summary": summary, "entropy": entropy.tolist()}))


def main() -> int:
    for _ in sys.stdin:
        start = time.perf_counter()
        task()
        print(time.perf_counter() - start, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
