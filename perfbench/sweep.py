"""Run the benchmark over several seeds and collect the results.

    python3 perfbench/sweep.py --runs 10 --out results.jsonl
    python3 perfbench/sweep.py --runs 10 --checkout ../parent --out parent.jsonl \
                                         --checkout . --out change.jsonl

Each checkout is run with the command its own ``BENCHMARK.json`` names,
from its root, as ``--workload W --seed S --seconds T --trace 0``, with
T that file's ``run_seconds``. Seeds are 1..runs. With two checkouts
every (workload, seed) is a pair, and the side that runs first alternates
from one seed to the next. Each ``--out`` file is emptied at the start;
each run's final JSON line is then appended to its checkout's file as
``{"workload", "seed", "result"}``; read the files with compare.py.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    bench = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{checkout}: {' '.join(argv)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark over several seeds.")
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout root to run (repeat for a paired run; default: this one)")
    parser.add_argument("--out", action="append", required=True,
                        help="JSON-lines result file, one per --checkout, in the same order")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    args = parser.parse_args()

    checkouts = [c.resolve() for c in args.checkout or [HERE.parent]]
    if len(checkouts) != len(args.out):
        parser.error("give one --out per --checkout")
    bench = json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for out in args.out:
        open(out, "w", encoding="utf-8").close()

    for seed in range(1, args.runs + 1):
        for workload in workloads:
            order = list(range(len(checkouts)))
            if seed % 2 == 0:
                order.reverse()
            for side in order:
                result = run_once(checkouts[side], workload, seed)
                with open(args.out[side], "a", encoding="utf-8") as out:
                    out.write(json.dumps({"workload": workload, "seed": seed,
                                          "result": result}) + "\n")
                shown = "  ".join(f"{name}={m['value']:.5g} {m['unit']}"
                                  for name, m in result["metrics"].items())
                print(f"{workload:<16} seed {seed:<3} {args.out[side]}: "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']}  {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
