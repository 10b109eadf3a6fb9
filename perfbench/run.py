"""utilrank benchmark: one run of one workload.

    python3 perfbench/run.py --workload rank-wide --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. A run:

1. times ``import utilrank`` in fresh interpreters before and after the
   ops (``setup_s``, median of both), when untraced;
2. builds the workload's inputs from the seed in a separate process, so
   their memory peak cannot mask the ops';
3. runs the ops for ``--seconds`` in a worker process, with passes of
   the calibration task between them (see worker.py, calibrate.py);
4. checks every op's output (see check.py) and prints the metrics, one
   per line with its unit, then one JSON object as the last line:
   end-to-end metrics when untraced, per-layer metrics with ``--trace 1``.

Scratch files live under ``.bench_out/`` in the checkout; only the span
file of a traced run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
SETUP_RUNS = 5  # fresh interpreters before the ops, and as many after
TAIL_BEYOND = 10  # ops a tail percentile must have beyond it

# Child that reports when ``import utilrank`` returned, on the same
# monotonic clock the parent read before starting it.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import utilrank\n"
    "done = time.perf_counter()\n"
    "if not utilrank.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit(f'utilrank imported from {utilrank.__file__}')\n"
    "print(done)\n"
)


def measure_setup() -> list[float]:
    """Wall times from starting a fresh interpreter until ``import
    utilrank`` (numpy included) returns, one per interpreter."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True,
                              capture_output=True, text=True).stdout
        times.append(float(done) - start)
    return times


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    ``TAIL_BEYOND`` ops beyond it. With fewer than twice that many ops no
    such percentile lies above the median, and the median is given."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def judge(manifest: dict, ops: list[dict], kept: dict[str, str]) -> tuple[int, int, list[str]]:
    """(failed ops, failed methods, problems) of a run.

    An op fails when it raised or exited nonzero, when its output bytes
    differ from the first op's, or when the checker rejects its output.
    """
    verdicts = {}
    for digest, path in kept.items():
        try:
            verdicts[digest] = check.check_output(manifest, Path(path))
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            verdicts[digest] = ([f"checker could not read the output: {exc!r}"], 0)
    first = ops[0]["digest"]
    failed_ops = failed_methods = 0
    problems: list[str] = []
    for number, op in enumerate(ops):
        if op["status"] != "ok":
            problems.append(f"op {number}: {op['status']}")
        elif op["digest"] != first:
            problems.append(f"op {number}: output bytes differ from op 0's")
        elif verdicts[first][0]:
            problems.append(f"op {number}: " + "; ".join(verdicts[first][0][:3]))
        else:
            continue
        failed_ops += 1
    for op in ops:
        failed_methods += verdicts.get(op["digest"], ([], 0))[1]
    return failed_ops, failed_methods, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="One run of one utilrank benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "utilrank" / "__init__.py").is_file():
        print(f"no utilrank sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    spans = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        # Probes on both sides of the ops sample the host at two times.
        setup_times = [] if args.trace else measure_setup()
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--dir", str(work), "--src", str(SRC)],
                       check=True)
        subprocess.run([sys.executable, str(HERE / "worker.py"), "--work", str(work),
                        "--src", str(SRC), "--seconds", str(args.seconds),
                        "--trace", str(args.trace), "--result", str(work / "result.json"),
                        "--spans", str(spans)],
                       check=True, stdout=subprocess.DEVNULL)
        if not args.trace:
            setup_times += measure_setup()
        manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failed_ops, failed_methods, problems = judge(manifest, result["ops"], result["kept"])
    except subprocess.CalledProcessError as exc:
        print(f"benchmark step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    timed = [op["wall_s"] for op in ops if not op["warmup"] and not op["traced"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(ops)} ops ({len(timed)} timed untraced, 1 warm-up)")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    methods = manifest["methods_per_op"] * len(ops)
    print(f"  {'ops_failed_frac':<32} {failed_ops / len(ops):.6g} ({failed_ops}/{len(ops)})")
    print(f"  {'method_failed_frac':<32} "
          f"{failed_methods / methods if methods else 0:.6g} ({failed_methods}/{methods})")

    if args.trace:
        header, span_list = tracing.load(spans)
        metrics = tracing.layer_metrics(header, span_list)
        print(tracing.summary(header, span_list))
        print(f"  spans written to {spans}")
    else:
        op_p50_s = statistics.median(timed)
        calibration_p50_s = statistics.median(result["calibration_s"])
        metrics = {
            "op_p50_rel": op_p50_s / calibration_p50_s,
            "peak_rss_mb": result["peak_rss_kib"] / 1024,
            "setup_s": statistics.median(setup_times),
        }
        # Printed, not gated: see "End-to-end metrics" in README.md.
        tail_s, tail_pct = tail(timed)
        samples_per_s = manifest["samples_per_op"] * len(timed) / sum(timed)
        print(f"  {'op_p50_s':<32} {op_p50_s:.6g} s")
        print(f"  {'op_tail_s':<32} {tail_s:.6g} s (p{tail_pct:.4g} of {len(timed)} timed ops)")
        print(f"  {'samples_per_s':<32} {samples_per_s:.6g} samples/s")
        print(f"  {'calibration_p50_s':<32} {calibration_p50_s:.6g} s "
              f"(of {len(result['calibration_s'])} calibration passes)")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:.6g} {UNITS[name]}")

    print(json.dumps({
        "correct": failed_ops == 0,
        "attempted": len(ops),
        "failed": failed_ops,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
