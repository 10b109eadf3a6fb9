"""Runs one workload's ops in a closed loop and records what each produced.

One client, one op at a time, one thread: each op is a call of
``utilrank.cli.main`` in this process. The first op warms up and is
checked but not timed. With ``--trace 1`` ops alternate between untraced
and traced, so both see the same heap and machine state; the spans of
the traced ops are written as JSON lines when the loop ends.

Between ops, the calibration task (calibrate.py) runs in its own
process whenever its summed time is below ``CALIBRATION_SHARE`` of the
ops', so both sample the same stretches of the run. It runs on the CPU
this process last ran on, because the two CPUs of the sandbox the
benchmark was sized on change speed independently of each other. Its
wall times are recorded next to the ops', never inside them.

This process runs nothing but the ops, so its peak RSS is theirs plus
the interpreter and its imports. Usage (normally started by run.py):

    python3 perfbench/worker.py --work WORK --src src --seconds 35 --trace 0 \
        --result WORK/result.json [--spans FILE]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing

CALIBRATION_SHARE = 0.25
CALIBRATOR = Path(__file__).resolve().with_name("calibrate.py")


def output_digest(path: Path) -> str | None:
    """sha256 over an output file, or over a directory's files in name
    order; None when the op left nothing there."""
    if path.is_dir():
        h = hashlib.sha256()
        for child in sorted(path.iterdir()):
            h.update(child.name.encode() + b"\0" + child.read_bytes() + b"\0")
        return h.hexdigest()
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    return None


def current_cpu() -> int:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    stat = Path("/proc/self/stat").read_text(encoding="ascii")
    return int(stat.rsplit(")", 1)[1].split()[36])


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def run_op(main, argv: list[str]) -> tuple[float, str]:
    """One timed call of the CLI; returns (wall seconds, status)."""
    start = time.perf_counter()
    try:
        code = main(argv)
        status = "ok" if code == 0 else f"exit {code}"
    except SystemExit as exc:  # argparse rejects bad arguments this way
        status = f"exit {exc.code}"
    except Exception as exc:  # an op that raises is a failed op, not a crash
        status = f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import utilrank.cli

    if src not in Path(utilrank.__file__).resolve().parents:
        print(f"utilrank was imported from {utilrank.__file__}, not {src}", file=sys.stderr)
        return 2

    work = Path(args.work)
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    argv, output = manifest["argv"], Path(manifest["output"])
    kept_dir = work / "kept"
    kept: dict[str, str] = {}
    ops: list[dict] = []
    tracer = tracing.Tracer() if args.trace else None
    gc_watch = tracing.GcWatch() if args.trace else None

    def one_op(index: int, traced: bool, warmup: bool) -> None:
        remove(output)
        if traced:
            tracer.begin_op(index)
            gc_watch.start()
            wall, status = run_op(lambda a: tracer.call(tracing.ROOT, utilrank.cli.main, a), argv)
            gc_watch.stop()
            tracer.end_op()
        else:
            wall, status = run_op(utilrank.cli.main, argv)
        digest = output_digest(output) if status == "ok" else None
        if status == "ok" and digest is None:
            status = "exit 0 without output"
        if digest is not None and digest not in kept:
            kept[digest] = str(kept_dir / str(len(kept)) / output.name)
            Path(kept[digest]).parent.mkdir(parents=True)
            (shutil.copytree if output.is_dir() else shutil.copyfile)(output, kept[digest])
        ops.append({"wall_s": wall, "status": status, "digest": digest,
                    "traced": traced, "warmup": warmup})

    calibration: list[float] = []
    with subprocess.Popen([sys.executable, str(CALIBRATOR)], stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, text=True) as calibrator:

        def calibrate() -> float:
            os.sched_setaffinity(calibrator.pid, {current_cpu()})
            calibrator.stdin.write("\n")
            calibrator.stdin.flush()
            return float(calibrator.stdout.readline())

        one_op(0, traced=False, warmup=True)
        calibrate()  # warm-up, not kept
        deadline = time.perf_counter() + args.seconds
        index = 1
        min_ops = 3 if args.trace else 2  # at least one timed op of each kind
        op_s = 0.0
        while index < min_ops or time.perf_counter() < deadline:
            one_op(index, traced=bool(args.trace) and index % 2 == 0, warmup=False)
            index += 1
            op_s += ops[-1]["wall_s"]
            while sum(calibration) < CALIBRATION_SHARE * op_s:
                calibration.append(calibrate())
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        walls = {t: [o["wall_s"] for o in ops if not o["warmup"] and o["traced"] is t]
                 for t in (False, True)}
        header = {
            "kind": "run",
            "workload": manifest["workload"],
            "seed": manifest["seed"],
            "traced_ops": len(walls[True]),
            "untraced_op_p50_s": statistics.median(walls[False]),
            "traced_op_p50_s": statistics.median(walls[True]),
            "traced_op_wall_s": walls[True],
            "gc_s": gc_watch.seconds,
            "gc_collections": gc_watch.collections,
            "gc_gen2": gc_watch.gen2,
            "retained_b_per_sample": retained_bytes_per_sample(manifest),
            "absent": tracer.absent,
        }
        tracer.write(Path(args.spans), header)

    Path(args.result).write_text(json.dumps({
        "ops": ops, "kept": kept, "peak_rss_kib": peak_rss_kib, "calibration_s": calibration,
    }) + "\n", encoding="utf-8")
    return 0


def retained_bytes_per_sample(manifest: dict) -> float:
    """Bytes still allocated, per sample, by the set ``read_samples``
    returns; 0 for workloads that read no sample log."""
    if "samples" not in manifest:
        return 0.0
    from utilrank.io_files import read_samples

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample_set = read_samples(manifest["samples"])
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / manifest["samples_per_op"]


if __name__ == "__main__":
    sys.exit(main())
