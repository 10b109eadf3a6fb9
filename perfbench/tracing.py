"""Spans around calls into utilrank's modules, recorded from outside.

The tracer wraps public functions at the names their callers look them
up by (``utilrank.cli.read_samples``, ``utilrank.pipeline.compute_moments``,
...), only for the duration of a traced op, so untraced ops run the
program unmodified. Each call becomes one in-memory span record: name,
start, end, parent span and op id; they are written as JSON lines when
the run ends. A name a later version no longer has is recorded as
absent and its metrics read 0.

Self time of a span is its duration minus that of its child spans.

Summarise span files (one per traced run) as a per-layer table:

    python3 perfbench/tracing.py .bench_out/trace-rank-wide-seed1.jsonl ...
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _size_of_arg(position: int):
    def count(args, kwargs, result):
        return {"bytes": os.path.getsize(args[position])}
    return count


def _samples(args, kwargs, result):
    n = getattr(result, "samples", result)
    return {"samples": len(n)}


def _cells(args, kwargs, result):
    return {"cells": int(result.means.size)}


def _bytes_out(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _pair(args, kwargs, result):
    return {"pair": int(args[1])}


# Span name -> (call sites patched, count taken from the call). A span's
# name is the module that defines the function; its sites are the
# modules that call it.
SITES = {
    "io_files.read_samples": (["utilrank.cli.read_samples"], _size_of_arg(0)),
    "io_files.read_prior": (["utilrank.cli.read_prior"], _size_of_arg(0)),
    "io_files.read_scenario_spec": (["utilrank.cli.read_scenario_spec"], _size_of_arg(0)),
    "io_files.write_samples": (["utilrank.cli.write_samples", "utilrank.reproduce.write_samples"],
                               _size_of_arg(1)),
    "io_files.write_prior": (["utilrank.reproduce.write_prior"], _size_of_arg(1)),
    "io_files.write_scenario_spec": (["utilrank.reproduce.write_scenario_spec"], _size_of_arg(1)),
    "io_files.write_config": (["utilrank.reproduce.write_config"], _size_of_arg(1)),
    "io_files.digest_sample_set": (["utilrank.pipeline.digest_sample_set",
                                    "utilrank.reproduce.digest_sample_set"], None),
    "io_files.digest_prior": (["utilrank.pipeline.digest_prior",
                               "utilrank.reproduce.digest_prior"], None),
    "model.validate_sample_set": (["utilrank.io_files.validate_sample_set",
                                   "utilrank.scenario.validate_sample_set"], _samples),
    "model.validate_prior": (["utilrank.io_files.validate_prior",
                              "utilrank.reproduce.validate_prior"], None),
    "scenario.generate_samples": (["utilrank.cli.generate_samples",
                                   "utilrank.reproduce.generate_samples"], None),
    "prng.substream": (["utilrank.scenario.substream"], _pair),
    "moments.compute_moments": (["utilrank.pipeline.compute_moments"], _cells),
    "weighting.relative_variance": (["utilrank.pipeline.relative_variance"], None),
    "weighting.entropy": (["utilrank.pipeline.entropy"], None),
    "weighting.kld": (["utilrank.pipeline.kld"], None),
    "weighting.igd": (["utilrank.pipeline.igd"], None),
    "weighting.icw": (["utilrank.pipeline.icw"], None),
    "weighting.ighw": (["utilrank.pipeline.ighw"], None),
    "weighting.igdw": (["utilrank.pipeline.igdw"], None),
    "ranking.rank_alternatives": (["utilrank.pipeline.rank_alternatives"], None),
    "pipeline.run_pipeline": (["utilrank.cli.run_pipeline", "utilrank.reproduce.run_pipeline"],
                              None),
    "report.emit_report": (["utilrank.cli.emit_report", "utilrank.reproduce.emit_report"],
                           _bytes_out),
    "reproduce.reproduce_paper": (["utilrank.cli.reproduce_paper"], None),
    "reproduce.verify_report": (["utilrank.reproduce.verify_report"], None),
}

ROOT = "cli.main"


class Tracer:
    """In-memory span recorder that patches ``SITES`` during traced ops."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._op = None

    def begin_op(self, op: int) -> None:
        self._op = op
        for name, (sites, count) in SITES.items():
            for site in sites:
                module_name, attr = site.rsplit(".", 1)
                try:
                    module = importlib.import_module(module_name)
                    original = getattr(module, attr)
                except (ImportError, AttributeError):
                    if site not in self.absent:
                        self.absent.append(site)
                    continue
                setattr(module, attr, self._wrap(name, original, count))
                self._patched.append((module, attr, original))

    def end_op(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self._op = None

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        span = {"id": len(self.spans), "name": name, "op": self._op,
                "parent": self._stack[-1] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter_ns()
            self._stack.pop()
        if count is not None:
            try:
                span["count"] = count(args, kwargs, result)
            except (AttributeError, TypeError, IndexError, OSError):
                pass  # a changed signature loses the count, not the span
        return result

    def _wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)
        return traced

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps({"kind": "span", **span}) + "\n")


class GcWatch:
    """Time and count the collector's runs through ``gc.callbacks``,
    which sees collections but changes nothing about when they happen."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self.gen2 = 0
        self._started = None

    def _callback(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self.gen2 += info["generation"] == 2
            self._started = None

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)


def load(path: Path) -> tuple[dict, list[dict]]:
    """(run header, spans) of one span file."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    return header, [json.loads(line) for line in lines[1:]]


def span_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total and self nanoseconds, summed counts."""
    child_ns = defaultdict(int)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]
    by_name: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0,
                                                    "count": defaultdict(int), "keys": set()})
    for span in spans:
        entry = by_name[span["name"]]
        duration = span["end"] - span["start"]
        entry["calls"] += 1
        entry["total_ns"] += duration
        entry["self_ns"] += duration - child_ns[span["id"]]
        for key, value in span.get("count", {}).items():
            if key == "pair":
                entry["keys"].add((span["op"], value))
            else:
                entry["count"][key] += value
    return by_name


def overhead_frac(header: dict) -> float:
    """Traced op p50 over untraced op p50, minus 1."""
    return header["traced_op_p50_s"] / header["untraced_op_p50_s"] - 1


def layer_metrics(header: dict, spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced run, each per traced op."""
    ops = header["traced_ops"]
    t = span_times(spans)

    def total(*names):
        return sum(t[n]["total_ns"] for n in names if n in t) / 1e9 / ops

    def self_(name):
        return t[name]["self_ns"] / 1e9 / ops if name in t else 0.0

    def count(name, key):
        return t[name]["count"][key] / ops if name in t else 0

    substream = t.get("prng.substream")
    pairs = len(substream["keys"]) if substream else 0
    return {
        "io_files.parse_s": self_("io_files.read_samples"),
        "model.validate_s": total("model.validate_sample_set"),
        "io_files.digest_samples_s": total("io_files.digest_sample_set"),
        "moments.compute_s": total("moments.compute_moments"),
        "python.gc_s": header["gc_s"] / ops,
        "python.gc_gen2": header["gc_gen2"] / ops,
        "io_files.retained_b_per_sample": header["retained_b_per_sample"],
        "scenario.generate_s": self_("scenario.generate_samples"),
        "prng.substreams_per_pair": substream["calls"] / pairs if pairs else 0.0,
        "io_files.write_samples_s": total("io_files.write_samples"),
        "io_files.read_prior_s": total("io_files.read_prior"),
        "io_files.digest_prior_s": total("io_files.digest_prior"),
        "model.validate_prior_s": total("model.validate_prior"),
        "weighting.relative_variance_s": total("weighting.relative_variance"),
        "weighting.entropy_s": total("weighting.entropy"),
        "weighting.kld_s": total("weighting.kld"),
        "weighting.igd_s": total("weighting.igd"),
        "weighting.normalize_s": total("weighting.icw", "weighting.ighw", "weighting.igdw"),
        "ranking.rank_s": total("ranking.rank_alternatives"),
        "report.emit_s": total("report.emit_report"),
        "pipeline.run_s": total("pipeline.run_pipeline"),
        "pipeline.self_s": self_("pipeline.run_pipeline"),
        "cli.self_s": self_(ROOT),
        "reproduce.verify_s": total("reproduce.verify_report"),
        "reproduce.self_s": self_("reproduce.reproduce_paper"),
        "model.samples": count("model.validate_sample_set", "samples"),
        "model.cells": count("moments.compute_moments", "cells"),
        "io_files.bytes_read": sum(count(n, "bytes") for n in (
            "io_files.read_samples", "io_files.read_prior", "io_files.read_scenario_spec")),
        "io_files.bytes_written": sum(count(n, "bytes") for n in (
            "io_files.write_samples", "io_files.write_prior", "io_files.write_scenario_spec",
            "io_files.write_config")),
        "report.bytes_out": count("report.emit_report", "bytes"),
        "trace.overhead_frac": overhead_frac(header),
    }


def summary(header: dict, spans: list[dict]) -> str:
    """Per span name: calls, total and self time per op, and self time's
    share of traced op wall time."""
    ops = header["traced_ops"]
    wall_ns = sum(header["traced_op_wall_s"]) * 1e9
    rows = sorted(span_times(spans).items(), key=lambda kv: -kv[1]["self_ns"])
    lines = [f"{header['workload']} seed {header['seed']}: {ops} traced ops, "
             f"trace.overhead_frac {overhead_frac(header):+.4f}",
             f"  {'span':<30} {'calls/op':>9} {'total s/op':>11} {'self s/op':>10} {'self share':>10}"]
    for name, e in rows:
        lines.append(f"  {name:<30} {e['calls'] / ops:>9.1f} {e['total_ns'] / 1e9 / ops:>11.5f} "
                     f"{e['self_ns'] / 1e9 / ops:>10.5f} {e['self_ns'] / wall_ns:>10.1%}")
    gc_share = header["gc_s"] * 1e9 / wall_ns
    lines.append(f"  {'python.gc':<30} {header['gc_collections'] / ops:>9.1f} "
                 f"{header['gc_s'] / ops:>11.5f} {'':>10} {gc_share:>10.1%}")
    for site in header["absent"]:
        lines.append(f"  absent: {site}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description="Per-layer self-time summary of span files.")
    parser.add_argument("files", nargs="+")
    for path in parser.parse_args().files:
        print(summary(*load(Path(path))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
