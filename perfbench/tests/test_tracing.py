"""Self-test of the span recorder: self time, and names a version lacks."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import utilrank.pipeline  # noqa: E402


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "cli.main", "parent": None, "op": 1, "start": 0, "end": 100},
        {"id": 1, "name": "io_files.read_samples", "parent": 0, "op": 1, "start": 10, "end": 70},
        {"id": 2, "name": "model.validate_sample_set", "parent": 1, "op": 1, "start": 40,
         "end": 60, "count": {"samples": 5}},
    ]
    times = tracing.span_times(spans)
    assert times["cli.main"]["self_ns"] == 40
    assert times["io_files.read_samples"]["self_ns"] == 40
    assert times["model.validate_sample_set"]["count"]["samples"] == 5


def test_missing_name_is_absent_and_the_rest_still_traced(monkeypatch):
    monkeypatch.setitem(tracing.SITES, "gone.function", (["utilrank.pipeline.no_such_name",
                                                          "utilrank.no_such_module.f"], None))
    original = utilrank.pipeline.compute_moments
    tracer = tracing.Tracer()
    tracer.begin_op(1)
    assert utilrank.pipeline.compute_moments is not original
    tracer.end_op()
    assert utilrank.pipeline.compute_moments is original
    assert tracer.absent == ["utilrank.pipeline.no_such_name", "utilrank.no_such_module.f"]
