"""Result container and report emission (structured JSON, aligned text).

The JSON document carries every intermediate matrix at full precision
plus a display section with rounded views; the text format prints the
pipeline stages as six aligned tables (A1 moments through A6 rankings).
Canonical outputs contain no timestamps; provenance is a content digest
plus the tool version, so the same report always emits identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import __version__
from .model import (
    EngineConfig,
    MomentMatrices,
    RelativeVarianceProfile,
    ScoreVector,
    WeightMethod,
    WeightVector,
)
from .ranking import RankingReport
from .io_files import SCHEMA_VERSION, config_to_dict

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Provenance:
    samples_sha256: str
    prior_sha256: Optional[str]
    tool_version: str = __version__


@dataclass(frozen=True)
class Report:
    """Everything one pipeline run produced, with provenance."""

    moments: MomentMatrices
    relative_variance: Optional[RelativeVarianceProfile]
    entropies: Optional[ScoreVector]
    divergences: Optional[ScoreVector]
    igd: Optional[ScoreVector]
    igd_resolution: Optional[str]
    weights: dict[WeightMethod, WeightVector]
    rankings: dict[WeightMethod, RankingReport]
    failures: dict[WeightMethod, str]
    config: EngineConfig
    provenance: Provenance

    @property
    def alternatives(self) -> tuple[str, ...]:
        return self.moments.alternatives

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.moments.attributes


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "samples_sha256": report.provenance.samples_sha256,
            "prior_sha256": report.provenance.prior_sha256,
            "tool_version": report.provenance.tool_version,
        },
        "config": config_to_dict(report.config),
        "alternatives": list(report.alternatives),
        "attributes": list(report.attributes),
        "moments": {
            "means": report.moments.means.tolist(),
            "variances": report.moments.variances.tolist(),
            "counts": report.moments.counts.tolist(),
        },
        "relative_variance": None,
        "entropies": None,
        "divergences": None,
        "igd": None,
        "weights": {},
        "rankings": {},
        "failures": {m.value: msg for m, msg in report.failures.items()},
    }
    if report.relative_variance is not None:
        doc["relative_variance"] = {
            "matrix": report.relative_variance.matrix.tolist(),
            "degenerate_attributes": list(report.relative_variance.degenerate_attributes),
        }
    for key, scores in (("entropies", report.entropies), ("divergences", report.divergences)):
        if scores is not None:
            doc[key] = {"values": list(scores.values), "log_base": scores.log_base}
    if report.igd is not None:
        doc["igd"] = {
            "values": list(report.igd.values),
            "resolution": report.igd_resolution,
        }
    for method, wv in report.weights.items():
        doc["weights"][method.value] = {
            "weights": list(wv.weights),
            "raw_scores": list(wv.raw_scores),
        }
    for method, rr in report.rankings.items():
        doc["rankings"][method.value] = {
            "expectations": list(rr.expectations),
            "ranks": list(rr.ranks),
            "weights_used": list(rr.weights_used),
            "rounding_applied": rr.rounding_applied,
            "ties": [list(group) for group in rr.ties],
        }
    doc["display"] = _display_views(report)
    return doc


def _display_views(report: Report) -> dict:
    """Rounded presentation copies; never feed these back into computation."""
    views: dict = {}
    if report.relative_variance is not None:
        views["relative_variance"] = [
            [round(v, 4) for v in row] for row in report.relative_variance.matrix.tolist()
        ]
    for key, scores in (
        ("entropies", report.entropies),
        ("divergences", report.divergences),
        ("igd", report.igd),
    ):
        if scores is not None:
            views[key] = [round(v, 4) for v in scores.values]
    views["weights"] = {
        m.value: [round(w, 4) for w in wv.weights] for m, wv in report.weights.items()
    }
    views["expectations"] = {
        m.value: [round(e, 2) for e in rr.expectations] for m, rr in report.rankings.items()
    }
    return views


def report_to_json(report: Report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Aligned text tables
# ---------------------------------------------------------------------------

def fmt(value: float, decimals: int = 4) -> str:
    """Fixed decimals with trailing zeros trimmed: 9.50 -> 9.5, 15.0 -> 15."""
    text = f"{value:.{decimals}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def _table(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[k]) for k, h in enumerate(header)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[k]) for k, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def report_to_text(report: Report) -> str:
    """Render the pipeline stages as aligned tables A1..A6.

    Tables for stages that were not computed are omitted.
    """
    alts, attrs = report.alternatives, report.attributes
    out: list[str] = []

    header = ["Attribute"]
    for alt in alts:
        header += [f"{alt} mean", f"{alt} variance"]
    rows = []
    for r, attr in enumerate(attrs):
        row = [attr]
        for i in range(len(alts)):
            row += [fmt(report.moments.means[i, r]), fmt(report.moments.variances[i, r])]
        rows.append(row)
    out.append(_table("Table A1. Mean and variance per alternative and attribute", header, rows))

    if report.relative_variance is not None and report.entropies is not None:
        base = report.entropies.log_base
        base_label = "e" if base == math.e else fmt(base)
        header = ["Attribute"]
        header += [f"{alt} p" for alt in alts]
        header += [f"{alt} log(p)" for alt in alts]
        rows = []
        for r, attr in enumerate(attrs):
            p_col = [float(report.relative_variance.matrix[i, r]) for i in range(len(alts))]
            row = [attr] + [fmt(p) for p in p_col]
            row += [fmt(math.log(p) / math.log(base)) if p > 0 else "-inf" for p in p_col]
            rows.append(row)
        out.append(
            _table(
                f"Table A2. Normalized variance and its logarithm (base {base_label})",
                header,
                rows,
            )
        )

    # Each method's raw scores are the entropies, divergences or gain
    # differences it normalized.
    for method, title, score in (
        (WeightMethod.ICW, "Table A3. Entropy and information-contents weight (ICW)", "Entropy"),
        (WeightMethod.IGHW,
         "Table A4. Information gain vs. prior (IGH) and normalized weight (IGHW)", "IGH"),
        (WeightMethod.IGDW,
         "Table A5. Information-gain difference (IGD) and normalized weight (IGDW)", "IGD"),
    ):
        wv = report.weights.get(method)
        if wv is not None:
            rows = [
                [attr, fmt(s), fmt(w)] for attr, s, w in zip(attrs, wv.raw_scores, wv.weights)
            ]
            out.append(_table(title, ["Attribute", score, method.value], rows))

    if report.rankings:
        header = ["Method"] + [f"{alt} expectation" for alt in alts] + [f"{alt} rank" for alt in alts]
        rows = []
        for method in WeightMethod:
            rr = report.rankings.get(method)
            if rr is None:
                continue
            rows.append(
                [method.value]
                + [fmt(e) for e in rr.expectations]
                + [str(k) for k in rr.ranks]
            )
        out.append(_table("Table A6. Expected utilities and ranking per method", header, rows))

    for method in WeightMethod:
        if method in report.failures:
            out.append(f"{method.value} failed: {report.failures[method]}\n")

    return "\n".join(out)


def emit_report(report: Report, format: str = "json", destination: PathLike | None = None) -> str:
    """Serialize a report and optionally write it to ``destination``.

    Emitting the same report twice produces byte-identical output.
    """
    if format == "json":
        text = report_to_json(report)
    elif format == "text":
        text = report_to_text(report)
    else:
        raise ValueError(f"unknown report format {format!r}; use 'json' or 'text'")
    if destination is not None:
        Path(destination).write_text(text, encoding="utf-8")
    return text
