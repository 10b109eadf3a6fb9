"""Result container and report emission (structured JSON, aligned text).

The JSON document carries every intermediate matrix at full precision,
warnings and per-method failures as data, and a display section with
rounded views of the per-attribute and per-alternative figures; the text
format prints the pipeline stages as six aligned tables (A1 moments
through A6 rankings).
Canonical outputs contain no timestamps; provenance is a content digest
plus the tool version, so the same report always emits identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from . import __version__
from .errors import Diagnostic
from .model import (
    EngineConfig,
    MomentMatrices,
    RelativeVarianceProfile,
    WeightMethod,
    WeightVector,
)
from .ranking import RankingReport
from .io_files import Destination, _dump_json, _write_bytes, config_to_dict

#: Version of the report document. Specs and configs keep their own,
#: ``io_files.SCHEMA_VERSION``.
REPORT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Provenance:
    samples_sha256: str
    prior_sha256: Optional[str]


@dataclass(frozen=True)
class Report:
    """Everything one pipeline run produced, with provenance.

    ``entropies`` (in ``config.entropy_log_base``), ``divergences`` (in
    ``config.kld_log_base``) and ``igd`` are the scores that ICW, IGHW and
    IGDW normalize into their weights. ``failures`` holds what stopped each
    failed method, ``warnings`` what the run warned of, in order.
    """

    moments: MomentMatrices
    relative_variance: Optional[RelativeVarianceProfile]
    entropies: Optional[tuple[float, ...]]
    divergences: Optional[tuple[float, ...]]
    igd: Optional[tuple[float, ...]]
    igd_resolution: Optional[str]
    weights: dict[WeightMethod, WeightVector]
    rankings: dict[WeightMethod, RankingReport]
    failures: dict[WeightMethod, Diagnostic]
    warnings: tuple[Diagnostic, ...]
    config: EngineConfig
    provenance: Provenance

    @property
    def alternatives(self) -> tuple[str, ...]:
        return self.moments.alternatives

    @property
    def attributes(self) -> tuple[str, ...]:
        return self.moments.attributes


def _raw_scores(report: Report, method: WeightMethod) -> tuple[float, ...]:
    """The scores ``method`` normalized into ``report.weights[method]``."""
    if method is WeightMethod.ICW:
        return report.entropies
    return report.divergences if method is WeightMethod.IGHW else report.igd


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    """The JSON document of a report; its matrices stay float64 arrays."""
    doc: dict = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "provenance": {
            "samples_sha256": report.provenance.samples_sha256,
            "prior_sha256": report.provenance.prior_sha256,
            "tool_version": __version__,
        },
        "config": config_to_dict(report.config),
        "alternatives": list(report.alternatives),
        "attributes": list(report.attributes),
        "moments": {
            "means": report.moments.means,
            "variances": report.moments.variances,
            "counts": report.moments.counts.tolist(),
        },
        "relative_variance": None,
        "entropies": None,
        "divergences": None,
        "igd": None,
        "weights": {},
        "rankings": {},
        "failures": {m.value: asdict(d) for m, d in report.failures.items()},
        "warnings": [asdict(d) for d in report.warnings],
    }
    if report.relative_variance is not None:
        doc["relative_variance"] = {
            "matrix": report.relative_variance.matrix,
            "degenerate_attributes": list(report.relative_variance.degenerate_attributes),
        }
    for key, scores, log_base in (
        ("entropies", report.entropies, report.config.entropy_log_base),
        ("divergences", report.divergences, report.config.kld_log_base),
    ):
        if scores is not None:
            doc[key] = {"values": list(scores), "log_base": log_base}
    if report.igd is not None:
        doc["igd"] = {
            "values": list(report.igd),
            "resolution": report.igd_resolution,
        }
    for method, wv in report.weights.items():
        doc["weights"][method.value] = {
            "weights": list(wv.weights),
            "raw_scores": list(_raw_scores(report, method)),
        }
    for method, rr in report.rankings.items():
        doc["rankings"][method.value] = {
            "expectations": list(rr.expectations),
            "ranks": list(rr.ranks),
            "weights_used": list(rr.weights_used),
            "rounding_applied": report.config.report_weight_rounding,
            "ties": [list(group) for group in rr.ties],
        }
    doc["display"] = _display_views(report)
    return doc


def _display_views(report: Report) -> dict:
    """Rounded presentation copies of the R- and M-long figures.

    Never feed these back into computation. The relative-variance matrix
    has no rounded copy: ``relative_variance.matrix`` and table A2 hold it.
    """
    views: dict = {}
    for key, scores in (
        ("entropies", report.entropies),
        ("divergences", report.divergences),
        ("igd", report.igd),
    ):
        if scores is not None:
            views[key] = [round(v, 4) for v in scores]
    views["weights"] = {
        m.value: [round(w, 4) for w in wv.weights] for m, wv in report.weights.items()
    }
    views["expectations"] = {
        m.value: [round(e, 2) for e in rr.expectations] for m, rr in report.rankings.items()
    }
    return views


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
    for attr, means, variances in zip(
        attrs, report.moments.means.T.tolist(), report.moments.variances.T.tolist()
    ):
        row = [attr]
        for mean, variance in zip(means, variances):
            row += [fmt(mean), fmt(variance)]
        rows.append(row)
    out.append(_table("Table A1. Mean and variance per alternative and attribute", header, rows))

    if report.relative_variance is not None and report.entropies is not None:
        base = report.config.entropy_log_base
        base_label = "e" if base == math.e else repr(base).removesuffix(".0")
        header = ["Attribute"]
        header += [f"{alt} p" for alt in alts]
        header += [f"{alt} log(p)" for alt in alts]
        rows = []
        for attr, p_col in zip(attrs, report.relative_variance.matrix.T.tolist()):
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

    for method, title, score in (
        (WeightMethod.ICW, "Table A3. Entropy and information-contents weight (ICW)", "Entropy"),
        (WeightMethod.IGHW,
         "Table A4. Information gain vs. prior (IGH) and normalized weight (IGHW)", "IGH"),
        (WeightMethod.IGDW,
         "Table A5. Information-gain difference (IGD) and normalized weight (IGDW)", "IGD"),
    ):
        wv = report.weights.get(method)
        if wv is not None:
            scores = _raw_scores(report, method)
            rows = [[attr, fmt(s), fmt(w)] for attr, s, w in zip(attrs, scores, wv.weights)]
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


def emit_report(report: Report, format: str = "json",
                destination: Destination | None = None) -> Optional[str]:
    """Serialize a report: return its text, or write its bytes to ``destination``.

    ``destination`` is a path or an open binary stream (the CLI passes
    ``sys.stdout.buffer``); JSON bytes go there chunk by chunk as they
    are made, and no text is kept. Both ways give the same bytes, and
    emitting the same report twice gives byte-identical output.
    """
    if format == "json":
        chunks = _dump_json(report_to_dict(report))
    elif format == "text":
        chunks = [report_to_text(report).encode("utf-8")]
    else:
        raise ValueError(f"unknown report format {format!r}; use 'json' or 'text'")
    if destination is None:
        return "".join(str(chunk, "utf-8") for chunk in chunks)
    _write_bytes(destination, chunks)
    return None
