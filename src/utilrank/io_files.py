"""File formats: sample logs, prior tables, scenario specs, engine configs.

Sample logs and priors are flat comma-separated tables (one row per
observation or cell) so simulation farms can append cheaply; specs and
configs are small JSON documents with a schema version field, and reports
are JSON written by the same writer. Numbers serialize with the shortest
round-trip decimal representation, byte for byte ``repr``: table values
and the floats of a JSON array or float list through
:mod:`utilrank.floatfmt`, every other float as ``json.dumps`` writes it.
All writers emit LF line endings, so identical content yields identical
bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from array import array
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import length_hint
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from . import floatfmt
from .errors import InvalidSpec, NonFiniteUtility, ParseError
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IdColumn,
    IgdNegativePolicy,
    PriorProfile,
    SampleSet,
    validate_prior,
    validate_sample_set,
)
from .scenario import MomentMode, PairSpec, ScenarioSpec

SAMPLES_HEADER = ["alternative", "attribute", "situation", "utility"]
PRIOR_HEADER = ["attribute", "alternative", "probability"]
CHUNK_BYTES = 1 << 18  # bytes a chunk of rows may write: bounds the memory held
GATHER_SEGMENTS = 1 << 10  # row segments gathered at once: the index arrays stay small
SCHEMA_VERSION = 1

PathLike = Union[str, Path]
Destination = Union[str, Path, BinaryIO]  # a path, or an open binary stream


# ---------------------------------------------------------------------------
# Sample logs
# ---------------------------------------------------------------------------

def _csv_fields(names: tuple[str, ...]) -> list[str]:
    """Each name as csv.writer renders it inside a row.

    The ``\\r\\n`` terminator makes the writer quote a name holding a ``\\r``
    as well as one holding a ``\\n``; callers end each row with ``\\n``.
    """
    lines: list[str] = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows([name, ""] for name in names)  # a lone empty field would be quoted
    return [line[:-3] for line in lines]


def _field_table(fields: list[bytes]) -> tuple[bytes, np.ndarray]:
    """Fields end to end, and their lengths."""
    return b"".join(fields), np.fromiter(map(len, fields), np.intp, len(fields))


def _name_column(names: tuple[str, ...]) -> tuple[bytes, np.ndarray]:
    """A column's fields end to end in UTF-8, each name's CSV field and a comma, and their lengths."""
    return _field_table([field.encode("utf-8") + b"," for field in _csv_fields(names)])


def _byte_rows(columns: list[tuple[bytes, np.ndarray, np.ndarray]], values: np.ndarray,
               end: bytes) -> Iterator[np.ndarray]:
    """Rows of bytes in chunks: per value, each column's field, then ``repr`` of the value and ``end``.

    A column is (fields, lengths, codes): its fields end to end, the length
    of each, and per row the index of its field. Each column's fields are
    held once, end to end in ``source``. A chunk's numbers are rendered by
    :func:`utilrank.floatfmt.render` and compacted through their mask into
    the tail of ``source``; the chunk is then gathered from ``source``,
    each row's segments (its fields, then its number) laid end to end. A
    chunk takes the rows that write at most ``CHUNK_BYTES``, a number
    counted at its widest (and at least one row), so the memory held and
    the work done follow the bytes written, however long a field is. The
    gather goes ``GATHER_SEGMENTS`` segments at a time: its 8-byte index
    per byte then fits the heap's reused memory, where a chunk-wide index
    took fresh pages on every call and made small tables slower.
    """
    line = floatfmt.WIDTH + len(end)  # a number's text at its widest, and the end
    buffers, lengths, codes = zip(*columns)
    fields_end = sum(map(len, buffers))
    source = np.empty(fields_end + max(min(CHUNK_BYTES, len(values) * line), line), dtype=np.uint8)
    firsts, at = [], 0
    for buffer, length in zip(buffers, lengths):
        source[at:at + len(buffer)] = np.frombuffer(buffer, dtype=np.uint8)
        firsts.append(np.cumsum(length) - length + at)
        at += len(buffer)
    window = CHUNK_BYTES // (line + len(columns))  # the most rows that fit: a field is a byte or more
    text_rows = np.empty((min(window, len(values)), line), dtype=np.uint8)
    keep_rows = np.empty(text_rows.shape, dtype=bool)
    text_rows[:, floatfmt.WIDTH:] = np.frombuffer(end, dtype=np.uint8)
    keep_rows[:, floatfmt.WIDTH:] = True
    start, ramp = 0, np.arange(0)
    while start < len(values):
        chunks = [column_codes[start:start + window] for column_codes in codes]
        widths = [length.take(chunk) for length, chunk in zip(lengths, chunks)]
        count = max(int(np.searchsorted(np.cumsum(sum(widths, line)), CHUNK_BYTES, "right")), 1)
        segments = np.empty((count, len(columns) + 1), dtype=np.intp)  # each segment's length
        segment_firsts = np.empty_like(segments)  # and the index of its first byte in source
        for k, (first, chunk, width) in enumerate(zip(firsts, chunks, widths)):
            segments[:, k] = width[:count]
            segment_firsts[:, k] = first.take(chunk[:count])
        text, keep = text_rows[:count], keep_rows[:count]
        segments[:, -1] = floatfmt.render(values[start:start + count], text[:, :floatfmt.WIDTH],
                                          keep[:, :floatfmt.WIDTH])
        segments[:, -1] += len(end)
        number_ends = segments[:, -1].cumsum()
        np.compress(keep.ravel(), text.ravel(), out=source[fields_end:fields_end + number_ends[-1]])
        segment_firsts[:, -1] = number_ends - segments[:, -1] + fields_end
        # A byte's index in source is its place in the chunk plus its
        # segment's offset: the segment's first byte in source less its place.
        segments, offsets = segments.ravel(), segment_firsts.ravel()
        ends = segments.cumsum()
        offsets += segments
        offsets -= ends
        out = np.empty(ends[-1], dtype=np.uint8)
        for at in range(0, len(segments), GATHER_SEGMENTS):
            block = slice(at, at + GATHER_SEGMENTS)
            low = ends[at] - segments[at]
            index = (offsets[block] + low).repeat(segments[block])
            if len(ramp) < len(index):
                ramp = np.arange(len(index))
            index += ramp[:len(index)]
            source.take(index, out=out[low:low + len(index)])
        yield out
        start += count


def _csv_table(header: list[str], columns: list[tuple[tuple[str, ...], np.ndarray]],
               values: np.ndarray) -> Iterator[Union[bytes, np.ndarray]]:
    """A CSV table as UTF-8 chunks: the header, then per value a row.

    Row i holds ``names[codes[i]]`` of each (names, codes) column, then
    ``repr(values[i])`` and LF.
    """
    yield (",".join(header) + "\n").encode("utf-8")
    yield from _byte_rows([(*_name_column(names), codes) for names, codes in columns], values, b"\n")


def _csv_chunks(sample_set: SampleSet) -> Iterator[Union[bytes, np.ndarray]]:
    """Canonical CSV bytes in chunks: a ``csv.writer`` row per sample, utility as ``repr``."""
    return _csv_table(SAMPLES_HEADER, [
        (sample_set.alternatives, sample_set.alternative_codes),
        (sample_set.attributes, sample_set.attribute_codes),
        (sample_set.situations, sample_set.situation_codes),
    ], sample_set.utilities)


def samples_to_csv(sample_set: SampleSet) -> str:
    """Canonical CSV serialization of a sample set (sorted rows, LF)."""
    return b"".join(_csv_chunks(sample_set)).decode("utf-8")


def write_samples(sample_set: SampleSet, destination: Destination) -> None:
    _write_bytes(destination, _csv_chunks(sample_set), sample_set)


def _write_bytes(destination: Destination, chunks: Iterable,
                 rendered: Union[SampleSet, PriorProfile, None] = None) -> None:
    """Write byte chunks as they are, so each ``\\n`` is an LF on every platform.

    ``destination`` is a path, opened in binary mode, or an open binary
    stream such as ``sys.stdout.buffer``, which is written and left open.
    With ``rendered``, the chunks are its canonical CSV: unless it holds
    their sha256 already, it keeps it, for :func:`digest_sample_set` or
    :func:`digest_prior`.
    """
    if isinstance(destination, (str, os.PathLike)):
        with open(destination, "wb") as out:
            _write_bytes(out, chunks, rendered)
    elif rendered is None or rendered._csv_sha256 is not None:
        destination.writelines(chunks)
    else:
        object.__setattr__(rendered, "_csv_sha256", _sha256(chunks, destination.write))


def _utf8_text(path: PathLike) -> str:
    """A file's text; a byte that is not UTF-8 is a ParseError naming its line.

    Lines end as ``csv`` ends them: at ``\\n``, ``\\r\\n`` or a lone ``\\r``.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        ends = data.count(b"\n", 0, exc.start) + data.count(b"\r", 0, exc.start)
        line_no = ends - data.count(b"\r\n", 0, exc.start) + 1
        raise ParseError(line_no, f"byte {data[exc.start]:#04x} is not UTF-8 text") from None


def _table(text: str, header: list[str]) -> tuple[list[str], Sequence[int], int, Optional[ParseError]]:
    """The fields below the exact ``header``, row after row, as ``csv.reader`` reads them.

    Returns ``(fields, lines, last, fault)``: column k is
    ``fields[k::len(header)]``, row i starts on line ``lines[i]`` and the
    file ends on line ``last`` (physical lines; blank lines are no rows).
    ``fault`` is the ParseError of the first row of the wrong width or that
    csv cannot read, or None; ``fields`` holds the rows before it. A log
    that starts with the header line and holds no quote, no NUL (which csv
    rejects before Python 3.11) and no ``\\r`` but in a ``\\r\\n`` is split
    as text, with no container per row. Any other streams through
    ``csv.reader`` from its UTF-8 bytes, decoded a block at a time, in
    lines cut at ``\\n``, ``\\r\\n`` or a lone ``\\r`` with their line breaks
    kept, so a quoted ``\\r`` stays: the cuts of ``io.StringIO(text,
    newline="")`` without its copy of the text at 4 bytes per character.
    """
    width, limit, head = len(header), csv.field_size_limit(), ",".join(header)
    if (not text.startswith((head + "\n", head + "\r\n")) or '"' in text or "\0" in text
            or ("\r" in text and text.count("\r") != text.count("\r\n"))):
        data = io.BytesIO(text.encode("utf-8"))
        del text
        reader = csv.reader(io.TextIOWrapper(data, encoding="utf-8", newline=""))
        fields, lines, fault = [], array("i"), None
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(1, "file is empty; expected a header row")
            if first != header:
                raise ParseError(1, f"expected header {head!r}, got {','.join(first)!r}")
            line = reader.line_num
            for row in reader:
                if row:
                    if len(row) != width:
                        fault = ParseError(line + 1, f"expected {width} fields, got {len(row)}")
                        break
                    fields += row
                    lines.append(line + 1)
                line = reader.line_num
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            fault = ParseError(reader.line_num, str(exc))
        return fields, lines, reader.line_num, fault
    rows = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    del text, rows[0]
    if not rows[-1]:
        rows.pop()  # the line end of the last line
    last = len(rows) + 1
    long = len(rows)  # the first row with a field that csv finds too long
    if max(map(len, rows), default=0) > limit:
        long = next((k for k, row in enumerate(rows) if max(map(len, row.split(","))) > limit), long)
    counts = np.fromiter(map(str.count, rows, repeat(",")), np.intp, len(rows))
    odd = np.flatnonzero(counts != width - 1).tolist()  # blank lines and rows of the wrong width
    end = min(next((k for k in odd if rows[k]), len(rows)), long)
    fault = None
    if end < len(rows):
        wrong = f"expected {width} fields, got {counts[end] + 1}"
        fault = ParseError(end + 2, f"field larger than field limit ({limit})" if end == long else wrong)
    del rows[end:], counts
    blank = [k for k in odd if k < end]
    lines = range(2, end + 2)
    if blank:
        lines = np.delete(np.arange(2, end + 2), blank)
        rows = list(filter(None, rows))
    joined = ",".join(rows)
    del rows
    return joined.split(",") if joined else [], lines, last, fault


def _floats(column: list[str]) -> np.ndarray:
    """The cells as float64 up to the first that is not a number, whose index is the result's length."""
    cells = iter(column)
    try:
        return np.fromiter(map(float, cells), np.float64, len(column))
    except ValueError:  # ``cells`` stopped just past that cell
        end = len(column) - length_hint(cells) - 1
        return np.fromiter(map(float, column[:end]), np.float64, end)


def _first(mask: np.ndarray) -> int:
    """The index of the first true entry; the length if none is."""
    return int(mask.argmax()) if mask.any() else len(mask)


def read_samples(path: PathLike) -> SampleSet:
    """Parse and validate a sample log.

    Expects the exact header ``alternative,attribute,situation,utility``.
    The first row whose utility is not a finite number, then the first row
    of the wrong form, then the set as a whole is the error; a row's error
    names its line.
    """
    fields, lines, _, fault = _table(_utf8_text(path), SAMPLES_HEADER)
    utilities = _floats(fields[3::4])
    end = len(utilities)
    bad = _first(~np.isfinite(utilities))
    if bad < end:
        raise NonFiniteUtility(*fields[4 * bad:4 * bad + 3], line=int(lines[bad]))
    if end < len(fields) // 4:
        raise ParseError(int(lines[end]), f"utility {fields[4 * end + 3]!r} is not a number")
    if fault is not None:
        raise fault
    names = [_coded(fields[k::4]) for k in range(3)]
    del fields
    return validate_sample_set(*names, utilities)


def _coded(column: list[str]) -> IdColumn:
    """A column of names as a table, in order of first appearance, and codes."""
    index = {name: code for code, name in enumerate(dict.fromkeys(column))}
    return list(index), np.fromiter(map(index.__getitem__, column), np.int32, len(column))


# ---------------------------------------------------------------------------
# Prior tables
# ---------------------------------------------------------------------------

def _prior_chunks(prior: PriorProfile) -> Iterator[Union[bytes, np.ndarray]]:
    """Canonical CSV bytes of a prior in chunks: one row per cell, attribute-major, probability as ``repr``."""
    alternatives, attributes = prior.matrix.shape
    cells = np.arange(alternatives * attributes)
    return _csv_table(PRIOR_HEADER, [
        (prior.attributes, cells // alternatives),
        (prior.alternatives, cells % alternatives),
    ], prior.matrix.T.ravel())


def prior_to_csv(prior: PriorProfile) -> str:
    """Canonical CSV of a prior (attribute-major rows, LF)."""
    return b"".join(_prior_chunks(prior)).decode("utf-8")


def write_prior(prior: PriorProfile, path: PathLike) -> None:
    _write_bytes(path, _prior_chunks(prior), prior)


def read_prior(path: PathLike, sample_set: SampleSet) -> PriorProfile:
    """Parse a prior table and validate it against the sample set.

    Every (attribute, alternative) cell must appear exactly once. The first
    row with an unknown attribute or alternative, a probability that is not
    a number or a repeated cell (checked in that order), then a row of the
    wrong form, then a missing cell, named at the last line, is the error.
    """
    fields, lines, last, fault = _table(_utf8_text(path), PRIOR_HEADER)
    cols = _indices(sample_set.attributes, fields[0::3])
    rows = _indices(sample_set.alternatives, fields[1::3])
    width = sample_set.num_attributes
    cells = (rows * width + cols)[:_first((cols < 0) | (rows < 0))]  # up to an unknown name
    named, firsts = np.unique(cells, return_index=True)  # the cells named, sorted, and their first rows
    repeated = np.ones(len(cells), dtype=bool)
    repeated[firsts] = False
    probabilities = _floats(fields[2::3])
    at, reason = min([  # each check's first row; a tie goes to the check made first
        (_first(cols < 0), lambda i: f"unknown attribute {fields[3 * i]!r}"),
        (_first(rows < 0), lambda i: f"unknown alternative {fields[3 * i + 1]!r}"),
        (len(probabilities), lambda i: f"probability {fields[3 * i + 2]!r} is not a number"),
        (_first(repeated), lambda i: f"duplicate cell ({fields[3 * i]}, {fields[3 * i + 1]})"),
    ], key=lambda check: check[0])
    if at < len(cols):
        raise ParseError(int(lines[at]), reason(at))
    if fault is not None:
        raise fault
    missing = _first(named != np.arange(len(named)))  # the first cell not named
    if missing < sample_set.num_alternatives * width:
        i, j = divmod(missing, width)
        raise ParseError(last, f"missing cell ({sample_set.attributes[j]}, {sample_set.alternatives[i]})")
    matrix = np.empty((sample_set.num_alternatives, width))
    matrix.flat[cells] = probabilities
    return validate_prior(matrix, sample_set)


def _indices(names: tuple[str, ...], column: list[str]) -> np.ndarray:
    """Each cell's position in ``names``; -1 for a name not there."""
    index = {name: k for k, name in enumerate(names)}
    return np.fromiter(map(index.get, column, repeat(-1)), np.intp, len(column))


# ---------------------------------------------------------------------------
# Scenario specs
# ---------------------------------------------------------------------------

def scenario_spec_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": spec.seed,
        "moment_mode": spec.moment_mode.value,
        "family": "normal",
        "pairs": [
            {
                "alternative": p.alternative_id,
                "attribute": p.attribute_id,
                "mean": p.target_mean,
                "variance": p.target_variance,
                "count": p.sample_count,
            }
            for p in spec.pairs
        ],
    }


def write_scenario_spec(spec: ScenarioSpec, path: PathLike) -> None:
    _write_bytes(path, _dump_json(scenario_spec_to_dict(spec)))


def _integer(raw, name: str) -> int:
    """A JSON integer: 2.9 or true is rejected, not truncated to 2 or 1."""
    if type(raw) is not int:
        raise TypeError(f"{name} must be an integer, got {raw!r}")
    return raw


def _string(raw, name: str) -> str:
    """A JSON string: null, 3 or ["x"] is rejected, not read as 'None', '3' or "['x']"."""
    if type(raw) is not str:
        raise TypeError(f"{name} must be a string, got {raw!r}")
    return raw


def _real(raw, name: str) -> float:
    """A JSON number: true or false is rejected, not read as 1.0 or 0.0."""
    if isinstance(raw, bool):
        raise TypeError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def _pair_spec(raw) -> PairSpec:
    """One spec pair from its JSON object."""
    keys = ("alternative", "attribute", "mean", "variance", "count")
    pair = _json_object(raw, keys, "scenario spec pair")
    return PairSpec(
        alternative_id=_string(pair["alternative"], "alternative"),
        attribute_id=_string(pair["attribute"], "attribute"),
        target_mean=_real(pair["mean"], "mean"),
        target_variance=_real(pair["variance"], "variance"),
        sample_count=_integer(pair["count"], "count"),
    )


def read_scenario_spec(path: PathLike) -> ScenarioSpec:
    keys = ("schema_version", "seed", "moment_mode", "family", "pairs")
    doc = _json_object(_read_json_doc(path, "scenario spec"), keys, "scenario spec")
    try:
        pairs = tuple(map(_pair_spec, doc["pairs"]))
        seed = _integer(doc["seed"], "seed")
        moment_mode = MomentMode(doc.get("moment_mode", "exact"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidSpec(f"malformed scenario spec: {exc}") from None
    if doc.get("family", "normal") != "normal":
        raise InvalidSpec(f"unsupported family {doc['family']!r}; only 'normal' is supported")
    return ScenarioSpec(pairs=pairs, seed=seed, moment_mode=moment_mode)


# ---------------------------------------------------------------------------
# Engine configs
# ---------------------------------------------------------------------------

def parse_log_base(raw) -> float:
    """Accept 'e' or any real number greater than 1."""
    if isinstance(raw, str) and raw.strip().lower() == "e":
        return math.e
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise InvalidSpec(f"log base {raw!r} is not a number or 'e'") from None


def config_to_dict(config: EngineConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "entropy_log_base": "e" if config.entropy_log_base == math.e else config.entropy_log_base,
        "kld_log_base": "e" if config.kld_log_base == math.e else config.kld_log_base,
        "degenerate_variance_policy": config.degenerate_variance_policy.value,
        "prior_smoothing_epsilon": config.prior_smoothing_epsilon,
        "igd_negative_policy": config.igd_negative_policy.value,
        "report_weight_rounding": config.report_weight_rounding,
    }


def write_config(config: EngineConfig, path: PathLike) -> None:
    _write_bytes(path, _dump_json(config_to_dict(config)))


# Each EngineConfig field and the parser of its raw value, from a document or a flag.
_CONFIG_FIELDS = {
    "entropy_log_base": parse_log_base,
    "kld_log_base": parse_log_base,
    "degenerate_variance_policy": DegenerateVariancePolicy,
    "prior_smoothing_epsilon": lambda raw: _real(raw, "prior_smoothing_epsilon"),
    "igd_negative_policy": IgdNegativePolicy,
    "report_weight_rounding": lambda raw: raw,  # EngineConfig admits integers only
}


def parse_config(settings: Mapping) -> EngineConfig:
    """The EngineConfig that raw settings describe; omitted fields keep their defaults.

    ``schema_version`` is allowed (a config document carries it); any other
    key that names no field is an error, not a setting silently left at its default.
    """
    _json_object(settings, ("schema_version", *_CONFIG_FIELDS), "config")
    try:
        return EngineConfig(**{
            name: parse(settings[name]) for name, parse in _CONFIG_FIELDS.items() if name in settings
        })
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"invalid config: {exc}") from None


def read_config(path: PathLike) -> dict:
    """A config document's raw settings, for :func:`parse_config`, once they parse."""
    settings = _read_json_doc(path, "config")
    parse_config(settings)
    return settings


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def digest_sample_set(sample_set: SampleSet) -> str:
    """Content digest of a sample set's canonical serialization.

    Computed over canonical bytes rather than raw input files so that
    logically-equal inputs (reordered rows, different formatting) carry
    the same provenance digest. A set :func:`write_samples` wrote keeps
    the digest of the text it rendered; any other set is rendered here.
    """
    if sample_set._csv_sha256 is not None:
        return sample_set._csv_sha256
    return _sha256(_csv_chunks(sample_set))


def digest_prior(prior: PriorProfile) -> str:
    """Digest of a prior's canonical CSV, kept by :func:`write_prior` as for sample sets."""
    if prior._csv_sha256 is not None:
        return prior._csv_sha256
    return _sha256(_prior_chunks(prior))


def _sha256(chunks: Iterable, sink: Optional[Callable] = None) -> str:
    """The sha256 of byte chunks, each passed on to ``sink`` too when one is given."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
        if sink is not None:
            sink(chunk)
    return hasher.hexdigest()


def _read_json_doc(path: PathLike, what: str) -> dict:
    """A JSON object document of the supported schema version; its reader checks its keys."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidSpec(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidSpec(f"{what} must be a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise InvalidSpec(f"unsupported schema_version {version!r}")
    return doc


def _json_object(value, keys, what: str) -> Mapping:
    """``value`` if it is a JSON object with no key outside ``keys``.

    A misspelt key is an error, not a setting silently left at its default.
    """
    if not isinstance(value, Mapping):
        raise InvalidSpec(f"{what} must be a JSON object")
    unknown = [key for key in value if key not in keys]
    if unknown:
        raise InvalidSpec(f"unknown {what} key {unknown[0]!r}")
    return value


def _dump_json(doc) -> Iterator[Union[bytes, np.ndarray]]:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, in chunks.

    ``doc`` may hold float64 arrays where ``json.dumps`` takes lists; they
    are written as the nested lists ``tolist()`` gives. The layout is
    walked in Python: keys, braces, indents and every scalar (ints,
    strings, null, booleans and a float that is not in a float array) are
    laid out as ``json.dumps`` writes them, a list that holds no float and
    no container in one call to it. Each float of an array or list of
    finite floats becomes a row of :func:`_byte_rows`: the text since the
    float before it, then its ``repr`` from :func:`utilrank.floatfmt.render`,
    so a report's float arrays are rendered in one chunked pass, and a spec
    or config, which holds none, never calls the kernel. Such an array
    takes one step per dimension; one holding anything else is walked item
    by item. The walk runs before this returns: an object key that is not a
    string raises TypeError here.
    """
    rows = _JsonRows()
    rows.layout(doc, "\n")
    rows.pending.append("\n")
    prefixes = _field_table([text.encode("utf-8") for text in rows.prefixes])
    codes = np.concatenate([np.empty(0, dtype=np.int64), *rows.codes])
    values = np.concatenate([np.empty(0), *rows.values])
    return chain(_byte_rows([(*prefixes, codes)], values, b""),
                 ["".join(rows.pending).encode("utf-8")])


class _JsonRows:
    """A JSON document as rows: per float of a float array, a code for the text before it, and the float."""

    def __init__(self):
        self.pending: list[str] = []  # the text since the last float
        self.prefixes: dict[str, int] = {}  # each distinct text before a float, and its code
        self.codes: list = []  # per block of rows, in order: the codes of its texts
        self.values: list = []  # and its floats
        self.layouts: dict[tuple[str, int], tuple[str, list[int], str]] = {}  # see _array_layout

    def _code(self, text: str) -> int:
        return self.prefixes.setdefault(text, len(self.prefixes))

    def layout(self, value, newline: str) -> None:
        """Lay out ``value``'s indented JSON; ``newline`` is a line break and its indent."""
        inner = newline + "  "
        if isinstance(value, dict):
            if not value:
                self.pending.append("{}")
                return
            for n, key in enumerate(sorted(value)):
                if not isinstance(key, str):
                    raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
                key_text = encode_basestring_ascii(key)  # as json.dumps(key) writes it
                self.pending.append(("{" if n == 0 else ",") + inner + key_text + ": ")
                self.layout(value[key], inner)
            self.pending.append(newline + "}")
        elif isinstance(value, (list, tuple, np.ndarray)):
            if not len(value):
                self.pending.append("[]")
                return
            if isinstance(value, np.ndarray):
                finite = value.size and np.isfinite(value).all()
            else:
                kinds = set(map(type, value))
                if not any(issubclass(kind, (dict, list, tuple, np.ndarray, float)) for kind in kinds):
                    text = json.dumps(value, separators=("," + inner, ": "))
                    self.pending.append("[" + inner + text[1:-1] + newline + "]")
                    return
                finite = (all(issubclass(kind, float) for kind in kinds)
                          and all(map(math.isfinite, value)))
            if finite:
                self._array(value, newline)
                return
            for n, item in enumerate(value):
                self.pending.append(("[" if n == 0 else ",") + inner)
                self.layout(item, inner)
            self.pending.append(newline + "]")
        else:
            self.pending.append(json.dumps(value))

    def _array(self, floats, newline: str) -> None:
        """Lay out a non-empty list or array of finite floats as its nested lists, a row per float."""
        shape = floats.shape if isinstance(floats, np.ndarray) else (len(floats),)
        key = (newline, len(shape))
        if key not in self.layouts:
            self.layouts[key] = self._array_layout(*key)
        opening, starts, closing = self.layouts[key]
        codes = array("q", starts[:1]) * shape[-1]
        for start, size in zip(starts[1:], reversed(shape[:-1])):
            codes[0] = start
            codes *= size
        codes[0] = self._code("".join(self.pending) + opening)
        self.codes.append(codes)
        self.values.append(floats.ravel() if isinstance(floats, np.ndarray) else floats)
        self.pending = [closing]

    def _array_layout(self, newline: str, depth: int) -> tuple[str, list[int], str]:
        """The layout of an array of ``depth`` dimensions whose text starts at ``newline``.

        Returns the text before its first float, the codes of the texts
        before a float that starts r of its lists for r = 0 .. depth - 1 (the
        closing of r lists, a comma and the opening of r lists), and the text
        after its last float.
        """
        indents = [newline + "  " * level for level in range(depth + 1)]
        opens = ["".join("[" + indents[level] for level in range(depth - r + 1, depth + 1))
                 for r in range(depth + 1)]
        closes = ["".join(indents[level] + "]" for level in range(depth - 1, depth - 1 - r, -1))
                  for r in range(depth + 1)]
        starts = [self._code(closes[r] + "," + indents[depth - r] + opens[r]) for r in range(depth)]
        return opens[depth], starts, closes[depth]
