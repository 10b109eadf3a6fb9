"""File formats: sample logs, prior tables, scenario specs, engine configs.

Sample logs and priors are flat comma-separated tables (one row per
observation or cell) so simulation farms can append cheaply; specs and
configs are small JSON documents with a schema version field, and reports
are JSON written by the same writer. Numbers serialize with the shortest
round-trip decimal representation, byte for byte ``repr``: table values
and the floats of a JSON array or float list through
:mod:`utilrank.floatfmt`, every other float as ``json.dumps`` writes it.
A table or document of at most ``SMALL_ROWS`` such values takes ``repr``
itself, with the same bytes (see :func:`_byte_rows`). All writers emit LF
line endings, so identical content yields identical bytes.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import warnings
from array import array
from collections import deque
from contextlib import contextmanager
from itertools import chain, repeat, starmap
from json.encoder import encode_basestring_ascii
from operator import length_hint
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from . import floatfmt
from .errors import InvalidSpec, NonFiniteUtility, ParseError, UtilrankError, show_name
from .model import (
    DegenerateVariancePolicy,
    EngineConfig,
    IgdNegativePolicy,
    PriorProfile,
    SampleSet,
    check_utilities,
    range_warning,
    validate_prior,
    validate_sample_set,
)
from .scenario import MomentMode, PairSpec, ScenarioSpec

SAMPLES_HEADER = ["alternative", "attribute", "situation", "utility"]
PRIOR_HEADER = ["attribute", "alternative", "probability"]
CHUNK_BYTES = 1 << 18  # bytes a chunk of rows may write: bounds the memory held
READ_BYTES = 1 << 16  # characters a reader takes from a file at a time, to a line end: bounds the text held
GATHER_BYTES = 1 << 13  # bytes one gather index covers at most: a longer segment is a piece of its own
SMALL_ROWS = 256  # numbers a one-chunk table may hold and be written by repr: below the measured crossover
SCHEMA_VERSION = 1

PathLike = Union[str, Path]
Destination = Union[str, Path, BinaryIO]  # a path, or an open binary stream


# ---------------------------------------------------------------------------
# Sample logs
# ---------------------------------------------------------------------------

# A name that csv.writer quotes inside a row: one that holds a comma, a quote,
# or a character of the "\r\n" line terminator that the writers' oracle uses.
_QUOTED = re.compile('[,"\r\n]')


def _csv_fields(names: Sequence[str]) -> list[str]:
    """Each name as csv.writer (``QUOTE_MINIMAL``) renders it inside a row.

    A name that needs quotes is quoted, its quotes doubled; any other is
    its own field, a NUL included, as csv.writer writes it from Python
    3.11 on. Callers end each row with ``\\n``. csv.writer itself would
    build each record four bytes a character, six times a long name.
    """
    return ['"{}"'.format(name.replace('"', '""')) if _QUOTED.search(name) else name for name in names]


def _name_column(names: Sequence[str]) -> list[bytes]:
    """A column's fields in UTF-8: each name's CSV field and a comma."""
    return [field.encode("utf-8") + b"," for field in _csv_fields(names)]


def _byte_rows(columns: list[list[bytes]], blocks: Iterable[Sequence[np.ndarray]],
               end: bytes) -> Iterator[Union[bytes, np.ndarray]]:
    """Rows of bytes in chunks: per value, each column's field, then ``repr`` of the value and ``end``.

    A column is the list of its fields. ``blocks`` hands out the rows a
    block at a time, as arrays ``(codes, ..., values)``: per row the index
    of its field in each column, and its value. Blocks are taken as the
    chunks need them, and a chunk takes rows from as many blocks as it
    holds, so that it renders its numbers in one
    :func:`utilrank.floatfmt.render` call; the rows left over wait for the
    next chunk.

    A table that the first pull of rows holds whole, with at most
    ``SMALL_ROWS`` values and ``CHUNK_BYTES`` to write, is one chunk that
    :func:`_repr_chunk` writes with ``repr``, cheaper there than a render
    (about 0.25 ms whatever its length). Where ``sys.float_repr_style`` is
    ``"short"``, ``repr`` is the correctly rounded shortest text, the
    kernel's oracle, so both give the same bytes; elsewhere the kernel
    writes every table.

    Otherwise each column's fields are joined end to end, and those of at
    most ``GATHER_BYTES`` are held once more, end to end in ``source``; a
    chunk's numbers are rendered and compacted through their mask into its
    tail, and the chunk is then gathered from ``source``, each row's
    segments (its fields, then its number) laid end to end. A chunk takes
    the rows that write at most ``CHUNK_BYTES``, a number counted at its
    widest (and at least one row), so the memory held and the work done
    follow the bytes written, however long a field is. The gather takes
    runs of whole segments that write at most ``GATHER_BYTES``, through an
    8-byte index per byte and a ramp no longer than the run: both stay in
    the heap's reused memory, where a chunk-wide index took fresh pages on
    every call and made small tables slower. A longer field is handed out
    as a piece of its own, a view of its column's bytes, so a long text (a
    long name, or the text a JSON document holds before a float) costs its
    own bytes once: no gather index, no copy in ``source``, and no copy in
    the chunk.
    """
    line = floatfmt.WIDTH + len(end)  # a number's text at its widest, and the end
    window = CHUNK_BYTES // (line + len(columns))  # the most rows that fit: a field is a byte or more
    pending, blocks = deque(), iter(blocks)
    rows = _next_rows(pending, blocks, window)
    if not rows:
        return
    count = len(rows[-1])
    if count <= SMALL_ROWS and count < window and sys.float_repr_style == "short":
        chunk = _repr_chunk(columns, rows, end, CHUNK_BYTES - count * line)
        if chunk is not None:
            yield chunk
            return
    buffers = list(map(b"".join, columns))  # each column's fields end to end
    lengths = [np.fromiter(map(len, fields), np.intp, len(fields)) for fields in columns]
    del columns  # the fields are held in their column's bytes alone
    width = len(buffers) + 1  # segments per row
    pieces, firsts, at = [], [], 0  # the runs of fields copied to source; each field's first byte
    for buffer, length in zip(buffers, lengths):
        first = np.cumsum(length) - length  # each field's first byte in its buffer
        long = np.flatnonzero(length > GATHER_BYTES)  # fields sliced from their buffer, not copied
        placed, low = first + at, 0
        # a field moves up in source by the long bytes before it
        gone = np.zeros(len(length) + 1, dtype=np.intp)
        gone[long + 1] = length[long]
        placed -= gone.cumsum()[:-1]
        placed[long] = first[long]
        for start, stop in zip(first[long].tolist(), (first[long] + length[long]).tolist()):
            pieces.append((buffer, low, start))
            low = stop
            at -= stop - start
        pieces.append((buffer, low, len(buffer)))
        firsts.append(placed)
        at += len(buffer)
    fields_end = at
    text_rows = np.empty((count, line), dtype=np.uint8)
    keep_rows = np.empty(text_rows.shape, dtype=bool)
    text_rows[:, floatfmt.WIDTH:] = np.frombuffer(end, dtype=np.uint8)
    keep_rows[:, floatfmt.WIDTH:] = True
    source = np.empty(fields_end + text_rows.size, dtype=np.uint8)
    at = 0
    for buffer, low, high in pieces:
        source[at:at + high - low] = np.frombuffer(buffer, dtype=np.uint8)[low:high]
        at += high - low
    tables = [*(np.frombuffer(buffer, dtype=np.uint8) for buffer in buffers), source]  # by segment column
    ramp = np.arange(0)
    while rows:
        *codes, values = rows
        widths = [length.take(column_codes) for length, column_codes in zip(lengths, codes)]
        count = max(int(np.searchsorted(np.cumsum(sum(widths, line)), CHUNK_BYTES, "right")), 1)
        if count < len(values):
            pending.appendleft([column[count:] for column in rows])
        segments = np.empty((count, width), dtype=np.intp)  # each segment's length
        segment_firsts = np.empty_like(segments)  # and its first byte's index in source (a long field's in its column)
        for k, (first, column_codes, column_widths) in enumerate(zip(firsts, codes, widths)):
            segments[:, k] = column_widths[:count]
            segment_firsts[:, k] = first.take(column_codes[:count])
        del rows, codes, widths  # not held through the render
        text, keep = text_rows[:count], keep_rows[:count]
        segments[:, -1] = floatfmt.render(values[:count], text[:, :floatfmt.WIDTH], keep[:, :floatfmt.WIDTH])
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
        # The segments between two longer than the budget are gathered into
        # one piece; such a segment is a piece of its own, sliced from its
        # table: a field's is a view of its column's bytes, a number's a copy,
        # as source is written again for the next chunk.
        start = 0
        for stop in [*np.flatnonzero(segments > GATHER_BYTES).tolist(), len(segments)]:
            if start < stop:
                base = ends[start] - segments[start]
                out = np.empty(ends[stop - 1] - base, dtype=np.uint8)
                at = start
                while at < stop:
                    low = ends[at] - segments[at]
                    run = min(int(ends.searchsorted(low + GATHER_BYTES, "right")), stop)
                    index = (offsets[at:run] + low).repeat(segments[at:run])
                    if len(ramp) < len(index):
                        ramp = np.arange(len(index))
                    index += ramp[:len(index)]
                    source.take(index, out=out[low - base:low - base + len(index)])
                    at = run
                yield out
            if stop < len(segments):
                first = offsets[stop] + ends[stop] - segments[stop]
                piece = tables[stop % width][first:first + segments[stop]]
                yield piece.copy() if stop % width == width - 1 else piece
            start = stop + 1
        rows = _next_rows(pending, blocks, window)


def _repr_chunk(columns: list[list[bytes]], rows: list[np.ndarray], end: bytes, budget: int) -> Optional[bytes]:
    """The rows of :func:`_byte_rows` as one chunk, each value's text from ``repr``.

    Each row is its fields, then ``repr(value)`` and ``end``. The values
    are read in float64, as the kernel reads them, and go through
    ``tolist()``: numpy's ``repr`` of a ``float64`` is ``np.float64(...)``.
    None if the fields pass ``budget`` bytes.
    """
    *codes, values = rows
    fields = [list(map(column.__getitem__, column_codes.tolist())) for column, column_codes in zip(columns, codes)]
    if sum(map(len, chain.from_iterable(fields))) > budget:
        return None
    numbers = [repr(value).encode() for value in np.asarray(values, dtype=np.float64).tolist()]
    return b"".join(chain.from_iterable(zip(*fields, numbers, repeat(end))))


def _next_rows(pending: deque, blocks: Iterator[Sequence[np.ndarray]], count: int) -> list[np.ndarray]:
    """The next ``count`` rows or fewer, from the ``pending`` blocks and then from ``blocks``; [] at the end.

    A block is a sequence of arrays (or lists) of one length. Rows of one
    block come as slices of it, rows of several as one array copy; what is
    left of a block stays first in ``pending``.
    """
    parts = []
    while count:
        block = pending.popleft() if pending else next(blocks, None)
        if block is None:
            break
        size = len(block[-1])
        if size > count:
            pending.appendleft([column[count:] for column in block])
            block, size = [column[:count] for column in block], count
        if size:
            parts.append(block)
            count -= size
    if len(parts) == 1:
        return list(parts[0])
    return [np.concatenate(columns) for columns in zip(*parts)]


def _csv_table(header: list[str], names: Sequence[Sequence[str]],
               blocks: Iterable[Sequence[np.ndarray]]) -> Iterator[Union[bytes, np.ndarray]]:
    """A CSV table as UTF-8 chunks: the header, then per row of ``blocks`` a line.

    A block is ``(codes, ..., values)``: row i holds ``names[k][codes[k][i]]``
    of each column k, then ``repr(values[i])`` and LF.
    """
    yield (",".join(header) + "\n").encode("utf-8")
    yield from _byte_rows(list(map(_name_column, names)), blocks, b"\n")


def _csv_chunks(sample_set: SampleSet) -> Iterator[Union[bytes, np.ndarray]]:
    """Canonical CSV bytes in chunks: a ``csv.writer`` row per sample, utility as ``repr``."""
    return _csv_table(
        SAMPLES_HEADER,
        [sample_set.alternatives, sample_set.attributes, sample_set.situations],
        [(sample_set.alternative_codes, sample_set.attribute_codes, sample_set.situation_codes,
          sample_set.utilities)],
    )


def write_samples(sample_set: SampleSet, destination: Destination) -> str:
    """Write a set's canonical CSV; the hex sha256 of the bytes written, its :func:`digest_sample_set`."""
    return _write_hashed(destination, _csv_chunks(sample_set))


def write_sample_blocks(names: Sequence[Sequence[str]], blocks: Iterable[Sequence[np.ndarray]],
                        destination: Destination) -> None:
    """Write samples that come a block at a time, in canonical order, as :func:`write_samples` writes their set.

    ``names`` are the alternative, attribute and situation tables, and a
    block is ``(alternative codes, attribute codes, situation codes,
    utilities)``, as :func:`utilrank.scenario.sample_blocks` hands them
    out. Each block is checked as it comes: a utility that is not finite
    raises :class:`NonFiniteUtility`, and a path destination is then left
    as it was (see :func:`_write_bytes`). The :class:`UtilityRangeWarning`
    of the whole log is emitted once the last row is written.
    """
    tally = [0, 0]  # utilities outside [0, 1], and all of them

    def checked() -> Iterator[Sequence[np.ndarray]]:
        for block in blocks:
            tally[0] += check_utilities(names, block[:3], block[3])
            tally[1] += len(block[3])
            yield block

    _write_bytes(destination, _csv_table(SAMPLES_HEADER, names, checked()))
    warning = range_warning(*tally)
    if warning is not None:
        warnings.warn(warning, stacklevel=2)


def _write_bytes(destination: Destination, chunks: Iterable) -> None:
    """Write byte chunks as they are, so each ``\\n`` is an LF on every platform.

    ``destination`` is a path or an open binary stream such as
    ``sys.stdout.buffer``, which is written and left open. A path is
    written whole or not at all: the chunks go to a new file beside it,
    made with the mode the umask gives, which replaces the path once the
    last chunk is written, a symlink included, and is removed if any
    exception stops the writing. A path that names something other than
    a regular file, such as ``/dev/null``, is written in place. An error
    that stops the replacement names ``path``, not the new file.
    """
    if isinstance(destination, (str, os.PathLike)):
        path = os.fspath(destination)
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as out:
                out.writelines(chunks)
            return
        temporary, out = _new_file(path)
        try:
            with out:
                out.writelines(chunks)
            try:
                os.replace(temporary, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, path) from exc
        except BaseException:
            os.unlink(temporary)
            raise
    else:
        destination.writelines(chunks)


def _write_hashed(destination: Destination, chunks: Iterable) -> str:
    """Write byte chunks as :func:`_write_bytes` does; the hex sha256 of the bytes written."""
    hasher = hashlib.sha256()

    def hashed() -> Iterator:
        for chunk in chunks:
            hasher.update(chunk)
            yield chunk

    _write_bytes(destination, hashed())
    return hasher.hexdigest()


def _new_file(path: str) -> tuple[str, BinaryIO]:
    """A new file, open for writing, in the directory of ``path``, and its name.

    ``open(..., "xb")`` makes it, so its mode is the umask's and no file
    that is there already is written; a name taken is passed over. An
    error that makes the file impossible (no such directory, no
    permission) names ``path``, the file the caller asked for.
    """
    directory, name = os.path.split(path)
    attempt = 0
    while True:
        temporary = os.path.join(directory, f".{name}.{os.getpid()}-{attempt}.tmp")
        try:
            return temporary, open(temporary, "xb")
        except FileExistsError:
            attempt += 1
        except OSError as exc:
            exc.filename = path
            raise


def _texts(file: TextIO) -> Iterator[str]:
    """A text file's blocks from where it is on: ``READ_BYTES`` characters and the rest of the line they end in.

    ``file`` is open with ``newline=""``, so its lines end at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``, as ``csv`` ends them, and each block
    holds whole lines.
    """
    while block := file.read(READ_BYTES):
        yield block + file.readline()


def _bad_byte(file: BinaryIO) -> Optional[ParseError]:
    """The ParseError of the first byte of ``file`` that is not UTF-8, naming its line; None if there is none.

    Only for an error: the file is read again from its start, a block at a
    time, up to that byte or to its end, and its lines are counted as
    ``csv`` ends them, at ``\\n``, ``\\r\\n`` or a lone ``\\r``.
    """
    file.seek(0)
    decoder, line, last = codecs.getincrementaldecoder("utf-8")(), 1, b""
    while True:
        held = len(decoder.getstate()[0])  # the bytes of a character that the last read cut off
        block, bad = file.read(READ_BYTES), None
        try:
            decoder.decode(block, final=not block)
        except UnicodeDecodeError as exc:  # the block up to the bad byte, which may be a held one
            bad, block = exc.object[exc.start], block[:max(exc.start - held, 0)]
        line += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
        line -= last == b"\r" and block[:1] == b"\n"  # a \r\n across two reads
        if bad is not None:
            return ParseError(line, f"byte {bad:#04x} is not UTF-8 text")
        if not block:
            return None
        last = block[-1:]


def _rows(file: TextIO, header: list[str]) -> Iterator[tuple[list[str], Sequence[int], int]]:
    """The fields below the exact ``header``, row after row as ``csv.reader`` reads them, a block at a time.

    ``file`` is a table open with ``newline=""``. Yields ``(fields, lines,
    last)`` for each block of :func:`_texts`: column k of the block's rows
    is ``fields[k::len(header)]``, row i starts on line ``lines[i]`` and
    the block ends on line ``last`` (physical lines; blank lines are no
    rows). The first row of the wrong width or that csv cannot read raises
    its ParseError once the rows before it are yielded. A block that holds
    no quote and no NUL is split as text, with no container per row (see
    :func:`_split`); any other goes whole through :func:`_csv_block`.
    """
    width, head = len(header), ",".join(header)
    first = file.readline()
    if not first:
        raise ParseError(1, "file is empty; expected a header row")
    if first.rstrip("\r\n") == head:
        line = 2
    else:
        reader = csv.reader(chain([first], file))
        try:
            row = next(reader)
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise ParseError(reader.line_num, str(exc)) from None
        if row != header:
            raise ParseError(1, f"expected header {head!r}, got {','.join(row)!r}")
        line = reader.line_num + 1
    texts = _texts(file)
    for text in chain([next(texts, "")], texts):  # one block at least, for the last line
        fields, lines, line, fault = (_csv_block(text, file, width, line) if '"' in text or "\0" in text
                                      else _split(text, width, line))
        yield fields, lines, line - 1
        if fault is not None:
            raise fault


def _csv_block(text: str, file: TextIO, width: int,
               line: int) -> tuple[list[str], Sequence[int], int, Optional[ParseError]]:
    """The fields of a block's lines as ``csv.reader`` reads them, returned as :func:`_split` returns them.

    ``next`` is the line after the block's last record, which may run past
    ``text``: it is then read on from ``file``, over as many lines as it spans.
    """
    buffer = io.StringIO(text, newline="")
    reader = csv.reader(chain(buffer, file))
    fields, lines = [], []
    while buffer.tell() < len(text):
        read = reader.line_num
        try:
            row = next(reader)
        except csv.Error as exc:
            return fields, lines, line, ParseError(line + reader.line_num - read - 1, str(exc))
        if row and len(row) != width:
            return fields, lines, line, ParseError(line, f"expected {width} fields, got {len(row)}")
        if row:
            fields += row
            lines.append(line)
        line += reader.line_num - read
    return fields, lines, line, None


def _split(run: str, width: int, line: int) -> tuple[list[str], Sequence[int], int, Optional[ParseError]]:
    """The fields of lines that hold no quote and no NUL, as csv.reader reads them.

    ``run`` is whole lines, the first of them line ``line``. Returns
    ``(fields, lines, next, fault)``: column k is ``fields[k::width]``, row
    i is on line ``lines[i]`` and ``next`` is the line after ``run``.
    ``fault`` is the ParseError of the first row of the wrong width or with
    a field csv finds too long, or None; ``fields`` holds the rows before it.
    """
    limit, length = csv.field_size_limit(), len(run)
    rows = (run.replace("\r\n", "\n").replace("\r", "\n") if "\r" in run else run).split("\n")
    del run
    if not rows[-1]:
        rows.pop()  # the line end of the last line
    count = long = len(rows)  # long: the first row with a field that csv finds too long
    if length > limit:  # only a run that long can hold one
        long = next((k for k, row in enumerate(rows)
                     if len(row) > limit and max(map(len, row.split(","))) > limit), long)
    commas = np.fromiter(map(str.count, rows, repeat(",")), np.intp, count)
    odd = np.flatnonzero(commas != width - 1).tolist()  # blank lines and rows of the wrong width
    end = min(next((k for k in odd if rows[k]), count), long)
    fault = None
    if end < count:
        wrong = f"expected {width} fields, got {commas[end] + 1}"
        fault = ParseError(line + end, f"field larger than field limit ({limit})" if end == long else wrong)
    del rows[end:], commas
    blank = [k for k in odd if k < end]
    lines = range(line, line + end)
    if blank:
        lines = np.delete(np.arange(line, line + end), blank)
        rows = list(filter(None, rows))
    joined = ",".join(rows)
    del rows
    return joined.split(",") if joined else [], lines, line + count, fault


@contextmanager
def _table(path: PathLike, header: list[str]) -> Iterator[Iterator[tuple[list[str], Sequence[int], int]]]:
    """The :func:`_rows` of the file at ``path``, for a reader that checks them.

    The file is opened once, as UTF-8 text with ``newline=""``. When the
    reader raises on a row, the rest of the file is decoded first, so that
    a byte that is not UTF-8 anywhere in it is the error, as when the whole
    file was decoded before any row was read. Such a byte, wherever it is
    met, is a ParseError naming its line.
    """
    with open(path, encoding="utf-8", newline="") as file:
        try:
            try:
                yield _rows(file, header)
            except UtilrankError:
                while file.read(READ_BYTES):
                    pass
                raise
        except UnicodeDecodeError as exc:
            raise _bad_byte(file.buffer) or exc from None


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
    The log is read a block of text at a time (see :func:`_rows`): each
    block's names are coded through one table per column, in order of
    first appearance, and its utilities parsed, so the memory held follows
    a block and the columns, not the log's text. A byte that is not UTF-8
    anywhere in the log, then the first row whose utility is not a finite
    number or that has the wrong form, then the set as a whole is the
    error; a row's error names its line.
    """
    tables = [_Codes(), _Codes(), _Codes()]
    codes: list[list[np.ndarray]] = [[], [], []]
    utilities = []
    with _table(path, SAMPLES_HEADER) as rows:
        for fields, lines, _ in rows:
            values = _floats(fields[3::4])
            end = len(values)
            bad = _first(~np.isfinite(values))
            if bad < end:
                raise NonFiniteUtility(*fields[4 * bad:4 * bad + 3], line=int(lines[bad]))
            if end < len(fields) // 4:
                raise ParseError(int(lines[end]), f"utility {fields[4 * end + 3]!r} is not a number")
            for k, (table, column) in enumerate(zip(tables, codes)):
                column.append(np.fromiter(map(table.__getitem__, fields[k::4]), np.int32, end))
            utilities.append(values)
    del fields, lines, values  # the last block's, not held while the set is validated
    columns = [(list(table), _joined(column)) for table, column in zip(tables, codes)]
    return validate_sample_set(*columns, _joined(utilities))


class _Codes(dict):
    """Names and their codes; a name not there yet gets the next code, so codes follow first appearance."""

    def __missing__(self, name: str) -> int:
        self[name] = code = len(self)
        return code


def _joined(blocks: list[np.ndarray]) -> np.ndarray:
    """The blocks end to end; the list is emptied as they are, so each is held once."""
    joined = np.concatenate(blocks)
    blocks.clear()
    return joined


# ---------------------------------------------------------------------------
# Prior tables
# ---------------------------------------------------------------------------

def _prior_chunks(prior: PriorProfile) -> Iterator[Union[bytes, np.ndarray]]:
    """Canonical CSV bytes of a prior in chunks: one row per cell, attribute-major, probability as ``repr``.

    Each attribute's cells are one block of rows, its column of the matrix.
    """
    alternatives = np.arange(len(prior.alternatives))
    return _csv_table(PRIOR_HEADER, [prior.attributes, prior.alternatives], (
        (np.full(len(alternatives), j), alternatives, column) for j, column in enumerate(prior.matrix.T)
    ))


def write_prior(prior: PriorProfile, path: PathLike) -> str:
    """Write a prior's canonical CSV; the hex sha256 of the bytes written, its :func:`digest_prior`."""
    return _write_hashed(path, _prior_chunks(prior))


def read_prior(path: PathLike, sample_set: SampleSet) -> PriorProfile:
    """Parse a prior table and validate it against the sample set.

    Every (attribute, alternative) cell must appear exactly once. The table
    is read a block of text at a time (see :func:`_rows`), each block's
    cells marked in one flag per cell, so the memory held follows a block
    and the matrix. A byte that is not UTF-8 anywhere in the table, then
    the first row with an unknown attribute or alternative, a probability
    that is not a number or a repeated cell (checked in that order) or of
    the wrong form, then a missing cell, named at the last line, is the
    error.
    """
    attributes = {name: k for k, name in enumerate(sample_set.attributes)}
    alternatives = {name: k for k, name in enumerate(sample_set.alternatives)}
    width = len(attributes)
    seen = np.zeros(len(alternatives) * width, dtype=bool)
    matrix = np.empty(len(seen))
    with _table(path, PRIOR_HEADER) as rows:
        for fields, lines, last in rows:
            cols = _indices(attributes, fields[0::3])
            alts = _indices(alternatives, fields[1::3])
            cells = (alts * width + cols)[:_first((cols < 0) | (alts < 0))]  # up to an unknown name
            repeated = np.ones(len(cells), dtype=bool)  # named in an earlier row, of this block or one before
            repeated[np.unique(cells, return_index=True)[1]] = False
            repeated |= seen[cells]
            probabilities = _floats(fields[2::3])
            at, reason = min([  # each check's first row; a tie goes to the check made first
                (_first(cols < 0), lambda i: f"unknown attribute {fields[3 * i]!r}"),
                (_first(alts < 0), lambda i: f"unknown alternative {fields[3 * i + 1]!r}"),
                (len(probabilities), lambda i: f"probability {fields[3 * i + 2]!r} is not a number"),
                (_first(repeated), lambda i: "duplicate cell "
                                             f"({show_name(fields[3 * i])}, {show_name(fields[3 * i + 1])})"),
            ], key=lambda check: check[0])
            if at < len(cols):
                raise ParseError(int(lines[at]), reason(at))
            seen[cells] = True
            matrix[cells] = probabilities
    missing = _first(~seen)  # the first cell not named
    if missing < len(seen):
        i, j = divmod(missing, width)
        raise ParseError(last, f"missing cell ({show_name(sample_set.attributes[j])}, "
                               f"{show_name(sample_set.alternatives[i])})")
    return validate_prior(matrix.reshape(len(alternatives), width), sample_set)


def _indices(index: dict[str, int], column: list[str]) -> np.ndarray:
    """Each cell's code in ``index``; -1 for a name not there."""
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
    """A JSON int or float: true, "15" or null is rejected, not read as 1.0, 15.0 or a float() error."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
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
    the same provenance digest. :func:`write_samples` returns the same
    digest of the text it writes.
    """
    return _sha256(_csv_chunks(sample_set))


def digest_prior(prior: PriorProfile) -> str:
    """Digest of a prior's canonical CSV, as :func:`write_prior` returns it."""
    return _sha256(_prior_chunks(prior))


def _sha256(chunks: Iterable) -> str:
    """The sha256 of byte chunks."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
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
    laid out as ``json.dumps`` writes them, a dict or list that holds no
    container in one call to it. Each float of an array or list of
    finite floats becomes a row of :func:`_byte_rows`: the text since the
    float before it, then its ``repr``, from :func:`utilrank.floatfmt.render`
    in one chunked pass over a report's float arrays, or from ``repr`` itself
    in a document of at most ``SMALL_ROWS`` of them. A spec or config holds
    none and never calls the kernel. Such an array
    takes one step per dimension; one holding anything else is walked item
    by item. The walk runs before this returns: an object key that is not a
    string raises TypeError here. Each array's rows, the codes of its texts
    and a view of its floats, are made only when the chunks reach it.
    """
    rows = _JsonRows()
    rows.layout(doc, "\n")
    rows.pending.append("\n")
    prefixes = [text.encode("utf-8") for text in rows.prefixes]
    return chain(_byte_rows([prefixes], starmap(_json_block, rows.blocks), b""),
                 ["".join(rows.pending).encode("utf-8")])


def _json_block(first: int, starts: list[int], shape: tuple[int, ...], floats) -> tuple[array, Sequence[float]]:
    """The rows of one float array or list: the code of the text before each float, and the floats.

    The first float takes code ``first``; a later one that starts r of the
    array's lists takes ``starts[r]``.
    """
    codes = array("i", starts[:1]) * shape[-1]
    for start, size in zip(starts[1:], reversed(shape[:-1])):
        codes[0] = start
        codes *= size
    codes[0] = first
    return codes, floats.ravel() if isinstance(floats, np.ndarray) else floats


class _JsonRows:
    """A JSON document as rows: per float of a float array, a code for the text before it, and the float."""

    def __init__(self):
        self.pending: list[str] = []  # the text since the last float
        self.prefixes: dict[str, int] = {}  # each distinct text before a float, and its code
        self.blocks: list = []  # per float array, in order: the arguments of its _json_block
        self.layouts: dict[tuple[str, int], tuple[str, list[int], str]] = {}  # see _array_layout
        self.encoders: dict[str, Callable] = {}  # per newline, json.dumps of a container of scalars

    def _code(self, text: str) -> int:
        return self.prefixes.setdefault(text, len(self.prefixes))

    def layout(self, value, newline: str) -> None:
        """Lay out ``value``'s indented JSON; ``newline`` is a line break and its indent."""
        if isinstance(value, np.ndarray):
            if value.size and np.isfinite(value).all():
                self._array(value, newline)
            elif len(value):
                self._walk(value, newline)
            else:
                self.pending.append("[]")
            return
        if not isinstance(value, (dict, list, tuple)):
            self.pending.append(json.dumps(value))
            return
        if isinstance(value, dict):
            for kind in set(map(type, value)):
                if not issubclass(kind, str):
                    raise TypeError(f"JSON object keys must be str, not {kind.__name__}")
            kinds = set(map(type, value.values()))
        else:
            kinds = set(map(type, value))
            if value and all(issubclass(kind, float) for kind in kinds) and all(map(math.isfinite, value)):
                self._array(value, newline)
                return
        if any(issubclass(kind, (dict, list, tuple, np.ndarray)) for kind in kinds):
            if kinds == {list} and not isinstance(value, dict) and self._int_rows(value, newline):
                return
            self._walk(value, newline)
            return
        # Scalars only: one call, whose item separator is a line break at
        # this depth, which no JSON string holds raw.
        inner = newline + "  "
        if newline not in self.encoders:
            self.encoders[newline] = json.JSONEncoder(sort_keys=True, separators=("," + inner, ": ")).encode
        text = self.encoders[newline](value)
        self.pending.append(text[0] + inner + text[1:-1] + newline + text[-1] if value else text)

    def _int_rows(self, rows, newline: str) -> bool:
        """Lay out a list of non-empty lists of ints, such as a count matrix, as one text.

        An int's JSON is its ``str``. Returns False, laying out nothing,
        when ``rows`` is not such a list.
        """
        if not all(rows) or set(map(type, chain.from_iterable(rows))) != {int}:
            return False
        inner = newline + "  "
        inner2 = inner + "  "
        text = (inner + "]," + inner + "[" + inner2).join([("," + inner2).join(map(str, row)) for row in rows])
        self.pending.append("[" + inner + "[" + inner2 + text + inner + "]" + newline + "]")
        return True

    def _walk(self, value, newline: str) -> None:
        """Lay out a non-empty dict, list or array item by item."""
        inner = newline + "  "
        if isinstance(value, dict):
            for n, key in enumerate(sorted(value)):
                key_text = encode_basestring_ascii(key)  # as json.dumps(key) writes it
                self.pending.append(("{" if n == 0 else ",") + inner + key_text + ": ")
                self.layout(value[key], inner)
            self.pending.append(newline + "}")
        else:
            for n, item in enumerate(value):
                self.pending.append(("[" if n == 0 else ",") + inner)
                self.layout(item, inner)
            self.pending.append(newline + "]")

    def _array(self, floats, newline: str) -> None:
        """Lay out a non-empty list or array of finite floats as its nested lists, a row per float."""
        shape = floats.shape if isinstance(floats, np.ndarray) else (len(floats),)
        key = (newline, len(shape))
        if key not in self.layouts:
            self.layouts[key] = self._array_layout(*key)
        opening, starts, closing = self.layouts[key]
        self.blocks.append((self._code("".join(self.pending) + opening), starts, shape, floats))
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
