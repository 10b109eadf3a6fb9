"""File formats: parsing, validation errors, round trips, byte stability."""

import ast
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import struct
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import utilrank.io_files as io_files
from utilrank.errors import (
    ColumnNotNormalized,
    EmptyInput,
    InvalidSpec,
    NegativeEntry,
    NonFiniteUtility,
    ParseError,
    UtilrankError,
    show_name,
)
from utilrank.io_files import (
    PRIOR_HEADER,
    SAMPLES_HEADER,
    _dump_json,
    config_to_dict,
    digest_prior,
    digest_sample_set,
    parse_config,
    parse_log_base,
    read_config,
    read_prior,
    read_samples,
    read_scenario_spec,
    scenario_spec_to_dict,
    write_config,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from utilrank.model import EngineConfig, IgdNegativePolicy, validate_prior
from utilrank.reproduce import USE_CASE_SPEC, reproduce_paper
from utilrank.scenario import PairSpec, ScenarioSpec, generate_samples

from conftest import (
    USE_CASE_PRIOR,
    csv_writer_text,
    grid_sample_set,
    prior_to_csv,
    sample_rows,
    sample_set_from_rows,
    samples_to_csv,
)


@pytest.fixture(scope="module")
def use_case_samples():
    return generate_samples(USE_CASE_SPEC)


class TestSamplesFile:
    def test_round_trip(self, use_case_samples, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(use_case_samples, path)
        assert read_samples(path) == use_case_samples

    def test_well_formed_1200_rows(self, use_case_samples, tmp_path):
        path = tmp_path / "samples.csv"
        write_samples(use_case_samples, path)
        ss = read_samples(path)
        assert len(ss) == 1200
        assert ss.num_alternatives == 2 and ss.num_attributes == 2

    def test_header_only_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("alternative,attribute,situation,utility\n")
        with pytest.raises(EmptyInput):
            read_samples(path)

    def test_nan_utility_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "alternative,attribute,situation,utility\n"
            "A,x,s1,0.5\n"
            "A,x,s2,NaN\n"
        )
        with pytest.raises(NonFiniteUtility) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 3

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_bad_byte_and_bad_utility_name_the_same_line(self, tmp_path, end):
        # A lone \r ends a line for csv, so it must for the UTF-8 check too.
        lines = ["alternative,attribute,situation,utility", "A,x,s1,0.5", "", "A,x,s2,{}", ""]
        lines_at = {}
        for bad in (b"high", b"\xff"):
            path = tmp_path / "bad.csv"
            path.write_bytes(end.join(lines).encode().replace(b"{}", bad))
            with pytest.raises(ParseError) as exc_info:
                read_samples(path)
            lines_at[bad] = exc_info.value.line
        assert lines_at == {b"high": 4, b"\xff": 4}

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alt,attr,sit,util\nA,x,s1,0.5\n")
        with pytest.raises(ParseError) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 1

    def test_a_quoted_header_reads_as_the_plain_one(self, tmp_path):
        rows = "A,x,s1,0.5\nA,x,s2,0.25\nB,x,s1,0.75\nB,x,s2,0.5\n"
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text("alternative,attribute,situation,utility\n" + rows)
        quoted.write_text('"alternative",attribute,situation,utility\n' + rows)
        assert read_samples(quoted) == read_samples(plain)
        quoted.write_text('"alternative",attribute,situation,utility\nA,x,s1,0.5\nA,x,s2,high\n')
        with pytest.raises(ParseError) as exc_info:
            read_samples(quoted)
        assert exc_info.value.line == 3

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alternative,attribute,situation,utility\nA,x,0.5\n")
        with pytest.raises(ParseError) as exc_info:
            read_samples(path)
        assert exc_info.value.line == 2

    def test_non_numeric_utility(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alternative,attribute,situation,utility\nA,x,s1,high\n")
        with pytest.raises(ParseError):
            read_samples(path)

    def test_canonical_csv_uses_lf(self, use_case_samples):
        text = samples_to_csv(use_case_samples)
        assert "\r" not in text
        assert text.startswith("alternative,attribute,situation,utility\n")

    def test_digest_ignores_input_ordering(self, use_case_samples):
        rng = np.random.default_rng(2)
        shuffled = sample_rows(use_case_samples)
        rng.shuffle(shuffled)
        assert digest_sample_set(sample_set_from_rows(shuffled)) == digest_sample_set(
            use_case_samples
        )


class TestWrittenDigest:
    """A writer returns the sha256 of the bytes it wrote: the digest of the value it wrote."""

    def test_write_samples_returns_the_digest_of_its_bytes(self, use_case_samples, tmp_path):
        path, stream = tmp_path / "samples.csv", io.BytesIO()
        digest = write_samples(use_case_samples, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert write_samples(use_case_samples, stream) == digest
        assert digest == hashlib.sha256(stream.getvalue()).hexdigest() == digest_sample_set(use_case_samples)
        assert digest == hashlib.sha256(samples_to_csv(use_case_samples).encode("utf-8")).hexdigest()

    def test_write_prior_returns_the_digest_of_its_bytes(self, use_case_samples, tmp_path):
        prior = validate_prior(USE_CASE_PRIOR, use_case_samples)
        path, stream = tmp_path / "prior.csv", io.BytesIO()
        digest = write_prior(prior, path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        assert write_prior(prior, stream) == digest
        assert digest == hashlib.sha256(stream.getvalue()).hexdigest() == digest_prior(prior)
        assert digest == hashlib.sha256(prior_to_csv(prior).encode("utf-8")).hexdigest()

    def test_writing_changes_no_field(self, tmp_path):
        sample_set, twin_set = generate_samples(USE_CASE_SPEC), generate_samples(USE_CASE_SPEC)
        prior, twin_prior = (validate_prior(USE_CASE_PRIOR, each) for each in (sample_set, twin_set))
        write_samples(sample_set, tmp_path / "samples.csv")
        write_prior(prior, tmp_path / "prior.csv")
        assert sample_set == twin_set
        for value, twin in ((sample_set, twin_set), (prior, twin_prior)):
            for field in dataclasses.fields(value):
                assert np.array_equal(getattr(value, field.name), getattr(twin, field.name)), field.name

    def test_reproduce_paper_renders_samples_and_prior_once(self, tmp_path, monkeypatch):
        renders = []
        for name in ("_csv_chunks", "_prior_chunks"):
            real = getattr(io_files, name)
            monkeypatch.setattr(io_files, name,
                                lambda value, name=name, real=real: renders.append(name) or real(value))
        report = reproduce_paper(tmp_path)
        assert renders == ["_csv_chunks", "_prior_chunks"]
        for name, digest in (("samples.csv", report.provenance.samples_sha256),
                             ("prior.csv", report.provenance.prior_sha256)):
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


class TestDigestMemo:
    """The digest a writer returns is what a caller keeps: it equals the digest streamed from an equal value."""

    def test_prior_memo_equals_streamed_digest(self, tmp_path):
        sample_set = generate_samples(USE_CASE_SPEC)
        written = validate_prior(USE_CASE_PRIOR, sample_set)
        streamed = digest_prior(validate_prior(USE_CASE_PRIOR, sample_set))
        assert streamed == hashlib.sha256(prior_to_csv(written).encode("utf-8")).hexdigest()
        path = tmp_path / "prior.csv"
        kept = write_prior(written, path)
        assert kept == streamed == hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest_prior(written) == streamed  # writing leaves nothing on the value that moves its digest


def _unpinned_writes(source: str) -> list[int]:
    """Lines of calls that write text without ``newline=``: ``write_text``, or ``open`` in a text write mode.

    Without ``newline=""`` text mode turns each ``\\n`` into ``os.linesep``,
    CRLF on Windows. Binary mode translates nothing (and refuses ``newline=``).
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call) or any(k.arg == "newline" for k in node.keywords):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "write_text":
            lines.append(node.lineno)
        elif name == "open":
            at = 0 if isinstance(func, ast.Attribute) else 1  # Path.open(mode) or open(path, mode)
            mode = next((k.value for k in node.keywords if k.arg == "mode"),
                        node.args[at] if len(node.args) > at else ast.Constant("r"))
            if not isinstance(mode, ast.Constant):
                lines.append(node.lineno)  # a mode only known at run time
            elif set(mode.value) & set("wax+") and "b" not in mode.value:
                lines.append(node.lineno)
    return lines


class TestWritersEmitLf:
    def test_no_text_write_lacks_newline(self):
        package = Path(io_files.__file__).parent
        found = {path.name: _unpinned_writes(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_scanner_finds_unpinned_writes(self):
        source = "\n".join([
            'Path(p).write_text(t, encoding="utf-8")',
            'open(p, "w", encoding="utf-8")',
            'open(p, mode="a")',
            'Path(p).open("w")',
            'open(p, mode)',
            'open(p, "w", encoding="utf-8", newline="")',
            'Path(p).write_text(t, newline="")',
            'open(p, "wb")',
            'open(p)',
            'Path(p).open()',
        ])
        assert _unpinned_writes(source) == [1, 2, 3, 4, 5]


def _indented_dumps(source: str) -> list[int]:
    """Lines of ``json.dump``/``json.dumps`` calls with ``indent=``: documents written beside ``_dump_json``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps") and getattr(node.func.value, "id", None) == "json"
            and any(k.arg == "indent" for k in node.keywords)]


class TestOneJsonWriter:
    """Every JSON document is written by ``_dump_json``, byte for byte as ``json.dumps`` would."""

    def test_no_indented_dumps_in_the_package(self):
        package = Path(io_files.__file__).parent
        found = {path.name: _indented_dumps(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
        assert {name: lines for name, lines in found.items() if lines} == {}

    def test_scanner_finds_indented_dumps(self):
        source = "\n".join([
            "json.dumps(doc, indent=2, sort_keys=True)",
            "json.dump(doc, out, indent=None)",
            "json.dumps(value)",
            "json.dumps(items, separators=(',', ': '))",
        ])
        assert _indented_dumps(source) == [1, 2]

    def test_spec_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_files.floatfmt, "render", None)  # no float array: no kernel call
        floats = [-0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, 0.5]
        spec = ScenarioSpec(tuple(PairSpec("naïve 日本", f"x{k}", mean, variance, 2)
                                  for k, (mean, variance) in enumerate(zip(floats, floats[1:]))),
                            2 ** 64 - 1)
        path = tmp_path / "scenario.json"
        write_scenario_spec(spec, path)
        expected = json.dumps(scenario_spec_to_dict(spec), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("base", [math.e, 2.0, 1.00001], ids=["e", "2", "1.00001"])
    def test_config_bytes(self, tmp_path, monkeypatch, base):
        monkeypatch.setattr(io_files.floatfmt, "render", None)
        config = EngineConfig(entropy_log_base=base, prior_smoothing_epsilon=1e-05)
        path = tmp_path / "config.json"
        write_config(config, path)
        expected = json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")


class TestPriorFile:
    @pytest.fixture
    def sample_set(self):
        return grid_sample_set(
            ("AI1", "AI2"), ("force_protection", "proportionality"), lambda i, j: [0.1, 0.2]
        )

    def test_use_case_round_trip(self, sample_set, tmp_path):
        prior = validate_prior(USE_CASE_PRIOR, sample_set)
        path = tmp_path / "prior.csv"
        write_prior(prior, path)
        loaded = read_prior(path, sample_set)
        np.testing.assert_array_equal(loaded.matrix, prior.matrix)
        # columns as published: fp = (0.7, 0.3), prop = (0.1, 0.9)
        np.testing.assert_array_equal(loaded.matrix[:, 0], [0.7, 0.3])
        np.testing.assert_array_equal(loaded.matrix[:, 1], [0.1, 0.9])

    def test_carriage_return_names_round_trip(self, tmp_path):
        sample_set = grid_sample_set(("a\rb", "c"), ("x\r", "y"), lambda i, j: [0.1, 0.2])
        prior = validate_prior(USE_CASE_PRIOR, sample_set)
        path = tmp_path / "prior.csv"
        write_prior(prior, path)
        np.testing.assert_array_equal(read_prior(path, sample_set).matrix, prior.matrix)

    def test_missing_cell(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.7\n"
            "force_protection,AI2,0.3\n"
            "proportionality,AI1,1.0\n"
        )
        with pytest.raises(ParseError) as exc_info:
            read_prior(path, sample_set)
        assert "missing cell" in str(exc_info.value)

    def test_missing_cell_names_the_files_last_line(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("attribute,alternative,probability\nforce_protection,AI1,0.7\n\n\n")
        with pytest.raises(ParseError) as exc_info:
            read_prior(path, sample_set)
        assert str(exc_info.value) == "line 4: missing cell (proportionality, AI1)"

    def test_column_sum_violation(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.69\n"
            "force_protection,AI2,0.3\n"
            "proportionality,AI1,0.1\n"
            "proportionality,AI2,0.9\n"
        )
        with pytest.raises(ColumnNotNormalized):
            read_prior(path, sample_set)

    def test_unknown_identifier(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text("attribute,alternative,probability\nbogus,AI1,1.0\n")
        with pytest.raises(ParseError):
            read_prior(path, sample_set)

    def test_duplicate_cell(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,0.7\n"
            "force_protection,AI1,0.7\n"
        )
        with pytest.raises(ParseError):
            read_prior(path, sample_set)

    def test_negative_cell_message_prints_the_number(self, sample_set, tmp_path):
        path = tmp_path / "prior.csv"
        path.write_text(
            "attribute,alternative,probability\n"
            "force_protection,AI1,1.5\n"
            "force_protection,AI2,-0.5\n"
            "proportionality,AI1,0.1\n"
            "proportionality,AI2,0.9\n"
        )
        with pytest.raises(NegativeEntry) as exc_info:
            read_prior(path, sample_set)
        assert str(exc_info.value) == "negative prior probability -0.5 at (AI2, force_protection)"


# Prior faults, each a change to the four rows of a table: (row, the row
# that replaces it, or None to drop it and end the file with two blank
# lines). Their messages and lines in a quote-free table over
# PLAIN_PRIOR_NAMES, then in one over QUOTED_PRIOR_NAMES, which csv.writer
# quotes; its third row starts on line 4 and ends on line 5.
PLAIN_PRIOR_NAMES = (("AI1", "AI2"), ("force_protection", "proportionality"))
QUOTED_PRIOR_NAMES = (("AI1", 'A,"2"'), ("force_protection", "propor\ntionality"))
PRIOR_FAULTS = {
    "unknown-attribute": (2, ("bogus", 0, "0.1"),
                          "line 4: unknown attribute 'bogus'", "line 4: unknown attribute 'bogus'"),
    "unknown-alternative": (1, (0, "AI9", "0.3"),
                            "line 3: unknown alternative 'AI9'", "line 3: unknown alternative 'AI9'"),
    "attribute-first": (3, ("bogus", "AI9", "high"),
                        "line 5: unknown attribute 'bogus'", "line 6: unknown attribute 'bogus'"),
    "alternative-before-number": (3, (1, "AI9", "high"),
                                  "line 5: unknown alternative 'AI9'", "line 6: unknown alternative 'AI9'"),
    "not-a-number": (3, (1, 1, "high"), "line 5: probability 'high' is not a number",
                     "line 6: probability 'high' is not a number"),
    "number-before-duplicate": (3, (1, 0, "high"), "line 5: probability 'high' is not a number",
                                "line 6: probability 'high' is not a number"),
    "duplicate-cell": (3, (1, 0, "0.9"), "line 5: duplicate cell (proportionality, AI1)",
                       "line 6: duplicate cell ('propor\\ntionality', AI1)"),
    "missing-cell": (3, None, "line 6: missing cell (proportionality, AI2)",
                     "line 7: missing cell ('propor\\ntionality', A,\"2\")"),
}


@pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
@pytest.mark.parametrize("case", sorted(PRIOR_FAULTS))
def test_prior_fault_names_its_line(case, quoted, tmp_path):
    alternatives, attributes = QUOTED_PRIOR_NAMES if quoted else PLAIN_PRIOR_NAMES
    at, change, *messages = PRIOR_FAULTS[case]
    rows = [[attribute, alternative, "0.5"] for attribute in attributes for alternative in alternatives]
    if change is None:
        del rows[at]
    else:  # an int in the change is the index of one of the table's names
        attribute, alternative, probability = change
        rows[at] = [attributes[attribute] if isinstance(attribute, int) else attribute,
                    alternatives[alternative] if isinstance(alternative, int) else alternative,
                    probability]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([PRIOR_HEADER, *rows])
    text = out.getvalue() + ("\n\n" if change is None else "")
    path = tmp_path / "prior.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError) as exc_info:
        read_prior(path, grid_sample_set(alternatives, attributes, lambda i, j: [0.1, 0.2]))
    assert str(exc_info.value) == messages[quoted]


# Cells a fuzzed log is built from: plain names and numbers, and what
# could part a splitter from csv.reader (spaces, NUL, \x85 and \x0b, which
# str.splitlines breaks on, empty fields and non-numbers).
ODD_CELLS = ["", " ", "a ", " a", "\0", "a\0", "\x85", "b\x0bc", "x", "nan", "-inf", "1e999",
             " 0.5", "1_0", "-0", "0.25"]

# Quoted cells, which only csv.reader reads: a comma, a doubled quote, a
# quoted LF and CR, a quote inside an unquoted field, an unterminated quote.
QUOTED_CELLS = ['"a,b"', '"q""x"', '"l\nf"', '"c\rr"', 'a"b', '"open']


def _mutated_log(rng: random.Random, header: str, rows: list[list[str]]) -> str:
    """``rows`` under ``header``, shuffled, with a few random flaws a reader must catch or skip.

    Half the logs get one or two quoted cells: a cell quoted as csv.writer
    would (the same name), or one of ``QUOTED_CELLS``.
    """
    rows = [list(row) for row in rows]
    rng.shuffle(rows)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        row = rng.choice(rows)
        if not row:  # a blank line added earlier
            continue
        flaw = rng.randrange(6)
        if flaw == 0:
            row[rng.randrange(len(row))] = rng.choice(ODD_CELLS)
        elif flaw == 1:
            row.insert(rng.randrange(len(row) + 1), rng.choice(ODD_CELLS))
        elif flaw == 2:
            del row[rng.randrange(len(row))]
        elif flaw == 3:
            rows.append(list(row))
        elif flaw == 4 and len(rows) > 1:
            rows.remove(row)
        else:
            rows.insert(rng.randrange(len(rows) + 1), [])
    filled = [row for row in rows if row]
    for _ in range(rng.choice([1, 2]) if filled and rng.random() < 0.5 else 0):
        row = rng.choice(filled)
        k = rng.randrange(len(row))
        row[k] = rng.choice(['"' + row[k].replace('"', '""') + '"', *QUOTED_CELLS])
    if rng.random() < 0.05:
        header = rng.choice(["", header + " ", header.replace(",", ",,", 1)])
    text = "\n".join([header, *map(",".join, rows)])
    return text if rng.random() < 0.2 else text + "\n" * rng.choice([1, 1, 2])


def _line_ends(rng: random.Random, text: str) -> str:
    """``text`` kept with LF line ends, given CRLF ones or a mix, or with a ``\\r`` put in anywhere."""
    kind = rng.randrange(4)
    if kind == 1:
        return text.replace("\n", "\r\n")
    if kind == 2:
        first, *rest = text.split("\n")
        return first + "".join(rng.choice(["\n", "\r\n"]) + line for line in rest)
    if kind == 3:
        at = rng.randrange(len(text) + 1)
        return text[:at] + "\r" + text[at:]
    return text


def _outcome(read, *args):
    """What a reader returns, or the type, message and line of the error it raises."""
    try:
        return read(*args)
    except UtilrankError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# The row loop the column readers replaced, kept as their oracle: csv.reader
# row by row, each check made as its row is read. A row's line is the
# physical line it starts on, one past the line the reader had reached.
ORACLE_READER = csv.reader


def _oracle_rows(text: str, header: list[str]):
    """(line, row) of each row below the exact ``header``; blank rows are empty.

    The last item is an empty row on the file's last line.
    """
    reader = ORACLE_READER(io.StringIO(text, newline=""))
    try:
        first = next(reader, None)
        if first is None:
            raise ParseError(1, "file is empty; expected a header row")
        if first != header:
            raise ParseError(1, f"expected header {','.join(header)!r}, got {','.join(first)!r}")
        line_no = reader.line_num
        for row in reader:
            if row and len(row) != len(header):
                raise ParseError(line_no + 1, f"expected {len(header)} fields, got {len(row)}")
            yield line_no + 1, row
            line_no = reader.line_num
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    yield reader.line_num, []


def _oracle_samples(text: str):
    rows = []
    for line_no, row in _oracle_rows(text, SAMPLES_HEADER):
        if not row:
            continue
        alternative, attribute, situation, raw_utility = row
        try:
            utility = float(raw_utility)
        except ValueError:
            raise ParseError(line_no, f"utility {raw_utility!r} is not a number") from None
        if not math.isfinite(utility):
            raise NonFiniteUtility(alternative, attribute, situation, line=line_no)
        rows.append((alternative, attribute, situation, utility))
    return sample_set_from_rows(rows)


def _oracle_prior(text: str, sample_set):
    alt_index = {a: i for i, a in enumerate(sample_set.alternatives)}
    attr_index = {a: j for j, a in enumerate(sample_set.attributes)}
    matrix = np.zeros((len(alt_index), len(attr_index)))
    seen = np.zeros(matrix.shape, dtype=bool)
    for line_no, row in _oracle_rows(text, PRIOR_HEADER):
        if not row:
            continue
        attribute, alternative, raw_probability = row
        if attribute not in attr_index:
            raise ParseError(line_no, f"unknown attribute {attribute!r}")
        if alternative not in alt_index:
            raise ParseError(line_no, f"unknown alternative {alternative!r}")
        try:
            probability = float(raw_probability)
        except ValueError:
            raise ParseError(line_no, f"probability {raw_probability!r} is not a number") from None
        key = (alt_index[alternative], attr_index[attribute])
        if seen[key]:
            raise ParseError(line_no, f"duplicate cell ({show_name(attribute)}, {show_name(alternative)})")
        seen[key] = True
        matrix[key] = probability
    missing = np.argwhere(~seen)
    if missing.size:
        i, j = missing[0]
        alt, attr = sample_set.alternatives[i], sample_set.attributes[j]
        raise ParseError(line_no, f"missing cell ({show_name(attr)}, {show_name(alt)})")
    return validate_prior(matrix, sample_set)


@pytest.fixture
def csv_rows(monkeypatch):
    """A list that gets each row a reader reads through csv.reader."""
    rows = []
    monkeypatch.setattr(csv, "reader", lambda *args: _CountingReader(ORACLE_READER(*args), rows))
    return rows


class TestReadersMatchRowLoop:
    """Both ways the readers tokenize, split and csv.reader, agree with the row-loop oracle."""

    def test_samples(self, tmp_path, csv_rows):
        self._check_samples(tmp_path, csv_rows, 5000)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_samples_at_block_edges(self, tmp_path, csv_rows, monkeypatch, block):
        # Every quoted line break, \r\n pair, multi-byte character and row
        # then falls on a block edge somewhere.
        monkeypatch.setattr(io_files, "READ_BYTES", block)
        self._check_samples(tmp_path, csv_rows, 600)

    def test_prior(self, tmp_path, csv_rows):
        self._check_prior(tmp_path, csv_rows, 5000)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_prior_at_block_edges(self, tmp_path, csv_rows, monkeypatch, block):
        monkeypatch.setattr(io_files, "READ_BYTES", block)
        self._check_prior(tmp_path, csv_rows, 600)

    @staticmethod
    def _check_samples(tmp_path, csv_rows, rounds):
        rng = random.Random(11)
        numbers = ["0.5", "1", "-2e3", "0.125", "3", "1e-300"]
        path = tmp_path / "samples.csv"
        split = crlf = 0
        for _ in range(rounds):  # a quarter get a stray \r, which is split as a line end
            alternatives = rng.sample(["A", "B", "a b", "\x85"], rng.choice([1, 2]))
            situations = ["s1", "s2", "s3"][:rng.choice([2, 3])]
            rows = [[alt, attr, sit, rng.choice(numbers)]
                    for alt in alternatives for attr in ("x", "y") for sit in situations]
            text = _line_ends(rng, _mutated_log(rng, ",".join(SAMPLES_HEADER), rows))
            path.write_bytes(text.encode("utf-8"))
            read = len(csv_rows)
            assert _outcome(read_samples, path) == _outcome(_oracle_samples, text), repr(text)
            if len(csv_rows) == read:
                split += 1
                crlf += "\r" in text
        assert split > 0.3 * rounds and crlf > 0.16 * rounds and rounds - split > 0.5 * rounds, (split, crlf)

    @staticmethod
    def _check_prior(tmp_path, csv_rows, rounds):
        rng = random.Random(12)
        sample_set = grid_sample_set(("a", "b\x85"), ("x", "y"), lambda i, j: [0.1, 0.2])
        path = tmp_path / "prior.csv"
        split = crlf = 0
        for _ in range(rounds):  # a quarter get a stray \r, which is split as a line end
            p, q = rng.choice([(0.5, 0.5), (0.25, 0.75), (1.0, 0.0), (0.7, 0.3)])
            rows = [["x", "a", repr(p)], ["x", "b\x85", repr(q)],
                    ["y", "a", repr(q)], ["y", "b\x85", repr(p)]]
            text = _line_ends(rng, _mutated_log(rng, ",".join(PRIOR_HEADER), rows))
            path.write_bytes(text.encode("utf-8"))
            read = len(csv_rows)
            got, expected = _outcome(read_prior, path, sample_set), _outcome(_oracle_prior, text, sample_set)
            if isinstance(expected, tuple):
                assert got == expected, repr(text)
            else:
                assert got.matrix.tobytes() == expected.matrix.tobytes(), repr(text)
            if len(csv_rows) == read:
                split += 1
                crlf += "\r" in text
        assert split > 0.3 * rounds and crlf > 0.16 * rounds and rounds - split > 0.5 * rounds, (split, crlf)


class _CountingReader:
    """A csv.reader that puts each row it reads in ``rows``."""

    def __init__(self, reader, rows: list):
        self.reader, self.rows = reader, rows

    def __iter__(self):
        return self

    def __next__(self):
        row = next(self.reader)
        self.rows.append(row)
        return row

    @property
    def line_num(self) -> int:
        return self.reader.line_num


class TestBlockReader:
    """What reading a block at a time must keep, where a long log, a long line or a late fault shows it."""

    @staticmethod
    def _plain_log(tmp_path):
        """A log of 8,000 rows, about 290 KB, that holds no quote."""
        spec = ScenarioSpec(tuple(PairSpec(f"A{i:03d}", f"k{j:02d}", 0.5, 0.01, 2)
                                  for i in range(200) for j in range(20)), seed=1)
        path = tmp_path / "plain.csv"
        write_samples(generate_samples(spec), path)
        return path

    def test_only_the_quoted_records_block_goes_through_csv(self, tmp_path, csv_rows):
        plain, quoted = self._plain_log(tmp_path), tmp_path / "quoted.csv"
        quoted.write_bytes(plain.read_bytes().replace(b"\nA150,k07,", b'\n"A150",k07,', 1))
        assert read_samples(quoted) == read_samples(plain)
        with quoted.open(encoding="utf-8", newline="") as file:
            file.readline()
            blocks = [text for text in io_files._texts(file) if '"' in text]
        assert len(blocks) == 1 and len(blocks[0]) <= io_files.READ_BYTES + 64  # and the rest of a line
        assert csv_rows == list(ORACLE_READER(io.StringIO(blocks[0].replace('"', ""))))
        assert ["A150", "k07"] in [row[:2] for row in csv_rows]

    @pytest.mark.parametrize("block", [1 << 16, 4096])
    def test_one_csv_reader_per_quoted_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(io_files, "READ_BYTES", block)
        plain, quoted = self._plain_log(tmp_path), tmp_path / "quoted.csv"
        header, *rows = plain.read_text().splitlines()
        rows[::10] = [",".join(f'"{field}"' for field in row.split(",")) for row in rows[::10]]
        quoted.write_text("\n".join([header, *rows]) + "\n")
        with quoted.open(encoding="utf-8", newline="") as file:
            file.readline()
            blocks = sum('"' in text for text in io_files._texts(file))
        readers = []
        monkeypatch.setattr(csv, "reader", lambda *args: readers.append(args) or ORACLE_READER(*args))
        assert read_samples(quoted) == read_samples(plain)
        assert len(readers) == blocks > (1 if block == 1 << 16 else 60)

    @pytest.mark.parametrize("table", ["samples", "prior"])
    def test_a_bad_byte_blocks_after_a_bad_row_still_wins(self, tmp_path, monkeypatch, table):
        # Row k is on line k + 2: the bad byte is on line 152, some 25 blocks after the bad row.
        monkeypatch.setattr(io_files, "READ_BYTES", 64)
        if table == "samples":
            header, rows, read = SAMPLES_HEADER, [b"A,x,s%03d,0.5" % k for k in range(200)], read_samples
            rows[2], fault = b"A,x,s002,high", "line 4: utility 'high' is not a number"
        else:
            sample_set = grid_sample_set(["A"], ["x"], lambda i, j: [0.1, 0.2])
            header, rows = PRIOR_HEADER, [b"x,A,high"] + [b""] * 199
            read, fault = lambda path: read_prior(path, sample_set), "line 2: probability 'high' is not a number"
        path = tmp_path / "table.csv"
        for bad_byte, message in ((b"", fault), (b"\xff", "line 152: byte 0xff is not UTF-8 text")):
            rows[150] += bad_byte
            path.write_bytes(b"\n".join([",".join(header).encode(), *rows]) + b"\n")
            with pytest.raises(ParseError) as exc_info:
                read(path)
            assert str(exc_info.value) == message

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_a_bad_bytes_line_counts_line_ends_across_reads(self, tmp_path, monkeypatch, end):
        path = tmp_path / "samples.csv"
        rows = [b"A,x,s%02d,0.5" % k for k in range(40)]
        path.write_bytes(end.join([",".join(SAMPLES_HEADER).encode(), *rows, b"A,x,s40,0.\xff"]) + end)
        for block in (1, 2, 3, 7, 1 << 16):
            monkeypatch.setattr(io_files, "READ_BYTES", block)
            with pytest.raises(ParseError) as exc_info:
                read_samples(path)
            assert str(exc_info.value) == "line 42: byte 0xff is not UTF-8 text", block

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("case", ["quoted", "after-a-bad-row", "cut-off"])
    def test_a_bad_byte_the_file_decodes_late_names_its_line(self, tmp_path, monkeypatch, case, block):
        # A text file decodes 8 KiB of bytes at a time, so each bad byte
        # below is met once rows are read: while csv reads a quoted record
        # on from the file, while the rest is read after a bad row, or as a
        # character cut off at the file's end.
        monkeypatch.setattr(io_files, "READ_BYTES", block)
        plain = b"".join(b"A,x,s%04d,0.5\n" % k for k in range(1000))  # lines 3-1002 below
        log, message = {
            "quoted": (b'"' + b"Q\n" * 5000 + b'\xff",x,s1,0.5\n', "line 5002: byte 0xff is not UTF-8 text"),
            "after-a-bad-row": (b"A,x,s1,high\n" + plain + b"A,x,\xff,0.5\n", "line 1003: byte 0xff is not UTF-8 text"),
            "cut-off": (b"A,x,s1,0.5\n" + plain + b"A,x,s\xe2\x82", "line 1003: byte 0xe2 is not UTF-8 text"),
        }[case]
        path = tmp_path / "samples.csv"
        path.write_bytes(",".join(SAMPLES_HEADER).encode() + b"\n" + log)
        with pytest.raises(ParseError) as exc_info:
            read_samples(path)
        assert str(exc_info.value) == message

    def test_a_log_with_cr_line_ends_reads_in_blocks(self, tmp_path, monkeypatch):
        sample_set = sample_set_from_rows([(alternative, attribute, f"s{k}", k / 8)
                                           for alternative in ("A", 'B,"1"') for attribute in ("x", "y\rz")
                                           for k in range(8)])
        path = tmp_path / "samples.csv"
        write_samples(sample_set, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        for block in (1 << 16, 1, 7, 64):
            monkeypatch.setattr(io_files, "READ_BYTES", block)
            assert read_samples(path) == sample_set, block
        with path.open(encoding="utf-8", newline="") as file:
            assert len(list(io_files._texts(file))) > 5  # cut at a lone \r, not held whole

    def test_a_long_name_reads_back_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(io_files, "READ_BYTES", 64)
        path = tmp_path / "samples.csv"
        for name in ("L" * 20_000, "Q,\n" * 5_000 + "Q"):  # split, then read by csv over 5,001 lines
            sample_set = sample_set_from_rows([(name, "x", "s1", 0.25), (name, "x", "s2", 0.5),
                                               ("B", "x", "s1", 0.75), ("B", "x", "s2", 1.0)])
            write_samples(sample_set, path)
            assert read_samples(path) == sample_set

    def test_a_duplicate_cell_is_named_on_its_second_line(self, tmp_path, monkeypatch):
        # Row k is on line k + 2: the first copy is on line 3, some blocks before the second.
        monkeypatch.setattr(io_files, "READ_BYTES", 64)
        alternatives = [f"A{i}" for i in range(10)]
        rows = [f"{attribute},{alternative},0.1" for attribute in "xy" for alternative in alternatives]
        rows[17] = rows[1]
        path = tmp_path / "prior.csv"
        path.write_text("\n".join([",".join(PRIOR_HEADER), *rows]) + "\n")
        with pytest.raises(ParseError) as exc_info:
            read_prior(path, grid_sample_set(alternatives, ["x", "y"], lambda i, j: [0.1, 0.2]))
        assert str(exc_info.value) == "line 19: duplicate cell (x, A1)"


class TestScenarioSpecFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        write_scenario_spec(USE_CASE_SPEC, path)
        assert read_scenario_spec(path) == USE_CASE_SPEC

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema_version": 99, "seed": 1, "pairs": []}))
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)

    def test_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"schema_version": 1, "pairs": [{"alternative": "A"}]}))
        with pytest.raises(InvalidSpec):
            read_scenario_spec(path)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        config = EngineConfig(
            entropy_log_base=2.0,
            kld_log_base=math.e,
            prior_smoothing_epsilon=0.001,
            igd_negative_policy=IgdNegativePolicy.MIN_SHIFT,
            report_weight_rounding=2,
        )
        path = tmp_path / "config.json"
        write_config(config, path)
        assert parse_config(read_config(path)) == config

    def test_e_base_serialization(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(EngineConfig(), path)
        doc = json.loads(path.read_text())
        assert doc["entropy_log_base"] == "e"
        assert parse_config(read_config(path)).entropy_log_base == math.e

    @pytest.mark.parametrize("raw,expected", [("e", math.e), ("10", 10.0), (2, 2.0)])
    def test_parse_log_base(self, raw, expected):
        assert parse_log_base(raw) == expected

    def test_parse_config_rejects_unknown_key(self):
        with pytest.raises(InvalidSpec) as exc_info:
            parse_config({"kld_logbase": 2})
        assert str(exc_info.value) == "unknown config key 'kld_logbase'"
        assert parse_config({"schema_version": 1, "kld_log_base": 2}).kld_log_base == 2.0

    def test_parse_log_base_rejects_garbage(self):
        with pytest.raises(InvalidSpec):
            parse_log_base("loge")

    def test_config_dict_stable(self):
        assert config_to_dict(EngineConfig()) == config_to_dict(EngineConfig())


PAIR_DOC = {"alternative": "A", "attribute": "x", "mean": 0.5, "variance": 0.01, "count": 3}
SPEC_DOC = {"schema_version": 1, "seed": 1, "pairs": [PAIR_DOC]}


@pytest.mark.parametrize(
    "read,doc,message",
    [
        (read_config, {"schema_version": 1, "kld_logbase": 2}, "unknown config key 'kld_logbase'"),
        (read_config, {"schema_version": True}, "unsupported schema_version True"),
        (read_config, {"schema_version": 1.0}, "unsupported schema_version 1.0"),
        (read_scenario_spec, {**SPEC_DOC, "moment-mode": "stochastic"},
         "unknown scenario spec key 'moment-mode'"),
        (read_scenario_spec, {**SPEC_DOC, "pairs": [{**PAIR_DOC, "sd": 1}]},
         "unknown scenario spec pair key 'sd'"),
        (read_scenario_spec, {**SPEC_DOC, "pairs": [{**PAIR_DOC, "attribute": 3}]},
         "malformed scenario spec: attribute must be a string, got 3"),
        (read_scenario_spec, {**SPEC_DOC, "pairs": [{**PAIR_DOC, "alternative": None}]},
         "malformed scenario spec: alternative must be a string, got None"),
        (read_scenario_spec, {**SPEC_DOC, "pairs": [{**PAIR_DOC, "mean": "15"}]},
         "malformed scenario spec: mean must be a number, got '15'"),
        (read_scenario_spec, {**SPEC_DOC, "pairs": [{**PAIR_DOC, "variance": None}]},
         "malformed scenario spec: variance must be a number, got None"),
    ],
    ids=["config-key", "config-version-bool", "config-version-float", "spec-key", "pair-key",
         "attribute-int", "alternative-null", "mean-string", "variance-null"],
)
def test_json_doc_rejection_names_key_or_value(tmp_path, read, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidSpec) as exc_info:
        read(path)
    assert str(exc_info.value) == message


# Documents whose layout or scalar text is easy to get wrong.
EDGE_DOCS = {
    "empty-object": {},
    "empty-array": [],
    "nested-empties": {"a": {}, "b": [], "c": [[], {}], "d": {"e": {"f": []}}},
    "lists-of-lists": [[1, 2], [[3.5]], [[], [None]], [{"k": [0]}]],
    "mixed-scalars": [1, 1.5, True, None, "x"],
    "scalar-document": 0.1,
    "string-document": "z",
    "tuples": {"t": (1, (2.0, "x"), ())},
    "non-finite": {"v": [math.nan, math.inf, -math.inf], "w": math.nan},
    "floats": [-0.0, 0.0, 1e-7, 1e16, 1e22, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 2**53 + 1],
    "ints": [0, -1, 2**64, -(10**30), False],
    "non-ascii": {"naïve": ["Ωmega", "日本", "\U0001f600"], "é": "ß"},
    "control-chars": {"\x00\t\n\r\x1f\x7f": ["\u2028", "\\", '"', "\x08\x0c"], "": ""},
    "key-order": {"b": 1, "a": 2, "B": 3, "aa": {"z": 1, "y": [2, 1]}, "\u00e9": 4, "_": 5},
    "scalar-dicts": {  # each innermost dict laid out in one call, at its own depth
        "pair": {"naïve": -0.0, "tiny": 5e-324, "big": 1e16, "日本": "Ω", "none": None, "yes": True},
        "deeper": {"a": {"b": {"c": 1.5, "é": "x\n", "nan": math.nan, "int": 2**64}}},
        "pairs": [{"mean": 0.1, "count": 2}, {}, {"z": [], "y": {"x": -1e-7}}],
    },
    "int-rows": {  # lists of non-empty int lists laid out in one call; the rest walked row by row
        "counts": {"m": [[300, 300], [2, -7], [2**64, 0]], "one": [[5]], "column": [[1], [2], [3]]},
        "deep": [[[[1, 2], [3, 4]]]],
        "tuple": ([1, 2], [3]),
        "empty-row": [[1, 2], [], [3]],
        "bools": [[1, True], [0, 1]],
        "floats": [[1, 2.5], [3, 4]],
        "strings": [[1, "x"], [2, 3]],
    },
}

_KEY_CHARS = "abcAB_ é\x00\n\"\\\u2028日\U0001f600"


def _random_scalar(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return rng.choice([None, True, False])
    if kind == 1:
        return rng.randint(-(2**70), 2**70)
    if kind == 2:
        return rng.choice([math.nan, math.inf, -math.inf, -0.0, 0.0])
    if kind in (3, 4):  # any finite float, subnormals included
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        return value if math.isfinite(value) else rng.random()
    if kind == 5:
        return rng.uniform(-1e3, 1e3)
    return "".join(rng.choice(_KEY_CHARS) for _ in range(rng.randrange(6)))


def _random_doc(rng: random.Random, depth: int = 0):
    kind = rng.randrange(5) if depth < 4 else 0
    if kind == 0:
        return _random_scalar(rng)
    size = rng.randrange(6)
    if kind == 1:
        return {"".join(rng.choice(_KEY_CHARS) for _ in range(rng.randrange(4))):
                _random_doc(rng, depth + 1) for _ in range(size)}
    if kind == 2:  # a list of scalars only
        return [_random_scalar(rng) for _ in range(size)]
    items = [_random_doc(rng, depth + 1) for _ in range(size)]
    return tuple(items) if kind == 3 and rng.random() < 0.2 else items


def _json_text(doc) -> str:
    return b"".join(_dump_json(doc)).decode("utf-8")


def _as_lists(value):
    """``value`` with every array as the nested lists ``tolist()`` gives: the oracle's input."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


def _oracle(doc) -> str:
    return json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"


def _bit_floats(rng: np.random.Generator, shape) -> np.ndarray:
    """Floats of uniformly random bits: every exponent, both signs, nan and inf among them."""
    return rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64).view(np.float64)


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            float(2 ** 53 + 1), 1e16, np.nextafter(1e16, 0), 1e-4, np.nextafter(1e-4, 0), 0.1]

# Documents holding float64 arrays where json.dumps takes lists.
ARRAY_DOCS = {
    "1-d": {"v": np.array([0.5, 1.0, 15.0, 1e22, 1.7976931348623157e308, 0.1 + 0.2])},
    "2-d": {"m": np.linspace(-3.0, 3.0, 12).reshape(3, 4), "k": 1},
    "3-d": {"t": np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7},
    "one-cell": [np.array([[2.5]])],
    "empty": {"a": np.empty(0), "b": np.empty((0, 3)), "c": np.empty((3, 0)), "d": np.empty((2, 0, 4))},
    "specials": {"s": np.array(_SPECIAL), "rows": np.array(_SPECIAL[:12]).reshape(3, 4)},
    "non-finite-only": {"n": np.array([[math.nan], [math.inf]]), "x": np.array([-math.inf])},
    "non-finite-last": {"z": np.array([[1.0, 2.0], [3.0, math.nan]]), "after": [1.5, math.inf]},
    "subnormals": {"s": 5e-324 * np.arange(1, 40, 3, dtype=np.float64)},
    "in-lists": [np.array([1.0, -0.0]), [np.array([[3.0]]), "x", 2 ** 53 + 1, None], (np.ones(2),)],
    "scalar-arrays": {"f": np.float64(0.25), "g": [np.float64(-1e-7), True]},
    "float-lists": {"a": [0.1, 0.2, 0.30000000000000004], "b": (1e300, -2.5), "c": [1, 2.0, "3"]},
    "bare-array": np.array([9.5, 1e-300]),
    "bare-float": 5e-324,
}


class TestJsonWriter:
    """``_dump_json`` writes what ``json.dumps(indent=2, sort_keys=True)`` writes, arrays as lists."""

    @pytest.mark.parametrize("name", sorted(EDGE_DOCS))
    def test_edge_documents(self, name):
        doc = EDGE_DOCS[name]
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_random_documents(self):
        rng = random.Random(20251018)
        for _ in range(400):
            doc = _random_doc(rng)
            assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def test_non_string_key_is_refused(self):
        with pytest.raises(TypeError, match="keys must be str"):
            _dump_json({"a": {1: "x"}})

    @pytest.mark.parametrize("doc", [{"a": 1, 2: 3}, [{"a": [], None: 1}]], ids=["scalars", "nested"])
    def test_non_string_key_beside_string_keys_is_refused(self, doc):
        with pytest.raises(TypeError, match="keys must be str"):
            _dump_json(doc)

    @pytest.mark.parametrize("name", sorted(ARRAY_DOCS))
    def test_array_documents(self, name):
        doc = ARRAY_DOCS[name]
        assert _json_text(doc) == _oracle(doc)

    def test_random_arrays(self):
        rng = np.random.default_rng(20261019)
        for _ in range(200):
            shape = tuple(rng.integers(0, 5, size=rng.integers(1, 4)))
            values = _bit_floats(rng, shape)
            if rng.random() < 0.5:  # most bit patterns are huge or tiny: mix in plain numbers
                values = np.where(rng.random(shape) < 0.8, rng.normal(size=shape), values)
            doc = {"values": values, "list": values.ravel()[:3].tolist(), "n": int(values.size)}
            assert _json_text(doc) == _oracle(doc)

    def test_floats_across_chunks(self):
        rng = np.random.default_rng(7)
        matrix = _bit_floats(rng, (3000, 40))
        matrix[~np.isfinite(matrix)] = 1.5
        matrix[::97, 3] = math.nan  # rows walked float by float, in the same pass
        doc = {
            "matrix": matrix,
            "long": np.concatenate([rng.normal(size=20_000), _SPECIAL]),
            "floats": rng.random(15_000).tolist(),
            "mixed": [x if k % 3 else k for k, x in enumerate(rng.random(9_000).tolist())],
            "key " * 20_000: 0.5,  # one text wider than a chunk before a float
        }
        chunks = list(_dump_json(doc))
        assert len(chunks) > 10  # the float rows of many chunks, each rendered once
        assert b"".join(chunks).decode("utf-8") == _oracle(doc)


class TestGatherAtBlockEdges:
    """Rows are gathered in runs of at most ``GATHER_BYTES``; a longer segment is one slice."""

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_json_with_a_long_prefix(self, monkeypatch, budget):
        monkeypatch.setattr(io_files, "GATHER_BYTES", budget)
        monkeypatch.setattr(io_files, "SMALL_ROWS", 0)  # a document this small is written with repr
        monkeypatch.setattr(io_files, "CHUNK_BYTES", 4096)  # and several chunks, each held as the next is made
        rng = np.random.default_rng(budget)
        doc = {  # the counts text is the prefix of the first float, as in a report
            "counts": [[int(k), 2] for k in rng.integers(0, 10**6, size=60)],
            "means": rng.normal(size=(30, 7)),
            "names": ["é" * 100, "x"],
            "weights": rng.random(5).tolist(),
        }
        assert _json_text(doc) == _oracle(doc)

    @pytest.mark.parametrize("budget", [1, 7, 64])
    @pytest.mark.parametrize("long_name", ["Lé" * 10_000, ('L,"' * 6_667)[:20_000]], ids=["plain", "quoted"])
    def test_csv_with_a_long_name(self, monkeypatch, budget, long_name):
        monkeypatch.setattr(io_files, "GATHER_BYTES", budget)
        monkeypatch.setattr(io_files, "SMALL_ROWS", 0)  # a table this small is written with repr
        situations = ["s1", long_name, "s" * budget, "s" * (budget + 1), "t"]
        rows = [(alternative, "k", situation, 0.5 + k)
                for alternative in ("A", "B" * 70) for k, situation in enumerate(situations)]
        sample_set = sample_set_from_rows(rows)
        expected = csv_writer_text(SAMPLES_HEADER, sample_rows(sample_set))
        assert samples_to_csv(sample_set) == expected
        assert digest_sample_set(sample_set) == hashlib.sha256(expected.encode("utf-8")).hexdigest()


class TestFloatTextRoundTrip:
    """Every float a CSV writer prints reads back as the same bits, beside names csv must quote."""

    NAMES = ("plain", "com,ma", 'quo"te', "cr\rin", "lf\nin", "naïve", "日本語")

    @staticmethod
    def _values(rng, count):
        bits = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64).view(np.float64)
        return np.concatenate([
            bits[np.isfinite(bits)],  # every exponent, both signs
            5e-324 * rng.integers(1, 2 ** 52, size=200),  # subnormals
            rng.random(200) * 10.0 ** rng.integers(-6, 18, size=200),  # both sides of 1e-4, 1e16
            [5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308,
             np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, 0.0, -0.0, 2.0 ** 53, 0.1],
        ])

    def test_samples(self, tmp_path):
        rng = np.random.default_rng(11)
        values = self._values(rng, 4000)
        rows = [(self.NAMES[i % 7], self.NAMES[i // 7 % 7], f"s{i}" if i % 3 else f's,"{i}"\r\n', v)
                for i, v in enumerate(values.tolist())]
        written = sample_set_from_rows(rows)
        path = tmp_path / "samples.csv"
        write_samples(written, path)
        read = read_samples(path)
        assert read == written
        assert read.utilities.view(np.uint64).tolist() == written.utilities.view(np.uint64).tolist()

    def test_prior(self, tmp_path):
        rng = np.random.default_rng(12)
        alternatives = tuple(f"{name}{i}" for i in range(40) for name in self.NAMES)
        attributes = self.NAMES
        sample_set = grid_sample_set(alternatives, attributes, lambda i, j: [0.1, 0.2])
        matrix = rng.uniform(0.05, 1.0, size=(len(alternatives), len(attributes)))
        tiny = np.concatenate([5e-324 * rng.integers(2 ** 40, 2 ** 52, size=140),  # subnormal
                               rng.random(140) * 10.0 ** rng.integers(-300, -4, size=140)])
        matrix[:40] = tiny.reshape(40, len(attributes))
        matrix /= matrix.sum(axis=0)
        assert (matrix[:40] < 2.2250738585072014e-308).sum() > 100
        written = validate_prior(matrix, sample_set)
        path = tmp_path / "prior.csv"
        write_prior(written, path)
        read = read_prior(path, sample_set)
        assert read.matrix.view(np.uint64).tolist() == written.matrix.view(np.uint64).tolist()


def test_prior_digest_is_the_kept_one(tmp_path):
    # The digest write_prior returns is the one the file keeps: read back, the prior digests the same.
    sample_set = generate_samples(USE_CASE_SPEC)
    path = tmp_path / "prior.csv"
    kept = write_prior(validate_prior(USE_CASE_PRIOR, sample_set), path)
    assert digest_prior(read_prior(path, sample_set)) == kept == hashlib.sha256(path.read_bytes()).hexdigest()


def _edge_floats(count: int) -> np.ndarray:
    """``count`` floats, first the kernel's edge cases, then 17-digit values of every scale and both signs.

    The edges: subnormals, both zeros, both ends of the positional range,
    the ends of the float range and the integers about 2**53.
    """
    edges = [5e-324, -5e-324, 1e-323, 4.94e-323, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 0.0, -0.0,
             1e-4, np.nextafter(1e-4, 0.0), -1e-4, 1e16, np.nextafter(1e16, 0.0), np.nextafter(1e16, math.inf),
             -1e16, float(2 ** 53 - 1), float(2 ** 53), float(2 ** 53 + 2), -float(2 ** 53 + 2),
             0.1 + 0.2, 1 / 3, math.pi, 1e23, 5e22, 0.5]
    rng = np.random.default_rng(count)
    rest = rng.random(count) * 10.0 ** rng.integers(-30, 30, size=count)
    rest[1::2] *= -1.0
    return np.concatenate([edges, rest])[:count]


# Names that csv quotes or that are not ASCII.
_ODD_NAMES = ["a,b", 'q"x', "cr\rx", "lf\nx", "nul\0x", "naïve 日本", 'both,"\r\n', "plain"]


class TestSmallTables:
    """A table or document of at most ``SMALL_ROWS`` floats is written with ``repr``, as the kernel writes it."""

    @staticmethod
    def _renders(monkeypatch) -> list:
        renders = []
        render = io_files.floatfmt.render
        monkeypatch.setattr(io_files.floatfmt, "render", lambda *args: renders.append(len(args[0])) or render(*args))
        return renders

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_csv_table_at_the_crossover(self, monkeypatch, offset):
        count = io_files.SMALL_ROWS + offset
        values = _edge_floats(count)
        names = [_ODD_NAMES, ["k", "é,\"k"]]
        codes = [np.arange(count) % len(_ODD_NAMES), np.arange(count) % 2]
        half = count // 2  # two blocks, which one chunk takes together

        def table() -> bytes:
            blocks = [(*(c[:half] for c in codes), values[:half]), (*(c[half:] for c in codes), values[half:])]
            return b"".join(io_files._csv_table(PRIOR_HEADER, names, blocks))

        renders = self._renders(monkeypatch)
        small = table()
        assert renders == ([] if offset <= 0 else [count])
        monkeypatch.setattr(io_files, "SMALL_ROWS", 0)
        assert table() == small
        rows = [(names[0][i], names[1][j], value) for i, j, value in zip(*codes, values.tolist())]
        assert small.decode("utf-8") == csv_writer_text(PRIOR_HEADER, rows)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_json_document_at_the_crossover(self, monkeypatch, offset):
        count = io_files.SMALL_ROWS + offset
        values = _edge_floats(count)
        doc = {  # arrays and a list of floats, and keys that JSON escapes
            "matrix": values[:120].reshape(40, 3),
            "list": values[120:140].tolist(),
            **{name: values[140 + k::len(_ODD_NAMES)] for k, name in enumerate(_ODD_NAMES)},
            "count": count,
        }
        renders = self._renders(monkeypatch)
        small = _json_text(doc)
        assert renders == ([] if offset <= 0 else [count])
        monkeypatch.setattr(io_files, "SMALL_ROWS", 0)
        assert _json_text(doc) == small
        assert small == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"

    def test_legacy_float_repr_takes_the_kernel(self, monkeypatch):
        # Where repr is not the shortest text, only the kernel writes it.
        monkeypatch.setattr(sys, "float_repr_style", "legacy")
        renders = self._renders(monkeypatch)
        doc = {"v": _edge_floats(8), "w": [0.1, 2.5]}
        assert _json_text(doc) == _oracle(doc)
        rows = [("A", "k", name, value) for name, value in zip(_ODD_NAMES, [0.1, 1e-7, 3.0])]
        sample_set = sample_set_from_rows(rows)
        assert samples_to_csv(sample_set) == csv_writer_text(SAMPLES_HEADER, sample_rows(sample_set))
        assert renders == [10, 3]


def test_names_are_quoted_as_csv_writer_quotes_them():
    # The writers quote names in Python; csv.writer, with the "\r\n"
    # terminator the oracle uses, is what they must match.
    rng = random.Random(11)
    pool = ',"\r\n\0 \t\x0b\x1c\x85 éx日'
    names = ["", *pool, *("".join(rng.choice(pool) for _ in range(rng.randrange(1, 8))) for _ in range(2000))]
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerows([name, ""] for name in names)  # a lone empty field would be quoted
    assert io_files._csv_fields(names) == [line[:-3] for line in lines]
