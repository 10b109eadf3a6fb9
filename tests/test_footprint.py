"""Resource footprint: retained bytes per sample, stage and op peaks, and the import floor."""

import gc
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import utilrank
from utilrank import cli, floatfmt, io_files
from utilrank.io_files import (
    SAMPLES_HEADER,
    _dump_json,
    digest_prior,
    digest_sample_set,
    read_prior,
    read_samples,
    write_prior,
    write_samples,
    write_scenario_spec,
)
from utilrank.model import validate_prior, validate_sample_set
from utilrank.moments import compute_moments
from utilrank.pipeline import run_pipeline
from utilrank.report import emit_report, report_to_dict
from utilrank.reproduce import reproduce_paper
from utilrank.scenario import PairSpec, ScenarioSpec, generate_samples

from conftest import csv_writer_text, sample_rows

#: Bytes a read sample set may keep alive per sample.
RETAINED_BYTES_PER_SAMPLE = 40

#: Peak bytes per sample allocated while reading the log below, with LF or
#: CRLF line ends, or with one quoted name. The whole-file csv.reader row loop
#: peaked at 359.6 on the LF log (Python 3.11, numpy 2.4), and the
#: split-or-fall-back reader at 332.7 on it and at about 370 on the CRLF one.
#: The column reader, which held the whole text and a string per field,
#: peaked at 297.7 on the LF log and 303.0 on the quoted one. The block
#: reader holds a 64 KiB block's text and fields, then the columns: 84.8 on
#: the LF log and on one with CR line ends, 83.9 on the CRLF one and 89.0 on
#: the quoted one, whose runs of quoted lines went through csv.reader (99.7
#: when measured again on Python 3.11.7, numpy 2.4.6). With a block that
#: holds a quote read whole through csv.reader, the reader peaks at 82.7 on
#: the LF, CR and quoted logs and 80.2 on the CRLF one (same versions).
PEAK_BYTES_PER_SAMPLE = 100

#: Peak bytes per cell allocated while reading the wide prior below. The
#: column reader peaked at 290.8; the block reader at 34.3, most of it the
#: matrix, its copy in the PriorProfile, and a block's text and fields.
PRIOR_PEAK_BYTES_PER_CELL = 39

#: Peak bytes allocated while emitting the wide JSON report below to a file,
#: per byte of the report. Measured 0.68 (Python 3.11, numpy 2.4): the
#: document, the table of texts before the floats, the codes and floats of
#: the rows a chunk takes, and that chunk's render and gather. The writer
#: that concatenated every float row's code and value before the first
#: chunk peaked at 1.06, the one that gathered 1024 segments at a time at
#: 2.69, most of it the 8-byte gather index and ramp of one segment (the
#: 553 KB of count text laid out before the first mean), the emit that also
#: returned the report's text at 2.92, and the writer that handed float
#: lists to the C encoder at 3.31.
EMIT_PEAK_PER_REPORT_BYTE = 0.75

#: Peak bytes that a longer text before a float adds to the emit, per byte
#: of text added: the text as laid out and its UTF-8 in the writer's table
#: of texts. Measured 1.52 (Python 3.11, numpy
#: 2.4) now that a text longer than a gather is handed out as a view, not
#: copied into its chunk; 2.63 with that copy, 3.6 when the table was
#: copied once more into the gather's source, and 20.0 with the
#: 1024-segment gather, its index and ramp 16 of them.
LONG_TEXT_EMIT_PEAK_PER_BYTE = 3

#: Peak bytes allocated while writing the 200,000-sample log below, whatever
#: its length: rows are rendered and written a chunk at a time. Measured
#: 2,680,103 (2,644,043 for 20,000 samples; Python 3.11, numpy 2.4); the
#: writer that joined each chunk's text peaked at 14,507,919.
WRITE_PEAK_BYTES = 3_500_000

#: Peak bytes that one long name adds to writing or digesting the log below,
#: per byte of the name: its own bytes held a few times over (its CSV field,
#: its UTF-8 and its place in the column's bytes, of which the chunk holds
#: a view), not its length times the column's name count. Measured
#: 1.00 for both on the 2,000-row log, and 1.99 on the eight-row table of
#: ``test_a_small_table_past_a_chunk_takes_the_kernel`` (Python 3.11, numpy
#: 2.4), where csv.writer's quoting had cost 5.9; 1.81 when the chunk held
#: a copy of the name; 2.0 when each column's bytes
#: were copied once more into the gather's source; the 1024-segment gather,
#: whose 8-byte index covered the name, 10.8; a table that padded every
#: situation to the longest held 2,000 x 20,000 bytes and as many mask bytes.
LONG_NAME_PEAK_PER_BYTE = 2

#: Peak bytes per sample that compute_moments allocates on the wide set
#: below. Measured 32.5 (Python 3.11, numpy 2.4): the run bounds, the means
#: repeated per sample and squared in place, and each pass's sums. It was
#: 72.2 while each pass turned the whole set into a list of Python floats.
MOMENTS_PEAK_BYTES_PER_SAMPLE = 40

#: Peak bytes per cell that digest_prior allocates on the wide prior below.
#: Measured 53.8 (Python 3.11, numpy 2.4), most of it one chunk's render and
#: gather; 76.1 when the rows' codes were made for every cell at once in
#: int64, beside a transposed copy of the matrix.
DIGEST_PRIOR_PEAK_PER_CELL = 60

#: ``simulate``'s peak on 100 pairs of 2,000 samples over its peak on 10
#: such pairs: it draws, checks and writes a group of pairs at a time, so
#: its peak does not follow the pairs. Measured 1.01 (3.35 and 3.31 MB;
#: Python 3.11, numpy 2.4); 2.21 with groups of 2**16 samples, and 4.75
#: when it generated and validated the whole set before writing it.
SIMULATE_PEAK_PER_TEN_TIMES_THE_PAIRS = 1.2

#: A whole ``rank`` op's peak over the peak of reading its sample log alone:
#: every later stage runs under the read's peak. Measured 1.007 on the wide
#: log below (Python 3.11, numpy 2.4); 1.70 when the inputs stayed alive
#: through the emit and the moments listed every sample as a Python float.
OP_PEAK_PER_READ_PEAK = 1.1


@pytest.fixture(scope="module")
def log_20k(tmp_path_factory):
    # 500 alternatives x 20 attributes x 2 situations: 20,000 samples in
    # 10,000 pairs, the many-pairs shape where per-pair tables weigh most.
    spec = ScenarioSpec(
        tuple(
            PairSpec(f"A{i:03d}", f"k{j:02d}", 0.5, 0.01, 2)
            for i in range(500)
            for j in range(20)
        ),
        seed=1,
    )
    path = tmp_path_factory.mktemp("footprint") / "samples.csv"
    write_samples(generate_samples(spec), path)
    return path


def test_read_sample_set_retains_at_most_40_bytes_per_sample(log_20k):
    path = log_20k
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample_set = read_samples(path)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sample_set) == 20_000
    assert retained / len(sample_set) <= RETAINED_BYTES_PER_SAMPLE


def test_reading_a_log_peaks_below_the_row_reader(log_20k, tmp_path):
    crlf, cr, quoted = tmp_path / "crlf.csv", tmp_path / "cr.csv", tmp_path / "quoted.csv"
    crlf.write_bytes(log_20k.read_bytes().replace(b"\n", b"\r\n"))
    cr.write_bytes(log_20k.read_bytes().replace(b"\n", b"\r"))
    quoted.write_bytes(log_20k.read_bytes().replace(b"\nA000,", b'\n"A000",', 1))
    peaks = {path.name: _peak(lambda: read_samples(path)) / 20_000
             for path in (log_20k, crlf, cr, quoted)}
    assert max(peaks.values()) <= PEAK_BYTES_PER_SAMPLE, peaks


def test_writing_a_log_peaks_below_a_constant(tmp_path):
    spec = ScenarioSpec(
        tuple(PairSpec(f"A{i:02d}", f"k{j}", 0.5, 0.01, 1000) for i in range(20) for j in range(10)),
        seed=3,
    )
    sample_set = generate_samples(spec)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_samples(sample_set, tmp_path / "samples.csv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(sample_set) == 200_000
    assert peak <= WRITE_PEAK_BYTES


def test_simulate_peaks_below_a_constant_whatever_its_pairs(tmp_path):
    peaks = {}
    for alternatives in (1, 10):
        spec = ScenarioSpec(tuple(PairSpec(f"A{i}", f"k{j}", 0.5, 0.001, 2000)
                                  for i in range(alternatives) for j in range(10)), seed=5)
        write_scenario_spec(spec, tmp_path / "spec.json")
        argv = ["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 0  # the render tables and the jump table are built once
        peaks[len(spec.pairs)] = _peak(lambda: cli.main(argv))
    assert peaks[100] <= SIMULATE_PEAK_PER_TEN_TIMES_THE_PAIRS * peaks[10], peaks


def _peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_long_name_costs_its_own_bytes(tmp_path):
    def log(name):  # 2,000 situations of one pair, the eighth called ``name``
        situations = [f"s{i:04d}" for i in range(2000)]
        situations[7] = name
        return validate_sample_set((["A"], [0] * 2000), (["k"], [0] * 2000),
                                   (situations, range(2000)), np.linspace(0.0, 1.0, 2000))

    long_name = "L" * 20_000
    write_samples(log("s0007"), tmp_path / "warm.csv")  # the render tables are built once
    peaks = {}
    for name in ("s0007", long_name):
        sample_set = log(name)
        peaks[name] = (_peak(lambda: write_samples(sample_set, tmp_path / "samples.csv")),
                       _peak(lambda: digest_sample_set(sample_set)))
    for short_peak, long_peak in zip(peaks["s0007"], peaks[long_name]):
        assert long_peak - short_peak <= LONG_NAME_PEAK_PER_BYTE * len(long_name)


def test_a_small_table_past_a_chunk_takes_the_kernel(tmp_path, monkeypatch):
    # Eight rows are few enough for ``repr``, but a 300,000-character name
    # writes more than CHUNK_BYTES: the kernel writes the table, in chunks
    # bounded as for a long table, and the name costs its own bytes over
    # the same table with a short name, which ``repr`` writes.
    def log(name):  # eight situations of one pair, the second called ``name``
        situations = ["s0", name, *(f"s{i}" for i in range(2, 8))]
        return validate_sample_set((["A"], [0] * 8), (["k"], [0] * 8),
                                   (situations, range(8)), np.linspace(0.0, 1.0, 8))

    long_name = "L" * 300_000
    assert len(long_name) > io_files.CHUNK_BYTES
    write_samples(log(long_name), tmp_path / "warm.csv")  # the render tables are built once
    peaks = {}
    for name in ("s1", long_name):
        sample_set = log(name)
        peaks[name] = (_peak(lambda: write_samples(sample_set, tmp_path / "samples.csv")),
                       _peak(lambda: digest_sample_set(sample_set)))
    for short_peak, long_peak in zip(peaks["s1"], peaks[long_name]):
        assert long_peak - short_peak <= LONG_NAME_PEAK_PER_BYTE * len(long_name)
    renders = []
    render = floatfmt.render
    monkeypatch.setattr(floatfmt, "render", lambda *args: renders.append(len(args[0])) or render(*args))
    sample_set = log(long_name)
    write_samples(sample_set, tmp_path / "samples.csv")
    assert sum(renders) == 8  # every value by the kernel, the long name's row in a chunk of its own
    assert len(renders) > 1
    assert (tmp_path / "samples.csv").read_text(encoding="utf-8") == \
        csv_writer_text(SAMPLES_HEADER, sample_rows(sample_set))


@pytest.fixture(scope="module")
def wide():
    # 1000 alternatives x 50 attributes, the shape of the rank-wide benchmark:
    # 100,000 samples and 50,000 cells.
    alternatives, attributes = 1000, 50
    rng = np.random.default_rng(5)
    cells = np.arange(alternatives * attributes).repeat(2)
    sample_set = validate_sample_set(
        ([f"A{i:04d}" for i in range(alternatives)], cells // attributes),
        ([f"k{j:02d}" for j in range(attributes)], cells % attributes),
        (["s1", "s2"], np.tile([0, 1], alternatives * attributes)),
        rng.random(len(cells)),
    )
    prior = rng.uniform(0.05, 1.0, (alternatives, attributes))
    return sample_set, validate_prior(prior / prior.sum(axis=0), sample_set)


def test_reading_a_prior_peaks_below_the_column_reader(wide, tmp_path):
    sample_set, prior = wide
    path = tmp_path / "prior.csv"
    write_prior(prior, path)
    peak = _peak(lambda: read_prior(path, sample_set))
    assert peak / prior.matrix.size <= PRIOR_PEAK_BYTES_PER_CELL


def test_emitting_a_wide_report_peaks_below_the_list_writer(wide, tmp_path):
    # About 200,000 floats in a report of about 6 MB.
    report = run_pipeline(*wide)
    path = tmp_path / "report.json"
    emit_report(report, "json", path)  # the render tables are built once
    peak = _peak(lambda: emit_report(report, "json", path))
    assert peak <= EMIT_PEAK_PER_REPORT_BYTE * path.stat().st_size


def test_computing_moments_peaks_below_a_list_per_sample(wide):
    sample_set, _ = wide
    peak = _peak(lambda: compute_moments(sample_set))
    assert peak / len(sample_set) <= MOMENTS_PEAK_BYTES_PER_SAMPLE


def test_digesting_a_prior_peaks_below_a_code_per_cell(wide):
    _, prior = wide
    peak = _peak(lambda: digest_prior(prior))
    assert peak / prior.matrix.size <= DIGEST_PRIOR_PEAK_PER_CELL


def test_a_rank_op_peaks_where_it_reads_the_log(wide, tmp_path):
    # Every stage after the read (prior, digests, moments, weighting, emit)
    # runs under the read's peak: the op as a whole costs no more than it.
    sample_set, prior = wide
    samples, prior_path = tmp_path / "samples.csv", tmp_path / "prior.csv"
    write_samples(sample_set, samples)
    write_prior(prior, prior_path)
    argv = ["rank", "--samples", str(samples), "--prior", str(prior_path),
            "--format", "json", "--out", str(tmp_path / "report.json")]
    assert cli.main(argv) == 0  # the render tables are built once
    read_peak = _peak(lambda: read_samples(samples))
    op_peak = _peak(lambda: cli.main(argv))
    assert op_peak <= OP_PEAK_PER_READ_PEAK * read_peak, (op_peak, read_peak)


def test_a_report_renders_its_floats_once_per_chunk(wide, tmp_path, monkeypatch):
    # Rendering costs about 0.3 ms a call whatever its length, so the float
    # arrays and lists of a report share chunks: one call per array would
    # double the time of emitting a wide report. The paper's small report
    # (68 floats) takes ``repr`` and renders nothing.
    reference = reproduce_paper(tmp_path / "reference")
    renders = []
    render = floatfmt.render
    monkeypatch.setattr(floatfmt, "render", lambda *args: renders.append(len(args[0])) or render(*args))
    emit_report(reference, "json", tmp_path / "report.json")
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "reference" / "report.json").read_bytes()
    assert renders == []
    doc = report_to_dict(run_pipeline(*wide))  # its digests render too: only the emit is counted
    renders.clear()
    chunks = list(_dump_json(doc))
    assert 1 < len(renders) <= len(chunks)


def test_a_longer_text_before_a_float_costs_its_own_bytes():
    # A report lays its count matrix out as text before its first mean; ten
    # times the rows give ten times that text, and the same floats.
    means = np.random.default_rng(9).random((100, 50))

    def peak(rows):  # the emit's peak, and the document's length
        doc = {"counts": np.full((rows, 50), 123456).tolist(), "means": means}
        return _peak(lambda: deque(_dump_json(doc), maxlen=0)), sum(map(len, _dump_json(doc)))

    peak(10)  # the render tables are built once
    (short_peak, short_size), (long_peak, long_size) = peak(100), peak(1000)
    assert long_peak - short_peak <= LONG_TEXT_EMIT_PEAK_PER_BYTE * (long_size - short_size)


def test_import_loads_only_stdlib_and_numpy():
    # A fresh interpreter: the floor every CLI call pays.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import utilrank\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(utilrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    loaded = {name.split(".")[0] for name in done.stdout.split()}
    assert "numpy" in loaded and "utilrank" in loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "utilrank"}
    assert not loaded & {"tempfile", "shutil"}  # the writers make their own new file: no import for it
