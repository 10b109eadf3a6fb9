"""Resource footprint: retained bytes per sample and the import floor."""

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
from utilrank.io_files import _dump_json, digest_sample_set, read_prior, read_samples, write_prior, write_samples
from utilrank.model import validate_prior, validate_sample_set
from utilrank.pipeline import run_pipeline
from utilrank.report import emit_report
from utilrank.scenario import PairSpec, ScenarioSpec, generate_samples

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
#: the quoted one.
PEAK_BYTES_PER_SAMPLE = 100

#: Peak bytes per cell allocated while reading the wide prior below. The
#: column reader peaked at 290.8; the block reader at 34.3, most of it the
#: matrix, its copy in the PriorProfile, and a block's text and fields.
PRIOR_PEAK_BYTES_PER_CELL = 39

#: Peak bytes allocated while emitting the wide JSON report below to a file,
#: per byte of the report. Measured 1.06 (6,392,967 for 6,034,058; Python
#: 3.11, numpy 2.4): the document, the code and value of every float row
#: (2.5 MB), the text before each, and a chunk's render and gather. The
#: writer that gathered 1024 segments at a time peaked at 2.69, most of it
#: the 8-byte gather index and ramp of one segment: the 553 KB of count
#: text laid out before the first mean. The emit that also
#: returned the report's text peaked at 2.92, and the writer that handed
#: float lists to the C encoder at 3.31.
EMIT_PEAK_PER_REPORT_BYTE = 1.15

#: Peak bytes that a longer text before a float adds to the emit, per byte
#: of text added: the text, its UTF-8, the writer's table of texts and one
#: chunk. Measured 3.6 (Python 3.11, numpy 2.4); the 1024-segment gather
#: added 20.0, its index and ramp 16 of them.
LONG_TEXT_EMIT_PEAK_PER_BYTE = 5

#: Peak bytes allocated while writing the 200,000-sample log below, whatever
#: its length: rows are rendered and written a chunk at a time. Measured
#: 2,680,103 (2,644,043 for 20,000 samples; Python 3.11, numpy 2.4); the
#: writer that joined each chunk's text peaked at 14,507,919.
WRITE_PEAK_BYTES = 3_500_000

#: Peak bytes that one long name adds to writing or digesting the log below,
#: per byte of the name: its own bytes held a few times over (its field and
#: its place in the column's buffer, copied as one slice), not its length
#: times the column's name count. Measured 2.0 for both (Python 3.11, numpy
#: 2.4); the 1024-segment gather, whose 8-byte index covered the name, 10.8;
#: a table that padded every situation to the longest held 2,000 x 20,000
#: bytes and as many mask bytes.
LONG_NAME_PEAK_PER_BYTE = 3


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
        written, digested = log(name), log(name)
        peaks[name] = (_peak(lambda: write_samples(written, tmp_path / "samples.csv")),
                       _peak(lambda: digest_sample_set(digested)))
    for short_peak, long_peak in zip(peaks["s0007"], peaks[long_name]):
        assert long_peak - short_peak <= LONG_NAME_PEAK_PER_BYTE * len(long_name)


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
