"""Resource footprint: retained bytes per sample and the import floor."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import utilrank
from utilrank.io_files import read_samples, write_samples
from utilrank.scenario import PairSpec, ScenarioSpec, generate_samples

#: Bytes a read sample set may keep alive per sample.
RETAINED_BYTES_PER_SAMPLE = 40

#: Peak bytes per sample allocated while reading the log below. The csv.reader
#: loop peaked at 359.6 (Python 3.11, numpy 2.4); the split reader at 332.7.
PEAK_BYTES_PER_SAMPLE = 360


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


def test_reading_a_log_peaks_below_the_row_reader(log_20k):
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sample_set = read_samples(log_20k)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / len(sample_set) <= PEAK_BYTES_PER_SAMPLE


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
