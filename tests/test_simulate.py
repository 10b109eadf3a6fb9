"""`simulate` streams: it draws, checks and writes a group of whole pairs at a time."""

import hashlib
import io
import os
import stat
import sys
import warnings

import pytest

import utilrank.scenario as scenario
from utilrank.cli import main
from utilrank.io_files import _write_bytes, write_samples, write_scenario_spec
from utilrank.scenario import GROUP_SAMPLES, MomentMode, PairSpec, ScenarioSpec, generate_samples

HEADER = b"alternative,attribute,situation,utility\n"

# One pair longer than a group, whose situations do not sort as their numbers.
WIDE_SPEC = ScenarioSpec((PairSpec("A", "x", 0.5, 0.01, 100_001),), seed=3)

# Ragged counts over several groups, one pair longer than a group, and an
# exact-mode pair of zero variance, whose samples are not drawn.
RAGGED_SPEC = ScenarioSpec(
    tuple(
        PairSpec(f"A{i}", f"k{j}", 0.2 + 0.1 * i, 0.0 if (i, j) == (4, 2) else 0.001 * (1 + j),
                 20_000 if (i, j) == (2, 1) else 1000 + (37 * i + 101 * j) % 1500)
        for i in range(6)
        for j in range(4)
    ),
    seed=11,
)

STOCHASTIC_SPEC = ScenarioSpec(RAGGED_SPEC.pairs, seed=12, moment_mode=MomentMode.STOCHASTIC)

# The last pair's variance passes the float range once rescaled: every
# one of its utilities is infinite, and it is drawn in the last group.
LATE_FAULT_SPEC = ScenarioSpec(
    tuple(PairSpec(f"A{i:02d}", f"k{j}", 0.5, 1.7e308 if (i, j) == (39, 1) else 0.01, 500)
          for i in range(40) for j in range(2)),
    seed=2,
)


def _simulate(spec, directory, *flags):
    write_scenario_spec(spec, directory / "spec.json")
    return main(["simulate", "--spec", str(directory / "spec.json"), *flags])


def _set_bytes(spec, path):
    write_samples(generate_samples(spec), path)
    return path.read_bytes()


@pytest.mark.parametrize("spec", [WIDE_SPEC, RAGGED_SPEC, STOCHASTIC_SPEC],
                         ids=["wide", "ragged", "stochastic"])
def test_stream_bytes_equal_the_set_writer(spec, tmp_path):
    out = tmp_path / "out.csv"
    assert _simulate(spec, tmp_path, "--out", str(out)) == 0
    assert out.read_bytes() == _set_bytes(spec, tmp_path / "set.csv")


def test_the_ragged_specs_span_several_groups():
    counts = [pair.sample_count for pair in RAGGED_SPEC.pairs]
    assert sum(counts) > 2 * GROUP_SAMPLES and max(counts) > GROUP_SAMPLES


def test_a_wide_pair_comes_in_its_names_sorted_order(tmp_path):
    out = tmp_path / "out.csv"
    assert _simulate(WIDE_SPEC, tmp_path, "--out", str(out)) == 0
    situations = [line.split(b",")[2] for line in out.read_bytes().splitlines()[1:]]
    assert len(situations) == 100_001 and situations == sorted(situations)
    assert situations.index(b"s100000") == situations.index(b"s10000") + 1


@pytest.mark.parametrize("spec", [RAGGED_SPEC, STOCHASTIC_SPEC], ids=["exact", "stochastic"])
def test_grouping_changes_no_byte(spec, tmp_path, monkeypatch):
    outputs = []
    for group in (2, GROUP_SAMPLES, 10 ** 9):  # every pair alone, the default, all pairs at once
        monkeypatch.setattr(scenario, "GROUP_SAMPLES", group)
        out = tmp_path / f"{group}.csv"
        assert _simulate(spec, tmp_path, "--out", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_a_late_non_finite_utility_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert _simulate(LATE_FAULT_SPEC, tmp_path, "--out", str(out)) == 2
    assert capsys.readouterr().err == "error: non-finite utility for (A39, k1, s00001)\n"
    assert sorted(os.listdir(tmp_path)) == ["spec.json"]  # neither --out nor a temporary file


def test_a_late_non_finite_utility_keeps_the_old_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    out.write_bytes(b"the last run's log\n")
    assert _simulate(LATE_FAULT_SPEC, tmp_path, "--out", str(out)) == 2
    assert out.read_bytes() == b"the last run's log\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "spec.json"]


def test_running_out_of_memory_in_a_late_group_leaves_no_file(tmp_path, capsys, monkeypatch):
    draw = scenario._draw

    def draw_once(spec, ordered, first, counts):
        if first:
            raise MemoryError("no room for the next group")
        return draw(spec, ordered, first, counts)

    monkeypatch.setattr(scenario, "_draw", draw_once)
    out = tmp_path / "out.csv"
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(out)) == 4
    assert capsys.readouterr().err == "error: out of memory: no room for the next group\n"
    assert sorted(os.listdir(tmp_path)) == ["spec.json"]


def test_rows_before_a_late_error_stay_on_stdout(tmp_path, capsys, monkeypatch):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert _simulate(LATE_FAULT_SPEC, tmp_path) == 2
    stdout.flush()
    written = stdout.buffer.getvalue()
    assert written.startswith(HEADER + b"A00,k0,s00001,") and b"A39,k1" not in written
    assert capsys.readouterr().err == "error: non-finite utility for (A39, k1, s00001)\n"


def test_a_missing_cross_pair_writes_nothing(tmp_path, capsys, monkeypatch):
    spec = ScenarioSpec(LATE_FAULT_SPEC.pairs[:-1], seed=1)  # no (A39, k1)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert _simulate(spec, tmp_path) == 2
    stdout.flush()
    assert stdout.buffer.getvalue() == b""
    assert capsys.readouterr().err == "error: pair (A39, k1) has 0 sample(s); need at least 2\n"


def test_the_range_warning_counts_every_group_once(tmp_path, capsys):
    spec = ScenarioSpec(tuple(PairSpec(f"A{i}", "x", 0.5, 0.25, 5000) for i in range(8)), seed=4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        expected = generate_samples(spec).range_warning()
    assert [str(w.message) for w in caught] == [str(expected)]
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert _simulate(spec, tmp_path, "--out", str(tmp_path / "out.csv")) == 0
    assert capsys.readouterr().err == f"warning: {expected}\n"
    assert expected.samples == 40_000 > 2 * GROUP_SAMPLES and expected.out_of_range


def test_simulate_computes_no_digest(tmp_path, monkeypatch):
    def no_digest(*args, **kwargs):
        raise AssertionError("simulate hashed its output")

    monkeypatch.setattr(hashlib, "sha256", no_digest)
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(tmp_path / "out.csv")) == 0


def test_out_is_a_new_file_with_the_umask_mode(tmp_path):
    out = tmp_path / "out.csv"
    out.write_bytes(b"old")
    out.chmod(0o600)
    old_mask = os.umask(0o027)
    try:
        assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(out)) == 0
    finally:
        os.umask(old_mask)
    assert out.stat().st_mode & 0o777 == 0o640


def test_a_symlinked_out_is_replaced_not_written_through(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"kept")
    link.symlink_to(target)
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(link)) == 0
    assert target.read_bytes() == b"kept"
    assert not link.is_symlink() and link.read_bytes().startswith(HEADER)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)  # a writer may open it, and need not wait
    try:
        _write_bytes(pipe, [b"through the pipe\n"])
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(pipe).st_mode) and os.listdir(tmp_path) == ["pipe"]


def test_a_taken_temporary_name_is_passed_over(tmp_path):
    out = tmp_path / "out.csv"
    taken = tmp_path / f".out.csv.{os.getpid()}-0.tmp"
    taken.write_bytes(b"someone else's")
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(out)) == 0
    assert out.read_bytes() == _set_bytes(RAGGED_SPEC, tmp_path / "set.csv")
    assert taken.read_bytes() == b"someone else's"
    assert sorted(p.name for p in tmp_path.glob(".*.tmp")) == [taken.name]


def test_an_out_in_no_directory_names_the_out(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", str(out)) == 4
    assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_an_empty_out_names_the_out_not_a_temporary_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the temporary file of "" is made here, and its replacement fails
    assert _simulate(RAGGED_SPEC, tmp_path, "--out", "") == 4
    err = capsys.readouterr().err
    assert err == "i/o error: [Errno 2] No such file or directory: ''\n" and ".tmp" not in err
    assert sorted(os.listdir(tmp_path)) == ["spec.json"]
