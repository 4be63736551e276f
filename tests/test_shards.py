"""Scan shards read in forked workers, one contiguous group of shards per usable CPU, against
the serial loop: the same output bytes, exit code and stderr, and no worker left behind."""

from __future__ import annotations

import contextlib
import gc
import io
import marshal
import os
import tempfile
import threading
import time
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hrpkit import cli, forks, ingest, prefixes, scans
from hrpkit.cli import main
from hrpkit.ingest import CSV_SADDR, LENIENT, PLAIN, STRICT, format_ipv4

from conftest import no_worker_left

_HEADER = "saddr,sport"


def _detect(folder: Path, shards: list[str], cpus: int, *flags: str, block: int = ingest.BLOCK_LINES,
            fork_min_bytes: int = 0):
    """detect over the shards with `cpus` usable CPUs: exit code, stderr and the files written. By
    default any shard with a byte in it is worth a fork, so these small shards are read in workers."""
    out = folder / f"out-{cpus}"
    out.mkdir()
    err = io.StringIO()
    with mock.patch.object(forks, "_usable_cpus", lambda: cpus), \
            mock.patch.object(cli, "_FORK_MIN_BYTES", fork_min_bytes), \
            mock.patch.object(ingest, "BLOCK_LINES", block), contextlib.redirect_stderr(err):
        code = main(["detect", "--port", "443", *flags, "--output", str(out / "stats.csv"),
                     "--summary", str(out / "detect.json"), *shards])
    no_worker_left()
    return code, err.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _write_shards(folder: Path, shards: list[list[str]], fmt: str) -> list[str]:
    paths = []
    for i, lines in enumerate(shards):
        path = folder / f"shard-{i}.txt"
        rows = lines
        if fmt == CSV_SADDR:  # address and invalid lines become rows, under a header of their own
            rows = [_HEADER] + [f"{line},443" if line.strip() and "#" not in line else line for line in lines]
        path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
        paths.append(str(path))
    return paths


_LINES = st.one_of(
    st.builds(lambda prefix, host: format_ipv4(10 << 24 | prefix << 8 | host), st.integers(0, 3),
              st.integers(0, 255)),
    st.sampled_from(["junk", "10.0.0", "10.0.0.256", "010.0.0.1", "# note", "", "  "]),
)


@st.composite
def _split_scans(draw) -> list[list[str]]:
    """The lines of one scan of four /24s, odd lines among them, cut into 1-6 shards."""
    lines = draw(st.lists(_LINES, max_size=60))
    cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=5)))
    return [lines[start:end] for start, end in zip([0, *cuts], [*cuts, len(lines)])]


@settings(deadline=None, max_examples=60)
@given(_split_scans(), st.sampled_from([PLAIN, CSV_SADDR]), st.sampled_from([LENIENT, STRICT]),
       st.sampled_from([1, 3, ingest.BLOCK_LINES]))
@example([["10.0.0.1", "10.0.1.2"], ["10.0.0.1", "10.0.2.3"], ["10.0.3.4"], ["# note", "10.0.1.3"]],
         PLAIN, LENIENT, ingest.BLOCK_LINES)
@example([["10.0.0.1"], ["10.0.0.2"], ["junk"], ["10.0.0"]], PLAIN, STRICT, 1)
def test_parallel_shards_match_the_serial_loop(shards, fmt, policy, block):
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        paths = _write_shards(folder, shards, fmt)
        flags = ("--format", fmt, "--policy", policy)
        serial = _detect(folder, paths, 1, *flags, block=block)
        for cpus in (2, 4):
            assert _detect(folder, paths, cpus, *flags, block=block) == serial


@pytest.fixture
def four_shards(tmp_path) -> list[str]:
    return _write_shards(tmp_path, [[format_ipv4(10 << 24 | i << 8 | host) for host in range(240)]
                                    for i in range(4)], PLAIN)


def _with_bad_line(path: str) -> None:
    with open(path, "a", encoding="utf-8") as scan:
        scan.write("junk\n")


# With two CPUs shards 0-1 are read here and 2-3 in the worker; with four, each in its own process.
@pytest.mark.parametrize("bad, first", [
    ((1,), 1),  # in the first group only
    ((3,), 3),  # in a worker's group only
    ((1, 2), 1),  # in both: the earlier shard's error
    ((2, 3), 2),  # in two workers' groups, with four CPUs
])
@pytest.mark.parametrize("cpus", [2, 4])
def test_a_strict_error_is_the_first_failing_shards(tmp_path, four_shards, bad, first, cpus):
    for shard in bad:
        _with_bad_line(four_shards[shard])
    serial = _detect(tmp_path, four_shards, 1, "--policy", "strict")
    assert serial[:2] == (3, f"hrpkit detect: {four_shards[first]}: line 241: invalid address line: 'junk'\n")
    assert _detect(tmp_path, four_shards, cpus, "--policy", "strict") == serial


@pytest.mark.parametrize("missing", [1, 3])
def test_a_missing_shard_exits_4_as_in_the_serial_loop(tmp_path, four_shards, missing):
    os.remove(four_shards[missing])
    serial = _detect(tmp_path, four_shards, 1)
    assert serial == (4, f"hrpkit detect: [Errno 2] No such file or directory: '{four_shards[missing]}'\n", {})
    assert _detect(tmp_path, four_shards, 2) == serial


def test_each_group_after_the_first_is_read_in_one_forked_worker(tmp_path, four_shards):
    serial = _detect(tmp_path, four_shards, 1)
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert _detect(tmp_path, four_shards, 3) == serial
    assert fork.call_count == 2


def test_the_serial_loop_holds_at_most_two_tables_at_once(tmp_path, four_shards):
    # Each shard's table is merged into the first as soon as it is read: at each merge only those
    # two are alive.
    tables, alive = [], []
    real_aggregate, real_merge = prefixes.aggregate, prefixes.merge

    def aggregate(addresses, meta):
        table = real_aggregate(addresses, meta)
        tables.append(weakref.ref(table))
        return table

    def merge(a, b):
        gc.collect()
        alive.append(sum(ref() is not None for ref in tables))
        return real_merge(a, b)

    with mock.patch.object(prefixes, "aggregate", aggregate), mock.patch.object(prefixes, "merge", merge):
        assert _detect(tmp_path, four_shards, 1)[:2] == (0, "")
    assert len(tables) == 4 and len(alive) == 3
    assert max(alive) <= 2, alive


def test_a_stdin_shard_is_read_serially(tmp_path, four_shards):
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        code, err, files = _detect(tmp_path, [*four_shards, "-"], 2)
    assert (code, err) == (0, "")
    assert files == _detect(tmp_path, four_shards + ["-"], 1)[2]


def test_empty_shards_are_read_here_without_a_fork(tmp_path):
    paths = _write_shards(tmp_path, [[], [], [], []], PLAIN)
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        code, err, files = _detect(tmp_path, paths, 4)
    assert (code, err) == (0, "")
    assert files == _detect(tmp_path, paths, 1)[2]


def test_shards_too_small_to_pay_for_a_fork_are_read_here(tmp_path, four_shards):
    assert 0 < sum(map(os.path.getsize, four_shards[2:])) <= cli._FORK_MIN_BYTES
    serial = _detect(tmp_path, four_shards, 1)
    with mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert _detect(tmp_path, four_shards, 2, fork_min_bytes=cli._FORK_MIN_BYTES) == serial


def test_a_shard_of_unknown_size_is_worth_a_fork(tmp_path, four_shards):
    shards = [*four_shards, os.devnull]  # not a regular file, like a pipe
    serial = _detect(tmp_path, shards, 1)
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert _detect(tmp_path, shards, 2, fork_min_bytes=cli._FORK_MIN_BYTES) == serial
    assert fork.call_count == 1


@contextlib.contextmanager
def _piped(text: str):
    """A /dev/fd path to a pipe that holds the text, whose write end is closed."""
    read_end, write_end = os.pipe()
    with open(write_end, "w", encoding="utf-8") as pipe:
        pipe.write(text)  # a few kB, within the pipe's buffer
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)


def test_a_strict_error_in_a_workers_pipe_is_the_serial_loops(tmp_path, four_shards):
    _with_bad_line(four_shards[3])
    text = Path(four_shards[3]).read_text(encoding="utf-8")
    with _piped(text) as pipe:
        serial = _detect(tmp_path, [*four_shards[:3], pipe], 1, "--policy", "strict")
    assert serial[:2] == (3, f"hrpkit detect: {pipe}: line 241: invalid address line: 'junk'\n")
    with _piped(text) as pipe, mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert _detect(tmp_path, [*four_shards[:3], pipe], 2, "--policy", "strict") == serial
    assert fork.call_count == 1


def test_a_worker_that_dies_after_reading_a_pipe_is_an_io_error(tmp_path):
    # The pipe goes to the worker, which drains it and dies before its reply. Reading the group
    # again here would read an empty pipe: detect exited 0 with 500 of the 750 lines.
    files = _write_shards(tmp_path, [[format_ipv4(10 << 24 | i) for i in range(500)],
                                     [format_ipv4(11 << 24 | i) for i in range(250)]], PLAIN)
    broken = mock.Mock(loads=marshal.loads, dumps=mock.Mock(side_effect=RuntimeError("no reply")))
    with _piped(Path(files[1]).read_text(encoding="utf-8")) as pipe, mock.patch.object(forks, "marshal", broken):
        code, err, written = _detect(tmp_path, [files[0], pipe], 2)
    assert (code, err, written) == (
        4, f"hrpkit detect: the worker reading {pipe} exited without a reply, and a pipe is read once\n", {})
    assert broken.dumps.call_count == 0  # only the worker called it


def test_a_process_running_other_threads_reads_its_shards_itself():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert forks._usable_cpus() == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_worker_that_dies_without_a_reply_has_its_group_read_here(tmp_path, four_shards):
    serial = _detect(tmp_path, four_shards, 1)
    broken = mock.Mock(loads=marshal.loads, dumps=mock.Mock(side_effect=RuntimeError("no reply")))
    with mock.patch.object(forks, "marshal", broken):  # only a worker calls dumps
        assert _detect(tmp_path, four_shards, 2) == serial


def test_an_interrupt_here_kills_and_reaps_the_workers(tmp_path, four_shards):
    parent = os.getpid()

    def interrupted_here(paths, args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)  # a worker still reading

    started = time.monotonic()
    with mock.patch.object(scans, "_read_shards", interrupted_here), pytest.raises(KeyboardInterrupt):
        _detect(tmp_path, four_shards, 4)
    no_worker_left()
    assert time.monotonic() - started < 10
