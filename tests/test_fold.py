"""portmatrix, stability and vantage read their stats files in contiguous groups, one per usable CPU:
the first and largest here, each other one by a forked worker that replies only what the command
reads (``forks.fold``). Against the serial reads: the same output bytes, exit code and stderr, the
first failing file's error, and no worker left behind."""

from __future__ import annotations

import contextlib
import gc
import marshal
import os
import weakref
from pathlib import Path
from unittest import mock

import pytest

from hrpkit import cli, forks, prefixes
from hrpkit.cli import main

from conftest import run_with_cpus


def _stats(folder: Path, name: str, hosts: list[int], port: int = 443, routes: bool = False) -> str:
    """A stats file of /24s 10.0.i.0 with hosts[i] responsive addresses, enriched if routes."""
    scan = folder / f"{name}.txt"
    scan.write_text("".join(f"10.0.{i}.{h}\n" for i, n in enumerate(hosts) for h in range(n)), encoding="utf-8")
    path = str(folder / f"{name}.csv")
    assert main(["detect", "--port", str(port), "--output", path, "--summary", str(folder / "sum"), str(scan)]) == 0
    if routes:
        rib = folder / "rib.csv"
        rib.write_text("".join(f"10.0.{i}.0/24,{64500 + i % 3}\n" for i in range(0, 64, 2)), encoding="utf-8")
        assert main(["enrich", "--output", path, "--summary", str(folder / "sum"), path, str(rib)]) == 0
    return path


@pytest.fixture
def files(tmp_path) -> dict[str, list[str]]:
    """Each command's stats files: six weeks, three enriched ports and two vantage points."""
    weeks = [_stats(tmp_path, f"week{w}", [(231 + 7 * i + w) % 257 or 1 for i in range(40)]) for w in range(6)]
    ports = [_stats(tmp_path, f"port{p}", [(230 + p + i) % 257 or 3 for i in range(50)], p, routes=True)
             for p in (80, 443, 8080)]
    return {"stability": weeks, "portmatrix": ports, "vantage": weeks[4:]}


def _argv(command: str, paths: list[str]) -> list[str]:
    if command == "portmatrix":
        return ["portmatrix", "--as-summary", "OUT/as.json", "--histogram-csv", "OUT/histogram.csv",
                "--profiles-csv", "OUT/profiles.csv", "--output", "OUT/portmatrix.json", *paths]
    if command == "stability":
        return ["stability", "--series-csv", "OUT/series.csv", "--output", "OUT/stability.json", *paths]
    return ["vantage", "--output", "OUT/vantage.json", *paths]


def _forks(folder: Path, argv: list[str], cpus: int = 2, **options):
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = run_with_cpus(folder, argv, cpus, **options)
    return result, fork.call_count


@pytest.mark.parametrize("cpus", [2, 3, 8])
@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_the_outputs_are_the_serial_reads(tmp_path, files, command, cpus):
    argv = _argv(command, files[command])
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial[:2] == (0, "") and len(serial[2]) == {"portmatrix": 4, "stability": 2, "vantage": 1}[command]
    assert _forks(tmp_path, argv, cpus) == (serial, min(cpus, len(files[command])) - 1)


def test_portmatrix_reports_the_as_rollup_from_the_workers_reply(tmp_path, files):
    code, _, written = run_with_cpus(tmp_path, _argv("portmatrix", files["portmatrix"]), 2)
    assert code == 0 and b'"asn": 64501' in written["as.json"] and b'"hrp_count": ' in written["as.json"]


def test_the_first_group_is_read_here_and_is_the_largest(tmp_path, files):
    log = tmp_path / "reads.txt"
    real = cli._read_table

    def logged(path, reader, *args, **options):
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {Path(path).name}\n")
        return real(path, reader, *args, **options)

    weeks = files["stability"][:5]
    with mock.patch.object(cli, "_read_table", logged):
        assert run_with_cpus(tmp_path, _argv("stability", weeks), 2)[:2] == (0, "")
    reads: dict[str, list[str]] = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        pid, name = line.split()
        reads.setdefault("here" if int(pid) == os.getpid() else "worker", []).append(name)
    assert reads == {"here": ["week0.csv", "week1.csv", "week2.csv"], "worker": ["week3.csv", "week4.csv"]}


@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_each_stats_table_is_dropped_before_the_next_file_is_read(tmp_path, files, command):
    # What a command keeps of a file is small; the table itself must not outlive its reply, or a
    # long series holds two tables at a time.
    tables, alive = [], []
    real = prefixes.read_prefix_stats

    def read_prefix_stats(lines):
        gc.collect()
        alive.append(sum(ref() is not None for ref in tables))
        table = real(lines)
        tables.append(weakref.ref(table))
        return table

    with mock.patch.object(prefixes, "read_prefix_stats", read_prefix_stats):
        assert run_with_cpus(tmp_path, _argv(command, files[command]), 1)[:2] == (0, "")
    assert alive == [0] * len(files[command])


@pytest.mark.parametrize("command, bad", [
    ("stability", (4,)), ("stability", (1,)), ("stability", (2, 5)), ("stability", (1, 4)),
    ("portmatrix", (2,)), ("portmatrix", (0, 2)), ("vantage", (1,)), ("vantage", (0, 1)),
])
def test_a_bad_file_in_either_group_gives_the_first_failing_files_error(tmp_path, files, command, bad):
    paths = files[command]
    for i in bad:
        port = Path(paths[i]).read_text(encoding="utf-8").splitlines()[1].split(",")[1]
        with open(paths[i], "a", encoding="utf-8") as table:
            table.write(f"10.9.9.0/24,{port},tcp,3,true,0.9,,\n")  # is_hrp disagrees with the count
    argv = _argv(command, paths)
    serial = run_with_cpus(tmp_path, argv, 1)
    last = len(Path(paths[bad[0]]).read_text(encoding="utf-8").splitlines())
    assert serial == (2, f"hrpkit {command}: {paths[bad[0]]}: line {last}: is_hrp=true disagrees with count 3 at "
                         f"threshold 0.9\n", {})
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command", ["stability", "vantage"])
def test_another_port_in_the_workers_group_names_both_files(tmp_path, files, command):
    paths = [*files[command][:-1], _stats(tmp_path, "other", [240, 12], port=80)]
    argv = _argv(command, paths)
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial == (2, f"hrpkit {command}: port/proto mismatch: tcp/443 ({paths[0]}) vs tcp/80 ({paths[-1]})\n", {})
    assert _forks(tmp_path, argv) == (serial, 1)


def test_two_files_of_one_port_in_both_groups_are_named(tmp_path, files):
    paths = [*files["portmatrix"][:2], files["portmatrix"][0]]
    argv = _argv("portmatrix", paths)
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial == (2, f"hrpkit portmatrix: duplicate port/proto tcp/80: {paths[0]} and {paths[2]}\n", {})
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_an_empty_stats_file_in_the_workers_group_reads_as_in_the_serial_order(tmp_path, files, command):
    Path(files[command][-1]).write_text("prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix\n",
                                        encoding="utf-8")
    argv = _argv(command, files[command])
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial[0] == 0
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_a_worker_that_dies_without_a_reply_has_its_group_read_here(tmp_path, files, command):
    argv = _argv(command, files[command])
    serial = run_with_cpus(tmp_path, argv, 1)
    broken = mock.Mock(loads=marshal.loads, dumps=mock.Mock(side_effect=RuntimeError("no reply")))
    with mock.patch.object(forks, "marshal", broken):  # only a worker calls dumps
        assert _forks(tmp_path, argv) == (serial, 1)
    assert broken.dumps.call_count == 0


@contextlib.contextmanager
def _stdin(path: str):
    saved = os.dup(0)
    with open(path, "rb") as source:
        os.dup2(source.fileno(), 0)
    try:
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_a_stdin_file_is_read_here_without_a_fork(tmp_path, files, command, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = _argv(command, [*files[command][:-1], "-"])
    with _stdin(files[command][-1]):
        serial = run_with_cpus(tmp_path, argv, 1)
    assert serial[:2] == (0, "")
    with _stdin(files[command][-1]):
        assert _forks(tmp_path, argv) == (serial, 0)


@pytest.mark.parametrize("command", ["portmatrix", "stability", "vantage"])
def test_files_too_small_to_pay_for_a_fork_are_read_here(tmp_path, files, command):
    argv = _argv(command, files[command])
    assert sum(map(os.path.getsize, files[command][1:])) <= cli._FORK_MIN_BYTES
    serial = run_with_cpus(tmp_path, argv, 1)
    assert _forks(tmp_path, argv, fork_min_bytes=cli._FORK_MIN_BYTES) == (serial, 0)


def test_a_pipe_in_a_dead_workers_group_is_an_io_error(tmp_path, files):
    weeks = files["stability"]
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as pipe:
        pipe.write(Path(weeks[-1]).read_bytes())  # a few kB, within the pipe's buffer
    broken = mock.Mock(loads=marshal.loads, dumps=mock.Mock(side_effect=RuntimeError("no reply")))
    try:
        with mock.patch.object(forks, "marshal", broken):
            (code, err, written), forks_made = _forks(tmp_path, _argv("stability", [*weeks[:-1], f"/dev/fd/{read_end}"]))
    finally:
        os.close(read_end)
    assert (code, written, forks_made) == (4, {}, 1)
    assert err == (f"hrpkit stability: the worker reading {weeks[3]}, {weeks[4]}, /dev/fd/{read_end} exited "
                   f"without a reply, and a pipe is read once\n")
