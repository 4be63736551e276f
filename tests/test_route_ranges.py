"""enrich parses a route snapshot as two byte ranges: a forked worker parses the lines after the
first line break past the middle byte while this process reads the stats file and loads the lines
before it. Against the serial load: the same output bytes, exit code, stderr and load counts, with
the line at the cut anything a snapshot may hold, and no worker left behind."""

from __future__ import annotations

import os
from pathlib import Path
from unittest import mock

import pytest

from hrpkit import forks, routing
from hrpkit.cli import main
from hrpkit.ingest import LENIENT, STRICT

from conftest import no_worker_left, run_with_cpus

_WIDTH = 22  # bytes per snapshot line, its line break included, so that a line swapped for another moves no cut


def _route(i: int, asn: int = 64500, host: int = 0) -> bytes:
    line = f"10.{100 + i // 100}.{100 + i % 100}.{host}/24,{asn}\n".encode()
    assert len(line) == _WIDTH
    return line


def _cut_line(lines: list[bytes]) -> int:
    """The index of the first line after the cut: the line after the one that holds the middle byte."""
    return len(lines) * _WIDTH // 2 // _WIDTH + 1


def _snapshot(folder: Path, lines: list[bytes]) -> str:
    assert all(len(line) == _WIDTH for line in lines)
    path = folder / "rib.csv"
    path.write_bytes(b"".join(lines))
    return str(path)


def _stats(folder: Path) -> str:
    scan = folder / "scan.txt"
    scan.write_text("".join(f"10.{100 + i // 100}.{100 + i % 100}.{h}\n" for i in range(0, 400, 7) for h in range(3)),
                    encoding="utf-8")
    path = folder / "stats.csv"
    assert main(["detect", "--port", "443", "--output", str(path), "--summary", str(folder / "detect.json"),
                 str(scan)]) == 0
    return str(path)


def _enrich(folder: Path, rib: str, policy: str, cpus: int, **options):
    argv = ["enrich", "--policy", policy, "--output", "OUT/enriched.csv", "--summary", "OUT/enrich.json",
            _stats(folder), rib]
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = run_with_cpus(folder, argv, cpus, **options)
    return result, fork.call_count


def _lines(n: int = 400) -> list[bytes]:
    return [_route(i, 64500 + i % 7) for i in range(n)]


def _at_cut(line: bytes, n: int = 400) -> list[bytes]:
    lines = _lines(n)
    lines[_cut_line(lines)] = line
    return lines


# Lines right after the cut, each of _WIDTH bytes.
_AFTER_CUT = {
    "host bits": _route(3, host=7),
    "comment": b"#" + b"-" * (_WIDTH - 2) + b"\n",
    "blank": b" " * (_WIDTH - 1) + b"\n",
    "invalid UTF-8": b"\xff" * (_WIDTH - 1) + b"\n",
    "mid-file BOM": "\ufeff10.12.13.0/24,6450\n".encode(),
    "junk": b"j" * (_WIDTH - 1) + b"\n",
    "CRLF": _route(3)[:-2] + b"\r\n",
    "lone CR": _route(3)[:17] + b"\r" + _route(3)[18:],
}


@pytest.mark.parametrize("policy", [STRICT, LENIENT])
@pytest.mark.parametrize("case", sorted(_AFTER_CUT))
def test_a_line_right_after_the_cut_loads_as_in_the_serial_load(tmp_path, case, policy):
    rib = _snapshot(tmp_path, _at_cut(_AFTER_CUT[case]))
    serial, _ = _enrich(tmp_path, rib, policy, 1)
    assert serial[0] in (0, 3), serial
    assert _enrich(tmp_path, rib, policy, 2) == (serial, 1)


def test_a_host_bit_line_after_the_cut_names_its_line_under_strict_policy(tmp_path):
    lines = _at_cut(_route(3, host=7))
    rib = _snapshot(tmp_path, lines)
    (code, err, files), forks_made = _enrich(tmp_path, rib, STRICT, 2)
    assert forks_made == 1 and files == {}
    assert (code, err) == (3, f"hrpkit enrich: {rib}: line {_cut_line(lines) + 1}: "
                              f"host bits set in prefix: '10.100.103.7/24,64500'\n")


@pytest.mark.parametrize("policy", [STRICT, LENIENT])
def test_a_repeat_and_a_conflict_of_a_line_before_the_cut_are_counted_or_named(tmp_path, policy):
    lines = _lines()
    cut = _cut_line(lines)
    lines[cut + 3] = lines[5]  # a repeat
    lines[cut + 9] = _route(6, asn=65000)  # a conflict with line 7
    rib = _snapshot(tmp_path, lines)
    serial, _ = _enrich(tmp_path, rib, policy, 1)
    assert _enrich(tmp_path, rib, policy, 2) == (serial, 1)
    if policy == STRICT:
        assert serial[:2] == (3, f"hrpkit enrich: {rib}: line {cut + 10}: conflicting origin for "
                                 f"'10.100.106.0/24,65000': AS64506 already loaded\n")
    else:
        assert b'"route_duplicate_conflicts": 1' in serial[2]["enrich.json"]
        assert b'"route_duplicate_repeats": 1' in serial[2]["enrich.json"]


@pytest.mark.parametrize("policy", [STRICT, LENIENT])
def test_the_ranges_give_the_serial_loads_table_and_counts(tmp_path, policy):
    lines = _lines(3000)
    cut = _cut_line(lines)
    for at, line in [(cut - 1, _route(2, asn=64502, host=9)), (cut, b"#" + b"x" * 20 + b"\n"), (cut + 1, lines[4]),
                     (cut + 2, _route(8, asn=10001)), (cut + 1400, b"\xfe" * 21 + b"\n"), (7, b" " * 21 + b"\n")]:
        lines[at] = line
    rib = _snapshot(tmp_path, lines)
    with open(rib, encoding="utf-8-sig", errors="replace") as source:
        try:
            serial = routing.load_route_table(source, policy)
        except routing.RouteParseError as exc:
            serial = str(exc)
    with mock.patch.object(forks, "_usable_cpus", lambda: 2), mock.patch.object(os, "fork", wraps=os.fork) as fork:
        try:
            first, table = forks.load_routes(rib, policy, lambda: "first")
            assert first == "first"
        except routing.RouteParseError as exc:
            table = str(exc)
    no_worker_left()
    assert fork.call_count == 1
    if policy == STRICT:
        assert serial == f"line {cut}: host bits set in prefix: '10.100.102.9/24,64502'"
        assert table == f"{rib}: {serial}"
    else:
        assert table.load_stats == serial.load_stats and table.routes == serial.routes
        assert vars(serial.load_stats) == dict(
            lines_read=3000, entries_loaded=2994, comment_lines=2, invalid_lines=1, normalized_lines=1,
            duplicate_conflicts=1, duplicate_repeats=2)


@pytest.mark.parametrize("exit_code", [0, 1])
def test_a_worker_that_exits_without_a_reply_has_its_lines_parsed_here(tmp_path, exit_code):
    rib = _snapshot(tmp_path, _lines())
    serial, _ = _enrich(tmp_path, rib, LENIENT, 1)
    parent, real = os.getpid(), forks._parse_routes_from

    def dies_in_the_worker(*args):
        if os.getpid() != parent:
            os._exit(exit_code)
        return real(*args)

    with mock.patch.object(forks, "_parse_routes_from", dies_in_the_worker):
        assert _enrich(tmp_path, rib, LENIENT, 2) == (serial, 1)


def test_an_error_in_the_stats_file_kills_the_worker_and_is_the_serial_orders(tmp_path):
    rib = _snapshot(tmp_path, _at_cut(b"j" * 21 + b"\n"))
    stats = _stats(tmp_path)
    with open(stats, "a", encoding="utf-8") as table:
        table.write("bogus\n")
    argv = ["enrich", "--policy", STRICT, "--output", "OUT/e.csv", "--summary", "OUT/e.json", stats, rib]
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial[0] == 2 and f"{stats}: line " in serial[1]
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        assert run_with_cpus(tmp_path, argv, 2) == serial
    assert fork.call_count == 1


@pytest.mark.parametrize("why", ["one CPU", "small", "stdin", "no line break after the middle"])
def test_a_snapshot_is_loaded_here_without_a_fork(tmp_path, monkeypatch, why):
    lines = _lines()
    if why == "no line break after the middle":
        lines = [line[:-1] + b"\r" for line in lines]  # lone \r line ends: no line break to cut after
    rib = _snapshot(tmp_path, lines)
    serial, _ = _enrich(tmp_path, rib, LENIENT, 1)
    cpus, options = (1, {}) if why == "one CPU" else (2, {"fork_min_bytes": 1 << 16} if why == "small" else {})
    if why == "stdin":
        monkeypatch.chdir(tmp_path)
        Path("-").write_bytes(b"10.0.0.0/8,1\n" * 1000)  # a regular file named like stdin, not read
        saved = os.dup(0)
        with open(rib, "rb") as source:
            os.dup2(source.fileno(), 0)
        try:
            result = _enrich(tmp_path, "-", LENIENT, 2)
        finally:
            os.dup2(saved, 0)
            os.close(saved)
        assert result == (serial, 0)
        return
    assert _enrich(tmp_path, rib, LENIENT, cpus, **options) == (serial, 0)
