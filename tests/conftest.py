"""Shared builders for scan fixtures, the plan cycle's input files and command lines, and a run of
a command with a given number of usable CPUs that checks no forked worker is left."""

from __future__ import annotations

import contextlib
import io
import itertools
import os
from array import array
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from hrpkit import scans
from hrpkit.applayer import STATUS_CODES, AppResults
from hrpkit.cli import main
from hrpkit.ingest import ScanMeta, format_ipv4
from hrpkit.prefixes import HrpThreshold, PrefixStats, PrefixTable, aggregate

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def make_meta(port=443, proto="tcp") -> ScanMeta:
    return ScanMeta(proto, port)


def table_with_counts(counts: dict[int, int], meta: ScanMeta | None = None) -> PrefixTable:
    """A table where each prefix holds its first `count` host addresses."""
    meta = meta or make_meta()
    addresses = [
        (prefix << 8) | host for prefix, count in counts.items() for host in range(count)
    ]
    return aggregate(addresses, meta)


class Row(NamedTuple):
    """One classified /24 of a scan, as a row of its PrefixStats table."""

    prefix: int
    meta: ScanMeta
    responsive_count: int
    is_hrp: bool
    threshold: HrpThreshold
    origin_asn: int | None = None
    covering_route: tuple[int, int] | None = None  # (network value, prefix length)


def rows(stats: PrefixStats) -> list[Row]:
    """The table's rows in order."""
    return [
        Row(prefix, stats.meta, count, is_hrp, threshold, asn, route)
        for prefix, count, is_hrp, threshold, asn, route in zip(
            stats.prefixes, stats.counts, stats.is_hrp, stats.thresholds, stats.origin_asns,
            stats.covering_routes,
        )
    ]


def table_of(rows: list[Row]) -> PrefixStats:
    """The table of rows of one scan, in order; their is_hrp must follow from count and threshold."""
    assert all(r.is_hrp == (r.responsive_count >= r.threshold.min_count) for r in rows)
    assert len({r.meta for r in rows}) <= 1
    return PrefixStats(
        rows[0].meta if rows else None,
        array("I", [r.prefix for r in rows]),
        array("H", [r.responsive_count for r in rows]),
        [r.threshold for r in rows],
        [r.origin_asn for r in rows],
        [r.covering_route for r in rows],
    )


def results_of(rows, meta: ScanMeta | None = None) -> AppResults:
    """The results table of ``(target, status, identifier)`` rows of one scan, in order: of
    ``meta``, make_meta() by default, or of none when there are no rows."""
    rows = list(rows)
    return AppResults(
        (meta or make_meta()) if rows else None,
        array("I", [target for target, _, _ in rows]),
        bytes(STATUS_CODES[status] for _, status, _ in rows),
        [identifier for _, _, identifier in rows],
    )


def with_line_ends(lines: list, end: str) -> list:
    """The lines, text or bytes, with each ``\\n`` or ``\\r\\n`` line end written as ``end``."""

    def rewrite(line):
        if isinstance(line, bytes):
            return rewrite(line.decode("latin-1")).encode("latin-1")  # every byte kept as it is
        body = line[:-2] if line.endswith("\r\n") else line[:-1] if line.endswith("\n") else None
        return line if body is None else body + end

    return [rewrite(line) for line in lines]


def no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


RESULTS_HEADER = "ip,port,proto,status,identifier\n"


def write_cycle(folder: Path) -> dict[str, str]:
    """A scan of three HRPs and a sparse /24, its plan, results at the sampled targets that class
    one HRP diverse, and a truth file with a row per scan address, written to the folder."""
    addresses = [10 << 24 | prefix << 8 | host for prefix in range(3) for host in range(240)]
    addresses += [10 << 24 | 7 << 8 | host for host in range(5)]
    scan = folder / "scan.txt"
    scan.write_text("".join(f"{format_ipv4(a)}\n" for a in addresses), encoding="utf-8")
    truth = folder / "truth.csv"
    truth.write_text(RESULTS_HEADER + "".join(
        f"{format_ipv4(a)},443,tcp,success,id{a % 7 if a >> 8 & 0xFF == 1 else 0}\n" for a in addresses),
        encoding="utf-8")
    paths = {"scan": str(scan), "truth": str(truth), "plan": str(folder / "plan.csv")}
    assert main(["plan", "--port", "443", "--k", "10", "--rng-seed", "3", "--output", paths["plan"],
                 "--summary", str(folder / "plan.json"), paths["scan"]]) == 0
    return paths


@pytest.fixture
def cycle(tmp_path) -> dict[str, str]:
    """The plan cycle's inputs, written to the test's own folder."""
    return write_cycle(tmp_path)


def cycle_argv(command: str, paths: dict[str, str], *flags: str) -> list[str]:
    if command == "applayer":
        return ["applayer", "--port", "443", *flags, "--output", "OUT/applayer.json", paths["truth"], paths["scan"]]
    if command == "escalate":
        return ["escalate", "--port", "443", *flags, "--output", "OUT/escalated.csv",
                "--summary", "OUT/escalate.json", paths["plan"], paths["truth"], paths["scan"]]
    return ["evaluate", "--output", "OUT/evaluate.json", paths["plan"], paths["truth"]]


_RUNS = itertools.count()


def run_with_cpus(folder: Path, argv: list[str], cpus: int, fork_min_bytes: int = 0):
    """The command with `cpus` usable CPUs: exit code, stderr and the files written to the folder
    that OUT names in argv. By default any input with a byte in it is worth a fork."""
    out = folder / f"out-{next(_RUNS)}"
    out.mkdir()
    err = io.StringIO()
    with mock.patch.object(scans, "_usable_cpus", lambda: cpus), \
            mock.patch.object(scans, "_FORK_MIN_BYTES", fork_min_bytes), contextlib.redirect_stderr(err):
        code = main([arg.replace("OUT", str(out)) for arg in argv])
    no_worker_left()
    return code, err.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())}
