"""Command-line front end: detect -> enrich -> analyze -> plan -> evaluate.

Every subcommand is a thin adapter over one module operation: it writes
its tables and returns its JSON report, which ``main`` writes to
``--summary`` (default stderr) if the command has it, else ``--output``
(default stdout). Output has deterministic ordering, fixed six-digit
decimals, and a trailing newline. Exit codes: 0 success, 2 usage or
schema error, 3 strict-policy data failure, 4 I/O failure.

This module holds the analysis commands and imports only ``ingest``, ``prefixes`` and ``fmt``;
the commands that read a scan or a plan are in ``scans``, imported when one runs. Each command
imports the other modules it runs when it runs, and ``main`` builds the parser of the named
command alone, so a command's start-up compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from array import array
from errno import EBADF
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING, Callable, Sequence

from . import prefixes
from .fmt import write_json_report
from .ingest import (CSV_SADDR, LENIENT, PLAIN, STRICT, IngestError, ScanMeta, format_timestamp,  # noqa: F401
                     open_scan_source, parse_decimal, parse_timestamp, parse_uint)  # scans looks up open_scan_source here
from .prefixes import HrpThreshold, format_slash24

if TYPE_CHECKING:
    from datetime import datetime

# Under ``python -m hrpkit.cli`` this is __main__; also named hrpkit.cli, scans imports it, not a new copy.
sys.modules.setdefault(__spec__.name, sys.modules[__name__])

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
_ERRORS = (IngestError, ValueError, OSError)  # what main reports, with exit codes 3, 2 and 4


def _kind(error: BaseException) -> int:
    """The error's index in _ERRORS, the first kind it is: a worker sends it, main maps it to a code."""
    return next(i for i, kind in enumerate(_ERRORS) if isinstance(error, kind))


def _flag(parse: Callable, *args) -> Callable[[str], object]:
    """A flag's parser: ``parse(text, *args)``, which reads the same kind of field in input
    files, with its ValueError as a usage error."""

    def parse_flag(text: str) -> object:
        try:
            return parse(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


def _open_in(path: str) -> IO[str]:
    """Every input, a file or '-' for stdin, decoded one way: UTF-8 without a leading BOM,
    each undecodable byte read as U+FFFD so that it fails the field it lands in."""
    stdin = path == "-"
    return open(0 if stdin else path, "r", encoding="utf-8-sig", errors="replace", closefd=not stdin)


def _write_to(path: str | None, write: Callable[[IO[str]], None], default: str | None = None) -> None:
    """``write`` to the file at path, to stdout for '-', or with no path to the standard stream that
    default names, if any; a stream is flushed, so that one that cannot take the output fails here."""
    if path not in (None, "-"):
        with open(path, "w", encoding="utf-8", newline="") as out:
            write(out)
    elif name := "stdout" if path else default:
        if (stream := getattr(sys, name)) is None:  # closed when the process started
            raise OSError(EBADF, os.strerror(EBADF), f"<{name}>")
        write(stream)
        stream.flush()


def _stem(path: str) -> str:
    """The file name without its last suffix, as ``pathlib.PurePath.stem`` gives it."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return "stdin" if path == "-" else name[:dot] if 0 < dot < len(name) - 1 else name


def _read_table(path: str, reader: Callable, *args, source: IO[str] | None = None):
    """``reader(source, *args)`` over the named file, or over a source read from it, with the path in its errors."""
    with _open_in(path) if source is None else source as source:
        try:
            return reader(source, *args)
        except (ValueError, IngestError) as exc:
            exc.args = (f"{path}: {exc}",)  # the same type, so the same exit code
            raise


def _record(obj, **render: Callable) -> dict:
    """A record as a report dict: its fields in declaration order, each passed through the
    render function named after it."""
    doc = dict(obj._asdict() if isinstance(obj, tuple) else vars(obj))
    doc.update((name, fn(doc[name])) for name, fn in render.items())
    return doc


# An input of at most this many bytes in all is read here: a fork would cost more. One worker's
# two shards broke even at about 45 kB of bench-shaped scan and 190 kB of a sparse one.
_FORK_MIN_BYTES = 1 << 16


def _small(paths: Sequence[str]) -> bool:
    """Whether the files are regular and too small in all to pay for a fork; a pipe's size is unknown."""
    return all(map(os.path.isfile, paths)) and sum(map(os.path.getsize, paths)) <= _FORK_MIN_BYTES


def _fold(paths: Sequence[str], read: Callable[[Sequence[str]], object], merge: Callable) -> object:
    """``read(paths)``, from contiguous groups of the files read side by side by forked workers if
    those after the first may pay for it (see ``forks.fold``); here if one is stdin."""
    if "-" in paths or _small(paths[1:]):
        return read(paths)
    from .forks import fold
    return fold(paths, read, merge)


def _read_each(paths: Sequence[str], read: Callable[[prefixes.PrefixStats], tuple]) -> list[tuple]:
    """``(meta, *read(table))`` of each stats file's table, in order (see _fold): read gives what a
    worker sends, and meta is the table's, sent as a plain tuple."""
    def read_one(path: str) -> tuple:  # its table is dropped on return, before the next file is read
        table = _read_table(path, prefixes.read_prefix_stats)
        return (table.meta and tuple(table.meta), *read(table))
    replies = _fold(paths, lambda group: list(map(read_one, group)), list.__add__)
    return [(meta and ScanMeta(*meta), *rest) for meta, *rest in replies]


def _write_stats(stats, args) -> None:
    writer = prefixes.write_prefix_stats_jsonl if args.output_format == "jsonl" else prefixes.write_prefix_stats_csv
    _write_to(args.output, lambda out: writer(stats, out), default="stdout")


# --- subcommands -----------------------------------------------------------


def _cmd_enrich(args) -> dict:
    from . import routing

    def read_stats() -> prefixes.PrefixStats:
        return _read_table(args.stats, prefixes.read_prefix_stats)
    if args.routes != "-" and os.path.isfile(args.routes) and not _small([args.routes]):
        from .forks import load_routes  # a worker may parse the snapshot's second half
        stats, table = load_routes(args.routes, args.policy, read_stats)
    else:
        stats, table = read_stats(), _read_table(args.routes, routing.load_route_table, args.policy)
    enriched = routing.enrich(stats, table)
    _write_stats(enriched, args)
    split = table.split_slash24s()
    load = table.load_stats
    return {
        "routes_loaded": load.entries_loaded,
        "route_lines_read": load.lines_read,
        "route_invalid_lines": load.invalid_lines,
        "route_normalized_lines": load.normalized_lines,
        "route_duplicate_conflicts": load.duplicate_conflicts,
        "route_duplicate_repeats": load.duplicate_repeats,
        "prefixes": len(enriched),
        "prefixes_with_origin": len(enriched) - enriched.origin_asns.count(None),
        "split_slash24_ambiguities": len(split.intersection(enriched.prefixes)),
    }


def _cmd_portmatrix(args) -> dict:
    from . import analytics, routing

    # Each file's meta, prefixes and HRP flags, and origin ASNs if asked for: what the reports read.
    scans = [SimpleNamespace(meta=meta, prefixes=array("I", prefix_column), is_hrp=flags, origin_asns=asns)
             for meta, prefix_column, flags, asns in _read_each(args.stats, lambda table: (
                 table.prefixes, bytes(table.is_hrp), table.origin_asns if args.as_summary is not None else None))]
    report = analytics.port_profile(scans, args.stats)
    ports = sorted(scan.meta for scan in scans if scan.meta is not None)
    if args.as_summary is not None:
        rows = routing.as_summary(scans)
        as_doc = [_record(row) for row in rows]
        _write_to(args.as_summary, lambda out: write_json_report(as_doc, out))
    _write_to(args.histogram_csv, lambda out: analytics.write_port_histogram_csv(report, out))
    _write_to(args.profiles_csv, lambda out: analytics.write_port_profiles_csv(report, out))
    return {
        "ports": [f"{meta.protocol}/{meta.port}" for meta in ports],
        "port_count": report.port_count,
        "prefixes": len(report.profiles),
        "hrp_prefixes": sum(1 for p in report.profiles if p.ports_hrp),
        "responsive_histogram": [{"ports": n, "prefixes": count} for n, count in report.responsive_histogram.items()],
        "hrp_histogram": [{"ports": n, "prefixes": count} for n, count in report.hrp_histogram.items()],
    }


def _series_labels(args) -> list[tuple[str, datetime]]:
    scan_ids = args.scan_ids.split(",") if args.scan_ids is not None else [_stem(p) for p in args.stats]
    if len(scan_ids) != len(args.stats):
        raise ValueError(f"--scan-ids names {len(scan_ids)} scans but {len(args.stats)} files given")
    if args.timestamps is not None:
        stamps = [_timestamp(t) for t in args.timestamps.split(",")]
        if len(stamps) != len(args.stats):
            raise ValueError(
                f"--timestamps names {len(stamps)} scans but {len(args.stats)} files given"
            )
    else:  # argument order is the series order: a day apart from the epoch
        from datetime import datetime, timezone
        stamps = [datetime.fromtimestamp(86400 * i, timezone.utc) for i in range(len(args.stats))]
    return list(zip(scan_ids, stamps))


def _timestamp(text: str) -> datetime:
    try:
        return parse_timestamp(text)
    except (ValueError, OverflowError) as exc:  # OverflowError: a time whose UTC form leaves the calendar
        raise ValueError(f"--timestamps entry {text!r}: {exc}") from None


def _cmd_stability(args) -> dict:
    from . import analytics

    def read(table: prefixes.PrefixStats) -> tuple:  # what the series reads of a file
        return tuple(prefixes.responsiveness_histogram(table)), array("I", prefixes.hrp_set(table))
    labels = _series_labels(args)
    metas, histograms, hrp_sets = zip(*_read_each(args.stats, read))
    meta = analytics.series_meta(metas, args.stats)
    points = analytics.stability_series([prefixes.ResponsivenessHistogram(*h) for h in histograms], labels)
    summary = analytics.persistence([array("I", hrps) for hrps in hrp_sets], args.persistence_n)
    _write_to(args.series_csv, lambda out: analytics.write_series_csv(points, out))
    return {
        "proto": meta.protocol if meta else None,
        "port": meta.port if meta else None,
        "series": [_record(p, timestamp=format_timestamp) for p in points],
        "persistence": _record(summary),
    }


def _cmd_vantage(args) -> dict:
    from . import analytics

    paths = [args.stats_a, args.stats_b]
    (meta_a, hrps_a), (meta_b, hrps_b) = _read_each(paths, lambda table: (array("I", prefixes.hrp_set(table)),))
    meta = analytics.series_meta([meta_a, meta_b], paths)
    diff = analytics.vantage_diff(array("I", hrps_a), array("I", hrps_b))
    return {
        "proto": meta.protocol if meta else None,
        "port": meta.port if meta else None,
        "vantage_a": args.stats_a,
        "vantage_b": args.stats_b,
        "only_a": [format_slash24(p) for p in sorted(diff.only_a)],
        "only_b": [format_slash24(p) for p in sorted(diff.only_b)],
        "only_a_count": len(diff.only_a),
        "only_b_count": len(diff.only_b),
        "both_count": len(diff.both),
        "divergence": diff.divergence,
    }


# --- parser ----------------------------------------------------------------


# The options that several commands share: flag -> add_argument keywords.
_SHARED = {
    "--port": dict(type=_flag(parse_uint, 0, 65535, "value"), required=True, help="scanned port"),
    "--proto": dict(choices=("tcp", "udp"), default="tcp", help="scan protocol"),
    "--format": dict(choices=(PLAIN, CSV_SADDR), default=PLAIN, help="scan file layout"),
    "--policy": dict(choices=(STRICT, LENIENT), default=LENIENT,
                     help="invalid input lines: abort (strict) or count and skip"),
    "--threshold": dict(type=_flag(lambda text: HrpThreshold(parse_decimal(text, "value"))),
                        default=prefixes.DEFAULT_THRESHOLD, help="responsive fraction of 256 that makes a /24 an HRP"),
    "--output": dict(default=None, help="output path ('-' for stdout, the default)"),
    "--summary": dict(default=None, help="write the run summary JSON here instead of stderr"),
    "--output-format": dict(choices=("csv", "jsonl"), default="csv", help="prefix stats output form"),
}

# command -> (its help line, the shared options it takes, its own arguments: name -> keywords), the
# arguments in the order of its help. Its body is _cmd_<command>, here or in scans.
_COMMANDS = {
    "detect": ("aggregate a scan into /24 stats and flag HRPs",
               "--port --proto --format --policy --threshold --output --summary --output-format",
               {"scan": dict(nargs="+", help="scan result file(s); shards of one scan")}),
    "enrich": ("attach origin AS and covering route to prefix stats", "--output --summary --output-format", {
        "--policy": dict(choices=(STRICT, LENIENT), default=LENIENT,
                         help="route snapshot problems: abort (strict) or count and continue"),
        "stats": dict(help="prefix stats CSV from detect"),
        "routes": dict(help="route snapshot CSV: prefix/length,asn"),
    }),
    "portmatrix": ("cross-port responsiveness profile of prefixes", "--output", {
        "--histogram-csv": dict(default=None, help="also write the bucket histogram as CSV"),
        "--profiles-csv": dict(default=None, help="also write per-prefix profiles as CSV"),
        "--as-summary": dict(default=None, help="also write the per-AS rollup JSON (needs enriched stats)"),
        "stats": dict(nargs="+", help="one classified stats CSV per port"),
    }),
    "stability": ("HRP share over an ordered series of scans, plus persistence", "--output", {
        "--persistence-n": dict(type=_flag(parse_uint, 0, (1 << 63) - 1, "value"), default=5,
                                help="max missed scans for the missing-at-most-n share"),
        "--scan-ids": dict(default=None, help="comma-separated scan ids (default: file stems)"),
        "--timestamps": dict(default=None, help="comma-separated ISO timestamps (default: argument order)"),
        "--series-csv": dict(default=None, help="also write the series as CSV"),
        "stats": dict(nargs="+", help="two or more classified stats CSVs, oldest first"),
    }),
    "vantage": ("diff the HRP sets of two vantage points", "--output", {
        "stats_a": dict(help="classified stats CSV from vantage A"),
        "stats_b": dict(help="classified stats CSV from vantage B"),
    }),
    "applayer": ("join application-layer results with HRP classifications",
                 "--port --proto --format --policy --threshold --output", {
        "--exclude-app-errors": dict(action="store_true",
                                     help="disregard app_error targets instead of counting them as failures"),
        "results": dict(help="application results CSV: ip,port,proto,status,identifier"),
        "scan": dict(nargs="+", help="the port scan the results were targeted from"),
    }),
    "plan": ("build an HRP-aware application-layer target plan",
             "--port --proto --format --policy --threshold --output --summary", {
        "--k": dict(type=_flag(parse_uint, 1, 256, "value"), default=10, help="targets per HRP before escalation"),
        "--rng-seed": dict(type=_flag(parse_uint, 0, (1 << 64) - 1, "value"), default=0,
                           help="sampling seed (fixed generator)"),
        "--no-unresponsive-seeds": dict(action="store_true", help="drop DNS seeds the port scan did not see"),
        "--targets-out": dict(default=None, help="also write targets one per line"),
        "--seeds": dict(default=None, help="DNS seeds CSV: ip,name_count"),
        "scan": dict(nargs="+", help="port scan result file(s), shards of one scan; "
                     "without --seeds, the second of two files is the seeds file"),
    }),
    "escalate": ("classify sampled outcomes and escalate diverse HRPs to full scans",
                 "--port --proto --format --policy --output --summary", {
        "--proxy-max-success": dict(type=_flag(parse_decimal, "value"), default=0.10,
                                    help="sampled success rate at or below this is a proxy"),
        "--cdn-min-success": dict(type=_flag(parse_decimal, "value"), default=0.90,
                                  help="sampled success rate at or above this with one identifier is cdn_like"),
        "plan": dict(help="plan CSV produced by plan"),
        "results": dict(help="application results CSV for the sampled targets"),
        "scan": dict(nargs="+", help="port scan result file(s) backing the plan; shards of one scan"),
    }),
    "evaluate": ("score a plan against full-scan ground truth", "--output", {
        "plan": dict(help="plan CSV"),
        "truth": dict(help="application results CSV covering every responsive address"),
    }),
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """By default to stdout, flushed: help that it cannot take raises OSError, as a report does."""
        if file is not None:
            return super().print_help(file)
        _write_to("-", lambda out: out.write(self.format_help()))


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with a command named, of that one alone: for an argv that
    starts with the command, both give the same help, errors, exit code and namespace."""
    parser = _Parser(
        prog="hrpkit",
        description="Detect and analyze highly responsive /24 prefixes in port-scan output.",
    )
    # A usage line names every command, though one alone is added.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        help_line, shared, own = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag in shared.split():
            p.add_argument(flag, **_SHARED[flag])
        for flag, options in own.items():
            p.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None  # else the full parser reports it
    try:
        try:
            args = build_parser(command).parse_args(argv)
        except SystemExit as exc:  # after -h, or a usage error written to stderr
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
        command = args.command
        if (body := globals().get(f"_cmd_{command}")) is None:
            from . import scans
            body = getattr(scans, f"_cmd_{command}")
        report = body(args)
        path, default = (args.summary, "stderr") if "summary" in args else (args.output, "stdout")
        _write_to(path, lambda out: write_json_report(report, out), default)
        return EXIT_OK
    except _ERRORS as exc:  # RouteParseError and PlanEvaluationError included
        name = f"hrpkit {command}" if command else "hrpkit"
        try:  # a line that stderr cannot take is lost, but not the exit code
            _write_to(None, lambda err: err.write(f"{name}: {exc}\n"), "stderr")
        except OSError:
            pass
        return (EXIT_DATA, EXIT_USAGE, EXIT_IO)[_kind(exc)]


def run() -> None:
    """The process entry, for ``hrpkit`` and ``python -m hrpkit.cli``; ``main`` is the in-process one."""
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # main has met it; what the stream holds goes nowhere, not to the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    gc.freeze()  # the collections at interpreter exit skip frozen objects: here, every object
    sys.exit(code)


if __name__ == "__main__":
    run()
