"""Command-line front end: detect -> enrich -> analyze -> plan -> evaluate.

Every subcommand is a thin adapter over one module operation: it writes
its tables and returns its JSON report, which ``main`` writes to
``--summary`` (default stderr) if the command has it, else ``--output``
(default stdout). Output has deterministic ordering, fixed six-digit
decimals, and a trailing newline. Exit codes: 0 success, 2 usage or
schema error, 3 strict-policy data failure, 4 I/O failure.

Only ``ingest``, ``prefixes`` and ``fmt`` are imported with this module;
each subcommand imports the other modules it runs when it runs, so a
command's start-up compiles no module it does not use.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import os
import sys
from array import array
from errno import EBADF
from functools import reduce
from typing import IO, TYPE_CHECKING, Callable, Sequence

from . import prefixes
from .fmt import write_json_report
from .ingest import (
    CSV_SADDR,
    LENIENT,
    PLAIN,
    STRICT,
    IngestError,
    IngestStats,
    ScanMeta,
    format_timestamp,
    open_scan_source,
    parse_decimal,
    parse_timestamp,
    parse_uint,
)
from .prefixes import HrpThreshold, format_slash24

if TYPE_CHECKING:
    from datetime import datetime

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


def _read_table(path: str, reader: Callable, *args):
    """``reader(source, *args)`` over the named file, with the path in its errors."""
    with _open_in(path) as source:
        try:
            return reader(source, *args)
        except (ValueError, IngestError) as exc:
            exc.args = (f"{path}: {exc}",)  # the same type, so the same exit code
            raise


def _aggregate_scan(source, args) -> tuple[prefixes.PrefixTable, IngestStats]:
    addresses, stats = open_scan_source(source, args.format, args.policy)
    return prefixes.aggregate(addresses, ScanMeta(args.proto, args.port)), stats


def _read_shards(paths: Sequence[str], args) -> tuple[prefixes.PrefixTable, IngestStats]:
    """Aggregate scan shards one after another, merged in order: the serial loop."""
    total = IngestStats()
    tables = []
    for path in paths:
        table, stats = _read_table(path, _aggregate_scan, args)
        tables.append(table)
        total.merge(stats)
    return reduce(prefixes.merge, tables), total


# An input of at most this many bytes in all is read here: a fork would cost more. One worker's
# two shards broke even at about 45 kB of bench-shaped scan and 190 kB of a sparse one.
_FORK_MIN_BYTES = 1 << 16


def _small(paths: Sequence[str]) -> bool:
    """Whether the files are regular and too small in all to pay for a fork; a pipe's size is unknown."""
    return all(map(os.path.isfile, paths)) and sum(map(os.path.getsize, paths)) <= _FORK_MIN_BYTES


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or runs other threads (a
    forked copy of a process with threads can deadlock)."""
    threading = sys.modules.get("threading")
    threaded = threading is not None and threading.active_count() > 1
    if threaded or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work: Callable, *args, index: int = 1) -> Callable[..., object]:
    """``work(*args)`` in the index-th forked worker. ``wait()`` reaps it and gives its marshalled
    value, raises its error (the same type with the same text), or runs ``work(*args)`` here if it
    exits without a reply; ``wait(kill=True)`` kills and reaps it. Once reaped, ``wait`` gives None."""
    read_end, write_end = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            try:  # the scheduler keeps a new child on its parent's CPU: move to the index-th next one
                cpus = sorted(os.sched_getaffinity(0))  # the real mask, which tests do not patch
                os.sched_setaffinity(0, [cpus[index % len(cpus)]])
            except OSError:  # best effort; the parent's own mask never changes
                pass
            try:  # the reply: (None, the value), or (the error's kind, its text)
                reply = None, work(*args)
            except _ERRORS as exc:
                reply = _kind(exc), str(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
            os._exit(0)
        finally:  # whatever else is raised, the worker exits without a reply and never returns
            os._exit(1)
    os.close(write_end)
    pipe = open(read_end, "rb")

    def wait(kill: bool = False):
        if pipe.closed:
            return None
        reply = b""
        try:
            reply = b"" if kill else pipe.read()
        finally:
            pipe.close()
            if not reply:
                os.kill(pid, 9)  # SIGKILL, without importing signal at start-up
            status = os.waitpid(pid, 0)[1]
        if kill or status:  # no whole reply: the input is read here, which raises its error if it has one
            return None if kill else work(*args)
        kind, value = marshal.loads(reply)
        if kind is not None:  # built without __init__, which for IngestError wants a line number
            raise _ERRORS[kind].__new__(_ERRORS[kind], value)
        return value

    return wait


def _load_occupancy(args) -> tuple[prefixes.PrefixTable, IngestStats]:
    """Aggregate the scan file(s) named on the command line, sharded then merged: in contiguous
    groups, one per usable CPU, the first read here and each other one by a forked worker (all
    here if one is stdin). The result and the error (the first failing shard's) are the serial
    loop's, but for an I/O error if a worker dies without a whole reply and one of its shards is not
    a regular file, such as a pipe. Else its group is read here, and so are all groups if the
    workers' shards are too small to pay for their forks."""
    paths, parent, waits = args.scan, os.getpid(), []
    n = 1 if "-" in paths else min(len(paths), _usable_cpus())
    groups = [paths[len(paths) * i // n:len(paths) * (i + 1) // n] for i in range(n)]
    if _small(paths[len(groups[0]):]):
        groups = [paths]

    def read(group: Sequence[str]) -> tuple:
        if os.getpid() == parent and not all(map(os.path.isfile, group)):  # a pipe the worker drained
            raise OSError(f"the worker reading {', '.join(group)} exited without a reply, and a pipe is read once")
        found, stats = _read_shards(group, args)
        return found.bitmaps, vars(stats)

    try:
        for i, group in enumerate(groups[1:], 1):
            waits.append(_fork(read, group, index=i))
        table, total = _read_shards(groups[0], args)
        for wait in waits:
            bitmaps, counts = wait()
            prefixes.merge(table, prefixes.PrefixTable(table.meta, bitmaps))
            total.merge(IngestStats(**counts))
    finally:  # reap every worker, killed first unless it has replied
        for wait in waits:
            wait(kill=True)
    return table, total


def _beside(paths: Sequence[str], there: Callable, here: Callable, there_first: bool = True,
            pack: Callable = lambda value: value, unpack: Callable = lambda reply: reply) -> tuple:
    """``(there(), here())``, with the error the serial order raises first: there's, or here's if
    not there_first. With another usable CPU and one regular input file for there, larger than
    _FORK_MIN_BYTES, a forked worker replies ``pack(there())`` for ``unpack`` while here runs. Shards
    stay with _load_occupancy, whose own workers read them side by side."""
    if _usable_cpus() < 2 or paths[1:] or "-" in paths or not os.path.isfile(paths[0]) or _small(paths):
        return (there(), here()) if there_first else (here(), there())[::-1]  # each pair is run left to right
    wait = _fork(lambda: pack(there()))
    try:
        second = here()
        value = wait()
    except _ERRORS:
        wait(kill=not there_first)  # there's error, if it has one and comes first, is the one raised
        raise
    finally:
        wait(kill=True)  # after an interrupt; once the worker is reaped, this does nothing
    return unpack(value), second


def _record(obj, **render: Callable) -> dict:
    """A record as a report dict: its fields in declaration order, each passed through the
    render function named after it."""
    doc = dict(obj._asdict() if isinstance(obj, tuple) else vars(obj))
    doc.update((name, fn(doc[name])) for name, fn in render.items())
    return doc


def _read_results(args):
    """The results file, whose port and protocol, if it names them, must be the flags'."""
    from .applayer import read_app_results

    results = _read_table(args.results, read_app_results)
    meta = results.meta
    if meta is not None and meta != ScanMeta(args.proto, args.port):
        raise ValueError(
            f"port/proto mismatch: {meta.protocol}/{meta.port} ({args.results}) vs "
            f"{args.proto}/{args.port} (flags)"
        )
    return results


def _write_stats(stats, args) -> None:
    writer = prefixes.write_prefix_stats_jsonl if args.output_format == "jsonl" else prefixes.write_prefix_stats_csv
    _write_to(args.output, lambda out: writer(stats, out), default="stdout")


# --- subcommands -----------------------------------------------------------


def _cmd_detect(args) -> dict:
    table, ingest_stats = _load_occupancy(args)
    stats = prefixes.classify(table, args.threshold)
    _write_stats(stats, args)
    return {
        "files": len(args.scan),
        **_record(ingest_stats),
        "distinct_addresses": table.total_addresses(),
        "prefixes": len(table),
        "hrp_prefixes": len(prefixes.hrp_set(stats)),
        "hrp_address_share": prefixes.hrp_address_share(stats),
    }


def _cmd_enrich(args) -> dict:
    from . import routing

    stats = _read_table(args.stats, prefixes.read_prefix_stats)
    table = _read_table(args.routes, routing.load_route_table, args.policy)
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

    scans = [_read_table(p, prefixes.read_prefix_stats) for p in args.stats]
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
        "responsive_histogram": [
            {"ports": bucket, "prefixes": count}
            for bucket, count in report.responsive_histogram.items()
        ],
        "hrp_histogram": [
            {"ports": bucket, "prefixes": count} for bucket, count in report.hrp_histogram.items()
        ],
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

    def read(path: str) -> tuple:  # what the series reads of a file; its table is dropped on return
        scan = _read_table(path, prefixes.read_prefix_stats)
        return scan.meta, prefixes.responsiveness_histogram(scan), array("I", prefixes.hrp_set(scan))
    labels = _series_labels(args)
    metas, histograms, hrp_sets = zip(*map(read, args.stats))
    meta = analytics.series_meta(metas, args.stats)
    points = analytics.stability_series(histograms, labels)
    summary = analytics.persistence(hrp_sets, args.persistence_n)
    _write_to(args.series_csv, lambda out: analytics.write_series_csv(points, out))
    return {
        "proto": meta.protocol if meta else None,
        "port": meta.port if meta else None,
        "series": [_record(p, timestamp=format_timestamp) for p in points],
        "persistence": _record(summary),
    }


def _cmd_vantage(args) -> dict:
    from . import analytics

    stats_a = _read_table(args.stats_a, prefixes.read_prefix_stats)
    stats_b = _read_table(args.stats_b, prefixes.read_prefix_stats)
    meta = analytics.series_meta([stats_a.meta, stats_b.meta], [args.stats_a, args.stats_b])
    diff = analytics.vantage_diff(prefixes.hrp_set(stats_a), prefixes.hrp_set(stats_b))
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


def _cmd_applayer(args) -> dict:
    from . import applayer

    bitmaps, results = _beside(args.scan, lambda: _load_occupancy(args)[0].bitmaps, lambda: _read_results(args))
    occupancy = prefixes.PrefixTable(ScanMeta(args.proto, args.port), bitmaps)
    stats = prefixes.classify(occupancy, args.threshold)
    hrps = prefixes.hrp_set(stats)
    report_set = applayer.hrp_app_report(results, hrps, occupancy, args.exclude_app_errors)
    cdf = applayer.success_cdf(report_set.reports)
    steps = sorted({r.success_count for r in report_set.reports})
    return {
        "proto": args.proto,
        "port": args.port,
        "threshold_fraction": args.threshold.fraction,
        "exclude_app_errors": args.exclude_app_errors,
        "hrp_count": len(hrps),
        "anomalies": report_set.anomaly_count,
        "duplicate_results": report_set.duplicate_count,
        "reports": [_record(r, prefix=format_slash24) for r in report_set.reports],
        "address_comparison": _record(report_set.comparison),
        "success_cdf": {
            "total_reports": cdf.total_reports,
            "steps": [
                {"success_count": c, "cumulative_share": cdf.at(c)} for c in steps
            ],
        },
    }


def _cmd_plan(args) -> dict:
    from . import planner

    if args.seeds is None and len(args.scan) == 2:  # the older form: one scan, then the seeds file
        args.scan, args.seeds = args.scan[:1], args.scan[1]
    elif args.seeds is None and len(args.scan) > 2:
        raise ValueError(f"{len(args.scan)} scan files but no --seeds; name the seeds file with --seeds")
    elif args.seeds is not None and os.path.realpath(args.seeds) in map(os.path.realpath, args.scan):
        raise ValueError(f"{args.seeds} is given both as --seeds and as a scan file")
    occupancy, _ = _load_occupancy(args)
    stats = prefixes.classify(occupancy, args.threshold)
    hrps = prefixes.hrp_set(stats)
    seeds = [] if args.seeds is None else _read_table(args.seeds, planner.read_dns_seeds)
    policy = planner.SamplePolicy(
        k=args.k, rng_seed=args.rng_seed, include_unresponsive_seeds=not args.no_unresponsive_seeds
    )
    plan = planner.build_plan(occupancy, hrps, seeds, policy)
    _write_to(args.output, lambda out: planner.write_plan_csv(plan, out), default="stdout")
    _write_to(args.targets_out, lambda out: planner.write_plan_targets(plan, out))
    return {
        "proto": args.proto,
        "port": args.port,
        "threshold_fraction": args.threshold.fraction,
        "k": policy.k,
        "rng_seed": policy.rng_seed,
        "hrp_prefixes": len(hrps),
        "dns_seeds": len(seeds),
        **planner.plan_summary(plan),
    }


def _cmd_escalate(args) -> dict:
    from . import planner

    bitmaps, (plan, results) = _beside(  # the scan is read last in the serial order
        args.scan, lambda: _load_occupancy(args)[0].bitmaps,
        lambda: (_read_table(args.plan, planner.read_plan_csv), _read_results(args)), False)
    occupancy = prefixes.PrefixTable(ScanMeta(args.proto, args.port), bitmaps)
    policy = planner.SamplePolicy(
        proxy_max_success=args.proxy_max_success, cdn_min_success=args.cdn_min_success
    )
    rows_by_prefix: dict[int, list[int]] = {}
    seen_of: dict[int, int] = {}  # prefix -> bitmap of the hosts with a row so far
    off_plan = 0
    for row, target in enumerate(results.targets):
        prefix, host = target >> 8, target & 0xFF
        entry = plan.entries.get(prefix)
        if not (entry and entry.strategy == planner.STRATEGY_SAMPLED and host in entry.hosts):
            off_plan += 1  # outside every sampled prefix, or never planned there
        elif not seen_of.get(prefix, 0) >> host & 1:  # the first row per target counts, as in applayer
            seen_of[prefix] = seen_of.get(prefix, 0) | 1 << host
            rows_by_prefix.setdefault(prefix, []).append(row)
    classes = {
        prefix: planner.classify_sample(results.select(rows), policy)
        for prefix, rows in sorted(rows_by_prefix.items())
    }
    escalated = planner.escalate(plan, classes, occupancy)
    _write_to(args.output, lambda out: planner.write_plan_csv(escalated, out), default="stdout")
    class_counts = {name: 0 for name in planner.SCENARIOS}
    for scenario in classes.values():
        class_counts[scenario] += 1
    return {
        "classified_prefixes": len(classes),
        "scenario_counts": class_counts,
        "off_plan_results": off_plan,
        "added_targets": escalated.total_targets() - plan.total_targets(),
        **planner.plan_summary(escalated),
    }


def _cmd_evaluate(args) -> dict:
    from . import applayer, planner

    # The plan is read in the worker, whose reply holds each entry's fields; its checks run here.
    plan, truth = _beside([args.plan], lambda: _read_table(args.plan, planner.read_plan_csv),
                          lambda: _read_table(args.truth, applayer.read_app_results), True,
                          lambda plan: [tuple(entry) for entry in plan.entries.values()],
                          lambda fields: planner.TargetPlan({f[0]: planner.PlanEntry(*f) for f in fields}))
    metrics = planner.evaluate_plan(plan, truth)
    return _record(metrics)


# --- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrpkit",
        description="Detect and analyze highly responsive /24 prefixes in port-scan output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    meta = argparse.ArgumentParser(add_help=False)
    meta.add_argument("--port", type=_flag(parse_uint, 0, 65535, "value"), required=True, help="scanned port")
    meta.add_argument("--proto", choices=("tcp", "udp"), default="tcp", help="scan protocol")

    scan_input = argparse.ArgumentParser(add_help=False)
    scan_input.add_argument("--format", choices=(PLAIN, CSV_SADDR), default=PLAIN,
                            help="scan file layout")
    scan_input.add_argument("--policy", choices=(STRICT, LENIENT), default=LENIENT,
                            help="invalid input lines: abort (strict) or count and skip")

    thresh = argparse.ArgumentParser(add_help=False)
    thresh.add_argument("--threshold", type=_flag(lambda text: HrpThreshold(parse_decimal(text, "value"))),
                        default=prefixes.DEFAULT_THRESHOLD,
                        help="responsive fraction of 256 that makes a /24 an HRP")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output path ('-' for stdout, the default)")

    summary_opt = argparse.ArgumentParser(add_help=False)
    summary_opt.add_argument("--summary", default=None,
                             help="write the run summary JSON here instead of stderr")

    stats_format = argparse.ArgumentParser(add_help=False)
    stats_format.add_argument("--output-format", choices=("csv", "jsonl"), default="csv",
                              help="prefix stats output form")

    p = sub.add_parser("detect", parents=[meta, scan_input, thresh, output, summary_opt, stats_format],
                       help="aggregate a scan into /24 stats and flag HRPs")
    p.add_argument("scan", nargs="+", help="scan result file(s); shards of one scan")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("enrich", parents=[output, summary_opt, stats_format],
                       help="attach origin AS and covering route to prefix stats")
    p.add_argument("--policy", choices=(STRICT, LENIENT), default=LENIENT,
                   help="route snapshot problems: abort (strict) or count and continue")
    p.add_argument("stats", help="prefix stats CSV from detect")
    p.add_argument("routes", help="route snapshot CSV: prefix/length,asn")
    p.set_defaults(func=_cmd_enrich)

    p = sub.add_parser("portmatrix", parents=[output],
                       help="cross-port responsiveness profile of prefixes")
    p.add_argument("--histogram-csv", default=None, help="also write the bucket histogram as CSV")
    p.add_argument("--profiles-csv", default=None, help="also write per-prefix profiles as CSV")
    p.add_argument("--as-summary", default=None,
                   help="also write the per-AS rollup JSON (needs enriched stats)")
    p.add_argument("stats", nargs="+", help="one classified stats CSV per port")
    p.set_defaults(func=_cmd_portmatrix)

    p = sub.add_parser("stability", parents=[output],
                       help="HRP share over an ordered series of scans, plus persistence")
    p.add_argument("--persistence-n", type=_flag(parse_uint, 0, (1 << 63) - 1, "value"), default=5,
                   help="max missed scans for the missing-at-most-n share")
    p.add_argument("--scan-ids", default=None, help="comma-separated scan ids (default: file stems)")
    p.add_argument("--timestamps", default=None,
                   help="comma-separated ISO timestamps (default: argument order)")
    p.add_argument("--series-csv", default=None, help="also write the series as CSV")
    p.add_argument("stats", nargs="+", help="two or more classified stats CSVs, oldest first")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("vantage", parents=[output],
                       help="diff the HRP sets of two vantage points")
    p.add_argument("stats_a", help="classified stats CSV from vantage A")
    p.add_argument("stats_b", help="classified stats CSV from vantage B")
    p.set_defaults(func=_cmd_vantage)

    p = sub.add_parser("applayer", parents=[meta, scan_input, thresh, output],
                       help="join application-layer results with HRP classifications")
    p.add_argument("--exclude-app-errors", action="store_true",
                   help="disregard app_error targets instead of counting them as failures")
    p.add_argument("results", help="application results CSV: ip,port,proto,status,identifier")
    p.add_argument("scan", nargs="+", help="the port scan the results were targeted from")
    p.set_defaults(func=_cmd_applayer)

    p = sub.add_parser("plan", parents=[meta, scan_input, thresh, output, summary_opt],
                       help="build an HRP-aware application-layer target plan")
    p.add_argument("--k", type=_flag(parse_uint, 1, 256, "value"), default=10, help="targets per HRP before escalation")
    p.add_argument("--rng-seed", type=_flag(parse_uint, 0, (1 << 64) - 1, "value"), default=0,
                   help="sampling seed (fixed generator)")
    p.add_argument("--no-unresponsive-seeds", action="store_true",
                   help="drop DNS seeds the port scan did not see")
    p.add_argument("--targets-out", default=None, help="also write targets one per line")
    p.add_argument("--seeds", default=None, help="DNS seeds CSV: ip,name_count")
    p.add_argument("scan", nargs="+", help="port scan result file(s), shards of one scan; "
                   "without --seeds, the second of two files is the seeds file")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("escalate", parents=[meta, scan_input, output, summary_opt],
                       help="classify sampled outcomes and escalate diverse HRPs to full scans")
    p.add_argument("--proxy-max-success", type=_flag(parse_decimal, "value"), default=0.10,
                   help="sampled success rate at or below this is a proxy")
    p.add_argument("--cdn-min-success", type=_flag(parse_decimal, "value"), default=0.90,
                   help="sampled success rate at or above this with one identifier is cdn_like")
    p.add_argument("plan", help="plan CSV produced by plan")
    p.add_argument("results", help="application results CSV for the sampled targets")
    p.add_argument("scan", nargs="+", help="port scan result file(s) backing the plan; shards of one scan")
    p.set_defaults(func=_cmd_escalate)

    p = sub.add_parser("evaluate", parents=[output],
                       help="score a plan against full-scan ground truth")
    p.add_argument("plan", help="plan CSV")
    p.add_argument("truth", help="application results CSV covering every responsive address")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        report = args.func(args)
        path, default = (args.summary, "stderr") if "summary" in args else (args.output, "stdout")
        _write_to(path, lambda out: write_json_report(report, out), default)
        return EXIT_OK
    except _ERRORS as exc:  # RouteParseError and PlanEvaluationError included
        try:  # a line that stderr cannot take is lost, but not the exit code
            _write_to(None, lambda err: err.write(f"hrpkit {args.command}: {exc}\n"), "stderr")
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
