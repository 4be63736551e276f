"""Command-line front end: detect -> enrich -> analyze -> plan -> evaluate.

Every subcommand is a thin adapter over one module operation and writes
machine-readable output with deterministic ordering, fixed six-digit
decimals, and a trailing newline. Exit codes: 0 success, 2 usage or
schema error, 3 strict-policy data failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from datetime import datetime, timedelta
from functools import reduce
from pathlib import Path
from typing import IO, Callable, Sequence

from . import analytics, applayer, planner, prefixes, routing
from .fmt import write_json_report
from .ingest import (
    CSV_SADDR,
    EPOCH,
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
from .planner import PlanEvaluationError
from .prefixes import HrpThreshold, format_slash24

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4


class SchemaError(Exception):
    """Inputs that parse individually but disagree with each other or the flags."""


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


def _write_to(path: str | None, write: Callable[[IO[str]], None], default=None) -> None:
    if path is None:
        if default is None:
            return
        write(default)
        return
    if path == "-":
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as out:
        write(out)


def _stem(path: str) -> str:
    return "stdin" if path == "-" else Path(path).stem


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


def _load_occupancy(args) -> tuple[prefixes.PrefixTable, IngestStats]:
    """Aggregate the scan file(s) named on the command line, sharded then merged."""
    total = IngestStats()
    tables = []
    for path in args.scan:
        table, stats = _read_table(path, _aggregate_scan, args)
        tables.append(table)
        total.merge(stats)
    return reduce(prefixes.merge, tables), total


def _record(obj, drop: Sequence[str] = (), **render: Callable) -> dict:
    """A dataclass as a report dict: its fields in declaration order except
    those in drop, each passed through the render function named after it."""
    doc = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in drop}
    doc.update((name, fn(doc[name])) for name, fn in render.items())
    return doc


def _check_results_port(results: applayer.AppResults, args, name: str) -> None:
    meta = results.meta
    if meta is not None and meta != ScanMeta(args.proto, args.port):
        raise SchemaError(
            f"port/proto mismatch: {meta.protocol}/{meta.port} ({name}) vs "
            f"{args.proto}/{args.port} (flags)"
        )


def _write_stats(stats, args) -> None:
    writer = (
        prefixes.write_prefix_stats_jsonl
        if args.output_format == "jsonl"
        else prefixes.write_prefix_stats_csv
    )
    _write_to(args.output, lambda out: writer(stats, out), default=sys.stdout)


# --- subcommands -----------------------------------------------------------


def _cmd_detect(args) -> int:
    table, ingest_stats = _load_occupancy(args)
    stats = prefixes.classify(table, args.threshold)
    _write_stats(stats, args)
    summary = {
        "files": len(args.scan),
        **_record(ingest_stats),
        "distinct_addresses": table.total_addresses(),
        "prefixes": len(table),
        "hrp_prefixes": len(prefixes.hrp_set(stats)),
        "hrp_address_share": prefixes.hrp_address_share(stats),
    }
    _write_to(args.summary, lambda out: write_json_report(summary, out), default=sys.stderr)
    return EXIT_OK


def _cmd_enrich(args) -> int:
    stats = _read_table(args.stats, prefixes.read_prefix_stats)
    table = _read_table(args.routes, routing.load_route_table, args.policy)
    enriched = routing.enrich(stats, table)
    _write_stats(enriched, args)
    split = table.split_slash24s()
    load = table.load_stats
    summary = {
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
    _write_to(args.summary, lambda out: write_json_report(summary, out), default=sys.stderr)
    return EXIT_OK


def _cmd_portmatrix(args) -> int:
    scans = [_read_table(p, prefixes.read_prefix_stats) for p in args.stats]
    report = analytics.port_profile(scans)
    ports = sorted(scan.meta for scan in scans if scan.meta is not None)
    doc = {
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
    if args.as_summary is not None:
        rows = routing.as_summary(scans)
        as_doc = [_record(row) for row in rows]
        _write_to(args.as_summary, lambda out: write_json_report(as_doc, out))
    if args.histogram_csv is not None:
        _write_to(args.histogram_csv, lambda out: analytics.write_port_histogram_csv(report, out))
    if args.profiles_csv is not None:
        _write_to(args.profiles_csv, lambda out: analytics.write_port_profiles_csv(report, out))
    _write_to(args.output, lambda out: write_json_report(doc, out), default=sys.stdout)
    return EXIT_OK


def _series_labels(args) -> list[tuple[str, datetime]]:
    scan_ids = args.scan_ids.split(",") if args.scan_ids else [_stem(p) for p in args.stats]
    if len(scan_ids) != len(args.stats):
        raise SchemaError(f"--scan-ids names {len(scan_ids)} scans but {len(args.stats)} files given")
    if args.timestamps:
        stamps = [_timestamp(t) for t in args.timestamps.split(",")]
        if len(stamps) != len(args.stats):
            raise SchemaError(
                f"--timestamps names {len(stamps)} scans but {len(args.stats)} files given"
            )
    else:
        # Argument order is the series order when no explicit timestamps come in.
        stamps = [EPOCH + timedelta(days=i) for i in range(len(args.stats))]
    return list(zip(scan_ids, stamps))


def _timestamp(text: str) -> datetime:
    try:
        return parse_timestamp(text)
    except (ValueError, OverflowError) as exc:  # OverflowError: a time whose UTC form leaves the calendar
        raise SchemaError(f"--timestamps entry {text!r}: {exc}") from None


def _cmd_stability(args) -> int:
    labels = _series_labels(args)
    scans = [_read_table(p, prefixes.read_prefix_stats) for p in args.stats]
    meta = analytics.series_meta(scans, args.stats)
    points = analytics.stability_series(scans, labels)
    summary = analytics.persistence(scans, args.persistence_n)
    doc = {
        "proto": meta.protocol if meta else None,
        "port": meta.port if meta else None,
        "series": [_record(p, timestamp=format_timestamp) for p in points],
        "persistence": _record(summary, drop=("scans_classified",)),
    }
    if args.series_csv is not None:
        _write_to(args.series_csv, lambda out: analytics.write_series_csv(points, out))
    _write_to(args.output, lambda out: write_json_report(doc, out), default=sys.stdout)
    return EXIT_OK


def _cmd_vantage(args) -> int:
    stats_a = _read_table(args.stats_a, prefixes.read_prefix_stats)
    stats_b = _read_table(args.stats_b, prefixes.read_prefix_stats)
    meta = analytics.series_meta([stats_a, stats_b], [args.stats_a, args.stats_b])
    diff = analytics.vantage_diff(prefixes.hrp_set(stats_a), prefixes.hrp_set(stats_b))
    doc = {
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
    _write_to(args.output, lambda out: write_json_report(doc, out), default=sys.stdout)
    return EXIT_OK


def _cmd_applayer(args) -> int:
    occupancy, _ = _load_occupancy(args)
    stats = prefixes.classify(occupancy, args.threshold)
    hrps = prefixes.hrp_set(stats)
    results = _read_table(args.results, applayer.read_app_results)
    _check_results_port(results, args, args.results)
    report_set = applayer.hrp_app_report(results, hrps, occupancy, args.exclude_app_errors)
    cdf = applayer.success_cdf(report_set.reports)
    steps = sorted({r.success_count for r in report_set.reports})
    doc = {
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
    _write_to(args.output, lambda out: write_json_report(doc, out), default=sys.stdout)
    return EXIT_OK


def _cmd_plan(args) -> int:
    occupancy, _ = _load_occupancy(args)
    stats = prefixes.classify(occupancy, args.threshold)
    hrps = prefixes.hrp_set(stats)
    seeds = [] if args.seeds is None else _read_table(args.seeds, planner.read_dns_seeds)
    policy = planner.SamplePolicy(
        k=args.k, rng_seed=args.rng_seed, include_unresponsive_seeds=not args.no_unresponsive_seeds
    )
    plan = planner.build_plan(occupancy, hrps, seeds, policy)
    _write_to(args.output, lambda out: planner.write_plan_csv(plan, out), default=sys.stdout)
    if args.targets_out is not None:
        _write_to(args.targets_out, lambda out: planner.write_plan_targets(plan, out))
    summary = {
        "proto": args.proto,
        "port": args.port,
        "threshold_fraction": args.threshold.fraction,
        "k": policy.k,
        "rng_seed": policy.rng_seed,
        "hrp_prefixes": len(hrps),
        "dns_seeds": len(seeds),
        **planner.plan_summary(plan),
    }
    _write_to(args.summary, lambda out: write_json_report(summary, out), default=sys.stderr)
    return EXIT_OK


def _cmd_escalate(args) -> int:
    plan = _read_table(args.plan, planner.read_plan_csv)
    results = _read_table(args.results, applayer.read_app_results)
    _check_results_port(results, args, args.results)
    occupancy, _ = _load_occupancy(args)
    policy = planner.SamplePolicy(
        proxy_max_success=args.proxy_max_success, cdn_min_success=args.cdn_min_success
    )
    sampled = {
        address
        for entry in plan.entries.values()
        if entry.strategy == planner.STRATEGY_SAMPLED
        for address in entry.addresses
    }
    rows_by_prefix: dict[int, list[int]] = {}
    seen: set[int] = set()
    off_plan = 0
    for row, target in enumerate(results.targets):
        if target not in sampled:  # outside every sampled prefix, or never planned there
            off_plan += 1
        elif target not in seen:  # the first row per target counts, as in applayer
            seen.add(target)
            rows_by_prefix.setdefault(target >> 8, []).append(row)
    classes = {
        prefix: planner.classify_sample(results.select(rows), policy)
        for prefix, rows in sorted(rows_by_prefix.items())
    }
    escalated = planner.escalate(plan, classes, occupancy)
    _write_to(args.output, lambda out: planner.write_plan_csv(escalated, out), default=sys.stdout)
    class_counts = {name: 0 for name in planner.SCENARIOS}
    for scenario in classes.values():
        class_counts[scenario] += 1
    summary = {
        "classified_prefixes": len(classes),
        "scenario_counts": class_counts,
        "off_plan_results": off_plan,
        "added_targets": escalated.total_targets() - plan.total_targets(),
        **planner.plan_summary(escalated),
    }
    _write_to(args.summary, lambda out: write_json_report(summary, out), default=sys.stderr)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    plan = _read_table(args.plan, planner.read_plan_csv)
    truth = _read_table(args.truth, applayer.read_app_results)
    metrics = planner.evaluate_plan(plan, truth)
    _write_to(args.output, lambda out: write_json_report(_record(metrics), out), default=sys.stdout)
    return EXIT_OK


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
    p.add_argument("scan", nargs=1, help="port scan result file")
    p.add_argument("seeds", nargs="?", default=None, help="DNS seeds CSV: ip,name_count")
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
        return args.func(args)
    except IngestError as exc:  # RouteParseError included
        print(f"hrpkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SchemaError, PlanEvaluationError, ValueError) as exc:
        print(f"hrpkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"hrpkit {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
