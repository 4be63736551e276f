"""The commands that read a port scan or a plan, detect, applayer, plan, escalate and evaluate, and
the readers they share: a scan's shards in groups read side by side by forked workers, and a second
input read here while a worker reads the scan or evaluate's plan. ``hrpkit.cli`` imports this module
only to run one of these commands, and it looks up the CLI's helpers, ``open_scan_source`` among them,
on ``hrpkit.cli`` at each call, so that a caller who swaps one there, as a tracer does, sees every call.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from . import cli, prefixes
from .ingest import IngestStats, ScanMeta


def _aggregate_scan(source, args) -> tuple[prefixes.PrefixTable, IngestStats]:
    addresses, stats = cli.open_scan_source(source, args.format, args.policy)
    return prefixes.aggregate(addresses, ScanMeta(args.proto, args.port)), stats


def _read_shards(paths: Sequence[str], args) -> tuple[dict[int, int], dict[str, int]]:
    """Aggregate scan shards one after another, the serial loop: each shard's table is merged into
    the first one as soon as it is read, so at most two tables are held at once. The table's bitmaps
    and the ingest counts are returned, as a worker sends them."""
    table, total = cli._read_table(paths[0], _aggregate_scan, args)
    for path in paths[1:]:
        shard, stats = cli._read_table(path, _aggregate_scan, args)
        prefixes.merge(table, shard)
        total.merge(stats)
    return table.bitmaps, vars(total)


def _load_occupancy(args) -> tuple[prefixes.PrefixTable, IngestStats]:
    """Aggregate the scan file(s) named on the command line, sharded then merged: in contiguous
    groups, the first read here and each other one by a forked worker if they may pay for it (see
    ``cli._fold``). The result and the error are the serial loop's, but as ``forks.fold`` says."""
    meta = ScanMeta(args.proto, args.port)

    def merge(value: tuple, reply: tuple) -> tuple:
        prefixes.merge(prefixes.PrefixTable(meta, value[0]), prefixes.PrefixTable(meta, reply[0]))
        return value[0], {name: count + reply[1][name] for name, count in value[1].items()}

    bitmaps, counts = cli._fold(args.scan, lambda group: _read_shards(group, args), merge)
    return prefixes.PrefixTable(meta, bitmaps), IngestStats(**counts)


def _beside(paths: Sequence[str], there: Callable, here: Callable, there_first: bool = True,
            pack: Callable = lambda value: value, unpack: Callable = lambda reply: reply) -> tuple:
    """``(there(), here())``, with the error the serial order raises first: there's, or here's if
    not there_first. With another usable CPU and one regular input file for there, larger than
    _FORK_MIN_BYTES, a forked worker replies ``pack(there())`` for ``unpack`` while here runs. Shards
    stay with _load_occupancy, whose own workers read them side by side."""
    if paths[1:] or "-" in paths or cli._small(paths) or not os.path.isfile(paths[0]) or _one_cpu():
        return (there(), here()) if there_first else (here(), there())[::-1]  # each pair is run left to right
    from .forks import _fork
    wait = _fork(lambda: pack(there()))
    try:
        second = here()
        value = wait()
    except cli._ERRORS:
        wait(kill=not there_first)  # there's error, if it has one and comes first, is the one raised
        raise
    finally:
        wait(kill=True)  # after an interrupt; once the worker is reaped, this does nothing
    return unpack(value), second


def _one_cpu() -> bool:
    from .forks import _usable_cpus
    return _usable_cpus() < 2


def _read_results(args):
    """The results file, whose port and protocol, if it names them, must be the flags'."""
    from .applayer import read_app_results

    results = cli._read_table(args.results, read_app_results)
    meta = results.meta
    if meta is not None and meta != ScanMeta(args.proto, args.port):
        raise ValueError(f"port/proto mismatch: {meta.protocol}/{meta.port} ({args.results}) vs "
                         f"{args.proto}/{args.port} (flags)")
    return results


# --- subcommands -----------------------------------------------------------


def _cmd_detect(args) -> dict:
    table, ingest_stats = _load_occupancy(args)
    stats = prefixes.classify(table, args.threshold)
    cli._write_stats(stats, args)
    return {
        "files": len(args.scan),
        **cli._record(ingest_stats),
        "distinct_addresses": table.total_addresses(),
        "prefixes": len(table),
        "hrp_prefixes": len(prefixes.hrp_set(stats)),
        "hrp_address_share": prefixes.hrp_address_share(stats),
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
        "reports": [cli._record(r, prefix=prefixes.format_slash24) for r in report_set.reports],
        "address_comparison": cli._record(report_set.comparison),
        "success_cdf": {
            "total_reports": cdf.total_reports,
            "steps": [{"success_count": c, "cumulative_share": cdf.at(c)} for c in steps],
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
    seeds = [] if args.seeds is None else cli._read_table(args.seeds, planner.read_dns_seeds)
    policy = planner.SamplePolicy(k=args.k, rng_seed=args.rng_seed,
                                  include_unresponsive_seeds=not args.no_unresponsive_seeds)
    plan = planner.build_plan(occupancy, hrps, seeds, policy)
    cli._write_to(args.output, lambda out: planner.write_plan_csv(plan, out), default="stdout")
    cli._write_to(args.targets_out, lambda out: planner.write_plan_targets(plan, out))
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
        lambda: (cli._read_table(args.plan, planner.read_plan_csv), _read_results(args)), False)
    occupancy = prefixes.PrefixTable(ScanMeta(args.proto, args.port), bitmaps)
    policy = planner.SamplePolicy(proxy_max_success=args.proxy_max_success, cdn_min_success=args.cdn_min_success)
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
    cli._write_to(args.output, lambda out: planner.write_plan_csv(escalated, out), default="stdout")
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
    plan, truth = _beside([args.plan], lambda: cli._read_table(args.plan, planner.read_plan_csv),
                          lambda: cli._read_table(args.truth, applayer.read_app_results), True,
                          lambda plan: [tuple(entry) for entry in plan.entries.values()],
                          lambda fields: planner.TargetPlan({f[0]: planner.PlanEntry(*f) for f in fields}))
    try:
        metrics = planner.evaluate_plan(plan, truth)
    except planner.PlanEvaluationError as exc:  # planned targets that the truth file lacks
        exc.args = (f"{args.truth}: {exc}",)
        raise
    return cli._record(metrics)
