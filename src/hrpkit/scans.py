"""The commands that read a port scan or a plan, detect, applayer, plan, escalate and evaluate, and
the readers they share: a scan's shards in groups read side by side by forked workers, and a second
input read here while a worker reads the scan or evaluate's plan. ``hrpkit.cli`` imports this module
only to run one of these commands, and it looks up the CLI's helpers, ``open_scan_source`` among them,
on ``hrpkit.cli`` at each call, so that a caller who swaps one there, as a tracer does, sees every call.
"""

from __future__ import annotations

import marshal
import os
import sys
from typing import Callable, Sequence

from . import cli, prefixes
from .ingest import IngestStats, ScanMeta


def _aggregate_scan(source, args) -> tuple[prefixes.PrefixTable, IngestStats]:
    addresses, stats = cli.open_scan_source(source, args.format, args.policy)
    return prefixes.aggregate(addresses, ScanMeta(args.proto, args.port)), stats


def _read_shards(paths: Sequence[str], args) -> tuple[prefixes.PrefixTable, IngestStats]:
    """Aggregate scan shards one after another, the serial loop: each shard's table is merged into
    the first one as soon as it is read, so at most two tables are held at once."""
    table, total = cli._read_table(paths[0], _aggregate_scan, args)
    for path in paths[1:]:
        shard, stats = cli._read_table(path, _aggregate_scan, args)
        prefixes.merge(table, shard)
        total.merge(stats)
    return table, total


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
            except cli._ERRORS as exc:
                reply = cli._kind(exc), str(exc)
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
            raise cli._ERRORS[kind].__new__(cli._ERRORS[kind], value)
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
    except cli._ERRORS:
        wait(kill=not there_first)  # there's error, if it has one and comes first, is the one raised
        raise
    finally:
        wait(kill=True)  # after an interrupt; once the worker is reaped, this does nothing
    return unpack(value), second


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
    metrics = planner.evaluate_plan(plan, truth)
    return cli._record(metrics)
