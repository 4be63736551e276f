"""In-process tracing of hrpkit's public module functions.

A traced pass calls ``hrpkit.cli.main`` inside the benchmark's process with
every public module function the CLI reaches swapped for a wrapper that
records a span: name, start, end and the span that was open when it was
called. Nothing inside ``src/`` changes; the wrappers sit at the module
boundary, where the CLI looks the functions up. Spans stay in memory and
become per-layer metrics when the pass ends.

A layer's self time is its spans' durations minus the part their child
spans cover, so the self times of all spans add up to the pass's total.
Counts are recorded from the same calls' results, where the work happens.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Iterator

# Span names of the layers, in pipeline order; each gives a `<name>_s` metric.
LAYER_SPANS = (
    "ingest.parse",
    "prefixes.aggregate",
    "prefixes.merge",
    "prefixes.classify",
    "prefixes.write_stats",
    "prefixes.expand",
    "prefixes.read_stats",
    "routing.load",
    "routing.enrich",
    "routing.as_summary",
    "analytics.port_profile",
    "analytics.stability",
    "analytics.persistence",
    "analytics.vantage",
    "applayer.read_results",
    "applayer.report",
    "applayer.compare",
    "planner.read_seeds",
    "planner.build",
    "planner.write_csv",
    "planner.read_csv",
    "planner.classify_sample",
    "planner.escalate",
    "planner.evaluate",
    "fmt.render_json",
)

# Counts reported as metrics of their own.
COUNTS = (
    "ingest.lines_read",
    "ingest.invalid_lines",
    "ingest.comment_lines",
    "planner.targets",
    "planner.escalated_targets",
)

# rate metric -> (count, span): work done per second of the span's self time.
RATES = {
    "ingest.lines_per_s": ("ingest.lines_read", "ingest.parse"),
    "prefixes.read_stats_rows_per_s": ("prefixes.read_stats_rows", "prefixes.read_stats"),
    "routing.load_lines_per_s": ("routing.load_lines", "routing.load"),
    "routing.lookups_per_s": ("routing.lookups", "routing.enrich"),
    "applayer.read_rows_per_s": ("applayer.read_rows", "applayer.read_results"),
    "planner.targets_per_s": ("planner.targets", "planner.build"),
}

# Spans of a pass's commands; their self time is the CLI glue no layer span covers.
COMMAND_PREFIX = "command."


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = [name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def command(self) -> str | None:
        """Name of the outermost open span: the command being traced."""
        return self.spans[self._open[0]][0] if self._open else None

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def names(self) -> set[str]:
        return {record[0] for record in self.spans}

    def total(self) -> float:
        """Duration of the top-level spans: the traced commands."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        times: dict[str, float] = {}
        for (name, start, end, _), cover in zip(self.spans, covered):
            times[name] = times.get(name, 0.0) + (end - start - cover)
        return times

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer span, counts, rates, total and unattributed remainder.

        A layer absent from the pass reads 0.
        """
        self_times = self.self_times()
        metrics: dict[str, float] = {f"{name}_s": self_times.get(name, 0.0) for name in LAYER_SPANS}
        for rate, (count, span) in RATES.items():
            busy = self_times.get(span, 0.0)
            metrics[rate] = self.counts.get(count, 0) / busy if busy > 0 else 0.0
        metrics.update({name: self.counts.get(name, 0) for name in COUNTS})
        metrics["trace.total_s"] = self.total()
        metrics["trace.remainder_s"] = sum(
            t for name, t in self_times.items() if name.startswith(COMMAND_PREFIX)
        )
        return metrics


def _wrap(tracer: Tracer, name: str, fn: Callable, count: tuple[str, Callable] | None = None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if count is not None:
            counter, measure = count
            tracer.count(counter, measure(result))
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Swap hrpkit's public functions for span-recording wrappers, then restore them."""
    from hrpkit import analytics, applayer, cli, fmt, planner, prefixes, routing

    real_open = cli.open_scan_source
    real_write_json = cli.write_json_report

    def open_scan_source(source, fmt, policy):
        # Materialized, so parsing is timed apart from the aggregation that consumes it.
        with tracer.span("ingest.parse"):
            addresses, stats = real_open(source, fmt, policy)
            addresses = list(addresses)
        tracer.count("ingest.lines_read", stats.lines_read)
        tracer.count("ingest.invalid_lines", stats.invalid_lines)
        tracer.count("ingest.comment_lines", stats.comment_lines)
        return iter(addresses), stats

    def write_json_report(obj, out):
        # Only the applayer report's rendering is timed, not other reports or the write.
        if tracer.command() != COMMAND_PREFIX + "applayer":
            return real_write_json(obj, out)
        with tracer.span("fmt.render_json"):
            text = fmt.render_json(obj)
        out.write(text)
        out.write("\n")

    def wrap(owner, attr, name, count=None):
        return owner, attr, _wrap(tracer, name, getattr(owner, attr), count)

    swaps = [
        (cli, "open_scan_source", open_scan_source),
        (cli, "write_json_report", write_json_report),
        wrap(prefixes, "aggregate", "prefixes.aggregate"),
        wrap(prefixes, "merge", "prefixes.merge"),
        wrap(prefixes, "classify", "prefixes.classify"),
        wrap(prefixes, "write_prefix_stats_csv", "prefixes.write_stats"),
        wrap(prefixes.PrefixTable, "addresses", "prefixes.expand"),
        wrap(prefixes, "read_prefix_stats", "prefixes.read_stats", ("prefixes.read_stats_rows", len)),
        wrap(routing, "load_route_table", "routing.load",
             ("routing.load_lines", lambda table: table.load_stats.lines_read)),
        wrap(routing, "enrich", "routing.enrich", ("routing.lookups", len)),
        wrap(routing, "as_summary", "routing.as_summary"),
        wrap(analytics, "port_profile", "analytics.port_profile"),
        wrap(analytics, "stability_series", "analytics.stability"),
        wrap(analytics, "persistence", "analytics.persistence"),
        wrap(analytics, "vantage_diff", "analytics.vantage"),
        wrap(applayer, "read_app_results", "applayer.read_results", ("applayer.read_rows", len)),
        wrap(applayer, "hrp_app_report", "applayer.report"),
        wrap(applayer, "address_comparison", "applayer.compare"),
        wrap(planner, "read_dns_seeds", "planner.read_seeds"),
        wrap(planner, "build_plan", "planner.build",
             ("planner.targets", lambda plan: plan.total_targets())),
        wrap(planner, "write_plan_csv", "planner.write_csv"),
        wrap(planner, "write_plan_targets", "planner.write_csv"),
        wrap(planner, "read_plan_csv", "planner.read_csv"),
        wrap(planner, "classify_sample", "planner.classify_sample"),
        wrap(planner, "escalate", "planner.escalate",
             ("planner.escalated_targets", lambda plan: plan.total_targets())),
        wrap(planner, "evaluate_plan", "planner.evaluate"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in swaps]
    try:
        for owner, attr, fn in swaps:
            setattr(owner, attr, fn)
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
