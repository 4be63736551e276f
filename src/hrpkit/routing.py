"""Routing-table snapshots and origin-AS enrichment.

The snapshot format is one ``prefix/length,asn`` entry per line with ``#``
comments, e.g. a flattened RouteViews RIB. It is read a block of lines at a
time, like the scans (see :func:`hrpkit.ingest.table_runs`). A table holds one
``{network: asn}`` map per length; a lookup is a longest-prefix match over those
maps, walked from the most specific length present down to a default route, and
gives a ``(network, length, origin ASN)`` tuple. Tables are not changed after
they are built, so concurrent lookups need no locking.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from itertools import chain, count
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from .ingest import (LENIENT, STRICT, IngestError, Record, ScanMeta, asn_values, cidr_values, parse_asn, parse_cidr,
                     table_runs)
from .prefixes import PrefixStats

# MASKS[length] keeps the top `length` bits of a 32-bit address.
MASKS = tuple(((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF) if length else 0 for length in range(33))


class RouteParseError(IngestError):
    """A snapshot line could not be used (raised under strict policy)."""


class RouteLoadStats(Record):
    """Accounting for one snapshot load (lenient mode keeps going and counts).

    Every line read is loaded, a comment, invalid, a conflict or a repeat.
    """

    def __init__(self, lines_read: int = 0, entries_loaded: int = 0, comment_lines: int = 0,
                 invalid_lines: int = 0, normalized_lines: int = 0, duplicate_conflicts: int = 0,
                 duplicate_repeats: int = 0):
        self.lines_read = lines_read
        self.entries_loaded = entries_loaded
        self.comment_lines = comment_lines
        self.invalid_lines = invalid_lines
        self.normalized_lines = normalized_lines  # host bits were set and got cleared
        self.duplicate_conflicts = duplicate_conflicts  # same (network, length), different ASN; first kept
        self.duplicate_repeats = duplicate_repeats  # exact repeats of an existing entry


class RoutingTable:
    """Longest-prefix-match table over routes: ``routes`` maps each length to
    ``{network: origin ASN}``, networks normalized.

    At most one entry exists per (network, length); the default route
    0.0.0.0/0 is accepted and matches anything not otherwise covered.
    """

    def __init__(self, routes: dict[int, dict[int, int]] | None = None, load_stats: RouteLoadStats | None = None):
        self.routes = {} if routes is None else routes
        # (length, mask, {network: asn}) per length present, most specific first.
        self._levels = tuple((n, MASKS[n], nets) for n, nets in sorted(self.routes.items(), reverse=True))
        self.load_stats = RouteLoadStats() if load_stats is None else load_stats

    def __len__(self) -> int:
        return sum(len(nets) for nets in self.routes.values())

    def lookup(self, addr: int) -> tuple[int, int, int] | None:
        """(network, length, origin ASN) of the longest covering entry, or None."""
        for length, mask, nets in self._levels:
            asn = nets.get(addr & mask)
            if asn is not None:
                return addr & mask, length, asn
        return None

    def split_slash24s(self) -> frozenset[int]:
        """/24 networks that contain routes more specific than /24.

        A classified /24 whose network falls in this set is ambiguous: parts
        of it are routed separately from the entry its network address hits.
        """
        split = set()
        for length, nets in self.routes.items():
            if length > 24:
                split.update(network >> 8 for network in nets)
        return frozenset(split)


def load_route_table(lines: Iterable[str] | IO[str] | IO[bytes], policy: str = LENIENT,
                     rest: Callable[[RouteLoadStats], tuple] | None = None) -> RoutingTable:
    """Load a snapshot; strict raises on the first bad line, lenient counts.

    Each line is ``a.b.c.d/length,asn`` (canonical length 0-32, ASCII-digit
    ASN up to 4294967295, whitespace allowed around both fields). Lenient
    normalizes entries with host bits set and keeps the first ASN for
    conflicting duplicates. Blank lines count as comments. A plainly written
    block of lines is parsed in columns, any other a line at a time; either
    way each entry is checked and inserted in file order.

    With ``rest``, the lines end at a line break and the snapshot's later
    lines were parsed elsewhere: ``rest(stats)`` adds their comment and
    invalid lines to the load stats and gives them as one more run (see
    ``table_runs``), whose texts are empty as theirs are not here. Their
    entries are inserted after the lines' own.
    """
    if policy not in (STRICT, LENIENT):
        raise ValueError(f"unknown policy: {policy!r}")
    strict = policy == STRICT
    by_length: list[dict[int, int]] = [{} for _ in MASKS]  # {network: asn} per length
    stats = RouteLoadStats()
    runs = table_runs(iter(lines), 2, 1, _route_columns)
    for first, run, columns in runs if rest is None else chain(runs, map(rest, [stats])):  # rest() once they are loaded
        stats.lines_read += len(run)
        entries = zip(count(first), *columns) if columns else _parse_routes(enumerate(run, first), strict, stats)
        for line_number, network, length, asn in entries:
            masked = network & MASKS[length]
            if masked != network:
                if strict:
                    line = run[line_number - first].strip()
                    raise RouteParseError(f"host bits set in prefix: {line!r}", line_number)
                stats.normalized_lines += 1
                network = masked
            nets = by_length[length]
            existing = nets.get(network)
            if existing is None:
                nets[network] = asn
            elif existing == asn:
                stats.duplicate_repeats += 1
            elif strict:
                line = run[line_number - first].strip()
                message = f"conflicting origin for {line!r}: AS{existing} already loaded"
                raise RouteParseError(message, line_number)
            else:
                stats.duplicate_conflicts += 1
    stats.entries_loaded = sum(map(len, by_length))
    return RoutingTable({length: nets for length, nets in enumerate(by_length) if nets}, stats)


def _route_columns(fields: list[list[str]]) -> tuple[array, list[int], list[int]] | None:
    """The networks, lengths and ASNs of route and ASN texts, or None unless parse_cidr and
    parse_asn take each."""
    routes, asns = fields
    values = asn_values(asns)
    cidrs = None if values is None else cidr_values(routes)
    return None if cidrs is None else (*cidrs, values)


def _parse_routes(
    numbered: Iterable[tuple[int, str]], strict: bool, stats: RouteLoadStats
) -> Iterator[tuple[int, int, int, int]]:
    """(line number, network, length, ASN) of each route line, counting comment and invalid lines."""
    for line_number, line in numbered:
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            stats.comment_lines += 1
            continue
        try:
            route_text, asn_text = stripped.split(",")
            network, length = parse_cidr(route_text.rstrip())  # TypeError on None
            asn = parse_asn(asn_text.lstrip())
        except (TypeError, ValueError):
            if strict:
                raise RouteParseError(f"invalid route line: {stripped!r}", line_number) from None
            stats.invalid_lines += 1
            continue
        yield line_number, network, length, asn


def enrich(stats: PrefixStats, table: RoutingTable) -> PrefixStats:
    """Attach origin ASN and covering route to each row via LPM.

    The lookup key is the /24's network address; rows without a covering
    entry keep the values they had. Counts and thresholds are never touched.
    """
    hits = [table.lookup(prefix << 8) for prefix in stats.prefixes]
    return PrefixStats(
        stats.meta, stats.prefixes, stats.counts, stats.thresholds,
        [asn if hit is None else hit[2] for asn, hit in zip(stats.origin_asns, hits)],
        [route if hit is None else hit[:2] for route, hit in zip(stats.covering_routes, hits)],
    )


class AsSummary(NamedTuple):
    """How strongly one origin AS is filled with highly responsive prefixes.

    Prefix counts are over distinct /24s across all supplied scans: a /24
    visible on several ports counts once, and counts as HRP if any port
    classified it so.
    """

    asn: int
    visible_24s: int
    hrp_count: int
    hrp_share: float
    ports_visible: int
    ports_with_hrps: int


def as_summary(scans: Iterable[PrefixStats]) -> list[AsSummary]:
    """Per-AS rollup of enriched scans, ordered by HRP count descending."""
    visible: dict[int, set[int]] = defaultdict(set)
    hrps: dict[int, set[int]] = defaultdict(set)
    ports: dict[int, set[ScanMeta]] = defaultdict(set)
    hrp_ports: dict[int, set[ScanMeta]] = defaultdict(set)
    for scan in scans:
        for prefix, asn, is_hrp in zip(scan.prefixes, scan.origin_asns, scan.is_hrp):
            if asn is None:
                continue
            visible[asn].add(prefix)
            ports[asn].add(scan.meta)
            if is_hrp:
                hrps[asn].add(prefix)
                hrp_ports[asn].add(scan.meta)
    summaries = [
        AsSummary(
            asn=asn,
            visible_24s=len(visible[asn]),
            hrp_count=len(hrps[asn]),
            hrp_share=len(hrps[asn]) / len(visible[asn]),
            ports_visible=len(ports[asn]),
            ports_with_hrps=len(hrp_ports[asn]),
        )
        for asn in visible
    ]
    summaries.sort(key=lambda row: (-row.hrp_count, row.asn))
    return summaries
