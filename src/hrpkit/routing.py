"""Routing-table snapshots and origin-AS enrichment.

The snapshot format is one ``prefix/length,asn`` entry per line with ``#``
comments, e.g. a flattened RouteViews RIB. Lookups are longest-prefix
match over per-length hash maps, walked from the most specific length
present down to a default route; tables are immutable after loading, so
concurrent lookups need no locking.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator

from .ingest import LENIENT, STRICT, IngestError, ScanMeta, iter_text_lines, parse_asn, parse_cidr
from .prefixes import PrefixStats

# MASKS[length] keeps the top `length` bits of a 32-bit address.
MASKS = tuple(((0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF) if length else 0 for length in range(33))


class RouteParseError(IngestError):
    """A snapshot line could not be used (raised under strict policy)."""


@dataclass(frozen=True)
class RouteEntry:
    """One announced route: normalized network value, length, origin ASN."""

    network: int
    length: int
    origin_asn: int


@dataclass
class RouteLoadStats:
    """Accounting for one snapshot load (lenient mode keeps going and counts).

    Every line read is loaded, a comment, invalid, a conflict or a repeat.
    """

    lines_read: int = 0
    entries_loaded: int = 0
    comment_lines: int = 0
    invalid_lines: int = 0
    normalized_lines: int = 0  # host bits were set and got cleared
    duplicate_conflicts: int = 0  # same (network, length), different ASN; first kept
    duplicate_repeats: int = 0  # exact repeats of an existing entry


class RoutingTable:
    """Longest-prefix-match table over route entries.

    At most one entry exists per (network, length); the default route
    0.0.0.0/0 is accepted and matches anything not otherwise covered.
    """

    def __init__(self):
        self._by_length: dict[int, dict[int, int]] = {}
        self._index()
        self.load_stats = RouteLoadStats()

    def _index(self) -> None:
        # (length, mask, {network: asn}) per length present, most specific first.
        self._levels = tuple((n, MASKS[n], nets) for n, nets in sorted(self._by_length.items(), reverse=True))

    def __len__(self) -> int:
        return sum(len(nets) for nets in self._by_length.values())

    def add(self, entry: RouteEntry) -> None:
        """Insert an entry; the network must be normalized and not yet present."""
        if entry.network & ~MASKS[entry.length] & 0xFFFFFFFF:
            raise ValueError(f"host bits set in {entry}")
        nets = self._by_length.get(entry.length)
        if nets is None:
            nets = self._by_length[entry.length] = {}
            self._index()
        if entry.network in nets:
            raise ValueError(f"duplicate route for length {entry.length}: {entry}")
        nets[entry.network] = entry.origin_asn

    def get(self, network: int, length: int) -> RouteEntry | None:
        asn = self._by_length.get(length, {}).get(network)
        return None if asn is None else RouteEntry(network, length, asn)

    def _match(self, addr: int) -> tuple[int, int, int] | None:
        """(network, length, origin ASN) of the longest covering entry, or None."""
        for length, mask, nets in self._levels:
            asn = nets.get(addr & mask)
            if asn is not None:
                return addr & mask, length, asn
        return None

    def lookup(self, addr: int) -> RouteEntry | None:
        """The covering entry of maximal length, or None."""
        hit = self._match(addr)
        return None if hit is None else RouteEntry(*hit)

    def entries(self) -> Iterator[RouteEntry]:
        """All entries, ascending (length, network)."""
        for length in sorted(self._by_length):
            for network in sorted(self._by_length[length]):
                yield RouteEntry(network, length, self._by_length[length][network])

    def split_slash24s(self) -> frozenset[int]:
        """/24 networks that contain routes more specific than /24.

        A classified /24 whose network falls in this set is ambiguous: parts
        of it are routed separately from the entry its network address hits.
        """
        split = set()
        for length, nets in self._by_length.items():
            if length > 24:
                split.update(network >> 8 for network in nets)
        return frozenset(split)


def load_route_table(lines: Iterable[str] | IO[str] | IO[bytes], policy: str = LENIENT) -> RoutingTable:
    """Load a snapshot; strict raises on the first bad line, lenient counts.

    Each line is ``a.b.c.d/length,asn`` (canonical length 0-32, ASCII-digit
    ASN up to 4294967295, whitespace allowed around both fields). Lenient
    normalizes entries with host bits set and keeps the first ASN for
    conflicting duplicates. Blank lines count as comments.
    """
    if policy not in (STRICT, LENIENT):
        raise ValueError(f"unknown policy: {policy!r}")
    by_length: list[dict[int, int]] = [{} for _ in MASKS]  # {network: asn} per length
    stats, line_number = RouteLoadStats(), 0
    for line_number, line in enumerate(iter_text_lines(lines), start=1):
        stripped = line.strip()
        if not stripped or stripped[0] == "#":
            stats.comment_lines += 1
            continue
        try:
            route_text, asn_text = stripped.split(",")
            network, length = parse_cidr(route_text.rstrip())  # TypeError on None
            asn = parse_asn(asn_text.lstrip())
        except (TypeError, ValueError):
            if policy == STRICT:
                raise RouteParseError(f"invalid route line: {stripped!r}", line_number) from None
            stats.invalid_lines += 1
            continue
        masked = network & MASKS[length]
        if masked != network:
            if policy == STRICT:
                raise RouteParseError(f"host bits set in prefix: {stripped!r}", line_number)
            stats.normalized_lines += 1
            network = masked
        nets = by_length[length]
        existing = nets.get(network)
        if existing is None:
            nets[network] = asn
        elif existing == asn:
            stats.duplicate_repeats += 1
        elif policy == STRICT:
            message = f"conflicting origin for {stripped!r}: AS{existing} already loaded"
            raise RouteParseError(message, line_number)
        else:
            stats.duplicate_conflicts += 1
    table = RoutingTable()
    table._by_length = {length: nets for length, nets in enumerate(by_length) if nets}
    table._index()
    stats.lines_read, stats.entries_loaded = line_number, len(table)
    table.load_stats = stats
    return table


def enrich(stats: PrefixStats, table: RoutingTable) -> PrefixStats:
    """Attach origin ASN and covering route to each row via LPM.

    The lookup key is the /24's network address; rows without a covering
    entry keep the values they had. Counts and thresholds are never touched.
    """
    hits = [table._match(prefix << 8) for prefix in stats.prefixes]
    return replace(
        stats,
        origin_asns=[asn if hit is None else hit[2] for asn, hit in zip(stats.origin_asns, hits)],
        covering_routes=[route if hit is None else hit[:2] for route, hit in zip(stats.covering_routes, hits)],
    )


@dataclass
class AsSummary:
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
