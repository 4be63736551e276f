"""Shared builders for scan fixtures."""

from __future__ import annotations

from array import array
from datetime import datetime, timezone
from typing import NamedTuple

from hrpkit.ingest import ScanMeta
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
