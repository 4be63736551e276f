"""Shared builders for scan fixtures."""

from __future__ import annotations

from datetime import datetime, timezone

from hrpkit.ingest import ScanMeta
from hrpkit.prefixes import PrefixTable, aggregate

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
