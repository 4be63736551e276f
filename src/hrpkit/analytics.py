"""Cross-port, temporal, and vantage-point analysis of classified scans.

All functions are pure over immutable inputs. A "classified scan" is the
PrefixStats table of one scan, possibly empty (then its meta is None). The
port profile takes one table per (protocol, port); a series takes only what
it reads of each scan: its responsiveness_histogram for the stability series
(each scan's label and time come from the caller, strictly ascending at whole
seconds), its HRP prefixes for persistence and its meta for series_meta.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime
from itertools import chain
from math import ceil
from typing import IO, Iterable, NamedTuple, Sequence

from .fmt import fmt_real
from .ingest import ScanMeta, format_timestamp, to_utc
from .prefixes import HrpThreshold, PrefixStats, ResponsivenessHistogram, format_slash24, hrp_set


class PortProfile(NamedTuple):
    """How many of the supplied ports a /24 answers on, and is an HRP on."""

    prefix: int
    ports_responsive: int
    ports_hrp: int


class PortProfileReport(NamedTuple):
    """Per-prefix port profiles plus bucket histograms over both counts.

    responsive_histogram buckets all visible prefixes by ports_responsive;
    hrp_histogram buckets prefixes that are an HRP somewhere by ports_hrp.
    The supplied port list is the universe.
    """

    port_count: int
    profiles: list[PortProfile]
    responsive_histogram: dict[int, int]
    hrp_histogram: dict[int, int]


class StabilityPoint(NamedTuple):
    """HRP weight of one scan at the 0.90 and 0.95 cuts.

    hrp_count is the number of prefixes at the 0.90 cut.
    """

    scan_id: str
    timestamp: datetime
    hrp_address_share_90: float
    hrp_address_share_95: float
    hrp_count: int


class PersistenceSummary(NamedTuple):
    """How consistently prefixes keep their HRP classification over a series.

    half_period_count uses an inclusive ceil(total/2) reading of "at least
    half"; full_period_count requires every scan, and both are reported
    because "consistently" admits either.
    """

    total_scans: int
    distinct_hrps: int
    half_period_count: int
    full_period_count: int
    missing_at_most_n: int
    missing_at_most_n_count: int
    missing_at_most_n_share: float


class VantageDiff(NamedTuple):
    """Set difference of two vantage points' HRP sets for one port."""

    only_a: frozenset[int]
    only_b: frozenset[int]
    both: frozenset[int]
    divergence: float


def port_profile(scans: Sequence[PrefixStats], names: Sequence[str] = ()) -> PortProfileReport:
    """Profile prefixes across one scan per port.

    A prefix is responsive on a port when visible there (count >= 1) and an HRP on a port when
    that scan classified it so. Two scans of one port raise ValueError naming both, as series_meta.
    """
    names, first = _names(names, len(scans)), {}
    for i, meta in enumerate(scan.meta for scan in scans):
        if meta is not None and first.setdefault(meta, i) != i:
            raise ValueError(f"duplicate port/proto {meta.protocol}/{meta.port}: {names[first[meta]]} and {names[i]}")
    responsive = Counter(chain.from_iterable(scan.prefixes for scan in scans))
    hrp = Counter(chain.from_iterable(map(hrp_set, scans)))
    profiles = [PortProfile(prefix, responsive[prefix], hrp.get(prefix, 0)) for prefix in sorted(responsive)]
    responsive_histogram = dict(sorted(Counter(p.ports_responsive for p in profiles).items()))
    hrp_histogram = dict(sorted(Counter(p.ports_hrp for p in profiles if p.ports_hrp).items()))
    return PortProfileReport(
        port_count=len(scans),
        profiles=profiles,
        responsive_histogram=responsive_histogram,
        hrp_histogram=hrp_histogram,
    )


def stability_series(
    histograms: Sequence[ResponsivenessHistogram], labels: Sequence[tuple[str, datetime]]
) -> list[StabilityPoint]:
    """HRP address share per scan, recomputed from its histogram at both the 0.90 and 0.95 cuts.

    labels gives each scan's (scan_id, timestamp): ids non-empty and without
    commas or line breaks, times normalized to UTC, a naive time taken as
    UTC, and strictly ascending at whole seconds, the precision the series
    is written at.
    An empty scan is a point with both shares and hrp_count zero.
    """
    if len(labels) != len(histograms):
        raise ValueError(f"{len(labels)} labels for {len(histograms)} scans")
    utc_labels = [(scan_id, to_utc(timestamp)) for scan_id, timestamp in labels]
    if any(not scan_id for scan_id, _ in utc_labels):
        raise ValueError("scan_id must be non-empty")
    for scan_id, _ in utc_labels:
        if any(c in scan_id for c in ",\r\n"):  # the series CSV writes ids unquoted
            raise ValueError(f"scan_id {scan_id!r} holds a comma or line break")
    for (earlier_id, earlier), (later_id, later) in zip(utc_labels, utc_labels[1:]):
        if later.replace(microsecond=0) <= earlier.replace(microsecond=0):
            raise ValueError(
                f"scan timestamps must be strictly ascending at whole seconds: "
                f"{later_id} ({format_timestamp(later)}) after {earlier_id} ({format_timestamp(earlier)})"
            )
    cut_90 = HrpThreshold(0.90).min_count
    cut_95 = HrpThreshold(0.95).min_count
    points = []
    for (scan_id, timestamp), histogram in zip(utc_labels, histograms):
        total = histogram.total_addresses
        points.append(
            StabilityPoint(
                scan_id=scan_id,
                timestamp=timestamp,
                hrp_address_share_90=sum(histogram.address_count[cut_90:]) / total if total else 0.0,
                hrp_address_share_95=sum(histogram.address_count[cut_95:]) / total if total else 0.0,
                hrp_count=sum(histogram.prefix_count[cut_90:]),
            )
        )
    return points


def persistence(hrp_sets: Sequence[Iterable[int]], missing_at_most_n: int = 5) -> PersistenceSummary:
    """Per-prefix persistence of the HRP classification over a series of scans' HRP prefixes."""
    if len(hrp_sets) < 2:
        raise ValueError("persistence needs at least two scans")
    if missing_at_most_n < 0:
        raise ValueError("missing_at_most_n must be non-negative")
    total = len(hrp_sets)
    classified = Counter(chain.from_iterable(hrp_sets))
    half = ceil(total / 2)
    missing_ok = sum(1 for n in classified.values() if total - n <= missing_at_most_n)
    return PersistenceSummary(
        total_scans=total,
        distinct_hrps=len(classified),
        half_period_count=sum(1 for n in classified.values() if n >= half),
        full_period_count=sum(1 for n in classified.values() if n == total),
        missing_at_most_n=missing_at_most_n,
        missing_at_most_n_count=missing_ok,
        missing_at_most_n_share=missing_ok / len(classified) if classified else 0.0,
    )


def vantage_diff(a: Iterable[int], b: Iterable[int]) -> VantageDiff:
    """Partition two HRP sets and their divergence (symmetric diff / union)."""
    set_a = frozenset(a)
    set_b = frozenset(b)
    union = set_a | set_b
    only_a = set_a - set_b
    only_b = set_b - set_a
    return VantageDiff(
        only_a=only_a,
        only_b=only_b,
        both=set_a & set_b,
        divergence=(len(only_a) + len(only_b)) / len(union) if union else 0.0,
    )


def _names(names: Sequence[str], count: int) -> Sequence[str]:
    if names and len(names) != count:  # names are one per scan, or else each scan is named by its position
        raise ValueError(f"{len(names)} names for {count} scans")
    return names or [f"scan {i}" for i in range(count)]


def series_meta(metas: Sequence[ScanMeta | None], names: Sequence[str] = ()) -> ScanMeta | None:
    """The meta the non-empty scans share, from one meta per scan (None if empty), or None.

    A mismatch raises ValueError naming both scans, by names or else by position;
    so do names that are not one per scan.
    """
    if not metas:
        raise ValueError("no scans supplied")
    first_name, first = None, None
    for name, meta in zip(_names(names, len(metas)), metas):
        if first is None:
            first_name, first = name, meta
        elif meta is not None and meta != first:
            raise ValueError(
                f"port/proto mismatch: {first.protocol}/{first.port} ({first_name}) "
                f"vs {meta.protocol}/{meta.port} ({name})"
            )
    return first


def write_series_csv(points: Iterable[StabilityPoint], out: IO[str]) -> None:
    """One row per stability point."""
    out.write("scan_id,timestamp,hrp_address_share_90,hrp_address_share_95,hrp_count\n")
    for p in points:
        out.write(
            f"{p.scan_id},{format_timestamp(p.timestamp)},"
            f"{fmt_real(p.hrp_address_share_90)},{fmt_real(p.hrp_address_share_95)},{p.hrp_count}\n"
        )


def write_port_histogram_csv(report: PortProfileReport, out: IO[str]) -> None:
    """One row per port-count bucket, responsive and HRP prefix counts side by side."""
    out.write("ports,responsive_prefixes,hrp_prefixes\n")
    buckets = sorted(set(report.responsive_histogram) | set(report.hrp_histogram))
    for bucket in buckets:
        out.write(
            f"{bucket},{report.responsive_histogram.get(bucket, 0)},{report.hrp_histogram.get(bucket, 0)}\n"
        )


def write_port_profiles_csv(report: PortProfileReport, out: IO[str]) -> None:
    """One row per visible prefix."""
    out.write("prefix,ports_responsive,ports_hrp\n")
    for p in report.profiles:
        out.write(f"{format_slash24(p.prefix)},{p.ports_responsive},{p.ports_hrp}\n")
