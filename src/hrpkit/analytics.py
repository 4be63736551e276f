"""Cross-port, temporal, and vantage-point analysis of classified scans.

All functions are pure over immutable inputs. A "classified scan" is the
PrefixStats table of one scan, possibly empty (then its meta is None); the
non-empty scans of a multi-scan input must agree on (protocol, port). A
stability series takes each scan's label and time from its caller, strictly
ascending in time at whole seconds. The series reads each scan's
responsiveness_histogram, and the port profile and persistence count each
scan's hrp_set.
"""

from __future__ import annotations

from collections import Counter
from datetime import datetime
from itertools import chain
from math import ceil
from typing import IO, Iterable, NamedTuple, Sequence

from .fmt import fmt_real
from .ingest import ScanMeta, format_timestamp, to_utc
from .prefixes import HrpThreshold, PrefixStats, format_slash24, hrp_set, responsiveness_histogram


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

    scans_classified maps each prefix that was ever an HRP to the number of
    scans that classified it so. half_period_count uses an inclusive
    ceil(total/2) reading of "at least half"; full_period_count requires
    every scan, and both are reported because "consistently" admits either.
    """

    total_scans: int
    distinct_hrps: int
    scans_classified: dict[int, int]
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


def port_profile(scans: Sequence[PrefixStats]) -> PortProfileReport:
    """Profile prefixes across one scan per port.

    A prefix is responsive on a port when visible there (count >= 1) and an
    HRP on a port when that scan classified it so.
    """
    metas = Counter(scan.meta for scan in scans if scan.meta is not None)
    duplicates = [(m.protocol, m.port) for m, n in metas.items() if n > 1]
    if duplicates:
        raise ValueError(f"duplicate (proto, port) in port profile input: {duplicates}")
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
    scans: Sequence[PrefixStats], labels: Sequence[tuple[str, datetime]]
) -> list[StabilityPoint]:
    """HRP address share per scan, recomputed at both the 0.90 and 0.95 cuts.

    labels gives each scan's (scan_id, timestamp): ids non-empty and without
    commas or line breaks, times normalized to UTC, a naive time taken as
    UTC, and strictly ascending at whole seconds, the precision the series
    is written at.
    An empty scan is a point with both shares and hrp_count zero.
    """
    series_meta(scans)
    if len(labels) != len(scans):
        raise ValueError(f"{len(labels)} labels for {len(scans)} scans")
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
    for (scan_id, timestamp), scan in zip(utc_labels, scans):
        histogram = responsiveness_histogram(scan)
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


def persistence(scans: Sequence[PrefixStats], missing_at_most_n: int = 5) -> PersistenceSummary:
    """Per-prefix persistence of the stored HRP classification over a series."""
    if len(scans) < 2:
        raise ValueError("persistence needs at least two scans")
    if missing_at_most_n < 0:
        raise ValueError("missing_at_most_n must be non-negative")
    series_meta(scans)
    total = len(scans)
    classified = Counter(chain.from_iterable(map(hrp_set, scans)))
    half = ceil(total / 2)
    scans_classified = dict(sorted(classified.items()))
    missing_ok = sum(1 for n in classified.values() if total - n <= missing_at_most_n)
    return PersistenceSummary(
        total_scans=total,
        distinct_hrps=len(classified),
        scans_classified=scans_classified,
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


def series_meta(scans: Sequence[PrefixStats], names: Sequence[str] = ()) -> ScanMeta | None:
    """The meta the non-empty scans share, or None if every scan is empty.

    A mismatch raises ValueError naming both scans, by names or else by position;
    so do names that are not one per scan.
    """
    if not scans:
        raise ValueError("no scans supplied")
    if names and len(names) != len(scans):
        raise ValueError(f"{len(names)} names for {len(scans)} scans")
    first_name, first = None, None
    for name, meta in zip(names or [f"scan {i}" for i in range(len(scans))], (scan.meta for scan in scans)):
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
