"""Cross-port profiles, stability series, persistence, vantage diffing."""

from __future__ import annotations

import io
import random
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from math import ceil
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from hrpkit.analytics import (
    PersistenceSummary,
    PortProfile,
    PortProfileReport,
    StabilityPoint,
    persistence,
    port_profile,
    stability_series,
    vantage_diff,
    write_series_csv,
)
from hrpkit.applayer import SUCCESS, UNREACHABLE, AppResult, hrp_app_report, single_identifier, success_cdf
from hrpkit.planner import CDN_LIKE, SamplePolicy, classify_sample
from hrpkit.prefixes import HrpThreshold, ResponsivenessHistogram, classify, responsiveness_histogram

from conftest import EPOCH, make_meta, rows, table_with_counts


def _scan(counts: dict[int, int], port=443):
    return classify(table_with_counts(counts, make_meta(port=port)))


def _weeks(n: int, first: int = 0) -> list[tuple[str, datetime]]:
    return [(f"w{week}", EPOCH + timedelta(weeks=week)) for week in range(first, first + n)]


def test_port_profile_counts():
    scans = [
        _scan({1: 10, 2: 256}, port=80),
        _scan({1: 256, 2: 256}, port=443),
    ]
    report = port_profile(scans)
    by_prefix = {p.prefix: p for p in report.profiles}
    assert (by_prefix[1].ports_responsive, by_prefix[1].ports_hrp) == (2, 1)
    assert (by_prefix[2].ports_responsive, by_prefix[2].ports_hrp) == (2, 2)


def test_port_profile_hrp_on_all_supplied_ports():
    ports = [80, 443, 8080, 8443, 25]
    scans = [_scan({7: 256}, port=port) for port in ports]
    report = port_profile(scans)
    (profile,) = report.profiles
    assert (profile.ports_responsive, profile.ports_hrp) == (5, 5)


def test_port_profile_histogram_planted_single_port_share():
    # 40 HRP prefixes; half are HRPs on exactly one port, half on both ports.
    port_80 = {p: 256 for p in range(40)}
    port_443 = {p: 256 for p in range(20)}
    port_443.update({p: 10 for p in range(20, 40)})
    report = port_profile([_scan(port_80, port=80), _scan(port_443, port=443)])
    hrp_prefixes = sum(report.hrp_histogram.values())
    assert hrp_prefixes == 40
    assert report.hrp_histogram[1] / hrp_prefixes == 0.5
    assert report.hrp_histogram[2] / hrp_prefixes == 0.5


def test_port_profile_rejects_duplicate_ports():
    with pytest.raises(ValueError, match="duplicate"):
        port_profile([_scan({1: 5}, port=443), _scan({2: 5}, port=443)])


def test_stability_identical_scans_give_identical_shares():
    counts = {1: 256, 2: 100}
    points = stability_series([_scan(counts), _scan(counts)], _weeks(2))
    assert len(points) == 2
    assert points[0].hrp_address_share_90 == points[1].hrp_address_share_90
    assert points[0].hrp_address_share_95 == points[1].hrp_address_share_95
    assert points[0].hrp_count == points[1].hrp_count == 1


def test_stability_no_hrps_gives_zero_shares():
    (point,) = stability_series([_scan({1: 10, 2: 30})], _weeks(1))
    assert point.hrp_address_share_90 == 0.0
    assert point.hrp_address_share_95 == 0.0
    assert point.hrp_count == 0


def test_stability_empty_scan_is_a_zero_point():
    empty = _scan({})
    assert empty.meta is None  # so it takes no part in port/proto agreement
    points = stability_series([empty, _scan({1: 256}, port=80), empty], _weeks(3))
    assert [(p.hrp_address_share_90, p.hrp_address_share_95, p.hrp_count) for p in points] == [
        (0.0, 0.0, 0), (1.0, 1.0, 1), (0.0, 0.0, 0)]
    assert persistence([empty, _scan({1: 256}, port=80), empty]).total_scans == 3


def test_stability_flat_planted_series():
    # Per scan: 3 full /24s (768 addresses) + 256 prefixes of 7 (1792) -> share 0.30.
    counts = {p: 256 for p in range(3)}
    counts.update({100 + p: 7 for p in range(256)})
    points = stability_series([_scan(counts) for _ in range(10)], _weeks(10))
    assert [p.hrp_address_share_90 for p in points] == [768 / 2560] * 10
    assert [p.hrp_address_share_95 for p in points] == [768 / 2560] * 10


def test_stability_share95_never_exceeds_share90():
    rng = random.Random(8)
    for week in range(20):
        counts = {p: rng.choice([1, 50, 231, 240, 244, 256]) for p in range(30)}
        (point,) = stability_series([_scan(counts)], _weeks(1, week))
        assert point.hrp_address_share_95 <= point.hrp_address_share_90


def test_stability_rejects_unordered_timestamps():
    scans = [_scan({1: 5}), _scan({1: 5})]
    labels = [("late", EPOCH + timedelta(weeks=3)), ("early", EPOCH + timedelta(weeks=1))]
    with pytest.raises(ValueError, match="ascending"):
        stability_series(scans, labels)


def test_stability_rejects_an_empty_scan_id():
    with pytest.raises(ValueError, match="scan_id must be non-empty"):
        stability_series([_scan({1: 5})], [("", EPOCH)])


@pytest.mark.parametrize("scan_id", ["w,0", "w\n0", "w\r0", ","])
def test_stability_rejects_a_scan_id_the_series_csv_cannot_carry(scan_id):
    with pytest.raises(ValueError, match="holds a comma or line break") as info:
        stability_series([_scan({1: 5})], [(scan_id, EPOCH)])
    assert repr(scan_id) in str(info.value)


def test_stability_labels_normalize_to_utc():
    plus_two = timezone(timedelta(hours=2))
    labels = [("a", datetime(2022, 8, 1, 12, 0, tzinfo=plus_two)), ("b", datetime(2022, 8, 1, 11, 0))]
    points = stability_series([_scan({1: 5}), _scan({1: 5})], labels)
    assert [p.timestamp for p in points] == [
        datetime(2022, 8, 1, 10, 0, tzinfo=timezone.utc),
        datetime(2022, 8, 1, 11, 0, tzinfo=timezone.utc),
    ]
    assert all(p.timestamp.tzinfo == timezone.utc for p in points)
    out = io.StringIO()
    write_series_csv(points, out)
    assert [row.split(",")[:2] for row in out.getvalue().splitlines()[1:]] == [
        ["a", "2022-08-01T10:00:00Z"],
        ["b", "2022-08-01T11:00:00Z"],
    ]


def test_stability_rejects_port_mismatch():
    scans = [_scan({1: 5}, port=443), _scan({1: 5}, port=80)]
    with pytest.raises(ValueError, match="mismatch"):
        stability_series(scans, _weeks(2))


def test_persistence_counts():
    # Prefix 1 is an HRP in scans 0..6 (7 of 10), prefix 2 in all 10.
    scans = []
    for week in range(10):
        counts = {2: 256}
        counts[1] = 256 if week < 7 else 10
        scans.append(_scan(counts))
    summary = persistence(scans, missing_at_most_n=5)
    assert summary.total_scans == 10
    assert summary.distinct_hrps == 2
    assert summary.scans_classified == {1: 7, 2: 10}
    assert summary.half_period_count == 2
    assert summary.full_period_count == 1
    assert summary.missing_at_most_n_count == 2
    assert summary.missing_at_most_n_share == 1.0


def test_persistence_excludes_prefixes_missing_too_often():
    scans = []
    for week in range(10):
        counts = {1: 256 if week < 4 else 10, 2: 256}
        scans.append(_scan(counts))
    summary = persistence(scans, missing_at_most_n=5)
    assert summary.scans_classified[1] == 4
    assert summary.missing_at_most_n_count == 1  # prefix 1 misses 6 > 5
    assert summary.half_period_count == 1
    assert summary.missing_at_most_n_share == 0.5


def test_persistence_is_order_insensitive():
    rng = random.Random(13)
    memberships = [{1: 256, 2: 256}, {1: 256, 2: 10}, {2: 256, 3: 256}, {1: 256}]
    baseline = persistence([_scan(m) for m in memberships])
    for _ in range(5):
        shuffled = memberships[:]
        rng.shuffle(shuffled)
        again = persistence([_scan(m) for m in shuffled])
        assert again.scans_classified == baseline.scans_classified
        assert again.half_period_count == baseline.half_period_count
        assert again.missing_at_most_n_share == baseline.missing_at_most_n_share


def test_persistence_needs_two_scans():
    with pytest.raises(ValueError):
        persistence([_scan({1: 256})])


def test_vantage_diff_identical_and_disjoint():
    assert vantage_diff({1, 2}, {1, 2}).divergence == 0.0
    disjoint = vantage_diff({1, 2}, {3, 4})
    assert disjoint.divergence == 1.0
    assert disjoint.both == frozenset()


def test_vantage_diff_small_divergence():
    shared = set(range(99))
    diff = vantage_diff(shared | {1000}, shared | {2000})
    assert diff.only_a == {1000}
    assert diff.only_b == {2000}
    assert diff.divergence == 2 / 101


def test_vantage_diff_empty_sets():
    assert vantage_diff(set(), set()).divergence == 0.0


def test_vantage_diff_mirrors():
    rng = random.Random(4)
    for _ in range(20):
        a = {rng.randrange(100) for _ in range(rng.randrange(0, 30))}
        b = {rng.randrange(100) for _ in range(rng.randrange(0, 30))}
        ab = vantage_diff(a, b)
        ba = vantage_diff(b, a)
        assert ab.only_a == ba.only_b
        assert ab.only_b == ba.only_a
        assert ab.both == ba.both
        assert ab.divergence == ba.divergence
        assert not (ab.only_a & ab.only_b) and not (ab.only_a & ab.both) and not (ab.only_b & ab.both)


# --- each measure equals a per-row loop that computes it directly ---------------------


def _reference_port_profile(scans) -> PortProfileReport:
    responsive: dict[int, int] = defaultdict(int)
    hrp: dict[int, int] = defaultdict(int)
    for scan in scans:
        for s in rows(scan):
            responsive[s.prefix] += 1
            if s.is_hrp:
                hrp[s.prefix] += 1
    profiles = [
        PortProfile(prefix, responsive[prefix], hrp.get(prefix, 0)) for prefix in sorted(responsive)
    ]
    return PortProfileReport(
        port_count=len(scans),
        profiles=profiles,
        responsive_histogram=dict(sorted(Counter(p.ports_responsive for p in profiles).items())),
        hrp_histogram=dict(sorted(Counter(p.ports_hrp for p in profiles if p.ports_hrp).items())),
    )


def _reference_stability_series(scans, labels) -> list[StabilityPoint]:
    t90 = HrpThreshold(0.90)
    t95 = HrpThreshold(0.95)
    points = []
    for (scan_id, timestamp), scan in zip(labels, map(rows, scans)):
        total = sum(s.responsive_count for s in scan)
        addrs_90 = sum(s.responsive_count for s in scan if s.responsive_count >= t90.min_count)
        addrs_95 = sum(s.responsive_count for s in scan if s.responsive_count >= t95.min_count)
        points.append(
            StabilityPoint(
                scan_id=scan_id,
                timestamp=timestamp,
                hrp_address_share_90=addrs_90 / total if total else 0.0,
                hrp_address_share_95=addrs_95 / total if total else 0.0,
                hrp_count=sum(1 for s in scan if s.responsive_count >= t90.min_count),
            )
        )
    return points


def _reference_persistence(scans, missing_at_most_n: int) -> PersistenceSummary:
    total = len(scans)
    classified: Counter[int] = Counter()
    for scan in scans:
        for s in rows(scan):
            if s.is_hrp:
                classified[s.prefix] += 1
    half = ceil(total / 2)
    missing_ok = sum(1 for n in classified.values() if total - n <= missing_at_most_n)
    return PersistenceSummary(
        total_scans=total,
        distinct_hrps=len(classified),
        scans_classified=dict(sorted(classified.items())),
        half_period_count=sum(1 for n in classified.values() if n >= half),
        full_period_count=sum(1 for n in classified.values() if n == total),
        missing_at_most_n=missing_at_most_n,
        missing_at_most_n_count=missing_ok,
        missing_at_most_n_share=missing_ok / len(classified) if classified else 0.0,
    )


def _reference_histogram(stats) -> ResponsivenessHistogram:
    prefix_count = [0] * 257
    for s in rows(stats):
        prefix_count[s.responsive_count] += 1
    address_count = [c * n for c, n in enumerate(prefix_count)]
    total_prefixes = sum(prefix_count)
    total_addresses = sum(address_count)
    cumulative_prefix_share = [0.0] * 257
    cumulative_address_share = [0.0] * 257
    running_prefixes = 0
    running_addresses = 0
    for c in range(257):
        running_prefixes += prefix_count[c]
        running_addresses += address_count[c]
        if total_prefixes:
            cumulative_prefix_share[c] = running_prefixes / total_prefixes
        if total_addresses:
            cumulative_address_share[c] = running_addresses / total_addresses
    return ResponsivenessHistogram(
        prefix_count, address_count, cumulative_prefix_share, cumulative_address_share,
        total_prefixes, total_addresses,
    )


def _reference_success_cdf(success_counts: list[int]) -> tuple[int, tuple[float, ...]]:
    counts = Counter(success_counts)
    total = sum(counts.values())
    cumulative = []
    running = 0
    for c in range(257):
        running += counts.get(c, 0)
        cumulative.append(running / total if total else 0.0)
    return total, tuple(cumulative)


def _reference_report_same_identifier(successes: list[str | None]) -> bool:
    """hrp_app_report's rule over one HRP's success identifiers."""
    identifiers = [i for i in successes if i is not None]
    return len(successes) > 0 and len(identifiers) == len(successes) and len(set(identifiers)) == 1


def _reference_sample_same_identifier(successes: list[str | None]) -> bool:
    """classify_sample's cdn_like rule over a sample's success identifiers."""
    identifiers = set(successes)
    return None not in identifiers and len(identifiers) == 1


_EDGE_COUNTS = st.sampled_from([1, 230, 231, 243, 244, 255, 256])  # around the 0.90 and 0.95 cuts
_SCAN_COUNTS = st.dictionaries(st.integers(0, 40), _EDGE_COUNTS | st.integers(1, 256), max_size=12)


@given(
    scans=st.lists(st.tuples(_SCAN_COUNTS, st.sampled_from([0.5, 0.9, 0.95, 1.0])), min_size=2, max_size=6),
    missing_at_most_n=st.integers(0, 6),
    success_counts=st.lists(_EDGE_COUNTS | st.integers(0, 256), max_size=10),
    identifiers=st.lists(st.sampled_from([None, "certA", "certB"]), max_size=6),
)
def test_measures_match_their_per_row_references(scans, missing_at_most_n, success_counts, identifiers):
    """Exact equality, floats included, over scans with one row per /24 (some empty) classified
    at several thresholds, and identifiers that mix None, one value and several."""
    series = [classify(table_with_counts(counts), HrpThreshold(fraction)) for counts, fraction in scans]
    by_port = [classify(table_with_counts(counts, make_meta(port=port)), HrpThreshold(fraction))
               for port, (counts, fraction) in enumerate(scans)]
    labels = _weeks(len(series))
    assert port_profile(by_port) == _reference_port_profile(by_port)
    assert stability_series(series, labels) == _reference_stability_series(series, labels)
    assert persistence(series, missing_at_most_n) == _reference_persistence(series, missing_at_most_n)
    for scan in series:
        assert responsiveness_histogram(scan) == _reference_histogram(scan)
    cdf = success_cdf([SimpleNamespace(success_count=c) for c in success_counts])
    assert (cdf.total_reports, cdf.cumulative) == _reference_success_cdf(success_counts)

    same = _reference_report_same_identifier(identifiers)
    assert single_identifier(identifiers) == same == _reference_sample_same_identifier(identifiers)
    meta = make_meta()
    results = [AppResult(7 << 8 | host, meta, SUCCESS, i) for host, i in enumerate(identifiers)]
    (report,) = hrp_app_report(results, {7}, table_with_counts({7: 256})).reports
    assert report.same_identifier == same
    sample = results or [AppResult(7 << 8, meta, UNREACHABLE)]
    assert (classify_sample(sample, SamplePolicy()) == CDN_LIKE) == same
