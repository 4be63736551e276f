"""Application-layer joins: per-HRP reports, address comparison, success CDF."""

from __future__ import annotations

import io
import random
from array import array
from collections import Counter, defaultdict
from typing import NamedTuple

import pytest
from hypothesis import example, given, strategies as st

from hrpkit import applayer
from hrpkit.applayer import (
    APP_ERROR,
    STATUSES,
    SUCCESS,
    UNREACHABLE,
    AddressComparison,
    AppResults,
    HrpAppReport,
    address_comparison,
    hrp_app_report,
    read_app_results,
    success_cdf,
)

from hrpkit.ingest import format_ipv4
from hrpkit.planner import SamplePolicy, classify_sample
from hrpkit.prefixes import PrefixTable

from conftest import make_meta, results_of, table_with_counts

META = make_meta()


class Result(NamedTuple):
    """One results row of the META scan."""

    target: int
    status: str
    identifier: str | None = None


def _result(addr: int, status: str = SUCCESS, identifier: str | None = None) -> Result:
    return Result(addr, status, identifier)


def _results_for(prefix: int, n_success: int, identifiers, n_fail: int = 0, fail=UNREACHABLE):
    """Successes on the first hosts of the prefix, failures right after."""
    results = []
    for host in range(n_success):
        ident = identifiers(host) if callable(identifiers) else identifiers
        results.append(_result((prefix << 8) | host, SUCCESS, ident))
    for host in range(n_success, n_success + n_fail):
        results.append(_result((prefix << 8) | host, fail))
    return results


def _rejection(row: str) -> str:
    """The error that reading a results table whose third line is ``row`` raises."""
    lines = ["ip,port,proto,status,identifier\n", "1.2.3.3,443,tcp,success,h1\n", row + "\n"]
    with pytest.raises(ValueError) as error:
        read_app_results(lines)
    return str(error.value)


def test_identifier_requires_success():
    assert _rejection("1.2.3.4,443,tcp,unreachable,h1") == "line 3: identifier is only valid on success results"
    assert _rejection("1.2.3.4,443,tcp,timeout,") == (
        "line 3: status must be one of ('success', 'app_error', 'unreachable'), got 'timeout'"
    )
    assert _rejection("1.2.3.4,443,tcp,success,a\rb") == (
        "line 3: identifier must be non-empty text without surrounding whitespace, commas, line breaks "
        "or U+FFFD, got 'a\\rb'"
    )


def _row_record_error(status: str, identifier: str | None) -> str | None:
    """The error the results row record raised on a row, checked in its order, or None."""
    if status not in STATUSES:
        return f"status must be one of {STATUSES}, got {status!r}"
    if identifier is not None and status != SUCCESS:
        return "identifier is only valid on success results"
    if identifier is not None and (
        not identifier or identifier != identifier.strip() or any(c in identifier for c in ",\r\n\ufffd")
    ):
        return (
            f"identifier must be non-empty text without surrounding whitespace, commas, line breaks "
            f"or U+FFFD, got {identifier!r}"
        )
    return None


@given(
    st.sampled_from([*STATUSES, "timeout", "Success"]),
    st.sampled_from(["", "x", "sha256:aa", " x", "x ", " ", "\t", "a\rb", "a\tb", "a b"]),
)
def test_read_app_results_checks_each_row_as_the_row_record_did(status, identifier):
    row = f"1.2.3.4,443,tcp,{status},{identifier}"
    identifier = identifier.strip() or identifier or None  # the reader strips around a field
    error = _row_record_error(status, identifier)
    if error is not None:
        assert _rejection(row) == f"line 3: {error}"
    else:
        table = read_app_results(["ip,port,proto,status,identifier\n", "1.2.3.3,443,tcp,success,h1\n", row + "\n"])
        assert table == results_of([(0x01020303, SUCCESS, "h1"), (0x01020304, status, identifier)])


def test_results_are_one_table_without_a_row_api():
    assert not hasattr(applayer, "AppResult") and not hasattr(applayer, "write_app_results_csv")
    assert not hasattr(AppResults, "of")
    with pytest.raises(TypeError):
        iter(results_of([(1, SUCCESS, "x")]))


@pytest.mark.parametrize("targets, statuses, identifiers, message", [
    ([1, 2, 3], bytes([0]), [None, None, None], "unequal length"),  # classify_sample took it as diverse
    ([1, 2], bytes([0, 0]), ["x"], "unequal length"),
    ([1], bytes([7]), [None], "status codes must be below 3, got 7"),  # classify_sample took it as proxy
    ([1, 2], bytes([0, len(STATUSES)]), ["x", None], "status codes must be below 3, got 3"),
], ids=["3 targets 1 status", "2 targets 1 identifier", "status code 7", "status code 3"])
def test_results_table_checks_its_columns(targets, statuses, identifiers, message):
    with pytest.raises(ValueError, match=message):
        classify_sample(AppResults(META, array("I", targets), statuses, identifiers), SamplePolicy())
    valid = AppResults(META, array("I", [1, 2]), bytes([0, len(STATUSES) - 1]), ["x", None])
    assert valid.select([1, 0, 1]).statuses == bytes([2, 0, 2])


def test_results_of_builds_the_table_the_reader_builds():
    header = "ip,port,proto,status,identifier\n"
    assert results_of([]) == read_app_results([header]) == AppResults(None, array("I"), b"", [])
    rows = [header, "0.0.0.1,443,tcp,success,x\n", "0.0.0.2,443,tcp,app_error,\n", "0.0.0.1,443,tcp,unreachable,\n"]
    assert results_of([(1, SUCCESS, "x"), (2, APP_ERROR, None), (1, UNREACHABLE, None)]) == read_app_results(rows)


def test_report_high_success_single_identifier():
    occupancy = table_with_counts({5: 256})
    results = _results_for(5, 250, "h1", n_fail=6)
    report_set = hrp_app_report(results_of(results), {5}, occupancy)
    (report,) = report_set.reports
    assert report.denominator == 256
    assert report.success_count == 250
    assert report.success_fraction == 250 / 256
    assert report.any_success and report.gt90_success and report.same_identifier
    assert report.dominant_identifier_share == 1.0


def test_report_no_successes():
    occupancy = table_with_counts({5: 240})
    results = _results_for(5, 0, None, n_fail=240)
    (report,) = hrp_app_report(results_of(results), {5}, occupancy).reports
    assert not report.any_success
    assert report.success_count == 0
    assert report.dominant_identifier_share == 0.0


def test_report_gt90_boundary_is_exact():
    occupancy = table_with_counts({5: 256})
    results = _results_for(5, 231, lambda host: "h1" if host % 2 else "h2")
    (report,) = hrp_app_report(results_of(results), {5}, occupancy).reports
    # Oracle: cross multiplication, 231/256 > 9/10 iff 2310 > 2304.
    assert (231 * 10 > 256 * 9) is True
    assert report.gt90_success is True
    assert report.same_identifier is False
    # And one fewer success falls below the cut: 2300 < 2304.
    fewer = _results_for(5, 230, "h1")
    (report_230,) = hrp_app_report(results_of(fewer), {5}, occupancy).reports
    assert report_230.gt90_success is False


def test_success_without_identifier_breaks_same_identifier():
    occupancy = table_with_counts({5: 4})
    results = [
        _result((5 << 8) | 0, SUCCESS, "h1"),
        _result((5 << 8) | 1, SUCCESS, "h1"),
        _result((5 << 8) | 2, SUCCESS, None),
    ]
    (report,) = hrp_app_report(results_of(results), {5}, occupancy).reports
    assert report.same_identifier is False
    assert report.dominant_identifier_share == 2 / 3


def test_same_identifier_is_permutation_invariant():
    rng = random.Random(55)
    occupancy = table_with_counts({5: 16})
    results = _results_for(5, 10, "h1", n_fail=2)
    baseline = hrp_app_report(results_of(results), {5}, occupancy).reports
    for _ in range(5):
        shuffled = results[:]
        rng.shuffle(shuffled)
        assert hrp_app_report(results_of(shuffled), {5}, occupancy).reports == baseline


def test_hrps_without_results_still_reported():
    occupancy = table_with_counts({5: 256, 6: 256})
    report_set = hrp_app_report(results_of(_results_for(5, 3, "h1")), {5, 6}, occupancy)
    assert [r.prefix for r in report_set.reports] == [5, 6]
    assert report_set.reports[1].success_count == 0


def test_anomalous_and_duplicate_results_are_counted():
    occupancy = table_with_counts({5: 10})  # hosts 0..9 responsive
    results = [
        _result((5 << 8) | 1, SUCCESS, "h1"),
        _result((5 << 8) | 1, SUCCESS, "h2"),  # duplicate target, first kept
        _result((5 << 8) | 200, SUCCESS, "h3"),  # no occupancy bit
        _result((5 << 8) | 200, SUCCESS, "h3"),  # no occupancy bit again: an anomaly, not a duplicate
    ]
    report_set = hrp_app_report(results_of(results), {5}, occupancy)
    assert report_set.duplicate_count == 1
    assert report_set.anomaly_count == 2
    (report,) = report_set.reports
    assert report.success_count == 1
    assert report.same_identifier is True  # the h2 row was a duplicate


def test_report_rejects_port_mismatch_and_missing_hrp():
    occupancy = table_with_counts({5: 10})
    other_port = results_of([(5 << 8, SUCCESS, "x")], make_meta(port=80))
    with pytest.raises(ValueError, match="port/proto"):
        hrp_app_report(other_port, {5}, occupancy)
    with pytest.raises(ValueError, match="missing"):
        hrp_app_report(results_of([]), {5, 77}, occupancy)


def test_address_comparison_rates():
    # 100 non-HRP targets with 89 successes, plus one HRP fully succeeding.
    counts = {p: 1 for p in range(100)}
    counts[1000] = 256
    occupancy = table_with_counts(counts)
    results = [_result(p << 8, SUCCESS if p < 89 else UNREACHABLE) for p in range(100)]
    results += _results_for(1000, 256, "h1")
    comparison = address_comparison(results_of(results), {1000}, occupancy)
    assert comparison.non_hrp_success_rate == 0.89
    assert comparison.hrp_success_rate == 1.0
    assert comparison.gt90_subset_share == 1.0
    assert comparison.non_hrp_targets + comparison.hrp_targets == len(results)


def test_address_comparison_planted_gt90_identifier_share():
    # 25 HRPs, each 256 responsive with 250 successes (gt90). 23 prefixes
    # serve one identifier; 2 serve mixed identifiers.
    counts = {p: 256 for p in range(25)}
    occupancy = table_with_counts(counts)
    results = []
    for p in range(23):
        results += _results_for(p, 250, f"id{p}", n_fail=6)
    for p in range(23, 25):
        results += _results_for(p, 250, lambda host: f"mix{host % 5}", n_fail=6)
    comparison = address_comparison(results_of(results), set(range(25)), occupancy)
    # Oracle: 23*250 single-identifier successes of 25*250 gt90 successes.
    assert comparison.gt90_subset_share == 1.0
    assert comparison.gt90_same_identifier_share == (23 * 250) / (25 * 250)
    assert comparison.gt90_same_identifier_share == 0.92


def test_address_comparison_empty_partition_is_undefined():
    occupancy = table_with_counts({5: 256})
    results = _results_for(5, 10, "h1")
    comparison = address_comparison(results_of(results), {5}, occupancy)
    assert comparison.non_hrp_success_rate is None
    assert comparison.hrp_success_rate == 1.0
    no_hrp_successes = address_comparison(results_of(_results_for(5, 0, None, n_fail=5)), {5}, occupancy)
    assert no_hrp_successes.hrp_success_rate == 0.0
    assert no_hrp_successes.gt90_subset_share is None
    assert no_hrp_successes.gt90_same_identifier_share is None


def test_app_error_counts_as_failure():
    occupancy = table_with_counts({5: 10})
    results = _results_for(5, 5, "h1", n_fail=5, fail=APP_ERROR)
    (report,) = hrp_app_report(results_of(results), {5}, occupancy).reports
    assert report.success_count == 5
    assert report.success_fraction == 0.5


def test_app_errors_can_be_disregarded():
    # 5 successes, 3 SNI-style errors, 2 silent: excluding errors shrinks the
    # denominator to 7 and flips nothing else.
    occupancy = table_with_counts({5: 10})
    results = _results_for(5, 5, "h1", n_fail=3, fail=APP_ERROR)
    (report,) = hrp_app_report(results_of(results), {5}, occupancy, exclude_app_errors=True).reports
    assert report.denominator == 7
    assert report.success_fraction == 5 / 7
    assert report.gt90_success is False
    all_errors = _results_for(5, 0, None, n_fail=10, fail=APP_ERROR)
    (dark,) = hrp_app_report(results_of(all_errors), {5}, occupancy, exclude_app_errors=True).reports
    assert dark.denominator == 0
    assert dark.success_fraction == 0.0
    assert dark.gt90_success is False


def test_success_cdf_all_zero():
    occupancy = table_with_counts({p: 256 for p in range(4)})
    reports = hrp_app_report(results_of([]), set(range(4)), occupancy).reports
    cdf = success_cdf(reports)
    assert cdf.at(0) == 1.0
    assert cdf.at(256) == 1.0


def test_success_cdf_uniform_three_levels():
    counts = {0: 256, 1: 256, 2: 256}
    occupancy = table_with_counts(counts)
    results = _results_for(1, 128, "a") + _results_for(2, 256, "b")
    reports = hrp_app_report(results_of(results), {0, 1, 2}, occupancy).reports
    cdf = success_cdf(reports)
    assert cdf.at(0) == 1 / 3
    assert cdf.at(128) == 2 / 3
    assert cdf.at(256) == 1.0
    assert cdf.at(127) == cdf.at(0)  # step function


def test_success_cdf_planted_twenty_percent_dark():
    counts = {p: 256 for p in range(10)}
    occupancy = table_with_counts(counts)
    results = []
    for p in range(2, 10):  # prefixes 0 and 1 stay dark
        results += _results_for(p, 200, "h")
    reports = hrp_app_report(results_of(results), set(range(10)), occupancy).reports
    cdf = success_cdf(reports)
    assert cdf.at(0) == 0.20
    values = [cdf.at(c) for c in range(257)]
    assert values == sorted(values)
    assert values[-1] == 1.0


def test_success_cdf_empty():
    cdf = success_cdf([])
    assert cdf.total_reports == 0
    assert cdf.at(0) == 0.0


def test_results_csv_roundtrip():
    text = (
        "ip,port,proto,status,identifier\n"
        "198.51.100.7,443,tcp,success,sha256:aa\n"
        "198.51.100.8,443,tcp,app_error,\n"
        "198.51.100.9,443,tcp,unreachable,\n"
    )
    table = read_app_results(io.StringIO(text))
    assert table == results_of([
        _result(0xC6336407, SUCCESS, "sha256:aa"),
        _result(0xC6336408, APP_ERROR),
        _result(0xC6336409, UNREACHABLE),
    ])
    rows = zip(map(format_ipv4, table.targets), table.statuses, table.identifiers)
    written = [f"{ip},443,tcp,{STATUSES[code]},{identifier or ''}\n" for ip, code, identifier in rows]
    assert "".join(["ip,port,proto,status,identifier\n", *written]) == text


# --- the one-pass join against the two-pass reference --------------------------


def _reference_report(results, hrps, occupancy, exclude_app_errors):
    """The first result per target and the per-HRP reports, one pass per call."""
    hrp_prefixes = sorted(set(hrps))
    by_target: dict[int, Result] = {}
    successes: dict[int, list[Result]] = defaultdict(list)
    app_errors: Counter[int] = Counter()
    duplicates = anomalies = 0
    for r in results:
        if r.target in by_target:
            duplicates += 1
        elif not occupancy.bitmaps.get(r.target >> 8, 0) >> (r.target & 0xFF) & 1:
            anomalies += 1
        else:
            by_target[r.target] = r
            if r.target >> 8 in hrp_prefixes and r.status == SUCCESS:
                successes[r.target >> 8].append(r)
            elif r.target >> 8 in hrp_prefixes and r.status == APP_ERROR:
                app_errors[r.target >> 8] += 1
    reports = []
    for prefix in hrp_prefixes:
        denominator = occupancy.count(prefix) - (app_errors[prefix] if exclude_app_errors else 0)
        success_count = len(successes[prefix])
        identifiers = [r.identifier for r in successes[prefix] if r.identifier is not None]
        dominant = max(Counter(identifiers).values()) if identifiers else 0
        reports.append(HrpAppReport(
            prefix=prefix,
            denominator=denominator,
            success_count=success_count,
            success_fraction=success_count / denominator if denominator else 0.0,
            any_success=success_count > 0,
            gt90_success=success_count * 10 > denominator * 9 if denominator else False,
            same_identifier=(
                success_count > 0 and len(identifiers) == success_count and len(set(identifiers)) == 1
            ),
            dominant_identifier_share=dominant / success_count if success_count else 0.0,
        ))
    return by_target, reports, anomalies, duplicates


def _reference_comparison(results, hrps, occupancy) -> AddressComparison:
    """The comparison from a second join, always over the default reports."""
    by_target, reports, _, _ = _reference_report(results, hrps, occupancy, False)
    hrp_set = {r.prefix for r in reports}
    hrp_targets = sum(1 for target in by_target if target >> 8 in hrp_set)
    successes = sum(1 for r in by_target.values() if r.status == SUCCESS)
    hrp_successes = sum(r.success_count for r in reports)
    gt90 = sum(r.success_count for r in reports if r.gt90_success)
    gt90_same_id = sum(r.success_count for r in reports if r.gt90_success and r.same_identifier)
    non_hrp_targets = len(by_target) - hrp_targets
    non_hrp_successes = successes - hrp_successes
    return AddressComparison(
        non_hrp_targets=non_hrp_targets,
        non_hrp_successes=non_hrp_successes,
        hrp_targets=hrp_targets,
        hrp_successes=hrp_successes,
        non_hrp_success_rate=non_hrp_successes / non_hrp_targets if non_hrp_targets else None,
        hrp_success_rate=hrp_successes / hrp_targets if hrp_targets else None,
        gt90_subset_share=gt90 / hrp_successes if hrp_successes else None,
        gt90_same_identifier_share=gt90_same_id / gt90 if gt90 else None,
    )


_IDENTIFIERS = (lambda host: "a", lambda host: "ab"[host % 2], lambda host: None if host == 0 else "a")


@st.composite
def _joins(draw):
    """Occupancy of /24s 5, 6 and 9, dense or cut short, and an HRP subset of them.
    Results probe those and the dark /24 7, in any order: mostly successes under
    one identifier, mixed ones or a missing one, with app errors, unreachable
    targets, repeated rows and rows where the scan saw nothing."""
    bitmaps = {}
    results = []
    for prefix in (5, 6, 7, 9):
        if prefix != 7:
            missing = draw(st.sets(st.integers(0, 255), max_size=30))
            bits = sum(1 << host for host in range(256) if host not in missing)
            if draw(st.booleans()):
                bits &= (1 << draw(st.integers(1, 256))) - 1
            if bits:
                bitmaps[prefix] = bits
        hosts = draw(st.permutations(range(256)))[: draw(st.integers(0, 256))]
        app_errors = draw(st.sets(st.integers(0, 255), max_size=30))
        unreachable = draw(st.sets(st.integers(0, 255), max_size=30))
        identifier_of = draw(st.sampled_from(_IDENTIFIERS))
        for host in hosts:
            target = prefix << 8 | host
            if host in app_errors:
                results.append(_result(target, APP_ERROR))
            elif host in unreachable:
                results.append(_result(target, UNREACHABLE))
            else:
                results.append(_result(target, SUCCESS, identifier_of(host)))
    if results:
        repeats = draw(st.lists(st.sampled_from(results), max_size=10))
        results += [_result(r.target, draw(st.sampled_from(STATUSES))) for r in repeats]
    results = draw(st.permutations(results))
    occupancy = PrefixTable(META, bitmaps)
    hrps = draw(st.sets(st.sampled_from(sorted(bitmaps)))) if bitmaps else set()
    return results, hrps, occupancy


# Hosts 0 and 255 of the lowest and highest /24s, occupied, then probed again, beside an unoccupied
# host and a dark /24: the ends of a kept-host bitmap.
_EDGE_OCCUPANCY = PrefixTable(META, {0: 1 << 255 | 1, 0xFFFFFF: 1 << 255 | 1})
_EDGE_RESULTS = [
    _result(0xFF, SUCCESS, "a"), _result(0, APP_ERROR), _result(0xFF, UNREACHABLE), _result(1, SUCCESS, "a"),
    _result(0xFFFFFF00, SUCCESS), _result(0xFFFFFFFF, SUCCESS, "b"), _result(0xFFFFFFFF, APP_ERROR),
    _result(0xFFFFFE00, SUCCESS, "a"), _result(0, SUCCESS, "a"),
]


@given(_joins(), st.booleans())
@example((_EDGE_RESULTS, {0}, _EDGE_OCCUPANCY), True)
@example((_EDGE_RESULTS, {0xFFFFFF}, _EDGE_OCCUPANCY), False)
@example((_EDGE_RESULTS, set(), _EDGE_OCCUPANCY), False)
@example((_EDGE_RESULTS[::-1], {0, 0xFFFFFF}, _EDGE_OCCUPANCY), True)
def test_one_pass_join_matches_the_two_pass_reference(join, exclude_app_errors):
    results, hrps, occupancy = join
    _, reports, anomalies, duplicates = _reference_report(results, hrps, occupancy, exclude_app_errors)
    report_set = hrp_app_report(results_of(results), hrps, occupancy, exclude_app_errors)
    assert report_set.reports == reports
    assert (report_set.anomaly_count, report_set.duplicate_count) == (anomalies, duplicates)
    assert report_set.comparison == _reference_comparison(results, hrps, occupancy)
    assert address_comparison(results_of(results), hrps, occupancy) == report_set.comparison
