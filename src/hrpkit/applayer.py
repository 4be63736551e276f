"""Joins of application-layer scan outcomes with HRP classifications.

Results arrive as one row per probed address with a status and, for
successes, an optional content identifier (certificate hash for TLS, body
hash for HTTP). The join is against the port scan's occupancy table: the
denominator for a prefix is its previously responsive address count, and
results aimed at addresses the port scan never saw are excluded and
counted as anomalies. Repeated rows for one address keep the first row.

A results file reads into an :class:`AppResults` table: one column each of
targets, status codes and identifiers, every row kept in file order, and
the joins read the columns.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter, defaultdict
from itertools import compress, repeat
from typing import Iterable, NamedTuple

from .ingest import Record, ScanMeta, block_meta, ipv4_column, read_csv
from .prefixes import SLASH24_SIZE, PrefixTable, cumulative_shares

SUCCESS = "success"
APP_ERROR = "app_error"
UNREACHABLE = "unreachable"
STATUSES = (SUCCESS, APP_ERROR, UNREACHABLE)
STATUS_CODES = {status: code for code, status in enumerate(STATUSES)}  # a status's code in AppResults
_SUCCESS, _APP_ERROR = STATUS_CODES[SUCCESS], STATUS_CODES[APP_ERROR]

APP_RESULT_COLUMNS = ("ip", "port", "proto", "status", "identifier")


class AppResults(Record):
    """Application-layer results of one scan as columns, one entry per results row in file
    order, repeats kept: targets as address ints, status codes (STATUS_CODES) and identifiers.
    meta is None only for a table without rows."""

    def __init__(self, meta: ScanMeta | None, targets: array, statuses: bytes, identifiers: list[str | None]):
        if not len(targets) == len(statuses) == len(identifiers):
            raise ValueError("columns of unequal length")
        if max(statuses, default=0) >= len(STATUSES):
            raise ValueError(f"status codes must be below {len(STATUSES)}, got {max(statuses)}")
        self.meta = meta
        self.targets = targets
        self.statuses = statuses
        self.identifiers = identifiers

    def __len__(self) -> int:
        return len(self.targets)

    def select(self, rows: Iterable[int]) -> AppResults:
        """The table of the given rows, in the given order."""
        rows = list(rows)
        return AppResults(
            self.meta,
            array("I", [self.targets[i] for i in rows]),
            bytes(self.statuses[i] for i in rows),
            [self.identifiers[i] for i in rows],
        )


class HrpAppReport(NamedTuple):
    """Application-layer outcome of one HRP.

    same_identifier is true only when every success carries an identifier
    and all of them are equal; dominant_identifier_share is the share of
    successes carrying the most common identifier (0 when no success has
    one). gt90_success compares success_count/denominator > 9/10 exactly.
    """

    prefix: int
    denominator: int
    success_count: int
    success_fraction: float
    any_success: bool
    gt90_success: bool
    same_identifier: bool
    dominant_identifier_share: float


class AddressComparison(NamedTuple):
    """Address-level success rates inside vs outside HRPs for one port.

    Rates are None when their partition is empty (undefined, not zero).
    gt90_subset_share is the share of HRP successes that sit in prefixes
    with >90% success; gt90_same_identifier_share is the share of those
    that sit in single-identifier prefixes.
    """

    non_hrp_targets: int
    non_hrp_successes: int
    hrp_targets: int
    hrp_successes: int
    non_hrp_success_rate: float | None
    hrp_success_rate: float | None
    gt90_subset_share: float | None
    gt90_same_identifier_share: float | None


class AppReportSet(NamedTuple):
    """Per-HRP reports plus join accounting."""

    reports: list[HrpAppReport]
    anomaly_count: int  # results at addresses without an occupancy bit
    duplicate_count: int  # repeated result rows for one address (first kept)
    comparison: AddressComparison  # always with app_error counted as failure


class SuccessCdf(NamedTuple):
    """Cumulative distribution of per-HRP success counts over 0..256."""

    total_reports: int
    cumulative: tuple[float, ...]  # index c: share of reports with success_count <= c

    def at(self, success_count: int) -> float:
        return self.cumulative[success_count]


def hrp_app_report(
    results: AppResults,
    hrps: Iterable[int],
    occupancy: PrefixTable,
    exclude_app_errors: bool = False,
) -> AppReportSet:
    """Per-HRP application-layer report (every HRP appears, ascending), with
    the address comparison taken from the same pass over the results.

    By default app_error counts as a failed target. With exclude_app_errors
    those targets are disregarded entirely: they leave the denominator, so a
    prefix where every reachable host trips an SNI-style error is judged on
    the remaining targets only. The comparison always counts app_error as a
    failed target, whatever the reports say.
    """
    hrp_prefixes = sorted(set(hrps))
    missing = [p for p in hrp_prefixes if not occupancy.count(p)]
    if missing:
        raise ValueError(f"HRPs missing from the occupancy table: {missing[:5]}")
    meta = occupancy.meta
    if results.meta is not None and results.meta != meta:
        raise ValueError(
            f"result port/proto {results.meta.protocol}/{results.meta.port} does not match "
            f"occupancy {meta.protocol}/{meta.port}"
        )
    hrp_set = set(hrp_prefixes)
    kept: dict[int, int] = {}  # prefix -> bitmap of the hosts whose first row was kept
    successes: dict[int, list[str | None]] = defaultdict(list)  # identifiers per HRP, first rows only
    app_errors: Counter[int] = Counter()
    duplicates = anomalies = hrp_targets = non_hrp_successes = 0
    bitmaps = occupancy.bitmaps
    for target, code, identifier in zip(results.targets, results.statuses, results.identifiers):
        prefix, host = target >> 8, target & 0xFF
        if not bitmaps.get(prefix, 0) >> host & 1:  # no first row is kept off the occupancy bits
            anomalies += 1
        elif (seen := kept.get(prefix, 0)) >> host & 1:
            duplicates += 1
        else:
            kept[prefix] = seen | 1 << host
            if prefix not in hrp_set:
                if code == _SUCCESS:
                    non_hrp_successes += 1
                continue
            hrp_targets += 1
            if code == _SUCCESS:
                successes[prefix].append(identifier)
            elif code == _APP_ERROR:
                app_errors[prefix] += 1
    reports = []
    hrp_successes = gt90_successes = gt90_same_id_successes = 0
    for prefix in hrp_prefixes:
        responsive = occupancy.count(prefix)
        denominator = responsive - app_errors[prefix] if exclude_app_errors else responsive
        prefix_successes = successes.get(prefix, [])
        success_count = len(prefix_successes)
        identifiers = [i for i in prefix_successes if i is not None]
        dominant = max(Counter(identifiers).values()) if identifiers else 0
        same_identifier = single_identifier(prefix_successes)
        reports.append(
            HrpAppReport(
                prefix=prefix,
                denominator=denominator,
                success_count=success_count,
                success_fraction=success_count / denominator if denominator else 0.0,
                any_success=success_count > 0,
                gt90_success=success_count * 10 > denominator * 9 if denominator else False,
                same_identifier=same_identifier,
                dominant_identifier_share=dominant / success_count if success_count else 0.0,
            )
        )
        hrp_successes += success_count
        if success_count * 10 > responsive * 9:  # gt90_success of the default report
            gt90_successes += success_count
            if same_identifier:
                gt90_same_id_successes += success_count
    non_hrp_targets = sum(map(int.bit_count, kept.values())) - hrp_targets
    comparison = AddressComparison(
        non_hrp_targets=non_hrp_targets,
        non_hrp_successes=non_hrp_successes,
        hrp_targets=hrp_targets,
        hrp_successes=hrp_successes,
        non_hrp_success_rate=non_hrp_successes / non_hrp_targets if non_hrp_targets else None,
        hrp_success_rate=hrp_successes / hrp_targets if hrp_targets else None,
        gt90_subset_share=gt90_successes / hrp_successes if hrp_successes else None,
        gt90_same_identifier_share=(
            gt90_same_id_successes / gt90_successes if gt90_successes else None
        ),
    )
    return AppReportSet(reports, anomalies, duplicates, comparison)


def address_comparison(
    results: AppResults, hrps: Iterable[int], occupancy: PrefixTable
) -> AddressComparison:
    """Success rates of non-HRP vs HRP addresses, plus the >90% subset shares:
    the comparison of hrp_app_report, which always counts app_error as a
    failed target."""
    return hrp_app_report(results, hrps, occupancy).comparison


def single_identifier(identifiers: Iterable[str | None]) -> bool:
    """Whether successes with these identifiers are at least one and share one identifier: none
    is None and no two differ."""
    distinct = set(identifiers)
    return len(distinct) == 1 and None not in distinct


def success_cdf(reports: Iterable[HrpAppReport]) -> SuccessCdf:
    """Nondecreasing step function over success counts 0..256 (all zero when empty)."""
    counts = Counter(r.success_count for r in reports)
    cumulative = cumulative_shares([counts[c] for c in range(SLASH24_SIZE + 1)])
    return SuccessCdf(total_reports=sum(counts.values()), cumulative=tuple(cumulative))


def read_app_results(lines: Iterable[str]) -> AppResults:
    """Read the CSV form back into a table, every row in file order; port/proto must agree
    across rows, and an identifier holding U+FFFD (the mark of an undecodable input byte) is
    rejected."""
    meta = None  # the rows' so far

    def parse(columns: list[list[str]]) -> tuple[ScanMeta, array, bytes, list[str | None]]:
        ips, ports, protos, statuses, identifiers = columns
        targets = ipv4_column(ips)
        joined = "".join(identifiers)
        if "\ufffd" in joined:
            bad = next(text for text in identifiers if "\ufffd" in text)
            raise ValueError(f"undecodable bytes in identifier {bad!r}")
        rows_meta = block_meta(ports, protos, meta)
        codes = bytes(map(STATUS_CODES.get, statuses, repeat(255)))  # 255 for an unknown status
        # Name the first row with an unknown status, an identifier on a result other than success
        # (code 0), or an identifier that its row might not carry back unchanged.
        uncarried = not joined.isprintable() or any(map(str.isspace, identifiers))
        if uncarried or 255 in codes or any(compress(identifiers, codes)):
            for status, identifier in zip(statuses, identifiers):
                if status not in STATUSES:
                    raise ValueError(f"status must be one of {STATUSES}, got {status!r}")
                if identifier and status != SUCCESS:
                    raise ValueError("identifier is only valid on success results")
                if identifier != identifier.strip() or any(c in identifier for c in "\r\n"):
                    raise ValueError(
                        f"identifier must be non-empty text without surrounding whitespace, commas, "
                        f"line breaks or U+FFFD, got {identifier!r}"
                    )
        return rows_meta, targets, codes, [text or None for text in map(sys.intern, identifiers)]

    targets, codes, identifiers = array("I"), bytearray(), []
    for meta, block_targets, block_codes, block_identifiers in read_csv(lines, APP_RESULT_COLUMNS, parse):
        targets += block_targets
        codes += block_codes
        identifiers += block_identifiers
    return AppResults(meta, targets, bytes(codes), identifiers)
