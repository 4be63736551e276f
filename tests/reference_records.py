"""The record classes of hrpkit as dataclasses, as they were defined before the records became
named tuples and plain classes: the reference that tests/test_records.py checks the records
against. Each class keeps its name, so that reprs compare as text."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from operator import ge
from typing import Iterable

from hrpkit.applayer import STATUSES
from hrpkit.ingest import _PROTOCOLS
from hrpkit.planner import PROVENANCES, STRATEGIES, _decimal
from hrpkit.prefixes import SLASH24_SIZE, format_slash24


@dataclass(frozen=True, order=True)
class ScanMeta:
    """The scan a table's rows come from: its protocol and port."""

    protocol: str
    port: int

    def __post_init__(self):
        if self.protocol not in _PROTOCOLS:
            raise ValueError(f"protocol must be one of {_PROTOCOLS}, got {self.protocol!r}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")


@dataclass
class IngestStats:
    """Line accounting for one ingest run.

    Invariant: lines_read == addresses_emitted + invalid_lines + comment_lines.
    The csv_saddr header row counts as a comment line.
    """

    lines_read: int = 0
    addresses_emitted: int = 0
    invalid_lines: int = 0
    comment_lines: int = 0

    def merge(self, other: "IngestStats") -> None:
        self.lines_read += other.lines_read
        self.addresses_emitted += other.addresses_emitted
        self.invalid_lines += other.invalid_lines
        self.comment_lines += other.comment_lines


@dataclass(frozen=True)
class HrpThreshold:
    """Responsiveness cut for a /24: fraction in (0, 1] with at most six
    decimals, the precision stats files write, and the derived count.

    The count is ``ceil(fraction * 256)`` computed in integers on the
    fraction's millionths, so that e.g. 0.90 -> 231 and 0.95 -> 244 exactly.
    """

    fraction: float
    min_count: int = field(init=False, compare=False)

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError(f"threshold fraction must be in (0, 1], got {self.fraction}")
        millionths = round(self.fraction * 10**6)
        if millionths / 10**6 != self.fraction:
            raise ValueError(f"threshold fraction must have at most six decimals, got {self.fraction}")
        object.__setattr__(self, "min_count", -(-millionths * SLASH24_SIZE // 10**6))


@dataclass(frozen=True)
class PrefixStats:
    """The classified /24s of one scan as columns, one entry per row, each /24 at most once:
    prefixes (an ``array('I')`` of 24-bit network values), responsive counts 1-256 (an
    ``array('H')``), each row's threshold, and each row's origin ASN and covering route
    ``(network value, length)``, None where not enriched. meta is None exactly when the table
    has no rows. A row is an HRP when its count reaches its threshold's."""

    meta: ScanMeta | None
    prefixes: array
    counts: array
    thresholds: list[HrpThreshold]
    origin_asns: list[int | None]
    covering_routes: list[tuple[int, int] | None]

    def __post_init__(self):
        rows = len(self.prefixes)
        if any(len(column) != rows for column in (self.counts, self.thresholds, self.origin_asns,
                                                  self.covering_routes)):
            raise ValueError("columns of unequal length")
        if (self.meta is None) != (rows == 0):
            raise ValueError("meta must be None exactly when the table has no rows")
        if len(set(self.prefixes)) != rows:
            repeated = next(p for p, n in Counter(self.prefixes).items() if n > 1)
            raise ValueError(f"repeated prefix {format_slash24(repeated)}")

    def __len__(self) -> int:
        return len(self.prefixes)

    @property
    def is_hrp(self) -> list[bool]:
        """Each row's HRP flag, from its count and threshold."""
        return list(map(ge, self.counts, [threshold.min_count for threshold in self.thresholds]))


@dataclass
class PrefixTable:
    """Per-/24 occupancy bitmaps for one scan.

    bitmaps maps the 24-bit network value to a 256-bit int; prefixes with
    no responsive address are never materialized.
    """

    meta: ScanMeta
    bitmaps: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.bitmaps)

    def count(self, prefix: int) -> int:
        return self.bitmaps.get(prefix, 0).bit_count()

    def addresses(self, prefix: int) -> list[int]:
        """Member addresses of one prefix, ascending."""
        bits = self.bitmaps.get(prefix, 0)
        base = prefix << 8
        members = []
        while bits:
            low = bits & -bits
            members.append(base | (low.bit_length() - 1))
            bits ^= low
        return members

    def total_addresses(self) -> int:
        return sum(bits.bit_count() for bits in self.bitmaps.values())

    def prefixes(self) -> list[int]:
        """Visible prefixes, ascending."""
        return sorted(self.bitmaps)


@dataclass
class ResponsivenessHistogram:
    """Distribution of per-prefix responsive counts.

    Lists are indexed by responsive count 0..256; index 0 stays zero because
    empty prefixes are not materialized. Cumulative shares are over prefixes
    and over addresses separately, each ending at 1 (all zero when empty).
    """

    prefix_count: list[int]
    address_count: list[int]
    cumulative_prefix_share: list[float]
    cumulative_address_share: list[float]
    total_prefixes: int
    total_addresses: int


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


@dataclass(frozen=True)
class PortProfile:
    """How many of the supplied ports a /24 answers on, and is an HRP on."""

    prefix: int
    ports_responsive: int
    ports_hrp: int


@dataclass
class PortProfileReport:
    """Per-prefix port profiles plus bucket histograms over both counts.

    responsive_histogram buckets all visible prefixes by ports_responsive;
    hrp_histogram buckets prefixes that are an HRP somewhere by ports_hrp.
    The supplied port list is the universe.
    """

    port_count: int
    profiles: list[PortProfile]
    responsive_histogram: dict[int, int]
    hrp_histogram: dict[int, int]


@dataclass(frozen=True)
class StabilityPoint:
    """HRP weight of one scan at the 0.90 and 0.95 cuts.

    hrp_count is the number of prefixes at the 0.90 cut.
    """

    scan_id: str
    timestamp: datetime
    hrp_address_share_90: float
    hrp_address_share_95: float
    hrp_count: int


@dataclass
class PersistenceSummary:
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


@dataclass
class VantageDiff:
    """Set difference of two vantage points' HRP sets for one port."""

    only_a: frozenset[int]
    only_b: frozenset[int]
    both: frozenset[int]
    divergence: float


@dataclass
class AppResults:
    """Application-layer results of one scan as columns, one entry per results row in file
    order, repeats kept: targets as address ints, status codes (STATUS_CODES) and identifiers.
    meta is None only for a table without rows."""

    meta: ScanMeta | None
    targets: array
    statuses: bytes
    identifiers: list[str | None]

    def __post_init__(self):
        if not len(self.targets) == len(self.statuses) == len(self.identifiers):
            raise ValueError("columns of unequal length")
        if max(self.statuses, default=0) >= len(STATUSES):
            raise ValueError(f"status codes must be below {len(STATUSES)}, got {max(self.statuses)}")

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


@dataclass(frozen=True)
class HrpAppReport:
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


@dataclass
class AddressComparison:
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


@dataclass
class AppReportSet:
    """Per-HRP reports plus join accounting."""

    reports: list[HrpAppReport]
    anomaly_count: int  # results at addresses without an occupancy bit
    duplicate_count: int  # repeated result rows for one address (first kept)
    comparison: AddressComparison  # always with app_error counted as failure


@dataclass
class SuccessCdf:
    """Cumulative distribution of per-HRP success counts over 0..256."""

    total_reports: int
    cumulative: tuple[float, ...]  # index c: share of reports with success_count <= c

    def at(self, success_count: int) -> float:
        return self.cumulative[success_count]


@dataclass(frozen=True)
class DnsSeed:
    """An address DNS points at, weighted by how many names reference it."""

    address: int
    name_count: int

    def __post_init__(self):
        if self.name_count < 1:
            raise ValueError(f"name_count must be >= 1, got {self.name_count}")


@dataclass(frozen=True)
class SamplePolicy:
    """Sampling knobs: targets per HRP, PRNG seed, and scenario cutoffs.

    include_unresponsive_seeds keeps DNS-seeded targets that the port scan
    missed (SNI-dependent services); disable to sample responsive addresses
    only. The proxy/cdn cutoffs bound the sampled success rate and are
    compared exactly on their decimal values.
    """

    k: int = 10
    rng_seed: int = 0
    proxy_max_success: float = 0.10
    cdn_min_success: float = 0.90
    include_unresponsive_seeds: bool = True

    def __post_init__(self):
        if not 1 <= self.k <= 256:
            raise ValueError(f"k must be in [1, 256], got {self.k}")
        (p, q), (c, d) = _decimal(self.proxy_max_success), _decimal(self.cdn_min_success)
        if not (0 <= p and p * d < c * q and c <= d):  # 0 <= p/q < c/d <= 1
            raise ValueError(
                f"need 0 <= proxy_max_success < cdn_min_success <= 1, "
                f"got {self.proxy_max_success} / {self.cdn_min_success}"
            )


@dataclass(frozen=True)
class PlanEntry:
    """Targets of one /24 in plan order as host octets, the last byte of each address, and their
    provenances as one code per target, the code of a provenance being its index in PROVENANCES."""

    prefix: int
    strategy: str
    hosts: bytes
    provenances: bytes

    def __post_init__(self):
        if not 0 <= self.prefix <= 0xFFFFFF:
            raise ValueError(f"prefix out of range: {self.prefix}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        object.__setattr__(self, "hosts", bytes(self.hosts))
        object.__setattr__(self, "provenances", bytes(self.provenances))
        if len(self.provenances) != len(self.hosts):
            raise ValueError(f"{len(self.provenances)} provenance codes for {len(self.hosts)} targets")
        for code in self.provenances:
            if code not in range(len(PROVENANCES)):
                raise ValueError(f"provenance codes must be below {len(PROVENANCES)}, got {max(self.provenances)}")


@dataclass
class TargetPlan:
    """Per-prefix strategies and concrete target addresses."""

    entries: dict[int, PlanEntry]

    def total_targets(self) -> int:
        return sum(len(entry.hosts) for entry in self.entries.values())


@dataclass(frozen=True)
class PlanMetrics:
    """Cost and coverage of a plan against full-scan ground truth."""

    handshakes_planned: int
    handshakes_full_baseline: int
    reduction: float
    identifier_coverage: float
