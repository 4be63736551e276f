"""/24 occupancy aggregation and highly-responsive-prefix classification.

A scan's responsive addresses are folded into one 256-bit bitmap per /24
(bit i set iff host byte i answered), so duplicate responses are free and
per-prefix counts are popcounts. A prefix is highly responsive when its
count reaches ``ceil(fraction * 256)``; the default fraction 0.90 puts the
cut at 231 responsive addresses. All 256 host values count toward the
denominator, network and broadcast addresses included.

Tables are value-like: aggregation is single-pass, and tables built from
shards of the input merge by bitwise OR into the same result as one pass
over everything.

A classified scan is one :class:`PrefixStats` table of columns, one entry
per visible /24, which ``classify`` builds, ``read_prefix_stats`` reads
back from its CSV form and the measures here read.
"""

from __future__ import annotations

from array import array
from collections import Counter, namedtuple
from itertools import accumulate, compress
from operator import ge, ne
from typing import IO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .fmt import fmt_real
from .ingest import (
    Checked, Record, ScanMeta, _ipv4_values, asn_values, block_meta, cidr_values, format_ipv4, parse_asn, parse_cidr,
    parse_decimal, parse_ipv4, parse_uint, read_csv,
)

SLASH24_SIZE = 256

PREFIX_STAT_COLUMNS = (
    "prefix",
    "port",
    "proto",
    "count",
    "is_hrp",
    "threshold_fraction",
    "origin_asn",
    "covering_prefix",
)

_HRP_FLAGS = {"true": True, "false": False}
_COUNTS = {str(count): count for count in range(1, SLASH24_SIZE + 1)}  # canonical count text -> value
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")  # binary digits -> the bits they spell


def format_slash24(prefix: int) -> str:
    """Dotted CIDR text for a 24-bit network value, e.g. ``198.51.100.0/24``."""
    return f"{prefix >> 16}.{(prefix >> 8) & 0xFF}.{prefix & 0xFF}.0/24"


def parse_slash24(text: str) -> int:
    """Parse canonical ``a.b.c.0/24`` text back to the 24-bit network value.

    Surrounding whitespace is ignored; other spellings of the same network,
    such as ``/024`` or a netmask, are rejected.
    """
    stripped = text.strip()
    network = parse_ipv4(stripped[:-3]) if stripped.endswith(".0/24") else None
    if network is None:
        raise ValueError(f"not a canonical a.b.c.0/24 prefix: {text!r}")
    return network >> 8


class HrpThreshold(Checked, namedtuple("HrpThreshold", "fraction min_count")):
    """Responsiveness cut for a /24: fraction in (0, 1] with at most six
    decimals, the precision stats files write, and the derived count.

    The count is ``ceil(fraction * 256)`` computed in integers on the
    fraction's millionths, so that e.g. 0.90 -> 231 and 0.95 -> 244 exactly.
    A threshold is built from its fraction alone.
    """

    __slots__ = ()

    def __new__(cls, fraction: float):
        if not 0 < fraction <= 1:
            raise ValueError(f"threshold fraction must be in (0, 1], got {fraction}")
        millionths = round(fraction * 10**6)
        if millionths / 10**6 != fraction:
            raise ValueError(f"threshold fraction must have at most six decimals, got {fraction}")
        return super().__new__(cls, fraction, -(-millionths * SLASH24_SIZE // 10**6))

    def __getnewargs__(self) -> tuple[float]:  # for copy and pickle
        return (self.fraction,)


DEFAULT_THRESHOLD = HrpThreshold(0.90)


class PrefixStats(Record):
    """The classified /24s of one scan as columns, one entry per row, each /24 at most once:
    prefixes (an ``array('I')`` of 24-bit network values), responsive counts 1-256 (an
    ``array('H')``), each row's threshold, and each row's origin ASN and covering route
    ``(network value, length)``, None where not enriched. meta is None exactly when the table
    has no rows. A row is an HRP when its count reaches its threshold's."""

    def __init__(self, meta: ScanMeta | None, prefixes: array, counts: array, thresholds: list[HrpThreshold],
                 origin_asns: list[int | None], covering_routes: list[tuple[int, int] | None]):
        rows = len(prefixes)
        if any(len(column) != rows for column in (counts, thresholds, origin_asns, covering_routes)):
            raise ValueError("columns of unequal length")
        if (meta is None) != (rows == 0):
            raise ValueError("meta must be None exactly when the table has no rows")
        if len(set(prefixes)) != rows:
            repeated = next(p for p, n in Counter(prefixes).items() if n > 1)
            raise ValueError(f"repeated prefix {format_slash24(repeated)}")
        self.meta = meta
        self.prefixes = prefixes
        self.counts = counts
        self.thresholds = thresholds
        self.origin_asns = origin_asns
        self.covering_routes = covering_routes

    def __len__(self) -> int:
        return len(self.prefixes)

    @property
    def is_hrp(self) -> list[bool]:
        """Each row's HRP flag, from its count and threshold."""
        return list(map(ge, self.counts, [threshold.min_count for threshold in self.thresholds]))


class PrefixTable(Record):
    """Per-/24 occupancy bitmaps for one scan.

    bitmaps maps the 24-bit network value to a 256-bit int; prefixes with
    no responsive address are never materialized.
    """

    def __init__(self, meta: ScanMeta, bitmaps: dict[int, int] | None = None):
        self.meta = meta
        self.bitmaps = {} if bitmaps is None else bitmaps

    def __len__(self) -> int:
        return len(self.bitmaps)

    def count(self, prefix: int) -> int:
        return self.bitmaps.get(prefix, 0).bit_count()

    def addresses(self, prefix: int) -> list[int]:
        """Member addresses of one prefix, ascending."""
        return [prefix << 8 | host for host in self.hosts(prefix)]

    def hosts(self, prefix: int) -> bytes:
        """Host octets of one prefix's members, ascending."""
        bits = f"{self.bitmaps.get(prefix, 0):0256b}"[::-1].encode().translate(_BIT_VALUES)  # byte i: bit i
        return bytes(compress(range(SLASH24_SIZE), bits))

    def total_addresses(self) -> int:
        return sum(bits.bit_count() for bits in self.bitmaps.values())

    def prefixes(self) -> list[int]:
        """Visible prefixes, ascending."""
        return sorted(self.bitmaps)


def aggregate(addresses: Iterable[int], meta: ScanMeta) -> PrefixTable:
    """Fold a finite address stream into occupancy bitmaps (single pass)."""
    bitmaps: dict[int, int] = {}
    get = bitmaps.get
    for addr in addresses:
        prefix = addr >> 8
        bitmaps[prefix] = get(prefix, 0) | (1 << (addr & 0xFF))
    return PrefixTable(meta, bitmaps)


def merge(a: PrefixTable, b: PrefixTable) -> PrefixTable:
    """Fold shard b of a scan into shard a, in place, by per-prefix bitwise OR; a is returned."""
    if a.meta != b.meta:
        raise ValueError(f"cannot merge tables with different scan meta: {a.meta} vs {b.meta}")
    merged = a.bitmaps
    get = merged.get
    for prefix, bits in b.bitmaps.items():
        merged[prefix] = get(prefix, 0) | bits
    return a


def classify(table: PrefixTable, threshold: HrpThreshold = DEFAULT_THRESHOLD) -> PrefixStats:
    """The stats of every visible prefix, ascending by prefix."""
    prefixes = sorted(table.bitmaps)
    rows = len(prefixes)
    return PrefixStats(
        table.meta if rows else None,
        array("I", prefixes),
        array("H", map(int.bit_count, map(table.bitmaps.__getitem__, prefixes))),
        [threshold] * rows,
        [None] * rows,
        [None] * rows,
    )


def hrp_set(stats: PrefixStats) -> frozenset[int]:
    """Prefixes flagged highly responsive."""
    return frozenset(compress(stats.prefixes, stats.is_hrp))


def hrp_address_share(stats: PrefixStats) -> float:
    """Responsive addresses inside HRPs over all responsive addresses (0 if none)."""
    total = sum(stats.counts)
    return sum(compress(stats.counts, stats.is_hrp)) / total if total else 0.0


class ResponsivenessHistogram(NamedTuple):
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


def responsiveness_histogram(stats: PrefixStats) -> ResponsivenessHistogram:
    """Exact bucket counts for the per-prefix responsiveness distribution."""
    prefix_count = [0] * (SLASH24_SIZE + 1)
    for count in stats.counts:
        prefix_count[count] += 1
    address_count = [c * n for c, n in enumerate(prefix_count)]
    return ResponsivenessHistogram(
        prefix_count=prefix_count,
        address_count=address_count,
        cumulative_prefix_share=cumulative_shares(prefix_count),
        cumulative_address_share=cumulative_shares(address_count),
        total_prefixes=sum(prefix_count),
        total_addresses=sum(address_count),
    )


def cumulative_shares(counts: Sequence[int]) -> list[float]:
    """Each running total of counts over their sum; all 0.0 when the sum is 0."""
    total = sum(counts)
    return [running / total if total else 0.0 for running in accumulate(counts)]


def write_prefix_stats_csv(stats: PrefixStats, out: IO[str]) -> None:
    """CSV form of classified prefixes; optional fields stay empty."""
    out.write(",".join(PREFIX_STAT_COLUMNS) + "\n")
    for fields in _stat_fields(stats):
        out.write(",".join(fields) + "\n")


def write_prefix_stats_jsonl(stats: PrefixStats, out: IO[str]) -> None:
    """JSON-lines form with the same field names as the CSV."""
    for prefix, port, proto, count, is_hrp, fraction, asn, covering in _stat_fields(stats):
        parts = [
            f'"prefix": "{prefix}"',
            f'"port": {port}',
            f'"proto": "{proto}"',
            f'"count": {count}',
            f'"is_hrp": {is_hrp}',
            f'"threshold_fraction": {fraction}',
            f'"origin_asn": {asn if asn else "null"}',
            f'"covering_prefix": {_quoted(covering) if covering else "null"}',
        ]
        out.write("{" + ", ".join(parts) + "}\n")


def _quoted(text: str) -> str:
    return f'"{text}"'


def _stat_fields(stats: PrefixStats) -> Iterator[tuple[str, ...]]:
    """Each row's field texts, in PREFIX_STAT_COLUMNS order."""
    if stats.meta is None:
        return
    port, proto = str(stats.meta.port), stats.meta.protocol
    for prefix, count, threshold, asn, route in zip(
        stats.prefixes, stats.counts, stats.thresholds, stats.origin_asns, stats.covering_routes
    ):
        yield (
            format_slash24(prefix),
            port,
            proto,
            str(count),
            "true" if count >= threshold.min_count else "false",
            fmt_real(threshold.fraction),
            "" if asn is None else str(asn),
            "" if route is None else f"{format_ipv4(route[0])}/{route[1]}",
        )


def read_prefix_stats(lines: Iterable[str]) -> PrefixStats:
    """Read the CSV form back; port/proto must agree across rows.

    Rows that break the stats' invariants raise ValueError naming the line:
    port or count not ASCII digits in 0-65535 or 1-256, is_hrp other than
    ``true``/``false`` or disagreeing with count and threshold, threshold
    fraction not ASCII digits with an optional decimal point or outside
    (0, 1] or with more than six decimals, a prefix already read, an origin
    ASN not ASCII digits for 0-4294967295, or a covering prefix that is not a
    valid route with a canonical length.
    """
    meta = None  # the rows' so far
    seen: set[int] = set()  # the rows' prefixes so far
    # Field text -> value, for the texts read so far and the canonical ones.
    counts: dict[str, int] = dict(_COUNTS)
    thresholds: dict[str, HrpThreshold] = {}
    asns: dict[str, int | None] = {"": None}
    routes: dict[str, tuple[int, int] | None] = {"": None}

    def parse(columns: list[list[str]]) -> tuple[ScanMeta, set[int], tuple[Sequence, ...]]:
        """The rows' meta, the prefixes they add to ``seen``, and their columns of PrefixStats."""
        prefix_texts, ports, protos, count_texts, flag_texts, fraction_texts, asn_texts, route_texts = columns
        rows_meta = block_meta(ports, protos, meta)
        row_thresholds = _parse_column(
            fraction_texts, thresholds, lambda text: HrpThreshold(parse_decimal(text, "threshold fraction"))
        )
        row_counts = _parse_column(count_texts, counts, lambda text: parse_uint(text, 1, SLASH24_SIZE, "count"))
        flags = _parse_column(flag_texts, _HRP_FLAGS, _hrp_flag)  # _hrp_flag raises: _HRP_FLAGS stays
        min_counts = [threshold.min_count for threshold in row_thresholds]
        disagreeing = compress(range(len(flags)), map(ne, flags, map(ge, row_counts, min_counts)))
        if (i := next(disagreeing, None)) is not None:
            raise ValueError(
                f"is_hrp={flag_texts[i]} disagrees with count {row_counts[i]} at threshold {fraction_texts[i]}"
            )
        if (prefixes := _slash24_values(prefix_texts)) is None:
            prefixes = array("I", map(parse_slash24, prefix_texts))  # ValueError names the first bad one
        fresh = set(prefixes)
        if len(fresh) != len(prefixes) or not seen.isdisjoint(fresh):
            repeated = next(p for i, p in enumerate(prefixes) if p in seen or p in prefixes[:i])
            raise ValueError(f"repeated prefix {format_slash24(repeated)}")
        return rows_meta, fresh, (
            prefixes, row_counts, row_thresholds,
            _parse_column(asn_texts, asns, parse_asn, asn_values),
            _parse_column(route_texts, routes, _parse_covering, _covering_values),
        )

    table: tuple[Sequence, ...] = (array("I"), array("H"), [], [], [])
    for meta, fresh, block in read_csv(lines, PREFIX_STAT_COLUMNS, parse):
        seen |= fresh
        for column, values in zip(table, block):
            column.extend(values)
    return PrefixStats(meta, *table)


def _hrp_flag(text: str) -> bool:
    raise ValueError(f"is_hrp must be true or false, got {text!r}")


def _parse_column(texts: list[str], known: dict, parse: Callable[[str], object],
                  column: Callable[[list[str]], list | None] | None = None) -> list:
    """Each text's value, looked up in ``known``. The texts not there are parsed at once by
    ``column`` if it takes them all, else in order by ``parse``, so that the first bad one raises
    its ValueError; their values are added to ``known``."""
    try:
        return list(map(known.__getitem__, texts))
    except KeyError:
        fresh = [text for text in dict.fromkeys(texts) if text not in known]
        values = None if column is None else column(fresh)
        known.update(zip(fresh, map(parse, fresh) if values is None else values))
        return list(map(known.__getitem__, texts))


def _slash24_values(texts: list[str]) -> array | None:
    """The 24-bit network values of ``a.b.c.0/24`` texts, each read as the address ``0.a.b.c``,
    or None unless each is such a prefix. Joined as ``0.<text>/``, split at ``.0/24/``, they give
    one address per text only if each ends in the mark: no address holds the slash after a text."""
    parts = ("0." + "/0.".join(texts) + "/").split(".0/24/")
    return _ipv4_values(parts) if len(parts) == len(texts) + 1 and parts.pop() == "" else None


def _covering_values(texts: list[str]) -> list[tuple[int, int]] | None:
    """The routes of covering prefix texts, or None unless _parse_covering takes each."""
    if (cidrs := cidr_values(texts)) is None:
        return None
    routes = list(zip(*cidrs))
    return None if any(network & (0xFFFFFFFF >> length) for network, length in routes) else routes


def _parse_covering(text: str) -> tuple[int, int]:
    route = parse_cidr(text)
    if route is None:
        raise ValueError(f"invalid covering prefix {text!r}")
    network, length = route
    if network & (0xFFFFFFFF >> length):
        raise ValueError(f"host bits set in covering prefix {text!r}")
    return route
