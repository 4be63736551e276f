"""The column functions of a classified scan against the per-row code they replace."""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from hrpkit.prefixes import HrpThreshold, PrefixTable, classify, hrp_address_share, hrp_set
from hrpkit.routing import RouteEntry, RoutingTable, enrich

from conftest import Row, make_meta, rows, table_of, table_with_counts


def _reference_classify(table: PrefixTable, threshold: HrpThreshold) -> list[Row]:
    """One row per visible prefix, ascending by prefix."""
    min_count = threshold.min_count
    stats = []
    for prefix, bits in sorted(table.bitmaps.items()):
        count = bits.bit_count()
        stats.append(Row(prefix, table.meta, count, count >= min_count, threshold))
    return stats


def _reference_enrich(stats: list[Row], table: RoutingTable) -> list[Row]:
    """Each row rebuilt with the origin ASN and covering route of its LPM hit, or kept as it is."""
    enriched = []
    for s in stats:
        hit = table.lookup(s.prefix << 8)
        enriched.append(s if hit is None else Row(
            prefix=s.prefix, meta=s.meta, responsive_count=s.responsive_count, is_hrp=s.is_hrp,
            threshold=s.threshold, origin_asn=hit.origin_asn, covering_route=(hit.network, hit.length),
        ))
    return enriched


def _reference_hrp_address_share(stats: list[Row]) -> float:
    hrp_addresses = 0
    total = 0
    for s in stats:
        total += s.responsive_count
        if s.is_hrp:
            hrp_addresses += s.responsive_count
    return hrp_addresses / total if total else 0.0


_EDGE_COUNTS = st.sampled_from([230, 231, 243, 244, 256])  # around the 0.90 and 0.95 cuts
_COUNTS = _EDGE_COUNTS | st.integers(1, 256)
_THRESHOLDS = st.sampled_from([0.5, 0.9, 0.95, 1.0]).map(HrpThreshold)
# /24s inside 10.0.0.0/18 and 192.0.2.0/24, which the drawn routes cover in part.
_PREFIXES = st.integers(0x0A0000, 0x0A003F) | st.just(0xC00002)
_ROUTES = st.tuples(
    _PREFIXES.map(lambda prefix: prefix << 8), st.sampled_from([8, 18, 20, 23, 24, 25, 32])
).map(lambda route: ((route[0] >> (32 - route[1])) << (32 - route[1]), route[1]))


@st.composite
def _rows(draw) -> list[Row]:
    """Rows of one scan, each with its own threshold, some already enriched."""
    meta = make_meta()
    stats = []
    for prefix in draw(st.lists(_PREFIXES, unique=True, max_size=12)):
        count, threshold = draw(_COUNTS), draw(_THRESHOLDS)
        stats.append(Row(
            prefix, meta, count, count >= threshold.min_count, threshold,
            draw(st.none() | st.integers(0, 2**32 - 1)), draw(st.none() | _ROUTES),
        ))
    return stats


@st.composite
def _ribs(draw) -> RoutingTable:
    table = RoutingTable()
    for network, length in draw(st.lists(_ROUTES, max_size=6)):
        if table.get(network, length) is None:
            table.add(RouteEntry(network, length, draw(st.integers(0, 2**32 - 1))))
    return table


@given(
    counts=st.dictionaries(_PREFIXES, _COUNTS, max_size=12),
    threshold=_THRESHOLDS,
    stats=_rows(),
    rib=_ribs(),
)
@example(counts={}, threshold=HrpThreshold(0.9), stats=[], rib=RoutingTable())
def test_column_functions_match_their_per_row_references(counts, threshold, stats, rib):
    """Exact equality, floats included, over empty and edge-count scans, tables mixing
    thresholds, and already-enriched rows that the RIB misses or covers anew."""
    occupancy = table_with_counts(counts)
    classified = classify(occupancy, threshold)
    assert rows(classified) == _reference_classify(occupancy, threshold)
    assert classified.meta == (occupancy.meta if counts else None)
    for table in (classified, table_of(stats)):
        expected = rows(table)
        assert hrp_address_share(table) == _reference_hrp_address_share(expected)
        assert hrp_set(table) == {s.prefix for s in expected if s.is_hrp}
        assert rows(enrich(table, rib)) == _reference_enrich(expected, rib)
