"""The column functions of a classified scan against the per-row code they replace."""

from __future__ import annotations

from hypothesis import example, given, strategies as st

from hrpkit.prefixes import HrpThreshold, PrefixTable, classify, hrp_address_share, hrp_set
from hrpkit.routing import RoutingTable, enrich

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
            threshold=s.threshold, origin_asn=hit[2], covering_route=hit[:2],
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
    routes: dict[int, dict[int, int]] = {}
    for network, length in draw(st.lists(_ROUTES, max_size=6)):
        nets = routes.setdefault(length, {})
        if network not in nets:
            nets[network] = draw(st.integers(0, 2**32 - 1))
    return RoutingTable(routes)


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


# Covering prefix and origin ASN texts: valid ones, and ones each column check must turn away to the
# per-text parse, whose error for the first bad text is the one raised.
_COVERING_TEXTS = st.sampled_from([
    "10.0.0.0/8", "10.0.0.0/18", "192.0.2.0/24", "0.0.0.0/0", "192.0.2.7/32", "10.0.0.1/24", "10.0.0.0/33",
    "10.0.0.0/08", "010.0.0.0/8", "10.0.0.0/٨", "１0.0.0.0/8", "10.0.0.0", "10.0.0.0//8", "10.0.0.0/8/8", "x",
]) | _ROUTES.map(lambda route: f"{route[0] >> 24}.{route[0] >> 16 & 255}.{route[0] >> 8 & 255}.{route[0] & 255}/{route[1]}")
_ASN_TEXTS = st.sampled_from([
    "0", "64500", "4294967295", "4294967296", "0064500", "00000000064500", "99999999999", "٦٤٥٠٠", "６４５００",
    "-1", "+1", "1_0", " 1", "x",
]) | st.integers(0, 2**32 - 1).map(str)


@given(st.lists(_COVERING_TEXTS, min_size=1, max_size=8), st.lists(_ASN_TEXTS, min_size=1, max_size=8))
@example(["10.0.0.0/8", "10.0.0.1/24"], ["64500", "0064500"])
def test_covering_prefixes_and_asns_read_as_columns_match_the_per_text_parse(routes, asns):
    from hrpkit.ingest import asn_values, parse_asn
    from hrpkit.prefixes import _covering_values, _parse_column, _parse_covering

    for texts, parse, column in [(routes, _parse_covering, _covering_values), (asns, parse_asn, asn_values)]:
        results = []
        for columns in (column, None):
            known = {"": None}
            try:
                results.append((_parse_column(texts, known, parse, columns), known))
            except ValueError as exc:
                results.append(str(exc))
        assert results[0] == results[1]
        if not isinstance(results[1], str):  # every text parses: the column function gives their values or declines
            assert column(list(dict.fromkeys(texts))) in (None, [parse(text) for text in dict.fromkeys(texts)])
    assert _covering_values(["10.0.0.0/8", "0.0.0.0/0", "192.0.2.7/32"]) == [(0x0A000000, 8), (0, 0), (0xC0000207, 32)]
    assert asn_values(["0", "0064500", "4294967295"]) == [0, 64500, 4294967295]
