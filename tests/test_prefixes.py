"""Occupancy aggregation, thresholds, classification, and the histogram."""

from __future__ import annotations

import io
import ipaddress
import json
import math
import random
from array import array
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, strategies as st

from hrpkit.ingest import parse_ipv4
from hrpkit.prefixes import (
    HrpThreshold,
    PrefixStats,
    PrefixTable,
    aggregate,
    classify,
    format_slash24,
    hrp_address_share,
    hrp_set,
    merge,
    parse_slash24,
    read_prefix_stats,
    responsiveness_histogram,
    write_prefix_stats_csv,
    write_prefix_stats_jsonl,
)

from conftest import make_meta, table_with_counts


def _slash24s(*texts: str) -> list[int]:
    """The /24s an aggregated scan of the addresses holds, ascending."""
    return aggregate(map(parse_ipv4, texts), make_meta()).prefixes()


def test_slash24_is_bit_truncation():
    assert _slash24s("198.51.100.7") == [0xC63364]
    assert format_slash24(0xC63364) == "198.51.100.0/24"


def test_slash24_shared_and_distinct():
    assert _slash24s("198.51.100.0", "198.51.100.255") == [0xC63364]
    assert _slash24s("198.51.101.0", "198.51.100.9") == [0xC63364, 0xC63365]


def test_slash24_text_roundtrip():
    assert parse_slash24("198.51.100.0/24") == 0xC63364
    for text in ("10.0.0.0/8", "1.2.3.4/24", "1.2.3.0", "01.2.3.0/24", "1.2.256.0/24", "1.2.3.00/24",
                 "1.2.3.10/24", "1.2.3.0/24/24", ".0/24", "", "1.2.3.0 /24"):
        with pytest.raises(ValueError):
            parse_slash24(text)


def _oracle_slash24(text: str) -> int | None:
    try:
        network = ipaddress.IPv4Network(text.strip())
    except ValueError:
        return None
    return int(network.network_address) >> 8 if network.prefixlen == 24 else None


def _parsed_slash24(text: str) -> int | None:
    try:
        return parse_slash24(text)
    except ValueError:
        return None


_slash24_like = st.text(alphabet="0123456789./ ", max_size=24)


@given(st.one_of(st.text(), _slash24_like))
def test_parse_slash24_accepts_a_subset_of_ipaddress(text):
    value = _parsed_slash24(text)
    if value is not None:
        assert value == _oracle_slash24(text)


@given(st.integers(0, (1 << 24) - 1), st.sampled_from(["", " ", "\t", "\n", " \r\n"]))
def test_parse_slash24_agrees_with_ipaddress_on_canonical_text(prefix, pad):
    for text in (format_slash24(prefix), pad + format_slash24(prefix) + pad):
        assert parse_slash24(text) == _oracle_slash24(text) == prefix


def test_parse_slash24_rejects_noncanonical_forms_ipaddress_accepted():
    for text in ("1.2.3.0/024", "1.2.3.0/255.255.255.0", "1.2.3.0/0.0.0.255"):
        assert _oracle_slash24(text) == 0x010203
        with pytest.raises(ValueError):
            parse_slash24(text)


def _range_scan(bits: int, prefix: int) -> list[int]:
    return [(prefix << 8) | host for host in range(256) if bits >> host & 1]


@given(st.integers(0, (1 << 256) - 1), st.integers(0, (1 << 24) - 1))
@example(0, 7)
@example((1 << 256) - 1, 7)
@example(1 << 255, (1 << 24) - 1)
def test_addresses_matches_range_scan(bits, prefix):
    table = PrefixTable(make_meta(), {prefix: bits})
    assert table.addresses(prefix) == _range_scan(bits, prefix)
    assert table.addresses(prefix ^ 1) == []  # absent prefix


def test_aggregate_deduplicates():
    meta = make_meta()
    table = aggregate([parse_ipv4("198.51.100.1"), parse_ipv4("198.51.100.2"), parse_ipv4("198.51.100.1")], meta)
    assert len(table) == 1
    assert table.count(0xC63364) == 2


def test_aggregate_saturates_at_256():
    table = table_with_counts({0xCB0071: 256})
    assert table.count(0xCB0071) == 256


def test_aggregate_empty_stream():
    table = aggregate([], make_meta())
    assert len(table) == 0
    assert table.total_addresses() == 0


def test_merge_disjoint_is_union():
    meta = make_meta()
    a = table_with_counts({1: 5}, meta)
    b = table_with_counts({2: 7}, meta)
    merged = merge(a, b)
    assert sorted(merged.bitmaps) == [1, 2]
    assert merged.count(1) == 5 and merged.count(2) == 7


def test_merge_overlapping_bitmaps():
    meta = make_meta()
    a = aggregate([(9 << 8) | h for h in range(0, 100)], meta)
    b = aggregate([(9 << 8) | h for h in range(50, 200)], meta)
    # Oracle: plain set union of the host bytes.
    expected = len(set(range(0, 100)) | set(range(50, 200)))
    assert expected == 200
    assert merge(a, b).count(9) == expected


def test_merge_identity_and_meta_check():
    meta = make_meta()
    table = table_with_counts({3: 10}, meta)
    empty = aggregate([], meta)
    assert merge(table, empty).bitmaps == table.bitmaps
    with pytest.raises(ValueError):
        merge(table, table_with_counts({3: 10}, make_meta(port=80)))


def test_merge_algebra_and_sharding():
    rng = random.Random(1234)
    meta = make_meta()
    for _ in range(30):
        addresses = [rng.getrandbits(32) >> rng.choice([0, 12, 20]) for _ in range(400)]
        shards = [[], [], []]
        for addr in addresses:
            shards[rng.randrange(3)].append(addr)
        parts = [aggregate(shard, meta) for shard in shards]
        single = aggregate(addresses, meta)
        def copier(part):  # merge folds into its first table: each use takes a fresh copy
            return lambda: PrefixTable(meta, dict(part.bitmaps))

        a, b, c = map(copier, parts)
        assert reduce(merge, [a(), b(), c()]).bitmaps == single.bitmaps
        assert merge(a(), b()).bitmaps == merge(b(), a()).bitmaps
        assert merge(merge(a(), b()), c()).bitmaps == merge(a(), merge(b(), c())).bitmaps
        assert merge(a(), a()).bitmaps == parts[0].bitmaps


def test_merge_folds_into_its_first_table():
    meta = make_meta()
    a, b = table_with_counts({1: 5}, meta), table_with_counts({1: 3, 2: 7}, meta)
    b_before = dict(b.bitmaps)
    assert merge(a, b) is a
    assert a.bitmaps == {1: b.bitmaps[1] | (1 << 5) - 1, 2: b.bitmaps[2]} and b.bitmaps == b_before


def test_distinct_address_count_matches_naive_oracle():
    rng = random.Random(99)
    meta = make_meta()
    for _ in range(20):
        addresses = [rng.getrandbits(24) for _ in range(2000)]
        table = aggregate(addresses, meta)
        stats = classify(table)
        assert sum(stats.counts) == len(set(addresses))


def test_threshold_derivation():
    assert HrpThreshold(0.90).min_count == 231
    assert HrpThreshold(0.95).min_count == 244
    assert HrpThreshold(1.0).min_count == 256
    assert HrpThreshold(0.004).min_count == 2
    with pytest.raises(ValueError):
        HrpThreshold(0.0)
    with pytest.raises(ValueError):
        HrpThreshold(1.5)


def _reference_threshold(fraction: float) -> int | None:
    """The threshold rule on the fraction's shortest decimal text: its count, or None when the
    text has more than six decimals."""
    exact = Fraction(str(fraction))
    return math.ceil(exact * 256) if (exact * 10**6).denominator == 1 else None


@given(st.floats(0, 1, exclude_min=True) | st.integers(1, 10**6).map(lambda n: n / 10**6)
       | st.integers(1, 10**7).map(lambda n: n / 10**7))
@example(1e-06)
@example(1e-07)
@example(0.9)
@example(0.95)
@example(1.0)
@example(0.1234565)
def test_threshold_matches_the_exact_decimal_rule(fraction):
    want = _reference_threshold(fraction)
    if want is None:
        with pytest.raises(ValueError, match="at most six decimals"):
            HrpThreshold(fraction)
    else:
        assert HrpThreshold(fraction).min_count == want


def _flags(stats: PrefixStats) -> dict[int, bool]:
    return dict(zip(stats.prefixes, stats.is_hrp))


def test_classification_boundaries():
    table = table_with_counts({1: 231, 2: 230, 3: 244, 4: 243})
    at_90 = _flags(classify(table, HrpThreshold(0.90)))
    assert at_90[1] is True
    assert at_90[2] is False
    at_95 = _flags(classify(table, HrpThreshold(0.95)))
    assert at_95[3] is True
    assert at_95[4] is False
    assert at_95[1] is False  # 231 < 244


def test_classify_is_repeatable_and_ordered():
    table = table_with_counts({5: 3, 2: 250, 9: 256})
    first = classify(table)
    second = classify(table)
    assert first == second
    assert list(first.prefixes) == [2, 5, 9]
    buffer_a, buffer_b = io.StringIO(), io.StringIO()
    write_prefix_stats_csv(first, buffer_a)
    write_prefix_stats_csv(second, buffer_b)
    assert buffer_a.getvalue() == buffer_b.getvalue()


def test_threshold_monotonicity_on_random_tables():
    rng = random.Random(5)
    for _ in range(50):
        counts = {p: rng.choice([1, 8, 100, 229, 230, 231, 243, 244, 255, 256]) for p in range(40)}
        table = table_with_counts(counts)
        f1, f2 = sorted((rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)))
        low = hrp_set(classify(table, HrpThreshold(round(f1, 4))))
        high = hrp_set(classify(table, HrpThreshold(round(f2, 4))))
        assert high <= low


def test_histogram_two_prefixes():
    stats = classify(table_with_counts({1: 3, 2: 256}))
    hist = responsiveness_histogram(stats)
    assert hist.total_prefixes == 2
    assert hist.total_addresses == 259
    assert hist.address_count[256] / hist.total_addresses == 256 / 259


def test_histogram_planted_corpus():
    counts = {p: 8 for p in range(978)}
    counts.update({10_000 + p: 256 for p in range(22)})
    stats = classify(table_with_counts(counts))
    # Oracle: brute-force sums over the construction.
    expected_total = 978 * 8 + 22 * 256
    expected_hrp = 22 * 256
    assert expected_total == 13456 and expected_hrp == 5632
    assert hrp_address_share(stats) == expected_hrp / expected_total
    hist = responsiveness_histogram(stats)
    assert hist.prefix_count[8] == 978
    assert hist.prefix_count[256] == 22
    assert sum(hist.address_count[231:]) == expected_hrp


def test_histogram_single_prefix():
    hist = responsiveness_histogram(classify(table_with_counts({1: 1})))
    assert hist.cumulative_prefix_share[1] == 1.0
    assert hist.cumulative_address_share[1] == 1.0


_EMPTY = classify(aggregate([], make_meta()))


def test_histogram_empty_input():
    hist = responsiveness_histogram(_EMPTY)
    assert hist.total_prefixes == 0
    assert hist.total_addresses == 0
    assert set(hist.cumulative_prefix_share) == {0.0}
    assert set(hist.cumulative_address_share) == {0.0}


def test_histogram_totals_invariant():
    rng = random.Random(31)
    for _ in range(20):
        counts = {p: rng.randrange(1, 257) for p in range(rng.randrange(1, 60))}
        stats = classify(table_with_counts(counts))
        hist = responsiveness_histogram(stats)
        assert sum(hist.prefix_count) == len(counts)
        assert sum(hist.address_count) == sum(counts.values())
        assert hist.cumulative_prefix_share[256] == 1.0
        assert hist.cumulative_address_share[256] == 1.0
        shares = hist.cumulative_address_share
        assert all(shares[i] <= shares[i + 1] + 1e-15 for i in range(256))


def test_hrp_address_share_examples():
    # One fully responsive /24 plus 744 scattered addresses.
    counts = {0: 256}
    counts.update({p + 1: 8 for p in range(93)})  # 93 * 8 = 744
    stats = classify(table_with_counts(counts))
    assert hrp_address_share(stats) == 256 / 1000
    no_hrps = classify(table_with_counts({1: 10, 2: 20}))
    assert hrp_address_share(no_hrps) == 0.0
    all_hrps = classify(table_with_counts({1: 256, 2: 231}))
    assert hrp_address_share(all_hrps) == 1.0
    assert hrp_address_share(_EMPTY) == 0.0


def test_csv_roundtrip_is_stable():
    stats = classify(table_with_counts({0xC63364: 231, 0xCB0071: 12}), HrpThreshold(0.90))
    first = io.StringIO()
    write_prefix_stats_csv(stats, first)
    parsed = read_prefix_stats(io.StringIO(first.getvalue()))
    second = io.StringIO()
    write_prefix_stats_csv(parsed, second)
    assert first.getvalue() == second.getvalue()
    assert first.getvalue().splitlines()[0] == "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix"


def test_jsonl_lines_carry_the_csv_field_names():
    stats = classify(table_with_counts({0xC63364: 231}))
    out = io.StringIO()
    write_prefix_stats_jsonl(stats, out)
    record = json.loads(out.getvalue().splitlines()[0])
    assert list(record) == [
        "prefix", "port", "proto", "count", "is_hrp",
        "threshold_fraction", "origin_asn", "covering_prefix",
    ]
    assert record["prefix"] == "198.51.100.0/24"
    assert record["is_hrp"] is True
    assert record["origin_asn"] is None


def test_read_prefix_stats_rejects_mixed_ports():
    text = (
        "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix\n"
        "1.2.3.0/24,443,tcp,5,false,0.900000,,\n"
        "1.2.4.0/24,80,tcp,5,false,0.900000,,\n"
    )
    with pytest.raises(ValueError, match="mismatch"):
        read_prefix_stats(io.StringIO(text))


_STATS_HEADER = "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix\n"
_GOOD_ROW = "1.2.3.0/24,443,tcp,240,true,0.900000,64500,1.2.0.0/16\n"


@pytest.mark.parametrize("row", [
    "1.2.4.0/24,443,tcp,999,true,0.900000,,",  # count above 256
    "1.2.4.0/24,443,tcp,0,false,0.900000,,",  # empty /24s are never written
    "1.2.4.0/24,443,tcp,-3,false,0.900000,,",
    "1.2.4.0/24,443,tcp,many,false,0.900000,,",
    "1.2.4.0/24,443,tcp,240,True,0.900000,,",  # not exactly true/false
    "1.2.4.0/24,443,tcp,240,yes,0.900000,,",
    "1.2.4.0/24,443,tcp,240,false,0.900000,,",  # disagrees with 240 >= 231
    "1.2.4.0/24,443,tcp,230,true,0.900000,,",  # disagrees with 230 < 231
    "1.2.4.0/24,443,tcp,5,false,0,,",  # fraction outside (0, 1]
    "1.2.4.0/24,443,tcp,5,false,1.5,,",
    "1.2.4.0/24,443,tcp,5,false,-0.1,,",
    "1.2.4.0/24,443,tcp,5,false,nan,,",
    "1.2.4.0/24,443,tcp,5,false,inf,,",  # fraction not ASCII digits with an optional point
    "1.2.4.0/24,443,tcp,5,false,0.9_0,,",
    "1.2.4.0/24,443,tcp,5,false,+0.9,,",
    "1.2.4.0/24,443,tcp,5,false,9e-1,,",
    "1.2.4.0/24,443,tcp,5,false,.9,,",
    "1.2.4.0/24,443,tcp,5,false,\u0660.\u0669,,",
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.256/16",  # bad covering address
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.0/33",  # covering length out of range
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.0",
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.4.0/16",  # host bits set
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.0/016",  # non-canonical covering length
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.0/+16",
    "1.2.4.0/24,443,tcp,5,false,0.900000,,0.0.0.0/-0",
    "1.2.4.0/24,443,tcp,5,false,0.900000,,1.2.0.0/\u0661\u0666",
    "1.2.4.0/24,443,tcp,5,false,0.900000,-5,",  # origin ASN not ASCII digits in range
    "1.2.4.0/24,443,tcp,5,false,0.900000,+64500,",
    "1.2.4.0/24,443,tcp,5,false,0.900000,6_4500,",
    "1.2.4.0/24,443,tcp,5,false,0.900000,\u0666\u0664\u0665\u0660\u0660,",
    "1.2.4.0/24,443,tcp,5,false,0.900000,4294967296,",
    "1.2.4.0/24,443,tcp,5,false,0.900000, ,",
    "1.2.4.0/024,443,tcp,5,false,0.900000,,",  # non-canonical prefix
    "1.2.4.0/255.255.255.0,443,tcp,5,false,0.900000,,",
])
def test_read_prefix_stats_rejects_invalid_rows_naming_the_line(row):
    text = _STATS_HEADER + _GOOD_ROW + row + "\n"
    with pytest.raises(ValueError, match="^line 3: "):
        read_prefix_stats(io.StringIO(text))


def test_read_prefix_stats_accepts_boundaries():
    text = _STATS_HEADER + (
        "1.2.3.0/24,443,tcp,1,false,0.900000,,0.0.0.0/0\n"
        "1.2.4.0/24,443,tcp,256,true,1,,1.2.4.0/24\n"
        "1.2.5.0/24,443,tcp,231,true,0.900000,,1.2.5.128/32\n"
    )
    stats = read_prefix_stats(io.StringIO(text))
    assert list(stats.counts) == [1, 256, 231]
    assert stats.is_hrp == [False, True, True]
    assert stats.covering_routes == [(0, 0), (0x01020400, 24), (0x01020580, 32)]


def test_read_prefix_stats_reads_each_spelling_of_a_fraction():
    text = _STATS_HEADER + "".join(
        f"1.2.{n}.0/24,443,tcp,240,{hrp},{fraction},,\n"
        for n, (fraction, hrp) in enumerate([("0.90", "true"), ("1", "false"), ("1.0", "false"),
                                              (" 0.900000 ", "true"), ("0.900000", "true")])
    )
    stats = read_prefix_stats(io.StringIO(text))
    assert [threshold.fraction for threshold in stats.thresholds] == [0.9, 1.0, 1.0, 0.9, 0.9]


def test_read_prefix_stats_strips_origin_and_covering_fields():
    text = _STATS_HEADER + (
        "1.2.3.0/24,443,tcp,1,false,0.900000, 4294967295 , 1.2.0.0/16 \n"
        "1.2.4.0/24,443,tcp,1,false,0.900000,0,1.2.4.0/24\n"
    )
    stats = read_prefix_stats(io.StringIO(text))
    assert list(zip(stats.origin_asns, stats.covering_routes)) == [
        (2**32 - 1, (0x01020000, 16)), (0, (0x01020400, 24))]


def test_read_prefix_stats_shares_one_threshold_per_fraction():
    stats = classify(table_with_counts({p: 5 + p for p in range(1, 50)}), HrpThreshold(0.90))
    out = io.StringIO()
    write_prefix_stats_csv(stats, out)
    parsed = read_prefix_stats(io.StringIO(out.getvalue()))
    assert len({id(threshold) for threshold in parsed.thresholds}) == 1
    assert parsed.thresholds[0] == HrpThreshold(0.90)


# --- a table holds one scan: one meta, each /24 once, columns of one length ------------------

_T90 = HrpThreshold(0.90)


def _table(meta, prefixes, counts, thresholds=None) -> PrefixStats:
    rows = len(prefixes)
    return PrefixStats(meta, array("I", prefixes), array("H", counts),
                       thresholds or [_T90] * rows, [None] * rows, [None] * rows)


def test_classify_gives_an_empty_scan_no_meta():
    assert _EMPTY.meta is None and len(_EMPTY) == 0
    assert _EMPTY == _table(None, [], [])
    assert classify(table_with_counts({1: 5})).meta == make_meta()


def test_a_table_repeating_a_prefix_is_rejected():
    # As rows, the same /24 twice gave one port ports_responsive=2 and counted its addresses twice.
    with pytest.raises(ValueError, match=r"^repeated prefix 0\.0\.1\.0/24$"):
        _table(make_meta(), [1, 1], [240, 240])
    with pytest.raises(ValueError, match="repeated prefix 0.0.1.0/24"):
        _table(make_meta(), [1, 1, 2], [240, 240, 10])


@pytest.mark.parametrize("column", ["prefixes", "counts", "thresholds", "origin_asns", "covering_routes"])
def test_a_table_with_columns_of_unequal_length_is_rejected(column):
    table = _table(make_meta(), [1, 2], [240, 10])
    columns = dict(vars(table))
    columns[column] = columns[column] * 2
    with pytest.raises(ValueError, match="unequal length"):
        PrefixStats(**columns)


def test_a_table_whose_meta_disagrees_with_its_rows_is_rejected():
    with pytest.raises(ValueError, match="meta must be None exactly when the table has no rows"):
        _table(None, [1], [240])
    with pytest.raises(ValueError, match="meta must be None exactly when the table has no rows"):
        _table(make_meta(), [], [])


def test_a_table_has_one_meta_and_no_per_row_meta_or_flag():
    # Rows of one scan could mix tcp/443 and tcp/80; a table has one meta for all of its rows.
    assert list(vars(_table(make_meta(), [1], [240]))) == [
        "meta", "prefixes", "counts", "thresholds", "origin_asns", "covering_routes"]


def test_is_hrp_follows_each_rows_count_and_threshold():
    table = _table(make_meta(), [1, 2, 3, 4], [231, 231, 244, 243],
                   [_T90, HrpThreshold(0.95), HrpThreshold(0.95), HrpThreshold(0.95)])
    assert table.is_hrp == [True, False, True, False]
    assert hrp_set(table) == {1, 3}
    assert hrp_address_share(table) == (231 + 244) / (231 + 231 + 244 + 243)
