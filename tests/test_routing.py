"""Route snapshot loading, longest-prefix match, enrichment, AS rollups."""

from __future__ import annotations

import io
import ipaddress
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from hrpkit import ingest, routing
from hrpkit.ingest import BLOCK_LINES, parse_ipv4
from hrpkit.prefixes import classify
from hrpkit.routing import (
    MASKS,
    LENIENT,
    STRICT,
    RouteLoadStats,
    RouteParseError,
    RoutingTable,
    as_summary,
    enrich,
    load_route_table,
)

from conftest import make_meta, rows, table_with_counts, with_line_ends


def _table(lines: str, policy: str = LENIENT) -> RoutingTable:
    return load_route_table(io.StringIO(lines), policy)


def test_load_single_entry():
    table = _table("10.0.0.0/8,64500\n")
    assert len(table) == 1
    assert table.load_stats.entries_loaded == 1


def test_host_bits_strict_vs_lenient():
    with pytest.raises(RouteParseError):
        _table("10.0.0.1/8,64500\n", STRICT)
    table = _table("10.0.0.1/8,64500\n", LENIENT)
    assert table.routes == {8: {parse_ipv4("10.0.0.0"): 64500}}
    assert table.load_stats.normalized_lines == 1


def test_conflicting_duplicate_strict_vs_lenient():
    text = "10.0.0.0/8,64500\n10.0.0.0/8,64501\n"
    with pytest.raises(RouteParseError):
        _table(text, STRICT)
    table = _table(text, LENIENT)
    assert table.lookup(parse_ipv4("10.1.2.3")) == (parse_ipv4("10.0.0.0"), 8, 64500)  # first kept
    assert table.load_stats.duplicate_conflicts == 1


def test_exact_repeats_are_counted_not_fatal():
    table = _table("10.0.0.0/8,64500\n10.0.0.0/8,64500\n", STRICT)
    assert len(table) == 1
    assert table.load_stats.duplicate_repeats == 1


def test_malformed_lines():
    bad = "10.0.0.0/33,64500\nfoo\n10.0.0.0/8\n10.0.0.0/8,AS64500\n"
    with pytest.raises(RouteParseError) as err:
        _table(bad, STRICT)
    assert err.value.line_number == 1
    table = _table(bad, LENIENT)
    assert len(table) == 0
    assert table.load_stats.invalid_lines == 4


@pytest.mark.parametrize("line", [
    "10.0.0.0/-0,64500",  # non-canonical length
    "10.0.0.0/08,64500",
    "10.0.0.0/+8,64500",
    "10.0.0.0/\u0668,64500",
    "10.0.0.0/ 8,64500",  # whitespace inside a field
    "10.0.0.0 /8,64500",
    "10.0.0.0/8,+64500",  # ASN not ASCII digits in 0-4294967295
    "10.0.0.0/8,-1",
    "10.0.0.0/8,6_4500",
    "10.0.0.0/8,\u0666\u0664\u0665\u0660\u0660",
    "10.0.0.0/8,4294967296",
])
def test_non_canonical_lengths_and_asns_are_invalid(line):
    text = "192.0.2.0/24,64496\n" + line + "\n"
    table = _table(text, LENIENT)
    assert len(table) == 1
    assert table.load_stats.invalid_lines == 1
    with pytest.raises(RouteParseError, match="^line 2: invalid route line") as err:
        _table(text, STRICT)
    assert err.value.line_number == 2


def test_whitespace_around_fields_is_tolerated():
    table = _table(" 10.0.0.0/8 ,\t4294967295 \n10.1.0.0/16, 064500\n", STRICT)
    assert table.routes == {8: {parse_ipv4("10.0.0.0"): 2**32 - 1}, 16: {parse_ipv4("10.1.0.0"): 64500}}


def test_comments_and_blank_lines():
    table = _table("# snapshot 2022-08-01\n\n10.0.0.0/8,64500\n")
    assert len(table) == 1
    assert table.load_stats.comment_lines == 2


def test_lookup_prefers_longer_match():
    table = _table("10.0.0.0/8,64500\n10.1.0.0/16,64501\n")
    assert table.lookup(parse_ipv4("10.1.2.3")) == (parse_ipv4("10.1.0.0"), 16, 64501)
    assert table.lookup(parse_ipv4("10.2.3.4")) == (parse_ipv4("10.0.0.0"), 8, 64500)
    assert table.lookup(parse_ipv4("192.0.2.1")) is None


def test_default_route_catches_everything():
    table = _table("0.0.0.0/0,64496\n10.0.0.0/8,64500\n")
    assert table.lookup(parse_ipv4("192.0.2.1")) == (0, 0, 64496)
    assert table.lookup(parse_ipv4("10.9.9.9"))[2] == 64500


def test_lookup_returns_a_plain_tuple_or_none():
    table = _table("10.0.0.0/8,64500\n")
    hit = table.lookup(parse_ipv4("10.1.2.3"))
    assert type(hit) is tuple and hit == (parse_ipv4("10.0.0.0"), 8, 64500)
    assert table.lookup(parse_ipv4("11.0.0.0")) is None


def test_a_table_is_built_from_its_routes_map():
    empty = RoutingTable()
    assert (empty.routes, len(empty), empty.lookup(0), empty.split_slash24s()) == ({}, 0, None, frozenset())
    assert empty.load_stats == RouteLoadStats()
    routes = {8: {parse_ipv4("10.0.0.0"): 64500}, 25: {parse_ipv4("10.1.2.128"): 64501}}
    table = RoutingTable(routes)
    assert table.routes is routes and len(table) == 2
    assert table.lookup(parse_ipv4("10.1.2.200")) == (parse_ipv4("10.1.2.128"), 25, 64501)
    assert table.lookup(parse_ipv4("10.1.2.1")) == (parse_ipv4("10.0.0.0"), 8, 64500)
    assert table.split_slash24s() == frozenset({parse_ipv4("10.1.2.0") >> 8})
    assert _table("10.0.0.0/8,64500\n10.1.2.128/25,64501\n").routes == routes


def test_a_routing_table_has_only_its_four_methods():
    methods = {name for name, value in vars(RoutingTable).items() if callable(value)}
    assert methods == {"__init__", "__len__", "lookup", "split_slash24s"}
    assert not hasattr(routing, "RouteEntry")


def _brute_force(entries: list[tuple[int, int, int]], addr: int) -> tuple[int, int, int] | None:
    """The (network, length, ASN) entry of maximal length that covers addr, or None."""
    best = None
    for entry in entries:
        network, length, _ = entry
        if addr & MASKS[length] == network:
            if best is None or length > best[1]:
                best = entry
    return best


def test_lookup_matches_brute_force():
    rng = random.Random(2023)
    for _ in range(10):
        routes: dict[int, dict[int, int]] = {}
        entries = []
        seen = set()
        while len(entries) < 200:
            length = rng.randrange(0, 33)
            network = rng.getrandbits(32) & MASKS[length]
            if (network, length) in seen:
                continue
            seen.add((network, length))
            entry = (network, length, rng.randrange(1, 1 << 17))
            routes.setdefault(length, {})[network] = entry[2]
            entries.append(entry)
        table = RoutingTable(routes)
        for _ in range(2000):
            addr = rng.getrandbits(32)
            assert table.lookup(addr) == _brute_force(entries, addr)


def test_enrich_sets_origin_and_covering_route():
    table = _table("10.0.0.0/8,64500\n10.1.0.0/16,64501\n")
    stats = classify(table_with_counts({parse_ipv4("10.1.2.0") >> 8: 256,
                                        parse_ipv4("192.0.2.0") >> 8: 10}))
    enriched = enrich(stats, table)
    by_prefix = {s.prefix: s for s in rows(enriched)}
    hit = by_prefix[parse_ipv4("10.1.2.0") >> 8]
    assert hit.origin_asn == 64501
    assert hit.covering_route == (parse_ipv4("10.1.0.0"), 16)
    miss = by_prefix[parse_ipv4("192.0.2.0") >> 8]
    assert miss.origin_asn is None and miss.covering_route is None


def test_enrich_with_empty_table_is_identity():
    stats = classify(table_with_counts({1: 5}))
    assert enrich(stats, RoutingTable()) == stats


def test_enrich_preserves_counts_and_flags():
    rng = random.Random(77)
    table = _table("0.0.0.0/0,64496\n10.0.0.0/8,64500\n")
    counts = {rng.getrandbits(24): rng.randrange(1, 257) for _ in range(50)}
    stats = classify(table_with_counts(counts))
    for before, after in zip(rows(stats), rows(enrich(stats, table))):
        assert before.responsive_count == after.responsive_count
        assert before.is_hrp == after.is_hrp
        assert after.origin_asn is not None  # default route covers all


def test_split_slash24_detection():
    table = _table("10.0.0.0/8,64500\n10.1.2.128/25,64501\n")
    split = table.split_slash24s()
    assert parse_ipv4("10.1.2.0") >> 8 in split
    assert parse_ipv4("10.1.3.0") >> 8 not in split


def test_as_summary_share():
    table = _table("10.0.0.0/8,64500\n")
    counts = {(parse_ipv4("10.0.0.0") >> 8) + i: (256 if i < 9 else 3) for i in range(10)}
    stats = enrich(classify(table_with_counts(counts)), table)
    (summary,) = as_summary([stats])
    assert summary.asn == 64500
    assert summary.visible_24s == 10
    assert summary.hrp_count == 9
    assert summary.hrp_share == 0.9


def test_as_summary_ports_visible_vs_hrp_ports():
    table = _table("10.0.0.0/8,64500\n")
    prefix = parse_ipv4("10.0.0.0") >> 8
    on_443 = enrich(classify(table_with_counts({prefix: 256}, make_meta(port=443))), table)
    on_80 = enrich(classify(table_with_counts({prefix: 10}, make_meta(port=80))), table)
    (summary,) = as_summary([on_443, on_80])
    assert summary.ports_visible == 2
    assert summary.ports_with_hrps == 1
    assert summary.visible_24s == 1  # same /24 on both ports counts once


def test_as_summary_reproduces_planted_ratios():
    # Shape of a top-AS row: 3.1k visible /24s of which 3.048k are HRPs.
    table = _table("10.0.0.0/8,64500\n172.16.0.0/12,64510\n")
    base = parse_ipv4("10.0.0.0") >> 8
    counts = {base + i: (256 if i < 3048 else 2) for i in range(3100)}
    other = parse_ipv4("172.16.0.0") >> 8
    counts[other] = 256
    stats = enrich(classify(table_with_counts(counts)), table)
    summaries = {s.asn: s for s in as_summary([stats])}
    # Oracle: plain dict recount over the same stats.
    visible: dict[int, set] = {}
    hrps: dict[int, set] = {}
    for s in rows(stats):
        visible.setdefault(s.origin_asn, set()).add(s.prefix)
        if s.is_hrp:
            hrps.setdefault(s.origin_asn, set()).add(s.prefix)
    assert summaries[64500].visible_24s == len(visible[64500]) == 3100
    assert summaries[64500].hrp_count == len(hrps[64500]) == 3048
    assert summaries[64500].hrp_share == 3048 / 3100
    assert summaries[64510].hrp_share == 1.0
    # Ordered by HRP count, descending.
    assert [s.asn for s in as_summary([stats])] == [64500, 64510]
    # Every enriched prefix is accounted for.
    assert sum(s.visible_24s for s in as_summary([stats])) == len(
        {s.prefix for s in rows(stats) if s.origin_asn is not None}
    )


# --- differential tests against per-line and brute-force references ------


def _reference_load(lines, policy: str) -> tuple[dict[int, dict[int, int]], RouteLoadStats]:
    """The snapshot grammar, one line at a time, with ipaddress parsing the
    network: the routes map, ``{length: {network: asn}}``, and its accounting."""
    routes: dict[int, dict[int, int]] = {}
    stats = RouteLoadStats()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.decode("utf-8", "replace") if isinstance(raw, bytes) else raw
        stats.lines_read += 1
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            stats.comment_lines += 1
            continue
        route = _reference_route(stripped)
        if route is None:
            if policy == STRICT:
                raise RouteParseError("invalid", line_number)
            stats.invalid_lines += 1
            continue
        network, length, asn = route
        if network & MASKS[length] != network:
            if policy == STRICT:
                raise RouteParseError("host bits", line_number)
            stats.normalized_lines += 1
            network &= MASKS[length]
        existing = routes.get(length, {}).get(network)
        if existing is None:
            routes.setdefault(length, {})[network] = asn
            stats.entries_loaded += 1
        elif existing == asn:
            stats.duplicate_repeats += 1
        elif policy == STRICT:
            raise RouteParseError("conflict", line_number)
        else:
            stats.duplicate_conflicts += 1
    return routes, stats


def _reference_route(line: str) -> tuple[int, int, int] | None:
    fields = [field.strip() for field in line.split(",")]
    if len(fields) != 2 or fields[0].count("/") != 1:
        return None
    address, length = fields[0].split("/")
    asn = fields[1]
    if not re.fullmatch(r"0|[1-9][0-9]?", length) or int(length) > 32:
        return None
    if not re.fullmatch(r"[0-9]+", asn) or int(asn) >= 2**32:
        return None
    try:
        network = int(ipaddress.IPv4Address(address))
    except ValueError:
        return None
    return network, int(length), int(asn)


# A few networks and ASNs so that repeats, conflicts and host bits are common.
_NETWORKS = ["10.0.0.0", "10.1.0.0", "10.1.2.3", "192.0.2.128", "0.0.0.0", "255.255.255.255"]
_ODD_FIELDS = ["", " ", "08", "+8", "-0", "33", "\u0668", "+1", "1_0", "-1", "4294967296",
               "4294967295", "1.2.3", "01.2.3.4", "1.2.3.4 /8", "a", "/", ",", "1\r0"]


@st.composite
def _route_lines(draw):
    kind = draw(st.sampled_from(["route", "route", "route", "odd", "text", "comment", "blank"]))
    if kind == "route" or kind == "odd":
        network = draw(st.sampled_from(_NETWORKS) | st.integers(0, 2**32 - 1).map(
            lambda v: str(ipaddress.IPv4Address(v))))
        length = str(draw(st.sampled_from([0, 8, 16, 24, 25, 32]) | st.integers(0, 32)))
        asn = str(draw(st.sampled_from([0, 1, 64500, 2**32 - 1])))
        if kind == "odd":
            field = draw(st.sampled_from(["network", "length", "asn"]))
            odd = draw(st.sampled_from(_ODD_FIELDS))
            network, length, asn = (odd if f == field else v for f, v in (
                ("network", network), ("length", length), ("asn", asn)))
        pad, inner = (draw(st.sampled_from(["", "", " ", "\t"])) for _ in range(2))
        line = f"{pad}{network}{inner}/{length}{pad},{pad}{asn}{pad}"
    elif kind == "text":
        line = draw(st.text(alphabet="0123456789./,# x+-\u0660", max_size=24))
    elif kind == "comment":
        line = draw(st.sampled_from(["#", "# note", "  # indented"]))
    else:
        line = draw(st.sampled_from(["", "  ", "\t"]))
    line += draw(st.sampled_from(["\n", "\r\n", ""]))
    if draw(st.booleans()):
        return line
    return line.encode("utf-8") + draw(st.sampled_from([b"", b"\xff"]))


@given(st.lists(_route_lines(), max_size=40), st.sampled_from([1, 2, 3, 8, BLOCK_LINES]))
@example(["10.0.0.0/8,1\n", "10.0.0.1/8,1\n", "10.0.0.0/8,2\n", b"\xff\n", "# c\n", "\n"], BLOCK_LINES)
@example(["10.0.0.0/8,1\n", "10.0.0.0/8,+5\n", "10.1.0.0/16,2\n", "10.0.0.0/8,1_0\n"], 2)
@example(["10.0.0.0/8,1\r0\n", "10.1.0.0/16,2\r\n"], 2)
def test_loader_matches_per_line_reference(lines, block):
    """Read in blocks of the loader's size, or so small that odd lines fall on and across their
    boundaries."""
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        _check_loader_matches_per_line_reference(lines)


def _check_loader_matches_per_line_reference(lines):
    got = load_route_table(lines, LENIENT)
    assert (got.routes, got.load_stats) == _reference_load(lines, LENIENT)
    s = got.load_stats
    assert s.lines_read == len(lines) == (s.entries_loaded + s.comment_lines + s.invalid_lines
                                          + s.duplicate_conflicts + s.duplicate_repeats)
    assert len(got) == s.entries_loaded
    try:
        strict = load_route_table(lines, STRICT)
    except RouteParseError as err:
        with pytest.raises(RouteParseError) as want_err:
            _reference_load(lines, STRICT)
        assert err.line_number == want_err.value.line_number
        assert str(err).startswith(f"line {err.line_number}: ")
    else:
        assert strict.routes == _reference_load(lines, STRICT)[0]


def test_strict_names_a_host_bit_line_before_an_unparsable_one():
    """The host-bit line is reported, though the unparsable line after it keeps their plainly
    written block from parsing in columns."""
    lines = ["10.0.0.0/8,1\n", "10.1.0.1/16,2\n", "10.2.0.0/16,3\n", "300.0.0.0/8,4\n", "10.3.0.0/16,5\n"]
    with pytest.raises(RouteParseError, match=r"^line 2: host bits set in prefix: '10\.1\.0\.1/16,2'$"):
        load_route_table(lines, STRICT)
    lenient = load_route_table(lines, LENIENT).load_stats
    assert (lenient.entries_loaded, lenient.normalized_lines, lenient.invalid_lines) == (4, 1, 1)


@pytest.mark.parametrize("asn", ["+5", "1_0", "٥", "4294967296", "00000000005"])
def test_asn_that_int_takes_but_parse_asn_refuses_is_invalid_in_a_plain_block(asn):
    lines = [f"10.{i}.0.0/16,{i}\n" for i in range(6)]
    lines[3] = f"10.0.0.0/8,{asn}\n"
    if asn == "00000000005":  # zero-padded past ten digits: still AS5, read a line at a time
        assert load_route_table(lines, STRICT).routes[8] == {0x0A000000: 5}
        return
    table = load_route_table(lines, LENIENT)
    assert (len(table), table.load_stats.invalid_lines) == (5, 1)
    message = f"line 4: invalid route line: {lines[3].strip()!r}"
    with pytest.raises(RouteParseError, match=f"^{re.escape(message)}$"):
        load_route_table(lines, STRICT)


_lengths = st.sampled_from([0, 8, 16, 23, 24]) | st.integers(25, 32) | st.integers(0, 32)


@st.composite
def _tables_and_stats(draw):
    keys = draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), _lengths), max_size=30))
    if draw(st.booleans()):
        keys.append((0, 0))  # default route
    routes: dict[int, dict[int, int]] = {}
    entries = []
    for address, length in keys:
        network = address & MASKS[length]
        nets = routes.setdefault(length, {})
        if network not in nets:
            entry = (network, length, draw(st.integers(0, 2**32 - 1)))
            nets[network] = entry[2]
            entries.append(entry)
    # Stats at random /24s and at /24s inside the routes, so more-specifics hit.
    near = [network >> 8 for network, _, _ in entries]
    prefixes = draw(st.lists(st.integers(0, 2**24 - 1) | (st.sampled_from(near) if near else st.nothing()),
                             max_size=30))
    stats = classify(table_with_counts({p: 1 + p % 256 for p in prefixes}))
    return RoutingTable(routes), entries, stats


@given(_tables_and_stats())
def test_enrich_and_split_match_brute_force(case):
    table, entries, stats = case
    expected = []
    for s in rows(stats):
        best = _brute_force(entries, s.prefix << 8)
        expected.append(s if best is None else s._replace(origin_asn=best[2], covering_route=best[:2]))
    assert rows(enrich(stats, table)) == expected
    assert table.split_slash24s() == frozenset(network >> 8 for network, length, _ in entries if length > 24)


def _route_outcome(lines, policy: str, block: int):
    """The loaded entries and accounting, or the error's line and message."""
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        try:
            table = load_route_table(lines, policy)
        except RouteParseError as exc:
            return exc.line_number, str(exc)
    return table.routes, table.load_stats


@given(st.lists(_route_lines(), max_size=40), st.sampled_from([STRICT, LENIENT]),
       st.sampled_from([1, 3, 8, BLOCK_LINES]))
def test_crlf_line_ends_load_like_lf(lines, policy, block):
    """A snapshot with CRLF line ends loads the entries, accounting and errors of its LF copy."""
    lf, crlf = with_line_ends(lines, "\n"), with_line_ends(lines, "\r\n")
    assert _route_outcome(crlf, policy, block) == _route_outcome(lf, policy, block)
