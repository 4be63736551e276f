"""Scan-file readers: parsing, policies, and line accounting."""

from __future__ import annotations

import io
import ipaddress
import random
import re

import pytest
from hypothesis import given, strategies as st

from hrpkit.ingest import (
    CSV_SADDR,
    LENIENT,
    PLAIN,
    STRICT,
    IngestError,
    format_ipv4,
    format_timestamp,
    open_scan_source,
    parse_asn,
    parse_cidr,
    parse_decimal,
    parse_ipv4,
    parse_timestamp,
    parse_uint,
)

from conftest import EPOCH, make_meta


def _read_scan(text: str, fmt: str, policy: str = LENIENT):
    """The addresses of a scan file's text, and its line accounting."""
    addresses, stats = open_scan_source(io.StringIO(text), fmt, policy)
    return list(addresses), stats


_LAYOUTS = {PLAIN: "", CSV_SADDR: "saddr\n"}  # format -> the lines before its rows


@pytest.mark.parametrize("fmt", _LAYOUTS)
def test_parse_plain_address(fmt):
    addresses, stats = _read_scan(_LAYOUTS[fmt] + "198.51.100.7\n", fmt)
    assert addresses == [0xC6336407]
    assert stats.invalid_lines == 0


@pytest.mark.parametrize("fmt", _LAYOUTS)
def test_parse_octet_out_of_range_is_invalid(fmt):
    addresses, stats = _read_scan(_LAYOUTS[fmt] + "999.1.1.1\n", fmt)
    assert addresses == []
    assert stats.invalid_lines == 1


def test_parse_csv_row_extracts_saddr_column():
    addresses, _ = _read_scan("saddr,sport,classification\n198.51.100.7,443,synack\n", CSV_SADDR)
    assert addresses == [0xC6336407]
    addresses, _ = _read_scan("classification,saddr,sport\nsynack,198.51.100.7,443\n", CSV_SADDR)
    assert addresses == [0xC6336407]


def test_invalid_address_forms():
    for bad in ("", "1.2.3", "1.2.3.4.5", "a.b.c.d", "01.2.3.4", "2001:db8::1"):
        assert parse_ipv4(bad) is None, bad


def _oracle_ipv4(text: str) -> int | None:
    try:
        return int(ipaddress.IPv4Address(text))
    except ValueError:
        return None


# Octet texts the oracle rejects: leading zeros, out of range, non-ASCII
# digits, whitespace, signs, other bases, digit separators, empty.
_ODD_OCTETS = ["00", "01", "007", "256", "999", "1000", "\uff11", "\u0663", " 1", "1 ", "+1", "-1",
               "0x1", "1_0", "", "1\n"]
_octets = st.one_of(st.integers(0, 255).map(str), st.sampled_from(_ODD_OCTETS))


@given(st.text())
def test_parse_ipv4_matches_ipaddress_on_any_text(text):
    assert parse_ipv4(text) == _oracle_ipv4(text)


@given(st.text(alphabet="0123456789./ x+-", max_size=20))
def test_parse_ipv4_matches_ipaddress_on_address_like_text(text):
    assert parse_ipv4(text) == _oracle_ipv4(text)


@given(st.lists(_octets, min_size=3, max_size=5))
def test_parse_ipv4_matches_ipaddress_on_dotted_octets(octets):
    text = ".".join(octets)
    assert parse_ipv4(text) == _oracle_ipv4(text)


def test_parse_ipv4_rejects_each_odd_octet():
    for octet in _ODD_OCTETS:
        for position in range(4):
            parts = ["1", "2", "3", "4"]
            parts[position] = octet
            assert parse_ipv4(".".join(parts)) is None, parts


# Length and ASN texts int() accepts that are not canonical ASCII digits.
_ODD_LENGTHS = ["-0", "08", "+8", "\u0668", " 8", "8 ", "33", "1_6", "", "0x8"]
_ODD_ASNS = ["+64500", "-1", "6_4500", "\u0666\u0664\u0665\u0660\u0660", " 64500", "64500 ",
             "4294967296", "1" * 5000, "", "0x1"]


def test_parse_cidr_takes_only_canonical_lengths():
    assert [parse_cidr(f"10.0.0.0/{n}") for n in (0, 8, 32)] == [
        (0x0A000000, 0), (0x0A000000, 8), (0x0A000000, 32)]
    for length in _ODD_LENGTHS:
        assert parse_cidr(f"10.0.0.0/{length}") is None, length


def test_parse_asn_takes_only_ascii_digits_in_range():
    texts = ("0", "64500", "064500", "0" * 20 + "64500", "4294967295")
    assert [parse_asn(t) for t in texts] == [0, 64500, 64500, 64500, 2**32 - 1]
    for text in _ODD_ASNS:
        with pytest.raises(ValueError, match="invalid AS number"):
            parse_asn(text)


def _asn_or_none(text):
    try:
        return parse_asn(text)
    except ValueError:
        return None


@given(st.text(alphabet="0123456789+-_ \u0660\u0666", max_size=12))
def test_parse_asn_matches_a_digit_pattern(text):
    expected = int(text) if re.fullmatch(r"[0-9]+", text) and int(text) < 2**32 else None
    assert _asn_or_none(text) == expected


@given(st.text(alphabet="0123456789+-_ \u0660\u0666", max_size=8), st.integers(0, 300), st.integers(0, 300))
def test_parse_uint_matches_a_digit_pattern_in_range(text, low, high):
    expected = int(text) if re.fullmatch(r"[0-9]+", text) and low <= int(text) <= high else None
    try:
        value = parse_uint(text, low, high, "count")
    except ValueError as exc:
        assert str(exc).startswith(f"invalid count {text!r}")
        value = None
    assert value == expected


DECIMAL = re.compile(r"[0-9]+(\.[0-9]+)?")


@given(st.one_of(
    st.text(alphabet="0123456789.+-_eE \u0660\u0669", max_size=10),
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "0x1", "1e-1", ".5", "5.", "0.9\n"]),
    st.from_regex(DECIMAL, fullmatch=True),
))
def test_parse_decimal_matches_its_pattern(text):
    expected = float(text) if DECIMAL.fullmatch(text) else None
    try:
        value = parse_decimal(text, "fraction")
    except ValueError as exc:
        assert str(exc).startswith(f"invalid fraction {text!r}")
        value = None
    assert value == expected


def test_ipv4_roundtrips_exactly():
    rng = random.Random(7)
    for _ in range(1000):
        value = rng.getrandbits(32)
        assert parse_ipv4(format_ipv4(value)) == value


def test_lenient_skips_and_counts_invalid_lines():
    source = io.StringIO("198.51.100.7\nnot-an-ip\n198.51.100.9\n")
    addresses, stats = open_scan_source(source, PLAIN, LENIENT)
    assert list(addresses) == [0xC6336407, 0xC6336409]
    assert stats.lines_read == 3
    assert stats.addresses_emitted == 2
    assert stats.invalid_lines == 1
    assert stats.comment_lines == 0


def test_strict_aborts_with_line_number():
    source = io.StringIO("198.51.100.7\nnot-an-ip\n198.51.100.9\n")
    addresses, _ = open_scan_source(source, PLAIN, STRICT)
    with pytest.raises(IngestError) as err:
        list(addresses)
    assert err.value.line_number == 2


def test_empty_file_gives_empty_stream_and_zero_counters():
    addresses, stats = open_scan_source(io.StringIO(""), PLAIN, LENIENT)
    assert list(addresses) == []
    assert stats.lines_read == 0
    assert stats.addresses_emitted == 0
    assert stats.invalid_lines == 0
    assert stats.comment_lines == 0


def test_comment_lines_are_counted():
    source = io.StringIO("# heading\n198.51.100.7\n")
    addresses, stats = open_scan_source(source)
    assert list(addresses) == [0xC6336407]
    assert stats.comment_lines == 1


def test_csv_saddr_header_and_rows():
    source = io.StringIO("saddr,sport,classification\n198.51.100.7,443,synack\nbad,1,2\n")
    addresses, stats = open_scan_source(source, CSV_SADDR, LENIENT)
    assert list(addresses) == [0xC6336407]
    # The header is a structural line; it lands in the comment counter.
    assert stats.comment_lines == 1
    assert stats.invalid_lines == 1
    assert stats.lines_read == 3


def test_csv_saddr_hash_lines_are_comments_before_and_after_header():
    text = "# zmap output\n  # second note\nsaddr,sport\n198.51.100.7,443\n# trailer\nbad,1\n"
    addresses, stats = open_scan_source(io.StringIO(text), CSV_SADDR, LENIENT)
    assert list(addresses) == [0xC6336407]
    # Three # lines plus the header; the same # rule as plain.
    assert stats.comment_lines == 4
    assert stats.invalid_lines == 1
    assert stats.lines_read == 6
    assert stats.lines_read == stats.addresses_emitted + stats.invalid_lines + stats.comment_lines
    addresses, _ = open_scan_source(io.StringIO(text), CSV_SADDR, STRICT)
    with pytest.raises(IngestError) as err:
        list(addresses)
    assert err.value.line_number == 6


def test_csv_saddr_comment_only_file_is_empty():
    addresses, stats = open_scan_source(io.StringIO("# nothing yet\n"), CSV_SADDR, STRICT)
    assert list(addresses) == []
    assert stats.lines_read == stats.comment_lines == 1


def test_csv_saddr_counters_balance_with_comments_anywhere():
    rng = random.Random(5)
    pieces = ["1.2.3.4,443", "junk,1", "# note", "#1.2.3.4,443", "", " 5.6.7.8 ,80 ", "300.1.1.1,443"]
    for _ in range(50):
        lines = ["# head"] * rng.randrange(0, 3) + ["saddr,sport"]
        lines += [rng.choice(pieces) for _ in range(rng.randrange(0, 40))]
        addresses, stats = open_scan_source(io.StringIO("".join(line + "\n" for line in lines)), CSV_SADDR)
        emitted = list(addresses)
        assert stats.lines_read == len(lines)
        assert stats.lines_read == stats.addresses_emitted + stats.invalid_lines + stats.comment_lines
        assert stats.addresses_emitted == len(emitted)
        assert stats.comment_lines == sum(line.strip().startswith("#") for line in lines) + 1


def test_csv_saddr_other_column_position():
    source = io.StringIO("sport,saddr\n443,198.51.100.7\n")
    addresses, _ = open_scan_source(source, CSV_SADDR)
    assert list(addresses) == [0xC6336407]


def test_csv_without_saddr_column_fails_under_any_policy():
    for policy in (STRICT, LENIENT):
        addresses, _ = open_scan_source(io.StringIO("ip,port\n1.2.3.4,443\n"), CSV_SADDR, policy)
        with pytest.raises(IngestError):
            list(addresses)


def test_bytes_sources_are_decoded():
    source = io.BytesIO(b"198.51.100.7\n198.51.100.8\n")
    addresses, _ = open_scan_source(source)
    assert list(addresses) == [0xC6336407, 0xC6336408]


def test_line_counters_always_balance():
    rng = random.Random(42)
    pieces = ["1.2.3.4", "junk", "# note", "", "10.0.0.255", "300.1.1.1", "  5.6.7.8  "]
    for _ in range(50):
        lines = [rng.choice(pieces) for _ in range(rng.randrange(0, 40))]
        source = io.StringIO("".join(line + "\n" for line in lines))
        addresses, stats = open_scan_source(source, PLAIN, LENIENT)
        emitted = list(addresses)
        assert stats.lines_read == len(lines)
        assert stats.lines_read == stats.addresses_emitted + stats.invalid_lines + stats.comment_lines
        assert stats.addresses_emitted == len(emitted)


def test_lenient_equals_strict_on_clean_input():
    text = "198.51.100.7\n# comment\n198.51.100.8\n"
    lenient, lenient_stats = open_scan_source(io.StringIO(text), PLAIN, LENIENT)
    strict, strict_stats = open_scan_source(io.StringIO(text), PLAIN, STRICT)
    assert list(lenient) == list(strict)
    assert lenient_stats == strict_stats


def test_order_is_preserved():
    values = ["203.0.113.9", "198.51.100.1", "203.0.113.1"]
    addresses, _ = open_scan_source(io.StringIO("\n".join(values) + "\n"))
    assert [format_ipv4(a) for a in addresses] == values


def test_unknown_format_and_policy_rejected():
    with pytest.raises(ValueError):
        open_scan_source(io.StringIO(""), "pcap")
    with pytest.raises(ValueError):
        open_scan_source(io.StringIO(""), PLAIN, "loose")


def test_scan_meta_validation():
    with pytest.raises(ValueError):
        make_meta(port=70000)
    with pytest.raises(ValueError):
        make_meta(proto="icmp")


def test_timestamp_text_roundtrip():
    assert format_timestamp(EPOCH) == "1970-01-01T00:00:00Z"
    assert parse_timestamp("2022-08-01T00:00:00Z") == parse_timestamp("2022-08-01T00:00:00+00:00")
    assert format_timestamp(parse_timestamp("2022-08-01T02:00:00+02:00")) == "2022-08-01T00:00:00Z"
