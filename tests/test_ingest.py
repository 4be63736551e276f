"""Scan-file readers: parsing, policies, and line accounting."""

from __future__ import annotations

import io
import ipaddress
import random
import re
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from hrpkit import ingest, prefixes
from hrpkit.ingest import (
    BLOCK_LINES,
    CSV_SADDR,
    FORMATS,
    LENIENT,
    PLAIN,
    POLICIES,
    STRICT,
    IngestError,
    IngestStats,
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

from conftest import EPOCH, make_meta, with_line_ends


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


# --- the block reader against the per-line reader it replaced ------------------


def _reference_addresses(source, fmt: str, policy: str, stats: IngestStats):
    """The scan reader one line at a time, as it was before scans were read a block at a time."""
    texts = (raw.decode("utf-8", "replace") if isinstance(raw, bytes) else raw for raw in source)
    lines = enumerate(texts, 1)
    parse = parse_ipv4
    if fmt == CSV_SADDR:
        for line_number, line in lines:
            stats.lines_read += 1
            stats.comment_lines += 1
            stripped = line.strip()
            if stripped.startswith("#"):
                continue
            header = [name.strip() for name in stripped.split(",")]
            if "saddr" not in header:
                raise IngestError(f"header row has no 'saddr' column: {stripped!r}", line_number)
            index = header.index("saddr")

            def parse(row):
                fields = row.split(",")
                return parse_ipv4(fields[index].strip()) if index < len(fields) else None
            break
    for line_number, line in lines:
        stats.lines_read += 1
        stripped = line.strip()
        if stripped.startswith("#"):
            stats.comment_lines += 1
            continue
        addr = parse(stripped)
        if addr is None:
            if policy == STRICT:
                raise IngestError(f"invalid address line: {stripped!r}", line_number)
            stats.invalid_lines += 1
            continue
        stats.addresses_emitted += 1
        yield addr


def _drain(addresses):
    """The addresses read before any IngestError, and that error's line and message."""
    read = []
    try:
        for address in addresses:
            read.append(address)
    except IngestError as exc:
        return read, (exc.line_number, str(exc))
    return read, None


_ODD_ADDRESSES = ["256.1.2.3", "1.2.3", "1.2.3.4.5", "01.2.3.4", "+1.2.3.4", "1.2.3.4/8", "\u0661.2.3.4",
                  "1..2.3", "not-an-address", "1.2.3.4,5", ",", "1.2.3.4\0", "1.2.3.4\ufffd", "\ufeff1.2.3.4",
                  "1.2.\r3.4"]
_OTHER_FIELDS = ["443", "80", "synack", "", " ", "1.2.3.4"]


@st.composite
def _scan_files(draw):
    """A scan format and the lines of a file in it: mostly plainly written address rows, among them
    comments, blank, padded and invalid lines, CRLF and unterminated lines, U+FFFD, a BOM, bytes
    lines and, in csv_saddr, rows of other widths and saddr in any column."""
    fmt = draw(st.sampled_from(FORMATS))
    width = draw(st.integers(1, 4)) if fmt == CSV_SADDR else 1
    index = draw(st.integers(0, width - 1))
    addresses = st.integers(0, 2**32 - 1).map(format_ipv4) | st.sampled_from(["0.0.0.0", "255.255.255.255"])

    def row(address: str) -> str:
        if fmt == PLAIN:
            return address
        fields = [draw(st.sampled_from(_OTHER_FIELDS)) for _ in range(width)]
        fields[index] = address
        # A row of another width: a field more, or too few to reach saddr.
        extra = draw(st.sampled_from([0] * 6 + [-1, 1]))
        return ",".join(fields + ["x"] * extra if extra >= 0 else fields[:index])

    lines = []
    if fmt == CSV_SADDR:
        header = [f"c{i}" for i in range(width)]
        header[index] = draw(st.sampled_from(["saddr", "saddr", " saddr ", "ip"]))
        lines += draw(st.lists(st.sampled_from(["# zmap", "  # note"]), max_size=2)) + [",".join(header)]
    kinds = ["address"] * draw(st.sampled_from([4, 12, 60])) + ["padded", "odd", "comment", "blank"]
    for _ in range(draw(st.integers(0, 60))):
        kind = draw(st.sampled_from(kinds))
        if kind == "address":
            line = row(draw(addresses))
        elif kind == "padded":
            pad = draw(st.sampled_from([" ", "\t", "  ", "\x1c"]))
            line = draw(st.sampled_from([pad + row(draw(addresses)), row(draw(addresses)) + pad]))
        elif kind == "odd":
            line = row(draw(st.sampled_from(_ODD_ADDRESSES)))
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# operator note", "  # indented", "#1.2.3.4"]))
        else:
            line = draw(st.sampled_from(["", " ", "\t"]))
        lines.append(line)
    ends = st.sampled_from(["\n"] * draw(st.sampled_from([8, 60])) + ["\r\n", ""])
    lines = [line + draw(ends) for line in lines]
    if lines and draw(st.booleans()):
        lines[0] = "\ufeff" + lines[0]
    return fmt, [line.encode() + draw(st.sampled_from([b"", b"\xff"])) if draw(st.integers(0, 9)) == 0
                 else line for line in lines]


@given(_scan_files(), st.sampled_from(POLICIES), st.sampled_from([1, 2, 3, 8, BLOCK_LINES]))
@example((PLAIN, ["1.2.3.4\n", "5.6.7.8\n", "256.0.0.1\n", "9.9.9.9\n"]), STRICT, BLOCK_LINES)
@example((CSV_SADDR, ["# zmap\n", "daddr,saddr\n", "1.1.1.1,2.2.2.2\n", "3.3.3.3\n", "4.4.4.4,5.5.5.5"]),
         LENIENT, 2)
def test_block_reader_matches_per_line_reference(scan, policy, block):
    """Equal addresses in order, equal accounting and the same error, read in blocks of the
    reader's size or so small that odd lines fall on and across their boundaries."""
    fmt, lines = scan
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        addresses, stats = open_scan_source(lines, fmt, policy)
        got = _drain(addresses)
    want_stats = IngestStats()
    assert got == _drain(_reference_addresses(lines, fmt, policy, want_stats))
    assert stats == want_stats
    if got[1] is None:
        assert stats.lines_read == len(lines)


def test_one_odd_line_is_the_only_line_read_alone():
    """A block that does not parse is split until the odd line is a run of its own."""
    lines = [f"10.0.{i // 256}.{i % 256}\n" for i in range(BLOCK_LINES)]
    lines[700] = "# note\n"
    runs = list(ingest.table_runs(iter(lines), 1, 1, lambda columns: ingest._ipv4_values(columns[0])))
    assert [(first, run) for first, run, addresses in runs if addresses is None] == [(701, ["# note\n"])]
    assert [line for _, run, _ in runs for line in run] == lines
    addresses, stats = open_scan_source(lines)
    assert list(addresses) == [parse_ipv4(line.strip()) for line in lines if line[0] != "#"]
    assert (stats.comment_lines, stats.lines_read) == (1, BLOCK_LINES)


def _scan_outcome(lines, fmt: str, policy: str, block: int):
    """The addresses, or those before the first error and its line and message, and the accounting."""
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        try:
            addresses, stats = open_scan_source(lines, fmt, policy)
        except IngestError as exc:  # a csv_saddr header without saddr
            return None, (exc.line_number, str(exc))
        return _drain(addresses), stats


@given(_scan_files(), st.sampled_from(POLICIES), st.sampled_from([1, 3, 8, BLOCK_LINES]))
def test_crlf_line_ends_read_like_lf(scan, policy, block):
    """A scan with CRLF line ends gives the addresses, accounting and errors of its LF copy."""
    fmt, lines = scan
    lf, crlf = with_line_ends(lines, "\n"), with_line_ends(lines, "\r\n")
    assert _scan_outcome(crlf, fmt, policy, block) == _scan_outcome(lf, fmt, policy, block)


def test_a_crlf_block_takes_the_column_path():
    """Only a CR before a line's LF is a line end; any other CR sends its line to the per-line rules."""
    columns = [["1.2.3.4", "5.6.7.8"]]
    assert ingest._plain_columns(["1.2.3.4\r\n", "5.6.7.8\r\n"], 1) == columns
    assert ingest._plain_columns(["1.2.3.4\r\n", "5.6.7.8"], 1) == columns
    assert ingest._plain_columns(["1.2.3.4\n", "5.6.7.8\r\n"], 1) == columns
    for block in (["1.2.3.4\r\n", "5.6.7.8\r"], ["1.2.3.4\r\r\n", "5.6.7.8\n"], ["1.2.\r3.4\n"],
                  ["\r\n", "5.6.7.8\n"], ["1.2.3.4\r", "\n"]):
        assert ingest._plain_columns(block, 1) is None, block


# --- the column kernels against the ipaddress oracle ---------------------------------

def _oracle_cidr(text: str) -> tuple[int, int] | None:
    """(address, length) of canonical ``a.b.c.d/length`` text, or None."""
    try:
        interface = ipaddress.IPv4Interface(text)
    except ValueError:
        return None
    return (int(interface.ip), interface.network.prefixlen) if str(interface) == text else None


def _oracle_slash24(text: str) -> int | None:
    """The 24-bit network of canonical ``a.b.c.0/24`` text, or None."""
    try:
        network = ipaddress.IPv4Network(text)  # strict: host bits set are an error
    except ValueError:
        return None
    return int(network.network_address) >> 8 if network.prefixlen == 24 and str(network) == text else None


def _oracle_column(oracle, texts: list[str]) -> list | None:
    values = [oracle(text) for text in texts]
    return None if None in values else values


# Text put before or after a text that makes it bad: padding, a NUL, a lone surrogate, a line
# break, a separator of parts.
_WRAPS = [" ", "\t", "\0", "\ud800", "\udcff", "\n", ".", "/", ",", "0"]


def _odd(texts: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    """Texts of `texts` with one wrap before or after them."""
    return st.one_of(st.tuples(st.sampled_from(_WRAPS), texts).map("".join),
                     st.tuples(texts, st.sampled_from(_WRAPS)).map("".join))


_addresses = st.integers(0, 2**32 - 1).map(format_ipv4)
_odd_addresses = st.one_of(
    st.lists(_octets, min_size=3, max_size=5).map(".".join),  # 3- to 5-part texts of odd octets
    _odd(_addresses),
    st.sampled_from(["", "\0", "\ud800", "1.2.3.\ud800", "1.2.3.4\x001"]),
)
_cidrs = st.builds("{}/{}".format, _addresses, st.integers(0, 32))
_odd_cidrs = st.one_of(
    st.builds("{}/{}".format, st.one_of(_addresses, _odd_addresses),
              st.sampled_from([*_ODD_LENGTHS, "024", "8\0", "\ud800"])),
    st.builds("{}/{}".format, _odd_addresses, st.integers(0, 32)),
    _odd(_cidrs),
    _addresses,  # no length
    st.builds("{}/{}".format, _cidrs, st.integers(0, 32)),  # two lengths
)
_slash24s = st.integers(0, 2**24 - 1).map(lambda prefix: format_ipv4(prefix << 8) + "/24")
_odd_slash24s = st.one_of(
    st.builds("{}/24".format, st.one_of(_addresses, _odd_addresses)),  # a.b.c.1/24 mostly
    st.builds("{}.0/24".format, st.lists(_octets, min_size=2, max_size=4).map(".".join)),
    st.builds(lambda text, length: text[:-2] + length, _slash24s, st.sampled_from(["024", "23", "32", ""])),
    _odd(_slash24s),
    _slash24s.map(lambda text: text[:-3]),  # no length
)


def _columns(good: st.SearchStrategy[str], odd: st.SearchStrategy[str]) -> st.SearchStrategy[list[str]]:
    """Columns of good texts, or of good texts with odd ones among them."""
    mixed = st.lists(st.one_of(good, good, odd), min_size=1, max_size=12)
    return st.one_of(st.lists(good, max_size=12), mixed)


@given(_columns(_addresses, _odd_addresses))
@example(["1.2.3.4", "5.6.7"])
@example(["1.2.3.4.5", "6.7.8"])  # the parts of two texts add up
def test_the_address_kernel_matches_ipaddress(texts):
    values = ingest._ipv4_values(texts)
    assert (None if values is None else list(values)) == _oracle_column(_oracle_ipv4, texts)


@given(_columns(_cidrs, _odd_cidrs))
@example(["1.2.3.4/8/1.2.3.4", "24"])  # the slashes of two texts add up
@example(["1.2.3.4", "8/1.2.3.4/24"])
@example(["10.0.0.0/024"])
def test_the_cidr_kernel_matches_ipaddress(texts):
    values = ingest.cidr_values(texts)
    want = _oracle_column(_oracle_cidr, texts) if texts else None  # a block is never empty
    assert (None if values is None else list(zip(*values))) == want


@given(_columns(_slash24s, _odd_slash24s))
@example(["1.2.3.0/24/0.4.5.6.0/24", "x"])  # the marks of two texts add up
@example(["1.2.3.0/24/0.4.5.6.0/24"])  # one text, two marks
@example(["1.2.3.0/24", "0/24"])
@example(["1.2.3.0/024", "1.2.3.1/24"])
def test_the_slash24_kernel_matches_ipaddress(texts):
    values = prefixes._slash24_values(texts)
    want = _oracle_column(_oracle_slash24, texts) if texts else None  # a block is never empty
    assert (None if values is None else list(values)) == want


_bad_lines = _odd_addresses.filter(
    lambda text: _oracle_ipv4(text.strip()) is None and not text.strip().startswith("#")
    and "\n" not in text and "\r" not in text
)


@given(st.lists(_addresses, min_size=1, max_size=40), _bad_lines, st.integers(0, 40),
       st.sampled_from([1, 3, 8, BLOCK_LINES]))
def test_a_strict_scan_names_the_line_of_its_one_bad_text(texts, bad, position, block):
    position = min(position, len(texts))
    lines = [text + "\n" for text in texts[:position] + [bad] + texts[position:]]
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        addresses, _ = open_scan_source(lines, PLAIN, STRICT)
        got = []
        with pytest.raises(IngestError) as error:
            got.extend(addresses)
    assert error.value.line_number == position + 1
    assert got == [_oracle_ipv4(text) for text in texts[:position]]
