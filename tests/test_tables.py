"""The CSV tables stages hand each other: shared reader rules and write/read round trips."""

from __future__ import annotations

import io
import random
import string
from collections import Counter
from itertools import islice, repeat
from typing import Callable, Iterator
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hrpkit import ingest
from hrpkit.applayer import (
    APP_RESULT_COLUMNS,
    STATUSES,
    SUCCESS,
    AppResults,
    read_app_results,
)
from hrpkit.ingest import (
    BLOCK_LINES,
    ScanMeta,
    format_ipv4,
    parse_asn,
    parse_cidr,
    parse_decimal,
    parse_ipv4,
    parse_uint,
    read_csv,
)
from hrpkit.planner import (
    DNS_SEED,
    PLAN_COLUMNS,
    PROVENANCES,
    STRATEGIES,
    PlanEntry,
    TargetPlan,
    plan_summary,
    read_dns_seeds,
    read_plan_csv,
    write_plan_csv,
)
from hrpkit.prefixes import (
    PREFIX_STAT_COLUMNS,
    HrpThreshold,
    PrefixStats,
    format_slash24,
    parse_slash24,
    read_prefix_stats,
    write_prefix_stats_csv,
)

from conftest import Row, make_meta, results_of, table_of, with_line_ends

# name -> (reader over lines, header, one good row)
READERS = {
    "prefix_stats": (
        read_prefix_stats,
        "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix",
        "1.2.3.0/24,443,tcp,5,false,0.900000,,",
    ),
    "app_results": (
        read_app_results,
        "ip,port,proto,status,identifier",
        "1.2.3.4,443,tcp,success,certA",
    ),
    "dns_seeds": (read_dns_seeds, "ip,name_count", "1.2.3.4,2"),
    "plan": (read_plan_csv, "ip,prefix,strategy,provenance", "1.2.3.4,1.2.3.0/24,sampled,uniform_fill"),
}

BAD_VALUES = [
    ("prefix_stats", "1.2.4.0/24,443,tcp,999,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,443,sctp,5,false,0.900000,,"),
    # Port and count are ASCII digits only: no sign, underscore or other digits.
    ("prefix_stats", "1.2.4.0/24,+443,tcp,5,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,4_43,tcp,5,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,\u0664\u0664\u0663,tcp,5,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,443,tcp,+5,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,443,tcp,2_40,true,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,443,tcp,\u0662\u0664\u0660,true,0.900000,,"),
    ("app_results", "1.2.3.5,443,tcp,ok,"),
    ("app_results", "1.2.3.5,443,sctp,success,x"),
    ("app_results", "1.2.3.5,http,tcp,success,x"),
    ("app_results", "1.2.3.5,443,tcp,unreachable,x"),  # identifier on a failure
    ("app_results", "1.2.3.5,443,tcp,unreachable, "),  # a field of only whitespace is not empty
    ("app_results", "1.2.3.5,443,tcp,success, "),
    ("app_results", "1.2.3.256,443,tcp,success,x"),
    ("app_results", "1.2.3.5,+443,tcp,success,x"),
    ("app_results", "1.2.3.5,4_43,tcp,success,x"),
    ("app_results", "1.2.3.5,\u0664\u0664\u0663,tcp,success,x"),
    ("dns_seeds", "1.2.3.5,0"),
    ("dns_seeds", "1.2.3.05,1"),
    ("dns_seeds", "1.2.3.5,+2"),
    ("dns_seeds", "1.2.3.5,2_0"),
    ("dns_seeds", "1.2.3.5,\u0662"),
    ("plan", "1.2.3.5,1.2.3.0/25,sampled,uniform_fill"),
    ("plan", "1.2.3.5,1.2.3.0/24,sampled,guess"),
]


def _read(name: str, text: str):
    return READERS[name][0](io.StringIO(text))


@pytest.mark.parametrize("name", READERS)
def test_comments_and_blank_lines_are_skipped_around_the_header(name):
    _, header, good = READERS[name]
    plain = _read(name, f"{header}\n{good}\n")
    noisy = _read(name, f"# written by hrpkit\n\n{header}\n# rows follow\n\n{good}\n\n# end\n")
    assert noisy == plain
    assert _read(name, f"{header}\r\n{good}\r\n") == plain


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("make_header", [
    lambda columns: "ip,bogus",
    lambda columns: ",".join(reversed(columns)),
    lambda columns: ",".join(columns[:-1]),
    lambda columns: ",".join([*columns, "extra"]),
    lambda columns: ",".join(c.upper() for c in columns),
], ids=["ip_bogus", "reordered", "missing_column", "extra_column", "wrong_case"])
def test_a_header_other_than_the_exact_columns_is_rejected(name, make_header):
    _, header, good = READERS[name]
    with pytest.raises(ValueError, match="^line 2: expected header row "):
        _read(name, f"# comment\n{make_header(header.split(','))}\n{good}\n")
    assert _read(name, f" {header.replace(',', ' , ')} \n{good}\n") == _read(name, f"{header}\n{good}\n")


@pytest.mark.parametrize("name", READERS)
def test_a_row_with_the_wrong_field_count_names_its_line(name):
    _, header, good = READERS[name]
    for row in (good + ",", good.rsplit(",", 1)[0]):
        with pytest.raises(ValueError, match="^line 3: expected "):
            _read(name, f"{header}\n{good}\n{row}\n")


@pytest.mark.parametrize("name, row", BAD_VALUES)
def test_a_bad_value_names_its_line(name, row):
    _, header, good = READERS[name]
    with pytest.raises(ValueError, match="^line 4: "):
        _read(name, f"{header}\n\n{good}\n{row}\n")


@pytest.mark.parametrize("name", READERS)
def test_whitespace_around_any_field_is_ignored(name):
    _, header, good = READERS[name]
    padded = ",".join(f" {field}\t" if field else field for field in good.split(","))
    assert _read(name, f"{header}\n{padded}\n") == _read(name, f"{header}\n{good}\n")


@pytest.mark.parametrize("name", READERS)
@pytest.mark.parametrize("text, line", [("", 1), ("# no rows\n\n", 3)])
def test_a_table_without_a_header_row_is_rejected(name, text, line):
    with pytest.raises(ValueError, match=f"^line {line}: no header row: expected {READERS[name][1]}$"):
        _read(name, text)


# --- write -> read is the identity ------------------------------------------

_fractions = st.integers(1, 10**6).map(lambda n: n / 10**6)  # six decimals, as written
_routes = st.integers(0, 32).flatmap(
    lambda length: st.tuples(
        st.integers(0, 0xFFFFFFFF).map(lambda a: a & (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF),
        st.just(length),
    )
)


@st.composite
def _prefix_stats(draw):
    meta = make_meta(port=draw(st.integers(0, 65535)), proto=draw(st.sampled_from(["tcp", "udp"])))
    stats = []
    for prefix in draw(st.lists(st.integers(0, 0xFFFFFF), max_size=8, unique=True)):  # one row per /24
        threshold = HrpThreshold(draw(_fractions))  # one per row
        count = draw(st.integers(1, 256))
        stats.append(Row(
            prefix=prefix,
            meta=meta,
            responsive_count=count,
            is_hrp=count >= threshold.min_count,
            threshold=threshold,
            origin_asn=draw(st.none() | st.integers(0, 2**32 - 1)),
            covering_route=draw(st.none() | _routes),
        ))
    return table_of(stats)


@given(_prefix_stats())
def test_prefix_stats_csv_roundtrip(stats):
    out = io.StringIO()
    write_prefix_stats_csv(stats, out)
    assert read_prefix_stats(io.StringIO(out.getvalue())) == stats


_identifiers = st.text(string.ascii_letters + string.digits + ":-_", min_size=1, max_size=12)


def _carried(identifier: str) -> bool:
    """Whether a results row carries this identifier back unchanged, by read_app_results' rule:
    non-empty, without surrounding whitespace, commas, line breaks or U+FFFD."""
    return bool(identifier) and identifier == identifier.strip() and not any(c in identifier for c in ",\r\n\ufffd")


@st.composite
def _app_results(draw) -> AppResults:
    """Results whose identifiers are arbitrary text, except text that a row cannot carry."""
    meta = make_meta(port=draw(st.integers(0, 65535)), proto=draw(st.sampled_from(["tcp", "udp"])))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        status = draw(st.sampled_from(STATUSES))
        identifier = draw(st.none() | _identifiers | st.text(max_size=12)) if status == SUCCESS else None
        if identifier is None or _carried(identifier):
            rows.append((draw(st.integers(0, 0xFFFFFFFF)), status, identifier))
        else:
            assert not _reads_back(identifier)
    return results_of(rows, meta)


def _write_app_results(results: AppResults, out: io.StringIO) -> None:
    """The CSV form of a results table; the identifier field is empty when absent."""
    out.write(",".join(APP_RESULT_COLUMNS) + "\n")
    meta = results.meta
    for target, code, identifier in zip(results.targets, results.statuses, results.identifiers):
        out.write(f"{format_ipv4(target)},{meta.port},{meta.protocol},{STATUSES[code]},{identifier or ''}\n")


def _reads_back(identifier: str) -> bool:
    """Whether a results row written with this identifier reads back with it unchanged."""
    try:
        text = f"ip,port,proto,status,identifier\n1.2.3.4,443,tcp,success,{identifier}\n"
        table = read_app_results(io.StringIO(text))
    except ValueError:
        return False
    return table.identifiers == [identifier]


@given(_app_results())
def test_app_results_csv_roundtrip(results):
    out = io.StringIO()
    _write_app_results(results, out)
    assert read_app_results(io.StringIO(out.getvalue())) == results


@pytest.mark.parametrize("identifier", ["a,b", "a\nb", "a\rb", "a\ufffdb", " a", "a\t", ""])
def test_app_result_rejects_an_identifier_its_row_cannot_carry(identifier):
    assert not _carried(identifier)
    assert not _reads_back(identifier)


def _codes_of(provenances: list[str]) -> bytes:
    """One code per provenance: its place in PROVENANCES."""
    return bytes(PROVENANCES.index(provenance) for provenance in provenances)


@st.composite
def _plans(draw):
    entries = {}
    for prefix in draw(st.sets(st.integers(0, 0xFFFFFF), max_size=5)):
        hosts = draw(st.lists(st.integers(0, 255), min_size=1, max_size=10, unique=True))
        provenances = [draw(st.sampled_from(PROVENANCES)) for _ in hosts]
        entries[prefix] = PlanEntry(
            prefix, draw(st.sampled_from(STRATEGIES)), bytes(hosts), _codes_of(provenances)
        )
    return TargetPlan(entries)


@given(_plans(), st.sampled_from([2, 3, 8, BLOCK_LINES]))
def test_plan_csv_roundtrip(plan, block):
    """Read back in blocks of the reader's size, or so small that runs cross their boundaries."""
    out = io.StringIO()
    write_plan_csv(plan, out)
    with mock.patch.object(ingest, "BLOCK_LINES", block):
        assert read_plan_csv(io.StringIO(out.getvalue())).entries == plan.entries


@given(_plans())
def test_plan_summary_counts_the_rows_of_the_written_csv(plan):
    out = io.StringIO()
    write_plan_csv(plan, out)
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    strategy_of = {prefix_text: strategy for _, prefix_text, strategy, _ in rows}
    summary = plan_summary(plan)
    assert summary["provenance_targets"] == {p: sum(row[3] == p for row in rows) for p in PROVENANCES}
    assert summary["strategy_prefixes"] == {s: Counter(strategy_of.values())[s] for s in STRATEGIES}
    assert summary["targets"] == len(rows) and summary["prefixes"] == len(strategy_of)


# --- per-row references, read line by line -------------------------------------


def _reference_table(lines, columns, parse_row) -> list:
    """parse_row over the rows of a headed CSV table, read one line at a time by read_csv's rules:
    empty and ``#`` lines skipped anywhere, the header checked, then each row's width, and the
    fields stripped unless they hold only whitespace. Errors name their line."""
    expected = list(columns)
    header_seen = False
    parsed = []
    line_number = 0
    for line_number, line in enumerate(lines, start=1):
        row = line.rstrip("\r\n")
        if not row or row.startswith("#"):
            continue
        fields = row.split(",")
        if not header_seen:
            if [name.strip() for name in fields] != expected:
                raise ValueError(f"line {line_number}: expected header row {','.join(expected)}")
            header_seen = True
            continue
        if len(fields) != len(expected):
            raise ValueError(f"line {line_number}: expected {len(expected)} fields, got {len(fields)}")
        try:
            parsed.append(parse_row([field.strip() or field for field in fields]))
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from None
    if not header_seen:
        raise ValueError(f"line {line_number + 1}: no header row: expected {','.join(expected)}")
    return parsed


def _reference_meta():
    """The ScanMeta of a table's rows from each row's port and protocol text: the first row fixes
    both, and a row naming others raises ValueError."""
    meta = None

    def meta_of(port_text: str, proto: str) -> ScanMeta:
        nonlocal meta
        port = parse_uint(port_text, 0, 65535, "port")
        if meta is None:
            meta = ScanMeta(proto, port)
        elif (proto, port) != (meta.protocol, meta.port):
            raise ValueError(f"port/proto mismatch within file: {proto}/{port_text} vs {meta.protocol}/{meta.port}")
        return meta

    return meta_of


def _reference_read_plan(lines) -> dict[int, PlanEntry]:
    """Plan entries read one row at a time, every check on every row."""
    rows: dict[int, tuple[str, list[tuple[int, str]]]] = {}
    seen: dict[int, int] = {}  # prefix -> bitmap of the host bytes read so far

    def parse_row(fields: list[str]) -> None:
        ip_text, prefix_text, strategy, provenance = fields
        address = parse_ipv4(ip_text)
        if address is None:
            raise ValueError(f"invalid address {ip_text!r}")
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        prefix = parse_slash24(prefix_text)
        if address >> 8 != prefix:
            raise ValueError(f"address {ip_text} is outside {prefix_text}")
        stored_strategy, targets = rows.setdefault(prefix, (strategy, []))
        if stored_strategy != strategy:
            raise ValueError(f"mixed strategies for {prefix_text}")
        bits = seen.get(prefix, 0)
        if bits >> (address & 0xFF) & 1:
            raise ValueError(f"repeated address {ip_text} in {prefix_text}")
        seen[prefix] = bits | 1 << (address & 0xFF)
        targets.append((address & 0xFF, provenance))

    _reference_table(lines, PLAN_COLUMNS, parse_row)
    return {
        prefix: PlanEntry(
            prefix, strategy, bytes(h for h, _ in targets), _codes_of([p for _, p in targets])
        )
        for prefix, (strategy, targets) in rows.items()
    }


_TABLE_PREFIXES = (0x010203, 0x010204, 0xC00002)


@st.composite
def _plan_tables(draw) -> str:
    """Plan CSV text whose rows mostly continue the previous row's prefix,
    strategy and provenance with a fresh host. The other rows switch prefix
    (prefixes come back later) or provenance, or carry an unknown strategy or
    provenance, an off-prefix, repeated or non-canonical address, or
    non-canonical prefix text."""
    strategy_of = {p: draw(st.sampled_from(STRATEGIES)) for p in _TABLE_PREFIXES}
    next_host = dict.fromkeys(_TABLE_PREFIXES, 0)
    prefix, provenance = _TABLE_PREFIXES[0], DNS_SEED
    lines = [",".join(PLAN_COLUMNS)]
    for _ in range(draw(st.integers(0, 40))):
        change = draw(st.sampled_from(
            ["none"] * 12 + ["prefix", "provenance", "host", "ip text", "prefix text", "strategy"]
        ))
        if change == "prefix":
            prefix = draw(st.sampled_from(_TABLE_PREFIXES))
        if change == "provenance":
            provenance = draw(st.sampled_from([*PROVENANCES, "guess", " uniform_fill"]))
        host = draw(st.integers(0, 2)) if change == "host" else next_host[prefix]
        next_host[prefix] = max(next_host[prefix], host + 1)
        base = format_slash24(prefix)[:-4]
        ip_text = f"{base}{host}"
        if change == "ip text":
            other = format_slash24(draw(st.sampled_from(_TABLE_PREFIXES)))[:-4]
            ip_text = draw(st.sampled_from(
                [f"{other}{host}", f"{base}0{host}", f" {ip_text}", f"{ip_text} ", f"{base}\uff11"]
            ))
        prefix_text = format_slash24(prefix)
        if change == "prefix text":
            prefix_text = draw(st.sampled_from([f" {prefix_text}", prefix_text[:-1] + "5", "0" + prefix_text]))
        strategy = strategy_of[prefix]
        if change == "strategy":
            strategy = draw(st.sampled_from([*STRATEGIES, "partial", f"{strategy} "]))
        lines.append(f"{ip_text},{prefix_text},{strategy},{provenance}")
    return "\n".join(lines) + "\n"


def _outcome(reader, text: str):
    try:
        return reader(io.StringIO(text))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300)
@given(_plan_tables())
def test_plan_reader_matches_the_per_row_reference(text):
    expected = _outcome(_reference_read_plan, text)
    assert _outcome(lambda lines: read_plan_csv(lines).entries, text) == expected


def _reference_read_app_results(lines) -> AppResults:
    """Application results read one row at a time, every check on every row, as columns."""
    meta_of = _reference_meta()

    def parse_row(fields: list[str]) -> tuple[tuple[int, str, str | None], ScanMeta]:
        ip_text, port_text, proto, status, identifier = fields
        target = parse_ipv4(ip_text)
        if target is None:
            raise ValueError(f"invalid address {ip_text!r}")
        if "\ufffd" in identifier:
            raise ValueError(f"undecodable bytes in identifier {identifier!r}")
        meta = meta_of(port_text, proto)
        if status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {status!r}")
        if identifier and status != SUCCESS:
            raise ValueError("identifier is only valid on success results")
        if identifier and not _carried(identifier):
            raise ValueError(
                f"identifier must be non-empty text without surrounding whitespace, commas, "
                f"line breaks or U+FFFD, got {identifier!r}"
            )
        return (target, status, identifier or None), meta

    parsed = _reference_table(lines, APP_RESULT_COLUMNS, parse_row)
    return results_of([row for row, _ in parsed], parsed[-1][1] if parsed else None)


def _reference_read_prefix_stats(lines) -> PrefixStats:
    """Prefix stats read one row at a time, every field parsed on every row, as columns."""
    meta_of = _reference_meta()
    seen: set[int] = set()

    def parse_row(fields: list[str]) -> Row:
        prefix_text, port_text, proto, count_text, hrp_text, fraction_text, asn_text, covering_text = fields
        meta = meta_of(port_text, proto)
        threshold = HrpThreshold(parse_decimal(fraction_text, "threshold fraction"))
        count = parse_uint(count_text, 1, 256, "count")
        is_hrp = {"true": True, "false": False}.get(hrp_text)
        if is_hrp is None:
            raise ValueError(f"is_hrp must be true or false, got {hrp_text!r}")
        if is_hrp != (count >= threshold.min_count):
            raise ValueError(f"is_hrp={hrp_text} disagrees with count {count} at threshold {fraction_text}")
        prefix = parse_slash24(prefix_text)
        if prefix in seen:
            raise ValueError(f"repeated prefix {format_slash24(prefix)}")
        seen.add(prefix)
        return Row(
            prefix=prefix,
            meta=meta,
            responsive_count=count,
            is_hrp=is_hrp,
            threshold=threshold,
            origin_asn=parse_asn(asn_text) if asn_text else None,
            covering_route=_reference_covering(covering_text) if covering_text else None,
        )

    return table_of(_reference_table(lines, PREFIX_STAT_COLUMNS, parse_row))


def _reference_covering(text: str) -> tuple[int, int]:
    route = parse_cidr(text)
    if route is None:
        raise ValueError(f"invalid covering prefix {text!r}")
    if route[0] & (0xFFFFFFFF >> route[1]):
        raise ValueError(f"host bits set in covering prefix {text!r}")
    return route


def _results_row(rng: random.Random) -> str:
    status = rng.choice(STATUSES)
    identifier = rng.choice(["", "certA", "b3973a7e", "cdn-41ca70"]) if status == SUCCESS else ""
    return f"{format_ipv4(rng.getrandbits(32))},443,tcp,{status},{identifier}\n"


def _stats_row(rng: random.Random) -> str:
    count = rng.randint(1, 256)
    asn = rng.choice(["", "64500", "4294967295"])
    covering = rng.choice(["", "10.0.0.0/8", "0.0.0.0/0", "1.2.3.0/24"])
    flag = "true" if count >= 231 else "false"
    return f"{format_slash24(rng.getrandbits(24))},443,tcp,{count},{flag},0.900000,{asn},{covering}\n"


def _plan_rows(rng: random.Random) -> Iterator[str]:
    """Plan rows that mostly go on with the last row's prefix, strategy and provenance and a
    fresh host, so that runs and prefixes cross block boundaries; now and then a row switches
    provenance or prefix (prefixes come back later), or repeats a host or switches strategy."""
    strategy_of: dict[int, str] = {}
    next_host: dict[int, int] = {}
    prefix, provenance = rng.getrandbits(24), rng.choice(PROVENANCES)
    while True:
        if rng.random() < 0.05:
            provenance = rng.choice(PROVENANCES)
        if rng.random() < 0.05 or next_host.get(prefix) == 256:
            prefix = rng.choice([p for p, n in next_host.items() if n < 256] + [rng.getrandbits(24)])
        host = next_host.get(prefix, 0)
        if host and rng.random() < 0.0005:
            host = rng.randrange(host)
        next_host[prefix] = max(next_host.get(prefix, 0), host + 1)
        strategy = strategy_of.setdefault(prefix, rng.choice(STRATEGIES))
        if rng.random() < 0.0005:
            strategy = rng.choice(STRATEGIES)
        yield f"{format_ipv4(prefix << 8 | host)},{format_slash24(prefix)},{strategy},{provenance}\n"


# Changes to one line of a table. The two tables share field positions: address or prefix,
# port, proto, then status or count; an edit of a field the table lacks changes nothing.
_FIELD_TEXTS = [
    ["1.2.3.256", "01.2.3.4", "1.2.3", "1.2.3.4.5", "1.2.3.0/24", "1.2.3.1/24", "1.2.3.0/024", "\uff11.2.3.4"],
    ["80", "0443", "+443", "65536", "\u0664\u0664\u0663"],
    ["udp", "TCP", "sctp"],
    ["0", "257", "05", "2_3", "231", "230", "ok", "unreachable", "success", "app_error"],
    ["", "x", "true", "false", "True"],
    ["0.95", "1.5", ".9", "0.9", "0.90_0"],
    ["", "64500", "+64500", "4294967296"],
    ["", "10.0.0.0/08", "10.0.0.0/33", "10.0.0.0/7", "10.0.0.1/32", "10.0.0.0/8"],
]


def _edit_field(line: str, rng: random.Random) -> str:
    fields = line[:-1].split(",")
    index = rng.randrange(min(len(fields), len(_FIELD_TEXTS)))
    fields[index] = rng.choice(_FIELD_TEXTS[index])
    return ",".join(fields) + "\n"


def _pad_field(line: str, rng: random.Random, pads: str) -> str:
    fields = line[:-1].split(",")
    index = rng.randrange(len(fields))
    pad = rng.choice(pads)
    fields[index] = rng.choice([pad + fields[index], fields[index] + pad])
    return ",".join(fields) + "\n"


def _shift_octets(line: str, rng: random.Random) -> list[str]:
    """Two rows whose first fields lose and gain parts, so that the dots still add up: one
    loses its last part to the other, or one gains three parts and the other keeps only
    the last."""
    first, comma, rest = line.partition(",")
    head, _, last = first.rpartition(".")
    pairs = [(head, first + ".1"), (first + ".1.2.3", last)]
    return [field + comma + rest for field in rng.choice(pairs)]


# Edits of one line, each giving the lines that replace it: its text stays one line with
# its terminator unless the edit is about terminators or line breaks.
_EDITS = {
    "comment": lambda line, rng: [rng.choice(["# note\n", "#" + line])],
    "blank": lambda line, rng: [line, rng.choice(["\n", "\r\n", ""])],
    "crlf": lambda line, rng: [line[:-1] + "\r\n"],
    "bom": lambda line, rng: ["\ufeff" + line],
    "pad": lambda line, rng: [_pad_field(line, rng, " \t\r\x0b\x0c\x1c\x1f\u00a0\u2028\u3000")],
    "mark": lambda line, rng: [_pad_field(line, rng, "\ufeff\ufffd\0#")],
    "octets": _shift_octets,
    "insert": lambda line, rng: [_insert(line, rng, rng.choice([" ", "\t", "\ufffd", "\u00a0", ",", "#"]))],
    "drop field": lambda line, rng: [line.replace(",", "", 1)],
    "field": lambda line, rng: [_edit_field(line, rng)],
    "no terminator": lambda line, rng: [line[:-1]],
    "embedded newline": lambda line, rng: [_insert(line[:-1], rng, "\n") + "\n"],
    "split": lambda line, rng: [line[: (at := _cut(line, rng))], line[at:]],
    "joined": lambda line, rng: [line + line],
    "rejoined": lambda line, rng: [(twice := line + line)[: (at := _cut(twice, rng))], twice[at:]],
    "repeat": lambda line, rng: [line, line],
}


_EDIT_DRAWS = sorted(_EDITS) + ["pad"] * 4 + ["field"] * 4  # padding changes a row only at a field's ends


def _cut(text: str, rng: random.Random) -> int:
    """A place to cut the text: often at either end, which leaves an empty line."""
    return rng.choice([0, len(text), rng.randrange(len(text) + 1)])


def _insert(line: str, rng: random.Random, text: str) -> str:
    at = rng.randrange(len(line) + 1)
    return line[:at] + text + line[at:]


@st.composite
def _long_tables(draw, header: str, rows: Callable[[random.Random], Iterator[str]]) -> tuple[int, list[str]]:
    """A block size, either the reader's or a small one that puts many blocks in a short
    table, and the lines of a table longer than one block, with a few lines edited, mostly
    in a later block, and maybe without the last line's terminator, without any, or with an
    empty last line. Choices come from a drawn seed, so that each edit is as likely as the
    next."""
    rng = random.Random(draw(st.integers(0, 2**64)))
    block = rng.choice([2, 3, 8, BLOCK_LINES])
    lines = [[header + "\n"]] + [[row] for row in islice(rows(rng), rng.randint(block + 1, 2 * block + 40))]
    for _ in range(rng.randint(1, 8)):
        at = rng.randint(rng.choice([1, block]), len(lines) - 1)
        lines[at] = _EDITS[rng.choice(_EDIT_DRAWS)](lines[at][-1], rng)
    lines = [line for edited in lines for line in edited]
    terminators = rng.choice(["all", "all", "not the last", "none", "an empty last line"])
    if terminators in ("not the last", "none"):
        lines[-1] = lines[-1].rstrip("\n")
    if terminators == "none":
        lines = [line.rstrip("\n") for line in lines]
    if terminators == "an empty last line":
        lines.append("")
    return block, lines


def _outcome_in_blocks(block: int, read, lines: list[str]):
    """read(lines) as a list, or its error text, with tables read ``block`` lines at a time."""
    try:
        with mock.patch.object(ingest, "BLOCK_LINES", block):
            return list(read(iter(lines)))
    except ValueError as exc:
        return str(exc)


def _each(make_row: Callable[[random.Random], str]) -> Callable[[random.Random], Iterator[str]]:
    """Rows made one at a time by ``make_row(rng)``."""
    return lambda rng: map(make_row, repeat(rng))


def _generic_rows(width: int):
    def make_row(rng: random.Random) -> str:
        rest = (rng.choice(["a", "0", "#", "x-y"]) for _ in range(width - 1))
        return ",".join([rng.choice(["a", "b1", "x.y"]), *rest]) + "\n"

    return _each(make_row)


def _checked_fields(fields: list[str]) -> tuple[str, ...]:
    """A row's fields as they are, with an undecodable byte rejected."""
    if any("\ufffd" in field for field in fields):
        raise ValueError("undecodable bytes")
    return tuple(fields)


def _generic_reader(lines):
    """The rows of a table whose columns are named by its first line, as read_csv gives them to a
    parser that checks nothing but undecodable bytes."""
    lines = list(lines)
    columns = lines[0].rstrip("\r\n").split(",")
    return [row for rows in read_csv(lines, columns, lambda texts: list(zip(*map(_checked_fields, texts))))
            for row in rows]


def _reference_generic_reader(lines):
    lines = list(lines)
    return _reference_table(lines, lines[0].rstrip("\n").split(","), _checked_fields)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([1, 3]).flatmap(
    lambda width: _long_tables(",".join(f"c{i}" for i in range(width)), _generic_rows(width))
))
def test_a_block_takes_the_column_path_only_when_its_rows_read_alike(case):
    """A parser that checks nothing but undecodable bytes gets the fields a line-by-line reader
    gives, after stripping, with the same errors, whichever path each block takes."""
    block, lines = case
    expected = _outcome_in_blocks(block, _reference_generic_reader, lines)
    assert _outcome_in_blocks(block, _generic_reader, lines) == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_long_tables(",".join(APP_RESULT_COLUMNS), _each(_results_row)))
def test_results_reader_matches_the_per_row_reference(case):
    block, lines = case
    expected = _outcome_in_blocks(block, lambda lines: [_reference_read_app_results(lines)], lines)
    assert _outcome_in_blocks(block, lambda lines: [read_app_results(lines)], lines) == expected
    if isinstance(expected, list):
        assert len(read_app_results(lines)) == len(expected[0].targets)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_long_tables(",".join(PREFIX_STAT_COLUMNS), _each(_stats_row)))
def test_stats_reader_matches_the_per_row_reference(case):
    block, lines = case
    expected = _outcome_in_blocks(block, lambda lines: [_reference_read_prefix_stats(lines)], lines)
    assert _outcome_in_blocks(block, lambda lines: [read_prefix_stats(lines)], lines) == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_long_tables(",".join(PLAN_COLUMNS), _plan_rows))
def test_plan_reader_in_blocks_matches_the_per_row_reference(case):
    block, lines = case
    expected = _outcome_in_blocks(block, lambda lines: _reference_read_plan(lines).items(), lines)
    assert _outcome_in_blocks(block, lambda lines: read_plan_csv(lines).entries.items(), lines) == expected


def _plan_lines(*rows: tuple[int, int, str, str]) -> list[str]:
    """A plan table of ``(prefix, host, strategy, provenance)`` rows."""
    return [",".join(PLAN_COLUMNS) + "\n"] + [
        f"{format_ipv4(prefix << 8 | host)},{format_slash24(prefix)},{strategy},{provenance}\n"
        for prefix, host, strategy, provenance in rows
    ]


_A, _B = 0x010203, 0xFFFFFF  # 1.2.3.0/24 and 255.255.255.0/24
_SPLIT = [(_A, h, "full", "non_hrp_full") for h in (0, 1, 2, 3)] + [
    (_B, h, "sampled", "dns_seed") for h in range(20)]  # A in the first blocks, then 20 rows of B

# name -> (rows, the error of the per-row reference, or None for a plan)
PLAN_REPEATS = {
    "a repeat within one segment": (
        [(_A, 255, "full", "non_hrp_full"), (_A, 255, "full", "non_hrp_full")],
        "line 3: repeated address 1.2.3.255 in 1.2.3.0/24"),
    "a repeat across segments of one block": (
        [(_A, 0, "sampled", "dns_seed"), (_B, 0, "sampled", "dns_seed"), (_A, 0, "sampled", "uniform_fill")],
        "line 4: repeated address 1.2.3.0 in 1.2.3.0/24"),
    "a repeat across provenances of one prefix": (
        [(_A, 7, "sampled", "dns_seed"), (_A, 8, "sampled", "uniform_fill"), (_A, 7, "sampled", "escalation")],
        "line 4: repeated address 1.2.3.7 in 1.2.3.0/24"),
    "a repeat across blocks": (
        [(_A, h, "full", "non_hrp_full") for h in range(9)] + [(_A, 4, "full", "non_hrp_full")],
        "line 11: repeated address 1.2.3.4 in 1.2.3.0/24"),
    "a prefix split across blocks": (_SPLIT + [(_A, h, "full", "non_hrp_full") for h in (255, 4)], None),
    "a prefix split across blocks, then a repeat": (
        _SPLIT + [(_A, 255, "full", "non_hrp_full"), (_A, 0, "full", "non_hrp_full")],
        "line 27: repeated address 1.2.3.0 in 1.2.3.0/24"),
    "a prefix split across blocks, then another strategy": (
        _SPLIT + [(_A, 4, "sampled", "dns_seed")], "line 26: mixed strategies for 1.2.3.0/24"),
    "a repeat of a later run's own host": (
        _SPLIT + [(_A, 9, "full", "escalation"), (_A, 10, "full", "escalation"), (_A, 9, "full", "escalation")],
        "line 28: repeated address 1.2.3.9 in 1.2.3.0/24"),
}


@pytest.mark.parametrize("block", [2, 3, 8])
@pytest.mark.parametrize("name", PLAN_REPEATS)
def test_plan_reader_finds_repeats_per_prefix_in_blocks(name, block):
    """Repeats within a run, across runs of one block and across blocks, and a prefix whose rows
    come back blocks later: the reference's plan, or its error on the same line."""
    rows, error = PLAN_REPEATS[name]
    lines = _plan_lines(*rows)
    expected = _outcome_in_blocks(block, lambda lines: _reference_read_plan(lines).items(), lines)
    assert _outcome_in_blocks(block, lambda lines: read_plan_csv(lines).entries.items(), lines) == expected
    assert (expected if error else None) == error
    if error is None:
        assert bytes(dict(expected)[_A].hosts) == bytes([0, 1, 2, 3, 255, 4])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([1, 3]).flatmap(
    lambda width: _long_tables(",".join(f"c{i}" for i in range(width)), _generic_rows(width))
) | _long_tables(",".join(APP_RESULT_COLUMNS), _each(_results_row)))
def test_crlf_line_ends_read_like_lf(case):
    """A table with CRLF line ends gives the rows and errors, with their line numbers, of its LF copy,
    read by read_csv alone and by a typed reader."""
    block, lines = case
    lf, crlf = with_line_ends(lines, "\n"), with_line_ends(lines, "\r\n")
    for read in (_generic_reader, lambda lines: [read_app_results(lines)]):
        assert _outcome_in_blocks(block, read, crlf) == _outcome_in_blocks(block, read, lf)
