"""The CSV tables stages hand each other: shared reader rules and write/read round trips."""

from __future__ import annotations

import io
import string
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from hrpkit.applayer import STATUSES, SUCCESS, AppResult, read_app_results, write_app_results_csv
from hrpkit.ingest import parse_ipv4, read_csv
from hrpkit.planner import (
    DNS_SEED,
    PLAN_COLUMNS,
    PROVENANCES,
    STRATEGIES,
    PlanEntry,
    TargetPlan,
    read_dns_seeds,
    read_plan_csv,
    write_plan_csv,
)
from hrpkit.prefixes import (
    HrpThreshold,
    PrefixStat,
    format_slash24,
    parse_slash24,
    read_prefix_stats,
    write_prefix_stats_csv,
)

from conftest import make_meta

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
    for _ in range(draw(st.integers(0, 8))):
        threshold = HrpThreshold(draw(_fractions))
        count = draw(st.integers(1, 256))
        stats.append(PrefixStat(
            prefix=draw(st.integers(0, 0xFFFFFF)),
            meta=meta,
            responsive_count=count,
            is_hrp=count >= threshold.min_count,
            threshold=threshold,
            origin_asn=draw(st.none() | st.integers(0, 2**32 - 1)),
            covering_route=draw(st.none() | _routes),
        ))
    return stats


@given(_prefix_stats())
def test_prefix_stats_csv_roundtrip(stats):
    out = io.StringIO()
    write_prefix_stats_csv(stats, out)
    assert read_prefix_stats(io.StringIO(out.getvalue())) == stats


_identifiers = st.text(string.ascii_letters + string.digits + ":-_", min_size=1, max_size=12)


@st.composite
def _app_results(draw):
    meta = make_meta(port=draw(st.integers(0, 65535)), proto=draw(st.sampled_from(["tcp", "udp"])))
    results = []
    for _ in range(draw(st.integers(0, 8))):
        status = draw(st.sampled_from(STATUSES))
        identifier = draw(st.none() | _identifiers) if status == SUCCESS else None
        results.append(AppResult(draw(st.integers(0, 0xFFFFFFFF)), meta, status, identifier))
    return results


@given(_app_results())
def test_app_results_csv_roundtrip(results):
    out = io.StringIO()
    write_app_results_csv(results, out)
    assert read_app_results(io.StringIO(out.getvalue())) == results


def _runs_of(provenances: list[str]) -> tuple[tuple[str, int], ...]:
    return tuple((provenance, len(list(group))) for provenance, group in groupby(provenances))


@st.composite
def _plans(draw):
    entries = {}
    for prefix in draw(st.sets(st.integers(0, 0xFFFFFF), max_size=5)):
        hosts = draw(st.lists(st.integers(0, 255), min_size=1, max_size=10, unique=True))
        provenances = [draw(st.sampled_from(PROVENANCES)) for _ in hosts]
        addresses = tuple((prefix << 8) | host for host in hosts)
        entries[prefix] = PlanEntry(
            prefix, draw(st.sampled_from(STRATEGIES)), addresses, _runs_of(provenances)
        )
    return TargetPlan(entries)


@given(_plans())
def test_plan_csv_roundtrip(plan):
    out = io.StringIO()
    write_plan_csv(plan, out)
    assert read_plan_csv(io.StringIO(out.getvalue())).entries == plan.entries


# --- the plan reader against a per-row reference ------------------------------


def _reference_read_plan(lines) -> dict[int, PlanEntry]:
    """Plan entries read one row at a time, every check on every row."""
    rows: dict[int, tuple[str, list[tuple[int, str]]]] = {}
    seen: dict[int, int] = {}  # prefix -> bitmap of the host bytes read so far

    def parse_row(fields: list[str]) -> None:
        ip_text, prefix_text, strategy, provenance = map(str.strip, fields)
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
        targets.append((address, provenance))

    for _ in read_csv(lines, PLAN_COLUMNS, parse_row):
        pass
    return {
        prefix: PlanEntry(
            prefix, strategy, tuple(a for a, _ in targets), _runs_of([p for _, p in targets])
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
