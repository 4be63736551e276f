"""The CSV tables stages hand each other: shared reader rules and write/read round trips."""

from __future__ import annotations

import io
import string

import pytest
from hypothesis import given, strategies as st

from hrpkit.applayer import STATUSES, SUCCESS, AppResult, read_app_results, write_app_results_csv
from hrpkit.planner import (
    PROVENANCES,
    STRATEGIES,
    PlanEntry,
    PlanTarget,
    TargetPlan,
    read_dns_seeds,
    read_plan_csv,
    write_plan_csv,
)
from hrpkit.prefixes import (
    HrpThreshold,
    PrefixStat,
    read_prefix_stats,
    write_prefix_stats_csv,
)

from conftest import make_meta

# name -> (reader over lines, header, one good row)
READERS = {
    "prefix_stats": (
        lambda lines: read_prefix_stats(lines, scan_id="s1"),
        "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix",
        "1.2.3.0/24,443,tcp,5,false,0.900000,,",
    ),
    "app_results": (
        lambda lines: read_app_results(lines, scan_id="app"),
        "ip,port,proto,status,identifier",
        "1.2.3.4,443,tcp,success,certA",
    ),
    "dns_seeds": (read_dns_seeds, "ip,name_count", "1.2.3.4,2"),
    "plan": (read_plan_csv, "ip,prefix,strategy,provenance", "1.2.3.4,1.2.3.0/24,sampled,uniform_fill"),
}

BAD_VALUES = [
    ("prefix_stats", "1.2.4.0/24,443,tcp,999,false,0.900000,,"),
    ("prefix_stats", "1.2.4.0/24,443,sctp,5,false,0.900000,,"),
    ("app_results", "1.2.3.5,443,tcp,ok,"),
    ("app_results", "1.2.3.5,443,sctp,success,x"),
    ("app_results", "1.2.3.5,http,tcp,success,x"),
    ("app_results", "1.2.3.5,443,tcp,unreachable,x"),  # identifier on a failure
    ("app_results", "1.2.3.256,443,tcp,success,x"),
    ("dns_seeds", "1.2.3.5,0"),
    ("dns_seeds", "1.2.3.05,1"),
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
    assert read_prefix_stats(io.StringIO(out.getvalue()), scan_id="s1") == stats


_identifiers = st.text(string.ascii_letters + string.digits + ":-_", min_size=1, max_size=12)


@st.composite
def _app_results(draw):
    meta = make_meta(port=draw(st.integers(0, 65535)), proto=draw(st.sampled_from(["tcp", "udp"])),
                     scan_id="app")
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
    assert read_app_results(io.StringIO(out.getvalue()), scan_id="app") == results


@st.composite
def _plans(draw):
    entries = {}
    for prefix in draw(st.sets(st.integers(0, 0xFFFFFF), max_size=5)):
        hosts = draw(st.lists(st.integers(0, 255), min_size=1, max_size=10, unique=True))
        targets = tuple(
            PlanTarget((prefix << 8) | host, draw(st.sampled_from(PROVENANCES))) for host in hosts
        )
        entries[prefix] = PlanEntry(prefix, draw(st.sampled_from(STRATEGIES)), targets)
    return TargetPlan(entries)


@given(_plans())
def test_plan_csv_roundtrip(plan):
    out = io.StringIO()
    write_plan_csv(plan, out)
    assert read_plan_csv(io.StringIO(out.getvalue())).entries == plan.entries
