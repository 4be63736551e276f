"""Plan targets as host octets: ``PrefixTable.hosts`` against a bit scan written here, and the
rules ``PlanEntry`` keeps on its fields."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given, strategies as st

from hrpkit.planner import (
    DNS_SEED,
    ESCALATION,
    NON_HRP_FULL,
    PROVENANCE_CODES,
    PROVENANCES,
    STRATEGIES,
    STRATEGY_FULL,
    UNIFORM_FILL,
    PlanEntry,
    TargetPlan,
    plan_summary,
    read_plan_csv,
    write_plan_csv,
)
from hrpkit.prefixes import PrefixTable

from conftest import make_meta

bitmaps = (
    st.integers(1, (1 << 256) - 1)  # dense: about half of the hosts
    | st.sets(st.integers(0, 255), min_size=1, max_size=20).map(lambda hosts: sum(1 << h for h in hosts))
    | st.integers(0, 255).map(lambda host: 1 << host)  # a single bit
)


@given(bitmaps, st.integers(0, (1 << 24) - 1))
@example(1, 7)  # bit 0 only
@example(1 << 255, (1 << 24) - 1)  # bit 255 only
@example((1 << 256) - 1, 0)  # all 256 bits
@example(1 << 255 | 1, 0x0A0B0C)  # both ends
def test_hosts_are_the_low_octets_of_the_addresses(bits, prefix):
    table = PrefixTable(make_meta(), {prefix: bits})
    hosts = table.hosts(prefix)
    assert type(hosts) is bytes
    assert hosts == bytes(h for h in range(256) if bits >> h & 1)  # a bit scan of its own
    assert len(hosts) == table.count(prefix)
    assert table.hosts(prefix ^ 1) == b""  # absent prefix


def test_every_host_octet_comes_out_of_a_full_bitmap_in_order():
    assert PrefixTable(make_meta(), {5: (1 << 256) - 1}).hosts(5) == bytes(range(256))


CODES = bytes(2)  # NON_HRP_FULL for both targets


@given(st.integers(256, 1 << 32))
@example(256)
@example(5 << 8 | 1)
def test_an_address_int_in_place_of_a_host_octet_raises(address):
    with pytest.raises(ValueError, match="range"):
        PlanEntry(5, STRATEGY_FULL, (1, address), CODES)


@pytest.mark.parametrize("hosts", [bytearray(b"\x01\x02"), [1, 2], (1, 2), b"\x01\x02"],
                         ids=["bytearray", "list", "tuple", "bytes"])
def test_hosts_and_codes_are_stored_as_bytes(hosts):
    entry = PlanEntry(5, STRATEGY_FULL, hosts, list(hosts))
    assert type(entry.hosts) is bytes and entry.hosts == b"\x01\x02"
    assert type(entry.provenances) is bytes and entry.provenances == b"\x01\x02"
    assert entry == PlanEntry(5, STRATEGY_FULL, b"\x01\x02", b"\x01\x02")


def test_replace_checks_as_the_constructor_does():
    entry = PlanEntry(5, STRATEGY_FULL, b"\x01\x02", CODES)
    replaced = entry._replace(hosts=bytearray(b"\x03\x04"), provenances=[PROVENANCE_CODES[DNS_SEED]] * 2)
    assert type(replaced.hosts) is bytes and replaced.hosts == b"\x03\x04"
    assert type(replaced.provenances) is bytes and replaced.provenances == b"\x01\x01"
    with pytest.raises(ValueError, match="range"):
        entry._replace(hosts=(1, 256))
    with pytest.raises(ValueError, match="1 provenance codes for 2 targets"):
        entry._replace(provenances=b"\x01")
    with pytest.raises(ValueError, match="below 4"):
        entry._replace(provenances=b"\x01\x04")
    with pytest.raises(ValueError, match="strategy"):
        entry._replace(strategy="partial")
    with pytest.raises(ValueError, match="prefix"):
        entry._replace(prefix=1 << 24)


@pytest.mark.parametrize("hosts, codes", [
    (b"", b"\x01"),
    (b"\x01", b""),
    (b"\x01\x02\x03", b"\x01\x02"),
    (b"\x01", b"\x01\x02"),
], ids=["no hosts", "no codes", "codes cover fewer", "codes cover more"])
def test_codes_that_do_not_cover_the_hosts_raise(hosts, codes):
    with pytest.raises(ValueError, match=f"^{len(codes)} provenance codes for {len(hosts)} targets$"):
        PlanEntry(5, STRATEGY_FULL, hosts, codes)


def test_every_provenance_has_the_code_of_its_place():
    assert PROVENANCE_CODES == {NON_HRP_FULL: 0, DNS_SEED: 1, UNIFORM_FILL: 2, ESCALATION: 3}
    assert list(PROVENANCE_CODES) == list(PROVENANCES)


@pytest.mark.parametrize("prefix", [-1, 1 << 24, 1 << 32])
def test_a_prefix_outside_the_slash24s_raises_naming_it(prefix):
    with pytest.raises(ValueError, match=f"^prefix out of range: {prefix}$"):
        PlanEntry(prefix, STRATEGY_FULL, b"\x01", b"\x00")


@pytest.mark.parametrize("strategy", ["bogus", "", "Full", " full", None])
def test_an_unknown_strategy_raises_naming_it(strategy):
    with pytest.raises(ValueError, match="^strategy must be one of"):
        PlanEntry(5, strategy, b"\x01", b"\x00")


@pytest.mark.parametrize("prefix", [0, (1 << 24) - 1])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_an_entry_that_is_built_goes_through_the_writers(prefix, strategy):
    """The writers take every entry the constructor keeps, the end prefixes and both strategies
    included; a strategy or prefix it refuses would break plan_summary or the CSV read back."""
    plan = TargetPlan({prefix: PlanEntry(prefix, strategy, b"\x00\xff", b"\x00\x03")})
    out = io.StringIO()
    write_plan_csv(plan, out)
    assert read_plan_csv(io.StringIO(out.getvalue())).entries == plan.entries
    assert plan_summary(plan)["strategy_prefixes"][strategy] == 1
