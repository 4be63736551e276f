"""Plan targets as host octets: ``PrefixTable.hosts`` against the address expander, and the
rules ``PlanEntry`` keeps on its ``hosts``."""

from __future__ import annotations

import pytest
from hypothesis import example, given, strategies as st

from hrpkit.planner import DNS_SEED, NON_HRP_FULL, STRATEGY_FULL, UNIFORM_FILL, PlanEntry
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
    assert hosts == bytes(a & 0xFF for a in table.addresses(prefix))
    assert len(hosts) == table.count(prefix)
    assert table.hosts(prefix ^ 1) == b""  # absent prefix


def test_every_host_octet_comes_out_of_a_full_bitmap_in_order():
    assert PrefixTable(make_meta(), {5: (1 << 256) - 1}).hosts(5) == bytes(range(256))


RUNS = ((NON_HRP_FULL, 2),)


@given(st.integers(256, 1 << 32))
@example(256)
@example(5 << 8 | 1)
def test_an_address_int_in_place_of_a_host_octet_raises(address):
    with pytest.raises(ValueError, match="range"):
        PlanEntry(5, STRATEGY_FULL, (1, address), RUNS)


@pytest.mark.parametrize("hosts", [bytearray(b"\x01\x02"), [1, 2], (1, 2), b"\x01\x02"],
                         ids=["bytearray", "list", "tuple", "bytes"])
def test_hosts_are_stored_as_bytes(hosts):
    entry = PlanEntry(5, STRATEGY_FULL, hosts, RUNS)
    assert type(entry.hosts) is bytes and entry.hosts == b"\x01\x02"
    assert entry == PlanEntry(5, STRATEGY_FULL, b"\x01\x02", RUNS)


def test_replace_checks_as_the_constructor_does():
    entry = PlanEntry(5, STRATEGY_FULL, b"\x01\x02", RUNS)
    replaced = entry._replace(hosts=bytearray(b"\x03\x04"))
    assert type(replaced.hosts) is bytes and replaced.hosts == b"\x03\x04"
    with pytest.raises(ValueError, match="range"):
        entry._replace(hosts=(1, 256))
    with pytest.raises(ValueError, match="maximal runs"):
        entry._replace(hosts=b"\x01")
    with pytest.raises(ValueError, match="maximal runs"):
        entry._replace(runs=((DNS_SEED, 1), (UNIFORM_FILL, 2)))


@pytest.mark.parametrize("hosts, runs", [
    (b"", ((DNS_SEED, 1),)),
    (b"\x01", ()),
    (b"\x01\x02\x03", ((DNS_SEED, 1), (UNIFORM_FILL, 1))),
    (b"\x01", ((DNS_SEED, 1), (UNIFORM_FILL, 1))),
], ids=["no hosts", "no runs", "runs cover fewer", "runs cover more"])
def test_runs_that_do_not_cover_the_hosts_raise(hosts, runs):
    with pytest.raises(ValueError, match="maximal runs"):
        PlanEntry(5, STRATEGY_FULL, hosts, runs)
