"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its runtime (visible with ``pytest -s``).
Criterion 10 is the acknowledgement that the published Internet-scale
shares are dataset-specific; it points at the structural stand-ins here.
"""

from __future__ import annotations

import random
import time
from functools import reduce

import numpy as np

from hrpkit.applayer import SUCCESS, AppResult
from hrpkit.planner import (
    CDN_LIKE,
    DIVERSE,
    SamplePolicy,
    build_plan,
    classify_sample,
    escalate,
    evaluate_plan,
)
from hrpkit.analytics import persistence
from hrpkit.cli import main
from hrpkit.prefixes import (
    HrpThreshold,
    PrefixTable,
    aggregate,
    classify,
    hrp_address_share,
    hrp_set,
    merge,
    responsiveness_histogram,
)
from hrpkit.routing import MASKS, RouteEntry, RoutingTable

from conftest import make_meta, table_with_counts

META = make_meta()


def _report(criterion: int, started: float, detail: str) -> None:
    print(f"criterion {criterion} PASS ({time.perf_counter() - started:.2f}s): {detail}")


def test_criterion_1_threshold_boundary_fidelity():
    started = time.perf_counter()
    table = table_with_counts({1: 231, 2: 230, 3: 244, 4: 243})
    at_90, at_95 = (dict(zip(stats.prefixes, stats.is_hrp))
                    for stats in (classify(table, HrpThreshold(0.90)), classify(table, HrpThreshold(0.95))))
    assert at_90[1] is True and at_90[2] is False
    assert at_95[3] is True and at_95[4] is False
    _report(1, started, "231/230 at 0.90 and 244/243 at 0.95 classify exactly")


def test_criterion_2_sharded_aggregation_matches_naive_oracle():
    started = time.perf_counter()
    rng = random.Random(20220801)
    threshold = HrpThreshold(0.90)
    for _ in range(100):
        dense_prefixes = [rng.getrandbits(24) for _ in range(20)]
        addresses = [
            (prefix << 8) | host
            for prefix in dense_prefixes
            for host in range(rng.randrange(200, 257))
        ]
        base = rng.getrandbits(24) << 8
        while len(addresses) < 10_000:
            addresses.append(base | rng.getrandbits(14))
        addresses = addresses[:10_000]
        shards = [addresses[0::3], addresses[1::3], addresses[2::3]]
        table = reduce(merge, (aggregate(shard, META) for shard in shards))
        stats = classify(table, threshold)
        # Independent oracle: hash sets of host bytes per prefix.
        seen: dict[int, set[int]] = {}
        for addr in addresses:
            seen.setdefault(addr >> 8, set()).add(addr & 0xFF)
        assert dict(zip(stats.prefixes, stats.counts)) == {
            p: len(hosts) for p, hosts in seen.items()
        }
        assert hrp_set(stats) == {
            p for p, hosts in seen.items() if len(hosts) >= threshold.min_count
        }
    _report(2, started, "100 inputs x 10,000 addresses: shard+merge equals hash-set oracle")


def test_criterion_3_threshold_monotonicity():
    started = time.perf_counter()
    rng = random.Random(90)
    full = (1 << 256) - 1
    for _ in range(100):
        bitmaps = {}
        for prefix in range(rng.randrange(10, 60)):
            if rng.random() < 0.5:
                bitmap = rng.getrandbits(256)
            else:  # near-full prefixes so both cuts are exercised
                bitmap = full
                for _ in range(rng.randrange(0, 30)):
                    bitmap &= ~(1 << rng.randrange(256))
            if bitmap:
                bitmaps[prefix] = bitmap
        table = PrefixTable(META, bitmaps)
        at_90 = hrp_set(classify(table, HrpThreshold(0.90)))
        at_95 = hrp_set(classify(table, HrpThreshold(0.95)))
        assert at_95 <= at_90
    _report(3, started, "HRP set at 0.95 is a subset of the set at 0.90 on 100 random tables")


def test_criterion_4_lpm_matches_brute_force():
    started = time.perf_counter()
    rng = random.Random(64500)
    length_pool = [0, 2, 8, 8, 10, 12, 16, 16, 20, 22, 24, 24, 25, 26, 28, 30, 32]
    for _ in range(100):
        table = RoutingTable()
        entries = []
        seen = set()
        target = rng.randrange(50, 1001)
        while len(entries) < target:
            length = rng.choice(length_pool)
            network = rng.getrandbits(32) & MASKS[length]
            if (network, length) in seen:
                continue
            seen.add((network, length))
            entry = RouteEntry(network, length, rng.randrange(1, 1 << 20))
            table.add(entry)
            entries.append(entry)
        addresses = [rng.getrandbits(32) for _ in range(10_000)]
        # Brute-force oracle: mask-compare every entry against every address.
        count = len(entries)
        nets = np.fromiter((e.network for e in entries), dtype=np.uint32, count=count)
        masks = np.fromiter((MASKS[e.length] for e in entries), dtype=np.uint32, count=count)
        lens = np.fromiter((e.length for e in entries), dtype=np.int8, count=count)
        addr_arr = np.fromiter(addresses, dtype=np.uint32, count=len(addresses))
        matched = (addr_arr[:, None] & masks[None, :]) == nets[None, :]
        scored = np.where(matched, lens[None, :], np.int8(-1))
        best_idx = scored.argmax(axis=1)
        best_len = scored[np.arange(len(addresses)), best_idx]
        for i, addr in enumerate(addresses):
            got = table.lookup(addr)
            if best_len[i] < 0:
                assert got is None
            else:
                assert got == entries[best_idx[i]]
    _report(4, started, "lookup equals brute force on 100 tables x 10,000 addresses")


def test_criterion_5_planted_distribution_reproduction():
    started = time.perf_counter()
    # 1000 prefixes, 22 of them (2.2%) at count 240 (>= 231) holding 5280 of
    # 17600 addresses: exactly a 0.30 HRP address share.
    counts = {10_000 + p: 240 for p in range(22)}
    counts.update({p: 13 for p in range(584)})
    counts.update({1_000 + p: 12 for p in range(394)})
    assert len(counts) == 1000
    hrp_addresses = 22 * 240
    total = hrp_addresses + 584 * 13 + 394 * 12
    assert hrp_addresses == 5280 and total == 17_600
    stats = classify(table_with_counts(counts), HrpThreshold(0.90))
    share = hrp_address_share(stats)
    assert abs(share - 0.30) <= 0.005
    assert share == hrp_addresses / total
    hist = responsiveness_histogram(stats)
    assert hist.prefix_count[240] == 22
    assert sum(hist.address_count[231:]) == hrp_addresses
    assert sum(hist.prefix_count[231:]) / hist.total_prefixes == 0.022
    _report(5, started, "2.2% of prefixes hold exactly 30% of addresses; histogram mass exact")


def test_criterion_6_planner_economy_on_cdn_corpus():
    started = time.perf_counter()
    counts = {p: 256 for p in range(100)}
    occupancy = table_with_counts(counts, META)
    policy = SamplePolicy(k=10, rng_seed=42)
    plan = build_plan(occupancy, set(counts), [], policy)
    truth = {}
    for prefix in counts:
        for addr in occupancy.addresses(prefix):
            truth[addr] = AppResult(addr, META, SUCCESS, f"cert{prefix}")
    classes = {
        prefix: classify_sample(
            [truth[a] for a in plan.entries[prefix].addresses], policy
        )
        for prefix in plan.entries
    }
    assert set(classes.values()) == {CDN_LIKE}
    final = escalate(plan, classes, occupancy)
    metrics = evaluate_plan(final, truth.values())
    assert metrics.identifier_coverage == 1.0
    assert metrics.handshakes_planned == 1000
    assert metrics.reduction == 1 - 1000 / 25600
    assert metrics.reduction >= 0.96
    _report(6, started, "100 cdn-like HRPs: coverage 1.0, reduction 0.9609375")


def test_criterion_7_escalation_completeness():
    started = time.perf_counter()
    # 100 HRPs; 5 of them serve 3 interleaved identifiers, the rest one.
    counts = {p: 256 for p in range(100)}
    occupancy = table_with_counts(counts, META)
    policy = SamplePolicy(k=10, rng_seed=7)
    diverse_prefixes = set(range(5))
    truth = {}
    for prefix in counts:
        for addr in occupancy.addresses(prefix):
            if prefix in diverse_prefixes:
                identifier = f"id{prefix}-{addr % 3}"
            else:
                identifier = f"cert{prefix}"
            truth[addr] = AppResult(addr, META, SUCCESS, identifier)
    plan = build_plan(occupancy, set(counts), [], policy)
    classes = {
        prefix: classify_sample(
            [truth[a] for a in plan.entries[prefix].addresses], policy
        )
        for prefix in plan.entries
    }
    assert {p for p, c in classes.items() if c == DIVERSE} == diverse_prefixes
    final = escalate(plan, classes, occupancy)
    for prefix in diverse_prefixes:
        assert set(final.entries[prefix].addresses) == set(
            occupancy.addresses(prefix)
        )
    metrics = evaluate_plan(final, truth.values())
    assert metrics.identifier_coverage == 1.0
    _report(7, started, "5% diverse HRPs detected, escalated to full, coverage 1.0")


def test_criterion_8_persistence_metrics():
    started = time.perf_counter()
    scans = []
    for week in range(10):
        counts = {2: 256, 1: 256 if week < 7 else 10}
        meta = make_meta()
        scans.append(classify(table_with_counts(counts, meta)))
    summary = persistence(scans, missing_at_most_n=5)
    assert summary.scans_classified == {1: 7, 2: 10}
    assert summary.half_period_count == 2
    assert summary.missing_at_most_n_share == 1.0
    _report(8, started, "scans_classified {7, 10}, half_period_count 2, share 1.0")


def test_criterion_9_plan_determinism(tmp_path):
    started = time.perf_counter()
    scan = tmp_path / "scan.txt"
    rng = random.Random(11)
    lines = []
    for prefix in range(40):
        count = rng.choice([3, 12, 231, 240, 256])
        lines += [f"10.0.{prefix}.{host}" for host in range(count)]
    scan.write_text("\n".join(lines) + "\n", encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("ip,name_count\n10.0.0.8,4\n10.0.1.9,2\n", encoding="utf-8")
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main([
            "plan", "--port", "443", "--proto", "tcp", "--k", "10", "--rng-seed", "7",
            "--output", str(out), "--summary", str(tmp_path / "summary.json"),
            str(scan), str(seeds),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(9, started, "cmd_plan twice with the same inputs and seed is byte-identical")


def test_criterion_10_dataset_scale_values_acknowledged():
    started = time.perf_counter()
    # The published Internet-scale numbers (per-port 30-80% HRP address
    # shares, the AS top-10 ranking, the application-layer success tables,
    # the two-year weekly series, the ~1% vantage divergence) depend on live
    # scan datasets and are not reproducible at desk scale. Their structure
    # is pinned instead by criteria 3, 5, and 8 plus the module invariant
    # suites (threshold monotonicity, planted distributions, persistence,
    # vantage mirroring).
    for stand_in in (
        test_criterion_3_threshold_monotonicity,
        test_criterion_5_planted_distribution_reproduction,
        test_criterion_8_persistence_metrics,
    ):
        assert callable(stand_in)
    _report(10, started, "dataset-scale shares are validated structurally, not numerically")
