"""Seeded synthetic corpora for the hrpkit benchmark, with planted ground truth.

Each workload gets its input files plus ``truth.json``: the planted counts
(distinct addresses, prefixes, HRPs, scenario mix, expected plan reduction,
identifier coverage 1.0) and, under ``expect``, the values each command's
JSON output must report. The same (workload, seed, scale) always gives the
same bytes. Corpus sizes do not depend on the seed, only on the scale, so
runs with different seeds do the same amount of work.

    python3 bench/corpus.py --seed 1 --scale 1.0 --out DIR

Stdlib only, and nothing from hrpkit: the planted truth must not depend on
the code it checks.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

PORT = 443
K = 10  # targets per HRP: the CLI's default --k
HRP_MIN = 231  # ceil(0.90 * 256): the CLI's default threshold
DENSE_COUNTS = (231, 240, 250, 256)  # the ROADMAP corpus's dense /24 counts
SHARDS = 4  # at least the CPU count of the 2-CPU reference box

STATS_HEADER = "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix\n"
RESULTS_HEADER = "ip,port,proto,status,identifier\n"
SCAN_HEADER = "saddr,daddr,sport,dport,classification,success\n"
SEEDS_HEADER = "ip,name_count\n"

# Lines every reader must count as invalid under --policy lenient.
MALFORMED_SCAN_LINES = ("256.1.2.3", "1.2.3", "1.2.3.4.5", "not-an-address", "")
MALFORMED_ROUTE_LINES = (
    "198.51.100.0/33,64500",
    "203.0.113.0/24",
    "192.0.2.0/24,AS64500",
    "300.0.0.0/8,64501",
)


def scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def ip_text(value: int) -> str:
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


def slash24_text(prefix: int) -> str:
    return f"{prefix >> 16}.{(prefix >> 8) & 0xFF}.{prefix & 0xFF}.0/24"


def _mask(length: int) -> int:
    return (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0


def _random_slash24s(rng: random.Random, n: int) -> list[int]:
    """n distinct /24 network values with first octet 1..223."""
    return rng.sample(range(1 << 16, 224 << 16), n)


def _hosts(rng: random.Random, prefix: int, count: int) -> list[int]:
    base = prefix << 8
    return [base | host for host in rng.sample(range(256), count)]


def _balanced(values, n: int, rng: random.Random) -> list[int]:
    """n values cycling through `values`, shuffled: the multiset is seed-independent."""
    values = list(values)
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")


def stats_csv(counts: dict[int, int], port: int) -> str:
    rows = [
        f"{slash24_text(p)},{port},tcp,{c},{'true' if c >= HRP_MIN else 'false'},0.900000,,\n"
        for p, c in sorted(counts.items())
    ]
    return STATS_HEADER + "".join(rows)


def detect_sharded(rng: random.Random, scale: float, out: Path) -> dict:
    """A plain scan in the ROADMAP's shape, split into SHARDS files.

    Dense /24s take counts from DENSE_COUNTS; the sparse background holds
    1-19 hosts per /24. About 1% of lines repeat an address, and every
    shard carries comment lines and malformed lines.
    """
    dense_n, sparse_n = scaled(400, scale), scaled(6000, scale)
    prefixes = _random_slash24s(rng, dense_n + sparse_n)
    counts = _balanced(DENSE_COUNTS, dense_n, rng) + _balanced(range(1, 20), sparse_n, rng)
    addresses = [a for p, c in zip(prefixes, counts) for a in _hosts(rng, p, c)]
    lines = [ip_text(a) for a in addresses]
    lines += [ip_text(a) for a in rng.sample(addresses, len(addresses) // 100)]
    rng.shuffle(lines)
    per_shard = -(-len(lines) // SHARDS)
    comment_lines = invalid_lines = 0
    for i in range(SHARDS):
        chunk = lines[i * per_shard:(i + 1) * per_shard]
        for bad in MALFORMED_SCAN_LINES:
            chunk.insert(rng.randrange(len(chunk) + 1), bad)
        chunk.insert(rng.randrange(len(chunk) + 1), "# operator note: rate limit raised")
        chunk.insert(0, f"# hrpkit bench scan, shard {i + 1} of {SHARDS}")
        comment_lines += 2
        invalid_lines += len(MALFORMED_SCAN_LINES)
        _write(out / f"scan-{i + 1}.txt", "\n".join(chunk) + "\n")
    hrp_addresses = sum(c for c in counts if c >= HRP_MIN)
    hrp_prefixes = sum(1 for c in counts if c >= HRP_MIN)
    return {
        "distinct_addresses": len(addresses),
        "prefixes": len(prefixes),
        "hrp_prefixes": hrp_prefixes,
        "expect": {
            "detect.json": {
                "files": SHARDS,
                "lines_read": len(lines) + comment_lines + invalid_lines,
                "addresses_emitted": len(lines),
                "invalid_lines": invalid_lines,
                "comment_lines": comment_lines,
                "distinct_addresses": len(addresses),
                "prefixes": len(prefixes),
                "hrp_prefixes": hrp_prefixes,
                "hrp_address_share": hrp_addresses / len(addresses),
            },
        },
    }


def plan_cycle(rng: random.Random, scale: float, out: Path) -> dict:
    """A csv_saddr scan with planted proxy, cdn_like and diverse HRPs.

    The non-HRP background is dense (10-200 hosts per /24), so non_hrp_full
    targets dominate the plan. truth.csv has one application-layer outcome
    per responsive address: proxies never succeed, a cdn_like HRP serves one
    identifier from every host, and every host of a diverse HRP serves its
    own, so a sample of K always classifies as planted and the escalated
    plan reaches every identifier.
    """
    mix = {
        "proxy": scaled(40, scale),
        "cdn_like": scaled(35, scale),
        "diverse": scaled(25, scale),
    }
    hrp_n = sum(mix.values())
    background_n = scaled(300, scale)
    prefixes = _random_slash24s(rng, hrp_n + background_n)
    hrps, background = prefixes[:hrp_n], prefixes[hrp_n:]
    scenarios = [name for name, n in mix.items() for _ in range(n)]
    rng.shuffle(scenarios)
    counts = dict(zip(hrps, _balanced(DENSE_COUNTS, hrp_n, rng)))
    counts.update(zip(background, _balanced(range(10, 201), background_n, rng)))
    members = {p: _hosts(rng, p, c) for p, c in counts.items()}

    truth_rows = []
    successes = {"hrp": 0, "non_hrp": 0}
    for prefix in background:
        for a in members[prefix]:
            r = rng.random()
            if r < 0.6:
                truth_rows.append(f"{ip_text(a)},{PORT},tcp,success,{rng.getrandbits(64):016x}\n")
                successes["non_hrp"] += 1
            else:
                status = "app_error" if r < 0.75 else "unreachable"
                truth_rows.append(f"{ip_text(a)},{PORT},tcp,{status},\n")
    for prefix, scenario in zip(hrps, scenarios):
        for a in members[prefix]:
            if scenario == "proxy":
                status = rng.choice(("app_error", "unreachable"))
                truth_rows.append(f"{ip_text(a)},{PORT},tcp,{status},\n")
                continue
            identifier = f"cdn-{prefix:06x}" if scenario == "cdn_like" else f"{rng.getrandbits(64):016x}"
            truth_rows.append(f"{ip_text(a)},{PORT},tcp,success,{identifier}\n")
            successes["hrp"] += 1
    rng.shuffle(truth_rows)
    _write(out / "truth.csv", RESULTS_HEADER + "".join(truth_rows))

    addresses = [a for p in prefixes for a in members[p]]
    scanner = ip_text(0xC0000201)
    rows = [f"{ip_text(a)},{scanner},{PORT},{rng.randrange(1024, 65536)},synack,1\n" for a in addresses]
    rows += rng.sample(rows, len(rows) // 100)
    rng.shuffle(rows)
    for bad in MALFORMED_SCAN_LINES[:4]:
        rows.insert(rng.randrange(len(rows) + 1), f"{bad},{scanner},{PORT},40000,synack,1\n")
    _write(out / "scan.csv", SCAN_HEADER + "".join(rows))

    # DNS seeds: responsive hosts of about 60% of HRPs, some addresses the
    # scan never saw (dropped by --no-unresponsive-seeds), a few seeds in
    # non-HRP prefixes, and repeated lines that merge.
    seed_rows = []
    seed_addresses = set()
    dns_seed_targets = 0
    for prefix in hrps:
        if rng.random() >= 0.6:
            continue
        picked = rng.sample(members[prefix], rng.randint(1, 12))
        dns_seed_targets += min(K, len(picked))
        unseen = sorted(set(range(prefix << 8, (prefix + 1) << 8)) - set(members[prefix]))
        picked += rng.sample(unseen, min(len(unseen), rng.randint(0, 2)))
        for a in picked:
            seed_rows.append(f"{ip_text(a)},{rng.randint(1, 50)}\n")
            seed_addresses.add(a)
    for prefix in rng.sample(background, min(len(background), 20)):
        a = rng.choice(members[prefix])
        seed_rows.append(f"{ip_text(a)},{rng.randint(1, 50)}\n")
        seed_addresses.add(a)
    seed_rows += rng.sample(seed_rows, len(seed_rows) // 10)
    rng.shuffle(seed_rows)
    _write(out / "seeds.csv", SEEDS_HEADER + "".join(seed_rows))

    non_hrp = sum(counts[p] for p in background)
    escalation = sum(counts[p] - K for p, s in zip(hrps, scenarios) if s == "diverse")
    planned = non_hrp + K * hrp_n
    final = planned + escalation
    distinct = len(addresses)
    provenance = {
        "non_hrp_full": non_hrp,
        "dns_seed": dns_seed_targets,
        "uniform_fill": K * hrp_n - dns_seed_targets,
    }
    reduction = 1 - final / distinct
    return {
        "distinct_addresses": distinct,
        "prefixes": len(prefixes),
        "hrp_prefixes": hrp_n,
        "scenario_mix": mix,
        "plan_reduction": reduction,
        "identifier_coverage": 1.0,
        "expect": {
            "plan.json": {
                "hrp_prefixes": hrp_n,
                "dns_seeds": len(seed_addresses),
                "prefixes": len(prefixes),
                "targets": planned,
                "strategy_prefixes": {"full": background_n, "sampled": hrp_n},
                "provenance_targets": {**provenance, "escalation": 0},
            },
            "escalate.json": {
                "classified_prefixes": hrp_n,
                "scenario_counts": mix,
                "off_plan_results": non_hrp,
                "added_targets": escalation,
                "prefixes": len(prefixes),
                "targets": final,
                "provenance_targets": {**provenance, "escalation": escalation},
            },
            "applayer.json": {
                "hrp_count": hrp_n,
                "anomalies": 0,
                "duplicate_results": 0,
                "address_comparison": {
                    "non_hrp_targets": non_hrp,
                    "non_hrp_successes": successes["non_hrp"],
                    "hrp_targets": distinct - non_hrp,
                    "hrp_successes": successes["hrp"],
                },
            },
            "evaluate.json": {
                "handshakes_planned": final,
                "handshakes_full_baseline": distinct,
                "reduction": reduction,
                "identifier_coverage": 1.0,
            },
        },
    }


def _routes(rng: random.Random, scale: float, universe: list[int]) -> tuple[str, dict, set[int]]:
    """A RIB snapshot text, its expected load accounting, and its split /24s.

    Lengths run from /8 to /28 plus a default route: covering routes for
    most of the universe, more-specifics below /24 inside some universe
    /24s, and random routes weighted towards /24 as real tables are.
    """
    entries: dict[tuple[int, int], int] = {}
    asns = [rng.randint(1, 400000) for _ in range(scaled(2000, scale))]

    def add(network: int, length: int) -> None:
        key = (network & _mask(length), length)
        if key not in entries:
            entries[key] = rng.choice(asns)

    add(0, 0)
    for prefix in rng.sample(universe, len(universe) * 7 // 10):
        add(prefix << 8, rng.randint(16, 24))
    for prefix in rng.sample(universe, len(universe) * 3 // 100):
        for _ in range(rng.randint(1, 3)):
            add((prefix << 8) | rng.randrange(256), rng.randint(25, 28))
    lengths = list(range(8, 29))
    weights = [60 if n == 24 else 4 if 16 <= n <= 23 else 1 for n in lengths]
    target = scaled(60000, scale)
    while len(entries) < target:
        add(rng.getrandbits(32), rng.choices(lengths, weights)[0])

    keys = list(entries)
    rng.shuffle(keys)
    host_bit_keys = set(rng.sample([k for k in keys if 0 < k[1] < 32], len(keys) // 100))
    lines = []
    for network, length in keys:
        shown = network
        if (network, length) in host_bit_keys:
            shown |= rng.randint(1, ~_mask(length) & 0xFFFFFFFF)
        lines.append(f"{ip_text(shown)}/{length},{entries[network, length]}\n")
    repeats = rng.sample(keys, len(keys) // 200)
    conflicts = rng.sample(keys, len(keys) // 200)
    tail = [f"{ip_text(n)}/{l},{entries[n, l]}\n" for n, l in repeats]
    tail += [f"{ip_text(n)}/{l},{entries[n, l] + 1}\n" for n, l in conflicts]
    tail += [line + "\n" for line in MALFORMED_ROUTE_LINES]
    rng.shuffle(tail)
    comments = ["# synthetic RIB snapshot: prefix/length,origin_asn\n", "\n"]
    text = "".join(comments + lines + tail)
    load = {
        "routes_loaded": len(entries),
        "route_lines_read": len(comments) + len(lines) + len(tail),
        "route_invalid_lines": len(MALFORMED_ROUTE_LINES),
        "route_normalized_lines": len(host_bit_keys),
        "route_duplicate_conflicts": len(conflicts),
        "route_duplicate_repeats": len(repeats),
    }
    split = {network >> 8 for network, length in entries if length > 24}
    return text, load, split


def _counts(rng: random.Random, prefixes, hrps) -> dict[int, int]:
    return {p: rng.randint(HRP_MIN, 256) if p in hrps else rng.randint(1, HRP_MIN - 1) for p in prefixes}


def enrich_analyze(rng: random.Random, scale: float, out: Path) -> dict:
    """Stats files of three ports and six weekly scans, and a RIB.

    Each port's file shows 80% of one /24 universe with 5% HRPs. The weekly
    series of port 443 keeps 90% of a base HRP set each week and adds a few
    new ones, so persistence has both steady and flapping HRPs.
    """
    universe = _random_slash24s(rng, scaled(8000, scale))
    rows = len(universe) * 8 // 10
    hrp_n = max(1, rows // 20)
    expect: dict = {}
    rib, load, split = _routes(rng, scale, universe)
    _write(out / "rib.csv", rib)
    visible_any: set[int] = set()
    hrp_any: set[int] = set()
    for port in (80, 443, 8080):
        visible = rng.sample(universe, rows)
        hrps = set(rng.sample(visible, hrp_n))
        visible_any.update(visible)
        hrp_any.update(hrps)
        _write(out / f"port{port}.csv", stats_csv(_counts(rng, visible, hrps), port))
        expect[f"enrich{port}.json"] = {
            **load,
            "prefixes": rows,
            "prefixes_with_origin": rows,  # the default route covers everything
            "split_slash24_ambiguities": len(split.intersection(visible)),
        }
    expect["portmatrix.json"] = {
        "port_count": 3,
        "prefixes": len(visible_any),
        "hrp_prefixes": len(hrp_any),
    }

    base = rng.sample(universe, hrp_n)
    weekly_hrps = []
    for week in range(1, 7):
        hrps = set(rng.sample(base, hrp_n * 9 // 10))
        hrps.update(rng.sample([p for p in universe if p not in hrps], hrp_n // 20))
        others = rng.sample([p for p in universe if p not in hrps], rows - len(hrps))
        weekly_hrps.append(hrps)
        _write(out / f"week{week}.csv", stats_csv(_counts(rng, [*hrps, *others], hrps), PORT))
    classified: dict[int, int] = {}
    for hrps in weekly_hrps:
        for p in hrps:
            classified[p] = classified.get(p, 0) + 1
    missing_ok = sum(1 for n in classified.values() if 6 - n <= 2)
    expect["stability.json"] = {
        "series": [{"hrp_count": len(h)} for h in weekly_hrps],
        "persistence": {
            "total_scans": 6,
            "distinct_hrps": len(classified),
            "half_period_count": sum(1 for n in classified.values() if n >= 3),
            "full_period_count": sum(1 for n in classified.values() if n == 6),
            "missing_at_most_n": 2,
            "missing_at_most_n_count": missing_ok,
            "missing_at_most_n_share": missing_ok / len(classified),
        },
    }
    a, b = weekly_hrps[4], weekly_hrps[5]
    expect["vantage.json"] = {
        "only_a_count": len(a - b),
        "only_b_count": len(b - a),
        "both_count": len(a & b),
        "divergence": len(a ^ b) / len(a | b),
    }
    return {
        "prefixes": len(universe),
        "routes": load["routes_loaded"],
        "hrp_prefixes": len(hrp_any | set(classified)),
        "expect": expect,
    }


GENERATORS = {
    "detect_sharded": detect_sharded,
    "plan_cycle": plan_cycle,
    "enrich_analyze": enrich_analyze,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, scale: float, out: Path) -> dict:
    """Write one workload's inputs and truth.json into `out`; return the truth."""
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    truth = {"workload": workload, "seed": seed, "scale": scale, **GENERATORS[workload](rng, scale, out)}
    _write(out / "truth.json", json.dumps(truth, indent=1, sort_keys=True) + "\n")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    for workload in WORKLOADS:
        generate(workload, args.seed, args.scale, args.out / workload)


if __name__ == "__main__":
    main()
