"""HRP-aware application-layer target plans.

Each /24's targets are planned as host octets. Non-HRP prefixes are planned
in full. Each HRP gets at most ``k`` targets: hosts named by DNS seeds first
(most-referenced first, then lowest host), topped up with a uniform
without-replacement draw from the prefix's remaining responsive hosts.
Sampled outcomes classify the prefix as proxy, cdn_like, or diverse;
diverse prefixes escalate to a full scan of their responsive hosts.

Plans must be byte-identical across platforms and Python versions, so
sampling uses an in-repo SplitMix64 generator (Steele et al.'s mix
constants) rather than ``random``: stream state for a prefix is
``(rng_seed * 0x9E3779B97F4A7C15 + prefix) mod 2^64`` and draws are
rejection-sampled, so a plan is a pure function of (occupancy, HRP set,
seeds, policy) and per-prefix work can run in parallel without changing
the result.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import compress, pairwise
from math import isfinite
from operator import ne, or_
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .applayer import STATUS_CODES, SUCCESS, AppResults, single_identifier
from .ingest import Checked, Record, format_ipv4, ipv4_column, parse_uint, read_csv
from .prefixes import PrefixTable, format_slash24, parse_slash24

STRATEGY_FULL = "full"
STRATEGY_SAMPLED = "sampled"
STRATEGIES = (STRATEGY_FULL, STRATEGY_SAMPLED)

NON_HRP_FULL = "non_hrp_full"
DNS_SEED = "dns_seed"
UNIFORM_FILL = "uniform_fill"
ESCALATION = "escalation"
PROVENANCES = (NON_HRP_FULL, DNS_SEED, UNIFORM_FILL, ESCALATION)
PROVENANCE_CODES = {provenance: code for code, provenance in enumerate(PROVENANCES)}  # as PlanEntry holds them

PROXY = "proxy"
CDN_LIKE = "cdn_like"
DIVERSE = "diverse"
SCENARIOS = (PROXY, CDN_LIKE, DIVERSE)

PLAN_COLUMNS = ("ip", "prefix", "strategy", "provenance")
DNS_SEED_COLUMNS = ("ip", "name_count")

_MAX_NAME_COUNT = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class PlanEvaluationError(ValueError):
    """Ground truth does not cover the plan under evaluation."""


class SplitMix64:
    """SplitMix64: fixed 64-bit generator for reproducible sampling."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randbelow(self, n: int) -> int:
        """Uniform draw from [0, n) via rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


def _prefix_stream(rng_seed: int, prefix: int) -> SplitMix64:
    return SplitMix64((rng_seed * _GAMMA + prefix) & _MASK64)


def _sample_without_replacement(items: Sequence[int], m: int, rng: SplitMix64) -> list[int]:
    """First m entries of a partial Fisher-Yates shuffle, in draw order."""
    pool = list(items)
    for i in range(m):
        j = i + rng.randbelow(len(pool) - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:m]


class DnsSeed(Checked, namedtuple("DnsSeed", "address name_count")):
    """An address DNS points at, weighted by how many names reference it."""

    __slots__ = ()

    def __new__(cls, address: int, name_count: int):
        if name_count < 1:
            raise ValueError(f"name_count must be >= 1, got {name_count}")
        return super().__new__(cls, address, name_count)


def _decimal(cutoff: float) -> tuple[int, int]:
    """The decimal value of ``repr(cutoff)`` as (numerator, a positive denominator), so that rates
    compare with it exactly in integers: ``1e-05`` is (1, 100000). ValueError unless finite."""
    mantissa, _, exponent = repr(cutoff).partition("e")
    whole, _, digits = mantissa.partition(".")
    scale = len(digits) - int(exponent or 0)  # the value is int(whole + digits) / 10**scale
    return int(whole + digits) * 10 ** max(-scale, 0), 10 ** max(scale, 0)


class SamplePolicy(Checked, namedtuple(
        "SamplePolicy", "k rng_seed proxy_max_success cdn_min_success include_unresponsive_seeds")):
    """Sampling knobs: targets per HRP, PRNG seed, and scenario cutoffs.

    include_unresponsive_seeds keeps DNS-seeded targets that the port scan
    missed (SNI-dependent services); disable to sample responsive addresses
    only. The proxy/cdn cutoffs bound the sampled success rate and are
    compared exactly on their decimal values.
    """

    __slots__ = ()

    def __new__(cls, k: int = 10, rng_seed: int = 0, proxy_max_success: float = 0.10,
                cdn_min_success: float = 0.90, include_unresponsive_seeds: bool = True):
        if not 1 <= k <= 256:
            raise ValueError(f"k must be in [1, 256], got {k}")
        for name, cutoff in ("proxy_max_success", proxy_max_success), ("cdn_min_success", cdn_min_success):
            if not isfinite(cutoff):
                raise ValueError(f"{name} must be finite, got {cutoff}")
        (p, q), (c, d) = _decimal(proxy_max_success), _decimal(cdn_min_success)
        if not (0 <= p and p * d < c * q and c <= d):  # 0 <= p/q < c/d <= 1
            raise ValueError(
                f"need 0 <= proxy_max_success < cdn_min_success <= 1, "
                f"got {proxy_max_success} / {cdn_min_success}"
            )
        return super().__new__(cls, k, rng_seed, proxy_max_success, cdn_min_success, include_unresponsive_seeds)


class PlanEntry(Checked, namedtuple("PlanEntry", "prefix strategy hosts provenances")):
    """Targets of one /24 in plan order as host octets, the last byte of each address, and their
    provenances as one code (PROVENANCE_CODES) per target: checked, as the writers rely on both."""

    __slots__ = ()

    def __new__(cls, prefix: int, strategy: str, hosts: bytes, provenances: bytes):
        if not 0 <= prefix < 1 << 24:
            raise ValueError(f"prefix out of range: {prefix}")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        hosts, provenances = bytes(hosts), bytes(provenances)
        if len(provenances) != len(hosts):
            raise ValueError(f"{len(provenances)} provenance codes for {len(hosts)} targets")
        if max(provenances, default=0) >= len(PROVENANCES):
            raise ValueError(f"provenance codes must be below {len(PROVENANCES)}, got {max(provenances)}")
        return super().__new__(cls, prefix, strategy, hosts, provenances)


class TargetPlan(Record):
    """Per-prefix strategies and concrete target addresses."""

    def __init__(self, entries: dict[int, PlanEntry]):
        self.entries = entries

    def total_targets(self) -> int:
        return sum(len(entry.hosts) for entry in self.entries.values())


class PlanMetrics(NamedTuple):
    """Cost and coverage of a plan against full-scan ground truth."""

    handshakes_planned: int
    handshakes_full_baseline: int
    reduction: float
    identifier_coverage: float


def build_plan(
    occupancy: PrefixTable,
    hrps: Iterable[int],
    seeds: Iterable[DnsSeed],
    policy: SamplePolicy,
) -> TargetPlan:
    """Deterministic target plan over every visible prefix of the scan."""
    hrp_set = set(hrps)
    missing = sorted(p for p in hrp_set if not occupancy.count(p))
    if missing:
        raise ValueError(f"HRPs missing from the occupancy table: {missing[:5]}")
    seeds_by_prefix: dict[int, dict[int, int]] = {}  # prefix -> host -> name count
    for seed in seeds:
        per_prefix = seeds_by_prefix.setdefault(seed.address >> 8, {})
        per_prefix[seed.address & 0xFF] = per_prefix.get(seed.address & 0xFF, 0) + seed.name_count
    entries: dict[int, PlanEntry] = {}
    for prefix in occupancy.prefixes():
        responsive = occupancy.hosts(prefix)
        if prefix not in hrp_set:
            entries[prefix] = PlanEntry(prefix, STRATEGY_FULL, responsive, bytes(len(responsive)))  # NON_HRP_FULL
            continue
        entries[prefix] = _sample_hrp(prefix, responsive, seeds_by_prefix.get(prefix, {}), policy)
    return TargetPlan(entries)


def _sample_hrp(
    prefix: int, responsive: bytes, seed_names: dict[int, int], policy: SamplePolicy
) -> PlanEntry:
    eligible = [
        (host, names)
        for host, names in seed_names.items()
        if policy.include_unresponsive_seeds or host in responsive
    ]
    eligible.sort(key=lambda pair: (-pair[1], pair[0]))
    seeded = [host for host, _ in eligible[: policy.k]]
    drawn: list[int] = []
    fill_budget = policy.k - len(seeded)
    if fill_budget > 0:
        candidates = [host for host in responsive if host not in seed_names]
        rng = _prefix_stream(policy.rng_seed, prefix)
        drawn = _sample_without_replacement(candidates, min(fill_budget, len(candidates)), rng)
    codes = b"\1" * len(seeded) + b"\2" * len(drawn)  # DNS_SEED, then UNIFORM_FILL
    return PlanEntry(prefix, STRATEGY_SAMPLED, seeded + drawn, codes)


def classify_sample(sample_results: AppResults, policy: SamplePolicy) -> str:
    """Scenario for one HRP from its sampled outcomes.

    success rate <= proxy_max_success -> proxy; rate >= cdn_min_success with
    every success carrying one shared identifier -> cdn_like; else diverse.
    """
    if not len(sample_results):
        raise ValueError("classify_sample needs at least one result")
    success = STATUS_CODES[SUCCESS]
    successes = [i for code, i in zip(sample_results.statuses, sample_results.identifiers) if code == success]
    (p, q), (c, d) = _decimal(policy.proxy_max_success), _decimal(policy.cdn_min_success)
    hits, size = len(successes), len(sample_results)
    if hits * q <= p * size:  # the success rate hits/size <= p/q
        return PROXY
    if hits * d >= c * size and single_identifier(successes):
        return CDN_LIKE
    return DIVERSE


def escalate(plan: TargetPlan, classes: Mapping[int, str], occupancy: PrefixTable) -> TargetPlan:
    """Grow diverse prefixes to their full responsive sets; others unchanged."""
    entries = dict(plan.entries)
    for prefix, scenario in classes.items():
        if prefix not in plan.entries:
            raise ValueError(f"classified prefix not in plan: {format_slash24(prefix)}")
        if scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {scenario!r} for {format_slash24(prefix)}")
        if scenario != DIVERSE:
            continue
        entry = entries[prefix]
        additions = occupancy.hosts(prefix).translate(None, entry.hosts)
        codes = entry.provenances + b"\3" * len(additions)  # ESCALATION
        entries[prefix] = PlanEntry(prefix, entry.strategy, entry.hosts + additions, codes)
    return TargetPlan(entries)


def evaluate_plan(final_plan: TargetPlan, truth: AppResults) -> PlanMetrics:
    """Cost/coverage of a plan against ground truth for every responsive address.

    A target's first truth row gives its identifier. Memory is a bitmap per /24 of the targets
    seen plus a flag per distinct identifier. Raises PlanEvaluationError when a planned target
    has no truth row. With an empty plan and empty truth, reduction is 0 and coverage 1 (vacuous).
    """
    entries = final_plan.entries
    seen_of: dict[int, int] = {}  # prefix -> bitmap of the hosts with a truth row so far
    reached: dict[str, bool] = {}  # identifier -> whether a planned target's first row has it
    for target, identifier in zip(truth.targets, truth.identifiers):
        prefix, host = target >> 8, target & 0xFF
        if not (seen := seen_of.get(prefix, 0)) >> host & 1:
            seen_of[prefix] = seen | 1 << host
            if identifier is not None and not reached.get(identifier):
                reached[identifier] = prefix in entries and host in entries[prefix].hosts
    planned, missing = 0, []  # (prefix, bitmap) of the planned targets without a truth row
    for prefix, entry in entries.items():
        mask = reduce(or_, map((1).__lshift__, entry.hosts), 0)
        planned += mask.bit_count()
        if bits := mask & ~seen_of.get(prefix, 0):
            missing.append((prefix, bits))
    if missing:
        prefix, bits = min(missing)
        count = sum(b.bit_count() for _, b in missing)
        first = format_ipv4(prefix << 8 | (bits & -bits).bit_length() - 1)
        raise PlanEvaluationError(f"{count} planned targets missing from ground truth, first: {first}")
    baseline = sum(map(int.bit_count, seen_of.values()))
    return PlanMetrics(
        handshakes_planned=planned,
        handshakes_full_baseline=baseline,
        reduction=1 - planned / baseline if baseline else 0.0,
        identifier_coverage=sum(reached.values()) / len(reached) if reached else 1.0,
    )


def read_dns_seeds(lines: Iterable[str]) -> list[DnsSeed]:
    """Seeds CSV ``ip,name_count`` with a header; duplicate addresses merge."""

    def parse(columns: list[list[str]]) -> list[tuple[int, int]]:
        ips, name_counts = columns
        addresses = ipv4_column(ips)
        return list(zip(addresses, [parse_uint(text, 1, _MAX_NAME_COUNT, "name_count") for text in name_counts]))

    merged: dict[int, int] = {}
    for rows in read_csv(lines, DNS_SEED_COLUMNS, parse):
        for address, name_count in rows:
            merged[address] = merged.get(address, 0) + name_count
    return [DnsSeed(address, merged[address]) for address in sorted(merged)]


def write_plan_csv(plan: TargetPlan, out: IO[str]) -> None:
    """CSV form, prefixes ascending and targets in plan order."""
    out.write(",".join(PLAN_COLUMNS) + "\n")
    ends = [f"{provenance}\n" for provenance in PROVENANCES]  # a row's last field by its code
    for prefix in sorted(plan.entries):
        entry = plan.entries[prefix]
        slash24 = format_slash24(prefix)
        base, mid = slash24[:-4], f",{slash24},{entry.strategy},"  # a.b.c. and the fields after the host
        out.write("".join([f"{base}{host}{mid}{ends[code]}" for host, code in zip(entry.hosts, entry.provenances)]))


def write_plan_targets(plan: TargetPlan, out: IO[str]) -> None:
    """One target address per line: a ready-made input list for a scanner."""
    for prefix in sorted(plan.entries):
        base = format_slash24(prefix)[:-4]
        out.write("".join([f"{base}{host}\n" for host in plan.entries[prefix].hosts]))


def read_plan_csv(lines: Iterable[str]) -> TargetPlan:
    """Read the CSV form back into a plan.

    Each address must lie in its row's prefix and appear once, which is checked against the
    /24's hosts so far, so memory is per /24; every row of one prefix must name the same strategy.
    """
    entries: dict[int, PlanEntry] = {}

    def parse(columns: list[list[str]]) -> dict[int, PlanEntry]:
        """The entries of the prefixes that the rows name, each grown by the rows in order."""
        ips, prefix_texts, strategies, provenances = columns
        addresses = ipv4_column(ips)
        for name, texts, known in ("strategy", strategies, STRATEGIES), ("provenance", provenances, PROVENANCES):
            if not set(known).issuperset(texts):
                raise ValueError(f"unknown {name} {next(t for t in texts if t not in known)!r}")
        keys = list(zip(prefix_texts, strategies, provenances))
        starts = [0, *compress(range(1, len(keys)), map(ne, keys[1:], keys)), len(keys)]
        grown: dict[int, PlanEntry] = {}
        for start, end in pairwise(starts):
            prefix_text, strategy, provenance = keys[start]
            prefix = parse_slash24(prefix_text)
            targets = addresses[start:end]
            if not prefix == min(targets) >> 8 == max(targets) >> 8:
                outside = next(a for a in targets if a >> 8 != prefix)
                raise ValueError(f"address {format_ipv4(outside)} is outside {prefix_text}")
            _, known, before, codes = grown.get(prefix) or entries.get(prefix) or (prefix, strategy, b"", b"")
            if known != strategy:
                raise ValueError(f"mixed strategies for {prefix_text}")
            hosts = bytes(map((0xFF).__and__, targets))
            # before holds no repeat: hosts adds none if it holds none and deletes none from before
            if len(set(hosts)) != len(hosts) or len(before.translate(None, hosts)) != len(before):
                repeated = next(h for i, h in enumerate(hosts) if h in before or h in hosts[:i])
                raise ValueError(f"repeated address {format_ipv4(prefix << 8 | repeated)} in {prefix_text}")
            codes += bytes([PROVENANCE_CODES[provenance]]) * len(hosts)
            grown[prefix] = PlanEntry(prefix, strategy, before + hosts, codes)
        return grown

    for grown in read_csv(lines, PLAN_COLUMNS, parse):
        entries.update(grown)
    return TargetPlan(entries)


def plan_summary(plan: TargetPlan) -> dict:
    """Counts by strategy and provenance for the JSON summary."""
    strategy_counts = {STRATEGY_FULL: 0, STRATEGY_SAMPLED: 0}
    codes = bytearray()  # every target's provenance code
    for entry in plan.entries.values():
        strategy_counts[entry.strategy] += 1
        codes += entry.provenances
    return {
        "prefixes": len(plan.entries),
        "targets": plan.total_targets(),
        "strategy_prefixes": strategy_counts,
        "provenance_targets": {p: codes.count(code) for p, code in PROVENANCE_CODES.items()},
    }
