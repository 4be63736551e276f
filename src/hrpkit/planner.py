"""HRP-aware application-layer target plans.

Non-HRP prefixes are planned in full. Each HRP gets at most ``k`` targets:
addresses named by DNS seeds first (most-referenced first, then lowest
address), topped up with a uniform without-replacement draw from the
prefix's remaining responsive addresses. Sampled outcomes classify the
prefix as proxy, cdn_like, or diverse; diverse prefixes escalate to a full
scan of their responsive addresses.

Plans must be byte-identical across platforms and Python versions, so
sampling uses an in-repo SplitMix64 generator (Steele et al.'s mix
constants) rather than ``random``: stream state for a prefix is
``(rng_seed * 0x9E3779B97F4A7C15 + prefix) mod 2^64`` and draws are
rejection-sampled, so a plan is a pure function of (occupancy, HRP set,
seeds, policy) and per-prefix work can run in parallel without changing
the result.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, groupby, islice, pairwise
from operator import ne
from typing import IO, Iterable, Mapping, Sequence

from .applayer import STATUS_CODES, SUCCESS, AppResult, AppResults, single_identifier
from .ingest import format_ipv4, ipv4_column, parse_uint, read_csv
from .prefixes import PrefixTable, format_slash24, parse_slash24

STRATEGY_FULL = "full"
STRATEGY_SAMPLED = "sampled"
STRATEGIES = (STRATEGY_FULL, STRATEGY_SAMPLED)

NON_HRP_FULL = "non_hrp_full"
DNS_SEED = "dns_seed"
UNIFORM_FILL = "uniform_fill"
ESCALATION = "escalation"
PROVENANCES = (NON_HRP_FULL, DNS_SEED, UNIFORM_FILL, ESCALATION)

PROXY = "proxy"
CDN_LIKE = "cdn_like"
DIVERSE = "diverse"
SCENARIOS = (PROXY, CDN_LIKE, DIVERSE)

PLAN_COLUMNS = ("ip", "prefix", "strategy", "provenance")
DNS_SEED_COLUMNS = ("ip", "name_count")

_MAX_NAME_COUNT = (1 << 63) - 1
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class PlanEvaluationError(Exception):
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


@dataclass(frozen=True)
class DnsSeed:
    """An address DNS points at, weighted by how many names reference it."""

    address: int
    name_count: int

    def __post_init__(self):
        if self.name_count < 1:
            raise ValueError(f"name_count must be >= 1, got {self.name_count}")


@dataclass(frozen=True)
class SamplePolicy:
    """Sampling knobs: targets per HRP, PRNG seed, and scenario cutoffs.

    include_unresponsive_seeds keeps DNS-seeded targets that the port scan
    missed (SNI-dependent services); disable to sample responsive addresses
    only. The proxy/cdn cutoffs bound the sampled success rate and are
    compared exactly on their decimal values.
    """

    k: int = 10
    rng_seed: int = 0
    proxy_max_success: float = 0.10
    cdn_min_success: float = 0.90
    include_unresponsive_seeds: bool = True

    def __post_init__(self):
        if not 1 <= self.k <= 256:
            raise ValueError(f"k must be in [1, 256], got {self.k}")
        proxy = Fraction(str(self.proxy_max_success))
        cdn = Fraction(str(self.cdn_min_success))
        if not 0 <= proxy < cdn <= 1:
            raise ValueError(
                f"need 0 <= proxy_max_success < cdn_min_success <= 1, "
                f"got {self.proxy_max_success} / {self.cdn_min_success}"
            )


@dataclass(frozen=True)
class PlanEntry:
    """Targets of one /24 in plan order, with their provenances as runs: the maximal
    ``(provenance, length)`` segments over addresses, so equal plans compare equal.
    The writers rely on the runs covering the addresses, all in the prefix; both are checked."""

    prefix: int
    strategy: str
    addresses: tuple[int, ...]
    runs: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.runs != _runs(self.runs) or sum(length for _, length in self.runs) != len(self.addresses):
            raise ValueError(f"runs {self.runs} are not the maximal runs over {len(self.addresses)} targets")
        if self.addresses and not self.prefix == min(self.addresses) >> 8 == max(self.addresses) >> 8:
            raise ValueError(f"targets outside {format_slash24(self.prefix)}")


def _runs(segments: Iterable[Sequence]) -> tuple[tuple[str, int], ...]:
    """Maximal runs over consecutive ``(provenance, length)`` segments; empty ones drop out."""
    nonempty = [(provenance, length) for provenance, length in segments if length > 0]
    return tuple((p, sum(length for _, length in group)) for p, group in groupby(nonempty, lambda s: s[0]))


@dataclass
class TargetPlan:
    """Per-prefix strategies and concrete target addresses."""

    entries: dict[int, PlanEntry]

    def total_targets(self) -> int:
        return sum(len(entry.addresses) for entry in self.entries.values())

    def target_addresses(self) -> set[int]:
        return {address for entry in self.entries.values() for address in entry.addresses}


@dataclass(frozen=True)
class PlanMetrics:
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
    seeds_by_prefix: dict[int, dict[int, int]] = {}
    for seed in seeds:
        per_prefix = seeds_by_prefix.setdefault(seed.address >> 8, {})
        per_prefix[seed.address] = per_prefix.get(seed.address, 0) + seed.name_count
    entries: dict[int, PlanEntry] = {}
    for prefix in occupancy.prefixes():
        responsive = occupancy.addresses(prefix)
        if prefix not in hrp_set:
            runs = _runs([(NON_HRP_FULL, len(responsive))])
            entries[prefix] = PlanEntry(prefix, STRATEGY_FULL, tuple(responsive), runs)
            continue
        entries[prefix] = _sample_hrp(prefix, responsive, seeds_by_prefix.get(prefix, {}), policy)
    return TargetPlan(entries)


def _sample_hrp(
    prefix: int, responsive: list[int], seed_names: dict[int, int], policy: SamplePolicy
) -> PlanEntry:
    responsive_set = set(responsive)
    eligible = [
        (address, names)
        for address, names in seed_names.items()
        if policy.include_unresponsive_seeds or address in responsive_set
    ]
    eligible.sort(key=lambda pair: (-pair[1], pair[0]))
    seeded = [address for address, _ in eligible[: policy.k]]
    drawn: list[int] = []
    fill_budget = policy.k - len(seeded)
    if fill_budget > 0:
        candidates = [addr for addr in responsive if addr not in seed_names]
        rng = _prefix_stream(policy.rng_seed, prefix)
        drawn = _sample_without_replacement(candidates, min(fill_budget, len(candidates)), rng)
    runs = _runs([(DNS_SEED, len(seeded)), (UNIFORM_FILL, len(drawn))])
    return PlanEntry(prefix, STRATEGY_SAMPLED, tuple(seeded + drawn), runs)


def classify_sample(sample_results: AppResults | Sequence[AppResult], policy: SamplePolicy) -> str:
    """Scenario for one HRP from its sampled outcomes.

    success rate <= proxy_max_success -> proxy; rate >= cdn_min_success with
    every success carrying one shared identifier -> cdn_like; else diverse.
    """
    sample = AppResults.of(sample_results)
    if not len(sample):
        raise ValueError("classify_sample needs at least one result")
    success = STATUS_CODES[SUCCESS]
    successes = [i for code, i in zip(sample.statuses, sample.identifiers) if code == success]
    rate = Fraction(len(successes), len(sample))
    if rate <= Fraction(str(policy.proxy_max_success)):
        return PROXY
    if rate >= Fraction(str(policy.cdn_min_success)) and single_identifier(successes):
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
        planned = set(entry.addresses)
        additions = tuple(addr for addr in occupancy.addresses(prefix) if addr not in planned)
        runs = _runs([*entry.runs, (ESCALATION, len(additions))])
        entries[prefix] = PlanEntry(prefix, entry.strategy, entry.addresses + additions, runs)
    return TargetPlan(entries)


def evaluate_plan(final_plan: TargetPlan, truth: AppResults | Iterable[AppResult]) -> PlanMetrics:
    """Cost/coverage of a plan against ground truth for every responsive address.

    Raises PlanEvaluationError when a planned target has no truth row. With
    an empty plan and empty truth, reduction is 0 and coverage 1 (vacuous).
    """
    truth = AppResults.of(truth)
    # Each target's identifier from its first row: built backwards, the first row is set last.
    identifier_of = dict(zip(reversed(truth.targets), reversed(truth.identifiers)))
    planned = final_plan.target_addresses()
    uncovered = sorted(a for a in planned if a not in identifier_of)
    if uncovered:
        raise PlanEvaluationError(
            f"{len(uncovered)} planned targets missing from ground truth, "
            f"first: {format_ipv4(uncovered[0])}"
        )
    baseline = len(identifier_of)
    all_identifiers = set(identifier_of.values()) - {None}
    reached = {identifier_of[a] for a in planned} - {None}
    return PlanMetrics(
        handshakes_planned=len(planned),
        handshakes_full_baseline=baseline,
        reduction=1 - len(planned) / baseline if baseline else 0.0,
        identifier_coverage=len(reached) / len(all_identifiers) if all_identifiers else 1.0,
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
    for prefix in sorted(plan.entries):
        entry = plan.entries[prefix]
        slash24 = format_slash24(prefix)
        base = slash24[:-4]  # a.b.c.
        addresses = iter(entry.addresses)
        for provenance, length in entry.runs:
            tail = f",{slash24},{entry.strategy},{provenance}\n"
            out.write("".join([f"{base}{a & 0xFF}{tail}" for a in islice(addresses, length)]))


def write_plan_targets(plan: TargetPlan, out: IO[str]) -> None:
    """One target address per line: a ready-made input list for a scanner."""
    for prefix in sorted(plan.entries):
        base = format_slash24(prefix)[:-4]
        out.write("".join([f"{base}{a & 0xFF}\n" for a in plan.entries[prefix].addresses]))


def read_plan_csv(lines: Iterable[str]) -> TargetPlan:
    """Read the CSV form back into a plan.

    Each address must lie in its row's prefix and appear once; every row of
    one prefix must name the same strategy.
    """
    rows: dict[int, tuple[str, array, list[tuple[str, int]]]] = {}  # prefix -> strategy, addresses, runs
    seen: set[int] = set()  # the addresses so far

    def parse(columns: list[list[str]]) -> tuple[list[tuple[int, str, array, str]], set[int]]:
        """The rows as segments ``(prefix, strategy, addresses, provenance)`` of consecutive rows
        alike but for their address, and the addresses they add to ``seen``."""
        ips, prefix_texts, strategies, provenances = columns
        addresses = ipv4_column(ips)
        for name, texts, known in ("strategy", strategies, STRATEGIES), ("provenance", provenances, PROVENANCES):
            if not set(known).issuperset(texts):
                raise ValueError(f"unknown {name} {next(t for t in texts if t not in known)!r}")
        keys = list(zip(prefix_texts, strategies, provenances))
        starts = [0, *compress(range(1, len(keys)), map(ne, keys[1:], keys)), len(keys)]
        segments = []
        strategy_of: dict[int, str] = {}  # of each prefix in the block
        added: set[int] = set()
        for start, end in pairwise(starts):
            prefix_text, strategy, provenance = keys[start]
            prefix = parse_slash24(prefix_text)
            targets = addresses[start:end]
            if not prefix == min(targets) >> 8 == max(targets) >> 8:
                outside = next(a for a in targets if a >> 8 != prefix)
                raise ValueError(f"address {format_ipv4(outside)} is outside {prefix_text}")
            known = strategy_of.setdefault(prefix, rows[prefix][0] if prefix in rows else strategy)
            if known != strategy:
                raise ValueError(f"mixed strategies for {prefix_text}")
            fresh = set(targets)
            if len(fresh) != len(targets) or not seen.isdisjoint(fresh) or not added.isdisjoint(fresh):
                repeated = next(a for i, a in enumerate(targets) if a in seen or a in added or a in targets[:i])
                raise ValueError(f"repeated address {format_ipv4(repeated)} in {prefix_text}")
            added |= fresh
            segments.append((prefix, strategy, targets, provenance))
        return segments, added

    for segments, added in read_csv(lines, PLAN_COLUMNS, parse):
        seen |= added
        for prefix, strategy, targets, provenance in segments:
            _, addresses, runs = rows.setdefault(prefix, (strategy, array("I"), []))
            addresses += targets
            runs.append((provenance, len(targets)))
    return TargetPlan({p: PlanEntry(p, s, tuple(a), _runs(r)) for p, (s, a, r) in rows.items()})


def plan_summary(plan: TargetPlan) -> dict:
    """Counts by strategy and provenance for the JSON summary."""
    strategy_counts = {STRATEGY_FULL: 0, STRATEGY_SAMPLED: 0}
    provenance_counts = {p: 0 for p in PROVENANCES}
    for entry in plan.entries.values():
        strategy_counts[entry.strategy] += 1
        for provenance, length in entry.runs:
            provenance_counts[provenance] += length
    return {
        "prefixes": len(plan.entries),
        "targets": plan.total_targets(),
        "strategy_prefixes": strategy_counts,
        "provenance_targets": provenance_counts,
    }
