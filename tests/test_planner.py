"""Target plans: seeded sampling, scenario classification, escalation, metrics."""

from __future__ import annotations

import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hrpkit.applayer import SUCCESS, UNREACHABLE
from hrpkit.ingest import format_ipv4
from hrpkit.planner import (
    CDN_LIKE,
    DIVERSE,
    DNS_SEED,
    ESCALATION,
    NON_HRP_FULL,
    PROVENANCES,
    PROXY,
    SCENARIOS,
    STRATEGY_FULL,
    STRATEGY_SAMPLED,
    UNIFORM_FILL,
    DnsSeed,
    PlanEntry,
    PlanEvaluationError,
    PlanMetrics,
    SamplePolicy,
    SplitMix64,
    TargetPlan,
    build_plan,
    classify_sample,
    escalate,
    evaluate_plan,
    read_dns_seeds,
    read_plan_csv,
    write_plan_csv,
)

from conftest import make_meta, results_of, table_with_counts

META = make_meta()


def _truth(addr: int, status: str = SUCCESS, identifier: str | None = None) -> tuple[int, str, str | None]:
    return addr, status, identifier


def _provenances(entry) -> list[str]:
    return [PROVENANCES[code] for code in entry.provenances]


def _targets(entry) -> list[tuple[int, str]]:
    """(address, provenance) per target, in plan order."""
    return list(zip([entry.prefix << 8 | host for host in entry.hosts], _provenances(entry), strict=True))


def test_splitmix64_matches_published_vector():
    # Reference outputs of the SplitMix64 algorithm for seed 1234567.
    generator = SplitMix64(1234567)
    assert [generator.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_randbelow_range_and_degenerate_bound():
    generator = SplitMix64(9)
    draws = [generator.randbelow(7) for _ in range(500)]
    assert set(draws) == set(range(7))
    assert SplitMix64(1).randbelow(1) == 0
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)


def test_policy_validation():
    with pytest.raises(ValueError):
        SamplePolicy(k=0)
    with pytest.raises(ValueError):
        SamplePolicy(k=300)
    with pytest.raises(ValueError):
        SamplePolicy(proxy_max_success=0.9, cdn_min_success=0.1)


def test_plan_mixes_seeds_and_uniform_fill():
    occupancy = table_with_counts({5: 256})
    seeds = [DnsSeed((5 << 8) | host, 3) for host in range(5)]
    plan = build_plan(occupancy, {5}, seeds, SamplePolicy(k=10, rng_seed=1))
    entry = plan.entries[5]
    assert entry.strategy == STRATEGY_SAMPLED
    assert _provenances(entry) == [DNS_SEED] * 5 + [UNIFORM_FILL] * 5
    assert entry.provenances == b"\1" * 5 + b"\2" * 5
    seed_addresses = {s.address for s in seeds}
    fill_addresses = {a for a, provenance in _targets(entry) if provenance == UNIFORM_FILL}
    assert not (fill_addresses & seed_addresses)
    assert len(set(entry.hosts)) == 10


def test_plan_truncates_excess_seeds_by_name_count():
    occupancy = table_with_counts({5: 256})
    seeds = [DnsSeed((5 << 8) | host, 100 - host) for host in range(12)]
    plan = build_plan(occupancy, {5}, seeds, SamplePolicy(k=10, rng_seed=1))
    entry = plan.entries[5]
    assert len(entry.hosts) == 10
    assert _provenances(entry) == [DNS_SEED] * 10
    # Highest name_count first; host 0 has the most references.
    assert entry.hosts == bytes(range(10))


def test_seed_tie_break_is_ascending_address():
    occupancy = table_with_counts({5: 256})
    seeds = [DnsSeed((5 << 8) | host, 7) for host in (9, 3, 6)]
    plan = build_plan(occupancy, {5}, seeds, SamplePolicy(k=2, rng_seed=1))
    assert plan.entries[5].hosts == bytes([3, 6])


def test_non_hrp_prefixes_are_planned_in_full():
    occupancy = table_with_counts({7: 3})
    plan = build_plan(occupancy, set(), [], SamplePolicy(k=10, rng_seed=1))
    entry = plan.entries[7]
    assert entry.strategy == STRATEGY_FULL
    assert _provenances(entry) == [NON_HRP_FULL] * 3


def test_small_hrp_takes_all_responsive():
    # k exceeding the responsive count takes everything, without error.
    occupancy = table_with_counts({6: 4})
    plan = build_plan(occupancy, {6}, [], SamplePolicy(k=10, rng_seed=1))
    assert len(plan.entries[6].hosts) == 4
    assert set(_provenances(plan.entries[6])) == {UNIFORM_FILL}


def test_unresponsive_seeds_follow_the_policy_flag():
    occupancy = table_with_counts({5: 100})  # hosts 0..99 responsive
    seeds = [DnsSeed((5 << 8) | 200, 50)]  # not responsive
    kept = build_plan(occupancy, {5}, seeds, SamplePolicy(k=10, rng_seed=1))
    assert 200 in kept.entries[5].hosts
    dropped = build_plan(
        occupancy, {5}, seeds, SamplePolicy(k=10, rng_seed=1, include_unresponsive_seeds=False)
    )
    hosts = set(dropped.entries[5].hosts)
    assert 200 not in hosts
    assert len(hosts) == 10


def test_plan_determinism_and_seed_isolation():
    occupancy = table_with_counts({5: 256, 6: 256, 7: 12})
    seeds = [DnsSeed((5 << 8) | 1, 4)]
    policy = SamplePolicy(k=10, rng_seed=7)
    first = build_plan(occupancy, {5, 6}, seeds, policy)
    second = build_plan(occupancy, {5, 6}, seeds, policy)
    buffer_a, buffer_b = io.StringIO(), io.StringIO()
    write_plan_csv(first, buffer_a)
    write_plan_csv(second, buffer_b)
    assert buffer_a.getvalue() == buffer_b.getvalue()
    # A different rng seed reshuffles only the uniform fill.
    reseeded = build_plan(occupancy, {5, 6}, seeds, SamplePolicy(k=10, rng_seed=8))
    for prefix in (5, 6):
        kept = [t for t in _targets(first.entries[prefix]) if t[1] == DNS_SEED]
        kept_reseeded = [t for t in _targets(reseeded.entries[prefix]) if t[1] == DNS_SEED]
        assert kept == kept_reseeded
    assert reseeded.entries[7] == first.entries[7]
    fills = lambda plan: [
        a for a, provenance in _targets(plan.entries[5]) if provenance == UNIFORM_FILL
    ]
    assert fills(first) != fills(reseeded)


def test_plan_has_no_duplicates_and_respects_k():
    rng = random.Random(3)
    for _ in range(20):
        counts = {p: rng.randrange(1, 257) for p in range(12)}
        occupancy = table_with_counts(counts, META)
        hrps = {p for p, c in counts.items() if c >= 231}
        seeds = [
            DnsSeed((p << 8) | rng.randrange(256), rng.randrange(1, 9))
            for p in counts
            for _ in range(rng.randrange(0, 4))
        ]
        policy = SamplePolicy(k=rng.randrange(1, 20) % 256 + 1, rng_seed=rng.getrandbits(32))
        plan = build_plan(occupancy, hrps, seeds, policy)
        for prefix, entry in plan.entries.items():
            hosts = list(entry.hosts)
            assert len(hosts) == len(set(hosts))
            assert entry.prefix == prefix
            if entry.strategy == STRATEGY_SAMPLED:
                assert len(hosts) <= policy.k
            else:
                assert len(hosts) == counts[prefix]


def test_classify_sample_scenarios():
    sample = [_truth((5 << 8) | h, UNREACHABLE) for h in range(10)]
    assert classify_sample(results_of(sample), SamplePolicy()) == PROXY
    sample = [_truth((5 << 8) | h, SUCCESS, "one") for h in range(10)]
    assert classify_sample(results_of(sample), SamplePolicy()) == CDN_LIKE
    sample = [_truth((5 << 8) | h, SUCCESS, f"id{h % 3}") for h in range(10)]
    assert classify_sample(results_of(sample), SamplePolicy()) == DIVERSE


def test_classify_sample_boundaries_are_exact():
    policy = SamplePolicy(proxy_max_success=0.10, cdn_min_success=0.90)
    one_in_ten = [_truth((5 << 8) | h, SUCCESS if h == 0 else UNREACHABLE, "x" if h == 0 else None)
                  for h in range(10)]
    assert classify_sample(results_of(one_in_ten), policy) == PROXY  # 0.1 <= 0.1
    nine_in_ten = [_truth((5 << 8) | h, SUCCESS if h else UNREACHABLE, "x" if h else None)
                   for h in range(10)]
    assert classify_sample(results_of(nine_in_ten), policy) == CDN_LIKE  # 0.9 >= 0.9, one identifier
    with pytest.raises(ValueError):
        classify_sample(results_of([]), SamplePolicy())


def _oracle_scenario(hits: int, size: int, policy: SamplePolicy) -> str:
    """classify_sample's rule on `hits` successes of one identifier in `size` results, in Fractions."""
    rate = Fraction(hits, size)
    if rate <= Fraction(repr(policy.proxy_max_success)):
        return PROXY
    return CDN_LIKE if rate >= Fraction(repr(policy.cdn_min_success)) else DIVERSE


_CUTOFFS = st.one_of(st.sampled_from([0.0, 0.1, 0.9, 1.0, 1e-05, 1.5e-07, 1 / 3, 5 / 6, 0.123456]),
                     st.floats(-0.5, 1.5))


@given(_CUTOFFS, _CUTOFFS, st.integers(1, 30), st.integers(0, 30))
@example(0.1, 0.9, 10, 1)  # 1/10 <= 0.1 exactly, though the float 0.1 is a little above 1/10
@example(0.1, 0.9, 10, 9)  # 9/10 >= 0.9 exactly, though the float 0.9 is a little below 9/10
@example(0.1, 0.9, 20, 3)
@example(0.0, 1.0, 10, 0)
@example(0.0, 1.0, 10, 10)
@example(0.0, 1.0, 10, 1)
@example(1e-05, 0.9, 30, 1)
@example(1 / 3, 0.9, 3, 1)  # 1/3 is above 0.3333333333333333, though the float 1/3 is that
@example(0.1, 5 / 6, 6, 5)  # 5/6 is below 0.8333333333333334, though the float 5/6 is that
@example(0.9, 0.1, 10, 5)  # not a policy
@example(1e-05, 1.0000000000000002, 10, 5)
def test_cutoffs_compare_with_rates_exactly_on_their_decimal_values(proxy, cdn, size, hits):
    hits = min(hits, size)
    if not 0 <= Fraction(repr(proxy)) < Fraction(repr(cdn)) <= 1:
        with pytest.raises(ValueError, match="need 0 <= proxy_max_success < cdn_min_success <= 1"):
            SamplePolicy(proxy_max_success=proxy, cdn_min_success=cdn)
        return
    policy = SamplePolicy(proxy_max_success=proxy, cdn_min_success=cdn)
    sample = [_truth((5 << 8) | h, SUCCESS if h < hits else UNREACHABLE, "x" if h < hits else None)
              for h in range(size)]
    assert classify_sample(results_of(sample), policy) == _oracle_scenario(hits, size, policy)


def test_classify_sample_missing_identifier_means_diverse():
    sample = [_truth((5 << 8) | h, SUCCESS, "one" if h else None) for h in range(10)]
    assert classify_sample(results_of(sample), SamplePolicy()) == DIVERSE


def test_escalate_grows_only_diverse_prefixes():
    occupancy = table_with_counts({5: 256, 6: 256})
    plan = build_plan(occupancy, {5, 6}, [], SamplePolicy(k=10, rng_seed=2))
    grown = escalate(plan, {5: DIVERSE, 6: PROXY}, occupancy)
    added = [t for t in _targets(grown.entries[5]) if t[1] == ESCALATION]
    assert len(added) == 246
    assert {5 << 8 | host for host in grown.entries[5].hosts} == set(occupancy.addresses(5))
    assert grown.entries[6] == plan.entries[6]


def test_escalating_again_grows_the_trailing_escalation_run():
    plan = build_plan(table_with_counts({5: 240}), {5}, [], SamplePolicy(k=10, rng_seed=2))
    once = escalate(plan, {5: DIVERSE}, table_with_counts({5: 240}))
    twice = escalate(once, {5: DIVERSE}, table_with_counts({5: 256}))
    assert _provenances(once.entries[5]) == [UNIFORM_FILL] * 10 + [ESCALATION] * 230
    assert _provenances(twice.entries[5]) == [UNIFORM_FILL] * 10 + [ESCALATION] * 246
    assert twice.entries[5].hosts[:240] == once.entries[5].hosts


@given(st.data())
def test_plans_compare_equal_through_escalate_and_csv(data):
    counts = data.draw(st.dictionaries(st.integers(0, 30), st.integers(1, 256), min_size=1, max_size=6))
    occupancy = table_with_counts(counts, META)
    prefixes = st.sampled_from(sorted(counts))
    hrps = data.draw(st.sets(prefixes))
    seeds = [
        DnsSeed((prefix << 8) | host, names)
        for prefix, host, names in data.draw(
            st.lists(st.tuples(prefixes, st.integers(0, 255), st.integers(1, 5)), max_size=12)
        )
    ]
    policy = SamplePolicy(
        k=data.draw(st.integers(1, 20)),
        rng_seed=data.draw(st.integers(0, 99)),
        include_unresponsive_seeds=data.draw(st.booleans()),
    )
    classes = data.draw(st.dictionaries(prefixes, st.sampled_from(SCENARIOS)))
    plan = build_plan(occupancy, hrps, seeds, policy)
    read_back = _csv_round_trip(plan)
    assert read_back.entries == plan.entries
    grown = escalate(plan, classes, occupancy)
    assert escalate(read_back, classes, occupancy).entries == grown.entries
    assert _csv_round_trip(grown).entries == grown.entries
    for prefix, entry in grown.entries.items():
        before = plan.entries[prefix].hosts  # a diverse prefix's responsive hosts not yet planned follow, ascending
        added = bytes(h for h in occupancy.hosts(prefix) if h not in before) if classes.get(prefix) == DIVERSE else b""
        assert entry.hosts == before + added
        assert type(entry.provenances) is bytes and len(entry.provenances) == len(entry.hosts)
        # Codes come in plan order: non_hrp_full alone, or dns_seed, uniform_fill, then escalation.
        assert list(entry.provenances) == sorted(entry.provenances)
        assert max(entry.provenances, default=0) < len(PROVENANCES)


def _csv_round_trip(plan: TargetPlan) -> TargetPlan:
    out = io.StringIO()
    write_plan_csv(plan, out)
    return read_plan_csv(io.StringIO(out.getvalue()))


def test_escalate_all_cdn_like_is_identity():
    occupancy = table_with_counts({5: 256})
    plan = build_plan(occupancy, {5}, [], SamplePolicy(k=10, rng_seed=2))
    assert escalate(plan, {5: CDN_LIKE}, occupancy).entries == plan.entries


def test_escalate_rejects_unknown_prefix_or_class():
    occupancy = table_with_counts({5: 256})
    plan = build_plan(occupancy, {5}, [], SamplePolicy(k=10, rng_seed=2))
    with pytest.raises(ValueError, match="not in plan"):
        escalate(plan, {99: DIVERSE}, occupancy)
    with pytest.raises(ValueError, match="scenario"):
        escalate(plan, {5: "weird"}, occupancy)


def test_evaluate_full_plan_is_baseline():
    occupancy = table_with_counts({5: 30})
    plan = build_plan(occupancy, set(), [], SamplePolicy(k=10, rng_seed=2))
    truth = [_truth(addr, SUCCESS, f"id{addr}") for addr in occupancy.addresses(5)]
    metrics = evaluate_plan(plan, results_of(truth))
    assert metrics.reduction == 0.0
    assert metrics.identifier_coverage == 1.0
    assert metrics.handshakes_planned == metrics.handshakes_full_baseline == 30


def test_evaluate_synthetic_cdn_corpus():
    counts = {p: 256 for p in range(100)}
    occupancy = table_with_counts(counts, META)
    plan = build_plan(occupancy, set(counts), [], SamplePolicy(k=10, rng_seed=11))
    truth = [
        _truth(addr, SUCCESS, f"cert{p}") for p in counts for addr in occupancy.addresses(p)
    ]
    metrics = evaluate_plan(plan, results_of(truth))
    assert metrics.handshakes_planned == 1000
    assert metrics.handshakes_full_baseline == 25600
    assert metrics.reduction == 1 - 1000 / 25600
    assert metrics.identifier_coverage == 1.0


def test_evaluate_rejects_uncovered_plan():
    occupancy = table_with_counts({5: 10})
    plan = build_plan(occupancy, set(), [], SamplePolicy())
    truth = [_truth(addr, SUCCESS, "x") for addr in occupancy.addresses(5)[:-1]]
    with pytest.raises(PlanEvaluationError):
        evaluate_plan(plan, results_of(truth))


def test_evaluate_empty_plan_and_truth():
    plan = build_plan(table_with_counts({}), set(), [], SamplePolicy())
    metrics = evaluate_plan(plan, results_of([]))
    assert metrics.reduction == 0.0
    assert metrics.identifier_coverage == 1.0


def _reference_evaluate_plan(final_plan: TargetPlan, truth) -> PlanMetrics:
    """evaluate_plan over one int per address: a dict of every truth row and a set of every
    planned target."""
    # Each target's identifier from its first row: built backwards, the first row is set last.
    identifier_of = dict(zip(reversed(truth.targets), reversed(truth.identifiers)))
    planned = {prefix << 8 | host for prefix, entry in final_plan.entries.items() for host in entry.hosts}
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


# The lowest and highest prefixes and hosts, so that 0.0.0.0 and 255.255.255.255 can be targets.
_EVAL_PREFIXES = st.sampled_from([0, 1, 0x0A0000, 0xFFFFFF])
_EVAL_HOSTS = st.sampled_from([0, 1, 2, 128, 254, 255])


@st.composite
def _evaluated_plans(draw) -> TargetPlan:
    """Plans over a few prefixes; a few repeat a host, which counts once."""
    entries = {}
    for prefix in draw(st.sets(_EVAL_PREFIXES, max_size=4)):
        hosts = bytes(draw(st.lists(_EVAL_HOSTS, max_size=6, unique=draw(st.integers(0, 5)) > 0)))
        strategy = draw(st.sampled_from([STRATEGY_FULL, STRATEGY_SAMPLED]))
        entries[prefix] = PlanEntry(prefix, strategy, hosts, bytes(len(hosts)))
    return TargetPlan(entries)


@st.composite
def _truths(draw, plan: TargetPlan) -> list[tuple[int, str, str | None]]:
    """Truth rows over the plan's targets, most or all of them, and targets outside it, with some
    targets repeated under another identifier or none."""
    planned = [prefix << 8 | host for prefix, entry in plan.entries.items() for host in entry.hosts]
    covered = draw(st.sampled_from([planned, planned, []]) | st.lists(st.sampled_from(planned or [0]), max_size=8))
    outside = draw(st.lists(st.builds(lambda p, h: p << 8 | h, _EVAL_PREFIXES, _EVAL_HOSTS), max_size=8))
    targets = draw(st.permutations(covered + outside))
    targets += draw(st.lists(st.sampled_from(targets), max_size=6)) if targets else []
    return [_truth(t, SUCCESS, draw(st.sampled_from([None, "a", "b", "c", "d"]))) for t in targets]


def _metrics_or_error(evaluate, plan, truth):
    try:
        return evaluate(plan, truth)
    except PlanEvaluationError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(_evaluated_plans().flatmap(lambda plan: st.tuples(st.just(plan), _truths(plan))))
@example((TargetPlan({}), []))
@example((TargetPlan({0: PlanEntry(0, STRATEGY_FULL, b"\x00\xff", bytes(2))}), []))
@example((TargetPlan({}), [_truth(5, SUCCESS, "a")]))
@example((TargetPlan({0: PlanEntry(0, STRATEGY_FULL, b"\x00\xff", bytes(2))}),
          [_truth(0xFF, SUCCESS, None), _truth(0xFF, SUCCESS, "a"), _truth(0, SUCCESS, "b"),
           _truth(0x100, SUCCESS, "a")]))  # 0.0.0.255's first row has no identifier: "a" is not reached
@example((TargetPlan({p: PlanEntry(p, STRATEGY_FULL, b"\x00\x07\xff", bytes(3))
                      for p in (0xFFFFFF, 0, 0x0A0000)}),
          [_truth(0, SUCCESS, "a"), _truth(0xFFFFFFFF, SUCCESS, "b"), _truth(0x0A000007)]))  # six uncovered
def test_evaluate_matches_the_per_address_reference(case):
    """The same metrics, or the same error text with its count and lowest uncovered target."""
    plan, rows = case
    truth = results_of(rows)
    assert _metrics_or_error(evaluate_plan, plan, truth) == _metrics_or_error(_reference_evaluate_plan, plan, truth)


def test_seeds_csv_parses_and_merges_duplicates():
    text = "ip,name_count\n198.51.100.7,3\n198.51.100.7,2\n198.51.100.9,1\n"
    seeds = read_dns_seeds(io.StringIO(text))
    assert [(s.address & 0xFF, s.name_count) for s in seeds] == [(7, 5), (9, 1)]
    with pytest.raises(ValueError):
        read_dns_seeds(io.StringIO("ip,name_count\nbad,1\n"))
    with pytest.raises(ValueError):
        read_dns_seeds(io.StringIO("ip,name_count\n1.2.3.4,0\n"))
    top = read_dns_seeds(io.StringIO(f"ip,name_count\n1.2.3.4,{(1 << 63) - 1}\n"))
    assert top == [DnsSeed(0x01020304, (1 << 63) - 1)]
    with pytest.raises(ValueError, match="^line 2: invalid name_count"):
        read_dns_seeds(io.StringIO(f"ip,name_count\n1.2.3.4,{1 << 63}\n"))


@pytest.mark.parametrize("hosts, codes, message", [
    (b"\x01\x02", b"\x01", "1 provenance codes for 2 targets"),  # codes cover fewer targets
    (b"\x01", b"\x01\x02", "2 provenance codes for 1 targets"),  # codes cover more targets
    (b"\x01\x02", b"\x01\x04", "below 4, got 4"),  # a code naming no provenance
    (b"\x01\x02", b"\xff\x00", "below 4, got 255"),
    (b"\x01\x02", [1, -1], "range"),  # a negative code
    ((0x0505_01, 0x0505_02), b"\x01\x01", "range"),  # addresses, not host octets
])
def test_plan_entry_rejects_codes_or_targets_the_writers_would_change(hosts, codes, message):
    with pytest.raises(ValueError, match=message):
        PlanEntry(0x0505, STRATEGY_SAMPLED, hosts, codes)


def test_plan_csv_roundtrip():
    occupancy = table_with_counts({5: 256, 9: 3})
    seeds = [DnsSeed((5 << 8) | 1, 2)]
    plan = build_plan(occupancy, {5}, seeds, SamplePolicy(k=4, rng_seed=3))
    out = io.StringIO()
    write_plan_csv(plan, out)
    parsed = read_plan_csv(io.StringIO(out.getvalue()))
    assert parsed.entries == plan.entries
    again = io.StringIO()
    write_plan_csv(parsed, again)
    assert again.getvalue() == out.getvalue()


@pytest.mark.parametrize("row", [
    "9.9.9.9,1.2.3.0/24,sampled,uniform_fill",  # address outside its prefix
    "1.2.3.4,1.2.3.0/24,sampled,dns_seed",  # repeated address within the prefix
    "1.2.3.5,1.2.3.0/24,full,non_hrp_full",  # mixed strategies within the prefix
    "1.2.3.5,1.2.3.0/24,partial,uniform_fill",
    "1.2.3.5,1.2.3.0/24,sampled,guess",
    "1.2.3.5,1.2.3.0/25,sampled,uniform_fill",
    "1.2.3.5,1.2.3.0,sampled,uniform_fill",
    "1.2.3.x,1.2.3.0/24,sampled,uniform_fill",
])
def test_read_plan_csv_rejects_invalid_rows_naming_the_line(row):
    text = "ip,prefix,strategy,provenance\n1.2.3.4,1.2.3.0/24,sampled,uniform_fill\n" + row + "\n"
    with pytest.raises(ValueError, match="^line 3: "):
        read_plan_csv(io.StringIO(text))
