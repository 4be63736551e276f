"""Every record class against its dataclass reference (tests/reference_records.py): the same
fields in the same order with the same defaults, equality, hash, ordering, repr and length, the
same exception for the same bad fields, and the same report dict from cli._record."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
from array import array
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

import reference_records as reference
from hrpkit import analytics, applayer, ingest, planner, prefixes, routing
from hrpkit.cli import _record
from hrpkit.ingest import Checked, Record

small = st.integers(0, 2)
counts = st.integers(0, 3)
reals = st.sampled_from([0.0, 0.25, 0.5, 1.0])
metas = st.builds(ingest.ScanMeta, st.sampled_from(["tcp", "udp"]), st.sampled_from([80, 443]))
optional_metas = st.none() | metas
fractions = st.sampled_from([0.9, 0.95, 1.0, 0.5, 1e-06, 0.0, -0.5, 1.5, 0.1234567, 5e-07]) | st.floats(-0.5, 1.5)
cutoffs = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0, -0.1, 1.1, 1e-05, 0.1000001, 5e-324])
prefix_lists = st.lists(st.integers(0, 3), max_size=4)
hosts = st.lists(st.sampled_from([0, 1, 2, 255, 256, 257]), max_size=4, unique=True).map(tuple)
times = st.sampled_from([datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(days=d) for d in range(2)])


def _stats_args(draw) -> tuple:
    rows = draw(prefix_lists)
    n = len(rows) + draw(st.sampled_from([0, 0, 0, 1]))  # now and then a column one too long
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))  # noqa: E731
    meta = draw(metas) if rows and draw(st.integers(0, 5)) else draw(optional_metas)
    return (meta, array("I", rows), array("H", column(st.integers(1, 256))),
            column(st.sampled_from([prefixes.HrpThreshold(0.9), prefixes.HrpThreshold(0.95)])),
            column(st.none() | st.integers(1, 2)), column(st.none() | st.just((0, 8))))


def _plan_entry_args(draw) -> tuple:
    # Provenance codes, now and then one too many or naming no provenance, as bytes, a bytearray or a list.
    codes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, 4, 255]), max_size=3))
    length = len(codes) - draw(st.sampled_from([0, 0, 0, 1])) if codes else 0
    codes = draw(st.sampled_from([bytes, bytearray, list]))(codes)
    # Host octets as a tuple, bytes or bytearray, or address ints given by mistake.
    entry_hosts = draw(hosts | st.just(tuple(range(length))) | st.just(tuple(range(256, 256 + length)))
                       | st.sampled_from([bytes, bytearray]).map(lambda form: form(range(length))))
    prefix = draw(small | st.sampled_from([-1, 0xFFFFFF, 1 << 24]))
    strategy = draw(st.sampled_from([*planner.STRATEGIES, *planner.STRATEGIES, "bogus", "Full"]))
    return prefix, strategy, entry_hosts, codes


# name -> (record class, the strategy of its constructor's positional arguments)
RECORDS = {
    "ScanMeta": (ingest.ScanMeta, st.tuples(st.sampled_from(["tcp", "udp", "icmp", ""]),
                                            st.sampled_from([0, 1, 443, 65535, -1, 65536]))),
    "IngestStats": (ingest.IngestStats, st.tuples(counts, counts, counts, counts)),
    "HrpThreshold": (prefixes.HrpThreshold, st.tuples(fractions)),
    "PrefixStats": (prefixes.PrefixStats, st.composite(lambda draw: _stats_args(draw))()),
    "PrefixTable": (prefixes.PrefixTable, st.tuples(metas, st.dictionaries(small, st.integers(1, 7), max_size=2))),
    "ResponsivenessHistogram": (prefixes.ResponsivenessHistogram, st.tuples(
        st.lists(counts, max_size=2), st.lists(counts, max_size=2), st.lists(reals, max_size=2),
        st.lists(reals, max_size=2), counts, counts)),
    "RouteLoadStats": (routing.RouteLoadStats, st.tuples(*[small] * 7)),
    "AsSummary": (routing.AsSummary, st.tuples(small, small, small, reals, small, small)),
    "PortProfile": (analytics.PortProfile, st.tuples(small, small, small)),
    "PortProfileReport": (analytics.PortProfileReport, st.tuples(
        small, st.lists(st.builds(analytics.PortProfile, small, small, small), max_size=2),
        st.dictionaries(small, small, max_size=2), st.dictionaries(small, small, max_size=2))),
    "StabilityPoint": (analytics.StabilityPoint, st.tuples(st.sampled_from(["w1", "w2"]), times, reals, reals,
                                                           small)),
    "PersistenceSummary": (analytics.PersistenceSummary, st.tuples(
        small, small, small, small, small, small, reals)),
    "VantageDiff": (analytics.VantageDiff, st.tuples(*[st.frozensets(small, max_size=2)] * 3, reals)),
    "AppResults": (applayer.AppResults, st.tuples(
        optional_metas, st.lists(small, max_size=3).map(lambda t: array("I", t)),
        st.lists(st.integers(0, 3), max_size=3).map(bytes), st.lists(st.none() | st.just("x"), max_size=3))),
    "HrpAppReport": (applayer.HrpAppReport, st.tuples(small, small, small, reals, st.booleans(), st.booleans(),
                                                      st.booleans(), reals)),
    "AddressComparison": (applayer.AddressComparison, st.tuples(*[small] * 4, *[st.none() | reals] * 4)),
    "AppReportSet": (applayer.AppReportSet, st.tuples(
        st.lists(st.builds(applayer.HrpAppReport, *[small] * 8), max_size=2), small, small,
        st.builds(applayer.AddressComparison, *[small] * 8))),
    "SuccessCdf": (applayer.SuccessCdf, st.tuples(small, st.lists(reals, max_size=2).map(tuple))),
    "DnsSeed": (planner.DnsSeed, st.tuples(small, st.integers(-1, 2))),
    "SamplePolicy": (planner.SamplePolicy, st.tuples(st.sampled_from([0, 1, 10, 256, 257]), small, cutoffs,
                                                     cutoffs, st.booleans())),
    "PlanEntry": (planner.PlanEntry, st.composite(lambda draw: _plan_entry_args(draw))()),
    "TargetPlan": (planner.TargetPlan, st.tuples(st.dictionaries(
        small, st.builds(planner.PlanEntry, st.just(0), st.just("full"), st.just((1,)), st.just(b"\x00")),
        max_size=2))),
    "PlanMetrics": (planner.PlanMetrics, st.tuples(small, small, reals, reals)),
}

# The records cli._record renders into reports.
RENDERED = {"IngestStats", "AsSummary", "StabilityPoint", "PersistenceSummary", "HrpAppReport",
            "AddressComparison", "PlanMetrics"}


def _build(cls, args: tuple, kwargs: dict) -> tuple:
    """The record, or the type and text of what its constructor raised."""
    try:
        return cls(*args, **kwargs), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


def _fields(record) -> list[str]:
    return list(record._fields if isinstance(record, tuple) else vars(record))


def _values(record) -> list:
    return [getattr(record, name) for name in _fields(record)]


def _hash(record):
    try:
        return hash(record)
    except TypeError:
        return TypeError


def _reference_record(obj, **render) -> dict:
    """cli._record as it read the fields of a dataclass."""
    doc = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    doc.update((name, fn(doc[name])) for name, fn in render.items())
    return doc


def test_every_record_has_its_reference():
    defined = {name for name, value in vars(reference).items()
               if isinstance(value, type) and value.__module__ == reference.__name__}
    assert defined == set(RECORDS) and len(RECORDS) == 23
    for name, (cls, _) in RECORDS.items():
        assert cls.__name__ == name and not dataclasses.is_dataclass(cls)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_takes_the_references_arguments(name):
    cls, _ = RECORDS[name]
    ours, theirs = inspect.signature(cls).parameters, inspect.signature(getattr(reference, name)).parameters
    assert [(p.name, p.kind) for p in ours.values()] == [(p.name, p.kind) for p in theirs.values()]
    assert [p.default for p in ours.values()] == [
        None if name == "PrefixTable" and p.name == "bitmaps" else p.default for p in theirs.values()]


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_record_behaves_as_its_reference(name, data):
    cls, strategy = RECORDS[name]
    ref_cls = getattr(reference, name)
    names = [f.name for f in dataclasses.fields(ref_cls) if f.init]
    first = data.draw(strategy)
    second = data.draw(st.just(first) | strategy)
    by_keyword = data.draw(st.booleans())
    built = []
    for args in first, second:
        # The trailing arguments that have defaults may be left out.
        required = sum(p.default is p.empty for p in inspect.signature(ref_cls).parameters.values())
        args = args[:data.draw(st.integers(required, len(args)))]
        kwargs = dict(zip(names, args)) if by_keyword else {}
        ours, error = _build(cls, () if by_keyword else args, kwargs)
        theirs, ref_error = _build(ref_cls, () if by_keyword else args, kwargs)
        assert error == ref_error
        if ours is not None:
            assert _fields(ours) == [f.name for f in dataclasses.fields(ref_cls)]
            assert _values(ours) == [getattr(theirs, f.name) for f in dataclasses.fields(ref_cls)]
            assert repr(ours) == repr(theirs)
            if hasattr(ref_cls, "__len__"):
                assert len(ours) == len(theirs)
            if isinstance(ours, tuple):  # immutable, as a frozen dataclass was and a tuple is
                with pytest.raises(AttributeError):
                    setattr(ours, names[0], None)
            restored = pickle.loads(pickle.dumps(ours))
            assert type(restored) is cls and restored == ours and copy.copy(ours) == ours
            built.append((ours, theirs))
    if len(built) < 2:
        return
    (a, ref_a), (b, ref_b) = built
    assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
    if ref_cls.__hash__ is None:  # a mutable reference: the table or counter stays unhashable
        assert isinstance(a, tuple) or _hash(a) is TypeError
    else:
        if name != "HrpThreshold":  # which hashes its fields as a tuple does, min_count too
            assert _hash(a) == _hash(ref_a)
        if a == b:
            assert _hash(a) == _hash(b)
    if name == "ScanMeta":
        for compare in "__lt__", "__le__", "__gt__", "__ge__":
            assert getattr(a, compare)(b) == getattr(ref_a, compare)(ref_b)
    if name in RENDERED:
        field = data.draw(st.sampled_from(names))
        assert _record(a) == _reference_record(ref_a)
        assert _record(a, **{field: repr}) == _reference_record(ref_a, **{field: repr})


def test_the_checked_records_are_the_validated_ones():
    checked = [name for name, (cls, _) in RECORDS.items() if issubclass(cls, Checked)]
    assert checked == ["ScanMeta", "HrpThreshold", "DnsSeed", "SamplePolicy", "PlanEntry"]
    tables = [name for name, (cls, _) in RECORDS.items() if issubclass(cls, Record)]
    assert tables == ["IngestStats", "PrefixStats", "PrefixTable", "RouteLoadStats", "AppResults", "TargetPlan"]


# A valid record of each validated class but HrpThreshold, which has no _replace.
VALID = {
    "ScanMeta": ("tcp", 443),
    "DnsSeed": (1, 1),
    "SamplePolicy": (),
    "PlanEntry": (0, "full", b"\x01", b"\x00"),
}


@pytest.mark.parametrize("name", VALID)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_replace_on_a_validated_record_checks_as_its_constructor(name, data):
    cls, strategy = RECORDS[name]
    record = cls(*VALID[name])
    changes = dict(zip(record._fields, data.draw(strategy)))
    changes = {key: changes[key] for key in data.draw(st.sets(st.sampled_from(record._fields)))}
    assert _build(record._replace, (), changes) == _build(cls, (), {**record._asdict(), **changes})
    assert cls._make(tuple(record)) == record


def test_a_threshold_is_built_from_its_fraction_alone():
    threshold = prefixes.HrpThreshold(0.9)
    assert threshold == prefixes.HrpThreshold(0.90) and threshold.min_count == 231
    with pytest.raises(TypeError):
        threshold._replace(fraction=0.95)
    with pytest.raises(AttributeError):
        threshold.min_count = 1  # type: ignore[misc]


@pytest.mark.parametrize("field", ["proxy_max_success", "cdn_min_success"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_policy_cutoff_that_is_not_finite_is_named(field, value):
    # Read as decimal text, nan and inf raised "invalid literal for int() with base 10: 'nan'".
    with pytest.raises(ValueError, match=rf"^{field} must be finite, got {value}$"):
        planner.SamplePolicy(**{field: value})
