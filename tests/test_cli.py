"""End-to-end runs of the command line against small fixture files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from hrpkit import prefixes
from hrpkit.cli import _stem, main
from hrpkit.ingest import format_ipv4


def write_scan(path, prefixes: dict[int, int], extra_lines=()):
    """A plain scan file where each prefix holds its first `count` host addresses."""
    lines = [
        format_ipv4((prefix << 8) | host)
        for prefix, count in prefixes.items()
        for host in range(count)
    ]
    lines.extend(extra_lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_detect_writes_stats_and_summary(tmp_path, capsys):
    scan = write_scan(tmp_path / "scan.txt", {0xC63364: 231, 0xCB0071: 4}, ["# comment", "junk"])
    stats = tmp_path / "stats.csv"
    summary = tmp_path / "summary.json"
    code = run("detect", "--port", 443, "--threshold", 0.90,
               "--output", stats, "--summary", summary, scan)
    assert code == 0
    rows = stats.read_text().splitlines()
    assert rows[0] == "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix"
    assert "198.51.100.0/24,443,tcp,231,true,0.900000,," in rows
    assert "203.0.113.0/24,443,tcp,4,false,0.900000,," in rows
    doc = json.loads(summary.read_text())
    assert doc["invalid_lines"] == 1
    assert doc["comment_lines"] == 1
    assert doc["hrp_prefixes"] == 1
    assert stats.read_text().endswith("\n")


def test_detect_empty_scan_is_ok(tmp_path):
    scan = tmp_path / "scan.txt"
    scan.write_text("", encoding="utf-8")
    out = tmp_path / "stats.csv"
    assert run("detect", "--port", 443, "--output", out, "--summary", tmp_path / "s.json", scan) == 0
    assert out.read_text().splitlines() == [
        "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix"
    ]


def test_detect_exit_codes(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {1: 2}, ["garbage"])
    assert run("detect", "--port", 443, "--threshold", 1.5, scan) == 2
    assert run("detect", "--port", 443, "--policy", "strict",
               "--output", tmp_path / "o.csv", "--summary", tmp_path / "s.json", scan) == 3
    assert run("detect", "--port", 443, tmp_path / "missing.txt") == 4


def test_detect_csv_saddr_and_jsonl(tmp_path):
    scan = tmp_path / "scan.csv"
    scan.write_text("saddr,sport\n198.51.100.7,443\n", encoding="utf-8")
    out = tmp_path / "stats.jsonl"
    code = run("detect", "--port", 443, "--format", "csv_saddr", "--output-format", "jsonl",
               "--output", out, "--summary", tmp_path / "s.json", scan)
    assert code == 0
    record = json.loads(out.read_text().splitlines()[0])
    assert record["prefix"] == "198.51.100.0/24"
    assert record["count"] == 1


def test_detect_merges_shards(tmp_path):
    shard_a = write_scan(tmp_path / "a.txt", {5: 100})
    shard_b = tmp_path / "b.txt"
    shard_b.write_text(
        "\n".join(format_ipv4((5 << 8) | host) for host in range(50, 200)) + "\n", encoding="utf-8"
    )
    out = tmp_path / "stats.csv"
    assert run("detect", "--port", 443, "--output", out, "--summary", tmp_path / "s.json",
               shard_a, shard_b) == 0
    assert "0.0.5.0/24,443,tcp,200,false" in out.read_text()


def _detect(tmp_path, name, counts, port=443):
    scan = write_scan(tmp_path / f"{name}.txt", counts)
    stats = tmp_path / f"{name}.csv"
    assert run("detect", "--port", port, "--output", stats,
               "--summary", tmp_path / f"{name}-sum.json", scan) == 0
    return stats


def test_enrich_pipeline(tmp_path):
    stats = _detect(tmp_path, "s443", {0x0A0102: 256, 0xC00002: 3})
    routes = tmp_path / "routes.csv"
    routes.write_text("10.0.0.0/8,64500\n10.1.2.128/25,64501\n", encoding="utf-8")
    out = tmp_path / "enriched.csv"
    summary = tmp_path / "enrich-sum.json"
    assert run("enrich", "--output", out, "--summary", summary, stats, routes) == 0
    rows = out.read_text().splitlines()
    assert any(row.startswith("10.1.2.0/24,443,tcp,256,true,0.900000,64500,10.0.0.0/8") for row in rows)
    doc = json.loads(summary.read_text())
    assert doc["prefixes_with_origin"] == 1
    assert doc["split_slash24_ambiguities"] == 1


@pytest.mark.parametrize("bad_row", [
    "10.1.3.0/24,443,tcp,999,true,0.900000,,",  # impossible count
    "10.1.3.0/24,443,tcp,240,false,0.900000,,",  # is_hrp disagrees with the count
    "10.1.3.0/024,443,tcp,3,false,0.900000,,",  # non-canonical prefix length
    "10.1.3.0/255.255.255.0,443,tcp,3,false,0.900000,,",  # netmask form
    "10.1.3.0/24,443,tcp,3,false,0.900000,-5,",  # origin ASN not ASCII digits
    "10.1.3.0/24,443,tcp,3,false,0.900000,+64500,",
    "10.1.3.0/24,443,tcp,3,false,0.900000,,10.1.0.0/016",  # non-canonical covering length
    "10.1.3.0/24,+443,tcp,3,false,0.900000,,",  # port or count not ASCII digits
    "10.1.3.0/24,4_43,tcp,3,false,0.900000,,",
    "10.1.3.0/24,443,tcp,2_40,true,0.900000,,",
    "10.1.3.0/24,443,tcp,\u0662\u0664\u0660,true,0.900000,,",
    "10.1.3.0/24,443,tcp,3,false,0.9_0,,",  # threshold fraction not ASCII digits and a point
    "10.1.3.0/24,443,tcp,3,false,9e-1,,",
    "10.1.3.0/24,443,tcp,3,false,\u0660.\u0669,,",
    "10.1.3.0/24,443,tcp,3,false,0.8984375,,",  # more decimals than a stats file writes
    "10.1.3.0/24,443,tcp,3,true,0.0000001,,",
    "10.1.2.0/24,443,tcp,256,true,0.900000,,",  # the prefix of line 2 again
])
def test_enrich_rejects_bad_stats_row_with_file_and_line(tmp_path, capsys, bad_row):
    stats = _detect(tmp_path, "s443", {0x0A0102: 256})
    stats.write_text(stats.read_text() + bad_row + "\n", encoding="utf-8")
    routes = tmp_path / "routes.csv"
    routes.write_text("10.0.0.0/8,64500\n", encoding="utf-8")
    assert run("enrich", "--output", tmp_path / "out.csv", "--summary", tmp_path / "s.json", stats, routes) == 2
    err = capsys.readouterr().err
    assert f"{stats}: line 3: " in err


@pytest.mark.parametrize("bad_route", ["10.0.0.0/-0,64500", "10.0.0.0/08,64500", "10.0.0.0/8,6_4500"])
def test_enrich_counts_non_canonical_route_lines_as_invalid(tmp_path, capsys, bad_route):
    stats = _detect(tmp_path, "s443", {0x0A0102: 256})
    routes = tmp_path / "routes.csv"
    routes.write_text("# rib\n192.0.2.0/24,64496\n" + bad_route + "\n", encoding="utf-8")
    summary = tmp_path / "s.json"
    assert run("enrich", "--output", tmp_path / "out.csv", "--summary", summary, stats, routes) == 0
    doc = json.loads(summary.read_text())
    assert (doc["routes_loaded"], doc["route_invalid_lines"], doc["prefixes_with_origin"]) == (1, 1, 0)
    assert run("enrich", "--policy", "strict", "--output", tmp_path / "out.csv",
               "--summary", summary, stats, routes) == 3
    assert "line 3: invalid route line" in capsys.readouterr().err


def test_portmatrix_and_as_summary(tmp_path):
    stats_80 = _detect(tmp_path, "p80", {1: 256, 2: 10}, port=80)
    stats_443 = _detect(tmp_path, "p443", {1: 256, 2: 256}, port=443)
    report = tmp_path / "matrix.json"
    hist = tmp_path / "hist.csv"
    profiles = tmp_path / "profiles.csv"
    assert run("portmatrix", "--output", report, "--histogram-csv", hist,
               "--profiles-csv", profiles, stats_80, stats_443) == 0
    doc = json.loads(report.read_text())
    assert doc["ports"] == ["tcp/80", "tcp/443"]
    assert doc["prefixes"] == 2
    assert doc["hrp_prefixes"] == 2
    assert {"ports": 2, "prefixes": 2} in doc["responsive_histogram"]
    assert hist.read_text().splitlines()[0] == "ports,responsive_prefixes,hrp_prefixes"
    assert "0.0.1.0/24,2,2" in profiles.read_text()
    # Same port twice is a schema error.
    assert run("portmatrix", stats_80, stats_80) == 2


def test_stability_pipeline(tmp_path):
    week0 = _detect(tmp_path, "w0", {1: 256, 2: 100})
    week1 = _detect(tmp_path, "w1", {1: 256, 2: 256})
    report = tmp_path / "stability.json"
    series = tmp_path / "series.csv"
    assert run("stability", "--output", report, "--series-csv", series, week0, week1) == 0
    doc = json.loads(report.read_text())
    assert doc["port"] == 443
    assert [p["scan_id"] for p in doc["series"]] == ["w0", "w1"]
    assert doc["series"][0]["hrp_address_share_90"] == pytest.approx(256 / 356)
    assert doc["persistence"]["distinct_hrps"] == 2
    # ceil(2/2) = 1 scan suffices for "half the period"; only prefix 1 is in both.
    assert doc["persistence"]["half_period_count"] == 2
    assert doc["persistence"]["full_period_count"] == 1
    assert series.read_text().startswith("scan_id,timestamp,")


def test_stability_rejects_port_mismatch(tmp_path, capsys):
    week0 = _detect(tmp_path, "m0", {1: 10}, port=443)
    week1 = _detect(tmp_path, "m1", {1: 10}, port=80)
    assert run("stability", week0, week1) == 2
    err = capsys.readouterr().err
    assert "443" in err and "80" in err


@given(st.lists(st.text(st.sampled_from("a.é, "), min_size=1).filter(lambda name: name not in (".", "..")),
                min_size=1, max_size=3), st.sampled_from(["", "/", "./", "../"]))
@example(["w1."], "")
@example(["..a"], "./")
@example(["d.x", "week.1.csv"], "/")
def test_a_default_scan_id_is_the_files_pathlib_stem(names, start):
    path = start + "/".join(names)
    assert _stem(path) == Path(path).stem
    assert _stem("-") == "stdin"


def test_stability_rejects_a_file_stem_with_a_comma_as_scan_id(tmp_path, capsys):
    week0 = _detect(tmp_path, "w,0", {1: 10})
    week1 = _detect(tmp_path, "w1", {1: 10})
    series = tmp_path / "series.csv"
    assert run("stability", "--series-csv", series, "--output", tmp_path / "s.json", week0, week1) == 2
    assert "'w,0'" in capsys.readouterr().err
    assert not series.exists()
    assert run("stability", "--scan-ids", "w0,w1", "--series-csv", series,
               "--output", tmp_path / "s.json", week0, week1) == 0
    assert [len(row.split(",")) for row in series.read_text().splitlines()] == [5, 5, 5]


def test_a_stats_file_that_repeats_a_prefix_exits_2(tmp_path, capsys):
    header = "prefix,port,proto,count,is_hrp,threshold_fraction,origin_asn,covering_prefix\n"
    w1 = tmp_path / "w1.csv"
    w1.write_text(header + "1.2.3.0/24,443,tcp,240,true,0.900000,,\n" * 2, encoding="utf-8")
    w2 = tmp_path / "w2.csv"
    w2.write_text(header + "9.9.9.0/24,443,tcp,10,false,0.900000,,\n", encoding="utf-8")
    for argv in (["stability", w1, w2], ["portmatrix", w1]):
        assert run(*argv, "--output", tmp_path / "out.json") == 2
        assert f"{w1}: line 3: repeated prefix 1.2.3.0/24" in capsys.readouterr().err


def test_stability_rejects_times_its_series_writes_alike(tmp_path, capsys):
    weeks = [_detect(tmp_path, f"w{i}", {1: 10}) for i in range(2)]
    series = tmp_path / "series.csv"
    assert run("stability", "--timestamps", "2020-01-01T00:00:00.1,2020-01-01T00:00:00.2",
               "--series-csv", series, "--output", tmp_path / "s.json", *weeks) == 2
    assert "w1 (2020-01-01T00:00:00Z) after w0 (2020-01-01T00:00:00Z)" in capsys.readouterr().err
    assert not series.exists()
    assert run("stability", "--timestamps", "2020-01-01T00:00:00.9,2020-01-01T00:00:01",
               "--series-csv", series, "--output", tmp_path / "s.json", *weeks) == 0


@pytest.mark.parametrize("entry", ["bad", "0001-01-01T00:00:00+01:00"])
def test_stability_names_a_bad_timestamps_entry(tmp_path, capsys, entry):
    weeks = [_detect(tmp_path, f"w{i}", {1: 10}) for i in range(2)]
    assert run("stability", "--timestamps", f"{entry},2020-01-01", "--output", tmp_path / "s.json", *weeks) == 2
    assert f"hrpkit stability: --timestamps entry {entry!r}: " in capsys.readouterr().err


# A week whose scan saw nothing gives detect a header-only stats file.


@pytest.mark.parametrize("empty_week", [0, 1])
def test_stability_counts_an_empty_week(tmp_path, empty_week):
    weeks = [_detect(tmp_path, f"w{i}", {} if i == empty_week else {1: 256, 2: 100}, port=80)
             for i in range(3)]
    report = tmp_path / "stability.json"
    series = tmp_path / "series.csv"
    assert run("stability", "--output", report, "--series-csv", series, *weeks) == 0
    doc = json.loads(report.read_text())
    assert (doc["proto"], doc["port"]) == ("tcp", 80)
    assert [(p["scan_id"], p["hrp_count"]) for p in doc["series"]] == [
        (f"w{i}", 0 if i == empty_week else 1) for i in range(3)]
    assert series.read_text().splitlines()[1 + empty_week] == (
        f"w{empty_week},1970-01-0{1 + empty_week}T00:00:00Z,0.000000,0.000000,0")
    persistence = doc["persistence"]
    assert (persistence["total_scans"], persistence["distinct_hrps"]) == (3, 1)
    assert (persistence["half_period_count"], persistence["full_period_count"]) == (1, 0)


def test_stability_of_empty_weeks_only(tmp_path):
    weeks = [_detect(tmp_path, f"w{i}", {}) for i in range(2)]
    report = tmp_path / "stability.json"
    assert run("stability", "--output", report, *weeks) == 0
    doc = json.loads(report.read_text())
    assert (doc["proto"], doc["port"]) == (None, None)
    assert [(p["hrp_address_share_90"], p["hrp_address_share_95"], p["hrp_count"])
            for p in doc["series"]] == [(0.0, 0.0, 0)] * 2
    assert (doc["persistence"]["total_scans"], doc["persistence"]["distinct_hrps"]) == (2, 0)


def test_stability_port_mismatch_across_an_empty_week_names_both_files(tmp_path, capsys):
    weeks = [_detect(tmp_path, "m0", {1: 10}, port=443), _detect(tmp_path, "m1", {}),
             _detect(tmp_path, "m2", {1: 10}, port=80)]
    assert run("stability", *weeks) == 2
    assert f"port/proto mismatch: tcp/443 ({weeks[0]}) vs tcp/80 ({weeks[2]})" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--scan-ids", "--timestamps"])
def test_stability_rejects_an_empty_label_flag(tmp_path, capsys, flag):
    weeks = [_detect(tmp_path, f"w{i}", {1: 10}) for i in range(2)]
    assert run("stability", flag, "", "--output", tmp_path / "s.json", *weeks) == 2
    assert f"hrpkit stability: {flag} " in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_stability_keeps_no_table_once_it_is_read(tmp_path, monkeypatch):
    weeks = [_detect(tmp_path, f"w{i}", {1: 256, 2 + i: 100}) for i in range(5)]
    read, tables, alive = prefixes.read_prefix_stats, [], []

    def read_and_track(lines):  # counts the tables read earlier that are still alive
        alive.append(sum(table() is not None for table in tables))
        stats = read(lines)
        tables.append(weakref.ref(stats))
        return stats

    monkeypatch.setattr(prefixes, "read_prefix_stats", read_and_track)
    report = tmp_path / "s.json"
    assert run("stability", "--output", report, *weeks) == 0
    assert len(alive) == 5 and max(alive) <= 1
    assert json.loads(report.read_text())["persistence"]["distinct_hrps"] == 1


def test_portmatrix_names_both_files_of_a_port(tmp_path, capsys):
    stats_80 = _detect(tmp_path, "p80", {1: 256}, port=80)
    first, second = _detect(tmp_path, "a443", {1: 256}), _detect(tmp_path, "b443", {2: 256})
    assert run("portmatrix", "--output", tmp_path / "m.json", first, stats_80, second) == 2
    assert f"duplicate port/proto tcp/443: {first} and {second}" in capsys.readouterr().err
    assert run("portmatrix", "--output", tmp_path / "m.json", stats_80, stats_80) == 2
    assert f"duplicate port/proto tcp/80: {stats_80} and {stats_80}" in capsys.readouterr().err


def test_portmatrix_counts_an_empty_file_without_its_port(tmp_path):
    stats_80 = _detect(tmp_path, "p80", {1: 256}, port=80)
    empty = _detect(tmp_path, "p443", {}, port=443)
    report = tmp_path / "matrix.json"
    assert run("portmatrix", "--output", report, empty, stats_80) == 0
    doc = json.loads(report.read_text())
    assert (doc["ports"], doc["port_count"], doc["prefixes"], doc["hrp_prefixes"]) == (["tcp/80"], 2, 1, 1)
    assert doc["hrp_histogram"] == [{"ports": 1, "prefixes": 1}]


def test_vantage_pipeline(tmp_path):
    here = _detect(tmp_path, "muc", {1: 256, 2: 256, 3: 256})
    there = _detect(tmp_path, "syd", {1: 256, 2: 256, 4: 256})
    report = tmp_path / "vantage.json"
    assert run("vantage", "--output", report, here, there) == 0
    doc = json.loads(report.read_text())
    assert doc["only_a"] == ["0.0.3.0/24"]
    assert doc["only_b"] == ["0.0.4.0/24"]
    assert doc["both_count"] == 2
    assert doc["divergence"] == pytest.approx(2 / 4)


def test_applayer_pipeline(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 9: 2})
    results = tmp_path / "results.csv"
    rows = ["ip,port,proto,status,identifier"]
    rows += [f"{format_ipv4((5 << 8) | host)},443,tcp,success,certA" for host in range(250)]
    rows += [f"{format_ipv4((5 << 8) | host)},443,tcp,unreachable," for host in range(250, 256)]
    rows += [f"{format_ipv4((9 << 8) | 0)},443,tcp,success,certB"]
    rows += [f"{format_ipv4((9 << 8) | 1)},443,tcp,unreachable,"]
    results.write_text("\n".join(rows) + "\n", encoding="utf-8")
    report = tmp_path / "applayer.json"
    assert run("applayer", "--port", 443, "--output", report, results, scan) == 0
    doc = json.loads(report.read_text())
    assert doc["hrp_count"] == 1
    (prefix_report,) = doc["reports"]
    assert prefix_report["prefix"] == "0.0.5.0/24"
    assert prefix_report["gt90_success"] is True
    assert prefix_report["same_identifier"] is True
    assert doc["address_comparison"]["non_hrp_success_rate"] == pytest.approx(0.5)
    assert doc["success_cdf"]["steps"] == [{"success_count": 250, "cumulative_share": 1.0}]
    # Port flag disagreement with the results file is a schema error.
    assert run("applayer", "--port", 80, results, scan) == 2


def test_plan_is_byte_identical_across_runs(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 6: 240, 9: 3})
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("ip,name_count\n" + format_ipv4((5 << 8) | 4) + ",9\n", encoding="utf-8")
    plan_a = tmp_path / "plan_a.csv"
    plan_b = tmp_path / "plan_b.csv"
    for out in (plan_a, plan_b):
        assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 7,
                   "--output", out, "--summary", tmp_path / "plan-sum.json",
                   "--targets-out", tmp_path / "targets.txt", scan, seeds) == 0
    assert plan_a.read_bytes() == plan_b.read_bytes()
    doc = json.loads((tmp_path / "plan-sum.json").read_text())
    assert doc["provenance_targets"]["dns_seed"] == 1
    assert doc["provenance_targets"]["uniform_fill"] == 19
    assert doc["provenance_targets"]["non_hrp_full"] == 3
    targets = (tmp_path / "targets.txt").read_text().splitlines()
    assert len(targets) == 23
    assert targets == sorted(set(targets), key=targets.index)  # no duplicates


@pytest.mark.parametrize("bad_count", ["0", "+2", "2_0", "\u0662"])
def test_plan_rejects_bad_seed_name_count_with_file_and_line(tmp_path, capsys, bad_count):
    scan = write_scan(tmp_path / "scan.txt", {5: 256})
    seeds = tmp_path / "seeds.csv"
    seeds.write_text(f"ip,name_count\n0.0.5.4,{bad_count}\n", encoding="utf-8")
    assert run("plan", "--port", 443, "--output", tmp_path / "plan.csv",
               "--summary", tmp_path / "s.json", scan, seeds) == 2
    assert f"{seeds}: line 2: " in capsys.readouterr().err


def test_applayer_comparison_counts_app_errors_as_failures_even_when_reports_exclude_them(tmp_path):
    # One HRP: 220 successes and 36 app errors. Counting the errors as failures
    # its success share is 220/256 (not above 90%); excluding them it is 220/220.
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 9: 2})
    results = tmp_path / "results.csv"
    rows = ["ip,port,proto,status,identifier"]
    rows += [f"{format_ipv4((5 << 8) | host)},443,tcp,success,certA" for host in range(220)]
    rows += [f"{format_ipv4((5 << 8) | host)},443,tcp,app_error," for host in range(220, 256)]
    results.write_text("\n".join(rows) + "\n", encoding="utf-8")
    docs = {}
    for flag in ((), ("--exclude-app-errors",)):
        report = tmp_path / "applayer.json"
        assert run("applayer", "--port", 443, *flag, "--output", report, results, scan) == 0
        docs[bool(flag)] = json.loads(report.read_text())
    assert [r["gt90_success"] for r in docs[False]["reports"]] == [False]
    assert [r["gt90_success"] for r in docs[True]["reports"]] == [True]
    assert [r["denominator"] for r in docs[True]["reports"]] == [220]
    for doc in docs.values():
        assert doc["address_comparison"]["gt90_subset_share"] == 0.0
        assert doc["address_comparison"]["gt90_same_identifier_share"] is None
    assert docs[True]["address_comparison"] == docs[False]["address_comparison"]


def test_escalate_and_evaluate_pipeline(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 6: 256})
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 1,
               "--output", plan_path, "--summary", tmp_path / "ps.json", scan) == 0
    plan_rows = [r.split(",") for r in plan_path.read_text().splitlines()[1:]]
    sample_rows = ["ip,port,proto,status,identifier"]
    for ip, prefix, _, _ in plan_rows:
        if prefix == "0.0.5.0/24":
            host = int(ip.rsplit(".", 1)[1])
            sample_rows.append(f"{ip},443,tcp,success,id{host % 3}")  # diverse
        else:
            sample_rows.append(f"{ip},443,tcp,success,shared")  # cdn_like
    sample = tmp_path / "sample.csv"
    sample.write_text("\n".join(sample_rows) + "\n", encoding="utf-8")
    escalated = tmp_path / "plan2.csv"
    summary = tmp_path / "esc.json"
    assert run("escalate", "--port", 443, "--output", escalated, "--summary", summary,
               plan_path, sample, scan) == 0
    doc = json.loads(summary.read_text())
    assert doc["scenario_counts"] == {"proxy": 0, "cdn_like": 1, "diverse": 1}
    assert doc["added_targets"] == 246
    truth_rows = ["ip,port,proto,status,identifier"]
    for prefix, label in ((5, None), (6, "shared")):
        for host in range(256):
            ident = f"id{host % 3}" if prefix == 5 else label
            truth_rows.append(f"{format_ipv4((prefix << 8) | host)},443,tcp,success,{ident}")
    truth = tmp_path / "truth.csv"
    truth.write_text("\n".join(truth_rows) + "\n", encoding="utf-8")
    report = tmp_path / "metrics.json"
    assert run("evaluate", "--output", report, escalated, truth) == 0
    metrics = json.loads(report.read_text())
    assert metrics["handshakes_planned"] == 256 + 10
    assert metrics["handshakes_full_baseline"] == 512
    assert metrics["identifier_coverage"] == 1.0
    assert metrics["reduction"] == pytest.approx(1 - 266 / 512)


def test_evaluate_uncovered_plan_is_schema_error(tmp_path, capsys):
    scan = write_scan(tmp_path / "scan.txt", {5: 4})
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--output", plan_path,
               "--summary", tmp_path / "s.json", scan) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text("ip,port,proto,status,identifier\n0.0.5.0,443,tcp,success,x\n", encoding="utf-8")
    assert run("evaluate", plan_path, truth) == 2
    assert "missing from ground truth" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [("", 1), ("# no rows\n\n", 3)])
def test_a_table_without_a_header_row_exits_2(tmp_path, capsys, text, line):
    plan_path = tmp_path / "plan.csv"
    plan_path.write_text(text, encoding="utf-8")
    truth = tmp_path / "truth.csv"
    truth.write_text("ip,port,proto,status,identifier\n0.0.5.0,443,tcp,success,x\n", encoding="utf-8")
    assert run("evaluate", plan_path, truth) == 2
    assert capsys.readouterr().err.startswith(
        f"hrpkit evaluate: {plan_path}: line {line}: no header row: expected ip,prefix,strategy,provenance")


def test_missing_subcommand_is_usage_error():
    assert run() == 2


def _detect_to_stdout(tmp_path, *shell: str, **streams) -> subprocess.CompletedProcess:
    """``hrpkit detect`` in a child whose stdout is buffered, as it is by default, with its table
    to stdout: run by ``sh -c 'exec "$@" SHELL'`` when shell redirections are given."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(prefixes.__file__).parents[1])
    scan = write_scan(tmp_path / "scan.txt", {5: 3})
    argv = [sys.executable, "-m", "hrpkit.cli", "detect", "--port", "443", "--summary", str(tmp_path / "s.json"), str(scan)]
    if shell:
        argv = ["sh", "-c", f'exec "$@" {" ".join(shell)}', "sh", *argv]
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, check=False, **streams)


def _assert_one_io_error(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("hrpkit detect: [Errno ") and proc.stderr.count("\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_report_that_does_not_fit_on_stdout_exits_4(tmp_path):
    with open("/dev/full", "w") as full:
        proc = _detect_to_stdout(tmp_path, stdout=full)
    _assert_one_io_error(proc)
    assert "No space left on device" in proc.stderr


def test_a_report_to_a_stdout_pipe_without_a_reader_exits_4(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _detect_to_stdout(tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    _assert_one_io_error(proc)
    assert "Broken pipe" in proc.stderr


def test_a_report_to_a_closed_stdout_exits_4(tmp_path):
    proc = _detect_to_stdout(tmp_path, ">&-", stdout=subprocess.DEVNULL)
    _assert_one_io_error(proc)
    assert "<stdout>" in proc.stderr


def _help(argv: list[str], unbuffered: bool, *shell: str, **streams) -> subprocess.CompletedProcess:
    """``hrpkit`` with argv, which asks for help, in a child whose stdout is buffered, as it is by
    default, or not: run by ``sh -c 'exec "$@" SHELL'`` when shell redirections are given."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(Path(prefixes.__file__).parents[1]), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    argv = [sys.executable, "-m", "hrpkit.cli", *argv]
    if shell:
        argv = ["sh", "-c", f'exec "$@" {" ".join(shell)}', "sh", *argv]
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, text=True, check=False, **streams)


_HELP = [(["-h"], "hrpkit"), (["enrich", "-h"], "hrpkit enrich"), (["detect", "--help"], "hrpkit detect")]


# argparse drops a help text that stdout cannot take, and its process exited 0 all the same.
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, prog", _HELP)
def test_help_that_does_not_fit_on_stdout_exits_4(argv, prog, unbuffered):
    with open("/dev/full", "w") as full:
        proc = _help(argv, unbuffered, stdout=full)
    assert (proc.returncode, proc.stderr) == (4, f"{prog}: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("argv, prog", _HELP)
def test_help_to_a_closed_stdout_or_a_pipe_without_a_reader_exits_4(argv, prog):
    proc = _help(argv, False, ">&-", stdout=subprocess.DEVNULL)
    assert (proc.returncode, proc.stderr) == (4, f"{prog}: [Errno 9] Bad file descriptor: '<stdout>'\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _help(argv, False, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (4, f"{prog}: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, prog", _HELP)
def test_help_that_stdout_takes_exits_0(argv, prog, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to, here and in the child
    proc = _help(argv, False, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"usage: {prog} [-h]")
    assert run(*argv) == 0
    assert capsys.readouterr() == (proc.stdout, "")


def _detect_with_stderr(tmp_path, redirect: str, *args: str) -> subprocess.CompletedProcess:
    """``hrpkit detect`` in a child whose stderr is buffered, as it is by default, redirected by
    ``sh -c 'exec "$@" REDIRECT'``, with its table to a file."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(prefixes.__file__).parents[1])
    argv = [sys.executable, "-m", "hrpkit.cli", "detect", "--port", "443", "--output", str(tmp_path / "o.csv"), *args]
    return subprocess.run(["sh", "-c", f'exec "$@" {redirect}', "sh", *argv], env=env, stdout=subprocess.PIPE,
                          text=True, check=False)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"])
def test_a_summary_that_stderr_cannot_take_exits_4(tmp_path, redirect):
    proc = _detect_with_stderr(tmp_path, redirect, str(write_scan(tmp_path / "scan.txt", {5: 3})))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert (tmp_path / "o.csv").read_text().count("\n") == 2  # the table was written before the summary


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("redirect", ["2>/dev/full", "2>&-"])
def test_an_error_line_that_stderr_cannot_take_exits_with_the_errors_code(tmp_path, redirect):
    proc = _detect_with_stderr(tmp_path, redirect, "--summary", str(tmp_path / "s.json"), str(tmp_path / "missing.txt"))
    assert (proc.returncode, proc.stdout) == (4, "")
    proc = _detect_with_stderr(tmp_path, redirect, "--policy", "strict", "--summary", str(tmp_path / "s.json"),
                               str(write_scan(tmp_path / "scan.txt", {5: 3}, ["junk"])))
    assert (proc.returncode, proc.stdout) == (3, "")


def _sample_results(plan_path, status_of, extra_rows=()):
    """A results CSV over the plan's sampled targets, status chosen per address text."""
    rows = ["ip,port,proto,status,identifier"]
    for row in plan_path.read_text().splitlines()[1:]:
        ip, _, strategy, _ = row.split(",")
        if strategy == "sampled":
            status = status_of(ip)
            rows.append(f"{ip},443,tcp,{status},{'shared' if status == 'success' else ''}")
    rows.extend(extra_rows)
    return "\n".join(rows) + "\n"


def test_escalate_ignores_results_at_unplanned_addresses(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256})
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 1,
               "--output", plan_path, "--summary", tmp_path / "ps.json", scan) == 0
    planned = [r.split(",")[0] for r in plan_path.read_text().splitlines()[1:]]
    unplanned = next(format_ipv4((5 << 8) | h) for h in range(256)
                     if format_ipv4((5 << 8) | h) not in planned)
    # One success in ten planned targets is a proxy (rate 0.1 <= 0.10); a
    # success at an address the plan never targeted must not count.
    sample = tmp_path / "sample.csv"
    sample.write_text(_sample_results(
        plan_path, lambda ip: "success" if ip == planned[0] else "unreachable",
        [f"{unplanned},443,tcp,success,shared"]), encoding="utf-8")
    summary = tmp_path / "esc.json"
    assert run("escalate", "--port", 443, "--output", tmp_path / "plan2.csv",
               "--summary", summary, plan_path, sample, scan) == 0
    doc = json.loads(summary.read_text())
    assert doc["scenario_counts"] == {"proxy": 1, "cdn_like": 0, "diverse": 0}
    assert doc["off_plan_results"] == 1
    assert doc["added_targets"] == 0


def test_escalate_from_shards_matches_the_concatenated_scan(tmp_path):
    whole = write_scan(tmp_path / "scan.txt", {5: 256, 6: 240, 9: 3})
    lines = whole.read_text().splitlines(keepends=True)
    shard_a, shard_b = tmp_path / "a.txt", tmp_path / "b.txt"
    shard_a.write_text("".join(lines[::2]), encoding="utf-8")
    shard_b.write_text("".join(lines[1::2]), encoding="utf-8")
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--k", 10, "--output", plan_path,
               "--summary", tmp_path / "ps.json", whole) == 0
    sample = tmp_path / "sample.csv"
    sample.write_text(_sample_results(plan_path, lambda ip: "success"), encoding="utf-8")
    outputs = []
    for name, scans in (("whole", [whole]), ("shards", [shard_a, shard_b])):
        out, summary = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert run("escalate", "--port", 443, "--output", out,
                   "--summary", summary, plan_path, sample, *scans) == 0
        outputs.append((out.read_bytes(), summary.read_bytes()))
    assert outputs[0] == outputs[1]


def test_escalate_counts_a_repeated_result_row_once(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256})
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 1,
               "--output", plan_path, "--summary", tmp_path / "ps.json", scan) == 0
    sampled = [r.split(",")[0] for r in plan_path.read_text().splitlines()[1:]]
    assert len(sampled) == 10
    # One success in ten sampled targets is a proxy (rate 0.1 <= 0.10); a
    # second row for the successful address must not make it 2/11.
    rows = _sample_results(plan_path, lambda ip: "success" if ip == sampled[0] else "unreachable")
    scenarios = []
    for name, extra in (("once", ""), ("twice", f"{sampled[0]},443,tcp,success,shared\n")):
        sample = tmp_path / f"{name}.csv"
        sample.write_text(rows + extra, encoding="utf-8")
        summary = tmp_path / f"{name}.json"
        assert run("escalate", "--port", 443, "--output", tmp_path / f"{name}-plan.csv",
                   "--summary", summary, plan_path, sample, scan) == 0
        doc = json.loads(summary.read_text())
        assert doc["off_plan_results"] == 0
        scenarios.append(doc["scenario_counts"])
    assert scenarios == [{"proxy": 1, "cdn_like": 0, "diverse": 0}] * 2


def test_escalate_counts_each_off_plan_row_and_classifies_a_repeated_sample_once(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256})
    plan_path = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 1,
               "--output", plan_path, "--summary", tmp_path / "ps.json", scan) == 0
    sampled = [r.split(",")[0] for r in plan_path.read_text().splitlines()[1:]]
    unplanned = next(ip for ip in map(format_ipv4, range(5 << 8, 6 << 8)) if ip not in sampled)
    # Ten successes with one identifier are cdn_like; the repeat of a sampled row, with
    # another identifier, must not make the prefix diverse.
    sample = tmp_path / "sample.csv"
    sample.write_text(_sample_results(plan_path, lambda ip: "success", [
        f"{unplanned},443,tcp,success,shared",
        f"{sampled[3]},443,tcp,success,other",
        f"{unplanned},443,tcp,success,shared",
    ]), encoding="utf-8")
    summary = tmp_path / "esc.json"
    assert run("escalate", "--port", 443, "--output", tmp_path / "plan2.csv",
               "--summary", summary, plan_path, sample, scan) == 0
    doc = json.loads(summary.read_text())
    assert doc["off_plan_results"] == 2
    assert doc["classified_prefixes"] == 1
    assert doc["scenario_counts"] == {"proxy": 0, "cdn_like": 1, "diverse": 0}


@pytest.mark.parametrize("bad_row", [
    "0.0.5.1,443,tcp,ok,",  # unknown status
    "0.0.5.1,443,sctp,success,x",  # unknown protocol
    "0.0.5.1,70000,tcp,success,x",  # port out of range
    "0.0.5.1,+443,tcp,success,x",  # port not ASCII digits
    "0.0.5.1,4_43,tcp,success,x",
    "0.0.5.1,\u0664\u0664\u0663,tcp,success,x",
    "0.0.5.1,443,tcp,success",  # missing field
])
def test_applayer_rejects_bad_results_row_with_file_and_line(tmp_path, capsys, bad_row):
    scan = write_scan(tmp_path / "scan.txt", {5: 4})
    results = tmp_path / "results.csv"
    results.write_text("ip,port,proto,status,identifier\n0.0.5.0,443,tcp,success,x\n"
                       + bad_row + "\n", encoding="utf-8")
    assert run("applayer", "--port", 443, "--output", tmp_path / "a.json", results, scan) == 2
    assert f"{results}: line 3: " in capsys.readouterr().err


def test_plan_reads_seeds_from_the_option_or_a_trailing_file_and_shards_as_one_scan(tmp_path):
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 6: 240, 9: 3})
    lines = scan.read_text().splitlines(keepends=True)
    shards = [tmp_path / f"shard{i}.txt" for i in range(3)]
    for i, shard in enumerate(shards):
        shard.write_text("".join(lines[i::3]), encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("ip,name_count\n" + format_ipv4((5 << 8) | 4) + ",9\n", encoding="utf-8")
    outputs = {}
    for form, inputs in {"trailing": [scan, seeds], "option": ["--seeds", seeds, scan],
                         "shards": [*shards, "--seeds", seeds]}.items():
        out = tmp_path / form
        out.mkdir()
        assert run("plan", "--port", 443, "--k", 10, "--rng-seed", 7, "--output", out / "plan.csv",
                   "--summary", out / "plan.json", "--targets-out", out / "targets.txt", *inputs) == 0
        outputs[form] = [path.read_bytes() for path in sorted(out.iterdir())]
    assert outputs["trailing"] == outputs["option"] == outputs["shards"]
    assert json.loads(outputs["shards"][1])["dns_seeds"] == 1


@pytest.mark.parametrize("argv, message", [
    (["scan", "shard", "seeds"], "3 scan files but no --seeds; name the seeds file with --seeds"),
    (["--seeds", "seeds", "scan", "seeds"], "{seeds} is given both as --seeds and as a scan file"),
])
def test_plan_takes_its_seeds_file_one_way(corpus, capsys, argv, message):
    capsys.readouterr()
    assert main(["plan", "--port", "443", *(corpus.get(arg, arg) for arg in argv)]) == 2
    assert capsys.readouterr().err == f"hrpkit plan: {message.format(**corpus)}\n"


# --- every input error names its file ------------------------------------------------


@pytest.fixture
def corpus(tmp_path) -> dict[str, str]:
    """One valid file of each kind a command reads, all for tcp/443."""
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 9: 3})
    shard = write_scan(tmp_path / "shard.txt", {6: 2})
    results = tmp_path / "results.csv"
    results.write_text("ip,port,proto,status,identifier\n0.0.5.1,443,tcp,success,certA\n", encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("ip,name_count\n0.0.5.4,2\n", encoding="utf-8")
    routes = tmp_path / "routes.csv"
    routes.write_text("0.0.0.0/8,64500\n", encoding="utf-8")
    plan = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--output", plan, "--summary", tmp_path / "p.json", scan) == 0
    files = {
        "scan": scan, "shard": shard, "results": results, "seeds": seeds, "routes": routes, "plan": plan,
        "stats": _detect(tmp_path, "stats", {5: 256}), "stats2": _detect(tmp_path, "stats2", {5: 3}),
        "headerless": tmp_path / "headerless.csv",
    }
    files["headerless"].write_text("", encoding="utf-8")
    return {name: str(path) for name, path in files.items()}


SCAN_FLAGS = ["--port", "443", "--policy", "strict"]

# (command, argv over corpus names, the file given a bad line, that line, exit code)
NAMED_ERRORS = [
    ("detect", [*SCAN_FLAGS, "scan", "shard"], "scan", "junk", 3),
    ("detect", [*SCAN_FLAGS, "scan", "shard"], "shard", "junk", 3),
    ("detect", ["--port", "443", "--format", "csv_saddr", "headerless"], "headerless", "ip,sport", 3),
    ("enrich", ["stats", "routes"], "stats", "junk", 2),
    ("enrich", ["--policy", "strict", "stats", "routes"], "routes", "junk", 3),
    ("portmatrix", ["stats", "stats2"], "stats2", "junk", 2),
    ("stability", ["stats", "stats2"], "stats2", "junk", 2),
    ("vantage", ["stats", "stats2"], "stats", "junk", 2),
    ("vantage", ["stats", "stats2"], "stats2", "junk", 2),
    ("applayer", [*SCAN_FLAGS, "results", "scan"], "results", "junk", 2),
    ("applayer", [*SCAN_FLAGS, "results", "scan", "shard"], "shard", "junk", 3),
    ("plan", [*SCAN_FLAGS, "scan", "seeds"], "scan", "junk", 3),
    ("plan", [*SCAN_FLAGS, "scan", "seeds"], "seeds", "junk", 2),
    ("plan", [*SCAN_FLAGS, "--seeds", "seeds", "scan", "shard"], "shard", "junk", 3),
    ("plan", [*SCAN_FLAGS, "--seeds", "seeds", "scan", "shard"], "seeds", "junk", 2),
    ("escalate", [*SCAN_FLAGS, "plan", "results", "scan", "shard"], "plan", "junk", 2),
    ("escalate", [*SCAN_FLAGS, "plan", "results", "scan", "shard"], "results", "junk", 2),
    ("escalate", [*SCAN_FLAGS, "plan", "results", "scan", "shard"], "shard", "junk", 3),
    ("evaluate", ["plan", "results"], "plan", "junk", 2),
    ("evaluate", ["plan", "results"], "results", "junk", 2),
]


@pytest.mark.parametrize("command, argv, bad, line, code", NAMED_ERRORS)
def test_input_errors_name_the_file_and_line(corpus, capsys, command, argv, bad, line, code):
    path = Path(corpus[bad])
    path.write_text(path.read_text() + line + "\n", encoding="utf-8")
    line_number = len(path.read_text().splitlines())
    capsys.readouterr()
    assert main([command, *(corpus.get(arg, arg) for arg in argv)]) == code
    assert capsys.readouterr().err.startswith(f"hrpkit {command}: {path}: line {line_number}: ")


# --- where each command's JSON report goes ---------------------------------------------

# Per command: the least argv over corpus names and the two files below, and the option that
# names the report's path.
REPORTS = {
    "detect": (["--port", "443", "scan"], "--summary"),
    "enrich": (["stats", "routes"], "--summary"),
    "portmatrix": (["stats", "stats80"], "--output"),
    "stability": (["stats", "stats2"], "--output"),
    "vantage": (["stats", "stats2"], "--output"),
    "applayer": (["--port", "443", "results", "scan"], "--output"),
    "plan": (["--port", "443", "--seeds", "seeds", "scan"], "--summary"),
    "escalate": (["--port", "443", "plan", "results", "scan"], "--summary"),
    "evaluate": (["plan", "truth"], "--output"),
}


@pytest.mark.parametrize("command", REPORTS)
def test_the_report_goes_to_its_option_or_by_default_to_its_stream(corpus, tmp_path, capsys, command):
    truth = tmp_path / "truth.csv"  # every address of the corpus scan
    truth.write_text("ip,port,proto,status,identifier\n" + "".join(
        f"{format_ipv4(prefix << 8 | host)},443,tcp,success,certA\n" for prefix, count in ((5, 256), (9, 3))
        for host in range(count)), encoding="utf-8")
    files = {**corpus, "truth": str(truth), "stats80": str(_detect(tmp_path, "stats80", {5: 3}, port=80))}
    names, option = REPORTS[command]
    argv = [command, *(files.get(name, name) for name in names)]
    if option == "--summary":  # the command's table goes to a file, out of the streams
        argv += ["--output", str(tmp_path / "table.out")]
    capsys.readouterr()
    assert main(argv) == 0
    out, err = capsys.readouterr()
    report = err if option == "--summary" else out
    assert isinstance(json.loads(report), dict)
    assert (out, err) == (("", report) if option == "--summary" else (report, ""))
    assert main([*argv, option, str(tmp_path / "report.json")]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == report
    assert main([*argv, option, "-"]) == 0
    assert capsys.readouterr() == (report, "")
