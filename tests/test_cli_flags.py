"""The command line's options and inputs: every option changes an output, integer and
decimal flags follow the file rules, and every input file decodes one way."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrpkit
from hrpkit import applayer
from hrpkit.cli import build_parser, main
from hrpkit.ingest import format_ipv4

from test_cli import run, write_scan

TABLED = ("detect", "applayer", "plan", "escalate")


def _options(command: str) -> list[str]:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        action.option_strings[0]
        for action in sub.choices[command]._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


@pytest.fixture
def inputs(tmp_path) -> dict[str, list[str]]:
    """The least argv per command over one small corpus, every output to stdout or stderr.

    /24 5 has 255 of 256 addresses (an HRP at 0.90, not at 1.0) and /24 9 three;
    the scan ends in an invalid line. The seed file names the unseen 0.0.5.200.
    Results hold successes and an app error in /24 5. The escalate sample has
    half of the sampled targets succeed under one identifier (diverse).
    """
    scan = write_scan(tmp_path / "scan.txt", {5: 256, 9: 3}, ["junk"])
    scan.write_text(scan.read_text().replace("0.0.5.200\n", ""), encoding="utf-8")
    seeds = tmp_path / "seeds.csv"
    seeds.write_text("ip,name_count\n0.0.5.200,3\n", encoding="utf-8")
    results = tmp_path / "results.csv"
    rows = ["ip,port,proto,status,identifier", "0.0.5.1,443,tcp,app_error,"]
    rows += [f"{format_ipv4(5 << 8 | host)},443,tcp,success,certA" for host in range(2, 240)]
    results.write_text("\n".join(rows) + "\n", encoding="utf-8")
    plan = tmp_path / "plan.csv"
    assert run("plan", "--port", 443, "--output", plan, "--summary", tmp_path / "plan.json", scan) == 0
    sampled = [row.split(",")[0] for row in plan.read_text().splitlines() if ",sampled," in row]
    sample = tmp_path / "sample.csv"
    sample.write_text("ip,port,proto,status,identifier\n" + "".join(
        f"{ip},443,tcp,success,shared\n" if i % 2 else f"{ip},443,tcp,unreachable,\n"
        for i, ip in enumerate(sampled)
    ), encoding="utf-8")
    return {
        "detect": ["--port", "443", str(scan)],
        "applayer": ["--port", "443", str(results), str(scan)],
        "plan": ["--port", "443", str(scan), str(seeds)],
        "escalate": ["--port", "443", str(plan), str(sample), str(scan)],
    }


# Per (command, option): the arguments that, appended to the least argv, change an
# output byte or the exit code. Paths land under out/.
CHANGES = {
    ("detect", "--port"): ["80"],
    ("detect", "--proto"): ["udp"],
    ("detect", "--format"): ["csv_saddr"],  # the first address is no header: exit 3
    ("detect", "--policy"): ["strict"],  # the invalid line: exit 3
    ("detect", "--threshold"): ["1.0"],
    ("detect", "--output"): ["out/stats.csv"],
    ("detect", "--summary"): ["out/summary.json"],
    ("detect", "--output-format"): ["jsonl"],
    ("applayer", "--port"): ["80"],  # disagrees with the results: exit 2
    ("applayer", "--proto"): ["udp"],
    ("applayer", "--format"): ["csv_saddr"],
    ("applayer", "--policy"): ["strict"],
    ("applayer", "--threshold"): ["1.0"],
    ("applayer", "--output"): ["out/applayer.json"],
    ("applayer", "--exclude-app-errors"): [],
    ("plan", "--port"): ["80"],
    ("plan", "--proto"): ["udp"],
    ("plan", "--format"): ["csv_saddr"],
    ("plan", "--policy"): ["strict"],
    ("plan", "--threshold"): ["1.0"],
    ("plan", "--output"): ["out/plan.csv"],
    ("plan", "--summary"): ["out/plan.json"],
    ("plan", "--k"): ["5"],
    ("plan", "--rng-seed"): ["7"],
    ("plan", "--no-unresponsive-seeds"): [],
    ("plan", "--targets-out"): ["out/targets.txt"],
    ("escalate", "--port"): ["80"],
    ("escalate", "--proto"): ["udp"],
    ("escalate", "--format"): ["csv_saddr"],
    ("escalate", "--policy"): ["strict"],
    ("escalate", "--output"): ["out/escalated.csv"],
    ("escalate", "--summary"): ["out/escalate.json"],
    ("escalate", "--proxy-max-success"): ["0.5"],  # the diverse /24 becomes a proxy
    ("escalate", "--cdn-min-success"): ["0.5"],  # the diverse /24 becomes cdn_like
}


def _outcome(argv, out_dir: Path, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, captured.out, captured.err, files


@pytest.mark.parametrize("command, option", [(c, o) for c in TABLED for o in _options(c)])
def test_every_option_changes_an_output_or_the_exit_code(tmp_path, inputs, capsys, monkeypatch,
                                                         command, option):
    if (command, option) not in CHANGES:
        pytest.fail(f"{command} {option} has no entry in CHANGES: give it an input it changes")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    base = _outcome([command, *inputs[command]], out_dir, capsys)
    assert base[0] == 0, base[2]
    changed = _outcome([command, *inputs[command], option, *CHANGES[command, option]], out_dir, capsys)
    assert changed != base


def test_change_table_names_only_existing_options():
    assert set(CHANGES) == {(c, o) for c in TABLED for o in _options(c)}


SCAN_LABELS = [("--scan-id", "weekly-01"), ("--timestamp", "2022-08-01T00:00:00Z"), ("--vantage", "muc")]
REMOVED = [(command, flag, value) for command in TABLED for flag, value in SCAN_LABELS] + [
    ("plan", "--proxy-max-success", "0.2"),
    ("plan", "--cdn-min-success", "0.8"),
    ("escalate", "--k", "5"),
    ("escalate", "--rng-seed", "7"),
    ("escalate", "--no-unresponsive-seeds", None),
]


@pytest.mark.parametrize("command, flag, value", REMOVED)
def test_removed_flags_are_usage_errors(inputs, capsys, command, flag, value):
    extra = [flag] if value is None else [flag, value]
    assert main([command, *inputs[command], *extra]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# --- integer flags read as in input files -----------------------------------------


@pytest.fixture
def weeks(tmp_path) -> list[str]:
    paths = []
    for week in range(2):
        scan = write_scan(tmp_path / f"w{week}.txt", {5: 256})
        paths.append(str(tmp_path / f"w{week}.csv"))
        summary = tmp_path / "s.json"
        assert run("detect", "--port", 443, "--output", paths[-1], "--summary", summary, scan) == 0
    return paths


@pytest.mark.parametrize("command, flag, value", [
    ("detect", "--port", "+443"),
    ("detect", "--port", "\u0664\u0664\u0663"),
    ("detect", "--port", "4_43"),
    ("detect", "--port", " 443"),
    ("detect", "--port", "65536"),
    ("applayer", "--port", "+443"),
    ("escalate", "--port", "+443"),
    ("plan", "--k", "1_0"),
    ("plan", "--k", "+5"),
    ("plan", "--k", "0"),
    ("plan", "--k", "257"),
    ("plan", "--rng-seed", "-3"),
    ("plan", "--rng-seed", str(1 << 64)),
    ("plan", "--rng-seed", "\u0667"),
])
def test_integer_flags_reject_what_files_reject(inputs, capsys, command, flag, value):
    assert main([command, *inputs[command], flag, value]) == 2
    assert f"argument {flag}: invalid value" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["+2", "-1", "2_0", "\u0662"])
def test_persistence_n_rejects_what_files_reject(weeks, capsys, value):
    assert main(["stability", "--persistence-n", value, *weeks]) == 2
    assert "argument --persistence-n: invalid value" in capsys.readouterr().err


def test_integer_flags_take_their_whole_range(tmp_path, inputs, weeks):
    summary = tmp_path / "s.json"
    for k, seed in ((256, (1 << 64) - 1), (1, 0)):
        assert main(["plan", *inputs["plan"], "--k", str(k), "--rng-seed", str(seed),
                     "--output", str(tmp_path / "plan.csv"), "--summary", str(summary)]) == 0
        doc = json.loads(summary.read_text())
        assert (doc["k"], doc["rng_seed"]) == (k, seed)
    assert main(["stability", "--persistence-n", "0", "--output", str(tmp_path / "st.json"), *weeks]) == 0
    assert main(["detect", *inputs["detect"], "--port", "0", "--output", str(tmp_path / "d.csv"),
                 "--summary", str(summary)]) == 0


# --- decimal flags read as in input files -----------------------------------------


@pytest.mark.parametrize("command, flag, value", [
    ("detect", "--threshold", "\u0660.\u0669_0"),
    ("detect", "--threshold", "0.9_0"),
    ("detect", "--threshold", "+0.9"),
    ("detect", "--threshold", "9e-1"),
    ("detect", "--threshold", ".9"),
    ("detect", "--threshold", " 0.9"),
    ("detect", "--threshold", "nan"),
    ("applayer", "--threshold", "inf"),
    ("plan", "--threshold", "0.9\u0660"),
    ("escalate", "--proxy-max-success", "0.1_0"),
    ("escalate", "--proxy-max-success", "1e-1"),
    ("escalate", "--proxy-max-success", "-0"),
    ("escalate", "--cdn-min-success", "nan"),
    ("escalate", "--cdn-min-success", "\u0661"),
    ("escalate", "--cdn-min-success", "0.9 "),
])
def test_decimal_flags_reject_what_files_reject(inputs, capsys, command, flag, value):
    assert main([command, *inputs[command], flag, value]) == 2
    assert f"argument {flag}: invalid value" in capsys.readouterr().err


@pytest.mark.parametrize("value, hrp_prefixes", [
    ("0.90", 1), ("1", 0), ("1.0", 0), ("0.900000", 1), ("0.9000000", 1),
])
def test_threshold_spellings_that_load(tmp_path, inputs, value, hrp_prefixes):
    summary = tmp_path / "s.json"
    assert main(["detect", *inputs["detect"], "--threshold", value, "--output", str(tmp_path / "d.csv"),
                 "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["hrp_prefixes"] == hrp_prefixes


@pytest.mark.parametrize("command", ["detect", "applayer", "plan"])
@pytest.mark.parametrize("value", ["0.8984375", "0.0000001"])
def test_threshold_flag_takes_only_what_stats_files_carry(inputs, capsys, command, value):
    """A stats file writes six decimals, so a threshold with more could not be read back."""
    assert main([command, *inputs[command], "--threshold", value]) == 2
    assert "argument --threshold: threshold fraction must have at most six decimals" in capsys.readouterr().err


def test_escalate_cutoffs_take_their_bounds(tmp_path, inputs):
    assert main(["escalate", *inputs["escalate"], "--proxy-max-success", "0", "--cdn-min-success", "1",
                 "--output", str(tmp_path / "e.csv"), "--summary", str(tmp_path / "e.json")]) == 0


# --- applayer joins its results once ------------------------------------------------


def test_applayer_joins_its_results_once(tmp_path, inputs, monkeypatch):
    passes = []

    class Targets(list):
        def __iter__(self):
            passes.append(1)
            return super().__iter__()

    read = applayer.read_app_results
    monkeypatch.setattr(
        applayer, "read_app_results",
        lambda lines: dataclasses.replace(table := read(lines), targets=Targets(table.targets)),
    )
    assert main(["applayer", "--output", str(tmp_path / "a.json"), *inputs["applayer"]]) == 0
    assert len(passes) == 1


# --- one decoding for every input ---------------------------------------------------


def _detect_summary(tmp_path, scan: Path, *flags) -> tuple[int, dict]:
    summary = tmp_path / "summary.json"
    summary.unlink(missing_ok=True)
    code = run("detect", "--port", 443, *flags, "--output", tmp_path / "stats.csv",
               "--summary", summary, scan)
    return code, json.loads(summary.read_text()) if summary.exists() else {}


def test_undecodable_byte_in_a_scan_is_an_invalid_line(tmp_path, capsys):
    scan = tmp_path / "scan.txt"
    scan.write_bytes(b"0.0.5.1\n0.0.5.\xff\n0.0.5.3\n")
    code, summary = _detect_summary(tmp_path, scan)
    assert code == 0
    assert (summary["addresses_emitted"], summary["invalid_lines"]) == (2, 1)
    code, _ = _detect_summary(tmp_path, scan, "--policy", "strict")
    assert code == 3
    assert "line 2: invalid address line: '0.0.5.\ufffd'" in capsys.readouterr().err


def test_byte_order_mark_is_not_part_of_the_first_line(tmp_path):
    scan = tmp_path / "scan.txt"
    scan.write_bytes(b"\xef\xbb\xbf0.0.5.1\r\n0.0.5.2\r\n")
    code, summary = _detect_summary(tmp_path, scan, "--policy", "strict")
    assert code == 0
    assert (summary["addresses_emitted"], summary["invalid_lines"]) == (2, 0)
    stats = tmp_path / "stats.csv"
    stats.write_bytes(b"\xef\xbb\xbf" + stats.read_bytes())  # the header is still the header
    assert run("vantage", "--output", tmp_path / "v.json", stats, stats) == 0


def test_undecodable_identifier_is_rejected_with_file_and_line(tmp_path, inputs, capsys):
    results = Path(inputs["applayer"][2])
    results.write_bytes(results.read_bytes() + b"0.0.5.250,443,tcp,success,cert\xff\n")
    assert main(["applayer", "--output", str(tmp_path / "a.json"), *inputs["applayer"]]) == 2
    err = capsys.readouterr().err
    assert f"{results}: line 241: undecodable bytes in identifier 'cert\ufffd'" in err


def test_stdin_decodes_like_a_file(tmp_path):
    data = b"\xef\xbb\xbf" + write_scan(tmp_path / "scan.txt", {5: 240}).read_bytes() + b"0.0.6.\xff\n"
    copy = tmp_path / "copy.txt"
    copy.write_bytes(data)
    env = {**os.environ, "PYTHONPATH": str(Path(hrpkit.__file__).parents[1])}
    outputs = []
    for source in ("-", str(copy)):
        proc = subprocess.run(
            [sys.executable, "-m", "hrpkit.cli", "detect", "--port", "443", source],
            input=data, capture_output=True, env=env, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, json.loads(proc.stderr)))
    assert outputs[0] == outputs[1]
    assert (outputs[0][1]["addresses_emitted"], outputs[0][1]["invalid_lines"]) == (240, 1)
