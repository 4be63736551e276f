"""The package namespace, and the modules each subcommand loads."""

from __future__ import annotations

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hrpkit
from hrpkit.cli import main

ALL = [
    "AddressComparison", "AppReportSet", "AppResults", "AsSummary", "DnsSeed",
    "HrpAppReport", "HrpThreshold", "IngestError", "IngestStats", "PersistenceSummary",
    "PlanEvaluationError", "PlanMetrics", "PortProfile", "PortProfileReport", "PrefixStats",
    "PrefixTable", "ResponsivenessHistogram", "RouteParseError", "RoutingTable",
    "SamplePolicy", "ScanMeta", "StabilityPoint", "SuccessCdf", "TargetPlan", "VantageDiff",
    "address_comparison", "aggregate", "as_summary", "build_plan", "classify", "classify_sample",
    "enrich", "escalate", "evaluate_plan", "format_ipv4", "hrp_address_share", "hrp_app_report",
    "hrp_set", "load_route_table", "merge", "open_scan_source", "parse_ipv4", "persistence",
    "port_profile", "read_app_results", "read_dns_seeds", "read_plan_csv", "read_prefix_stats",
    "responsiveness_histogram", "stability_series", "success_cdf", "vantage_diff",
    "write_plan_csv", "write_prefix_stats_csv", "write_prefix_stats_jsonl",
]


def test_all_keeps_its_names_in_order():
    assert hrpkit.__all__ == ALL


def test_each_name_is_its_home_modules_object():
    for name in ALL:
        value = getattr(hrpkit, name)
        assert value.__module__.startswith("hrpkit."), name
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from hrpkit import *", namespace)
    assert set(ALL) <= set(namespace)
    assert all(namespace[name] is getattr(hrpkit, name) for name in ALL)


def test_dir_lists_every_name():
    assert set(ALL) <= set(dir(hrpkit))


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    assert not hasattr(hrpkit, "no_such_name")
    with pytest.raises(AttributeError, match="module 'hrpkit' has no attribute 'no_such_name'"):
        hrpkit.no_such_name  # noqa: B018


def test_import_hrpkit_loads_each_module_on_first_use():
    code = """
import sys
import hrpkit
loaded = lambda: sorted(name for name in sys.modules if name.partition(".")[0] == "hrpkit")
print(loaded())
hrpkit.routing.load_route_table, hrpkit.ScanMeta
print(loaded())
"""
    env = {**os.environ, "PYTHONPATH": str(Path(hrpkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines() == [
        "['hrpkit']",
        "['hrpkit', 'hrpkit.fmt', 'hrpkit.ingest', 'hrpkit.prefixes', 'hrpkit.routing']",
    ]


def test_plan_evaluation_error_is_a_value_error(tmp_path, capsys):
    assert issubclass(hrpkit.PlanEvaluationError, ValueError)
    scan = tmp_path / "scan.txt"
    scan.write_text("0.0.5.1\n0.0.5.2\n", encoding="utf-8")
    plan = tmp_path / "plan.csv"
    assert main(["plan", "--port", "443", "--output", str(plan), "--summary", str(tmp_path / "s.json"),
                 str(scan)]) == 0
    truth = tmp_path / "truth.csv"
    truth.write_text("ip,port,proto,status,identifier\n0.0.5.2,443,tcp,success,x\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["evaluate", str(plan), str(truth)]) == 2
    assert capsys.readouterr().err == (
        f"hrpkit evaluate: {truth}: 1 planned targets missing from ground truth, first: 0.0.5.1\n"
    )


# --- the modules a subcommand loads ------------------------------------------------

# Loaded by every subcommand: the package, the CLI and what it imports at its top.
CORE = {"hrpkit", "hrpkit.cli", "hrpkit.fmt", "hrpkit.ingest", "hrpkit.prefixes"}

# command -> (argv over the files of `inputs`, the modules it loads besides CORE). The commands that
# read a scan or a plan load scans; enrich, portmatrix, stability and vantage must not.
COMMANDS = {
    "detect": (["--port", "443", "--output", "out", "--summary", "sum", "scan"], {"scans"}),
    "enrich": (["--output", "out", "--summary", "sum", "stats", "routes"], {"routing"}),
    "portmatrix": (["--output", "out", "stats", "stats80"], {"analytics", "routing"}),
    "stability": (["--output", "out", "stats", "stats2"], {"analytics"}),
    "vantage": (["--output", "out", "stats", "stats2"], {"analytics"}),
    "applayer": (["--port", "443", "--output", "out", "results", "scan"], {"scans", "applayer"}),
    "plan": (["--port", "443", "--output", "out", "--summary", "sum", "scan"], {"scans", "planner", "applayer"}),
    "escalate": (["--port", "443", "--output", "out", "--summary", "sum", "plan", "results", "scan"],
                 {"scans", "planner", "applayer"}),
    "evaluate": (["--output", "out", "plan", "results"], {"scans", "planner", "applayer"}),
}

RUN_AND_LIST = """\
import sys
from hrpkit.cli import main
code = main(sys.argv[1:])
print(code, *sorted(sys.modules))
"""


def _run_and_list(folder: Path, command: str, *flags: str) -> set[str]:
    """Run the command in a fresh interpreter with these flags, which must exit 0: every module it loaded."""
    env = {**os.environ, "PYTHONPATH": str(Path(hrpkit.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", RUN_AND_LIST, command, *COMMANDS[command][0]],
        cwd=folder, env=env, capture_output=True, text=True, check=False,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    assert code == "0", proc.stderr
    return set(modules)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """One minimal valid file of each kind a command reads, for tcp/443 but stats80."""
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "scan").write_text("0.0.5.1\n", encoding="utf-8")
    (folder / "routes").write_text("0.0.0.0/8,64500\n", encoding="utf-8")
    (folder / "results").write_text("ip,port,proto,status,identifier\n0.0.5.1,443,tcp,success,x\n",
                                    encoding="utf-8")
    for stats, port in (("stats", "443"), ("stats2", "443"), ("stats80", "80")):
        assert main(["detect", "--port", port, "--output", str(folder / stats),
                     "--summary", str(folder / "sum"), str(folder / "scan")]) == 0
    assert main(["plan", "--port", "443", "--output", str(folder / "plan"),
                 "--summary", str(folder / "sum"), str(folder / "scan")]) == 0
    return folder


# Standard library modules no command needs, each a cost on every start: addresses are parsed
# with _socket, since socket pulls in selectors, rates compare with cutoffs in integers, and
# records are named tuples and plain classes, since dataclasses pulls in inspect.
UNUSED = {"socket", "selectors", "fractions", "decimal", "_decimal", "_pydecimal", "dataclasses", "inspect"}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_subcommand_loads_only_the_modules_it_runs(inputs, command):
    modules = _run_and_list(inputs, command)
    hrpkit_modules = {name for name in modules if name.partition(".")[0] == "hrpkit"}
    assert hrpkit_modules == CORE | {f"hrpkit.{name}" for name in COMMANDS[command][1]}
    assert not modules & UNUSED


@pytest.mark.parametrize("command", ["detect", "enrich", "portmatrix", "stability", "vantage"])
def test_a_subcommand_without_sampling_rates_loads_neither_fractions_nor_decimal(inputs, command):
    modules = _run_and_list(inputs, command)
    assert not modules & {"fractions", "decimal", "_decimal", "_pydecimal"}


# -S: no site hook, such as a .pth file that loads pathlib, hides what the command loads itself.
@pytest.mark.parametrize("command", COMMANDS)
def test_a_subcommand_loads_no_json_or_pathlib_and_only_stability_loads_datetime(inputs, command):
    modules = _run_and_list(inputs, command, "-S")
    assert not modules & {"json", "pathlib"}
    if command != "stability":
        assert not modules & {"datetime", "_datetime"}


# -X importtime lists every module imported. Under ``python -m hrpkit.cli`` the CLI runs as __main__ and
# is imported by no name; scans, importing it, finds it registered under its own, so it is compiled once.
@pytest.mark.parametrize("command", COMMANDS)
def test_the_process_entry_compiles_the_cli_once(inputs, command):
    env = {**os.environ, "PYTHONPATH": str(Path(hrpkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "hrpkit.cli", command, *COMMANDS[command][0]],
                          cwd=inputs, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    assert "hrpkit" in imported and "hrpkit.cli" not in imported
    assert ("hrpkit.scans" in imported) == ("scans" in COMMANDS[command][1])


# --- the process entry ----------------------------------------------------------------


def test_main_in_process_leaves_the_collector_unfrozen(inputs, tmp_path):
    argv = ["detect", "--port", "443", "--output", str(tmp_path / "out"), "--summary", str(tmp_path / "sum")]
    assert main([*argv, str(inputs / "scan")]) == 0
    assert main([*argv, str(tmp_path / "missing")]) == 4
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, code", [
    (["--port", "443", "--output", "out", "--summary", "sum", "scan"], 0),
    (["--port", "x", "scan"], 2),
    (["--port", "443", "--policy", "strict", "--output", "out", "--summary", "sum", "bad"], 3),
    (["--port", "443", "--output", "out", "--summary", "sum", "missing"], 4),
])
def test_the_process_entry_exits_with_mains_code(inputs, tmp_path, monkeypatch, argv, code):
    (tmp_path / "scan").write_bytes((inputs / "scan").read_bytes())
    (tmp_path / "bad").write_text("0.0.5.1\nbad\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(hrpkit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-m", "hrpkit.cli", "detect", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == code, proc.stderr
    monkeypatch.chdir(tmp_path)
    assert main(["detect", *argv]) == code
