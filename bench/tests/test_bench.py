"""Tests of the benchmark itself: generator, checks, tracing and the metric contract.

Run from the repository root: python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = 0.02


def files_of(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    first = files_of(_generated(tmp_path / "a", workload, 7))
    assert first == files_of(_generated(tmp_path / "b", workload, 7))
    other = files_of(_generated(tmp_path / "c", workload, 8))
    assert first.keys() == other.keys()
    assert first != other


def _generated(directory: Path, workload: str, seed: int) -> Path:
    corpus.generate(workload, seed, TINY, directory)
    return directory


@pytest.fixture
def detect_run(tmp_path):
    truth = corpus.generate("detect_sharded", 5, TINY, tmp_path / "corpus")
    (tmp_path / "out").mkdir()
    [step] = run.detect_sharded_steps("corpus", "out")
    with run.ChildRunner(tmp_path, kill_at=time.perf_counter() + 120) as runner:
        yield run.Checker(tmp_path), step, truth["expect"], runner


def test_planted_counts_match_detect_summary(tmp_path, detect_run):
    checker, step, expect, runner = detect_run
    code, wall, rss, ref = runner.run(step)
    assert code == 0 and wall > 0 and ref > 0
    assert rss < 64  # the child's own peak, not the harness's
    summary = json.loads((tmp_path / "out" / "detect.json").read_text())
    assert run.mismatches(expect["detect.json"], summary, "detect.json") == []
    planted = json.loads((tmp_path / "corpus" / "truth.json").read_text())
    assert summary["prefixes"] == planted["prefixes"]
    assert summary["hrp_prefixes"] == planted["hrp_prefixes"]
    assert summary["distinct_addresses"] == planted["distinct_addresses"]


def test_corrupted_output_counts_as_failed(tmp_path, detect_run):
    checker, step, expect, runner = detect_run
    reference: dict[str, str] = {}
    code, *_ = runner.run(step)
    checker.check(step, code, expect, reference)
    assert (checker.attempted, checker.failed) == (1, 0)

    stats = tmp_path / "out" / "stats.csv"
    stats.write_bytes(stats.read_bytes().replace(b",true,", b",false,", 1))
    checker.check(step, code, expect, reference)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "stats.csv: sha256" in checker.errors[-1]

    runner.run(step)
    summary = tmp_path / "out" / "detect.json"
    doc = json.loads(summary.read_text())
    doc["hrp_prefixes"] += 1
    summary.write_text(json.dumps(doc))
    checker.check(step, 0, expect, {})  # fresh reference: the planted truth alone catches it
    assert (checker.attempted, checker.failed) == (3, 2)
    assert any("detect.json.hrp_prefixes" in e for e in checker.errors)

    checker.check(step, 3, {}, {})
    assert checker.failed == 3


def test_self_times_account_for_the_total():
    tracer = spans.Tracer()
    with tracer.span("command.plan"):
        with tracer.span("planner.build"):
            with tracer.span("prefixes.expand"):
                sum(range(10000))
            sum(range(10000))
        with tracer.span("planner.write_csv"):
            sum(range(10000))
    with tracer.span("command.evaluate"):
        with tracer.span("planner.evaluate"):
            sum(range(10000))
    self_times = tracer.self_times()
    assert all(t >= 0 for t in self_times.values())
    assert sum(self_times.values()) == pytest.approx(tracer.total(), rel=1e-9)
    metrics = tracer.layer_metrics()
    layers = sum(metrics[f"{name}_s"] for name in spans.LAYER_SPANS)
    assert layers + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.total_s"], rel=1e-9)
    assert metrics["ingest.parse_s"] == 0 and metrics["ingest.lines_per_s"] == 0


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


ABSENT_SPANS = {  # fmt.render_json is timed on the applayer report only
    "detect_sharded": ("planner.", "routing.", "analytics.", "fmt."),
    "enrich_analyze": ("planner.", "ingest.parse", "fmt."),
    "plan_cycle": ("routing.", "analytics."),
}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_emitted_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    details, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, details["errors"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if trace:
        assert not [s for s in details["spans"] if s.startswith(ABSENT_SPANS[workload])]
        assert ("fmt.render_json" in details["spans"]) == (workload == "plan_cycle")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_names_and_units_match_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench("detect_sharded", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
    assert sorted(os.listdir(tmp_path)) == ["BENCHMARK.json", "bench"]
