"""Run every workload over several seeds and report each metric's median and spread.

    python3 bench/baseline.py [--write]

Run from the repository root. Each workload runs once per seed in SEEDS (1
to 10) with tracing off, then with tracing on for the first TRACE_RUNS (3)
seeds. For every metric this prints the median, the quartiles and the spread
(quartile distance over median); an end-to-end spread at or above a third of
its bound in ``BENCHMARK.json`` is marked. Every run also checks its
outputs, and any failure is reported. ``--write`` stores the figures with
the environment in ``bench/BASELINE.json``, and the default seed's output
digests in ``bench/digests.json`` when that file does not exist yet.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (the sibling module, not a package)

SEEDS = range(1, 11)
TRACE_RUNS = 3

# Which end-to-end metric each per-layer metric should move, on which workload.
MOVES = (
    ("ingest.", "wall_s on detect_sharded and plan_cycle"),
    ("prefixes.expand_s", "wall_s on plan_cycle"),
    ("prefixes.read_stats", "wall_s on enrich_analyze"),
    ("prefixes.", "wall_s and peak_rss_mb on detect_sharded"),
    ("routing.", "wall_s on enrich_analyze"),
    ("analytics.", "wall_s on enrich_analyze"),
    ("applayer.", "wall_s and peak_rss_mb on plan_cycle"),
    ("planner.", "wall_s and peak_rss_mb on plan_cycle"),
    ("fmt.", "wall_s on plan_cycle"),
    ("trace.", "none: accounting of the traced run against the untraced one"),
)


def moves(metric: str) -> str:
    if metric.startswith("cli."):
        _, command, e2e = metric.split(".")
        workload = next(name for name, steps in run.WORKLOADS.items()
                        if command in {step.command for step in steps("", "")})
        return f"{e2e} on {workload}"
    return next(effect for prefix, effect in MOVES if metric.startswith(prefix))


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: (details line with the run's duration added, result line)."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    details, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    details["run_s"] = time.perf_counter() - start
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser(description="Median and spread of every metric over seeds.")
    parser.add_argument("--write", action="store_true", help="write BASELINE.json (and digests.json)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    baseline: dict = {
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    digests = None
    failures = 0
    for workload in run.WORKLOADS:
        entry: dict = {"why": why[workload]}
        runs = []
        for seed in SEEDS:
            details, result = bench_once(workload, seed, seconds, 0)
            runs.append(result)
            failures += result["failed"] + (not result["correct"])
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} iterations={details['iterations']} run_s={details['run_s']:.1f} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for error in details["errors"]:
                print(f"  {error}")
            if "plan_reduction" in details:
                entry.setdefault("plan_reduction", {})[str(seed)] = details["plan_reduction"]
                entry["identifier_coverage"] = details["identifier_coverage"]
            if seed == run.DEFAULT_SEED and result["correct"]:
                digests = {**(digests or {}), workload: details["digests"]}
        entry["end_to_end"] = {}
        for name, unit in run.E2E_METRICS.items():
            stats = quartiles([r["metrics"][name]["value"] for r in runs])
            flag = " <-- spread at or above a third of the bound" if stats["spread"] >= bounds[name] / 3 else ""
            print(f"  {workload} {name}: median {stats['median']:.6g} {unit}, "
                  f"spread {stats['spread']:.3f} (bound {bounds[name]}){flag}")
            entry["end_to_end"][name] = {"unit": unit, **stats}
        traced = []
        for seed in SEEDS[:TRACE_RUNS]:
            details, result = bench_once(workload, seed, seconds, 1)
            traced.append(result)
            failures += result["failed"] + (not result["correct"])
            print(f"{workload} seed {seed} traced: correct={result['correct']} spans={','.join(details['spans'])}",
                  flush=True)
        entry["per_layer"] = {}
        for name, unit in (run.layer_metric_units().items() if traced else ()):
            median = statistics.median(r["metrics"][name]["value"] for r in traced)
            print(f"  {workload} {name}: {median:.6g} {unit}")
            entry["per_layer"][name] = {"unit": unit, "median": median, "moves": moves(name)}
        baseline["workloads"][workload] = entry
    print(f"failures: {failures}")
    if args.write:
        (BENCH / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        if digests and not run.DIGESTS.is_file():
            run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
