"""hrpkit benchmark: one workload, end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is ``src/hrpkit``, run as
``python -m hrpkit.cli <command>``, one child process at a time. A run
generates the workload's corpus from the seed (untimed, see corpus.py), then
repeats until the seconds are spent: the workload's commands on minimal
inputs (set-up), then its whole command sequence on the corpus. Children
are started by spawner.py, a fresh interpreter, which reads each child's
wall time and peak RSS from ``os.wait4`` on that child's pid.

Every output is checked after every command: exit code 0, JSON counts equal
to the planted truth, and bytes equal to the first iteration's (and, for the
default seed and scale, to ``digests.json``). An invocation that fails a
check counts in ``failed``; ``failed / attempted`` is the failed-operation
share.

Times are relative to a reference job. On the shared 2-CPU reference box
the host's speed swings up to 2x in phases of seconds to minutes, on each
CPU separately (a fixed pure-Python loop took 33-70 ms within one minute),
so raw seconds follow the phase a run fell in. Right before and after
every child the harness times a fixed pure-Python job (``reference_job``)
and divides: in six 40-second detect_sharded runs the quartile spread of the
median raw sequence time was 0.25 and that of the ratio 0.06. Nothing is
pinned to a CPU, so a command that uses both CPUs shows its gain.

With ``--trace 0`` the last line reports ``wall_ref``, the command sequence
in reference jobs (per step the median over iterations of wall time over
reference time, summed over steps); ``input_lines_per_ref``, the lines of
every input the commands read over ``wall_ref``; ``peak_rss_mb``, the median
over iterations of the largest child; and ``setup_s``, the median of one
command on minimal inputs in reference jobs, times ``REFERENCE_S``: set-up
seconds at the reference box's usual speed. On plan_cycle the median of ten
runs' raw set-up seconds moved 37% between two sets an hour apart; in eight
runs the quartile spread of raw set-up seconds was 0.15 and that of the
scaled ones 0.08. The line before it holds the raw medians ``wall_s``,
``setup_wall_s`` and ``reference_s``, the plan reduction and identifier
coverage (plan_cycle), the output digests and the first errors.

With ``--trace 1`` half of the time goes to the same child runs, which give
the per-command ``cli.*`` metrics in seconds, and the rest to traced passes
in this process (see spans.py); the pass with the median total gives the
per-layer metrics, so its self times and remainder add up to its total.
Everything is written under ``.bench_work/`` and removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import ExitStack, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpus
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 1
DEFAULT_SCALE = 1.0
RUN_LIMIT_S = 170  # a child still running this long after the start is killed
SETUP_SAMPLES = 9  # minimum set-up invocations per run

E2E_METRICS = {"wall_ref": "ref", "input_lines_per_ref": "1/ref", "peak_rss_mb": "MB", "setup_s": "s"}
REFERENCE_ENTRIES = 40000  # size of the reference job; about 10-25 ms on the reference box
REFERENCE_S = 0.0125  # the reference job's usual seconds on the reference box; scales setup_s

COMMANDS = ("detect", "plan", "escalate", "applayer", "evaluate",
            "enrich", "portmatrix", "stability", "vantage")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {f"{name}_s": "s" for name in spans.LAYER_SPANS}
    units.update({name: "1/s" for name in spans.RATES})
    units.update({name: "count" for name in spans.COUNTS})
    for command in COMMANDS:
        units[f"cli.{command}.wall_s"] = "s"
        units[f"cli.{command}.peak_rss_mb"] = "MB"
    units.update({"trace.total_s": "s", "trace.remainder_s": "s", "trace.overhead_s": "s"})
    return units


# --- workloads -------------------------------------------------------------


@dataclass
class Step:
    """One CLI invocation; paths are relative to the run directory."""

    command: str
    args: list[str]
    inputs: list[str]
    outputs: list[str]
    before: Callable[[Path], None] | None = None  # untimed preparation


def simulate_probes(targets: str, truth: str, probes: str) -> Callable[[Path], None]:
    """Write the truth rows of exactly the planned targets, as a prober would."""

    def simulate(run_dir: Path) -> None:
        if not (run_dir / targets).is_file():
            return  # plan failed; escalate fails on the missing file and counts
        with open(run_dir / truth, encoding="utf-8") as source:
            header = next(source)
            rows = {line.split(",", 1)[0]: line for line in source}
        with open(run_dir / targets, encoding="utf-8") as source, \
                open(run_dir / probes, "w", encoding="utf-8") as out:
            out.write(header)
            out.writelines(rows[t.strip()] for t in source if t.strip() in rows)

    return simulate


def detect_sharded_steps(c: str, o: str) -> list[Step]:
    shards = [f"{c}/scan-{i}.txt" for i in range(1, corpus.SHARDS + 1)]
    return [
        Step("detect", ["--port", "443", "--policy", "lenient", "--output", f"{o}/stats.csv",
                        "--summary", f"{o}/detect.json", *shards],
             shards, [f"{o}/stats.csv", f"{o}/detect.json"]),
    ]


def plan_cycle_steps(c: str, o: str) -> list[Step]:
    scan, seeds, truth = f"{c}/scan.csv", f"{c}/seeds.csv", f"{c}/truth.csv"
    meta = ["--port", "443", "--format", "csv_saddr"]
    return [
        Step("plan", [*meta, "--no-unresponsive-seeds", "--output", f"{o}/plan.csv",
                      "--summary", f"{o}/plan.json", "--targets-out", f"{o}/targets.txt", scan, seeds],
             [scan, seeds], [f"{o}/plan.csv", f"{o}/plan.json", f"{o}/targets.txt"]),
        Step("escalate", [*meta, "--output", f"{o}/escalated.csv", "--summary", f"{o}/escalate.json",
                          f"{o}/plan.csv", f"{o}/probes.csv", scan],
             [f"{o}/plan.csv", f"{o}/probes.csv", scan], [f"{o}/escalated.csv", f"{o}/escalate.json"],
             before=simulate_probes(f"{o}/targets.txt", truth, f"{o}/probes.csv")),
        Step("applayer", [*meta, "--output", f"{o}/applayer.json", truth, scan],
             [truth, scan], [f"{o}/applayer.json"]),
        Step("evaluate", ["--output", f"{o}/evaluate.json", f"{o}/escalated.csv", truth],
             [f"{o}/escalated.csv", truth], [f"{o}/evaluate.json"]),
    ]


def enrich_analyze_steps(c: str, o: str) -> list[Step]:
    ports = (80, 443, 8080)
    weeks = [f"{c}/week{w}.csv" for w in range(1, 7)]
    enriched = [f"{o}/enriched{p}.csv" for p in ports]
    steps = [
        Step("enrich", ["--output", f"{o}/enriched{p}.csv", "--summary", f"{o}/enrich{p}.json",
                        f"{c}/port{p}.csv", f"{c}/rib.csv"],
             [f"{c}/port{p}.csv", f"{c}/rib.csv"], [f"{o}/enriched{p}.csv", f"{o}/enrich{p}.json"])
        for p in ports
    ]
    steps += [
        Step("portmatrix", ["--as-summary", f"{o}/as.json", "--histogram-csv", f"{o}/histogram.csv",
                            "--profiles-csv", f"{o}/profiles.csv", "--output", f"{o}/portmatrix.json",
                            *enriched],
             enriched, [f"{o}/as.json", f"{o}/histogram.csv", f"{o}/profiles.csv", f"{o}/portmatrix.json"]),
        Step("stability", ["--persistence-n", "2", "--series-csv", f"{o}/series.csv",
                           "--output", f"{o}/stability.json", *weeks],
             weeks, [f"{o}/series.csv", f"{o}/stability.json"]),
        Step("vantage", ["--output", f"{o}/vantage.json", weeks[4], weeks[5]],
             weeks[4:], [f"{o}/vantage.json"]),
    ]
    return steps


WORKLOADS = {
    "detect_sharded": detect_sharded_steps,
    "plan_cycle": plan_cycle_steps,
    "enrich_analyze": enrich_analyze_steps,
}


def write_minimal_corpus(workload: str, out: Path) -> None:
    """Empty or header-only inputs, with one row where a command needs one."""
    out.mkdir(parents=True)
    files: dict[str, str] = {}
    if workload == "detect_sharded":
        files = {f"scan-{i}.txt": "" for i in range(1, corpus.SHARDS + 1)}
    elif workload == "plan_cycle":
        files = {"scan.csv": corpus.SCAN_HEADER, "seeds.csv": corpus.SEEDS_HEADER,
                 "truth.csv": corpus.RESULTS_HEADER}
    elif workload == "enrich_analyze":
        one_row = {0x010203: 10}
        files = {"rib.csv": "0.0.0.0/0,64500\n"}
        files.update({f"port{p}.csv": corpus.stats_csv(one_row, p) for p in (80, 443, 8080)})
        files.update({f"week{w}.csv": corpus.stats_csv(one_row, 443) for w in range(1, 7)})
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")


# --- checks ----------------------------------------------------------------


def mismatches(expected, actual, where: str) -> list[str]:
    """Where `actual` differs from the `expected` subset; reals compare at six digits."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object, got {actual!r}"]
        return [m for key, value in expected.items() for m in mismatches(value, actual.get(key), f"{where}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected {len(expected)} items, got {actual!r}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in mismatches(e, a, f"{where}[{i}]")]
    if isinstance(expected, float):
        ok = isinstance(actual, (int, float)) and f"{actual:.6f}" == f"{expected:.6f}"
    else:
        ok = type(actual) is type(expected) and actual == expected
    return [] if ok else [f"{where}: expected {expected!r}, got {actual!r}"]


@dataclass
class Checker:
    """Counts invocations and failed ones; a failure is a non-zero exit or a failed check."""

    run_dir: Path
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, step: Step, exit_code: int, expect: dict, reference: dict[str, str]) -> None:
        """Check one invocation's outputs.

        reference maps output names to SHA-256 digests; an output not in it
        yet is added, so later invocations must reproduce the first.
        """
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        for rel in step.outputs:
            path = self.run_dir / rel
            name = path.name
            if not path.is_file():
                problems.append(f"{name}: missing")
                continue
            data = path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if reference.setdefault(name, digest) != digest:
                problems.append(f"{name}: sha256 {digest} differs from reference {reference[name]}")
            if name in expect:
                try:
                    problems += mismatches(expect[name], json.loads(data), name)
                except ValueError as exc:
                    problems.append(f"{name}: not JSON: {exc}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors += [f"{step.command}: {p}" for p in problems]


# --- child runs --------------------------------------------------------------


class ChildRunner:
    """Runs one CLI child at a time through spawner.py and reads its cost.

    Use as a context manager: the spawner process stops on exit.
    """

    def __init__(self, run_dir: Path, kill_at: float):
        self.run_dir = run_dir
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), path] if path else [str(SRC)])}
        self._spawner = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py"), str(run_dir), str(kill_at - time.perf_counter())],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "ChildRunner":
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def run(self, step: Step) -> tuple[int, float, float, float]:
        """(exit code, wall seconds, peak RSS in MB, reference seconds) of one invocation.

        The reference time is the mean of the reference job's runs right
        before and right after the child.
        """
        log = self.run_dir / "child.log"
        before = reference_job()
        request = {"argv": [sys.executable, "-m", "hrpkit.cli", step.command, *step.args], "log": str(log)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = json.loads(self._spawner.stdout.readline())
        after = reference_job()
        if reply["code"] != 0:
            sys.stderr.write(f"{step.command} exited {reply['code']}:\n{log.read_text(errors='replace')[-2000:]}\n")
        return reply["code"], reply["wall_s"], reply["maxrss_kib"] / 1024, (before + after) / 2  # KiB on Linux


def reference_job() -> float:
    """Seconds to build a str -> int dict of REFERENCE_ENTRIES entries."""
    start = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ENTRIES):
        table[str(i)] = i * i
    return time.perf_counter() - start


def count_lines(path: Path) -> int:
    if not path.is_file():
        return 0
    data = path.read_bytes()
    return data.count(b"\n") + (1 if data and not data.endswith(b"\n") else 0)


@dataclass
class Iteration:
    """One pass over a workload's steps: (command, wall s, peak RSS MB, reference s) per invocation."""

    invocations: list[tuple[str, float, float, float]] = field(default_factory=list)
    input_lines: int = 0

    def peak_rss_mb(self, command: str | None = None) -> float:
        return max((r for c, _, r, _ in self.invocations if command in (None, c)), default=0.0)


def run_iteration(steps, runner: ChildRunner, checker: Checker, expect: dict, reference: dict) -> Iteration:
    it = Iteration()
    for step in steps:
        if step.before:
            step.before(runner.run_dir)
        it.input_lines += sum(count_lines(runner.run_dir / p) for p in step.inputs)
        code, wall, rss, ref = runner.run(step)
        checker.check(step, code, expect, reference)
        it.invocations.append((step.command, wall, rss, ref))
    return it


def traced_pass(steps, run_dir: Path, checker: Checker, expect: dict, reference: dict) -> spans.Tracer:
    """The command sequence in this process, with every public module call traced."""
    from hrpkit import cli

    tracer = spans.Tracer()
    gc.collect()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with spans.instrumented(tracer), redirect_stdout(sys.stderr):
            for step in steps:
                if step.before:
                    step.before(run_dir)
                with tracer.span(spans.COMMAND_PREFIX + step.command):
                    try:
                        code = cli.main([step.command, *step.args])
                    except Exception:  # a crash fails this invocation, as it would a child
                        traceback.print_exc()
                        code = 1
                checker.check(step, code, expect, reference)
    finally:
        os.chdir(cwd)
    return tracer


def recorded_digests(workload: str, seed: int, scale: float) -> dict[str, str]:
    if seed != DEFAULT_SEED or scale != DEFAULT_SCALE or not DIGESTS.is_file():
        return {}
    return dict(json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}))


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details line)."""
    start = time.perf_counter()
    run_dir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    stack = ExitStack()
    try:
        truth = corpus.generate(workload, seed, scale, run_dir / "corpus")
        write_minimal_corpus(workload, run_dir / "setup")
        (run_dir / "out").mkdir()
        (run_dir / "setup_out").mkdir()
        checker = Checker(run_dir)
        runner = stack.enter_context(ChildRunner(run_dir, start + RUN_LIMIT_S))

        setup_steps = WORKLOADS[workload]("setup", "setup_out")
        steps = WORKLOADS[workload]("corpus", "out")
        expect = truth["expect"]
        reference = recorded_digests(workload, seed, scale)
        setup_reference: dict[str, str] = {}
        setup_walls: list[float] = []
        setup_refs: list[float] = []
        measure_start = time.perf_counter()
        children_until = measure_start + (seconds / 2 if trace else seconds)
        iterations, elapsed = [], []
        while True:
            began = time.perf_counter()
            # Set-up samples are spread over the run, one minimal sequence per iteration.
            setup = run_iteration(setup_steps, runner, checker, {}, setup_reference)
            setup_walls += [wall for _, wall, _, _ in setup.invocations]
            setup_refs += [wall / ref for _, wall, _, ref in setup.invocations]
            iterations.append(run_iteration(steps, runner, checker, expect, reference))
            elapsed.append(time.perf_counter() - began)
            enough_setup = len(setup_walls) >= SETUP_SAMPLES
            if enough_setup and time.perf_counter() + statistics.median(elapsed) > children_until:
                break

        # Medians per step over the iterations; a command's time sums its steps.
        command_wall: dict[str, float] = {}
        wall_ref = 0.0
        for i, (command, *_) in enumerate(iterations[0].invocations):
            runs = [it.invocations[i] for it in iterations]
            command_wall[command] = command_wall.get(command, 0.0) + statistics.median(r[1] for r in runs)
            wall_ref += statistics.median(r[1] / r[3] for r in runs)
        wall = sum(command_wall.values())
        details = {"workload": workload, "seed": seed, "scale": scale, "iterations": len(iterations),
                   "wall_s": wall, "setup_wall_s": statistics.median(setup_walls),
                   "reference_s": statistics.median(r for it in iterations for *_, r in it.invocations)}
        if "plan_reduction" in truth and not checker.failed:
            doc = json.loads((run_dir / "out" / "evaluate.json").read_text(encoding="utf-8"))
            details["plan_reduction"] = doc["reduction"]
            details["identifier_coverage"] = doc["identifier_coverage"]

        if trace:
            sys.path.insert(0, str(SRC))
            passes = []
            while True:
                began = time.perf_counter()
                passes.append(traced_pass(steps, run_dir, checker, expect, reference))
                now = time.perf_counter()
                if now + (now - began) > measure_start + seconds:
                    break
            values = sorted(passes, key=spans.Tracer.total)[(len(passes) - 1) // 2].layer_metrics()
            for c in COMMANDS:
                values[f"cli.{c}.wall_s"] = command_wall.get(c, 0.0)
                values[f"cli.{c}.peak_rss_mb"] = statistics.median(it.peak_rss_mb(c) for it in iterations)
            values["trace.overhead_s"] = values["trace.total_s"] - wall
            units = layer_metric_units()
            details.update(traced_passes=len(passes), spans=sorted(set().union(*(t.names() for t in passes))))
        else:
            values = {
                "wall_ref": wall_ref,
                "input_lines_per_ref": statistics.median(it.input_lines for it in iterations) / wall_ref,
                "peak_rss_mb": statistics.median(it.peak_rss_mb() for it in iterations),
                "setup_s": statistics.median(setup_refs) * REFERENCE_S,
            }
            units = E2E_METRICS
        details.update(digests=reference, errors=checker.errors[:20])
    finally:
        stack.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hrpkit benchmark: one workload, one seed.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="corpus size factor (tests use small ones)")
    args = parser.parse_args(argv)
    if not (SRC / "hrpkit" / "cli.py").is_file():
        print(f"bench: no hrpkit sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
