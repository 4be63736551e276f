"""applayer, escalate and evaluate read their two inputs side by side: one in a forked worker (the
scan, or evaluate's plan) while this process reads the other. Against the serial order: the same
output bytes, exit code and stderr, the error the serial order raises first, no worker left
behind, and this process's own CPU mask untouched."""

from __future__ import annotations

import contextlib
import itertools
import marshal
import os
import time
from pathlib import Path
from unittest import mock

import pytest

from hrpkit import cli, forks, scans

from conftest import cycle_argv, no_worker_left, run_with_cpus


def _forks(folder: Path, argv: list[str], **options):
    """The command on two usable CPUs, and the number of workers it forked."""
    with mock.patch.object(os, "fork", wraps=os.fork) as fork:
        result = run_with_cpus(folder, argv, 2, **options)
    return result, fork.call_count


def _append(path: str, line: str) -> None:
    with open(path, "a", encoding="utf-8") as table:
        table.write(line)


_BAD_LINES = {
    "scan": "junk\n",  # an error under --policy strict only
    "truth": "10.0.0.1,443,tcp,bogus,x\n",
    "plan": "10.0.9.1,10.0.9.0/24,bogus,dns_seed\n",
}
# The serial order: applayer reads the scan, then the results; escalate the plan, the results and
# then the scan; evaluate the plan, then the truth file.
_FIRST = {"applayer": ("scan", "truth"), "escalate": ("plan", "truth", "scan"), "evaluate": ("plan", "truth")}


@pytest.mark.parametrize("command, bad", [
    (command, bad) for command, inputs in _FIRST.items()
    for n in range(1, len(inputs) + 1) for bad in itertools.combinations(inputs, n)
])
def test_a_bad_file_on_either_side_gives_the_serial_orders_first_error(tmp_path, cycle, command, bad):
    for name in bad:
        _append(cycle[name], _BAD_LINES[name])
    argv = cycle_argv(command, cycle, "--policy", "strict") if command != "evaluate" else cycle_argv(command, cycle)
    serial = run_with_cpus(tmp_path, argv, 1)
    first = next(name for name in _FIRST[command] if name in bad)
    assert serial[0] == (3 if first == "scan" else 2)
    assert serial[1].startswith(f"hrpkit {command}: {cycle[first]}: line "), serial[1]
    assert serial[2] == {}
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command", sorted(_FIRST))
def test_the_outputs_are_the_serial_orders(tmp_path, cycle, command):
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    assert serial[:2] == (0, "") and serial[2]
    assert _forks(tmp_path, cycle_argv(command, cycle)) == (serial, 1)


def test_escalate_classes_a_prefix_diverse(tmp_path, cycle):
    code, _, files = run_with_cpus(tmp_path, cycle_argv("escalate", cycle), 2)
    assert code == 0 and b'"diverse": 1' in files["escalate.json"]


@pytest.mark.parametrize("command", ["applayer", "escalate"])
def test_a_strict_scan_error_names_its_line(tmp_path, cycle, command):
    _append(cycle["scan"], "junk\n")
    argv = cycle_argv(command, cycle, "--policy", "strict")
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial == (3, f"hrpkit {command}: {cycle['scan']}: line 726: invalid address line: 'junk'\n", {})
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command", ["applayer", "escalate"])
def test_results_of_another_port_and_a_bad_scan(tmp_path, cycle, command):
    _append(cycle["scan"], "junk\n")
    truth = Path(cycle["truth"])
    truth.write_text(truth.read_text(encoding="utf-8").replace(",443,tcp,", ",80,tcp,"), encoding="utf-8")
    argv = cycle_argv(command, cycle, "--policy", "strict")
    serial = run_with_cpus(tmp_path, argv, 1)
    # The port check follows the results read: in applayer after the scan, in escalate before it.
    assert serial[0] == (3 if command == "applayer" else 2), serial
    assert _forks(tmp_path, argv) == (serial, 1)


@pytest.mark.parametrize("command, missing", [
    ("applayer", "truth"), ("escalate", "plan"), ("escalate", "truth"), ("evaluate", "truth"),
])
def test_a_missing_input_here_exits_4_as_in_the_serial_order(tmp_path, cycle, command, missing):
    os.remove(cycle[missing])
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    assert serial == (4, f"hrpkit {command}: [Errno 2] No such file or directory: '{cycle[missing]}'\n", {})
    assert _forks(tmp_path, cycle_argv(command, cycle)) == (serial, 1)


@pytest.mark.parametrize("command, missing", [("applayer", "scan"), ("escalate", "scan"), ("evaluate", "plan")])
def test_a_missing_input_for_the_worker_is_read_here(tmp_path, cycle, command, missing):
    os.remove(cycle[missing])
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    assert serial == (4, f"hrpkit {command}: [Errno 2] No such file or directory: '{cycle[missing]}'\n", {})
    assert _forks(tmp_path, cycle_argv(command, cycle)) == (serial, 0)


@pytest.mark.parametrize("command", sorted(_FIRST))
def test_a_worker_that_dies_without_a_reply_has_its_input_read_here(tmp_path, cycle, command):
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    broken = mock.Mock(loads=marshal.loads, dumps=mock.Mock(side_effect=RuntimeError("no reply")))
    with mock.patch.object(forks, "marshal", broken):  # only a worker calls dumps
        assert _forks(tmp_path, cycle_argv(command, cycle)) == (serial, 1)
    assert broken.dumps.call_count == 0


@contextlib.contextmanager
def _stdin(path: str):
    """File descriptor 0 reading the file, as for an input named '-'."""
    saved = os.dup(0)
    with open(path, "rb") as source:
        os.dup2(source.fileno(), 0)
    try:
        yield
    finally:
        os.dup2(saved, 0)
        os.close(saved)


@pytest.mark.parametrize("command, piped", [("applayer", "scan"), ("escalate", "scan"), ("evaluate", "plan")])
def test_a_stdin_input_for_the_worker_is_read_here_without_a_fork(tmp_path, cycle, command, piped, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("-").write_text("a regular file named like stdin\n", encoding="utf-8")
    argv = [arg if arg != cycle[piped] else "-" for arg in cycle_argv(command, cycle)]
    with _stdin(cycle[piped]):
        serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    with _stdin(cycle[piped]), mock.patch.object(os, "fork", side_effect=AssertionError("forked")):
        assert run_with_cpus(tmp_path, argv, 2) == serial


@pytest.mark.parametrize("command", sorted(_FIRST))
def test_inputs_too_small_to_pay_for_a_fork_are_read_here(tmp_path, cycle, command):
    worker_input = cycle["plan" if command == "evaluate" else "scan"]
    assert 0 < os.path.getsize(worker_input) <= cli._FORK_MIN_BYTES
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    assert _forks(tmp_path, cycle_argv(command, cycle), fork_min_bytes=cli._FORK_MIN_BYTES) == (serial, 0)


def test_a_scan_that_is_not_a_regular_file_is_read_here(tmp_path, cycle):
    text = Path(cycle["scan"]).read_text(encoding="utf-8")
    read_end, write_end = os.pipe()
    with open(write_end, "w", encoding="utf-8") as pipe:
        pipe.write(text[:8000])  # within the pipe's buffer
    try:
        serial_paths = {**cycle, "scan": str(tmp_path / "head.txt")}
        Path(serial_paths["scan"]).write_text(text[:8000], encoding="utf-8")
        serial = run_with_cpus(tmp_path, cycle_argv("applayer", serial_paths), 1)
        assert _forks(tmp_path, cycle_argv("applayer", {**cycle, "scan": f"/dev/fd/{read_end}"})) == (serial, 0)
    finally:
        os.close(read_end)


def _shards(folder: Path, scan: str, n: int) -> list[str]:
    """The scan's lines dealt into n shard files."""
    lines = Path(scan).read_text(encoding="utf-8").splitlines(keepends=True)
    paths = [str(folder / f"shard-{i}.txt") for i in range(n)]
    for i, path in enumerate(paths):
        Path(path).write_text("".join(lines[i::n]), encoding="utf-8")
    return paths


@pytest.mark.parametrize("command, bad", [
    (command, bad) for command in ("applayer", "escalate") for bad in (None, "plan", "truth", "scan")
    if (command, bad) != ("applayer", "plan")
])
def test_sharded_scans_are_read_by_the_shard_workers_alone(tmp_path, cycle, command, bad):
    """With shards, the scan is read here with one worker per other shard group, as by detect, and
    not in a worker of its own, whose pin would leave it one CPU for every shard. A failing pin
    leaves no worker behind."""
    shards = _shards(tmp_path, cycle["scan"], 3)
    if bad is not None:
        _append(cycle[bad] if bad != "scan" else shards[2], _BAD_LINES[bad])
    argv = [*cycle_argv(command, cycle, "--policy", "strict")[:-1], *shards]
    serial = run_with_cpus(tmp_path, argv, 1)
    assert serial[0] == (0 if bad is None else 3 if bad == "scan" else 2), serial
    log = tmp_path / "pins.txt"
    with mock.patch.object(os, "fork", wraps=os.fork) as fork, \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}), \
            mock.patch.object(os, "sched_setaffinity", _recording_pins(log)):
        assert run_with_cpus(tmp_path, argv, 3) == serial
    # escalate reads the plan and the results first: their errors come before any fork.
    forks = 0 if command == "escalate" and bad in ("plan", "truth") else 2
    assert fork.call_count == forks
    pins = log.read_text(encoding="utf-8").splitlines() if log.exists() else []
    assert sorted(line.split(" ", 1)[1] for line in pins) == ["[1]", "[2]"][:forks]


# --- placement ---------------------------------------------------------------


def _recording_pins(log: Path):
    """A stand-in for os.sched_setaffinity that logs each call's pid and CPUs, then fails as on a
    host without those CPUs."""

    def pin(pid: int, cpus) -> None:
        with open(log, "a", encoding="utf-8") as out:
            out.write(f"{os.getpid()} {sorted(cpus)}\n")
        raise OSError(22, "Invalid argument")

    return pin


@pytest.mark.parametrize("command", sorted(_FIRST))
def test_the_worker_pins_itself_to_the_next_cpu_of_the_mask_and_replies_if_it_cannot(tmp_path, cycle, command):
    serial = run_with_cpus(tmp_path, cycle_argv(command, cycle), 1)
    log = tmp_path / "pins.txt"
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {5, 3}), \
            mock.patch.object(os, "sched_setaffinity", _recording_pins(log)):
        assert _forks(tmp_path, cycle_argv(command, cycle)) == (serial, 1)
    (pid, cpus), = (line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines())
    assert int(pid) != os.getpid() and cpus == "[5]"


def test_shard_workers_pin_themselves_in_turn(tmp_path, cycle):
    shards = []
    for i in range(3):
        shards.append(str(tmp_path / f"shard-{i}.txt"))
        Path(shards[-1]).write_text("".join(f"10.0.{i}.{h}\n" for h in range(200)), encoding="utf-8")
    argv = ["detect", "--port", "443", "--output", "OUT/stats.csv", "--summary", "OUT/detect.json", *shards]
    serial = run_with_cpus(tmp_path, argv, 1)
    log = tmp_path / "pins.txt"
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {2, 4, 6}), \
            mock.patch.object(os, "sched_setaffinity", _recording_pins(log)):
        assert run_with_cpus(tmp_path, argv, 3) == serial
    pins = sorted(line.split(" ", 1)[1] for line in log.read_text(encoding="utf-8").splitlines())
    assert pins == ["[4]", "[6]"]


def test_the_parents_own_mask_is_unchanged(tmp_path, cycle):
    mask = os.sched_getaffinity(0)
    assert _forks(tmp_path, cycle_argv("evaluate", cycle))[1] == 1
    assert os.sched_getaffinity(0) == mask
    _append(cycle["truth"], _BAD_LINES["truth"])
    (code, _, _), forks = _forks(tmp_path, cycle_argv("applayer", cycle))
    assert (code, forks) == (2, 1)
    assert os.sched_getaffinity(0) == mask


@pytest.mark.parametrize("command", sorted(_FIRST))
def test_an_interrupt_here_kills_and_reaps_the_worker(tmp_path, cycle, command):
    mask, parent = os.sched_getaffinity(0), os.getpid()

    def slow_in_the_worker(*args, **kwargs):
        if os.getpid() != parent:
            time.sleep(30)  # a worker still reading
        raise KeyboardInterrupt

    # The worker reads the scan through _load_occupancy, or evaluate's plan through _read_table;
    # here the results or the truth file are read through _read_results or _read_table.
    patches = [mock.patch.object(scans, "_load_occupancy", slow_in_the_worker),
               mock.patch.object(scans, "_read_results", slow_in_the_worker),
               mock.patch.object(cli, "_read_table", slow_in_the_worker)]
    started = time.monotonic()
    with contextlib.ExitStack() as stack, pytest.raises(KeyboardInterrupt):
        for patch in patches:
            stack.enter_context(patch)
        _forks(tmp_path, cycle_argv(command, cycle))
    no_worker_left()
    assert time.monotonic() - started < 10
    assert os.sched_getaffinity(0) == mask


def test_a_tracer_that_swaps_the_clis_scan_reader_and_report_writer_sees_every_call(tmp_path, cycle):
    # The benchmark's tracer swaps these two on hrpkit.cli, where scans looks them up at each call.
    # On one usable CPU no worker reads an input, so every read is made in this process.
    shards = [str(tmp_path / f"shard-{i}.txt") for i in range(3)]
    for i, shard in enumerate(shards):
        Path(shard).write_text(f"10.0.{i}.1\n", encoding="utf-8")
    calls = []
    real_open, real_write = cli.open_scan_source, cli.write_json_report

    def open_scan_source(source, fmt, policy):
        calls.append(source.name)
        return real_open(source, fmt, policy)

    def write_json_report(obj, out):
        calls.append("report")
        real_write(obj, out)

    plan = ["plan", "--port", "443", "--output", "OUT/plan.csv", "--summary", "OUT/plan.json", cycle["scan"]]
    detect = ["detect", "--port", "443", "--output", "OUT/stats.csv", "--summary", "OUT/detect.json", *shards]
    with mock.patch.object(cli, "open_scan_source", open_scan_source), \
            mock.patch.object(cli, "write_json_report", write_json_report):
        for argv, scans_read in [(detect, shards), (plan, [cycle["scan"]]),
                                 (cycle_argv("applayer", cycle), [cycle["scan"]]), (cycle_argv("escalate", cycle), [cycle["scan"]])]:
            calls.clear()
            code, err, _ = run_with_cpus(tmp_path, argv, 1)
            assert (code, err) == (0, "")
            assert calls == [*scans_read, "report"], argv[0]
