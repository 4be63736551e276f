"""Forked workers, for inputs large enough to pay for them: a command's files read in contiguous
groups, the first here and each other one by a forked worker (``fold``), and a route snapshot's
second half parsed by a worker while this process reads the first (``load_routes``). The CLI and
``hrpkit.scans`` import this module only once a size check says that a fork will pay.
"""

from __future__ import annotations

import io
import marshal
import os
import sys
from array import array
from typing import Callable, Sequence

from . import cli


def _usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where it cannot fork or runs other threads (a
    forked copy of a process with threads can deadlock)."""
    threading = sys.modules.get("threading")
    threaded = threading is not None and threading.active_count() > 1
    if threaded or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work: Callable, *args, index: int = 1) -> Callable[..., object]:
    """``work(*args)`` in the index-th forked worker. ``wait()`` reaps it and gives its marshalled
    value, raises its error (the same type with the same text), or runs ``work(*args)`` here if it
    exits without a reply; ``wait(kill=True)`` kills and reaps it. Once reaped, ``wait`` gives None."""
    read_end, write_end = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            try:  # the scheduler keeps a new child on its parent's CPU: move to the index-th next one
                cpus = sorted(os.sched_getaffinity(0))  # the real mask, which tests do not patch
                os.sched_setaffinity(0, [cpus[index % len(cpus)]])
            except OSError:  # best effort; the parent's own mask never changes
                pass
            try:  # the reply: (None, the value), or (the error's kind, its text)
                reply = None, work(*args)
            except cli._ERRORS as exc:
                reply = cli._kind(exc), str(exc)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
            os._exit(0)
        finally:  # whatever else is raised, the worker exits without a reply and never returns
            os._exit(1)
    os.close(write_end)
    pipe = open(read_end, "rb")

    def wait(kill: bool = False):
        if pipe.closed:
            return None
        reply = b""
        try:
            reply = b"" if kill else pipe.read()
        finally:
            pipe.close()
            if not reply:
                os.kill(pid, 9)  # SIGKILL, without importing signal
            status = os.waitpid(pid, 0)[1]
        if status or not reply:  # killed, or no whole reply: the input is read here, which raises its error if any
            return None if kill else work(*args)
        kind, value = marshal.loads(reply)
        if kind is not None:  # built without __init__, which for IngestError wants a line number
            raise cli._ERRORS[kind].__new__(cli._ERRORS[kind], value)
        return value

    return wait


def fold(paths: Sequence[str], read: Callable[[Sequence[str]], object], merge: Callable) -> object:
    """``read`` over contiguous groups of the paths, one per usable CPU, merged in file order by
    ``merge(value, reply)``: the first and largest group here, each other one by a forked worker
    that replies its ``read`` value, marshalled, unless the workers' files are regular and too small
    in all to pay for their forks. The value and the error are those of ``read(paths)``, but for an
    I/O error if a worker dies without a whole reply and one of its files is not a regular file,
    such as a pipe it may have drained; else its group is read here."""
    n = min(len(paths), _usable_cpus())
    bounds = [len(paths) - len(paths) * (n - i) // n for i in range(n + 1)]
    if cli._small(paths[bounds[1]:]):
        return read(paths)
    parent, waits = os.getpid(), []

    def again(group: Sequence[str]) -> object:  # in a worker, or here once it has died
        if os.getpid() == parent and not all(map(os.path.isfile, group)):
            raise OSError(f"the worker reading {', '.join(group)} exited without a reply, and a pipe is read once")
        return read(group)

    try:
        for i in range(1, n):
            waits.append(_fork(again, paths[bounds[i]:bounds[i + 1]], index=i))
        value = read(paths[:bounds[1]])
        for wait in waits:
            value = merge(value, wait())
    finally:  # reap every worker, killed first unless it has replied
        for wait in waits:
            wait(kill=True)
    return value


def load_routes(path: str, policy: str, first: Callable[[], object]) -> tuple:
    """``(first(), the route table of the snapshot at path)``, as they are read in that order. With
    another usable CPU, a forked worker parses the lines after the first line break past the file's
    middle byte while this process runs first() and loads the lines before it. On an error, the whole
    snapshot is loaded again here, which raises the serial load's error, naming its line."""
    from .routing import load_route_table

    cut = size = 0
    try:
        with open(path, "rb") as raw:
            size = os.fstat(raw.fileno()).st_size
            raw.seek(size // 2)
            cut = size // 2 + len(raw.readline())
    except OSError:  # met again below, after first(), as in the serial order
        pass
    if cut >= size or _usable_cpus() < 2:
        return first(), cli._read_table(path, load_route_table, policy)

    def rest(stats) -> tuple:  # the worker's lines (see load_route_table), once those before them are loaded
        lines_read, comment_lines, invalid_lines, networks, lengths, asns = wait()
        stats.comment_lines += comment_lines
        stats.invalid_lines += invalid_lines
        return 0, [""] * lines_read, (array("I", networks), lengths, array("I", asns))

    wait = _fork(_parse_routes_from, path, cut, policy)
    try:
        value = first()
        with open(path, "rb") as raw:  # decoded as the CLI decodes every input
            head = io.TextIOWrapper(io.BytesIO(raw.read(cut)), encoding="utf-8-sig", errors="replace")
        try:
            return value, cli._read_table(path, load_route_table, policy, rest, source=head)
        except cli._ERRORS:
            return value, cli._read_table(path, load_route_table, policy)
    finally:
        wait(kill=True)


def _parse_routes_from(path: str, start: int, policy: str) -> tuple:
    """The snapshot's lines from byte start on, decoded as UTF-8 with replacement and universal
    newlines, parsed as ``load_route_table`` parses them: their line, comment and invalid counts, then
    their entries' networks, lengths and ASNs as packed columns."""
    from .ingest import STRICT, table_runs
    from .routing import RouteLoadStats, _parse_routes, _route_columns

    stats, columns = RouteLoadStats(), (array("I"), array("B"), array("I"))
    with open(path, "rb") as raw:
        raw.seek(start)
        with io.TextIOWrapper(raw, "utf-8", "replace") as text:
            for first, run, parsed in table_runs(text, 2, 1, _route_columns):
                stats.lines_read += len(run)
                parsed = parsed or [*zip(*_parse_routes(enumerate(run, first), policy == STRICT, stats))][1:]
                for column, values in zip(columns, parsed):
                    column.extend(values)
    return (stats.lines_read, stats.comment_lines, stats.invalid_lines, *columns)
