"""Runs the benchmark's commands one at a time and reports their cost.

    python3 bench/spawner.py RUN_DIR KILL_AFTER_S

run.py starts this as a fresh interpreter. On Linux a child's ``ru_maxrss``
keeps the peak RSS of the process it was forked from, so children spawned
by the harness itself would report the harness's memory; spawned from this
small process they report their own. Reads one JSON request per line on
stdin, ``{"argv": [...], "log": PATH}``, runs the command in RUN_DIR with
its output in PATH, and writes one JSON line
``{"code": exit code, "wall_s": ..., "maxrss_kib": ...}`` from ``os.wait4`` on
that child. A child still running KILL_AFTER_S seconds after this process
started is killed. Exits at end of input.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time


def main() -> None:
    run_dir, kill_after = sys.argv[1], float(sys.argv[2])
    kill_at = time.perf_counter() + kill_after
    child = {"pid": 0}

    def kill(signum, frame) -> None:
        try:
            os.kill(child["pid"], signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], cwd=run_dir, stdin=subprocess.DEVNULL,
                                    stdout=sink, stderr=subprocess.STDOUT)
            child["pid"] = proc.pid
            signal.setitimer(signal.ITIMER_REAL, max(0.001, kill_at - start))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
