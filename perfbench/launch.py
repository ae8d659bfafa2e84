"""Starts the benchmark's children one at a time and reports on each.

Reads one JSON request per line on stdin, {"cmd": [...], "stderr": PATH,
"timeout": SECONDS}, runs the command in this process's directory and
environment, and answers with one JSON line, {"exit_code", "wall_s",
"peak_rss_mb", "pass_before_s", "pass_after_s"}.  Exits at the end of its
input.

It exists to stay small: Linux carries a parent's resident high-water mark
into a child across exec, so a child started from the benchmark's own
process, which parses large reports and span files, would report at least
that process's peak as its own.

The two pass times bracket each child with a probe of the machine's current
speed: the wall time of a fixed pure-Python loop, run just before and just
after the child (a child's after-pass is the next child's before-pass).
"""
import json
import math
import os
import subprocess
import sys
import threading
import time


def reference_pass_s() -> float:
    """Wall time of a fixed pure-Python loop of float arithmetic and calls."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1, 200_000):
        x = i * 1e-4
        total += math.exp(-x) * x**0.5 / (1.0 + x)
    return time.perf_counter() - t0


def main() -> None:
    last_pass = reference_pass_s()
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stderr"], "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(req["timeout"], proc.kill)
            watchdog.start()
            try:
                # wait4 reaps this child only and reports its own peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        after = reference_pass_s()
        reply = {
            "exit_code": proc.returncode,
            "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "pass_before_s": last_pass,
            "pass_after_s": after,
        }
        last_pass = after
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
