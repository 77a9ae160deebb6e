"""Starts the benchmark's child processes from a small process of its own.

On Linux a process's ru_maxrss starts at the high-water RSS of the process
image it replaced at exec, so a child started directly by run.py would
report at least run.py's own peak (run.py renders the reference records).
run.py starts this process before it allocates anything large and has it
start, time and reap every workload process.

Requests arrive one JSON object per line on stdin: {"argv", "log", "timeout"};
each gets one JSON line on stdout: {"seconds", "exit", "maxrss_kb"}.  The
children inherit this process's working directory and environment.  End of
input ends the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log_path: str, timeout: float) -> dict:
    """Wall time from spawn to exit, exit code and the child's own peak RSS."""
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - started
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
    return {"seconds": elapsed, "exit": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["log"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
