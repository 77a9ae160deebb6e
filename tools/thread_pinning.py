"""Why a helper thread can lose on a host: two workers' hashing, as threads, as pinned threads and as processes.

    python tools/thread_pinning.py [--mb 30] [--repeats 7] [--out FILE]

Each arrangement starts two workers together, each hashing its own --mb MB
buffer with SHA-256 (which releases the GIL), and takes the wall time from
the start until both are done and the CPU time both used:

* ``threads``: two threads, placed by the scheduler;
* ``pinned``: two threads, each pinning itself to one CPU of those this
  process may run on with ``os.sched_setaffinity(0, {cpu})``, which on
  Linux acts on the calling thread alone;
* ``processes``: two forked processes (CPU time from ``os.wait4``);
* ``serial``: one thread hashing both buffers, the time to beat.

It prints the median and range of --repeats runs of each, interleaved, and
the cpuset this process runs in with its ``cpuset.sched_load_balance``
flag and that of its ancestors, read from /proc and /sys where the host
has a cgroup v1 cpuset.  A flag of 0 means the kernel does not move tasks
between the cpuset's CPUs to balance their load, so two runnable threads
may wait on one CPU while another is idle: then ``threads`` takes about as
long as ``serial`` and ``pinned`` about half.  It changes no setting; the
pinning ends with the threads that made it.  Linux only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

ARRANGEMENTS = ("serial", "threads", "pinned", "processes")
CPUSET_ROOT = Path("/sys/fs/cgroup/cpuset")


def load_balance_flags() -> dict[str, str]:
    """cpuset.sched_load_balance of this process's cpuset and each ancestor, by cpuset path; {} if unreadable."""
    try:
        own = Path("/proc/self/cpuset").read_text(encoding="ascii").strip()
    except OSError:
        return {}
    flags = {}
    for path in [Path(own), *Path(own).parents]:
        try:
            flags[str(path)] = (CPUSET_ROOT / path.relative_to("/") / "cpuset.sched_load_balance").read_text().strip()
        except (OSError, ValueError):
            pass
    return flags


def _hash(buffer: bytes, cpu: int | None = None) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})  # this thread only
    hashlib.sha256(buffer).digest()


def measure(arrangement: str, buffers: list[bytes], cpus: list[int]) -> tuple[float, float]:
    """Wall and CPU seconds of the two buffers hashed in the given arrangement."""
    started, cpu_started = time.perf_counter(), time.process_time()
    if arrangement == "serial":
        for buffer in buffers:
            _hash(buffer)
    elif arrangement == "processes":
        pids = []
        for buffer in buffers:
            pid = os.fork()
            if pid == 0:
                _hash(buffer)
                os._exit(0)
            pids.append(pid)
        cpu = sum(usage.ru_utime + usage.ru_stime for _, _, usage in (os.wait4(pid, 0) for pid in pids))
        return time.perf_counter() - started, cpu
    else:
        workers = [threading.Thread(target=_hash, args=(buffer, cpus[i] if arrangement == "pinned" else None))
                   for i, buffer in enumerate(buffers)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
    return time.perf_counter() - started, time.process_time() - cpu_started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mb", type=int, default=30, help="MB each worker hashes (default 30)")
    parser.add_argument("--repeats", type=int, default=7, help="runs of each arrangement (default 7)")
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON here")
    args = parser.parse_args(argv)
    if args.mb < 1 or args.repeats < 1:
        parser.error("--mb and --repeats must be at least 1")
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        parser.error("this process may run on fewer than 2 CPUs")
    buffers = [os.urandom(args.mb << 20) for _ in range(2)]
    samples = {arrangement: [] for arrangement in ARRANGEMENTS}
    for _ in range(args.repeats):
        for arrangement in ARRANGEMENTS:
            samples[arrangement].append(measure(arrangement, buffers, cpus))
    doc = {"mb": args.mb, "repeats": args.repeats, "cpus": cpus, "load_balance": load_balance_flags(),
           "arrangements": {}}
    for arrangement, runs in samples.items():
        wall, cpu = ([run[i] for run in runs] for i in (0, 1))
        doc["arrangements"][arrangement] = {"wall_s": {"median": statistics.median(wall), "min": min(wall),
                                                       "max": max(wall)},
                                            "cpu_s_median": statistics.median(cpu)}
        print(f"{arrangement:10s} wall {statistics.median(wall):.4f} s ({min(wall):.4f}-{max(wall):.4f})"
              f"  cpu {statistics.median(cpu):.4f} s")
    for path, flag in doc["load_balance"].items():
        print(f"cpuset {path}: sched_load_balance {flag}")
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
