"""Write the benchmark's results as one BENCH_<N>.json record, to be committed beside the code it measured.

    python tools/bench_record.py --pr N [--ab AB.json]
    python tools/bench_record.py --results .perfbench_out/results --out /tmp/BENCH.json

Run from the root of a checkout.  Without ``--results`` it first runs

    python perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

and then reads what that wrote to ``.perfbench_out/results/``; with
``--results DIR`` it reads the seed-0 trace-0 results already in DIR
(``<workload>-seed0-trace0.json``) and runs nothing.  The workloads and end-to-end metrics are those that
BENCHMARK.json declares.  Per workload the record holds ``correct``,
``attempted`` and ``failed``, the end-to-end medians, the stage medians
(``run_s``, ``analyze_s``, ``certify_s``) or the per-backend trials/s, and
the setup samples.  Beside them it holds the environment that the workloads
share, ``git_commit`` and ``src_bellsim_lines`` from it, whether the
sources under ``src/`` differed from that commit when the record was
written, and whether the bellsim modules' bytecode was cached: a process
compiles them unless ``src/bellsim/__pycache__`` holds files or
``PYTHONDONTWRITEBYTECODE`` is unset (then the first process writes them).
With ``--ab FILE`` the JSON that ``tools/ab.py --out FILE`` wrote is stored
as the record's ``ab`` block, the A/B of the CLI stages that a claimed gain
rests on.

Exits 1, after writing the record, if a declared workload has no result or
a result that is not ``correct``; there is no timing gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_COMMAND = ["perfbench/run.py", "--workload", "all", "--seed", "0", "--seconds", "25", "--trace", "0"]
STAGES = ("run_s", "analyze_s", "certify_s")


def bytecode(root: Path) -> dict:
    """Whether the bellsim modules' compiled bytecode is cached, and the two facts that decide it."""
    dont_write = os.environ.get("PYTHONDONTWRITEBYTECODE") or None
    cache = root / "src" / "bellsim" / "__pycache__"
    pycache_files = len(list(cache.glob("*.pyc"))) if cache.is_dir() else 0
    return {"PYTHONDONTWRITEBYTECODE": dont_write, "pycache_files": pycache_files,
            "cached": bool(pycache_files) or dont_write is None}


def src_uncommitted(root: Path) -> bool | None:
    """Whether git sees a change under src/ against HEAD; None where git cannot tell."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(proc.stdout.strip()) if proc.returncode == 0 else None


def workload_entry(result: dict, end_to_end: list[str]) -> dict:
    extra = result.get("extra", {})
    entry = {key: result.get(key) for key in ("correct", "attempted", "failed", "seconds", "seed")}
    entry["end_to_end"] = {name: result["metrics"][name]["value"] for name in end_to_end
                           if name in result.get("metrics", {})}
    entry["stages_s"] = {stage: extra[stage] for stage in STAGES if stage in extra}
    if "backend_trials_per_s" in extra:
        entry["backend_trials_per_s"] = extra["backend_trials_per_s"]
    entry["setup_samples_s"] = extra.get("setup_samples_s", [])
    return entry


def build_record(pr: int, results: Path, root: Path) -> tuple[dict, list[str]]:
    """The BENCH record of the seed-0 trace-0 results in ``results``, and the problems that fail it."""
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [metric["name"] for metric in declared["end_to_end"]]
    found = {}
    for path in sorted(results.glob("*-seed0-trace0.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        found[result["workload"]] = result
    names = [workload["name"] for workload in declared["workloads"]]
    problems = [f"{name}: no result in {results}" for name in names if name not in found]
    problems += [f"{name}: not correct ({found[name].get('failed')} failed of {found[name].get('attempted')})"
                 for name in names if name in found and found[name].get("correct") is not True]
    environments = [found[name].get("environment", {}) for name in names if name in found]
    shared = {key: value for key, value in (environments[0] if environments else {}).items()
              if all(env.get(key) == value for env in environments)}
    workloads = {}
    for name in names:
        if name in found:
            entry = workload_entry(found[name], end_to_end)
            entry["environment"] = {key: value for key, value in found[name].get("environment", {}).items()
                                    if key not in shared}
            workloads[name] = entry
    record = {
        "pr": pr,
        "git_commit": shared.pop("git_commit", None),
        "src_bellsim_lines": shared.pop("src_bellsim_lines", None),
        "src_uncommitted": src_uncommitted(root),
        "bytecode": bytecode(root),
        "environment": shared,
        "workloads": workloads,
    }
    return record, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, default=None, help="the change number N that names BENCH_<N>.json")
    parser.add_argument("--results", type=Path, default=None,
                        help="read the seed-0 trace-0 results in this directory instead of running the benchmark")
    parser.add_argument("--out", type=Path, default=None, help="output path (default: BENCH_<N>.json)")
    parser.add_argument("--ab", type=Path, default=None, help="a tools/ab.py JSON file to store as the 'ab' block")
    args = parser.parse_args(argv)
    if args.pr is None and args.out is None:
        parser.error("give --pr, --out or both")
    root = Path.cwd()
    results = args.results
    if results is None:
        proc = subprocess.run([sys.executable, *BENCH_COMMAND], cwd=root)
        if proc.returncode != 0:
            print(f"bench_record: the benchmark exited {proc.returncode}", file=sys.stderr)
            return 1
        results = root / ".perfbench_out" / "results"
    record, problems = build_record(args.pr, results, root)
    if args.ab is not None:
        record["ab"] = json.loads(args.ab.read_text(encoding="utf-8"))
    out = args.out or root / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, indent=2))
    for problem in problems:
        print(f"bench_record: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
