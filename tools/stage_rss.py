"""Peak memory of each CLI stage at 3 M and at 30 M trials, each stage in a fresh process.

    PYTHONPATH=src python tools/stage_rss.py

Runs the README config (its "### Config" block) through `bellsim run`,
`bellsim run --threads 2` (the pooled path, which simulates longer spans
than a run on one thread), `analyze` and `certify` at both sizes, then
`analyze` and `certify` again on a CRLF copy of the records (a file
bellsim did not write), prints each stage's wall time, peak resident set
size (``ru_maxrss`` of its own process) and that peak less the import
floor (the peak of a fresh ``bellsim --version``, which imports what
every stage imports and does nothing else), so the memory a stage's work
takes shows on its own, and exits 1 if any stage fails, if the two runs'
records or the CRLF copy's report, bits or certification differ from the
LF file's, or if a 30 M-trial stage peaks above 1.1 times its 3 M-trial
peak or above 100 MB. The work files (about 1.2 GB at 30 M trials) go to
a temporary directory.

On Linux a child's ru_maxrss starts at the high-water mark of the process
that exec'd it, so this script imports nothing large (not numpy) and
allocates nothing large before it starts the children.
"""

from __future__ import annotations

import filecmp
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (3_000_000, 30_000_000)
GROWTH_LIMIT = 1.1  # a 30 M stage's peak over its 3 M peak, at most
PEAK_LIMIT_MB = 100.0

# the README's "### Config" block, which this script runs at each of SIZES; tests/test_readme.py holds it equal
# to the benchmark's pipeline config, which tools/ab.py runs
README_TEXT = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
README_CONFIG = json.loads(re.search(r"### Config\n\n```json\n(.*?)```", README_TEXT, re.S).group(1))


def stage_argv(stage: str, work: Path, config: Path) -> list[str]:
    """The `bellsim` arguments of one stage of README_CONFIG's pipeline in work: `run`, `run-2-threads` (`run
    --threads 2` into work / "pooled"), `analyze` or `certify` of work's records, or with a "-crlf" suffix
    `analyze` or `certify` of the copy in work / "crlf"."""
    d = work / "crlf" if stage.endswith("-crlf") else work
    records, report = str(d / "records.csv"), str(d / "report.json")
    if stage == "run":
        return ["run", "--config", str(config), "--out-dir", str(work)]
    if stage == "run-2-threads":
        return ["run", "--config", str(config), "--out-dir", str(work / "pooled"), "--threads", "2"]
    if stage.startswith("analyze"):
        return ["analyze", "--records", records, "--mode", README_CONFIG["mode"], "--out-dir", str(d)]
    return ["certify", "--records", records, "--report", report, "--out-dir", str(d)]


def launch(args: list[str], env: dict | None = None):
    """Exit code, wall seconds and resource usage (``os.wait4``'s, the child's own) of a fresh Python process
    started with the arguments ``args`` (``["-m", "bellsim.cli", *argv]`` for a `bellsim` stage), with ``env``
    as its environment if given."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - started, usage


def peak_mb(usage) -> float:
    """A process's peak RSS in MB from its resource usage."""
    return usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # bytes on macOS, KiB elsewhere


def stage(argv: list[str]) -> tuple[int, float, float]:
    """Exit code, wall seconds and peak RSS in MB of one `bellsim` stage in a fresh process."""
    code, seconds, usage = launch(["-m", "bellsim.cli", *argv])
    return code, seconds, peak_mb(usage)


def crlf_copy(src: Path, dst: Path) -> None:
    """Write src to dst with every LF as CRLF, 1 MB at a time."""
    with open(src, "rb") as source, open(dst, "wb") as copy:
        while block := source.read(1 << 20):
            copy.write(block.replace(b"\n", b"\r\n"))


def pipeline(work: Path, n_trials: int, floor: float, problems: list[str]) -> dict[str, tuple[int, float, float]]:
    out = work / str(n_trials)
    crlf, pooled = out / "crlf", out / "pooled"
    config = work / f"config-{n_trials}.json"
    config.write_text(json.dumps(dict(README_CONFIG, n_trials=n_trials)), encoding="utf-8")
    stages = {name: stage_argv(name, out, config)
              for name in ("run", "run-2-threads", "analyze", "certify", "analyze-crlf", "certify-crlf")}
    results = {}
    for name, argv in stages.items():
        if name == "analyze-crlf" and (out / "records.csv").exists():  # made between the timed stages
            crlf.mkdir()
            crlf_copy(out / "records.csv", crlf / "records.csv")
            (out / "records.csv").unlink()  # keeps the disk use near one records file
        results[name] = stage(argv)
        code, seconds, peak = results[name]
        print(f"{n_trials:>11,} {name:13s} exit {code}  {seconds:7.2f} s  {peak:7.1f} MB  "
              f"{peak - floor:+6.1f} MB over the floor", flush=True)
        if name == "run-2-threads":
            if not ((out / "records.csv").exists() and (pooled / "records.csv").exists()
                    and filecmp.cmp(out / "records.csv", pooled / "records.csv", shallow=False)):
                problems.append(f"records.csv of run --threads 2 is missing or differs from run's "
                                f"at {n_trials:,} trials")
            shutil.rmtree(pooled, ignore_errors=True)  # keeps the disk use near one records file
    for name in ("report.json", "bits.txt", "certification.json"):
        if not ((out / name).exists() and (crlf / name).exists() and filecmp.cmp(out / name, crlf / name,
                                                                                 shallow=False)):
            problems.append(f"{name} of the CRLF copy is missing or differs from the LF file's "
                            f"at {n_trials:,} trials")
    return results


def main() -> int:
    problems = []
    code, _, floor = stage(["--version"])
    print(f"import floor (bellsim --version): exit {code}  {floor:7.1f} MB", flush=True)
    with tempfile.TemporaryDirectory(prefix="stage-rss-") as tmp:
        small, large = (pipeline(Path(tmp), n, floor, problems) for n in SIZES)
    for name, (code, _, peak) in large.items():
        base = small[name][2]
        if code != 0 or small[name][0] != 0:
            problems.append(f"{name}: exit {small[name][0]} at {SIZES[0]:,}, {code} at {SIZES[1]:,} trials")
        if peak > GROWTH_LIMIT * base:
            problems.append(f"{name}: {peak:.1f} MB at {SIZES[1]:,} trials is above {GROWTH_LIMIT} x "
                            f"its {base:.1f} MB at {SIZES[0]:,}")
        if peak > PEAK_LIMIT_MB:
            problems.append(f"{name}: {peak:.1f} MB at {SIZES[1]:,} trials is above {PEAK_LIMIT_MB:.0f} MB")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
