"""A/B of the CLI stages: a parent revision against this checkout, each stage in a fresh process, interleaved.

    python tools/ab.py --parent REV [--rounds 10] [--trials 3000000] [--bytecode uncached|cached] [--out FILE]

Run from anywhere inside a checkout.  The parent's ``src/`` is extracted
with ``git archive REV`` into a temporary directory, and this checkout's
``src/`` (committed or not, without its ``__pycache__``) is copied beside
it.  Each round runs, on both sides, ``python -c "import bellsim.cli"`` (the
`import` stage, what the benchmark's ``setup_s`` times), the README
config's `run`, `run --threads 2` (the `run-2-threads` stage, into a
``pooled`` directory), `analyze` and `certify`, then `analyze` and
`certify` of a CRLF copy of the records (made between the timed stages),
and last the `sweep` stage: ``tools/ab_sweep.py``, one process that runs
the six sweep backends at 4 angles, ``--trials`` trials a run, through the
library path on pooled threads (24 runs) and writes a digest of every
run's columns and each backend's process CPU time; each stage runs on one
side and then on the other before the next stage, and the side that goes
first alternates from round to round.  The config and each `bellsim`
stage's command line are ``tools/stage_rss.py``'s, and so is the launcher,
which imports nothing large and reads the child's own resource usage from
``os.wait4``.

With ``--bytecode uncached`` (the default, as the benchmark runs) no
process writes bytecode, so every stage compiles bellsim's modules; with
``cached`` both sides are precompiled first.  numpy and the standard
library read their installed bytecode either way.

For each stage and each of wall time, user+sys CPU, minor faults and peak
RSS, and for each sweep backend (a row ``sweep BACKEND``) its CPU time
over its runs, it prints each side's median and quartiles, the number of
rounds in which the change was lower (a pair win), and the ratio of the
medians.  It says "gain" only when the change wins at least 9 of 10 pairs
(90% of at least 10 rounds) and its median is below the parent's by more than the
parent's interquartile range, and "loss" by the same rule the other way;
anything else is "none".  Beside the verdict it prints a distribution-free
confidence interval for the median of the per-round change/parent ratios:
the sign test's order statistics, the k-th smallest and k-th largest ratio
with the largest k whose coverage is at least 95% (at 10 rounds the 2nd and
9th smallest, 97.85%), or the smallest and largest with the coverage they
have when no k reaches it.  ``--out`` writes all of it, with every sample,
as JSON (``tools/bench_record.py --ab FILE`` stores that in a BENCH record),
with each side's ``src_bellsim_lines`` and, as ``nproc``, the CPUs the
process may run on.

Exits 1 if a stage fails, if the two sides' records, report, bits,
certification or sweep digests differ, or if either side's
`run-2-threads` records differ from its `run`'s; there is no timing gate.
It uses no network and changes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from ab_sweep import BACKENDS, cpu_path, write_models
from stage_rss import README_CONFIG, crlf_copy, launch, peak_mb, stage_argv

SIDES = ("parent", "change")
STAGES = ("import", "run", "run-2-threads", "analyze", "certify", "analyze-crlf", "certify-crlf", "sweep")
METRICS = ("wall_s", "cpu_s", "minflt", "peak_rss_mb")  # lower is better for each
OUTPUTS = ("records.csv", "report.json", "bits.txt", "certification.json")
POOLED = "pooled/records.csv"  # the records of the run-2-threads stage, which must be those of the run stage
SWEEP = Path(__file__).resolve().parent / "ab_sweep.py"
WIN_SHARE = 0.9  # the share of pairs the better side must win: 9 of 10
MIN_ROUNDS = 10  # fewer rounds than this give no verdict
RULE = (f"gain: the change is lower in at least {WIN_SHARE:.0%} of at least {MIN_ROUNDS} pairs, and its median is "
        f"below the parent's by more than the parent's interquartile range; loss: the same the other way")
COVERAGE = 0.95  # the least coverage of the ratio interval, where the rounds allow it
INTERVAL_RULE = (f"interval: the sign test's k-th smallest and k-th largest change/parent ratio, k the largest "
                 f"with coverage 1 - 2 P(Binomial(rounds, 1/2) < k) of at least {COVERAGE:.0%}, else k = 1")


def quartiles(samples: list[float]) -> dict:
    """Median, first and third quartile (statistics.quantiles, inclusive method) of at least two samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def median_interval(ratios: list[float]) -> dict:
    """A distribution-free confidence interval for the median of the ratios, from the sign test's order statistics.

    The k-th smallest and k-th largest of n ratios enclose the median with
    coverage 1 - 2 P(Binomial(n, 1/2) < k); k is the largest with at least
    COVERAGE, or 1 if none has it.
    """
    n = len(ratios)

    def coverage(k: int) -> float:
        return 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2 ** n

    k = max((k for k in range(1, (n + 1) // 2 + 1) if coverage(k) >= COVERAGE), default=1)
    ordered = sorted(ratios)
    return {"low": ordered[k - 1], "high": ordered[n - k], "k": k, "coverage": coverage(k)}


def compare(parent: list[float], change: list[float]) -> dict:
    """Both sides' quartiles, the change's pair wins, the ratio of the medians and the verdict, for one metric."""
    a, b = quartiles(parent), quartiles(change)
    wins, losses = sum(c < p for p, c in zip(parent, change)), sum(c > p for p, c in zip(parent, change))
    rounds = len(parent)
    spread = a["q3"] - a["q1"]
    verdict = "none"
    if rounds >= MIN_ROUNDS:
        if wins >= WIN_SHARE * rounds and a["median"] - b["median"] > spread:
            verdict = "gain"
        elif losses >= WIN_SHARE * rounds and b["median"] - a["median"] > spread:
            verdict = "loss"
    ratio = b["median"] / a["median"] if a["median"] else math.nan
    # no interval when a parent sample is 0 and its ratio has no value
    interval = median_interval([c / p for p, c in zip(parent, change)]) if all(parent) else None
    return {"parent": {**a, "samples": parent}, "change": {**b, "samples": change}, "rounds": rounds,
            "wins": wins, "ratio": ratio, "verdict": verdict, "interval": interval}


def summarize(samples: dict) -> dict:
    """{stage: {metric: compare(...)}} of samples {stage: {metric: {side: [one value per round]}}}."""
    return {stage: {metric: compare(by_side["parent"], by_side["change"]) for metric, by_side in metrics.items()}
            for stage, metrics in samples.items()}


def table(summary: dict) -> str:
    width = max(13, *map(len, summary))
    lines = [f"{'stage':{width}s} {'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
             f"{'wins':>6s} {'ratio':>7s}  verdict  ratio interval (coverage)"]
    for stage, metrics in summary.items():
        for metric, c in metrics.items():
            a, b, ci = c["parent"], c["change"], c["interval"]
            interval = f"[{ci['low']:.4f}, {ci['high']:.4f}] ({ci['coverage']:.1%})" if ci else "-"
            lines.append(f"{stage:{width}s} {metric:12s} {a['median']:12.4g} [{a['q1']:9.4g}, {a['q3']:9.4g}] "
                         f"{b['median']:12.4g} [{b['q1']:9.4g}, {b['q3']:9.4g}] {c['wins']:>2d}/{c['rounds']:<3d} "
                         f"{c['ratio']:7.4f}  {c['verdict']:7s}  {interval}")
    return "\n".join(lines)


def stage_command(stage: str, work: Path, config: Path) -> list[str]:
    """The Python arguments of one stage: a fresh ``import bellsim.cli`` and nothing more for `import`,
    ``ab_sweep.py`` of config into work / "sweep.txt" for `sweep`, else the `bellsim` stage of
    ``stage_rss.stage_argv``."""
    if stage == "import":
        return ["-c", "import bellsim.cli"]
    if stage == "sweep":
        return [str(SWEEP), str(config), str(work / "sweep.txt")]
    return ["-m", "bellsim.cli", *stage_argv(stage, work, config)]


def src_bellsim_lines(tree: Path) -> int:
    """The line count (str.splitlines) of every src/bellsim/*.py file of a tree, summed, as the benchmark counts it."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((tree / "src" / "bellsim").glob("*.py")))


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True, check=True).stdout.strip()


def prepare(root: Path, parent: str, tmp: Path, bytecode: str) -> dict[str, dict]:
    """Each side's source tree under tmp and the environment its stages run with."""
    trees = {side: tmp / side for side in SIDES}
    with subprocess.Popen(["git", "archive", "--format=tar", parent, "src"], cwd=root,
                          stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as archive:
            archive.extractall(trees["parent"], filter="data")
    if proc.returncode != 0:
        raise RuntimeError(f"git archive {parent} exited {proc.returncode}")
    shutil.copytree(root / "src", trees["change"] / "src", ignore=shutil.ignore_patterns("__pycache__"))
    sides = {}
    for side, tree in trees.items():
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        if bytecode == "uncached":
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        else:
            env.pop("PYTHONDONTWRITEBYTECODE", None)
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)
        sides[side] = {"env": env, "work": tmp / f"work-{side}"}
    return sides


def run_rounds(sides: dict, config: Path, rounds: int, problems: list[str]) -> dict:
    samples = {stage: {metric: {side: [] for side in SIDES} for metric in METRICS} for stage in STAGES}
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for stage in STAGES:
            if stage == "analyze-crlf":
                for side in order:
                    work = sides[side]["work"]
                    (work / "crlf").mkdir(parents=True, exist_ok=True)
                    crlf_copy(work / "records.csv", work / "crlf" / "records.csv")
            for side in order:
                args = stage_command(stage, sides[side]["work"], config)
                code, seconds, usage = launch(args, env=sides[side]["env"])
                if code != 0:
                    problems.append(f"round {r + 1}: {side} {stage} exited {code}")
                values = (seconds, usage.ru_utime + usage.ru_stime, usage.ru_minflt, peak_mb(usage))
                for metric, value in zip(METRICS, values):
                    samples[stage][metric][side].append(value)
                if stage == "sweep":
                    for backend, seconds in sweep_cpu(sides[side]["work"], ok=code == 0).items():
                        row = samples.setdefault(f"sweep {backend}", {"cpu_s": {s: [] for s in SIDES}})
                        row["cpu_s"][side].append(seconds)
        print(f"round {r + 1}/{rounds} done", file=sys.stderr, flush=True)
    return samples


def sweep_cpu(work: Path, ok: bool) -> dict[str, float]:
    """Each sweep backend's CPU seconds in the sweep stage just run in work; NaN for each if the stage failed."""
    path = cpu_path(work / "sweep.txt")
    cpu_s = json.loads(path.read_text(encoding="utf-8")) if ok else {}
    path.unlink(missing_ok=True)  # so that a later failed stage cannot pass this one's times off as its own
    return {backend: cpu_s.get(backend, math.nan) for backend, *_ in BACKENDS}


def same_bytes(a: Path, b: Path) -> bool:
    """Whether files a and b both exist and hold the same bytes."""
    return a.exists() and b.exists() and filecmp.cmp(a, b, shallow=False)


def differing_outputs(sides: dict) -> list[str]:
    """The outputs of the last round that the two sides did not write byte for byte alike, then POOLED if either
    side's `run-2-threads` records are not byte for byte its `run`'s."""
    a, b = (sides[side]["work"] for side in SIDES)
    names = [*OUTPUTS, *(f"crlf/{name}" for name in OUTPUTS[1:]), "sweep.txt"]
    differing = [name for name in names if not same_bytes(a / name, b / name)]
    return differing + [POOLED] * any(not same_bytes(w / POOLED, w / "records.csv") for w in (a, b))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare this checkout with, e.g. HEAD~1")
    parser.add_argument("--rounds", type=int, default=10, help="rounds, at least 2 (default 10)")
    parser.add_argument("--trials", type=int, default=3_000_000, help="n_trials of the README config (default 3 M)")
    parser.add_argument("--bytecode", choices=("uncached", "cached"), default="uncached",
                        help="whether the stages compile bellsim's modules or read them precompiled "
                             "(default uncached)")
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON here")
    args = parser.parse_args(argv)
    if args.rounds < 2 or args.trials < 1:
        parser.error("--rounds must be at least 2 and --trials at least 1")
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel"))
    try:
        parent = git(root, "rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError:
        parser.error(f"--parent {args.parent!r} names no commit")
    problems = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = prepare(root, parent, Path(tmp), args.bytecode)
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(dict(README_CONFIG, n_trials=args.trials)), encoding="utf-8")
        write_models(Path(tmp))  # the sweep's model documents, beside the config, for both sides
        samples = run_rounds(sides, config, args.rounds, problems)
        differing = differing_outputs(sides)
        lines = {side: src_bellsim_lines(Path(tmp) / side) for side in SIDES}
    problems += [f"{name} differs {'from records.csv' if name == POOLED else 'between the sides'}"
                 for name in differing]
    summary = summarize(samples)
    print(table(summary))
    doc = {
        "parent": parent,
        "change": git(root, "rev-parse", "HEAD"),
        "change_src_uncommitted": bool(git(root, "status", "--porcelain", "--", "src")),
        "n_trials": args.trials, "rounds": args.rounds, "bytecode": args.bytecode,
        "python": sys.version.split()[0], "src_bellsim_lines": lines, "rule": RULE, "interval_rule": INTERVAL_RULE,
        # the CPUs this process may run on, as the manifest and the benchmark count them
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "identical_outputs": not differing, "stages": summary,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
