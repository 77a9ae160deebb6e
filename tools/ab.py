"""A/B of the CLI stages: a parent revision against this checkout, each stage in a fresh process, interleaved.

    python tools/ab.py --parent REV [--rounds 10] [--trials 3000000] [--bytecode uncached|cached] [--out FILE]

Run from anywhere inside a checkout.  The parent's ``src/`` is extracted
with ``git archive REV`` into a temporary directory, and this checkout's
``src/`` (committed or not, without its ``__pycache__``) is copied beside
it.  Every input is the benchmark's (``perfbench/workloads.py`` at seed
0), written once, before the rounds, by a short untimed child process that
imports bellsim from the parent's tree, since this one imports no numpy:
the `pipeline-temporal` config at ``--trials`` trials, the `sweep-backends`
ops with their model files, and the `reanalyze-chsh-crlf` records (its
config's CHSH run, rendered by ``perfbench/checks.render_records`` with
CRLF line ends).  The last two take ``min(--trials, 1 M)`` trials a run.
Each round runs, on both sides, ``python -c "import bellsim.cli"`` (the
`import` stage, what the benchmark's ``setup_s`` times), the config's
`run`, `run --threads 2` (the `run-2-threads` stage, into a ``pooled``
directory, the one stage no workload runs), `analyze` and `certify`, then
`analyze --mode qm_singlet` and `certify` of the CRLF records (the
`analyze-crlf` and `certify-crlf` stages, into ``crlf``), and last the
`sweep` stage: one pass of the benchmark's own runner, ``perfbench/child.py
sweep SPEC OUT``, over the sweep ops (six backends at 8 angles), each on
``min(2, usable CPUs)`` threads.  Each stage runs on one side and then on
the other before the next stage, and the side that goes first alternates
from round to round.  The other `bellsim` stages' command lines are
``tools/stage_rss.py``'s, and so is the launcher, which imports nothing
large and reads the child's own resource usage from ``os.wait4``.

With ``--bytecode uncached`` (the default, as the benchmark runs) no
process writes bytecode, so every stage compiles bellsim's modules; with
``cached`` both sides are precompiled first.  numpy and the standard
library read their installed bytecode either way.

For each stage and each of wall time, user+sys CPU, minor faults and peak
RSS, and for each sweep backend (a row ``sweep BACKEND``) its wall time
(the child's own ``perf_counter`` seconds around each of its runs'
``run_experiment``, ``estimate_correlators`` and Bell quantity, as the
benchmark times them, summed), it prints each side's median and quartiles,
the number of rounds in which the change was lower (a pair win), and the
ratio of the medians.  It says "gain" only when the change wins at least 9 of 10 pairs
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
certification or ``sweep.txt`` (each sweep op's digest of its columns,
its estimates and its ``bell`` block) differ, or if either side's
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

from bench_record import src_uncommitted
from stage_rss import launch, peak_mb, stage_argv

SIDES = ("parent", "change")
STAGES = ("import", "run", "run-2-threads", "analyze", "certify", "analyze-crlf", "certify-crlf", "sweep")
METRICS = ("wall_s", "cpu_s", "minflt", "peak_rss_mb")  # lower is better for each
OUTPUTS = ("records.csv", "report.json", "bits.txt", "certification.json")
POOLED = "pooled/records.csv"  # the records of the run-2-threads stage, which must be those of the run stage
TOOLS = Path(__file__).resolve().parent
PERFBENCH = TOOLS.parent / "perfbench"
SWEEP_OUT = "sweep.json"  # what perfbench/child.py writes in a side's work directory; read, then removed
SWEEP_KEYS = ("digest", "estimates", "bell")  # of each sweep op's result, what sweep.txt holds
CRLF_MODE = "qm_singlet"  # the mode of workloads.reanalyze_config, which the analyze-crlf stage names
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


def usable_cpus() -> int:
    """The CPUs this process may run on, as the manifest and the benchmark count them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def sweep_spec(config: Path) -> Path:
    """The SPEC of the sweep stage, beside config."""
    return config.with_name("sweep-spec.json")


def crlf_records(config: Path) -> Path:
    """The CRLF records that the analyze-crlf and certify-crlf stages read, beside config."""
    return config.with_name("records-crlf.csv")


def write_inputs(config: Path, n_trials: int) -> None:
    """Write the benchmark's inputs: config, pipeline-temporal's at n_trials, and beside it the sweep SPEC with
    its model files and the reanalyze-chsh-crlf records, each run at min(n_trials, the benchmark's) trials.
    Imports the benchmark's workloads and checks, and so numpy and bellsim: run it in a child (make_inputs)."""
    import checks
    import workloads
    from bellsim.protocol import ExperimentConfig, run_experiment

    config.write_text(json.dumps({**workloads.pipeline_config(0), "n_trials": n_trials}), encoding="utf-8")
    threads = min(2, usable_cpus())
    ops = [{"op": s["op"], "backend": s["backend"], "threads": threads,
            "config": {**s["config"], "n_trials": min(n_trials, s["config"]["n_trials"])}}
           for s in workloads.sweep_specs(0, config.parent)]
    # "seconds": 0 makes the child run one pass
    sweep_spec(config).write_text(json.dumps({"ops": ops, "seconds": 0, "work": str(config.parent)}),
                                  encoding="utf-8")
    chsh = workloads.reanalyze_config(0)
    records = run_experiment(ExperimentConfig.from_dict({**chsh, "n_trials": min(n_trials, chsh["n_trials"])}),
                             threads=1)
    lf = checks.render_records(records.kind, records.codes, records.s1, records.s2)
    crlf_records(config).write_bytes(lf.replace(b"\n", b"\r\n"))


def make_inputs(config: Path, n_trials: int, src: Path) -> None:
    """write_inputs in a short child process that imports bellsim from src, so that this one imports no numpy.
    The child writes no bytecode, so that the tree of src gets none that the other side's has not."""
    code = "import sys, ab; from pathlib import Path; ab.write_inputs(Path(sys.argv[1]), int(sys.argv[2]))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TOOLS), str(PERFBENCH), str(src)]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run([sys.executable, "-c", code, str(config), str(n_trials)], env=env, check=True)


def stage_command(stage: str, work: Path, config: Path) -> list[str]:
    """The Python arguments of one stage: a fresh ``import bellsim.cli`` and nothing more for `import`,
    ``perfbench/child.py sweep`` of the SPEC beside config into work / SWEEP_OUT for `sweep`, `analyze` or
    `certify` of the CRLF records beside config into work / "crlf" for `analyze-crlf` or `certify-crlf`, else
    the `bellsim` stage of ``stage_rss.stage_argv``."""
    if stage == "import":
        return ["-c", "import bellsim.cli"]
    if stage == "sweep":
        return [str(PERFBENCH / "child.py"), "sweep", str(sweep_spec(config)), str(work / SWEEP_OUT)]
    if stage == "analyze-crlf":
        return ["-m", "bellsim.cli", "analyze", "--records", str(crlf_records(config)), "--mode", CRLF_MODE,
                "--out-dir", str(work / "crlf")]
    if stage == "certify-crlf":
        return ["-m", "bellsim.cli", "certify", "--records", str(crlf_records(config)),
                "--report", str(work / "crlf" / "report.json"), "--out-dir", str(work / "crlf")]
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
        sides[side]["work"].mkdir()
    return sides


def run_rounds(sides: dict, config: Path, rounds: int, problems: list[str]) -> dict:
    samples = {stage: {metric: {side: [] for side in SIDES} for metric in METRICS} for stage in STAGES}
    ops = json.loads(sweep_spec(config).read_text(encoding="utf-8"))["ops"]
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        for stage in STAGES:
            for side in order:
                args = stage_command(stage, sides[side]["work"], config)
                code, seconds, usage = launch(args, env=sides[side]["env"])
                if code != 0:
                    problems.append(f"round {r + 1}: {side} {stage} exited {code}")
                values = (seconds, usage.ru_utime + usage.ru_stime, usage.ru_minflt, peak_mb(usage))
                for metric, value in zip(METRICS, values):
                    samples[stage][metric][side].append(value)
                if stage == "sweep":
                    for backend, seconds in sweep_wall(sides[side]["work"], ops, ok=code == 0).items():
                        row = samples.setdefault(f"sweep {backend}", {"wall_s": {s: [] for s in SIDES}})
                        row["wall_s"][side].append(seconds)
        print(f"round {r + 1}/{rounds} done", file=sys.stderr, flush=True)
    return samples


def sweep_wall(work: Path, ops: list[dict], ok: bool) -> dict[str, float]:
    """Each sweep backend's wall seconds in the sweep stage just run in work, its ops' as the child timed them,
    summed; first each op's digest, estimates and bell go to work / "sweep.txt".  NaN for each backend, and no
    sweep.txt, if the stage failed."""
    out, lines = work / SWEEP_OUT, work / "sweep.txt"
    done = json.loads(out.read_text(encoding="utf-8"))["passes"][0] if ok else []
    # removed, so that a later failed stage cannot pass this one's times or outputs off as its own
    out.unlink(missing_ok=True)
    lines.unlink(missing_ok=True)
    if done:
        lines.write_text("".join(json.dumps({"op": item["op"], **{key: item["result"][key] for key in SWEEP_KEYS}})
                                 + "\n" for item in done), encoding="utf-8")
    backend = {op["op"]: op["backend"] for op in ops}
    seconds = {b: 0.0 if done else math.nan for b in backend.values()}
    for item in done:
        seconds[backend[item["op"]]] += item["seconds"]
    return seconds


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
    parser.add_argument("--trials", type=int, default=3_000_000,
                        help="n_trials of the pipeline config, and the most of every other run (default 3 M)")
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
        make_inputs(config, args.trials, Path(tmp) / "parent" / "src")  # the inputs of both sides
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
        "change_src_uncommitted": src_uncommitted(root),
        "n_trials": args.trials, "rounds": args.rounds, "bytecode": args.bytecode,
        "python": sys.version.split()[0], "src_bellsim_lines": lines, "rule": RULE, "interval_rule": INTERVAL_RULE,
        "nproc": usable_cpus(),
        "identical_outputs": not differing, "stages": summary,
    }
    if args.out is not None:
        args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
