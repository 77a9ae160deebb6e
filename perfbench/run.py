"""bellsim benchmark: end-to-end metrics, output checks and a traced per-layer run.

Run from the root of a bellsim checkout (bellsim is imported from ./src):

    python3 perfbench/run.py --workload pipeline-temporal --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):

* pipeline-temporal   -- CLI run, analyze, certify on the README config (3 M trials)
* sweep-backends      -- the in-memory library path over 6 backends x 8 angles
* reanalyze-chsh-crlf -- CLI analyze, certify on a CRLF records file bellsim did not write

``--trace 0`` times the workload with every program in a child process of
this script and reports the end-to-end metrics; ``--trace 1`` runs the same
operations in one child process, once with resident-memory sampling, once
plain and once traced, and reports the per-layer metrics.  Every operation's outputs
are checked (see checks.py); a failed check or a non-zero exit counts as a
failed operation.  Inputs are generated from ``--seed`` before any timing
starts.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a full record of the run, including
its environment, goes to ``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORKLOADS = ("pipeline-temporal", "sweep-backends", "reanalyze-chsh-crlf")
# gated end-to-end metrics; every workload reports each of them
END_TO_END = {"setup_s": "s", "trials_per_s": "trials/s", "peak_rss_mb": "MB"}
# reported beside them: a workload has only the CLI stages it runs
STAGE_METRICS = ("run_s", "analyze_s", "certify_s")
SETUP_SAMPLES = 7
# sweep operations whose records are also compared with a single-thread reference
# run (one angle per backend; every operation gets the count and physics checks)
SWEEP_REFERENCE_ANGLE = 0
# a run (one workload) ends within this many seconds; children still running are killed
RUN_BUDGET_S = 170.0
MB = float(1 << 20)


@dataclass
class Proc:
    seconds: float
    exit: int
    peak_rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, op: str, exit_code: int, problems: list[str]) -> None:
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}", *problems]
        if problems:
            self.failed += 1
            self.failures.extend(f"{op}: {p}" for p in problems)


class Bench:
    """One benchmark run: the checkout, the work directory and child processes."""

    def __init__(self, root: Path, seed: int, seconds: int):
        self.root, self.seed, self.seconds = root, seed, seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.src = root / "src"
        out = root / ".perfbench_out"
        out.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
        self.results = out / "results"
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.pop("BELLSIM_THREADS", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # one generating process; numpy's BLAS pool would add nproc idle threads
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        # started before this process allocates anything large (see spawner.py)
        self._spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], cwd=root,
                                         env=self.env, stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], log_name: str) -> Proc:
        """Run a child to completion; wall time from spawn to exit, and its own peak RSS."""
        request = {"argv": argv, "log": str(self.work / f"{log_name}.log"),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        line = self._spawner.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended unexpectedly")
        reply = json.loads(line)
        return Proc(reply["seconds"], reply["exit"], reply["maxrss_kb"] * 1024 / MB)

    def log_tail(self, log_name: str) -> str:
        text = (self.work / f"{log_name}.log").read_text(encoding="utf-8", errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])

    def setup_seconds(self) -> list[float]:
        """Fresh interpreters importing bellsim.cli (after one untimed warm-up)."""
        argv = [sys.executable, "-c", "import bellsim.cli"]
        samples = []
        for i in range(SETUP_SAMPLES + 1):
            proc = self.spawn(argv, "setup")
            if proc.exit != 0:
                raise RuntimeError(f"import bellsim.cli failed: {self.log_tail('setup')}")
            samples.append(proc.seconds)
        return samples[1:]

    def close(self) -> None:
        self._spawner.stdin.close()
        try:
            self._spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._spawner.kill()
            self._spawner.wait()
        self._spawner.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)


# --- workloads: inputs, operations and their checks --------------------------------


@dataclass
class Workload:
    ops: list[dict]  # {"op", "argv"} CLI stages or {"op", "config", "threads"} library calls
    trials_per_pass: int
    threads: int
    check: dict  # op name -> callable(out_dir, result) -> list of problems


def _reference(config: dict, golden_dir: str, seed: int) -> checks.Reference:
    from bellsim.protocol import ExperimentConfig, run_experiment
    records = run_experiment(ExperimentConfig.from_dict(config), threads=1)
    golden = None
    if seed == workloads.DEFAULT_SEED:
        golden = {name: json.loads((HERE / "golden" / golden_dir / f"{name}.json").read_text())
                  for name in ("report", "certification")}
    return checks.Reference(records.kind, records.codes, records.s1, records.s2, config["mode"], golden)


def pipeline_temporal(bench: Bench) -> Workload:
    config = workloads.pipeline_config(bench.seed)
    config_path = bench.work / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    ref = _reference(config, "pipeline-temporal", bench.seed)
    ops = [
        {"op": "run", "argv": ["run", "--config", str(config_path), "--out-dir", "{out}",
                               "--threads", str(workloads.PIPELINE_THREADS)]},
        {"op": "analyze", "argv": ["analyze", "--records", "{out}/records.csv", "--mode",
                                   config["mode"], "--out-dir", "{out}"]},
        {"op": "certify", "argv": ["certify", "--records", "{out}/records.csv", "--report",
                                   "{out}/report.json", "--out-dir", "{out}"]},
    ]
    check = {
        "run": lambda out, result: ref.check_run(out, config),
        "analyze": lambda out, result: ref.check_report(out / "report.json"),
        "certify": lambda out, result: ref.check_certification(out),
    }
    return Workload(ops, config["n_trials"], workloads.PIPELINE_THREADS, check)


def reanalyze_chsh_crlf(bench: Bench) -> Workload:
    config = workloads.reanalyze_config(bench.seed)
    ref = _reference(config, "reanalyze-chsh-crlf", bench.seed)
    records = bench.work / "records-crlf.csv"
    records.write_bytes(ref.csv.replace(b"\n", b"\r\n"))
    ops = [
        {"op": "analyze", "argv": ["analyze", "--records", str(records), "--mode", config["mode"],
                                   "--out-dir", "{out}"]},
        {"op": "certify", "argv": ["certify", "--records", str(records), "--report",
                                   "{out}/report.json", "--out-dir", "{out}"]},
    ]
    check = {
        "analyze": lambda out, result: ref.check_report(out / "report.json"),
        "certify": lambda out, result: ref.check_certification(out),
    }
    return Workload(ops, config["n_trials"], 1, check)


def sweep_backends(bench: Bench) -> Workload:
    from bellsim.protocol import ExperimentConfig, run_experiment
    specs = workloads.sweep_specs(bench.seed, bench.work)
    models = workloads.model_documents(specs)
    threads = min(2, bench.nproc)
    check = {}
    for spec in specs:
        digest = None
        if spec["op"].endswith(f"@{SWEEP_REFERENCE_ANGLE}"):
            records = run_experiment(ExperimentConfig.from_dict(spec["config"]), threads=1)
            digest = checks.columns_digest(records.codes, records.s1, records.s2)
        check[spec["op"]] = functools.partial(_check_sweep_op, spec, digest, models)
    ops = [{"op": s["op"], "config": s["config"], "threads": threads} for s in specs]
    trials = sum(s["config"]["n_trials"] for s in specs)
    return Workload(ops, trials, threads, check)


def _check_sweep_op(spec, digest, models, out, result) -> list[str]:
    return checks.check_sweep_op(spec, result, digest, models)


BUILDERS = {"pipeline-temporal": pipeline_temporal, "sweep-backends": sweep_backends,
            "reanalyze-chsh-crlf": reanalyze_chsh_crlf}


def _check(workload: Workload, tally: Tally, op: str, out: Path, exit_code: int, result) -> None:
    problems = workload.check[op](out, result) if exit_code == 0 else []
    tally.add(op, exit_code, problems)


# --- untraced runs: end-to-end metrics ---------------------------------------------------


def measure(bench: Bench, workload: Workload, tally: Tally) -> dict:
    """Timed passes until the next one would end after --seconds; at least one."""
    passes: list[dict[str, float]] = []
    peak = 0.0
    if "argv" in workload.ops[0]:
        started, last = time.perf_counter(), 0.0
        while not passes or time.perf_counter() - started + last <= bench.seconds:
            out = bench.work / "pass"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            times = {}
            for op in workload.ops:
                argv = [a.replace("{out}", str(out)) for a in op["argv"]]
                proc = bench.spawn([sys.executable, "-m", "bellsim.cli", *argv], op["op"])
                times[op["op"]] = proc.seconds
                peak = max(peak, proc.peak_rss_mb)
                _check(workload, tally, op["op"], out, proc.exit, None)
            passes.append(times)
            last = sum(times.values())
    else:
        spec = bench.work / "sweep-spec.json"
        result_path = bench.work / "sweep-out.json"
        spec.write_text(json.dumps({"ops": workload.ops, "seconds": bench.seconds,
                                    "work": str(bench.work / "pass")}), encoding="utf-8")
        proc = bench.spawn([sys.executable, str(HERE / "child.py"), "sweep", str(spec),
                            str(result_path)], "sweep")
        peak = proc.peak_rss_mb
        if proc.exit != 0:
            for op in workload.ops:
                tally.add(op["op"], proc.exit, [bench.log_tail("sweep")])
            return {"passes": [], "peak_rss_mb": peak}
        for done in json.loads(result_path.read_text(encoding="utf-8"))["passes"]:
            for item in done:
                _check(workload, tally, item["op"], bench.work, item["result"]["exit"], item["result"])
            passes.append({item["op"]: item["seconds"] for item in done})
    return {"passes": passes, "peak_rss_mb": peak}


def end_to_end(bench: Bench, workload: Workload, tally: Tally) -> tuple[dict, dict]:
    setup = bench.setup_seconds()
    timed = measure(bench, workload, tally)
    pass_s = [sum(p.values()) for p in timed["passes"]]
    values = {
        "setup_s": statistics.median(setup),
        "trials_per_s": statistics.median(workload.trials_per_pass / s for s in pass_s) if pass_s else 0.0,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    # stage times and the failure ratio are reported alongside, not gated (see BENCHMARK.json)
    extra = {"setup_samples_s": setup, "passes": timed["passes"], "pass_s": pass_s,
             "failed_ratio": tally.failed / tally.attempted if tally.attempted else 1.0}
    if "argv" in workload.ops[0]:
        for op in workload.ops:
            extra[f"{op['op']}_s"] = statistics.median(p[op["op"]] for p in timed["passes"])
    else:
        by_backend: dict[str, list[float]] = {}
        for p in timed["passes"]:
            for op, seconds in p.items():
                by_backend.setdefault(op.split("@")[0], []).append(seconds)
        n = workloads.SWEEP_TRIALS
        extra["backend_trials_per_s"] = {b: n / statistics.median(v) for b, v in by_backend.items()}
    return metrics, extra


# --- the traced run: per-layer metrics -------------------------------------------------------

STAGE_OPS = {"cli.cmd_run": "run", "cli.cmd_analyze": "analyze", "cli.cmd_certify": "certify"}
BYTES_UNIT = "B-computed"  # sizes, not measured I/O


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric, in report order."""
    names = []
    for span in tracing.SPAN_NAMES:
        names += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
        if span in tracing.BYTES:
            names.append((f"{span}.bytes", BYTES_UNIT))
        if span in tracing.PEAK_SPANS:
            names.append((f"{span}.peak_alloc_mb", "MB"))
    names.append(("protocol.render_written_ratio", "ratio"))
    names.append(("trace.overhead_s", "s"))
    for stage in tracing.CLI_STAGES:
        names += [(f"{stage}.overhead_s", "s"), (f"{stage}.covered_share", "ratio")]
    return names


def traced(bench: Bench, workload: Workload, tally: Tally) -> tuple[dict, dict]:
    spec = bench.work / "trace-spec.json"
    result_path = bench.work / "trace-out.json"
    spec.write_text(json.dumps({"ops": workload.ops, "work": str(bench.work / "trace")}),
                    encoding="utf-8")
    proc = bench.spawn([sys.executable, str(HERE / "child.py"), "trace", str(spec),
                        str(result_path)], "trace")
    if proc.exit != 0:
        for op in workload.ops:
            tally.add(op["op"], proc.exit, [bench.log_tail("trace")])
        return {name: (0.0, unit) for name, unit in per_layer_names()}, {}
    doc = json.loads(result_path.read_text(encoding="utf-8"))
    for pass_name, done in doc["passes"].items():
        for item in done:
            _check(workload, tally, item["op"], bench.work / "trace" / pass_name,
                   item["result"]["exit"], item["result"])
    return layer_metrics(doc)


def layer_metrics(doc: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the trace child's passes and spans."""
    spans = doc["spans"]["traced"]
    own = tracing.self_times(spans)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        mine = [i for i, s in enumerate(spans) if s["name"] == name]
        metrics[f"{name}.self_s"] = (sum(own[i][0] for i in mine), "s")
        metrics[f"{name}.calls"] = (len(mine), "count")
        if name in tracing.BYTES:
            metrics[f"{name}.bytes"] = (sum(spans[i]["bytes"] or 0 for i in mine), BYTES_UNIT)
        if name in tracing.PEAK_SPANS:
            peaks = [s["peak"] for s in doc["spans"]["memory"] if s["name"] == name]
            metrics[f"{name}.peak_alloc_mb"] = (max(peaks, default=0) / MB, "MB")
    rendered = metrics["protocol.to_csv_bytes.calls"][0]
    written = metrics["protocol.write_csv.calls"][0]
    metrics["protocol.render_written_ratio"] = (written / rendered if rendered else 0.0, "ratio")
    plain = {item["op"]: item["seconds"] for item in doc["passes"]["plain"]}
    with_spans = {item["op"]: item["seconds"] for item in doc["passes"]["traced"]}
    metrics["trace.overhead_s"] = (sum(with_spans.values()) - sum(plain.values()), "s")
    for stage, op in STAGE_OPS.items():
        metrics[f"{stage}.overhead_s"] = (with_spans.get(op, 0.0) - plain.get(op, 0.0), "s")
        stage_spans = [i for i, s in enumerate(spans) if s["name"] == stage]
        wall = sum(spans[i]["end"] - spans[i]["start"] for i in stage_spans)
        covered = sum(own[i][1] * (spans[i]["end"] - spans[i]["start"]) for i in stage_spans)
        metrics[f"{stage}.covered_share"] = (covered / wall if wall else 0.0, "ratio")
    extra = {"render_written_base": f"{written}/{rendered}", "missing_spans": doc["missing"],
             "plain_op_s": plain, "traced_op_s": with_spans, "spans": spans}
    return metrics, extra


# --- reporting -----------------------------------------------------------------------------------


def environment(bench: Bench, workload: Workload) -> dict:
    import numpy
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in sorted((bench.src / "bellsim").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": bench.nproc, "threads": workload.threads,
            "generating_processes": 1, "git_commit": commit, "src_bellsim_lines": lines}


def run_workload(name: str, args, root: Path) -> dict:
    bench = Bench(root, args.seed, args.seconds)
    try:
        workload = BUILDERS[name](bench)
        tally = Tally()
        metrics, extra = (traced if args.trace else end_to_end)(bench, workload, tally)
        record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(bench, workload),
                  "correct": tally.failed == 0 and tally.attempted > 0,
                  "attempted": tally.attempted, "failed": tally.failed,
                  "failures": tally.failures[:50],
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  "extra": extra}
        bench.results.mkdir(exist_ok=True)
        (bench.results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1), encoding="utf-8")
        return record
    finally:
        bench.close()


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['attempted']} operations, {record['failed']} failed")
    for key, value in record["environment"].items():
        print(f"   env {key}: {value}")
    for name, m in record["metrics"].items():
        print(f"   {name}: {m['value']:.6g} {m['unit']}")
    extra = record["extra"]
    if record["trace"]:
        print(f"   protocol.render_written_ratio base: {extra.get('render_written_base')}")
        if extra.get("missing_spans"):
            print(f"   spans not found in bellsim: {', '.join(extra['missing_spans'])}")
    else:
        for stage in STAGE_METRICS:
            if stage in extra:
                print(f"   {stage}: {extra[stage]:.6g} s")
        print(f"   failed_ratio: {extra['failed_ratio']:.6g} failed/attempted")
        for backend, rate in extra.get("backend_trials_per_s", {}).items():
            print(f"   {backend}: {rate:.6g} trials/s")
    for failure in record["failures"][:10]:
        print(f"   FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bellsim" / "__init__.py").is_file():
        print("perfbench: no bellsim sources at ./src/bellsim; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(name, args, root) for name in names]
    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
