"""The program side of a benchmark run, started by run.py as a child process.

    python3 perfbench/child.py sweep SPEC OUT   # untraced in-memory sweep passes
    python3 perfbench/child.py trace SPEC OUT   # memory, plain and traced passes

SPEC is a JSON file written by run.py; OUT receives the timings, the
per-operation results the checker needs and, for ``trace``, the spans.
bellsim is imported from the checkout's ``src`` (PYTHONPATH is set by
run.py).  Library functions are looked up on their modules at call time, so
the tracer's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path

import bellsim.cli as cli
import bellsim.protocol as protocol

from checks import columns_digest, context_counts
from tracing import Tracer


def _finite(x):
    # JSON has no infinities; reports print them as null too
    return x if not isinstance(x, float) or math.isfinite(x) else None


def run_cli(argv: list[str]) -> tuple[float, dict]:
    """One CLI stage in-process; returns its wall time and exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - started
    return elapsed, {"exit": code}


def run_library(config: protocol.ExperimentConfig, threads: int) -> tuple[float, dict]:
    """run_experiment -> estimate_correlators -> quantity, timed; then the checker's inputs."""
    started = time.perf_counter()
    records = protocol.run_experiment(config, threads=threads)
    estimates = protocol.estimate_correlators(records)
    quantity = protocol.bell_quantity if records.kind == "temporal" else protocol.chsh_quantity
    bell = quantity(estimates, config.sigma_threshold)
    elapsed = time.perf_counter() - started
    # outside the timed region: what the checker compares
    result = {
        "exit": 0,
        "digest": columns_digest(records.codes, records.s1, records.s2),
        "counts": context_counts(records.kind, records.codes, records.s1, records.s2).tolist(),
        "estimates": {tag: {"n": e.n, "mean": _finite(e.mean), "stderr": _finite(e.stderr)}
                      for tag, e in estimates.items()},
        "bell": {"quantity": bell.quantity, "value": _finite(bell.value), "bound": bell.bound,
                 "stderr": _finite(bell.stderr), "sigma_excess": _finite(bell.sigma_excess),
                 "verdict": bell.verdict},
    }
    return elapsed, result


def run_pass(ops: list[dict], out: Path, configs: dict, tracer: Tracer | None = None) -> list[dict]:
    out.mkdir(parents=True, exist_ok=True)
    done = []
    for op in ops:
        if tracer is not None:
            tracer.op = op["op"]
        if "argv" in op:
            elapsed, result = run_cli([a.replace("{out}", str(out)) for a in op["argv"]])
        else:
            elapsed, result = run_library(configs[op["op"]], op["threads"])
        done.append({"op": op["op"], "seconds": elapsed, "result": result})
    return done


def _configs(spec: dict) -> dict:
    return {op["op"]: protocol.ExperimentConfig.from_dict(op["config"])
            for op in spec["ops"] if "config" in op}


def sweep(spec: dict) -> dict:
    """Passes over the ops until the next pass would end after spec['seconds']."""
    configs = _configs(spec)
    started = time.perf_counter()
    passes, last = [], 0.0
    while not passes or time.perf_counter() - started + last <= spec["seconds"]:
        t0 = time.perf_counter()
        passes.append(run_pass(spec["ops"], Path(spec["work"]), configs))
        last = time.perf_counter() - t0
    return {"passes": passes}


def trace(spec: dict) -> dict:
    """A memory pass for peaks, then a plain and a traced pass for times.

    The memory pass goes first so that the plain and the traced pass both
    start from a warmed-up process; their difference is the tracing overhead.
    """
    configs = _configs(spec)
    work = Path(spec["work"])
    doc = {"passes": {}, "spans": {}, "missing": []}
    for name in ("memory", "plain", "traced"):
        tracer = None if name == "plain" else Tracer(memory=name == "memory")
        with tracer or contextlib.nullcontext():
            doc["passes"][name] = run_pass(spec["ops"], work / name, configs, tracer)
        if tracer is not None:
            doc["spans"][name] = [dataclasses.asdict(s) for s in tracer.spans]
            doc["missing"] = tracer.missing
    return doc


def main(argv: list[str]) -> int:
    mode, spec_path, out_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    doc = {"sweep": sweep, "trace": trace}[mode](spec)
    Path(out_path).write_text(json.dumps(doc), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
