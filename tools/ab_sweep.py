"""The `sweep` stage of tools/ab.py: the six sweep backends on the in-memory library path, in one process.

    PYTHONPATH=src python tools/ab_sweep.py CONFIG OUT

Runs each of the benchmark's six sweep backends at ANGLES angles, one in
each equal part of (0, pi/2), with CONFIG's ``n_trials`` trials a run: 24
runs, each through ``run_experiment`` on 2 threads (as many as the process
may run on, if fewer) and ``estimate_correlators``, the path that the
benchmark's `sweep-backends` workload times.  Temporal runs measure
(a, b, c) at polar angles (-theta, 0, 2 theta), CHSH runs (a, a', b, b') at
(0, 2 theta, theta, 3 theta), all in the x-z plane; run r takes the
independent seed pair ((2r + 1) << 32, 2r << 32).  The finite and
contextual models are MODELS, read from the files beside CONFIG that
``write_models`` (called by tools/ab.py) wrote.

Writes to OUT one line per run: the backend, the angle's index, the SHA-256
of the run's codes, s1 and s2 columns, and its correlator means.  Two
trees that simulate alike write the same file.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

ANGLES = 4
THREADS = 2
# the documents of the finite (CHSH, 4 slots) and contextual (temporal, 3 slots per context) models, fixed so
# that both sides of an A/B read the same ones
MODELS = {
    "finite_model.json": {"lambdas": [{"weight": 0.5, "responses": [1, -1, 1, 1]},
                                      {"weight": 0.25, "responses": [-1, -1, 1, -1]},
                                      {"weight": 0.125, "responses": [1, 1, -1, -1]},
                                      {"weight": 0.125, "responses": [-1, 1, -1, 1]}]},
    "contextual_model.json": {
        "ab": {"lambdas": [{"weight": 0.625, "responses": [1, 1, -1]}, {"weight": 0.375, "responses": [-1, 1, 1]}]},
        "ac": {"lambdas": [{"weight": 0.25, "responses": [1, -1, -1]}, {"weight": 0.75, "responses": [-1, 1, 1]}]},
        "bc": {"lambdas": [{"weight": 0.5, "responses": [1, 1, 1]}, {"weight": 0.5, "responses": [-1, 1, -1]}]},
    },
}
# (backend, mode, geometry); a mode's {} is the directory of the model files
BACKENDS = (("qm_sequential", "qm_sequential", "temporal"), ("qm_singlet", "qm_singlet", "chsh"),
            ("hv:sign-model", "hv:sign-model", "temporal"), ("hv:finite", "hv:{}/finite_model.json", "chsh"),
            ("conspiracy:qm-mimic", "conspiracy:qm-mimic", "temporal"),
            ("conspiracy:contextual", "conspiracy:{}/contextual_model.json", "temporal"))


def write_models(directory: Path) -> None:
    """Write MODELS into directory, where the runs of a CONFIG in that directory read them."""
    for name, doc in MODELS.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def polar(*angles: float) -> list[list[float]]:
    return [[math.sin(phi), 0.0, math.cos(phi)] for phi in angles]


def sweep_configs(directory: Path, n_trials: int) -> list[tuple[str, int, dict]]:
    """(backend, angle index, config document) of every run, in the order the stage runs them."""
    runs = []
    for backend, mode, geometry in BACKENDS:
        for k in range(ANGLES):
            theta = (k + 0.5) * (math.pi / 2) / ANGLES
            directions = polar(-theta, 0.0, 2 * theta) if geometry == "temporal" else polar(
                0.0, 2 * theta, theta, 3 * theta)
            r = len(runs)
            runs.append((backend, k, {"mode": mode.format(directory), "directions": directions,
                                      "n_trials": n_trials, "selector_seed": (2 * r + 1) << 32,
                                      "outcome_seed": (2 * r) << 32}))
    return runs


def columns_sha256(batch) -> str:
    """The SHA-256 of a RecordBatch's codes, s1 and s2 columns, one after the other."""
    digest = hashlib.sha256()
    for column in (batch.codes, batch.s1, batch.s2):
        digest.update(column.tobytes())
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    from bellsim.protocol import ExperimentConfig, estimate_correlators, run_experiment

    config, out = Path(argv[0]), Path(argv[1])
    n_trials = json.loads(config.read_text(encoding="utf-8"))["n_trials"]
    lines = []
    for backend, k, doc in sweep_configs(config.parent, n_trials):
        batch = run_experiment(ExperimentConfig.from_dict(doc), threads=THREADS)
        means = " ".join(repr(e.mean) for e in estimate_correlators(batch).values())
        lines.append(f"{backend} {k} {columns_sha256(batch)} {means}\n")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
