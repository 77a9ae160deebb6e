"""Workload inputs, generated from the workload seed.

Every input the program receives (configs, hidden-variable model files, the
foreign CRLF records file) is derived here from ``--seed`` and written into
the run's work directory before any timed region starts.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
MASK64 = (1 << 64) - 1

# README config: qm_sequential at the optimal triple, 3 M trials, 1 thread.
README_DIRECTIONS = [[-0.7071067811865475, 0.0, 0.7071067811865475],
                     [0.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0]]
README_SELECTOR_SEED = 0xB0E1
README_OUTCOME_SEED = 12648430
PIPELINE_TRIALS = 3_000_000
PIPELINE_THREADS = 1

# The four CHSH settings (a, a', b, b') at 0/90/45/135 degrees.
TSIRELSON_DEGREES = (0.0, 90.0, 45.0, 135.0)
REANALYZE_TRIALS = 1_000_000

SWEEP_TRIALS = 1_000_000
SWEEP_ANGLES = 8
SWEEP_BACKENDS = ("qm_sequential", "qm_singlet", "hv:sign-model", "hv:finite",
                  "conspiracy:qm-mimic", "conspiracy:contextual")


def derive_seed(seed: int, label: str) -> int:
    """A 64-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") & MASK64


def _polar(phi: float) -> list[float]:
    """Unit vector in the x-z plane, at polar angle phi from +z towards +x."""
    return [math.sin(phi), 0.0, math.cos(phi)]


def temporal_directions(theta: float) -> list[list[float]]:
    """(a, b, c) with b = +z, c at 2*theta and a at -theta.

    B(theta) = |cos(theta) - cos(3 theta)| + cos(2 theta) for quantum
    correlators; theta = pi/4 is the optimal triple (B = sqrt 2).
    """
    return [_polar(-theta), _polar(0.0), _polar(2.0 * theta)]


def chsh_directions(theta: float) -> list[list[float]]:
    """(a, a', b, b') at 0, 2*theta, theta, 3*theta; theta = pi/4 is Tsirelson's."""
    return [_polar(0.0), _polar(2.0 * theta), _polar(theta), _polar(3.0 * theta)]


def _config(mode, directions, n_trials, seed, label) -> dict:
    return {
        "mode": mode,
        "directions": directions,
        "n_trials": n_trials,
        "selector_seed": derive_seed(seed, label + ".selector"),
        "outcome_seed": derive_seed(seed, label + ".outcome"),
        "sigma_threshold": 5.0,
    }


def random_finite_model(rng: np.random.Generator, n_slots: int, n_lambda: int = 6) -> dict:
    """A finite hidden-variable model document with random weights and responses."""
    w = rng.random(n_lambda) + 0.05
    w = w / w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    responses = rng.choice([-1, 1], size=(n_lambda, n_slots))
    return {"lambdas": [{"weight": float(wi), "responses": [int(r) for r in row]}
                        for wi, row in zip(w, responses)]}


def pipeline_config(seed: int) -> dict:
    """The README config; its seeds are the README's for the default seed."""
    if seed == DEFAULT_SEED:
        selector, outcome = README_SELECTOR_SEED, README_OUTCOME_SEED
    else:
        selector = derive_seed(seed, "pipeline.selector")
        outcome = derive_seed(seed, "pipeline.outcome")
    return {
        "mode": "qm_sequential",
        "directions": README_DIRECTIONS,
        "n_trials": PIPELINE_TRIALS,
        "selector_seed": selector,
        "outcome_seed": outcome,
        "sigma_threshold": 5.0,
    }


def reanalyze_config(seed: int) -> dict:
    """qm_singlet at the Tsirelson quadruple; the records file is made from it."""
    dirs = [_polar(math.radians(d)) for d in TSIRELSON_DEGREES]
    return _config("qm_singlet", dirs, REANALYZE_TRIALS, seed, "reanalyze")


def sweep_angles(seed: int) -> list[float]:
    """One angle in each of SWEEP_ANGLES equal strata of (0, pi/2)."""
    rng = np.random.default_rng(derive_seed(seed, "sweep.angles"))
    width = (math.pi / 2.0) / SWEEP_ANGLES
    return [(k + float(rng.uniform(0.05, 0.95))) * width for k in range(SWEEP_ANGLES)]


def sweep_specs(seed: int, work: Path) -> list[dict]:
    """Configs of the backend sweep; the model files are written into work."""
    rng = np.random.default_rng(derive_seed(seed, "sweep.models"))
    finite_path = work / "finite_model.json"
    contextual_path = work / "contextual_model.json"
    finite_path.write_text(json.dumps(random_finite_model(rng, 4)), encoding="utf-8")
    contextual = {key: random_finite_model(rng, 3) for key in ("ab", "ac", "bc")}
    contextual_path.write_text(json.dumps(contextual), encoding="utf-8")
    modes = {
        "qm_sequential": ("qm_sequential", "temporal"),
        "qm_singlet": ("qm_singlet", "chsh"),
        "hv:sign-model": ("hv:sign-model", "temporal"),
        "hv:finite": (f"hv:{finite_path}", "chsh"),
        "conspiracy:qm-mimic": ("conspiracy:qm-mimic", "temporal"),
        "conspiracy:contextual": (f"conspiracy:{contextual_path}", "temporal"),
    }
    specs = []
    for backend in SWEEP_BACKENDS:
        mode, geometry = modes[backend]
        for k, theta in enumerate(sweep_angles(seed)):
            dirs = temporal_directions(theta) if geometry == "temporal" else chsh_directions(theta)
            label = f"sweep.{backend}.{k}"
            specs.append({"op": f"{backend}@{k}", "backend": backend, "theta": theta,
                          "config": _config(mode, dirs, SWEEP_TRIALS, seed, label)})
    return specs


def model_documents(specs: list[dict]) -> dict[str, dict]:
    """Model file contents by mode argument, for the analytic correlators."""
    docs = {}
    for spec in specs:
        mode = spec["config"]["mode"]
        arg = mode.split(":", 1)[1] if ":" in mode else ""
        if arg.endswith(".json") and arg not in docs:
            docs[arg] = json.loads(Path(arg).read_text(encoding="utf-8"))
    return docs
