"""The paper's B(theta) curve: at 8 angles, one in each eighth of (0, pi/2), sampled runs against `bellsim oracle`.

Temporal runs measure (a, b, c) at polar angles (-theta, 0, 2 theta), CHSH runs
(a, a', b, b') at (0, 2 theta, theta, 3 theta), all in the x-z plane.  The
quantum backends and the conspiracy that mimics them follow the oracle within
5 standard errors, and the oracle prints the closed form of the quantum curve;
hidden-variable backends stay at or below the bound: exactly in the oracle and
within 5 standard errors when sampled.

Over a grid of coplanar triples the quantum value never exceeds 3/2 and
reaches it at 0, 60 and 120 degrees, while the sign model and finite models
stay at or below 1.
"""

import json
import math

import pytest

from bellsim.cli import main
from bellsim.directions import Direction3
from bellsim.hidden_variables import random_finite_model, write_model
from bellsim.protocol import ExperimentConfig, analyze_records, make_sampler, run_experiment

N_TRIALS = 200_000
K = 5.0
ANGLES = [(i + 0.5) * math.pi / 16 for i in range(8)]


def polar(*angles):
    return tuple(Direction3.from_polar(theta) for theta in angles)


def oracle(path, capsys, mode, directions) -> dict:
    path.write_text(json.dumps({"mode": mode, "directions": [[d.x, d.y, d.z] for d in directions],
                                "n_trials": N_TRIALS, "selector_seed": 1, "outcome_seed": 2}))
    assert main(["oracle", "--config", str(path)]) == 0
    return json.loads(capsys.readouterr().out)["quantity"]


def test_b_theta_curve(tmp_path, capsys):
    off = []
    for i, theta in enumerate(ANGLES):
        cos1, cos2, cos3 = (math.cos(m * theta) for m in (1, 2, 3))
        temporal, chsh = polar(-theta, 0.0, 2 * theta), polar(0.0, 2 * theta, theta, 3 * theta)
        models = {}
        for n_slots in (3, 4):
            models[n_slots] = random_finite_model(100 * i + n_slots, 2 + i, n_slots=n_slots)
            write_model(models[n_slots], tmp_path / f"finite{n_slots}.json")
        # (mode, directions, in-memory model, closed form of the oracle or None for a bound-keeping backend)
        runs = [("qm_sequential", temporal, None, abs(cos1 - cos3) + cos2),
                ("conspiracy:qm-mimic", temporal, None, abs(cos1 - cos3) + cos2),
                ("hv:sign-model", temporal, None, None),
                (f"hv:{tmp_path / 'finite3.json'}", temporal, models[3], None),
                ("qm_singlet", chsh, None, abs(cos3 - cos1) + 2 * cos1),
                ("hv:sign-model", chsh, None, None),
                (f"hv:{tmp_path / 'finite4.json'}", chsh, models[4], None)]
        for j, (mode, directions, model, closed) in enumerate(runs):
            exact = oracle(tmp_path / "cfg.json", capsys, mode, directions)
            config = ExperimentConfig(mode, directions, N_TRIALS, 1000 * i + j, 2000 * i + j)
            bell = analyze_records(run_experiment(config, model=model)).bell
            where = f"theta {theta:.4f}, {mode if model is None else f'{model.responses.shape[1]}-slot model'}"
            if closed is not None:
                assert exact["value"] == pytest.approx(closed, abs=1e-11), where
                z = (bell.value - exact["value"]) / bell.stderr
                if abs(z) > K:
                    off.append(f"{where}: sampled {bell.value} is {z:.2f} standard errors from {exact['value']}")
            else:
                assert exact["value"] <= exact["bound"], where  # as printed, to 12 significant digits
                if bell.value > exact["bound"] + K * bell.stderr:
                    off.append(f"{where}: sampled {bell.value} above the bound {exact['bound']} + {K} sigma")
    assert off == []


def oracle_value(mode, directions, model=None) -> float:
    # |P(a,b) - P(a,c)| + P(b,c) from the backend's exact correlators, as `bellsim oracle` computes it
    sampler = make_sampler(ExperimentConfig(mode, directions, 1, 0, 0), model=model)
    ab, ac, bc = (sampler.exact_moments(code)[2] for code in range(3))
    return abs(ab - ac) + bc


def test_the_temporal_maximum_is_three_halves(tmp_path, capsys):
    # coplanar triples (0, beta, gamma) on a 10-degree grid; rotating all three changes no correlator
    grid = [polar(0.0, math.radians(beta), math.radians(gamma)) for beta in range(0, 360, 10)
            for gamma in range(0, 360, 10)]
    qm = [oracle_value("qm_sequential", triple) for triple in grid]
    assert max(qm) <= 1.5 + 1e-12
    best = polar(*(math.radians(d) for d in (0, 60, 120)))
    assert oracle_value("qm_sequential", best) == pytest.approx(1.5, abs=1e-12)
    assert oracle(tmp_path / "cfg.json", capsys, "qm_sequential", best)["value"] == 1.5
    assert max(oracle_value("hv:sign-model", triple) for triple in grid) <= 1.0 + 1e-12
    for seed in range(20):
        model = random_finite_model(seed, 1 + seed % 7)
        assert max(oracle_value("hv:model.json", triple, model) for triple in grid[::37]) <= 1.0 + 1e-12
