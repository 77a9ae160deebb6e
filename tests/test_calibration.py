"""Calibration of the six sweep backends over independent seed pairs: sampled against exact values.

Each backend runs RUNS seed pairs of ``reference.independent_seed_pairs`` (no
two runs share a draw), N_TRIALS trials each, on 2 threads, so every run but
the first of each count takes the shared span pool.  Per run:

- for each context whose exact correlator E (``exact_moments``) has |E| < 1,
  z = (sampled mean - E) / the estimate's stderr;
- for the inequality, z = (sampled value - oracle value) / the report's
  stderr, the oracle value being the inequality of the exact correlators,
  as ``bellsim oracle`` prints it.

The bounds.  Under independence each z is close to standard normal: a
context holds about N_TRIALS / 4 to N_TRIALS / 3 trials, and each absolute
term of the value stays at least MARGIN from 0, over 5 of the value's
standard errors (at most 0.03), so the value is linear in the correlators
where it is sampled.  Of N independent standard normal z the mean has
standard error 1 / sqrt(N) and the sample standard deviation about
1 / sqrt(2 (N - 1)).  Each is held within K of its standard errors of 0 and
of 1 respectively.  Each such check fails falsely with probability
2 Phi(-K) = 6.8e-6, and the 24 checks (6 backends x {correlators, value} x
{mean, sd}) together with at most 1.6e-4, by the union bound.  For the
correlators of a temporal backend N = 600 (mean within 0.18, sd within 0.13),
of a CHSH backend N = 800 (0.16, 0.11); for the values N = 200 (0.32, 0.23).
Runs that share draws fail them: at selector seeds 1000 + s and outcome
seeds 5000 + s, whose runs share their trial streams, each of the six
backends failed at least one check (qm_sequential's correlator z had a mean
of +0.41), and the last test keeps that case.

A context whose exact correlator is +1 or -1 (up to the float rounding of
its model's weights, CERTAIN) has no z: each of its trials gives that
product, so its sampled mean must be exactly +1 or -1 and its stderr 0,
which adds nothing to the value's stderr.  It is checked for exactly
that and left out of the z-scores (the contextual model's BC context here).
"""

import math

import numpy as np
import pytest

from bellsim.directions import Direction3
from bellsim.hidden_variables import ContextualFiniteModel, random_finite_model
from bellsim.protocol import (INEQUALITIES, ExperimentConfig, bell_quantity, chsh_quantity, estimate_correlators,
                              make_sampler, run_experiment)
from reference import independent_seed_pairs

RUNS = 200
N_TRIALS = 20_000
K = 4.5
MARGIN = 0.15
CERTAIN = 1e-12  # an exact correlator this close to +-1 is +-1 up to the rounding of its weights' sum
THETA = 3 * math.pi / 16  # one of the sweep's eight angles
TEMPORAL = tuple(Direction3.from_polar(t) for t in (-THETA, 0.0, 2 * THETA))
CHSH = tuple(Direction3.from_polar(t) for t in (0.0, 2 * THETA, THETA, 3 * THETA))
QUANTITY = {"temporal": bell_quantity, "chsh": chsh_quantity}
# the terms inside the absolute values of each geometry's inequality
ABSOLUTE_TERMS = {"temporal": lambda e: [e["AB"] - e["AC"]],
                  "chsh": lambda e: [e["AB"] - e["ABp"], e["ApBp"] + e["ApB"]]}
# (backend, mode, directions, in-memory model)
BACKENDS = [
    ("qm_sequential", "qm_sequential", TEMPORAL, None),
    ("qm_singlet", "qm_singlet", CHSH, None),
    ("hv:sign-model", "hv:sign-model", TEMPORAL, None),
    ("hv:finite", "hv:finite.json", CHSH, random_finite_model(22, 6, n_slots=4)),
    ("conspiracy:qm-mimic", "conspiracy:qm-mimic", TEMPORAL, None),
    ("conspiracy:contextual", "conspiracy:contextual.json", TEMPORAL,
     ContextualFiniteModel({tag: random_finite_model(40 + i, 5) for i, tag in enumerate(("AB", "AC", "BC"))})),
]


def within(z: list[float], what: str) -> list[str]:
    """What is wrong with the mean and sample sd of z against K of their standard errors under independence."""
    n = len(z)
    mean, sd = float(np.mean(z)), float(np.std(z, ddof=1))
    mean_bound, sd_bound = K / math.sqrt(n), K / math.sqrt(2 * (n - 1))
    return ([f"{what}: mean {mean:+.4f} of {n} z-scores is beyond +-{mean_bound:.4f}"] * (abs(mean) > mean_bound)
            + [f"{what}: sd {sd:.4f} of {n} z-scores is beyond 1 +- {sd_bound:.4f}"] * (abs(sd - 1) > sd_bound))


def z_scores(mode, directions, model, seed_pairs) -> tuple[list[float], list[float], list[tuple]]:
    """The correlator and value z-scores of a run per seed pair, and (tag, mean, stderr) of each certain context."""
    sampler = make_sampler(ExperimentConfig(mode, directions, 1, 0, 0), model=model)
    exact = {tag: sampler.exact_moments(code)[2] for code, tag in enumerate(sampler.contexts.tags)}
    kind = sampler.contexts.kind
    oracle = INEQUALITIES[kind][2](exact)
    assert min(abs(term) for term in ABSOLUTE_TERMS[kind](exact)) >= MARGIN
    correlator_z, value_z, certain = [], [], []
    for selector_seed, outcome_seed in seed_pairs:
        config = ExperimentConfig(mode, directions, N_TRIALS, selector_seed, outcome_seed)
        estimates = estimate_correlators(run_experiment(config, model=model, threads=2))
        for tag, estimate in estimates.items():
            if abs(exact[tag]) > 1.0 - CERTAIN:
                certain.append((math.copysign(1.0, exact[tag]), estimate.mean, estimate.stderr))
            else:
                correlator_z.append((estimate.mean - exact[tag]) / estimate.stderr)
        bell = QUANTITY[kind](estimates)
        value_z.append((bell.value - oracle) / bell.stderr)
    return correlator_z, value_z, certain


@pytest.mark.parametrize("backend,mode,directions,model", BACKENDS, ids=[b[0] for b in BACKENDS])
def test_z_scores_of_independent_runs_are_standard_normal(backend, mode, directions, model):
    correlator_z, value_z, certain = z_scores(mode, directions, model, independent_seed_pairs(RUNS))
    assert all(mean == exact and stderr == 0.0 for exact, mean, stderr in certain)
    assert within(correlator_z, f"{backend} correlators") + within(value_z, f"{backend} value") == []


def test_runs_that_share_draws_fail_the_bounds():
    # outcome seeds 5000 + s differ only below bit 15, so at 20 000 trials the runs draw on one set of trial streams
    correlator_z, value_z, _ = z_scores("qm_sequential", TEMPORAL, None, [(1000 + s, 5000 + s) for s in range(RUNS)])
    assert within(correlator_z, "correlators") != []
