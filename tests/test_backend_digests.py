"""Records SHA-256 of every sweep backend at 50 000 trials, pinned on one and on two threads.

The digests were computed before the sampler kernels were last rewritten,
so they hold each backend's records, not only qm_sequential's (the golden
hash in test_protocol.py), bit for bit at a size where every span path runs.
The finite models put several tiny weights into one cell of the finite
samplers' bucket grid, so the lookup's inner thresholds are exercised too.
"""

import pytest

import bellsim.protocol as protocol
from bellsim.directions import Direction3, tsirelson_quadruple
from bellsim.hidden_variables import ContextualFiniteModel, FiniteHVModel
from bellsim.protocol import ExperimentConfig, run_experiment

N_TRIALS = 50_000
# non-coplanar, so the sign model's projections keep their y terms
TRIPLE = tuple(Direction3.from_polar(theta, phi) for theta, phi in [(0.3, 0.2), (1.1, -0.7), (2.0, 1.3)])
QUAD = tsirelson_quadruple()

# thresholds 0.3, 0.30001, 0.30003 share one cell of 1/4096, and 0.30006 starts the next
FINITE = FiniteHVModel([0.3, 1e-5, 2e-5, 3e-5, 0.25, 0.44994],
                       [[1, 1, -1, 1], [-1, 1, 1, -1], [1, -1, -1, -1], [-1, -1, 1, 1],
                        [1, -1, 1, 1], [-1, 1, -1, 1]])
CONTEXTUAL = ContextualFiniteModel({
    "AB": FiniteHVModel([0.5, 0.5], [[1, 1, -1], [-1, -1, 1]]),
    "AC": FiniteHVModel([0.125, 2e-6, 3e-6, 0.874995], [[1, -1, 1], [-1, 1, -1], [1, 1, 1], [-1, -1, 1]]),
    "BC": FiniteHVModel([0.7, 0.1, 0.2], [[1, 1, 1], [-1, -1, -1], [1, -1, 1]]),
})

CASES = {
    "qm_sequential": (("qm_sequential", TRIPLE, None),
                      "de52952d5ba8240fc70cb46b2295614ff23ccbbe992633652d05f9f8077d06c2"),
    "qm_singlet": (("qm_singlet", QUAD, None),
                   "c40cdf042db904baf9cd5231d46c4d473500371df2bb3309b34bcd0f96574c55"),
    "hv:sign-model": (("hv:sign-model", TRIPLE, None),
                      "7c7cd4893858200ca00dc95492426f85421e316a825a8022975bb5445fcdd549"),
    "hv:finite": (("hv:finite.json", QUAD, FINITE),
                  "3f4772847584d4ec270a40a5d80f554ce682900ccf4ee3eb386df64b421f979a"),
    "conspiracy:qm-mimic": (("conspiracy:qm-mimic", TRIPLE, None),
                            "aee5ab4be7b795465bbc6d4ad83c8bd558da893e0532918a2a2ac0bdcb6957e4"),
    "conspiracy:contextual": (("conspiracy:contextual.json", TRIPLE, CONTEXTUAL),
                              "c2f5c16dd7d199d916c32a8a07cd0d4f689379cb84b124756ecd367614a20d74"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("backend", list(CASES))
def test_records_digest_of_every_backend(backend, threads, monkeypatch):
    monkeypatch.setattr(protocol, "_usable_cpus", lambda: threads)  # the pool on any host
    (mode, directions, model), digest = CASES[backend]
    config = ExperimentConfig(mode, directions, N_TRIALS, selector_seed=0xB0E1 + len(backend),
                              outcome_seed=12648430 ^ len(mode))
    assert run_experiment(config, model=model, threads=threads).sha256() == digest
