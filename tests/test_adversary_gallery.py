"""Today's verdict on the adversary gallery of tests/reference.py, and on qm-mimic, over independent seed pairs.

Each device runs RUNS seed pairs of ``reference.independent_seed_pairs`` (no
two runs share a draw), N_TRIALS trials each at the README triple, and the
test pins how many runs get each verdict.  The counts are what today's
plug-in 5-sigma verdict gives, not bounds it must keep: a verdict that
stops choosing the sign of P(a,b) - P(a,c) from the data changes them on
purpose.  The memory strategy is local and none of its runs is a violation,
but its value has a mean of about 1.04 over these runs, above the bound 1
that holds for each of its trials in expectation: it steers its outcomes
by the sign that the verdict also takes from the data.
"""

from collections import Counter

import numpy as np
import pytest

from bellsim.directions import max_violation_triple
from bellsim.protocol import ExperimentConfig, analyze_records, run_experiment
from reference import crude_contextual, independent_seed_pairs, memory_strategy

RUNS = 200
N_TRIALS = 2000
# device -> (records of a config, the config's mode, verdict counts)
GALLERY = {
    "memory": (memory_strategy, "qm_sequential", {"consistent": 19, "inconclusive": 181}),
    "crude-contextual": (crude_contextual, "qm_sequential", {"consistent": 200}),
    "qm-mimic": (run_experiment, "conspiracy:qm-mimic", {"violation": 199, "inconclusive": 1}),
}


@pytest.mark.parametrize("device", list(GALLERY))
def test_verdict_counts_over_independent_seed_pairs(device):
    records_of, mode, counts = GALLERY[device]
    configs = [ExperimentConfig(mode, max_violation_triple(), N_TRIALS, selector_seed, outcome_seed)
               for selector_seed, outcome_seed in independent_seed_pairs(RUNS)]
    batches = [records_of(config) for config in configs]
    assert np.array_equal(batches[0].codes, run_experiment(configs[0]).codes)  # the seeded selector's contexts
    assert Counter(analyze_records(batch).bell.verdict for batch in batches) == counts
