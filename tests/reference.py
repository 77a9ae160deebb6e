"""The scalar reference of bellsim's selector, trial streams and run, one trial at a time.

The vectorized paths that the stages run (``selector.context_codes``,
``selector.trial_uniforms``, ``protocol.run_experiment``) must match these
bit for bit; ``test_selector.py`` and ``test_protocol.py`` compare them.
Kept beside the tests, the reference cannot change with a refactor of the
package unless the test diff shows it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from bellsim.protocol import ExperimentConfig, RecordBatch, make_sampler
from bellsim.selector import (
    _INV_2_53,
    GAMMA,
    MASK64,
    ContextSet,
    MeasurementContext,
    _accept_bound,
    mix64,
    validate_seed,
)


class SelectorState(NamedTuple):
    """Selector device state: current SplitMix64 state (starts at the seed) and
    the number of contexts emitted so far."""

    state: int
    counter: int = 0

    @classmethod
    def from_seed(cls, seed: int) -> "SelectorState":
        return cls(state=validate_seed(seed, "selector_seed"), counter=0)


def next_context(state: SelectorState, contexts: ContextSet) -> tuple[MeasurementContext, SelectorState]:
    """Emit the next context; returns it with the advanced selector state.

    Advances the SplitMix64 recurrence and maps the draw onto the context
    set by rejection: draws >= n*floor(2^64/n) are discarded, the rest
    taken mod n.  The emitted sequence is a pure function of the seed and
    the emission counter.
    """
    bound = _accept_bound(len(contexts))
    s = state.state
    while True:
        s = (s + GAMMA) & MASK64
        z = mix64(s)
        if z < bound:
            code = z % len(contexts)
            return contexts[code], SelectorState(state=s, counter=state.counter + 1)


class TrialStream:
    """Uniform variates in [0, 1) for one trial, independent across trials.

    The stream state is seeded with mix64(master_seed XOR trial_index), so
    any trial's stream can be derived directly from its index without
    generating its predecessors.
    """

    __slots__ = ("_state",)

    def __init__(self, master_seed: int, trial_index: int):
        self._state = mix64((master_seed ^ trial_index) & MASK64)

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        return mix64(self._state)

    def next(self) -> float:
        """Next uniform double in [0, 1), from the top 53 bits of the draw."""
        return (self.next_u64() >> 11) * _INV_2_53


def derive_trial_randomness(master_seed: int, trial_index: int) -> TrialStream:
    """The outcome-sampling stream for one trial (see :class:`TrialStream`)."""
    return TrialStream(validate_seed(master_seed, "outcome_seed"), trial_index)


def _run_reference(config: ExperimentConfig, model=None) -> RecordBatch:
    # per-trial scalar path; the vectorized runner must match it bit-for-bit
    sampler = make_sampler(config, model=model)
    contexts = sampler.contexts
    sel = SelectorState.from_seed(config.selector_seed)
    n = config.n_trials
    codes = np.empty(n, dtype=np.uint8)
    s1 = np.empty(n, dtype=np.int8)
    s2 = np.empty(n, dtype=np.int8)
    for i in range(n):
        ctx, sel = next_context(sel, contexts)
        code = contexts.contexts.index(ctx)
        stream = derive_trial_randomness(config.outcome_seed, i)
        u1 = stream.next()
        u2 = stream.next()
        codes[i], (s1[i], s2[i]) = code, sampler.trial(code, u1, u2)
    return RecordBatch(config.geometry, codes, s1, s2)


def independent_seed_pairs(count: int) -> list[tuple[int, int]]:
    """(selector_seed, outcome_seed) of ``count`` runs of fewer than 2**32 trials that share no draw.

    Run k takes the selector seed (2k + 1) << 32 and the outcome seed 2k << 32.
    Two outcome seeds differ in a bit at or above bit 32, so the runs' trial
    streams, seeded with mix64(outcome_seed ^ i), come from disjoint sets; two
    selector seeds lie a nonzero multiple of 2**32 draws apart on the one
    SplitMix64 cycle, so neither run's selector reaches the other's draws.
    """
    return [((2 * k + 1) << 32, (2 * k) << 32) for k in range(count)]
