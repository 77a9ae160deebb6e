"""The scalar reference of bellsim's selector, trial streams and run, one trial at a time, and an adversary gallery.

The vectorized paths that the stages run (``selector.context_codes``,
``selector.trial_uniforms``, ``protocol.run_experiment``) must match these
bit for bit; ``test_selector.py`` and ``test_protocol.py`` compare them.
Kept beside the tests, the reference cannot change with a refactor of the
package unless the test diff shows it.

``read_records`` joins the steps that ``protocol.RecordReader`` yields
into a ``RecordBatch``, for the tests that compare a file's columns.

The gallery holds devices that no mode runs, as temporal records under the
seeded selector: ``memory_strategy``, local but with memory, and
``crude_contextual``, whose first outcome depends on the context.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from bellsim.protocol import ExperimentConfig, RecordBatch, RecordReader, make_sampler, run_experiment
from bellsim.selector import (
    _INV_2_53,
    GAMMA,
    GEOMETRIES,
    MASK64,
    ContextSet,
    MeasurementContext,
    _accept_bound,
    context_codes,
    mix64,
    trial_uniforms,
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


def numerators(u) -> np.ndarray:
    """The uint64 numerators m = u * 2^53 that a sampler's run takes for float uniforms u in [0, 1).

    Each u must be a multiple of 2^-53, as every uniform a trial stream draws
    (and numpy's ``Generator.random``) is; any other float raises ValueError.
    """
    u = np.asarray(u, dtype=np.float64)
    m = (u * 2.0 ** 53).astype(np.uint64)
    if not (np.all((u >= 0.0) & (u < 1.0)) and np.array_equal(m * _INV_2_53, u)):
        raise ValueError("uniforms must be multiples of 2^-53 in [0, 1)")
    return m


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


def read_records(path) -> tuple[RecordBatch, RecordReader]:
    """A records file's columns as a batch, joined from the steps RecordReader yields, and the reader.

    The reader answers for the file as read: its SHA-256 and outcome counts,
    which the batch would compute afresh from its columns.
    """
    with open(path, "rb") as f:
        reader = RecordReader(f)
        columns = [step[1:] for step in reader]
    return RecordBatch(reader.kind, *(np.concatenate(col) for col in zip(*columns))), reader


# the product patterns (ab, ac, bc) that outcomes a, b, c of +-1 can give: ab * ac * bc = 1
_PATTERNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


def memory_strategy(config: ExperimentConfig) -> RecordBatch:
    """Temporal records of a local strategy with memory of past contexts and outcomes, under the seeded selector.

    Before trial i the device fixes the outcomes a, b, c of all three
    settings from the contexts and outcomes of trials 0..i-1 alone; the
    selector then draws the context, which reveals two of them.  Of the four
    product patterns (ab, ac, bc) it takes the one that most raises
    |P(a,b) - P(a,c)| + P(b,c) on its running estimates if the next context
    is drawn uniformly: with sign the sign of P(a,b) - P(a,c) and n_c the
    trials so far in context c, the largest
    sign * ab / (n_AB + 1) - sign * ac / (n_AC + 1) + bc / (n_BC + 1), the
    first on a tie.  Bit 52 of the trial's first uniform gives a's sign.
    Each trial is local, so the bound 1 holds in expectation whatever the
    device remembers (Barrett, Collins, Hardy, Kent & Popescu, PRA 66,
    042111 (2002)).  The config's mode and directions are not read.
    """
    slots = GEOMETRIES["temporal"][1]
    n = config.n_trials
    codes = context_codes(config.selector_seed, n, len(slots))
    first = (trial_uniforms(config.outcome_seed, 0, n)[0] >> np.uint64(52)).tolist()
    s1, s2 = np.empty(n, np.int8), np.empty(n, np.int8)
    sums, counts = [0, 0, 0], [0, 0, 0]
    for i, code in enumerate(codes.tolist()):
        sign = 1 if sums[0] * counts[1] >= sums[1] * counts[0] else -1  # P(a,b) >= P(a,c); +1 until both have trials
        g = (sign / (counts[0] + 1), -sign / (counts[1] + 1), 1 / (counts[2] + 1))
        ab, ac, _ = max(_PATTERNS, key=lambda p: p[0] * g[0] + p[1] * g[1] + p[2] * g[2])
        a = 1 if first[i] else -1
        outcomes = (a, a * ab, a * ac)  # a, b, c
        sx, sy = slots[code]
        s1[i], s2[i] = outcomes[sx - 1], outcomes[sy - 1]
        sums[code] += outcomes[sx - 1] * outcomes[sy - 1]
        counts[code] += 1
    return RecordBatch("temporal", codes, s1, s2)


def crude_contextual(config: ExperimentConfig) -> RecordBatch:
    """The config's temporal records with s1 set to +1 in context AB only.

    The first setting a is measured in AB and in AC alike, so no model whose
    outcomes ignore the context can make P(s1 = +1) 1 in AB and not in AC.
    """
    batch = run_experiment(config)
    s1 = np.where(batch.codes == GEOMETRIES["temporal"][0].index("AB"), 1, batch.s1)
    return RecordBatch(batch.kind, batch.codes, s1, batch.s2)
