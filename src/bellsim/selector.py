"""Deterministic context selection and per-trial outcome randomness.

Two independent SplitMix64-based streams drive an experiment:

* the *selector* stream, seeded by the device seed, which picks the
  measurement context of every trial before any outcome is sampled;
* one *trial* stream per trial index, derived from the outcome seed by
  counter, which supplies the uniform variates the backends consume.

Both are specified arithmetically (state += GAMMA; finalize by
xor-shift/multiply avalanche) so that streams are reproducible bit-for-bit
across runs, chunkings and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .directions import Direction3
from .errors import ValidationError

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# uint64 copies for the vectorized paths
_U_GAMMA = np.uint64(GAMMA)
_U_MIX1 = np.uint64(MIX1)
_U_MIX2 = np.uint64(MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 avalanche finalizer on a 64-bit unsigned integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def _unshift(z: int, k: int) -> int:
    # inverse of z ^ (z >> k) on 64 bits: each pass fixes k more leading bits
    x = z
    for _ in range(64 // k):
        x = z ^ (x >> k)
    return x


def unmix64(z: int) -> int:
    """Inverse of :func:`mix64`: the state whose avalanche is z."""
    z = _unshift(z & MASK64, 31)
    z = _unshift((z * pow(MIX2, -1, 1 << 64)) & MASK64, 27)
    return _unshift((z * pow(MIX1, -1, 1 << 64)) & MASK64, 30)


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element, in place on z (a fresh uint64 array); returns z."""
    t = z >> _U30
    z ^= t
    z *= _U_MIX1
    np.right_shift(z, _U27, out=t)
    z ^= t
    z *= _U_MIX2
    np.right_shift(z, _U31, out=t)
    z ^= t
    return z


def validate_seed(value, name: str = "seed") -> int:
    """Parse a 64-bit unsigned seed given as int or decimal/0x-prefixed string."""
    if isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got a bool")
    if isinstance(value, str):
        try:
            parsed = int(value, 16) if value.lower().startswith("0x") else int(value, 10)
        except ValueError:
            raise ValidationError(f"{name} is not a decimal or 0x-prefixed integer: {value!r}") from None
    elif isinstance(value, int):
        parsed = value
    else:
        raise ValidationError(f"{name} must be an integer or string, got {type(value).__name__}")
    if not 0 <= parsed <= MASK64:
        raise ValidationError(f"{name} out of 64-bit unsigned range: {parsed}")
    return parsed


# --- measurement contexts ---------------------------------------------------

TEMPORAL_TAGS = ("AB", "AC", "BC")
TEMPORAL_SLOTS = ((1, 2), (1, 3), (2, 3))
CHSH_TAGS = ("AB", "ABp", "ApB", "ApBp")
CHSH_SLOTS = ((1, 3), (1, 4), (2, 3), (2, 4))


@dataclass(frozen=True)
class MeasurementContext:
    """One resolved context: tag, slot pair and the directions they map to."""

    tag: str
    slot_x: int
    slot_y: int
    dir_x: Direction3
    dir_y: Direction3


class ContextSet:
    """The fixed slot -> direction correspondence of one experiment.

    Temporal runs use three contexts AB, AC, BC over slots (1,2), (1,3),
    (2,3) with slots 1..3 mapped to directions (a, b, c).  CHSH runs use
    four contexts over slots (1,3), (1,4), (2,3), (2,4) with slots 1..4
    mapped to (a, a', b, b').  The correspondence is immutable for the
    whole experiment.
    """

    def __init__(self, kind: str, directions: tuple[Direction3, ...]):
        if kind == "temporal":
            if len(directions) != 3:
                raise ValidationError("temporal geometry needs exactly 3 directions")
            tags, slots = TEMPORAL_TAGS, TEMPORAL_SLOTS
        elif kind == "chsh":
            if len(directions) != 4:
                raise ValidationError("chsh geometry needs exactly 4 directions")
            tags, slots = CHSH_TAGS, CHSH_SLOTS
        else:
            raise ValidationError(f"unknown context-set kind {kind!r}")
        self.kind = kind
        self.directions = tuple(directions)
        self.tags = tags
        self.slots = slots
        self.contexts = tuple(
            MeasurementContext(tag, sx, sy, directions[sx - 1], directions[sy - 1])
            for tag, (sx, sy) in zip(tags, slots)
        )

    def __len__(self) -> int:
        return len(self.contexts)

    def __getitem__(self, code: int) -> MeasurementContext:
        return self.contexts[code]

    def direction_of_slot(self, slot: int) -> Direction3:
        return self.directions[slot - 1]

    def code_of_tag(self, tag: str) -> int:
        try:
            return self.tags.index(tag)
        except ValueError:
            raise ValidationError(f"unknown context tag {tag!r} for {self.kind} geometry") from None


# --- selector device ---------------------------------------------------------


@dataclass(frozen=True)
class SelectorState:
    """Selector device state: current SplitMix64 state (starts at the seed) and
    the number of contexts emitted so far."""

    state: int
    counter: int = 0

    @classmethod
    def from_seed(cls, seed: int) -> "SelectorState":
        return cls(state=validate_seed(seed, "selector_seed"), counter=0)


def _accept_bound(n_contexts: int) -> int:
    # largest multiple of n_contexts representable in 64 bits; draws at or
    # above it are rejected so the accepted range maps uniformly via mod
    return n_contexts * ((1 << 64) // n_contexts)


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


def context_codes(seed: int, n: int, n_contexts: int) -> np.ndarray:
    """Vectorized selector: the first n context codes for the given seed.

    Exactly reproduces n calls to :func:`next_context` (including the
    rejection skips, which occur with probability (2^64 mod n_contexts)/2^64
    per draw).
    """
    seed = validate_seed(seed, "selector_seed")
    if n < 0:
        raise ValidationError(f"context count must be >= 0, got {n}")
    bound = np.uint64(_accept_bound(n_contexts) - 1)  # accept z <= bound
    out = np.empty(n, dtype=np.uint8)
    got = 0
    drawn = 0
    while got < n:
        block = max(n - got, 1024)
        z = np.arange(drawn + 1, drawn + block + 1, dtype=np.uint64)
        z *= _U_GAMMA
        z += np.uint64(seed)
        _mix64_vec(z)
        drawn += block
        if z.max() > bound:  # a rejected draw: keep the accepted ones, top up in the next block
            z = z[z <= bound]
        take = min(n - got, z.size)
        q = z[:take] // np.uint64(n_contexts)  # a division by a constant, faster than remainder
        q *= np.uint64(n_contexts)
        np.subtract(z[:take], q, out=out[got : got + take], casting="unsafe")
        got += take
    return out


def state_after(seed: int, count: int, n_contexts: int) -> int:
    """The selector state once the first ``count`` contexts are emitted.

    Used as a seed, it continues the stream: ``context_codes(state_after(seed,
    lo, k), n, k)`` equals ``context_codes(seed, lo + n, k)[lo:]``, so any span
    of trials can draw its own contexts.  Draw j reads the state seed + j*GAMMA,
    which takes every 64-bit value once in 2^64 draws, and mix64 is a
    bijection; so each of the 2^64 mod n_contexts rejected values is drawn at
    exactly one index, found by inverting the avalanche, and the draws spent
    on the first ``count`` contexts are ``count`` plus the rejected ones among
    them.
    """
    seed = validate_seed(seed, "selector_seed")
    inv_gamma = pow(GAMMA, -1, 1 << 64)
    rejected = sorted(((unmix64(z) - seed) * inv_gamma) & MASK64
                      for z in range(_accept_bound(n_contexts), 1 << 64))
    drawn = count
    for j in rejected:
        if 1 <= j <= drawn:  # index 0 is the seed itself, drawn only after 2^64 draws
            drawn += 1
    return (seed + drawn * GAMMA) & MASK64


# --- per-trial outcome randomness ---------------------------------------------


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


def trial_uniforms(master_seed: int, start: int, stop: int, n_draws: int = 2) -> np.ndarray:
    """Vectorized trial streams: the first n_draws variates of trials
    start..stop-1, as an (n_draws, stop-start) float64 array.

    Row k equals TrialStream(master_seed, i).next() called k+1 times, for
    each trial index i in order.
    """
    master_seed = validate_seed(master_seed, "outcome_seed")
    s0 = np.arange(start, stop, dtype=np.uint64)
    s0 ^= np.uint64(master_seed)
    _mix64_vec(s0)
    out = np.empty((n_draws, stop - start), dtype=np.float64)
    for k in range(n_draws):
        step = np.uint64(((k + 1) * GAMMA) & MASK64)  # numpy scalar mult would warn on wrap
        z = _mix64_vec(np.add(s0, step, out=out[k].view(np.uint64)))
        z >>= _U11
        np.multiply(z, _INV_2_53, out=out[k])  # exact: z < 2^53 converts to float64 as is
    return out
