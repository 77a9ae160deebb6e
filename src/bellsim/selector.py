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

import functools
import re
from typing import NamedTuple

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

_2_53 = 2.0 ** 53
_INV_2_53 = 2.0 ** -53
_INV_GAMMA = pow(GAMMA, -1, 1 << 64)
# a seed string: ASCII digits, or 0x and ASCII hex digits
_SEED_STRING = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


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
            parsed = None
        if parsed is None or not _SEED_STRING.fullmatch(value):  # int() also reads "1_000", " 12 ", "+5"
            raise ValidationError(f"{name} is not a decimal or 0x-prefixed integer: {value!r}")
    elif isinstance(value, int):
        parsed = value
    else:
        raise ValidationError(f"{name} must be an integer or string, got {type(value).__name__}")
    if not 0 <= parsed <= MASK64:
        raise ValidationError(f"{name} out of 64-bit unsigned range: {parsed}")
    return parsed


# --- measurement contexts ---------------------------------------------------

# geometry -> (context tags, their (slot_x, slot_y)); slots 1..n are the n directions
GEOMETRIES = {
    "temporal": (("AB", "AC", "BC"), ((1, 2), (1, 3), (2, 3))),
    "chsh": (("AB", "ABp", "ApB", "ApBp"), ((1, 3), (1, 4), (2, 3), (2, 4))),
}
# geometry -> its slot count, the number of directions it takes; and the geometry of each count
SLOT_COUNT = {kind: max(max(pair) for pair in slots) for kind, (_, slots) in GEOMETRIES.items()}
GEOMETRY_OF_COUNT = {n: kind for kind, n in SLOT_COUNT.items()}


class MeasurementContext(NamedTuple):
    """One resolved context: tag, slot pair and the directions they map to."""

    tag: str
    slot_x: int
    slot_y: int
    dir_x: Direction3
    dir_y: Direction3


class ContextSet:
    """The fixed slot -> direction correspondence of one experiment, immutable throughout.

    The contexts are those of ``GEOMETRIES[kind]``, slot k read as the k-th
    direction: (a, b, c) in temporal runs, (a, a', b, b') in CHSH runs.
    """

    def __init__(self, kind: str, directions: tuple[Direction3, ...]):
        if kind not in GEOMETRIES:
            raise ValidationError(f"unknown context-set kind {kind!r}")
        tags, slots = GEOMETRIES[kind]
        if len(directions) != SLOT_COUNT[kind]:
            raise ValidationError(f"{kind} geometry needs exactly {SLOT_COUNT[kind]} directions")
        self.kind, self.directions = kind, tuple(directions)
        self.tags, self.slots = tags, slots
        self.contexts = tuple(
            MeasurementContext(tag, sx, sy, directions[sx - 1], directions[sy - 1])
            for tag, (sx, sy) in zip(tags, slots)
        )

    def __len__(self) -> int:
        return len(self.contexts)

    def __getitem__(self, code: int) -> MeasurementContext:
        return self.contexts[code]


# --- selector device ---------------------------------------------------------


def _accept_bound(n_contexts: int) -> int:
    # largest multiple of n_contexts representable in 64 bits; draws at or
    # above it are rejected so the accepted range maps uniformly via mod
    return n_contexts * ((1 << 64) // n_contexts)


def context_codes(seed: int, n: int, n_contexts: int) -> np.ndarray:
    """Vectorized selector: the first n context codes for the given seed.

    Draw j is mix64(seed + j*GAMMA); a draw at or above :func:`_accept_bound`
    is rejected and the rest taken mod n_contexts, as the scalar reference in
    the tests emits them one at a time.  It draws the n draws plus the
    rejected ones among them (see :func:`_rejected_among`) in one block and
    drops the rejected ones.
    """
    seed = validate_seed(seed, "selector_seed")
    if n < 0:
        raise ValidationError(f"context count must be >= 0, got {n}")
    rejected = _rejected_among(seed, n, n_contexts)
    z = np.arange(1, n + len(rejected) + 1, dtype=np.uint64)
    z *= _U_GAMMA
    z += np.uint64(seed)
    _mix64_vec(z)
    if rejected:
        z = np.delete(z, np.subtract(rejected, 1))
    q = z // np.uint64(n_contexts)  # a division by a constant, faster than remainder
    q *= np.uint64(n_contexts)
    out = np.empty(n, dtype=np.uint8)
    np.subtract(z, q, out=out, casting="unsafe")
    return out


@functools.lru_cache(maxsize=None)
def _rejected_states(n_contexts: int) -> tuple[int, ...]:
    # the states whose avalanche is rejected, one per value at or above the accept bound
    return tuple(unmix64(z) for z in range(_accept_bound(n_contexts), 1 << 64))


def _rejected_among(seed: int, count: int, n_contexts: int) -> list[int]:
    """The rejected draw indices among the draws the first ``count`` contexts spend, in order.

    Draw j reads the state seed + j*GAMMA, which takes every 64-bit value
    once in 2^64 draws, and mix64 is a bijection; so each of the 2^64 mod
    n_contexts rejected values is drawn at exactly one index, found by
    inverting the avalanche, and ``count`` contexts spend draws 1..count plus
    one more for each rejected index among them.
    """
    indices = sorted(((state - seed) * _INV_GAMMA) & MASK64 for state in _rejected_states(n_contexts))
    rejected = []
    for j in indices:
        if 1 <= j <= count + len(rejected):  # index 0 is the seed itself, drawn only after 2^64 draws
            rejected.append(j)
    return rejected


def state_after(seed: int, count: int, n_contexts: int) -> int:
    """The selector state once the first ``count`` contexts are emitted.

    Used as a seed, it continues the stream: ``context_codes(state_after(seed,
    lo, k), n, k)`` equals ``context_codes(seed, lo + n, k)[lo:]``, so any span
    of trials can draw its own contexts.
    """
    seed = validate_seed(seed, "selector_seed")
    return (seed + (count + len(_rejected_among(seed, count, n_contexts))) * GAMMA) & MASK64


# --- per-trial outcome randomness ---------------------------------------------


def trial_uniforms(master_seed: int, start: int, stop: int, n_draws: int = 2) -> np.ndarray:
    """Vectorized trial streams: the first n_draws variates of trials
    start..stop-1, as an (n_draws, stop-start) uint64 array of fixed-point uniforms.

    Row k holds draw k+1 of each trial i's stream, in order: the top 53 bits
    m of mix64(mix64(master_seed ^ i) + (k+1)*GAMMA), the numerator of the
    uniform u = m * 2^-53 in [0, 1).  A backend compares m with
    :func:`uniform_threshold` or reads u with :func:`as_floats`.
    """
    master_seed = validate_seed(master_seed, "outcome_seed")
    out = np.empty((n_draws, stop - start), dtype=np.uint64)
    s0 = out[-1]  # each trial's stream state, until the last row's draw is made over it
    s0[...] = np.arange(start, stop, dtype=np.uint64)
    s0 ^= np.uint64(master_seed)
    _mix64_vec(s0)
    for k in range(n_draws):
        step = np.uint64(((k + 1) * GAMMA) & MASK64)  # numpy scalar mult would warn on wrap
        _mix64_vec(np.add(s0, step, out=out[k]))
        out[k] >>= _U11
    return out


def uniform_threshold(p) -> np.ndarray:
    """ceil(p * 2^53) as uint64, elementwise: a numerator m has m * 2^-53 < p exactly when m < it.

    Exact for every p in [0, 1]: p * 2^53 and m * 2^-53 are both exact in
    binary64, and m < x holds for an integer m exactly when m < ceil(x).
    So p = 0 gives 0 (never below) and p = 1 gives 2^53 (always below).
    """
    return np.ceil(np.multiply(p, _2_53)).astype(np.uint64)


def as_floats(m: np.ndarray) -> np.ndarray:
    """The uniforms m * 2^-53 of uint64 numerators m, written over m: a float64 view of its buffer."""
    u = m.view(np.float64)
    u[...] = m.view(np.int64)  # exact, as m < 2^53; numpy's plain cast loop beats a cast inside np.multiply
    u *= _INV_2_53
    return u
