"""Exact quantum mechanics of spin-1/2 measurements.

Pure states, projective measurement with collapse, sequential correlators on
one particle and joint correlators on an entangled pair.  Everything is
explicit complex-amplitude arithmetic; randomness enters only through the
uniform variates the caller passes in, so all functions are pure.

The brute-force correlators enumerate outcome branches with the same
projector arithmetic and serve as independent oracles for the closed-form
values (d1.d2 for two consecutive measurements, -dA.dB for the singlet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .directions import Direction3
from .errors import ValidationError
from .selector import ContextSet

NORM_TOL = 1e-12
# squared-norm floor below which a projected branch counts as empty
_DEGENERATE_TOL = 1e-24

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENT2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class QubitState:
    """Normalized spin-1/2 state: amplitudes on |up_z> and |down_z>."""

    amp_up: complex
    amp_down: complex

    def __post_init__(self):
        n2 = abs(self.amp_up) ** 2 + abs(self.amp_down) ** 2
        if abs(n2 - 1.0) > NORM_TOL:
            raise ValidationError(f"qubit state not normalized: |amp|^2 = {n2!r}")

    @classmethod
    def up(cls) -> "QubitState":
        return cls(1.0 + 0.0j, 0.0j)

    def vector(self) -> np.ndarray:
        return np.array([self.amp_up, self.amp_down], dtype=complex)


def pauli_dot(n: Direction3) -> np.ndarray:
    """The 2x2 observable n . sigma."""
    return n.x * SIGMA_X + n.y * SIGMA_Y + n.z * SIGMA_Z


def _projector(n: Direction3, outcome: int) -> np.ndarray:
    return (IDENT2 + outcome * pauli_dot(n)) / 2.0


def _check_u(u: float) -> None:
    if not 0.0 <= u < 1.0:
        raise ValidationError(f"uniform variate must lie in [0, 1), got {u!r}")


def _eigenstate(n: Direction3, outcome: int) -> QubitState:
    # closed-form eigenvector of n.sigma; only used when the projected
    # branch has zero weight and cannot be normalized
    rxy = math.hypot(n.x, n.y)
    phase = complex(n.x / rxy, n.y / rxy) if rxy > 1e-15 else 1.0 + 0.0j
    if outcome == 1:
        return QubitState(math.sqrt((1.0 + n.z) / 2.0), math.sqrt((1.0 - n.z) / 2.0) * phase)
    return QubitState(math.sqrt((1.0 - n.z) / 2.0), -math.sqrt((1.0 + n.z) / 2.0) * phase)


def _born(psi: np.ndarray, projector: np.ndarray) -> float:
    """<psi|P|psi>, the Born-rule probability of the projector's outcome, clipped to [0, 1]."""
    p = float(np.real(np.vdot(psi, projector @ psi)))
    return min(1.0, max(0.0, p))


def _project(psi: np.ndarray, projector: np.ndarray) -> np.ndarray | None:
    """P psi renormalized (the collapsed state), or None for a branch of zero weight."""
    v = projector @ psi
    n2 = float(np.real(np.vdot(v, v)))
    if n2 < _DEGENERATE_TOL:
        return None
    s = math.sqrt(n2)
    # Python's complex / float per amplitude: numpy's v / s can round differently in the last bit
    return np.array([complex(a) / s for a in v])


def prob_plus(state: QubitState, n: Direction3) -> float:
    """Probability of outcome +1 when measuring n.sigma, clipped to [0, 1]."""
    return _born(state.vector(), _projector(n, +1))


def collapse(state: QubitState, n: Direction3, outcome: int) -> QubitState:
    """Post-measurement state for the given outcome of n.sigma."""
    if outcome not in (-1, 1):
        raise ValidationError(f"outcome must be +1 or -1, got {outcome!r}")
    psi = _project(state.vector(), _projector(n, outcome))
    return _eigenstate(n, outcome) if psi is None else QubitState(*psi.tolist())


def measure_spin(state: QubitState, n: Direction3, u: float) -> tuple[int, QubitState]:
    """Projective spin measurement along n.

    The outcome is +1 iff u < P(+1); the returned post-state is the
    eigenstate of n.sigma belonging to that outcome (projected and
    renormalized, so repeating the measurement reproduces the outcome).
    """
    _check_u(u)
    p_plus = prob_plus(state, n)
    outcome = 1 if u < p_plus else -1
    return outcome, collapse(state, n, outcome)


def brute_force_sequential_correlator(
    state0: QubitState, d1: Direction3, d2: Direction3
) -> float:
    """E[s1*s2] by explicit enumeration of the four outcome branches.

    Sums s1*s2 * p(s1) * p(s2|s1) using projector arithmetic only; agrees
    with d1.d2 to machine precision for every initial state.
    """
    total = 0.0
    p_plus1 = prob_plus(state0, d1)
    for s1 in (+1, -1):
        p1 = p_plus1 if s1 == 1 else 1.0 - p_plus1
        if p1 <= 0.0:
            continue
        after = collapse(state0, d1, s1)
        p_plus2 = prob_plus(after, d2)
        for s2 in (+1, -1):
            p2 = p_plus2 if s2 == 1 else 1.0 - p_plus2
            total += s1 * s2 * p1 * p2
    return total


# --- entangled pair -----------------------------------------------------------

# the singlet (|ud> - |du>)/sqrt(2), amplitudes on the z(x)z product basis |uu>, |ud>, |du>, |dd>
_SINGLET = np.array([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], dtype=complex)
_SINGLET.flags.writeable = False


def _pair_projector(n: Direction3, outcome: int, particle: int) -> np.ndarray:
    p = _projector(n, outcome)
    return np.kron(p, IDENT2) if particle == 0 else np.kron(IDENT2, p)


def _prob_plus_pair(psi: np.ndarray, n: Direction3, particle: int) -> float:
    # probability that measuring particle 0 or 1 of the pair state psi along n gives +1
    return _born(psi, _pair_projector(n, +1, particle))


def _collapse_pair(psi: np.ndarray, n: Direction3, outcome: int, particle: int) -> np.ndarray:
    # the pair state after one particle is measured along n; on the singlet every branch has weight 1/2
    return _project(psi, _pair_projector(n, outcome, particle))


def singlet_analytic_correlator(dA: Direction3, dB: Direction3) -> float:
    """E[sA*sB] for the singlet: -dA.dB."""
    return -dA.dot(dB)


def brute_force_singlet_correlator(dA: Direction3, dB: Direction3) -> float:
    """<singlet| (dA.sigma)(x)(dB.sigma) |singlet> by explicit 4x4 arithmetic."""
    op = np.kron(pauli_dot(dA), pauli_dot(dB))
    return float(np.real(np.vdot(_SINGLET, op @ _SINGLET)))


# --- per-context samplers used by the experiment runner -----------------------
# A sampler is a backend: tables, a vectorized run, the scalar trial it matches bit for bit
# and the exact correlator.  run and trial take uniforms in [0, 1), as trial_uniforms gives them.


def balanced_preparation(contexts: ContextSet) -> QubitState:
    """Initial state whose outcome marginals are unbiased in every context.

    The sequential correlator E[s1*s2] = d1.d2 holds for any preparation,
    but the individual outcomes are only 50/50 when the initial Bloch
    vector is orthogonal to every direction that can be measured first.
    For the temporal contexts those are the slot-1 and slot-2 directions,
    so their (normalized) cross product does it; if they are parallel any
    perpendicular axis works.
    """
    firsts: list[Direction3] = []
    for ctx in contexts.contexts:
        if all(ctx.dir_x.dot(d) < 1.0 - 1e-9 for d in firsts):
            firsts.append(ctx.dir_x)
    d0 = firsts[0]
    helper = Direction3(0.0, 0.0, 1.0) if abs(d0.z) < 0.9 else Direction3(1.0, 0.0, 0.0)
    for d1 in (*firsts[1:2], helper):  # the helper is never near d0, so its cross product is kept
        cx = d0.y * d1.z - d0.z * d1.y
        cy = d0.z * d1.x - d0.x * d1.z
        cz = d0.x * d1.y - d0.y * d1.x
        if math.sqrt(cx * cx + cy * cy + cz * cz) > 1e-9:
            return _eigenstate(Direction3.normalized(cx, cy, cz), +1)


def _signs(positive: np.ndarray) -> np.ndarray:
    """+1 where the bool array is True, else -1, as int8 outcomes: 2 * positive - 1."""
    return (positive.view(np.int8) << 1) - 1


def _freeze(*tables: np.ndarray) -> None:
    """Mark lookup tables read-only: they are built once, in __init__, and the
    spans of a run only read them, from several threads at once."""
    for table in tables:
        table.flags.writeable = False


def _two_step_tables(contexts: ContextSet, first, second):
    # p1[code] = first(ctx), the first-step +1 probability; p2[code, (s1 + 1) >> 1] =
    # second(ctx, s1), the second-step +1 probability after outcome s1
    p1 = np.array([first(ctx) for ctx in contexts.contexts])
    p2 = np.array([[second(ctx, s1) for s1 in (-1, 1)] for ctx in contexts.contexts])
    _freeze(p1, p2)
    return p1, p2


def _sample_two_step(p1, p2, codes, u1, u2):
    # p1: (nctx,) first-step +1 probability; p2: (nctx, 2) second-step +1
    # probability indexed by [code, (s1+1)/2], read flat at code * 2 + (s1 > 0)
    up = u1 < p1.take(codes)
    s2_up = u2 < p2.ravel().take(codes * np.uint8(2) + up)
    return _signs(up), _signs(s2_up)


class SequentialSampler:
    """Trial sampler for consecutive measurements on one freshly prepared particle.

    Because the initial state is fixed, the first-step probability and both
    conditional second-step probabilities are precomputed per context with
    the same projector arithmetic as trial's two :func:`measure_spin` calls,
    which makes the vectorized run bit-identical to per-trial calls.

    The default preparation is :func:`balanced_preparation`, which leaves
    every correlator unchanged but keeps outcome marginals unbiased (the
    property the bit-extraction pipeline relies on).
    """

    draws = 2  # uniforms per trial that run reads

    def __init__(self, contexts: ContextSet, state0: QubitState | None = None):
        self.contexts = contexts
        self.state0 = state0 if state0 is not None else balanced_preparation(contexts)
        self._p1, self._p2 = _two_step_tables(
            contexts, lambda ctx: prob_plus(self.state0, ctx.dir_x),
            lambda ctx, s1: prob_plus(collapse(self.state0, ctx.dir_x, s1), ctx.dir_y))

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        """Two consecutive measurements on one particle: along the context's dir_x, then dir_y."""
        ctx = self.contexts[code]
        s1, after = measure_spin(self.state0, ctx.dir_x, u1)
        s2, _ = measure_spin(after, ctx.dir_y, u2)
        return s1, s2

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        return _sample_two_step(self._p1, self._p2, codes, u1, u2)

    def analytic_correlator(self, code: int) -> float:
        """E[s1*s2] = dir_x.dir_y, for any initial state."""
        ctx = self.contexts[code]
        return ctx.dir_x.dot(ctx.dir_y)


class SingletSampler:
    """Trial sampler for joint measurements on a singlet pair, one pair per trial."""

    draws = 2  # uniforms per trial that run reads

    def __init__(self, contexts: ContextSet):
        self.contexts = contexts
        self._pA, self._pB = _two_step_tables(
            contexts, lambda ctx: _prob_plus_pair(_SINGLET, ctx.dir_x, 0),
            lambda ctx, sA: _prob_plus_pair(_collapse_pair(_SINGLET, ctx.dir_x, sA, 0), ctx.dir_y, 1))

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        """Particle A along the context's dir_x, B along dir_y: A's outcome from its
        marginal (1/2 each) with u1, B's from the collapsed pair state with u2."""
        ctx = self.contexts[code]
        _check_u(u1)
        _check_u(u2)
        sA = 1 if u1 < _prob_plus_pair(_SINGLET, ctx.dir_x, 0) else -1
        pB = _prob_plus_pair(_collapse_pair(_SINGLET, ctx.dir_x, sA, 0), ctx.dir_y, 1)
        return sA, 1 if u2 < pB else -1

    def run(self, codes: np.ndarray, u1: np.ndarray, u2: np.ndarray):
        return _sample_two_step(self._pA, self._pB, codes, u1, u2)

    def analytic_correlator(self, code: int) -> float:
        ctx = self.contexts[code]
        return singlet_analytic_correlator(ctx.dir_x, ctx.dir_y)
