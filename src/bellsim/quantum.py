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
from .protocol import _read_only, _signs
from .selector import ContextSet, uniform_threshold

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
_SINGLET = _read_only([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], complex)


def _pair_projector(n: Direction3, outcome: int, particle: int) -> np.ndarray:
    p = _projector(n, outcome)
    return np.kron(p, IDENT2) if particle == 0 else np.kron(IDENT2, p)


def _prob_plus_pair(psi: np.ndarray, n: Direction3, particle: int) -> float:
    # probability that measuring particle 0 or 1 of the pair state psi along n gives +1
    return _born(psi, _pair_projector(n, +1, particle))


def singlet_analytic_correlator(dA: Direction3, dB: Direction3) -> float:
    """E[sA*sB] for the singlet: -dA.dB."""
    return -dA.dot(dB)


def brute_force_singlet_correlator(dA: Direction3, dB: Direction3) -> float:
    """<singlet| (dA.sigma)(x)(dB.sigma) |singlet> by explicit 4x4 arithmetic."""
    op = np.kron(pauli_dot(dA), pauli_dot(dB))
    return float(np.real(np.vdot(_SINGLET, op @ _SINGLET)))


# --- per-context samplers used by the experiment runner -----------------------
# A sampler is a backend: tables, a vectorized run, the scalar trial it matches bit for bit
# and exact_moments; the section header in hidden_variables states the contract in full.


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


class _TwoStepSampler:
    """Two measurements per trial: the first outcome from its Born probability, the second from the
    state it collapsed to.  A backend states its physics as _first(ctx), the first +1 probability,
    _second(ctx, s1), the second's after outcome s1, and _correlator(ctx), the exact E[s1*s2]; run
    compares its fixed-point uniforms with the thresholds of those very floats
    (:func:`selector.uniform_threshold`), so it matches trial bit for bit.
    """

    draws = 2  # uniforms per trial that run reads

    def __init__(self, contexts: ContextSet):
        self.contexts = contexts
        # _p1[code]: the first +1 probability; _p2[code, (s1 + 1) >> 1]: the second's after outcome s1
        self._p1 = _read_only([self._first(ctx) for ctx in contexts.contexts])
        self._p2 = _read_only([[self._second(ctx, s1) for s1 in (-1, 1)] for ctx in contexts.contexts])
        self._t1, self._t2 = _read_only(uniform_threshold(self._p1)), _read_only(uniform_threshold(self._p2))

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        ctx = self.contexts[code]
        _check_u(u1)
        _check_u(u2)
        s1 = 1 if u1 < self._first(ctx) else -1
        return s1, 1 if u2 < self._second(ctx, s1) else -1

    def _sample(self, codes: np.ndarray, m1: np.ndarray, m2: np.ndarray):
        up = m1 < self._t1.take(codes)
        s2_up = m2 < self._t2.ravel().take(codes * np.uint8(2) + up)  # _t2 flat, at code * 2 + (s1 > 0)
        return _signs(up), _signs(s2_up)

    def exact_moments(self, code: int) -> tuple[float, float, float]:
        p1, p2 = self._p1[code], self._p2[code]
        return (float(2.0 * p1 - 1.0), float(2.0 * np.dot((1.0 - p1, p1), p2) - 1.0),
                self._correlator(self.contexts[code]))


class SequentialSampler(_TwoStepSampler):
    """Trial sampler for consecutive measurements on one freshly prepared particle.

    Its trial is two :func:`measure_spin` calls, the projector arithmetic of _first and _second.
    The default preparation, :func:`balanced_preparation`, leaves every correlator unchanged but
    keeps outcome marginals unbiased (the property the bit-extraction pipeline relies on).
    """

    def __init__(self, contexts: ContextSet, state0: QubitState | None = None):
        self.state0 = state0 if state0 is not None else balanced_preparation(contexts)
        super().__init__(contexts)

    def _first(self, ctx) -> float:
        return prob_plus(self.state0, ctx.dir_x)

    def _second(self, ctx, s1: int) -> float:
        return prob_plus(collapse(self.state0, ctx.dir_x, s1), ctx.dir_y)

    def _correlator(self, ctx) -> float:
        return ctx.dir_x.dot(ctx.dir_y)  # for any initial state

    def trial(self, code: int, u1: float, u2: float) -> tuple[int, int]:
        """Two consecutive measurements on one particle: along the context's dir_x, then dir_y."""
        ctx = self.contexts[code]
        s1, after = measure_spin(self.state0, ctx.dir_x, u1)
        s2, _ = measure_spin(after, ctx.dir_y, u2)
        return s1, s2

    def run(self, codes: np.ndarray, m1: np.ndarray, m2: np.ndarray):
        return self._sample(codes, m1, m2)


class SingletSampler(_TwoStepSampler):
    """Trial sampler for joint measurements on a singlet pair, one pair per trial: particle A
    along the context's dir_x (1/2 each way), then B along dir_y in the collapsed pair state."""

    def _first(self, ctx) -> float:
        return _prob_plus_pair(_SINGLET, ctx.dir_x, 0)

    def _second(self, ctx, sA: int) -> float:
        # B in the pair state that A's outcome left; on the singlet each branch has weight 1/2
        return _prob_plus_pair(_project(_SINGLET, _pair_projector(ctx.dir_x, sA, 0)), ctx.dir_y, 1)

    def _correlator(self, ctx) -> float:
        return singlet_analytic_correlator(ctx.dir_x, ctx.dir_y)

    def run(self, codes: np.ndarray, m1: np.ndarray, m2: np.ndarray):
        return self._sample(codes, m1, m2)
