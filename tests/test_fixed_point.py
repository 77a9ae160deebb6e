"""Fixed-point uniforms: every backend's run reads numerators exactly as its trial reads floats.

A sampler's run takes the numerators m of the uniforms u = m * 2^-53 that
its scalar trial takes.  The two-step, qm-mimic and finite backends compare
m with ceil(p * 2^53) where trial compares u with p; the sign model settles
most trials from a float32 estimate and rechecks the rest in float64.
"""

import math

import numpy as np
import pytest

from bellsim.directions import X_AXIS, Y_AXIS, Z_AXIS, Direction3, max_violation_triple
from bellsim.hidden_variables import (
    _MARGIN,
    TRIG_ERROR_F32,
    TWO_PI,
    ContextualFiniteModel,
    ContextualModelSampler,
    FiniteHVModel,
    FiniteModelSampler,
    QmMimicSampler,
    SignModelSampler,
)
from bellsim.quantum import QubitState, SequentialSampler, SingletSampler
from bellsim.selector import _INV_2_53, ContextSet, as_floats, trial_uniforms, uniform_threshold
from reference import numerators

MINUS_Z = Direction3(0.0, 0.0, -1.0)
TRIPLE = ContextSet("temporal", max_violation_triple())
U = 2.0 ** -24  # the float32 unit roundoff
# threshold probabilities at the edges of the rule: never, one half, always, and multiples of 2^-53
EDGE_P = [0.0, 0.5, 1.0, 2.0 ** -53, (2**52 + 1) * 2.0 ** -53, 1.0 - 2.0 ** -53]


def around(p) -> np.ndarray:
    """The numerators ceil(p * 2^53) - 1, ceil(p * 2^53) and ceil(p * 2^53) + 1 of each p that lie in [0, 2^53)."""
    t = uniform_threshold(np.asarray(p, dtype=np.float64).ravel()).astype(np.int64)
    m = np.unique(np.concatenate([t - 1, t, t + 1]))
    return m[(m >= 0) & (m < 2**53)].astype(np.uint64)


def finite(*weights) -> FiniteHVModel:
    responses = [[1, 1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, 1]][:len(weights)]
    return FiniteHVModel(weights, responses)


# backend: (its sampler, the probabilities its trial compares uniforms with)
EDGE_BACKENDS = {
    # first +1 probabilities 1 and 1/2, second ones 1/2, 0 and 1
    "qm_sequential": lambda: _with_tables(SequentialSampler(
        ContextSet("temporal", (Z_AXIS, X_AXIS, MINUS_Z)), QubitState.up())),
    "qm_singlet": lambda: _with_tables(SingletSampler(ContextSet("chsh", (Z_AXIS, X_AXIS, Z_AXIS, MINUS_Z)))),
    # agreement probabilities 1 and 0
    "conspiracy:qm-mimic": lambda: (lambda s: (s, [0.5, *s._p_same]))(
        QmMimicSampler(ContextSet("temporal", (Z_AXIS, Z_AXIS, MINUS_Z)))),
    # cumulative weights 2^-53, 1/2 and 1
    "hv:finite": lambda: _with_cum(FiniteModelSampler(finite(2.0 ** -53, 0.5 - 2.0 ** -53, 0.5), TRIPLE)),
    "conspiracy:contextual": lambda: _with_cum(ContextualModelSampler(ContextualFiniteModel({
        "AB": finite(2.0 ** -53, 0.5 - 2.0 ** -53, 0.5),
        "AC": finite(0.5 + 2.0 ** -53, 0.5 - 2.0 ** -53),
        "BC": finite(1.0 - 2.0 ** -53, 2.0 ** -53)}), TRIPLE)),
    # z = 0 at u1 = 1/2, and the quadrant edges of the azimuth at u2 = k/4
    "hv:sign-model": lambda: (SignModelSampler(ContextSet("temporal", (X_AXIS, Y_AXIS, Z_AXIS))), [0.25, 0.75]),
}


def _with_tables(sampler):
    return sampler, [*sampler._p1, *sampler._p2.ravel()]


def _with_cum(sampler):
    return sampler, [p for sub in sampler._subs for p in sub._cum]


class TestThresholdRule:
    @pytest.mark.parametrize("p", [*EDGE_P, 0.3, 1 / 3, math.pi / 4, 5e-324, np.nextafter(0.5, 0.0)])
    def test_numerator_is_below_the_threshold_exactly_when_its_uniform_is_below_p(self, p):
        m = around(p)
        assert np.array_equal(m < uniform_threshold(p), m * _INV_2_53 < p)

    def test_thresholds_of_never_and_always(self):
        assert uniform_threshold([0.0, 0.5, 1.0]).tolist() == [0, 2**52, 2**53]

    @pytest.mark.parametrize("backend", list(EDGE_BACKENDS))
    def test_run_equals_trial_next_to_and_on_every_threshold(self, backend):
        sampler, probabilities = EDGE_BACKENDS[backend]()
        m = around([*EDGE_P, *probabilities])
        m1, m2 = (grid.ravel() for grid in np.meshgrid(m, m))
        for code in range(len(sampler.contexts)):
            s1, s2 = sampler.run(np.full(m1.size, code, dtype=np.uint8), m1.copy(), m2.copy())
            expected = [sampler.trial(code, a, b) for a, b in zip((m1 * _INV_2_53).tolist(), (m2 * _INV_2_53).tolist())]
            assert list(zip(s1.tolist(), s2.tolist())) == expected, (backend, code)

    def test_as_floats_writes_the_uniforms_over_their_numerators(self):
        m = trial_uniforms(99, 0, 1000)
        expected = m * _INV_2_53
        u = as_floats(m)
        assert np.shares_memory(u, m) and np.array_equal(u, expected)


class TestSignModelRecheck:
    """Trials whose float32 estimate lies within the margin of 0 are settled by the float64 rule."""

    @staticmethod
    def rechecked(sampler) -> list:
        # the (u1, u2) of every trial that run hands to the float64 rule
        seen, rule = [], sampler._slot_bits
        sampler._slot_bits = lambda u1, u2: seen.extend(zip(u1.tolist(), u2.tolist())) or rule(u1, u2)
        return seen

    @pytest.mark.parametrize("directions,draw", [
        # c = 0: the axis lies in the xy plane, so its projection on z is exactly 0
        ((Z_AXIS, X_AXIS, Direction3.from_polar(1.0)), (0.5, 0.125)),
        # phi64 = pi/2 rounded down, cos(phi64) = 6e-17 > 0; phi32 = pi/2 rounded up, cos(phi32) < 0
        ((Z_AXIS, X_AXIS, Direction3.from_polar(1.0)), (0.375, 0.25)),
        ((Z_AXIS, X_AXIS, Direction3.from_polar(1.0)), (0.375, 0.75)),
        # y != 0, so the sin estimate runs: sin(pi64) = 1.2e-16 > 0, sin(pi32) < 0
        ((X_AXIS, Y_AXIS, Z_AXIS), (0.375, 0.5)),
        ((X_AXIS, Y_AXIS, Z_AXIS), (0.625, 0.0)),
    ])
    def test_draws_on_a_zero_projection_are_rechecked(self, directions, draw):
        sampler = SignModelSampler(ContextSet("temporal", directions))
        seen = self.rechecked(sampler)
        u1, u2 = np.array([draw[0], 0.1875]), np.array([draw[1], 0.375])  # the second draw is far from every zero
        for code in range(3):
            seen.clear()
            s1, s2 = sampler.run(np.full(2, code, dtype=np.uint8), numerators(u1), numerators(u2))
            assert seen == [draw]
            assert list(zip(s1.tolist(), s2.tolist())) == [sampler.trial(code, a, b) for a, b in zip(u1, u2)]

    def test_float32_estimate_alone_would_flip_a_quadrant_edge(self):
        # why the recheck is needed: at u2 = 1/4 the float32 cosine has the other sign
        phi32 = np.float32(0.25) * np.float32(TWO_PI)
        assert np.cos(phi32) < 0.0 < np.cos(TWO_PI * 0.25)

    def test_few_trials_are_rechecked(self):
        # the projection on a fixed direction of a uniform axis is uniform on [-1, 1], so each of 3 slots sends
        # a share _MARGIN of trials to the recheck: about 3 of 2^18 expected
        sampler = SignModelSampler(TRIPLE)
        seen = self.rechecked(sampler)
        n = 1 << 18
        sampler.run(np.zeros(n, dtype=np.uint8), *trial_uniforms(5, 0, n))
        assert len(seen) <= 32


class TestSignModelMargin:
    def test_margin_covers_the_stated_bound(self):
        d_phi = 3 * U * TWO_PI
        bound = math.sqrt(3.0) * (4.5 * U + TRIG_ERROR_F32 + d_phi) + 2 * U
        assert bound < 3.4e-6 < _MARGIN

    def test_float32_azimuth_is_within_its_term(self):
        u2 = np.arange(1 << 20) / (1 << 20)
        phi32 = u2.astype(np.float32) * np.float32(TWO_PI)
        assert np.max(np.abs(phi32.astype(np.float64) - TWO_PI * u2)) <= 3 * U * TWO_PI

    @pytest.mark.parametrize("f", [np.cos, np.sin])
    def test_float32_trig_error_stays_below_the_margins_term(self, f):
        # a dense grid of the azimuths run evaluates, the quadrant edges (u2 = k/4) and their neighbours included
        u2 = np.arange(1 << 20) / (1 << 20)
        phi32 = u2.astype(np.float32) * np.float32(TWO_PI)
        phi32 = np.concatenate([phi32, np.nextafter(phi32, np.float32(0.0)), np.nextafter(phi32, np.float32(7.0))])
        error = np.abs(f(phi32).astype(np.float64) - f(phi32.astype(np.float64)))
        assert np.max(error) < TRIG_ERROR_F32
