import math

import numpy as np
import pytest

from bellsim.directions import Direction3, X_AXIS, Y_AXIS, Z_AXIS, max_violation_triple, tsirelson_quadruple
from bellsim import quantum
from bellsim.errors import ValidationError
from bellsim.quantum import (
    QubitState,
    SequentialSampler,
    SingletSampler,
    balanced_preparation,
    brute_force_sequential_correlator,
    brute_force_singlet_correlator,
    collapse,
    measure_spin,
    prob_plus,
    singlet_analytic_correlator,
)
from bellsim.selector import ContextSet

from conftest import random_direction, random_qubit_state
from reference import numerators

TOL = 1e-12


def projector_element_oracle(state, n):
    # independent evaluation of <psi|(I + n.sigma)/2|psi> by hand-rolled
    # 2x2 complex arithmetic (no shared code with the library)
    m = [
        [(1 + n.z) / 2 + 0j, (n.x - 1j * n.y) / 2],
        [(n.x + 1j * n.y) / 2, (1 - n.z) / 2 + 0j],
    ]
    psi = [state.amp_up, state.amp_down]
    acc = 0j
    for i in range(2):
        for j in range(2):
            acc += psi[i].conjugate() * m[i][j] * psi[j]
    return acc.real


class TestStateTypes:
    def test_direction_must_be_unit(self):
        with pytest.raises(ValidationError):
            Direction3(1.0, 1.0, 0.0)

    def test_qubit_must_be_normalized(self):
        with pytest.raises(ValidationError):
            QubitState(1.0, 1.0)

    def test_zero_vector_has_no_direction(self):
        with pytest.raises(ValidationError, match="zero vector"):
            Direction3.normalized(0.0, 0.0, 0.0)

    def test_singlet_amplitudes(self):
        r = 1.0 / math.sqrt(2.0)
        assert quantum._SINGLET.tolist() == [0.0j, r + 0.0j, -r + 0.0j, 0.0j]
        assert not quantum._SINGLET.flags.writeable


class TestMeasureSpin:
    def test_eigenstate_is_certain(self):
        for u in (0.0, 0.3, 0.999999):
            outcome, post = measure_spin(QubitState.up(), Z_AXIS, u)
            assert outcome == 1
            assert post.amp_up == 1.0 and post.amp_down == 0.0

    def test_orthogonal_direction_is_even(self):
        assert prob_plus(QubitState.up(), X_AXIS) == 0.5
        assert measure_spin(QubitState.up(), X_AXIS, 0.49)[0] == 1
        assert measure_spin(QubitState.up(), X_AXIS, 0.5)[0] == -1

    def test_polar_angle_probability(self):
        n = Direction3.from_polar(math.pi / 3)
        p = prob_plus(QubitState.up(), n)
        assert abs(p - 0.75) < TOL  # cos^2(pi/6)
        assert abs(p - projector_element_oracle(QubitState.up(), n)) < TOL

    def test_projector_oracle_agrees_for_random_inputs(self, rng):
        for _ in range(200):
            state = random_qubit_state(rng)
            n = random_direction(rng)
            assert abs(prob_plus(state, n) - projector_element_oracle(state, n)) < TOL

    @pytest.mark.parametrize("u", [-0.1, 1.0, 1.5, math.nan])
    def test_u_outside_unit_interval_rejected(self, u):
        with pytest.raises(ValidationError):
            measure_spin(QubitState.up(), Z_AXIS, u)

    def test_collapse_preserves_normalization(self, rng):
        for _ in range(300):
            state = random_qubit_state(rng)
            n = random_direction(rng)
            outcome, post = measure_spin(state, n, rng.random())
            norm2 = abs(post.amp_up) ** 2 + abs(post.amp_down) ** 2
            assert abs(norm2 - 1.0) < TOL

    def test_repeated_measurement_is_idempotent(self, rng):
        for _ in range(200):
            state = random_qubit_state(rng)
            n = random_direction(rng)
            s1, post = measure_spin(state, n, rng.random())
            s2, post2 = measure_spin(post, n, rng.random())
            assert s2 == s1
            assert abs(post2.amp_up - post.amp_up) < 1e-9
            assert abs(post2.amp_down - post.amp_down) < 1e-9

    def test_degenerate_branch_returns_eigenstate(self):
        # collapsing |up> onto the zero-weight -z branch cannot be normalized;
        # the closed-form eigenstate is returned instead
        post = collapse(QubitState.up(), Z_AXIS, -1)
        assert post.amp_up == 0.0 and abs(post.amp_down) == 1.0

    @pytest.mark.parametrize("outcome", [0, 2, 1.5])
    def test_collapse_onto_no_outcome_rejected(self, outcome):
        with pytest.raises(ValidationError, match="outcome must be"):
            collapse(QubitState.up(), Z_AXIS, outcome)


def sequential_trial(state, d1, d2, u1, u2):
    """SequentialSampler.trial on the context of slots 1 and 2: a measurement along d1, then along d2."""
    return SequentialSampler(ContextSet("temporal", (d1, d2, Z_AXIS)), state).trial(0, u1, u2)


class TestSequentialTrial:
    def test_same_direction_repeats(self, rng):
        for _ in range(100):
            state = random_qubit_state(rng)
            d = random_direction(rng)
            s1, s2 = sequential_trial(state, d, d, rng.random(), rng.random())
            assert s1 * s2 == 1

    def test_trial_is_two_spin_measurements(self, rng):
        for _ in range(100):
            state = random_qubit_state(rng)
            d1, d2 = random_direction(rng), random_direction(rng)
            u1, u2 = rng.random(2)
            s1, after = measure_spin(state, d1, u1)
            assert sequential_trial(state, d1, d2, u1, u2) == (s1, measure_spin(after, d2, u2)[0])

    def test_opposite_direction_flips(self, rng):
        for _ in range(100):
            state = random_qubit_state(rng)
            d = random_direction(rng)
            anti = Direction3(-d.x, -d.y, -d.z)
            s1, s2 = sequential_trial(state, d, anti, rng.random(), rng.random())
            assert s1 * s2 == -1

    def test_perpendicular_directions_uncorrelated(self):
        # exact enumeration: E[s1*s2] = 0 when d1.d2 = 0
        assert abs(brute_force_sequential_correlator(QubitState.up(), X_AXIS, Y_AXIS)) < TOL

    def test_eigenstate_of_the_first_direction_skips_its_empty_branch(self):
        # |up> gives s1 = +1 along z for certain; the s1 = -1 branch has weight 0
        d2 = Direction3.from_polar(1.0)
        assert abs(brute_force_sequential_correlator(QubitState.up(), Z_AXIS, d2) - math.cos(1.0)) < TOL


class TestSequentialCorrelator:
    def test_analytic_trivials(self):
        sampler = SequentialSampler(ContextSet("temporal", (Z_AXIS, Z_AXIS, X_AXIS)))
        assert sampler.exact_moments(0)[2] == 1.0  # AB: z.z
        assert sampler.exact_moments(1)[2] == 0.0  # AC: z.x

    def test_analytic_is_the_dot_product(self, rng):
        # the closed form d1.d2, written out, in every context of random triples
        for _ in range(100):
            contexts = ContextSet("temporal", tuple(random_direction(rng) for _ in range(3)))
            sampler = SequentialSampler(contexts)
            for code, ctx in enumerate(contexts.contexts):
                d1, d2 = ctx.dir_x, ctx.dir_y
                assert sampler.exact_moments(code)[2] == d1.x * d2.x + d1.y * d2.y + d1.z * d2.z
                assert abs(sampler.exact_moments(code)[2]
                           - brute_force_sequential_correlator(sampler.state0, d1, d2)) < TOL

    def test_analytic_at_max_violation_geometry(self):
        sampler = SequentialSampler(ContextSet("temporal", max_violation_triple()))
        p_ab, p_ac, p_bc = (sampler.exact_moments(c)[2] for c in range(3))
        r = 1.0 / math.sqrt(2.0)
        assert abs(p_ab - r) < TOL
        assert abs(p_ac + r) < TOL
        assert p_bc == 0.0
        assert abs(abs(p_ab - p_ac) + p_bc - math.sqrt(2.0)) < TOL

    def test_brute_force_same_direction(self, rng):
        for _ in range(20):
            state = random_qubit_state(rng)
            d = random_direction(rng)
            assert abs(brute_force_sequential_correlator(state, d, d) - 1.0) < TOL

    def test_brute_force_fixed_overlap(self, rng):
        d1 = Z_AXIS
        d2 = Direction3(math.sqrt(1 - 0.3 ** 2), 0.0, 0.3)  # d1.d2 = 0.3
        for _ in range(50):
            state = random_qubit_state(rng)
            assert abs(brute_force_sequential_correlator(state, d1, d2) - 0.3) < TOL

    def test_brute_force_equals_dot_product(self, rng):
        # state independence of the sequential correlator
        for _ in range(300):
            state = random_qubit_state(rng)
            d1 = random_direction(rng)
            d2 = random_direction(rng)
            got = brute_force_sequential_correlator(state, d1, d2)
            assert abs(got - d1.dot(d2)) < TOL

    def test_monte_carlo_converges(self, rng):
        n = 40_000
        for d1, d2 in [(Z_AXIS, X_AXIS), (Z_AXIS, Direction3.from_polar(1.0)), max_violation_triple()[:2]]:
            state = random_qubit_state(rng)
            prods = [
                math.prod(sequential_trial(state, d1, d2, u1, u2))
                for u1, u2 in rng.random((300, 2))
            ]
            # quick scalar check at small n
            assert abs(np.mean(prods) - d1.dot(d2)) <= 4 / math.sqrt(300)
            contexts = ContextSet("temporal", (d1, d2, Z_AXIS))
            sampler = SequentialSampler(contexts, state)
            u = rng.random((2, n))
            s1, s2 = sampler.run(np.zeros(n, dtype=np.uint8), numerators(u[0]), numerators(u[1]))
            assert abs(float(np.mean(s1 * s2)) - d1.dot(d2)) <= 4 / math.sqrt(n)


class TestBalancedPreparation:
    def test_marginals_are_even_in_every_context(self):
        contexts = ContextSet("temporal", max_violation_triple())
        state0 = balanced_preparation(contexts)
        for ctx in contexts.contexts:
            assert abs(prob_plus(state0, ctx.dir_x) - 0.5) < TOL

    def test_parallel_first_directions_fall_back(self):
        contexts = ContextSet("temporal", (Z_AXIS, Z_AXIS, X_AXIS))
        state0 = balanced_preparation(contexts)
        assert abs(prob_plus(state0, Z_AXIS) - 0.5) < TOL


class TestSinglet:
    def test_same_direction_anticorrelates(self, rng):
        for _ in range(100):
            d = random_direction(rng)
            sampler = SingletSampler(ContextSet("chsh", (d, d, d, d)))
            sA, sB = sampler.trial(0, rng.random(), rng.random())
            assert sB == -sA

    @pytest.mark.parametrize("u", [-0.1, 1.0, math.nan])
    def test_trial_rejects_a_uniform_outside_the_unit_interval(self, u):
        sampler = SingletSampler(ContextSet("chsh", tsirelson_quadruple()))
        for u1, u2 in ((u, 0.5), (0.5, u)):
            with pytest.raises(ValidationError, match="uniform variate"):
                sampler.trial(0, u1, u2)

    def test_marginal_is_even(self, rng):
        for _ in range(50):
            d = random_direction(rng)
            assert abs(quantum._prob_plus_pair(quantum._SINGLET, d, 0) - 0.5) < TOL
            assert abs(quantum._prob_plus_pair(quantum._SINGLET, d, 1) - 0.5) < TOL

    def test_perpendicular_uncorrelated_by_matrix_oracle(self):
        assert abs(brute_force_singlet_correlator(X_AXIS, Y_AXIS)) < TOL

    def test_analytic_trivials(self):
        assert singlet_analytic_correlator(Z_AXIS, Z_AXIS) == -1.0
        assert singlet_analytic_correlator(Z_AXIS, X_AXIS) == 0.0

    def test_analytic_matches_matrix_oracle(self, rng):
        for _ in range(300):
            dA = random_direction(rng)
            dB = random_direction(rng)
            assert abs(singlet_analytic_correlator(dA, dB) - brute_force_singlet_correlator(dA, dB)) < TOL

    def test_chsh_combination_at_tsirelson_geometry(self):
        a, ap, b, bp = tsirelson_quadruple()
        s = abs(
            singlet_analytic_correlator(a, b) - singlet_analytic_correlator(a, bp)
        ) + abs(
            singlet_analytic_correlator(ap, bp) + singlet_analytic_correlator(ap, b)
        )
        assert abs(s - 2.0 * math.sqrt(2.0)) < TOL

    def test_joint_statistics_converge(self, rng):
        contexts = ContextSet("chsh", tsirelson_quadruple())
        sampler = SingletSampler(contexts)
        n = 40_000
        u = rng.random((2, n))
        codes = np.zeros(n, dtype=np.uint8)
        sA, sB = sampler.run(codes, numerators(u[0]), numerators(u[1]))
        target = sampler.exact_moments(0)[2]
        assert abs(float(np.mean(sA * sB)) - target) <= 4 / math.sqrt(n)
        assert abs(float(np.mean(sA))) <= 4 / math.sqrt(n)


# --- the samplers' tables, against the projector arithmetic written out --------------


SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]], dtype=complex),
         np.array([[1, 0], [0, -1]], dtype=complex))


def written_projector(n, outcome, particle=None):
    # (I + outcome n.sigma) / 2, on one qubit or on particle 0 or 1 of a pair
    p = (np.eye(2, dtype=complex) + outcome * (n.x * SIGMA[0] + n.y * SIGMA[1] + n.z * SIGMA[2])) / 2.0
    if particle is None:
        return p
    return np.kron(p, np.eye(2, dtype=complex)) if particle == 0 else np.kron(np.eye(2, dtype=complex), p)


def written_prob(psi, projector):
    p = float(np.real(np.vdot(psi, projector @ psi)))
    return min(1.0, max(0.0, p))


def written_collapse(psi, n, outcome, particle=None):
    v = written_projector(n, outcome, particle) @ psi
    n2 = float(np.real(np.vdot(v, v)))
    if n2 < 1e-24:  # a one-qubit branch of zero weight: the eigenstate of n.sigma, in closed form
        rxy = math.hypot(n.x, n.y)
        phase = complex(n.x / rxy, n.y / rxy) if rxy > 1e-15 else 1.0 + 0.0j
        up, down = math.sqrt((1.0 + n.z) / 2.0), math.sqrt((1.0 - n.z) / 2.0)
        return np.array([up, down * phase] if outcome == 1 else [down, -up * phase], dtype=complex)
    s = math.sqrt(n2)
    return np.array([complex(a) / s for a in v])  # Python's division, amplitude by amplitude


def written_tables(contexts, psi, particles=(None, None)):
    first, second = particles
    p1 = [written_prob(psi, written_projector(ctx.dir_x, +1, first)) for ctx in contexts.contexts]
    p2 = [[written_prob(written_collapse(psi, ctx.dir_x, s1, first), written_projector(ctx.dir_y, +1, second))
           for s1 in (-1, 1)] for ctx in contexts.contexts]
    return np.array(p1), np.array(p2)


def table_geometries(seed, count):
    rng = np.random.default_rng(seed)
    yield ContextSet("temporal", max_violation_triple())
    yield ContextSet("chsh", tsirelson_quadruple())
    yield ContextSet("temporal", (Z_AXIS, Z_AXIS, X_AXIS))
    for _ in range(count):
        yield ContextSet("temporal", tuple(random_direction(rng) for _ in range(3)))
        yield ContextSet("chsh", tuple(random_direction(rng) for _ in range(4)))


@pytest.mark.parametrize("contexts", table_geometries(20261018, 40), ids=lambda c: c.kind)
def test_sampler_tables_equal_the_written_arithmetic(contexts):
    # == to the last bit: the golden hash sees a table only through the outcomes it decides
    sequential = SequentialSampler(contexts)
    p1, p2 = written_tables(contexts, sequential.state0.vector())
    assert np.array_equal(sequential._p1, p1) and np.array_equal(sequential._p2, p2)
    up = SequentialSampler(contexts, QubitState.up())  # collapses an eigenstate where a direction is +-z
    p1, p2 = written_tables(contexts, up.state0.vector())
    assert np.array_equal(up._p1, p1) and np.array_equal(up._p2, p2)
    singlet_psi = np.array([0.0, 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0], dtype=complex)
    pA, pB = written_tables(contexts, singlet_psi, particles=(0, 1))
    singlet = SingletSampler(contexts)
    assert np.array_equal(singlet._p1, pA) and np.array_equal(singlet._p2, pB)
