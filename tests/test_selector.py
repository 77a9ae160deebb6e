import math

import numpy as np
import pytest

import bellsim.protocol as protocol
from bellsim.directions import X_AXIS, Y_AXIS, Z_AXIS
from bellsim.errors import ValidationError
from bellsim.selector import (
    _INV_GAMMA,
    GAMMA,
    MASK64,
    ContextSet,
    _accept_bound,
    as_floats,
    context_codes,
    mix64,
    state_after,
    trial_uniforms,
    unmix64,
    validate_seed,
)
from reference import SelectorState, TrialStream, derive_trial_randomness, independent_seed_pairs, next_context

TEMPORAL = ContextSet("temporal", (X_AXIS, Y_AXIS, Z_AXIS))
CHSH = ContextSet("chsh", (X_AXIS, Y_AXIS, Z_AXIS, X_AXIS))

# a state whose very first draw finalizes to 2^64-1 (found by inverting the
# avalanche), so it exercises the rejection branch of the 3-way mapping
REJECTING_SEED = 0x31628AF67B2131AB


def emit(seed, n, contexts=TEMPORAL):
    state = SelectorState.from_seed(seed)
    out = []
    for _ in range(n):
        ctx, state = next_context(state, contexts)
        out.append(ctx.tag)
    return out, state


class TestSelectorStream:
    def test_golden_first_contexts_seed0(self):
        # golden values computed independently of the library code
        tags, _ = emit(0, 6)
        assert tags == ["AC", "AB", "AC", "AC", "AC", "AB"]

    def test_golden_first_contexts_seed1(self):
        tags, _ = emit(1, 6)
        assert tags == ["BC", "AC", "AB", "BC", "AB", "BC"]

    def test_golden_chsh_codes_seed0(self):
        codes = context_codes(0, 6, 4)
        assert codes.tolist() == [3, 0, 3, 0, 3, 2]

    def test_negative_context_count_rejected(self):
        with pytest.raises(ValidationError, match="context count must be >= 0, got -1"):
            context_codes(0, -1, 3)

    def test_unknown_context_set_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown context-set kind 'spatial'"):
            ContextSet("spatial", (X_AXIS, Y_AXIS, Z_AXIS))

    @pytest.mark.parametrize("kind,directions", [("temporal", (X_AXIS, Y_AXIS)), ("chsh", (X_AXIS, Y_AXIS, Z_AXIS))])
    def test_wrong_direction_count_rejected(self, kind, directions):
        with pytest.raises(ValidationError, match=f"{kind} geometry needs exactly {len(directions) + 1} directions"):
            ContextSet(kind, directions)

    def test_deterministic(self):
        assert emit(12345, 50) == emit(12345, 50)

    def test_counter_counts_emissions(self):
        _, state = emit(99, 17)
        assert state.counter == 17

    def test_rejection_bound_is_exact_multiple(self):
        # uniformity of the accepted range holds by integer arithmetic:
        # each residue class appears exactly floor(2^64/n) times
        for n in (3, 4):
            bound = _accept_bound(n)
            assert bound % n == 0
            assert bound // n == (1 << 64) // n
        assert _accept_bound(3) == MASK64  # only the all-ones draw is rejected
        assert _accept_bound(4) == 1 << 64  # no rejection for the 4-way split

    def test_rejection_branch_skips_and_continues(self):
        state = SelectorState.from_seed(REJECTING_SEED)
        first_raw = mix64((REJECTING_SEED + GAMMA) & MASK64)
        assert first_raw == MASK64  # the rejected value
        ctx, new_state = next_context(state, TEMPORAL)
        assert ctx.tag == "AC"
        # two draws were consumed for one emission
        assert new_state.state == (REJECTING_SEED + 2 * GAMMA) & MASK64
        assert new_state.counter == 1

    @pytest.mark.parametrize("seed", [0, 1, REJECTING_SEED, 0xDEADBEEF, 2**64 - 1])
    @pytest.mark.parametrize("contexts", [TEMPORAL, CHSH])
    def test_vectorized_matches_scalar(self, seed, contexts):
        tags, _ = emit(seed, 300, contexts)
        codes = context_codes(seed, 300, len(contexts))
        assert [contexts.tags[c] for c in codes] == tags

    @pytest.mark.parametrize("seed", [0, REJECTING_SEED, (REJECTING_SEED - 5 * GAMMA) % 2**64])
    @pytest.mark.parametrize("contexts", [TEMPORAL, CHSH])
    def test_state_after_continues_the_stream(self, seed, contexts):
        k = len(contexts)
        whole = context_codes(seed, 12, k)
        for count in range(10):
            _, state = emit(seed, count, contexts)
            assert state_after(seed, count, k) == state.state
            assert np.array_equal(context_codes(state_after(seed, count, k), 12 - count, k), whole[count:])

    def test_unmix_inverts_mix(self):
        for z in (0, 1, GAMMA, MASK64, 0xDEADBEEFCAFEF00D):
            assert mix64(unmix64(z)) == z and unmix64(mix64(z)) == z
        assert (unmix64(MASK64) - GAMMA) % 2**64 == REJECTING_SEED

    def test_context_frequencies(self):
        n = 300_000
        codes = context_codes(97531, n, 3)
        counts = np.bincount(codes, minlength=3)
        sigma = math.sqrt(n * (1 / 3) * (2 / 3))
        for count in counts:
            assert abs(count - n / 3) <= 3 * sigma

    def test_context_resolves_directions(self):
        ctx, _ = next_context(SelectorState.from_seed(0), TEMPORAL)
        assert ctx.tag == "AC"
        assert ctx.slot_x == 1 and ctx.slot_y == 3
        assert ctx.dir_x == X_AXIS and ctx.dir_y == Z_AXIS


def rejecting_at(j: int) -> int:
    # the seed whose draw j reads the one state whose avalanche 3 contexts reject
    return (unmix64(MASK64) - j * GAMMA) % 2**64


class TestRejectedDraw:
    @pytest.mark.parametrize("n", [2, 300])
    @pytest.mark.parametrize("where", ["1", "n-1", "n", "n+1"])
    def test_codes_equal_the_scalar_selector(self, n, where):
        seed = rejecting_at({"1": 1, "n-1": n - 1, "n": n, "n+1": n + 1}[where])
        tags, _ = emit(seed, n)
        assert [TEMPORAL.tags[c] for c in context_codes(seed, n, 3)] == tags

    @pytest.mark.parametrize("j", [200, 201])  # the last draw of the first span, the first of the second
    def test_span_edge_in_a_run(self, monkeypatch, j):
        monkeypatch.setattr(protocol, "_STEP", 257)  # on one thread, 600 trials: spans 0..199, 200..399, 400..599
        config = protocol.ExperimentConfig("qm_sequential", (X_AXIS, Y_AXIS, Z_AXIS), 600, rejecting_at(j), 7)
        tags, _ = emit(config.selector_seed, 600)
        assert [TEMPORAL.tags[c] for c in protocol.run_experiment(config).codes] == tags


class TestTrialStreams:
    def test_golden_uniforms(self):
        # golden values computed independently of the library code
        stream = derive_trial_randomness(1, 0)
        got = [stream.next() for _ in range(4)]
        assert got == [
            0.7497482413580301,
            0.37239342287916577,
            0.4382839062845528,
            0.9541167159066205,
        ]
        assert derive_trial_randomness(1, 1).next() == 0.8833108082136426
        assert derive_trial_randomness(0xDEADBEEF, 7).next() == 0.9712849361306799

    def test_deterministic_and_index_dependent(self):
        a = [derive_trial_randomness(5, 3).next() for _ in range(2)]
        b = [derive_trial_randomness(5, 3).next() for _ in range(2)]
        assert a == b
        assert derive_trial_randomness(5, 3).next() != derive_trial_randomness(5, 4).next()

    def test_range(self):
        stream = TrialStream(42, 0)
        for _ in range(10_000):
            u = stream.next()
            assert 0.0 <= u < 1.0

    def test_vectorized_matches_scalar(self):
        u = as_floats(trial_uniforms(314159, 10, 50, n_draws=3))
        for i, idx in enumerate(range(10, 50)):
            stream = TrialStream(314159, idx)
            for k in range(3):
                assert u[k, i] == stream.next()

    def test_leading_bits_pass_monobit(self):
        from bellsim.randomness import monobit_test

        u = trial_uniforms(2718281828, 0, 500_000, n_draws=2)
        bits = (u.reshape(-1) >> np.uint64(52)).astype(np.uint8)  # u >= 1/2
        assert bits.size == 1_000_000
        assert monobit_test(bits) >= 0.01


class TestSeedIndependence:
    N = 4096  # trials; the bit length of N - 1 is 12

    def test_adjacent_outcome_seeds_give_the_same_uniforms_permuted(self):
        # trial i's stream is seeded with mix64(outcome_seed ^ i), and 77001 ^ i == 77000 ^ (i ^ 1)
        n = self.N
        assert np.array_equal(trial_uniforms(77001, 0, n), trial_uniforms(77000, 0, n)[:, np.arange(n) ^ 1])

    @pytest.mark.parametrize("bit,shared", [(11, True), (12, False)])
    def test_runs_share_streams_unless_their_seeds_differ_at_or_above_the_bit_length(self, bit, shared):
        draws = [set(trial_uniforms(seed, 0, self.N).ravel().tolist()) for seed in (77000, 77000 ^ (1 << bit))]
        assert draws[0] == draws[1] if shared else draws[0].isdisjoint(draws[1])

    def test_independent_seed_pairs_share_no_stream_and_no_selector_draw(self):
        pairs = independent_seed_pairs(8)
        draws = [set(trial_uniforms(outcome_seed, 0, self.N).ravel().tolist()) for _, outcome_seed in pairs]
        assert len(set().union(*draws)) == sum(map(len, draws)) == 8 * 2 * self.N
        for i, (s, _) in enumerate(pairs):
            for t, _ in pairs[i + 1:]:
                gap = ((t - s) * _INV_GAMMA) % 2**64  # draws from seed s to seed t on the one SplitMix64 cycle
                assert gap and gap % 2**32 == 0  # so neither selector's first 2^32 draws reach the other's


class TestSeedParsing:
    def test_accepts_decimal_and_hex_strings(self):
        assert validate_seed("123") == 123
        assert validate_seed("0xFF") == 255
        assert validate_seed("0X1F") == 31
        assert validate_seed(2**64 - 1) == 2**64 - 1

    @pytest.mark.parametrize("bad", [-1, 2**64, "0y12", "12.5", 1.5, True, None, "1_000", " 12 ", "+5", "0x_ff",
                                     "\u0661\u0662", "\u00b2"])
    def test_rejects_bad_seeds(self, bad):
        with pytest.raises(ValidationError):
            validate_seed(bad)
