import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bellsim.directions import X_AXIS, Y_AXIS, Z_AXIS, max_violation_triple
from bellsim.errors import ValidationError
from bellsim.hidden_variables import (
    ContextualFiniteModel,
    _GRID,
    _MAX_ROWS,
    ContextualModelSampler,
    FiniteHVModel,
    FiniteModelSampler,
    QmMimicSampler,
    SignModelSampler,
    exact_correlator,
    load_model,
    model_from_jsonable,
    model_to_jsonable,
    random_finite_model,
    write_model,
)
from bellsim.protocol import ExperimentConfig, make_sampler
from bellsim.selector import GAMMA, GEOMETRIES, MASK64, ContextSet, trial_uniforms, unmix64

TRIPLE = ContextSet("temporal", max_violation_triple())
AB, AC, BC = range(3)  # context codes of TRIPLE


def constant_model(n_slots=3):
    return FiniteHVModel([1.0], [[1] * n_slots])


def constant_contextual_model():
    return ContextualFiniteModel({"AB": constant_model(), "AC": constant_model(), "BC": constant_model()})


def exact_correlators(model, kind="temporal"):
    """exact_correlator at the slot pairs of the geometry's contexts, in context order."""
    return tuple(exact_correlator(model, sx, sy) for sx, sy in GEOMETRIES[kind][1])


def sign_closed_form(d1, d2):
    """The sign model's correlator 1 - 2*theta/pi, theta the angle between d1 and d2."""
    return 1.0 - 2.0 * math.acos(max(-1.0, min(1.0, d1.dot(d2)))) / math.pi


class TestFiniteModelValidation:
    def test_weights_must_be_normalized(self):
        with pytest.raises(ValidationError):
            FiniteHVModel([0.5, 0.4], [[1, 1, 1], [1, 1, 1]])

    @pytest.mark.parametrize("weights", [[math.nan, 0.5], [math.inf, 0.5], [0.5, math.nan]])
    def test_weights_must_be_finite(self, weights):
        with pytest.raises(ValidationError, match="finite"):
            FiniteHVModel(weights, [[1, 1, 1], [1, -1, 1]])

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            FiniteHVModel([1.5, -0.5], [[1, 1, 1], [1, 1, 1]])

    def test_responses_must_be_plus_minus_one(self):
        with pytest.raises(ValidationError):
            FiniteHVModel([1.0], [[1, 0, 1]])

    def test_response_rows_must_match_weights(self):
        with pytest.raises(ValidationError):
            FiniteHVModel([0.5, 0.5], [[1, 1, 1]])

    def test_slot_count_limited(self):
        with pytest.raises(ValidationError):
            FiniteHVModel([1.0], [[1, 1, 1, 1, 1]])

    def test_empty_model_rejected(self):
        with pytest.raises(ValidationError, match="weights must be a non-empty 1-d sequence"):
            FiniteHVModel([], [])

    def test_contextual_model_without_tables_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one context table"):
            ContextualFiniteModel({})

    @pytest.mark.parametrize("weights,responses", [
        (["half", 0.5], [[1, 1, 1], [1, 1, 1]]),
        ([True], [[1, 1, 1]]),
        ([1.0], [[1, 1.5, 1]]),
        ([1.0], [[1, "x", 1]]),
        ([1.0], [[True, True, True]]),
        ([1.0], [[1, [1], 1]]),
    ])
    def test_non_numeric_or_non_sign_entries_rejected(self, weights, responses):
        with pytest.raises(ValidationError):
            FiniteHVModel(weights, responses)

    def test_numpy_tables_accepted(self):
        model = FiniteHVModel(np.array([0.5, 0.5]), np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]]))
        assert model.responses.dtype == np.int8 and model.responses[1, 0] == -1


class TestExactCorrelators:
    def test_constant_model(self):
        assert exact_correlators(constant_model()) == (1.0, 1.0, 1.0)

    def test_anti_aligned_model(self):
        model = FiniteHVModel([1.0], [[1, -1, -1]])
        assert exact_correlators(model) == (-1.0, -1.0, 1.0)

    def test_two_lambda_hand_enumeration(self):
        model = FiniteHVModel([0.5, 0.5], [[1, 1, 1], [1, -1, -1]])
        assert exact_correlators(model) == (0.0, 0.0, 1.0)

    def test_non_finite_model_rejected(self):
        with pytest.raises(ValidationError, match="finite model"):
            exact_correlator(constant_contextual_model(), 1, 2)

    def test_slot_out_of_range(self):
        with pytest.raises(ValidationError):
            exact_correlators(constant_model(3), "chsh")

    def test_temporal_bound_holds_for_random_models(self):
        for seed in range(2000):
            model = random_finite_model(seed, 1 + seed % 8)
            p_ab, p_ac, p_bc = exact_correlators(model)
            assert abs(p_ab - p_ac) + p_bc <= 1.0 + 1e-12

    def test_temporal_bound_holds_under_role_permutations(self):
        from itertools import permutations

        for seed in range(300):
            model = random_finite_model(seed, 1 + seed % 6)
            for sa, sb, sc in permutations((1, 2, 3)):
                lhs = abs(exact_correlator(model, sa, sb) - exact_correlator(model, sa, sc))
                assert lhs <= 1.0 - exact_correlator(model, sb, sc) + 1e-12

    def test_chsh_bound_holds_for_random_models(self):
        for seed in range(2000):
            model = random_finite_model(seed, 1 + seed % 8, n_slots=4)
            p_ab, p_abp, p_apb, p_apbp = exact_correlators(model, "chsh")
            assert abs(p_ab - p_abp) + abs(p_apbp + p_apb) <= 2.0 + 1e-12

    def test_bounds_hold_in_exact_rational_arithmetic(self):
        # same soundness, free of float rounding: weights taken as exact
        # binary rationals
        for seed in range(200):
            model = random_finite_model(seed, 1 + seed % 8, n_slots=4)
            w = [Fraction(x) for x in model.weights]
            r = model.responses
            corr = lambda i, j: sum(wk * int(r[k, i - 1]) * int(r[k, j - 1]) for k, wk in enumerate(w))
            total = sum(w)
            assert abs(corr(1, 2) - corr(1, 3)) * total <= (total - corr(2, 3)) * total
            assert abs(corr(1, 3) - corr(1, 4)) + abs(corr(2, 4) + corr(2, 3)) <= 2 * total


class TestRandomFiniteModel:
    def test_reproducible(self):
        m1 = random_finite_model(7, 5)
        m2 = random_finite_model(7, 5)
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.responses, m2.responses)

    def test_single_lambda_is_deterministic(self):
        model = random_finite_model(3, 1)
        for value in exact_correlators(model):
            assert value in (-1.0, 1.0)

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValidationError):
            random_finite_model(0, 0)

    def test_five_slots_rejected(self):
        with pytest.raises(ValidationError, match="n_slots must be 3 or 4, got 5"):
            random_finite_model(0, 2, n_slots=5)


class TestFiniteTrial:
    # the scalar reference of FiniteModelSampler, one trial at a time
    def test_constant_model_always_agrees(self, rng):
        sampler = FiniteModelSampler(constant_model(), TRIPLE)
        for code in range(len(TRIPLE)):
            for _ in range(20):
                assert sampler.trial(code, rng.random(), rng.random()) == (1, 1)

    def test_lambda_selection_thresholds(self):
        sampler = FiniteModelSampler(FiniteHVModel([0.25, 0.75], [[1, 1, 1], [-1, -1, -1]]), TRIPLE)
        assert sampler.trial(AB, 0.2, 0.0) == (1, 1)
        assert sampler.trial(AB, 0.25, 0.0) == (-1, -1)  # right-closed at the cumsum
        assert sampler.trial(AB, 0.999999, 0.0) == (-1, -1)

    def test_same_lambda_feeds_both_slots(self, rng):
        sampler = FiniteModelSampler(FiniteHVModel([0.5, 0.5], [[1, 1, 1], [-1, -1, -1]]), TRIPLE)
        for _ in range(50):
            s1, s2 = sampler.trial(AB, rng.random(), rng.random())
            assert s1 == s2

    def test_rejects_contextual_models(self):
        config = ExperimentConfig("hv:ctx.json", max_violation_triple(), 10, 1, 2)
        with pytest.raises(ValidationError, match="hv mode needs a FiniteHVModel"):
            make_sampler(config, model=constant_contextual_model())

    def test_conspiracy_rejects_non_contextual_models(self):
        config = ExperimentConfig("conspiracy:finite.json", max_violation_triple(), 10, 1, 2)
        with pytest.raises(ValidationError, match="conspiracy mode needs a ContextualFiniteModel"):
            make_sampler(config, model=constant_model())


class TestSignModel:
    def test_correlator_formula_against_independent_sampling(self, rng):
        # oracle: sphere sampling with numpy's own generator, nothing shared
        # with the library streams
        n = 2_000_000
        v = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        for d1, d2 in [(Z_AXIS, X_AXIS), (max_violation_triple()[0], Z_AXIS)]:
            s1 = np.sign(v @ (d1.x, d1.y, d1.z))
            s2 = np.sign(v @ (d2.x, d2.y, d2.z))
            mc = float(np.mean(s1 * s2))
            assert abs(mc - sign_closed_form(d1, d2)) <= 4 / math.sqrt(n)
            sampler = SignModelSampler(ContextSet("temporal", (d1, d2, Y_AXIS)))
            assert abs(sampler.exact_moments(AB)[2] - sign_closed_form(d1, d2)) < 1e-12

    def test_saturates_at_max_violation_geometry(self):
        sampler = SignModelSampler(TRIPLE)
        for code, ctx in enumerate(TRIPLE.contexts):
            assert abs(sampler.exact_moments(code)[2] - sign_closed_form(ctx.dir_x, ctx.dir_y)) < 1e-12
        p_ab, p_ac, p_bc = (sampler.exact_moments(c)[2] for c in (AB, AC, BC))
        assert abs(p_ab - 0.5) < 1e-12
        assert abs(p_ac + 0.5) < 1e-12
        assert abs(p_bc) < 1e-12
        assert abs(abs(p_ab - p_ac) + p_bc - 1.0) < 1e-12  # saturation, not violation

    def test_run_matches_trial_on_exactly_zero_projections(self):
        # u1 = 1/2 puts the axis in the xy plane (z = 0 exactly); u2 = 0 puts it
        # on the x axis (y = r sin 0 = 0 exactly)
        sampler = SignModelSampler(ContextSet("temporal", (X_AXIS, Y_AXIS, Z_AXIS)))
        u1 = np.array([0.5, 0.5, 0.5, 0.25, 0.75, 0.0])
        u2 = np.array([0.0, 0.25, 0.5, 0.0, 0.0, 0.0])
        for code in range(3):
            codes = np.full(u1.size, code, dtype=np.uint8)
            s1, s2 = sampler.run(codes, u1, u2)
            assert list(zip(s1.tolist(), s2.tolist())) == [sampler.trial(code, a, b) for a, b in zip(u1, u2)]

    def test_sampler_matches_formula(self, rng):
        sampler = SignModelSampler(TRIPLE)
        n = 100_000
        u = rng.random((2, n))
        for code in range(3):
            s1, s2 = sampler.run(np.full(n, code, dtype=np.uint8), u[0], u[1])
            assert abs(float(np.mean(s1 * s2)) - sampler.exact_moments(code)[2]) <= 4 / math.sqrt(n)
            assert abs(float(np.mean(s1))) <= 4 / math.sqrt(n)


class TestQmMimic:
    def test_aligned_directions_always_agree(self, rng):
        sampler = QmMimicSampler(ContextSet("temporal", (Z_AXIS, Z_AXIS, X_AXIS)))  # AB: x.y = 1
        for _ in range(50):
            s1, s2 = sampler.trial(AB, rng.random(), rng.random())
            assert s1 == s2

    def test_joint_distribution_enumeration(self):
        # trial is piecewise constant in (u1, u2) with thresholds at 1/2 and
        # p_same, so one trial per cell, weighted by its area, gives the joint law
        sampler = QmMimicSampler(TRIPLE)
        for code, ctx in enumerate(TRIPLE.contexts):
            v = ctx.dir_x.dot(ctx.dir_y)
            p_same = (1.0 + v) / 2.0
            joint = {}
            for u1 in (0.25, 0.75):
                for u2, width in ((p_same / 2, p_same), ((1.0 + p_same) / 2, 1.0 - p_same)):
                    pair = sampler.trial(code, u1, u2)
                    joint[pair] = joint.get(pair, 0.0) + 0.5 * width
            assert len(joint) == 4
            for (s1, s2), p in joint.items():
                assert abs(p - (1.0 + s1 * s2 * v) / 4.0) < 1e-12
            correlator = sum(s1 * s2 * p for (s1, s2), p in joint.items())
            assert abs(correlator - v) < 1e-12

    def test_sampler_reproduces_quantum_correlators(self, rng):
        sampler = QmMimicSampler(TRIPLE)
        n = 100_000
        u = rng.random((2, n))
        for code in range(3):
            s1, s2 = sampler.run(np.full(n, code, dtype=np.uint8), u[0], u[1])
            target = sampler.exact_moments(code)[2]
            assert abs(float(np.mean(s1 * s2)) - target) <= 4 / math.sqrt(n)

    def test_violates_temporal_bound_like_quantum(self):
        sampler = QmMimicSampler(TRIPLE)
        values = [sampler.exact_moments(code)[2] for code in range(3)]
        bell = abs(values[0] - values[1]) + values[2]
        assert abs(bell - math.sqrt(2.0)) < 1e-12
        assert bell > 1.0


class TestModelFiles:
    def test_finite_round_trip(self, tmp_path):
        model = random_finite_model(11, 4)
        path = tmp_path / "model.json"
        write_model(model, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.responses, model.responses)

    def test_contextual_round_trip(self, tmp_path):
        doc = {
            key: {"lambdas": [{"weight": 1.0, "responses": [1, -1, 1]}]}
            for key in ("ab", "ac", "bc")
        }
        path = tmp_path / "ctx.json"
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert isinstance(model, ContextualFiniteModel)
        assert model.for_tag("AB").responses[0, 1] == -1
        round_tripped = model_from_jsonable(model_to_jsonable(model))
        assert np.array_equal(round_tripped.for_tag("BC").weights, model.for_tag("BC").weights)

    def test_contextual_distributions_differ_per_context(self, rng):
        per = {
            "AB": FiniteHVModel([1.0], [[1, 1, 1]]),
            "AC": FiniteHVModel([1.0], [[-1, -1, -1]]),
            "BC": FiniteHVModel([1.0], [[1, -1, 1]]),
        }
        sampler = ContextualModelSampler(ContextualFiniteModel(per), TRIPLE)
        assert sampler.trial(AB, rng.random(), rng.random()) == (1, 1)
        assert sampler.trial(AC, rng.random(), rng.random()) == (-1, -1)
        assert sampler.trial(BC, rng.random(), rng.random()) == (-1, 1)

    def test_missing_context_table(self):
        with pytest.raises(ValidationError):
            ContextualFiniteModel({"AB": constant_model()}).for_tag("BC")

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"lambdas": []},
            {"lambdas": [{"weight": 1.0}]},
            {"lambdas": [{"weight": 0.5, "responses": [1, 1, 1]}, {"weight": 0.5, "responses": [1, 1]}]},
            {"ab": {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]}},
            {"ab": 5, **{key: {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]} for key in ("ac", "bc")}},
            {"lambdas": [{"weight": "half", "responses": [1, 1, 1]}, {"weight": 0.5, "responses": [1, 1, 1]}]},
            {"lambdas": [{"weight": True, "responses": [1, 1, 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": [1, 1.5, 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": [1, "x", 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": [1, 257, 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": [1, [1], 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": [1, True, 1]}]},
            {"lambdas": [{"weight": 1.0, "responses": "111"}]},
            [{"weight": 1.0, "responses": [1, 1, 1]}],
            {key: {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1, 1]}]} for key in ("ab", "ac", "bc")},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValidationError):
            model_from_jsonable(doc)

    def test_unknown_model_type_not_serialized(self):
        with pytest.raises(ValidationError, match="cannot serialize models of type object"):
            model_to_jsonable(object())

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_model(path)


class TestSamplerBinding:
    def test_sampled_correlators_converge_to_exact(self, rng):
        model = random_finite_model(29, 6)
        sampler = FiniteModelSampler(model, TRIPLE)
        n = 90_000
        u = rng.random((2, n))
        codes = (np.arange(n) % 3).astype(np.uint8)
        s1, s2 = sampler.run(codes, u[0], u[1])
        prod = s1.astype(np.int32) * s2
        for code in range(3):
            mask = codes == code
            exact = sampler.exact_moments(code)[2]
            assert abs(float(prod[mask].mean()) - exact) <= 4 / math.sqrt(mask.sum())

    @pytest.mark.parametrize("contextual", [False, True])
    def test_run_on_cumulative_edges_matches_trial(self, contextual):
        # cumulative weights 0.25, 0.25, 0.75, 1 - 1e-13: u on a threshold takes
        # the next initial condition, and u above the last one the last
        edged = FiniteHVModel([0.25, 0.0, 0.5, 0.25 - 1e-13], [[1, 1, 1], [-1, -1, -1], [1, -1, 1], [-1, 1, -1]])
        cum = np.cumsum(edged.weights)
        assert cum[-1] < 1.0
        if contextual:
            tables = {"AB": edged, "AC": random_finite_model(7, 5), "BC": FiniteHVModel([1.0], [[-1, 1, 1]])}
            sampler = ContextualModelSampler(ContextualFiniteModel(tables), TRIPLE)
        else:
            sampler = FiniteModelSampler(edged, TRIPLE)
        u1 = np.concatenate([cum, [0.0, 0.3, (cum[-1] + 1.0) / 2, np.nextafter(1.0, 0.0)]])
        chosen = np.minimum(np.searchsorted(edged._cum, u1, side="right"), edged.n_lambda - 1)
        assert chosen.tolist() == [2, 2, 3, 3, 0, 2, 3, 3]
        for code in range(3):
            s1, s2 = sampler.run(np.full(u1.size, code, dtype=np.uint8), u1, np.zeros(u1.size))
            assert list(zip(s1.tolist(), s2.tolist())) == [sampler.trial(code, u, 0.0) for u in u1]

    def test_largest_draw_is_below_1_and_run_matches_trial_on_it(self):
        # trial 0's first draw is mix64(mix64(seed) + GAMMA) >> 11, times 2^-53: this seed makes it all ones
        seed = unmix64((unmix64(MASK64) - GAMMA) & MASK64)
        u1 = trial_uniforms(seed, 0, 1, 1)[0]
        assert u1.tolist() == [1.0 - 2.0 ** -53]
        sampler = FiniteModelSampler(random_finite_model(7, 5), TRIPLE)
        for code in range(3):
            s1, s2 = sampler.run(np.full(1, code, dtype=np.uint8), u1)
            assert (s1[0], s2[0]) == sampler.trial(code, u1[0], 0.0)

    def test_three_slot_model_rejected_for_chsh(self):
        contexts = ContextSet("chsh", (X_AXIS, Y_AXIS, Z_AXIS, X_AXIS))
        with pytest.raises(ValidationError):
            FiniteModelSampler(constant_model(3), contexts)

    def test_four_slot_model_runs_temporal(self, rng):
        sampler = FiniteModelSampler(random_finite_model(5, 3, n_slots=4), TRIPLE)
        codes = rng.integers(0, 3, size=100).astype(np.uint8)
        u = rng.random((2, 100))
        s1, s2 = sampler.run(codes, u[0], u[1])
        assert set(np.unique(s1)) <= {-1, 1}

    def test_contextual_sampler_requires_temporal(self):
        contexts = ContextSet("chsh", (X_AXIS, Y_AXIS, Z_AXIS, X_AXIS))
        per = {tag: constant_model() for tag in ("AB", "AC", "BC")}
        with pytest.raises(ValidationError):
            ContextualModelSampler(ContextualFiniteModel(per), contexts)


def clustered_model(start=0.3, tiny=(1e-5, 2e-5, 3e-5)):
    # by default thresholds 0.3, 0.30001 and 0.30003 share one cell of 1/4096, and 0.30006 starts the next
    weights = [start, *tiny, 0.25]
    responses = [[1, 1, 1], [-1, 1, -1], [1, -1, -1], [-1, -1, 1], [1, 1, -1], [-1, 1, 1]]
    return FiniteHVModel([*weights, 1.0 - sum(weights)], responses)


# name: (sampler factory, T: the most thresholds strictly inside one cell)
BUCKET_MODELS = {
    "tiny weights in one cell": (lambda: FiniteModelSampler(clustered_model(), TRIPLE), 3),
    "tiny weights at 0": (lambda: FiniteModelSampler(clustered_model(1e-9, (1e-9, 2e-9, 5e-10)), TRIPLE), 4),
    # 0.25, 0.75 and 1 are cell edges
    "thresholds on cell edges": (lambda: FiniteModelSampler(
        FiniteHVModel([0.25, 0.5, 0.25], [[1, 1, 1], [-1, 1, -1], [1, -1, 1]]), TRIPLE), 0),
    "contexts that share a cell": (lambda: ContextualModelSampler(ContextualFiniteModel({
        "AB": clustered_model(), "AC": clustered_model(0.30002, (1e-6, 2e-6, 4e-6)),
        "BC": FiniteHVModel([0.300015, 0.699985], [[1, 1, 1], [-1, -1, -1]])}), TRIPLE), 8),
}


class TestBucketLookup:
    """The finite samplers' grid lookup gives np.searchsorted's bucket, exactly."""

    @pytest.mark.parametrize("name", list(BUCKET_MODELS))
    def test_bucket_is_the_binary_search(self, name, rng):
        make, passes = BUCKET_MODELS[name]
        sampler = make()
        assert sampler._inner.shape[0] == passes
        union = np.unique(np.concatenate([m._cum for m in sampler._subs]))
        edges = np.arange(_GRID + 1) / _GRID
        u = np.concatenate([union, np.nextafter(union, 0.0), edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 1.0), [0.0], rng.random(10_000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(sampler._bucket(u), np.searchsorted(union, u, side="right"))
        for code in range(3):
            s1, s2 = sampler.run(np.full(u.size, code, dtype=np.uint8), u)
            assert list(zip(s1.tolist(), s2.tolist())) == [sampler.trial(code, x, 0.0) for x in u.tolist()]

    @pytest.mark.parametrize("crowd", [_MAX_ROWS, _MAX_ROWS + 1])
    def test_a_crowded_cell_keeps_the_table_bounded(self, crowd, rng):
        # crowd tiny weights inside cell 0 plus one large weight: the grid would need a row per tiny weight
        weights = [1e-9] * crowd
        model = FiniteHVModel([*weights, 1.0 - sum(weights)], rng.integers(0, 2, (crowd + 1, 3)) * 2 - 1)
        sampler = FiniteModelSampler(model, TRIPLE)
        if crowd <= _MAX_ROWS:
            assert sampler._inner.shape == (crowd, _GRID)
        else:
            assert sampler._inner is None and sampler._base is None
        u = np.concatenate([model._cum, np.nextafter(model._cum, 0.0), [0.0], rng.random(2000)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(sampler._bucket(u), np.searchsorted(model._cum, u, side="right"))
        for code in range(3):
            s1, s2 = sampler.run(np.full(u.size, code, dtype=np.uint8), u)
            assert list(zip(s1.tolist(), s2.tolist())) == [sampler.trial(code, x, 0.0) for x in u.tolist()]
