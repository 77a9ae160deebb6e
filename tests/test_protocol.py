import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

import bellsim.protocol as protocol
from bellsim.directions import X_AXIS, Y_AXIS, Z_AXIS, max_violation_triple, tsirelson_quadruple
from bellsim.errors import InsufficientDataError, ValidationError
from bellsim.hidden_variables import ContextualFiniteModel, FiniteHVModel, random_finite_model


def skewed_contextual_model(sizes=(4, 2, 7)):
    return ContextualFiniteModel({tag: random_finite_model(101 + i, size)
                                  for i, (tag, size) in enumerate(zip(("AB", "AC", "BC"), sizes))})


def zero_weight_model():
    # zero weights repeat cumulative values, so some initial conditions are never drawn
    responses = [[1, 1, 1], [-1, -1, -1], [1, -1, 1], [-1, 1, -1], [1, 1, -1], [-1, -1, 1]]
    return FiniteHVModel([0.0, 0.25, 0.0, 0.5, 0.0, 0.25], responses)
from bellsim.protocol import (
    RECORDS_HEADER,
    CorrelatorEstimate,
    ExperimentConfig,
    RecordBatch,
    TrialRecord,
    _run_reference,
    analyze_records,
    bell_quantity,
    chsh_quantity,
    estimate_correlators,
    load_config,
    load_report,
    report_from_jsonable,
    report_to_jsonable,
    round12,
    run_experiment,
    write_report,
)
from bellsim.quantum import QubitState
from bellsim.selector import GAMMA, MASK64, mix64

TRIPLE = max_violation_triple()
QUAD = tsirelson_quadruple()

# a selector seed whose first draw finalizes to 2^64-1, the one value the
# 3-way mapping rejects (see tests/test_selector.py)
REJECTING_SEED = 0x31628AF67B2131AB

# every backend, with in-memory models for the file-based ones
BACKEND_CASES = [
    (dict(mode="qm_sequential"), None),
    (dict(mode="qm_singlet", directions=QUAD), None),
    (dict(mode="hv:sign-model"), None),
    (dict(mode="conspiracy:qm-mimic"), None),
    (dict(mode="hv:mem.json"), random_finite_model(17, 5)),
    (dict(mode="hv:mem4.json", directions=QUAD), random_finite_model(19, 4, n_slots=4)),
    (dict(mode="conspiracy:mem.json"), skewed_contextual_model()),
    (dict(mode="hv:zeros.json"), zero_weight_model()),
    (dict(mode="conspiracy:sizes.json"), skewed_contextual_model((1, 10, 3))),
    (dict(mode="hv:sign-model", directions=QUAD), None),
    # every projection on an axis adds two products with an exact zero factor
    (dict(mode="hv:sign-model", directions=(X_AXIS, Y_AXIS, Z_AXIS)), None),
]


def masked_mean_estimates(batch):
    # the estimator before the count table: one mask and one mean per context
    prod = batch.s1.astype(np.int32) * batch.s2.astype(np.int32)
    out = {}
    for code, tag in enumerate(batch.tags):
        mask = batch.codes == code
        n = int(np.count_nonzero(mask))
        mean = float(prod[mask].mean())
        out[tag] = CorrelatorEstimate(tag, n, mean, math.sqrt(max(0.0, 1.0 - mean * mean) / n))
    return out


def temporal_config(**overrides):
    base = dict(mode="qm_sequential", directions=TRIPLE, n_trials=1000,
                selector_seed=1, outcome_seed=2)
    base.update(overrides)
    return ExperimentConfig(**base)


def config_doc(**overrides):
    doc = {
        "mode": "qm_sequential",
        "directions": [[d.x, d.y, d.z] for d in TRIPLE],
        "n_trials": 100,
        "selector_seed": 1,
        "outcome_seed": 2,
    }
    doc.update(overrides)
    return doc


class TestConfigValidation:
    @pytest.mark.parametrize("key", ["mode", "directions", "n_trials", "selector_seed", "outcome_seed"])
    def test_missing_key_is_named(self, key):
        doc = config_doc()
        del doc[key]
        with pytest.raises(ValidationError, match=key):
            ExperimentConfig.from_dict(doc)

    def test_unknown_key_is_named(self):
        with pytest.raises(ValidationError, match="n_trails"):
            ExperimentConfig.from_dict(config_doc(n_trails=10))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError, match="n_trials"):
            ExperimentConfig.from_dict(config_doc(n_trials=0))

    def test_non_integer_trials_rejected(self):
        with pytest.raises(ValidationError, match="n_trials"):
            ExperimentConfig.from_dict(config_doc(n_trials=True))

    def test_non_unit_direction_rejected(self):
        doc = config_doc()
        doc["directions"][0] = [1.0, 1.0, 0.0]
        with pytest.raises(ValidationError, match=r"directions"):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("vector", [[math.nan, 0.0, 1.0], [0.0, math.inf, 0.0]])
    def test_non_finite_direction_rejected(self, vector):
        doc = config_doc()
        doc["directions"][0] = vector
        with pytest.raises(ValidationError, match=r"'directions'\[0\]: .* non-finite"):
            ExperimentConfig.from_dict(doc)

    def test_wrong_arity_for_mode(self):
        with pytest.raises(ValidationError, match="directions"):
            ExperimentConfig.from_dict(config_doc(mode="qm_singlet"))
        quad = [[d.x, d.y, d.z] for d in QUAD]
        with pytest.raises(ValidationError, match="directions"):
            ExperimentConfig.from_dict(config_doc(mode="conspiracy:qm-mimic", directions=quad))

    def test_bad_mode_string(self):
        with pytest.raises(ValidationError, match="mode"):
            ExperimentConfig.from_dict(config_doc(mode="quantum"))
        with pytest.raises(ValidationError, match="mode"):
            ExperimentConfig.from_dict(config_doc(mode="hv:"))

    def test_hex_seed_strings(self):
        cfg = ExperimentConfig.from_dict(config_doc(selector_seed="0xAB", outcome_seed="17"))
        assert cfg.selector_seed == 0xAB and cfg.outcome_seed == 17

    def test_sigma_threshold_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigma_threshold"):
            ExperimentConfig.from_dict(config_doc(sigma_threshold=0.0))

    def test_selector_algorithm_choice_point(self):
        cfg = ExperimentConfig.from_dict(config_doc(selector_algorithm="splitmix64"))
        assert cfg.selector_algorithm == "splitmix64"
        with pytest.raises(ValidationError, match="selector_algorithm"):
            ExperimentConfig.from_dict(config_doc(selector_algorithm="xoshiro"))

    def test_geometry_resolution(self):
        assert temporal_config().geometry == "temporal"
        assert temporal_config(mode="qm_singlet", directions=QUAD).geometry == "chsh"
        assert temporal_config(mode="hv:sign-model", directions=QUAD).geometry == "chsh"
        assert temporal_config(mode="hv:sign-model").geometry == "temporal"

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("not json")
        with pytest.raises(ValidationError):
            load_config(path)


class TestRunExperiment:
    def test_constant_model_records(self):
        cfg = temporal_config(mode="hv:constant.json", n_trials=200)
        model = FiniteHVModel([1.0], [[1, 1, 1]])
        records = run_experiment(cfg, model=model)
        assert len(records) == 200
        assert np.all(records.s1 == 1) and np.all(records.s2 == 1)

    def test_records_are_sequenced_trial_records(self):
        records = run_experiment(temporal_config(n_trials=5))
        assert len(records) == 5
        first = records[0]
        assert isinstance(first, TrialRecord)
        assert first.index == 0
        assert [r.index for r in records] == [0, 1, 2, 3, 4]
        assert all(r.s1 in (-1, 1) and r.s2 in (-1, 1) for r in records)
        assert all(r.context in ("AB", "AC", "BC") for r in records)

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_vectorized_run_matches_per_trial_reference(self, cfg_kwargs, model):
        cfg = temporal_config(n_trials=2000, selector_seed=31, outcome_seed=77, **cfg_kwargs)
        assert run_experiment(cfg, model=model) == _run_reference(cfg, model=model)

    def test_chunking_and_threads_do_not_change_records(self, monkeypatch):
        cfg = temporal_config(n_trials=3000, selector_seed=5, outcome_seed=6)
        whole = run_experiment(cfg)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        chunked = run_experiment(cfg)
        threaded = run_experiment(cfg, threads=4)
        assert chunked == whole
        assert threaded == whole
        assert threaded.sha256() == whole.sha256()

    @pytest.mark.parametrize("rejected_trial", [300, 1234, 1999])
    def test_rejected_draw_in_a_later_span(self, monkeypatch, rejected_trial):
        # draw k + 1 is rejected, so trial k takes draw k + 2 and every later
        # span starts one draw further on; 2000 trials make 8 spans of 250
        seed = (REJECTING_SEED - rejected_trial * GAMMA) % 2**64
        assert mix64((seed + (rejected_trial + 1) * GAMMA) & MASK64) == MASK64
        cfg = temporal_config(n_trials=2000, selector_seed=seed, outcome_seed=3)
        reference = _run_reference(cfg)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        for threads in (1, 2, 4):
            assert run_experiment(cfg, threads=threads) == reference

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, cfg_kwargs, model):
        cfg = temporal_config(n_trials=20_000, selector_seed=(REJECTING_SEED - 7000 * GAMMA) % 2**64,
                              outcome_seed=12, **cfg_kwargs)
        whole = run_experiment(cfg, model=model, threads=1)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        result = []
        worker = threading.Thread(target=lambda: result.append(run_experiment(cfg, model=model, threads=8)),
                                  daemon=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert result == [whole]

    def test_thread_env_override(self, monkeypatch):
        cfg = temporal_config(n_trials=500)
        base = run_experiment(cfg)
        monkeypatch.setenv("BELLSIM_THREADS", "3")
        assert run_experiment(cfg, threads=1) == base
        monkeypatch.setenv("BELLSIM_THREADS", "zero")
        with pytest.raises(ValidationError):
            run_experiment(cfg)

    def test_context_sequence_independent_of_backend_and_outcome_seed(self):
        cfg_a = temporal_config(mode="qm_sequential", n_trials=400, outcome_seed=1)
        cfg_b = temporal_config(mode="conspiracy:qm-mimic", n_trials=400, outcome_seed=999)
        cfg_c = temporal_config(mode="hv:sign-model", n_trials=400, outcome_seed=5)
        codes = [run_experiment(c).codes for c in (cfg_a, cfg_b, cfg_c)]
        assert np.array_equal(codes[0], codes[1])
        assert np.array_equal(codes[0], codes[2])

    def test_selector_seed_changes_contexts_not_targets(self):
        cfg1 = temporal_config(selector_seed=1, n_trials=300)
        cfg2 = temporal_config(selector_seed=2, n_trials=300)
        r1, r2 = run_experiment(cfg1), run_experiment(cfg2)
        assert not np.array_equal(r1.codes, r2.codes)
        # analytic per-context targets depend only on the geometry
        from bellsim.protocol import make_sampler

        s1 = make_sampler(cfg1)
        s2 = make_sampler(cfg2)
        assert [s1.analytic_correlator(c) for c in range(3)] == [s2.analytic_correlator(c) for c in range(3)]

    def test_initial_state_override_keeps_correlators(self):
        cfg = temporal_config(n_trials=60_000, selector_seed=8, outcome_seed=9)
        default_run = estimate_correlators(run_experiment(cfg))
        skewed_run = estimate_correlators(run_experiment(cfg, state0=QubitState.up()))
        for tag in ("AB", "AC", "BC"):
            assert abs(default_run[tag].mean - skewed_run[tag].mean) <= 5 * (
                default_run[tag].stderr + skewed_run[tag].stderr
            )

    def test_state0_rejected_outside_sequential_mode(self):
        cfg = temporal_config(mode="qm_singlet", directions=QUAD)
        with pytest.raises(ValidationError):
            run_experiment(cfg, state0=QubitState.up())

    def test_saturation_when_doubling_trials(self):
        cfg_n = temporal_config(n_trials=20_000, selector_seed=3, outcome_seed=4)
        cfg_2n = temporal_config(n_trials=40_000, selector_seed=3, outcome_seed=4)
        est_n = estimate_correlators(run_experiment(cfg_n))
        est_2n = estimate_correlators(run_experiment(cfg_2n))
        for tag in ("AB", "AC", "BC"):
            assert abs(est_n[tag].mean - est_2n[tag].mean) < 3 * est_n[tag].stderr


class TestEstimators:
    def test_single_context_constant_records(self):
        records = [TrialRecord(i, "AB", 1, 2, 1, 1) for i in range(4)]
        est = estimate_correlators(records, contexts=["AB"])
        assert est["AB"].mean == 1.0 and est["AB"].stderr == 0.0 and est["AB"].n == 4

    def test_two_record_formula(self):
        records = [TrialRecord(0, "AB", 1, 2, 1, 1), TrialRecord(1, "AB", 1, 2, 1, -1)]
        est = estimate_correlators(records, contexts=["AB"])
        assert est["AB"].mean == 0.0
        assert abs(est["AB"].stderr - math.sqrt(0.5)) < 1e-15

    def test_missing_context_is_named(self):
        records = [TrialRecord(i, "AB", 1, 2, 1, 1) for i in range(4)]
        with pytest.raises(InsufficientDataError, match="BC"):
            estimate_correlators(records, contexts=["AB", "BC"])

    def test_undersized_context_is_named(self):
        records = [
            TrialRecord(0, "AB", 1, 2, 1, 1),
            TrialRecord(1, "AB", 1, 2, 1, 1),
            TrialRecord(2, "AC", 1, 3, 1, 1),
        ]
        with pytest.raises(InsufficientDataError, match="AC"):
            estimate_correlators(records, contexts=["AB", "AC"])

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_count_table_equals_masked_means(self, cfg_kwargs, model):
        records = run_experiment(temporal_config(n_trials=30_001, **cfg_kwargs), model=model)
        assert estimate_correlators(records) == masked_mean_estimates(records)

    @pytest.mark.parametrize("cfg_kwargs", [{}, dict(mode="qm_singlet", directions=QUAD)])
    def test_run_fills_the_outcome_counts(self, tmp_path, monkeypatch, cfg_kwargs):
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        cfg = temporal_config(n_trials=3000, **cfg_kwargs)
        for threads in (1, 2, 4):
            batch = run_experiment(cfg, threads=threads)
            assert batch._counts is not None  # counted by the spans, not afterwards
            counts = batch.outcome_counts()
            n_ctx = len(batch.tags)
            key = batch.codes * 4 + (batch.s1 > 0) * 2 + (batch.s2 > 0)
            assert np.array_equal(counts, np.bincount(key, minlength=4 * n_ctx).reshape(n_ctx, 4))
            assert not counts.flags.writeable
        path = tmp_path / "records.csv"
        batch.write_csv(path)
        assert np.array_equal(RecordBatch.from_csv(path).outcome_counts(), counts)

    def test_default_contexts_cover_geometry(self):
        records = run_experiment(temporal_config(n_trials=2))
        # two trials cannot populate all three contexts
        with pytest.raises(InsufficientDataError):
            estimate_correlators(records)

    def test_estimator_consistency_across_seeds(self):
        # every backend with an analytic target: mean within 5 stderr in at
        # least 99 of 100 independent-seed runs
        from bellsim.protocol import make_sampler
        from bellsim.selector import trial_uniforms

        n = 100_000
        setups = [
            temporal_config(mode="qm_sequential", n_trials=n),
            temporal_config(mode="qm_singlet", directions=QUAD, n_trials=n),
            temporal_config(mode="hv:sign-model", n_trials=n),
            temporal_config(mode="conspiracy:qm-mimic", n_trials=n),
        ]
        for cfg in setups:
            sampler = make_sampler(cfg)
            ncodes = len(cfg.context_set())
            passes = 0
            for seed in range(100):
                u = trial_uniforms(seed, 0, n // 10, n_draws=2)
                codes = np.arange(n // 10, dtype=np.uint8) % ncodes
                s1, s2 = sampler.run(codes, u[0], u[1])
                ok = True
                prod = s1.astype(np.int32) * s2
                for code in range(ncodes):
                    mask = codes == code
                    mean = float(prod[mask].mean())
                    stderr = math.sqrt(max(0.0, 1 - mean * mean) / mask.sum())
                    if abs(mean - sampler.analytic_correlator(code)) > 5 * max(stderr, 1e-12):
                        ok = False
                passes += ok
            assert passes >= 99, cfg.mode


class TestQuantities:
    def exact(self, tag, mean):
        return CorrelatorEstimate(tag, 1000, mean, 0.0)

    def noisy(self, tag, mean, stderr):
        return CorrelatorEstimate(tag, 1000, mean, stderr)

    def test_all_ones_is_consistent(self):
        report = bell_quantity([self.exact("AB", 1.0), self.exact("AC", 1.0), self.exact("BC", 1.0)])
        assert report.value == 1.0 and report.verdict == "consistent"

    def test_quantum_values_violate(self):
        r = 1 / math.sqrt(2)
        report = bell_quantity([self.exact("AB", r), self.exact("AC", -r), self.exact("BC", 0.0)])
        assert abs(report.value - math.sqrt(2)) < 1e-12
        assert report.verdict == "violation"
        assert math.isinf(report.sigma_excess)

    def test_sign_model_values_saturate(self):
        report = bell_quantity([self.exact("AB", 0.5), self.exact("AC", -0.5), self.exact("BC", 0.0)])
        assert report.value == 1.0 and report.verdict == "consistent"

    def test_missing_context(self):
        with pytest.raises(InsufficientDataError, match="BC"):
            bell_quantity([self.exact("AB", 0.5), self.exact("AC", -0.5)])

    def test_stderr_propagates_in_quadrature(self):
        report = bell_quantity([
            self.noisy("AB", 0.5, 0.01), self.noisy("AC", -0.5, 0.02), self.noisy("BC", 0.0, 0.02),
        ])
        assert abs(report.stderr - 0.03) < 1e-15

    def test_verdict_trichotomy(self):
        cases = [
            (0.9, 0.01, "consistent"),
            (1.02, 0.01, "inconclusive"),  # 2 sigma above: neither side
            (1.2, 0.01, "violation"),
        ]
        for value, stderr, expected in cases:
            report = bell_quantity([
                self.noisy("AB", value, stderr), self.noisy("AC", 0.0, 0.0), self.noisy("BC", 0.0, 0.0),
            ])
            assert report.verdict == expected, (value, report.sigma_excess)

    def test_chsh_all_ones_hits_bound(self):
        est = [self.exact(t, 1.0) for t in ("AB", "ABp", "ApB", "ApBp")]
        report = chsh_quantity(est)
        assert report.value == 2.0 and report.verdict == "consistent"

    def test_chsh_tsirelson_values(self):
        r = 1 / math.sqrt(2)
        est = [
            self.exact("AB", -r), self.exact("ABp", r),
            self.exact("ApB", -r), self.exact("ApBp", -r),
        ]
        report = chsh_quantity(est)
        assert abs(report.value - 2 * math.sqrt(2)) < 1e-12
        assert report.verdict == "violation"

    def test_chsh_missing_context(self):
        with pytest.raises(InsufficientDataError, match="ApBp"):
            chsh_quantity([self.exact("AB", 0.0), self.exact("ABp", 0.0), self.exact("ApB", 0.0)])


class TestGoldenRun:
    # regression pin: first execution of this exact configuration
    GOLDEN = {
        "AB": (33762, 0.7055269237604407),
        "AC": (32957, -0.7056164092605516),
        "BC": (33281, -0.0008713680478351011),
    }
    GOLDEN_B = 1.410271964973157
    GOLDEN_SHA = "14d7cf7d020ec35037602dc4c5c9707d904d5b2c665c5b92484c1c01f04c8d23"

    def test_golden_means_and_hash(self):
        cfg = ExperimentConfig(
            mode="qm_sequential", directions=TRIPLE, n_trials=100_000,
            selector_seed=0x5EED, outcome_seed=0x0DDF00D,
        )
        records = run_experiment(cfg)
        est = estimate_correlators(records)
        for tag, (n, mean) in self.GOLDEN.items():
            assert est[tag].n == n
            assert est[tag].mean == mean
        assert bell_quantity(est).value == self.GOLDEN_B
        assert records.sha256() == self.GOLDEN_SHA


class TestRecordsCsv:
    def test_exact_csv_layout(self):
        records = RecordBatch(
            "temporal",
            np.array([0, 1, 2]),
            np.array([0, 2, 1]),
            np.array([1, -1, 1]),
            np.array([-1, -1, 1]),
        )
        expected = (
            "trial,context,slot_x,slot_y,s1,s2\n"
            "0,AB,1,2,1,-1\n"
            "1,BC,2,3,-1,-1\n"
            "2,AC,1,3,1,1\n"
        )
        assert records.to_csv_bytes().decode() == expected

    def test_round_trip(self, tmp_path):
        records = run_experiment(temporal_config(n_trials=500))
        path = tmp_path / "records.csv"
        records.write_csv(path)
        loaded = RecordBatch.from_csv(path)
        assert loaded == records
        assert loaded.sha256() == records.sha256()

    def test_chsh_round_trip(self, tmp_path):
        records = run_experiment(temporal_config(mode="qm_singlet", directions=QUAD, n_trials=500))
        path = tmp_path / "records.csv"
        records.write_csv(path)
        assert RecordBatch.from_csv(path) == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(ValidationError, match="line 1"):
            RecordBatch.from_csv(path)

    @pytest.mark.parametrize(
        "row,lineno",
        [
            ("0,AB,1,2,1", 3),
            ("0,AB,1,2,1,2", 3),
            ("0,AB,1,2,one,-1", 3),
            ("0,XY,1,2,1,-1", 3),
            ("0,AB,9,9,1,-1", 3),
            ("1,\u00e9B,1,2,1,-1", 3),
            ("99999999999999999999,AB,1,2,1,-1", 3),
        ],
    )
    def test_malformed_row_cites_line(self, tmp_path, row, lineno):
        path = tmp_path / "r.csv"
        path.write_text("trial,context,slot_x,slot_y,s1,s2\n0,AB,1,2,1,-1\n" + row + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"line {lineno}"):
            RecordBatch.from_csv(path)

    @pytest.mark.parametrize("trials,lineno", [([5, 5, -3], 2), ([0, 1, 1], 4), ([0, 2, 1], 3), ([1], 2)])
    def test_trial_column_must_run_from_zero(self, tmp_path, trials, lineno):
        path = tmp_path / "r.csv"
        path.write_text(RECORDS_HEADER + "\n" + "".join(f"{t},AB,1,2,1,-1\n" for t in trials))
        with pytest.raises(ValidationError, match=f"line {lineno}: trial"):
            RecordBatch.from_csv(path)

    def test_rows_of_both_kinds_cite_the_first_other_kind(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(RECORDS_HEADER + "\n0,AB,1,2,1,-1\n1,AC,1,3,1,1\n2,ABp,1,4,1,1\n")
        with pytest.raises(ValidationError, match="line 4"):
            RecordBatch.from_csv(path)

    def test_non_canonical_spellings_keep_the_canonical_hash(self, tmp_path):
        records = run_experiment(temporal_config(n_trials=20))
        path = tmp_path / "records.csv"
        records.write_csv(path)
        text = path.read_text().replace(",1,", ",+1,").replace("\n1,", "\n01,")
        path.write_text(text)
        loaded = RecordBatch.from_csv(path)
        assert loaded == records
        assert loaded.sha256() == records.sha256() == hashlib.sha256(records.to_csv_bytes()).hexdigest()

    @pytest.mark.parametrize("kind", ["temporal", "chsh"])
    def test_header_only_file_is_rejected(self, tmp_path, kind):
        empty = np.array([], dtype=np.int64)
        path = tmp_path / "records.csv"
        RecordBatch(kind, empty, empty, empty, empty).write_csv(path)
        assert path.read_text() == RECORDS_HEADER + "\n"
        with pytest.raises(ValidationError, match="line 2: no trial rows"):
            RecordBatch.from_csv(path)

    def test_context_code_outside_the_kind_is_rejected(self):
        with pytest.raises(ValidationError, match="below 3"):
            RecordBatch("temporal", np.array([0, 1]), np.array([0, 3]), np.array([1, 1]), np.array([1, 1]))

    def test_from_records_list(self):
        records = [TrialRecord(0, "AB", 1, 2, 1, -1), TrialRecord(1, "BC", 2, 3, -1, -1)]
        batch = RecordBatch.from_records(records)
        assert batch.kind == "temporal"
        assert list(batch) == records

    def test_from_records_rejects_unknown_context(self):
        with pytest.raises(ValidationError):
            RecordBatch.from_records([TrialRecord(0, "ZZ", 1, 2, 1, 1)])


class TestAnalysisReport:
    def test_round_trip(self, tmp_path):
        records = run_experiment(temporal_config(n_trials=5000))
        report = analyze_records(records, mode="qm_sequential")
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded.mode == "qm_sequential"
        assert loaded.records_sha256 == records.sha256()
        assert loaded.bell.verdict == report.bell.verdict
        assert loaded.bell.value == round12(report.bell.value)

    def test_mode_mismatch_rejected(self):
        records = run_experiment(temporal_config(n_trials=500))
        with pytest.raises(ValidationError):
            analyze_records(records, mode="qm_singlet")

    def test_floats_rounded_to_12_digits(self):
        records = run_experiment(temporal_config(n_trials=5000))
        doc = report_to_jsonable(analyze_records(records))
        for entry in doc["estimates"].values():
            assert entry["mean"] == round12(entry["mean"])
        text = json.dumps(doc)
        assert report_from_jsonable(json.loads(text)).n_trials == 5000

    def test_infinite_sigma_excess_survives_round_trip(self):
        records = [TrialRecord(i, tag, sx, sy, 1, 1)
                   for i in range(6) for tag, sx, sy in [("AB", 1, 2), ("AC", 1, 3), ("BC", 2, 3)]]
        batch = RecordBatch.from_records(records)
        report = analyze_records(batch)
        assert report.bell.value == 1.0 and report.bell.verdict == "consistent"
        doc = report_to_jsonable(report)
        assert doc["bell"]["sigma_excess"] is None
        assert report_from_jsonable(doc).bell.verdict == "consistent"
