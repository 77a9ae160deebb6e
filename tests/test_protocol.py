import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest

import bellsim.protocol as protocol
from bellsim.directions import X_AXIS, Y_AXIS, Z_AXIS, Direction3, max_violation_triple, tsirelson_quadruple
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
    RecordReader,
    analyze_records,
    bell_quantity,
    check_sigma_threshold,
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
from bellsim.quantum import QubitState, SequentialSampler
from bellsim.selector import GAMMA, GEOMETRIES, MASK64, context_codes, mix64, state_after, trial_uniforms
from reference import _run_reference, read_records

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
    # no component is zero, so every projection keeps all three terms
    (dict(mode="hv:sign-model", directions=tuple(Direction3.normalized(*v)
                                                 for v in [(1, 2, 3), (-2, 1, 1), (3, -1, 2)])), None),
]


def reachable_attributes(sampler):
    # every attribute reachable from the sampler, by path: the value and a copy if it is an array
    found, todo, seen = {}, [("sampler", sampler)], set()
    while todo:
        path, obj = todo.pop()
        if id(obj) in seen or isinstance(obj, np.ndarray):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            items = enumerate(obj)
        elif isinstance(obj, dict):
            items = obj.items()
        else:
            items = getattr(obj, "__dict__", {}).items()
        for key, value in items:
            found[f"{path}.{key}"] = (value, value.copy() if isinstance(value, np.ndarray) else None)
            todo.append((f"{path}.{key}", value))
    return found


def span_columns(lo, codes, s1, s2):
    """The work of a run_spans run that keeps each span as it is computed: (lo, codes, s1, s2)."""
    return lo, codes, s1, s2


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

    @pytest.mark.parametrize("vector", [["0.7071067811865475", 0.7071067811865475, 0.0], [True, 0.0, 0.0]])
    def test_direction_component_that_is_no_json_number_rejected(self, vector):
        # float() reads both as a unit vector, and the manifest would write them back as numbers
        doc = config_doc()
        doc["directions"][1] = vector
        with pytest.raises(ValidationError, match=r"'directions'\[1\] must be a list of 3 numbers"):
            ExperimentConfig.from_dict(doc)

    def test_direction_component_beyond_float_range_rejected(self):
        doc = config_doc()
        doc["directions"][2] = [0.0, 0.0, 10**400]
        with pytest.raises(ValidationError, match=r"'directions'\[2\]: .*too large"):
            ExperimentConfig.from_dict(doc)

    def test_direction_that_is_no_direction3_rejected(self):
        with pytest.raises(ValidationError, match=r"'directions'\[2\] must be a unit 3-vector"):
            temporal_config(directions=(*TRIPLE[:2], (0.0, 0.0, 1.0)))

    @pytest.mark.parametrize("directions", ["abc", {"a": [0.0, 0.0, 1.0]}, 3])
    def test_directions_that_are_no_list_rejected(self, directions):
        with pytest.raises(ValidationError, match="config key 'directions' must be a list of 3-vectors"):
            ExperimentConfig.from_dict(config_doc(directions=directions))

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
        with pytest.raises(ValidationError, match="config key 'mode' must be a string, got int"):
            protocol.parse_mode(5)

    def test_hex_seed_strings(self):
        cfg = ExperimentConfig.from_dict(config_doc(selector_seed="0xAB", outcome_seed="17"))
        assert cfg.selector_seed == 0xAB and cfg.outcome_seed == 17

    def test_seed_strings_are_stored_parsed(self):
        spelled = ExperimentConfig("qm_sequential", TRIPLE, 100, "0xAB", "17")
        parsed = ExperimentConfig("qm_sequential", TRIPLE, 100, 0xAB, 17)
        assert spelled == parsed and hash(spelled) == hash(parsed)
        assert spelled.to_jsonable() == parsed.to_jsonable()
        assert spelled.to_jsonable()["selector_seed"] == 171

    def test_sigma_threshold_must_be_positive(self):
        with pytest.raises(ValidationError, match="sigma_threshold"):
            ExperimentConfig.from_dict(config_doc(sigma_threshold=0.0))

    @pytest.mark.parametrize("k", [10**400, -(10**400), 2**1024], ids=["10**400", "-10**400", "2**1024"])
    def test_sigma_threshold_beyond_float_range(self, k):
        # math.isfinite would raise OverflowError on these
        with pytest.raises(ValidationError, match="^sigma_threshold must be a positive finite number, got "):
            check_sigma_threshold(k)
        with pytest.raises(ValidationError, match="^config key 'sigma_threshold' must be a positive finite number"):
            ExperimentConfig.from_dict(config_doc(sigma_threshold=k))
        assert check_sigma_threshold(sys.float_info.max) == sys.float_info.max

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

    def test_records_are_sequenced_columns(self):
        records = run_experiment(temporal_config(n_trials=5))
        assert len(records) == 5
        assert records.kind == "temporal" and records.tags == ("AB", "AC", "BC")
        assert records.trial.tolist() == [0, 1, 2, 3, 4]
        assert set(records.s1.tolist()) <= {-1, 1} and set(records.s2.tolist()) <= {-1, 1}
        assert set(records.codes.tolist()) <= {0, 1, 2}

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_vectorized_run_matches_per_trial_reference(self, cfg_kwargs, model):
        cfg = temporal_config(n_trials=2000, selector_seed=31, outcome_seed=77, **cfg_kwargs)
        assert run_experiment(cfg, model=model) == _run_reference(cfg, model=model)

    def test_chunking_and_threads_do_not_change_records(self, monkeypatch):
        cfg = temporal_config(n_trials=3000, selector_seed=5, outcome_seed=6)
        whole = run_experiment(cfg)
        monkeypatch.setattr(protocol, "_STEP", 257)  # the span of a run on one thread
        chunked = run_experiment(cfg)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        threaded = run_experiment(cfg, threads=4)
        assert chunked == whole
        assert threaded == whole
        assert threaded.sha256() == whole.sha256()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_spans_run_at_most_two_per_thread_ahead(self, monkeypatch, threads):
        # a run on one thread simulates spans of _STEP trials, on more of _CHUNK
        monkeypatch.setattr(protocol, "_STEP" if threads == 1 else "_CHUNK", 100)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: threads)  # the pool on any host
        started = []
        context_codes = protocol.context_codes

        def logged(*args):
            started.append(args[1])
            return context_codes(*args)

        monkeypatch.setattr(protocol, "context_codes", logged)
        spans = protocol.run_spans(temporal_config(n_trials=5000), span_columns, threads=threads)
        lo, codes, *_ = next(spans)
        time.sleep(0.05)  # time for a pool without a bound to run ahead
        assert lo == 0 and codes.size == 100
        assert len(started) <= (2 * threads if threads > 1 else 1)
        spans.close()
        whole = np.concatenate([span[1] for span in protocol.run_spans(temporal_config(n_trials=5000),
                                                                       span_columns, threads=threads)])
        assert np.array_equal(whole, run_experiment(temporal_config(n_trials=5000)).codes)

    def test_only_a_serial_run_takes_step_sized_spans(self, monkeypatch):
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # the pool on any host
        cfg = temporal_config(n_trials=40_000)
        serial, pooled = ([span[1].size for span in protocol.run_spans(cfg, span_columns, threads=threads)]
                          for threads in (1, 2))
        assert sum(serial) == 40_000 and max(serial) <= protocol._STEP
        assert min(pooled) > protocol._STEP

    @pytest.mark.parametrize("rejected_trial", [300, 1234, 1999])
    def test_rejected_draw_in_a_later_span(self, monkeypatch, rejected_trial):
        # draw k + 1 is rejected, so trial k takes draw k + 2 and every later
        # span starts one draw further on; 2000 trials make 8 spans of 250
        seed = (REJECTING_SEED - rejected_trial * GAMMA) % 2**64
        assert mix64((seed + (rejected_trial + 1) * GAMMA) & MASK64) == MASK64
        cfg = temporal_config(n_trials=2000, selector_seed=seed, outcome_seed=3)
        reference = _run_reference(cfg)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        monkeypatch.setattr(protocol, "_STEP", 257)  # the span of a run on one thread
        for threads in (1, 2, 4):
            assert run_experiment(cfg, threads=threads) == reference

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, cfg_kwargs, model):
        cfg = temporal_config(n_trials=20_000, selector_seed=(REJECTING_SEED - 7000 * GAMMA) % 2**64,
                              outcome_seed=12, **cfg_kwargs)
        whole = run_experiment(cfg, model=model, threads=1)
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 8)  # eight workers, whatever the host has
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

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_sampler_tables_are_read_only_and_run_changes_nothing(self, cfg_kwargs, model):
        # spans call run from several threads, so a table built or changed there could race
        cfg = temporal_config(**cfg_kwargs)
        sampler = protocol.make_sampler(cfg, model=model)
        before = reachable_attributes(sampler)
        arrays = [path for path, (value, _) in before.items() if isinstance(value, np.ndarray)]
        assert arrays
        assert [path for path in arrays if before[path][0].flags.writeable] == []
        codes = context_codes(cfg.selector_seed, 5000, len(cfg.context_set()))
        u = trial_uniforms(cfg.outcome_seed, 0, 5000)
        sampler.run(codes, u[0], u[1])
        after = reachable_attributes(sampler)
        assert after.keys() == before.keys()
        for path, (value, copy) in before.items():
            assert after[path][0] is value, path
            if copy is not None:
                assert np.array_equal(value, copy), path

    def test_threads_are_capped_at_the_usable_cpus(self, monkeypatch, request):
        # a million threads asked for: the pool is no larger than the CPUs, and the records are those of one thread
        import concurrent.futures

        asked = []

        class InlinePool:  # notes its size and runs each span as it is submitted, on no thread of its own
            def __init__(self, max_workers, thread_name_prefix):
                asked.append(max_workers)

            def submit(self, span, lo, hi):
                future = concurrent.futures.Future()
                future.set_result(span(lo, hi))
                return future

        # the shared pool is made by the first pooled run after the cache is cleared, and must not outlive this test
        protocol._span_pool.cache_clear()
        request.addfinalizer(protocol._span_pool.cache_clear)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", InlinePool)
        monkeypatch.setattr(protocol, "_CHUNK", 100)
        cfg = temporal_config(n_trials=5000)
        spans = list(protocol.run_spans(cfg, span_columns, threads=10**6))
        assert all(size <= protocol._usable_cpus() for size in asked)  # no pool at all where one CPU runs them
        batch = RecordBatch("temporal", *(np.concatenate([span[k] for span in spans]) for k in (1, 2, 3)))
        assert batch == run_experiment(cfg, threads=1)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 3)
        spans = list(protocol.run_spans(cfg, span_columns, threads=10**6))
        assert asked[-1] == 3 and len(spans) == 50  # spans of _CHUNK trials, not one per thread asked for

    def test_usable_cpus_are_the_affinity_set(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert protocol._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert protocol._usable_cpus() == 1

    def test_thread_environment_is_ignored(self, monkeypatch):
        # the thread count is the caller's argument alone: no variable of the environment changes it
        monkeypatch.setattr(protocol, "_STEP", 100)  # the span of a run on one thread
        cfg = temporal_config(n_trials=500)
        serial = run_experiment(cfg)
        monkeypatch.setenv("BELLSIM_THREADS", "3")
        assert run_experiment(cfg, threads=1) == serial
        assert [span[1].size for span in protocol.run_spans(cfg, span_columns, threads=1)] == [100] * 5

    @pytest.mark.parametrize("threads", [0, -1, 2.5, True, "2"])
    def test_thread_count_must_be_a_positive_int(self, tmp_path, threads):
        cfg = temporal_config(n_trials=500)
        with pytest.raises(ValidationError, match=rf"thread count must be a positive integer, got {threads!r}"):
            protocol.check_threads(threads)
        for run in (lambda: run_experiment(cfg, threads=threads),
                    lambda: list(protocol.run_spans(cfg, span_columns, threads=threads)),
                    lambda: protocol.write_run(cfg, tmp_path / "records.csv", threads=threads)):
            with pytest.raises(ValidationError, match="thread count"):
                run()

    def test_a_model_that_fails_to_load_fails_before_the_records_are_opened(self, tmp_path):
        model = tmp_path / "model.json"
        table = {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]}
        model.write_text(json.dumps({"ab": 5, "ac": table, "bc": table}))
        cfg = temporal_config(mode=f"conspiracy:{model}", n_trials=100)
        with pytest.raises(ValidationError, match="context 'ab' must be a JSON object"):
            protocol.run_spans(cfg, span_columns)  # when called, before a span is asked for
        with pytest.raises(ValidationError, match="thread count"):
            protocol.run_spans(temporal_config(), span_columns, threads=0)
        with pytest.raises(ValidationError, match="context 'ab' must be a JSON object"):
            protocol.write_run(cfg, tmp_path / "records.csv")
        assert not (tmp_path / "records.csv").exists()

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
        assert [s1.exact_moments(c) for c in range(3)] == [s2.exact_moments(c) for c in range(3)]

    def test_initial_state_override_keeps_correlators(self):
        # the sampler's preparation moves the marginals, not the correlators
        cfg = temporal_config(n_trials=60_000, selector_seed=8, outcome_seed=9)
        contexts = cfg.context_set()
        codes = context_codes(cfg.selector_seed, cfg.n_trials, len(contexts))
        u = trial_uniforms(cfg.outcome_seed, 0, cfg.n_trials)
        skewed = SequentialSampler(contexts, QubitState.up()).run(codes, u[0], u[1])
        default_run = estimate_correlators(run_experiment(cfg))
        skewed_run = estimate_correlators(RecordBatch(cfg.geometry, codes, *skewed))
        for tag in ("AB", "AC", "BC"):
            assert abs(default_run[tag].mean - skewed_run[tag].mean) <= 5 * (
                default_run[tag].stderr + skewed_run[tag].stderr
            )

    def test_saturation_when_doubling_trials(self):
        cfg_n = temporal_config(n_trials=20_000, selector_seed=3, outcome_seed=4)
        cfg_2n = temporal_config(n_trials=40_000, selector_seed=3, outcome_seed=4)
        est_n = estimate_correlators(run_experiment(cfg_n))
        est_2n = estimate_correlators(run_experiment(cfg_2n))
        for tag in ("AB", "AC", "BC"):
            assert abs(est_n[tag].mean - est_2n[tag].mean) < 3 * est_n[tag].stderr


def temporal_records(*rows):
    """The temporal RecordBatch of (context, s1, s2) rows, in trial order."""
    tags = GEOMETRIES["temporal"][0]
    codes, s1, s2 = zip(*((tags.index(tag), v1, v2) for tag, v1, v2 in rows))
    return RecordBatch("temporal", np.array(codes), np.array(s1), np.array(s2))


# two trials of each context but AB, with mixed outcomes
OTHER_CONTEXTS = [("AC", 1, -1), ("BC", -1, -1), ("AC", -1, -1), ("BC", 1, -1)]


def pool_workers() -> list:
    """The live worker threads of bellsim's span pools."""
    return [thread for thread in threading.enumerate() if thread.name.startswith("bellsim-span")]


def pooled_run_in_child(cfg, conn):
    # the target of a forked child: a pooled run of its own, its columns sent back
    batch = run_experiment(cfg, threads=2)
    conn.send((batch.codes, batch.s1, batch.s2))
    conn.close()


class TestSpanPool:
    """Pooled runs share one pool: the first run on T threads makes it, later ones reuse it, another T replaces it."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)  # the pool on any host
        monkeypatch.setattr(protocol, "_CHUNK", 1000)

    def test_runs_on_one_count_reuse_one_pool_and_another_count_replaces_it(self, monkeypatch):
        cfg = temporal_config(n_trials=20_000)
        serial = run_experiment(cfg)
        for threads in (2, 3, 2):
            monkeypatch.setattr(protocol, "_usable_cpus", lambda threads=threads: threads)
            assert run_experiment(cfg, threads=threads) == serial
        pool = protocol._span_pool(2)
        assert run_experiment(cfg, threads=2) == serial and protocol._span_pool(2) is pool
        gc.collect()
        deadline = time.monotonic() + 30
        while set(pool_workers()) - pool._threads and time.monotonic() < deadline:
            time.sleep(0.01)  # the replaced pools' workers end as they wake
        assert 1 <= len(pool_workers()) <= 2
        assert set(pool_workers()) <= pool._threads

    def test_concurrent_runs_share_and_replace_the_pool_under_fast_switching(self, monkeypatch):
        # runs on 2 and on 3 threads at once: each replaces the pool the other may still be running on
        cfg = temporal_config(n_trials=20_000, selector_seed=(REJECTING_SEED - 7000 * GAMMA) % 2**64)
        serial = run_experiment(cfg)
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 8)
        results = {2: [], 3: []}
        workers = [threading.Thread(target=lambda t=t: results[t].extend(run_experiment(cfg, threads=t)
                                                                         for _ in range(5)), daemon=True)
                   for t in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == {2: [serial] * 5, 3: [serial] * 5}

    @pytest.fixture
    def held_spans(self, monkeypatch):
        """(release, started): every span after the first holds its worker until release is set, and each span
        notes its first trial in started as it starts, so the fourth span submitted is still queued then."""
        release, started = threading.Event(), []

        def held(seed, lo, k):
            started.append(lo)
            if lo:
                release.wait(30)
            return state_after(seed, lo, k)

        monkeypatch.setattr(protocol, "state_after", held)
        yield release, started
        release.set()

    @staticmethod
    def assert_queued_spans_were_cancelled(release, started):
        release.set()
        protocol._span_pool(2).submit(int).result()  # runs after every span queued before it
        time.sleep(0.05)
        assert set(started) <= {0, 1000, 2000}  # at most the spans the two workers had started, and none after

    def test_a_closed_run_cancels_its_queued_spans_and_returns_at_once(self, held_spans):
        release, started = held_spans
        cfg = temporal_config(n_trials=20_000)
        spans = protocol.run_spans(cfg, span_columns, threads=2)
        assert next(spans)[0] == 0
        began = time.monotonic()
        spans.close()
        assert time.monotonic() - began < 10 and not release.is_set()  # no wait for the held spans
        self.assert_queued_spans_were_cancelled(release, started)
        assert run_experiment(cfg, threads=2) == run_experiment(cfg, threads=1)

    def test_a_write_that_fails_cancels_its_queued_spans(self, held_spans, monkeypatch, tmp_path):
        # the exception, held here, keeps the run's frames alive: write_run closes the run itself
        class FullDisk(io.BufferedWriter):  # takes the header, then fails on the first chunk of rows
            def write(self, data):
                if self.tell():
                    raise OSError("disk full")
                return super().write(data)

        monkeypatch.setattr(protocol, "open", lambda path, mode: FullDisk(io.FileIO(path, mode)), raising=False)
        with pytest.raises(OSError, match="disk full") as failed:
            protocol.write_run(temporal_config(n_trials=20_000), tmp_path / "records.csv", threads=2)
        self.assert_queued_spans_were_cancelled(*held_spans)
        assert failed.traceback  # still held, with the frames of the failed write

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_span_is_stored_or_rendered_on_the_thread_that_computes_it(self, monkeypatch, tmp_path, threads):
        # the work of every span runs on a pool worker when pooled, on the caller's thread when serial; the digit
        # table is built once, by the caller, before any span is rendered
        cfg = temporal_config(n_trials=20_000)
        serial = run_experiment(cfg)
        named, built, run_spans, digits4 = [], [], protocol.run_spans, protocol._digits4.__wrapped__

        def naming(config, work, *args, **kwargs):
            def named_work(*span):
                named.append(threading.current_thread().name)
                return work(*span)
            return run_spans(config, named_work, *args, **kwargs)

        monkeypatch.setattr(protocol, "run_spans", naming)
        monkeypatch.setattr(protocol, "_digits4", functools.cache(
            lambda: built.append(threading.current_thread().name) or digits4()))
        assert run_experiment(cfg, threads=threads) == serial
        assert protocol.write_run(cfg, tmp_path / "records.csv", threads=threads) == serial.sha256()
        assert (tmp_path / "records.csv").read_bytes() == serial.to_csv_bytes()
        assert len(named) == (2 * 20 if threads > 1 else 2 * 2)  # spans of _CHUNK = 1000, or of _STEP trials
        if threads > 1:
            assert all(name.startswith("bellsim-span_") for name in named)
        else:
            assert set(named) == {threading.current_thread().name}
        assert built == [threading.current_thread().name]

    def test_a_span_that_raises_leaves_the_pool_to_the_next_run(self, monkeypatch):
        cfg = temporal_config(n_trials=20_000)
        serial, pool = run_experiment(cfg), protocol._span_pool(2)

        def failing(seed, lo, k):
            if lo >= 5000:
                raise RuntimeError(f"span at {lo} failed")
            return state_after(seed, lo, k)

        monkeypatch.setattr(protocol, "state_after", failing)
        with pytest.raises(RuntimeError, match="span at 5000 failed"):
            run_experiment(cfg, threads=2)
        monkeypatch.setattr(protocol, "state_after", state_after)
        assert run_experiment(cfg, threads=2) == serial
        assert protocol._span_pool(2) is pool

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform has no fork")
    def test_a_forked_child_runs_on_a_pool_of_its_own(self):
        # the parent's workers do not exist in the child, so a pool it inherited would take spans and run none
        cfg = temporal_config(n_trials=20_000)
        parent = run_experiment(cfg, threads=2)
        assert pool_workers()
        context = multiprocessing.get_context("fork")
        receive, send = context.Pipe(duplex=False)
        child = context.Process(target=pooled_run_in_child, args=(cfg, send))
        forked = (pytest.warns(DeprecationWarning, match="use of fork") if sys.version_info >= (3, 12)
                  else contextlib.nullcontext())
        with forked:
            child.start()
        send.close()
        with receive:
            answered = receive.poll(30)
            columns = receive.recv() if answered else None
        child.join(30)
        if child.is_alive():
            child.kill()
            child.join()
        assert answered, "the child's pooled run gave no records within 30 s"
        assert child.exitcode == 0
        assert RecordBatch("temporal", *columns) == parent


class TestEstimators:
    def test_single_context_constant_records(self):
        records = temporal_records(*[("AB", 1, 1)] * 4, *OTHER_CONTEXTS)
        est = estimate_correlators(records)
        assert est["AB"].mean == 1.0 and est["AB"].stderr == 0.0 and est["AB"].n == 4

    def test_two_record_formula(self):
        records = temporal_records(("AB", 1, 1), ("AB", 1, -1), *OTHER_CONTEXTS)
        est = estimate_correlators(records)
        assert est["AB"].mean == 0.0
        assert abs(est["AB"].stderr - math.sqrt(0.5)) < 1e-15

    def test_missing_context_is_named(self):
        records = temporal_records(*[("AB", 1, 1)] * 4, ("AC", 1, 1), ("AC", -1, 1))
        with pytest.raises(InsufficientDataError, match="^context BC: 0 record"):
            estimate_correlators(records)

    def test_undersized_context_is_named(self):
        records = temporal_records(("AB", 1, 1), ("AB", 1, 1), ("AC", 1, 1), ("BC", 1, 1), ("BC", -1, 1))
        with pytest.raises(InsufficientDataError, match="^context AC: 1 record"):
            estimate_correlators(records)

    @pytest.mark.parametrize("cfg_kwargs,model", BACKEND_CASES)
    def test_count_table_equals_masked_means(self, cfg_kwargs, model):
        records = run_experiment(temporal_config(n_trials=30_001, **cfg_kwargs), model=model)
        assert estimate_correlators(records) == masked_mean_estimates(records)

    @pytest.mark.parametrize("cfg_kwargs", [{}, dict(mode="qm_singlet", directions=QUAD)])
    def test_run_fills_the_outcome_counts(self, tmp_path, monkeypatch, cfg_kwargs):
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        monkeypatch.setattr(protocol, "_STEP", 257)  # the span of a run on one thread
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
        path.write_bytes(batch.to_csv_bytes())
        assert np.array_equal(RecordReader.read(path).outcome_counts(), counts)

    def test_default_contexts_cover_geometry(self):
        records = run_experiment(temporal_config(n_trials=2))
        # two trials cannot populate all three contexts
        with pytest.raises(InsufficientDataError):
            estimate_correlators(records)

    def test_estimator_consistency_across_seeds(self):
        # every backend of the benchmark's sweep, and qm_sequential prepared in |up> (whose marginals are not 0),
        # at three direction sets, the README's, the 0/60/120-degree one and a non-coplanar one (each a triple, or
        # for a CHSH backend a quadruple): the sampled E[s1], E[s2] and E[s1*s2] of every context within 5 stderr
        # of exact_moments in at least 99 of 100 independent-seed runs
        from bellsim.protocol import make_sampler

        n = 10_000
        polar = tuple(Direction3.from_polar(math.radians(d)) for d in (0, 60, 120, 180))
        skew = tuple(Direction3.normalized(*v) for v in [(1, 1, 1), (1, -1, 0.5), (-0.5, 1, 2), (0, -1, 1)])
        direction_sets = [(TRIPLE, QUAD), (polar[:3], polar), (skew[:3], skew)]
        finite = random_finite_model(7, 5, 4)
        contextual = ContextualFiniteModel({tag: random_finite_model(seed, 5)
                                            for tag, seed in (("AB", 31), ("AC", 32), ("BC", 33))})
        backends = [("qm_sequential", None, 0), ("qm_singlet", None, 1), ("hv:sign-model", None, 0),
                    ("hv:finite.json", finite, 1), ("conspiracy:qm-mimic", None, 0),
                    ("conspiracy:contextual.json", contextual, 0)]
        for directions in direction_sets:
            samplers = [make_sampler(temporal_config(mode=mode, directions=directions[geometry]), model)
                        for mode, model, geometry in backends]
            samplers.append(SequentialSampler(temporal_config(directions=directions[0]).context_set(), QubitState.up()))
            for sampler in samplers:
                ncodes = len(sampler.contexts)
                exact = np.array([sampler.exact_moments(code) for code in range(ncodes)])
                codes = np.arange(n, dtype=np.uint8) % ncodes
                counts = np.bincount(codes)[:, None]
                passes = 0
                for seed in range(100):
                    u = trial_uniforms(seed, 0, n, n_draws=2)
                    s1, s2 = sampler.run(codes, u[0], u[1])
                    moments = np.stack([np.bincount(codes, weights=s) for s in (s1, s2, s1 * s2)], axis=1) / counts
                    stderr = np.sqrt(np.maximum(0.0, 1 - moments * moments) / counts)
                    passes += bool(np.all(np.abs(moments - exact) <= 5 * np.maximum(stderr, 1e-12)))
                assert passes >= 99, (type(sampler).__name__, directions[0])


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


HEADER = RECORDS_HEADER + "\n"
ROW0 = "0,AB,1,2,1,-1\n"
OTHER_KIND = "context/slot combination of another record kind than line 2"
MALFORMED_IDS = ["header", "header-5", "header-only", "header-no-newline", "fields-5", "fields-7", "empty-line",
                 "fields-long-line", "one", "underscores", "underscore", "outcome-2", "outcome-0", "context-XY",
                 "slots-9-9", "slots-of-BC", "chsh-after-temporal", "temporal-after-chsh", "chsh-in-line-4",
                 "trial-1-first", "trial-5", "trial-20-digits", "non-ascii", "outcome-in-line-5", "non-ascii-ahead",
                 "outcome-crlf"]


class TestRecordsCsv:
    def test_exact_csv_layout(self):
        records = RecordBatch(
            "temporal",
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
        path.write_bytes(records.to_csv_bytes())
        loaded, reader = read_records(path)
        assert loaded == records
        assert reader.sha256() == records.sha256()

    def test_chsh_round_trip(self, tmp_path):
        records = run_experiment(temporal_config(mode="qm_singlet", directions=QUAD, n_trials=500))
        path = tmp_path / "records.csv"
        path.write_bytes(records.to_csv_bytes())
        assert read_records(path)[0] == records

    def test_bad_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(ValidationError, match="line 1"):
            RecordReader.read(path)
        # the first error is cited, also when a later line holds a non-ASCII byte
        path.write_bytes(b"trial,ctx,slot_x,slot_y,s1,s2\n0,AB,1,2,1,-1\n1,AB,1,2,1,-1\n2,\xe9B,1,2,1,-1\n")
        with pytest.raises(ValidationError, match="records line 1: expected header"):
            RecordReader.read(path)

    @pytest.mark.parametrize("step", [2, protocol._STEP])  # rows in later steps, or all in the first
    @pytest.mark.parametrize("text,message", [
        ("foo,bar\n", f"records line 1: expected header {RECORDS_HEADER!r}"),
        ("trial,context,slot_x,slot_y,s1\n0,AB,1,2,1,-1\n", f"records line 1: expected header {RECORDS_HEADER!r}"),
        (HEADER, "records line 2: no trial rows"),
        (RECORDS_HEADER, "records line 2: no trial rows"),
        (HEADER + ROW0 + "0,AB,1,2,1\n", "records line 3: expected 6 fields, got 5"),
        (HEADER + ROW0 + "1,AB,1,2,1,-1,\n", "records line 3: expected 6 fields, got 7"),
        (HEADER + ROW0 + "\n", "records line 3: expected 6 fields, got 1"),
        # a line longer than one step's read of canonical rows
        (HEADER + ROW0 + " " * 400_000 + "1,AB,1,2,1\n", "records line 3: expected 6 fields, got 5"),
        (HEADER + ROW0 + "0,AB,1,2,one,-1\n", "records line 3: non-integer field"),
        (HEADER + ROW0 + "0_1,AB,1,2,0_1,-1\n", "records line 3: non-integer field"),  # int() alone reads trial 1, +1
        (HEADER + ROW0 + "1,AB,1,2,0_1,-1\n", "records line 3: non-integer field"),
        (HEADER + ROW0 + "1,AB,1,2,1,2\n", "records line 3: outcomes must be +1 or -1"),
        (HEADER + ROW0 + "1,AB,1,2,0,-1\n", "records line 3: outcomes must be +1 or -1"),
        (HEADER + ROW0 + "0,XY,1,2,1,-1\n", "records line 3: unknown context/slot combination"),
        (HEADER + ROW0 + "0,AB,9,9,1,-1\n", "records line 3: unknown context/slot combination"),
        (HEADER + ROW0 + "1,AB,2,3,1,-1\n", "records line 3: unknown context/slot combination"),
        (HEADER + ROW0 + "1,ABp,1,4,1,1\n", f"records line 3: {OTHER_KIND}"),
        (HEADER + "0,ABp,1,4,1,1\n1,AB,1,2,1,-1\n", f"records line 3: {OTHER_KIND}"),
        (HEADER + ROW0 + "1,BC,2,3,-1,1\n2,ABp,1,4,1,1\n", f"records line 4: {OTHER_KIND}"),
        (HEADER + "1,AB,1,2,1,-1\n", "records line 2: trial 1 out of order, expected 0 (trials run 0..n-1)"),
        (HEADER + ROW0 + "5,AB,1,2,1,-1\n", "records line 3: trial 5 out of order, expected 1 (trials run 0..n-1)"),
        (HEADER + ROW0 + "99999999999999999999,AB,1,2,1,-1\n",
         "records line 3: trial 99999999999999999999 out of order, expected 1 (trials run 0..n-1)"),
        (HEADER + ROW0 + "1,\u00e9B,1,2,1,-1\n", "records line 3: non-ASCII byte"),
        (HEADER + ROW0 + "1,BC,2,3,-1,1\n2,AC,1,3,1,1\n3,AB,1,2,1,2\n", "records line 5: outcomes must be +1 or -1"),
        # a step's rows are checked for non-ASCII bytes first, so one is cited ahead of an earlier error
        (HEADER + ROW0 + "1,BC,2,3,-1,1\n2,AC,1,3,1,2\n3,\u00e9B,1,2,1,-1\n", "records line 5: non-ASCII byte"),
        ((HEADER + ROW0 + "1,AB,1,2,1,2\n").replace("\n", "\r\n"), "records line 3: outcomes must be +1 or -1"),
    ], ids=MALFORMED_IDS)
    def test_malformed_row_cites_line(self, tmp_path, monkeypatch, step, text, message):
        monkeypatch.setattr(protocol, "_STEP", step)
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValidationError) as exc:
            RecordReader.read(path)
        assert str(exc.value) == message

    def test_leading_zeros_past_the_int_digit_limit(self, tmp_path, assert_refused):
        # int() refuses more than 4300 digits, even if all of them are zeros, so such a field is no integer
        path = tmp_path / "r.csv"
        for text, message in ((f"{HEADER}{'0' * 5000},AB,1,2,1,-1\n", "records line 2: non-integer field"),
                              (f"{HEADER}{ROW0}+{'0' * 4999}1,BC,2,3,-1,1\n", "records line 3: non-integer field"),
                              (f"{HEADER}{ROW0}1,BC,2,3,-1,{'0' * 5000}1\n", "records line 3: non-integer field")):
            path.write_text(text)
            with pytest.raises(ValidationError) as exc:
                RecordReader.read(path)
            assert str(exc.value) == message
            assert_refused(text.encode(), message)

    @pytest.mark.parametrize("trials,lineno", [([5, 5, -3], 2), ([0, 1, 1], 4), ([0, 2, 1], 3), ([1], 2)])
    def test_trial_column_must_run_from_zero(self, tmp_path, trials, lineno):
        path = tmp_path / "r.csv"
        path.write_text(RECORDS_HEADER + "\n" + "".join(f"{t},AB,1,2,1,-1\n" for t in trials))
        with pytest.raises(ValidationError, match=f"line {lineno}: trial"):
            RecordReader.read(path)

    def test_rows_of_both_kinds_cite_the_first_other_kind(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(RECORDS_HEADER + "\n0,AB,1,2,1,-1\n1,AC,1,3,1,1\n2,ABp,1,4,1,1\n")
        with pytest.raises(ValidationError, match="line 4"):
            RecordReader.read(path)

    @pytest.mark.parametrize("row", ["2,AC,1,3,+1,1", "2,AC,01,3,1,1", " 2,AC,1,3,1,1", "2,AC,1,3,1,1 ",
                                     "2,AC,1,3,1, 1", "+2,AC,1,3,1,1", "2,AC,1,3,1,-0001"])
    def test_non_canonical_spellings_are_refused(self, tmp_path, assert_refused, row):
        # other spellings of valid values: records are read only in the canonical form that run writes
        rows = [ROW0, "1,BC,2,3,-1,1\n", row + "\n", "3,AB,1,2,-1,-1\n"]
        path = tmp_path / "r.csv"
        path.write_text(HEADER + "".join(rows))
        with pytest.raises(ValidationError) as exc:
            RecordReader.read(path)
        assert str(exc.value) == "records line 4: not in canonical form"
        assert_refused(path.read_bytes(), "records line 4: not in canonical form")

    def test_the_records_hash_is_that_of_the_bytes_read(self, tmp_path):
        # the SHA-256 of the file after line-end mapping, which for a file bellsim wrote is its own
        records = run_experiment(temporal_config(n_trials=20))
        path = tmp_path / "records.csv"
        path.write_bytes(records.to_csv_bytes())
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert RecordReader.read(path).sha256() == records.sha256() == digest
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert RecordReader.read(path).sha256() == digest

    @pytest.mark.parametrize("kind", ["temporal", "chsh"])
    def test_header_only_file_is_rejected(self, tmp_path, kind):
        empty = np.array([], dtype=np.int64)
        path = tmp_path / "records.csv"
        path.write_bytes(RecordBatch(kind, empty, empty, empty).to_csv_bytes())
        assert path.read_text() == RECORDS_HEADER + "\n"
        with pytest.raises(ValidationError, match="line 2: no trial rows"):
            RecordReader.read(path)

    def test_no_context_slot_row_belongs_to_both_kinds(self):
        assert len(protocol._ROWS) == sum(len(tags) for tags, _ in GEOMETRIES.values())

    @pytest.mark.parametrize("codes,s1,s2,match", [
        ([0, 3], [1, 1], [1, 1], "^context codes of temporal records must be below 3$"),
        # a value the column's dtype cannot hold, which a cast would change without a word
        ([0, 256], [1, 1], [1, 1], "^record column codes must hold uint8 values only$"),
        ([0, 0.7], [1, 1], [1, 1], "^record column codes must hold uint8 values only$"),
        ([0, -1], [1, 1], [1, 1], "^record column codes must hold uint8 values only$"),
        ([0, 1], [1, 255], [1, 1], "^record column s1 must hold int8 values only$"),
        ([0, 1], [1, 1], [1, -0.5], "^record column s2 must hold int8 values only$"),
        ([0, 1], [1, np.nan], [1, 1], "^record column s1 must hold int8 values only$"),
        ([0, 1], ["1", "1"], [1, 1], "^record column s1 must hold int8 values only$"),
        # outcomes the records file, the hash and the bits would read by sign
        ([0, 1], [0, 1], [1, 1], "^record column s1 must hold only the outcomes \\+1 and -1$"),
        ([0, 1, 2], [1, 1, 5], [1, 1, 1], "^record column s1 must hold only the outcomes \\+1 and -1$"),
        ([0, 1], [1, 1], [-2, 1], "^record column s2 must hold only the outcomes \\+1 and -1$"),
    ])
    def test_context_code_outside_the_kind_is_rejected(self, codes, s1, s2, match):
        with pytest.raises(ValidationError, match=match):
            RecordBatch("temporal", np.array(codes), np.array(s1), np.array(s2))

    def test_batch_of_columns(self, tmp_path):
        batch = RecordBatch("temporal", np.array([0, 2]), np.array([1, -1]), np.array([-1, -1]))
        assert batch.kind == "temporal" and batch.trial.tolist() == [0, 1]
        assert (batch.codes.dtype, batch.s1.dtype, batch.s2.dtype) == (np.uint8, np.int8, np.int8)
        (tmp_path / "records.csv").write_bytes(batch.to_csv_bytes())
        assert (tmp_path / "records.csv").read_text() == f"{RECORDS_HEADER}\n0,AB,1,2,1,-1\n1,BC,2,3,-1,-1\n"

    def test_a_batch_never_equals_a_non_batch(self):
        batch = RecordBatch("temporal", np.array([0, 2]), np.array([1, -1]), np.array([-1, -1]))
        assert batch.__eq__(object()) is NotImplemented  # so Python asks the other operand, then compares identity
        for other in (object(), batch.to_csv_bytes(), batch.kind, None):
            assert batch != other and not batch == other

    def test_unknown_kind_is_rejected(self):
        one = np.array([1])
        with pytest.raises(ValidationError, match="^unknown record kind 'ZZ'$"):
            RecordBatch("ZZ", np.array([0]), one, one)

    @pytest.mark.parametrize("short", [0, 1, 2])
    def test_columns_of_unequal_length_are_rejected(self, short):
        columns = [np.array([0, 1]), np.array([1, -1]), np.array([-1, 1])]
        columns[short] = columns[short][:1]
        with pytest.raises(ValidationError, match="^record columns must have equal length$"):
            RecordBatch("temporal", *columns)

    def test_trial_is_a_read_only_view_of_the_positions(self):
        records = run_experiment(temporal_config(n_trials=7))
        assert records.trial.tolist() == list(range(7)) and records.trial.dtype == np.int64
        assert not records.trial.flags.writeable
        with pytest.raises(AttributeError):
            records.trial = np.arange(7)
        assert "trial" not in vars(records)  # computed, not stored


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
        batch = temporal_records(*[(tag, 1, 1) for _ in range(6) for tag in ("AB", "AC", "BC")])
        report = analyze_records(batch)
        assert report.bell.value == 1.0 and report.bell.verdict == "consistent"
        doc = report_to_jsonable(report)
        assert doc["bell"]["sigma_excess"] is None
        assert report_from_jsonable(doc).bell.verdict == "consistent"
