import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

import bellsim.protocol as protocol
import bellsim.randomness as randomness
from bellsim.cli import main
from bellsim.directions import Direction3, max_violation_triple, tsirelson_quadruple
from bellsim.hidden_variables import ContextualFiniteModel, random_finite_model, write_model
from bellsim.errors import IntegrityError, ValidationError
from bellsim.protocol import (ExperimentConfig, RecordBatch, analyze_records, report_from_jsonable,
                              report_to_jsonable, run_experiment)
from bellsim.randomness import certification_to_jsonable, certify, extract_bits, write_bits


def write_config(path, **overrides):
    a, b, c = max_violation_triple()
    doc = {
        "mode": "qm_sequential",
        "directions": [[d.x, d.y, d.z] for d in (a, b, c)],
        "n_trials": 6000,
        "selector_seed": 11,
        "outcome_seed": 22,
        "sigma_threshold": 5.0,
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def run_pipeline(tmp_path, **overrides):
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
    return cfg, out


def stage_argv(stage, out, cfg=None, mode="qm_sequential", threads=1):
    if stage == "run":
        return ["run", "--config", str(cfg), "--out-dir", str(out), "--threads", str(threads)]
    if stage == "analyze":
        return ["analyze", "--records", str(out / "records.csv"), "--mode", mode, "--out-dir", str(out)]
    return ["certify", "--records", str(out / "records.csv"), "--report", str(out / "report.json"),
            "--out-dir", str(out)]


def no_partial_files(out):
    return not out.exists() or not list(out.glob("*.partial"))


def edited(doc, path, value):
    """doc with the value at path (a tuple of keys) replaced; a callable value is applied to the old one."""
    *parents, key = path
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value(target[key]) if callable(value) else value
    return doc


def unloadable_model(tmp_path):
    """A contextual model file whose 'ab' block is no JSON object: it fails only when the sampler is built."""
    table = {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"ab": 5, "ac": table, "bc": table}))
    return path


STAGES = ["run", "analyze", "certify"]

# hand edits of a 6 000-trial qm_sequential report that its records do not give
RECHECKED_EDITS = [
    pytest.param(("bell", "verdict"), "inconclusive", id="verdict"),
    pytest.param(("n_trials",), 5000, id="n_trials"),
    pytest.param(("estimates", "AC", "mean"), lambda mean: mean + 0.001, id="mean"),
]


class TestRun:
    def test_writes_records_and_manifest(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path)
        lines = (out / "records.csv").read_text().splitlines()
        assert lines[0] == "trial,context,slot_x,slot_y,s1,s2"
        assert len(lines) == 6001
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "bellsim"
        assert manifest["config"]["n_trials"] == 6000
        assert manifest["records_sha256"] == hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()

    def test_manifest_explains_the_run(self, tmp_path):
        cfg, out = run_pipeline(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        timings, environment = manifest["timings"], manifest["environment"]
        assert set(timings) == {"run_s", "trials_per_s", "peak_rss_mb"}
        assert timings["run_s"] > 0 and timings["trials_per_s"] > 0
        assert timings["peak_rss_mb"] is None or timings["peak_rss_mb"] > 0
        assert manifest["duration_seconds"] == timings["run_s"]
        assert set(environment) == {"python", "numpy", "platform", "nproc", "threads", "threads_used"}
        assert environment["numpy"] == np.__version__ and environment["threads"] == environment["threads_used"] == 1
        assert environment["nproc"] == protocol._usable_cpus()  # the CPUs a run may use, not those of the host
        config = ExperimentConfig.from_dict(json.loads(cfg.read_text()))
        assert manifest["records_sha256"] == run_experiment(config).sha256()

    def test_runs_where_the_c_library_has_no_mallopt(self, tmp_path, monkeypatch):
        import ctypes

        looked_up = []

        def no_c_library(name):
            looked_up.append(name)
            raise OSError("no C library")

        monkeypatch.setattr(ctypes, "CDLL", no_c_library)
        protocol._reuse_step_memory.cache_clear()  # the setting is made once per process: make it again
        try:
            _, out = run_pipeline(tmp_path)
        finally:
            protocol._reuse_step_memory.cache_clear()
        assert looked_up == [None]
        assert (out / "records.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg, out1 = run_pipeline(tmp_path)
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_thread_count_does_not_change_records(self, tmp_path):
        cfg, out1 = run_pipeline(tmp_path)
        out2 = tmp_path / "out_threads"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2), "--threads", "4"]) == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()

    def test_manifest_says_the_threads_asked_for_and_those_used(self, tmp_path, monkeypatch):
        # eight asked for on two usable CPUs: the run used two, and the manifest says both
        monkeypatch.setattr(protocol, "_usable_cpus", lambda: 2)
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "8"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == manifest["environment"]["threads"] == 8
        assert manifest["environment"]["threads_used"] == 2

    def test_environment_does_not_set_the_thread_count(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setenv("BELLSIM_THREADS", "2")
        out = tmp_path / "env_out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == manifest["environment"]["threads"] == 1
        run1 = (out / "records.csv").read_bytes()
        monkeypatch.delenv("BELLSIM_THREADS")
        out2 = tmp_path / "plain_out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert run1 == (out2 / "records.csv").read_bytes()

    def test_thread_count_is_checked_before_the_out_dir_is_made(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "0"]) == 1
        assert "--threads must be a positive integer, got 0" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("*.partial"))

    def test_a_seed_with_a_digit_separator_leaves_no_out_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", selector_seed="1_000")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "bellsim: validation error: selector_seed is not a decimal or 0x-prefixed integer: '1_000'\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("out_dir", ["newdir", "new/nested/dir"])
    def test_a_model_that_fails_to_load_leaves_no_out_dir(self, tmp_path, capsys, out_dir):
        cfg = write_config(tmp_path / "cfg.json", mode=f"conspiracy:{unloadable_model(tmp_path)}", n_trials=100)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / out_dir)]) == 1
        assert "context 'ab' must be a JSON object" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cfg.json", "model.json"]

    @pytest.mark.parametrize("held", [[], ["notes.txt"]])
    def test_a_failed_run_keeps_an_out_dir_that_was_there(self, tmp_path, held):
        cfg = write_config(tmp_path / "cfg.json", mode=f"conspiracy:{unloadable_model(tmp_path)}", n_trials=100)
        out = tmp_path / "out"
        out.mkdir()
        for name in held:
            (out / name).write_text("kept")
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert out.is_dir() and sorted(path.name for path in out.iterdir()) == held

    def test_missing_config_key_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        doc = json.loads(write_config(tmp_path / "full.json").read_text())
        del doc["n_trials"]
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert "n_trials" in capsys.readouterr().err

    def test_nan_direction_is_named(self, tmp_path, capsys):
        a, b, c = max_violation_triple()
        cfg = write_config(tmp_path / "cfg.json", directions=[[math.nan, 0.0, 1.0], [b.x, b.y, b.z], [c.x, c.y, c.z]])
        assert "NaN" in cfg.read_text()
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert "'directions'[0]" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("vector,named", [
        pytest.param(["0.7071067811865475", 0.7071067811865475, 0.0], "[1] must be a list of 3 numbers", id="string"),
        pytest.param([True, 0.0, 0.0], "[1] must be a list of 3 numbers", id="bool"),
        pytest.param([0.0, 0.0, 10**400], "[1]: int too large to convert to float", id="beyond-float-range"),
    ])
    def test_direction_component_that_is_no_float_is_named(self, tmp_path, capsys, vector, named):
        a, _, c = max_violation_triple()
        cfg = write_config(tmp_path / "cfg.json", directions=[[a.x, a.y, a.z], vector, [c.x, c.y, c.z]])
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert f"config key 'directions'{named}" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_model_weight_is_named(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lambdas": [{"weight": math.nan, "responses": [1, 1, 1]},
                                                 {"weight": 0.5, "responses": [1, -1, 1]}]}))
        cfg = write_config(tmp_path / "cfg.json", mode=f"hv:{model}")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert "weights must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,field", [({"weight": "half", "responses": [1, 1, 1]}, "'weight'"),
                                             ({"weight": 0.5, "responses": [1, 1.5, 1]}, "'responses'")])
    def test_malformed_model_entry_is_named(self, tmp_path, capsys, entry, field):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"lambdas": [{"weight": 0.5, "responses": [1, -1, 1]}, entry]}))
        cfg = write_config(tmp_path / "cfg.json", mode=f"hv:{model}")
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
        assert f"lambdas[1] {field}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "records.csv").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()
        assert no_partial_files(tmp_path / "out")

    def test_context_block_that_is_no_object_is_named(self, tmp_path, capsys):
        block = {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"ab": 5, "ac": block, "bc": block}))
        cfg = write_config(tmp_path / "cfg.json", mode=f"conspiracy:{model}")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert "context 'ab' must be a JSON object, got int" in capsys.readouterr().err
        assert not (out / "records.csv").exists() and not (out / "manifest.json").exists()
        assert no_partial_files(out)

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path)]) == 2

    def test_usage_error_exits_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--no-such-flag"])
        assert exc.value.code == 1


class TestAnalyze:
    def test_quantum_violation_report(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path, n_trials=60_000)
        code = main(["analyze", "--records", str(out / "records.csv"),
                     "--mode", "qm_sequential", "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bell"]["verdict"] == "violation"
        assert abs(report["bell"]["value"] - math.sqrt(2)) < 0.05
        assert report["mode"] == "qm_sequential"
        assert set(report["estimates"]) == {"AB", "AC", "BC"}

    def test_constant_model_consistent(self, tmp_path):
        model_path = tmp_path / "const.json"
        model_path.write_text(json.dumps(
            {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]}
        ))
        cfg, out = run_pipeline(tmp_path, mode=f"hv:{model_path}", n_trials=3000)
        assert main(["analyze", "--records", str(out / "records.csv"), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["bell"]["value"] == 1.0
        assert report["bell"]["verdict"] == "consistent"

    def test_malformed_row_cites_line(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path, n_trials=100)
        records = out / "records.csv"
        text = records.read_text().splitlines()
        text[5] = "garbage"
        records.write_text("\n".join(text) + "\n")
        assert main(["analyze", "--records", str(records), "--out-dir", str(out)]) == 1
        assert "line 6" in capsys.readouterr().err

    def test_header_only_records_exit_validation(self, tmp_path, capsys):
        records = tmp_path / "records.csv"
        records.write_text("trial,context,slot_x,slot_y,s1,s2\n")
        assert main(["analyze", "--records", str(records), "--out-dir", str(tmp_path)]) == 1
        assert "line 2: no trial rows" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bogus", "hv", "qm_sequential:x", "conspiracy:"])
    def test_bad_mode_exits_before_the_records_are_read(self, tmp_path, capsys, monkeypatch, mode):
        _, out = run_pipeline(tmp_path)

        def read(path):
            raise AssertionError("read the records")

        monkeypatch.setattr(protocol.RecordReader, "read", read)
        capsys.readouterr()
        assert main(stage_argv("analyze", out, mode=mode)) == 1
        assert capsys.readouterr().err.startswith("bellsim: validation error: --mode must be ")
        assert not (out / "report.json").exists()

    def test_mode_of_the_other_geometry_exits_validation(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path)
        capsys.readouterr()
        assert main(stage_argv("analyze", out, mode="chsh")) == 1
        assert "mode 'chsh' implies chsh records, got temporal" in capsys.readouterr().err
        assert not (out / "report.json").exists()
        assert no_partial_files(out)

    def test_failed_write_leaves_no_new_report(self, tmp_path, capsys, monkeypatch):
        _, out = run_pipeline(tmp_path)
        report = out / "report.json"

        def failing_write(doc, path):
            path.write_text(json.dumps(doc)[:40])
            raise OSError("no space left on device")

        for earlier in (None, b"written by an earlier analyze\n"):
            if earlier is not None:
                report.write_bytes(earlier)
            monkeypatch.setattr(protocol, "write_json", failing_write)
            capsys.readouterr()
            assert main(stage_argv("analyze", out)) == 2
            assert "i/o error" in capsys.readouterr().err
            assert (report.read_bytes() if report.exists() else None) == earlier
            assert no_partial_files(out)

    def test_floats_printed_with_12_significant_digits(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path, n_trials=6000)
        main(["analyze", "--records", str(out / "records.csv"), "--out-dir", str(out)])
        stdout = capsys.readouterr().out
        value = stdout.split("value ")[1].split(" ")[0]
        assert len(value.replace(".", "").replace("-", "").lstrip("0")) <= 12


class TestCertify:
    def run_analyze(self, tmp_path, **overrides):
        cfg, out = run_pipeline(tmp_path, **overrides)
        main(["analyze", "--records", str(out / "records.csv"),
              "--mode", json.loads(cfg.read_text())["mode"], "--out-dir", str(out)])
        return out

    def test_full_pipeline_certifies(self, tmp_path):
        out = self.run_analyze(tmp_path, n_trials=60_000)
        code = main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(out / "report.json"), "--out-dir", str(out)])
        assert code == 0
        cert = json.loads((out / "certification.json").read_text())
        assert cert["certified"] is True
        assert cert["conspiracy_caveat"] is False
        lines = (out / "bits.txt").read_text().splitlines()
        assert all(len(line) == 64 for line in lines[:-1])
        assert sum(len(line) for line in lines) == 120_000

    def test_every_trials_bits_are_extracted_once(self, tmp_path, monkeypatch):
        out = self.run_analyze(tmp_path, n_trials=6000)
        whole = extract_bits(RecordBatch.from_csv(out / "records.csv"))
        steps = []
        bits_of = randomness._bits_of

        def logged(s1, s2):
            steps.append(bits_of(s1, s2))
            return steps[-1]

        monkeypatch.setattr(protocol, "_STEP", 1000)
        monkeypatch.setattr(randomness, "_bits_of", logged)
        assert main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(out / "report.json"), "--out-dir", str(out)]) == 0
        assert [bits.size // 2 for bits in steps] == [1000] * 6  # trials 0..5999, one step at a time
        assert np.array_equal(np.concatenate(steps), whole)  # each trial once, in order

    def test_conspiracy_caveat_flag(self, tmp_path):
        out = self.run_analyze(tmp_path, mode="conspiracy:qm-mimic", n_trials=60_000)
        main(["certify", "--records", str(out / "records.csv"),
              "--report", str(out / "report.json"), "--out-dir", str(out)])
        cert = json.loads((out / "certification.json").read_text())
        assert cert["certified"] is True
        assert cert["conspiracy_caveat"] is True

    def test_caveat_without_a_mode_label(self, tmp_path):
        # analyze without --mode labels the report with the geometry, which names no backend
        cfg, out = run_pipeline(tmp_path, mode="conspiracy:qm-mimic", n_trials=60_000)
        assert main(["analyze", "--records", str(out / "records.csv"), "--out-dir", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["mode"] == "temporal"
        assert main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(out / "report.json"), "--out-dir", str(out)]) == 0
        cert = json.loads((out / "certification.json").read_text())
        assert cert["n_bits"] == 120_000 and cert["certified"] is True
        assert cert["conspiracy_caveat"] is True

    def test_tampered_records_fail_integrity(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=6000)
        records = out / "records.csv"
        lines = records.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + ",1"
        records.write_text("\n".join(lines) + "\n")
        code = main(["certify", "--records", str(records),
                     "--report", str(out / "report.json"), "--out-dir", str(out)])
        assert code == 3
        assert "integrity" in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    def test_records_holding_an_outcome_2_leave_no_out_dir(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=6000)
        records = out / "records.csv"
        lines = records.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0] + ",2"
        records.write_text("\n".join(lines) + "\n")
        new = tmp_path / "newdir"
        assert main(["certify", "--records", str(records), "--report", str(out / "report.json"),
                     "--out-dir", str(new)]) == 1
        assert "outcomes must be +1 or -1" in capsys.readouterr().err
        assert not new.exists()

    def test_wrong_hash_of_a_file_too_small_for_the_frequency_test_exits_integrity(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=40)  # 80 bits, below the frequency test's 100
        report = out / "report.json"
        doc = json.loads(report.read_text())
        doc["records_sha256"] = "0" * 64
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 3
        assert "does not match the report's 000000000000..." in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()

    def test_hand_set_violation_fails_the_recheck(self, tmp_path, capsys):
        # the sign model saturates the bound: B = 1.00307 here, inconclusive
        out = self.run_analyze(tmp_path, mode="hv:sign-model", n_trials=200_000,
                               selector_seed=1, outcome_seed=2)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        assert doc["bell"]["verdict"] == "inconclusive"
        doc["bell"]["verdict"] = "violation"
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 3
        assert "integrity error: report bell" in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    @pytest.mark.parametrize("path,value", [
        (("n_trials",), 5999),
        (("estimates", "AB", "n"), 1),
        (("estimates", "BC", "mean"), 0.5),
        (("bell", "value"), 2.0),
        (("bell", "sigma_excess"), None),
    ])
    def test_report_that_its_records_do_not_give_fails_integrity(self, tmp_path, capsys, path, value):
        out = self.run_analyze(tmp_path, n_trials=6000)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        *parents, key = path
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        report.write_text(json.dumps(doc))
        assert main(stage_argv("certify", out)) == 3
        assert not (out / "certification.json").exists()

    @pytest.mark.parametrize("side", ["library", "cli"])
    @pytest.mark.parametrize("path,value", RECHECKED_EDITS)
    def test_library_and_cli_refuse_the_same_reports(self, tmp_path, capsys, side, path, value):
        cfg, out = run_pipeline(tmp_path)
        records = run_experiment(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
        doc = report_to_jsonable(analyze_records(records, mode="qm_sequential"))
        assert doc["bell"]["verdict"] == "violation"
        certify(records, report_from_jsonable(doc))  # the unedited report passes
        doc = edited(doc, path, value)
        if side == "library":
            with pytest.raises(IntegrityError):
                certify(records, report_from_jsonable(doc))
            return
        (out / "report.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 3
        assert capsys.readouterr().out == ""
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    @pytest.mark.parametrize("edits", [
        pytest.param([(("n_trials",), 6000.9), (("estimates", "AB", "n"), lambda n: n + 0.7)], id="truncated"),
        pytest.param([(("n_trials",), 6000.0)], id="n_trials-float"),
        pytest.param([(("n_trials",), True)], id="n_trials-bool"),
        pytest.param([(("n_trials",), "6000")], id="n_trials-string"),
        pytest.param([(("estimates", "BC", "n"), float)], id="n-float"),
        pytest.param([(("estimates", "BC", "n"), lambda n: True)], id="n-bool"),
    ])
    def test_non_integer_counts_exit_validation(self, tmp_path, capsys, edits):
        # int() would truncate 6000.9 to the records' 6000, and read "6000" and true as numbers
        out = self.run_analyze(tmp_path)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        for path, value in edits:
            doc = edited(doc, path, value)
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert "malformed analysis report" in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    @pytest.mark.parametrize("key", ["bell", "estimates"])
    def test_report_without_a_section_exits_validation(self, tmp_path, capsys, key):
        out = self.run_analyze(tmp_path, n_trials=6000)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        del doc[key]
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert f"malformed analysis report: KeyError('{key}')" in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    def test_failed_move_leaves_no_new_outputs(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=6000)
        (out / "bits.txt").mkdir()  # the partial bits file cannot replace a directory
        assert main(stage_argv("certify", out)) == 2
        assert "i/o error" in capsys.readouterr().err
        assert not (out / "certification.json").exists()
        assert no_partial_files(out)

    @pytest.mark.parametrize("path,value,named", [
        (("estimates",), [], "'estimates' must be a JSON object"),
        (("bell",), "violation", "'bell' must be a JSON object"),
        (("bell", "verdict"), 5, "'verdict' must be one of"),
        (("bell", "verdict"), "VIOLATION", "'verdict' must be one of"),
        # float() and str() would read each of these as the value the records give
        pytest.param(("estimates", "AB", "mean"), str, "'mean' must be a JSON number", id="mean-string"),
        pytest.param(("estimates", "AB", "stderr"), True, "'stderr' must be a JSON number", id="stderr-bool"),
        pytest.param(("bell", "value"), str, "'value' must be a JSON number", id="value-string"),
        pytest.param(("bell", "bound"), "1", "'bound' must be a JSON number", id="bound-string"),
        pytest.param(("bell", "stderr"), False, "'stderr' must be a JSON number", id="bell-stderr-bool"),
        pytest.param(("bell", "sigma_excess"), str, "'sigma_excess' must be a JSON number or null",
                     id="sigma_excess-string"),
        pytest.param(("mode",), ["x"], "'mode' must be a JSON string", id="mode-list"),
        pytest.param(("bell", "quantity"), 5, "'quantity' must be a JSON string", id="quantity-number"),
        pytest.param(("records_sha256",), lambda digest: int(digest, 16), "'records_sha256' must be a JSON string",
                     id="records_sha256-number"),
    ])
    def test_hand_edited_report_exits_validation(self, tmp_path, capsys, path, value, named):
        out = self.run_analyze(tmp_path, n_trials=6000)
        report = out / "report.json"
        report.write_text(json.dumps(edited(json.loads(report.read_text()), path, value)))
        capsys.readouterr()
        code = main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(report), "--out-dir", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    @pytest.mark.parametrize("block", [(), ("bell",), ("estimates", "AB"), ("estimates", "BC")])
    def test_report_key_the_layout_lacks_exits_validation(self, tmp_path, capsys, block):
        out = self.run_analyze(tmp_path, n_trials=2000)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        target = doc
        for key in block:
            target = target[key]
        target["extra"] = 1
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert capsys.readouterr().err == "bellsim: validation error: malformed analysis report: unknown key 'extra'\n"
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    def test_extra_key_first_in_the_report_exits_validation(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=2000)
        report = out / "report.json"
        report.write_text(json.dumps({"extra": 1, **json.loads(report.read_text())}))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert "malformed analysis report: unknown key 'extra'" in capsys.readouterr().err
        assert not (out / "certification.json").exists()

    @pytest.mark.parametrize("path,doc,named", [
        pytest.param((), [1, 2], "it must be a JSON object, got list", id="doc0-list"),
        pytest.param((), "report", "it must be a JSON object, got str", id="report-str"),
        pytest.param((), 5, "it must be a JSON object, got int", id="5-int"),
        pytest.param((), None, "it must be a JSON object, got NoneType", id="None-NoneType"),
        pytest.param(("estimates", "AB"), 5, "estimate 'AB' must be a JSON object, got int", id="estimate-int"),
        # a JSON integer beyond float range, which float() cannot read, is refused under its key
        pytest.param(("bell", "value"), 10**400, f"'value' must be a JSON number, got {10**400}",
                     id="value-beyond-float-range"),
        pytest.param(("estimates", "AB", "mean"), -(10**400), f"'mean' must be a JSON number, got {-(10**400)}",
                     id="mean-beyond-float-range"),
        pytest.param(("bell", "sigma_excess"), 10**400, f"'sigma_excess' must be a JSON number or null, got {10**400}",
                     id="sigma_excess-beyond-float-range"),
    ])
    def test_report_that_is_no_json_object_exits_validation(self, tmp_path, capsys, path, doc, named):
        # the whole document, or the block at path in it
        out = self.run_analyze(tmp_path, n_trials=2000)
        report = out / "report.json"
        report.write_text(json.dumps(edited(json.loads(report.read_text()), path, doc) if path else doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert capsys.readouterr().err == f"bellsim: validation error: malformed analysis report: {named}\n"
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()

    def test_unknown_context_under_estimates_exits_integrity(self, tmp_path, capsys):
        out = self.run_analyze(tmp_path, n_trials=2000)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        doc["estimates"]["AD"] = dict(doc["estimates"]["AB"])
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 3
        assert "integrity error: report estimates" in capsys.readouterr().err
        assert not (out / "certification.json").exists()

    def test_library_refuses_a_key_the_layout_lacks(self):
        records = run_experiment(ExperimentConfig("qm_sequential", max_violation_triple(), 2000, 11, 22))
        doc = report_to_jsonable(analyze_records(records, mode="qm_sequential"))
        assert report_to_jsonable(report_from_jsonable(doc)) == doc
        doc["bell"]["note"] = "edited"
        with pytest.raises(ValidationError, match="^malformed analysis report: unknown key 'note'$"):
            report_from_jsonable(doc)
        with pytest.raises(ValidationError, match="must be a JSON object, got list"):
            report_from_jsonable([1, 2])


SIGNIFICANCE_PROBE = dict(mode="hv:sign-model", n_trials=200_000, selector_seed=1, outcome_seed=2)


class TestSigmaThreshold:
    # the sign model at B = 1.00307, about 0.5 standard errors above the bound: any k <= 0.5
    # would call it a violation and let certify certify its bits

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_flag_must_be_positive_and_finite(self, tmp_path, capsys, value):
        _, out = run_pipeline(tmp_path, **SIGNIFICANCE_PROBE)
        capsys.readouterr()
        assert main(["analyze", "--records", str(out / "records.csv"), "--sigma-threshold", value,
                     "--out-dir", str(out)]) == 1
        assert "--sigma-threshold must be a positive finite number" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
    def test_report_threshold_must_be_positive_and_finite(self, tmp_path, capsys, value):
        _, out = run_pipeline(tmp_path, **SIGNIFICANCE_PROBE)
        assert main(stage_argv("analyze", out, mode="hv:sign-model")) == 0
        report = out / "report.json"
        doc = json.loads(report.read_text())
        assert doc["bell"]["verdict"] == "inconclusive"
        doc["sigma_threshold"] = value
        report.write_text(json.dumps(doc))  # nan and inf as NaN and Infinity, which json reads back
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert "'sigma_threshold' must be a positive finite number" in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()
        assert no_partial_files(out)

    def test_config_threshold_beyond_float_range_exits_validation(self, tmp_path, capsys):
        # a 401-digit JSON integer: math.isfinite would end the run in an OverflowError traceback
        cfg = write_config(tmp_path / "cfg.json", sigma_threshold=10**400)
        assert len(str(json.loads(cfg.read_text())["sigma_threshold"])) == 401
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bellsim: validation error: config key 'sigma_threshold' must be a positive finite "
                              "number, got 1000")
        assert not out.exists()

    def test_report_threshold_beyond_float_range_exits_validation(self, tmp_path, capsys):
        _, out = run_pipeline(tmp_path)
        assert main(stage_argv("analyze", out)) == 0
        report = out / "report.json"
        report.write_text(json.dumps(edited(json.loads(report.read_text()), ("sigma_threshold",), 10**400)))
        capsys.readouterr()
        assert main(stage_argv("certify", out)) == 1
        assert ("bellsim: validation error: malformed analysis report: 'sigma_threshold' must be a positive finite "
                "number, got 1000") in capsys.readouterr().err
        assert not (out / "bits.txt").exists() and not (out / "certification.json").exists()


@pytest.mark.parametrize("what", ["config", "report", "model"])
def test_invalid_json_names_the_file_kind(tmp_path, capsys, what):
    bad = tmp_path / f"{what}.json"
    if what == "report":
        _, out = run_pipeline(tmp_path)
        argv = ["certify", "--records", str(out / "records.csv"), "--report", str(bad), "--out-dir", str(out)]
        outputs = ["bits.txt", "certification.json"]
    else:
        out = tmp_path / "out"
        cfg = bad if what == "config" else write_config(tmp_path / "cfg.json", mode=f"hv:{bad}")
        argv = ["run", "--config", str(cfg), "--out-dir", str(out)]
        outputs = ["records.csv", "manifest.json"]
    for content in (b"{not json", b"\xff"):  # not JSON, not UTF-8
        bad.write_bytes(content)
        capsys.readouterr()
        assert main(argv) == 1
        assert f"{what} file {bad}: invalid JSON" in capsys.readouterr().err
        assert not any((out / name).exists() for name in outputs)


@pytest.mark.parametrize("what", ["config", "model"])
def test_a_json_list_is_no_document(tmp_path, capsys, what):
    listed = tmp_path / f"{what}.json"
    listed.write_text("[1, 2, 3]")
    cfg = listed if what == "config" else write_config(tmp_path / "cfg.json", mode=f"hv:{listed}")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 1
    expected = "config must be a JSON object" if what == "config" else "model document must be a JSON object"
    assert expected in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["run", "oracle"])
@pytest.mark.parametrize("model,code,err", [
    # no file name holds a NUL byte: opening one raises ValueError, not OSError
    pytest.param("a\x00b", 1, "validation error: model file 'a\\x00b': embedded null byte", id="nul-byte"),
    pytest.param("missing.json", 2, "i/o error: [Errno 2] No such file or directory: 'missing.json'", id="missing"),
])
def test_a_model_file_that_cannot_be_opened(tmp_path, capsys, monkeypatch, stage, model, code, err):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "cfg.json", mode=f"hv:{model}")
    out = tmp_path / "out"
    argv = ["run", "--config", str(cfg), "--out-dir", str(out)] if stage == "run" else ["oracle", "--config", str(cfg)]
    assert main(argv) == code
    assert capsys.readouterr() == ("", f"bellsim: {err}\n")
    assert not out.exists()


@pytest.mark.parametrize("stage,directory", [("run", "manifest.json"), ("certify", "certification.json")])
def test_an_output_that_is_a_directory_is_refused_before_the_stage_works(tmp_path, capsys, stage, directory):
    # the stage's first output would replace its file before the move onto the directory failed
    cfg, out = run_pipeline(tmp_path)
    assert main(stage_argv("analyze", out)) == 0
    (out / directory).unlink(missing_ok=True)
    (out / directory).mkdir()
    records = (out / "records.csv").read_bytes()
    held = sorted(path.name for path in out.iterdir())
    write_config(cfg, outcome_seed=23)  # a run would write other records
    capsys.readouterr()
    assert main(stage_argv(stage, out, cfg)) == 2
    assert (out / "records.csv").read_bytes() == records
    assert sorted(path.name for path in out.iterdir()) == held and (out / directory).is_dir()
    assert capsys.readouterr().err == f"bellsim: i/o error: [Errno 21] Is a directory: '{out / directory}'\n"


class TestStreaming:
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("mode,directions", [("qm_sequential", max_violation_triple()),
                                                  ("qm_singlet", tsirelson_quadruple())])
    def test_outputs_equal_the_library_rendering(self, tmp_path, monkeypatch, threads, mode, directions):
        # 257-trial spans and steps; a step gives 514 bits, so bits.txt carries part of a line across steps
        monkeypatch.setattr(protocol, "_CHUNK", 257)
        monkeypatch.setattr(protocol, "_STEP", 257)
        cfg = write_config(tmp_path / "cfg.json", mode=mode, n_trials=3000,
                           directions=[[d.x, d.y, d.z] for d in directions])
        out = tmp_path / "out"
        for stage in STAGES:
            assert main(stage_argv(stage, out, cfg, mode=mode, threads=threads)) == 0
        batch = run_experiment(ExperimentConfig.from_dict(json.loads(cfg.read_text())))
        report = analyze_records(batch, mode=mode)
        write_bits(extract_bits(batch), tmp_path / "bits.txt")
        assert (out / "records.csv").read_bytes() == batch.to_csv_bytes()
        assert (out / "report.json").read_text() == json.dumps(report_to_jsonable(report), indent=2) + "\n"
        assert (out / "bits.txt").read_bytes() == (tmp_path / "bits.txt").read_bytes()
        cert = certification_to_jsonable(certify(batch, report))
        assert (out / "certification.json").read_text() == json.dumps(cert, indent=2) + "\n"

    @pytest.mark.parametrize("stage,crlf", [*(pytest.param(stage, False, id=stage) for stage in STAGES),
                                            *(pytest.param(stage, True, id=f"{stage}-crlf")
                                              for stage in STAGES[1:])])
    def test_stage_memory_does_not_grow_with_the_trials(self, tmp_path, monkeypatch, capsys, stage, crlf):
        # with crlf, analyze and certify read a CRLF copy of the records; every stage holds a step
        monkeypatch.setattr(protocol, "_CHUNK", 1024)
        monkeypatch.setattr(protocol, "_STEP", 1024)

        def peak(n_trials):
            cfg = write_config(tmp_path / f"cfg-{n_trials}.json", n_trials=n_trials)
            out = tmp_path / str(n_trials)
            for before in STAGES[:STAGES.index(stage)]:
                assert main(stage_argv(before, out, cfg)) == 0
                if before == "run" and crlf:
                    records = out / "records.csv"
                    records.write_bytes(records.read_bytes().replace(b"\n", b"\r\n"))
            tracemalloc.start()
            try:
                assert main(stage_argv(stage, out, cfg)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(8192)  # first calls allocate what later calls reuse
        small, large = peak(8192), peak(65536)
        assert large <= 1.25 * small, (small, large)

    def test_a_stage_refuses_records_spelled_otherwise(self, tmp_path, capsys, assert_refused):
        # 40 000 rows are 3 steps; with every s1 = +1 spelled "+1" the first such row is cited, and nothing written
        _, out = run_pipeline(tmp_path, n_trials=40_000)
        for stage in STAGES[1:]:
            capsys.readouterr()
            assert main(stage_argv(stage, out)) == 0
            assert capsys.readouterr().err == ""
        data = (out / "records.csv").read_bytes()
        spelled = data.replace(b",1,-1\n", b",+1,-1\n").replace(b",1,1\n", b",+1,1\n")
        lineno = next(i for i, row in enumerate(spelled.split(b"\n"), start=1) if b",+1," in row)
        assert_refused(spelled, f"records line {lineno}: not in canonical form")


# what `oracle` prints for each backend of the benchmark's sweep, the correlators and quantity as computed
# before the closed-form helpers moved into the samplers: (mode, directions, correlators, marginals, quantity
# name and value, exceeds_bound).  The marginals [E[s1], E[s2]] of the quantum backends are read off the
# tables they sample, so their float errors of order 1e-16 are printed as they are
ORACLE_GOLDENS = [
    pytest.param("qm_sequential", "triple", {"AB": 0.707106781187, "AC": -0.707106781187, "BC": 0.0},
                 {"AB": [0.0, -2.22044604925e-16], "AC": [0.0, -2.22044604925e-16], "BC": [2.22044604925e-16, 0.0]},
                 ("temporal_bell", 1.41421356237, True), id="qm_sequential"),
    pytest.param("qm_singlet", "quadruple",
                 {"AB": -0.707106781187, "ABp": 0.707106781187, "ApB": -0.707106781187, "ApBp": -0.707106781187},
                 {"AB": [-2.22044604925e-16, 2.22044604925e-16], "ABp": [-2.22044604925e-16, -1.11022302463e-16],
                  "ApB": [-3.33066907388e-16, 2.22044604925e-16], "ApBp": [-3.33066907388e-16, 2.22044604925e-16]},
                 ("chsh", 2.82842712475, True), id="qm_singlet"),
    pytest.param("hv:sign-model", "triple", {"AB": 0.5, "AC": -0.5, "BC": 0.0},
                 {"AB": [0.0, 0.0], "AC": [0.0, 0.0], "BC": [0.0, 0.0]},
                 ("temporal_bell", 1.0, False), id="sign-model"),
    pytest.param("hv:finite", "quadruple",
                 {"AB": 0.00772344116701, "ABp": 0.237894733976, "ApB": -0.290993786809, "ApBp": 0.364437322467},
                 {"AB": [-0.151807414234, 0.840469144599], "ABp": [-0.151807414234, 0.185038035323],
                  "ApB": [-0.45052464221, 0.840469144599], "ApBp": [-0.45052464221, 0.185038035323]},
                 ("chsh", 0.303614828468, False), id="finite"),
    pytest.param("conspiracy:qm-mimic", "triple", {"AB": 0.707106781187, "AC": -0.707106781187, "BC": 0.0},
                 {"AB": [0.0, 0.0], "AC": [0.0, 0.0], "BC": [0.0, 0.0]},
                 ("temporal_bell", 1.41421356237, True), id="qm-mimic"),
    pytest.param("conspiracy:contextual", "triple", {"AB": 0.51500638296, "AC": 0.848767377839, "BC": -0.162388555363},
                 {"AB": [-0.466553209336, -0.951546826375], "AC": [0.459946092522, 0.308713470361],
                  "BC": [-0.162388555363, 1.0]},
                 ("temporal_bell", 0.171372439516, False), id="contextual"),
]


class TestOracle:
    def oracle(self, tmp_path, capsys, **overrides):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["oracle", "--config", str(cfg)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_max_violation_geometry(self, tmp_path, capsys):
        doc = self.oracle(tmp_path, capsys)
        assert abs(doc["quantity"]["value"] - math.sqrt(2)) < 1e-11
        assert doc["quantity"]["bound"] == 1.0
        assert doc["quantity"]["exceeds_bound"] is True
        assert abs(doc["correlators"]["AB"] - 1 / math.sqrt(2)) < 1e-11

    def test_tsirelson_geometry(self, tmp_path, capsys):
        quad = [[d.x, d.y, d.z] for d in tsirelson_quadruple()]
        doc = self.oracle(tmp_path, capsys, mode="qm_singlet", directions=quad)
        assert abs(doc["quantity"]["value"] - 2 * math.sqrt(2)) < 1e-11
        assert doc["quantity"]["bound"] == 2.0
        assert doc["quantity"]["exceeds_bound"] is True

    def test_degenerate_identical_directions(self, tmp_path, capsys):
        d = [0.0, 0.0, 1.0]
        doc = self.oracle(tmp_path, capsys, directions=[d, d, d])
        assert doc["quantity"]["value"] == 1.0
        assert doc["quantity"]["exceeds_bound"] is False

    def test_finite_model_oracle(self, tmp_path, capsys):
        model = random_finite_model(23, 5)
        model_path = tmp_path / "model.json"
        write_model(model, model_path)
        doc = self.oracle(tmp_path, capsys, mode=f"hv:{model_path}")
        assert doc["quantity"]["value"] <= 1.0 + 1e-12
        assert doc["quantity"]["exceeds_bound"] is False

    def test_qm_mimic_oracle_matches_quantum(self, tmp_path, capsys):
        doc = self.oracle(tmp_path, capsys, mode="conspiracy:qm-mimic")
        assert abs(doc["quantity"]["value"] - math.sqrt(2)) < 1e-11
        assert doc["quantity"]["exceeds_bound"] is True

    def test_sign_model_oracle_saturates(self, tmp_path, capsys):
        doc = self.oracle(tmp_path, capsys, mode="hv:sign-model")
        assert abs(doc["quantity"]["value"] - 1.0) < 1e-11
        assert doc["quantity"]["exceeds_bound"] is False

    def test_sign_model_at_its_bound_by_float_error(self, tmp_path, capsys):
        # the angle sums put the unrounded value a float error above 1; the printed value is 1.0
        directions = [[d.x, d.y, d.z] for d in map(Direction3.from_polar, (-math.pi / 32, 0.0, math.pi / 16))]
        doc = self.oracle(tmp_path, capsys, mode="hv:sign-model", directions=directions)
        assert doc["quantity"]["value"] == doc["quantity"]["bound"] == 1.0
        assert doc["quantity"]["exceeds_bound"] is False

    def test_contextual_file_oracle(self, tmp_path, capsys):
        doc_json = {
            "ab": {"lambdas": [{"weight": 1.0, "responses": [1, 1, 1]}]},
            "ac": {"lambdas": [{"weight": 1.0, "responses": [1, -1, -1]}]},
            "bc": {"lambdas": [{"weight": 0.5, "responses": [1, 1, 1]},
                               {"weight": 0.5, "responses": [1, -1, -1]}]},
        }
        model_path = tmp_path / "ctx.json"
        model_path.write_text(json.dumps(doc_json))
        doc = self.oracle(tmp_path, capsys, mode=f"conspiracy:{model_path}")
        # slot products per context table: ab 1*1, ac 1*(-1), bc (+1 in both rows)
        assert doc["correlators"] == {"AB": 1.0, "AC": -1.0, "BC": 1.0}
        # the slot means: ab's slots 1, 2 and ac's slots 1, 3 in their one row; bc's slots 2, 3 cancel
        assert doc["marginals"] == {"AB": [1.0, 1.0], "AC": [1.0, -1.0], "BC": [0.0, 0.0]}
        # a contextual model may break the bound outright: |1-(-1)| + 1 = 3
        assert doc["quantity"]["value"] == 3.0
        assert doc["quantity"]["exceeds_bound"] is True

    @pytest.mark.parametrize("mode,geometry,correlators,marginals,quantity", ORACLE_GOLDENS)
    def test_printed_values_are_pinned(self, tmp_path, capsys, mode, geometry, correlators, marginals, quantity):
        if mode == "hv:finite":
            write_model(random_finite_model(7, 5, 4), tmp_path / "finite.json")
            mode = f"hv:{tmp_path / 'finite.json'}"
        elif mode == "conspiracy:contextual":
            tables = {tag: random_finite_model(seed, 5) for tag, seed in (("AB", 31), ("AC", 32), ("BC", 33))}
            write_model(ContextualFiniteModel(tables), tmp_path / "contextual.json")
            mode = f"conspiracy:{tmp_path / 'contextual.json'}"
        directions = max_violation_triple() if geometry == "triple" else tsirelson_quadruple()
        doc = self.oracle(tmp_path, capsys, mode=mode, directions=[[d.x, d.y, d.z] for d in directions])
        name, value, exceeds = quantity
        bound = 1.0 if name == "temporal_bell" else 2.0
        assert doc["correlators"] == correlators
        assert doc["marginals"] == marginals
        assert doc["quantity"] == {"name": name, "value": value, "bound": bound, "exceeds_bound": exceeds}
