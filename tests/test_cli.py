import hashlib
import json
import math

import pytest

import bellsim.cli as cli
import bellsim.randomness as randomness
from bellsim.cli import main
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.hidden_variables import random_finite_model, write_model


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

    def test_env_var_overrides_threads(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "cfg.json")
        monkeypatch.setenv("BELLSIM_THREADS", "2")
        out = tmp_path / "env_out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out), "--threads", "1"]) == 0
        run1 = (out / "records.csv").read_bytes()
        monkeypatch.delenv("BELLSIM_THREADS")
        out2 = tmp_path / "plain_out"
        assert main(["run", "--config", str(cfg), "--out-dir", str(out2)]) == 0
        assert run1 == (out2 / "records.csv").read_bytes()

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

    def test_bits_are_extracted_once(self, tmp_path, monkeypatch):
        out = self.run_analyze(tmp_path, n_trials=6000)
        calls = []
        extract = randomness.extract_bits

        def counted(records):
            calls.append(len(records))
            return extract(records)

        monkeypatch.setattr(cli, "extract_bits", counted)
        monkeypatch.setattr(randomness, "extract_bits", counted)
        assert main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(out / "report.json"), "--out-dir", str(out)]) == 0
        assert calls == [6000]

    def test_conspiracy_caveat_flag(self, tmp_path):
        out = self.run_analyze(tmp_path, mode="conspiracy:qm-mimic", n_trials=60_000)
        main(["certify", "--records", str(out / "records.csv"),
              "--report", str(out / "report.json"), "--out-dir", str(out)])
        cert = json.loads((out / "certification.json").read_text())
        assert cert["certified"] is True
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

    @pytest.mark.parametrize("path,value,named", [
        (("estimates",), [], "'estimates' must be a JSON object"),
        (("bell",), "violation", "'bell' must be a JSON object"),
        (("bell", "verdict"), 5, "'verdict' must be one of"),
        (("bell", "verdict"), "VIOLATION", "'verdict' must be one of"),
    ])
    def test_hand_edited_report_exits_validation(self, tmp_path, capsys, path, value, named):
        out = self.run_analyze(tmp_path, n_trials=6000)
        report = out / "report.json"
        doc = json.loads(report.read_text())
        *parents, key = path
        target = doc
        for parent in parents:
            target = target[parent]
        target[key] = value
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["certify", "--records", str(out / "records.csv"),
                     "--report", str(report), "--out-dir", str(out)])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not (out / "certification.json").exists()


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
        # a contextual model may break the bound outright: |1-(-1)| + 1 = 3
        assert doc["quantity"]["value"] == 3.0
        assert doc["quantity"]["exceeds_bound"] is True
