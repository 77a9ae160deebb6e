"""Tests of the benchmark itself: the output checker and the tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bellsim.cli as cli  # noqa: E402
import bellsim.protocol as protocol  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

N = 20_000


def _config(mode="qm_sequential", seed=7) -> dict:
    doc = workloads.pipeline_config(seed)
    doc.update(mode=mode, n_trials=N)
    if mode == "qm_singlet":
        doc["directions"] = workloads.reanalyze_config(seed)["directions"]
    return doc


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _pipeline(tmp_path: Path, mode="qm_sequential"):
    config = _config(mode)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert _cli("run", "--config", path, "--out-dir", tmp_path) == 0
    assert _cli("analyze", "--records", tmp_path / "records.csv", "--mode", mode,
                "--out-dir", tmp_path) == 0
    assert _cli("certify", "--records", tmp_path / "records.csv", "--report",
                tmp_path / "report.json", "--out-dir", tmp_path) == 0
    records = protocol.run_experiment(protocol.ExperimentConfig.from_dict(config))
    ref = checks.Reference(records.kind, records.codes, records.s1, records.s2, mode)
    return config, ref


def _failed(op: str, exit_code: int, problems: list[str]) -> int:
    tally = run.Tally()
    tally.add(op, exit_code, problems)
    return tally.failed


@pytest.mark.parametrize("kind,mode", [("temporal", "qm_sequential"), ("chsh", "qm_singlet")])
def test_rendering_matches_the_library(kind, mode):
    records = protocol.run_experiment(protocol.ExperimentConfig.from_dict(_config(mode)))
    assert records.kind == kind
    assert checks.render_records(kind, records.codes, records.s1, records.s2) == records.to_csv_bytes()
    assert tracing._csv_size(records) == len(records.to_csv_bytes())


def test_clean_outputs_pass(tmp_path):
    config, ref = _pipeline(tmp_path)
    assert ref.check_run(tmp_path, config) == []
    assert ref.check_report(tmp_path / "report.json") == []
    assert ref.check_certification(tmp_path) == []


def test_flipped_byte_in_records_counts_as_failed(tmp_path):
    config, ref = _pipeline(tmp_path)
    path = tmp_path / "records.csv"
    data = bytearray(path.read_bytes())
    at = data.rindex(b",1\n")  # the last s2 = +1 ...
    data[at + 1] ^= 0x01  # ... becomes "0", an invalid outcome
    path.write_bytes(bytes(data))
    assert _failed("run", 0, ref.check_run(tmp_path, config)) == 1
    # analyzing the damaged file fails too: non-zero exit or a report that disagrees
    code = _cli("analyze", "--records", path, "--mode", "qm_sequential", "--out-dir", tmp_path / "re")
    problems = ref.check_report(tmp_path / "re" / "report.json") if code == 0 else []
    assert _failed("analyze", code, problems) == 1


def test_hand_edited_verdict_counts_as_failed(tmp_path):
    _, ref = _pipeline(tmp_path)
    path = tmp_path / "report.json"
    doc = json.loads(path.read_text())
    assert doc["bell"]["verdict"] == "violation"
    doc["bell"]["verdict"] = "consistent"
    path.write_text(json.dumps(doc))
    assert _failed("analyze", 0, ref.check_report(path)) == 1


def test_added_keys_are_ignored(tmp_path):
    _, ref = _pipeline(tmp_path)
    path = tmp_path / "report.json"
    doc = json.loads(path.read_text())
    doc["diagnostics"] = {"AB": {"p_same": 0.5}}
    doc["bell"]["p_value_hoeffding"] = 1e-9
    path.write_text(json.dumps(doc))
    assert ref.check_report(path) == []


def test_crlf_records_parse_to_the_canonical_hash(tmp_path):
    config = _config("qm_singlet")
    records = protocol.run_experiment(protocol.ExperimentConfig.from_dict(config))
    ref = checks.Reference(records.kind, records.codes, records.s1, records.s2, "qm_singlet")
    path = tmp_path / "records.csv"
    path.write_bytes(ref.csv.replace(b"\n", b"\r\n"))
    assert _cli("analyze", "--records", path, "--mode", "qm_singlet", "--out-dir", tmp_path) == 0
    assert ref.check_report(tmp_path / "report.json") == []


def test_sweep_check_catches_a_wrong_backend(tmp_path):
    specs = {s["op"]: s for s in workloads.sweep_specs(5, tmp_path)}
    models = workloads.model_documents(list(specs.values()))
    spec = specs["qm_sequential@3"]
    config = protocol.ExperimentConfig.from_dict(spec["config"])
    _, good = child.run_library(config, threads=1)
    assert checks.check_sweep_op(spec, good, good["digest"], models) == []
    # the sign model's records under the qm_sequential spec: counts agree with the
    # estimates, but the correlators are not the quantum ones
    doc = dict(spec["config"], mode="hv:sign-model")
    _, wrong = child.run_library(protocol.ExperimentConfig.from_dict(doc), threads=1)
    assert checks.check_sweep_op(spec, wrong, None, models)
    assert checks.check_sweep_op(spec, good, "0" * 32, models)


def test_tracer_counts_and_restores(tmp_path):
    originals = (protocol.RecordBatch.__dict__["from_csv"], cli.extract_bits, protocol.run_experiment)
    with tracing.Tracer() as tracer:
        _pipeline(tmp_path)
    calls = {name: sum(s.name == name for s in tracer.spans) for name in tracing.SPAN_NAMES}
    assert calls["protocol.to_csv_bytes"] == 6
    assert calls["protocol.sha256"] == 5
    assert calls["protocol.write_csv"] == 1
    assert calls["protocol.from_csv"] == 2
    assert calls["randomness.extract_bits"] == 2
    # the reference run inside _pipeline counts as a second run_experiment call
    assert calls["protocol.run_experiment"] == 2
    assert tracer.missing == []
    assert (protocol.RecordBatch.__dict__["from_csv"], cli.extract_bits,
            protocol.run_experiment) == originals


def test_traced_pipeline_reports_every_layer_metric(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config()))
    ops = [
        {"op": "run", "argv": ["run", "--config", str(config), "--out-dir", "{out}"]},
        {"op": "analyze", "argv": ["analyze", "--records", "{out}/records.csv", "--out-dir", "{out}"]},
        {"op": "certify", "argv": ["certify", "--records", "{out}/records.csv", "--report",
                                   "{out}/report.json", "--out-dir", "{out}"]},
    ]
    doc = json.loads(json.dumps(child.trace({"ops": ops, "work": str(tmp_path / "trace")})))
    assert all(item["result"]["exit"] == 0 for done in doc["passes"].values() for item in done)
    metrics, extra = run.layer_metrics(doc)
    assert [(name, unit) for name, (_, unit) in metrics.items()] == run.per_layer_names()
    assert metrics["protocol.to_csv_bytes.calls"][0] == 6
    assert metrics["protocol.sha256.calls"][0] == 5
    assert metrics["protocol.render_written_ratio"][0] == pytest.approx(1 / 6)
    assert extra["render_written_base"] == "1/6"
    assert metrics["protocol.to_csv_bytes.bytes"][0] == 6 * metrics["protocol.write_csv.bytes"][0]
    assert 0.5 < metrics["cli.cmd_certify.covered_share"][0] <= 1.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "hidden": 0.5},
        {"name": "b", "start": 1.0, "end": 4.0, "parent": 0, "hidden": 0.0},
        {"name": "c", "start": 3.0, "end": 6.0, "parent": 0, "hidden": 0.0},  # overlaps b
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx((10.0 - 5.0 - 0.5, 0.5))
    assert own[1] == pytest.approx((3.0, 0.0))


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    predictions = json.loads((HERE / "predictions.json").read_text())
    layers = {name.split(".")[0] for name in tracing.SPAN_NAMES}
    reported = set(run.END_TO_END) | set(run.STAGE_METRICS)
    for p in predictions["predictions"]:
        assert {name.split(".")[0] for name in p["layer_metrics"]} <= layers
        for side in ("moves", "no_change"):
            assert set(p[side]) <= set(run.WORKLOADS)
            assert all(set(metrics) <= reported for metrics in p[side].values())
