"""tools/bench_record.py turns the benchmark's result files into one BENCH record; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.fixture
def bench_record(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(ROOT)  # the tool reads BENCHMARK.json and src/ from the working directory
    return module


def result(name, threads=1, correct=True, **extra):
    """A result file's content as perfbench/run.py writes it, with made-up figures."""
    return {
        "workload": name, "seed": 0, "seconds": 25, "trace": 0,
        "environment": {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "threads": threads,
                        "git_commit": "abc123", "src_bellsim_lines": 2658},
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1, "failures": [],
        "metrics": {"setup_s": {"value": 0.25, "unit": "s"}, "trials_per_s": {"value": 1.5e6, "unit": "trials/s"},
                    "peak_rss_mb": {"value": 36.0, "unit": "MB"}},
        "extra": {"setup_samples_s": [0.24, 0.25, 0.26], "passes": [], "pass_s": [2.0], "failed_ratio": 0.0,
                  **extra},
    }


def write_results(directory, docs):
    directory.mkdir()
    for doc in docs:
        (directory / f"{doc['workload']}-seed0-trace0.json").write_text(json.dumps(doc), encoding="utf-8")


FIXTURES = {
    "pipeline-temporal": dict(run_s=0.5, analyze_s=0.6, certify_s=0.7),
    "sweep-backends": dict(threads=2, backend_trials_per_s={"qm_sequential": 3.0e7, "hv:sign-model": 1.8e7}),
    "reanalyze-chsh-crlf": dict(analyze_s=0.4, certify_s=0.45),
}


def test_three_result_files_make_one_record(bench_record, tmp_path, capsys):
    assert sorted(WORKLOADS) == sorted(FIXTURES)
    write_results(tmp_path / "results", [result(name, **FIXTURES[name]) for name in WORKLOADS])
    (tmp_path / "results" / "pipeline-temporal-seed1-trace0.json").write_text("not read", encoding="utf-8")
    out = tmp_path / "BENCH_123.json"
    assert bench_record.main(["--pr", "123", "--results", str(tmp_path / "results"), "--out", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert json.loads(capsys.readouterr().out) == record
    assert record["pr"] == 123 and record["git_commit"] == "abc123" and record["src_bellsim_lines"] == 2658
    assert record["environment"] == {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}
    assert set(record["bytecode"]) == {"PYTHONDONTWRITEBYTECODE", "pycache_files", "cached"}
    assert record["src_uncommitted"] in (True, False, None)
    assert list(record["workloads"]) == WORKLOADS
    pipeline, sweep, crlf = (record["workloads"][name] for name in
                             ("pipeline-temporal", "sweep-backends", "reanalyze-chsh-crlf"))
    assert pipeline == {"correct": True, "attempted": 3, "failed": 0, "seconds": 25, "seed": 0,
                        "end_to_end": {"setup_s": 0.25, "trials_per_s": 1.5e6, "peak_rss_mb": 36.0},
                        "stages_s": {"run_s": 0.5, "analyze_s": 0.6, "certify_s": 0.7},
                        "setup_samples_s": [0.24, 0.25, 0.26], "environment": {"threads": 1}}
    assert sweep["stages_s"] == {} and sweep["environment"] == {"threads": 2}
    assert sweep["backend_trials_per_s"] == {"qm_sequential": 3.0e7, "hv:sign-model": 1.8e7}
    assert crlf["stages_s"] == {"analyze_s": 0.4, "certify_s": 0.45} and "backend_trials_per_s" not in crlf


@pytest.mark.parametrize("broken", ["missing", "incorrect"])
def test_a_missing_or_incorrect_workload_fails(bench_record, tmp_path, capsys, broken):
    docs = [result(name, **FIXTURES[name]) for name in WORKLOADS]
    if broken == "missing":
        docs = docs[1:]
    else:
        docs[0] = result(WORKLOADS[0], correct=False, **FIXTURES[WORKLOADS[0]])
    write_results(tmp_path / "results", docs)
    out = tmp_path / "BENCH_123.json"
    assert bench_record.main(["--pr", "123", "--results", str(tmp_path / "results"), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"bench_record: {WORKLOADS[0]}: " + ("no result" if broken == "missing" else "not correct") in err
    assert out.exists()  # written all the same, so that CI can print it


def test_bytecode_is_cached_unless_every_process_compiles(bench_record, tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_record.bytecode(tmp_path) == {"PYTHONDONTWRITEBYTECODE": "1", "pycache_files": 0, "cached": False}
    cache = tmp_path / "src" / "bellsim" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "cli.cpython-311.pyc").write_bytes(b"")
    assert bench_record.bytecode(tmp_path)["cached"] is True
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_record.bytecode(tmp_path / "elsewhere") == {"PYTHONDONTWRITEBYTECODE": None, "pycache_files": 0,
                                                              "cached": True}


def test_an_ab_file_is_stored_as_the_ab_block(bench_record, tmp_path, capsys):
    write_results(tmp_path / "results", [result(name, **FIXTURES[name]) for name in WORKLOADS])
    ab = {"parent": "abc123", "rounds": 10, "stages": {"analyze": {"peak_rss_mb": {"wins": 10, "verdict": "gain"}}}}
    (tmp_path / "ab.json").write_text(json.dumps(ab), encoding="utf-8")
    out = tmp_path / "BENCH_123.json"
    assert bench_record.main(["--pr", "123", "--results", str(tmp_path / "results"), "--out", str(out),
                              "--ab", str(tmp_path / "ab.json")]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["ab"] == ab and list(record["workloads"]) == WORKLOADS
