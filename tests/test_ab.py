"""tools/ab.py's statistics and verdicts, fed made-up samples, and its sweep stage, run once at a small trial count."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

PARENT = [36.0, 36.1, 36.2, 36.1, 36.0, 36.2, 36.1, 36.0, 36.1, 36.2]  # quartiles 36.025, 36.1, 36.175 (IQR 0.15)


@pytest.fixture
def ab(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # ab.py imports stage_rss from beside it
    spec = importlib.util.spec_from_file_location("ab", TOOLS / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quartiles_are_the_inclusive_ones(ab):
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert ab.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75}


def test_nine_wins_beyond_the_parents_spread_are_a_gain(ab):
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.5  # one lost pair
    c = ab.compare(PARENT, change)
    assert (c["wins"], c["rounds"], c["verdict"]) == (9, 10, "gain")
    assert c["ratio"] == pytest.approx(35.1 / 36.1)
    assert c["parent"]["samples"] == PARENT and c["change"]["samples"] == change
    assert c["parent"]["median"] == pytest.approx(36.1)


def test_eight_wins_are_no_gain(ab):
    change = [p - 1.0 for p in PARENT]
    change[3] = change[4] = 40.0
    c = ab.compare(PARENT, change)
    assert (c["wins"], c["verdict"]) == (8, "none")


def test_a_drop_within_the_parents_spread_is_no_gain(ab):
    change = [p - 0.1 for p in PARENT]  # wins every pair, by less than the IQR of 0.15
    c = ab.compare(PARENT, change)
    assert (c["wins"], c["verdict"]) == (10, "none")


def test_identical_sides_are_no_gain_and_a_ratio_of_one(ab):
    c = ab.compare(PARENT, list(PARENT))
    assert (c["wins"], c["ratio"], c["verdict"]) == (0, 1.0, "none")


def test_the_rule_the_other_way_is_a_loss(ab):
    c = ab.compare(PARENT, [p + 1.0 for p in PARENT])
    assert (c["wins"], c["verdict"]) == (0, "loss")


def test_fewer_than_ten_rounds_give_no_verdict(ab):
    c = ab.compare(PARENT[:9], [p - 1.0 for p in PARENT[:9]])
    assert (c["wins"], c["rounds"], c["verdict"]) == (9, 9, "none")


def test_a_zero_parent_median_gives_no_ratio(ab):
    c = ab.compare([0.0, 0.0], [1.0, 1.0])
    assert math.isnan(c["ratio"]) and c["interval"] is None


def test_ten_rounds_bound_the_median_ratio_by_the_second_and_ninth_smallest(ab):
    ratios = [1.09, 0.91, 1.05, 0.97, 1.01, 0.95, 1.03, 0.99, 1.07, 0.93]
    ci = ab.median_interval(ratios)
    assert (ci["low"], ci["high"], ci["k"]) == (0.93, 1.07, 2)
    assert ci["coverage"] == pytest.approx(1 - 2 * 11 / 1024)  # 97.85%


def test_identical_sides_give_an_interval_around_one(ab):
    ci = ab.compare(PARENT, list(PARENT))["interval"]
    assert ci["low"] <= 1.0 <= ci["high"] and ci["coverage"] >= 0.978


def test_a_side_five_percent_lower_in_every_pair_gives_an_interval_below_one(ab):
    wobble = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.02, 0.98]  # the change's own spread, about 2%
    ci = ab.compare(PARENT, [p * 0.95 * w for p, w in zip(PARENT, wobble)])["interval"]
    assert ci["high"] < 1.0 and ci["low"] == pytest.approx(0.95 * 0.98)


def test_too_few_rounds_for_95_percent_give_the_extremes_and_their_coverage(ab):
    ci = ab.median_interval([1.1, 0.9])
    assert (ci["low"], ci["high"], ci["k"], ci["coverage"]) == (0.9, 1.1, 1, 0.5)


def test_summary_and_table_cover_every_stage_and_metric(ab):
    samples = {stage: {metric: {"parent": PARENT, "change": [p - 1.0 for p in PARENT]} for metric in ab.METRICS}
               for stage in ab.STAGES}
    summary = ab.summarize(samples)
    assert list(summary) == list(ab.STAGES) and all(list(m) == list(ab.METRICS) for m in summary.values())
    lines = ab.table(summary).splitlines()
    assert len(lines) == 1 + len(ab.STAGES) * len(ab.METRICS)
    assert all(" gain " in line and "10/10" in line and line.endswith("(97.9%)") for line in lines[1:])


def test_crlf_stages_read_and_write_the_crlf_copy(ab, tmp_path):
    config = tmp_path / "config.json"
    assert ab.stage_argv("run", tmp_path, config) == ["run", "--config", str(config), "--out-dir", str(tmp_path)]
    crlf = tmp_path / "crlf"
    assert ab.stage_argv("certify-crlf", tmp_path, config) == [
        "certify", "--records", str(crlf / "records.csv"), "--report", str(crlf / "report.json"),
        "--out-dir", str(crlf)]
    assert ab.stage_argv("analyze", tmp_path, config)[:3] == ["analyze", "--records", str(tmp_path / "records.csv")]


def test_the_pooled_run_stage_writes_beside_the_run_and_must_write_its_records(ab, tmp_path):
    # the run-2-threads stage is stage_rss.py's own, and its records must be the run stage's on each side
    config = tmp_path / "config.json"
    assert ab.STAGES.index("run-2-threads") == ab.STAGES.index("run") + 1
    assert ab.stage_argv("run-2-threads", tmp_path, config) == [
        "run", "--config", str(config), "--out-dir", str(tmp_path / "pooled"), "--threads", "2"]
    sides = {side: {"work": tmp_path / side} for side in ab.SIDES}
    names = [*ab.OUTPUTS, *(f"crlf/{name}" for name in ab.OUTPUTS[1:]), "sweep.txt", ab.POOLED]
    for side in ab.SIDES:
        for name in names:
            (tmp_path / side / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / side / name).write_bytes(b"0,AB,1,2,1,-1\n")
    assert ab.differing_outputs(sides) == []
    (tmp_path / "change" / ab.POOLED).write_bytes(b"0,AB,1,2,-1,-1\n")  # both sides alike, but not the run's
    (tmp_path / "parent" / ab.POOLED).write_bytes(b"0,AB,1,2,-1,-1\n")
    assert ab.differing_outputs(sides) == [ab.POOLED]
    (tmp_path / "parent" / ab.POOLED).unlink()
    assert ab.differing_outputs(sides) == [ab.POOLED]


def test_the_import_stage_starts_python_to_import_the_cli_alone(ab, tmp_path):
    # the benchmark's setup_s, timed with the same interleaving and verdicts as the stages
    config = tmp_path / "config.json"
    assert ab.STAGES[0] == "import"
    assert ab.stage_command("import", tmp_path, config) == ["-c", "import bellsim.cli"]
    assert ab.stage_command("run", tmp_path, config) == ["-m", "bellsim.cli", *ab.stage_argv("run", tmp_path, config)]


@pytest.mark.parametrize("argv", [["--parent", "HEAD", "--rounds", "1"], ["--parent", "HEAD", "--trials", "0"],
                                  ["--rounds", "10"]])
def test_bad_arguments_exit_before_anything_runs(ab, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2


def test_src_lines_are_those_of_the_packages_own_modules(ab, tmp_path):
    # counted as tests/test_line_budget.py counts: str.splitlines of each src/bellsim/*.py, no other file
    package = tmp_path / "src" / "bellsim"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3")  # no final newline
    (package / "notes.txt").write_text("1\n2\n")
    (package / "sub" / "c.py").write_text("w = 4\n")
    assert ab.src_bellsim_lines(tmp_path) == 4


def test_the_sweep_stage_writes_a_digest_of_every_pooled_run(ab, tmp_path):
    # the stage's own process, on this checkout's source at 2000 trials a run; its lines are those of the library
    import ab_sweep
    import numpy as np

    from bellsim.protocol import ExperimentConfig, run_experiment

    config, work = tmp_path / "config.json", tmp_path / "work"
    config.write_text(json.dumps(dict(ab.README_CONFIG, n_trials=2000)), encoding="utf-8")
    ab_sweep.write_models(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(TOOLS.parent / "src")}
    code, _, _ = ab.launch(ab.stage_command("sweep", work, config), env=env)
    assert code == 0
    lines = (work / "sweep.txt").read_text(encoding="utf-8").splitlines()
    runs = ab_sweep.sweep_configs(tmp_path, 2000)
    assert len(lines) == len(runs) == 24
    assert {backend for backend, *_ in runs} == {backend for backend, *_ in ab_sweep.BACKENDS}
    for line, (backend, k, doc) in zip(lines, runs):
        batch = run_experiment(ExperimentConfig.from_dict(doc))  # one thread: the pool changes no digest
        digest = hashlib.sha256(np.concatenate([batch.codes.view(np.int8), batch.s1, batch.s2]).tobytes())
        assert line.split()[:3] == [backend, str(k), digest.hexdigest()]
    # a sweep file that differs, or is missing on one side, is reported as it is for the stage outputs
    assert "sweep.txt" in ab.differing_outputs({"parent": {"work": work}, "change": {"work": tmp_path}})


def test_the_launcher_imports_no_numpy_or_bellsim():
    # a child's peak RSS starts at the high-water mark of the process that exec'd it (tools/stage_rss.py)
    code = "import sys; import ab; print(sorted(m for m in ('numpy', 'bellsim') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], cwd=TOOLS, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_each_sweep_backend_gets_its_own_cpu_samples_and_verdict(ab, tmp_path, monkeypatch):
    # two rounds of the sweep stage alone, on this checkout's source on both sides, at 2000 trials a run
    import ab_sweep

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(ab.README_CONFIG, n_trials=2000)), encoding="utf-8")
    ab_sweep.write_models(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(TOOLS.parent / "src")}
    sides = {side: {"env": env, "work": tmp_path / side} for side in ab.SIDES}
    monkeypatch.setattr(ab, "STAGES", ("sweep",))
    problems = []
    summary = ab.summarize(ab.run_rounds(sides, config, 2, problems))
    assert problems == []
    backends = [backend for backend, *_ in ab_sweep.BACKENDS]
    assert list(summary) == ["sweep", *(f"sweep {backend}" for backend in backends)]
    for backend in backends:
        c = summary[f"sweep {backend}"]["cpu_s"]
        assert c["rounds"] == 2 and c["verdict"] == "none" and c["interval"] is not None
        assert all(seconds > 0.0 for side in ab.SIDES for seconds in c[side]["samples"])
    assert not list(tmp_path.glob("*/sweep.cpu.json"))  # read once, then removed
    assert len(ab.table(summary).splitlines()) == 1 + len(ab.METRICS) + len(backends)
