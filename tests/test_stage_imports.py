"""Each CLI stage loads only the bellsim modules it calls, and the package exports the names it lists and no other.

A stage starts a fresh process, so every module it imports is compiled or
read and kept in memory for nothing if the stage never calls it.  `analyze`
reads records and writes a report: it loads neither the simulator
(``quantum``, ``hidden_variables``) nor ``randomness``; `certify` adds only
``randomness``.  `run` and `oracle` load the backend their mode names when
they build its sampler, and not the other one: no backend module imports
another.  Each stage below runs in a fresh interpreter, as ``bellsim``
does, and reports the ``bellsim.*`` modules it loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim
from bellsim.cli import main
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.hidden_variables import ContextualFiniteModel, random_finite_model, write_model
from bellsim.protocol import ExperimentConfig, run_experiment

SRC = Path(__file__).resolve().parents[1] / "src"
SIMULATOR = {"bellsim.quantum", "bellsim.hidden_variables"}

# runs the CLI on argv[2:] and writes the sorted bellsim.* modules it loaded to argv[1], also when it exits early
# (as --version does)
PROBE = """
import json, sys
try:
    from bellsim.cli import main
    code = main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as f:
        json.dump(sorted(name for name in sys.modules if name.startswith("bellsim.")), f)
sys.exit(code)
"""


def stage(tmp_path, *argv) -> tuple[int, str, set[str]]:
    """Exit code, stdout and the bellsim modules loaded of one CLI stage in a fresh interpreter."""
    loaded = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE, str(loaded), *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, set(json.loads(loaded.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = tmp_path_factory.mktemp("stages")
    run_experiment(ExperimentConfig("qm_sequential", max_violation_triple(), 2000, 11, 22)).write_csv(
        out / "records.csv")
    return out


def test_analyze_loads_neither_the_simulator_nor_randomness(records, tmp_path):
    code, _, loaded = stage(tmp_path, "analyze", "--records", str(records / "records.csv"),
                            "--out-dir", str(records))
    assert code == 0
    assert "bellsim.protocol" in loaded
    assert loaded & (SIMULATOR | {"bellsim.randomness"}) == set()


def test_certify_loads_randomness_but_not_the_simulator(records, tmp_path):
    if not (records / "report.json").exists():
        assert main(["analyze", "--records", str(records / "records.csv"), "--out-dir", str(records)]) == 0
    code, _, loaded = stage(tmp_path, "certify", "--records", str(records / "records.csv"),
                            "--report", str(records / "report.json"), "--out-dir", str(records))
    assert code == 0
    assert "bellsim.randomness" in loaded
    assert loaded & SIMULATOR == set()


def test_version_loads_neither_the_simulator_nor_randomness(tmp_path):
    code, stdout, loaded = stage(tmp_path, "--version")
    assert (code, stdout) == (0, f"bellsim {bellsim.__version__}\n")
    assert loaded & (SIMULATOR | {"bellsim.randomness"}) == set()


def mode_config(tmp_path, mode: str) -> ExperimentConfig:
    """A 3000-trial config of mode; a mode that names model.json gets a model file of its kind there."""
    kind, _, model = mode.partition(":")
    directions = tsirelson_quadruple() if mode == "qm_singlet" else max_violation_triple()
    if model == "model.json":
        path = tmp_path / model
        write_model(random_finite_model(1, 3, 3) if kind == "hv" else ContextualFiniteModel(
            {tag: random_finite_model(seed, 2, 3) for seed, tag in enumerate(["AB", "AC", "BC"])}), path)
        mode = f"{kind}:{path}"
    return ExperimentConfig(mode, directions, 3000, 11, 22)


@pytest.mark.parametrize("mode", ["qm_sequential", "qm_singlet", "hv:sign-model", "hv:model.json",
                                  "conspiracy:qm-mimic", "conspiracy:model.json"])
def test_run_and_oracle_build_every_mode_in_a_fresh_process(tmp_path, capsys, mode):
    config = mode_config(tmp_path, mode)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_jsonable()), encoding="utf-8")
    backend = "bellsim.quantum" if mode.startswith("qm_") else "bellsim.hidden_variables"
    code, _, loaded = stage(tmp_path, "run", "--config", str(path), "--out-dir", str(tmp_path / "out"))
    assert code == 0 and loaded & SIMULATOR == {backend}
    records = tmp_path / "out" / "records.csv"
    assert records.read_bytes() == run_experiment(config).to_csv_bytes()
    code, stdout, loaded = stage(tmp_path, "oracle", "--config", str(path))
    assert code == 0 and loaded & SIMULATOR == {backend}
    capsys.readouterr()
    assert main(["oracle", "--config", str(path)]) == 0
    assert stdout == capsys.readouterr().out


# every name the package exports, by the submodule that defines it
EXPORTS = {
    "directions": ["Direction3", "max_violation_triple", "tsirelson_quadruple"],
    "errors": ["BellsimError", "InsufficientDataError", "IntegrityError", "ValidationError"],
    "hidden_variables": ["ContextualFiniteModel", "FiniteHVModel", "exact_correlator", "load_model",
                         "random_finite_model", "write_model"],
    "protocol": ["AnalysisReport", "BellReport", "CorrelatorEstimate", "ExperimentConfig", "RecordBatch",
                 "analyze_records", "bell_quantity", "chsh_quantity", "estimate_correlators", "load_config",
                 "run_experiment"],
    "quantum": ["QubitState", "brute_force_sequential_correlator", "brute_force_singlet_correlator",
                "measure_spin", "singlet_analytic_correlator"],
    "randomness": ["CertificationReport", "certify", "extract_bits", "monobit_test", "runs_test"],
    "selector": ["MeasurementContext"],
}
# the scalar reference the package no longer holds; it lives beside the tests, in tests/reference.py
REMOVED = ["SelectorState", "derive_trial_randomness", "next_context"]


@pytest.mark.parametrize("module,name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_every_export_resolves_to_its_defining_module(module, name):
    namespace = {}
    exec(f"from bellsim import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"bellsim.{module}"), name)
    assert getattr(bellsim, name) is namespace[name] and name in dir(bellsim)


def test_the_package_lists_exactly_those_names():
    assert sorted(bellsim.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    with pytest.raises(ImportError):
        exec("from bellsim import no_such_name", {})
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bellsim.no_such_name


@pytest.mark.parametrize("name", REMOVED)
def test_a_removed_name_is_no_export(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(bellsim, name)
    assert name not in bellsim.__all__ and name not in dir(bellsim)
