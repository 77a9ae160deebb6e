"""What each geometry and mode fact gives at its callers: messages, exit codes and the caveat flag.

The slot counts, a mode's geometries and its conspiracy flag are each
defined once (``selector.GEOMETRIES`` and ``protocol._MODES``) and read
everywhere else, a report's mode label through ``protocol.read_label``.  The
values below were taken from the code before those facts were gathered, so a
fact read from the wrong place changes one of them; the refusals of report
labels that the records refute came with the check that makes them.
"""

import contextlib
import io
import json

import pytest

from bellsim.cli import main
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.errors import IntegrityError, ValidationError
from bellsim.hidden_variables import FiniteHVModel, model_from_jsonable, random_finite_model
from bellsim.protocol import ExperimentConfig, analyze_records, read_label, run_experiment
from bellsim.randomness import BitCounts, certify_counts, extract_bits

TRIPLE, QUADRUPLE = max_violation_triple(), tsirelson_quadruple()
DIRECTIONS = {2: TRIPLE[:2], 3: TRIPLE, 4: QUADRUPLE, 5: (*QUADRUPLE, TRIPLE[0])}
MODES = "qm_sequential, qm_singlet, hv:<model> or conspiracy:<model>"


@pytest.mark.parametrize("mode,n,needs", [
    ("qm_sequential", 2, "qm_sequential mode needs 3 directions, got 2"),
    ("qm_sequential", 4, "qm_sequential mode needs 3 directions, got 4"),
    ("qm_sequential", 5, "qm_sequential mode needs 3 directions, got 5"),
    ("qm_singlet", 2, "qm_singlet mode needs 4 directions, got 2"),
    ("qm_singlet", 3, "qm_singlet mode needs 4 directions, got 3"),
    ("qm_singlet", 5, "qm_singlet mode needs 4 directions, got 5"),
    ("hv:sign-model", 2, "hv mode needs 3 or 4 directions, got 2"),
    ("hv:sign-model", 5, "hv mode needs 3 or 4 directions, got 5"),
    ("hv:model.json", 2, "hv mode needs 3 or 4 directions, got 2"),
    ("conspiracy:qm-mimic", 2, "conspiracy mode needs 3 directions, got 2"),
    ("conspiracy:qm-mimic", 4, "conspiracy mode needs 3 directions, got 4"),
    ("conspiracy:model.json", 5, "conspiracy mode needs 3 directions, got 5"),
])
def test_direction_count_message(mode, n, needs):
    with pytest.raises(ValidationError) as exc:
        ExperimentConfig(mode, DIRECTIONS[n], 10, 1, 2)
    assert str(exc.value) == f"config key 'directions': {needs}"


@pytest.mark.parametrize("mode,n,geometry", [
    ("qm_sequential", 3, "temporal"), ("qm_singlet", 4, "chsh"), ("hv:sign-model", 3, "temporal"),
    ("hv:sign-model", 4, "chsh"), ("conspiracy:qm-mimic", 3, "temporal"),
])
def test_accepted_direction_counts_and_their_geometry(mode, n, geometry):
    config = ExperimentConfig(mode, DIRECTIONS[n], 10, 1, 2)
    assert config.geometry == config.context_set().kind == geometry


def analyze_with_mode(tmp_path, geometry, mode):
    """analyze's exit code and stderr for a 400-trial run of the geometry's quantum mode, labelled mode."""
    directions, run_mode = (TRIPLE, "qm_sequential") if geometry == "temporal" else (QUADRUPLE, "qm_singlet")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": run_mode, "directions": [[d.x, d.y, d.z] for d in directions],
                               "n_trials": 400, "selector_seed": 1, "outcome_seed": 2}))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        assert main(["run", "--config", str(cfg), "--out-dir", str(out)]) == 0
        code = main(["analyze", "--records", str(out / "records.csv"), "--mode", mode, "--out-dir", str(out)])
    return code, err.getvalue(), (out / "report.json").exists()


@pytest.mark.parametrize("geometry,mode", [
    ("temporal", "temporal"), ("temporal", "qm_sequential"), ("temporal", "hv:sign-model"),
    ("temporal", "hv:model.json"), ("temporal", "conspiracy:qm-mimic"), ("temporal", "conspiracy:model.json"),
    ("chsh", "chsh"), ("chsh", "qm_singlet"), ("chsh", "hv:sign-model"), ("chsh", "hv:model.json"),
])
def test_mode_label_of_the_records_geometry(tmp_path, geometry, mode):
    assert analyze_with_mode(tmp_path, geometry, mode) == (0, "", True)


@pytest.mark.parametrize("geometry,mode,implies", [
    ("temporal", "chsh", "chsh"),
    ("temporal", "qm_singlet", "chsh"),
    ("chsh", "temporal", "temporal"),
    ("chsh", "qm_sequential", "temporal"),
    ("chsh", "conspiracy:qm-mimic", "temporal"),
    ("chsh", "conspiracy:model.json", "temporal"),
])
def test_mode_label_of_the_other_geometry(tmp_path, geometry, mode, implies):
    message = f"bellsim: validation error: mode {mode!r} implies {implies} records, got {geometry}\n"
    assert analyze_with_mode(tmp_path, geometry, mode) == (1, message, False)


@pytest.mark.parametrize("mode", ["bogus", "hv", "conspiracy", "qm_sequential:x", "conspiracy:", "temporal:x"])
def test_invalid_mode_label(tmp_path, mode):
    message = f"bellsim: validation error: --mode must be {MODES}, got {mode!r}\n"
    assert analyze_with_mode(tmp_path, "temporal", mode) == (1, message, False)


def test_invalid_mode_label_in_the_library():
    records = run_experiment(ExperimentConfig("qm_sequential", TRIPLE, 200, 1, 2))
    with pytest.raises(ValidationError, match=f"^config key 'mode' must be {MODES}, got 'bogus'$"):
        analyze_records(records, mode="bogus")


@pytest.mark.parametrize("n_slots", [2, 5])
def test_finite_model_slot_count(n_slots):
    with pytest.raises(ValidationError, match=r"^response tables must cover 3 \(temporal\) or 4 \(chsh\) slots$"):
        FiniteHVModel([1.0], [[1] * n_slots])
    with pytest.raises(ValidationError, match=f"^n_slots must be 3 or 4, got {n_slots}$"):
        random_finite_model(0, 2, n_slots)


def test_contextual_model_file_with_4_slot_tables():
    table = {"lambdas": [{"weight": 1.0, "responses": [1, 1, -1, -1]}]}
    with pytest.raises(ValidationError, match="^contextual tables must cover the 3 temporal slots$"):
        model_from_jsonable({"ab": table, "ac": table, "bc": table})


def test_contextual_model_file_without_its_blocks():
    table = {"lambdas": [{"weight": 1.0, "responses": [1, 1, -1]}]}
    with pytest.raises(ValidationError, match="^model document needs either 'lambdas' or context blocks 'ab'/'ac'/'bc'$"):
        model_from_jsonable({"ab": table, "bc": table})


@pytest.mark.parametrize("label,caveat", [
    ("temporal", True), ("qm_sequential", False), ("hv:sign-model", False), ("hv:/models/finite.json", False),
    ("conspiracy:qm-mimic", True), ("conspiracy:/models/contextual.json", True),
])
def test_conspiracy_caveat_of_each_report_label(label, caveat):
    records = run_experiment(ExperimentConfig("qm_sequential", TRIPLE, 200, 1, 2))
    report = analyze_records(records)._replace(mode=label)
    cert = certify_counts(BitCounts.of(extract_bits(records)), records, report)
    assert cert.conspiracy_caveat is caveat


@pytest.mark.parametrize("label,error,message", [
    ("chsh", IntegrityError, "report mode 'chsh' implies chsh records, got temporal"),
    ("qm_singlet", IntegrityError, "report mode 'qm_singlet' implies chsh records, got temporal"),
    ("hv", ValidationError, f"malformed analysis report: 'mode' must be {MODES}, got 'hv'"),
    ("bogus", ValidationError, f"malformed analysis report: 'mode' must be {MODES}, got 'bogus'"),
], ids=["chsh", "qm_singlet", "hv", "bogus"])
def test_report_label_refused_on_temporal_records(label, error, message):
    # a label of the other geometry, or one that is no mode and no geometry, gives no caveat to read
    records = run_experiment(ExperimentConfig("qm_sequential", TRIPLE, 200, 1, 2))
    report = analyze_records(records)._replace(mode=label)
    with pytest.raises(error) as exc:
        certify_counts(BitCounts.of(extract_bits(records)), records, report)
    assert str(exc.value) == message


@pytest.mark.parametrize("label", [["x"], {"kind": "hv"}, 3])
def test_label_that_is_no_string(label):
    records = run_experiment(ExperimentConfig("qm_sequential", TRIPLE, 200, 1, 2))
    named = f"config key 'mode' must be a string, got {type(label).__name__}"
    with pytest.raises(ValidationError, match=f"^{named}$"):
        analyze_records(records, mode=label)
    with pytest.raises(ValidationError, match=f"^{named}$"):
        read_label(label)


def test_relabelled_conspiracy_report(tmp_path):
    # a conspiracy:qm-mimic run whose report's mode is edited to each label: the records refute the other
    # geometry (exit 3), a label that is no mode is malformed (exit 1); the backend itself cannot be read from
    # the records, so qm_sequential certifies with no caveat, as the README says
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "conspiracy:qm-mimic", "directions": [[d.x, d.y, d.z] for d in TRIPLE],
                               "n_trials": 60_000, "selector_seed": 11, "outcome_seed": 22}))
    run = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(cfg), "--out-dir", str(run)]) == 0
        assert main(["analyze", "--records", str(run / "records.csv"), "--mode", "conspiracy:qm-mimic",
                     "--out-dir", str(run)]) == 0
    doc = json.loads((run / "report.json").read_text())
    outcomes = {}
    for label in ["qm_singlet", "chsh", "hv", "qm_sequential:junk", "nonsense", "temporal", "conspiracy:qm-mimic",
                  "qm_sequential"]:
        report, out = tmp_path / f"{label}.json", tmp_path / f"certified-{label}"
        report.write_text(json.dumps({**doc, "mode": label}))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["certify", "--records", str(run / "records.csv"), "--report", str(report),
                         "--out-dir", str(out)])
        cert = json.loads((out / "certification.json").read_text()) if code == 0 else None
        assert out.exists() is (code == 0)
        assert ("Traceback" not in stderr.getvalue()) and (stdout.getvalue() == "") is (code != 0)
        outcomes[label] = (code, cert and (cert["n_bits"], cert["certified"], cert["conspiracy_caveat"]))
    assert outcomes == {
        "qm_singlet": (3, None), "chsh": (3, None),
        "hv": (1, None), "qm_sequential:junk": (1, None), "nonsense": (1, None),
        "temporal": (0, (120_000, True, True)), "conspiracy:qm-mimic": (0, (120_000, True, True)),
        "qm_sequential": (0, (120_000, True, False)),
    }
