"""Hand-edited input documents fail only as documented: ValidationError (exit 1) or IntegrityError (exit 3).

Hypothesis edits valid config, model and report documents: it drops a key
or a list item, adds a key, swaps a value for another JSON value, or sets
``mode`` to any text, up to three times at any depth.  Each edited document
then goes where the CLI sends it: a config through ``load_config``'s checks
and a short run of its backend (a model file that it names is loaded, not
run, and one that cannot be opened is an OSError, exit 2), a model through
the model loader and a short run of its sampler, a report through
``certify``'s load and re-check against the records it was made from.  Any exception but the two documented
ones fails the test; the CLI's exit code alone could not show it, since an
uncaught exception also exits 1.  The ``@example`` seeds are the hand edits
that ``tests/test_cli.py`` and ``tests/test_mode_facts.py`` check one by one.
"""

import contextlib
import copy
import json
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellsim.cli import main
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.errors import IntegrityError, ValidationError
from bellsim.hidden_variables import ContextualFiniteModel, model_from_jsonable, model_to_jsonable, random_finite_model
from bellsim.protocol import (QM_MIMIC_NAME, SIGN_MODEL_NAME, ExperimentConfig, analyze_records, make_sampler,
                              parse_mode, report_from_jsonable, report_to_jsonable, run_experiment)
from bellsim.randomness import BitCounts, certify_counts, extract_bits

DOCUMENTED = (ValidationError, IntegrityError)
TRIPLE, QUADRUPLE = max_violation_triple(), tsirelson_quadruple()
LABELS = ["temporal", "chsh", "qm_sequential", "qm_singlet", "hv", "hv:sign-model", "hv:model.json",
          "conspiracy:qm-mimic", "conspiracy:model.json", "qm_sequential:junk", "bogus", ""]

CONFIGS = [
    {"mode": mode, "directions": [[d.x, d.y, d.z] for d in directions], "n_trials": 6000,
     "selector_seed": 11, "outcome_seed": 22, "sigma_threshold": 5.0}
    for mode, directions in [("qm_sequential", TRIPLE), ("qm_singlet", QUADRUPLE), ("hv:sign-model", TRIPLE),
                             ("conspiracy:qm-mimic", TRIPLE)]
]
MODELS = [
    model_to_jsonable(random_finite_model(1, 3, 3)),
    model_to_jsonable(random_finite_model(2, 2, 4)),
    model_to_jsonable(ContextualFiniteModel({tag: random_finite_model(seed, 2, 3)
                                             for seed, tag in enumerate(["AB", "AC", "BC"])})),
]
RECORDS = [run_experiment(ExperimentConfig.from_dict({**CONFIGS[i], "n_trials": 2000})) for i in (0, 1)]
COUNTS = [BitCounts.of(extract_bits(records)) for records in RECORDS]
REPORTS = [report_to_jsonable(analyze_records(RECORDS[0], mode="qm_sequential")),
           report_to_jsonable(analyze_records(RECORDS[1], mode="qm_singlet"))]

# values at the edges of what a loader reads, drawn as often as every other JSON value together; copied, since
# an edit may add to a list or object it drew
EDGES = [None, True, 0, -1, 0.5, 10**400, -(10**400), math.nan, math.inf, -math.inf, "", "1", [], {}]
json_values = (st.sampled_from(EDGES) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)).map(copy.deepcopy)


def paths(doc, prefix=()):
    """Every path (a tuple of keys and list indexes) into a JSON document, the document's own () first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from paths(value, (*prefix, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def edited(draw, documents):
    """A copy of one of the documents with one to three edits."""
    doc = copy.deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        top = [(key,) for key in doc] if isinstance(doc, dict) else []  # drawn as often as the deeper paths
        path = draw(st.sampled_from([(), *top]) | st.sampled_from(list(paths(doc))))
        edit = draw(st.sampled_from(["drop", "add", "swap", "mode"]))
        target = at(doc, path)
        if edit == "mode" and isinstance(doc, dict):
            doc["mode"] = draw(st.sampled_from(LABELS) | st.text(max_size=24))
        elif edit == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(["extra", "mode", "n", "bell"]) | st.text(max_size=8))] = draw(json_values)
        elif edit == "add" and isinstance(target, list):
            target.append(draw(json_values))
        elif edit == "drop" and path:
            del at(doc, path[:-1])[path[-1]]
        elif path:
            at(doc, path[:-1])[path[-1]] = draw(json_values)
        else:
            doc = draw(json_values)
    return doc


DROP = object()


def with_edit(doc, path, value):
    """A copy of doc whose value at path is value; a callable value is applied to the old one, DROP deletes it."""
    doc = copy.deepcopy(doc)
    parent = at(doc, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    return doc


def seeded(*docs):
    """Add each document as an @example of the test."""
    def decorate(test):
        for doc in docs:
            test = example(doc=doc)(test)
        return test
    return decorate


def refused_or_accepted(check, doc):
    try:
        check(doc)
    except DOCUMENTED:
        pass


def run_config(doc):
    # load_config's checks, then what `run` builds and runs, on a few trials; running a model file's model is the
    # model test's part, so a file the mode names is only loaded
    config = ExperimentConfig.from_dict(doc)
    if parse_mode(config.mode)[1] in (None, SIGN_MODEL_NAME, QM_MIMIC_NAME):
        run_experiment(replace(config, n_trials=min(config.n_trials, 64)))
    else:
        with contextlib.suppress(OSError):
            make_sampler(config)


def run_model(doc):
    model = model_from_jsonable(doc)
    if isinstance(model, ContextualFiniteModel):
        mode, directions = "conspiracy:m", TRIPLE
    else:
        mode, directions = "hv:m", TRIPLE if model.n_slots == 3 else QUADRUPLE
    run_experiment(ExperimentConfig(mode, directions, 64, 1, 2), model=model)


def certify_report(doc):
    # certify's load and re-check, against the records of the geometry the unedited report came from
    i = 1 if isinstance(doc, dict) and isinstance(doc.get("estimates"), dict) and "ABp" in doc["estimates"] else 0
    certify_counts(COUNTS[i], RECORDS[i], report_from_jsonable(doc))


@settings(max_examples=150, deadline=None)
@given(doc=edited(CONFIGS))
@seeded(*(with_edit(CONFIGS[0], path, value) for path, value in [
    (("n_trials",), DROP), (("directions", 0, 0), math.nan), (("directions", 1, 0), "0.7071067811865475"),
    (("directions", 1, 0), True), (("directions", 1, 2), 10**400), (("sigma_threshold",), 10**400),
    (("sigma_threshold",), 0), (("mode",), "bogus"), (("mode",), ["x"]), (("extra",), 1), (("mode",), "hv:a\x00b"),
]), [1, 2, 3], with_edit(CONFIGS[1], ("directions",), lambda d: d[:3]), with_edit(CONFIGS[3], ("mode",), "hv"))
def test_an_edited_config_fails_only_as_documented(doc):
    refused_or_accepted(run_config, doc)


@settings(max_examples=150, deadline=None)
@given(doc=edited(MODELS))
@seeded(*(with_edit(MODELS[0], path, value) for path, value in [
    (("lambdas", 0, "weight"), "half"), (("lambdas", 0, "weight"), math.nan), (("lambdas", 0, "weight"), 10**400),
    (("lambdas", 0, "responses", 1), 1.5), (("lambdas", 0, "responses"), [1, 1, 1, 1]), (("lambdas",), []),
]), with_edit(MODELS[2], ("ab",), 5), with_edit(MODELS[2], ("ac",), DROP),
    with_edit(MODELS[2], ("bc",), MODELS[1]), [1, 2, 3])
def test_an_edited_model_fails_only_as_documented(doc):
    refused_or_accepted(run_model, doc)


@settings(max_examples=200, deadline=None)
@given(doc=edited(REPORTS))
@seeded(*(with_edit(REPORTS[0], path, value) for path, value in [
    (("estimates",), []), (("bell",), "violation"), (("bell", "verdict"), 5), (("bell", "verdict"), "VIOLATION"),
    (("bell", "verdict"), "inconclusive"), (("estimates", "AB", "mean"), str), (("estimates", "AB", "stderr"), True),
    (("estimates", "AC", "mean"), lambda mean: mean + 0.001), (("estimates", "AB", "n"), 10**400),
    (("estimates", "BC", "n"), float), (("estimates", "AB"), 5), (("estimates", "BC"), []),
    (("estimates", "AD"), {"n": 1}),
    (("bell", "value"), str), (("bell", "bound"), "1"), (("bell", "stderr"), False), (("bell", "sigma_excess"), str),
    (("bell", "sigma_excess"), None), (("bell", "value"), 10**400), (("estimates", "AB", "mean"), -(10**400)),
    (("bell", "sigma_excess"), 10**400), (("bell", "extra"), 1), (("mode",), ["x"]), (("bell", "quantity"), 5),
    (("records_sha256",), lambda digest: int(digest, 16)), (("records_sha256",), "0" * 64),
    (("n_trials",), 6000.9), (("n_trials",), True), (("n_trials",), "6000"), (("n_trials",), 5000),
    (("sigma_threshold",), 0), (("sigma_threshold",), math.nan), (("sigma_threshold",), math.inf),
    (("sigma_threshold",), 10**400), (("bell",), DROP), (("estimates",), DROP), (("extra",), 1),
    *((("mode",), label) for label in LABELS),
]), [1, 2], "report", 5, None)
def test_an_edited_report_fails_only_as_documented(doc):
    refused_or_accepted(certify_report, doc)


@pytest.mark.parametrize("what", ["config", "report"])
@pytest.mark.parametrize("value,reason", [
    pytest.param("1" + "0" * 5000, "Exceeds the limit (4300 digits)", id="5001-digit-integer"),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded", id="nested-100000-deep"),
])
def test_json_that_the_decoder_gives_up_on_is_invalid_json(tmp_path, capsys, what, value, reason):
    # json.loads raises ValueError, not JSONDecodeError, on an integer of more than 4300 digits, and
    # RecursionError on arrays nested deeper than the interpreter's recursion limit
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(CONFIGS[0]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
    assert main(["analyze", "--records", str(out / "records.csv"), "--out-dir", str(out)]) == 0
    edited_file = config if what == "config" else out / "report.json"
    edited_file.write_text(edited_file.read_text().replace('"n_trials": 6000', f'"n_trials": {value}'))
    capsys.readouterr()
    argv = (["run", "--config", str(config), "--out-dir", str(tmp_path / "again")] if what == "config" else
            ["certify", "--records", str(out / "records.csv"), "--report", str(edited_file), "--out-dir", str(out)])
    assert main(argv) == 1
    assert f"{what} file {edited_file}: invalid JSON ({reason}" in capsys.readouterr().err
