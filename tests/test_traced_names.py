"""The benchmark's tracer (perfbench/tracing.py) finds every name it wraps and puts each back.

The tracer reports a name the package no longer has in ``missing`` and
leaves its span counts at zero, so a rename would otherwise go unnoticed.
"""

import importlib
import sys
from pathlib import Path

import pytest

# the tracer wraps a name in every loaded bellsim module that holds it; the CLI loads the backends and the
# randomness module only in the stages that call them, so they are loaded here
import bellsim.cli  # noqa: F401
import bellsim.hidden_variables  # noqa: F401
import bellsim.quantum  # noqa: F401
import bellsim.randomness  # noqa: F401
from bellsim.directions import max_violation_triple, tsirelson_quadruple
from bellsim.protocol import ExperimentConfig, run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def bindings(tracing) -> dict:
    """Every attribute of every bellsim module and traced class, by (owner, name)."""
    owners = [m for key, m in sys.modules.items() if key == "bellsim" or key.startswith("bellsim.")]
    owners += [getattr(sys.modules[module], qualname.rpartition(".")[0])
               for _, _, module, qualname in tracing.SPANS if "." in qualname]
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_every_traced_name_exists_and_is_restored(tracing):
    before = bindings(tracing)
    with tracing.Tracer() as tracer:
        assert tracer.missing == ["protocol.write_csv", "protocol.from_csv"]
        during = bindings(tracing)
    after = bindings(tracing)
    assert during.keys() == before.keys() == after.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    assert len([key for key, value in before.items() if during[key] is not value]) >= len(tracing.SPANS)


@pytest.mark.parametrize("mode,directions", [("qm_sequential", max_violation_triple()),
                                              ("qm_singlet", tsirelson_quadruple())])
def test_traced_csv_size_reads_the_trial_positions(tracing, mode, directions):
    records = run_experiment(ExperimentConfig(mode, directions, 1234, 5, 6))
    assert tracing._csv_size(records) == len(records.to_csv_bytes())
