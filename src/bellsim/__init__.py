"""bellsim: simulator and test harness for temporal Bell-type experiments.

Runs the sequential spin-measurement protocol (and its entangled-pair
variant) against exact quantum and deterministic hidden-variable backends,
estimates the per-context correlators, evaluates the temporal Bell-like and
CHSH inequalities, and certifies extracted bits conditional on an observed
violation.

Each exported name is looked up in its submodule on first use, so a
process imports only the modules whose names it reads: `analyze` and
`certify` never load the simulator.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "directions": ("Direction3", "max_violation_triple", "tsirelson_quadruple"),
    "errors": ("BellsimError", "InsufficientDataError", "IntegrityError", "ValidationError"),
    "hidden_variables": ("ContextualFiniteModel", "FiniteHVModel", "exact_correlator", "load_model",
                         "random_finite_model", "write_model"),
    "protocol": ("AnalysisReport", "BellReport", "CorrelatorEstimate", "ExperimentConfig", "RecordBatch",
                 "analyze_records", "bell_quantity", "chsh_quantity", "estimate_correlators", "load_config",
                 "run_experiment"),
    "quantum": ("QubitState", "brute_force_sequential_correlator", "brute_force_singlet_correlator",
                "measure_spin", "singlet_analytic_correlator"),
    "randomness": ("CertificationReport", "certify", "extract_bits", "monobit_test", "runs_test"),
    "selector": ("MeasurementContext",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    # PEP 562: called only for a name not yet in the package's namespace, where it is then kept
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
