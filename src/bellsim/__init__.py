"""bellsim: simulator and test harness for temporal Bell-type experiments.

Runs the sequential spin-measurement protocol (and its entangled-pair
variant) against exact quantum and deterministic hidden-variable backends,
estimates the per-context correlators, evaluates the temporal Bell-like and
CHSH inequalities, and certifies extracted bits conditional on an observed
violation.
"""

__version__ = "0.1.0"

from .directions import Direction3, max_violation_triple, tsirelson_quadruple
from .errors import BellsimError, InsufficientDataError, IntegrityError, ValidationError
from .hidden_variables import (
    ContextualFiniteModel,
    FiniteHVModel,
    exact_chsh_correlators,
    exact_correlator,
    exact_temporal_correlators,
    load_model,
    random_finite_model,
    sign_model_correlator,
    write_model,
)
from .protocol import (
    AnalysisReport,
    BellReport,
    CorrelatorEstimate,
    ExperimentConfig,
    RecordBatch,
    analyze_records,
    bell_quantity,
    chsh_quantity,
    estimate_correlators,
    load_config,
    run_experiment,
)
from .quantum import (
    QubitState,
    analytic_sequential_correlator,
    brute_force_sequential_correlator,
    brute_force_singlet_correlator,
    measure_spin,
    sequential_trial,
    singlet_analytic_correlator,
    singlet_joint_trial,
)
from .randomness import (
    CertificationReport,
    certify,
    extract_bits,
    monobit_test,
    runs_test,
)
from .selector import (
    MeasurementContext,
    SelectorState,
    derive_trial_randomness,
    next_context,
)
