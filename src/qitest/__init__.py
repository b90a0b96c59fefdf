"""Quasi-independence tests for left-truncated, right-censored survival data.

The package provides a family of rank-style association tests restricted to
comparable pairs of subjects, score-test equivalents built from risk sets,
asymptotic-efficacy computations under local alternatives, a replicated
Monte Carlo harness, and a bundled real data set.
"""

__version__ = "0.1.0"

from .comparability import count_comparable, lambda_matrix, omega_matrix
from .coxscore import cox_score_covariate, cox_score_rankstar
from .data import Dataset, Observation
from .datasets import CHANNING_SHA256, load_channing
from .efficacy import (
    AlternativeModel,
    EfficacyResult,
    EfficacyTest,
    EntryLaw,
    are_table,
    conditional_entry_density,
    efficacy,
    exponential_entry,
    model_linear_risk,
    model_reciprocal_risk,
    pitman_are,
    sigma_xy,
    uniform_entry,
    ybar,
)
from .errors import (
    CalibrationFailure,
    DegenerateDataset,
    DegenerateVariance,
    DomainError,
    GenerationStall,
    IntegrationFailure,
    IntegrationWarning,
    ParseError,
    QITestError,
    ValidationError,
)
from .ingest import IngestReport, InputSpec, ingest_csv
from .kernels import Kernel, rank_transform
from .simulate import (
    ExperimentReport,
    ScenarioFamily,
    SimScenario,
    calibrate_censoring,
    generate_dataset,
    run_experiment,
)
from .teststat import (
    STANDARD_PAIRS,
    TestResult,
    chi2_sf1,
    chi_square_test,
    kappa_hat,
    phi_hat_fast,
    quasi_independence_test,
    reverse_roles,
    run_test_grid,
    u_numerator,
)

__all__ = [
    "AlternativeModel",
    "CHANNING_SHA256",
    "CalibrationFailure",
    "Dataset",
    "DegenerateDataset",
    "DegenerateVariance",
    "DomainError",
    "EfficacyResult",
    "EfficacyTest",
    "EntryLaw",
    "ExperimentReport",
    "GenerationStall",
    "IngestReport",
    "InputSpec",
    "IntegrationFailure",
    "IntegrationWarning",
    "Kernel",
    "Observation",
    "ParseError",
    "QITestError",
    "STANDARD_PAIRS",
    "ScenarioFamily",
    "SimScenario",
    "TestResult",
    "ValidationError",
    "are_table",
    "calibrate_censoring",
    "chi2_sf1",
    "chi_square_test",
    "conditional_entry_density",
    "count_comparable",
    "cox_score_covariate",
    "cox_score_rankstar",
    "efficacy",
    "exponential_entry",
    "generate_dataset",
    "ingest_csv",
    "kappa_hat",
    "lambda_matrix",
    "load_channing",
    "model_linear_risk",
    "model_reciprocal_risk",
    "omega_matrix",
    "phi_hat_fast",
    "pitman_are",
    "quasi_independence_test",
    "rank_transform",
    "reverse_roles",
    "run_experiment",
    "sigma_xy",
    "run_test_grid",
    "u_numerator",
    "uniform_entry",
    "ybar",
]
