"""Sparse Bayesian linear regression with fast approximate leave-one-out CV.

The model is y = X^T w + noise with a spike-and-slab prior on w.  A
self-consistent Gaussian approximation of the posterior is fitted by a damped
Newton method; its leave-one-out error then follows from one solve of the
fitted curvature instead of one refit per sample, with literal and k-fold
harnesses available to check the shortcut.
"""

__version__ = "0.1.0"

from .core import (
    Dataset,
    ECState,
    FitResult,
    FitSettings,
    fit,
)
from .data_io import (
    CenteringRecord,
    ErrorSummary,
    GroundTruth,
    SynthConfig,
    error_summary,
    gen_synthetic,
    load_csv,
    load_fit_json,
    save_dataset_csv,
    save_fit_json,
    save_loo_csv,
    save_sweep_csv,
)
from .errors import (
    AllPointsFailed,
    ConfigError,
    DecompositionFailure,
    DimensionMismatch,
    DomainError,
    EcregError,
    InfeasibleTilt,
    IntegrabilityViolation,
    IoError,
    MissingTarget,
    NonConvergence,
    NonMonotoneDetected,
    NonNumericCell,
    NotConverged,
    ParseError,
    RangeError,
    RankOneSingularity,
    SingularHessian,
    VarianceCollapse,
)
from .hyper import (
    BetaSelection,
    CalibrationResult,
    SweepGrid,
    SweepPoint,
    SweepResult,
    calibrate_rho,
    select_beta,
    sweep,
)
from .loocv import (
    LooReport,
    approx_looe,
    kfold_cv,
    literal_loocv,
)
from .priors import (
    BERNOULLI_GAUSS,
    BERNOULLI_UNIFORM,
    PriorSpec,
    bernoulli_gauss,
    bernoulli_uniform,
)

__all__ = [
    "__version__",
    "AllPointsFailed",
    "BERNOULLI_GAUSS",
    "BERNOULLI_UNIFORM",
    "BetaSelection",
    "CalibrationResult",
    "CenteringRecord",
    "ConfigError",
    "Dataset",
    "DecompositionFailure",
    "DimensionMismatch",
    "DomainError",
    "ECState",
    "EcregError",
    "ErrorSummary",
    "FitResult",
    "FitSettings",
    "GroundTruth",
    "InfeasibleTilt",
    "IntegrabilityViolation",
    "IoError",
    "LooReport",
    "MissingTarget",
    "NonConvergence",
    "NonMonotoneDetected",
    "NonNumericCell",
    "NotConverged",
    "ParseError",
    "PriorSpec",
    "RangeError",
    "RankOneSingularity",
    "SingularHessian",
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "SynthConfig",
    "VarianceCollapse",
    "approx_looe",
    "bernoulli_gauss",
    "bernoulli_uniform",
    "calibrate_rho",
    "error_summary",
    "fit",
    "gen_synthetic",
    "kfold_cv",
    "literal_loocv",
    "load_csv",
    "load_fit_json",
    "save_dataset_csv",
    "save_fit_json",
    "save_loo_csv",
    "save_sweep_csv",
    "select_beta",
    "sweep",
]
