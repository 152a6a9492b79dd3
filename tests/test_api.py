"""The package's top-level API, exactly these names, and the names the benchmark traces."""

import importlib
import importlib.util
import pathlib

import ecreg
import ecreg.core

PUBLIC = {
    "__version__",
    # fitting
    "Dataset", "ECState", "FitResult", "FitSettings", "fit",
    # priors
    "BERNOULLI_GAUSS", "BERNOULLI_UNIFORM", "PriorSpec", "bernoulli_gauss",
    "bernoulli_uniform",
    # leave-one-out
    "LooReport", "approx_looe", "kfold_cv", "literal_loocv",
    # hyper-parameters
    "BetaSelection", "CalibrationResult", "SweepGrid", "SweepPoint", "SweepResult",
    "calibrate_rho", "select_beta", "sweep",
    # data and files
    "CenteringRecord", "ErrorSummary", "GroundTruth", "SynthConfig", "error_summary",
    "gen_synthetic", "load_csv", "load_fit_json", "save_dataset_csv", "save_fit_json",
    "save_loo_csv", "save_sweep_csv",
    # errors
    "AllPointsFailed", "ConfigError", "DecompositionFailure", "DimensionMismatch",
    "DomainError", "EcregError", "InfeasibleTilt", "IntegrabilityViolation", "IoError",
    "MissingTarget", "NonConvergence", "NonMonotoneDetected", "NonNumericCell",
    "NotConverged", "ParseError", "RangeError", "RankOneSingularity", "SingularHessian",
    "VarianceCollapse",
}


def test_all_is_the_public_api():
    assert len(ecreg.__all__) == len(set(ecreg.__all__))
    assert set(ecreg.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in ecreg.__all__:
        assert getattr(ecreg, name) is not None, name


def test_benchmark_traced_names_resolve():
    # the benchmark's traced run rebinds each (module, function) pair and
    # crashes on one that no longer exists
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"ecreg.{module}"), name, None)), \
            (module, name)
    for name in tracing.CHOLESKY:
        assert callable(getattr(ecreg.core.sla, name, None)), name
