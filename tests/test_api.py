"""The package's top-level API, exactly these names, and the names the benchmark traces."""

import argparse
import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

import ecreg
import ecreg.core
import ecreg.hyper
import ecreg.loocv
from ecreg.cli import build_parser

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
    "NotConverged", "ParseError", "RangeError", "SingularHessian", "VarianceCollapse",
}


def test_all_is_the_public_api():
    assert len(ecreg.__all__) == len(set(ecreg.__all__))
    assert set(ecreg.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in ecreg.__all__:
        assert getattr(ecreg, name) is not None, name


def test_loocv_has_one_formula_and_two_refit_harnesses():
    # approx_looe is the one path to the leverages; a second LOO estimator
    # has to change this test
    public = {name for name, obj in vars(ecreg.loocv).items()
              if inspect.isfunction(obj) and obj.__module__ == "ecreg.loocv"
              and not name.startswith("_")}
    assert public == {"approx_looe", "literal_loocv", "kfold_cv"}


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


def test_start_and_tolerance_options_are_pinned():
    # fit has one warm start (a whole earlier state) and fixed bounds, which
    # no entry point, CLI flag or FitSettings argument overrides; a new start
    # or tolerance option has to change this test
    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(ecreg.fit) == ["dataset", "prior", "beta", "warm"]
    assert names(ecreg.core.solve_tilt) == ["m", "prior", "beta", "lam", "E0", "h0", "_ltil0"]
    assert names(ecreg.sweep) == ["dataset", "family", "grid"]
    assert names(ecreg.calibrate_rho) == ["dataset", "beta", "K", "family", "sigma_w2"]
    assert names(ecreg.hyper.calibrate) == [
        "dataset", "family", "K_targets", "beta_grid", "sigma_w2"]
    assert names(ecreg.select_beta) == ["dataset", "prior", "beta_grid"]
    assert names(ecreg.literal_loocv) == ["dataset", "prior", "beta"]
    assert names(ecreg.kfold_cv) == ["dataset", "prior", "beta", "k", "seed"]

    assert names(ecreg.FitSettings) == []
    bounds = ecreg.FitSettings()
    assert (bounds.grad_tol, bounds.step_tol, bounds.max_outer, bounds.max_inner) == (
        1e-8, 1e-10, 500, 60)

    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    flags = {flag for p in subcommands.choices.values() for a in p._actions
             for flag in a.option_strings}
    assert not {f for f in flags if "tol" in f or "max" in f}


def test_fit_returns_its_state_only():
    # fit returns the state the one-fit LOO needs, not the curvature built
    # from it: approx_looe forms H from state.variance, so a field that
    # carries H (or the second moments beside the variances) has to change
    # this test
    fields = [f.name for f in dataclasses.fields(ecreg.FitResult)]
    assert fields == ["state", "inclusion_probs", "settings"]
    state_fields = {f.name for f in dataclasses.fields(ecreg.ECState)}
    assert "variance" in state_fields
    assert "Mi" not in state_fields
