"""Open wrong-result defects, one strict expected failure each.

Each test runs the input of a ``FOUND`` line in CHANGES.md and asserts the
correct behaviour, so it fails today.  The marks are strict, so a change
that mends a defect fails here with XPASS: that change turns the test into a
plain regression test and marks the line ``MENDED``.
"""

from unittest import mock

import numpy as np
import pytest

from ecreg import (
    BERNOULLI_GAUSS,
    FitSettings,
    SynthConfig,
    approx_looe,
    bernoulli_gauss,
    bernoulli_uniform,
    calibrate_rho,
    fit,
    gen_synthetic,
    literal_loocv,
    load_csv,
)
from ecreg.core import Dataset, solve_lambda
from ecreg.errors import EcregError, NonConvergence, NonNumericCell


def _train(**config):
    train, _, _ = gen_synthetic(SynthConfig(**config))
    return train


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: the one-fit LOO estimate is 16.2% above "
                          "literal refits on criterion 8's generator at seed 2")
def test_criterion_8_seed_2_approx_loo_within_5_percent_of_literal():
    ds = _train(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.25, seed=2)
    prior, beta = bernoulli_gauss(0.2, 4.0), 8.0
    approx = approx_looe(fit(ds, prior, beta), ds, beta)
    literal = literal_loocv(ds, prior, beta)
    assert abs(approx.eps_loo - literal.eps_loo) <= 0.05 * literal.eps_loo


@pytest.mark.xfail(strict=True, raises=NonConvergence,
                   reason="CHANGES.md FOUND: calibrate_rho's warm-started chain stays on "
                          "another fixed point than a cold fit near rho = 1e-8, so K = 4 "
                          "is never bracketed at beta = 8")
def test_n40_calibration_at_beta_8_returns_a_rho():
    ds = _train(N=40, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.1, seed=5)
    result = calibrate_rho(ds, 8.0, 4.0, BERNOULLI_GAUSS, sigma_w2=4.0)
    assert abs(result.achieved_K - 4.0) <= 1e-6 * 4.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: solve_tilt's acceptance is absolute below "
                          "|E| = 1, so a flat slab with zero modes 'converges' at a "
                          "spurious E near 0 (cli_hyper's sweep point beta=4, rho=0.1)")
def test_flat_slab_sweep_point_is_not_reported_converged():
    # cli_hyper's sweep design before the benchmark's permutation: N = 100
    # features and M = 50 samples, so the gram has 50 zero eigenvalues
    ds = _train(N=100, alpha=0.5, rho0=0.05, sigma_w0_sq=1.0, sigma_n0_sq=0.5, seed=0)
    try:
        result = fit(ds, bernoulli_uniform(0.1), 4.0)
    except EcregError:
        return  # a fit that raises (InfeasibleTilt) does not report converged either
    assert not result.state.converged


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="CHANGES.md FOUND: a cold VAMP-first fit converges to a "
                          "stationary point of higher free energy than Newton alone "
                          "reaches")
@pytest.mark.parametrize("n,alpha,rho,beta,seed", [(6, 2.5, 0.3, 50.0, 6),
                                                   (24, 0.5, 0.1, 10.0, 26336186)])
def test_vamp_first_fit_reaches_the_lower_stationary_point(n, alpha, rho, beta, seed):
    # two draws of tests/test_vamp_property.py's strategy, built as it builds them
    rng = np.random.default_rng(seed)
    m = max(1, round(alpha * n))
    X = rng.normal(0.0, 1.0 / np.sqrt(n), (n, m))
    w = np.where(rng.random(n) < 0.3, rng.normal(0.0, 2.0, n), 0.0)
    ds = Dataset(X, X.T @ w + rng.normal(0.0, 0.3, m))
    prior = bernoulli_gauss(rho, 4.0)
    first = fit(ds, prior, beta).state
    with mock.patch("ecreg.core._vamp_start", return_value=None):
        newton = fit(ds, prior, beta).state
    assert first.converged and newton.converged
    scale = max(1.0, float(np.max(np.abs(first.m))), float(np.max(np.abs(newton.m))))
    assert (float(np.max(np.abs(first.m - newton.m))) <= 1e-6 * scale
            or first.free_energy <= newton.free_energy)


def test_solve_lambda_keeps_lambda_plus_ltil_positive_near_the_pole():
    # MENDED in CHANGES.md: solve_lambda once returned Ltil = delta -
    # lambda_min, which rounds to exactly -lambda_min for a root within half
    # an ulp of the pole.  At beta*chi = 1e60 the root lies about 1e-61 from
    # the pole at -0.1
    lam = np.geomspace(0.1, 10.0, 10)
    assert lam.min() + solve_lambda(lam, 1.0, 1e60) > 0.0


def test_quoted_data_cell_starting_with_hash_raises_non_numeric_cell(tmp_path):
    # MENDED in CHANGES.md: data_io._numbered_rows's csv.reader path once read
    # a data row whose first cell unquotes to '#1' as a comment and dropped
    # it.  The quote in line 3 sends the file to csv.reader; a '#' line before
    # the header stays a comment (test_data_io.py), but "#1" here is a data cell
    path = tmp_path / "h.csv"
    path.write_text('a,y\n"#1",2\n3,"4"\n', encoding="utf-8")
    try:
        load_csv(str(path), "y")
        located = None
    except NonNumericCell as exc:
        located = (exc.row, exc.column)
    assert located == (2, 1)


def test_n30_flat_slab_at_rho_1e8_does_not_stall():
    # MENDED in CHANGES.md: invert_mean's absolute tolerance once stalled
    # this fit after 19 iterations at ||g|| = 2.6e-7 * scale, unconverged
    ds = _train(N=30, alpha=2.0, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.25, seed=3)
    beta = 2.0
    result = fit(ds, bernoulli_uniform(1e-8), beta)
    scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
    assert result.state.converged
    assert result.state.grad_norm <= FitSettings.grad_tol * scale
