"""Open wrong-result defects, one strict expected failure each.

Each test runs the input of a ``FOUND`` line in CHANGES.md and asserts the
correct behaviour, so it fails today.  The marks are strict, so a change
that mends a defect fails here with XPASS: that change turns the test into a
plain regression test and marks the line ``MENDED``.
"""

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
)
from ecreg.errors import EcregError, NonConvergence


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


def test_n30_flat_slab_at_rho_1e8_does_not_stall():
    # MENDED in CHANGES.md: invert_mean's absolute tolerance once stalled
    # this fit after 19 iterations at ||g|| = 2.6e-7 * scale, unconverged
    ds = _train(N=30, alpha=2.0, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.25, seed=3)
    beta = 2.0
    result = fit(ds, bernoulli_uniform(1e-8), beta)
    scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
    assert result.state.converged
    assert result.state.grad_norm <= FitSettings.grad_tol * scale
