"""Self-contained diagnostic suite runnable from the command line.

Each check builds what it needs from seeded generators, so the suite works
with no input files and the same seed always produces the same verdicts.
The checks exercise identities the solver must satisfy regardless of data:
secular-equation residuals, prior mean/field inversion round-trips, exact
agreement with ridge regression in the Gaussian limit, stationarity of the
returned fit, agreement between the rank-one update and direct per-sample
refits of the quadratic piece, and bit-for-bit determinism.
"""

import numpy as np

from . import core, loocv, priors
from .data_io import SynthConfig, gen_synthetic


def _instance(seed=7, n=60, alpha=1.5, rho0=0.25):
    config = SynthConfig(N=n, alpha=alpha, rho0=rho0, sigma_w0_sq=4.0,
                         sigma_n0_sq=0.05, seed=seed)
    train, _, _ = gen_synthetic(config)
    return train


def _check_secular(dataset):
    spec = core.spectrum(dataset)
    beta = 3.0
    worst = 0.0
    for chi in (1e-3, 0.05, 0.7, 4.0):
        lam = core.solve_lambda(spec, beta, chi)
        lhs = float(np.mean(1.0 / (spec.eigenvalues + lam)))
        worst = max(worst, abs(lhs - beta * chi) / (beta * chi))
    return worst < 1e-12, f"max relative residual {worst:.3e}"


def _check_prior_roundtrip():
    worst = 0.0
    for prior in (priors.bernoulli_gauss(0.3, 5.0), priors.bernoulli_uniform(0.3)):
        for E in (0.1, 1.0, 10.0):
            for h in np.linspace(-20.0, 20.0, 41):
                m = float(priors.moments(prior, h, E).mean)
                h_back = priors.invert_mean(prior, m, E)
                m_back = float(priors.moments(prior, h_back, E).mean)
                worst = max(worst, abs(m_back - m))
    return worst < 1e-10, f"max mean mismatch {worst:.3e}"


def _check_gaussian_exactness(dataset):
    beta, sigma_w2 = 2.0, 3.0
    prior = priors.bernoulli_gauss(1.0, sigma_w2)
    result = core.fit(dataset, prior, beta)
    n = dataset.n_features
    ridge = np.linalg.solve(beta * dataset.gram + np.eye(n) / sigma_w2,
                            beta * dataset.xy)
    dev = float(np.max(np.abs(result.state.m - ridge)))
    return dev < 1e-8, f"max |m - ridge| {dev:.3e}"


def _check_fixed_point(dataset):
    beta = 4.0
    prior = priors.bernoulli_gauss(0.25, 4.0)
    result = core.fit(dataset, prior, beta)
    state = result.state
    m_back = np.asarray(priors.moments(prior, state.h, state.E).mean)
    dev_m = float(np.max(np.abs(state.m - m_back)))
    grad = core.gradient(state.m, state.h, state.E, dataset, beta)
    scale = max(1.0, float(np.max(np.abs(state.h))))
    dev_h = float(np.max(np.abs(grad))) / scale
    ok = dev_m < 1e-8 and dev_h < 1e-6
    return ok, f"mean-map residual {dev_m:.3e}, field residual {dev_h:.3e}"


def _check_rank_one_update(dataset):
    beta = 4.0
    prior = priors.bernoulli_gauss(0.25, 4.0)
    result = core.fit(dataset, prior, beta)
    h_inv = np.linalg.inv(result.hessian)  # the identity is about the inverse itself
    worst = 0.0
    for mu in range(0, dataset.n_samples, max(1, dataset.n_samples // 8)):
        x = dataset.X[:, mu]
        direct = np.linalg.inv(result.hessian - beta * np.outer(x, x))
        denom = 1.0 - beta * float(x @ h_inv @ x)
        w = h_inv @ x
        updated = h_inv + (beta / denom) * np.outer(w, w)
        worst = max(worst, float(np.max(np.abs(updated - direct))))
    return worst < 1e-8, f"max downdate deviation {worst:.3e}"


def _check_two_path(dataset):
    beta = 4.0
    prior = priors.bernoulli_gauss(0.25, 4.0)
    result = core.fit(dataset, prior, beta)
    report = loocv.approx_looe(result, dataset, beta)
    worst = 0.0
    for mu in range(0, dataset.n_samples, max(1, dataset.n_samples // 8)):
        m_loo = loocv.loo_estimator(result, dataset, beta, mu)
        direct = float(dataset.y[mu] - dataset.X[:, mu] @ m_loo)
        via_leverage = report.samples[mu].residual_loo_approx
        worst = max(worst, abs(direct - via_leverage))
    return worst < 1e-8, f"max two-path residual gap {worst:.3e}"


def _check_determinism(dataset):
    beta = 4.0
    prior = priors.bernoulli_gauss(0.25, 4.0)
    first = core.fit(dataset, prior, beta)
    second = core.fit(dataset, prior, beta)
    same = (np.array_equal(first.state.m, second.state.m)
            and first.state.free_energy == second.state.free_energy
            and first.state.iterations == second.state.iterations)
    return same, "repeat fit bit-identical" if same else "repeat fit differs"


def _check_energy_trace(dataset):
    beta = 4.0
    prior = priors.bernoulli_gauss(0.25, 4.0)
    result = core.fit(dataset, prior, beta)
    # each step lowers the objective, or raises it by at most the rounding
    # error that fit allowed that step
    excess = (np.diff(result.settings["free_energies"])
              - np.asarray(result.settings["allowed_rises"]))
    worst = float(np.max(excess)) if excess.size else 0.0
    return worst <= 0.0, f"largest objective change beyond its allowance {worst:.3e}"


def run_checks(seed=7):
    """Run every diagnostic; returns a list of (name, ok, detail)."""
    dataset = _instance(seed=seed)
    checks = [
        ("secular-equation residual", _check_secular, True),
        ("prior mean inversion round-trip", _check_prior_roundtrip, False),
        ("gaussian limit matches ridge", _check_gaussian_exactness, True),
        ("fit satisfies fixed-point equations", _check_fixed_point, True),
        ("rank-one inverse update", _check_rank_one_update, True),
        ("leverage vs refit residuals", _check_two_path, True),
        ("repeatability", _check_determinism, True),
        ("objective monotone over iterations", _check_energy_trace, True),
    ]
    results = []
    for name, func, needs_data in checks:
        try:
            ok, detail = func(dataset) if needs_data else func()
        except Exception as exc:  # surface the failure, keep running
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
