"""Tests for leave-one-out estimation.

The main oracle is classical ridge regression: with the pure Gaussian prior
the fit is a ridge solve, and held-out residuals can be computed exactly by
deleting a sample and re-solving the normal equations directly.  The
semi-analytic formula, the rank-one downdate, and the literal harnesses must
all agree with those refits.
"""

from functools import partial

import numpy as np
import pytest

from ecreg.core import Dataset, ECState, FitResult, FitSettings, fit, solve_tilt
from ecreg.errors import (
    ConfigError,
    NonConvergence,
    NotConverged,
    RankOneSingularity,
)
from ecreg.loocv import (
    DENOMINATOR_FLOOR,
    approx_looe,
    kfold_cv,
    literal_loocv,
    loo_estimator,
)
from ecreg.priors import bernoulli_gauss, bernoulli_uniform


def _instance(seed, n, m, rho=0.3, sigma_w2=4.0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    w = np.where(rng.random(n) < rho, rng.normal(0.0, np.sqrt(sigma_w2), n), 0.0)
    y = X.T @ w + rng.normal(0.0, noise, m)
    return Dataset(X, y)


def _deleted_ridge_residuals(dataset, beta, sigma_w2):
    """Held-out residuals from per-sample deleted ridge solves."""
    n, M = dataset.n_features, dataset.n_samples
    out = np.empty(M)
    for mu in range(M):
        keep = np.arange(M) != mu
        Xk, yk = dataset.X[:, keep], dataset.y[keep]
        A = beta * (Xk @ Xk.T) + np.eye(n) / sigma_w2
        mk = np.linalg.solve(A, beta * (Xk @ yk))
        out[mu] = dataset.y[mu] - dataset.X[:, mu] @ mk
    return out


class TestApproxLooe:
    def test_matches_deleted_ridge_solves(self):
        for seed in range(4):
            ds = _instance(seed, 12, 30)
            beta, s2 = 6.0, 3.0
            result = fit(ds, bernoulli_gauss(1.0, s2), beta)
            assert result.state.converged
            report = approx_looe(result, ds, beta)
            oracle = _deleted_ridge_residuals(ds, beta, s2)
            np.testing.assert_allclose(report.residual_loo, oracle, rtol=1e-6, atol=1e-6)
            np.testing.assert_allclose(
                report.eps_loo, np.sum(oracle**2) / (2.0 * ds.n_samples),
                rtol=1e-5)

    def test_zero_column_has_zero_leverage(self):
        rng = np.random.default_rng(3)
        X = rng.normal(0.0, 0.5, size=(6, 10))
        X[:, 4] = 0.0
        y = rng.normal(size=10)
        ds = Dataset(X, y)
        result = fit(ds, bernoulli_gauss(1.0, 2.0), 5.0)
        report = approx_looe(result, ds, 5.0)
        assert report.leverage[4] == 0.0
        assert report.residual_loo[4] == report.residual_full[4] == y[4]

    def test_requires_converged_fit(self):
        ds = _instance(7, 25, 20, rho=0.2)
        result = fit(ds, bernoulli_gauss(0.2, 4.0), 20.0,
                     settings=FitSettings(max_outer=1))
        assert not result.state.converged
        with pytest.raises(NotConverged):
            approx_looe(result, ds, 20.0)

    def test_near_unit_leverage_is_flagged(self):
        # an isolated long direction makes 1 - leverage ~ 1e-9 for sample 0
        X = np.zeros((3, 3))
        X[0, 0] = 1.0
        X[1, 1] = 0.01
        X[2, 2] = 0.01
        ds = Dataset(X, np.array([1.0, 2.0, 3.0]))
        beta = 10.0
        result = fit(ds, bernoulli_gauss(1.0, 1e8), beta)
        report = approx_looe(result, ds, beta)
        assert report.flagged == [0]
        denom = 1.0 - report.leverage[0]
        assert abs(denom) < DENOMINATOR_FLOOR
        assert np.isfinite(report.residual_loo[0])
        assert np.isfinite(report.eps_loo)

    def test_leverage_above_one_is_flagged_not_clipped(self):
        # hand-built fit: X = I and beta = 8, so the leverages are 8 times
        # the diagonal of the Hessian inverse, 2 and 0.5; powers of two keep
        # the Cholesky solve exact
        ds = Dataset(np.eye(2), np.array([1.0, 3.0]))
        m = np.array([0.5, 1.0])
        z = np.zeros(2)
        state = ECState(m=m, h=z, E=1.0, Mi=z, Q=1.0, q=0.0, chi=1.0,
                        lambda_tilde=1.0, free_energy=0.0, grad_norm=0.0,
                        iterations=1, converged=True)
        result = FitResult(state=state, hessian=np.diag([4.0, 16.0]),
                           inclusion_probs=np.ones(2), settings={})
        report = approx_looe(result, ds, 8.0)
        assert report.flagged == [0]
        assert report.leverage.tolist() == [2.0, 0.5]
        # the residual keeps the formula's value: 0.5 / (1 - 2) and 2 / 0.5
        assert report.residual_loo.tolist() == [-0.5, 4.0]
        assert report.eps_loo == (0.25 + 16.0) / 4.0

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.3, 4.0), bernoulli_uniform(0.3)],
                             ids=["bg", "bu"])
    def test_leverages_match_dense_inverse(self, prior):
        ds = _instance(15, 18, 26)
        beta = 6.0
        result = fit(ds, prior, beta)
        assert result.state.converged
        h_inv = np.linalg.inv(result.hessian)
        expected = beta * np.diag(ds.X.T @ h_inv @ ds.X)
        got = approx_looe(result, ds, beta).leverage
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_report_shape(self):
        ds = _instance(9, 10, 16)
        result = fit(ds, bernoulli_gauss(0.3, 4.0), 8.0)
        report = approx_looe(result, ds, 8.0)
        assert report.method == "approx"
        assert report.residual_full.shape == report.residual_loo.shape == (16,)
        assert report.leverage.shape == (16,)
        assert report.flagged == []
        assert report.wall_time >= 0.0
        np.testing.assert_allclose(report.eps_loo,
                                   np.sum(report.residual_loo**2) / 32.0, rtol=1e-13)


class TestLooEstimator:
    def test_two_path_identity(self):
        # y_mu - x_mu @ m_loo equals residual_full/(1 - leverage) in exact
        # arithmetic; each path makes its own Cholesky solve of the curvature
        ds = _instance(11, 20, 28, rho=0.4)
        beta = 9.0
        result = fit(ds, bernoulli_gauss(0.4, 5.0), beta)
        report = approx_looe(result, ds, beta)
        for mu in range(ds.n_samples):
            m_loo = loo_estimator(result, ds, beta, mu)
            direct = ds.y[mu] - ds.X[:, mu] @ m_loo
            np.testing.assert_allclose(
                direct, report.residual_loo[mu],
                rtol=1e-10, atol=1e-10)

    def test_matches_direct_downdated_solve(self):
        ds = _instance(13, 30, 40, rho=0.3)
        beta = 7.0
        result = fit(ds, bernoulli_gauss(0.3, 4.0), beta)
        H = result.hessian
        for mu in (0, 17, 39):
            x = ds.X[:, mu]
            r = float(ds.y[mu] - x @ result.state.m)
            delta_h = beta * r * x
            direct = result.state.m - np.linalg.solve(
                H - beta * np.outer(x, x), delta_h)
            np.testing.assert_allclose(loo_estimator(result, ds, beta, mu),
                                       direct, atol=1e-8, rtol=1e-8)

    def test_singular_downdate_rejected(self):
        X = np.zeros((3, 3))
        X[0, 0] = 1.0
        X[1, 1] = 0.01
        X[2, 2] = 0.01
        ds = Dataset(X, np.array([1.0, 2.0, 3.0]))
        result = fit(ds, bernoulli_gauss(1.0, 1e8), 10.0)
        with pytest.raises(RankOneSingularity):
            loo_estimator(result, ds, 10.0, 0)

    def test_requires_converged_fit(self):
        ds = _instance(7, 25, 20, rho=0.2)
        result = fit(ds, bernoulli_gauss(0.2, 4.0), 20.0,
                     settings=FitSettings(max_outer=1))
        with pytest.raises(NotConverged):
            loo_estimator(result, ds, 20.0, 0)


class TestLiteralLoocv:
    def test_single_sample_prior_mean_fold(self):
        # deleting the only sample leaves no data; the fold estimator is the
        # prior mean (zero), so the held-out residual is the response itself
        rng = np.random.default_rng(21)
        X = rng.normal(0.0, 0.7, size=(4, 1))
        y = np.array([1.25])
        ds = Dataset(X, y)
        report = literal_loocv(ds, bernoulli_gauss(0.5, 2.0), 3.0)
        assert report.residual_loo[0] == y[0]
        np.testing.assert_allclose(report.eps_loo, y[0] ** 2 / 2.0)

    def test_agrees_with_deleted_ridge_solves(self):
        ds = _instance(23, 10, 24)
        beta, s2 = 5.0, 3.0
        report = literal_loocv(ds, bernoulli_gauss(1.0, s2), beta)
        oracle = _deleted_ridge_residuals(ds, beta, s2)
        np.testing.assert_allclose(report.residual_loo, oracle, rtol=1e-6, atol=1e-6)
        assert report.flagged == []
        assert report.method == "literal"

    def test_tracks_semi_analytic_estimate(self):
        ds = _instance(25, 30, 45, rho=0.2)
        beta = 15.0
        prior = bernoulli_gauss(0.2, 6.0)
        result = fit(ds, prior, beta)
        approx = approx_looe(result, ds, beta)
        literal = literal_loocv(ds, prior, beta)
        gap = abs(approx.eps_loo - literal.eps_loo) / literal.eps_loo
        assert gap < 0.1
        assert np.corrcoef(approx.residual_loo, literal.residual_loo)[0, 1] > 0.99

    def test_folds_start_from_the_full_fits_tilt(self, monkeypatch):
        first_E0 = []
        fit_started = [False]

        def starting_fit(*args, **kwargs):
            fit_started[0] = True
            return fit(*args, **kwargs)

        def recording_solve_tilt(*args, **kwargs):
            if fit_started[0]:
                first_E0.append(kwargs.get("E0"))
                fit_started[0] = False
            return solve_tilt(*args, **kwargs)

        monkeypatch.setattr("ecreg.loocv.fit", starting_fit)
        monkeypatch.setattr("ecreg.core.solve_tilt", recording_solve_tilt)
        ds = _instance(29, 9, 14)
        prior = bernoulli_gauss(0.4, 3.0)
        literal_loocv(ds, prior, 5.0)
        full_E = fit(ds, prior, 5.0).state.E
        # the full fit starts cold, then one warm first solve per fold
        assert first_E0 == [None] + [full_E] * 14

    # both harnesses share one fold engine; check its failure rule through each
    @pytest.mark.parametrize("cross_validate", [
        pytest.param(literal_loocv, id="literal"),
        pytest.param(partial(kfold_cv, k=5), id="kfold"),
    ])
    def test_raises_when_folds_fail(self, cross_validate):
        ds = _instance(27, 25, 20, rho=0.2)
        with pytest.raises(NonConvergence):
            cross_validate(ds, bernoulli_gauss(0.2, 4.0), 20.0,
                           settings=FitSettings(max_outer=1))


class TestKfoldCv:
    def test_k_equal_m_reproduces_literal(self):
        ds = _instance(31, 9, 14)
        prior = bernoulli_gauss(0.4, 3.0)
        literal = literal_loocv(ds, prior, 5.0)
        folds = kfold_cv(ds, prior, 5.0, k=14, seed=3)
        assert folds.eps_loo == literal.eps_loo
        np.testing.assert_array_equal(folds.residual_loo, literal.residual_loo)
        assert folds.flagged == literal.flagged

    def test_two_folds_match_direct_refits(self):
        ds = _instance(33, 7, 12)
        prior = bernoulli_gauss(0.5, 2.0)
        beta = 4.0
        seed = 11
        report = kfold_cv(ds, prior, beta, k=2, seed=seed)

        # rebuild the same contiguous split of the seeded permutation; each
        # refit starts from the full fit's estimator and tilt, as the folds do
        perm = np.random.default_rng(seed).permutation(12)
        full = fit(ds, prior, beta).state
        expected = np.empty(12)
        for test_idx in (perm[:6], perm[6:]):
            keep = np.ones(12, dtype=bool)
            keep[test_idx] = False
            sub = Dataset(ds.X[:, keep], ds.y[keep])
            res = fit(sub, prior, beta, init=full.m, _tilt=(full.E, full.h))
            for mu in test_idx:
                expected[mu] = ds.y[mu] - ds.X[:, mu] @ res.state.m

        np.testing.assert_array_equal(report.residual_loo, expected)
        np.testing.assert_allclose(report.eps_loo, np.sum(expected**2) / 24.0,
                                   rtol=1e-13)

    def test_fold_count_bounds(self):
        ds = _instance(35, 6, 5)
        prior = bernoulli_gauss(0.5, 2.0)
        with pytest.raises(ConfigError):
            kfold_cv(ds, prior, 3.0, k=1)
        with pytest.raises(ConfigError):
            kfold_cv(ds, prior, 3.0, k=6)
        with pytest.raises(ConfigError):
            kfold_cv(ds, prior, 3.0, k=2.5)
        assert kfold_cv(ds, prior, 3.0, k=np.int64(5)).method == "kfold(5)"

    def test_seed_determinism(self):
        ds = _instance(37, 8, 15)
        prior = bernoulli_gauss(0.4, 3.0)
        a = kfold_cv(ds, prior, 5.0, k=3, seed=2)
        b = kfold_cv(ds, prior, 5.0, k=3, seed=2)
        assert a.eps_loo == b.eps_loo
        assert a.method == "kfold(3)"
