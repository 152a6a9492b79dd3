"""Tests for leave-one-out estimation.

The main oracle is classical ridge regression: with the pure Gaussian prior
the fit is a ridge solve, and held-out residuals can be computed exactly by
deleting a sample and re-solving the normal equations directly.  The
semi-analytic formula and the literal harnesses must both agree with those
refits, and the formula with a direct rank-one downdate of the curvature.
"""

from functools import partial

import numpy as np
import pytest

from ecreg.core import (
    Dataset,
    ECState,
    FitResult,
    FitSettings,
    _vamp,
    _vamp_start,
    fit,
    gradient,
    hessian,
    solve_tilt,
)
from ecreg.data_io import SynthConfig, gen_synthetic
from ecreg.errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NotConverged,
    SingularHessian,
)
from ecreg.loocv import DENOMINATOR_FLOOR, approx_looe, kfold_cv, literal_loocv
from ecreg.priors import bernoulli_gauss, bernoulli_uniform, invert_mean, moments


def _instance(seed, n, m, rho=0.3, sigma_w2=4.0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    w = np.where(rng.random(n) < rho, rng.normal(0.0, np.sqrt(sigma_w2), n), 0.0)
    y = X.T @ w + rng.normal(0.0, noise, m)
    return Dataset(X, y)


def _hand_built_fit(m, E, variance):
    """A converged FitResult with the given estimator and tilt, whose
    curvature is beta*XX^T + diag(1/variance - E)."""
    z = np.zeros(len(m))
    state = ECState(m=np.asarray(m, dtype=float), h=z, E=E, variance=np.asarray(variance),
                    Q=1.0, q=0.0, chi=1.0, lambda_tilde=1.0, free_energy=0.0,
                    grad_norm=0.0, iterations=1, converged=True)
    return FitResult(state=state, inclusion_probs=np.ones(len(m)), settings={})


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

    def test_requires_converged_fit(self, monkeypatch):
        ds = _instance(7, 25, 20, rho=0.2)
        # from zero, where one Newton step does not reach the fixed point
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        monkeypatch.setattr(FitSettings, "max_outer", 1)
        result = fit(ds, bernoulli_gauss(0.2, 4.0), 20.0)
        assert not result.state.converged
        with pytest.raises(NotConverged):
            approx_looe(result, ds, 20.0)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, np.inf, np.nan])
    def test_beta_outside_the_domain_is_domain_error(self, beta):
        # fit's rule: these once returned an eps_loo, warned or raised
        # SingularHessian
        ds = _instance(2, 6, 9)
        result = fit(ds, bernoulli_gauss(0.3, 4.0), 5.0)
        with pytest.raises(DomainError, match="finite and positive"):
            approx_looe(result, ds, beta)

    def test_fit_of_another_width_is_dimension_mismatch(self):
        result = fit(_instance(2, 6, 9), bernoulli_gauss(0.3, 4.0), 5.0)
        with pytest.raises(DimensionMismatch, match=r"expected \(7,\)"):
            approx_looe(result, _instance(2, 7, 9), 5.0)

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
        # hand-built fit: X = I and beta = 8, and E = 8 with variances 1/4
        # and 1/16 give the curvature diag(4, 16), so the leverages are 2 and
        # 0.5; powers of two keep the Cholesky solve exact
        ds = Dataset(np.eye(2), np.array([1.0, 3.0]))
        result = _hand_built_fit([0.5, 1.0], 8.0, [0.25, 0.0625])
        report = approx_looe(result, ds, 8.0)
        assert report.flagged == [0]
        assert report.leverage.tolist() == [2.0, 0.5]
        # the residual keeps the formula's value: 0.5 / (1 - 2) and 2 / 0.5
        assert report.residual_loo.tolist() == [-0.5, 4.0]
        assert report.eps_loo == (0.25 + 16.0) / 4.0

    def test_indefinite_curvature_falls_back_to_lu(self):
        # X = I, beta = 1, E = 3 and variances 1/4 and 1: the curvature is
        # diag(2, -1), whose Cholesky factorization fails at the second pivot
        # after overwriting the first; LU on the curvature gives the leverages
        # 1/2 and -1
        ds = Dataset(np.eye(2), np.array([1.0, 3.0]))
        report = approx_looe(_hand_built_fit([0.5, 1.0], 3.0, [0.25, 1.0]), ds, 1.0)
        assert report.leverage.tolist() == [0.5, -1.0]
        assert report.flagged == []
        assert report.residual_loo.tolist() == [1.0, 1.0]

    def test_zero_curvature_raises_singular_hessian(self):
        # E = 3 with variances 1/2 makes the curvature I + diag(2 - 3) = 0,
        # which neither Cholesky nor LU can solve
        ds = Dataset(np.eye(2), np.array([1.0, 3.0]))
        with pytest.raises(SingularHessian):
            approx_looe(_hand_built_fit([0.5, 1.0], 3.0, [0.5, 0.5]), ds, 1.0)

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.3, 4.0), bernoulli_uniform(0.3)],
                             ids=["bg", "bu"])
    def test_leverages_match_dense_inverse(self, prior):
        ds = _instance(15, 18, 26)
        beta = 6.0
        result = fit(ds, prior, beta)
        assert result.state.converged
        h_inv = np.linalg.inv(hessian(result.state.variance, result.state.E, ds, beta))
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
        # approx_looe's residual_loo[mu] equals y_mu - x_mu @ m_direct in exact
        # arithmetic, where m_direct is the estimator without sample mu from a
        # dense solve with the downdated curvature H - beta x_mu x_mu^T
        ds = _instance(11, 20, 28, rho=0.4)
        beta = 9.0
        result = fit(ds, bernoulli_gauss(0.4, 5.0), beta)
        report = approx_looe(result, ds, beta)
        m, H = result.state.m, hessian(result.state.variance, result.state.E, ds, beta)
        for mu in range(ds.n_samples):
            x = ds.X[:, mu]
            residual = float(ds.y[mu] - x @ m)
            m_direct = m - np.linalg.solve(H - beta * np.outer(x, x), beta * residual * x)
            np.testing.assert_allclose(report.residual_loo[mu], ds.y[mu] - x @ m_direct,
                                       rtol=1e-10, atol=1e-10)

    def test_matches_direct_downdated_solve(self):
        # the held-out residual and leverage of approx_looe against a dense
        # solve with the downdated curvature, on a wider instance
        ds = _instance(13, 30, 40, rho=0.3)
        beta = 7.0
        result = fit(ds, bernoulli_gauss(0.3, 4.0), beta)
        report = approx_looe(result, ds, beta)
        H = hessian(result.state.variance, result.state.E, ds, beta)
        for mu in (0, 17, 39):
            x = ds.X[:, mu]
            r = float(ds.y[mu] - x @ result.state.m)
            direct = result.state.m - np.linalg.solve(
                H - beta * np.outer(x, x), beta * r * x)
            np.testing.assert_allclose(report.residual_loo[mu], ds.y[mu] - x @ direct,
                                       atol=1e-8, rtol=1e-8)
            np.testing.assert_allclose(report.leverage[mu],
                                       beta * x @ np.linalg.solve(H, x),
                                       atol=1e-8, rtol=1e-8)


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

    def test_float32_beta_gives_the_python_float_report(self):
        # the batched VAMP pass takes beta as given; a float32 one once
        # stalled the full fit's tilt solve
        ds = gen_synthetic(SynthConfig(N=20, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                       sigma_n0_sq=0.25, seed=1))[0]
        prior = bernoulli_gauss(0.2, 4.0)
        single, double = literal_loocv(ds, prior, np.float32(4.0)), literal_loocv(ds, prior, 4.0)
        assert single.eps_loo == double.eps_loo
        np.testing.assert_array_equal(single.residual_loo, double.residual_loo)
        assert single.flagged == double.flagged

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

    @staticmethod
    def _fold_starts(monkeypatch, batch_gives_up):
        """(full fit's state, [(batched point, the fold fit's warm state and
        _vamp_point)] per fold) of literal_loocv on a small instance; with
        batch_gives_up every batched problem reports a give-up."""
        fits, points = [], []

        def recording_fit(dataset, prior, beta, *, warm=None, _vamp_point=None):
            res = fit(dataset, prior, beta, warm=warm, _vamp_point=_vamp_point)
            fits.append((warm, _vamp_point, res))
            return res

        def recording_vamp(dataset, prior, beta, warm, held):
            points.extend(None if batch_gives_up else p
                          for p in _vamp(dataset, prior, beta, warm, held))
            return list(points)

        monkeypatch.setattr("ecreg.loocv.fit", recording_fit)
        monkeypatch.setattr("ecreg.loocv._vamp", recording_vamp)
        literal_loocv(_instance(29, 9, 14), bernoulli_gauss(0.4, 3.0), 5.0)
        assert len(fits) == 15 and fits[0][:2] == (None, None) and len(points) == 14
        return fits[0][2].state, [(p, (w, v)) for p, (w, v, _) in zip(points, fits[1:])]

    def test_folds_start_from_the_full_fits_tilt(self, monkeypatch):
        # one batched VAMP pass runs every fold from the full fit's tilt, and
        # each fold's fit starts at its batched point, handed over as it is
        full, folds = self._fold_starts(monkeypatch, batch_gives_up=False)
        for point, (warm, vamp_point) in folds:
            assert point is not None and vamp_point is point and warm is full

    def test_folds_fall_back_to_the_full_fits_tilt(self, monkeypatch):
        # a fold whose batched problem gave up starts at the full fit's
        # point, with no VAMP pass of its own
        full, folds = self._fold_starts(monkeypatch, batch_gives_up=True)
        for point, (_, vamp_point) in folds:
            assert point is None
            m, E, h = vamp_point
            assert m is full.m and E == full.E and h is full.h

    def test_fold_vamp_confirms_its_batched_point(self, monkeypatch):
        # on criterion 8's instance every fold starts at its batched point,
        # runs no VAMP pass of its own, and the Newton loop's gradient test
        # accepts the point before any step
        ds, _, _ = gen_synthetic(SynthConfig(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.25, seed=4))
        starts, folds = [0], []

        def counted_start(*args, **kwargs):
            starts[0] += 1
            return _vamp_start(*args, **kwargs)

        def recording_fit(dataset, prior, beta, *, warm=None, _vamp_point=None):
            res = fit(dataset, prior, beta, warm=warm, _vamp_point=_vamp_point)
            folds.append((_vamp_point is not None, res.state))
            return res

        monkeypatch.setattr("ecreg.core._vamp_start", counted_start)
        monkeypatch.setattr("ecreg.loocv.fit", recording_fit)
        report = literal_loocv(ds, bernoulli_gauss(0.2, 4.0), 8.0)
        folds = folds[1:]
        assert len(folds) == 200 and report.flagged == []
        assert starts == [1]  # the full fit's
        assert all(started for started, _ in folds)
        assert all(state.converged and state.iterations == 0 for _, state in folds)

    def test_newton_certifies_a_perturbed_start(self):
        # a fold started at a point that is not stationary on its data: the
        # Newton loop steps until the gradient test holds, and reaches the
        # cold fit's estimator
        ds = _instance(29, 9, 14)
        prior, beta, mu = bernoulli_gauss(0.4, 3.0), 5.0, 6
        full = fit(ds, prior, beta).state
        m, E, h = _vamp(ds, prior, beta, full, [mu])[0]
        keep = np.arange(ds.n_samples) != mu
        sub = Dataset(ds.X[:, keep], ds.y[keep])
        m_off = m + 1e-2 * np.random.default_rng(3).normal(size=m.size) * np.max(np.abs(m))
        scale = max(1.0, float(np.max(np.abs(beta * sub.xy))))
        assert np.max(np.abs(gradient(m_off, h, E, sub, beta))) > FitSettings.grad_tol * scale
        state = fit(sub, prior, beta, _vamp_point=(m_off, E, h)).state
        assert state.converged and state.iterations > 0
        assert state.grad_norm <= FitSettings.grad_tol * scale
        cold = fit(Dataset(sub.X, sub.y), prior, beta).state
        assert np.max(np.abs(state.m - cold.m)) <= 1e-6

    def test_a_fold_whose_batch_gave_up_decomposes_its_gram(self, monkeypatch):
        # the batched problem holding out sample 4 gives up: that fold, like
        # the others, runs no VAMP pass and takes only its gram's eigenvalues
        ds = _instance(29, 9, 14)
        prior, beta = bernoulli_gauss(0.4, 3.0), 5.0

        def gives_up_at_4(dataset, prior, beta, warm, held):
            points = _vamp(dataset, prior, beta, warm, held)
            points[4] = None
            return points

        calls = {"eigh": 0, "eigvalsh": 0, "_vamp_start": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        monkeypatch.setattr("ecreg.core._vamp_start", counted("_vamp_start", _vamp_start))
        monkeypatch.setattr("ecreg.loocv._vamp", gives_up_at_4)
        report = literal_loocv(ds, prior, beta)
        assert report.flagged == []
        assert calls == {"eigh": 1, "eigvalsh": ds.n_samples, "_vamp_start": 1}

    def test_folds_whose_batch_gave_up_match_their_own_vamp_refits(self):
        # criterion 2's generator at N=30 and beta=50, where 14 of 15
        # batched problems give up: each such fold, started at the full
        # fit's point, gives the residual of a refit warm-started from the
        # full fit through its own VAMP pass
        ds, _, _ = gen_synthetic(SynthConfig(N=30, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0,
                                             sigma_n0_sq=0.1, seed=100))
        prior, beta, M = bernoulli_gauss(0.1, 10.0), 50.0, ds.n_samples
        full = fit(ds, prior, beta).state
        points = _vamp(ds, prior, beta, full, list(range(M)))
        gave_up = [mu for mu, point in enumerate(points) if point is None]
        assert len(gave_up) == 14
        report = literal_loocv(ds, prior, beta)
        assert report.flagged == []
        for mu in gave_up:
            keep = np.arange(M) != mu
            m = fit(Dataset(ds.X[:, keep], ds.y[keep]), prior, beta, warm=full).state.m
            own = ds.y[mu] - ds.X[:, mu] @ m
            assert abs(report.residual_loo[mu] - own) <= 1e-12 * abs(own)

    def test_mean_inversions_on_criterion_8(self, monkeypatch):
        # every fit, each fold's included, starts from a VAMP pass whose point
        # meets grad_tol, so 362 mean inversions (the tilt solves at VAMP's
        # points) serve the full fit and the 200 folds.  Folds that took
        # Newton steps from the full fit's state took 2279, with each trial's
        # tilt solve started from the Newton step's tangent, and 2887 from the
        # accepted tilt with the full fit from zero
        ds, _, _ = gen_synthetic(SynthConfig(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.25, seed=4))
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return invert_mean(*args, **kwargs)

        monkeypatch.setattr("ecreg.core.invert_mean", counted)
        literal_loocv(ds, bernoulli_gauss(0.2, 4.0), 8.0)
        assert abs(calls[0] - 362) <= 45

    @pytest.mark.parametrize("seed", [9, 14])
    def test_criterion_8_draws_with_hard_folds(self, seed):
        # criterion 8's generator at the two seeds where a literal fold once
        # failed and was flagged; every fold converges, and the one-fit
        # estimate stays within criterion 1's 5% of the refits (0.85% and
        # 1.49% measured)
        ds, _, _ = gen_synthetic(SynthConfig(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.25, seed=seed))
        prior, beta = bernoulli_gauss(0.2, 4.0), 8.0
        approx = approx_looe(fit(ds, prior, beta), ds, beta)
        literal = literal_loocv(ds, prior, beta)
        assert literal.flagged == [] and approx.flagged == []
        assert abs(approx.eps_loo - literal.eps_loo) <= 0.05 * literal.eps_loo

    # both harnesses share one fold engine; check its failure rule through each
    @pytest.mark.parametrize("cross_validate", [
        pytest.param(literal_loocv, id="literal"),
        pytest.param(partial(kfold_cv, k=5), id="kfold"),
    ])
    def test_raises_when_folds_fail(self, cross_validate, monkeypatch):
        ds = _instance(27, 25, 20, rho=0.2)
        monkeypatch.setattr(FitSettings, "max_outer", 1)
        # from the full fit's state: VAMP's point, a fold's own or its
        # batched one, would meet grad_tol without a Newton step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        monkeypatch.setattr("ecreg.loocv._vamp", lambda *args: [None] * len(args[-1]))
        with pytest.raises(NonConvergence):
            cross_validate(ds, bernoulli_gauss(0.2, 4.0), 20.0)


    def test_a_fold_that_raises_keeps_the_full_fit(self, monkeypatch):
        # one raising fold of 20 is within the 5% allowance: it is flagged and
        # its sample keeps the full fit's prediction, not its batched point's;
        # the others are unchanged
        ds = _instance(33, 9, 20)
        prior, beta = bernoulli_gauss(0.4, 3.0), 5.0
        clean = literal_loocv(ds, prior, beta)
        calls = {"n": 0}
        full_m = fit(ds, prior, beta).state.m

        def fit_failing_fold_7(dataset, prior, beta, *, warm=None, _vamp_point=None):
            calls["n"] += 1
            if calls["n"] == 1 + 7 + 1:  # the full fit, then folds 0..7
                assert _vamp_point is not None  # a batched start
                raise NonConvergence("fold refit failed")
            return fit(dataset, prior, beta, warm=warm, _vamp_point=_vamp_point)

        monkeypatch.setattr("ecreg.loocv.fit", fit_failing_fold_7)
        report = literal_loocv(ds, prior, beta)
        assert report.flagged == [7]
        assert report.residual_loo[7] == ds.y[7] - ds.X[:, 7] @ full_m
        others = np.arange(20) != 7
        assert np.array_equal(report.residual_loo[others], clean.residual_loo[others])


class TestKfoldCv:
    def test_k_equal_m_reproduces_literal(self):
        # the generated instances' batched VAMP pass once ran in the
        # permutation's order, and eps_loo and the residuals then differed
        # from literal_loocv's by up to 1.1e-15
        cases = [(_instance(31, 9, 14), bernoulli_gauss(0.4, 3.0), 5.0, (3,))] + [
            (gen_synthetic(SynthConfig(N=20, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                       sigma_n0_sq=0.25, seed=seed))[0],
             bernoulli_gauss(0.2, 4.0), 4.0, (0, 5)) for seed in range(1, 9)]
        for ds, prior, beta, kfold_seeds in cases:
            literal = literal_loocv(ds, prior, beta)
            for kfold_seed in kfold_seeds:
                folds = kfold_cv(ds, prior, beta, k=ds.n_samples, seed=kfold_seed)
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
            res = fit(sub, prior, beta, warm=full)
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


class TestBatchedVamp:
    """core._vamp's batched points, one per held-out sample, against
    _vamp_start on each fold's own Dataset, both from the full fit's state."""

    @pytest.mark.parametrize("n, m", [(12, 30), (15, 15), (20, 9)], ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.3, 3.0), bernoulli_uniform(0.3)],
                             ids=["bg", "bu"])
    def test_matches_serial_fold_passes(self, n, m, prior):
        ds = _instance(41, n, m)
        beta = 5.0
        # the warm state of any prior will do; a cold flat-slab fit on the
        # wide design raises InfeasibleTilt
        full = fit(ds, bernoulli_gauss(0.3, 3.0), beta).state
        held = np.random.default_rng(3).permutation(m)
        points = _vamp(ds, prior, beta, full, held)
        assert len(points) == m
        for mu, point in zip(held, points):
            keep = np.arange(m) != mu
            serial = _vamp_start(Dataset(ds.X[:, keep], ds.y[keep]), prior, beta, full)
            assert (point is None) == (serial is None)
            if point is not None:
                scale = max(1.0, float(np.abs(serial[0]).max()))
                assert np.abs(point[0] - serial[0]).max() <= 1e-12 * scale
                assert abs(point[1] - serial[1]) <= 1e-12 * max(1.0, abs(serial[1]))
