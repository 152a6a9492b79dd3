"""Tests for the self-consistent Gaussian fitting engine.

Oracles used here are independent closed forms: the ridge/Gaussian posterior
(the approximation is exact for a pure Gaussian prior), dense-inverse trace
identities for the spectral resolvent, finite differences of the variational
objective, and plain scalar bisection for the tilt consistency.
"""

import contextlib
import dataclasses
import types
from unittest import mock

import numpy as np
import pytest

from ecreg import core
from ecreg.core import (
    _EPS,
    _VAMP_BUDGET,
    Dataset,
    FitSettings,
    _chol_solve_modified,
    _coupling,
    _free_energy_at,
    _free_energy_terms,
    _newton_direction,
    _rounding_rise,
    _secular_newton,
    _tilt_slope,
    _vamp_start,
    fit,
    gradient,
    hessian,
    objective,
    solve_lambda,
    solve_tilt,
    spectrum,
)
from ecreg.data_io import SynthConfig, gen_synthetic
from ecreg.errors import (
    DecompositionFailure,
    DimensionMismatch,
    DomainError,
    InfeasibleTilt,
    NonConvergence,
    SingularHessian,
    VarianceCollapse,
)
from ecreg.loocv import approx_looe, literal_loocv
from ecreg.priors import (
    BERNOULLI_UNIFORM,
    _mixture,
    bernoulli_gauss,
    bernoulli_uniform,
    invert_mean,
    moments,
)


def _random_instance(seed, n, m, rho=0.3, sigma_w2=4.0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    w = np.where(rng.random(n) < rho, rng.normal(0.0, np.sqrt(sigma_w2), n), 0.0)
    y = X.T @ w + rng.normal(0.0, noise, m)
    return Dataset(X, y)


def _ridge(dataset, beta, sigma_w2):
    n = dataset.n_features
    A = beta * dataset.gram + np.eye(n) / sigma_w2
    return np.linalg.solve(A, beta * dataset.xy)


def _count_evaluations(monkeypatch):
    """A counter of the tilt solve's invert_mean calls, one per evaluation."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return invert_mean(*args, **kwargs)

    monkeypatch.setattr("ecreg.core.invert_mean", counted)
    return calls


@contextlib.contextmanager
def _newton_steps():
    """The (delta, delta_next) pairs of solve_lambda's Newton steps inside the
    block, delta = L + lambda_min."""
    steps = []

    def recorded(lam, target, L):
        r, L_next = _secular_newton(lam, target, L)
        steps.append((L, L_next))
        return r, L_next

    with mock.patch("ecreg.core._secular_newton", recorded):
        yield steps


@contextlib.contextmanager
def _factorizations():
    """The outcomes of core's cho_factor calls inside the block, True for a
    factor and False for a failed one."""
    outcomes = []
    linalg = core.sla

    def cho_factor(*args, **kwargs):
        try:
            cf = linalg.cho_factor(*args, **kwargs)
        except np.linalg.LinAlgError:
            outcomes.append(False)
            raise
        outcomes.append(True)
        return cf

    proxy = types.SimpleNamespace(cho_factor=cho_factor, cho_solve=linalg.cho_solve)
    with mock.patch("ecreg.core.sla", proxy):
        yield outcomes


class TestDataset:
    def test_shapes_and_alpha(self):
        ds = _random_instance(0, 10, 5)
        assert ds.n_features == 10
        assert ds.n_samples == 5
        assert ds.alpha == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((3, 2)), np.zeros(3))

    def test_non_2d_design_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros(3), np.zeros(3))

    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch):
            Dataset(np.zeros((0, 2)), np.zeros(2))

    def test_gram_is_symmetric(self):
        ds = _random_instance(1, 12, 7)
        np.testing.assert_array_equal(ds.gram, ds.gram.T)

    def test_non_finite_design_rejected_at_construction(self):
        for bad in (np.nan, np.inf, -np.inf):
            X = np.zeros((3, 2))
            X[1, 1] = bad
            X[2, 0] = bad
            with pytest.raises(DomainError, match=r"X\[1, 1\]"):
                Dataset(X, np.zeros(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_response_rejected(self, bad):
        y = np.zeros(4)
        y[2] = bad
        y[3] = bad
        with pytest.raises(DomainError, match=r"y\[2\]"):
            Dataset(np.ones((3, 4)), y)


class TestSpectrum:
    def test_zero_design(self):
        ds = Dataset(np.zeros((3, 2)), np.zeros(2))
        np.testing.assert_array_equal(spectrum(ds), np.zeros(3))

    def test_orthonormal_columns_give_unit_eigenvalues(self):
        # X orthogonal (N = M) makes X X^T the identity
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        ds = Dataset(q, np.zeros(6))
        np.testing.assert_allclose(spectrum(ds), 1.0, rtol=1e-12)

    def test_matches_independent_svd(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(10, 5))
        ds = Dataset(X, np.zeros(5))
        sv = np.linalg.svd(X, compute_uv=False)
        expected = np.zeros(10)
        expected[:5] = sv**2
        got = np.sort(spectrum(ds))[::-1]
        np.testing.assert_allclose(got, expected, atol=1e-10)

    def test_eigenvalues_non_negative(self):
        for seed in range(5):
            ds = _random_instance(seed, 15, 40)
            assert np.all(spectrum(ds) >= 0.0)

    def test_cached_per_dataset(self):
        ds = _random_instance(4, 8, 4)
        assert spectrum(ds) is spectrum(ds)

    @pytest.mark.parametrize("n, m, rank", [(6, 15, 6), (6, 15, 3), (15, 6, 6)],
                             ids=["tall", "tall-rank-deficient", "wide"])
    def test_is_the_clamped_thin_eigenvalues(self, n, m, rank):
        # one decomposition serves both shapes: the spectrum is the thin
        # eigh's eigenvalues, clamped, below N - M zeros on a wide design
        rng = np.random.default_rng(8)
        X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m)) / np.sqrt(n * rank)
        ds = Dataset(X, rng.normal(size=m))
        s = ds._thin_eigh[0]
        clamped = np.where(s < 1e-12 * s[-1], 0.0, s)
        assert np.array_equal(spectrum(ds), np.concatenate([np.zeros(max(n - m, 0)), clamped]))

    @staticmethod
    def _solver_calls(monkeypatch):
        """A dict counting each later np.linalg.eigh and eigvalsh call."""
        calls = {"eigh": 0, "eigvalsh": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        return calls

    def test_tall_literal_loo_decomposes_each_gram_once(self, monkeypatch):
        # every fold keeps M - 1 >= N samples; the full fit decomposes its
        # gram, and each of the M refits starts at its batched VAMP point and
        # reads its spectrum as that decomposition's rank-one downdate: no
        # fold gram is formed or decomposed
        ds = _random_instance(6, 8, 20)
        calls = self._solver_calls(monkeypatch)
        report = literal_loocv(ds, bernoulli_gauss(0.3, 4.0), 4.0)
        assert report.flagged == []
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_wide_literal_loo_decomposes_each_gram_once(self, monkeypatch):
        # the same on a wide design, whose decomposition is of X^T X
        ds = _random_instance(6, 20, 8)
        calls = self._solver_calls(monkeypatch)
        report = literal_loocv(ds, bernoulli_gauss(0.3, 4.0), 4.0)
        assert report.flagged == []
        assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_a_fit_and_its_loo_formula_decompose_once(self, monkeypatch):
        # the benchmark's wide fit and the CLI's fits: VAMP runs first, so the
        # spectrum is the eigendecomposition's and no eigenvalue-only solve runs
        ds = _random_instance(6, 20, 8)
        calls = self._solver_calls(monkeypatch)
        approx_looe(fit(ds, bernoulli_gauss(0.3, 4.0), 4.0), ds, 4.0)
        assert calls == {"eigh": 1, "eigvalsh": 0}

    @pytest.mark.parametrize("n, m", [(6, 15), (15, 6)], ids=["tall", "wide"])
    def test_failed_decomposition_is_decomposition_failure(self, n, m, monkeypatch):
        def failed(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failed)
        monkeypatch.setattr(np.linalg, "eigvalsh", failed)
        with pytest.raises(DecompositionFailure, match="did not converge"):
            spectrum(_random_instance(5, n, m))
        with pytest.raises(DecompositionFailure, match="did not converge"):
            fit(_random_instance(5, n, m), bernoulli_gauss(0.3, 4.0), 4.0)

    def test_literal_fold_whose_spectrum_fails_is_flagged(self, monkeypatch):
        # the batched secular solve cannot find fold 3's pole: a non-finite
        # Newton step in its column stops that column short of the root, so
        # its view's spectrum raises NonConvergence and flags the fold (one
        # of 20 is within the 5% allowance); the other columns, and so the
        # other folds' residuals, are as without the failure
        ds = _random_instance(6, 8, 20)
        prior, beta = bernoulli_gauss(0.3, 4.0), 4.0
        clean = literal_loocv(ds, prior, beta)
        real, batches = core._secular_newton, []

        def failing_column_3(sums, target, delta):
            r, dn = real(sums, target, delta)
            if np.ndim(dn):  # the batched pole solve, one column per fold
                batches.append(dn.size)
                dn = np.where(np.arange(dn.size) == 3, np.nan, dn)
            return r, dn

        monkeypatch.setattr(core, "_secular_newton", failing_column_3)
        report = literal_loocv(ds, prior, beta)
        assert set(batches) == {20}
        assert report.flagged == [3]
        others = np.arange(20) != 3
        assert np.array_equal(report.residual_loo[others], clean.residual_loo[others])

    @pytest.mark.parametrize("n, m", [(8, 20), (20, 8)], ids=["tall", "wide"])
    def test_spectrum_read_before_the_fit(self, n, m):
        # read first, the spectrum comes from eigvalsh and VAMP's basis from
        # eigh; the two agree to rounding, and so do the fits
        prior, beta = bernoulli_gauss(0.3, 4.0), 4.0
        fit_first = fit(_random_instance(6, n, m), prior, beta).state
        ds = _random_instance(6, n, m)
        spectrum(ds)
        read_first = fit(ds, prior, beta).state
        assert read_first.converged
        assert np.max(np.abs(read_first.m - fit_first.m)) <= 1e-9


class TestSolveLambda:
    def test_zero_spectrum_closed_form(self):
        # all eigenvalues 0: mean resolvent is 1/L, so L = 1/(beta*chi)
        ds = Dataset(np.zeros((3, 2)), np.zeros(2))
        lam = solve_lambda(spectrum(ds), 2.0, 1.0)
        np.testing.assert_allclose(lam, 0.5, rtol=1e-12)

    def test_identity_gram_closed_form(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        sp = spectrum(Dataset(q, np.zeros(7)))
        lam = solve_lambda(sp, 1.0, 0.5)  # 1/(1+L) = 0.5
        np.testing.assert_allclose(lam, 1.0, rtol=1e-12)

    def test_trace_identity_against_dense_inverse(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(10, 5))
        ds = Dataset(X, np.zeros(5))
        lam = solve_lambda(spectrum(ds), 1.0, 0.3)
        trace = np.trace(np.linalg.inv(ds.gram + lam * np.eye(10))) / 10.0
        np.testing.assert_allclose(trace, 0.3, rtol=1e-12)

    def test_secular_residual_always_tight(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, m = rng.integers(3, 25), rng.integers(2, 30)
            sp = spectrum(Dataset(rng.normal(size=(n, m)), np.zeros(m)))
            beta = float(rng.uniform(0.05, 50.0))
            chi = float(rng.uniform(1e-4, 5.0))
            target = beta * chi
            if sp.min() > 0.0:
                # resolvent mean at L = 0 bounds the attainable range
                target = min(target, 0.999 * float(np.mean(1.0 / sp)))
                beta = target / chi
            lam = solve_lambda(sp, beta, chi)
            lhs = float(np.mean(1.0 / (sp + lam)))
            assert abs(lhs - beta * chi) <= 1e-12 * beta * chi

    def test_negative_root_on_full_rank_gram(self):
        sp = spectrum(Dataset(np.diag([1.0, 2.0, 4.0]), np.zeros(3)))  # 1, 4, 16
        # beta*chi = 1 exceeds mean(1/lambda) = 0.4375, so the root is in (-1, 0)
        lam = solve_lambda(sp, 2.0, 0.5)
        assert -1.0 < lam < 0.0
        lhs = float(np.mean(1.0 / (sp + lam)))
        assert abs(lhs - 1.0) <= 1e-12

    def test_residual_and_step_budget_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            """A clamped spectrum, a root at least 1e-3*lambda_min from the
            pole, and beta*chi from that root."""
            n = draw(st.integers(1, 40))
            scale = 10.0 ** draw(st.floats(-6.0, 6.0))
            zeros = draw(st.integers(0, n))
            lam = np.sort(np.concatenate([np.zeros(zeros), scale * 10.0 ** np.array(
                draw(st.lists(st.floats(-4.0, 0.0), min_size=n - zeros,
                              max_size=n - zeros)))]))
            lam_min = float(lam[0])
            ref, low = (lam_min, -3.0) if lam_min > 0.0 else (scale, -8.0)
            delta = ref * 10.0 ** draw(st.floats(low, 4.0))
            target = float(np.mean(1.0 / (lam + (delta - lam_min))))
            beta = 10.0 ** draw(st.floats(-3.0, 3.0))
            return lam, beta, target / beta

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            sp, beta, chi = case
            with _newton_steps() as steps:
                lam = solve_lambda(sp, beta, chi)
            lhs = float(np.mean(1.0 / (sp + lam)))
            assert abs(lhs - beta * chi) <= 1e-12 * beta * chi
            assert len(steps) <= 200

        check()

    def test_start_lies_below_the_root_property(self):
        # delta0 = max(f0, 1 - beta*chi*mean(mu))/(beta*chi) bounds the root
        # from below (s(delta) >= f0/delta, and >= 1/(mean(mu) + delta) by
        # Jensen), so Newton climbs from it and never takes the halving
        # branch; at an equal spectrum delta0 is the root itself, and the
        # slack of 4 eps is the rounding of s(delta0) there
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            """0..N-1 exact zeros among N eigenvalues drawn from at most
            three distinct values, and beta*chi in [1e-150, 1e150]."""
            n = draw(st.integers(1, 40))
            zeros = draw(st.integers(0, n - 1))
            levels = draw(st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=3))
            picks = draw(st.lists(st.sampled_from(levels), min_size=n - zeros,
                                  max_size=n - zeros))
            lam = np.sort(np.concatenate([np.zeros(zeros), 10.0 ** np.array(picks)]))
            target = 10.0 ** draw(st.floats(-150.0, 150.0))
            beta = 10.0 ** draw(st.floats(-3.0, 3.0))
            return lam, beta, target / beta

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(cases())
        def check(case):
            sp, beta, chi = case
            with _newton_steps() as steps:
                solve_lambda(sp, beta, chi)
            mu = sp - sp[0]
            delta0 = steps[0][0]
            assert float(np.mean(1.0 / (mu + delta0))) >= beta * chi * (1.0 - 4.0 * _EPS)
            assert all(delta_next > 0.0 for _, delta_next in steps)
            if not mu.any():
                assert len(steps) == 1  # delta0 = 1/(beta*chi), the root

        check()

    def test_root_near_the_pole_keeps_relative_precision(self):
        # lambda = 1e4 and 1/(1e4 + L) = 100: the root sits 0.01 = 1e-6*lambda
        # above the pole, where L's float spacing is 1.8e-10 of that distance,
        # so the solve iterates on delta = L + lambda_min
        sp = spectrum(Dataset([[100.0]], [0.0]))
        with _newton_steps() as steps:
            lam = solve_lambda(sp, 1.0, 100.0)
        delta = steps[-1][0]
        assert abs(1.0 / delta - 100.0) <= 1e-12 * 100.0
        assert lam == delta - 1e4  # the float nearest the root -9999.99

    @pytest.mark.parametrize("target", [1e-200, 1e-60, 1.0, 1e60, 1e200])
    @pytest.mark.parametrize("zeros", [10, 5, 0], ids=["all-zero", "half-zero", "full-rank"])
    def test_cold_start_reaches_the_root_at_any_scale(self, zeros, target):
        # the start lies at or below the root; a root within 1e-60 of the
        # pole is resolved only on delta = L + lambda_min, so the residual is
        # taken there, and where delta - lambda_min rounds onto the pole the
        # float above it is returned
        lam = np.concatenate([np.zeros(zeros), np.geomspace(0.1, 10.0, 10 - zeros)])
        with _newton_steps() as steps:
            root = solve_lambda(lam, 1.0, target)
        delta = steps[-1][0]
        assert root == max(delta - lam[0], np.nextafter(-lam[0], np.inf))
        assert lam[0] + root > 0.0
        lhs = float(np.mean(1.0 / (lam - lam[0] + delta)))
        assert abs(lhs - target) <= 1e-12 * target

    def test_overflowing_cold_start_is_nonconvergence(self):
        # beta*chi underflows to 0, or is a subnormal whose inverse
        # overflows: the root is not a float
        for beta, chi in ((1e-200, 1e-200), (1.0, 5e-324)):
            with pytest.raises(NonConvergence, match="overflows"):
                solve_lambda(np.zeros(10), beta, chi)

    def test_domain_errors(self):
        sp = spectrum(_random_instance(8, 5, 3))
        with pytest.raises(DomainError):
            solve_lambda(sp, -1.0, 0.5)
        with pytest.raises(DomainError):
            solve_lambda(sp, 1.0, 0.0)


class TestSolveTilt:
    def test_zero_mean_gives_zero_field(self):
        ds = _random_instance(10, 20, 10)
        prior = bernoulli_gauss(0.4, 3.0)
        tilt = solve_tilt(np.zeros(20), prior, 2.0, spectrum(ds))
        np.testing.assert_array_equal(tilt.h, np.zeros(20))
        assert tilt.q == 0.0

    def test_zero_mean_tilt_matches_scalar_bisection(self):
        # independent plain bisection on the composed scalar map at h = 0
        ds = _random_instance(10, 20, 10)
        sp = spectrum(ds)
        prior = bernoulli_gauss(0.4, 3.0)
        beta = 2.0

        def residual(E):
            chi = float(moments(prior, 0.0, E).variance)
            return 1.0 / chi - beta * solve_lambda(sp, beta, chi) - E

        lo, hi = 1e-6, 1e6
        assert residual(lo) > 0.0 > residual(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        tilt = solve_tilt(np.zeros(20), prior, beta, sp)
        np.testing.assert_allclose(tilt.E, 0.5 * (lo + hi), rtol=1e-9)

    def test_pure_gaussian_closed_forms(self):
        # rho = 1: h = m*(E + 1/s2) and Q = q + s2/(1 + E*s2)
        ds = _random_instance(11, 15, 30)
        s2 = 2.5
        prior = bernoulli_gauss(1.0, s2)
        rng = np.random.default_rng(12)
        m = rng.normal(0.0, 0.7, 15)
        tilt = solve_tilt(m, prior, 3.0, spectrum(ds))
        np.testing.assert_allclose(tilt.h, m * (tilt.E + 1.0 / s2), rtol=1e-10)
        np.testing.assert_allclose(tilt.Q, tilt.q + s2 / (1.0 + tilt.E * s2),
                                   rtol=1e-10)

    @pytest.mark.parametrize("family", ["gauss", "uniform"])
    def test_post_conditions_random_mean(self, family):
        # the flat slab gets a full-rank gram: with zero modes and moderate
        # rho its consistency has no positive root at a generic target mean
        if family == "gauss":
            ds = _random_instance(13, 20, 10)
            prior = bernoulli_gauss(0.3, 5.0)
        else:
            ds = _random_instance(13, 10, 20)
            prior = bernoulli_uniform(0.3)
        sp = spectrum(ds)
        rng = np.random.default_rng(14)
        m = rng.normal(0.0, 0.5, ds.n_features)
        beta = 4.0
        tilt = solve_tilt(m, prior, beta, sp)
        back = moments(prior, tilt.h, tilt.E)
        np.testing.assert_allclose(back.mean, m,
                                   atol=1e-12 * max(1.0, np.abs(m).max()))
        chi = tilt.Q - tilt.q
        np.testing.assert_allclose(chi, tilt.chi, rtol=1e-12)
        e_back = 1.0 / chi - beta * solve_lambda(sp, beta, chi)
        assert abs(e_back - tilt.E) <= 1e-9 * max(1.0, abs(tilt.E))

    def test_warm_start_agrees_with_cold(self):
        ds = _random_instance(15, 8, 12)
        prior = bernoulli_uniform(0.5)
        rng = np.random.default_rng(16)
        m = rng.normal(0.0, 0.4, 8)
        cold = solve_tilt(m, prior, 2.0, spectrum(ds))
        warm = solve_tilt(m, prior, 2.0, spectrum(ds),
                          E0=cold.E * 1.1, h0=cold.h)
        np.testing.assert_allclose(warm.E, cold.E, rtol=1e-8)
        np.testing.assert_allclose(warm.h, cold.h, rtol=1e-7, atol=1e-10)

    def test_flat_slab_rank_deficient_infeasible(self, monkeypatch):
        # more features than samples leaves null directions with no curvature
        # from data or slab; at a generic target mean no positive E closes
        # the consistency, and the solver reports that within its budget
        ds = _random_instance(13, 20, 10)
        rng = np.random.default_rng(14)
        m = rng.normal(0.0, 0.5, 20)
        calls = _count_evaluations(monkeypatch)
        with pytest.raises(InfeasibleTilt):
            solve_tilt(m, bernoulli_uniform(0.3), 4.0, spectrum(ds))
        assert calls[0] == FitSettings.max_inner

    def test_exhausted_budget_with_a_root_is_nonconvergence(self, monkeypatch):
        # a Gaussian slab always has a root, so running out of evaluations
        # is a stall, never infeasibility
        ds = _random_instance(13, 20, 10)
        prior = bernoulli_gauss(0.3, 5.0)
        m = np.random.default_rng(14).normal(0.0, 0.5, 20)
        root = solve_tilt(m, prior, 4.0, spectrum(ds)).E
        calls = _count_evaluations(monkeypatch)
        monkeypatch.setattr(FitSettings, "max_inner", 2)
        with pytest.raises(NonConvergence):
            solve_tilt(m, prior, 4.0, spectrum(ds), E0=10.0 * root)
        assert calls[0] == 2

    def test_fit_keeps_every_tilt_solve_within_budget(self, monkeypatch):
        # a rank-deficient flat-slab fit whose line search meets infeasible tilts
        calls = _count_evaluations(monkeypatch)
        per_solve = []

        def counted_solve(*args, **kwargs):
            calls[0] = 0
            try:
                return solve_tilt(*args, **kwargs)
            finally:
                per_solve.append(calls[0])

        monkeypatch.setattr("ecreg.core.solve_tilt", counted_solve)
        fit(_random_instance(13, 20, 10), bernoulli_uniform(0.1), 4.0)
        assert len(per_solve) > 1
        assert max(per_solve) == FitSettings.max_inner

    @pytest.mark.parametrize("family", ["bg", "bu"])
    def test_slope_matches_central_difference(self, family):
        # dr/dE = k*b - 1 at fixed m, against r(E) = 1/chi - beta*Ltil - E
        # re-solved through invert_mean and solve_lambda at E +- step
        if family == "bg":
            ds, prior = _random_instance(28, 8, 5), bernoulli_gauss(0.4, 5.0)
        else:  # a full-rank gram
            ds, prior = _random_instance(28, 8, 16), bernoulli_uniform(0.4)
        beta = 3.0
        spec = spectrum(ds)
        m = fit(ds, prior, beta).state.m

        def evaluate(E):
            _, mom = invert_mean(prior, m, E)
            chi = float(np.mean(mom.variance))
            ltil = solve_lambda(spec, beta, chi)
            return mom, chi, ltil, 1.0 / chi - beta * ltil - E

        root = solve_tilt(m, prior, beta, spec).E
        for E in (root, 0.5 * root, 2.0 * root):
            mom, chi, ltil, _ = evaluate(E)
            k, b, _ = _tilt_slope(m, mom, chi, ltil, beta, ds._spec)
            step = 1e-5 * E
            fd = (evaluate(E + step)[-1] - evaluate(E - step)[-1]) / (2.0 * step)
            np.testing.assert_allclose(k * b - 1.0, fd, rtol=1e-8)

    @pytest.mark.parametrize("family", ["bg", "bu"])
    def test_newton_closes_a_stepped_tilt_in_three_evaluations(self, family, monkeypatch):
        # a line-search trial near a converged fit, warm-started from the
        # fit's tilt as fit warm-starts it
        if family == "bg":
            ds, prior = _random_instance(48, 12, 20), bernoulli_gauss(0.3, 4.0)
        else:
            ds, prior = _random_instance(49, 12, 20), bernoulli_uniform(0.3)
        state = fit(ds, prior, 3.0).state
        rng = np.random.default_rng(50)
        m = state.m + 1e-3 * np.max(np.abs(state.m)) * rng.normal(size=state.m.size)
        calls = _count_evaluations(monkeypatch)
        tilt = solve_tilt(m, prior, 3.0, spectrum(ds), E0=state.E, h0=state.h)
        assert calls[0] <= 3
        assert tilt.E != state.E

    def test_pure_spike_infeasible(self):
        ds = _random_instance(17, 6, 4)
        with pytest.raises(InfeasibleTilt):
            solve_tilt(np.zeros(6), bernoulli_gauss(0.0, 1.0), 1.0, spectrum(ds))


class TestGradient:
    def test_zero_at_converged_fit(self):
        ds = _random_instance(20, 30, 15)
        prior = bernoulli_gauss(0.3, 4.0)
        result = fit(ds, prior, 5.0)
        state = result.state
        g = gradient(state.m, state.h, state.E, ds, 5.0)
        scale = max(1.0, float(np.max(np.abs(5.0 * ds.xy))))
        assert float(np.max(np.abs(g))) <= 1e-8 * scale

    def test_zero_at_exact_gaussian_posterior_mean(self):
        ds = _random_instance(21, 12, 20)
        s2, beta = 3.0, 2.0
        m_star = _ridge(ds, beta, s2)
        tilt = solve_tilt(m_star, bernoulli_gauss(1.0, s2), beta, spectrum(ds))
        g = gradient(m_star, tilt.h, tilt.E, ds, beta)
        np.testing.assert_allclose(g, 0.0, atol=1e-10)

    @pytest.mark.parametrize("family", ["gauss", "uniform"])
    def test_matches_finite_differences_of_objective(self, family):
        # the tilt is re-extremized inside the objective, so plain central
        # differences of the scalar objective give the exact gradient
        if family == "gauss":
            ds = _random_instance(22, 10, 6)
            prior = bernoulli_gauss(0.4, 5.0)
        else:
            ds = _random_instance(22, 10, 16)
            prior = bernoulli_uniform(0.4)
        beta = 3.0
        rng = np.random.default_rng(23)
        m = rng.normal(0.0, 0.5, 10)
        tilt = solve_tilt(m, prior, beta, spectrum(ds))
        g = gradient(m, tilt.h, tilt.E, ds, beta)
        step = 1e-6
        fd = np.empty(10)
        for i in range(10):
            up, down = m.copy(), m.copy()
            up[i] += step
            down[i] -= step
            fd[i] = (objective(ds, prior, beta, up, E0=tilt.E, h0=tilt.h)
                     - objective(ds, prior, beta, down, E0=tilt.E, h0=tilt.h)) \
                / (2.0 * step)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-6)


class TestHessian:
    def test_identity_construction(self):
        ds = Dataset(np.zeros((4, 2)), np.zeros(2))
        H = hessian(np.ones(4), 0.0, ds, 1.0)  # variances 1, E = 0: diagonal is 1
        np.testing.assert_array_equal(H, np.eye(4))

    def test_pure_gaussian_closed_form(self):
        ds = _random_instance(24, 10, 18)
        s2, beta = 2.0, 4.0
        result = fit(ds, bernoulli_gauss(1.0, s2), beta)
        expected = beta * ds.gram + np.eye(10) / s2
        np.testing.assert_allclose(hessian(result.state.variance, result.state.E, ds, beta),
                                   expected, rtol=1e-8)

    def test_symmetric_positive_definite_at_convergence(self):
        ds = _random_instance(25, 30, 15)
        result = fit(ds, bernoulli_gauss(0.3, 4.0), 5.0)
        H = hessian(result.state.variance, result.state.E, ds, 5.0)
        np.testing.assert_allclose(H, H.T, rtol=1e-10)
        assert np.linalg.eigvalsh(H).min() > 0.0

    def test_variance_collapse_detected(self):
        ds = _random_instance(27, 5, 3)
        # a collapsed coordinate, and a NaN that Cholesky would let through
        for bad in (1e-13, np.nan):
            variances = np.full(5, 1.0)
            variances[3] = bad
            with pytest.raises(VarianceCollapse) as exc_info:
                hessian(variances, 0.5, ds, 1.0)
            assert exc_info.value.index == 3

    def test_matches_finite_differences_at_frozen_tilt(self):
        # with E frozen, the gradient's m-derivative is exactly
        # beta*X X^T + diag(1/var - E); central differences confirm it
        ds = _random_instance(28, 8, 5)
        prior = bernoulli_gauss(0.4, 5.0)
        beta = 3.0
        result = fit(ds, prior, beta)
        E = result.state.E

        def grad_frozen(m_vec):
            h, _ = invert_mean(prior, m_vec, E)
            return gradient(m_vec, h, E, ds, beta)

        m0 = result.state.m
        H = hessian(result.state.variance, E, ds, beta)
        step = 1e-6
        fd = np.empty((8, 8))
        for i in range(8):
            up, down = m0.copy(), m0.copy()
            up[i] += step
            down[i] -= step
            fd[:, i] = (grad_frozen(up) - grad_frozen(down)) / (2.0 * step)
        scale = float(np.max(np.abs(H)))
        np.testing.assert_allclose(fd, H, atol=1e-4 * scale)


    @pytest.mark.parametrize("family", ["bg", "bu"])
    def test_exact_hessian_matches_finite_differences(self, family, monkeypatch):
        # with the tilt re-solved at every m, the gradient's m-derivative is
        # the partial curvature plus fit's rank-one term c*a*a^T
        if family == "bg":
            ds, prior = _random_instance(28, 8, 5), bernoulli_gauss(0.4, 5.0)
        else:  # a full-rank gram: the flat slab steps with H alone otherwise
            ds, prior = _random_instance(28, 8, 16), bernoulli_uniform(0.4)
        beta = 3.0
        spec = spectrum(ds)
        result = fit(ds, prior, beta)
        m0 = result.state.m
        monkeypatch.setattr("ecreg.core._TILT_TOL", 1e-14)
        tilt = solve_tilt(m0, prior, beta, spec, E0=result.state.E, h0=result.state.h)

        def grad_resolved(m_vec):
            t = solve_tilt(m_vec, prior, beta, spec, E0=tilt.E, h0=tilt.h)
            return gradient(m_vec, t.h, t.E, ds, beta)

        step = 1e-5
        fd = np.empty((8, 8))
        for i in range(8):
            up, down = m0.copy(), m0.copy()
            up[i] += step
            down[i] -= step
            fd[:, i] = (grad_resolved(up) - grad_resolved(down)) / (2.0 * step)
        a, c = _coupling(m0, tilt, beta, ds._spec)
        scale = float(np.max(np.abs(fd)))
        H = hessian(result.state.variance, result.state.E, ds, beta)
        exact = H + c * np.outer(a, a)
        assert float(np.max(np.abs(exact - fd))) <= 1e-5 * scale
        assert float(np.max(np.abs(H - fd))) > 1e-3 * scale


class TestModifiedSolve:
    @staticmethod
    def _curvature(d_low):
        """beta*XX^T + diag(d) on a rank-15 gram of 30 features, with d drawn
        from [d_low, 2], and a two-column right-hand side."""
        rng = np.random.default_rng(61)
        ds = _random_instance(61, 30, 15)
        d = rng.uniform(d_low, 2.0, 30)
        H = 2.0 * ds.gram.copy()
        H[np.diag_indices(30)] += d
        return ds, d, H, rng.normal(size=(30, 2))

    def test_indefinite_curvature_factors_its_modification_once(self):
        ds, d, H, rhs = self._curvature(-0.5)
        assert np.linalg.eigvalsh(H).min() < 0.0
        floor = 1e-8 * float(np.trace(H)) / 30
        expected = np.linalg.solve(2.0 * ds.gram + np.diag(np.maximum(np.abs(d), floor)), rhs)
        with _factorizations() as outcomes:
            x, modified = _chol_solve_modified(H.copy(), d, rhs)
        assert outcomes == [False, True]
        assert modified
        assert np.max(np.abs(x - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_positive_definite_curvature_factors_once(self):
        _, d, H, rhs = self._curvature(0.1)
        plain = core.sla.cho_solve(core.sla.cho_factor(H, lower=True), rhs)
        with _factorizations() as outcomes:
            x, modified = _chol_solve_modified(H, d, rhs)
        assert outcomes == [True]
        assert not modified
        np.testing.assert_array_equal(x, plain)

    def test_non_finite_curvature_raises_after_two_factorizations(self):
        _, d, H, rhs = self._curvature(0.1)
        H[0, 1] = H[1, 0] = np.inf  # LAPACK's pivot test lets a NaN through
        with _factorizations() as outcomes, pytest.raises(SingularHessian):
            _chol_solve_modified(H, d, rhs)
        assert outcomes == [False, False]

    def test_modified_step_skips_the_rank_one_term(self):
        _, d, H, rhs = self._curvature(-0.5)
        grad, a = rhs[:, 0], rhs[:, 1]
        x = _chol_solve_modified(H.copy(), d, grad)[0]
        np.testing.assert_array_equal(_newton_direction(H, d, grad, (a, 0.3)), -x)


class TestFit:
    def test_zero_data_returns_prior_mean(self):
        ds = Dataset(np.zeros((6, 3)), np.zeros(3))
        result = fit(ds, bernoulli_gauss(0.5, 2.0), 1.0)
        np.testing.assert_array_equal(result.state.m, np.zeros(6))
        assert result.state.converged

    def test_pure_gaussian_matches_ridge(self):
        for seed in range(5):
            ds = _random_instance(seed + 30, 25, 40)
            s2, beta = 3.0, 2.0
            result = fit(ds, bernoulli_gauss(1.0, s2), beta)
            expected = _ridge(ds, beta, s2)
            scale = float(np.max(np.abs(expected)))
            assert np.max(np.abs(result.state.m - expected)) <= 1e-8 * scale

    def test_float32_beta_reaches_the_python_float_state(self):
        # a float32 beta once made beta*Ltil and beta*chi float32, and the
        # tilt solve stalled at residual 6.3e-7 after 60 evaluations
        ds = gen_synthetic(SynthConfig(N=20, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                       sigma_n0_sq=0.25, seed=1))[0]
        prior = bernoulli_gauss(0.2, 4.0)
        single, double = fit(ds, prior, np.float32(4.0)).state, fit(ds, prior, 4.0).state
        assert single.converged
        np.testing.assert_array_equal(single.m, double.m)
        np.testing.assert_array_equal(single.h, double.h)
        assert (single.E, single.free_energy) == (double.E, double.free_energy)

    def test_fixed_point_residuals_at_convergence(self):
        ds = _random_instance(36, 60, 30, rho=0.1, sigma_w2=10.0)
        prior = bernoulli_gauss(0.1, 10.0)
        beta = 10.0
        result = fit(ds, prior, beta)
        assert result.state.converged
        state = result.state
        back = moments(prior, state.h, state.E).mean
        assert float(np.max(np.abs(state.m - back))) <= 1e-8
        residual = state.h - beta * (ds.X @ (ds.y - ds.X.T @ state.m)) \
            - state.E * state.m
        assert float(np.max(np.abs(residual))) \
            <= 1e-6 * max(1.0, float(np.max(np.abs(state.h))))

    def test_objective_trace_non_increasing(self, monkeypatch):
        ds = _random_instance(37, 40, 20)
        # from zero: VAMP's point would meet grad_tol without a Newton step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        result = fit(ds, bernoulli_gauss(0.3, 4.0), 8.0)
        trace = np.asarray(result.settings["free_energies"])
        assert trace.size >= 2
        assert np.all(np.diff(trace) < 0.0)

    def test_deterministic(self):
        ds = _random_instance(38, 15, 30)
        prior = bernoulli_uniform(0.4)
        a = fit(ds, prior, 6.0)
        b = fit(ds, prior, 6.0)
        np.testing.assert_array_equal(a.state.m, b.state.m)
        np.testing.assert_array_equal(hessian(a.state.variance, a.state.E, ds, 6.0),
                                      hessian(b.state.variance, b.state.E, ds, 6.0))
        assert a.state.free_energy == b.state.free_energy
        assert a.state.iterations == b.state.iterations

    def test_warm_start_reaches_same_answer(self, monkeypatch):
        # a fit that met grad_tol meets it again before any Newton step: on
        # criterion 8's instance, criterion 1's first draw and criterion 6's
        # flat slab.  VAMP started from the state's tilt stops within its
        # tolerance of the state (1.4e-9 apart on criterion 8's instance);
        # where it gives up, the first tilt solve starts at the state's own
        # tilt and returns the state bit for bit
        cases = [
            (SynthConfig(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0, sigma_n0_sq=0.25,
                         seed=4), bernoulli_gauss(0.2, 4.0), 8.0),
            (SynthConfig(N=200, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0, sigma_n0_sq=0.1,
                         seed=200), bernoulli_gauss(0.1, 10.0), 10.0),
            (SynthConfig(N=25, alpha=2.0, rho0=0.3, sigma_w0_sq=1.0, sigma_n0_sq=0.2,
                         seed=4), bernoulli_uniform(0.3), 4.0),
        ]
        for config, prior, beta in cases:
            ds, _, _ = gen_synthetic(config)
            cold = fit(ds, prior, beta)
            scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
            assert cold.state.grad_norm <= FitSettings().grad_tol * scale
            warm = fit(ds, prior, beta, warm=cold.state)
            assert warm.state.iterations == 0 and warm.state.converged
            assert warm.state.grad_norm <= FitSettings().grad_tol * scale
            gap = float(np.max(np.abs(warm.state.m - cold.state.m)))
            assert gap <= 10.0 * core._VAMP_TOL * max(1.0, float(np.max(np.abs(cold.state.m))))
            with monkeypatch.context() as patch:
                patch.setattr("ecreg.core._vamp_start", lambda *args: None)
                warm = fit(ds, prior, beta, warm=cold.state)
            assert warm.state.iterations == 0 and warm.state.converged
            np.testing.assert_array_equal(warm.state.m, cold.state.m)
            assert warm.state.E == cold.state.E

    def test_warm_fit_without_a_step_forms_no_curvature(self, monkeypatch):
        # the state carries the tilted variances, from which approx_looe forms
        # H, so a fit that takes no Newton step builds no N x N matrix
        ds, _, _ = gen_synthetic(SynthConfig(N=25, alpha=2.0, rho0=0.3, sigma_w0_sq=1.0,
                                             sigma_n0_sq=0.2, seed=4))
        prior, beta = bernoulli_uniform(0.3), 4.0
        cold = fit(ds, prior, beta)
        calls = []
        curvature = core._curvature
        monkeypatch.setattr("ecreg.core._curvature",
                            lambda *args: calls.append(args) or curvature(*args))
        warm = fit(ds, prior, beta, warm=cold.state)
        assert warm.state.iterations == 0 and calls == []
        np.testing.assert_allclose(warm.state.variance, cold.state.variance, rtol=1e-6)
        # the final state's variances are checked as the curvature checks them
        monkeypatch.setattr("ecreg.core._VARIANCE_FLOOR", 1e10)
        with pytest.raises(VarianceCollapse):
            fit(ds, prior, beta, warm=cold.state)
        assert calls == []

    def test_iteration_budget_returns_best_state(self, monkeypatch):
        ds = _random_instance(40, 40, 20)
        monkeypatch.setattr(FitSettings, "max_outer", 2)
        # from zero, not from the VAMP start, which fit polishes in one step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        result = fit(ds, bernoulli_gauss(0.2, 8.0), 10.0)
        assert not result.state.converged
        assert result.state.iterations <= 2
        assert np.all(np.isfinite(result.state.m))

    def test_stall_at_the_inner_solve_floor_is_converged(self, monkeypatch):
        # at calibrate_rho's lowest probe, rho = 1e-8, the gradient stops
        # above grad_tol * scale: its largest entry sits on a coordinate with
        # curvature ~6e8, where the Newton step that would remove it is tiny.
        # The fit from zero ends converged after 43 iterations because that
        # undamped step falls below step_tol (the VAMP start avoids the stall)
        ds, _, _ = gen_synthetic(SynthConfig(N=40, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.1, seed=5))
        beta = 4.0
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        result = fit(ds, bernoulli_gauss(1e-8, 4.0), beta)
        scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
        assert result.state.grad_norm > FitSettings().grad_tol * scale
        assert result.state.converged

    def test_flat_slab_with_zero_modes_keeps_the_partial_step(self, monkeypatch):
        # the rank-one term is never evaluated there; on a full-rank gram it
        # is.  From zero: VAMP's point would meet grad_tol without a step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _coupling(*args)

        monkeypatch.setattr("ecreg.core._coupling", counted)
        fit(_random_instance(44, 8, 16), bernoulli_uniform(0.4), 3.0)
        assert calls[0]

        def refused(*args):
            raise AssertionError("coupling evaluated on a flat slab with zero modes")

        monkeypatch.setattr("ecreg.core._coupling", refused)
        ds = _random_instance(46, 12, 10)
        assert spectrum(ds)[0] == 0.0
        result = fit(ds, bernoulli_uniform(0.3), 2.0)
        assert result.state.iterations > 1

    def test_kernel_runs_only_in_mean_inversions(self, monkeypatch):
        # a tilt evaluation takes its moments from invert_mean's accepted
        # pass, and the rank-one term reads them from TiltResult.moments, so
        # every call of the Newton loop's tilted-prior kernel is one of
        # invert_mean's passes; _coupling (evaluated on both full-rank grams)
        # makes none.  Started from zero, no VAMP pass calls moments
        callers, within, entered = [], [], {"invert_mean": 0, "_coupling": 0}

        def kernel(*args):
            callers.append(within[-1] if within else None)
            return _mixture(*args)

        def inside(name, fn):
            def wrapper(*args, **kwargs):
                entered[name] += 1
                within.append(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    within.pop()
            return wrapper

        monkeypatch.setattr("ecreg.priors._mixture", kernel)
        monkeypatch.setattr("ecreg.core.invert_mean", inside("invert_mean", invert_mean))
        monkeypatch.setattr("ecreg.core._coupling", inside("_coupling", _coupling))
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        fit(_random_instance(48, 12, 20), bernoulli_gauss(0.3, 4.0), 3.0)
        fit(_random_instance(49, 12, 20), bernoulli_uniform(0.3), 3.0)
        assert entered["_coupling"] > 0
        assert callers and set(callers) == {"invert_mean"}

    @pytest.mark.parametrize("bad", [dict(grad_tol=np.nan), dict(step_tol=-1e-10),
                                     dict(grad_tol=np.inf), dict(max_outer=-1),
                                     dict(max_inner=0)])
    def test_invalid_settings_rejected(self, bad):
        # the bounds are constants: FitSettings takes no arguments at all,
        # so any override, valid or not, is refused at construction
        with pytest.raises(TypeError):
            FitSettings(**bad)

    def test_invalid_beta_rejected(self):
        # solve_tilt and solve_lambda keep fit's rule: an infinite beta once
        # passed them and failed later, after RuntimeWarnings
        ds, prior = _random_instance(41, 5, 3), bernoulli_gauss(0.5, 1.0)
        sp = spectrum(ds)
        for beta in (0.0, np.nan, np.inf):
            for solve in (lambda: fit(ds, prior, beta),
                          lambda: solve_tilt(np.full(5, 0.1), prior, beta, sp),
                          lambda: solve_lambda(sp, beta, 0.5)):
                with pytest.raises(DomainError, match="finite and positive"):
                    solve()

    def test_warm_state_length_checked(self):
        ds, prior = _random_instance(42, 4, 3), bernoulli_gauss(0.5, 1.0)
        state = fit(ds, prior, 1.0).state
        with pytest.raises(DimensionMismatch):
            fit(_random_instance(42, 5, 3), prior, 1.0, warm=state)
        with pytest.raises(DimensionMismatch):
            fit(ds, prior, 1.0, warm=dataclasses.replace(state, h=state.h[:3]))

    def test_settings_echo(self):
        ds = _random_instance(43, 10, 6)
        result = fit(ds, bernoulli_gauss(0.5, 2.0), 2.0)
        echo = result.settings
        assert set(echo) == {"step_sizes", "free_energies", "allowed_rises"}
        assert len(echo["step_sizes"]) + 1 == len(echo["free_energies"])
        assert len(echo["allowed_rises"]) == len(echo["step_sizes"])

    def test_each_newton_step_factors_at_most_twice(self, monkeypatch):
        # criterion 1's first draw visits iterates with an indefinite H
        ds, _, _ = gen_synthetic(SynthConfig(N=200, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0,
                                             sigma_n0_sq=0.1, seed=200))
        beta = 10.0
        steps = []

        def recorded(H, d, grad, coupling):
            with _factorizations() as outcomes:
                direction = _newton_direction(H, d, grad, coupling)
            steps.append((outcomes, float(grad @ direction)))
            return direction

        monkeypatch.setattr("ecreg.core._newton_direction", recorded)
        # from zero: the VAMP start skips the iterates with an indefinite H
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        result = fit(ds, bernoulli_gauss(0.1, 10.0), beta)
        assert any(False in outcomes for outcomes, _ in steps)
        for outcomes, slope in steps:
            assert len(outcomes) <= 2 and outcomes.count(False) <= 1
            assert slope < 0.0
        scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
        assert result.state.converged
        assert result.state.grad_norm <= FitSettings().grad_tol * scale

    def test_rounding_rise_accepts_only_a_rise_within_the_floor(self):
        ds = _random_instance(47, 20, 30)
        prior, beta = bernoulli_gauss(0.3, 4.0), 4.0
        spec = spectrum(ds)
        m = np.zeros(20)
        tilt = solve_tilt(m, prior, beta, spec)
        phi = _free_energy_at(m, tilt, ds, beta)
        grad_norm = float(np.max(np.abs(gradient(m, tilt.h, tilt.E, ds, beta))))
        floor = float(8.0 * np.finfo(float).eps
                      * sum(abs(t) for t in _free_energy_terms(m, tilt, ds, beta)))
        best = fit(ds, prior, beta).state
        m_best = best.m
        tilt_best = solve_tilt(m_best, prior, beta, spec, E0=best.E, h0=best.h)
        args = (phi, grad_norm, m, tilt, ds, beta)
        assert _rounding_rise((m_best, tilt_best, phi + 0.5 * floor), *args) == floor
        assert _rounding_rise((m_best, tilt_best, phi + 2.0 * floor), *args) is None
        # the trial's gradient must fall below the current one
        assert _rounding_rise((m_best, tilt_best, phi), phi, 0.0, m, tilt, ds, beta) is None

    def test_rise_within_rounding_is_taken_and_recorded(self, monkeypatch):
        # every trial of the first step reads as no decrease, so that step is
        # the full one that _rounding_rise allows, taken without halving
        ds = _random_instance(47, 20, 30)
        prior, beta = bernoulli_gauss(0.3, 4.0), 4.0
        first = []
        floors = []
        tilt_solves = []
        solves_before_first_rise = []

        def flat_first_step(m, tilt, dataset, beta):
            phi = _free_energy_at(m, tilt, dataset, beta)
            if not first:
                first.append(phi)
            return first[0] if not floors else phi

        def recorded(*args):
            if not floors:
                solves_before_first_rise.append(len(tilt_solves))
            floors.append(_rounding_rise(*args))
            return floors[-1]

        def counted(*args, **kwargs):
            tilt_solves.append(1)
            return solve_tilt(*args, **kwargs)

        monkeypatch.setattr("ecreg.core._free_energy_at", flat_first_step)
        monkeypatch.setattr("ecreg.core._rounding_rise", recorded)
        monkeypatch.setattr("ecreg.core.solve_tilt", counted)
        # from zero: VAMP's point would meet grad_tol without a Newton step
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        result = fit(ds, prior, beta)
        echo = result.settings
        # one solve at the start point, one trial for the first step
        assert solves_before_first_rise == [2]
        # later full steps that do not lower Phi are checked too, and are
        # refused: only the first step rose
        assert floors[0] > 0.0 and all(f is None for f in floors[1:])
        assert echo["allowed_rises"][0] == floors[0]
        assert echo["step_sizes"][0] == 1.0
        assert echo["free_energies"][1] == echo["free_energies"][0]
        assert all(r == 0.0 for r in echo["allowed_rises"][1:])
        assert result.state.converged

    # a wide design's m, free energy and approximate LOO error, pinned when
    # every ScalarMoments field was formed with the object: forming the log
    # partition and the cumulants on first read changes no bit.  Retaken when
    # every secular solve came to start at its closed-form lower bound, which
    # moved them by at most 2e-14 relative
    _PINNED = {
        "vamp": ([0.1620012955360783, 0.37118445070357503, 0.3111038984603114,
                  -0.7002221265268948, -0.05926972068004267, -0.1671033068388515,
                  -0.20009457887464485, -0.1851959429642712],
                 4.250012097321054, 0.2466286400253174),
        "newton": ([0.16200129414934547, 0.37118445134254685, 0.3111038956321395,
                    -0.7002221275208476, -0.05926972005945859, -0.1671033045752036,
                    -0.20009457838362923, -0.18519593880704227],
                   4.250012097321055, 0.24662864015013292),
    }

    @pytest.mark.parametrize("start", ["vamp", "newton"])
    def test_wide_fit_and_loo_are_pinned_to_the_bit(self, start, monkeypatch):
        ds = _random_instance(5, 8, 5)
        if start == "newton":
            # from zero, so the Newton steps read the cumulants; the spectrum
            # comes from the eigendecomposition, which VAMP forms before it
            # gives up
            monkeypatch.setattr("ecreg.core._vamp_start",
                                lambda dataset, *args: dataset._thin_eigh and None)
        result = fit(ds, bernoulli_gauss(0.3, 4.0), 4.0)
        m, free_energy, eps_loo = self._PINNED[start]
        assert result.state.converged
        assert result.state.m.tolist() == m
        assert result.state.free_energy == free_energy
        assert approx_looe(result, ds, 4.0).eps_loo == eps_loo


def _criterion_draw(n, seed):
    """Criterion 1's (N=200) and criterion 2's (N=500) generator."""
    ds, _, _ = gen_synthetic(SynthConfig(N=n, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0,
                                         sigma_n0_sq=0.1, seed=seed))
    return ds


def _vamp_calls(monkeypatch):
    """A list to which each later _vamp_start call appends whether it
    returned a point."""
    accepted = []

    def recorded(*args):
        start = _vamp_start(*args)
        accepted.append(start is not None)
        return start

    monkeypatch.setattr("ecreg.core._vamp_start", recorded)
    return accepted


class TestVampStart:
    # criterion 1's draws with its prior, and one with a flat slab on which
    # VAMP and the path from zero reach the same fixed point
    @pytest.mark.parametrize("seed, prior", [
        *(pytest.param(seed, bernoulli_gauss(0.1, 10.0), id=str(seed))
          for seed in range(200, 210)),
        pytest.param(201, bernoulli_uniform(0.1), id="bu-201"),
    ])
    def test_reaches_the_fixed_point_from_zero(self, seed, prior, monkeypatch):
        ds = _criterion_draw(200, seed)
        beta = 10.0
        accepted = _vamp_calls(monkeypatch)
        started = fit(ds, prior, beta)
        assert len(accepted) == 1
        if prior.family == BERNOULLI_UNIFORM:
            assert accepted == [True]
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        cold = fit(ds, prior, beta)
        assert started.state.converged == cold.state.converged
        gap = float(np.max(np.abs(started.state.m - cold.state.m)))
        assert gap <= 1e-6 * float(np.max(np.abs(cold.state.m)))

    def test_fallback_is_the_path_from_zero(self, monkeypatch):
        # VAMP leaves its domain, and fit starts from zero: at beta = 100 on
        # criterion 2's first draw, and on criterion 1's first with a flat slab
        cases = [(_criterion_draw(500, 100), bernoulli_gauss(0.1, 10.0), 100.0),
                 (_criterion_draw(200, 200), bernoulli_uniform(0.1), 10.0)]
        for ds, prior, beta in cases:
            with monkeypatch.context() as patch:
                accepted = _vamp_calls(patch)
                started = fit(ds, prior, beta)
            assert accepted == [False]
            assert started.settings["free_energies"][0] == objective(
                ds, prior, beta, np.zeros(ds.n_features))
            with monkeypatch.context() as patch:
                patch.setattr("ecreg.core._vamp_start", lambda *args: None)
                cold = fit(ds, prior, beta)
            np.testing.assert_array_equal(started.state.m, cold.state.m)
            np.testing.assert_array_equal(
                hessian(started.state.variance, started.state.E, ds, beta),
                hessian(cold.state.variance, cold.state.E, ds, beta))
            assert started.state.free_energy == cold.state.free_energy
            assert started.state.iterations == cold.state.iterations
            assert started.settings == cold.settings

    def test_runs_on_every_fit_cold_or_warm(self, monkeypatch):
        accepted = _vamp_calls(monkeypatch)
        wide = _random_instance(46, 12, 10)
        assert spectrum(wide)[0] == 0.0
        designs = [wide, _random_instance(51, 12, 12), _random_instance(52, 8, 20)]
        for prior in (bernoulli_uniform(0.3), bernoulli_gauss(0.3, 4.0)):
            for ds in designs:  # M < N, M = N and M > N
                fit(ds, prior, 2.0)
        assert len(accepted) == 6
        state = fit(wide, bernoulli_gauss(0.3, 4.0), 2.0).state
        fit(wide, bernoulli_gauss(0.3, 4.0), 2.0, warm=state)
        fit(wide, bernoulli_uniform(0.3), 3.0, warm=state)
        assert len(accepted) == 9

    def test_warm_start_seeds_from_the_warm_tilt(self, monkeypatch):
        # gamma1 = warm.E and h = gamma1*r1 = warm.h at the first moments
        # call; a warm E at or below the prior's E_min starts at the origin
        ds = _random_instance(46, 12, 10)
        prior, beta = bernoulli_uniform(0.3), 2.0
        state = fit(ds, bernoulli_gauss(0.3, 4.0), beta).state
        assert state.E > prior.min_tilt()
        first = []

        def recorded(prior, h, E):
            first.append((h, E))
            return moments(prior, h, E)

        monkeypatch.setattr("ecreg.core.moments", recorded)
        _vamp_start(ds, prior, beta, state)
        h, E = first[0]
        assert E == state.E
        np.testing.assert_allclose(h, state.h, rtol=4 * np.finfo(float).eps)
        origin = core._default_tilt_origin(prior, beta, float(spectrum(ds).sum()) / ds.n_features)
        for warm in (dataclasses.replace(state, E=prior.min_tilt()), None):
            first.clear()
            _vamp_start(ds, prior, beta, warm)
            h, E = first[0]
            assert E == origin
            np.testing.assert_array_equal(h, np.zeros(ds.n_features))

    def test_cold_wide_fit_takes_no_newton_step_and_forms_no_gram(self):
        # criterion 9's design (N = 1000, M = 500): VAMP runs on the thin
        # M x M eigendecomposition, and its point meets grad_tol
        ds, _, _ = gen_synthetic(SynthConfig(N=1000, alpha=0.5, rho0=0.1, sigma_w0_sq=10.0,
                                             sigma_n0_sq=0.1, seed=9))
        beta = 10.0
        result = fit(ds, bernoulli_gauss(0.1, 10.0), beta)
        scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
        assert result.state.converged and result.state.iterations == 0
        assert result.state.grad_norm <= FitSettings().grad_tol * scale
        assert "gram" not in ds.__dict__

    def test_flat_slab_leaves_the_spurious_root(self):
        # criterion 2's seed 103: from zero the fit stopped at E ~ 1.9e-10,
        # where solve_tilt's absolute acceptance lets a spurious root pass,
        # with eps ~ 1e-29 and all 250 samples flagged; from VAMP's point it
        # converges at E = 1.65 and flags none
        ds = _criterion_draw(500, 103)
        result = fit(ds, bernoulli_uniform(0.05), 10.0)
        assert result.state.converged and result.state.E > 1.0
        assert approx_looe(result, ds, 10.0).flagged == []

    @pytest.mark.parametrize("seed", range(4))
    def test_tall_design_reaches_the_fixed_point_from_zero(self, seed, monkeypatch):
        # criterion 8's generator (N = 80, M = 200): the LMMSE step runs on
        # the N x N gram's eigendecomposition instead of Woodbury's M x M one
        ds, _, _ = gen_synthetic(SynthConfig(N=80, alpha=2.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.25, seed=seed))
        prior, beta = bernoulli_gauss(0.2, 4.0), 8.0
        accepted = _vamp_calls(monkeypatch)
        started = fit(ds, prior, beta)
        assert accepted == [True]
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        cold = fit(ds, prior, beta)
        assert started.state.converged and cold.state.converged
        assert started.state.iterations < cold.state.iterations
        gap = float(np.max(np.abs(started.state.m - cold.state.m)))
        assert gap <= 1e-6 * float(np.max(np.abs(cold.state.m)))

    def test_gives_up_when_the_move_stops_shrinking(self, monkeypatch):
        # criterion 2's seed 100 at beta = 50: VAMP oscillates with
        # max|dm| near 0.1 and spent its whole budget before the window test
        ds = _criterion_draw(500, 100)
        prior = bernoulli_gauss(0.1, 10.0)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return moments(*args)

        monkeypatch.setattr("ecreg.core.moments", counted)
        assert _vamp_start(ds, prior, 50.0) is None
        assert calls[0] < _VAMP_BUDGET // 2

    def test_no_newton_step_returns_the_vamp_point(self, monkeypatch):
        ds = _criterion_draw(200, 200)
        prior, beta = bernoulli_gauss(0.1, 10.0), 10.0
        m, E, h = _vamp_start(ds, prior, beta)
        monkeypatch.setattr(FitSettings, "max_outer", 0)
        result = fit(ds, prior, beta)
        assert result.state.iterations == 0
        np.testing.assert_array_equal(result.state.m, m)
        assert np.all(np.isfinite(result.state.m)) and np.isfinite(result.state.free_energy)
        # the tilt solved at VAMP's mean starts from, and stays near, VAMP's (E, h)
        assert abs(result.state.E - E) <= 1e-4 * abs(E)
        assert result.state.grad_norm > 0.0


class TestFreeEnergy:
    def test_matches_gaussian_log_partition(self):
        # for a pure Gaussian prior the objective equals -ln Z with
        # Z = int exp(-beta/2 ||y - X^T w||^2) N(w; 0, s2 I) dw
        ds = _random_instance(50, 25, 40)
        s2 = 3.0
        X, y, n, m = ds.X, ds.y, 25, 40
        for beta in (2.0, 7.0):
            result = fit(ds, bernoulli_gauss(1.0, s2), beta)
            A = beta * ds.gram + np.eye(n) / s2
            b = beta * ds.xy
            _, logdet = np.linalg.slogdet(A)
            ln_z = (-0.5 * n * np.log(2.0 * np.pi * s2)
                    - 0.5 * beta * float(y @ y)
                    + 0.5 * n * np.log(2.0 * np.pi) - 0.5 * logdet
                    + 0.5 * float(b @ np.linalg.solve(A, b)))
            np.testing.assert_allclose(result.state.free_energy, -ln_z,
                                       rtol=1e-10)

    def test_minimizer_beats_origin(self):
        ds = _random_instance(51, 20, 12)
        prior = bernoulli_gauss(0.4, 4.0)
        result = fit(ds, prior, 5.0)
        at_zero = objective(ds, prior, 5.0, np.zeros(20))
        assert result.state.free_energy <= at_zero

    def test_recomputation_matches_state(self):
        ds = _random_instance(52, 10, 15)
        prior = bernoulli_uniform(0.4)
        result = fit(ds, prior, 4.0)
        value = objective(ds, prior, 4.0, result.state.m, E0=result.state.E,
                          h0=result.state.h)
        np.testing.assert_allclose(value, result.state.free_energy, rtol=1e-12)

    def test_gradient_matches_objective_slope_along_line(self):
        # directional check of the envelope property on a random segment
        ds = _random_instance(54, 12, 8)
        prior = bernoulli_gauss(0.5, 3.0)
        beta = 2.0
        rng = np.random.default_rng(55)
        m = rng.normal(0.0, 0.4, 12)
        d = rng.normal(size=12)
        d /= np.linalg.norm(d)
        tilt = solve_tilt(m, prior, beta, spectrum(ds))
        g = gradient(m, tilt.h, tilt.E, ds, beta)
        step = 1e-6
        slope_fd = (objective(ds, prior, beta, m + step * d)
                    - objective(ds, prior, beta, m - step * d)) / (2.0 * step)
        np.testing.assert_allclose(float(g @ d), slope_fd, rtol=1e-5, atol=1e-8)
