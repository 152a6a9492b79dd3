"""Tests for hyper-parameter sweeps, sparsity calibration, beta selection.

Ridge regression is again the oracle: with the pure Gaussian prior every
grid point's approximate LOO error has a closed form, so the sweep table and
the beta argmin can be checked end to end against direct linear algebra.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ecreg.core import Dataset, FitSettings, fit, gradient, hessian
from ecreg.data_io import SynthConfig, gen_synthetic
from ecreg.errors import (
    AllPointsFailed,
    ConfigError,
    DomainError,
    InfeasibleTilt,
    NonConvergence,
    NonMonotoneDetected,
    RangeError,
)
from ecreg.hyper import (
    SweepGrid,
    calibrate,
    calibrate_rho,
    select_beta,
    sweep,
)
from ecreg.loocv import approx_looe
from ecreg.priors import BERNOULLI_GAUSS, BERNOULLI_UNIFORM, bernoulli_gauss


def _instance(seed, n, m, rho=0.3, sigma_w2=4.0, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0 / np.sqrt(n), size=(n, m))
    w = np.where(rng.random(n) < rho, rng.normal(0.0, np.sqrt(sigma_w2), n), 0.0)
    y = X.T @ w + rng.normal(0.0, noise, m)
    return Dataset(X, y)


def _ridge_loo_eps(dataset, beta, sigma_w2):
    """Closed-form LOO error of the ridge estimator."""
    n, M = dataset.n_features, dataset.n_samples
    H = beta * (dataset.X @ dataset.X.T) + np.eye(n) / sigma_w2
    h_inv = np.linalg.inv(H)
    m = h_inv @ (beta * (dataset.X @ dataset.y))
    lev = beta * np.einsum("im,im->m", dataset.X, h_inv @ dataset.X)
    r_loo = (dataset.y - dataset.X.T @ m) / (1.0 - lev)
    return float(np.sum(r_loo**2) / (2.0 * M))


class TestSweepGrid:
    def test_valid_grid(self):
        g = SweepGrid(beta_values=[1, 2], rho_values=[0.5, 1.0],
                      sigma_w2_values=[4.0])
        assert g.beta_values == (1.0, 2.0)
        assert g.rho_values == (0.5, 1.0)
        assert g.sigma_w2_values == (4.0,)

    def test_empty_beta_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(beta_values=[], rho_values=[0.5])

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(beta_values=[1.0, -2.0], rho_values=[0.5])

    def test_bad_rho_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(beta_values=[1.0], rho_values=[0.0])
        with pytest.raises(ConfigError):
            SweepGrid(beta_values=[1.0], rho_values=[1.5])

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            SweepGrid(beta_values=[1.0], rho_values=[0.5], sigma_w2_values=[0.0])


class TestSweep:
    def test_singleton_grid_equals_direct_evaluation(self):
        ds = _instance(51, 15, 25)
        grid = SweepGrid(beta_values=[6.0], rho_values=[0.3],
                         sigma_w2_values=[4.0])
        result = sweep(ds, BERNOULLI_GAUSS, grid)
        assert len(result.points) == 1
        point = result.points[0]
        direct = fit(ds, bernoulli_gauss(0.3, 4.0), 6.0)
        report = approx_looe(direct, ds, 6.0)
        assert point.eps_loo == report.eps_loo
        assert point.free_energy == direct.state.free_energy
        r = ds.y - ds.X.T @ direct.state.m
        np.testing.assert_allclose(point.eps, float(r @ r) / 50.0, rtol=1e-13)
        assert result.best == point

    def test_gaussian_grid_matches_ridge_oracle(self):
        ds = _instance(53, 10, 30)
        betas, sigmas = (2.0, 8.0), (1.0, 5.0)
        grid = SweepGrid(beta_values=betas, rho_values=[1.0],
                         sigma_w2_values=sigmas)
        result = sweep(ds, BERNOULLI_GAUSS, grid)
        assert len(result.points) == 4
        oracle = {}
        for p in result.points:
            want = _ridge_loo_eps(ds, p.beta, p.sigma_w2)
            oracle[(p.beta, p.sigma_w2)] = want
            np.testing.assert_allclose(p.eps_loo, want, rtol=1e-6)
            assert p.converged and p.error is None
        best_key = min(oracle, key=oracle.get)
        assert (result.best.beta, result.best.sigma_w2) == best_key

    def test_failed_points_stay_in_table(self, monkeypatch):
        # rho=0.05 needs more than three steps at this beta from zero; rho=1
        # does not.  The VAMP start would leave both one step each
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        ds = _instance(47, 25, 20)
        grid = SweepGrid(beta_values=[30.0], rho_values=[1.0, 0.05],
                         sigma_w2_values=[4.0])
        monkeypatch.setattr(FitSettings, "max_outer", 3)
        result = sweep(ds, BERNOULLI_GAUSS, grid)
        by_rho = {p.rho: p for p in result.points}
        assert len(result.points) == 2
        assert by_rho[1.0].converged and by_rho[1.0].error is None
        failed = by_rho[0.05]
        assert not failed.converged
        assert failed.error == "fit did not converge"
        assert np.isnan(failed.eps_loo)
        assert np.isfinite(failed.eps)
        assert result.best.rho == 1.0

    def test_point_whose_fit_raises_stays_in_table(self, monkeypatch):
        def fit_raising_at_small_rho(dataset, prior, beta, *, warm=None):
            if prior.rho == 0.05:
                raise InfeasibleTilt("no tilt reaches the means")
            return fit(dataset, prior, beta, warm=warm)

        monkeypatch.setattr("ecreg.hyper.fit", fit_raising_at_small_rho)
        grid = SweepGrid(beta_values=[30.0], rho_values=[0.05, 1.0],
                         sigma_w2_values=[4.0])
        result = sweep(_instance(47, 25, 20), BERNOULLI_GAUSS, grid)
        failed, kept = result.points
        assert (failed.rho, failed.converged) == (0.05, False)
        assert failed.error == "no tilt reaches the means"
        assert np.isnan(failed.eps) and np.isnan(failed.eps_loo)
        assert kept.converged and kept.error is None
        assert result.best == kept

    def test_all_points_failed(self, monkeypatch):
        monkeypatch.setattr("ecreg.core._vamp_start", lambda *args: None)
        ds = _instance(47, 25, 20)
        grid = SweepGrid(beta_values=[30.0], rho_values=[0.05],
                         sigma_w2_values=[4.0])
        monkeypatch.setattr(FitSettings, "max_outer", 3)
        with pytest.raises(AllPointsFailed):
            sweep(ds, BERNOULLI_GAUSS, grid)

    def test_tie_breaks_toward_smallest_beta(self):
        # with a zero response every fit is exact and every eps_loo is zero
        rng = np.random.default_rng(45)
        ds = Dataset(rng.normal(0.0, 0.5, (6, 9)), np.zeros(9))
        grid = SweepGrid(beta_values=[7.0, 2.0, 5.0], rho_values=[0.3],
                         sigma_w2_values=[2.0])
        result = sweep(ds, BERNOULLI_GAUSS, grid)
        assert all(p.eps_loo == 0.0 for p in result.points)
        assert result.best.beta == 2.0

    def test_gaussian_family_requires_sigma_grid(self):
        ds = _instance(55, 8, 12)
        grid = SweepGrid(beta_values=[3.0], rho_values=[0.5])
        with pytest.raises(ConfigError):
            sweep(ds, BERNOULLI_GAUSS, grid)

    def test_uniform_family_runs_without_sigma(self):
        ds = _instance(55, 8, 16)
        grid = SweepGrid(beta_values=[3.0], rho_values=[0.5])
        result = sweep(ds, BERNOULLI_UNIFORM, grid)
        assert result.best.sigma_w2 is None
        assert result.best.converged

    @pytest.mark.parametrize("family", ["laplace", BERNOULLI_UNIFORM])
    def test_bad_family_or_slab_rejected(self, family):
        grid = SweepGrid(beta_values=[4.0], rho_values=[0.2], sigma_w2_values=[4.0])
        with pytest.raises(ConfigError):
            sweep(_instance(55, 8, 16), family, grid)


def _assert_converged_probes_stationary(probes, ds, beta):
    # a probe that reports converged is stationary: its gradient meets
    # grad_tol, or its Newton step (not a damped fraction of it) step_tol
    cfg = FitSettings()
    scale = max(1.0, float(np.max(np.abs(beta * ds.xy))))
    for p in (p for p in probes if p.state.converged):
        g = gradient(p.state.m, p.state.h, p.state.E, ds, beta)
        newton = np.linalg.solve(hessian(p.state.variance, p.state.E, ds, beta), g)
        assert (np.max(np.abs(g)) <= cfg.grad_tol * scale
                or np.max(np.abs(newton))
                <= cfg.step_tol * max(1.0, float(np.max(np.abs(p.state.m)))))


def _criterion_7_design(ordering=None):
    """Criterion 7's design, or its copy under a seeded sample/feature
    permutation and sign flip, as the benchmark's repetitions pose it."""
    base, _, _ = gen_synthetic(SynthConfig(N=276, alpha=0.5, rho0=0.05, sigma_w0_sq=1.0,
                                           sigma_n0_sq=0.5, seed=0))
    if ordering is None:
        return base
    rng = np.random.default_rng(np.random.SeedSequence(list(ordering)))
    features = rng.permutation(base.n_features)
    samples = rng.permutation(base.n_samples)
    signs = rng.choice([-1.0, 1.0], size=base.n_features)
    return Dataset((base.X * signs[:, None])[features][:, samples], base.y[samples])


class TestCalibrateRho:
    def test_reaches_target_count(self):
        ds = _instance(43, 20, 40)
        for K in (8.0, 12.0):
            result = calibrate_rho(ds, 10.0, K, BERNOULLI_GAUSS, sigma_w2=4.0)
            assert abs(result.achieved_K - K) <= 1e-6 * max(1.0, K)
            assert 0.0 < result.rho < 1.0
            assert result.fit.state.converged
            np.testing.assert_allclose(
                float(np.sum(result.fit.inclusion_probs)), result.achieved_K)

    def test_float32_beta_calibrates_as_a_python_float_does(self):
        # a float32 beta once stalled the first probe's tilt solve
        ds = gen_synthetic(SynthConfig(N=20, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                       sigma_n0_sq=0.25, seed=1))[0]
        single = calibrate_rho(ds, np.float32(4.0), 2.0, BERNOULLI_GAUSS, 4.0)
        assert single.rho == calibrate_rho(ds, 4.0, 2.0, BERNOULLI_GAUSS, 4.0).rho

    def test_rho_increases_with_target(self):
        ds = _instance(43, 20, 40)
        r8 = calibrate_rho(ds, 10.0, 8.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        r12 = calibrate_rho(ds, 10.0, 12.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        assert r8.rho < r12.rho

    def test_target_bounds(self):
        ds = _instance(43, 20, 40)
        for K in (0.0, -3.0, 20.0, 25.0):
            with pytest.raises(DomainError):
                calibrate_rho(ds, 10.0, K, BERNOULLI_GAUSS, sigma_w2=4.0)

    def test_unreachable_target_rejected(self):
        # strong features stay included even at vanishing rho, so targets
        # below that count (or above the near-saturated top) are out of range
        ds = _instance(43, 20, 40)
        for K in (1e-9, 19.999999999):
            with pytest.raises(RangeError):
                calibrate_rho(ds, 10.0, K, BERNOULLI_GAUSS, sigma_w2=4.0)

    @pytest.mark.parametrize("family", ["laplace", BERNOULLI_UNIFORM])
    def test_bad_family_or_slab_rejected(self, family):
        with pytest.raises(ConfigError):
            calibrate_rho(_instance(43, 20, 40), 4.0, 8.0, family, sigma_w2=4.0)

    def test_non_monotone_probes_detected(self, monkeypatch):
        ds = _instance(49, 8, 12)
        calls = {"n": 0}

        def fake_fit(dataset, prior, beta, *, warm=None):
            calls["n"] += 1
            k = {1: 1.0, 2: 5.0}.get(calls["n"], 99.0)
            return SimpleNamespace(
                state=SimpleNamespace(converged=True, m=np.zeros(8)),
                inclusion_probs=np.array([k]))

        monkeypatch.setattr("ecreg.hyper.fit", fake_fit)
        with pytest.raises(NonMonotoneDetected):
            calibrate_rho(ds, 5.0, 3.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        assert calls["n"] == 3  # the two ends and the first bisection probe

    def test_bracket_that_cannot_shrink_stops(self, monkeypatch):
        # every probe above the target pulls the bracket's top down onto its
        # bottom; geometric bisection on [1e-8, 1 - 1e-8] collapses to
        # adjacent floats within 60 probes
        ds = _instance(49, 8, 12)
        calls = {"n": 0}

        def fake_fit(dataset, prior, beta, *, warm=None):
            calls["n"] += 1
            return SimpleNamespace(
                state=SimpleNamespace(converged=True, m=np.zeros(8)),
                inclusion_probs=np.array([1.0 if calls["n"] == 1 else 5.0]))

        monkeypatch.setattr("ecreg.hyper.fit", fake_fit)
        with pytest.raises(NonConvergence, match="cannot shrink"):
            calibrate_rho(ds, 5.0, 3.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        assert calls["n"] <= 60

    def test_unconverged_probe_raises(self, monkeypatch):
        ds = _instance(49, 8, 12)
        calls = {"n": 0}

        def fake_fit(dataset, prior, beta, *, warm=None):
            calls["n"] += 1
            return SimpleNamespace(
                state=SimpleNamespace(converged=calls["n"] == 1, m=np.zeros(8)),
                inclusion_probs=np.array([1.0]))

        monkeypatch.setattr("ecreg.hyper.fit", fake_fit)
        with pytest.raises(NonConvergence, match="probe at rho=1 did not converge"):
            calibrate_rho(ds, 5.0, 3.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        assert calls["n"] == 2  # the bracket's top end

    def test_each_probe_starts_from_the_previous_probe(self, monkeypatch):
        # probes restart from the previous probe's whole state (m, E, h and
        # Ltil), as literal refits restart from the full fit's; only the
        # bottom end fits cold
        starts, probes = [], []

        def recording_fit(*args, warm=None, **kwargs):
            starts.append(warm)
            probes.append(fit(*args, warm=warm, **kwargs))
            return probes[-1]

        monkeypatch.setattr("ecreg.hyper.fit", recording_fit)
        result = calibrate_rho(_instance(43, 20, 40), 10.0, 8.0, BERNOULLI_GAUSS,
                               sigma_w2=4.0)
        assert result.iterations == len(probes) > 3
        assert starts[0] is None
        assert all(start is probe.state for start, probe in zip(starts[1:], probes))

    def test_converged_probes_are_stationary(self, monkeypatch):
        # near rho = 1e-8 on this input the gradient stalls above grad_tol;
        # a probe there may report converged only through step_tol
        probes = []

        def recording_fit(*args, **kwargs):
            probes.append(fit(*args, **kwargs))
            return probes[-1]

        monkeypatch.setattr("ecreg.hyper.fit", recording_fit)
        ds, _, _ = gen_synthetic(SynthConfig(N=40, alpha=1.5, rho0=0.2, sigma_w0_sq=4.0,
                                             sigma_n0_sq=0.1, seed=5))
        beta = 8.0
        with pytest.raises(NonConvergence):
            calibrate_rho(ds, beta, 4.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        _assert_converged_probes_stationary(probes, ds, beta)

    @pytest.mark.parametrize("seed,rep", [(1, 3), (11, 3), (8, 2), (16, 3)])
    def test_orderings_that_stalled_at_the_rounding_floor(self, seed, rep, monkeypatch):
        # criterion 7's design under a seeded sample/feature permutation and
        # sign flip.  On these orderings a probe's line search once found no
        # decrease because Phi's cancelling summands leave only rounding
        # noise, and fit returned converged=False with the full step still
        # able to meet grad_tol.  Whether a probe takes such a rise depends on
        # Phi's last bits; TestFit::test_rise_within_rounding_is_taken_and_recorded
        # forces that branch.
        probes = []

        def recording_fit(*args, **kwargs):
            probes.append(fit(*args, **kwargs))
            return probes[-1]

        monkeypatch.setattr("ecreg.hyper.fit", recording_fit)
        ds = _criterion_7_design((seed, rep))
        result = calibrate_rho(ds, 2.0, 4.0, BERNOULLI_GAUSS, sigma_w2=1.0)
        assert result.fit.state.converged
        assert abs(result.rho - 0.013628260259863944) <= 1e-6 * 0.013628260259863944
        # no step of any probe rose by more than fit allowed it
        rises = [np.asarray(p.settings["allowed_rises"]) for p in probes]
        for p, r in zip(probes, rises):
            assert np.all(np.diff(p.settings["free_energies"]) <= r)
        _assert_converged_probes_stationary(probes, ds, 2.0)

    @pytest.mark.parametrize("ordering", [None, (1, 1), (3, 3), (10, 2)],
                             ids=["canonical", "1-1", "3-3", "10-2"])
    def test_no_probe_crawls_on_criterion_7_design(self, ordering, monkeypatch):
        # every probe starts from VAMP, seeded from the previous probe's tilt,
        # and stops at a point that meets grad_tol.  On the canonical design
        # and all 48 of the benchmark's orderings (seeds 0-11 x reps 0-3), at
        # beta 2 and 4, only the bottom end (1-2 steps) and at beta 2 the
        # first midpoint (1 step) took Newton steps.  With Newton as the
        # warm probes' solver the worst probe took 8-9 steps.
        newton = []

        def recording_fit(*args, **kwargs):
            res = fit(*args, **kwargs)
            newton.append(res.state.iterations)
            return res

        monkeypatch.setattr("ecreg.hyper.fit", recording_fit)
        ds = _criterion_7_design(ordering)
        for beta in (2.0, 4.0):
            newton.clear()
            calibrate_rho(ds, beta, 4.0, BERNOULLI_GAUSS, sigma_w2=1.0)
            assert max(newton) <= 2 and not any(newton[3:]), (beta, newton)

    def test_determinism(self):
        ds = _instance(43, 20, 40)
        a = calibrate_rho(ds, 10.0, 8.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        b = calibrate_rho(ds, 10.0, 8.0, BERNOULLI_GAUSS, sigma_w2=4.0)
        assert a.rho == b.rho
        assert a.achieved_K == b.achieved_K
        assert a.iterations == b.iterations


class TestCalibrate:
    def test_selects_per_target_around_a_failed_point(self, monkeypatch):
        ds = _instance(43, 20, 40)

        def failing_at_beta_5(dataset, beta, K, *args, **kwargs):
            if beta == 5.0:
                raise RangeError("unreachable here")
            return calibrate_rho(dataset, beta, K, *args, **kwargs)

        monkeypatch.setattr("ecreg.hyper.calibrate_rho", failing_at_beta_5)
        rows = calibrate(ds, BERNOULLI_GAUSS, [8.0, 12.0], [20.0, 5.0, 10.0], sigma_w2=4.0)
        assert [(r["K"], r["beta"]) for r in rows] == [
            (K, b) for K in (8.0, 12.0) for b in (20.0, 5.0, 10.0)]
        for K in (8.0, 12.0):
            group = [r for r in rows if r["K"] == K]
            failed = [r for r in group if r["beta"] == 5.0]
            assert failed[0]["error"] == "RangeError: unreachable here"
            assert [failed[0][key] for key in ("rho", "achieved_K", "eps", "eps_loo")] == [None] * 4
            assert failed[0]["selected"] is False
            ok = [r for r in group if r["error"] is None]
            for r in ok:
                cal = calibrate_rho(ds, r["beta"], K, BERNOULLI_GAUSS, sigma_w2=4.0)
                assert (r["rho"], r["achieved_K"]) == (cal.rho, cal.achieved_K)
                assert r["eps_loo"] == approx_looe(cal.fit, ds, r["beta"]).eps_loo
            selected = [r for r in group if r["selected"]]
            assert selected == [min(ok, key=lambda r: (r["eps_loo"], r["beta"]))]

    def test_all_points_failed(self, monkeypatch):
        def failing(*args, **kwargs):
            raise RangeError("unreachable here")

        monkeypatch.setattr("ecreg.hyper.calibrate_rho", failing)
        with pytest.raises(AllPointsFailed, match="unreachable here"):
            calibrate(_instance(43, 20, 40), BERNOULLI_GAUSS, [8.0], [5.0, 10.0],
                      sigma_w2=4.0)

    @pytest.mark.parametrize("family, K_targets, beta_grid, sigma_w2", [
        (BERNOULLI_GAUSS, [8.0], [-1.0, 4.0], 4.0),
        (BERNOULLI_GAUSS, [8.0], [4.0], -4.0),
        (BERNOULLI_GAUSS, [], [4.0], 4.0),
        ("laplace", [8.0], [4.0], 4.0),
        (BERNOULLI_UNIFORM, [8.0], [4.0], 4.0),
        # K must lie in (0, N) with N = 20
        (BERNOULLI_GAUSS, [0.0], [4.0], 4.0),
        (BERNOULLI_GAUSS, [8.0, float("nan")], [4.0], 4.0),
        (BERNOULLI_GAUSS, [20.0], [4.0], 4.0),
    ])
    def test_bad_input_raises_before_any_fit(self, monkeypatch, family, K_targets,
                                             beta_grid, sigma_w2):
        def never(*args, **kwargs):
            raise AssertionError("calibrate_rho called")

        monkeypatch.setattr("ecreg.hyper.calibrate_rho", never)
        with pytest.raises(ConfigError):
            calibrate(_instance(43, 20, 40), family, K_targets, beta_grid,
                      sigma_w2=sigma_w2)


class TestSelectBeta:
    def test_singleton_grid(self):
        ds = _instance(59, 12, 20)
        prior = bernoulli_gauss(0.3, 4.0)
        selection = select_beta(ds, prior, [7.0])
        assert selection.beta == 7.0
        direct = approx_looe(fit(ds, prior, 7.0), ds, 7.0)
        assert selection.report.eps_loo == direct.eps_loo
        assert len(selection.table) == 1

    def test_matches_ridge_argmin(self):
        ds = _instance(61, 10, 30, noise=0.3)
        s2 = 4.0
        betas = [0.5, 2.0, 8.0, 32.0]
        selection = select_beta(ds, bernoulli_gauss(1.0, s2), betas)
        oracle = {b: _ridge_loo_eps(ds, b, s2) for b in betas}
        for point in selection.table:
            np.testing.assert_allclose(point.eps_loo, oracle[point.beta],
                                       rtol=1e-6)
        assert selection.beta == min(oracle, key=oracle.get)

    def test_permutation_invariant(self):
        ds = _instance(63, 12, 24)
        prior = bernoulli_gauss(0.4, 3.0)
        a = select_beta(ds, prior, [1.0, 4.0, 16.0])
        b = select_beta(ds, prior, [16.0, 1.0, 4.0])
        assert a.beta == b.beta
        assert a.report.eps_loo == b.report.eps_loo
        table_a = sorted((p.beta, p.eps_loo) for p in a.table)
        table_b = sorted((p.beta, p.eps_loo) for p in b.table)
        assert table_a == table_b

    def test_empty_grid_rejected(self):
        ds = _instance(65, 6, 10)
        with pytest.raises(ConfigError):
            select_beta(ds, bernoulli_gauss(0.5, 2.0), [])

    def test_bad_beta_rejected(self):
        ds = _instance(65, 6, 10)
        with pytest.raises(ConfigError):
            select_beta(ds, bernoulli_gauss(0.5, 2.0), [1.0, 0.0])
