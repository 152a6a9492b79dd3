"""Tests for the scalar spike-and-slab prior computations.

Frozen reference values were computed with adaptive quadrature of
int phi(w) exp(-E w^2/2 + h w) w^k dw (scipy.integrate.quad over the whole
line, tolerance ~1e-12) independently of the closed forms under test.
"""

import warnings
from unittest import mock

import numpy as np
import pytest

from ecreg.errors import ConfigError, IntegrabilityViolation, RangeError
from ecreg.priors import (
    PriorSpec,
    _mixture,
    bernoulli_gauss,
    bernoulli_uniform,
    invert_mean,
    moments,
)


class TestPriorSpec:
    def test_helper_constructors(self):
        bg = bernoulli_gauss(0.3, 10.0)
        assert bg.rho == 0.3
        assert bg.sigma_w2 == 10.0
        bu = bernoulli_uniform(0.3)
        assert bu.sigma_w2 is None

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            bernoulli_gauss(1.5, 1.0)
        with pytest.raises(ConfigError):
            bernoulli_uniform(-0.1)

    def test_gauss_family_requires_positive_slab_variance(self):
        with pytest.raises(ConfigError):
            bernoulli_gauss(0.5, 0.0)
        with pytest.raises(ConfigError):
            PriorSpec("bernoulli_gauss", 0.5, None)
        for non_finite in (np.nan, np.inf):
            with pytest.raises(ConfigError):
                bernoulli_gauss(0.5, non_finite)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            PriorSpec("laplace", 0.5, 1.0)

    def test_flat_slab_takes_no_slab_variance(self):
        with pytest.raises(ConfigError):
            PriorSpec("bernoulli_uniform", 0.5, 1.0)

    def test_min_tilt(self):
        assert bernoulli_gauss(0.5, 4.0).min_tilt() == -0.25
        assert bernoulli_uniform(0.5).min_tilt() == 0.0


class TestMomentsFrozenValues:
    """Point values frozen from the quadrature oracle."""

    def test_bernoulli_gauss_point(self):
        mom = moments(bernoulli_gauss(0.5, 10.0), 1.0, 1.0)
        np.testing.assert_allclose(mom.log_partition, -0.30447685893382376,
                                   rtol=1e-12)
        np.testing.assert_allclose(mom.mean, 0.29276568983562473, rtol=1e-12)
        np.testing.assert_allclose(mom.variance + mom.mean**2, 0.5589163169589211,
                                   rtol=1e-11)
        np.testing.assert_allclose(mom.inclusion_prob, 0.3220422588191876,
                                   rtol=1e-11)

    def test_bernoulli_gauss_negative_field(self):
        mom = moments(bernoulli_gauss(0.2, 4.0), -3.0, 0.5)
        np.testing.assert_allclose(mom.log_partition, 3.8582834477848706,
                                   rtol=1e-12)
        np.testing.assert_allclose(mom.mean, -3.932466576316699, rtol=1e-11)
        np.testing.assert_allclose(mom.variance + mom.mean**2, 17.040688497372365,
                                   rtol=1e-11)
        np.testing.assert_allclose(mom.inclusion_prob, 0.9831166440791748,
                                   rtol=1e-11)

    def test_bernoulli_uniform_point(self):
        mom = moments(bernoulli_uniform(0.3), 1.5, 2.0)
        np.testing.assert_allclose(mom.log_partition, 0.49055720954513543,
                                   rtol=1e-12)
        np.testing.assert_allclose(mom.mean, 0.42855030780147385, rtol=1e-11)
        np.testing.assert_allclose(mom.variance + mom.mean**2, 0.607112936052088,
                                   rtol=1e-11)
        np.testing.assert_allclose(mom.inclusion_prob, 0.571400410401965,
                                   rtol=1e-11)

    def test_bernoulli_uniform_negative_field(self):
        mom = moments(bernoulli_uniform(0.7), -0.4, 0.25)
        np.testing.assert_allclose(mom.log_partition, 1.6356369699827455,
                                   rtol=1e-12)
        np.testing.assert_allclose(mom.mean, -1.506482448624982, rtol=1e-11)
        np.testing.assert_allclose(mom.variance + mom.mean**2, 6.176578039362422,
                                   rtol=1e-11)
        np.testing.assert_allclose(mom.inclusion_prob, 0.9415515303906128,
                                   rtol=1e-11)


class TestMomentsStructure:
    def test_pure_gaussian_reduces_to_linear_mean(self):
        # rho = 1, sigma_w2 = 1, E = 1, h = 2: mean = h*s2/(1+E*s2) = 1
        mom = moments(bernoulli_gauss(1.0, 1.0), 2.0, 1.0)
        np.testing.assert_allclose(mom.mean, 1.0, rtol=1e-14)
        assert mom.inclusion_prob == 1.0

    def test_zero_field_gives_zero_mean(self):
        for prior in (bernoulli_gauss(0.4, 3.0), bernoulli_uniform(0.4)):
            mom = moments(prior, 0.0, 1.7)
            assert mom.mean == 0.0

    def test_pure_spike_degenerates(self):
        mom = moments(bernoulli_gauss(0.0, 3.0), 5.0, 1.0)
        assert mom.mean == 0.0
        assert mom.variance + mom.mean**2 == 0.0
        assert mom.inclusion_prob == 0.0
        assert mom.log_partition == 0.0

    @pytest.mark.parametrize("family, E", [("bg", -0.3), ("bg", 1.5), ("bu", 0.7)])
    def test_pure_spike_and_pure_slab_closed_forms(self, family, E):
        # rho = 0 and rho = 1 take the general mixture formula, whose log
        # prior odds are -inf and +inf there, without a warning
        h = np.linspace(-30.0, 30.0, 41)
        if family == "bg":
            priors = bernoulli_gauss(0.0, 2.0), bernoulli_gauss(1.0, 2.0)
            a = 1.0 + E * 2.0
            log_z, mu, v = -0.5 * np.log(a) + h * h * (2.0 / (2.0 * a)), h * (2.0 / a), 2.0 / a
        else:
            priors = bernoulli_uniform(0.0), bernoulli_uniform(1.0)
            log_z, mu, v = 0.5 * np.log(2.0 * np.pi / E) + h * h / (2.0 * E), h / E, 1.0 / E
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spike, slab = [moments(prior, h, E) for prior in priors]
        zero = np.zeros_like(h)
        for got in (spike.log_partition, spike.mean, spike.inclusion_prob, spike.variance):
            np.testing.assert_array_equal(got, zero)
        np.testing.assert_array_equal(slab.log_partition, log_z)
        np.testing.assert_array_equal(slab.mean, mu)
        np.testing.assert_array_equal(slab.variance + slab.mean**2, v + mu * mu)
        np.testing.assert_array_equal(slab.inclusion_prob, np.ones_like(h))
        np.testing.assert_array_equal(slab.variance, np.full_like(h, v))

    def test_inclusion_prob_bounds(self):
        rng = np.random.default_rng(11)
        h = rng.uniform(-30.0, 30.0, size=200)
        for prior in (bernoulli_gauss(0.3, 5.0), bernoulli_uniform(0.3)):
            pi = moments(prior, h, 2.0).inclusion_prob
            assert np.all(pi >= 0.0)
            assert np.all(pi <= 1.0)

    def test_posterior_variance_positive(self):
        rng = np.random.default_rng(12)
        h = rng.uniform(-20.0, 20.0, size=200)
        for prior in (bernoulli_gauss(0.3, 5.0), bernoulli_uniform(0.3)):
            mom = moments(prior, h, 1.3)
            assert np.all(mom.variance > 0.0)

    def test_vectorized_matches_scalar(self):
        prior = bernoulli_gauss(0.25, 7.0)
        h = np.linspace(-8.0, 8.0, 17)
        vec = moments(prior, h, 0.9)
        for i, hi in enumerate(h):
            one = moments(prior, float(hi), 0.9)
            np.testing.assert_allclose(vec.mean[i], one.mean, rtol=1e-15)
            np.testing.assert_allclose(vec.log_partition[i], one.log_partition,
                                       rtol=1e-15)

    def test_large_field_stays_finite(self):
        # h^2/(2E) would overflow a naive exponential
        for prior in (bernoulli_gauss(0.5, 10.0), bernoulli_uniform(0.5)):
            mom = moments(prior, 1e4, 0.5)
            assert np.isfinite(mom.log_partition)
            assert np.isfinite(mom.mean)
            assert np.isfinite(mom.variance + mom.mean**2)

    def test_flat_slab_requires_positive_tilt(self):
        prior = bernoulli_uniform(0.5)
        with pytest.raises(IntegrabilityViolation):
            moments(prior, 1.0, 0.0)
        with pytest.raises(IntegrabilityViolation):
            moments(prior, 1.0, -1.0)

    def test_gauss_slab_tilt_boundary(self):
        prior = bernoulli_gauss(0.5, 2.0)
        with pytest.raises(IntegrabilityViolation):
            moments(prior, 1.0, -0.5)
        mom = moments(prior, 1.0, -0.25)  # still integrable above -1/sigma_w2
        assert np.isfinite(mom.log_partition)

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.3, 2.0), bernoulli_uniform(0.3)])
    def test_column_of_tilts_matches_scalar_calls(self, prior):
        # one E per column of an (N, K) h, as batched VAMP calls it
        rng = np.random.default_rng(13)
        h = rng.normal(0.0, 3.0, size=(9, 4))
        E = np.array([0.1, 0.7, 2.5, 40.0])
        batch = moments(prior, h, E)
        for k in range(4):
            one = moments(prior, h[:, k], float(E[k]))
            for field in ("mean", "variance", "inclusion_prob", "log_partition",
                          "kappa3", "kappa4"):
                assert np.array_equal(getattr(batch, field)[:, k], getattr(one, field)), field

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.3, 2.0), bernoulli_uniform(0.3)])
    def test_column_of_tilts_checks_every_tilt(self, prior):
        h = np.ones((2, 3))
        edge = prior.min_tilt()
        for bad in (edge, edge - 1.0, np.nan):
            with pytest.raises(IntegrabilityViolation):
                moments(prior, h, np.array([1.0, bad, 2.0]))


class TestMomentsDerivatives:
    """log_partition generates the moments: d/dh -> mean, -2 d/dE -> second."""

    def _fd_checks(self, prior, h, E):
        step = 1e-6
        up = moments(prior, h + step, E)
        down = moments(prior, h - step, E)
        d_dh = (up.log_partition - down.log_partition) / (2.0 * step)
        here = moments(prior, h, E)
        np.testing.assert_allclose(d_dh, here.mean, rtol=1e-5, atol=1e-9)
        up_e = moments(prior, h, E + step)
        down_e = moments(prior, h, E - step)
        d_de = -2.0 * (up_e.log_partition - down_e.log_partition) / (2.0 * step)
        np.testing.assert_allclose(d_de, here.variance + here.mean**2, rtol=1e-5,
                                   atol=1e-9)
        d_mean = (up.mean - down.mean) / (2.0 * step)
        np.testing.assert_allclose(d_mean, here.variance, rtol=1e-5, atol=1e-9)

    def test_bernoulli_gauss(self):
        h = np.linspace(-6.0, 6.0, 25)
        for E in (0.1, 1.0, 10.0):
            self._fd_checks(bernoulli_gauss(0.35, 5.0), h, E)

    def test_bernoulli_uniform(self):
        h = np.linspace(-6.0, 6.0, 25)
        for E in (0.1, 1.0, 10.0):
            self._fd_checks(bernoulli_uniform(0.35), h, E)

    def test_mean_strictly_increasing_in_field(self):
        rng = np.random.default_rng(21)
        for prior in (bernoulli_gauss(0.15, 8.0), bernoulli_uniform(0.15)):
            for _ in range(50):
                a, b = np.sort(rng.uniform(-25.0, 25.0, size=2))
                if a == b:
                    continue
                ma = moments(prior, a, 1.4).mean
                mb = moments(prior, b, 1.4).mean
                assert mb > ma


class TestCumulants:
    """kappa3 = dv/dh, and v_E = -(kappa4 + 2 v**2 + 2 m kappa3)/2 = dv/dE."""

    @pytest.mark.parametrize("prior,E", [
        (bernoulli_gauss(0.35, 5.0), -0.15),
        (bernoulli_gauss(0.35, 5.0), 0.5),
        (bernoulli_gauss(0.35, 5.0), 8.0),
        (bernoulli_uniform(0.35), 0.1),
        (bernoulli_uniform(0.35), 1.0),
        (bernoulli_uniform(0.35), 10.0),
    ], ids=["bg-neg", "bg-small", "bg-large", "bu-small", "bu-mid", "bu-large"])
    def test_match_derivatives_of_the_variance(self, prior, E):
        h = np.linspace(-40.0, 40.0, 161)
        mom = moments(prior, h, E)
        m, v, k3, k4 = mom.mean, mom.variance, mom.kappa3, mom.kappa4
        assert np.all(np.isfinite(k3)) and np.all(np.isfinite(k4))
        step = 1e-5
        dv_dh = (moments(prior, h + step, E).variance
                 - moments(prior, h - step, E).variance) / (2 * step)
        scale = float(np.max(np.abs(dv_dh)))
        np.testing.assert_allclose(k3, dv_dh, rtol=1e-5, atol=1e-7 * scale)
        step_e = 1e-6 * max(1.0, abs(E))
        dv_de = (moments(prior, h, E + step_e).variance
                 - moments(prior, h, E - step_e).variance) / (2 * step_e)
        v_e = -0.5 * (k4 + 2.0 * v * v + 2.0 * m * k3)
        scale = float(np.max(np.abs(dv_de)))
        np.testing.assert_allclose(v_e, dv_de, rtol=1e-5, atol=1e-7 * scale)

    def test_vanish_for_the_pure_slab(self):
        h = np.linspace(-40.0, 40.0, 9)
        for prior in (bernoulli_gauss(1.0, 5.0), bernoulli_uniform(1.0)):
            mom = moments(prior, h, 0.5)
            np.testing.assert_array_equal(mom.kappa3, 0.0)
            np.testing.assert_array_equal(mom.kappa4, 0.0)

    def test_fields_formed_on_first_read_are_pinned_to_the_bit(self):
        # values pinned when every field was formed with the object; at
        # these fields, grouping mu**2 or mu**4 otherwise moves the last bit
        mom = moments(bernoulli_gauss(0.2, 4.0), np.array([-4.0, -2.8, 2.2, 3.1]), 1.3)
        assert mom.kappa3.tolist() == [0.528182004436985, -0.6957372481905373,
                                       0.82210937383551, 0.17669585307419236]
        assert mom.kappa4.tolist() == [0.4602896406852653, -1.3111922007446735,
                                       0.5972099219658159, -1.9600610947936494]
        assert mom.log_partition.tolist() == [2.695119490604488, 0.5918597774433815,
                                              0.1678263816623512, 0.9489446821619847]


class TestInvertMean:
    def test_zero_target_gives_zero_field(self):
        for prior in (bernoulli_gauss(0.5, 2.0), bernoulli_uniform(0.5)):
            h, mom = invert_mean(prior, np.zeros(3), 1.0)
            np.testing.assert_array_equal(h, 0.0)
            np.testing.assert_array_equal(mom.mean, 0.0)

    def test_pure_gaussian_linear_inverse(self):
        # rho = 1, sigma_w2 = 1, E = 1: mean = h/2, so m = 1 gives h = 2
        h, _ = invert_mean(bernoulli_gauss(1.0, 1.0), np.array([1.0]), 1.0)
        np.testing.assert_allclose(h, 2.0, rtol=1e-12)

    def test_frozen_oracle_bernoulli_gauss(self):
        h, _ = invert_mean(bernoulli_gauss(0.5, 10.0), np.array([0.5]), 1.0)
        np.testing.assert_allclose(h, 1.3483231631264359, rtol=1e-10)

    def test_frozen_oracle_bernoulli_uniform(self):
        h, _ = invert_mean(bernoulli_uniform(0.3), np.array([-1.2]), 2.0)
        np.testing.assert_allclose(h, -2.827903414581056, rtol=1e-10)

    def test_residual_contract(self):
        # returned h reproduces the target mean to 1e-12*max(1, |m|)
        prior = bernoulli_gauss(0.3, 10.0)
        targets = np.array([0.5, -2.0, 7.5, 1e-4])
        h, _ = invert_mean(prior, targets, 2.0)
        back = moments(prior, h, 2.0).mean
        assert np.all(np.abs(back - targets) <= 1e-12 * np.maximum(1.0, np.abs(targets)))

    def test_roundtrip_over_field_grid(self):
        h_grid = np.linspace(-20.0, 20.0, 81)
        for prior in (bernoulli_gauss(0.3, 10.0), bernoulli_uniform(0.3)):
            for E in (0.1, 1.0, 10.0):
                m = moments(prior, h_grid, E).mean
                h_back, _ = invert_mean(prior, m, E)
                m_back = moments(prior, h_back, E).mean
                np.testing.assert_allclose(m_back, m, atol=1e-10, rtol=1e-10)

    def test_vectorized_targets(self):
        prior = bernoulli_uniform(0.4)
        targets = np.array([-3.0, -0.2, 0.0, 0.4, 5.0])
        h, _ = invert_mean(prior, targets, 1.5)
        back = moments(prior, h, 1.5).mean
        np.testing.assert_allclose(back, targets, atol=1e-12, rtol=1e-12)

    def test_warm_start_agrees_with_cold(self):
        prior = bernoulli_gauss(0.2, 6.0)
        target = np.array([1.25])
        cold, _ = invert_mean(prior, target, 0.8)
        warm, _ = invert_mean(prior, target, 0.8, h0=cold * 1.05)
        np.testing.assert_allclose(warm, cold, rtol=1e-10)

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.2, 4.0), bernoulli_uniform(0.2)],
                             ids=["bg", "bu"])
    @pytest.mark.parametrize("start", ["cold", "warm"])
    def test_moments_are_those_at_the_returned_field(self, prior, start):
        # the accepted pass's moments, with the odd fields signed by the
        # target, are moments() at the returned h to the bit, sign bits of
        # zeros included; the fields formed on first read agree whichever
        # of them is read first
        E = 1.3
        m = np.array([-2.5, -0.3, -0.0, 0.0, 1e-9, 0.7, 4.0])
        h0 = None if start == "cold" else np.array([-3.0, 1.0, np.nan, 2.0, 0.0, -1.0, 50.0])
        for lazy in (("kappa3", "kappa4", "log_partition"),
                     ("log_partition", "kappa4", "kappa3")):
            h, mom = invert_mean(prior, m, E, h0=h0)
            expected = moments(prior, h, E)
            for name in (*lazy, "mean", "inclusion_prob", "variance"):
                got, want = getattr(mom, name), getattr(expected, name)
                assert np.array_equal(got, want), name
                assert np.array_equal(np.signbit(got), np.signbit(want)), name

    @pytest.mark.parametrize("prior", [bernoulli_gauss(0.2, 4.0), bernoulli_uniform(0.2)],
                             ids=["bg", "bu"])
    @pytest.mark.parametrize("h0", [None, 0.0, 1e3, -1e3])
    def test_spike_to_slab_transition_target(self, prior, h0):
        # Newton that only keeps its iterate inside the bracket cycles on
        # this target for bg, started below the root (h0 = 0 or cold) or
        # above it (h0 = +-1e3 is clipped to the bracket's top)
        E, m_target = 20.42366241422203, np.array([0.028944513191871957])
        h, _ = invert_mean(prior, m_target, E, h0=h0)
        assert abs(float(moments(prior, h, E).mean[0]) - m_target[0]) <= 1e-12
        assert invert_mean(prior, -m_target, E, h0=h0)[0] == -h

    @pytest.mark.parametrize("h0", [None, "midpoint"])
    def test_root_on_the_bracket_edge_takes_few_passes(self, h0):
        # pi(lo) = 1 - 1.2e-9 puts the root on the bracket's top lo/pi(lo) to
        # rounding, so every Newton step lands on that edge; a safeguard that
        # rejects such a step (by a strict bracket test, or by a halving test
        # against the initial bracket width) bisects once per pass instead,
        # 17 or 18 passes.  Two more kernel calls form the bracket.
        prior = bernoulli_gauss(0.2, 4.0)
        E, m_target = 16.7585252939308, np.array([1.6822678075976432])
        if h0 == "midpoint":
            lo = m_target * (1.0 + E * 4.0) / 4.0
            h0 = 0.5 * (lo + lo / moments(prior, lo, E).inclusion_prob)
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _mixture(*args)

        with mock.patch("ecreg.priors._mixture", counted):
            h, _ = invert_mean(prior, m_target, E, h0=h0)
        assert abs(float(moments(prior, h, E).mean[0]) - m_target[0]) <= 1e-14 * m_target[0]
        assert calls[0] <= 2 + 4

    def test_pure_spike_rejects_nonzero_target(self):
        with pytest.raises(RangeError):
            invert_mean(bernoulli_gauss(0.0, 1.0), np.array([0.3]), 1.0)
        h, mom = invert_mean(bernoulli_gauss(0.0, 1.0), np.array([0.0]), 1.0)
        np.testing.assert_array_equal(h, 0.0)
        np.testing.assert_array_equal(mom.variance, 0.0)

    def test_invalid_tilt_rejected(self):
        with pytest.raises(IntegrabilityViolation):
            invert_mean(bernoulli_uniform(0.5), np.array([0.3]), -2.0)
