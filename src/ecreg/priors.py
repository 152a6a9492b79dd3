"""Scalar spike-and-slab prior computations.

Every coordinate of the regression weight carries a prior
(1-rho)*delta(w) + rho*slab(w).  Inference needs the moments of that prior
tilted by a quadratic exponential exp(-E*w^2/2 + h*w): the log partition
function, the tilted mean f(h;E), the tilted second moment and variance, the
posterior slab mass (inclusion probability), and the third and fourth
cumulants, all fields of ``ScalarMoments``.  Two slab families are shipped:

* ``bernoulli_gauss``   -- slab N(0, sigma_w2); integrable for E > -1/sigma_w2.
* ``bernoulli_uniform`` -- improper flat slab; integrable only for E > 0.

All closed forms are evaluated in log domain by one kernel, ``_mixture``,
which serves both ``moments`` and ``invert_mean``: the spike/slab mixture is
combined with logaddexp and a stable sigmoid of the log prior odds (-inf at
rho = 0, +inf at rho = 1) so that large h**2/(2E) never leaves the log
scale.  One kernel pass gives every field of ``ScalarMoments``, the log
partition and cumulants only on first read, and ``invert_mean`` returns those
of its accepting pass with the field h, so a caller never evaluates the
kernel again at the h it solved for.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from .errors import ConfigError, IntegrabilityViolation, NonConvergence, RangeError

BERNOULLI_GAUSS = "bernoulli_gauss"
BERNOULLI_UNIFORM = "bernoulli_uniform"

_FAMILIES = (BERNOULLI_GAUSS, BERNOULLI_UNIFORM)
_INVERT_PASSES = 200  # Newton passes of invert_mean


@dataclass(frozen=True)
class PriorSpec:
    """Sparse prior: family name, slab weight rho, slab variance (Gauss only)."""

    family: str
    rho: float
    sigma_w2: float | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown prior family {self.family!r}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {self.rho}")
        if self.family == BERNOULLI_GAUSS:
            if self.sigma_w2 is None or not 0.0 < self.sigma_w2 < np.inf:
                raise ConfigError(
                    f"bernoulli_gauss requires a finite sigma_w2 > 0, got {self.sigma_w2}")
        elif self.sigma_w2 is not None:
            raise ConfigError("bernoulli_uniform has a flat slab and takes no sigma_w2")

    def min_tilt(self):
        """Infimum of admissible E (exclusive)."""
        if self.family == BERNOULLI_UNIFORM:
            return 0.0
        return -1.0 / self.sigma_w2

    @cached_property
    def _log_weights(self):
        """(log(1-rho), log(rho)): -inf at rho = 1 and rho = 0 respectively."""
        with np.errstate(divide="ignore"):
            return np.log1p(-self.rho), np.log(self.rho)

    @cached_property
    def _log_odds(self):
        """log(rho/(1-rho)): -inf for the pure spike, +inf for the pure slab."""
        log_spike, log_slab = self._log_weights
        return log_slab - log_spike


def bernoulli_gauss(rho, sigma_w2):
    return PriorSpec(BERNOULLI_GAUSS, float(rho), float(sigma_w2))


def bernoulli_uniform(rho):
    return PriorSpec(BERNOULLI_UNIFORM, float(rho))


class ScalarMoments:
    """Moments of the tilted prior from one ``_mixture`` output (ln_zs, mu, s,
    pi); entries are scalars or arrays over h.

    ``mean``, ``inclusion_prob`` and ``variance`` are formed with the object,
    the variance in the cancellation-free form pi*s + pi*(1-pi)*mu**2.  The
    ``log_partition`` and the third and fourth cumulants ``kappa3`` = dv/dh
    and ``kappa4`` = d2v/dh2, in cancellation-free mixture forms that vanish
    at rho = 1, are formed on first read and cached.
    """

    def __init__(self, prior, ln_zs, mu, s, pi):
        self.mean, self.inclusion_prob = pi * mu, pi
        self.variance = pi * s + pi * (1.0 - pi) * mu * mu
        self._log_weights, self._mixture = prior._log_weights, (ln_zs, mu, s, pi)

    @cached_property
    def log_partition(self):
        log_spike, log_slab = self._log_weights
        return np.logaddexp(log_spike, log_slab + self._mixture[0])

    @cached_property
    def kappa3(self):
        _, mu, s, pi = self._mixture
        return pi * (1.0 - pi) * mu * ((1.0 - 2.0 * pi) * (mu * mu) + 3.0 * s)

    @cached_property
    def kappa4(self):
        _, mu, s, pi = self._mixture
        pq, mu2 = pi * (1.0 - pi), mu * mu
        return pq * ((1.0 - 6.0 * pq) * mu2 * mu2 + 6.0 * (1.0 - 2.0 * pi) * mu2 * s + 3.0 * s * s)


def _check_tilt(prior, E):
    """IntegrabilityViolation unless the float E, or every entry of the
    array E, lies above the integrability edge."""
    above = E > prior.min_tilt()
    if not (above if isinstance(E, float) else above.all()):
        raise IntegrabilityViolation(
            f"tilted {prior.family} prior needs E > {prior.min_tilt()}, got E = {np.min(E)}")


def _slab(prior, E):
    """The parts of the slab tilted by exp(-E*w**2/2 + h*w) that do not depend
    on h: its log partition at h = 0 and its variance s."""
    if prior.family == BERNOULLI_GAUSS:
        t = 1.0 + E * prior.sigma_w2
        return -0.5 * np.log(t), prior.sigma_w2 / t
    return 0.5 * np.log(2.0 * np.pi / E), 1.0 / E


def _mixture(prior, h, E, slab):
    """(log partition, mean, variance) of the tilted slab and the inclusion
    probability pi = rho*Z_slab / ((1-rho) + rho*Z_slab), for any rho in [0, 1];
    ``slab`` is _slab(prior, E), formed once per E."""
    ln_z0, s = slab
    if prior.family == BERNOULLI_GAUSS:
        ln_zs, mu = ln_z0 + h * h * (0.5 * s), h * s
    else:
        ln_zs, mu = ln_z0 + h * h / (2.0 * E), h / E
    return ln_zs, mu, s, expit(prior._log_odds + ln_zs)


def moments(prior, h, E):
    """Moments of the prior tilted by exp(-E*w**2/2 + h*w).

    ``h`` may be a scalar or an array; ``E`` is a scalar or an array that
    broadcasts against h, such as one entry per column of an (N, K) h, and
    every E must lie above the integrability edge.  Returns exact
    closed-form values: mean = pi * mu_slab, variance =
    pi * v_slab + pi * (1-pi) * mu_slab**2, pi = rho*Z_slab / ((1-rho) +
    rho*Z_slab), with Z_slab the tilted slab partition function.
    """
    E = np.asarray(E, dtype=float)
    if E.size == 1:
        E = E.item()  # one tilt takes scalar arithmetic, as a float E does
    _check_tilt(prior, E)
    return ScalarMoments(prior, *_mixture(prior, np.asarray(h, dtype=float), E, _slab(prior, E)))


# ---------------------------------------------------------------------------
# mean inversion
# ---------------------------------------------------------------------------

def invert_mean(prior, m_target, E, h0=None):
    """Solve moments(prior, h, E).mean == m_target for h; returns (h, moments).

    The tilted mean pi(h) * mu_slab(h) is odd and strictly increasing in h
    (its h-derivative is the tilted variance), so the root is unique.  For a
    target |m| the slab inverse lo (mu_slab(lo) = |m|) lies below the root,
    since pi < 1, and lo / pi(lo) lies above it, since pi grows with |h|:
    one evaluation brackets every coordinate.  Newton runs on |h| from the
    clipped warm start |h0| (or from lo) with an rtsafe-style safeguard: a
    step that leaves the closed bracket, or (from the third pass on) is not
    half the step from two passes earlier, is replaced by the bracket's
    geometric midpoint.  A step may land on an edge: when pi(lo) is within
    rounding of 1 the root sits on lo / pi(lo), and every Newton step lands
    there.  A zero target has the bracket [0, 0] and is done at the first
    pass; a pure spike (rho = 0) brackets no other target and raises
    RangeError.  Vectorized over the array m_target; converged coordinates
    stop moving.  Residual target 1e-14*max(1, |m_target|); a stalled
    iterate is accepted within 1e-12*max(1, |m_target|).

    The moments are the ScalarMoments of the accepted pass, with the slab
    mean signed by m_target, so they equal moments(prior, h, E) bit for bit.
    """
    E = float(E)
    _check_tilt(prior, E)
    slab = _slab(prior, E)
    m = np.asarray(m_target, dtype=float)
    mt = np.abs(m)
    # slab inverse: mu_slab(lo) = |m| with mu_slab = h * v_slab rounded
    # as _mixture rounds it
    lo = mt / slab[1]
    pi_lo = _mixture(prior, lo, E, slab)[3]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = np.where(lo > 0.0, lo / pi_lo, lo)
    if not np.isfinite(hi).all():
        raise RangeError("mean target not bracketed: inclusion probability underflows")
    x = lo.copy()
    if h0 is not None:
        warm = np.abs(np.asarray(h0, dtype=float))
        x = np.where(np.isnan(warm), lo, np.clip(warm, lo, hi))
    tol = 1e-14 * np.maximum(1.0, mt)
    # no step precedes the first two passes, so only the bracket guards them
    step = step_old = np.full_like(lo, np.inf)
    # the last pass only evaluates the iterate the one before it stepped to
    for left in range(_INVERT_PASSES, -1, -1):
        ln_zs, mu, s, pi = _mixture(prior, x, E, slab)
        err = pi * mu - mt
        done = np.abs(err) <= tol
        if done.all() or not left:
            break
        lo = np.where(err < 0.0, x, lo)
        hi = np.where(err > 0.0, x, hi)
        newton = err / np.maximum(pi * s + pi * (1.0 - pi) * mu * mu, 1e-300)
        xn = x - newton
        # written so that a NaN step fails the bracket test
        bisect = ~((xn >= lo) & (xn <= hi)) | (np.abs(newton) > 0.5 * np.abs(step_old))
        if bisect.any():
            xn = np.where(bisect, np.sqrt(lo) * np.sqrt(hi), xn)
        xn = np.where(done, x, xn)
        step_old, step = step, xn - x
        if not step.any():
            break
        x = xn
    # accept a stalled iterate only within the contractual tolerance
    if not (np.abs(err) <= 1e-12 * np.maximum(1.0, mt)).all():
        raise NonConvergence(f"mean inversion stalled, residual {np.abs(err).max():.3e}")
    # the passes ran on |h|; the slab mean is odd in h, and negating it
    # negates mean and kappa3 exactly
    return np.copysign(x, m), ScalarMoments(prior, ln_zs, np.copysign(mu, m), s, pi)
