"""Expectation-consistent free-energy minimization.

The posterior over weights is approximated by matching a factorized tilted
prior (fields h_i, shared precision E) with a Gaussian channel term whose
spectral part is handled through the eigenvalues of X X^T.  The resulting
free energy of an estimator m is

    Phi(m) = beta*RSS(m) + (1/2) sum_k ln(lambda_k + Ltil)
             - (N/2)*beta*chi*Ltil + (N/2) ln(beta*chi) + N/2
             - (N/2)*E*Q + h.m - sum_i ln Z_i(h_i, E),

where chi = Q - q is the average posterior variance, Ltil solves the secular
equation (1/N) sum_k 1/(lambda_k + Ltil) = beta*chi, and (h, E) are chosen so
the tilted means reproduce m and E = 1/chi - beta*Ltil.  solve_tilt closes
that consistency by Newton steps on E at fixed m, with the exact slope of
_tilt_slope, and starts each mean inversion from h moved along the tangent
of the fixed-m curve h(E); a flat slab whose gram has a zero eigenvalue
keeps a secant step.  The tilted prior is evaluated only inside
invert_mean, whose accepting pass gives its moments and cumulants; the
TiltResult keeps them for Phi, the curvature, the rank-one term and the
fitted state.  fit() minimizes Phi by damped Newton steps on its exact
Hessian: the partial curvature H = beta*XX^T + diag(1/var_i - E), which
holds E (and through chi also Ltil) fixed, plus the rank-one term that E's
dependence on m adds (from the same _tilt_slope derivatives), applied to
H's Cholesky factor by Sherman-Morrison.  A flat slab whose gram has a zero
eigenvalue steps with H alone, and an indefinite H with H's diagonal term
replaced by its absolute value.  Steps backtrack until Phi falls or, for a
full step, rises within rounding while the gradient falls; converged means
the gradient or the undamped step is below tolerance.  The fitted state
keeps the tilted variances, from which the LOO formula forms H.

Every fit, whatever the prior, first runs _vamp_start: damped VAMP on the
eigendecomposition of the smaller of X^T X and X X^T that Dataset caches,
whose fixed point is the EC fixed point (E = gamma1, h = gamma1*r1).  A fit
warm-started from an earlier fit's state (a calibration probe, a k-fold
block) seeds VAMP at that state's tilt.  VAMP's point normally meets the
gradient tolerance, so the Newton loop stops before its first step and
forms no curvature.  When VAMP leaves its domain, stalls or
runs out of iterations, Newton solves the fit: from m = 0, or from the warm
state's m with its first tilt solve at that state's (E, h).  _vamp_start is
the one-problem case of _vamp, which also iterates one problem per held-out
sample at once, each a rank-one Woodbury downdate on the full dataset's
eigendecomposition.  Leave-one-out cross-validation runs every fold through
it, then refits each fold from its batched point, or the full fit's where
its problem gave up, with no VAMP pass of its own: the Newton loop starts
there and steps until the gradient test holds on the fold's data, and the
fold's spectrum comes from eigvalsh, with no eigenvectors.

For a pure Gaussian prior (rho = 1 slab) this construction is exact: m is the
ridge posterior mean and Phi equals the exact negative log evidence with zero
additive constant.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import linalg as sla

from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    DomainError,
    InfeasibleTilt,
    NonConvergence,
    SingularHessian,
    VarianceCollapse,
)
from .priors import BERNOULLI_UNIFORM, ScalarMoments, invert_mean, moments

_EPS = float(np.finfo(float).eps)
_STEP_FLOOR = 2.0 ** -20  # fit halves a step no further
_VARIANCE_FLOOR = 1e-12  # a tilted variance below it (or NaN) raises VarianceCollapse
_TILT_TOL = 1e-10  # solve_tilt's relative residual on E above |E| = 1

# ---------------------------------------------------------------------------
# dataset and spectrum
# ---------------------------------------------------------------------------


class Dataset:
    """Design matrix X (N features x M samples) and response vector y.

    Immutable by convention; the gram matrix, X y, and the eigenvalues of
    X X^T are computed lazily once and shared by every fit on the dataset.
    The eigenvalues are those of the smaller gram, X^T X (M x M) on a wide
    design (M < N) and X X^T otherwise, padded with N - M exact zeros on a
    wide one.  fit's VAMP start caches that gram's eigendecomposition
    W diag(s) W^T, and no N x M basis is stored; the eigenvalues are s when
    (s, W) is cached before they are first read, and from eigvalsh otherwise.
    """

    def __init__(self, X, y):
        X = np.array(X, dtype=float, order="C")
        y = np.array(y, dtype=float)
        if X.ndim != 2:
            raise DimensionMismatch(f"X must be 2-D, got ndim={X.ndim}")
        if y.ndim != 1:
            raise DimensionMismatch(f"y must be 1-D, got ndim={y.ndim}")
        if y.size != X.shape[1]:
            raise DimensionMismatch(
                f"y has {y.size} entries but X has {X.shape[1]} samples")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise DimensionMismatch("need at least one feature and one sample")
        if not np.isfinite(X).all():
            i, j = np.argwhere(~np.isfinite(X))[0]
            raise DomainError(f"X[{i}, {j}] = {float(X[i, j])} is not finite")
        bad = np.flatnonzero(~np.isfinite(y))
        if bad.size:
            raise DomainError(f"y[{bad[0]}] = {float(y[bad[0]])} is not finite")
        self.X = X
        self.y = y

    @property
    def n_features(self):
        return self.X.shape[0]

    @property
    def n_samples(self):
        return self.X.shape[1]

    @property
    def alpha(self):
        return self.X.shape[1] / self.X.shape[0]

    @cached_property
    def gram(self):
        return self.X @ self.X.T

    @cached_property
    def xy(self):
        return self.X @ self.y

    def _smaller_gram(self, solver):
        """solver (np.linalg.eigh or eigvalsh) on the smaller gram, X^T X
        when M < N and X X^T otherwise; DecompositionFailure if it fails."""
        n, m = self.X.shape
        try:
            return solver(self.X.T @ self.X if m < n else self.gram)
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailure(str(exc)) from exc

    @cached_property
    def _thin_eigh(self):
        """(s, W), ascending: the eigendecomposition W diag(s) W^T of the
        smaller gram."""
        return self._smaller_gram(np.linalg.eigh)

    @cached_property
    def _spectrum(self):
        n, m = self.X.shape
        # an eigendecomposition a VAMP pass cached, or the eigenvalues alone
        s = (self._thin_eigh[0] if "_thin_eigh" in self.__dict__
             else self._smaller_gram(np.linalg.eigvalsh))
        lam = np.concatenate([np.zeros(max(n - m, 0)), s])
        # the clamp also lifts a rounding-negative s, so lam stays ascending
        lam_max = float(lam[-1]) if lam.size else 0.0
        if lam_max <= 0.0:
            lam = np.zeros_like(lam)
        else:
            lam = np.where(lam < 1e-12 * lam_max, 0.0, lam)
        return lam


def spectrum(dataset):
    """Cached ascending eigenvalues of the dataset's gram matrix X X^T, with
    those below 1e-12 times the largest clamped to zero: the dataset's cached
    eigendecomposition's when a fit has formed it, else eigvalsh's, which
    can differ in the last bits.  DecompositionFailure when the solve fails."""
    return dataset._spectrum


# ---------------------------------------------------------------------------
# stationarity solves
# ---------------------------------------------------------------------------


def _secular_newton(lam, target, L):
    """Residual s(L) - target of the secular equation and the Newton iterate.

    The step r/|ds| with ds = -mean(u**2) is factored through the largest
    entry of u = 1/(lambda + L), so nothing overflows when the root sits
    near 1e-150.
    """
    u = 1.0 / (lam + L)
    r = float(u.sum()) / u.size - target
    u_max = float(u.max())
    v = u / u_max
    return r, L + (r / u_max) / (u_max * (float((v * v).sum()) / v.size))


def _checked_beta(beta):
    """beta as a Python float, so no float32 product such as beta*chi stalls
    a solve; DomainError unless it is finite and positive."""
    if not 0.0 < beta < np.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    return float(beta)


def solve_lambda(lam, beta, chi):
    """Solve (1/N) sum_k 1/(lambda_k + Ltil) = beta*chi for Ltil.

    The left side s(L) is strictly decreasing in Ltil on (-lambda_min, inf)
    and spans (0, inf), so the root exists and is unique; it is positive
    whenever any eigenvalue is zero or beta*chi exceeds (1/N) sum 1/lambda_k,
    and may be negative (but > -lambda_min) otherwise.

    At most 200 Newton steps on delta = Ltil + lambda_min, so a root near the
    pole keeps its relative precision.  With mu = lambda - lambda_min, f0 the
    fraction of mu that are 0 and mu_bar their mean, s(delta) >= f0/delta
    and, by Jensen's inequality, s(delta) >= 1/(mu_bar + delta), so the
    start delta0 = max(f0, 1 - beta*chi*mu_bar)/(beta*chi) lies at or below
    the root.  s is convex, so from there Newton climbs monotonically to the
    root; a step that rounding sends out of the domain goes halfway to the
    pole instead.  NonConvergence when delta0 overflows, or unless the
    relative residual reaches 1e-12.  A root within half an ulp of the pole,
    where delta - lambda_min rounds to -lambda_min or below, returns the
    float just above -lambda_min, so every lambda_k + Ltil stays positive.
    """
    beta = _checked_beta(beta)
    if not chi > 0.0:
        raise DomainError(f"chi must be positive, got {chi}")
    lam_min = float(lam.min())
    mu = lam - lam_min
    target = float(beta * chi)  # a Python float overflows to inf without a warning

    def ltil(delta):
        out = float(delta - lam_min)
        return out if out + lam_min > 0.0 else float(np.nextafter(-lam_min, np.inf))

    f0 = int(np.count_nonzero(mu == 0.0)) / mu.size
    delta = max(f0, 1.0 - target * float(mu.mean())) / target if target > 0.0 else math.inf
    if not 0.0 < delta < math.inf:
        raise NonConvergence(f"secular root overflows at beta*chi = {target:.3e}")
    for _ in range(200):
        r, dn = _secular_newton(mu, target, delta)
        if abs(r) <= 1e-13 * target:
            return ltil(delta)
        if dn <= 0.0:
            dn = 0.5 * delta
        if not math.isfinite(dn) or dn == delta:
            break
        delta = dn
    r = float((1.0 / (mu + delta)).sum()) / mu.size - target
    if abs(r) <= 1e-12 * target:
        return ltil(delta)
    raise NonConvergence(f"secular solve stalled, relative residual {abs(r) / target:.3e}")


@dataclass(frozen=True)
class TiltResult:
    """Self-consistent tilt at a fixed estimator m.  ``moments`` holds the
    tilted prior's moments and cumulants at (h, E), as the accepting pass of
    the accepted evaluation's invert_mean computed them; nothing recomputes
    them."""

    h: np.ndarray
    E: float
    Q: float
    q: float
    chi: float
    lambda_tilde: float
    moments: ScalarMoments


def _flat_slab_with_zero_modes(prior, lam):
    """A flat slab on a gram with a zero eigenvalue, whose null directions get
    curvature from neither data nor slab (see solve_tilt)."""
    return prior.family == BERNOULLI_UNIFORM and lam[0] == 0.0


def _default_tilt_origin(prior, beta, lam_bar):
    if prior.sigma_w2 is not None:
        return beta * lam_bar + 1.0 / prior.sigma_w2
    return beta * lam_bar + 1.0


def solve_tilt(m, prior, beta, lam, E0=None, h0=None):
    """Find (h, E) with tilted means equal to m and E = 1/chi - beta*Ltil.

    The scalar consistency r(E) = E_new(E) - E = 0 is solved from E0 (by
    default above the physical root) in at most FitSettings.max_inner
    evaluations of E_new, each one invert_mean from h0 and one solve_lambda.
    Each step is Newton's on r at fixed m, with the exact slope dr/dE = k*b - 1
    of _tilt_slope (Nocedal & Wright, Numerical Optimization, ch. 11), and
    the next invert_mean starts from h + (dh/dE)*dE, the tangent of the
    fixed-m curve h(E).  Where that slope is not finite and negative, or the
    Newton candidate leaves (E_min, inf), the step falls back to the secant
    through the last two evaluations, or to the damped fixed point E + r/2,
    halved towards E_min if it leaves the domain.  A flat slab whose gram has a
    zero eigenvalue takes that fallback at every step (fit drops the
    rank-one term there too), because Newton's step leaves its consistency
    unclosed within the budget where the secant closes it.  Residual on E
    <= _TILT_TOL*max(1, |E|); below |E| = 1 that test is absolute, so on a
    flat slab with zero modes, where r ~ -f0*E near 0 (f0 the zero-mode
    fraction), any E below _TILT_TOL/f0 passes.

    Near E_min, r > 0 for the Gaussian slab (chi -> inf, so E_new ->
    beta*lambda_min >= 0 > -1/sigma_w2) and for the flat slab on a full-rank
    gram, so a root exists and an exhausted budget raises NonConvergence.
    On a flat slab whose gram has a zero eigenvalue, E_new/E -> 1 - f0 < 1
    as E -> 0: the null directions have no curvature from either data or
    slab, and r can stay negative down to the integrability edge.  An
    exhausted budget there raises InfeasibleTilt unless some evaluation saw
    r > 0.
    """
    beta = _checked_beta(beta)
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise DomainError("m contains non-finite entries")
    if prior.rho == 0.0:
        raise InfeasibleTilt(
            "pure spike prior has zero tilted variance; the tilt system is undefined")
    E_min = prior.min_tilt()
    max_inner = FitSettings.max_inner
    q = float(m @ m) / m.size

    E = (float(E0) if E0 is not None
         else _default_tilt_origin(prior, beta, float(lam.sum()) / lam.size))
    if E <= E_min:
        E = E_min + max(1e-8, 1e-8 * abs(E_min))
    secant_only = _flat_slab_with_zero_modes(prior, lam)
    h, r, rose, E_last, r_last = h0, np.nan, False, None, None
    for _ in range(max_inner):
        h, mom = invert_mean(prior, m, E, h0=h)
        chi = float(mom.variance.sum()) / m.size
        if not chi > 0.0:
            raise InfeasibleTilt(f"tilted variances vanished at E = {E}")
        ltil = solve_lambda(lam, beta, chi)
        r = 1.0 / chi - beta * ltil - E
        # 1/chi - beta*Ltil cancels two O(1/chi) terms, so the residual
        # cannot be resolved below a few eps/chi; accept at that floor.
        if abs(r) <= max(_TILT_TOL * max(1.0, abs(E)), 8.0 * _EPS / chi):
            return TiltResult(h=h, E=float(E), Q=q + chi, q=q, chi=chi,
                              lambda_tilde=ltil, moments=mom)
        rose = rose or r > 0.0
        E_next = h_E = None
        if not secant_only:
            k, b, f_E = _tilt_slope(m, mom, chi, ltil, beta, lam)
            h_E = -f_E / mom.variance
            slope = k * b - 1.0
            if -np.inf < slope < 0.0:
                cand = E - r / slope
                if cand > E_min:
                    E_next = cand
        if E_next is None:
            if r_last is not None and r != r_last:
                cand = E - r * (E - E_last) / (r - r_last)
                if np.isfinite(cand) and cand > E_min:
                    E_next = cand
            if E_next is None:
                E_next = E + 0.5 * r
            if E_next <= E_min:
                E_next = 0.5 * (E + E_min)
        if h_E is not None:
            # the tangent of the fixed-m curve h(E); invert_mean clips it
            # into its bracket and replaces a NaN by the bracket's lower end
            h = h + h_E * (E_next - E)
        E_last, r_last = E, r
        E = E_next
    if secant_only and not rose:
        raise InfeasibleTilt(f"E_new(E) < E at all {max_inner} evaluations "
                             "on a flat slab with zero modes")
    raise NonConvergence(f"tilt fixed point stalled after {max_inner} evaluations, "
                         f"residual {abs(r):.3e}")


# ---------------------------------------------------------------------------
# gradient, hessian, free energy
# ---------------------------------------------------------------------------


def gradient(m, h, E, dataset, beta):
    """Free-energy gradient -beta*X(y - X^T m) - E*m + h at a solved tilt."""
    residual = dataset.y - dataset.X.T @ m
    return -beta * (dataset.X @ residual) - E * m + h


def hessian(variances, E, dataset, beta):
    """Curvature beta*XX^T + diag(1/variances - E), with the tilted variances
    of a solved tilt (TiltResult.moments.variance, ECState.variance)."""
    return _curvature(variances, E, dataset, beta)[0]


def _checked_variances(v):
    """The array v; VarianceCollapse when an entry is NaN or below the floor."""
    idx = int(np.argmin(v))
    if not v[idx] >= _VARIANCE_FLOOR:
        raise VarianceCollapse(idx, v[idx])
    return v


def _curvature(variances, E, dataset, beta):
    """hessian() and its diagonal term d = 1/variances - E."""
    d = 1.0 / _checked_variances(np.asarray(variances, dtype=float)) - E
    H = beta * dataset.gram
    H.flat[::H.shape[0] + 1] += d
    return H, d


def _tilt_slope(m, mom, chi, ltil, beta, lam):
    """(k, b, f_E) at a tilt evaluation with the tilted prior's moments mom,
    chi = mean(mom.variance) and Ltil = Ltil(chi), for a fixed estimator m.

    k = d(1/chi - beta*Ltil)/dchi, using dLtil/dchi = -beta/mean(u**2) with
    u = 1/(lambda + Ltil); f_E is the E-derivative of the tilted means at
    fixed h, so h moves with E as dh/dE = -f_E/v at fixed m; and b = dchi/dE
    at fixed m, from the cumulants mom.kappa3 = dv/dh and mom.kappa4.  f_E
    and v_E take the means from the target m.  The consistency residual
    r(E) = 1/chi - beta*Ltil - E has slope dr/dE = k*b - 1 at fixed m.
    """
    v, k3, k4 = mom.variance, mom.kappa3, mom.kappa4
    f_E = -0.5 * k3 - m * v
    v_E = -0.5 * (k4 + 2.0 * v * v + 2.0 * m * k3)
    b = float((v_E - k3 * f_E / v).sum()) / v.size
    u = 1.0 / (lam + ltil)
    # numpy division: an underflowed mean(u**2) gives k = inf
    k = -1.0 / (chi * chi) + beta * beta / ((u * u).sum() / u.size)
    return k, b, f_E


def _coupling(m, tilt, beta, lam):
    """(a, c) at a solved tilt: the exact Hessian of Phi is H + c*a*a^T, H
    being hessian()'s partial curvature.

    E moves with m through E = 1/chi - beta*Ltil(chi), so dE/dm =
    k/(1 - k*b) * a = (2c/N) * a with a = kappa3/(N*v) and k, b from
    _tilt_slope, all read from tilt.moments.  A non-finite k gives a
    non-finite c, which fit answers with H's step.
    """
    mom = tilt.moments
    k, b, _ = _tilt_slope(m, mom, tilt.chi, tilt.lambda_tilde, beta, lam)
    n = m.size
    return mom.kappa3 / (n * mom.variance), 0.5 * n * k / (1.0 - k * b)


def _free_energy_terms(m, tilt, dataset, beta):
    """The summands of Phi(m) at a solved tilt, in the module docstring's order."""
    residual = dataset.y - dataset.X.T @ m
    rss = 0.5 * float(residual @ residual)
    lam = spectrum(dataset)
    n = m.size
    return [
        beta * rss,
        0.5 * np.sum(np.log(lam + tilt.lambda_tilde)),
        -0.5 * n * beta * tilt.chi * tilt.lambda_tilde,
        0.5 * n * np.log(beta * tilt.chi),
        0.5 * n,
        -0.5 * n * tilt.E * tilt.Q,
        float(tilt.h @ m),
        -float(np.sum(tilt.moments.log_partition)),
    ]


def _free_energy_at(m, tilt, dataset, beta):
    phi = 0.0
    # plain left-to-right sum; sum() compensates on Python >= 3.12
    for term in _free_energy_terms(m, tilt, dataset, beta):
        phi += term
    return float(phi)


def objective(dataset, prior, beta, m, E0=None, h0=None):
    """Variational objective at an arbitrary estimate m.

    Re-solves the tilt consistency at this m and evaluates the free energy
    there; fit minimizes exactly this function of m.  E0/h0 warm-start the
    tilt solve; at a fitted state m with E0=state.E, h0=state.h it returns
    state.free_energy.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (dataset.n_features,):
        raise DimensionMismatch(
            f"m has shape {m.shape}, expected ({dataset.n_features},)")
    tilt = solve_tilt(m, prior, beta, spectrum(dataset), E0=E0, h0=h0)
    return _free_energy_at(m, tilt, dataset, beta)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


class FitSettings:
    """Fixed bounds of fit: it stops once the gradient inf-norm is at most
    grad_tol*max(1, ||beta*X y||_inf) or the undamped Newton step at most
    step_tol*max(1, ||m||_inf), after at most max_outer Newton steps.  Each
    tilt solve makes at most max_inner evaluations.  The one-fit LOO formula
    holds only at a stationary fit, so these are constants, read at call
    time; FitSettings() takes no arguments."""

    grad_tol = 1e-8
    step_tol = 1e-10
    max_outer = 500
    max_inner = 60


@dataclass(frozen=True)
class ECState:
    m: np.ndarray
    h: np.ndarray
    E: float
    variance: np.ndarray
    Q: float
    q: float
    chi: float
    lambda_tilde: float
    free_energy: float
    grad_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitResult:
    state: ECState
    inclusion_probs: np.ndarray
    settings: dict


def _chol_solve_modified(H, d, rhs):
    """H^{-1} rhs and False when H = beta*XX^T + diag(d) is positive definite.
    Otherwise the solve with d replaced by max(|d|, 1e-8*trace(H)/n), which
    is positive definite because beta*XX^T is semidefinite, and True; this
    overwrites H's diagonal.  Two factorizations at most (Nocedal & Wright,
    Numerical Optimization, 3.4)."""
    try:
        return sla.cho_solve(sla.cho_factor(H, lower=True, check_finite=False), rhs,
                             check_finite=False), False
    except np.linalg.LinAlgError:
        pass
    H[np.diag_indices_from(H)] += np.maximum(np.abs(d), 1e-8 * float(np.trace(H)) / d.size) - d
    try:
        cf = sla.cho_factor(H, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian("modified curvature is not positive definite") from exc
    return sla.cho_solve(cf, rhs, check_finite=False), True


# 1 + c*a^T H^{-1} a = det(H + c*a*a^T)/det(H); below this the exact Hessian
# is taken as not positive definite
_SM_FLOOR = 1e-8


def _newton_direction(H, d, grad, coupling):
    """-(H + c*a*a^T)^{-1} grad for coupling = (a, c), by Sherman-Morrison on
    the one factor of H = beta*XX^T + diag(d).  -H^{-1} grad instead when
    coupling is None, c is not finite, or H + c*a*a^T is not safely positive
    definite; when H is indefinite, the step of _chol_solve_modified's
    positive definite modification, without the rank-one term."""
    if coupling is None or not np.isfinite(coupling[1]):
        return -_chol_solve_modified(H, d, grad)[0]
    a, c = coupling
    xz, modified = _chol_solve_modified(H, d, np.column_stack([grad, a]))
    x, z = xz[:, 0], xz[:, 1]
    den = 1.0 + c * float(a @ z)
    if modified or not den > _SM_FLOOR:
        return -x
    return -(x - z * c * float(a @ x) / den)


def _rounding_rise(trial, phi, grad_norm, m, tilt, dataset, beta):
    """The rounding error 8*eps*sum|summands| of Phi at (m, tilt) when the
    trial (m, tilt, phi) raises Phi by no more than it and lowers the
    gradient inf-norm; None otherwise."""
    m_trial, tilt_trial, phi_trial = trial
    terms = _free_energy_terms(m, tilt, dataset, beta)
    floor = float(8.0 * _EPS * sum(abs(t) for t in terms))
    if phi_trial - phi > floor:
        return None
    g = gradient(m_trial, tilt_trial.h, tilt_trial.E, dataset, beta)
    return floor if float(np.max(np.abs(g))) < grad_norm else None


_VAMP_BUDGET = 200  # iterations of a _vamp problem before it gives up
_VAMP_TOL = 1e-9  # _vamp's stop on max|dm| relative to max(1, ||m||_inf)
# a _vamp problem also gives up when max|dm| is no smaller than this many
# iterations before
_VAMP_WINDOW = 20
# weight of the new (gamma1, r1) in _vamp; a lower one reaches other,
# metastable fixed points at large beta
_VAMP_DAMPING = 0.7


def _vamp(dataset, prior, beta, warm, held=None):
    """Damped VAMP on the dataset, or on each dataset without one sample:
    [(m, E, h) at fit's fixed point, or None] with one entry, or one per
    sample index in ``held``.

    VAMP (Rangan, Schniter & Fletcher, arXiv:1610.03082) has the EC fixed
    point fit solves for (Opper & Winther, JMLR 2005) as its fixed point,
    with E = gamma1, h = gamma1*r1 and beta*Ltil = gamma2.  Each iteration
    takes the tilted prior's moments at (gamma1*r1, gamma1), one column per
    problem, which set gamma2 = 1/chi1 - gamma1, then the LMMSE step
    x2 = A^{-1} b with A = beta*XX^T + gamma2*I on the eigendecomposition
    (s, W) of the dataset's smaller gram:
    A^{-1} b = (b - X W diag(beta/(beta*s + gamma2)) W^T X^T b)/gamma2 by
    Woodbury from X^T X when M < N, and W diag(1/(beta*s + gamma2)) W^T b
    from X X^T otherwise, with variance chi2 = mean(1/(beta*lambda + gamma2))
    over the spectrum, which sets gamma1 = 1/chi2 - gamma2.

    The problem that holds out sample mu drops beta*x_mu*y_mu from b, and
    its LMMSE operator A - beta*x_mu x_mu^T is a rank-one Woodbury downdate
    of A on the same (s, W):
    (A - beta*x_mu x_mu^T)^{-1} = A^{-1} + A^{-1} x_mu x_mu^T A^{-1} / C
    with C = 1/beta - x_mu^T A^{-1} x_mu, positive while gamma2 > 0, and chi2
    gains x_mu^T A^{-2} x_mu/(C*N).  With d = 1/(beta*s + gamma2), a tall
    design has v = W^T x_mu, C = 1/beta - sum(v**2*d) and
    x_mu^T A^{-2} x_mu = sum(v**2*d**2).  A wide one has v = W's row mu,
    since A^{-1} X = X W diag(d) W^T, so no N x M basis is formed and s is
    never inverted: C = (gamma2/beta)*sum(v**2*d), because W's rows are
    orthonormal, and x_mu^T A^{-2} x_mu = sum(v**2*s*d**2).  A C that rounds
    to zero or below gives its problem up.

    Every problem starts at the tilt of the ECState ``warm`` (gamma1 =
    warm.E, r1 = warm.h/warm.E) when given and warm.E > E_min, else at
    r1 = 0 and gamma1 at solve_tilt's default origin.  A problem stops when
    its tilted mean m moves by at most _VAMP_TOL*max(1, ||m||_inf), where
    the gradient at its point meets fit's grad_tol.  It gives up (None)
    when gamma2 <= 0, gamma1 <= E_min, a value is not finite, the move
    max|dm| is at least what it was _VAMP_WINDOW iterations before, or
    _VAMP_BUDGET iterations pass without its stop.  A problem that stops
    or gives up leaves the batch.  On criterion 2's grid (70 cold fits) the
    48 runs that converged took 26-174 iterations and their gradients read
    at most 1.9e-9 of fit's scale, against grad_tol 1e-8; the 22 that gave
    up stopped after 2-78.
    """
    X, (s, W), lam = dataset.X, dataset._thin_eigh, spectrum(dataset)
    E_min = prior.min_tilt()
    n = dataset.n_features
    wide = dataset.n_samples < n
    bxy, beta_s, beta_lam, V = beta * dataset.xy, beta * s, beta * lam, None

    def lmmse(b, g2, V):
        """x2 = A^{-1} b and chi2 of every live problem, problem k downdated
        by column k of V when V is given.  A function, so that its
        temporaries are freed before the next moments call: that bounds a
        batch's peak memory."""
        den = beta_s + g2
        c = W.T @ (X.T @ b) if wide else W.T @ b
        chi2 = (1.0 / (beta_lam + g2)).sum(axis=0) / n
        if V is not None:
            vd = V / den
            q = (vd * V).sum(axis=0)
            C = g2 / beta * q if wide else 1.0 / beta - q
            C = np.where(C > 0.0, C, np.nan)
            u = (vd * c).sum(axis=0) / C
            c = c - (g2 / beta) * (u * V) if wide else c + u * V
            chi2 = chi2 + (vd * vd * s[:, None] if wide else vd * vd).sum(axis=0) / (C * n)
        if wide:
            return (b - X @ (W @ ((beta / den) * c))) / g2, chi2
        return W @ (c / den), chi2

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if warm is not None and warm.E > E_min:
            g1, r1 = warm.E, np.asarray(warm.h, dtype=float) / warm.E
        else:
            g1, r1 = _default_tilt_origin(prior, beta, float(lam.sum()) / n), np.zeros(n)
        if held is not None:
            # problem k is column k, and its scalars entry k
            held = np.asarray(held, dtype=int)
            live, points = np.arange(held.size), [None] * held.size
            g1, r1 = np.full(held.size, g1), np.repeat(r1[:, None], held.size, axis=1)
            bxy = beta * (dataset.xy[:, None] - X[:, held] * dataset.y[held])
            beta_s, beta_lam = beta_s[:, None], beta_lam[:, None]
            # W^T x_mu (tall) or W's row mu (wide)
            V = W[held].T if wide else W.T @ X[:, held]
        m, steps = None, []
        for _ in range(_VAMP_BUDGET):
            h = g1 * r1
            mom = moments(prior, h, g1)
            chi1 = mom.variance.sum(axis=0) / n
            g2 = 1.0 / chi1 - g1
            step = np.full(np.shape(g1), np.inf) if m is None else np.abs(mom.mean - m).max(axis=0)
            m = mom.mean
            del mom  # a batch's peak memory: the LMMSE step needs only m
            m_scale = np.abs(m).max(axis=0, initial=1.0)
            # chi1 >= 0, so gamma2 is inf where chi1 = 0; a non-finite r1 or
            # mean shows as a non-finite m_scale
            ok = (g2 > 0.0) & (g2 + m_scale < np.inf)
            moving = step > _VAMP_TOL * m_scale
            r2 = (m / chi1 - h) / g2
            x2, chi2 = lmmse(bxy + g2 * r2, g2, V)
            g1_new = 1.0 / chi2 - g2
            E, g1 = g1, _VAMP_DAMPING * g1_new + (1.0 - _VAMP_DAMPING) * g1
            r1 = _VAMP_DAMPING * ((x2 / chi2 - g2 * r2) / g1_new) + (1.0 - _VAMP_DAMPING) * r1
            # a problem whose gamma1 left the domain gives up before the moments
            keep = ok & moving & (g1 > E_min)
            if len(steps) >= _VAMP_WINDOW:
                keep &= step < steps[-_VAMP_WINDOW]
            steps.append(step)
            if not keep.all():
                done = ok & ~moving
                if held is None:
                    return [(m, float(E), h) if done else None]
                for k in np.flatnonzero(done):
                    points[live[k]] = m[:, k].copy(), float(E[k]), h[:, k].copy()
                live, g1, r1, bxy, m, V = (a[..., keep] for a in (live, g1, r1, bxy, m, V))
                steps = [old[keep] for old in steps]
                if not live.size:
                    break
    return [None] if held is None else points


def _vamp_start(dataset, prior, beta, warm=None):
    """(m, E, h) at fit's fixed point, or None: _vamp's one problem, which
    holds out no sample."""
    return _vamp(dataset, prior, beta, warm)[0]


def fit(dataset, prior, beta, *, warm=None, _vamp_point=None):
    """Minimize the free energy: VAMP, then damped Newton; deterministic.

    Each Newton step follows the module docstring: it re-solves the tilt at m,
    steps with the exact Hessian (H plus the rank-one term) or with H or its
    positive definite modification, and starts each trial's tilt solve at
    the accepted tilt's (E, h).  The line search halves s from 1 down
    to 2**-20 and accepts the first trial that strictly lowers the free
    energy, or the full step when it raises it by no more than the rounding
    error of its summands and lowers the gradient infinity-norm.
    converged=True means one of FitSettings' stopping tests held (on the
    undamped step, not a damped one); a fit whose line search accepts no
    trial, or that runs out of max_outer steps, ends there.  The settings
    echo records, per step, the free energy reached (``free_energies``,
    which starts at the initial point) and the rise the step was allowed
    (``allowed_rises``: that rounding error for such a full step, 0.0 for a
    strict decrease).  The state keeps the tilted variances
    (VarianceCollapse if one is NaN or below the floor), from which
    approx_looe forms H.

    Whatever the prior, the loop starts from _vamp_start's point: VAMP's
    mean as m and its (E, h) as the first tilt solve's start, where the
    gradient normally meets grad_tol, so the fit takes no step.  ``warm``,
    the ECState of an earlier fit on the same features (under any prior and
    beta), seeds VAMP at its tilt; fit reads only its m, E and h.  When
    _vamp_start returns None, the loop starts at warm.m with the first tilt
    solve at (warm.E, warm.h), or without ``warm`` at m = 0 and
    solve_tilt's default start.

    ``_vamp_point``, private to cross-validation, is the (m, E, h) at which
    a single-sample fold starts: its batched VAMP point, or the full fit's
    where its batched problem gave up.  fit then runs no _vamp_start and
    reads no ``warm``, so the spectrum comes from eigvalsh and no
    eigenvectors are formed, and the Newton loop starts there, unchanged.
    """
    beta = _checked_beta(beta)
    n = dataset.n_features
    m, E0, h0 = np.zeros(n), None, None
    if warm is not None and (np.shape(warm.m) != (n,) or np.shape(warm.h) != (n,)):
        raise DimensionMismatch(f"warm state's m and h must have shape ({n},)")
    start = _vamp_point if _vamp_point is not None else _vamp_start(dataset, prior, beta, warm)
    if start is not None:
        m, E0, h0 = start
    elif warm is not None:
        m, E0, h0 = np.array(warm.m, dtype=float), warm.E, warm.h
    lam = spectrum(dataset)
    flat_zero_modes = _flat_slab_with_zero_modes(prior, lam)
    grad_scale = max(1.0, float(np.max(np.abs(beta * dataset.xy))))
    tilt = solve_tilt(m, prior, beta, lam, E0=E0, h0=h0)
    phi = _free_energy_at(m, tilt, dataset, beta)
    step_sizes = []
    free_energies = [phi]
    allowed_rises = []
    converged = False
    iterations = 0

    def negligible(step, m):
        return (float(np.max(np.abs(step)))
                <= FitSettings.step_tol * max(1.0, float(np.max(np.abs(m)))))

    grad = gradient(m, tilt.h, tilt.E, dataset, beta)
    grad_norm = float(np.max(np.abs(grad)))
    for outer in range(FitSettings.max_outer):
        iterations = outer
        if grad_norm <= FitSettings.grad_tol * grad_scale:
            break
        H, d = _curvature(tilt.moments.variance, tilt.E, dataset, beta)
        # the exact step steers a flat slab with zero modes away from the
        # spurious near-zero tilt roots that solve_tilt's absolute acceptance
        # lets through, and its fits then stall; they keep H's step
        coupling = None if flat_zero_modes else _coupling(m, tilt, beta, lam)
        direction = _newton_direction(H, d, grad, coupling)

        # Phi sums terms that cancel (|Phi| can be far below its largest
        # summand), so a full step that lowers the gradient may read as a
        # rise of rounding size; _rounding_rise takes it then
        s, rise = 1.0, None
        while s >= _STEP_FLOOR:
            m_trial = m + s * direction
            try:
                tilt_trial = solve_tilt(m_trial, prior, beta, lam, E0=tilt.E, h0=tilt.h)
                phi_trial = _free_energy_at(m_trial, tilt_trial, dataset, beta)
            except (NonConvergence, InfeasibleTilt):
                s *= 0.5
                continue
            if phi_trial < phi:
                rise = 0.0
                break
            if s == 1.0:
                rise = _rounding_rise((m_trial, tilt_trial, phi_trial), phi, grad_norm,
                                      m, tilt, dataset, beta)
                if rise is not None:
                    break
            s *= 0.5
        if rise is None:
            # no trial accepted: stationary only if the Newton step is negligible
            converged = negligible(direction, m)
            break
        m, tilt, phi = m_trial, tilt_trial, phi_trial
        step_sizes.append(s)
        free_energies.append(phi)
        allowed_rises.append(rise)
        iterations = outer + 1
        grad = gradient(m, tilt.h, tilt.E, dataset, beta)
        grad_norm = float(np.max(np.abs(grad)))
        # the undamped step: a short damped step says nothing about stationarity
        if negligible(direction, m):
            converged = True
            break

    if grad_norm <= FitSettings.grad_tol * grad_scale:
        converged = True

    state = ECState(m=m, h=tilt.h, E=tilt.E, variance=_checked_variances(tilt.moments.variance),
                    Q=tilt.Q, q=tilt.q, chi=tilt.chi, lambda_tilde=tilt.lambda_tilde,
                    free_energy=phi, grad_norm=grad_norm, iterations=iterations,
                    converged=converged)
    echo = {"step_sizes": step_sizes, "free_energies": free_energies,
            "allowed_rises": allowed_rises}
    return FitResult(state=state, inclusion_probs=tilt.moments.inclusion_prob, settings=echo)
