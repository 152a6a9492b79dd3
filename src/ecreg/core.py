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

Each line-search trial at m + s*d is a predictor-corrector continuation
step of the tilt (Allgower & Georg, Introduction to Numerical Continuation
Methods, SIAM 2003): its tilt solve starts from the Euler predictor
(E + s*dE, h + s*dh) of the accepted tilt's tangent along d, which the same
_tilt_slope evaluation gives (dE/dm = k/(1 - k*b)*a, dh/dm = 1/v at fixed E
plus dh/dE*dE), and from the accepted Ltil, and solve_tilt's Newton steps
correct it; a short step often closes in one evaluation.  A flat slab whose
gram has a zero eigenvalue keeps E and moves h by s*d/v.  A fit warm-started
from an earlier fit's state (a literal refit, a calibration probe) is the
corrector of the same continuation: it starts at that state's m and its
first tilt solve at that state's (E, h, Ltil).

A cold fit (no warm state) whose prior is not a flat slab first runs
_vamp_start: damped VAMP on the eigendecomposition of the smaller of X^T X
and X X^T that Dataset caches, whose fixed point is the EC fixed point
(E = gamma1, h = gamma1*r1), so the Newton loop only polishes its point.
When VAMP leaves its domain, stalls or runs out of iterations the fit
starts from m = 0.

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
    On a wide design (M < N) the eigenvalues come from the thin M x M
    eigendecomposition X^T X = W diag(s) W^T, padded with N - M exact zeros,
    and (s, W) stay cached for fit's VAMP start; no N x M basis is stored.
    Otherwise they come from eigvalsh of the N x N gram, and a cold fit's
    VAMP start decomposes that gram with eigh.
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

    @cached_property
    def _thin_eigh(self):
        """(s, W), ascending: the eigendecomposition W diag(s) W^T of the
        smaller gram, X^T X when M < N and X X^T otherwise."""
        n, m = self.X.shape
        try:
            return np.linalg.eigh(self.X.T @ self.X if m < n else self.gram)
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailure(str(exc)) from exc

    @cached_property
    def _spectrum(self):
        n, m = self.X.shape
        if m < n:
            lam = np.concatenate([np.zeros(n - m), self._thin_eigh[0]])
        else:
            try:
                # eigenvalues only; they differ from eigh's in the last bits,
                # which fit's stopping tolerates (see _rounding_rise)
                lam = np.linalg.eigvalsh(self.gram)
            except np.linalg.LinAlgError as exc:
                raise DecompositionFailure(str(exc)) from exc
        # the clamp also lifts a rounding-negative s, so lam stays ascending
        lam_max = float(lam[-1]) if lam.size else 0.0
        if lam_max <= 0.0:
            lam = np.zeros_like(lam)
        else:
            lam = np.where(lam < 1e-12 * lam_max, 0.0, lam)
        return lam


def spectrum(dataset):
    """Cached ascending eigenvalues of the dataset's gram matrix X X^T, with
    those below 1e-12 times the largest clamped to zero."""
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


def solve_lambda(lam, beta, chi, *, _start=None):
    """Solve (1/N) sum_k 1/(lambda_k + Ltil) = beta*chi for Ltil.

    The left side s(L) is strictly decreasing in Ltil on (-lambda_min, inf)
    and spans (0, inf), so the root exists and is unique; it is positive
    whenever any eigenvalue is zero or beta*chi exceeds (1/N) sum 1/lambda_k,
    and may be negative (but > -lambda_min) otherwise.

    At most 200 Newton steps on delta = Ltil + lambda_min, so a root near the
    pole keeps its relative precision: s is convex, so a step from anywhere
    in the domain lands at or below the root and from there climbs
    monotonically to it; a step out of the domain goes halfway to the pole
    instead.  Starts at ``_start`` (solve_tilt's previous root) when it lies
    in the domain, else midway between a point near the pole and one where
    s <= beta*chi.  Relative residual <= 1e-12, else NonConvergence.
    """
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not chi > 0.0:
        raise DomainError(f"chi must be positive, got {chi}")
    lam_min = float(lam.min())
    mu = lam - lam_min
    target = beta * chi

    if _start is not None and 0.0 < _start + lam_min < np.inf:
        delta = _start + lam_min
    else:
        hi = 1.0 + lam_min
        for _ in range(2000):
            if float((1.0 / (mu + hi)).sum()) / mu.size <= target:
                break
            hi *= 2.0
        lo = min(1.0 / (mu.size * target), 1.0)
        delta = 0.5 * (lo + hi)
    for _ in range(200):
        r, dn = _secular_newton(mu, target, delta)
        if abs(r) <= 1e-13 * target:
            return float(delta - lam_min)
        if dn <= 0.0:
            dn = 0.5 * delta
        if not math.isfinite(dn) or dn == delta:
            break
        delta = dn
    r = float((1.0 / (mu + delta)).sum()) / mu.size - target
    if abs(r) <= 1e-12 * target:
        return float(delta - lam_min)
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


def solve_tilt(m, prior, beta, lam, E0=None, h0=None, *, _ltil0=None):
    """Find (h, E) with tilted means equal to m and E = 1/chi - beta*Ltil.

    The scalar consistency r(E) = E_new(E) - E = 0 is solved from E0 (by
    default above the physical root) in at most FitSettings.max_inner
    evaluations of E_new, each one invert_mean from h0 and one solve_lambda
    from the private _ltil0 (solve_lambda's own start when None).  fit
    passes the Euler predictor of the tilt at each line-search trial as
    (E0, h0) and the accepted tilt's Ltil as _ltil0, so this loop is the
    corrector of a continuation in m and a short step closes at its first
    evaluation.  Each step is Newton's
    on r at fixed m, with the exact slope dr/dE = k*b - 1 of _tilt_slope
    (Nocedal & Wright, Numerical Optimization, ch. 11), and the next
    invert_mean starts from h + (dh/dE)*dE, the tangent of the fixed-m curve
    h(E).  Where that slope is not finite and negative, or the Newton
    candidate leaves (E_min, inf), the step falls back to the secant through
    the last two evaluations, or to the damped fixed point E + r/2, halved
    towards E_min if it leaves the domain.  A flat slab whose gram has a
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
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
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
    h, r, rose = h0, np.nan, False
    ltil, E_last, r_last = _ltil0, None, None
    for _ in range(max_inner):
        h, mom = invert_mean(prior, m, E, h0=h)
        chi = float(mom.variance.sum()) / m.size
        if not chi > 0.0:
            raise InfeasibleTilt(f"tilted variances vanished at E = {E}")
        ltil = solve_lambda(lam, beta, chi, _start=ltil)
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
    H[np.diag_indices_from(H)] += d
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
    """(a, c, h_E) at a solved tilt: the exact Hessian of Phi is H + c*a*a^T,
    H being hessian()'s partial curvature, and h_E = -f_E/v is dh/dE at
    fixed m.

    E moves with m through E = 1/chi - beta*Ltil(chi), so dE/dm =
    k/(1 - k*b) * a = (2c/N) * a with a = kappa3/(N*v) and k, b, f_E from
    _tilt_slope, all read from tilt.moments.  A non-finite k gives a
    non-finite c, which fit answers with H's step and the old tilt start.
    """
    mom = tilt.moments
    k, b, f_E = _tilt_slope(m, mom, tilt.chi, tilt.lambda_tilde, beta, lam)
    n = m.size
    return (mom.kappa3 / (n * mom.variance), 0.5 * n * k / (1.0 - k * b),
            -f_E / mom.variance)


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


def _tilt_tangent(tilt, direction, coupling, h_E):
    """(dE, dh): the derivative of the solved tilt along m's direction.

    dh/dm = 1/v at fixed E, and E moves as dE/dm = (2c/N)*a, carrying h
    along h_E = dh/dE; (a, c) = coupling and h_E are _coupling's.  With
    coupling None (a flat slab with zero modes) E stays and dh = direction/v.
    """
    v = tilt.moments.variance
    if coupling is None:
        return 0.0, direction / v
    a, c = coupling
    dE = 2.0 * c / v.size * float(a @ direction)
    return dE, direction / v + h_E * dE


def _predicted_tilt(tilt, s, tangent, E_min):
    """(E0, h0) for the tilt solve at m + s*direction: the Euler predictor
    (E + s*dE, h + s*dh), whose error is O(s**2), or the solved tilt's own
    (E, h) where E + s*dE is not finite or not above E_min."""
    dE, dh = tangent
    E = tilt.E + s * dE
    if math.isfinite(E) and E > E_min:
        return E, tilt.h + s * dh
    return tilt.E, tilt.h


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


_VAMP_BUDGET = 100  # iterations of _vamp_start before it gives up
# _vamp_start also gives up when max|dm| is no smaller than this many
# iterations before
_VAMP_WINDOW = 20
# weight of the new (gamma1, r1) in _vamp_start; a lower one reaches other,
# metastable fixed points at large beta
_VAMP_DAMPING = 0.7


def _vamp_start(dataset, prior, beta):
    """(m, E, h) near fit's fixed point, or None.

    Damped VAMP (Rangan, Schniter & Fletcher, arXiv:1610.03082), whose fixed
    point is the EC fixed point fit solves for (Opper & Winther, JMLR 2005),
    with E = gamma1, h = gamma1*r1 and beta*Ltil = gamma2.  Each iteration
    takes the tilted prior's moments at (gamma1*r1, gamma1), which set
    gamma2 = 1/chi1 - gamma1, then the LMMSE step on the eigendecomposition
    (s, W) of the smaller gram:
    (beta*XX^T + gamma2*I)^{-1} b = (b - X W diag(beta/(beta*s + gamma2)) W^T X^T b)/gamma2
    by Woodbury from X^T X when M < N, and W diag(1/(beta*s + gamma2)) W^T b
    from X X^T otherwise, with variance chi2 = mean(1/(beta*lambda + gamma2))
    over the spectrum, which sets gamma1 = 1/chi2 - gamma2.
    Starts at r1 = 0 and gamma1 at solve_tilt's default origin, and stops
    when the tilted mean m moves by at most 1e-6*max(1, ||m||_inf).  Returns
    None when gamma2 <= 0, gamma1 <= E_min, a value is not finite, the move
    max|dm| is at least what it was _VAMP_WINDOW iterations before, or
    _VAMP_BUDGET iterations pass without converging.  On criterion 2's grid
    the move of a run that converged always shrank by at least 2.6x over
    any such window, and 15 of the 16 runs that spent the whole budget
    without it stop after 31-78 iterations.
    """
    X, (s, W), lam = dataset.X, dataset._thin_eigh, spectrum(dataset)
    E_min = prior.min_tilt()
    n = dataset.n_features
    wide = dataset.n_samples < n
    g1, r1 = _default_tilt_origin(prior, beta, float(lam.sum()) / n), np.zeros(n)
    bxy = beta * dataset.xy
    m, steps = None, []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_VAMP_BUDGET):
            if not (g1 > E_min and np.isfinite(r1).all()):
                return None
            mom = moments(prior, g1 * r1, g1)
            chi1 = float(mom.variance.sum()) / n
            if not (chi1 > 0.0 and np.isfinite(mom.mean).all()):
                return None
            g2 = 1.0 / chi1 - g1
            if not 0.0 < g2 < np.inf:
                return None
            step = np.inf if m is None else float(np.abs(mom.mean - m).max())
            m = mom.mean
            if step <= 1e-6 * max(1.0, float(np.abs(m).max())):
                return m, g1, g1 * r1
            if len(steps) >= _VAMP_WINDOW and step >= steps[-_VAMP_WINDOW]:
                return None
            steps.append(step)
            r2 = (m / chi1 - g1 * r1) / g2
            b = bxy + g2 * r2
            if wide:
                x2 = (b - X @ (W @ ((beta / (beta * s + g2)) * (W.T @ (X.T @ b))))) / g2
            else:
                x2 = W @ ((W.T @ b) / (beta * s + g2))
            chi2 = float((1.0 / (beta * lam + g2)).sum()) / n
            g1_new = 1.0 / chi2 - g2
            r1_new = (x2 / chi2 - g2 * r2) / g1_new
            g1 = _VAMP_DAMPING * g1_new + (1.0 - _VAMP_DAMPING) * g1
            r1 = _VAMP_DAMPING * r1_new + (1.0 - _VAMP_DAMPING) * r1
    return None


def fit(dataset, prior, beta, *, warm=None):
    """Minimize the free energy by damped Newton; deterministic.

    Each step follows the module docstring: it re-solves the tilt at m,
    steps with the exact Hessian (H plus the rank-one term) or with H or its
    positive definite modification, and starts trials at the predictor.  The
    line search halves s from 1 down to 2**-20 and accepts the first trial
    that strictly lowers the free energy, or the full step when it raises it
    by no more than the rounding error of its summands and lowers the
    gradient infinity-norm.  converged=True means one of FitSettings'
    stopping tests held (on the undamped step, not a damped one); a fit
    whose line search accepts no trial, or that runs out of max_outer steps,
    ends there.  The settings echo records, per step, the free energy
    reached (``free_energies``, which starts at the initial point) and the
    rise the step was allowed (``allowed_rises``: that rounding error for
    such a full step, 0.0 for a strict decrease).  The state keeps the
    tilted variances (VarianceCollapse if one is NaN or below the floor),
    from which approx_looe forms H.

    ``warm``, the ECState of an earlier fit on the same features (under any
    prior and beta), starts the Newton loop at warm.m and the first tilt
    solve at (warm.E, warm.h, warm.lambda_tilde); from a fit that met
    grad_tol under the same prior and beta it normally takes no step.
    Without it, when the prior is not a flat slab (on a wide design its gram
    has zero eigenvalues), the loop starts from _vamp_start's point: VAMP's
    mean as m and its (E, h) as the first tilt solve's start; when
    _vamp_start returns None, or on a flat slab, from m = 0 and solve_tilt's
    default start.
    """
    if not 0.0 < beta < np.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    n = dataset.n_features
    if warm is not None:
        m, E0, h0, ltil0 = np.array(warm.m, dtype=float), warm.E, warm.h, warm.lambda_tilde
        if m.shape != (n,) or np.shape(h0) != (n,):
            raise DimensionMismatch(f"warm state's m and h must have shape ({n},)")
    else:
        m, E0, h0, ltil0 = np.zeros(n), None, None, None
        if prior.family != BERNOULLI_UNIFORM:
            start = _vamp_start(dataset, prior, beta)
            if start is not None:
                m, E0, h0 = start
    lam = spectrum(dataset)
    flat_zero_modes = _flat_slab_with_zero_modes(prior, lam)
    grad_scale = max(1.0, float(np.max(np.abs(beta * dataset.xy))))
    E_min = prior.min_tilt()
    tilt = solve_tilt(m, prior, beta, lam, E0=E0, h0=h0, _ltil0=ltil0)
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
        # lets through, and its fits then stall; they keep H's step and E
        if flat_zero_modes:
            coupling = h_E = None
        else:
            a, c, h_E = _coupling(m, tilt, beta, lam)
            coupling = (a, c)
        direction = _newton_direction(H, d, grad, coupling)
        tangent = _tilt_tangent(tilt, direction, coupling, h_E)

        # Phi sums terms that cancel (|Phi| can be far below its largest
        # summand), so a full step that lowers the gradient may read as a
        # rise of rounding size; _rounding_rise takes it then
        s, rise = 1.0, None
        while s >= _STEP_FLOOR:
            m_trial = m + s * direction
            E0, h0 = _predicted_tilt(tilt, s, tangent, E_min)
            try:
                tilt_trial = solve_tilt(m_trial, prior, beta, lam, E0=E0, h0=h0,
                                        _ltil0=tilt.lambda_tilde)
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
