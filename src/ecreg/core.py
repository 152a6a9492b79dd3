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
the tilted means reproduce m (solve_tilt, whose TiltResult keeps the tilted
prior's moments for Phi, the curvature and the fitted state).  fit()
minimizes Phi by damped Newton steps on its exact Hessian: the partial
curvature H = beta*XX^T + diag(1/var_i - E), which holds E (and through chi
also Ltil) fixed, plus the rank-one term that E's dependence on m adds,
applied to H's Cholesky factor by Sherman-Morrison.  A flat slab whose gram has a zero
eigenvalue steps with H alone, and an indefinite H with H's diagonal term
replaced by its absolute value.  Steps backtrack until Phi falls or, for a
full step, rises within rounding while the gradient falls; converged means
the gradient or the undamped step is below tolerance.  FitResult.hessian and
the LOO formula use H.

For a pure Gaussian prior (rho = 1 slab) this construction is exact: m is the
ridge posterior mean and Phi equals the exact negative log evidence with zero
additive constant.
"""

from dataclasses import asdict, dataclass
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
from .priors import BERNOULLI_UNIFORM, ScalarMoments, _cumulants34, invert_mean, moments

_STEP_FLOOR = 2.0 ** -20  # fit halves a step no further
_VARIANCE_FLOOR = 1e-12  # a tilted variance below it (or NaN) raises VarianceCollapse

# ---------------------------------------------------------------------------
# dataset and spectrum
# ---------------------------------------------------------------------------


class Dataset:
    """Design matrix X (N features x M samples) and response vector y.

    Immutable by convention; the gram matrix, X y, and the eigenvalues of
    X X^T are computed lazily once and shared by every fit on the dataset.
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
    def _spectrum(self):
        try:
            # eigenvalues only; they differ from eigh's in the last bits,
            # which fit's stopping tolerates (see _rounding_rise)
            lam = np.linalg.eigvalsh(self.gram)
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailure(str(exc)) from exc
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
    r = float(np.mean(u)) - target
    u_max = float(u.max())
    v = u / u_max
    return r, L + (r / u_max) / (u_max * float(np.mean(v * v)))


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
            if float(np.mean(1.0 / (mu + hi))) <= target:
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
        if not np.isfinite(dn) or dn == delta:
            break
        delta = dn
    r = float(np.mean(1.0 / (mu + delta))) - target
    if abs(r) <= 1e-12 * target:
        return float(delta - lam_min)
    raise NonConvergence(f"secular solve stalled, relative residual {abs(r) / target:.3e}")


@dataclass(frozen=True)
class TiltResult:
    """Self-consistent tilt at a fixed estimator m.  ``moments`` holds the
    tilted prior's moments at (h, E), from the evaluation solve_tilt
    accepted; nothing recomputes them."""

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


def solve_tilt(m, prior, beta, lam, E0=None, h0=None, tol=1e-10, max_inner=60):
    """Find (h, E) with tilted means equal to m and E = 1/chi - beta*Ltil.

    The scalar consistency r(E) = E_new(E) - E = 0 is solved by a
    secant-accelerated damped fixed point from E0 (by default above the
    physical root), in at most max_inner evaluations of E_new, each one
    invert_mean and one solve_lambda.  Residual on E <= tol*max(1, |E|);
    below |E| = 1 that test is absolute, so on a flat slab with zero modes,
    where r ~ -f0*E near 0 (f0 the zero-mode fraction), any E below tol/f0
    passes.

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
    if not np.all(np.isfinite(m)):
        raise DomainError("m contains non-finite entries")
    if prior.rho == 0.0:
        raise InfeasibleTilt(
            "pure spike prior has zero tilted variance; the tilt system is undefined")
    E_min = prior.min_tilt()
    q = float(m @ m) / m.size

    E = float(E0) if E0 is not None else _default_tilt_origin(prior, beta, float(lam.mean()))
    if E <= E_min:
        E = E_min + max(1e-8, 1e-8 * abs(E_min))
    h, r, rose = h0, np.nan, False
    ltil = E_last = r_last = None
    for _ in range(max_inner):
        h = invert_mean(prior, m, E, h0=h)
        mom = moments(prior, h, E)
        chi = float(np.mean(mom.variance))
        if not chi > 0.0:
            raise InfeasibleTilt(f"tilted variances vanished at E = {E}")
        ltil = solve_lambda(lam, beta, chi, _start=ltil)
        r = 1.0 / chi - beta * ltil - E
        # 1/chi - beta*Ltil cancels two O(1/chi) terms, so the residual
        # cannot be resolved below a few eps/chi; accept at that floor.
        if abs(r) <= max(tol * max(1.0, abs(E)), 8.0 * np.finfo(float).eps / chi):
            return TiltResult(h=h, E=float(E), Q=q + chi, q=q, chi=chi,
                              lambda_tilde=ltil, moments=mom)
        rose = rose or r > 0.0
        E_next = None
        if r_last is not None and r != r_last:
            cand = E - r * (E - E_last) / (r - r_last)
            if np.isfinite(cand) and cand > E_min:
                E_next = cand
        if E_next is None:
            E_next = E + 0.5 * r
        if E_next <= E_min:
            E_next = 0.5 * (E + E_min)
        E_last, r_last = E, r
        E = E_next
    if _flat_slab_with_zero_modes(prior, lam) and not rose:
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
    of a solved tilt (TiltResult.moments.variance)."""
    d = np.asarray(variances, dtype=float)
    idx = int(np.argmin(d))
    if not d[idx] >= _VARIANCE_FLOOR:
        raise VarianceCollapse(idx, d[idx])
    H = beta * dataset.gram
    H[np.diag_indices_from(H)] += 1.0 / d - E
    return H


def _coupling(m, tilt, prior, beta, lam):
    """(a, c) with the exact Hessian of Phi equal to H + c*a*a^T at a solved
    tilt, H being hessian()'s partial curvature.

    E moves with m through E = 1/chi - beta*Ltil(chi), so dE/dm =
    k/(1 - k*b) * a with a = kappa3/(N*v), k = dE/dchi (using dLtil/dchi =
    -beta/mean(u**2), u = 1/(lambda + Ltil)) and b = dchi/dE at fixed m;
    kappa3 and kappa4 are the tilted prior's third and fourth cumulants.
    """
    v = tilt.moments.variance
    k3, k4 = _cumulants34(prior, tilt.h, tilt.E)
    f_E = -0.5 * k3 - m * v
    v_E = -0.5 * (k4 + 2.0 * v * v + 2.0 * m * k3)
    b = float(np.mean(v_E - k3 * f_E / v))
    u = 1.0 / (lam + tilt.lambda_tilde)
    # numpy division: an underflowed mean(u**2) gives k = inf and a
    # non-finite c, which fit answers with H's step
    k = -1.0 / (tilt.chi * tilt.chi) + beta * beta / np.mean(u * u)
    n = m.size
    return k3 / (n * v), 0.5 * n * k / (1.0 - k * b)


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


@dataclass(frozen=True)
class FitSettings:
    """Bounds of fit: it stops once the gradient inf-norm is at most
    grad_tol*max(1, ||beta*X y||_inf) or the undamped Newton step at most
    step_tol*max(1, ||m||_inf), after at most max_outer Newton steps.  Each
    tilt solve makes at most max_inner evaluations."""

    grad_tol: float = 1e-8
    step_tol: float = 1e-10
    max_outer: int = 500
    max_inner: int = 60


@dataclass(frozen=True)
class ECState:
    m: np.ndarray
    h: np.ndarray
    E: float
    Mi: np.ndarray
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
    hessian: np.ndarray
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


def _solve_curvature(H, rhs):
    """H^{-1} rhs for a fitted curvature H: Cholesky, or LU when H is not
    positive definite (a fit that stopped on step_tol can end there)."""
    try:
        cf = sla.cho_factor(H, lower=True, check_finite=False)
        return sla.cho_solve(cf, rhs, check_finite=False)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from exc


def _rounding_rise(trial, phi, grad_norm, m, tilt, dataset, beta):
    """The rounding error 8*eps*sum|summands| of Phi at (m, tilt) when the
    trial (m, tilt, phi) raises Phi by no more than it and lowers the
    gradient inf-norm; None otherwise."""
    m_trial, tilt_trial, phi_trial = trial
    terms = _free_energy_terms(m, tilt, dataset, beta)
    floor = float(8.0 * np.finfo(float).eps * sum(abs(t) for t in terms))
    if phi_trial - phi > floor:
        return None
    g = gradient(m_trial, tilt_trial.h, tilt_trial.E, dataset, beta)
    return floor if float(np.max(np.abs(g))) < grad_norm else None


def fit(dataset, prior, beta, init=None, settings=None, *, _tilt=None):
    """Minimize the free energy by damped Newton; deterministic.

    Each step re-solves the tilt at the current m, forms the gradient and
    the exact Hessian of the free energy (the partial curvature H of
    ``hessian`` plus a rank-one term, applied by Sherman-Morrison to H's
    Cholesky factor) and backtracks along the Newton step.  The step uses H
    alone when the exact Hessian is not positive definite and for a flat
    slab whose gram has a zero eigenvalue, and _chol_solve_modified's
    positive definite H when H is indefinite (one failed and one successful
    factorization).  The line search halves s from 1 down to 2**-20 and
    accepts the first trial that strictly lowers the free energy, or the
    full step when it raises it by no more than the rounding error of its
    summands and lowers the gradient infinity-norm.  converged=True means
    that norm is at most grad_tol*max(1, ||beta*X y||_inf) or the undamped
    Newton step at most step_tol*max(1, ||m||_inf); a fit whose line search
    accepts no trial, or that runs out of max_outer steps, ends there.  The
    settings echo records, per step, the free energy reached
    (``free_energies``, which starts at the initial point) and the rise the
    step was allowed (``allowed_rises``: that rounding error for such a full
    step, 0.0 for a strict decrease).  The private ``_tilt=(E, h)``
    warm-starts the first tilt solve.  ``FitResult.hessian`` is H, the
    curvature approx_looe uses.
    """
    cfg = settings or FitSettings()
    if not 0.0 < beta < np.inf:
        raise DomainError(f"beta must be finite and positive, got {beta}")
    n = dataset.n_features
    if init is not None:
        m = np.array(init, dtype=float)
        if m.shape != (n,):
            raise DimensionMismatch(f"init has shape {m.shape}, expected ({n},)")
    else:
        m = np.zeros(n)
    lam = spectrum(dataset)
    flat_zero_modes = _flat_slab_with_zero_modes(prior, lam)
    grad_scale = max(1.0, float(np.max(np.abs(beta * dataset.xy))))

    E0, h0 = _tilt if _tilt is not None else (None, None)
    tilt = solve_tilt(m, prior, beta, lam, E0=E0, h0=h0, max_inner=cfg.max_inner)
    phi = _free_energy_at(m, tilt, dataset, beta)
    step_sizes = []
    free_energies = [phi]
    allowed_rises = []
    converged = False
    iterations = 0

    def negligible(step, m):
        return float(np.max(np.abs(step))) <= cfg.step_tol * max(1.0, float(np.max(np.abs(m))))

    for outer in range(cfg.max_outer):
        iterations = outer
        grad = gradient(m, tilt.h, tilt.E, dataset, beta)
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm <= cfg.grad_tol * grad_scale:
            converged = True
            break
        H = hessian(tilt.moments.variance, tilt.E, dataset, beta)
        d = 1.0 / tilt.moments.variance - tilt.E
        # the exact step steers a flat slab with zero modes away from the
        # spurious near-zero tilt roots that solve_tilt's absolute acceptance
        # lets through, and its fits then stall; they keep H's step
        coupling = None if flat_zero_modes else _coupling(m, tilt, prior, beta, lam)
        direction = _newton_direction(H, d, grad, coupling)

        # Phi sums terms that cancel (|Phi| can be far below its largest
        # summand), so a full step that lowers the gradient may read as a
        # rise of rounding size; _rounding_rise takes it then
        s, rise = 1.0, None
        while s >= _STEP_FLOOR:
            m_trial = m + s * direction
            try:
                tilt_trial = solve_tilt(m_trial, prior, beta, lam, E0=tilt.E,
                                        h0=tilt.h, max_inner=cfg.max_inner)
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
        # the undamped step: a short damped step says nothing about stationarity
        if negligible(direction, m):
            converged = True
            break

    grad = gradient(m, tilt.h, tilt.E, dataset, beta)
    grad_norm = float(np.max(np.abs(grad)))
    if grad_norm <= cfg.grad_tol * grad_scale:
        converged = True
    H = hessian(tilt.moments.variance, tilt.E, dataset, beta)

    state = ECState(m=m, h=tilt.h, E=tilt.E, Mi=tilt.moments.second_moment, Q=tilt.Q,
                    q=tilt.q, chi=tilt.chi, lambda_tilde=tilt.lambda_tilde, free_energy=phi,
                    grad_norm=grad_norm, iterations=iterations, converged=converged)
    echo = asdict(cfg)
    echo["step_sizes"] = step_sizes
    echo["free_energies"] = free_energies
    echo["allowed_rises"] = allowed_rises
    return FitResult(state=state, hessian=H, inclusion_probs=tilt.moments.inclusion_prob,
                     settings=echo)
