"""Leave-one-out error estimation.

The semi-analytic route computes every held-out residual from the full fit:
residual_loo = residual_full / (1 - leverage) with leverage =
beta * x_mu^T H^{-1} x_mu from the full-data curvature H.  By
Sherman-Morrison this is y_mu - x_mu^T m_loo for the estimator without
sample mu, m_loo = m - (H - beta x_mu x_mu^T)^{-1} beta residual_full x_mu.
One factorization of H and one triangular solve replace M refits.  The literal
and k-fold harnesses actually refit and exist to validate that formula.  When
every fold holds out one sample, one batched VAMP pass solves every fold's
problem from the full fit's state on the full dataset's eigendecomposition,
and core.fit refits each fold from its point, or the full fit's where its
problem gave up, with no VAMP pass or decomposition of its own.  Such a fold
is a view of the full dataset, with no copy of X or y, and its spectrum is
a rank-one downdate of the full dataset's, its pole from one batched solve
for every fold.  Each returns a LooReport: one table of per-sample arrays
in sample order.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .core import Dataset, _checked_beta, _vamp, fit, hessian
from .errors import (ConfigError, DimensionMismatch, EcregError, NonConvergence,
                     NotConverged, SingularHessian)

# residual_loo is singular at leverage 1; denominators below this floor are
# clipped and the sample flagged rather than dropped.
DENOMINATOR_FLOOR = 1e-8


@dataclass(frozen=True)
class LooReport:
    """Per-sample LOO table.  eps_loo = (1/2M) sum residual_loo**2.

    ``residual_full``, ``residual_loo`` and ``leverage`` are arrays of shape
    (M,) in sample order.  ``residual_loo`` is the formula's for the approx
    method and the refit's otherwise; ``leverage`` is None for the refits.

    ``flagged`` lists, for the approx method, sample ids whose leverage
    denominator 1 - leverage is below DENOMINATOR_FLOOR: those whose
    |1 - leverage| is below it, which are clipped to it, and those with
    leverage above 1, which are kept as they are.  For the literal and
    k-fold methods it lists ids belonging to folds whose refit did not
    converge.
    """

    eps_loo: float
    residual_full: np.ndarray
    residual_loo: np.ndarray
    leverage: np.ndarray | None
    flagged: list
    method: str
    wall_time: float


def _loo_eps(residuals, m_samples):
    return float(np.sum(np.square(residuals)) / (2.0 * m_samples))


def approx_looe(fit_result, dataset, beta):
    """Semi-analytic LOO error from the full fit; no refits.

    Requires a finite positive beta and a converged fit with one weight per
    feature.  Cost is forming the fitted curvature, one Cholesky
    factorization in place and one triangular solve against X; samples
    whose |1 - leverage| falls below the floor are clipped to it and
    flagged, and samples with leverage above 1 are flagged unclipped.
    """
    t0 = time.perf_counter()
    beta = _checked_beta(beta)
    X, state = dataset.X, fit_result.state
    if np.shape(state.m) != (dataset.n_features,):
        raise DimensionMismatch(f"m has shape {np.shape(state.m)}, expected ({dataset.n_features},)")
    if not state.converged:
        raise NotConverged("approximate LOO requires a converged fit")
    H = hessian(state.variance, state.E, dataset, beta)
    try:
        # in place: H is symmetric, and LAPACK overwrites its Fortran view H.T
        L = sla.cho_factor(H.T, lower=True, overwrite_a=True, check_finite=False)[0]
        u = w = sla.solve_triangular(L, X, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        # not positive definite (a step_tol stop can end there): LU on a rebuilt H
        try:
            u, w = X, np.linalg.solve(hessian(state.variance, state.E, dataset, beta), X)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian(str(exc)) from exc
    if not np.all(np.isfinite(w)):
        raise SingularHessian("curvature solve gave non-finite entries")
    leverage = beta * np.einsum("im,im->m", u, w)  # beta*||L^{-1} x_mu||^2 with H = L L^T
    residual_full = dataset.y - X.T @ state.m
    denom = 1.0 - leverage
    small = np.abs(denom) < DENOMINATOR_FLOOR
    # leverage above 1 means the curvature without sample mu is not positive
    # definite (matrix determinant lemma); the formula then flips the
    # residual's sign, so flag the sample but leave eps_loo as it was
    flagged = [int(i) for i in np.flatnonzero(denom < DENOMINATOR_FLOOR)]
    safe = np.where(small, np.where(denom >= 0.0, DENOMINATOR_FLOOR, -DENOMINATOR_FLOOR), denom)
    residual_loo = residual_full / safe
    return LooReport(eps_loo=_loo_eps(residual_loo, dataset.n_samples),
                     residual_full=residual_full, residual_loo=residual_loo,
                     leverage=leverage, flagged=flagged, method="approx",
                     wall_time=time.perf_counter() - t0)


def _fit_fold(sub, prior, beta, warm, point):
    """Fit on a fold's data ``sub`` from the start point ``point`` (m, E, h),
    which a single-sample fold's view has, or from the state ``warm`` when
    point is None; returns (m, converged), with None as m when the refit
    raises."""
    if sub.n_samples == 0:
        # data-free fold: the estimator is the prior mean
        return np.zeros(sub.n_features), True
    try:
        res = fit(sub, prior, beta, warm=warm, _vamp_point=point)
    except EcregError:
        return None, False
    return res.state.m, res.state.converged


def _cross_validate(dataset, prior, beta, folds, method):
    """Refit once per fold of held-out sample indices and report every
    sample's held-out residual.

    When every fold holds out one sample, one batched VAMP pass (core._vamp)
    runs every fold's problem at once, in sample order, from the full fit's
    state, on the full dataset's eigendecomposition, and one batched secular
    solve finds every fold's pole (Dataset._folds).  Each fold is then one
    core.fit call on its view of the full dataset, which copies no data,
    from its batched point (m, E, h), or from the full fit's (m, E, h) where
    its batched problem gave up: fit runs no VAMP pass for it, reads the
    fold's spectrum as a rank-one downdate of the full dataset's
    eigendecomposition, and its Newton loop certifies the point by the
    gradient test on the fold's data, stepping when it fails.  Every fold of
    a layout with larger blocks is refit on a copy of its samples,
    warm-started from the full state, through its own VAMP pass.  Residuals
    are reduced in index order.  A fold whose refit fails (a failed pole
    solve included) keeps the full-fit prediction and its samples are
    flagged; the call raises only when more than 5% of folds fail.
    """
    t0 = time.perf_counter()
    beta = _checked_beta(beta)
    M = dataset.n_samples
    full = fit(dataset, prior, beta).state
    if all(len(test_idx) == 1 for test_idx in folds):
        # in sample order, so k = M runs literal_loocv's batch bit for bit
        folds = sorted(folds, key=lambda idx: idx[0])
        held = [idx[0] for idx in folds]
        points = [(full.m, full.E, full.h) if point is None else point
                  for point in _vamp(dataset, prior, beta, full, held)]
        subs = dataset._folds(held)
    else:
        points = [None] * len(folds)
        subs = (Dataset(np.delete(dataset.X, idx, axis=1), np.delete(dataset.y, idx))
                for idx in folds)

    residuals = np.empty(M)
    flagged = []
    failures = 0
    for test_idx, point, sub in zip(folds, points, subs):
        m_fold, ok = _fit_fold(sub, prior, beta, full, point)
        if m_fold is None:
            m_fold = full.m
        for mu in test_idx:
            # per-sample dot, not a batched product: the accumulation order
            # does not depend on the fold layout, so k = M matches the
            # singleton folds bit for bit
            residuals[mu] = dataset.y[mu] - dataset.X[:, mu] @ m_fold
        if not ok:
            failures += 1
            flagged.extend(int(mu) for mu in test_idx)
    if failures > 0.05 * len(folds):
        raise NonConvergence(f"{failures}/{len(folds)} folds failed")
    flagged.sort()
    return LooReport(eps_loo=_loo_eps(residuals, M),
                     residual_full=dataset.y - dataset.X.T @ full.m,
                     residual_loo=residuals, leverage=None, flagged=flagged,
                     method=method, wall_time=time.perf_counter() - t0)


def literal_loocv(dataset, prior, beta):
    """LOO by M refits, each on a view of the dataset without its sample
    and started at its point in one batched VAMP pass from the full fit, or
    at the full fit's point where its batched problem gave up, with no VAMP
    pass, data copy or decomposition of its own (see _cross_validate).

    Folds are refit serially in index order.  A fold whose refit fails keeps
    the full-fit prediction and is flagged; the call raises only when more
    than 5% of folds fail.
    """
    folds = [[mu] for mu in range(dataset.n_samples)]
    return _cross_validate(dataset, prior, beta, folds, "literal")


def _check_kfold(k, seed, M=None):
    """ConfigError unless k is an integer with 2 <= k <= M (no upper bound
    while the sample count M is not known) and seed a non-negative integer."""
    # np.array_split would truncate a float k
    if not isinstance(k, numbers.Integral) or not 2 <= k <= (k if M is None else M):
        raise ConfigError(f"k must be an integer with 2 <= k <= {'M' if M is None else M}, "
                          f"got {k}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def kfold_cv(dataset, prior, beta, k, seed=0):
    """k-fold CV: seeded permutation, contiguous blocks, remainder spread
    one per leading fold.  Every fold is refit warm-started from the full
    fit's state, except at k = M, whose folds start where literal_loocv's
    do: the batched VAMP pass runs in sample order, not the permutation's.
    eps is (1/2M) times the total held-out squared residual, so k = M
    reproduces literal_loocv bit for bit.
    """
    M = dataset.n_samples
    _check_kfold(k, seed, M)
    folds = np.array_split(np.random.default_rng(seed).permutation(M), k)
    return _cross_validate(dataset, prior, beta, folds, f"kfold({k})")
