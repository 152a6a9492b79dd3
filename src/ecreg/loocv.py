"""Leave-one-out error estimation.

The semi-analytic route computes every held-out residual from the full fit:
residual_loo = residual_full / (1 - leverage) with leverage =
beta * x_mu^T H^{-1} x_mu from the full-data curvature H.  One solve of H
against X replaces M refits.  The literal and k-fold harnesses actually
refit and exist to validate that formula.  Each returns a LooReport: one
table of per-sample arrays in sample order.
"""

import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import Dataset, _solve_curvature, fit
from .errors import (
    ConfigError,
    EcregError,
    NonConvergence,
    NotConverged,
    RankOneSingularity,
    SingularHessian,
)

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

    Requires a converged fit.  Cost is one Cholesky solve of the fitted
    curvature against X; samples whose |1 - leverage| falls below the floor
    are clipped to the floor and flagged, and samples with leverage above 1
    are flagged unclipped.
    """
    t0 = time.perf_counter()
    if not fit_result.state.converged:
        raise NotConverged("approximate LOO requires a converged fit")
    X = dataset.X
    w = _solve_curvature(fit_result.hessian, X)
    if not np.all(np.isfinite(w)):
        raise SingularHessian("curvature solve gave non-finite entries")
    leverage = beta * np.einsum("im,im->m", X, w)
    residual_full = dataset.y - X.T @ fit_result.state.m
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


def loo_estimator(fit_result, dataset, beta, mu):
    """Estimator with sample mu removed, via a rank-one Hessian downdate.

    The deleted sample's field contribution is delta_h = beta * x_mu *
    residual_mu; by Sherman-Morrison, (H - beta x_mu x_mu^T)^{-1} delta_h is
    (beta * residual_mu / (1 - beta x_mu.w)) * w with w = H^{-1} x_mu.
    Diagnostic companion to approx_looe, not used in its hot path.
    """
    if not fit_result.state.converged:
        raise NotConverged("loo estimator requires a converged fit")
    x = dataset.X[:, mu]
    m = fit_result.state.m
    w = _solve_curvature(fit_result.hessian, x)
    denom = 1.0 - beta * float(x @ w)
    if abs(denom) < DENOMINATOR_FLOOR:
        raise RankOneSingularity(
            f"downdate denominator {denom:.3e} below floor at sample {mu}")
    residual = float(dataset.y[mu] - x @ m)
    return m - (beta * residual / denom) * w


def _fit_fold(dataset, prior, beta, keep_mask, warm, settings):
    """Fit on a sample subset from the full fit's state ``warm``; returns
    (m, converged), with warm.m as m when the refit raises."""
    if not np.any(keep_mask):
        # data-free fold: the estimator is the prior mean
        return np.zeros(dataset.n_features), True
    sub = Dataset(dataset.X[:, keep_mask], dataset.y[keep_mask])
    try:
        res = fit(sub, prior, beta, init=warm.m, settings=settings,
                  _tilt=(warm.E, warm.h))
    except EcregError:
        return warm.m, False
    return res.state.m, res.state.converged


def _cross_validate(dataset, prior, beta, folds, method, settings):
    """Refit once per fold of held-out sample indices, warm-started from the
    full fit's estimator and tilt, and report every sample's held-out residual.

    Residuals are reduced in index order.  A fold whose refit fails keeps the
    full-fit prediction and its samples are flagged; the call raises only when
    more than 5% of folds fail.
    """
    t0 = time.perf_counter()
    M = dataset.n_samples
    warm = fit(dataset, prior, beta, settings=settings).state

    residuals = np.empty(M)
    flagged = []
    failures = 0
    for test_idx in folds:
        keep = np.ones(M, dtype=bool)
        keep[test_idx] = False
        m_fold, ok = _fit_fold(dataset, prior, beta, keep, warm, settings)
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
                     residual_full=dataset.y - dataset.X.T @ warm.m,
                     residual_loo=residuals, leverage=None, flagged=flagged,
                     method=method, wall_time=time.perf_counter() - t0)


def literal_loocv(dataset, prior, beta, settings=None):
    """LOO by M refits, each warm-started from the full fit.

    Folds run serially in index order.  A fold whose refit fails keeps the
    full-fit prediction and is flagged; the call raises only when more than
    5% of folds fail.
    """
    folds = [[mu] for mu in range(dataset.n_samples)]
    return _cross_validate(dataset, prior, beta, folds, "literal", settings)


def kfold_cv(dataset, prior, beta, k, seed=0, settings=None):
    """k-fold CV: seeded permutation, contiguous blocks, remainder spread
    one per leading fold.  eps is (1/2M) times the total held-out squared
    residual, so k = M reproduces literal_loocv exactly.
    """
    M = dataset.n_samples
    # np.array_split would truncate a float k
    if not isinstance(k, numbers.Integral) or not 2 <= k <= M:
        raise ConfigError(f"k must be an integer with 2 <= k <= {M}, got {k}")
    folds = np.array_split(np.random.default_rng(seed).permutation(M), k)
    return _cross_validate(dataset, prior, beta, folds, f"kfold({k})", settings)
