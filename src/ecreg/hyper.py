"""Hyper-parameter machinery: grid sweeps, sparsity calibration, beta selection.

Model quality across hyper-parameters is compared through the approximate LOO
error; free energies are reported alongside as the marginal-likelihood
alternative but never optimized here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import fit
from .data_io import error_summary
from .errors import (
    AllPointsFailed,
    ConfigError,
    DomainError,
    EcregError,
    NonConvergence,
    NonMonotoneDetected,
    RangeError,
)
from .loocv import approx_looe
from .priors import PriorSpec


def _positive_list(name, values):
    out = [float(v) for v in values]
    if not out:
        raise ConfigError(f"{name} must be non-empty")
    for v in out:
        if not (math.isfinite(v) and v > 0.0):
            raise ConfigError(f"{name} entries must be finite and positive, got {v}")
    return out


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian hyper-parameter grid; sigma_w2_values only for Gaussian slabs."""

    beta_values: tuple
    rho_values: tuple
    sigma_w2_values: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta_values", tuple(_positive_list("beta_values", self.beta_values)))
        rhos = [float(r) for r in self.rho_values]
        if not rhos:
            raise ConfigError("rho_values must be non-empty")
        for r in rhos:
            if not 0.0 < r <= 1.0:
                raise ConfigError(f"rho_values entries must lie in (0, 1], got {r}")
        object.__setattr__(self, "rho_values", tuple(rhos))
        if self.sigma_w2_values is not None:
            object.__setattr__(
                self, "sigma_w2_values",
                tuple(_positive_list("sigma_w2_values", self.sigma_w2_values)))


@dataclass(frozen=True)
class SweepPoint:
    beta: float
    rho: float
    sigma_w2: float | None
    eps: float
    eps_loo: float
    free_energy: float
    converged: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    points: list
    best: SweepPoint


@dataclass(frozen=True)
class CalibrationResult:
    K: float
    rho: float
    achieved_K: float
    iterations: int
    fit: object  # FitResult at the calibrated rho, kept for auditing


@dataclass(frozen=True)
class BetaSelection:
    beta: float
    report: object  # LooReport at the selected beta
    table: list


def _score(res, dataset, beta, rho, sigma_w2):
    """The sweep point of a fit and its LOO report (None if not converged)."""
    eps = error_summary(res.state.m, dataset).eps
    if not res.state.converged:
        return SweepPoint(beta, rho, sigma_w2, eps, math.nan,
                          res.state.free_energy, False, "fit did not converge"), None
    report = approx_looe(res, dataset, beta)
    return SweepPoint(beta, rho, sigma_w2, eps, report.eps_loo,
                      res.state.free_energy, True, None), report


def _evaluate_point(dataset, family, beta, rho, sigma_w2):
    prior = PriorSpec(family, rho, sigma_w2)  # a bad family or slab raises, not a row
    try:
        res = fit(dataset, prior, beta)
        return _score(res, dataset, beta, rho, sigma_w2)
    except EcregError as exc:
        return SweepPoint(beta, rho, sigma_w2, math.nan, math.nan,
                          math.nan, False, str(exc)), None


def _argmin_point(points):
    # ties break toward the smallest beta, then smallest rho (weakest fit wins)
    usable = [p for p in points
              if p.converged and p.error is None and math.isfinite(p.eps_loo)]
    if not usable:
        raise AllPointsFailed("no grid point produced a converged fit with a finite eps_loo")
    return min(usable, key=lambda p: (p.eps_loo, p.beta, p.rho,
                                      p.sigma_w2 if p.sigma_w2 is not None else 0.0))


def sweep(dataset, family, grid):
    """Evaluate fit/eps/eps_loo/free-energy on every grid point.

    Failed points stay in the table with their failure reason and are excluded
    from the argmin.  Deterministic: points are evaluated serially in grid
    order.
    """
    sigmas = grid.sigma_w2_values if grid.sigma_w2_values is not None else (None,)
    points = [_evaluate_point(dataset, family, b, r, s)[0]
              for b in grid.beta_values for r in grid.rho_values for s in sigmas]
    return SweepResult(points=points, best=_argmin_point(points))


def calibrate_rho(dataset, beta, K, family, sigma_w2=None):
    """Find rho with posterior expected non-zero count sum(pi_i) = K.

    Geometric bisection on rho in [1e-8, 1 - 1e-8], at most about 60 probes.
    The bottom end fits cold, and every later probe starts from the previous
    probe's whole state (m and its tilt, fit's ``warm``), as literal refits
    start from the full fit's; each fit seeds its VAMP start from that
    state's tilt.  The achieved count is monotone increasing in rho
    on healthy instances; a probe outside the running bracket's counts
    raises NonMonotoneDetected, and a bracket that can no longer shrink
    NonConvergence.  Success means |achieved - K| <= 1e-6 * max(1, K).
    """
    n = dataset.n_features
    if not 0.0 < K < n:
        raise DomainError(f"K must lie in (0, {n}), got {K}")
    tol = 1e-6 * max(1.0, K)
    mono_tol = 1e-7 * max(1.0, K)
    probes, warm = 0, None

    def achieved(rho):
        nonlocal probes, warm
        probes += 1
        res = fit(dataset, PriorSpec(family, rho, sigma_w2), beta, warm=warm)
        if not res.state.converged:
            raise NonConvergence(f"calibration probe at rho={rho:.6g} did not converge")
        warm = res.state
        return float(np.sum(res.inclusion_probs)), res

    lo, hi = 1e-8, 1.0 - 1e-8
    k_lo, _ = achieved(lo)
    k_hi, _ = achieved(hi)
    if not k_lo <= K <= k_hi:
        raise RangeError(
            f"K={K} outside achievable range [{k_lo:.6g}, {k_hi:.6g}] at beta={beta}")

    while True:
        mid = math.sqrt(lo * hi)
        if mid in (lo, hi):
            raise NonConvergence(f"calibration bracket [{lo!r}, {hi!r}] cannot shrink "
                                 f"before reaching K={K}")
        k_mid, res = achieved(mid)
        if abs(k_mid - K) <= tol:
            return CalibrationResult(K=float(K), rho=float(mid),
                                     achieved_K=k_mid, iterations=probes, fit=res)
        if k_mid < k_lo - mono_tol or k_mid > k_hi + mono_tol:
            raise NonMonotoneDetected(
                f"probe at rho={mid:.6g} gave K={k_mid:.6g}, outside the bracket's counts "
                f"[{k_lo:.6g}, {k_hi:.6g}]")
        if k_mid < K:
            lo, k_lo = mid, k_mid
        else:
            hi, k_hi = mid, k_mid


def calibrate(dataset, family, K_targets, beta_grid, sigma_w2=None):
    """Calibrate rho at every (K, beta) pair, then select a beta for each K.

    Returns one row per pair, K-major in the given orders: a dict with K,
    beta, rho, achieved_K, eps, eps_loo, selected and error.  For each K the
    row with the smallest approximate LOO error is selected, under the sweep
    tie-break (smallest beta wins ties); a K with no finite eps_loo has no
    selected row.  A pair whose calibration or LOO raises keeps its row, with
    None values and the failure text in error.  Raises ConfigError on an
    empty K_targets or a K outside (0, N), a bad beta_grid, family or slab
    variance, and AllPointsFailed when every pair fails.
    """
    beta_grid = _positive_list("beta_grid", beta_grid)
    K_targets = list(K_targets)
    if not K_targets:
        raise ConfigError("K_targets must be non-empty")
    n = dataset.n_features
    for K in K_targets:
        if not 0.0 < K < n:
            raise ConfigError(f"K_targets entries must lie in (0, {n}), got {K}")
    PriorSpec(family, 1.0, sigma_w2)  # a bad family or slab raises here, not per row
    rows = []
    for K in K_targets:
        scored = []
        for beta in beta_grid:
            row = {"K": K, "beta": beta, "rho": None, "achieved_K": None, "eps": None,
                   "eps_loo": None, "selected": False, "error": None}
            try:
                cal = calibrate_rho(dataset, beta, K, family, sigma_w2=sigma_w2)
                point, _ = _score(cal.fit, dataset, beta, cal.rho, sigma_w2)
                row.update(rho=cal.rho, achieved_K=cal.achieved_K, eps=point.eps,
                           eps_loo=point.eps_loo)
            except EcregError as exc:
                point, row["error"] = None, f"{type(exc).__name__}: {exc}"
            scored.append((point, row))
        try:
            best = _argmin_point([point for point, _ in scored if point is not None])
        except AllPointsFailed:
            best = None
        for point, row in scored:
            row["selected"] = best is not None and point is best
            rows.append(row)
    if all(row["error"] is not None for row in rows):
        raise AllPointsFailed(
            f"calibration failed at every (K, beta) point (first: {rows[0]['error']})")
    return rows


def select_beta(dataset, prior, beta_grid):
    """Pick the beta minimizing the approximate LOO error over a grid.

    Returns the winning beta, its LOO report, and the full per-beta table,
    evaluated serially in grid order.  The argmin uses the sweep tie-break
    (smallest beta wins ties), so the result is invariant under permutation
    of the grid.
    """
    evaluated = [_evaluate_point(dataset, prior.family, b, prior.rho, prior.sigma_w2)
                 for b in _positive_list("beta_grid", beta_grid)]
    points = [point for point, _ in evaluated]
    reports = {point.beta: report for point, report in evaluated if report is not None}
    best = _argmin_point(points)
    return BetaSelection(beta=best.beta, report=reports[best.beta], table=points)
