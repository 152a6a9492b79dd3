"""Property test: fit's predicted tilt start reaches the tilt the old start reaches.

fit starts each line-search trial's tilt solve at m + s*d from the Euler
predictor (E + s*dE, h + s*dh) of the accepted tilt's tangent, where it used
to start from the accepted (E, h).  solve_tilt accepts a residual, not an
E, so the two starts may stop at two points of the same root's acceptance
band: their E differ by at most twice that band over the residual's slope
|k*b - 1|, and their h by h_E = dh/dE times that gap, up to the mean
inversion's own tolerance.  Where the consistency has several roots and
the old start leaves the accepted tilt's branch, the predicted start must
match that branch, followed in short steps, instead; and it may find a
root where the old start fails, never the reverse.

Needs the optional test dependency hypothesis (``pip install .[test]``);
the module is skipped without it.
"""

from unittest import mock

import numpy as np
import pytest

from ecreg.core import (
    _EPS,
    Dataset,
    FitSettings,
    _coupling,
    _flat_slab_with_zero_modes,
    _predicted_tilt,
    _tilt_slope,
    _tilt_tangent,
    fit,
    solve_tilt,
    spectrum,
)
from ecreg.errors import EcregError
from ecreg.priors import bernoulli_gauss, bernoulli_uniform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TOL = 1e-10  # solve_tilt's default


@st.composite
def _trial(draw):
    """A prior, beta, a small dataset, a few Newton steps' m, a direction and
    a step length; flat-slab draws with M < N have zero modes."""
    n = draw(st.integers(3, 16))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    prior = draw(st.sampled_from([bernoulli_gauss(0.3, 4.0), bernoulli_uniform(0.3)]))
    beta = draw(st.sampled_from([2.0, 5.0]))
    outer = draw(st.integers(0, 3))
    s = draw(st.sampled_from([1.0, 0.25, 1e-2, 1e-4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = max(1, round(alpha * n))
    X = rng.normal(0.0, 1.0 / np.sqrt(n), (n, m))
    w = np.where(rng.random(n) < 0.3, rng.normal(0.0, 2.0, n), 0.0)
    y = X.T @ w + rng.normal(0.0, 0.3, m)
    return prior, beta, Dataset(X, y), outer, rng.normal(0.0, 0.3, n), s


def _solve(*args, **kwargs):
    try:
        return solve_tilt(*args, **kwargs)
    except EcregError as exc:
        return type(exc)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(_trial())
def test_predicted_start_reaches_the_same_tilt(case):
    prior, beta, dataset, outer, direction, s = case
    lam = spectrum(dataset)
    try:
        # patched in the body: hypothesis rejects function-scoped fixtures
        with mock.patch.object(FitSettings, "max_outer", outer):
            state = fit(dataset, prior, beta).state
        tilt = solve_tilt(state.m, prior, beta, lam, E0=state.E, h0=state.h)
    except EcregError:
        hypothesis.assume(False)
    if _flat_slab_with_zero_modes(prior, lam):
        coupling = h_E = None
    else:
        a, c, h_E = _coupling(state.m, tilt, beta, lam)
        coupling = (a, c)
    E0, h0 = _predicted_tilt(tilt, s, _tilt_tangent(tilt, direction, coupling, h_E),
                             prior.min_tilt())
    m = state.m + s * direction
    new = _solve(m, prior, beta, lam, E0=E0, h0=h0, _ltil0=tilt.lambda_tilde)
    old = _solve(m, prior, beta, lam, E0=tilt.E, h0=tilt.h)
    if isinstance(new, type):
        assert old == new  # the predictor loses no tilt the old start finds
        return
    if isinstance(old, type):
        return  # the old start failed where the predictor found a root
    reference = old
    if not _same_tilt(new, old, m, prior, beta, lam):
        # the consistency has several roots here and the old start jumped to
        # another one: on one of 4000 draws, a flat slab on a 3 x 3 gram, it
        # went from E = 1.01 to 0.049 while the accepted tilt's branch, and
        # the predictor, end at 2.51; follow that branch in short steps
        reference = tilt
        for t in np.linspace(0.0, s, 65)[1:]:
            reference = solve_tilt(state.m + t * direction, prior, beta, lam,
                                   E0=reference.E, h0=reference.h)
    assert _same_tilt(new, reference, m, prior, beta, lam)


def _same_tilt(new, ref, m, prior, beta, lam):
    """Whether new lies in ref's acceptance band: E within twice the band
    over |k*b - 1|, and h off ref's h + h_E*(E gap) by at most the mean
    inversion's tolerance."""
    k, b, f_E = _tilt_slope(m, ref.moments, ref.chi, ref.lambda_tilde, beta, lam)
    band = max(TOL * max(1.0, abs(ref.E)), 8.0 * _EPS / ref.chi)
    gap = new.E - ref.E
    if abs(gap) * abs(k * b - 1.0) > 2.0 * band:
        return False
    v = ref.moments.variance
    off = np.abs(new.h - ref.h + (f_E / v) * gap)
    # the inversion resolves m to 1e-12*max(1, |m|), so h to that over v
    return bool(np.all(off <= 1e-12 * (np.maximum(1.0, np.abs(ref.h))
                                       + np.maximum(1.0, np.abs(m)) / v)))
