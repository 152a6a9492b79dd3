"""Property test: VAMP-first fits reach the fixed point Newton alone reaches.

fit starts every fit from _vamp_start's point and takes Newton steps only
where that point misses the gradient tolerance or VAMP gives up.  VAMP's
fixed point is the EC fixed point (Rangan, Schniter & Fletcher,
arXiv:1610.03082), but where the free energy has several stationary points
VAMP may settle on another one than damped Newton from m = 0.  On every
draw where both fits converge, their estimators agree to 1e-6 relative, or
the VAMP-first point has the lower free energy.

Needs the optional test dependency hypothesis (``pip install .[test]``);
the module is skipped without it.
"""

from unittest import mock

import numpy as np
import pytest

from ecreg.core import Dataset, fit
from ecreg.errors import EcregError
from ecreg.priors import bernoulli_gauss, bernoulli_uniform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _case(draw):
    """A prior, beta and a small dataset."""
    n = draw(st.integers(3, 24))
    alpha = draw(st.sampled_from([0.5, 1.5, 2.5]))
    rho = draw(st.sampled_from([0.1, 0.3, 0.6]))
    prior = draw(st.sampled_from([bernoulli_gauss(rho, 4.0), bernoulli_uniform(rho)]))
    beta = draw(st.sampled_from([2.0, 10.0, 50.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = max(1, round(alpha * n))
    X = rng.normal(0.0, 1.0 / np.sqrt(n), (n, m))
    w = np.where(rng.random(n) < 0.3, rng.normal(0.0, 2.0, n), 0.0)
    y = X.T @ w + rng.normal(0.0, 0.3, m)
    return prior, beta, Dataset(X, y)


def _converged_state(dataset, prior, beta):
    try:
        state = fit(dataset, prior, beta).state
    except EcregError:
        return None
    return state if state.converged else None


# a fixed sample: the property fails on about 1 in 2200 converged draws
# (tests/test_known_defects.py pins two), so random draws would fail about
# one run in 40 on a defect already recorded
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(_case())
def test_vamp_first_matches_newton_alone(case):
    prior, beta, dataset = case
    first = _converged_state(dataset, prior, beta)
    # patched in the body: hypothesis rejects function-scoped fixtures
    with mock.patch("ecreg.core._vamp_start", return_value=None):
        newton = _converged_state(dataset, prior, beta)
    hypothesis.assume(first is not None and newton is not None)
    scale = max(1.0, float(np.max(np.abs(first.m))), float(np.max(np.abs(newton.m))))
    gap = float(np.max(np.abs(first.m - newton.m)))
    assert gap <= 1e-6 * scale or first.free_energy <= newton.free_energy, (
        gap / scale, first.free_energy, newton.free_energy)
