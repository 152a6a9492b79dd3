"""Property test: the one-fit LOO is equivariant under relabelling.

Permuting the samples, permuting the features and flipping each feature's
sign describe the same regression problem; both priors are symmetric, so the
fit follows the relabelling and approx_looe's per-sample arrays follow the
sample permutation while eps_loo stays put, up to rounding.

Needs the optional test dependency hypothesis (``pip install .[test]``);
the module is skipped without it.
"""

import numpy as np
import pytest

from ecreg.core import Dataset, fit, hessian
from ecreg.errors import EcregError
from ecreg.loocv import approx_looe
from ecreg.priors import bernoulli_gauss, bernoulli_uniform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# over 5613 unflagged draws of this distribution (6000 drawn, two seeds),
# the worst gap divided by cond(H) was 1.2e-13 (eps_loo; residuals and
# leverages relative to max(1, |value|)); the bound leaves three orders of
# magnitude for other BLAS builds
TOLERANCE = 1e-10


@st.composite
def _relabelled_case(draw):
    """A prior, beta, a dataset and the same dataset relabelled, with the
    sample permutation that maps the second onto the first."""
    n = draw(st.integers(3, 24))
    alpha = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    prior = draw(st.sampled_from([bernoulli_gauss(0.3, 4.0), bernoulli_uniform(0.3)]))
    beta = draw(st.sampled_from([2.0, 5.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = round(alpha * n)
    X = rng.normal(0.0, 1.0 / np.sqrt(n), (n, m))
    w = np.where(rng.random(n) < 0.3, rng.normal(0.0, 2.0, n), 0.0)
    y = X.T @ w + rng.normal(0.0, 0.3, m)
    features, samples = rng.permutation(n), rng.permutation(m)
    signs = rng.choice([-1.0, 1.0], size=n)
    relabelled = Dataset((X * signs[:, None])[features][:, samples], y[samples])
    return prior, beta, Dataset(X, y), relabelled, samples


def _fit_and_report(dataset, prior, beta):
    try:
        result = fit(dataset, prior, beta)
        return result, approx_looe(result, dataset, beta)
    except EcregError:
        return None, None


def _relabelling_gaps(prior, beta, dataset, relabelled, samples):
    """(eps_loo, residual_loo, leverage) relative gaps between the two
    labellings, divided by the condition number of the fitted curvature H,
    or None when either fit raises or flags a sample.

    Leverages come from a solve against H, and a near-interpolating fit has
    leverages near 1 and a nearly singular H, so the two labellings agree
    to rounding times cond(H), not to rounding.
    """
    result, a = _fit_and_report(dataset, prior, beta)
    _, b = _fit_and_report(relabelled, prior, beta)
    if a is None or b is None or a.flagged or b.flagged:
        # an interpolating fit flags every sample and its eps_loo is
        # rounding noise, so there is nothing to compare
        return None
    cond = np.linalg.cond(hessian(result.state.variance, result.state.E, dataset, beta))

    def gap(x, y):
        return float(np.max(np.abs(x - y) / np.maximum(1.0, np.abs(x)))) / cond

    return (abs(a.eps_loo - b.eps_loo) / a.eps_loo / cond,
            gap(a.residual_loo[samples], b.residual_loo),
            gap(a.leverage[samples], b.leverage))


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(_relabelled_case())
def test_approx_looe_follows_relabelling(case):
    gaps = _relabelling_gaps(*case)
    hypothesis.assume(gaps is not None)
    assert max(gaps) <= TOLERANCE
