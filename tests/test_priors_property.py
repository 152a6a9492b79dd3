"""Property test of the mean inversion over the whole admissible domain.

Needs the optional test dependency hypothesis (``pip install .[test]``);
the module is skipped without it.
"""

import numpy as np
import pytest

from ecreg.priors import (
    BERNOULLI_GAUSS,
    BERNOULLI_UNIFORM,
    bernoulli_gauss,
    bernoulli_uniform,
    invert_mean,
    moments,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _inversion_case(draw):
    """A prior, an admissible tilt E, a field h and any warm start h0."""
    rho = draw(st.floats(1e-8, 1.0))
    if draw(st.sampled_from([BERNOULLI_GAUSS, BERNOULLI_UNIFORM])) == BERNOULLI_GAUSS:
        sigma_w2 = draw(st.floats(1e-2, 1e2))
        prior = bernoulli_gauss(rho, sigma_w2)
        # a = 1 + E*sigma_w2 > 0; a < 1 gives the admissible negative E
        E = (draw(st.floats(1e-6, 1e4)) - 1.0) / sigma_w2
    else:
        prior = bernoulli_uniform(rho)
        E = draw(st.floats(1e-6, 1e4))
    h = draw(st.floats(-1e3, 1e3))
    h0 = draw(st.one_of(st.none(), st.floats()))
    return prior, E, h, h0


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_inversion_case())
def test_invert_mean_round_trip_property(case):
    prior, E, h, h0 = case
    m_target = moments(prior, np.array([h]), E).mean
    h_back, _ = invert_mean(prior, m_target, E, h0=h0)
    back = moments(prior, h_back, E).mean
    assert abs(back[0] - m_target[0]) <= 1e-12 * max(1.0, abs(m_target[0]))
    assert invert_mean(prior, -m_target, E, h0=h0)[0] == -h_back
