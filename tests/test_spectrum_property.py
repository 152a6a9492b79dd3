"""Property tests: a fold's spectrum read as the rank-one downdate of the full
dataset's decomposition, its pole from one batched secular solve over every
fold, against the eigenvalues of the fold's own gram and against the same
downdate solved for that fold alone.

Every sum a fit reads of a fold's spectrum (core._Spectrum) must match the
one built on eigvalsh of that fold's gram, which is the route a Dataset
without a cached decomposition takes.  Both carry rounding of order
eps*lambda_max per eigenvalue, so the sums are compared at a tolerance of
TOL*eps*kappa, with kappa = lambda_max/(lambda'_min + L) +
lambda_max/lambda_+, lambda_+ the full gram's smallest positive eigenvalue:
the second term is the downdate's, whose fold inherits the conditioning of
the full gram it starts from (a square design's fold is better conditioned
than its full gram).  The zero count must match exactly.  The batch must not change any fold's
spectrum: each equals _Spectrum(lam, z2, xx), which solves its pole alone,
to the bit.
"""

import numpy as np
import pytest

from ecreg.core import Dataset, _flat_slab_with_zero_modes, _Spectrum
from ecreg.priors import bernoulli_uniform

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = float(np.finfo(float).eps)
# 10x the largest ratio err/(eps*kappa) seen over 27556 folds of 1500
# designs drawn as below (20, for the mean of 1/(lambda' + L)**2)
TOL = 200.0


@st.composite
def designs(draw):
    """A tall, wide or square design, of full or lower rank, scaled by
    10**[-3, 3], sometimes with a repeated sample or a zero sample."""
    shape = draw(st.sampled_from(["tall", "wide", "square"]))
    n = draw(st.integers(2, 24))
    m = {"tall": n + draw(st.integers(1, 24)),
         "wide": draw(st.integers(2, n - 1)) if n > 2 else 2,
         "square": n}[shape]
    n = max(n, m + 1) if shape == "wide" else n
    rank = draw(st.integers(1, min(n, m)) | st.just(min(n, m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m)) / np.sqrt(n * rank)
    X *= 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        X[:, -1] = X[:, 0]
    if draw(st.integers(0, 9)) == 0:
        X[:, 0] = 0.0
    return X


def _zeros(spec, n):
    return round(spec.f0 * n) if spec.min == 0.0 else 0


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(designs())
def test_downdated_fold_spectrum_matches_its_eigenvalues(X):
    n, m = X.shape
    ds = Dataset(X, np.zeros(m))
    ds._thin_eigh  # the decomposition a fit caches before its folds
    lam = ds._spectrum
    lam_max = float(lam[-1])
    lam_pos = float(lam[lam > 0.0][0]) if lam_max > 0.0 else 1.0
    flat = bernoulli_uniform(0.3)
    for mu, fold in enumerate(ds._folds(range(m))):
        own_gram = Dataset(np.delete(X, mu, axis=1), np.zeros(m - 1))
        down, own = fold._spec, _Spectrum(own_gram._spectrum)
        assert _zeros(down, n) == _zeros(own, n)
        assert (down.min == 0.0) == (own.min == 0.0)
        assert _flat_slab_with_zero_modes(flat, down) == _flat_slab_with_zero_modes(flat, own)
        assert abs(down.mean - own.mean) <= TOL * EPS * max(lam_max, 1e-300)
        assert abs(down.min - own.min) <= TOL * EPS * lam_max
        if lam_max == 0.0:
            continue
        for L in (1e-6 * lam_max, 1e-3 * lam_max, lam_max, 1e3 * lam_max):
            tol = TOL * EPS * (lam_max / (own.min + L) + lam_max / lam_pos)
            su, su_own = down.sums(L + down.min)[0], own.sums(L + own.min)[0]
            assert abs(su - su_own) <= tol * su_own
            assert abs(down.mean_u2(L) - own.mean_u2(L)) <= tol * own.mean_u2(L)
            assert abs((own.min + L) / (down.min + L) - 1.0) <= tol
            ln, ln_own = down.logdet(L), own.logdet(L)
            assert abs(ln - ln_own) <= tol * (n + float(np.sum(np.abs(np.log(own.lam + L)))))


def _fields(spec):
    return (spec.min, spec.mean, spec.mu_mean, spec.f0, spec.mu,
            getattr(spec, "p", None), getattr(spec, "zp", None), spec.z2)


def _same(a, b):
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(_fields(a), _fields(b)))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(designs())
def test_batched_fold_spectrum_is_the_fold_solved_alone(X):
    n, m = X.shape
    ds = Dataset(X, np.zeros(m))
    lam = ds._spectrum
    for mu, fold in enumerate(ds._folds(range(m))):
        x = X[:, mu]
        alone = _Spectrum(lam, ds._z2(mu), float(x @ x))
        assert _same(fold._spec, alone)
        assert _same(fold._spec, ds._without(mu)._spec)


@pytest.mark.parametrize("n, m, rank", [(6, 15, 6), (6, 15, 3), (15, 6, 6), (7, 7, 7)],
                         ids=["tall", "tall-rank-deficient", "wide", "square"])
def test_batch_covers_zero_modes_and_a_clamped_pole(n, m, rank):
    # the property above on fixed designs that hold what it must cover: zero
    # modes (a rank-deficient or wide gram), and on a wide or square design a
    # pole clamped to zero, since each fold has fewer samples than features
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m)) / np.sqrt(n * rank)
    ds = Dataset(X, np.zeros(m))
    lam = ds._spectrum
    specs = [fold._spec for fold in ds._folds(range(m))]
    for mu, spec in enumerate(specs):
        assert _same(spec, _Spectrum(lam, ds._z2(mu), float(X[:, mu] @ X[:, mu])))
    assert (lam.min() == 0.0) == (rank < n)
    assert all((spec.p == 0.0) == (m <= n) for spec in specs)
