"""The benchmark's own references agree with each other.

    python3 -m pytest -q perfbench/test_reference.py
"""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import reference as ref


def _spd(rng, k, scale):
    a = rng.standard_normal((k, k))
    return scale * (a @ a.T + k * np.eye(k))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_dense_and_factored_compound_agree(m):
    rng = np.random.default_rng(m)
    k = 3
    draws = [(rng.standard_normal(k), _spd(rng, k, 0.5), _spd(rng, k, 0.1)) for _ in range(4)]
    trace = rng.standard_normal((m, k))
    factored = ref.factored_compound_logpdf(
        trace,
        np.array([d[0] for d in draws]),
        np.array([d[1] for d in draws]),
        np.array([d[2] for d in draws]),
    )
    dense = [ref.dense_compound_logpdf(trace, mu, sb, sw) for mu, sb, sw in draws]
    np.testing.assert_allclose(factored, dense, rtol=1e-12, atol=1e-10)


def test_iid_sum_matches_scipy():
    rng = np.random.default_rng(7)
    mu, cov = rng.standard_normal(3), _spd(rng, 3, 0.2)
    trace = rng.standard_normal((4, 3))
    want = multivariate_normal(mu, cov).logpdf(trace).sum()
    got = ref.iid_mvn_logpdf_sum(trace, mu[None, :], cov[None, :, :])
    np.testing.assert_allclose(got, [want], rtol=1e-12)


def test_inverse_wishart_mean():
    rng = np.random.default_rng(11)
    scale, df = _spd(rng, 3, 1.0), 9.0
    draws = ref.sample_inverse_wishart(scale, df, 200_000, rng)
    np.testing.assert_allclose(draws.mean(axis=0), scale / (df - 3 - 1), rtol=0.02, atol=0.01)
