"""Simulation-based calibration of the defense-side sampler at k = 2 and 3.

Cook, Gelman & Rubin 2006 (JCGS 15:675); Talts, Betancourt, Simpson,
Vehtari & Gelman 2018 (arXiv:1804.06788).  Each replicate draws a truth
(mu, Sigma_b, Sigma_w) from a proper prior, simulates a population from
it, and samples the posterior; all replicates run as one lockstep batch.
If the sampler targets the posterior, the rank of each true value among
thinned posterior draws is uniform.  The ranks of mu, diag Sigma_b and
diag Sigma_w are binned and each set gets a chi-square test, Bonferroni-
corrected over the 3k quantities, at a fixed seed.  The truths and the
populations come from numpy and scipy, not from the package.
"""

import numpy as np
import pytest
from scipy.stats import chi2, invwishart

from specsource.gibbs import AlternativePrior, McmcSettings, sample_alternative
from specsource.stats import SpdMatrix

REPLICATES = 200
BURN_IN = 200
THIN = 10
KEPT = 99  # thinned draws per replicate, so a rank takes one of 100 values
BINS = 10
SIZES = (2, 4, 3, 5, 2, 3)  # one unbalanced layout shared by every replicate
ALPHA = 0.01
PRIOR_MEAN_VAR = 4.0
WITHIN_SHARE = 0.05  # prior mean of Sigma_w relative to that of Sigma_b


@pytest.mark.parametrize("k", [2, 3])
def test_ranks_of_the_truth_are_uniform(k):
    rng = np.random.default_rng([1804, k])
    df = k + 2.0
    between_scale = (df - k - 1) * np.eye(k)  # prior mean of Sigma_b is I
    within_scale = WITHIN_SHARE * between_scale
    prior = AlternativePrior(
        mean=np.zeros(k),
        mean_cov=SpdMatrix.diagonal(PRIOR_MEAN_VAR, dim=k),
        between_scale=SpdMatrix(between_scale),
        between_df=df,
        within_scale=SpdMatrix(within_scale),
        within_df=df,
    )

    truths, datasets = [], []
    for _ in range(REPLICATES):
        mu = rng.normal(0.0, np.sqrt(PRIOR_MEAN_VAR), size=k)
        sigma_b = invwishart.rvs(df, between_scale, random_state=rng)
        sigma_w = invwishart.rvs(df, within_scale, random_state=rng)
        effects = rng.multivariate_normal(np.zeros(k), sigma_b, size=len(SIZES))
        datasets.append(
            [
                mu + effect + rng.multivariate_normal(np.zeros(k), sigma_w, size=m)
                for effect, m in zip(effects, SIZES)
            ]
        )
        truths.append(np.concatenate([mu, np.diag(sigma_b), np.diag(sigma_w)]))

    settings = McmcSettings(iterations=BURN_IN + KEPT * THIN, burn_in=BURN_IN, thin=THIN, seed=5)
    runs = sample_alternative(datasets, prior, settings, jobs=range(1, REPLICATES + 1))

    ranks = np.empty((REPLICATES, 3 * k), dtype=int)
    for r, (draws, truth) in enumerate(zip(runs, truths)):
        thinned = np.concatenate(
            [
                draws.means,
                np.diagonal(draws.cov("sigma_b"), axis1=1, axis2=2),
                np.diagonal(draws.cov("sigma_w"), axis1=1, axis2=2),
            ],
            axis=1,
        )
        assert thinned.shape == (KEPT, 3 * k)
        ranks[r] = np.sum(thinned < truth, axis=0)

    names = [f"{p}[{i}]" for p in ("mu", "sigma_b", "sigma_w") for i in range(k)]
    expected = REPLICATES / BINS
    for j, name in enumerate(names):
        counts = np.bincount(ranks[:, j] * BINS // (KEPT + 1), minlength=BINS)
        stat = float(np.sum((counts - expected) ** 2 / expected))
        p_value = chi2.sf(stat, BINS - 1)
        assert p_value > ALPHA / len(names), (
            f"k={k} {name}: rank counts {counts.tolist()}, chi2={stat:.1f}, p={p_value:.2g}"
        )
