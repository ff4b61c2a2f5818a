"""Exact k = 1 oracle for the full-Bayes denominator.

With one feature the inverse-Wishart priors are inverse gammas,
IW(phi, nu) = Inv-Gamma(nu/2, phi/2).  Given the two variances, the
population mean and the source effects integrate out in closed form:

- each source contributes a within part
  (2 pi s_w)^{-(m_i-1)/2} m_i^{-1/2} exp(-W_i / 2 s_w) and a group mean
  ybar_i ~ N(mu, s_b + s_w / m_i);
- mu ~ N(mu0, lam0) integrates out of the product of those normals;
- the trace density has the same within part, and its mean is normal
  around the conditional posterior mean of mu with variance
  s_b + s_w / m_u + Var(mu | s_b, s_w, Y).

The reference sums the trace density against the posterior of
(log s_b, log s_w) on an 801 x 801 grid spanning +/-12 around the moment
estimates.  It uses numpy and scipy only; nothing here comes from
``specsource.gibbs`` or ``specsource.evaluate`` except the code under test.
"""

import numpy as np
from scipy.special import gammaln, logsumexp

from specsource.evaluate import log_denominator_full
from specsource.gibbs import AlternativePrior, McmcSettings, gibbs_alternative
from specsource.stats import SpdMatrix

GRID_POINTS = 801
GRID_HALF_WIDTH = 12.0
#: The log posterior on the grid's border must sit this far below its peak.
EDGE_DROP = 20.0
TRACE_LENGTHS = (1, 2, 5)
SETTINGS = McmcSettings(iterations=10000, burn_in=1000)


def _log_inv_gamma_on_log_scale(log_v, df, scale):
    """Log density of log(v) when v ~ Inv-Gamma(df/2, scale/2)."""
    a, b = df / 2.0, scale / 2.0
    return a * np.log(b) - gammaln(a) - a * log_v - b * np.exp(-log_v)


def _within_part(log_sw, sizes, scatters):
    sw = np.exp(log_sw)
    out = np.zeros_like(sw)
    for m, w in zip(sizes, scatters):
        out += -0.5 * (m - 1) * (np.log(2 * np.pi) + log_sw) - 0.5 * np.log(m) - w / (2 * sw)
    return out


def reference_log_denominator(
    groups, trace, mu0, lam0, phi_b, nu_b, phi_w, nu_w, *, points=GRID_POINTS
):
    """Quadrature value of log p(trace | groups); also the grid's edge drop."""
    sizes = [g.size for g in groups]
    ybars = np.array([g.mean() for g in groups])
    scatters = [float(np.sum((g - g.mean()) ** 2)) for g in groups]
    pooled = sum(scatters) / max(sum(sizes) - len(groups), 1)
    centre_b = np.log(max(float(np.var(ybars)), 1e-6))
    centre_w = np.log(max(pooled, 1e-6))
    axis = np.linspace(-GRID_HALF_WIDTH, GRID_HALF_WIDTH, points)
    log_sb, log_sw = np.meshgrid(centre_b + axis, centre_w + axis, indexing="ij")
    sb, sw = np.exp(log_sb), np.exp(log_sw)

    # group means given the variances, with mu integrated out
    prec = np.full_like(sb, 1.0 / lam0)
    shift = np.full_like(sb, mu0 / lam0)
    quad = np.full_like(sb, mu0**2 / lam0)
    log_norm = np.full_like(sb, np.log(2 * np.pi * lam0))
    for m, ybar in zip(sizes, ybars):
        v = sb + sw / m
        prec += 1.0 / v
        shift += ybar / v
        quad += ybar**2 / v
        log_norm += np.log(2 * np.pi * v)
    log_marginal = -0.5 * (log_norm + quad - shift**2 / prec) + 0.5 * np.log(2 * np.pi / prec)
    log_post = (
        log_marginal
        + _within_part(log_sw, sizes, scatters)
        + _log_inv_gamma_on_log_scale(log_sb, nu_b, phi_b)
        + _log_inv_gamma_on_log_scale(log_sw, nu_w, phi_w)
    )

    # trace density given the variances and the population
    m_u = trace.size
    ybar_u = float(trace.mean())
    w_u = float(np.sum((trace - ybar_u) ** 2))
    var_u = sb + sw / m_u + 1.0 / prec
    log_trace = (
        _within_part(log_sw, [m_u], [w_u])
        - 0.5 * np.log(2 * np.pi * var_u)
        - (ybar_u - shift / prec) ** 2 / (2 * var_u)
    )

    joint = log_post + log_trace
    edges = np.concatenate([joint[0], joint[-1], joint[:, 0], joint[:, -1]])
    post_edges = np.concatenate([log_post[0], log_post[-1], log_post[:, 0], log_post[:, -1]])
    drop = min(joint.max() - edges.max(), log_post.max() - post_edges.max())
    return float(logsumexp(joint) - logsumexp(log_post)), float(drop)


def make_instance(i):
    """Instance ``i``: 3-7 unbalanced sources with 2-5 fragments, and a trace."""
    rng = np.random.default_rng([2718, i])
    n = int(rng.integers(3, 8))
    sigma_w = float(rng.uniform(0.05, 0.5))
    sigma_b = sigma_w * float(np.exp(rng.uniform(np.log(3.0), np.log(100.0))))
    mu = float(rng.normal(0.0, 2.0))
    sizes = rng.integers(2, 6, size=n)
    if len(set(sizes.tolist())) == 1:
        sizes[0] = 2 if sizes[0] != 2 else 3

    def source(m):
        effect = rng.normal(0.0, np.sqrt(sigma_b))
        return (mu + effect + rng.normal(0.0, np.sqrt(sigma_w), size=m))[:, None]

    groups = [source(m) for m in sizes]
    trace = source(TRACE_LENGTHS[i % len(TRACE_LENGTHS)])
    prior = dict(
        mu0=float(rng.normal(0.0, 1.0)),
        lam0=float(rng.uniform(10.0, 100.0)),
        phi_b=float(rng.uniform(0.2, 2.0)),
        nu_b=float(rng.uniform(1.0, 3.0)),
        phi_w=float(rng.uniform(0.05, 0.5)),
        nu_w=float(rng.uniform(1.0, 3.0)),
    )
    return groups, trace, prior


def test_reference_grid_is_wide_enough_and_converged():
    groups, trace, prior = make_instance(0)
    value, drop = reference_log_denominator(groups, trace, **prior)
    assert drop > EDGE_DROP
    # a coarser grid over the same span agrees: the sum is converged
    coarse, _ = reference_log_denominator(groups, trace, **prior, points=401)
    assert abs(coarse - value) < 1e-4


def test_full_denominator_matches_k1_quadrature():
    for i in range(20):
        groups, trace, p = make_instance(i)
        exact, drop = reference_log_denominator(groups, trace, **p)
        assert drop > EDGE_DROP, f"instance {i}: grid edge only {drop:.1f} below the peak"
        prior = AlternativePrior(
            mean=np.array([p["mu0"]]),
            mean_cov=SpdMatrix([[p["lam0"]]]),
            between_scale=SpdMatrix([[p["phi_b"]]]),
            between_df=p["nu_b"],
            within_scale=SpdMatrix([[p["phi_w"]]]),
            within_df=p["nu_w"],
        )
        draws = gibbs_alternative(groups, prior, SETTINGS.with_seed(3100 + i))
        mc = log_denominator_full(trace, draws)
        z = (mc.log_value - exact) / mc.mc_se
        assert abs(z) <= 3.0, (
            f"instance {i} (n={len(groups)}, m_u={trace.shape[0]}): "
            f"MC {mc.log_value:.5f} +/- {mc.mc_se:.5f}, exact {exact:.5f}, z={z:.2f}"
        )
