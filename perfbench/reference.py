"""Reference computations the benchmark checks the program against.

Nothing here imports ``specsource``: every density, moment estimate and
file reader is written out again with numpy and scipy, so a fault in the
program's own kernels cannot hide in its reference.

- ``read_csv_groups``: the interchange CSV, read with the ``csv`` module.
- ``brute_force_moments``: the balanced moment estimators, one loop per sum.
- ``dense_compound_logpdf``: scipy's dense MVN of the stacked trace under
  ``kron(ones(m, m), sb) + kron(eye(m), sw)``.
- ``factored_compound_logpdf``: the shared-effect density in sufficient
  statistics (Lindley 1977; Aitken & Lucy 2004), batched over draws.
- ``read_draw_file``: a numpy re-read of a ``specsource-draws v1`` file.
- ``semi_analytic_numerator``: the prosecution-side posterior predictive of a
  trace with the mean integrated exactly and the covariance sampled from its
  inverse-Wishart factor, importance-weighted for the normal mean prior.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.stats import multivariate_normal

LOG_2PI = float(np.log(2.0 * np.pi))


def read_csv_groups(path) -> dict[str, np.ndarray]:
    """Fragments of a dataset CSV as {source id: (m_i, k) array}, file order."""
    groups: dict[str, list[list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if len(next(reader)) < 3:
            raise ValueError(f"{path}: expected source, fragment and feature columns")
        for row in reader:
            groups.setdefault(row[0], []).append([float(v) for v in row[2:]])
    return {sid: np.array(rows) for sid, rows in groups.items()}


def brute_force_moments(groups, floor: float = 1e-8):
    """Balanced moment estimates (mean, between, within), one loop per sum.

    The eigenvalue floor is applied only to a matrix that needs it, as the
    documented repair does.
    """
    mats = [np.asarray(g, dtype=float) for g in groups]
    n = len(mats)
    m, k = mats[0].shape
    grand = np.zeros(k)
    for g in mats:
        for row in g:
            grand += row
    grand /= n * m
    within = np.zeros((k, k))
    means = []
    for g in mats:
        gm = np.zeros(k)
        for row in g:
            gm += row
        gm /= m
        means.append(gm)
        for row in g:
            d = row - gm
            within += np.outer(d, d)
    within /= n * (m - 1)
    between = np.zeros((k, k))
    for gm in means:
        d = gm - grand
        between += np.outer(d, d)
    between = between / (n - 1) - within / m
    return grand, _floor_eigenvalues(between, floor), _floor_eigenvalues(within, floor)


def _floor_eigenvalues(a: np.ndarray, floor: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if vals[0] >= floor:
        return a
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def dense_compound_logpdf(points, mean, sb, sw) -> float:
    """Stacked-trace MVN log-density, assembled and evaluated densely by scipy."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m = pts.shape[0]
    cov = np.kron(np.ones((m, m)), sb) + np.kron(np.eye(m), sw)
    return float(multivariate_normal(np.tile(mean, m), cov).logpdf(pts.reshape(-1)))


def factored_compound_logpdf(points, means, sbs, sws) -> np.ndarray:
    """Shared-effect log-density from sufficient statistics, batched.

    ``means`` (T, k), ``sbs`` and ``sws`` (T, k, k); returns (T,).  With
    ybar the trace mean and S its within scatter:

        log p = -1/2 [m k log 2pi + (m-1) log|Sw| + log|Sw + m Sb|
                      + tr(Sw^-1 S) + m (ybar-mu)' (Sw + m Sb)^-1 (ybar-mu)]
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, k = pts.shape
    means = np.atleast_2d(means)
    sbs = np.asarray(sbs, dtype=float).reshape(-1, k, k)
    sws = np.asarray(sws, dtype=float).reshape(-1, k, k)
    ybar = pts.mean(axis=0)
    dev = pts - ybar
    scatter = dev.T @ dev
    total = sws + m * sbs
    _, logdet_w = np.linalg.slogdet(sws)
    _, logdet_t = np.linalg.slogdet(total)
    trace_term = np.einsum("tij,ji->t", np.linalg.inv(sws), scatter)
    diff = ybar - means
    quad = np.einsum("ti,ti->t", diff, np.linalg.solve(total, diff[..., None])[..., 0])
    return -0.5 * (
        m * k * LOG_2PI + (m - 1) * logdet_w + logdet_t + trace_term + m * quad
    )


def iid_mvn_logpdf_sum(points, means, covs) -> np.ndarray:
    """Sum over trace rows of MVN(mean_t, cov_t) log-densities; (T,)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, k = pts.shape
    _, logdet = np.linalg.slogdet(covs)
    prec = np.linalg.inv(covs)
    diffs = pts[None, :, :] - np.atleast_2d(means)[:, None, :]
    quad = np.einsum("tmi,tij,tmj->t", diffs, prec, diffs)
    return -0.5 * (m * k * LOG_2PI + m * logdet + quad)


def log_mean_exp(values) -> float:
    v = np.asarray(values, dtype=float)
    top = float(v.max())
    return top + float(np.log(np.exp(v - top).mean()))


def read_draw_file(path) -> dict:
    """Metadata, column names and the draw table of a draws CSV, via numpy."""
    meta: dict[str, str] = {}
    header_lines = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            header_lines += 1
            if not line.startswith("#"):
                columns = line.strip().split(",")
                break
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
    table = np.loadtxt(path, delimiter=",", skiprows=header_lines, ndmin=2)
    return {"meta": meta, "columns": columns, "table": table}


def draw_parameters(draw_file: dict) -> dict[str, np.ndarray]:
    """Means and full covariance stacks rebuilt from lower-triangle columns."""
    cols = draw_file["columns"]
    table = draw_file["table"]
    k = int(draw_file["meta"]["k"])
    out = {"mu": table[:, [cols.index(f"mu_{i + 1}") for i in range(k)]]}
    for name in ("sigma_s", "sigma_b", "sigma_w"):
        if f"{name}_1_1" not in cols:
            continue
        stack = np.empty((table.shape[0], k, k))
        for i in range(k):
            for j in range(i + 1):
                col = table[:, cols.index(f"{name}_{i + 1}_{j + 1}")]
                stack[:, i, j] = col
                stack[:, j, i] = col
        out[name] = stack
    return out


def sample_inverse_wishart(scale, df: float, size: int, rng) -> np.ndarray:
    """(size, k, k) inverse-Wishart draws, density |S|^-(df+k+1)/2 exp(-tr(scale S^-1)/2)."""
    k = scale.shape[0]
    chol = np.linalg.cholesky(np.linalg.inv(scale))
    a = np.zeros((size, k, k))
    for i in range(k):
        a[:, i, i] = np.sqrt(rng.chisquare(df - i, size))
        a[:, i, :i] = rng.standard_normal((size, i))
    la = chol @ a
    wishart = la @ la.transpose(0, 2, 1)
    return np.linalg.inv(wishart)


def semi_analytic_numerator(
    trace, controls, prior_mean, prior_mean_cov, prior_scale, prior_df,
    *, draws: int = 100_000, seed: int = 1,
) -> tuple[float, float]:
    """(log predictive, its Monte Carlo standard error) of the trace.

    Under mu ~ N(m0, L0), Sigma ~ IW(Phi, nu) and controls iid N(mu, Sigma),
    p(Sigma | y) is IW(Phi + S, nu + n - 1) times the weight
    N(ybar; m0, L0 + Sigma/n); given Sigma the trace rows share the mean
    posterior N(mu_n, V_n), so p(trace | Sigma, y) is a compound density.
    """
    rng = np.random.default_rng(seed)
    y = np.atleast_2d(controls)
    n, k = y.shape
    ybar = y.mean(axis=0)
    scatter = (y - ybar).T @ (y - ybar)
    sigmas = sample_inverse_wishart(prior_scale + scatter, prior_df + n - 1, draws, rng)
    weight_cov = prior_mean_cov + sigmas / n
    _, logdet = np.linalg.slogdet(weight_cov)
    d = ybar - prior_mean
    log_w = -0.5 * (logdet + np.einsum("i,tij,j->t", d, np.linalg.inv(weight_cov), d))
    l0_prec = np.linalg.inv(prior_mean_cov)
    s_prec = np.linalg.inv(sigmas)
    post_cov = np.linalg.inv(l0_prec + n * s_prec)
    post_mean = np.einsum(
        "tij,tj->ti", post_cov, l0_prec @ prior_mean + s_prec @ y.sum(axis=0)
    )
    log_p = factored_compound_logpdf(trace, post_mean, post_cov, sigmas)
    log_wp = log_w + log_p
    value = log_mean_exp(log_wp) - log_mean_exp(log_w)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    ratio = np.exp(log_p - value)
    se = float(np.sqrt(np.sum(w**2 * (ratio - 1.0) ** 2)))
    return value, se


def trace_reference(trace, groups, prosecution: dict, defense: dict) -> dict:
    """Reference log-densities of one trace against a case's re-read draws.

    ``prosecution`` and ``defense`` come from :func:`draw_parameters`.  The
    plug-in value is given only for balanced groups, the one case the
    moment estimators cover.
    """
    out = {
        "log_numerator": log_mean_exp(
            iid_mvn_logpdf_sum(trace, prosecution["mu"], prosecution["sigma_s"])),
        "log_denominator_full": log_mean_exp(factored_compound_logpdf(
            trace, defense["mu"], defense["sigma_b"], defense["sigma_w"])),
    }
    if len({g.shape[0] for g in groups}) == 1:
        grand, sb, sw = brute_force_moments(groups)
        out["log_denominator_plugin"] = dense_compound_logpdf(trace, grand, sb, sw)
    return out
