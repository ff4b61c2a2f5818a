"""Posterior samplers for the two nuisance-parameter posteriors.

Both samplers work on plain feature matrices: callers hand the specific
sample as an (m, k) array and the alternative population as a sequence of
per-source (m_i, k) arrays ordered by sorted source id (see
``EvidenceSet.alternative_groups``).

Prosecution side, controls y_1..y_m ~ MVN(mu, Sigma) with
mu ~ MVN(mu0, L0) and Sigma ~ IW(Phi, nu).  No Markov chain is needed:
with mean ybar, scatter S and d = ybar - mu0, integrating mu out gives

    p(Sigma | Y)  proportional to  IW(Phi + S, nu + m - 1)(Sigma) N(ybar; mu0, L0 + Sigma/m)

and the normal factor is at most its value with Sigma = 0.  So Sigma is
drawn from that inverse Wishart and accepted with probability

    exp(-1/2 [log|L0 + Sigma/m| - log|L0| + d^T (L0 + Sigma/m)^-1 d]),

then mu | Sigma ~ MVN(P^-1 (L0^-1 mu0 + Sigma^-1 sum_y), P^-1) with
P = L0^-1 + m Sigma^-1.  The draws are iid; a chain keeps as many as the
settings retain.  An acceptance rate below ``ACCEPTANCE_FLOOR`` raises.

Defense side, y_ij = mu + a_i + w_ij with a_i ~ MVN(0, Sig_b) and
w_ij ~ MVN(0, Sig_w).  Each sweep draws (mu, a) jointly given the
covariances, then the covariances (Liu, Wong & Kong 1994, Biometrika
81:27).  With V_m = Sig_b + Sig_w / m for a source of m fragments:

    mu    | Sig_b, Sig_w ~ MVN(P^-1 h, P^-1), the effects integrated out:
                           P = L0^-1 + sum_i V_{m_i}^-1,
                           h = L0^-1 mu0 + sum_i V_{m_i}^-1 ybar_i
    a_i   | mu, ...      ~ MVN(G (ybar_i - mu), G Sig_w / m_i), G = Sig_b V_{m_i}^-1
    Sig_w | mu, a        ~ IW(Phi_w + W + sum_i m_i e_i e_i^T, nu_w + sum_i m_i),
                           W the pooled within scatter, e_i = ybar_i - mu - a_i
    Sig_b | a            ~ IW(Phi_b + sum_i a_i a_i^T, nu_b + n)

Without the blocking, mu and the effects move in tiny steps when Sig_b
dominates Sig_w.  One lockstep core advances many chains at once as
stacked (C, k, k) arrays, each chain on its own data set and its own
stream; random numbers come in fixed blocks per chain, so a chain's draws
do not depend on which other chains run beside it.  Chains are merged in
(chain, iteration) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import next_fast_len

from .errors import ConfigError, DataError, DegenerateChainError, NotSpdError, NumericalError
from .stats import RngStream, SpdMatrix, SpdStack, as_vector, invwishart_bartlett

__all__ = [
    "AlternativePrior",
    "DEFENSE",
    "DrawSet",
    "McmcSettings",
    "PROSECUTION",
    "SpecificPrior",
    "draw_columns",
    "effective_sample_size",
    "gibbs_alternative",
    "gibbs_specific",
    "read_draws",
    "sample_alternative",
    "stream_id",
    "write_draws",
]

PROSECUTION = "prosecution-side"
DEFENSE = "defense-side"

# Stream-id allocation: purpose in the high bits keeps the prosecution,
# defense, and simulation streams of one seed disjoint by construction.
PURPOSE_SPECIFIC = 1
PURPOSE_ALTERNATIVE = 2
PURPOSE_SIMULATION = 3

#: Iterations whose random numbers are drawn at once from each defense chain's
#: stream.  Fixed, so a chain uses its stream the same way at any batch size.
BLOCK_ITERATIONS = 16
#: The exact prosecution-side sampler raises below this acceptance rate.
ACCEPTANCE_FLOOR = 0.01
#: Fewest proposals per round of the exact prosecution-side sampler.
MIN_PROPOSALS = 1024


def stream_id(purpose: int, job: int = 0, chain: int = 0) -> int:
    """Pack (purpose, job, chain) into one 64-bit stream id."""
    if not (0 <= purpose < 2**16 and 0 <= job < 2**32 and 0 <= chain < 2**16):
        raise ValueError("stream components out of range")
    return (purpose << 48) | (job << 16) | chain


@dataclass(frozen=True)
class SpecificPrior:
    """Prior for the specific-source mean and covariance."""

    mean: np.ndarray
    mean_cov: SpdMatrix
    cov_scale: SpdMatrix
    cov_df: float

    def __post_init__(self):
        object.__setattr__(self, "mean", as_vector(self.mean, name="prior mean"))
        k = self.mean.size
        if self.mean_cov.dim != k or self.cov_scale.dim != k:
            raise ConfigError("specific prior dimensions are inconsistent")
        if not self.cov_df > k - 1:
            raise ConfigError(
                f"specific prior df must exceed k-1 = {k - 1}, got {self.cov_df}"
            )

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def glass_default(cls) -> "SpecificPrior":
        """Weak default used for the three glass log-ratio variables."""
        return cls(
            mean=np.zeros(3),
            mean_cov=SpdMatrix.diagonal(3000.0, dim=3),
            cov_scale=SpdMatrix.diagonal([0.01, 0.00005, 0.0005]),
            cov_df=3.0,
        )


@dataclass(frozen=True)
class AlternativePrior:
    """Prior for the alternative-population mean and covariance pair."""

    mean: np.ndarray
    mean_cov: SpdMatrix
    between_scale: SpdMatrix
    between_df: float
    within_scale: SpdMatrix
    within_df: float

    def __post_init__(self):
        object.__setattr__(self, "mean", as_vector(self.mean, name="prior mean"))
        k = self.mean.size
        dims = (self.mean_cov.dim, self.between_scale.dim, self.within_scale.dim)
        if any(d != k for d in dims):
            raise ConfigError("alternative prior dimensions are inconsistent")
        for name, df in (("between", self.between_df), ("within", self.within_df)):
            if not df > k - 1:
                raise ConfigError(
                    f"alternative prior {name} df must exceed k-1 = {k - 1}, got {df}"
                )

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def glass_default(cls) -> "AlternativePrior":
        return cls(
            mean=np.zeros(3),
            mean_cov=SpdMatrix.diagonal(3000.0, dim=3),
            between_scale=SpdMatrix.diagonal(1.0, dim=3),
            between_df=3.0,
            within_scale=SpdMatrix.diagonal([0.01, 0.00005, 0.0005]),
            within_df=3.0,
        )


@dataclass(frozen=True)
class McmcSettings:
    iterations: int = 30000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    chains: int = 1

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if (self.iterations - self.burn_in) % self.thin != 0:
            raise ConfigError("iterations - burn_in must be divisible by thin")
        if self.chains < 1:
            raise ConfigError("chains must be >= 1")

    @property
    def kept_per_chain(self) -> int:
        return (self.iterations - self.burn_in) // self.thin

    def with_seed(self, seed: int) -> "McmcSettings":
        return replace(self, seed=int(seed))


@dataclass(frozen=True)
class DrawSet:
    """Ordered post-burn-in draws from one sampler run.

    ``means`` has shape (T, k); each entry of ``covariances`` maps a
    parameter name to a (T, k, k) stack.  T = chains * kept_per_chain, laid
    out chain-major in (chain, iteration) order.  Construction verifies the
    draw count, that every draw is finite and that every covariance draw
    admits a Cholesky factor.  The draw set owns the factors that check
    computes, as one :class:`SpdStack` per covariance (``spd_stack``), so
    no stack is factored again when traces are scored against it; the
    stacks must not be mutated after construction.
    """

    model: str
    means: np.ndarray
    covariances: dict[str, np.ndarray] = field(default_factory=dict)
    settings: McmcSettings = field(default_factory=McmcSettings)
    _factored: dict[str, SpdStack] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model not in (PROSECUTION, DEFENSE):
            raise ValueError(f"unknown model tag {self.model!r}")
        means = np.asarray(self.means, dtype=float)
        object.__setattr__(self, "means", means)
        expected = self.settings.chains * self.settings.kept_per_chain
        if means.shape[0] != expected:
            raise ValueError(
                f"draw count {means.shape[0]} does not match settings "
                f"(expected {expected})"
            )
        k = means.shape[1]
        factored = {}
        for name, stack in self.covariances.items():
            stack = np.asarray(stack, dtype=float)
            self.covariances[name] = stack
            if stack.shape != (means.shape[0], k, k):
                raise ValueError(f"covariance stack {name!r} has shape {stack.shape}")
            if not np.isfinite(stack).all():
                raise NumericalError(f"covariance draw in {name!r} is not finite")
            try:
                factored[name] = SpdStack(stack)
            except NotSpdError as exc:
                raise NumericalError(
                    f"covariance draw in {name!r} is not positive definite"
                ) from exc
        if not np.isfinite(means).all():
            raise NumericalError("mean draw is not finite")
        object.__setattr__(self, "_factored", factored)

    @property
    def size(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def cov(self, name: str) -> np.ndarray:
        return self.covariances[name]

    def spd_stack(self, name: str) -> SpdStack:
        """The covariance stack ``name`` with the factors validation computed."""
        return self._factored[name]

    def chain_slices(self) -> list[slice]:
        kept = self.settings.kept_per_chain
        return [slice(c * kept, (c + 1) * kept) for c in range(self.settings.chains)]


class _ChainFailure(NumericalError):
    """A batched step failed; ``chain`` is the first chain it failed in."""

    def __init__(self, chain: int, message: str):
        super().__init__(message)
        self.chain = chain


def _factor(routine, stack: np.ndarray, what: str) -> np.ndarray:
    """Apply a batched LAPACK ``routine``; on failure name the first failing chain.

    The chain is the index along the last batch axis of ``stack``.
    """
    try:
        return routine(stack)
    except np.linalg.LinAlgError:
        for idx in np.ndindex(stack.shape[:-2]):
            try:
                routine(stack[idx])
            except np.linalg.LinAlgError:
                chain = idx[-1] if idx else 0
                raise _ChainFailure(chain, f"{what} is not positive definite") from None
        raise


def _mean_given_cov(sigmas, m, sum_y, lam0_prec, shift0, z) -> np.ndarray:
    """Draws of mu | Sigma for m rows summing to ``sum_y``; one per row of ``z``.

    ``sigmas`` is a (T, k, k) stack, or (1, k, k) for one shared Sigma.  With
    precision P = L0^-1 + m Sigma^-1 = L L^T, each draw is
    P^-1 (L0^-1 mu0 + Sigma^-1 sum_y) + L^-T z.
    """
    sig_prec = np.linalg.inv(sigmas)
    prec = lam0_prec + m * sig_prec
    lower = _factor(np.linalg.cholesky, prec, "conditional precision")
    mean = np.linalg.solve(prec, (shift0 + sig_prec @ sum_y)[..., None])
    noise = np.linalg.solve(lower.swapaxes(-1, -2), z[..., None])
    return (mean + noise)[..., 0]


def _exact_covariances(gen, scale_post, df_post, lam0, ybar_dev, m, count):
    """``count`` accepted draws of Sigma from p(Sigma | Y), mu integrated out.

    Proposals come from IW(scale_post, df_post) = IW(Phi + S, nu + m - 1) in
    rounds sized by the acceptance rate seen so far.  With m >= 1 a proposal
    is accepted with probability N(ybar; mu0, L0 + Sigma/m) / N(0; 0, L0),
    which is at most 1; with m = 0 every proposal is a prior draw and is kept.
    """
    k = scale_post.shape[0]
    chol_post = _factor(np.linalg.cholesky, scale_post, "posterior scale")
    log_det_lam0 = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(lam0))))
    kept: list[np.ndarray] = []
    accepted = proposed = 0
    while accepted < count:
        rate = accepted / proposed if proposed else 1.0
        size = max(MIN_PROPOSALS, int(np.ceil((count - accepted) / max(rate, ACCEPTANCE_FLOOR))))
        chi2 = gen.chisquare(df_post - np.arange(k), size=(size, k))
        normals = gen.standard_normal((size, k * (k - 1) // 2))
        sigmas = invwishart_bartlett(chol_post, chi2, normals)
        if m:
            log_u = np.log(gen.random(size))
            lower = np.linalg.cholesky(lam0 + sigmas / m)
            z = np.linalg.solve(lower, np.broadcast_to(ybar_dev[:, None], (size, k, 1)))
            log_det = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=1, axis2=2)), axis=1)
            sigmas = sigmas[log_u < -0.5 * (log_det - log_det_lam0 + np.sum(z * z, axis=(1, 2)))]
        kept.append(sigmas)
        accepted += sigmas.shape[0]
        proposed += size
        if accepted < ACCEPTANCE_FLOOR * proposed:
            raise NumericalError(
                f"acceptance rate {accepted / proposed:.2g} is below the floor {ACCEPTANCE_FLOOR}"
            )
    return np.concatenate(kept)[:count]


def gibbs_specific(
    y,
    prior: SpecificPrior,
    settings: McmcSettings,
    *,
    sigma_fixed: SpdMatrix | None = None,
    job: int = 0,
) -> DrawSet:
    """Exact posterior draws of the specific source's (mu, Sigma) given controls ``y``.

    ``y`` is the (m, k) matrix of control measurements from the single
    specific source.  Each chain draws ``settings.kept_per_chain`` iid pairs
    from its own stream ``(settings.seed, job, chain)``: Sigma by rejection
    from its mu-integrated posterior, then mu from its normal conditional.
    ``sigma_fixed`` freezes the covariance at a known value (used by the
    analytic-oracle tests); mu then uses the normals an iteration-by-
    iteration sampler would, rows ``burn_in::thin`` of an (iterations, k)
    draw.  With m = 0 the draws come from the prior, which is proper.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float)) if np.size(y) else np.empty((0, prior.dim))
    if y.ndim != 2 or (y.shape[0] and y.shape[1] != prior.dim):
        raise DataError(f"control sample must be (m, {prior.dim}), got {y.shape}")
    m = y.shape[0]
    k = prior.dim
    ybar = y.mean(axis=0) if m else prior.mean
    dev = y - ybar
    scale_post = prior.cov_scale.values + dev.T @ dev
    df_post = prior.cov_df + max(m - 1, 0)
    lam0 = prior.mean_cov.values
    lam0_prec = np.linalg.inv(lam0)
    shift0 = lam0_prec @ prior.mean
    sum_y = y.sum(axis=0)
    kept = settings.kept_per_chain

    means = np.empty((settings.chains, kept, k))
    sigmas = np.empty((settings.chains, kept, k, k))
    for chain in range(settings.chains):
        gen = RngStream(settings.seed, stream_id(PURPOSE_SPECIFIC, job, chain)).generator
        try:
            if sigma_fixed is None:
                cov = _exact_covariances(gen, scale_post, df_post, lam0, ybar - prior.mean, m, kept)
                z = gen.standard_normal((kept, k))
            else:
                cov = sigma_fixed.values[None]
                z = gen.standard_normal((settings.iterations, k))[settings.burn_in :: settings.thin]
            means[chain] = _mean_given_cov(cov, m, sum_y, lam0_prec, shift0, z)
        except NumericalError as exc:
            raise NumericalError(f"{PROSECUTION} sampler, chain {chain}: {exc}") from None
        sigmas[chain] = cov

    return DrawSet(
        PROSECUTION, means.reshape(-1, k), {"sigma_s": sigmas.reshape(-1, k, k)}, settings
    )


def _group_statistics(groups, order, k) -> tuple[np.ndarray, np.ndarray]:
    """Group means (n, k), in ``order``, and the pooled within-group scatter (k, k)."""
    if not len(order):
        return np.empty((0, k)), np.zeros((k, k))
    rows = np.concatenate([groups[i] for i in order])
    sizes = np.array([groups[i].shape[0] for i in order])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    means = np.add.reduceat(rows, starts, axis=0) / sizes[:, None]
    dev = rows - np.repeat(means, sizes, axis=0)
    return means, dev.T @ dev


def sample_alternative(
    datasets,
    prior: AlternativePrior,
    settings: McmcSettings,
    *,
    jobs,
    labels=None,
) -> list[DrawSet]:
    """Sample the alternative-population posterior for many data sets in lockstep.

    ``datasets`` is a sequence of data sets, each a sequence of (m_i, k)
    arrays, one per source, in sorted source-id order; all data sets share
    one group-size layout (the same m_i in the same order).  Data set d runs
    ``settings.chains`` chains on streams ``(settings.seed, jobs[d], chain)``,
    and all C = len(datasets) * chains chains advance together as stacked
    (C, k, k) arrays.  Random numbers are drawn from each chain's own stream
    in blocks of ``BLOCK_ITERATIONS`` iterations, so a chain's draws do not
    depend on C or on the other chains.  Returns one DrawSet per data set.

    A factorization that fails raises :class:`NumericalError` naming
    ``labels[d]`` (when given), the chain and the iteration.  Any number of
    sources is accepted, since the priors are proper: with none the draws
    come from the prior.
    """
    k = prior.dim
    datasets = [[np.atleast_2d(np.asarray(g, dtype=float)) for g in groups] for groups in datasets]
    if len(jobs) != len(datasets):
        raise ValueError("need one job id per data set")
    for groups in datasets:
        for g in groups:
            if g.shape[1] != k:
                raise DataError(f"group has dimension {g.shape[1]}, expected {k}")
            if g.shape[0] < 1:
                raise DataError("every alternative source needs at least one fragment")
    layout = [g.shape[0] for g in datasets[0]]
    if any([g.shape[0] for g in groups] != layout for groups in datasets):
        raise DataError("data sets sampled together need one group-size layout")

    # Sources sorted by size, so each size class is one slice.
    order = np.argsort(layout, kind="stable")
    sizes = np.array(layout, dtype=int)[order]
    n, total = sizes.size, int(sizes.sum())
    chains = settings.chains
    stats = [_group_statistics(groups, order, k) for groups in datasets]
    ybars = np.repeat(np.array([s[0] for s in stats]), chains, axis=0)
    within = np.repeat(np.array([s[1] for s in stats]), chains, axis=0)
    # size classes: fragments per source (K, 1, 1, 1), source counts (K, 1, 1, 1),
    # sums of group means (K, C, k) and the slice of sources in each class
    class_m, starts, counts = np.unique(sizes, return_index=True, return_counts=True)
    class_rows = [slice(lo, lo + cnt) for lo, cnt in zip(starts.tolist(), counts.tolist())]
    class_sums = np.array([ybars[:, r].sum(axis=1) for r in class_rows])
    class_sums = class_sums.reshape(len(class_rows), ybars.shape[0], k)
    class_m = class_m.astype(float)[:, None, None, None]
    counts = counts.astype(float)[:, None, None, None]

    gens = [
        RngStream(settings.seed, stream_id(PURPOSE_ALTERNATIVE, job, chain)).generator
        for job in jobs
        for chain in range(chains)
    ]
    n_chains = len(gens)
    tri = k * (k - 1) // 2
    normals = np.empty((n_chains, BLOCK_ITERATIONS, k + n * k + 2 * tri))
    chi2 = np.empty((n_chains, BLOCK_ITERATIONS, 2 * k))
    dfs = np.concatenate(
        [prior.within_df + total - np.arange(k), prior.between_df + n - np.arange(k)]
    )

    lam0_prec = np.linalg.inv(prior.mean_cov.values)
    shift0 = lam0_prec @ prior.mean
    scale0 = np.stack([prior.within_scale.values, prior.between_scale.values])[:, None]
    # sigma[0] is Sigma_w, sigma[1] is Sigma_b
    sigma = np.empty((2, n_chains, k, k))
    sigma[0] = prior.within_scale.values / prior.within_df
    sigma[1] = prior.between_scale.values / prior.between_df
    effects = np.empty((n_chains, n, k))
    scale = np.empty((2, n_chains, k, k))
    weights = sizes[:, None].astype(float)
    kept = settings.kept_per_chain
    out_mu = np.empty((n_chains, kept, k))
    out_sigma = np.empty((2, n_chains, kept, k, k))

    stored = 0
    for it in range(settings.iterations):
        j = it % BLOCK_ITERATIONS
        if j == 0:
            for c, gen in enumerate(gens):
                gen.standard_normal(out=normals[c])
                chi2[c] = gen.chisquare(dfs, size=(BLOCK_ITERATIONS, 2 * k))
        z = normals[:, j]
        sigma_w, sigma_b = sigma
        try:
            # mu | Sigma_b, Sigma_w with the effects integrated out:
            # ybar_i ~ N(mu, Sigma_b + Sigma_w / m_i), one (K, C, k, k) stack
            v_inv = _factor(np.linalg.inv, sigma_b + sigma_w / class_m, "group-mean covariance")
            prec = lam0_prec + (counts * v_inv).sum(axis=0)
            shift = shift0 + (v_inv @ class_sums[..., None]).sum(axis=0)[..., 0]
            cov_mu = _factor(np.linalg.inv, prec, "mean conditional precision")
            low_mu = _factor(np.linalg.cholesky, cov_mu, "mean conditional covariance")
            mu = ((cov_mu @ shift[..., None]) + low_mu @ z[:, :k, None])[..., 0]

            # a_i | mu: mean G (ybar_i - mu), covariance G Sigma_w / m_i,
            # with G = Sigma_b (Sigma_b + Sigma_w / m_i)^-1
            gains = sigma_b @ v_inv
            cov = gains @ sigma_w / class_m
            cov = 0.5 * (cov + cov.swapaxes(-1, -2))
            low = _factor(np.linalg.cholesky, cov, "source-effect covariance")
            dev = ybars - mu[:, None]
            z_eff = z[:, k : k + n * k].reshape(n_chains, n, k)
            for gain, lower, r in zip(gains, low, class_rows):
                effects[:, r] = dev[:, r] @ gain.swapaxes(-1, -2)
                effects[:, r] += z_eff[:, r] @ lower.swapaxes(-1, -2)

            # Sigma_w, Sigma_b | mu, effects: both inverse-Wishart draws at once
            resid = dev - effects
            scale[0] = within + (resid * weights).swapaxes(-1, -2) @ resid
            scale[1] = effects.swapaxes(-1, -2) @ effects
            scale += scale0
            chol_scale = _factor(np.linalg.cholesky, scale, "covariance posterior scale")
            sigma = invwishart_bartlett(
                chol_scale,
                chi2[:, j].reshape(n_chains, 2, k).swapaxes(0, 1),
                z[:, k + n * k :].reshape(n_chains, 2, tri).swapaxes(0, 1),
            )
            # overflow does not make a factorization fail; stop at its first sign
            finite = np.isfinite(sigma).all(axis=(0, 2, 3))
            if not finite.all():
                raise _ChainFailure(int(np.argmin(finite)), "covariance draw is not finite")
        except NumericalError as exc:
            where = f"iteration {it}"
            if isinstance(exc, _ChainFailure):
                d, chain = divmod(exc.chain, chains)
                where = f"{labels[d] + ' ' if labels else ''}chain {chain}, {where}"
            raise NumericalError(f"{where}: {exc}") from None
        if it >= settings.burn_in and (it - settings.burn_in) % settings.thin == 0:
            out_mu[:, stored] = mu
            out_sigma[:, :, stored] = sigma
            stored += 1

    draws = []
    for d in range(len(datasets)):
        block = slice(d * chains, (d + 1) * chains)
        covs = {
            "sigma_b": out_sigma[1, block].reshape(-1, k, k),
            "sigma_w": out_sigma[0, block].reshape(-1, k, k),
        }
        draws.append(DrawSet(DEFENSE, out_mu[block].reshape(-1, k), covs, settings))
    return draws


def gibbs_alternative(
    groups,
    prior: AlternativePrior,
    settings: McmcSettings,
) -> DrawSet:
    """Sample the alternative-population posterior given grouped fragments.

    ``groups`` is a sequence of (m_i, k) arrays, one per source, in sorted
    source-id order.  Runs ``settings.chains`` lockstep chains of
    :func:`sample_alternative` on job 0's streams.
    """
    return sample_alternative([groups], prior, settings, jobs=[0])[0]


def effective_sample_size(chain) -> float:
    """ESS of a scalar chain via Geyer's initial positive sequence.

    Autocovariances are paired (gamma_2m + gamma_2m+1) and summed while the
    pairs stay positive; the result is clipped to [1, n].
    """
    x = np.asarray(chain, dtype=float)
    if x.ndim != 1 or x.size < 10:
        raise ValueError("chain must be 1-d with at least 10 entries")
    n = x.size
    x = x - x.mean()
    var = float(np.dot(x, x)) / n
    if var <= 0.0 or not np.isfinite(var):
        raise DegenerateChainError("degenerate chain")

    nfft = next_fast_len(2 * n)
    spec = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(spec * np.conj(spec), nfft)[:n].real / n
    rho = acov / acov[0]

    tau = -1.0
    m = 0
    while 2 * m + 1 < n:
        pair = rho[2 * m] + rho[2 * m + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        m += 1
    ess = n / max(tau, 1e-12)
    return float(min(max(ess, 1.0), n))


# ---------------------------------------------------------------------------
# Columnar draw serialization (one draw per row, lower-triangular covariances)

_FORMAT_TAG = "specsource-draws v1"

#: Rows formatted into one string per write: as fast as one write of the
#: whole body, without holding the whole body in memory.
_WRITE_BLOCK = 1024


def _tri_labels(name: str, k: int) -> list[str]:
    return [f"{name}_{i + 1}_{j + 1}" for i in range(k) for j in range(i + 1)]


def draw_columns(draws: DrawSet) -> tuple[list[str], np.ndarray]:
    """Flatten a DrawSet into (column names, (T, p) matrix)."""
    k = draws.dim
    cols = [f"mu_{i + 1}" for i in range(k)]
    blocks = [draws.means]
    tril = np.tril_indices(k)
    for name, stack in draws.covariances.items():
        cols.extend(_tri_labels(name, k))
        blocks.append(stack[:, tril[0], tril[1]])
    return cols, np.concatenate(blocks, axis=1)


def write_draws(draws: DrawSet, path) -> None:
    cols, table = draw_columns(draws)
    s = draws.settings
    kept = s.kept_per_chain
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {_FORMAT_TAG}\n")
        fh.write(f"# model: {draws.model}\n")
        fh.write(f"# k: {draws.dim}\n")
        fh.write(
            f"# iterations: {s.iterations}\n# burn_in: {s.burn_in}\n"
            f"# thin: {s.thin}\n# chains: {s.chains}\n# seed: {s.seed}\n"
        )
        fh.write("chain,iteration," + ",".join(cols) + "\n")
        row = "%d,%d," + ",".join(["%.17g"] * table.shape[1]) + "\n"
        for start in range(0, table.shape[0], _WRITE_BLOCK):
            block = table[start : start + _WRITE_BLOCK].tolist()
            fh.write("".join([
                row % (t // kept, s.burn_in + (t % kept) * s.thin, *values)
                for t, values in enumerate(block, start)
            ]))


def read_draws(path) -> DrawSet:
    """Read a draw file written by :func:`write_draws`.

    Corruption raises :class:`DataError`: short rows and non-numeric cells
    name the byte offset of the offending line; bad or inconsistent
    metadata (settings that do not match the row count, a ``k`` or model
    tag that does not match the header) and stored covariances that are not
    positive definite name what disagrees.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read draw file {path}: {exc}") from exc

    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[np.ndarray] = []
    offset = 0
    for raw in blob.split(b"\n"):
        line_offset = offset
        offset += len(raw) + 1
        if not raw.strip():
            continue
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"corrupt draw file: undecodable bytes at byte offset {line_offset}")
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        if len(cells) != len(header):
            raise DataError(
                f"corrupt draw file: expected {len(header)} fields at byte offset {line_offset}"
            )
        try:
            rows.append(np.array([float(c) for c in cells[2:]]))
        except ValueError:
            raise DataError(
                f"corrupt draw file: non-numeric cell at byte offset {line_offset}"
            ) from None

    if header is None or not rows:
        raise DataError("corrupt draw file: no draw rows found")
    for key in ("model", "k", "iterations", "burn_in", "thin", "chains", "seed"):
        if key not in meta:
            raise DataError(f"corrupt draw file: missing metadata field {key!r}")

    model = meta["model"]
    if model not in (PROSECUTION, DEFENSE):
        raise DataError(f"corrupt draw file: unknown model tag {model!r}")
    cov_names = ("sigma_s",) if model == PROSECUTION else ("sigma_b", "sigma_w")
    try:
        k = int(meta["k"])
        settings = McmcSettings(
            iterations=int(meta["iterations"]),
            burn_in=int(meta["burn_in"]),
            thin=int(meta["thin"]),
            seed=int(meta["seed"]),
            chains=int(meta["chains"]),
        )
    except (ValueError, ConfigError) as exc:
        raise DataError(f"corrupt draw file: {exc}") from None
    per_cov = k * (k + 1) // 2
    expected = 2 + k + len(cov_names) * per_cov
    if k < 1 or len(header) != expected:
        raise DataError(
            f"corrupt draw file: header has {len(header)} columns, but a "
            f"{model} file with k = {k} has {expected}"
        )
    tril = np.tril_indices(k)
    table = np.vstack(rows)
    means = table[:, :k]
    covs: dict[str, np.ndarray] = {}
    pos = k
    for name in cov_names:
        flat = table[:, pos : pos + per_cov]
        stack = np.zeros((table.shape[0], k, k))
        stack[:, tril[0], tril[1]] = flat
        stack[:, tril[1], tril[0]] = flat
        covs[name] = stack
        pos += per_cov
    try:
        return DrawSet(model, means, covs, settings)
    except (ValueError, NumericalError) as exc:
        raise DataError(f"corrupt draw file: {exc}") from None
