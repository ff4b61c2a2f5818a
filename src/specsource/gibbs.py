"""Gibbs samplers for the two nuisance-parameter posteriors.

The prosecution side samples (mu, Sigma) of the specific-source
multivariate normal given the control fragments.  The defense side samples
(mu, Sigma_between, Sigma_within) of the random effects model for the
alternative population, cycling the latent per-source effects internally
but retaining only the population-level triple.

Both samplers work on plain feature matrices: callers hand the specific
sample as an (m, k) array and the alternative population as a sequence of
per-source (m_i, k) arrays ordered by sorted source id (see
``EvidenceSet.alternative_groups``).  Full conditionals:

prosecution side, data y_1..y_m ~ MVN(mu, Sigma):
    mu    | Sigma ~ MVN((L0i + m*Si)^-1 (L0i mu0 + Si sum_y), (L0i + m*Si)^-1)
    Sigma | mu    ~ InvWishart(scale + sum_j (y_j-mu)(y_j-mu)^T, df + m)
with L0i, Si the prior respectively current precision.

defense side, data y_ij = mu + a_i + w_ij:
    a_i   | rest ~ MVN(V_i m_i Swi (ybar_i - mu), V_i),  V_i = (Sbi + m_i Swi)^-1
    mu    | rest ~ conjugate MVN given residuals y_ij - a_i
    Sig_w | rest ~ InvWishart(scale_w + sum_ij r_ij r_ij^T, df_w + sum_i m_i)
    Sig_b | rest ~ InvWishart(scale_b + sum_i a_i a_i^T,    df_b + n)

One chain is strictly sequential; multiple chains each own a distinct
stream and are merged in (chain, iteration) order, so results do not depend
on how chains were scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.fft import next_fast_len
from scipy.linalg.lapack import dtrtrs

from .errors import ConfigError, DataError, DegenerateChainError, NumericalError
from .stats import RngStream, SpdMatrix, as_vector, invwishart_from_chol

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
    draw count and that every covariance draw admits a Cholesky factor.
    """

    model: str
    means: np.ndarray
    covariances: dict[str, np.ndarray] = field(default_factory=dict)
    settings: McmcSettings = field(default_factory=McmcSettings)

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
        for name, stack in self.covariances.items():
            stack = np.asarray(stack, dtype=float)
            self.covariances[name] = stack
            if stack.shape != (means.shape[0], k, k):
                raise ValueError(f"covariance stack {name!r} has shape {stack.shape}")
            try:
                np.linalg.cholesky(stack)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"covariance draw in {name!r} is not positive definite"
                ) from exc

    @property
    def size(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def cov(self, name: str) -> np.ndarray:
        return self.covariances[name]

    def chain_slices(self) -> list[slice]:
        kept = self.settings.kept_per_chain
        return [slice(c * kept, (c + 1) * kept) for c in range(self.settings.chains)]


def _chol(a: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite") from exc


def _inv_spd(a: np.ndarray, what: str) -> np.ndarray:
    lower = _chol(a, what)
    inv, info = dtrtrs(lower, np.eye(a.shape[0]), lower=1)
    if info != 0:
        raise NumericalError(f"{what} is numerically singular")
    return inv.T @ inv


def _draw_mvn_from_precision(prec: np.ndarray, shift: np.ndarray, gen) -> np.ndarray:
    """Draw MVN(prec^-1 shift, prec^-1) from the precision-form conditional."""
    lower = _chol(prec, "conditional precision")
    half, _ = dtrtrs(lower, shift, lower=1)
    mean, _ = dtrtrs(lower, half, lower=1, trans=1)
    z = gen.standard_normal(shift.size)
    tail, _ = dtrtrs(lower, z, lower=1, trans=1)
    return mean + tail


def gibbs_specific(
    y,
    prior: SpecificPrior,
    settings: McmcSettings,
    *,
    sigma_fixed: SpdMatrix | None = None,
) -> DrawSet:
    """Sample the specific-source posterior given control fragments ``y``.

    ``y`` is the (m, k) matrix of control measurements from the single
    specific source.  ``sigma_fixed`` freezes the covariance at a known
    value (used by the analytic-oracle tests).  With m = 0 the draws come
    from the prior, which is proper.
    """
    y = np.atleast_2d(np.asarray(y, dtype=float)) if np.size(y) else np.empty((0, prior.dim))
    if y.ndim != 2 or (y.shape[0] and y.shape[1] != prior.dim):
        raise DataError(f"control sample must be (m, {prior.dim}), got {y.shape}")
    m = y.shape[0]

    k = prior.dim
    sum_y = y.sum(axis=0) if m else np.zeros(k)
    lam0_prec = _inv_spd(prior.mean_cov.values, "prior mean covariance")
    shift0 = lam0_prec @ prior.mean
    prior_scale = prior.cov_scale.values
    kept = settings.kept_per_chain

    means = np.empty((settings.chains * kept, k))
    sigmas = np.empty((settings.chains * kept, k, k))

    for chain in range(settings.chains):
        gen = RngStream(settings.seed, stream_id(PURPOSE_SPECIFIC, 0, chain)).generator
        sigma = (
            sigma_fixed.values if sigma_fixed is not None else prior_scale / prior.cov_df
        )
        base = chain * kept
        stored = 0
        for it in range(settings.iterations):
            try:
                sig_prec = _inv_spd(sigma, "current covariance")
                prec = lam0_prec + m * sig_prec
                mu = _draw_mvn_from_precision(prec, shift0 + sig_prec @ sum_y, gen)
                if sigma_fixed is None:
                    resid = y - mu
                    chol_scale = _chol(prior_scale + resid.T @ resid, "posterior scale")
                    sigma = invwishart_from_chol(chol_scale, prior.cov_df + m, gen)
            except NumericalError as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
            if it >= settings.burn_in and (it - settings.burn_in) % settings.thin == 0:
                means[base + stored] = mu
                sigmas[base + stored] = sigma
                stored += 1

    return DrawSet(PROSECUTION, means, {"sigma_s": sigmas}, settings)


def gibbs_alternative(
    groups,
    prior: AlternativePrior,
    settings: McmcSettings,
) -> DrawSet:
    """Sample the alternative-population posterior given grouped fragments.

    ``groups`` is a sequence of (m_i, k) arrays, one per source, in sorted
    source-id order.  Latent source effects are updated jointly (one batched
    draw per sweep) but not retained.  Any number of sources is accepted,
    since the priors are proper: with none the draws come from the prior.
    """
    k = prior.dim
    groups = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
    for g in groups:
        if g.shape[1] != k:
            raise DataError(f"group has dimension {g.shape[1]}, expected {k}")
        if g.shape[0] < 1:
            raise DataError("every alternative source needs at least one fragment")
    n = len(groups)

    sizes = np.array([g.shape[0] for g in groups], dtype=int)
    total = int(sizes.sum())
    if n:
        stacked = np.concatenate(groups, axis=0)
        ybars = np.array([g.mean(axis=0) for g in groups])
        sum_y = stacked.sum(axis=0)
        group_index = np.repeat(np.arange(n), sizes)
        grand = sum_y / total
    else:
        stacked = np.empty((0, k))
        ybars = np.empty((0, k))
        sum_y = np.zeros(k)
        group_index = np.empty(0, dtype=int)
        grand = prior.mean.copy()
    size_classes = [(int(s), np.flatnonzero(sizes == s)) for s in np.unique(sizes)]

    lam0_prec = _inv_spd(prior.mean_cov.values, "prior mean covariance")
    shift0 = lam0_prec @ prior.mean
    scale_b0 = prior.between_scale.values
    scale_w0 = prior.within_scale.values
    kept = settings.kept_per_chain

    means = np.empty((settings.chains * kept, k))
    betweens = np.empty((settings.chains * kept, k, k))
    withins = np.empty((settings.chains * kept, k, k))

    for chain in range(settings.chains):
        gen = RngStream(
            settings.seed, stream_id(PURPOSE_ALTERNATIVE, 0, chain)
        ).generator
        mu = grand.copy()
        sigma_b = scale_b0 / prior.between_df
        sigma_w = scale_w0 / prior.within_df
        effects = ybars - mu
        base = chain * kept
        stored = 0
        for it in range(settings.iterations):
            try:
                w_prec = _inv_spd(sigma_w, "within covariance")
                b_prec = _inv_spd(sigma_b, "between covariance")
                if n:
                    z = gen.standard_normal((n, k))
                    centered = ybars - mu
                    for m_i, rows in size_classes:
                        prec_i = b_prec + m_i * w_prec
                        lower_i = _chol(prec_i, "source-effect conditional precision")
                        rhs = m_i * (w_prec @ centered[rows].T)
                        half, _ = dtrtrs(lower_i, rhs, lower=1)
                        cond_means, _ = dtrtrs(lower_i, half, lower=1, trans=1)
                        noise, _ = dtrtrs(lower_i, z[rows].T, lower=1, trans=1)
                        effects[rows] = (cond_means + noise).T
                effect_total = sizes @ effects if n else np.zeros(k)
                prec = lam0_prec + total * w_prec
                shift = shift0 + w_prec @ (sum_y - effect_total)
                mu = _draw_mvn_from_precision(prec, shift, gen)

                resid = stacked - mu - effects[group_index] if n else stacked
                chol_w = _chol(scale_w0 + resid.T @ resid, "within posterior scale")
                sigma_w = invwishart_from_chol(chol_w, prior.within_df + total, gen)

                chol_b = _chol(scale_b0 + effects.T @ effects, "between posterior scale")
                sigma_b = invwishart_from_chol(chol_b, prior.between_df + n, gen)
            except NumericalError as exc:
                raise NumericalError(f"iteration {it}: {exc}") from exc
            if it >= settings.burn_in and (it - settings.burn_in) % settings.thin == 0:
                idx = base + stored
                means[idx] = mu
                betweens[idx] = sigma_b
                withins[idx] = sigma_w
                stored += 1

    return DrawSet(
        DEFENSE, means, {"sigma_b": betweens, "sigma_w": withins}, settings
    )


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
        for t in range(table.shape[0]):
            chain, offset = divmod(t, kept)
            iteration = s.burn_in + offset * s.thin
            row = ",".join(f"{v:.17g}" for v in table[t])
            fh.write(f"{chain},{iteration},{row}\n")


def read_draws(path) -> DrawSet:
    """Read a draw file written by :func:`write_draws`.

    Corruption raises :class:`DataError`: short rows and non-numeric cells
    name the byte offset of the offending line; bad or inconsistent
    metadata (settings that do not match the row count, a ``k`` or model
    tag that does not match the header) names what disagrees.
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
    except ValueError as exc:
        raise DataError(f"corrupt draw file: {exc}") from None
