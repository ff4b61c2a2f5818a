"""Deterministic probability kernels used by every other module.

Multivariate-normal and inverse-Wishart log-densities and samplers, the
joint density of repeated measurements sharing one latent source effect,
and numerically stable log-space averaging.  All log-densities are natural
logs and everything is computed in log space end to end; raw-scale values
only appear in reports.

Randomness is supplied explicitly through :class:`RngStream`, a seedable
counter-based stream.  Every function here is pure given its stream, so
concurrent callers are safe as long as each owns a distinct stream.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.lapack import dtrtrs as _lapack_dtrtrs

from .errors import NotSpdError

__all__ = [
    "LOG_2PI",
    "RngStream",
    "SpdMatrix",
    "as_vector",
    "compound_logpdf",
    "log_mean_exp",
    "mvn_logpdf",
    "sample_inverse_wishart",
    "sample_mvn",
]

LOG_2PI = float(np.log(2.0 * np.pi))


def _trtrs(a: np.ndarray, b: np.ndarray, lower: int = 1, trans: int = 0):
    """Thin LAPACK triangular solve; avoids scipy wrapper overhead."""
    x, info = _lapack_dtrtrs(a, b, lower=lower, trans=trans)
    return x, info

#: Relative asymmetry tolerated before a matrix is rejected as non-symmetric.
SYMMETRY_RTOL = 1e-12


def as_vector(x, *, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return ``x`` as a finite 1-d float array of length >= 1."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-d vector with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    if dim is not None and arr.size != dim:
        raise ValueError(f"{name} has length {arr.size}, expected {dim}")
    return arr


class SpdMatrix:
    """A symmetric positive-definite matrix with a cached Cholesky factor.

    The constructor checks symmetry (to within ``SYMMETRY_RTOL`` relative),
    symmetrizes exactly, and rejects anything whose Cholesky factorization
    fails.  The lower-triangular factor is computed lazily and reused by all
    density evaluations, which is what makes repeated kernel calls cheap.
    """

    __slots__ = ("values", "_chol")

    def __init__(self, values):
        arr = np.array(values, dtype=float)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NotSpdError("matrix has non-finite entries")
        scale = float(np.max(np.abs(arr))) if arr.size else 0.0
        asym = float(np.max(np.abs(arr - arr.T)))
        if asym > SYMMETRY_RTOL * max(scale, 1.0):
            raise NotSpdError(
                f"matrix is not symmetric (max asymmetry {asym:.3e} at scale {scale:.3e})"
            )
        arr = 0.5 * (arr + arr.T)
        arr.flags.writeable = False
        self.values = arr
        self._chol = None

    @classmethod
    def diagonal(cls, diag, dim: int | None = None) -> "SpdMatrix":
        """Build diag(d) from a vector, or d*I_dim from a scalar and ``dim``."""
        d = np.asarray(diag, dtype=float)
        if d.ndim == 0:
            if dim is None:
                raise ValueError("dim is required for a scalar diagonal")
            d = np.full(dim, float(d))
        return cls(np.diag(d))

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    @property
    def chol(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T equal to the matrix."""
        if self._chol is None:
            try:
                self._chol = np.linalg.cholesky(self.values)
            except np.linalg.LinAlgError as exc:
                raise NotSpdError(
                    "Cholesky factorization failed: matrix is not positive definite"
                ) from exc
        return self._chol

    @property
    def log_det(self) -> float:
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return ``matrix^{-1} @ b`` via the cached factorization."""
        return cho_solve((self.chol, True), np.asarray(b, dtype=float))

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.dim))

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.values
        return self.values.astype(dtype)

    def __repr__(self) -> str:
        return f"SpdMatrix({self.values!r})"


def _as_spd(sigma, *, name: str = "sigma") -> SpdMatrix:
    if isinstance(sigma, SpdMatrix):
        return sigma
    try:
        return SpdMatrix(sigma)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


class RngStream:
    """Seedable counter-based random stream.

    Identical ``(seed, stream)`` pairs reproduce the same draw sequence;
    distinct stream ids give statistically independent streams.  Backed by
    the Philox counter-based bit generator, so reproducibility holds within
    this implementation (not across libraries or languages).
    """

    __slots__ = ("seed", "stream", "generator")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        if not 0 <= self.stream < 2**64:
            raise ValueError("stream id must fit in 64 bits")
        key = np.random.SeedSequence(
            entropy=self.seed & (2**64 - 1),
            spawn_key=(self.stream >> 32, self.stream & 0xFFFFFFFF),
        )
        self.generator = np.random.Generator(np.random.Philox(key))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def mvn_logpdf(x, mu, sigma) -> float | np.ndarray:
    """Log-density of MVN(mu, sigma) at ``x``.

    ``x`` may be a single point (shape ``(k,)``, returns a float) or a stack
    of points (shape ``(m, k)``, returns shape ``(m,)``).  Evaluation goes
    through the triangular factor of ``sigma``, so finite inputs with an SPD
    covariance never produce ``-inf``.
    """
    spd = _as_spd(sigma)
    mu = as_vector(mu, dim=spd.dim, name="mu")
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != spd.dim:
        raise ValueError(
            f"point dimension {pts.shape[1]} does not match covariance dimension {spd.dim}"
        )
    z = solve_triangular(spd.chol, (pts - mu).T, lower=True)
    quad = np.sum(z * z, axis=0)
    out = -0.5 * (spd.dim * LOG_2PI + spd.log_det + quad)
    return float(out[0]) if single else out


def sample_mvn(mu, sigma, rng: RngStream, size: int | None = None) -> np.ndarray:
    """Draw from MVN(mu, sigma); shape ``(k,)`` or ``(size, k)``."""
    spd = _as_spd(sigma)
    mu = as_vector(mu, dim=spd.dim, name="mu")
    n = 1 if size is None else int(size)
    z = rng.generator.standard_normal((n, spd.dim))
    draws = mu + z @ spd.chol.T
    return draws[0] if size is None else draws


def _tri_index_cache(k: int) -> tuple[np.ndarray, np.ndarray]:
    cached = _TRI_CACHE.get(k)
    if cached is None:
        cached = _TRI_CACHE[k] = np.tril_indices(k, -1)
    return cached


_TRI_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _invwishart_from_chol(chol_phi: np.ndarray, nu: float, gen) -> np.ndarray:
    """Bartlett-construction inverse-Wishart draw given chol(phi); raw array.

    Consumes one chisquare(k) vector then one standard_normal(k(k-1)/2)
    vector from ``gen``; callers relying on stream reproducibility depend on
    that order.
    """
    k = chol_phi.shape[0]
    # W = A A^T ~ Wishart(I, nu); draw = C (A A^T)^{-1} C^T with C = chol(phi).
    a = np.zeros((k, k))
    dfs = nu - np.arange(k)
    a[np.diag_indices(k)] = np.sqrt(gen.chisquare(dfs))
    if k > 1:
        rows, cols = _tri_index_cache(k)
        a[rows, cols] = gen.standard_normal(k * (k - 1) // 2)
    t, info = _trtrs(a, chol_phi.T, lower=1)
    if info != 0:
        raise NotSpdError("inverse-Wishart draw produced a singular factor")
    return t.T @ t


def sample_inverse_wishart(phi, nu: float, rng: RngStream) -> SpdMatrix:
    """Draw from the inverse Wishart with scale ``phi`` and ``nu`` degrees of freedom.

    Parameterization: density proportional to
    ``|S|^{-(nu+k+1)/2} exp(-tr(phi S^{-1})/2)``, so for ``nu > k+1`` the mean
    is ``phi / (nu - k - 1)``.  Requires ``nu > k - 1`` for a proper density.
    Uses the Bartlett construction, valid for non-integer ``nu``.
    """
    spd = _as_spd(phi, name="phi")
    k = spd.dim
    nu = float(nu)
    if not nu > k - 1:
        raise ValueError(f"degrees of freedom must exceed k-1 = {k - 1}, got {nu}")
    return SpdMatrix(_invwishart_from_chol(spd.chol, nu, rng.generator))


def _batched_chol(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(
            "Cholesky factorization failed: covariance is not positive definite"
        ) from exc


def _forward_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``lower @ x = rhs`` for a (T, k, k) stack of lower-triangular factors.

    Forward substitution row by row, each step vectorized over the stack;
    ``rhs`` is (T, k, r) or a shared (k, r).  Returns (T, k, r).
    """
    x = np.empty(lower.shape[:1] + rhs.shape[-2:])
    x[:] = rhs
    for i in range(lower.shape[-1]):
        if i:
            x[:, i] -= np.einsum("tj,tjr->tr", lower[:, i, :i], x[:, :i])
        x[:, i] /= lower[:, i, i, None]
    return x


def compound_logpdf(y, mu_a, sigma_b, sigma_w) -> float | np.ndarray:
    """Joint log-density of ``m`` measurement vectors sharing one source effect.

    Rows of ``y`` are exchangeable draws ``y_j = mu_a + a + w_j`` with a
    common ``a ~ MVN(0, sigma_b)`` and independent ``w_j ~ MVN(0, sigma_w)``.
    The density depends on the rows only through their mean ``ybar`` and
    within scatter ``S = sum_j (y_j - ybar)(y_j - ybar)^T`` (Lindley 1977):

        log p(Y) = -1/2 [m k log 2pi + (m-1) log|Sw| + log|Sw + m Sb|
                         + tr(Sw^-1 S) + m (ybar-mu)^T (Sw + m Sb)^-1 (ybar-mu)]

    so each parameter set costs two k x k Cholesky factorizations whatever
    ``m`` is, and the number of rows has no cap.  ``sigma_b=None`` drops the
    shared effect: the rows are then iid MVN(mu_a, sigma_w) and
    ``Sw + m Sb`` reduces to ``Sw``.

    One parameter set (``mu_a`` of shape (k,), covariances (k, k) or
    :class:`SpdMatrix`) gives a float; a stack of T sets ((T, k) means and
    (T, k, k) covariances) gives shape (T,).  Rows are put in lexicographic
    order before any reduction, so the value is bit-identical under every
    permutation of the rows.  A covariance without a Cholesky factor raises
    :class:`NotSpdError`.
    """
    single = np.ndim(sigma_w) < 3
    if single:
        w = _as_spd(sigma_w, name="sigma_w").values[None]
        b = None if sigma_b is None else _as_spd(sigma_b, name="sigma_b").values[None]
        means = as_vector(mu_a, dim=w.shape[-1], name="mu_a")[None]
    else:
        w = np.asarray(sigma_w, dtype=float)
        b = None if sigma_b is None else np.asarray(sigma_b, dtype=float)
        means = np.asarray(mu_a, dtype=float)
    t, k = w.shape[0], w.shape[-1]
    if b is not None and b.shape != w.shape:
        raise ValueError(f"sigma_b has shape {b.shape} but sigma_w has {w.shape}")
    if w.shape != (t, k, k) or means.shape != (t, k):
        raise ValueError(
            f"expected (T, {k}) means and (T, {k}, {k}) covariances, "
            f"got {means.shape} and {w.shape}"
        )
    pts = np.atleast_2d(np.asarray(y, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != k:
        raise ValueError(f"y must have shape (m, {k}), got {pts.shape}")
    m = pts.shape[0]
    if m < 1:
        raise ValueError("need at least one measurement vector")

    pts = pts[np.lexsort(pts.T[::-1])]
    ybar = pts.mean(axis=0)
    dev = pts - ybar
    lower_w = _batched_chol(w)
    lower_t = lower_w if b is None else _batched_chol(w + m * b)
    z = _forward_solve(lower_t, (ybar - means)[:, :, None])
    out = m * np.sum(z * z, axis=(1, 2))
    if m > 1:
        inv_w = _forward_solve(lower_w, np.eye(k))
        out += np.sum((inv_w @ (dev.T @ dev)) * inv_w, axis=(1, 2))
    out += 2.0 * (m - 1) * np.sum(np.log(np.diagonal(lower_w, axis1=1, axis2=2)), axis=1)
    out += 2.0 * np.sum(np.log(np.diagonal(lower_t, axis1=1, axis2=2)), axis=1)
    out = -0.5 * (m * k * LOG_2PI + out)
    return float(out[0]) if single else out


def log_mean_exp(values) -> float:
    """log of the arithmetic mean of exp(values), computed with a max shift.

    Exact for constant inputs (the shift cancels inside the log).  An
    all ``-inf`` input returns ``-inf`` and emits a RuntimeWarning so callers
    can flag underflowed estimates.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a nonempty 1-d array")
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise ValueError("values must be finite or -inf")
    m = float(np.max(v))
    if m == -np.inf:
        warnings.warn("log_mean_exp: all inputs are -inf", RuntimeWarning, stacklevel=2)
        return -np.inf
    return m + float(np.log(np.mean(np.exp(v - m))))
