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
from scipy.linalg import solve_triangular

from .errors import NotSpdError

__all__ = [
    "LOG_2PI",
    "RngStream",
    "SpdMatrix",
    "SpdStack",
    "as_vector",
    "compound_logpdf",
    "invwishart_bartlett",
    "log_mean_exp",
    "mvn_logpdf",
    "sample_inverse_wishart",
    "sample_mvn",
]

LOG_2PI = float(np.log(2.0 * np.pi))


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


def invwishart_bartlett(chol_phi: np.ndarray, chi2: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Inverse-Wishart draws by the Bartlett construction from given variates.

    ``chol_phi`` is the lower Cholesky factor C of the scale, shape (k, k)
    or a stack (..., k, k).  Column i of ``chi2`` (shape (..., k)) is a
    chi-square variate with nu - i degrees of freedom; ``normals`` (shape
    (..., k(k-1)/2)) are standard normals filling the strict lower triangle
    of A row by row.  With W = A A^T ~ Wishart(I, nu), each draw is
    C (A A^T)^-1 C^T, returned as a (..., k, k) stack.
    """
    k = chi2.shape[-1]
    a = np.zeros(chi2.shape[:-1] + (k * k,))
    a[..., :: k + 1] = np.sqrt(chi2)
    a[..., [i * k + j for i in range(k) for j in range(i)]] = normals
    a = a.reshape(chi2.shape + (k,))
    try:
        t = np.linalg.solve(a, np.swapaxes(chol_phi, -1, -2))
    except np.linalg.LinAlgError as exc:
        raise NotSpdError("inverse-Wishart draw produced a singular factor") from exc
    return t.swapaxes(-1, -2) @ t


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
    gen = rng.generator
    chi2 = gen.chisquare(nu - np.arange(k))
    normals = gen.standard_normal(k * (k - 1) // 2)
    return SpdMatrix(invwishart_bartlett(spd.chol, chi2, normals))


def _batched_chol(covs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(covs)
    except np.linalg.LinAlgError as exc:
        raise NotSpdError(
            "Cholesky factorization failed: covariance is not positive definite"
        ) from exc


def _log_det(lower: np.ndarray) -> np.ndarray:
    """log-determinants of the matrices whose lower factors are the (T, k, k) ``lower``."""
    diag = np.arange(lower.shape[-1])
    return 2.0 * np.sum(np.log(lower[:, diag, diag]), axis=-1)


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


class SpdStack:
    """A (T, k, k) stack of symmetric positive-definite matrices, factored once.

    The constructor takes the lower Cholesky factor of every matrix, unless
    ``chol`` already holds them, and raises :class:`NotSpdError` if one has
    none.  The log-determinants and the inverses, each flattened to a row
    of length k*k so that tr(S^-1 A) for a symmetric A is one mat-vec, are
    derived from the factors on first use and cached.  ``values`` must not
    be mutated afterwards.
    """

    __slots__ = ("values", "chol", "_log_det", "_inv_flat")

    def __init__(self, values, chol=None):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"expected a (T, k, k) stack, got shape {arr.shape}")
        self.values = arr
        self.chol = _batched_chol(arr) if chol is None else chol
        self._log_det = None
        self._inv_flat = None

    @property
    def log_det(self) -> np.ndarray:
        if self._log_det is None:
            self._log_det = _log_det(self.chol)
        return self._log_det

    @property
    def inv_flat(self) -> np.ndarray:
        if self._inv_flat is None:
            inv_lower = _forward_solve(self.chol, np.eye(self.chol.shape[-1]))
            inverse = np.ascontiguousarray(inv_lower.swapaxes(1, 2)) @ inv_lower
            self._inv_flat = inverse.reshape(inverse.shape[0], -1)
        return self._inv_flat


def compound_logpdf(y, mu_a, sigma_b, sigma_w) -> float | np.ndarray:
    """Joint log-density of ``m`` measurement vectors sharing one source effect.

    Rows of ``y`` are exchangeable draws ``y_j = mu_a + a + w_j`` with a
    common ``a ~ MVN(0, sigma_b)`` and independent ``w_j ~ MVN(0, sigma_w)``.
    The density depends on the rows only through their mean ``ybar`` and
    within scatter ``S = sum_j (y_j - ybar)(y_j - ybar)^T`` (Lindley 1977):

        log p(Y) = -1/2 [m k log 2pi + (m-1) log|Sw| + log|Sw + m Sb|
                         + tr(Sw^-1 S) + m (ybar-mu)^T (Sw + m Sb)^-1 (ybar-mu)]

    so the number of rows has no cap.  ``sigma_b=None`` drops the shared
    effect: the rows are then iid MVN(mu_a, sigma_w) and ``Sw + m Sb``
    reduces to ``Sw``.

    One parameter set (``mu_a`` of shape (k,), covariances (k, k) or
    :class:`SpdMatrix`) gives a float; a stack of T sets ((T, k) means and
    (T, k, k) covariances) gives shape (T,).  ``sigma_w`` may be an
    :class:`SpdStack`, whose factors, log-determinants and inverses are then
    reused, or an :class:`SpdMatrix`, whose cached factor is: a call costs
    one batched k x k Cholesky factorization of ``Sw + m Sb`` (none without
    ``sigma_b``) and one forward solve, whatever ``m`` is.  A raw stack
    costs one more factorization, of ``Sw``.
    Rows are put in lexicographic order before any reduction, so the value
    is bit-identical under every permutation of the rows.  A covariance
    without a Cholesky factor raises :class:`NotSpdError`.
    """
    within = sigma_w if isinstance(sigma_w, SpdStack) else None
    single = within is None and np.ndim(sigma_w) < 3
    if single:
        spd_w = _as_spd(sigma_w, name="sigma_w")
        within = SpdStack(spd_w.values[None], spd_w.chol[None])
        w = within.values
        b = None if sigma_b is None else _as_spd(sigma_b, name="sigma_b").values[None]
        means = as_vector(mu_a, dim=spd_w.dim, name="mu_a")[None]
    else:
        w = np.asarray(sigma_w, dtype=float) if within is None else within.values
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

    if within is None:
        within = SpdStack(w)
    pts = pts[np.lexsort(pts.T[::-1])]
    ybar = pts.mean(axis=0)
    dev = pts - ybar
    lower_t = within.chol if b is None else _batched_chol(w + m * b)
    z = _forward_solve(lower_t, (ybar - means)[:, :, None])
    out = m * np.sum(z * z, axis=(1, 2))
    if m > 1:
        # S is symmetric, so tr(Sw^-1 S) is the dot product of the flattened pair.
        out += within.inv_flat @ (dev.T @ dev).ravel()
    out += (m - 1) * within.log_det
    out += within.log_det if b is None else _log_det(lower_t)
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
