"""Assembling the value of evidence.

Two routes to the denominator are supported.  The plug-in route freezes the
alternative-population parameters at method-of-moments estimates and
evaluates the trace's sampling density there; the full route averages the
trace's density over posterior draws of those parameters.  The numerator is
the same for both: the posterior-predictive density of the trace given the
control sample from the specific source.

Every trace density, numerator and both denominators alike, comes from
the one shared-effect kernel :func:`specsource.stats.compound_logpdf`,
evaluated in the trace's sufficient statistics for a whole DrawSet at once.
The kernel reuses the Cholesky factors the DrawSet computed when it
validated its draws, and derives the within stack's log-determinants and
inverses on the first trace scored.  Each trace then costs one forward
solve per draw for the numerator, plus one k x k factorization of
Sw + m Sb per draw for the full denominator, whatever the number of trace
fragments.  Monte Carlo standard errors are ESS-adjusted on the log
scale via the delta method.  Numerator and denominator chains live on
disjoint RNG streams, so the combined uncertainty of a log Bayes factor is
a simple quadrature sum.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DataError, DegenerateChainError
from .evidence import EvidenceSet
from .gibbs import (
    DEFENSE,
    PROSECUTION,
    AlternativePrior,
    DrawSet,
    McmcSettings,
    SpecificPrior,
    effective_sample_size,
    gibbs_alternative,
    gibbs_specific,
)
from .stats import SpdMatrix, as_vector, compound_logpdf, log_mean_exp

__all__ = [
    "AltPlugInEstimate",
    "BayesFactorReport",
    "LogDensityEstimate",
    "assemble_report",
    "closed_form_predictive_known_cov",
    "evaluate_scenario",
    "log_denominator_full",
    "log_denominator_plugin",
    "log_numerator",
    "plugin_estimates",
]

#: Eigenvalue floor used when repairing a non-PD moment estimate.
EIGENVALUE_FLOOR = 1e-8


@dataclass(frozen=True)
class AltPlugInEstimate:
    """Method-of-moments estimate of the alternative-population parameters.

    ``clamped`` records whether either scatter matrix needed its eigenvalues
    floored to stay positive definite; ``min_eigenvalue`` is the smallest
    eigenvalue seen across both matrices before any repair.
    """

    mean: np.ndarray
    within: SpdMatrix
    between: SpdMatrix
    clamped: bool
    min_eigenvalue: float

    @property
    def dim(self) -> int:
        return self.mean.size


def _clamp_psd(scatter: np.ndarray, floor: float) -> tuple[np.ndarray, float, bool]:
    vals, vecs = np.linalg.eigh(0.5 * (scatter + scatter.T))
    smallest = float(vals[0])
    if smallest >= floor:
        return scatter, smallest, False
    repaired = (vecs * np.maximum(vals, floor)) @ vecs.T
    return repaired, smallest, True


def plugin_estimates(groups, *, floor: float = EIGENVALUE_FLOOR) -> AltPlugInEstimate:
    """Moment estimators for a balanced grouped sample.

    ``groups`` is an (n, m, k) stack of per-source matrices, or a sequence
    of n per-source (m, k) matrices, all with the same m >= 2.  The
    between-source estimate subtracts the within share of the group-mean
    scatter and can come out indefinite on tight data; any eigenvalue below
    ``floor`` is clamped up and flagged.
    """
    n = len(groups)
    if n < 2:
        raise DataError(f"plug-in estimates need at least 2 sources, got {n}")
    if not isinstance(groups, np.ndarray):
        mats = [np.atleast_2d(np.asarray(g, dtype=float)) for g in groups]
        sizes = sorted({g.shape[0] for g in mats})
        if len(sizes) > 1:
            raise DataError(f"plug-in path requires balance; group sizes are {sizes}")
        if len({g.shape[1] for g in mats}) > 1:
            raise DataError("groups have inconsistent feature dimensions")
        groups = mats
    stack = np.asarray(groups, dtype=float)
    m, k = stack.shape[1:]
    if m < 2:
        raise DataError("plug-in within-source scatter needs m >= 2 per source")

    grand = stack.reshape(n * m, k).mean(axis=0)
    group_means = stack.mean(axis=1)

    centered = (stack - group_means[:, None]).reshape(n * m, k)
    within = centered.T @ centered / (n * (m - 1))

    mean_dev = group_means - grand
    between = mean_dev.T @ mean_dev / (n - 1) - within / m

    within_fixed, within_min, within_clamped = _clamp_psd(within, floor)
    between_fixed, between_min, between_clamped = _clamp_psd(between, floor)
    return AltPlugInEstimate(
        mean=grand,
        within=SpdMatrix(within_fixed),
        between=SpdMatrix(between_fixed),
        clamped=within_clamped or between_clamped,
        min_eigenvalue=min(within_min, between_min),
    )


@dataclass(frozen=True)
class LogDensityEstimate:
    """A log-density value with its Monte Carlo uncertainty.

    ``mc_se`` is zero for deterministic (plug-in) evaluations.  When every
    Monte Carlo term underflowed to -inf the value is -inf and ``mc_se`` is
    infinite.
    """

    log_value: float
    mc_se: float
    draws: int
    dim: int

    def __post_init__(self):
        if np.isnan(self.log_value) or self.log_value == np.inf:
            raise ValueError("log_value must be finite or -inf")
        if not self.mc_se >= 0:
            raise ValueError("mc_se must be nonnegative")


def _trace_matrix(e_u, dim: int | None = None, against: str = "") -> np.ndarray:
    """The trace as an (m, k) matrix; a DataError unless nonempty with k == ``dim``."""
    if isinstance(e_u, EvidenceSet):
        pts = e_u.trace_matrix()
    else:
        pts = np.atleast_2d(np.asarray(e_u, dtype=float))
    if pts.size == 0:
        raise DataError("trace sample is empty")
    if dim is not None and pts.shape[1] != dim:
        raise DataError(f"trace dimension {pts.shape[1]} does not match {against} ({dim})")
    return pts


def _mc_se_of_log_mean(values: np.ndarray, chain_slices) -> float:
    """Delta-method SE of log-mean-exp over correlated draws; infinite if all are -inf."""
    peak = float(np.max(values))
    if peak == -np.inf:
        return np.inf
    weights = np.exp(values - peak)
    mean_w = float(weights.mean())
    sd_w = float(weights.std(ddof=1)) if weights.size > 1 else 0.0
    if sd_w == 0.0:
        return 0.0
    ess_total = 0.0
    for block in chain_slices:
        chunk = weights[block]
        if chunk.size < 10:
            ess_total += chunk.size
            continue
        try:
            ess_total += effective_sample_size(chunk)
        except DegenerateChainError:
            ess_total += chunk.size
    return sd_w / (mean_w * np.sqrt(ess_total))


def _mc_estimate(e_u, draws: DrawSet, model: str, between, within) -> LogDensityEstimate:
    """Log-mean-exp of the trace's compound density over ``draws``, with its MC-SE.

    ``between`` names the shared-effect covariance stack, or is None for
    conditionally iid fragments; ``within`` names the other stack.
    """
    if draws.model != model:
        raise ValueError(f"expected a {model} DrawSet, got {draws.model!r}")
    points = _trace_matrix(e_u, draws.dim, "draws")
    sigma_b = None if between is None else draws.cov(between)
    values = compound_logpdf(points, draws.means, sigma_b, draws.spd_stack(within))
    log_value = log_mean_exp(values)
    mc_se = _mc_se_of_log_mean(values, draws.chain_slices())
    return LogDensityEstimate(log_value, mc_se, draws.size, draws.dim)


def log_numerator(e_u, draws: DrawSet) -> LogDensityEstimate:
    """Monte Carlo posterior-predictive log-density of the trace, prosecution side.

    Averages the trace's joint density (fragments conditionally iid given
    the specific-source parameters) over the posterior draws.
    """
    return _mc_estimate(e_u, draws, PROSECUTION, None, "sigma_s")


def log_denominator_plugin(e_u, estimate: AltPlugInEstimate) -> LogDensityEstimate:
    """Deterministic trace log-density at the plug-in parameter estimates.

    The trace fragments share one latent source effect, so this is the
    shared-effect compound density, not a product of marginals.  Only the
    precomputed estimate enters; the alternative sample itself is not read.
    """
    points = _trace_matrix(e_u, estimate.dim, "estimate")
    value = compound_logpdf(points, estimate.mean, estimate.between, estimate.within)
    return LogDensityEstimate(value, 0.0, 0, estimate.dim)


def log_denominator_full(e_u, draws: DrawSet) -> LogDensityEstimate:
    """Monte Carlo posterior-predictive log-density of the trace, defense side."""
    return _mc_estimate(e_u, draws, DEFENSE, "sigma_b", "sigma_w")


def closed_form_predictive_known_cov(e_u, e_s, mu0, lambda0, sigma) -> float:
    """Exact posterior-predictive log-density when the covariance is known.

    Conjugate normal-normal update of the mean from ``e_s``, then the joint
    density of the ``e_u`` rows, which share the posterior mean uncertainty
    the way compound fragments share a source effect.  Serves as the
    analytic oracle for the Monte Carlo numerator run with a frozen
    covariance.
    """
    sigma = sigma if isinstance(sigma, SpdMatrix) else SpdMatrix(sigma)
    lambda0 = lambda0 if isinstance(lambda0, SpdMatrix) else SpdMatrix(lambda0)
    k = sigma.dim
    mu0 = as_vector(mu0, dim=k, name="mu0")
    controls = np.atleast_2d(np.asarray(e_s, dtype=float))
    points = _trace_matrix(e_u)
    if controls.shape[1] != k or points.shape[1] != k:
        raise DataError("dimension mismatch between evidence and covariance")

    m = controls.shape[0]
    lam0_prec = np.linalg.inv(lambda0.values)
    sig_prec = np.linalg.inv(sigma.values)
    post_prec = lam0_prec + m * sig_prec
    post_cov = np.linalg.inv(post_prec)
    post_mean = post_cov @ (lam0_prec @ mu0 + sig_prec @ controls.sum(axis=0))
    return compound_logpdf(points, post_mean, SpdMatrix(post_cov), sigma)


@dataclass(frozen=True)
class BayesFactorReport:
    """Both factored forms of the value of evidence, with uncertainty.

    Naming: the numerator and the full denominator are belief densities
    (posterior predictives, updated on the control respectively population
    samples); the plug-in denominator is a pure sampling density evaluated
    at point estimates, with no belief content, hence its zero MC-SE.

    The log values are primary; the raw-scale factors are exp of the exact
    log differences.  Combined standard errors add numerator and denominator
    contributions in quadrature (their chains are independent by stream
    separation).
    """

    scenario: str
    hypothesis_prosecution: str
    hypothesis_defense: str
    log_numerator: float
    numerator_mc_se: float
    numerator_draws: int
    log_denominator_plugin: float
    log_denominator_full: float
    full_mc_se: float
    full_draws: int
    log_v_plugin: float
    v_plugin: float
    mc_se_log_v_plugin: float
    log_v_full: float
    v_full: float
    mc_se_log_v_full: float
    seed: int
    config_hash: str
    tool_version: str
    notes: tuple[str, ...] = ()

    def fields(self) -> dict:
        """Flat field view in declaration order, which is the report order."""
        view = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        view["notes"] = list(self.notes)
        return view


def assemble_report(
    numerator: LogDensityEstimate,
    den_plugin: LogDensityEstimate,
    den_full: LogDensityEstimate,
    *,
    scenario: str,
    hypothesis_prosecution: str,
    hypothesis_defense: str,
    seed: int,
    config_hash: str = "",
    notes: tuple[str, ...] = (),
) -> BayesFactorReport:
    """Combine the three estimates and the run's provenance into one report.

    The three estimates must agree on the feature dimension (a cheap guard
    against mixing scenarios).  The report records this package's version.
    """
    dims = {numerator.dim, den_plugin.dim, den_full.dim}
    if len(dims) != 1:
        raise ValueError(f"estimates disagree on dimension: {sorted(dims)}")

    log_v_plugin = numerator.log_value - den_plugin.log_value
    log_v_full = numerator.log_value - den_full.log_value
    return BayesFactorReport(
        scenario=scenario,
        hypothesis_prosecution=hypothesis_prosecution,
        hypothesis_defense=hypothesis_defense,
        log_numerator=numerator.log_value,
        numerator_mc_se=numerator.mc_se,
        numerator_draws=numerator.draws,
        log_denominator_plugin=den_plugin.log_value,
        log_denominator_full=den_full.log_value,
        full_mc_se=den_full.mc_se,
        full_draws=den_full.draws,
        log_v_plugin=log_v_plugin,
        log_v_full=log_v_full,
        v_plugin=float(np.exp(log_v_plugin)),
        v_full=float(np.exp(log_v_full)),
        mc_se_log_v_plugin=float(np.hypot(numerator.mc_se, den_plugin.mc_se)),
        mc_se_log_v_full=float(np.hypot(numerator.mc_se, den_full.mc_se)),
        seed=seed,
        config_hash=config_hash,
        tool_version=__version__,
        notes=notes,
    )


@dataclass(frozen=True)
class ScenarioEvaluation:
    report: BayesFactorReport
    prosecution_draws: DrawSet
    defense_draws: DrawSet
    plugin_estimate: AltPlugInEstimate


def evaluate_scenario(
    evidence: EvidenceSet,
    specific_prior: SpecificPrior,
    alternative_prior: AlternativePrior,
    settings: McmcSettings,
    *,
    scenario: str = "",
    config_hash: str = "",
) -> ScenarioEvaluation:
    """Run the whole pipeline on one evidence triple.

    Computes the plug-in estimates first, so data the plug-in route rejects
    (unbalanced groups) fail before any sampling; then samples both
    posteriors (disjoint streams of ``settings.seed``), computes all three
    density estimates, and packs the report.
    """
    controls = evidence.specific_matrix()
    groups = [g for _, g in evidence.alternative_groups()]
    trace = evidence.trace_matrix()

    estimate = plugin_estimates(groups)
    prosecution = gibbs_specific(controls, specific_prior, settings)
    defense = gibbs_alternative(groups, alternative_prior, settings)

    numerator = log_numerator(trace, prosecution)
    den_plugin = log_denominator_plugin(trace, estimate)
    den_full = log_denominator_full(trace, defense)

    specific_id = evidence.e_s[0].source_id if evidence.e_s else "the specific source"
    notes = []
    if estimate.clamped:
        notes.append(
            "plug-in moment estimate repaired: eigenvalue floor applied "
            f"(smallest raw eigenvalue {estimate.min_eigenvalue:.6e})"
        )
    report = assemble_report(
        numerator,
        den_plugin,
        den_full,
        scenario=scenario,
        hypothesis_prosecution=(
            f"The trace originated from the specific source {specific_id!r}."
        ),
        hypothesis_defense=(
            "The trace originated from another source in the relevant "
            "alternative source population."
        ),
        seed=settings.seed,
        config_hash=config_hash,
        notes=tuple(notes),
    )
    return ScenarioEvaluation(report, prosecution, defense, estimate)
