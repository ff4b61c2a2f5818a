"""Synthetic evidence generation and the plug-in vs full-Bayes gap study.

Evidence triples are drawn from known true parameters: the control sample
from the specific source's own distribution, the alternative population
from the random effects model, and the trace from whichever side the
generating label selects.  The convergence study grows the alternative
population and tracks how far the plug-in value of evidence sits from the
fully Bayesian one; only the empirical trend is reported, no rate is
fitted.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, SpecSourceError
# The study scores cells itself; evaluate_scenario stays importable here
# because the benchmark's tracer (perfbench/tracing.py) wraps this name.
from .evaluate import (  # noqa: F401
    evaluate_scenario,
    log_denominator_full,
    log_denominator_plugin,
    log_numerator,
    plugin_estimates,
)
from .gibbs import (
    PURPOSE_SIMULATION,
    AlternativePrior,
    McmcSettings,
    SpecificPrior,
    gibbs_specific,
    sample_alternative,
    stream_id,
)
from .stats import RngStream, SpdMatrix, as_vector, sample_mvn

__all__ = [
    "ConvergenceRow",
    "DesignSpec",
    "TRACE_FROM_ALTERNATIVE",
    "TRACE_FROM_SPECIFIC",
    "TrueParams",
    "convergence_study",
    "default_study_design",
    "default_study_params",
    "simulate_evidence",
    "source_labels",
    "write_rows",
]

TRACE_FROM_SPECIFIC = "Mp"
TRACE_FROM_ALTERNATIVE = "Md"


@dataclass(frozen=True)
class TrueParams:
    """Known generating parameters for both sides."""

    mu_s: np.ndarray
    sigma_s: SpdMatrix
    mu_a: np.ndarray
    sigma_b: SpdMatrix
    sigma_w: SpdMatrix

    def __post_init__(self):
        object.__setattr__(self, "mu_s", as_vector(self.mu_s, name="mu_s"))
        object.__setattr__(self, "mu_a", as_vector(self.mu_a, name="mu_a"))
        k = self.mu_s.size
        dims = (self.mu_a.size, self.sigma_s.dim, self.sigma_b.dim, self.sigma_w.dim)
        if any(d != k for d in dims):
            raise ConfigError("true parameters have inconsistent dimensions")

    @property
    def dim(self) -> int:
        return self.mu_s.size


@dataclass(frozen=True)
class DesignSpec:
    """Counts for one simulated evidence triple."""

    n_sources: int
    fragments_per_source: int
    n_specific: int
    n_trace: int
    trace_model: str = TRACE_FROM_SPECIFIC

    def __post_init__(self):
        if self.n_sources < 2:
            raise ConfigError("need at least 2 alternative sources")
        for name, value in (
            ("fragments_per_source", self.fragments_per_source),
            ("n_specific", self.n_specific),
            ("n_trace", self.n_trace),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.trace_model not in (TRACE_FROM_SPECIFIC, TRACE_FROM_ALTERNATIVE):
            raise ConfigError(
                f"trace_model must be {TRACE_FROM_SPECIFIC!r} or "
                f"{TRACE_FROM_ALTERNATIVE!r}"
            )


def default_study_params() -> TrueParams:
    """Two-dimensional defaults with between-source spread dominating."""
    return TrueParams(
        mu_s=np.zeros(2),
        sigma_s=SpdMatrix(0.25 * np.eye(2)),
        mu_a=np.zeros(2),
        sigma_b=SpdMatrix(np.eye(2)),
        sigma_w=SpdMatrix(0.25 * np.eye(2)),
    )


def default_study_design() -> DesignSpec:
    return DesignSpec(
        n_sources=14,
        fragments_per_source=5,
        n_specific=3,
        n_trace=2,
        trace_model=TRACE_FROM_SPECIFIC,
    )


def source_labels(n: int) -> list[str]:
    """Labels ``alt0001``, ``alt0002``, ... of ``n`` simulated sources, sorted as strings.

    :func:`simulate_evidence` stacks the sources in this order, which is the
    order they are generated in below 10,000 sources only.
    """
    return sorted(f"alt{i + 1:04d}" for i in range(n))


def simulate_evidence(
    params: TrueParams, design: DesignSpec, rng: RngStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw one evidence triple; deterministic given the stream.

    Returns the controls, shape (n_specific, k), the alternative population,
    shape (n_sources, fragments_per_source, k) with sources in the order of
    :func:`source_labels`, and the trace, shape (n_trace, k).  Draw order is
    fixed: control sample, then the population's source effects, then its
    within-source noise source by source, then the trace (fresh source
    effect first when generated from the alternative side).
    """
    k = params.dim
    zero = np.zeros(k)
    n, m = design.n_sources, design.fragments_per_source

    controls = sample_mvn(params.mu_s, params.sigma_s, rng, size=design.n_specific)
    effects = sample_mvn(zero, params.sigma_b, rng, size=n)
    noise = sample_mvn(zero, params.sigma_w, rng, size=n * m)
    population = (params.mu_a + np.repeat(effects, m, axis=0) + noise).reshape(n, m, k)
    if n >= 10_000:
        population = population[[int(label[3:]) - 1 for label in source_labels(n)]]

    if design.trace_model == TRACE_FROM_SPECIFIC:
        trace = sample_mvn(params.mu_s, params.sigma_s, rng, size=design.n_trace)
    else:
        fresh = sample_mvn(zero, params.sigma_b, rng)
        noise = sample_mvn(zero, params.sigma_w, rng, size=design.n_trace)
        trace = params.mu_a + fresh + noise
    return controls, population, trace


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    replicate: int
    log_v_full: float
    log_v_plugin: float
    gap: float

    def __post_init__(self):
        if not self.gap >= 0:
            raise ValueError("gap must be nonnegative")


def _study_priors(k: int) -> tuple[SpecificPrior, AlternativePrior]:
    weak_mean = SpdMatrix.diagonal(3000.0, dim=k)
    identity = SpdMatrix.diagonal(1.0, dim=k)
    return (
        SpecificPrior(np.zeros(k), weak_mean, identity, float(k)),
        AlternativePrior(np.zeros(k), weak_mean, identity, float(k), identity, float(k)),
    )


def _study_job(n_idx: int, rep: int) -> int:
    """Sampler job id of one study cell; never 0, which ``evaluate`` uses."""
    return ((n_idx + 1) << 16) | rep


def convergence_study(
    params: TrueParams,
    design: DesignSpec,
    n_grid,
    replicates: int,
    mcmc: McmcSettings,
    seed: int,
    *,
    on_evidence=None,
) -> list[ConvergenceRow]:
    """Run the gap study over an ascending grid of population sizes.

    Each (n, replicate) cell simulates a fresh triple under the
    trace-from-specific model, runs both evaluation routes, and records
    |log V_full - log V_plugin|.  The defense-side chains of all replicates
    of one grid point run as one lockstep batch.  Rows come back sorted by
    (n, replicate).  Each cell's simulation and sampler streams are keyed by
    (``seed``, grid index, replicate, chain) alone, so replicates are
    independent, a row does not depend on how many replicates run, and the
    whole table is reproducible from ``seed``.  Both samplers use the
    weak priors of ``_study_priors``.
    ``on_evidence(n, replicate, evidence)`` is called per cell with the
    triple :func:`simulate_evidence` returned, when given (used by the CLI
    to optionally persist the simulated datasets).
    """
    grid = [int(n) for n in n_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"population grid must be strictly ascending, got {grid}")
    if not 1 <= replicates < 2**16:
        raise ConfigError(f"replicates must be between 1 and 65535, got {replicates}")

    specific_prior, alternative_prior = _study_priors(params.dim)
    settings = mcmc.with_seed(seed)
    rows: list[ConvergenceRow] = []
    for n_idx, n in enumerate(grid):
        cell_design = replace(design, n_sources=n, trace_model=TRACE_FROM_SPECIFIC)
        labels = [f"(n={n}, replicate={rep})" for rep in range(replicates)]
        jobs = [_study_job(n_idx, rep) for rep in range(replicates)]
        cells = []
        for rep, label in enumerate(labels):
            sim_rng = RngStream(seed, stream_id(PURPOSE_SIMULATION, n_idx, rep))
            try:
                evidence = simulate_evidence(params, cell_design, sim_rng)
                if on_evidence is not None:
                    on_evidence(n, rep, evidence)
                controls, population, trace = evidence
                estimate = plugin_estimates(population)
            except SpecSourceError as exc:
                raise type(exc)(f"{label}: {exc}") from exc
            cells.append((controls, trace, population, estimate))
        defense = sample_alternative(
            [population for _, _, population, _ in cells],
            alternative_prior,
            settings,
            jobs=jobs,
            labels=labels,
        )
        for rep, (controls, trace, _, estimate) in enumerate(cells):
            try:
                prosecution = gibbs_specific(controls, specific_prior, settings, job=jobs[rep])
                numerator = log_numerator(trace, prosecution).log_value
                log_v_plugin = numerator - log_denominator_plugin(trace, estimate).log_value
                log_v_full = numerator - log_denominator_full(trace, defense[rep]).log_value
            except SpecSourceError as exc:
                raise type(exc)(f"{labels[rep]}: {exc}") from exc
            rows.append(
                ConvergenceRow(
                    n=n,
                    replicate=rep,
                    log_v_full=log_v_full,
                    log_v_plugin=log_v_plugin,
                    gap=abs(log_v_full - log_v_plugin),
                )
            )
    rows.sort(key=lambda r: (r.n, r.replicate))
    return rows


def write_rows(rows, stream) -> None:
    """Emit study rows as plot-ready CSV."""
    if isinstance(stream, (str, bytes)) or hasattr(stream, "__fspath__"):
        with open(stream, "w", encoding="utf-8", newline="") as fh:
            write_rows(rows, fh)
            return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["n", "replicate", "log_v_full", "log_v_plugin", "gap"])
    for r in rows:
        writer.writerow(
            [
                r.n,
                r.replicate,
                f"{r.log_v_full:.17g}",
                f"{r.log_v_plugin:.17g}",
                f"{r.gap:.17g}",
            ]
        )
