"""Per-layer metrics: read from the spans of a traced round, plus kernels.

Every metric listed in ``BENCHMARK.json`` under ``per_layer`` is produced
on every workload.  A layer that a workload never calls reads 0 there
(for example the n = 250 sampler on ``casework``); the README lists which
workload exercises which layer.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import specsource.stats as st
from tracing import Tracer
from workloads import REANALYSIS_PANEL

STUDY_GRID = (10, 50, 250)
PANEL_LENGTHS = sorted(set(REANALYSIS_PANEL) | {2})
STUDY = "simulate.convergence_study"


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_iteration_us(spans) -> float:
    iterations = sum(s.attrs["iterations"] for s in spans)
    return 1e6 * sum(s.duration for s in spans) / iterations if iterations else 0.0


def _outside(tracer: Tracer, spans, name: str):
    return [s for s in spans if not tracer.has_ancestor(s, name)]


def span_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    sel = tracer.select
    specific_glass = [s for s in _outside(tracer, sel("gibbs.gibbs_specific"), STUDY)
                      if s.attrs.get("k") == 3]
    alternative_glass = [s for s in _outside(tracer, sel("gibbs.gibbs_alternative"), STUDY)
                         if s.attrs.get("k") == 3]
    out = {
        "gibbs.specific_us_per_it": (_per_iteration_us(specific_glass), "us"),
        "gibbs.alternative_us_per_it": (_per_iteration_us(alternative_glass), "us"),
        "gibbs.specific_us_per_it.study": (
            _per_iteration_us(sel("gibbs.gibbs_specific", under=STUDY)), "us"),
    }
    for n in STUDY_GRID:
        out[f"gibbs.alternative_us_per_it.n{n}"] = (
            _per_iteration_us(sel("gibbs.gibbs_alternative", under=STUDY, n=n)), "us")
    defense_writes = sel("gibbs.write_draws", model="defense-side")
    out["gibbs.write_draws_s"] = (_median([s.duration for s in defense_writes]), "s")
    out["gibbs.read_draws_s"] = (_median(
        [s.duration for s in sel("gibbs.read_draws", file="draws_defense.csv")]), "s")
    out["gibbs.ess_ms"] = (1e3 * _median(
        [s.duration for s in sel("gibbs.effective_sample_size")]), "ms")
    out["cli.diagnostics_table_ms"] = (1e3 * _median(
        [s.duration for s in sel("cli.diagnostics_table")]), "ms")
    for m in PANEL_LENGTHS:
        for name in ("log_numerator", "log_denominator_plugin", "log_denominator_full"):
            spans = _outside(tracer, sel(f"evaluate.{name}", m=m), STUDY)
            out[f"evaluate.{name}_ms.m{m}"] = (1e3 * _median([s.duration for s in spans]), "ms")
    out["evaluate.plugin_estimates_ms"] = (1e3 * _median(
        [s.duration for s in sel("evaluate.plugin_estimates")]), "ms")
    out["evaluate.evaluate_scenario_self_s"] = (_median(
        [s.self_time for s in sel("evaluate.evaluate_scenario")]), "s")
    for n in STUDY_GRID:
        out[f"simulate.simulate_evidence_ms.n{n}"] = (1e3 * _median(
            [s.duration for s in sel("simulate.simulate_evidence", under=STUDY, n=n)]), "ms")
    studies = sel(STUDY)
    cells = len(sel("simulate.simulate_evidence", under=STUDY))
    out["simulate.cell_self_s"] = (
        sum(s.self_time for s in studies) / cells if cells else 0.0, "s")
    for layer, name in (("evidence", "load_dataset"), ("evidence", "build_scenario"),
                        ("evidence", "validate_evidence"), ("config", "load_run_config")):
        out[f"{layer}.{name}_ms"] = (1e3 * _median(
            [s.duration for s in sel(f"{layer}.{name}")]), "ms")
    out["gibbs.chain_iterations"] = (float(sum(
        s.attrs["iterations"] for s in sel("gibbs.gibbs_specific") + sel("gibbs.gibbs_alternative")
    )), "count")
    return out


def _per_call_us(func, batches: int = 5, batch_seconds: float = 0.05) -> float:
    """Median over batches of the mean per-call time of ``func()``, in µs."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            func()
        if time.perf_counter() - start >= batch_seconds / 4:
            break
        calls *= 4
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            func()
        per_call.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(per_call)


def kernel_metrics(seed: int) -> dict[str, tuple[float, str]]:
    """µs per direct call of each ``specsource.stats`` kernel at k = 3."""
    rng = np.random.default_rng([seed, 4])
    k = 3
    a = rng.standard_normal((k, k))
    sigma = st.SpdMatrix(a @ a.T + k * np.eye(k))
    between = st.SpdMatrix(0.5 * sigma.values)
    raw = sigma.values.copy()
    mu = rng.standard_normal(k)
    x = rng.standard_normal(k)
    stream = st.RngStream(seed, 99)
    y2 = rng.standard_normal((2, k))
    y20 = rng.standard_normal((20, k))
    values = rng.standard_normal(29_000)
    kernels = {
        "stats.mvn_logpdf_us": lambda: st.mvn_logpdf(x, mu, sigma),
        "stats.sample_mvn_us": lambda: st.sample_mvn(mu, sigma, stream),
        "stats.sample_inverse_wishart_us": lambda: st.sample_inverse_wishart(sigma, 5.0, stream),
        "stats.spd_matrix_us": lambda: st.SpdMatrix(raw),
        "stats.compound_logpdf_us.m2": lambda: st.compound_logpdf(y2, mu, between, sigma),
        "stats.compound_logpdf_us.m20": lambda: st.compound_logpdf(y20, mu, between, sigma),
        "stats.log_mean_exp_us": lambda: st.log_mean_exp(values),
    }
    return {name: (_per_call_us(func), "us") for name, func in kernels.items()}
