import io

import numpy as np
import pytest

from specsource.errors import ConfigError, NumericalError
from specsource.evidence import EvidenceSet, Fragment
from specsource.gibbs import McmcSettings
from specsource.simulate import (
    TRACE_FROM_ALTERNATIVE,
    DesignSpec,
    TrueParams,
    convergence_study,
    default_study_design,
    default_study_params,
    simulate_evidence,
    source_labels,
    write_rows,
)
from specsource.stats import RngStream, SpdMatrix, sample_mvn
from specsource.evaluate import plugin_estimates

TINY_MCMC = McmcSettings(iterations=400, burn_in=100, seed=3)


class TestSimulateEvidence:
    def test_component_sizes_match_design(self):
        design = DesignSpec(14, 5, 3, 2)
        controls, population, trace = simulate_evidence(
            default_study_params(), design, RngStream(1, 0)
        )
        assert controls.shape == (3, 2)
        assert trace.shape == (2, 2)
        assert population.shape == (14, 5, 2)
        assert all(np.isfinite(a).all() for a in (controls, population, trace))

    def test_deterministic_given_stream(self):
        design = default_study_design()
        params = default_study_params()
        a = simulate_evidence(params, design, RngStream(9, 4))
        b = simulate_evidence(params, design, RngStream(9, 4))
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    @pytest.mark.parametrize("n", [14, 10_001])
    def test_sources_stack_in_string_order_of_their_labels(self, n):
        # From 10,000 sources on, string order of alt0001, ..., alt10001 is
        # not generation order; the stack keeps the order an EvidenceSet of
        # the same draws gives its alternative groups.
        assert source_labels(10_001)[999:1003] == ["alt1000", "alt10000", "alt10001", "alt1001"]
        params = default_study_params()
        m = 2
        controls, population, trace = simulate_evidence(
            params, DesignSpec(n, m, 3, 2), RngStream(4, 2)
        )

        rng = RngStream(4, 2)
        zero = np.zeros(2)
        expected_controls = sample_mvn(params.mu_s, params.sigma_s, rng, size=3)
        effects = sample_mvn(zero, params.sigma_b, rng, size=n)
        noise = sample_mvn(zero, params.sigma_w, rng, size=n * m)
        points = params.mu_a + np.repeat(effects, m, axis=0) + noise
        expected_trace = sample_mvn(params.mu_s, params.sigma_s, rng, size=2)
        evidence = EvidenceSet(
            e_u=(),
            e_s=(),
            e_a=tuple(
                Fragment(f"alt{i // m + 1:04d}", i % m + 1, y) for i, y in enumerate(points)
            ),
        )
        labels, groups = zip(*evidence.alternative_groups())
        assert list(labels) == source_labels(n)
        assert np.array_equal(population, np.array(groups))
        assert np.array_equal(controls, expected_controls)
        assert np.array_equal(trace, expected_trace)

    def test_estimator_consistency_on_large_population(self):
        params = default_study_params()
        n, m = 500, 5
        design = DesignSpec(n, m, 3, 2)
        _, population, _ = simulate_evidence(params, design, RngStream(2, 1))
        est = plugin_estimates(population)
        # grand mean: 3x its CLT standard error sqrt((s_b + s_w/m)/n)
        mean_se = np.sqrt(
            np.diag(params.sigma_b.values + params.sigma_w.values / m) / n
        )
        assert np.all(np.abs(est.mean - params.mu_a) < 3 * mean_se)
        # within covariance: 5% relative on the entry scale
        assert np.max(np.abs(est.within.values - params.sigma_w.values)) <= (
            0.05 * np.max(np.abs(params.sigma_w.values))
        )

    def test_group_mean_covariance_matches_marginal(self):
        # group means are iid with covariance Sigma_b + Sigma_w / m at large n
        params = TrueParams(
            mu_s=np.zeros(2),
            sigma_s=SpdMatrix(0.25 * np.eye(2)),
            mu_a=np.array([0.5, -0.5]),
            sigma_b=SpdMatrix([[1.0, 0.3], [0.3, 1.0]]),
            sigma_w=SpdMatrix(0.25 * np.eye(2)),
        )
        design = DesignSpec(500, 5, 3, 2)
        _, population, _ = simulate_evidence(params, design, RngStream(0, 13))
        means = population.mean(axis=1)
        sample_cov = np.cov(means.T)
        target = params.sigma_b.values + params.sigma_w.values / 5
        assert np.max(np.abs(sample_cov - target)) < 0.10 * np.max(np.abs(target))

    def test_alternative_trace_shares_one_fresh_source(self):
        params = default_study_params()
        design = DesignSpec(4, 3, 2, 50, trace_model=TRACE_FROM_ALTERNATIVE)
        _, _, trace = simulate_evidence(params, design, RngStream(17, 0))
        # all trace fragments share one source effect: their mean scatters
        # around mu_a + a* with small within-noise, not the between scale
        spread = trace.std(axis=0)
        assert np.all(spread < 3 * np.sqrt(0.25))

    def test_invalid_design_rejected(self):
        with pytest.raises(ConfigError):
            DesignSpec(1, 5, 3, 2)
        with pytest.raises(ConfigError):
            DesignSpec(5, 5, 3, 2, trace_model="nope")


class TestConvergenceStudy:
    def test_row_cardinality_and_order(self):
        rows = convergence_study(
            default_study_params(),
            default_study_design(),
            [3, 5],
            2,
            TINY_MCMC,
            seed=21,
        )
        assert len(rows) == 4
        assert [(r.n, r.replicate) for r in rows] == [(3, 0), (3, 1), (5, 0), (5, 1)]
        assert all(r.gap >= 0 for r in rows)

    def test_fixed_seed_reproduces_rows(self):
        args = (
            default_study_params(),
            default_study_design(),
            [3],
            1,
            TINY_MCMC,
        )
        a = convergence_study(*args, seed=5)
        b = convergence_study(*args, seed=5)
        assert a == b

    def test_rows_do_not_depend_on_the_replicate_count(self):
        args = (default_study_params(), default_study_design(), [3, 5])
        two = convergence_study(*args, 2, TINY_MCMC, seed=13)
        three = convergence_study(*args, 3, TINY_MCMC, seed=13)
        assert two == [r for r in three if r.replicate < 2]

    def test_sampler_failure_names_the_cell(self, monkeypatch):
        import specsource.gibbs as gibbs_module

        original = gibbs_module.invwishart_from_inverses
        calls = []

        def corrupt_replicate_one(*args):
            out = original(*args)
            calls.append(None)
            if len(calls) == 5:
                out[1, 1] = -np.eye(out.shape[-1])
            return out

        monkeypatch.setattr(gibbs_module, "invwishart_from_inverses", corrupt_replicate_one)
        with pytest.raises(NumericalError, match=r"\(n=3, replicate=1\) chain 0, iteration 5: "):
            convergence_study(
                default_study_params(), default_study_design(), [3], 2, TINY_MCMC, seed=2
            )

    def test_descending_grid_rejected(self):
        with pytest.raises(ConfigError, match="ascending"):
            convergence_study(
                default_study_params(),
                default_study_design(),
                [10, 5],
                1,
                TINY_MCMC,
                seed=1,
            )

    def test_rows_csv_shape(self):
        rows = convergence_study(
            default_study_params(),
            default_study_design(),
            [3],
            2,
            TINY_MCMC,
            seed=8,
        )
        buf = io.StringIO()
        write_rows(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,replicate,log_v_full,log_v_plugin,gap"
        assert len(lines) == 3
