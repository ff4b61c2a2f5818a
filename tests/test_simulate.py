import io

import numpy as np
import pytest

from specsource.errors import ConfigError, NumericalError
from specsource.evidence import validate_evidence
from specsource.gibbs import McmcSettings
from specsource.simulate import (
    TRACE_FROM_ALTERNATIVE,
    DesignSpec,
    TrueParams,
    convergence_study,
    default_study_design,
    default_study_params,
    simulate_evidence,
    write_rows,
)
from specsource.stats import RngStream, SpdMatrix
from specsource.evaluate import plugin_estimates

TINY_MCMC = McmcSettings(iterations=400, burn_in=100, seed=3)


class TestSimulateEvidence:
    def test_component_sizes_match_design(self):
        design = DesignSpec(14, 5, 3, 2)
        ev = simulate_evidence(default_study_params(), design, RngStream(1, 0))
        assert len(ev.e_s) == 3
        assert len(ev.e_u) == 2
        assert len(ev.e_a) == 70
        assert ev.alternative_source_count() == 14
        assert validate_evidence(ev).ok

    def test_deterministic_given_stream(self):
        design = default_study_design()
        params = default_study_params()
        a = simulate_evidence(params, design, RngStream(9, 4))
        b = simulate_evidence(params, design, RngStream(9, 4))
        assert np.array_equal(a.trace_matrix(), b.trace_matrix())
        assert np.array_equal(a.specific_matrix(), b.specific_matrix())
        for (_, ga), (_, gb) in zip(a.alternative_groups(), b.alternative_groups()):
            assert np.array_equal(ga, gb)

    def test_estimator_consistency_on_large_population(self):
        params = default_study_params()
        n, m = 500, 5
        design = DesignSpec(n, m, 3, 2)
        ev = simulate_evidence(params, design, RngStream(2, 1))
        est = plugin_estimates([g for _, g in ev.alternative_groups()])
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
        ev = simulate_evidence(params, design, RngStream(0, 13))
        means = np.array([g.mean(axis=0) for _, g in ev.alternative_groups()])
        sample_cov = np.cov(means.T)
        target = params.sigma_b.values + params.sigma_w.values / 5
        assert np.max(np.abs(sample_cov - target)) < 0.10 * np.max(np.abs(target))

    def test_alternative_trace_shares_one_fresh_source(self):
        params = default_study_params()
        design = DesignSpec(4, 3, 2, 50, trace_model=TRACE_FROM_ALTERNATIVE)
        ev = simulate_evidence(params, design, RngStream(17, 0))
        trace = ev.trace_matrix()
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
