import numpy as np
import pytest
from scipy.integrate import quad

import specsource.evaluate as evaluate_module
from specsource.errors import DataError
from specsource.evaluate import (
    LogDensityEstimate,
    assemble_report,
    closed_form_predictive_known_cov,
    evaluate_scenario,
    log_denominator_full,
    log_denominator_plugin,
    log_numerator,
    plugin_estimates,
)
from specsource.evidence import EvidenceSet, Fragment
from specsource.gibbs import (
    DEFENSE,
    PROSECUTION,
    AlternativePrior,
    DrawSet,
    McmcSettings,
    SpecificPrior,
    gibbs_alternative,
    gibbs_specific,
    read_draws,
    write_draws,
)
from specsource.stats import SpdMatrix, compound_logpdf, log_mean_exp, mvn_logpdf

from conftest import random_spd


def brute_force_moments(groups):
    """Double-loop reference implementation of the moment estimators."""
    n = len(groups)
    m = groups[0].shape[0]
    k = groups[0].shape[1]
    grand = np.zeros(k)
    for g in groups:
        for row in g:
            grand += row
    grand /= n * m

    within = np.zeros((k, k))
    means = []
    for g in groups:
        gm = np.zeros(k)
        for row in g:
            gm += row
        gm /= m
        means.append(gm)
        for row in g:
            within += np.outer(row - gm, row - gm)
    within /= n * (m - 1)

    between = np.zeros((k, k))
    for gm in means:
        between += np.outer(gm - grand, gm - grand)
    between = between / (n - 1) - within / m
    return grand, within, between


#: Trace lengths the estimators are checked at: one fragment (no within
#: scatter), the usual two, and a long trace.
TRACE_LENGTHS = (1, 2, 20)


def sampled_draws():
    """A prosecution and a defense DrawSet from the samplers, at k = 3."""
    rng = np.random.default_rng(11)
    settings = McmcSettings(iterations=400, burn_in=100, seed=9, chains=2)
    controls = 0.1 * rng.normal(size=(3, 3))
    groups = [0.1 * rng.normal(size=(4, 3)) + rng.normal(size=3) for _ in range(6)]
    return (
        gibbs_specific(controls, SpecificPrior.glass_default(), settings),
        gibbs_alternative(groups, AlternativePrior.glass_default(), settings),
    )


@pytest.fixture(scope="module")
def draw_sets(tmp_path_factory):
    """The sampled DrawSets as the samplers built them and as read back from files."""
    sampled = sampled_draws()
    reread = []
    for draws in sampled:
        path = tmp_path_factory.mktemp("draws") / "draws.csv"
        write_draws(draws, path)
        reread.append(read_draws(path))
    return {"sampler": sampled, "file": tuple(reread)}


def single_draw_set(model, mean, covs):
    settings = McmcSettings(iterations=2, burn_in=1, seed=0)
    return DrawSet(
        model,
        np.asarray(mean, dtype=float)[None, :],
        {name: np.asarray(c, dtype=float)[None, :, :] for name, c in covs.items()},
        settings,
    )


class TestPluginEstimates:
    def test_univariate_hand_example(self):
        est = plugin_estimates([np.array([[0.0], [2.0]]), np.array([[4.0], [6.0]])])
        assert est.mean == pytest.approx([3.0])
        assert est.within.values[0, 0] == pytest.approx(2.0)
        assert est.between.values[0, 0] == pytest.approx(7.0)
        assert not est.clamped

    def test_identical_fragments_are_repaired(self):
        g = np.tile([1.0, -2.0], (3, 1))
        est = plugin_estimates([g.copy(), g.copy()])
        assert est.clamped
        assert np.allclose(est.mean, [1.0, -2.0])
        assert np.allclose(est.within.values, 1e-8 * np.eye(2))
        assert np.allclose(est.between.values, 1e-8 * np.eye(2))

    def test_negative_between_scatter_is_clamped(self):
        est = plugin_estimates([np.array([[0.0], [10.0]]), np.array([[1.0], [9.0]])])
        assert est.clamped
        assert est.min_eigenvalue == pytest.approx(-20.5)
        assert est.between.values[0, 0] == pytest.approx(1e-8)

    def test_matches_brute_force_oracle(self, np_rng):
        for _ in range(25):
            n = int(np_rng.integers(2, 7))
            m = int(np_rng.integers(2, 5))
            k = int(np_rng.integers(1, 4))
            groups = [np_rng.normal(size=(m, k)) for _ in range(n)]
            est = plugin_estimates(groups, floor=-np.inf)
            grand, within, between = brute_force_moments(groups)
            assert np.max(np.abs(est.mean - grand)) < 1e-12
            assert np.max(np.abs(est.within.values - within)) < 1e-12
            assert np.max(np.abs(est.between.values - between)) < 1e-12

    def test_unbalanced_rejected(self):
        with pytest.raises(DataError, match="balance"):
            plugin_estimates([np.zeros((2, 1)), np.zeros((3, 1))])

    def test_single_fragment_groups_rejected(self):
        with pytest.raises(DataError, match="m >= 2"):
            plugin_estimates([np.zeros((1, 2)), np.zeros((1, 2))])

    def test_stack_and_list_of_groups_agree_bit_for_bit(self, np_rng):
        for n, m, k in ((2, 2, 1), (250, 5, 2), (14, 5, 3), (30, 17, 4)):
            stack = np_rng.normal(size=(n, m, k))
            a = plugin_estimates(stack)
            b = plugin_estimates(list(stack))
            # the per-group loop the stacked means replace
            group_means = np.array([g.mean(axis=0) for g in stack])
            rows = np.concatenate(list(stack))
            centered = rows - np.repeat(group_means, m, axis=0)
            within = centered.T @ centered / (n * (m - 1))
            for est in (a, b):
                assert np.array_equal(est.mean, rows.mean(axis=0))
                assert np.array_equal(est.within.values, 0.5 * (within + within.T))
            assert np.array_equal(a.between.values, b.between.values)

    def test_relabeling_invariance(self, np_rng):
        groups = [np_rng.normal(size=(3, 2)) for _ in range(5)]
        a = plugin_estimates(groups)
        b = plugin_estimates(list(groups))
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.within.values, b.within.values)


class TestLogNumerator:
    def test_single_draw_is_exact(self, np_rng):
        mu = np_rng.normal(size=3)
        sigma = random_spd(np_rng, 3)
        trace = np_rng.normal(size=(2, 3))
        draws = single_draw_set(PROSECUTION, mu, {"sigma_s": sigma.values})
        est = log_numerator(trace, draws)
        expected = float(np.sum(mvn_logpdf(trace, mu, sigma)))
        assert est.log_value == pytest.approx(expected, abs=1e-10)
        assert est.draws == 1

    def test_batched_matches_loop(self, np_rng):
        t = 40
        settings = McmcSettings(iterations=t + 1, burn_in=1, seed=3)
        means = np_rng.normal(size=(t, 2))
        covs = np.stack([random_spd(np_rng, 2).values for _ in range(t)])
        draws = DrawSet(PROSECUTION, means, {"sigma_s": covs}, settings)
        for m in (*TRACE_LENGTHS, 3):
            trace = np_rng.normal(size=(m, 2))
            est = log_numerator(trace, draws)
            per_draw = [
                float(np.sum(mvn_logpdf(trace, means[i], covs[i]))) for i in range(t)
            ]
            peak = max(per_draw)
            expected = peak + np.log(np.mean(np.exp(np.asarray(per_draw) - peak)))
            assert est.log_value == pytest.approx(expected, abs=1e-10), m
            assert est.mc_se > 0

    def test_wrong_model_rejected(self, np_rng):
        draws = single_draw_set(
            DEFENSE,
            np.zeros(2),
            {"sigma_b": np.eye(2), "sigma_w": np.eye(2)},
        )
        with pytest.raises(ValueError, match="prosecution"):
            log_numerator(np.zeros((1, 2)), draws)

    def test_dimension_mismatch(self, np_rng):
        draws = single_draw_set(PROSECUTION, np.zeros(2), {"sigma_s": np.eye(2)})
        with pytest.raises(DataError, match="dimension"):
            log_numerator(np.zeros((1, 3)), draws)


class TestLogDenominatorPlugin:
    def test_single_fragment_reduces_to_mvn(self, np_rng):
        groups = [np_rng.normal(size=(3, 2)) for _ in range(4)]
        est = plugin_estimates(groups)
        y = np_rng.normal(size=(1, 2))
        got = log_denominator_plugin(y, est)
        expected = mvn_logpdf(
            y[0], est.mean, SpdMatrix(est.between.values + est.within.values)
        )
        assert got.log_value == pytest.approx(expected, abs=1e-10)
        assert got.mc_se == 0.0

    def test_depends_only_on_the_estimate(self, np_rng):
        groups = [np_rng.normal(size=(3, 2)) for _ in range(4)]
        est = plugin_estimates(groups)
        y = np_rng.normal(size=(2, 2))
        assert (
            log_denominator_plugin(y, est).log_value
            == log_denominator_plugin(y, est).log_value
        )


class TestLogDenominatorFull:
    def test_single_triple_is_exact(self, np_rng):
        mu = np_rng.normal(size=2)
        sb = random_spd(np_rng, 2)
        sw = random_spd(np_rng, 2)
        trace = np_rng.normal(size=(3, 2))
        draws = single_draw_set(
            DEFENSE, mu, {"sigma_b": sb.values, "sigma_w": sw.values}
        )
        est = log_denominator_full(trace, draws)
        assert est.log_value == pytest.approx(
            compound_logpdf(trace, mu, sb, sw), abs=1e-10
        )

    def test_batched_matches_loop(self, np_rng):
        t = 25
        settings = McmcSettings(iterations=t + 1, burn_in=1, seed=4)
        means = np_rng.normal(size=(t, 2))
        sbs = np.stack([random_spd(np_rng, 2).values for _ in range(t)])
        sws = np.stack([random_spd(np_rng, 2).values for _ in range(t)])
        draws = DrawSet(DEFENSE, means, {"sigma_b": sbs, "sigma_w": sws}, settings)
        for m in TRACE_LENGTHS:
            trace = np_rng.normal(size=(m, 2))
            per_draw = np.array(
                [compound_logpdf(trace, means[i], sbs[i], sws[i]) for i in range(t)]
            )
            peak = per_draw.max()
            expected = peak + np.log(np.mean(np.exp(per_draw - peak)))
            est = log_denominator_full(trace, draws)
            assert est.log_value == pytest.approx(expected, abs=1e-10), m

    def test_long_trace_is_finite(self, np_rng):
        t, k = 30, 3
        settings = McmcSettings(iterations=t + 1, burn_in=1, seed=5)
        means = np_rng.normal(size=(t, k))
        sbs = np.stack([random_spd(np_rng, k).values for _ in range(t)])
        sws = np.stack([random_spd(np_rng, k).values for _ in range(t)])
        draws = DrawSet(DEFENSE, means, {"sigma_b": sbs, "sigma_w": sws}, settings)
        trace = np_rng.normal(size=(200, k))
        est = log_denominator_full(trace, draws)
        assert np.isfinite(est.log_value)
        assert np.isfinite(est.mc_se)


class TestEstimatorsOnDrawSets:
    """Both Monte Carlo estimators are the one kernel averaged over the raw stacks."""

    @pytest.mark.parametrize("source", ["sampler", "file"])
    @pytest.mark.parametrize("m", TRACE_LENGTHS)
    def test_estimators_equal_the_kernel_on_raw_stacks(self, draw_sets, source, m):
        prosecution, defense = draw_sets[source]
        trace = 0.1 * np.random.default_rng(m).normal(size=(m, 3))
        cases = [
            (log_numerator(trace, prosecution),
             compound_logpdf(trace, prosecution.means, None, prosecution.cov("sigma_s"))),
            (log_denominator_full(trace, defense),
             compound_logpdf(trace, defense.means, defense.cov("sigma_b"),
                             defense.cov("sigma_w"))),
        ]
        for est, per_draw in cases:
            # the same core on the same Cholesky factors: equal to the last bit
            assert est.log_value == log_mean_exp(per_draw)
            assert np.isfinite(est.mc_se)

    def test_each_within_stack_is_factored_once(self, monkeypatch):
        prosecution, defense = sampled_draws()
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        prosecution = DrawSet(PROSECUTION, prosecution.means,
                              dict(prosecution.covariances), prosecution.settings)
        defense = DrawSet(DEFENSE, defense.means, dict(defense.covariances), defense.settings)
        rng = np.random.default_rng(5)
        for m in TRACE_LENGTHS:
            trace = 0.1 * rng.normal(size=(m, 3))
            log_numerator(trace, prosecution)
            log_denominator_full(trace, defense)

        def factorizations(stack):
            return sum(a is stack for a in calls)

        for draws, name in ((prosecution, "sigma_s"), (defense, "sigma_b"),
                            (defense, "sigma_w")):
            assert factorizations(draws.cov(name)) == 1, name
        # the only other factorization is Sw + m Sb, once per defense trace
        assert len(calls) == 3 + len(TRACE_LENGTHS)


class TestEvaluateScenario:
    def test_unbalanced_fails_before_sampling(self, np_rng, monkeypatch):
        def sampler_called(*args, **kwargs):
            raise AssertionError("sampler ran before the balance check")

        monkeypatch.setattr(evaluate_module, "gibbs_specific", sampler_called)
        monkeypatch.setattr(evaluate_module, "gibbs_alternative", sampler_called)

        def frags(source, count):
            return tuple(
                Fragment(source, i + 1, np_rng.normal(size=3)) for i in range(count)
            )

        evidence = EvidenceSet(
            e_u=frags("u", 2),
            e_s=frags("s", 3),
            e_a=frags("a1", 5) + frags("a2", 4) + frags("a3", 5),
        )
        with pytest.raises(DataError, match="plug-in path requires balance"):
            evaluate_scenario(
                evidence,
                SpecificPrior.glass_default(),
                AlternativePrior.glass_default(),
                McmcSettings(iterations=20, burn_in=10, seed=1),
            )


class TestClosedFormPredictive:
    def test_univariate_conjugate_value(self):
        # prior N(0,1), one control at 0, known sigma^2=1: predictive N(0, 1.5)
        got = closed_form_predictive_known_cov(
            np.array([[0.0]]), np.array([[0.0]]), [0.0], [[1.0]], [[1.0]]
        )
        assert got == pytest.approx(-1.1216710872587548, abs=1e-12)

    def test_univariate_matches_quadrature(self):
        # independent oracle: integrate the two-fragment predictive numerically
        sigma2, lam0, mu0 = 0.8, 2.0, 0.3
        e_s = np.array([[0.5], [-0.2], [0.9]])
        e_u = np.array([[0.4], [0.1]])
        m = len(e_s)
        post_prec = 1 / lam0 + m / sigma2
        post_var = 1 / post_prec
        post_mean = post_var * (mu0 / lam0 + e_s.sum() / sigma2)

        def integrand(mu):
            dens = np.exp(-0.5 * (mu - post_mean) ** 2 / post_var) / np.sqrt(
                2 * np.pi * post_var
            )
            for y in e_u.ravel():
                dens *= np.exp(-0.5 * (y - mu) ** 2 / sigma2) / np.sqrt(
                    2 * np.pi * sigma2
                )
            return dens

        target, err = quad(integrand, -10, 10)
        got = closed_form_predictive_known_cov(
            e_u, e_s, [mu0], [[lam0]], [[sigma2]]
        )
        assert got == pytest.approx(np.log(target), abs=max(1e-10, err / target))

    def test_dogmatic_prior_collapses_to_fixed_mean(self, np_rng):
        sigma = random_spd(np_rng, 2)
        mu0 = np_rng.normal(size=2)
        e_s = np_rng.normal(size=(3, 2))
        e_u = np_rng.normal(size=(2, 2))
        got = closed_form_predictive_known_cov(
            e_u, e_s, mu0, 1e-12 * np.eye(2), sigma
        )
        expected = float(np.sum(mvn_logpdf(e_u, mu0, sigma)))
        assert got == pytest.approx(expected, abs=1e-5)

    def test_matches_fixed_covariance_sampler(self, np_rng):
        # MC-vs-analytic: numerator with Sigma frozen converges to the
        # conjugate predictive
        k = 2
        sigma = random_spd(np_rng, k, scale=0.5)
        lam0 = SpdMatrix.diagonal(2.0, dim=k)
        mu0 = np.zeros(k)
        e_s = np_rng.normal(size=(3, k))
        e_u = np_rng.normal(size=(2, k))
        prior = SpecificPrior(
            mean=mu0, mean_cov=lam0, cov_scale=SpdMatrix(np.eye(k)), cov_df=float(k)
        )
        draws = gibbs_specific(
            e_s,
            prior,
            McmcSettings(iterations=9000, burn_in=1000, seed=31),
            sigma_fixed=sigma,
        )
        mc = log_numerator(e_u, draws)
        exact = closed_form_predictive_known_cov(e_u, e_s, mu0, lam0, sigma)
        assert abs(mc.log_value - exact) <= 3 * mc.mc_se


class TestAssembleReport:
    def provenance(self):
        return dict(
            scenario="s",
            hypothesis_prosecution="Hp",
            hypothesis_defense="Hd",
            seed=7,
        )

    def test_log_identity_is_exact(self):
        num = LogDensityEstimate(11.5, 0.02, 100, 3)
        plug = LogDensityEstimate(6.25, 0.0, 0, 3)
        full = LogDensityEstimate(3.5, 0.05, 100, 3)
        rep = assemble_report(num, plug, full, **self.provenance())
        assert rep.log_v_plugin == num.log_value - plug.log_value
        assert rep.log_v_full == num.log_value - full.log_value
        assert rep.v_plugin == np.exp(rep.log_v_plugin)
        assert rep.v_full >= 0
        assert rep.mc_se_log_v_full == pytest.approx(np.hypot(0.02, 0.05))

    def test_dimension_mismatch_rejected(self):
        num = LogDensityEstimate(1.0, 0.0, 1, 3)
        plug = LogDensityEstimate(1.0, 0.0, 0, 2)
        full = LogDensityEstimate(1.0, 0.0, 1, 3)
        with pytest.raises(ValueError, match="dimension"):
            assemble_report(num, plug, full, **self.provenance())
