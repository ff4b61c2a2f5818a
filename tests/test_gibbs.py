from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import invgamma, norm

from specsource.errors import ConfigError, DataError, DegenerateChainError, NumericalError
from specsource.gibbs import (
    DEFENSE,
    PROSECUTION,
    AlternativePrior,
    DrawSet,
    McmcSettings,
    SpecificPrior,
    effective_sample_size,
    gibbs_alternative,
    gibbs_specific,
    next_fast_len,
    read_draws,
    sample_alternative,
    write_draws,
)
from specsource.stats import RngStream, SpdMatrix, sample_mvn

QUICK = McmcSettings(iterations=3000, burn_in=500, seed=42)


def small_specific_prior(k=2, mean_scale=4.0):
    return SpecificPrior(
        mean=np.zeros(k),
        mean_cov=SpdMatrix.diagonal(mean_scale, dim=k),
        cov_scale=SpdMatrix.diagonal(1.0, dim=k),
        cov_df=float(k),
    )


def small_alt_prior(k=2):
    return AlternativePrior(
        mean=np.zeros(k),
        mean_cov=SpdMatrix.diagonal(100.0, dim=k),
        between_scale=SpdMatrix.diagonal(1.0, dim=k),
        between_df=float(k),
        within_scale=SpdMatrix.diagonal(1.0, dim=k),
        within_df=float(k),
    )


def simulate_groups(n, m, k, mu, sigma_b_diag, sigma_w_diag, seed=5):
    stream = RngStream(seed, 0)
    effects = sample_mvn(np.zeros(k), np.diag(sigma_b_diag), stream, size=n)
    groups = []
    for i in range(n):
        noise = sample_mvn(np.zeros(k), np.diag(sigma_w_diag), stream, size=m)
        groups.append(mu + effects[i] + noise)
    return groups


def edit_first_row(text, column, value):
    """Set ``column`` of a draw file's first row to the text ``value``."""
    lines = text.splitlines(True)
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    cells = lines[head + 1].split(",")
    cells[lines[head].split(",").index(column)] = value
    lines[head + 1] = ",".join(cells)
    return "".join(lines)


class TestMcmcSettings:
    def test_defaults_match_protocol(self):
        s = McmcSettings()
        assert (s.iterations, s.burn_in, s.thin) == (30000, 1000, 1)
        assert s.kept_per_chain == 29000

    def test_invalid_burn_in(self):
        with pytest.raises(ConfigError):
            McmcSettings(iterations=100, burn_in=100)

    def test_thin_must_divide(self):
        with pytest.raises(ConfigError):
            McmcSettings(iterations=101, burn_in=1, thin=3)


class TestGibbsSpecific:
    def test_default_protocol_retains_29000(self):
        y = np.random.default_rng(0).normal(size=(3, 3)) * 0.01
        draws = gibbs_specific(y, SpecificPrior.glass_default(), McmcSettings(seed=1))
        assert draws.size == 29000
        assert draws.model == PROSECUTION

    def test_same_seed_reproduces(self):
        y = np.random.default_rng(1).normal(size=(4, 2))
        a = gibbs_specific(y, small_specific_prior(), QUICK)
        b = gibbs_specific(y, small_specific_prior(), QUICK)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.cov("sigma_s"), b.cov("sigma_s"))

    def test_different_seed_differs(self):
        y = np.random.default_rng(1).normal(size=(4, 2))
        a = gibbs_specific(y, small_specific_prior(), QUICK)
        b = gibbs_specific(y, small_specific_prior(), QUICK.with_seed(43))
        assert not np.array_equal(a.means, b.means)

    def test_fixed_covariance_matches_conjugate_posterior(self):
        # with Sigma frozen at I the mu draws are iid from the exact
        # Gaussian conditional: mean (L0^-1 + m I)^-1 (m ybar)
        rng = np.random.default_rng(7)
        y = rng.normal(loc=1.5, size=(6, 2))
        prior = small_specific_prior(mean_scale=4.0)
        settings = McmcSettings(iterations=20000, burn_in=0, seed=9)
        draws = gibbs_specific(y, prior, settings, sigma_fixed=SpdMatrix(np.eye(2)))
        m = y.shape[0]
        expected = m / (0.25 + m) * y.mean(axis=0)
        got = draws.means.mean(axis=0)
        mc_se = draws.means.std(axis=0, ddof=1) / np.sqrt(draws.size)
        assert np.all(np.abs(got - expected) <= 3 * mc_se)
        # conditional covariance (L0^-1 + m I)^-1 = I / (0.25 + m)
        var = draws.means.var(axis=0, ddof=1)
        var_se = var * np.sqrt(2.0 / (draws.size - 1))
        assert np.all(np.abs(var - 1.0 / (0.25 + m)) <= 4 * var_se)

    def test_every_cov_draw_is_spd(self):
        y = np.random.default_rng(3).normal(size=(3, 2))
        draws = gibbs_specific(y, small_specific_prior(), QUICK)
        np.linalg.cholesky(draws.cov("sigma_s"))  # raises if any draw fails

    def test_prior_mode_matches_prior_moments(self):
        # zero data: draws are iid from the prior; IW mean needs df > k+1
        k = 2
        prior = SpecificPrior(
            mean=np.array([1.0, -2.0]),
            mean_cov=SpdMatrix.diagonal(2.0, dim=k),
            cov_scale=SpdMatrix.diagonal([2.0, 3.0]),
            cov_df=5.5,
        )
        settings = McmcSettings(iterations=20000, burn_in=0, seed=11)
        draws = gibbs_specific(np.empty((0, k)), prior, settings)
        mu_mean = draws.means.mean(axis=0)
        mu_se = draws.means.std(axis=0, ddof=1) / np.sqrt(draws.size)
        assert np.all(np.abs(mu_mean - prior.mean) <= 3 * mu_se)
        target = prior.cov_scale.values / (prior.cov_df - k - 1)
        sig = draws.cov("sigma_s")
        sig_mean = sig.mean(axis=0)
        sig_se = sig.std(axis=0, ddof=1) / np.sqrt(draws.size)
        assert np.all(np.abs(sig_mean - target) <= 3 * sig_se + 1e-9)

    def test_k1_posterior_moments_match_quadrature(self):
        # p(s | y) is Inv-Gamma((df + m - 1)/2, (phi + S)/2)(s) N(ybar; mu0, lam0 + s/m)
        # and E[mu | s, y] = mu0 + lam0 / (lam0 + s/m) (ybar - mu0)
        y = np.array([[2.1], [2.9], [2.4], [3.3]])
        mu0, lam0, phi, df = 0.5, 1.5, 0.4, 2.5
        prior = SpecificPrior(
            mean=[mu0], mean_cov=SpdMatrix([[lam0]]), cov_scale=SpdMatrix([[phi]]), cov_df=df
        )
        m, ybar = y.shape[0], float(y.mean())
        scatter = float(np.sum((y - ybar) ** 2))
        proposal = invgamma((df + m - 1) / 2, scale=(phi + scatter) / 2)

        def weight(s):
            return proposal.pdf(s) * norm.pdf(ybar, mu0, np.sqrt(lam0 + s / m))

        def expect(f):
            return quad(lambda s: f(s) * weight(s), 0, np.inf)[0] / quad(weight, 0, np.inf)[0]

        exact_s = expect(lambda s: s)
        exact_mu = expect(lambda s: mu0 + lam0 / (lam0 + s / m) * (ybar - mu0))
        draws = gibbs_specific(y, prior, McmcSettings(iterations=40000, burn_in=0, seed=23))
        s = draws.cov("sigma_s")[:, 0, 0]
        mu = draws.means[:, 0]
        assert abs(s.mean() - exact_s) <= 4 * s.std() / np.sqrt(s.size)
        assert abs(mu.mean() - exact_mu) <= 4 * mu.std() / np.sqrt(mu.size)

    def test_draws_are_independent_of_the_chain_count(self):
        y = np.random.default_rng(4).normal(size=(5, 2))
        one = gibbs_specific(y, small_specific_prior(), QUICK)
        two = gibbs_specific(
            y, small_specific_prior(), McmcSettings(iterations=3000, burn_in=500, seed=42, chains=2)
        )
        first = two.chain_slices()[0]
        assert np.array_equal(one.means, two.means[first])
        assert np.array_equal(one.cov("sigma_s"), two.cov("sigma_s")[first])

    def test_low_acceptance_raises_numerical_error(self):
        # a prior mean pinned far from the controls accepts almost nothing
        prior = SpecificPrior(
            mean=np.zeros(2),
            mean_cov=SpdMatrix.diagonal(1e-4, dim=2),
            cov_scale=SpdMatrix.diagonal(0.01, dim=2),
            cov_df=2.0,
        )
        y = 5.0 + 0.1 * np.random.default_rng(6).normal(size=(4, 2))
        with pytest.raises(NumericalError, match="sampler, chain 0: acceptance rate"):
            gibbs_specific(y, prior, QUICK)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_bartlett_factor_raises_with_the_chain(self):
        # the last chi-square variate has 1e-12 degrees of freedom and
        # underflows to zero, so a proposal's Bartlett factor is singular
        prior = replace(small_specific_prior(), cov_df=1.0 + 1e-12)
        y = np.array([[0.3, -0.2]])
        with pytest.raises(
            NumericalError, match="^prosecution-side sampler, chain 0: .* not finite"
        ):
            gibbs_specific(y, prior, QUICK)

    def test_non_finite_proposal_is_not_silently_rejected(self, monkeypatch):
        # a NaN proposal has a NaN acceptance weight, which no uniform falls below
        import specsource.gibbs as gibbs_module

        original = gibbs_module.invwishart_from_inverses
        calls = []

        def counted(*args):
            calls.append(None)
            return original(*args)

        y = np.random.default_rng(4).normal(size=(5, 2))
        monkeypatch.setattr(gibbs_module, "invwishart_from_inverses", counted)
        gibbs_specific(y, small_specific_prior(), QUICK)
        first_of_chain_one = len(calls)

        def corrupt(*args):
            out = counted(*args)
            if len(calls) == first_of_chain_one + 1:
                out[3, 0, 0] = np.nan
            return out

        monkeypatch.setattr(gibbs_module, "invwishart_from_inverses", corrupt)
        calls.clear()
        with pytest.raises(
            NumericalError, match="^prosecution-side sampler, chain 1: .* not finite"
        ):
            gibbs_specific(y, small_specific_prior(), replace(QUICK, chains=2))

    def test_cross_chain_consistency(self):
        y = np.random.default_rng(4).normal(size=(5, 2))
        settings = McmcSettings(iterations=6000, burn_in=1000, seed=17, chains=2)
        draws = gibbs_specific(y, small_specific_prior(), settings)
        first, second = draws.chain_slices()
        for col in range(draws.dim):
            a, b = draws.means[first, col], draws.means[second, col]
            se_a = a.std(ddof=1) / np.sqrt(effective_sample_size(a))
            se_b = b.std(ddof=1) / np.sqrt(effective_sample_size(b))
            assert abs(a.mean() - b.mean()) <= 4 * np.hypot(se_a, se_b)


class TestGibbsAlternative:
    def test_retained_triples_glass_shape(self):
        groups = simulate_groups(
            14, 5, 3, np.zeros(3), [1.0, 1.0, 1.0], [0.01, 0.01, 0.01]
        )
        draws = gibbs_alternative(
            groups, AlternativePrior.glass_default(), McmcSettings(seed=2)
        )
        assert draws.size == 29000
        assert draws.model == DEFENSE
        assert set(draws.covariances) == {"sigma_b", "sigma_w"}

    def test_same_seed_reproduces(self):
        groups = simulate_groups(4, 3, 2, np.zeros(2), [1.0, 1.0], [0.2, 0.2])
        a = gibbs_alternative(groups, small_alt_prior(), QUICK)
        b = gibbs_alternative(groups, small_alt_prior(), QUICK)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.cov("sigma_b"), b.cov("sigma_b"))
        assert np.array_equal(a.cov("sigma_w"), b.cov("sigma_w"))

    def test_posterior_mean_recovers_truth(self):
        mu_true = np.array([0.7, -0.3])
        sigma_b = np.array([1.0, 0.8])
        sigma_w = np.array([0.25, 0.25])
        groups = simulate_groups(200, 5, 2, mu_true, sigma_b, sigma_w, seed=12)
        draws = gibbs_alternative(groups, small_alt_prior(), QUICK)
        got = draws.means.mean(axis=0)
        stat_se = np.sqrt((sigma_b + sigma_w / 5) / 200)
        mc_se = np.array(
            [
                draws.means[:, j].std(ddof=1)
                / np.sqrt(effective_sample_size(draws.means[:, j]))
                for j in range(2)
            ]
        )
        assert np.all(np.abs(got - mu_true) <= 3 * np.sqrt(stat_se**2 + mc_se**2))

    def test_single_source_is_sampled(self):
        # proper priors give a proper posterior for any n >= 1
        groups = simulate_groups(1, 4, 2, np.zeros(2), [1, 1], [1, 1])
        draws = gibbs_alternative(groups, small_alt_prior(), QUICK)
        assert draws.size == QUICK.kept_per_chain
        assert np.all(np.isfinite(draws.means))

    def test_unbalanced_groups_supported(self):
        rng = np.random.default_rng(8)
        groups = [rng.normal(size=(m, 2)) for m in (2, 5, 3, 7)]
        draws = gibbs_alternative(groups, small_alt_prior(), QUICK)
        assert draws.size == QUICK.kept_per_chain

    def test_prior_mode_iw_means(self):
        k = 2
        prior = AlternativePrior(
            mean=np.zeros(k),
            mean_cov=SpdMatrix.diagonal(2.0, dim=k),
            between_scale=SpdMatrix.diagonal([4.0, 1.0]),
            between_df=6.0,
            within_scale=SpdMatrix.diagonal([1.0, 2.0]),
            within_df=7.0,
        )
        settings = McmcSettings(iterations=20000, burn_in=0, seed=19)
        draws = gibbs_alternative([], prior, settings)
        for name, scale, df in (
            ("sigma_b", prior.between_scale.values, 6.0),
            ("sigma_w", prior.within_scale.values, 7.0),
        ):
            target = scale / (df - k - 1)
            stack = draws.cov(name)
            se = stack.std(axis=0, ddof=1) / np.sqrt(draws.size)
            assert np.all(np.abs(stack.mean(axis=0) - target) <= 3 * se + 1e-9)


class TestSampleAlternative:
    SETTINGS = McmcSettings(iterations=50, burn_in=10, seed=31)

    def datasets(self, count, sizes=(2, 5, 3, 5), k=2):
        rng = np.random.default_rng(9)
        return [[rng.normal(size=(m, k)) + rng.normal(size=k) for m in sizes] for _ in range(count)]

    def test_chain_is_bit_identical_to_the_chain_run_alone(self):
        # 50 iterations: three full random-number blocks and a partial one
        data = self.datasets(5)
        batch = sample_alternative(data, small_alt_prior(), self.SETTINGS, jobs=[7, 8, 9, 10, 11])
        alone = sample_alternative([data[2]], small_alt_prior(), self.SETTINGS, jobs=[9])[0]
        assert np.array_equal(batch[2].means, alone.means)
        for name in ("sigma_b", "sigma_w"):
            assert np.array_equal(batch[2].cov(name), alone.cov(name))

    def test_chains_of_one_data_set_differ(self):
        data = self.datasets(1)
        settings = McmcSettings(iterations=50, burn_in=10, seed=31, chains=3)
        draws = gibbs_alternative(data[0], small_alt_prior(), settings)
        assert draws.size == 3 * settings.kept_per_chain
        first, second, _ = draws.chain_slices()
        assert not np.array_equal(draws.means[first], draws.means[second])

    def test_one_layout_required(self):
        with pytest.raises(DataError, match="one group-size layout"):
            sample_alternative(
                [self.datasets(1)[0], self.datasets(1, sizes=(2, 5, 3, 4))[0]],
                small_alt_prior(),
                self.SETTINGS,
                jobs=[1, 2],
            )

    def test_mean_mixes_when_between_dominates_within(self):
        # Sigma_b / Sigma_w = 10^4, the glass stand-in's regime: the blocked
        # update draws mu with the source effects integrated out
        groups = simulate_groups(14, 5, 3, np.zeros(3), [1.0, 1.0, 1.0], [1e-4] * 3, seed=3)
        settings = McmcSettings(iterations=4000, burn_in=0, seed=8)
        draws = gibbs_alternative(groups, AlternativePrior.glass_default(), settings)
        for j in range(3):
            assert effective_sample_size(draws.means[:, j]) >= draws.size / 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflow_raises_numerical_error(self):
        groups = [np.array([[0.0, 0.0], [1e200, 1e200]]), np.array([[0.0, 0.0], [1.0, 1.0]])]
        with pytest.raises(NumericalError, match="^chain 0, iteration 0: .* not finite"):
            gibbs_alternative(groups, small_alt_prior(), self.SETTINGS)

    def test_failure_names_the_chain_and_iteration(self, monkeypatch):
        import specsource.gibbs as gibbs_module

        original = gibbs_module.invwishart_from_inverses
        calls = []

        def corrupt_chain_three(*args):
            out = original(*args)
            calls.append(None)
            if len(calls) == 5:
                out[1, 3] = -np.eye(out.shape[-1])
            return out

        monkeypatch.setattr(gibbs_module, "invwishart_from_inverses", corrupt_chain_three)
        with pytest.raises(NumericalError, match=r"^d3 chain 0, iteration 5: "):
            sample_alternative(
                self.datasets(4),
                small_alt_prior(),
                self.SETTINGS,
                jobs=[1, 2, 3, 4],
                labels=["d0", "d1", "d2", "d3"],
            )

    @staticmethod
    def corrupt_draws(monkeypatch, edits):
        """Apply ``edits[i]`` to the covariance pair that sweep ``i`` draws, in place."""
        import specsource.gibbs as gibbs_module

        original = gibbs_module.invwishart_from_inverses
        calls = []

        def corrupt(*args):
            out = original(*args)
            if len(calls) in edits:
                edits[len(calls)](out)
            calls.append(None)
            return out

        monkeypatch.setattr(gibbs_module, "invwishart_from_inverses", corrupt)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_draw_is_named_before_a_later_failure_in_its_block(self, monkeypatch):
        # sweep 6 of the first block draws a non-finite Sigma_w in chain 2 and a
        # negative-definite Sigma_b in chain 0, so a factorization fails at sweep 7
        def corrupt(out):
            out[0, 2] = np.nan
            out[1, 0] = -np.eye(out.shape[-1])

        self.corrupt_draws(monkeypatch, {6: corrupt})
        settings = McmcSettings(iterations=50, burn_in=10, seed=31, chains=4)
        with pytest.raises(
            NumericalError, match="^chain 2, iteration 6: covariance draw is not finite"
        ):
            gibbs_alternative(self.datasets(1)[0], small_alt_prior(), settings)

    def test_non_finite_draw_in_the_final_partial_block_is_caught(self, monkeypatch):
        # 50 iterations: the last block holds sweeps 48 and 49 only
        self.corrupt_draws(monkeypatch, {49: lambda out: out[1, 1].fill(np.inf)})
        settings = McmcSettings(iterations=50, burn_in=10, seed=31, chains=4)
        with pytest.raises(
            NumericalError, match="^chain 1, iteration 49: covariance draw is not finite"
        ):
            gibbs_alternative(self.datasets(1)[0], small_alt_prior(), settings)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_bartlett_factor_names_the_chain_and_iteration(self):
        # with no sources, Sigma_b's last chi-square variate has 1e-12 degrees of
        # freedom and underflows to zero: its Bartlett factor is singular
        prior = replace(small_alt_prior(), between_df=1.0 + 1e-12)
        with pytest.raises(
            NumericalError, match="^chain 0, iteration 0: covariance draw is not finite"
        ):
            gibbs_alternative([], prior, self.SETTINGS)


class TestEffectiveSampleSize:
    def test_iid_chain_close_to_n(self):
        n = 10**4
        x = np.random.default_rng(3).standard_normal(n)
        assert effective_sample_size(x) == pytest.approx(n, rel=0.15)

    def test_ar1_chain_matches_theory(self):
        # AR(1) with rho=0.5 has integrated autocorrelation time 3
        n = 10**5
        rng = np.random.default_rng(4)
        x = np.empty(n)
        x[0] = rng.standard_normal()
        innov = rng.standard_normal(n) * np.sqrt(1 - 0.25)
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + innov[t]
        assert effective_sample_size(x) == pytest.approx(n / 3, rel=0.15)

    def test_constant_chain_raises(self):
        with pytest.raises(DegenerateChainError, match="degenerate chain"):
            effective_sample_size(np.ones(100))

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            effective_sample_size(np.arange(5.0))

    def test_fft_length_matches_scipy(self):
        from scipy.fft import next_fast_len as scipy_next_fast_len

        targets = [*range(1, 4097), *range(4097, 130_001, 61), 2 * 29_000, 2 * 30_000]
        assert [next_fast_len(t) for t in targets] == [scipy_next_fast_len(t) for t in targets]

    def test_bounds(self):
        # antithetic-ish chain: ESS is clipped at n
        x = np.tile([1.0, -1.0], 500) + np.random.default_rng(5).normal(0, 0.1, 1000)
        assert effective_sample_size(x) <= 1000.0


class TestDrawSerialization:
    def test_round_trip(self, tmp_path):
        groups = simulate_groups(3, 4, 2, np.zeros(2), [1, 1], [0.3, 0.3])
        settings = McmcSettings(iterations=120, burn_in=20, seed=77)
        draws = gibbs_alternative(groups, small_alt_prior(), settings)
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        again = read_draws(path)
        assert again.model == draws.model
        assert again.settings == draws.settings
        assert np.allclose(again.means, draws.means, rtol=0, atol=0)
        for name in draws.covariances:
            assert np.allclose(again.cov(name), draws.cov(name), rtol=0, atol=0)

    def test_truncated_file_names_byte_offset(self, tmp_path):
        y = np.random.default_rng(0).normal(size=(3, 2))
        settings = McmcSettings(iterations=60, burn_in=10, seed=5)
        draws = gibbs_specific(y, small_specific_prior(), settings)
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        blob = path.read_bytes()
        cut = blob[: int(len(blob) * 0.8)]
        bad = tmp_path / "truncated.csv"
        bad.write_bytes(cut)
        with pytest.raises(DataError, match=r"byte offset \d+"):
            read_draws(bad)

    def test_non_numeric_cell_names_byte_offset(self, tmp_path):
        y = np.random.default_rng(0).normal(size=(3, 2))
        settings = McmcSettings(iterations=60, burn_in=10, seed=5)
        draws = gibbs_specific(y, small_specific_prior(), settings)
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        text = path.read_text().replace("0.", "0x", 1)
        bad = tmp_path / "corrupt.csv"
        bad.write_text(text)
        with pytest.raises(DataError, match="byte offset"):
            read_draws(bad)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda text: "".join(text.splitlines(True)[:-10]),
            lambda text: text.replace("# iterations: 200", "# iterations: lots"),
            lambda text: text.replace("# burn_in: 50", "# burn_in: 500"),
            lambda text: text.replace("# k: 3", "# k: 2"),
            lambda text: edit_first_row(text, "sigma_s_1_1", "-1.0"),
            lambda text: edit_first_row(text, "mu_2", "nan"),
        ],
        ids=[
            "ten-rows-short",
            "non-integer-iterations",
            "burn-in-too-large",
            "wrong-k",
            "non-spd-covariance",
            "non-finite-mean",
        ],
    )
    def test_inconsistent_metadata_is_data_error(self, tmp_path, corrupt):
        y = np.random.default_rng(2).normal(size=(3, 3)) * 0.1
        settings = McmcSettings(iterations=200, burn_in=50, seed=4)
        draws = gibbs_specific(y, SpecificPrior.glass_default(), settings)
        path = tmp_path / "draws.csv"
        write_draws(draws, path)
        path.write_text(corrupt(path.read_text()))
        with pytest.raises(DataError, match="corrupt draw file"):
            read_draws(path)


class TestDrawSetValidation:
    def test_non_finite_draw_rejected(self):
        stack = np.tile(np.eye(2), (4, 1, 1))
        stack[1, 0, 0] = np.nan
        with pytest.raises(NumericalError, match="not finite"):
            DrawSet(
                PROSECUTION,
                np.zeros((4, 2)),
                {"sigma_s": stack},
                McmcSettings(iterations=5, burn_in=1, seed=0),
            )

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="draw count"):
            DrawSet(
                PROSECUTION,
                np.zeros((5, 2)),
                {"sigma_s": np.tile(np.eye(2), (5, 1, 1))},
                McmcSettings(iterations=100, burn_in=0, seed=0),
            )

    def test_non_spd_draw_rejected(self):
        stack = np.tile(np.eye(2), (4, 1, 1))
        stack[2] = [[1.0, 2.0], [2.0, 1.0]]
        from specsource.errors import NumericalError

        with pytest.raises(NumericalError, match="positive definite"):
            DrawSet(
                PROSECUTION,
                np.zeros((4, 2)),
                {"sigma_s": stack},
                McmcSettings(iterations=5, burn_in=1, seed=0),
            )
