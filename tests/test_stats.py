import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from specsource.errors import NotSpdError, NumericalError
from specsource.stats import (
    RngStream,
    SpdMatrix,
    SpdStack,
    compound_logpdf,
    invwishart_bartlett,
    log_mean_exp,
    mvn_logpdf,
    sample_inverse_wishart,
    sample_mvn,
)

from conftest import random_orthogonal, random_spd


class TestSpdMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(NotSpdError, match="not symmetric"):
            SpdMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        m = SpdMatrix([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotSpdError, match="positive definite"):
            _ = m.chol

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SpdMatrix(np.ones((2, 3)))

    def test_factorization_reproduces_matrix(self, np_rng):
        for k in (1, 2, 3, 5):
            m = random_spd(np_rng, k)
            scale = np.max(np.abs(m.values))
            assert np.max(np.abs(m.chol @ m.chol.T - m.values)) <= 1e-10 * scale

    def test_diagonal_constructors(self):
        assert np.allclose(SpdMatrix.diagonal([2.0, 3.0]).values, np.diag([2.0, 3.0]))
        assert np.allclose(SpdMatrix.diagonal(4.0, dim=3).values, 4.0 * np.eye(3))


class TestMvnLogpdf:
    def test_scalar_standard_normal_at_zero(self):
        # -0.5*ln(2*pi)
        assert mvn_logpdf([0.0], [0.0], [[1.0]]) == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_at_mean_identity_3d(self):
        # -(3/2)*ln(2*pi)
        val = mvn_logpdf(np.zeros(3), np.zeros(3), np.eye(3))
        assert val == pytest.approx(-2.756815599614018, abs=1e-12)

    def test_offset_diagonal_2d(self):
        # -ln(2*pi) - 0.5*ln(4) - 0.5
        val = mvn_logpdf([1.0, 1.0], [0.0, 0.0], np.diag([2.0, 2.0]))
        assert val == pytest.approx(-3.031024246969078, abs=1e-12)

    def test_matches_scipy(self, np_rng):
        from scipy.stats import multivariate_normal

        for k in (1, 2, 4):
            sigma = random_spd(np_rng, k)
            mu = np_rng.standard_normal(k)
            x = np_rng.standard_normal(k)
            expect = multivariate_normal(mean=mu, cov=sigma.values).logpdf(x)
            assert mvn_logpdf(x, mu, sigma) == pytest.approx(expect, abs=1e-10)

    def test_batch_rows(self, np_rng):
        sigma = random_spd(np_rng, 2)
        mu = np.zeros(2)
        pts = np_rng.standard_normal((5, 2))
        batch = mvn_logpdf(pts, mu, sigma)
        assert batch.shape == (5,)
        for i in range(5):
            assert batch[i] == pytest.approx(mvn_logpdf(pts[i], mu, sigma), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mvn_logpdf([0.0, 0.0], [0.0], [[1.0]])

    def test_rotation_invariance(self, np_rng):
        # logpdf is invariant under a simultaneous orthogonal rotation
        for k in (2, 3):
            for _ in range(10):
                sigma = random_spd(np_rng, k)
                mu = np_rng.standard_normal(k)
                x = np_rng.standard_normal(k)
                q = random_orthogonal(np_rng, k)
                base = mvn_logpdf(x, mu, sigma)
                rotated = mvn_logpdf(q @ x, q @ mu, q @ sigma.values @ q.T)
                assert rotated == pytest.approx(base, abs=1e-9)

    def test_never_neg_inf_for_far_points(self):
        val = mvn_logpdf([50.0, -50.0], [0.0, 0.0], np.eye(2))
        assert np.isfinite(val)


class TestSampleMvn:
    def test_deterministic_given_stream(self):
        mu = np.array([1.0, -2.0])
        sigma = np.diag([2.0, 0.5])
        a = sample_mvn(mu, sigma, RngStream(99, 5), size=10)
        b = sample_mvn(mu, sigma, RngStream(99, 5), size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        mu = np.zeros(2)
        a = sample_mvn(mu, np.eye(2), RngStream(99, 1), size=4)
        b = sample_mvn(mu, np.eye(2), RngStream(99, 2), size=4)
        assert not np.array_equal(a, b)

    def test_mean_within_clt_bound(self):
        # componentwise |mean| <= 4/sqrt(n) for N(0, I) draws
        n = 10**5
        draws = sample_mvn(np.zeros(2), np.eye(2), RngStream(7, 0), size=n)
        assert np.all(np.abs(draws.mean(axis=0)) < 4.0 / np.sqrt(n))

    def test_covariance_within_lln_bound(self):
        n = 10**5
        draws = sample_mvn(np.zeros(2), np.eye(2), RngStream(8, 0), size=n)
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_non_spd_rejected(self):
        with pytest.raises(NotSpdError):
            sample_mvn(np.zeros(2), [[1.0, 2.0], [2.0, 1.0]], RngStream(1))


def inverse_wishart_stack(phi, nu, stream, n):
    """``n`` IW(phi, nu) draws as one stack, from the variates of ``sample_inverse_wishart``."""
    phi = SpdMatrix(phi)
    k = phi.dim
    chi2 = stream.generator.chisquare(nu - np.arange(k), size=(n, k))
    normals = stream.generator.standard_normal((n, k * (k - 1) // 2))
    return invwishart_bartlett(phi.chol, chi2, normals)


class TestInverseWishart:
    def test_deterministic_given_stream(self):
        phi = SpdMatrix(np.diag([1.0, 2.0]))
        a = sample_inverse_wishart(phi, 4.0, RngStream(3, 1))
        b = sample_inverse_wishart(phi, 4.0, RngStream(3, 1))
        assert np.array_equal(a.values, b.values)

    def test_draws_are_spd(self, np_rng):
        phi = random_spd(np_rng, 3)
        stream = RngStream(11, 0)
        for _ in range(200):
            draw = sample_inverse_wishart(phi, 3.0, stream)
            assert np.all(np.isfinite(draw.chol))

    def test_wrapper_is_bartlett_on_its_stream(self, np_rng):
        for k in (1, 2, 3):
            phi = random_spd(np_rng, k)
            nu = k + 1.5
            got = sample_inverse_wishart(phi, nu, RngStream(31, k))
            gen = RngStream(31, k).generator
            chi2 = gen.chisquare(nu - np.arange(k))
            normals = gen.standard_normal(k * (k - 1) // 2)
            assert np.array_equal(got.values, invwishart_bartlett(phi.chol, chi2, normals))

    def test_univariate_mean(self):
        # IW(phi=2, nu=5) with k=1 has mean phi/(nu-k-1) = 2/3
        n = 10**5
        draws = inverse_wishart_stack([[2.0]], 5.0, RngStream(21, 0), n)[:, 0, 0]
        mc_se = draws.std(ddof=1) / np.sqrt(n)
        assert abs(draws.mean() - 2.0 / 3.0) < 3 * mc_se

    def test_precision_mean_matches_wishart(self, np_rng):
        # inverse draws are Wishart(phi^{-1}, nu): E[S^{-1}] = nu * phi^{-1}
        n = 10**5
        for k in (2, 3):
            phi = random_spd(np_rng, k)
            nu = k + 2.5
            inv = np.linalg.inv(inverse_wishart_stack(phi, nu, RngStream(500 + k, 0), n))
            acc = inv.sum(axis=0)
            acc_sq = (inv * inv).sum(axis=0)
            mean = acc / n
            sd = np.sqrt(np.maximum(acc_sq / n - mean**2, 0.0))
            target = nu * np.linalg.inv(phi.values)
            assert np.all(np.abs(mean - target) <= 3 * sd / np.sqrt(n) + 1e-12)

    def test_improper_df_rejected(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            sample_inverse_wishart(np.eye(3), 1.5, RngStream(1))


class TestCompoundLogpdf:
    def test_single_row_reduces_to_mvn(self, np_rng):
        for _ in range(5):
            sb = random_spd(np_rng, 3)
            sw = random_spd(np_rng, 3)
            mu = np_rng.standard_normal(3)
            y = np_rng.standard_normal(3)
            lhs = compound_logpdf(y[None, :], mu, sb, sw)
            rhs = mvn_logpdf(y, mu, SpdMatrix(sb.values + sw.values))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_vanishing_between_cov_gives_independence(self, np_rng):
        sw = random_spd(np_rng, 2)
        mu = np_rng.standard_normal(2)
        y = np_rng.standard_normal((4, 2))
        lhs = compound_logpdf(y, mu, 1e-12 * np.eye(2), sw)
        rhs = float(np.sum(mvn_logpdf(y, mu, sw)))
        assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_matches_monte_carlo_integration(self, np_rng):
        # oracle: marginalize the shared effect by brute-force MC averaging
        n = 10**6
        for trial in range(3):
            sb = random_spd(np_rng, 2, scale=0.5)
            sw = random_spd(np_rng, 2, scale=0.3)
            mu = np_rng.standard_normal(2)
            y = mu + np_rng.standard_normal((3, 2))
            effects = sample_mvn(np.zeros(2), sb, RngStream(600 + trial, 0), size=n)
            total = np.zeros(n)
            for j in range(3):
                total += mvn_logpdf(y[j] - effects, mu, sw)
            w = np.exp(total - total.max())
            log_mc = total.max() + np.log(w.mean())
            mc_se = w.std(ddof=1) / (w.mean() * np.sqrt(n))
            assert abs(compound_logpdf(y, mu, sb, sw) - log_mc) <= 3 * mc_se

    def test_permutation_invariance_exact(self, np_rng):
        sb = random_spd(np_rng, 2)
        sw = random_spd(np_rng, 2)
        mu = np.zeros(2)
        for m in (4, 40):
            y = np_rng.standard_normal((m, 2))
            perm = np_rng.permutation(m)
            assert compound_logpdf(y, mu, sb, sw) == compound_logpdf(y[perm], mu, sb, sw)

    def test_long_trace_matches_dense(self, np_rng):
        # oracle: the stacked m*k vector is MVN with block covariance
        # kron(ones(m, m), sb) + kron(eye(m), sw)
        m, k = 200, 3
        sb = random_spd(np_rng, k, scale=0.5)
        sw = random_spd(np_rng, k, scale=0.3)
        mu = np_rng.standard_normal(k)
        y = mu + np_rng.standard_normal((m, k))
        cov = np.kron(np.ones((m, m)), sb.values) + np.kron(np.eye(m), sw.values)
        dense = multivariate_normal(np.tile(mu, m), cov).logpdf(y.ravel())
        assert compound_logpdf(y, mu, sb, sw) == pytest.approx(dense, rel=1e-10)

    def test_non_spd_draw_raises_numerical_error(self, np_rng):
        sws = np.stack([np.eye(2), -np.eye(2)])
        with pytest.raises(NumericalError):
            compound_logpdf(np.zeros((3, 2)), np.zeros((2, 2)), sws, sws)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compound_logpdf(np.zeros((2, 3)), np.zeros(3), np.eye(3), np.eye(2))


class TestSpdStack:
    def test_derived_factors_match_numpy(self, np_rng):
        stack = np.stack([random_spd(np_rng, 3).values for _ in range(6)])
        spd = SpdStack(stack)
        assert spd.values is stack
        assert np.allclose(spd.chol @ spd.chol.swapaxes(1, 2), stack, rtol=1e-12, atol=0)
        assert np.allclose(spd.log_det, np.linalg.slogdet(stack)[1], rtol=1e-12, atol=0)
        inverse = np.linalg.inv(stack).reshape(6, 9)
        assert np.allclose(spd.inv_flat, inverse, rtol=1e-10, atol=1e-14)

    def test_rejects_indefinite_and_bad_shape(self):
        with pytest.raises(NotSpdError, match="positive definite"):
            SpdStack(np.stack([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]]))
        with pytest.raises(ValueError, match="stack"):
            SpdStack(np.eye(2))


class TestLogMeanExp:
    def test_constant_zero(self):
        assert log_mean_exp([0.0, 0.0, 0.0]) == 0.0

    def test_ln2_ln4(self):
        got = log_mean_exp([np.log(2.0), np.log(4.0)])
        assert got == pytest.approx(np.log(3.0), abs=1e-12)

    def test_extreme_negative_is_exact(self):
        assert log_mean_exp([-1000.0, -1000.0]) == -1000.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_mean_exp([])

    def test_all_neg_inf_warns(self):
        with pytest.warns(RuntimeWarning, match="-inf"):
            assert log_mean_exp([-np.inf, -np.inf]) == -np.inf

    def test_partial_neg_inf_ok(self):
        got = log_mean_exp([np.log(2.0), -np.inf])
        assert got == pytest.approx(0.0, abs=1e-12)

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=30),
        st.floats(min_value=-100, max_value=100),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_invariance(self, values, c):
        base = log_mean_exp(values)
        shifted = log_mean_exp(np.asarray(values) + c)
        assert shifted == pytest.approx(base + c, abs=1e-12 * max(1.0, abs(base + c)))
