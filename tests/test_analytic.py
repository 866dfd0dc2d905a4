"""Moment, covariance and correlation formula tests.

The beta=1 cases reduce every formula to its classical Poisson
counterpart, which pins the normalizations end to end.  Frozen golden
values come from an mpmath oracle at 40 digits; quadrature cross-checks
run live.
"""

import math

import mpmath
import numpy as np
import pytest

from fracdep.analytic import (FnbpParams, FppParams, GammaParams, NoiseParams,
                              classify_exponent, delta_limit_bound,
                              delta_statistic, fnbn_asymptotics,
                              fnbn_correlation_asymptotic,
                              fnbn_theoretical_exponent, fnbp_correlation,
                              fnbp_covariance, fnbp_mean,
                              fnbp_theoretical_exponent, fnbp_variance,
                              fpn_correlation, fpn_covariance,
                              fpn_covariance_asymptotic,
                              fpn_theoretical_exponent, fpn_variance,
                              fpn_variance_asymptotic, fpp_F, fpp_covariance,
                              fpp_increment_factorial_moment,
                              fpp_increment_variance, fpp_mean, fpp_variance,
                              nb_pmf)
from fracdep.errors import DomainError
from fracdep.specfun import adaptive_quad, inc_beta, power_diff

# mpmath oracle values (dps=40)
FPP_VAR_05_1_T1 = 1.8551396223603498877
FPP_F_05_1_100 = -0.016691756388910409051
FPP_COV_05_1_1_10 = 2.0602291628306283167
FACT_MOMENT_05_1_1_3 = 1.8484080555021442399
K_05_1_1_S2 = 1.507340740216540158
FNBP_VAR_05_1_A2_P1_T3 = 2.5680127147247766083
FNBP_COV_05_1_1_1_S1_T50 = 2.0
FNBN_COV_PREF_05 = 0.56418958354775628695
DELTA_05_N2 = {10: 1.8805448025189552444,
               100: 4.8316732990055397451,
               1000: 14.215423162911704272}


@pytest.fixture
def poisson2():
    return FppParams(beta=1.0, lam=2.0)


@pytest.fixture
def half():
    return FppParams(beta=0.5, lam=1.0)


class TestDerivedConstants:
    def test_r_is_2d_minus_q_squared(self):
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = FppParams(beta, 1.7)
            assert p.R == pytest.approx(2 * p.d - p.q ** 2, rel=1e-12, abs=0)

    def test_r_vanishes_exactly_at_poisson(self, poisson2):
        assert poisson2.R == 0.0
        assert poisson2.q == 2.0

    def test_fnbp_derived(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(2.0, 3.0))
        assert fn.eta == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0)
        assert fn.d1 == pytest.approx(1.5 * fn.fpp.R, rel=1e-14, abs=0)

    def test_validation(self):
        with pytest.raises(DomainError):
            FppParams(0.0, 1.0)
        with pytest.raises(DomainError):
            FppParams(0.5, -1.0)
        with pytest.raises(DomainError):
            GammaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            NoiseParams(FppParams(0.5, 1.0), 0.0)


class TestPoissonReduction:
    def test_mean_variance(self, poisson2):
        assert fpp_mean(poisson2, 3.0) == pytest.approx(6.0, rel=1e-12, abs=0)
        assert fpp_variance(poisson2, 3.0) == pytest.approx(6.0, rel=1e-12, abs=0)
        assert fpp_mean(poisson2, 0.0) == 0.0
        assert fpp_variance(poisson2, 0.0) == 0.0

    def test_covariance_is_min(self, poisson2):
        rng = np.random.default_rng(3)
        for _ in range(20):
            s, t = sorted(rng.uniform(0.1, 20.0, 2))
            assert fpp_covariance(poisson2, s, t) == pytest.approx(
                2.0 * s, rel=1e-12, abs=0)

    def test_F_reduces_to_quadratic(self, poisson2):
        assert fpp_F(poisson2, 1.5, 3.0) == pytest.approx(-1.5 ** 2 / 2, rel=1e-12, abs=0)

    def test_increment_factorial_moment(self, poisson2):
        assert fpp_increment_factorial_moment(poisson2, 1.0, 3.0) == pytest.approx(
            (2.0 * 2.0) ** 2, rel=1e-12, abs=0)

    def test_disjoint_increments_uncorrelated(self, poisson2):
        noise = NoiseParams(poisson2, 0.7)
        assert fpn_covariance(noise, 1.0, 5.0) == 0.0
        assert fpn_correlation(noise, 1.0, 5.0) == 0.0

    def test_increment_variance_rate(self, poisson2):
        noise = NoiseParams(poisson2, 0.7)
        assert fpn_variance(noise, 5.0) == pytest.approx(2.0 * 0.7, rel=1e-12, abs=0)

    def test_delta_is_one_exactly(self, poisson2):
        assert delta_statistic(poisson2, 2, 100) == 1.0
        assert delta_statistic(poisson2, 3, 7) == 1.0


class TestFppMoments:
    def test_mean_half(self):
        p = FppParams(0.5, 1.0)
        assert fpp_mean(p, 4.0) == pytest.approx(2.0 / math.gamma(1.5), rel=1e-13, abs=0)

    def test_variance_golden(self, half):
        assert fpp_variance(half, 1.0) == pytest.approx(FPP_VAR_05_1_T1, rel=1e-13, abs=0)

    def test_covariance_variance_consistency(self):
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            p = FppParams(beta, 1.3)
            for t in (0.5, 1.0, 10.0, 100.0):
                assert fpp_covariance(p, t, t) == pytest.approx(
                    fpp_variance(p, t), rel=1e-10, abs=0)

    def test_covariance_golden(self, half):
        assert fpp_covariance(half, 1.0, 10.0) == pytest.approx(
            FPP_COV_05_1_1_10, rel=1e-12, abs=0)

    def test_covariance_symmetrizes(self, half):
        assert fpp_covariance(half, 10.0, 1.0) == fpp_covariance(half, 1.0, 10.0)

    def test_zero_time(self, half):
        assert fpp_covariance(half, 0.0, 10.0) == 0.0


class TestF:
    def test_zero_at_s0(self, half):
        assert fpp_F(half, 0.0, 10.0) == 0.0

    def test_golden(self, half):
        assert fpp_F(half, 1.0, 100.0) == pytest.approx(FPP_F_05_1_100, rel=1e-10, abs=0)

    def test_large_t_expansion(self):
        # F ~ -(b^2/(b+1)) s^{b+1} t^{b-1}, next order O(s^{b+2} t^{b-2})
        for beta, s, t in [(0.5, 1.0, 100.0), (0.3, 2.0, 500.0), (0.8, 1.0, 1000.0)]:
            p = FppParams(beta, 1.0)
            lead = -(beta ** 2 / (beta + 1.0)) * s ** (beta + 1.0) * t ** (beta - 1.0)
            assert abs(fpp_F(p, s, t) - lead) <= 2.0 * s ** (beta + 2) * t ** (beta - 2)

    def test_order_validation(self, half):
        with pytest.raises(DomainError):
            fpp_F(half, 5.0, 1.0)


class TestIncrementFactorialMoment:
    def test_empty_window(self, half):
        assert fpp_increment_factorial_moment(half, 2.0, 2.0) == 0.0

    def test_golden(self, half):
        assert fpp_increment_factorial_moment(half, 1.0, 3.0) == pytest.approx(
            FACT_MOMENT_05_1_1_3, rel=1e-12, abs=0)

    def test_quadrature_cross_check(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            beta = rng.uniform(0.1, 0.95)
            lam = rng.uniform(0.3, 3.0)
            s = rng.uniform(0.0, 5.0)
            t = s + rng.uniform(0.1, 10.0)
            p = FppParams(beta, lam)
            oracle = 2 * beta * p.q ** 2 * adaptive_quad(
                lambda r: (t - r) ** beta * r ** (beta - 1.0), s, t)
            assert fpp_increment_factorial_moment(p, s, t) == pytest.approx(
                oracle, rel=1e-8, abs=0)

    def test_two_sided_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            beta = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.2, 3.0)
            s = rng.uniform(0.0, 10.0)
            t = s + rng.uniform(0.01, 10.0)
            p = FppParams(beta, lam)
            val = fpp_increment_factorial_moment(p, s, t)
            lower = p.c * t ** (beta - 1.0) * (t - s) ** (beta + 1.0)
            upper = 2 * p.d * t ** (2 * beta)
            assert lower <= val * (1 + 1e-12)
            assert val <= upper * (1 + 1e-12)

    def test_close_windows_no_cancellation(self, half):
        # windows with t - s << s keep full relative precision
        s, t = 1e6, 1e6 + 1.0
        oracle = 2 * 0.5 * half.q ** 2 * adaptive_quad(
            lambda r: (t - r) ** 0.5 * r ** -0.5, s, t)
        assert fpp_increment_factorial_moment(half, s, t) == pytest.approx(
            oracle, rel=1e-8, abs=0)


class TestFpnCovariance:
    def test_matches_four_term_combination(self):
        noise = NoiseParams(FppParams(0.3, 1.0), 1.0)
        p = noise.fpp
        for t in (3.0, 10.0, 50.0):
            naive = (fpp_covariance(p, 1.0 + 1.0, t + 1.0) + fpp_covariance(p, 1.0, t)
                     - fpp_covariance(p, 2.0, t) - fpp_covariance(p, 1.0, t + 1.0))
            assert fpn_covariance(noise, 1.0, t) == pytest.approx(naive, rel=1e-8, abs=0)

    def test_large_t_power_law(self):
        # exact covariance tracks K * b(1-b)/(b+1) * t^(b-2)
        noise = NoiseParams(FppParams(0.2, 1.0), 1.0)
        K = fpn_covariance_asymptotic(noise, 1.0, 1e4).prefactor
        corrected = K * 0.2 * 0.8 / 1.2 * 1e4 ** (0.2 - 2.0)
        ratio = fpn_covariance(noise, 1.0, 1e4) / corrected
        assert 0.9 <= ratio <= 1.1

    def test_claimed_rate_structure(self):
        noise = NoiseParams(FppParams(0.5, 1.0), 1.0)
        asym = fpn_covariance_asymptotic(noise, 2.0, 100.0)
        assert asym.exponent == -(0.5 + 2.0)
        assert asym.prefactor == pytest.approx(K_05_1_1_S2, rel=1e-12, abs=0)
        assert asym.value == pytest.approx(K_05_1_1_S2 * 100.0 ** -2.5, rel=1e-12, abs=0)

    def test_prefactor_collapses_at_s0(self):
        noise = NoiseParams(FppParams(0.4, 1.0), 0.5)
        asym = fpn_covariance_asymptotic(noise, 0.0, 50.0)
        q = noise.fpp.q
        assert asym.prefactor == pytest.approx(0.4 * q * q * 0.5 ** (0.4 + 2.0),
                                               rel=1e-12, abs=0)

    def test_overlap_raises(self):
        noise = NoiseParams(FppParams(0.5, 1.0), 1.0)
        with pytest.raises(DomainError):
            fpn_covariance(noise, 1.0, 1.5)

    @pytest.mark.parametrize("beta", (0.1, 0.25, 0.5, 0.7435199433909901, 0.9, 0.95))
    def test_mpmath_oracle_up_to_t_1e6(self, beta):
        # the large-t covariance (order t^(b-2)) is far smaller than either
        # of the terms it used to be the difference of
        noise = NoiseParams(FppParams(beta, 1.0), 1.0)
        with mpmath.workdps(40):
            b = mpmath.mpf(beta)
            q = 1 / mpmath.gamma(1 + b)

            def gap(u):
                return (u + 1) ** b - u ** b

            for t in (2.0, 10.0, 1e3, 68129.0, 3e5, 1e6):
                g_t = gap(mpmath.mpf(t))
                oracle = q * q * b * mpmath.quad(
                    lambda r: r ** (b - 1) * (gap(mpmath.mpf(t) - r) - g_t), [1, 2])
                assert fpn_covariance(noise, 1.0, t) == pytest.approx(
                    float(oracle), rel=1e-8, abs=0.0)


class TestFpnVariance:
    def test_at_zero_equals_point_variance(self, half):
        noise = NoiseParams(half, 0.8)
        assert fpn_variance(noise, 0.0) == pytest.approx(
            fpp_variance(half, 0.8), rel=1e-12, abs=0)

    def test_matches_covariance_combination(self):
        noise = NoiseParams(FppParams(0.4, 1.5), 1.0)
        p = noise.fpp
        for t in (0.5, 2.0, 20.0):
            naive = (fpp_variance(p, t + 1.0) + fpp_variance(p, t)
                     - 2.0 * fpp_covariance(p, t, t + 1.0))
            assert fpn_variance(noise, t) == pytest.approx(naive, rel=1e-9, abs=0)

    def test_asymptotic_self_consistency(self):
        noise = NoiseParams(FppParams(0.3, 1.0), 1.0)
        ratio = fpn_variance(noise, 1e6) / fpn_variance_asymptotic(noise, 1e6).value
        assert 0.99 <= ratio <= 1.01


class TestFpnCorrelationModel:
    def test_poisson_kills_correlation(self, poisson2):
        assert fpn_correlation(NoiseParams(poisson2, 1.0), 1.0, 10.0) == 0.0

    def test_exponent_boundary(self):
        assert fpn_theoretical_exponent(1.0 / 3.0) == pytest.approx(2.0, rel=1e-15, abs=0)
        assert classify_exponent(fpn_theoretical_exponent(0.2)) == "SRD"
        assert classify_exponent(fpn_theoretical_exponent(0.5)) == "UNCLASSIFIED"

    def test_within_unit_interval(self):
        noise = NoiseParams(FppParams(0.2, 1.0), 1.0)
        for t in np.geomspace(3.0, 1e6, 12):
            assert abs(fpn_correlation(noise, 1.0, t)) <= 1.0


class TestDeltaStatistic:
    def test_single_cell(self, half):
        assert delta_statistic(half, 1, 1) == pytest.approx(1.0, rel=1e-12, abs=0)

    @pytest.mark.parametrize("m,ref", sorted(DELTA_05_N2.items()))
    def test_goldens(self, half, m, ref):
        assert delta_statistic(half, 2, m) == pytest.approx(ref, rel=1e-10, abs=0)

    def test_grows_like_power_of_m(self, half):
        # the block-variance ratio diverges; successive decades grow by ~sqrt(10)
        vals = [delta_statistic(half, 2, m) for m in (10, 100, 1000)]
        assert vals[2] > vals[1] > vals[0] > 1.0
        assert vals[2] / vals[1] == pytest.approx(math.sqrt(10.0), rel=0.1, abs=0)

    def test_limit_bound_is_at_most_one(self):
        for beta in (0.2, 0.5, 0.8):
            p = FppParams(beta, 1.0)
            for n in range(1, 12):
                assert delta_limit_bound(p, n) <= 1.0 + 1e-12

    def test_unit_window_sum_telescopes(self, half):
        # sum_j C(j, beta) over a block telescopes to the block power gap
        n, m = 2, 57
        j = np.arange((n - 1) * m + 1, n * m + 1, dtype=float)
        total = float(np.sum(power_diff(j, 0.5)))
        assert total == pytest.approx((n * m) ** 0.5 - ((n - 1) * m) ** 0.5, rel=1e-10, abs=0)

    def test_validation(self, half):
        with pytest.raises(DomainError):
            delta_statistic(half, 0, 10)


def _delta_by_direct_sum(params, n, m):
    """Delta_n^(m) with the O(m) denominator it had before the series tail:
    every unit window j = (n-1)m+1 .. nm is evaluated and summed."""
    b, q = params.beta, params.q
    lo, hi = (n - 1) * m, n * m
    numerator = fpp_increment_variance(params, float(lo), float(hi))
    j = np.arange(lo + 1, hi + 1, dtype=float)
    fact = 2.0 * b * q * q * j ** (2.0 * b) * inc_beta(1.0 + b, b, 1.0 / j)
    gap = q * power_diff(j, b)
    denominator = float(np.sum(fact + gap - gap * gap))
    return numerator / denominator


class TestDeltaSeriesTail:
    """Past j = 512 the denominator is a 1/j series summed by Euler-Maclaurin;
    it must match the direct sum of the unit-window variances."""

    BETAS = (0.01, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.999)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize("n", (1, 2, 3, 10, 1000))
    def test_matches_direct_sum(self, beta, n):
        p = FppParams(beta, 1.0)
        for m in (1, 2, 10, 100, 511, 512, 513, 1000, 10_000, 100_000):
            fast = delta_statistic(p, n, m)
            assert type(fast) is float
            assert fast == pytest.approx(_delta_by_direct_sum(p, n, m),
                                         rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("beta", BETAS)
    def test_matches_direct_sum_at_m_1e6(self, beta):
        p = FppParams(beta, 1.0)
        for n in ((1, 2, 1000) if beta in (0.2, 0.5) else (2,)):
            assert delta_statistic(p, n, 10 ** 6) == pytest.approx(
                _delta_by_direct_sum(p, n, 10 ** 6), rel=1e-12, abs=0.0)

    def test_poisson_stays_exactly_one(self, poisson2):
        for m in (1, 513, 10 ** 6):
            assert delta_statistic(poisson2, 2, m) == 1.0


class TestNbPmf:
    @pytest.fixture
    def params(self):
        return FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))

    def test_zero_count(self, params):
        assert nb_pmf(params, 0, 2.0) == pytest.approx((1 - params.eta) ** 2.0,
                                                       rel=1e-13, abs=0)

    def test_geometric_case(self, params):
        # pt = 1: P[X=n] = eta^n (1-eta)
        for n in range(5):
            assert nb_pmf(params, n, 1.0) == pytest.approx(
                0.5 ** n * 0.5, rel=1e-12, abs=0)

    def test_known_value(self, params):
        assert nb_pmf(params, 3, 2.0) == pytest.approx(0.125, rel=1e-12, abs=0)

    def test_normalization(self, params):
        total = sum(nb_pmf(params, n, 2.0) for n in range(200))
        assert total == pytest.approx(1.0, rel=1e-10, abs=0)


class TestFnbpMoments:
    def test_mean_poisson_gamma(self):
        fn = FnbpParams(FppParams(1.0, 1.0), GammaParams(1.0, 1.0))
        assert fnbp_mean(fn, 2.0) == pytest.approx(2.0, rel=1e-13, abs=0)

    def test_mean_exact_cancellation(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        assert fnbp_mean(fn, 2.0) == pytest.approx(1.5, rel=1e-13, abs=0)

    def test_mean_power_limit(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        t = 1e6
        target = fn.fpp.q * (t / 1.0) ** 0.5
        assert fnbp_mean(fn, t) / target == pytest.approx(1.0, abs=1e-4)

    def test_variance_negative_binomial_identity(self):
        fn = FnbpParams(FppParams(1.0, 1.5), GammaParams(2.0, 3.0))
        t = 2.0
        r = 3.0 * t
        eta = fn.eta
        assert fnbp_variance(fn, t) == pytest.approx(
            r * eta / (1 - eta) ** 2, rel=1e-12, abs=0)

    def test_variance_golden(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(2.0, 1.0))
        assert fnbp_variance(fn, 3.0) == pytest.approx(
            FNBP_VAR_05_1_A2_P1_T3, rel=1e-12, abs=0)

    def test_variance_asymptotic_power(self):
        # Var/(t^{2b} d1) -> 1; the leading correction is q t^{-b}/R, so
        # 1e-3 agreement needs t beyond ~2.4e6 for beta = 1/2
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        t = 1e7
        assert fnbp_variance(fn, t) / (t ** 1.0 * fn.d1) == pytest.approx(
            1.0, abs=1e-3)


class TestFnbpCovariance:
    @pytest.fixture
    def params(self):
        return FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))

    def test_diagonal_equals_variance(self, params):
        assert fnbp_covariance(params, 3.0, 3.0) == pytest.approx(
            fnbp_variance(params, 3.0), rel=1e-8, abs=0)

    def test_golden_t50(self, params):
        assert fnbp_covariance(params, 1.0, 50.0) == pytest.approx(
            FNBP_COV_05_1_1_1_S1_T50, rel=1e-9, abs=0)

    def test_unit_shape_collapses_to_limit(self):
        # when p*s = 1 the mixing ratio Y(s)/Y(t) is Beta(1, p(t-s)) and
        # beta E[Y^{2b}(t) B(b,1+b;Y(s)/Y(t))] = E[Y^b(s)] E[Y^b(t)] exactly,
        # so the covariance sits at its large-t limit for every t > s
        for beta, alpha in [(0.3, 1.0), (0.7, 2.0)]:
            fn = FnbpParams(FppParams(beta, 1.0), GammaParams(alpha, 1.0))
            limit = (fn.fpp.q * fn.clock_moment(beta, 1.0)
                     + fn.fpp.d * fn.clock_moment(2 * beta, 1.0))
            for t in (5.0, 500.0):
                assert fnbp_covariance(fn, 1.0, t) == pytest.approx(limit, rel=5e-9, abs=0)

    def test_limit_approach_rate(self):
        # away from p*s = 1 the gap to the limit shrinks like t^{b-1}
        fn = FnbpParams(FppParams(0.3, 1.0), GammaParams(1.0, 1.0))
        limit = (fn.fpp.q * fn.clock_moment(0.3, 2.0)
                 + fn.fpp.d * fn.clock_moment(0.6, 2.0))
        gaps = [limit - fnbp_covariance(fn, 2.0, t) for t in (50.0, 500.0)]
        assert gaps[0] > gaps[1] > 0.0
        assert gaps[0] / gaps[1] == pytest.approx(10.0 ** 0.7, rel=0.15, abs=0)

    def test_large_t_limit(self, params):
        limit = (params.fpp.q * params.clock_moment(0.5, 1.0)
                 + params.fpp.d * params.clock_moment(1.0, 1.0))
        assert fnbp_covariance(params, 1.0, 1e6) == pytest.approx(limit, rel=0.01, abs=0)

    def test_symmetrized(self, params):
        assert fnbp_covariance(params, 50.0, 1.0) == pytest.approx(
            fnbp_covariance(params, 1.0, 50.0), rel=1e-12, abs=0)


class TestFnbpCorrelation:
    def test_diagonal(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        assert fnbp_correlation(fn, 2.0, 2.0) == 1.0

    def test_decreasing_and_bounded(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        vals = [fnbp_correlation(fn, 1.0, t) for t in (2.0, 10.0, 100.0)]
        assert 1.0 >= vals[0] > vals[1] > vals[2] > 0.0

    def test_zero_start_rejected(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        with pytest.raises(DomainError):
            fnbp_correlation(fn, 0.0, 10.0)

    def test_theoretical_exponent(self):
        assert fnbp_theoretical_exponent(0.5) == 0.5
        assert classify_exponent(fnbp_theoretical_exponent(0.5)) == "LRD"


class TestFnbnAsymptotics:
    @pytest.fixture
    def noise(self):
        return NoiseParams(FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0)), 1.0)

    def test_corr_exponent(self, noise):
        assert fnbn_theoretical_exponent(1.0) == 1.0
        assert fnbn_theoretical_exponent(0.5) == 1.25
        assert classify_exponent(fnbn_theoretical_exponent(0.5)) == "SRD"
        assert fnbn_asymptotics(noise, 1.0, 100.0).corr_exponent == 1.25

    def test_cov_prefactor_golden(self, noise):
        asym = fnbn_asymptotics(noise, 1.0, 100.0)
        assert asym.cov.prefactor == pytest.approx(FNBN_COV_PREF_05, rel=1e-12, abs=0)
        assert asym.cov.exponent == 0.5 - 2.0

    def test_var_structure(self, noise):
        asym = fnbn_asymptotics(noise, 1.0, 100.0)
        q = noise.base.fpp.q
        assert asym.var.prefactor == pytest.approx(0.5 * 1.0 * q, rel=1e-12, abs=0)
        assert asym.var.exponent == 0.5 - 1.0

    def test_correlation_curve_is_pure_power_law(self, noise):
        c1 = fnbn_correlation_asymptotic(noise, 1.0, 100.0)
        c2 = fnbn_correlation_asymptotic(noise, 1.0, 1000.0)
        assert c1 / c2 == pytest.approx(10.0 ** 1.25, rel=1e-10, abs=0)

    def test_overlap_raises(self, noise):
        with pytest.raises(DomainError):
            fnbn_asymptotics(noise, 5.0, 5.5)


class TestClassifyExponent:
    def test_regions(self):
        assert classify_exponent(0.5) == "LRD"
        assert classify_exponent(1.25) == "SRD"
        assert classify_exponent(1.0) == "UNCLASSIFIED"
        assert classify_exponent(2.0) == "UNCLASSIFIED"
        assert classify_exponent(-0.3) == "UNCLASSIFIED"

    def test_non_finite(self):
        with pytest.raises(DomainError):
            classify_exponent(math.nan)
