"""Moment, covariance and correlation formula tests.

The beta=1 cases reduce every formula to its classical Poisson
counterpart, which pins the normalizations end to end.  Frozen golden
values come from an mpmath oracle at 40 digits; quadrature cross-checks
run live.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fracdep import specfun
from fracdep.analytic import (COV_QUAD, FnbpParams, FppParams, GammaParams,
                              NoiseParams, classify_exponent, delta_limit_bound,
                              delta_statistic, fnbn_asymptotics,
                              fnbn_correlation_asymptotic,
                              fnbn_theoretical_exponent, fnbp_correlation,
                              fnbp_covariance, fnbp_mean,
                              fnbp_theoretical_exponent, fnbp_variance,
                              fpn_correlation, fpn_covariance,
                              fpn_covariance_asymptotic,
                              fpn_theoretical_exponent, fpn_variance,
                              fpn_variance_asymptotic, fpp_correlation, fpp_F,
                              fpp_covariance,
                              fpp_increment_factorial_moment,
                              fpp_increment_variance, fpp_mean, fpp_variance,
                              nb_pmf)
from fracdep.errors import ConvergenceError, DomainError, NumericalError
from fracdep.estimate import analytic_curve
from fracdep.specfun import adaptive_quad, inc_beta, power_diff, power_gap

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


class TestConstantOverflow:
    """lambda^2 and q^2 pass float64's 1.8e308 from lambda ~ 1.3e154: a Python
    float ** then raises OverflowError, and lambda^2 / beta gives inf."""

    @pytest.mark.parametrize("name,lam", [
        ("R", 1e154),   # lambda^2 finite, lambda^2 / beta = inf
        ("R", 1e160), ("c", 1e160), ("d", 1e160),
        ("R", 1e200), ("c", 1e200), ("d", 1e200),
        ("R", 1e308), ("c", 1e308), ("d", 1e308),
    ])
    def test_raises_numerical_error(self, name, lam):
        with pytest.raises(NumericalError, match=f"constant {name} overflows"):
            getattr(FppParams(0.5, lam), name)

    def test_moments(self):
        big = FppParams(0.5, 1e200)
        assert fpp_mean(big, 1.0) == pytest.approx(1e200 * fpp_mean(FppParams(0.5, 1.0), 1.0),
                                                   rel=1e-14, abs=0)
        with pytest.raises(NumericalError):
            fpp_variance(big, 1.0)
        with pytest.raises(NumericalError):
            fnbp_variance(FnbpParams(big, GammaParams(1.0, 1.0)), 1.0)

    def test_large_finite_constants_unchanged(self):
        one, big = FppParams(0.5, 1.0), FppParams(0.5, 1e150)
        for name in ("R", "c", "d"):
            assert getattr(big, name) == pytest.approx(1e300 * getattr(one, name),
                                                       rel=1e-14, abs=0)


class TestOverflowingMoments:
    """Moments and q^2-scaled covariances raise NumericalError where float64
    overflows, instead of returning inf or nan; finite values are unchanged
    to the bit."""

    BIG = FppParams(0.5, 1e200)  # q^2 overflows, q does not

    @pytest.mark.parametrize("fn", [
        lambda: fpp_mean(FppParams(1.0, 1e200), 1e200),
        lambda: fpp_variance(FppParams(0.5, 1e150), 1e20),
        lambda: fnbp_mean(FnbpParams(FppParams(1.0, 1e200), GammaParams(1e-200, 1.0)), 1.0),
        lambda: fnbp_variance(FnbpParams(FppParams(0.5, 1e150), GammaParams(2e-12, 1e-3)), 1.0),
        lambda: fnbp_variance(FnbpParams(FppParams(0.5, 1.0), GammaParams(1e-320, 1e-10)), 1.0),
        # t^(2b) itself overflows: a Python float ** raises OverflowError
        lambda: fpp_variance(FppParams(0.9, 1.0), 1e200),
        lambda: fpp_covariance(FppParams(0.9, 1.0), 1e200, 1e201),
        lambda: fpp_covariance(FppParams(0.9, 1.0), 1.0, 1e201),
        lambda: fpp_F(FppParams(0.9, 1.0), 1.0, 1e201),
    ], ids=["fpp_mean", "fpp_variance", "fnbp_mean", "fnbp_variance", "clock_moment",
            "fpp_variance_power", "fpp_covariance_power", "fpp_covariance_F_power",
            "fpp_F_power"])
    def test_moments_raise(self, fn):
        with pytest.raises(NumericalError, match="overflows float64"):
            fn()

    @pytest.mark.parametrize("fn", [
        lambda p: fpp_covariance(p, 1.0, 10.0),
        lambda p: fpp_increment_factorial_moment(p, 1.0, 3.0),
        lambda p: fpn_covariance(NoiseParams(p, 1.0), 1.0, 10.0),
        lambda p: fpn_covariance_asymptotic(NoiseParams(p, 1.0), 2.0, 10.0),
        lambda p: fpn_variance(NoiseParams(p, 1.0), 2.0),
        lambda p: fpn_correlation(NoiseParams(p, 1.0), 1.0, 10.0),
        lambda p: fnbn_asymptotics(NoiseParams(FnbpParams(p, GammaParams(1.0, 1.0)), 1.0),
                                   1.0, 100.0),
    ], ids=["fpp_covariance", "factorial_moment", "fpn_covariance",
            "fpn_covariance_asymptotic", "fpn_variance", "fpn_correlation",
            "fnbn_asymptotics"])
    def test_q_squared_raises(self, fn):
        with pytest.raises(NumericalError, match="constant q\\^2 overflows"):
            fn(self.BIG)

    # float.hex of the values before q^2 was checked, at lambda = 1 and 1e150
    UNCHANGED = {
        "fpp_mean": ("0x1.20dd750429b6dp+1", "0x1.60fc5aade57abp+499"),
        "fpp_variance": ("0x1.daea6e278d2e9p+0", "0x1.15d09edf31278p+996"),
        "fpp_covariance": ("0x1.07b596d64fbe5p+1", "0x1.6436a378b9cdap+996"),
        "factorial_moment": ("0x1.d93145340b6e8p+0", "0x1.614a67e1f4fbcp+997"),
        "fpn_covariance": ("0x1.a51c44164446fp-8", "0x1.3a67d6e7dd906p+989"),
        "fpn_covariance_asymptotic": ("0x1.81e1152f2891ap+0", "0x1.201a04dedf068p+997"),
        "fpn_variance": ("0x1.8f89497c1cf07p-1", "0x1.42679996ddaccp+995"),
        "delta_10": ("0x1.e16b62597b506p+0", "0x1.438d19f340abbp+1"),
        "delta_1000": ("0x1.c6e4bf1df0369p+3", "0x1.71647bd0c1467p+4"),
        "fnbp_mean": ("0x1.5369480174811p+0", "0x1.9ec07d6f81eabp+498"),
        "fnbp_variance": ("0x1.48b4a400ba404p+1", "0x1.dad8330f09210p+996"),
        "fnbp_covariance": ("0x1.ffffffffffcc0p+0", "0x1.7e43c880070c8p+996"),
        "fnbn_cov_prefactor": ("0x1.20dd750429b6dp-1", "0x1.af56f0cf50c6ep+995"),
    }

    @pytest.mark.parametrize("k,lam", [(0, 1.0), (1, 1e150)])
    def test_finite_values_unchanged(self, k, lam):
        half = FppParams(0.5, lam)
        noise = NoiseParams(half, 1.0)
        fn2 = FnbpParams(FppParams(0.5, lam), GammaParams(2.0, 1.0))
        fn1 = FnbpParams(FppParams(0.5, lam), GammaParams(1.0, 1.0))
        values = {
            "fpp_mean": fpp_mean(half, 4.0),
            "fpp_variance": fpp_variance(half, 1.0),
            "fpp_covariance": fpp_covariance(half, 1.0, 10.0),
            "factorial_moment": fpp_increment_factorial_moment(half, 1.0, 3.0),
            "fpn_covariance": fpn_covariance(noise, 1.0, 10.0),
            "fpn_covariance_asymptotic": fpn_covariance_asymptotic(noise, 2.0, 10.0).prefactor,
            "fpn_variance": fpn_variance(noise, 2.0),
            "delta_10": delta_statistic(half, 2, 10),
            "delta_1000": delta_statistic(half, 2, 1000),
            "fnbp_mean": fnbp_mean(fn2, 3.0),
            "fnbp_variance": fnbp_variance(fn2, 3.0),
            "fnbp_covariance": fnbp_covariance(fn1, 1.0, 50.0),
            "fnbn_cov_prefactor": fnbn_asymptotics(NoiseParams(fn1, 1.0), 1.0,
                                                   100.0).cov.prefactor,
        }
        assert {name: float(v).hex() for name, v in values.items()} == {
            name: pair[k] for name, pair in self.UNCHANGED.items()}


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


# ---------------------------------------------------------------------------
# Correlations over a t grid: one vectorized call, the bits of a loop
# ---------------------------------------------------------------------------

def _fpn_variance_loop(noise, t):
    """fpn_variance at one Python float t, as it was before it took arrays."""
    params = noise.fpp
    gap = params.q * power_gap(t, noise.delta, params.beta)
    return fpp_increment_factorial_moment(params, t, t + noise.delta) + gap - gap * gap


def _fpn_correlation_loop(noise, s, t):
    """fpn_correlation at one t, as it was before it took arrays."""
    if noise.fpp.beta == 1.0:
        return 0.0
    num = fpn_covariance_asymptotic(noise, s, t).value
    return num / math.sqrt(_fpn_variance_loop(noise, s) * _fpn_variance_loop(noise, t))


def _fnbp_correlation_loop(params, s, t, cfg):
    """fnbp_correlation at one t with its own scalar quadrature, as it was
    before the quadratures of a grid were batched."""
    if s == t:
        return 1.0
    lo, hi = min(s, t), max(s, t)
    b, q, q2 = params.fpp.beta, params.fpp.q, params.fpp.q2
    m1s, m2s = params.clock_moment(b, lo), params.clock_moment(2.0 * b, lo)
    m1t, m2t = params.clock_moment(b, hi), params.clock_moment(2.0 * b, hi)
    p1, p2 = params.gamma.p * lo, params.gamma.p * (hi - lo)
    betaincc = specfun._special().betaincc
    eb = adaptive_quad(lambda v: v ** (b - 1.0) * (1.0 - v) ** b * betaincc(p1, p2, v),
                       0.0, 1.0, cfg)
    cov = q * m1s + params.fpp.d * m2s - q2 * m1s * m1t + q2 * b * m2t * eb
    return cov / math.sqrt(fnbp_variance(params, s) * fnbp_variance(params, t))


def _loop(point, t):
    """[point(ti) for ti in t], or the str of the first error it raises."""
    try:
        return np.array([point(float(ti)) for ti in t]).tobytes()
    except (ConvergenceError, DomainError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _curve(*args, **kwargs):
    try:
        return analytic_curve(*args, **kwargs).corr.tobytes()
    except (ConvergenceError, DomainError, NumericalError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestCurvesOverGrid:
    """analytic_curve evaluates the fpn and fnbp curves (and the fpp) in one
    vectorized call over the grid; every value keeps the bits of the per-t
    loop, and an error is the loop's first."""

    BETAS = [0.05, 0.3, 0.5, 0.9, 0.99, 1.0]
    GEOM = np.geomspace(100.0, 1e6, 25)
    # t == s and points below s, at s = 1 and s = 2.5
    MIXED = np.array([0.01, 0.3, 1.0, 1.7, 2.5, 10.0, 1e3, 1e5])

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
    @pytest.mark.parametrize("beta", BETAS)
    def test_fnbp_bitwise_equal_to_loop(self, beta, rel_tol):
        cfg = replace(COV_QUAD, rel_tol=rel_tol)
        for gamma in (GammaParams(1.0, 1.0), GammaParams(2.0, 0.5)):
            fn = FnbpParams(FppParams(beta, 1.0), gamma)
            for s, t in ((1.0, self.GEOM), (1.0, self.MIXED), (2.5, self.MIXED)):
                want = _loop(lambda ti: _fnbp_correlation_loop(fn, s, ti, cfg), t)
                assert isinstance(want, bytes)
                assert _curve("fnbp", fn, s, t, cfg=cfg) == want
                assert _loop(lambda ti: fnbp_correlation(fn, s, ti, cfg), t) == want
                assert fnbp_correlation(fn, s, t, cfg).tobytes() == want

    @pytest.mark.parametrize("beta", BETAS)
    def test_fpn_bitwise_equal_to_loop(self, beta):
        for lam, s, delta in ((1.0, 1.0, 1.0), (0.3, 2.5, 0.4), (1e70, 1.0, 1.0)):
            noise = NoiseParams(FppParams(beta, lam), delta)
            for t in (self.GEOM, self.MIXED[self.MIXED > s + delta]):
                want = _loop(lambda ti: _fpn_correlation_loop(noise, s, ti), t)
                assert isinstance(want, bytes)
                assert _curve("fpn", noise.fpp, s, t, delta=delta) == want
                assert _loop(lambda ti: fpn_correlation(noise, s, ti), t) == want
            # t == s and points below s overlap the window at s
            want = _loop(lambda ti: _fpn_correlation_loop(noise, s, ti), self.MIXED)
            assert _curve("fpn", noise.fpp, s, self.MIXED, delta=delta) == want
            if beta < 1.0:
                assert want.startswith("DomainError: need t > s + delta")

    @pytest.mark.parametrize("beta", BETAS)
    def test_fpn_variance_vectorized(self, beta):
        noise = NoiseParams(FppParams(beta, 1.0), 1.0)
        t = np.concatenate(([0.0], self.MIXED, self.GEOM))
        assert fpn_variance(noise, t).tobytes() == _loop(
            lambda ti: _fpn_variance_loop(noise, ti), t)
        assert type(fpn_variance(noise, 2.0)) is float
        with pytest.raises(DomainError, match="t must be >= 0, got -2.0"):
            fpn_variance(noise, np.array([1.0, -2.0, math.nan]))

    def test_fpp_bitwise_equal_to_loop(self):
        for beta in self.BETAS:
            p = FppParams(beta, 1.0)
            for t in (self.GEOM, self.MIXED):
                want = _loop(lambda ti: fpp_covariance(p, 1.0, ti) / math.sqrt(
                    fpp_variance(p, 1.0) * fpp_variance(p, ti)), t)
                assert _curve("fpp", p, 1.0, t) == want
                assert _loop(lambda ti: fpp_correlation(p, 1.0, ti), t) == want

    def test_non_converging_point_raises_like_the_loop(self):
        # at p = 1e6 the quadrature of every t >= 1e4 stops at max_depth
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1e6))
        t = np.array([2.0, 10.0, 1e3, 1e4, 1e5])
        want = _loop(lambda ti: _fnbp_correlation_loop(fn, 1.0, ti, COV_QUAD), t)
        assert want.startswith("ConvergenceError") and "6.25489e-13" in want
        assert _curve("fnbp", fn, 1.0, t) == want
        assert _curve("fnbp", fn, 1.0, t[:3]) == _loop(
            lambda ti: _fnbp_correlation_loop(fn, 1.0, ti, COV_QUAD), t[:3])

    def test_nan_point_raises_like_the_loop(self, monkeypatch):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        special = specfun._special()

        class NanAtTen:
            """scipy.special, with a survival function that is NaN for t = 10."""
            def __getattr__(self, name):
                return getattr(special, name)

            @staticmethod
            def betaincc(a, b, x):
                return np.where(np.asarray(b) == 9.0, math.nan, special.betaincc(a, b, x))

        monkeypatch.setattr(specfun, "_SPECIAL", NanAtTen())
        t = np.array([2.0, 5.0, 10.0, 20.0])
        want = _loop(lambda ti: _fnbp_correlation_loop(fn, 1.0, ti, COV_QUAD), t)
        assert want.startswith("ConvergenceError") and "last increment nan" in want
        assert _curve("fnbp", fn, 1.0, t) == want

    @pytest.mark.parametrize("cap", [1, 10 ** 9])
    def test_block_cap_changes_no_value(self, monkeypatch, cap):
        fn = FnbpParams(FppParams(0.3, 1.0), GammaParams(1.0, 1.0))
        want = _curve("fnbp", fn, 1.0, self.GEOM)
        monkeypatch.setattr(specfun, "_BLOCK_VALUES", cap)
        assert _curve("fnbp", fn, 1.0, self.GEOM) == want


class TestCorrelationOverflow:
    """A variance product that is not a positive finite float64 raises
    NumericalError; its square root would make the correlation read 0."""

    FPP = FppParams(0.5, 1e150)  # q^2 and the variances finite, their product not

    def curves(self):
        fn = FnbpParams(self.FPP, GammaParams(1.0, 1.0))
        return {"fpp": lambda t: fpp_correlation(self.FPP, 1.0, t),
                "fpn": lambda t: fpn_correlation(NoiseParams(self.FPP, 1.0), 1.0, t),
                "fnbp": lambda t: fnbp_correlation(fn, 1.0, t)}

    @pytest.mark.parametrize("kind", ["fpp", "fpn", "fnbp"])
    def test_overflowing_product_raises(self, kind):
        corr = self.curves()[kind]
        for t in (10.0, np.array([10.0, 100.0])):
            with pytest.raises(NumericalError,
                               match=r"Var\(s\) Var\(t\) overflows float64 at s=1.0, t=10.0"):
                corr(t)

    @pytest.mark.parametrize("kind", ["fpp", "fpn", "fnbp"])
    def test_curve_raises(self, kind):
        params = self.FPP if kind != "fnbp" else FnbpParams(self.FPP, GammaParams(1.0, 1.0))
        with pytest.raises(NumericalError, match="overflows float64 at s=1.0, t=10.0"):
            analytic_curve(kind, params, 1.0, [10.0, 100.0],
                           delta=1.0 if kind == "fpn" else None)

    def test_zero_variance_raises(self):
        # N(0) = 0 has no variance, and at lambda = 1e-200 the product underflows
        with pytest.raises(NumericalError, match="Var\\(s\\) Var\\(t\\) is 0.0 at s=0.0"):
            fpp_correlation(FppParams(0.5, 1.0), 0.0, np.array([1.0, 2.0]))
        with pytest.raises(NumericalError, match="is 0.0 at s=1.0, t=0.0"):
            fpp_correlation(FppParams(0.5, 1.0), 1.0, np.array([2.0, 0.0]))
        with pytest.raises(NumericalError, match="is 0.0 at s=1.0, t=10.0"):
            fnbp_correlation(FnbpParams(FppParams(0.5, 1e-200), GammaParams(1.0, 1.0)),
                             1.0, 10.0)

    def test_scalar_type(self):
        one = FppParams(0.5, 1.0)
        assert type(fpp_correlation(one, 1.0, 10.0)) is float
        assert type(fpn_correlation(NoiseParams(one, 1.0), 1.0, 10.0)) is float
        assert type(fnbp_correlation(FnbpParams(one, GammaParams(1.0, 1.0)), 1.0, 10.0)) \
            is float
