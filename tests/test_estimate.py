"""Monte Carlo estimation, fitting and classification tests."""

import math

import numpy as np
import pytest

from fracdep.analytic import FnbpParams, FppParams, GammaParams, delta_statistic
from fracdep.errors import DomainError, NumericalError
from fracdep.estimate import (CorrelationCurve, _bootstrap_counts, _weighted_block_ratios,
                              _weighted_corr, analytic_curve, default_fit_cutoff,
                              delta_empirical, fit_power_law, mc_correlation,
                              mc_marginal_moments)
from fracdep.sim import PathSpec, Seed, sample_process_path


def geom_grid(lo=100.0, hi=1e6, n=25):
    return np.geomspace(lo, hi, n)


class TestFitPowerLaw:
    def test_recovers_exact_power_law(self):
        t = geom_grid()
        curve = CorrelationCurve(s=1.0, delta=None, t=t, corr=2.0 * t ** -0.7,
                                 std_error=None, source="ANALYTIC")
        fit = fit_power_law(curve, t_min_cutoff=0.0)
        assert fit.d_hat == pytest.approx(0.7, abs=1e-12)
        assert fit.c_hat == pytest.approx(2.0, rel=1e-12, abs=0)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.label == "LRD"
        assert fit.n_points == 25

    def test_cutoff_filters_points(self):
        t = geom_grid()
        curve = CorrelationCurve(s=1.0, delta=None, t=t, corr=t ** -1.5,
                                 std_error=None, source="ANALYTIC")
        fit = fit_power_law(curve, t_min_cutoff=1e4)
        assert fit.n_points == int(np.sum(t >= 1e4))
        assert fit.label == "SRD"

    def test_insufficient_points(self):
        t = np.array([10.0, 20.0, 40.0, 80.0])
        curve = CorrelationCurve(s=1.0, delta=None, t=t, corr=t ** -0.5,
                                 std_error=None, source="ANALYTIC")
        with pytest.raises(DomainError):
            fit_power_law(curve, t_min_cutoff=0.0)

    def test_floor_discards_noise(self):
        t = geom_grid()
        corr = np.where(t < 1e5, t ** -0.5, 1e-14)
        curve = CorrelationCurve(s=1.0, delta=None, t=t, corr=corr,
                                 std_error=None, source="ANALYTIC")
        fit = fit_power_law(curve, t_min_cutoff=0.0)
        assert fit.d_hat == pytest.approx(0.5, abs=1e-10)

    def test_all_below_floor(self):
        t = geom_grid(n=8)
        curve = CorrelationCurve(s=1.0, delta=None, t=t,
                                 corr=np.full(8, 1e-15),
                                 std_error=None, source="ANALYTIC")
        with pytest.raises(DomainError):
            fit_power_law(curve, t_min_cutoff=0.0)

    def test_empirical_floor_uses_std_error(self):
        t = geom_grid(n=10)
        corr = t ** -0.5
        se = np.where(t > 1e5, corr, 1e-6)  # last points drown in noise
        curve = CorrelationCurve(s=1.0, delta=None, t=t, corr=corr,
                                 std_error=se, source="EMPIRICAL")
        fit = fit_power_law(curve, t_min_cutoff=0.0)
        assert fit.n_points == int(np.sum(t <= 1e5))

    def test_default_cutoff_policy(self):
        assert default_fit_cutoff(1.0, None) == 100.0
        assert default_fit_cutoff(1.0, 2.5) == 250.0


class TestAnalyticCurves:
    def test_fpn_decay_exponents(self):
        t = geom_grid()
        fit2 = fit_power_law(analytic_curve("fpn", FppParams(0.2, 1.0), 1.0, t,
                                            delta=1.0))
        assert 1.75 <= fit2.d_hat <= 1.85
        assert fit2.label == "SRD"
        fit3 = fit_power_law(analytic_curve("fpn", FppParams(0.3, 1.0), 1.0, t,
                                            delta=1.0))
        assert 1.90 <= fit3.d_hat <= 2.0

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_fnbp_decay_exponents(self, beta):
        fn = FnbpParams(FppParams(beta, 1.0), GammaParams(1.0, 1.0))
        fit = fit_power_law(analytic_curve("fnbp", fn, 1.0, geom_grid()))
        assert abs(fit.d_hat - beta) <= 0.05
        assert fit.label == "LRD"

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_fnbn_decay_exponents(self, beta):
        fn = FnbpParams(FppParams(beta, 1.0), GammaParams(1.0, 1.0))
        fit = fit_power_law(analytic_curve("fnbn", fn, 1.0, geom_grid(), delta=1.0))
        assert abs(fit.d_hat - (3.0 - beta) / 2.0) <= 0.05
        assert fit.label == "SRD"

    def test_fpp_is_long_range(self):
        fit = fit_power_law(analytic_curve("fpp", FppParams(0.5, 1.0), 1.0,
                                           geom_grid()))
        assert abs(fit.d_hat - 0.5) <= 0.05
        assert fit.label == "LRD"

    def test_monotone_decreasing_magnitude(self):
        curve = analytic_curve("fpn", FppParams(0.2, 1.0), 1.0, geom_grid(),
                               delta=1.0)
        assert np.all(np.diff(np.abs(curve.corr)) < 0.0)


class TestMcCorrelation:
    def test_poisson_disjoint_increments(self):
        spec = PathSpec("poisson", FppParams(1.0, 1.0), np.array([10.0]))
        curve = mc_correlation(spec, 1.0, np.array([10.0]), reps=4000,
                               seed=Seed(1), delta=1.0)
        assert abs(curve.corr[0]) <= 3.0 * curve.std_error[0]

    def test_fpp_matches_analytic(self):
        p = FppParams(0.5, 1.0)
        t = np.array([5.0, 10.0])
        step = 11.0 ** 0.5 / math.gamma(1.5) / 800
        spec = PathSpec("fpp", p, t, stable_step=step)
        curve = mc_correlation(spec, 1.0, t, reps=10000, seed=Seed(42))
        truth = analytic_curve("fpp", p, 1.0, t).corr
        for k in range(len(t)):
            assert abs(curve.corr[k] - truth[k]) <= 3.0 * curve.std_error[k]

    def test_fnbp_matches_analytic(self):
        fn = FnbpParams(FppParams(0.5, 1.0), GammaParams(1.0, 1.0))
        t = np.array([5.0, 10.0])
        spec = PathSpec("fnbp", fn, t,
                        stable_step=12.0 ** 0.5 / math.gamma(1.5) / 600)
        curve = mc_correlation(spec, 1.0, t, reps=8000, seed=Seed(11))
        truth = analytic_curve("fnbp", fn, 1.0, t).corr
        for k in range(len(t)):
            assert abs(curve.corr[k] - truth[k]) <= 3.0 * curve.std_error[k]

    def test_fpn_increments_match_exact_ratio(self):
        # the empirical increment correlation estimates the exact
        # covariance-over-variances ratio (not the large-t model curve)
        from fracdep.analytic import NoiseParams, fpn_covariance, fpn_variance
        p = FppParams(0.5, 1.0)
        noise = NoiseParams(p, 1.0)
        t = np.array([5.0, 10.0])
        spec = PathSpec("fpp", p, t, stable_step=11.0 ** 0.5 / math.gamma(1.5) / 700)
        curve = mc_correlation(spec, 1.0, t, reps=20000, seed=Seed(8), delta=1.0)
        for k, tk in enumerate(t):
            truth = fpn_covariance(noise, 1.0, tk) / math.sqrt(
                fpn_variance(noise, 1.0) * fpn_variance(noise, tk))
            assert abs(curve.corr[k] - truth) <= 3.0 * curve.std_error[k]

    def test_gamma_matches_sqrt_ratio(self):
        # independent increments give Corr[Y(s), Y(t)] = sqrt(s/t)
        spec = PathSpec("gamma", GammaParams(2.0, 1.0), np.array([4.0, 9.0]))
        curve = mc_correlation(spec, 1.0, np.array([4.0, 9.0]), reps=10000,
                               seed=Seed(23))
        for k, tk in enumerate((4.0, 9.0)):
            assert abs(curve.corr[k] - math.sqrt(1.0 / tk)) \
                <= 3.0 * curve.std_error[k]

    def test_thread_invariance(self):
        p = FppParams(0.5, 1.0)
        spec = PathSpec("fpp", p, np.array([5.0]),
                        stable_step=6.0 ** 0.5 / math.gamma(1.5) / 200)
        a = mc_correlation(spec, 1.0, np.array([5.0]), reps=600, seed=Seed(3),
                           threads=1)
        b = mc_correlation(spec, 1.0, np.array([5.0]), reps=600, seed=Seed(3),
                           threads=8)
        assert np.array_equal(a.corr, b.corr)
        assert np.array_equal(a.std_error, b.std_error)
        # every estimator, at reps >= 256 so that two threads really run
        fn = FnbpParams(FppParams(0.6, 1.0), GammaParams(1.0, 1.0))
        fnbp = PathSpec("fnbp", fn, np.array([1.0, 2.0, 3.0]), stable_step=0.05)
        runs = {}
        for threads in (1, 2):
            inc = mc_correlation(spec, 1.0, np.array([3.0, 5.0]), reps=300, seed=Seed(4),
                                 delta=1.0, threads=threads)
            means, variances = mc_marginal_moments(fnbp, 300, Seed(5), threads=threads)
            table = delta_empirical(p, 2, [1, 3], 1000, Seed(6), threads=threads,
                                    stable_step=0.05)
            runs[threads] = (inc.corr, inc.std_error, table.value, table.std_error,
                             [(e.value, e.std_error) for e in means + variances])
        for one, two in zip(runs[1], runs[2]):
            assert np.array_equal(one, two)

    def test_validation(self):
        spec = PathSpec("poisson", FppParams(1.0, 1.0), np.array([10.0]))
        with pytest.raises(DomainError):
            mc_correlation(spec, 1.0, np.array([10.0]), reps=50, seed=Seed(1))
        with pytest.raises(DomainError):
            mc_correlation(spec, 20.0, np.array([10.0]), reps=200, seed=Seed(1))

    def test_degenerate_variance(self):
        spec = PathSpec("poisson", FppParams(1.0, 1e-9), np.array([10.0]))
        with pytest.raises(NumericalError):
            mc_correlation(spec, 1e-6, np.array([10.0]), reps=200, seed=Seed(1))
        # beta = 0.1: an event in [1e6, 1e6 + 1] has probability ~4e-7, so the
        # increments at t are all zero while those at s vary
        spec = PathSpec("fpp", FppParams(0.1, 1.0), np.array([1e6]))
        with pytest.raises(NumericalError, match=r"X\(t=1000000\.0\)"):
            mc_correlation(spec, 1.0, np.array([1e6]), reps=100, seed=Seed(3), delta=1.0)


def corr_columns(xs, xt):
    """Pearson correlation of xs against every column of xt: the estimator
    mc_correlation used before its bootstrap was count-weighted, verbatim."""
    xs_c = xs - xs.mean()
    xt_c = xt - xt.mean(axis=0)
    num = xs_c @ xt_c
    den = math.sqrt(float(xs_c @ xs_c)) * np.sqrt(np.sum(xt_c * xt_c, axis=0))
    with np.errstate(invalid="ignore", divide="ignore"):
        return num / den


def loop_bootstrap(xs, xt, seed, bootstrap=200):
    """Reference: one corr_columns call per resample of the replications."""
    reps = len(xs)
    boot_rng = seed.rng(0xB007)
    boot = np.empty((bootstrap, xt.shape[1]))
    for b in range(bootstrap):
        idx = boot_rng.integers(0, reps, reps)
        boot[b] = corr_columns(xs[idx], xt[idx])
    return boot


class TestCountWeightedCorrelation:
    CASES = [
        # integer counts (FPN increments), real-valued (gamma), and the FNBP
        ("fpp", FppParams(0.5, 1.0), 1.0, 0.05),
        ("gamma", GammaParams(2.0, 1.5), None, None),
        ("fnbp", FnbpParams(FppParams(0.6, 1.0), GammaParams(1.0, 1.0)), None, 0.05),
    ]

    @pytest.mark.parametrize("process,params,delta,step", CASES)
    def test_mc_correlation_matches_loop_bootstrap(self, process, params, delta, step):
        s, t, reps, seed = 1.0, np.array([3.0, 6.0]), 300, Seed(71)
        curve = mc_correlation(PathSpec(process, params, t, stable_step=step), s, t,
                               reps, seed, delta=delta)
        left = np.concatenate(([s], t))
        grid = np.unique(left if delta is None else np.concatenate((left, left + delta)))
        spec = PathSpec(process, params, grid, stable_step=step)
        vals = np.array([sample_process_path(spec, seed.child(i)).values
                         for i in range(reps)])
        x = vals[:, np.searchsorted(grid, left)]
        if delta is not None:
            x = vals[:, np.searchsorted(grid, left + delta)] - x
        assert curve.corr == pytest.approx(corr_columns(x[:, 0], x[:, 1:]),
                                           rel=1e-12, abs=0)
        boot = loop_bootstrap(x[:, 0], x[:, 1:], seed)
        assert curve.std_error == pytest.approx(np.nanstd(boot, axis=0, ddof=1),
                                                rel=1e-12, abs=0)

    def test_sparse_column_resamples_are_nan_and_dropped(self):
        # FPN-like: the last column has an event in 2 of 200 replications,
        # so about e^-2 of the resamples see none and have no variance there
        rng = np.random.default_rng(5)
        reps, seed = 200, Seed(72)
        xs = rng.poisson(1.0, reps).astype(float)
        xt = np.column_stack((xs + rng.poisson(2.0, reps), np.zeros(reps)))
        xt[[int(np.argmax(xs)), 7], 1] = 1.0
        x = np.column_stack((xs, xt))
        weighted = _weighted_corr(_bootstrap_counts(seed, reps, 200), x)
        boot = loop_bootstrap(xs, xt, seed)
        empty = np.isnan(boot[:, 1])
        assert 5 <= np.sum(empty) <= 60
        assert np.array_equal(np.isnan(weighted), np.isnan(boot))
        assert weighted[~empty] == pytest.approx(boot[~empty], rel=1e-12, abs=0)
        se = np.nanstd(weighted, axis=0, ddof=1)
        assert se[1] == pytest.approx(np.std(boot[~empty, 1], ddof=1), rel=1e-12, abs=0)
        assert se == pytest.approx(np.nanstd(boot, axis=0, ddof=1), rel=1e-12, abs=0)
        point = _weighted_corr(np.ones((1, reps)), x)[0]
        assert point == pytest.approx(corr_columns(xs, xt), rel=1e-12, abs=0)


class TestMcMarginalMoments:
    def test_poisson_moments(self):
        spec = PathSpec("poisson", FppParams(1.0, 2.0), np.array([1.0, 3.0]))
        means, variances = mc_marginal_moments(spec, reps=30000, seed=Seed(9))
        for t, m, v in zip(spec.t_grid, means, variances):
            assert abs(m.value - 2.0 * t) <= 3.0 * m.std_error
            assert abs(v.value - 2.0 * t) <= 3.0 * v.std_error

    def test_std_error_halves_when_reps_quadruple(self):
        spec = PathSpec("gamma", GammaParams(1.0, 1.0), np.array([2.0]))
        m1, _ = mc_marginal_moments(spec, reps=2000, seed=Seed(5))
        m2, _ = mc_marginal_moments(spec, reps=8000, seed=Seed(5))
        assert m2[0].std_error / m1[0].std_error == pytest.approx(0.5, rel=0.25, abs=0)


class TestStdErrorScaling:
    def test_doubling_reps_halves_bootstrap_se(self):
        # sqrt(2) shrink per doubling, within 30 percent, median of 5 trials
        spec = PathSpec("poisson", FppParams(1.0, 1.0), np.array([4.0]))
        ratios = []
        for trial in range(5):
            a = mc_correlation(spec, 1.0, np.array([4.0]), reps=800,
                               seed=Seed(100 + trial))
            b = mc_correlation(spec, 1.0, np.array([4.0]), reps=1600,
                               seed=Seed(200 + trial))
            ratios.append(b.std_error[0] / a.std_error[0])
        med = float(np.median(ratios))
        assert abs(med - 1.0 / math.sqrt(2.0)) <= 0.3 * 1.0 / math.sqrt(2.0)


class TestDeltaEmpirical:
    def test_poisson_ratio_is_one(self):
        table = delta_empirical(FppParams(1.0, 1.0), 2, [10, 50], reps=2000,
                                seed=Seed(77))
        for val, se in zip(table.value, table.std_error):
            assert abs(val - 1.0) <= 3.0 * se

    def test_matches_analytic(self):
        p = FppParams(0.5, 1.0)
        step = 200.0 ** 0.5 / math.gamma(1.5) / 1500
        table = delta_empirical(p, 2, [10, 100], reps=2000, seed=Seed(13),
                                stable_step=step)
        for m, val, se in zip(table.m, table.value, table.std_error):
            truth = delta_statistic(p, 2, int(m))
            assert abs(val - truth) <= 3.0 * se + 0.02 * truth

    def test_growth_confirmed_at_m1000(self):
        # the analytic ratio at m=1000 is ~14; simulation agrees and both
        # sit far above the claimed finite limit bound of <= 1
        p = FppParams(0.5, 1.0)
        step = 2000.0 ** 0.5 / math.gamma(1.5) / 2000
        table = delta_empirical(p, 2, [1000], reps=1000, seed=Seed(29),
                                stable_step=step)
        truth = delta_statistic(p, 2, 1000)
        assert abs(table.value[0] - truth) <= 3.0 * table.std_error[0] + 0.03 * truth
        assert table.value[0] > 5.0

    def test_validation(self):
        with pytest.raises(DomainError):
            delta_empirical(FppParams(0.5, 1.0), 2, [10], reps=100, seed=Seed(1))


def loop_ratios(unit_incs, n, m_arr):
    """Reference: Delta per m from the sample variances of a resampled matrix."""
    out = np.empty(len(m_arr))
    for k, m in enumerate(m_arr):
        lo, hi = (n - 1) * m, n * m
        window = unit_incs[:, lo:hi]
        num = float(np.var(window.sum(axis=1), ddof=1))
        den = float(np.sum(np.var(window, axis=0, ddof=1)))
        out[k] = num / den if den > 0 else math.nan
    return out


class TestCountWeightedBootstrap:
    def test_delta_empirical_matches_loop_bootstrap(self):
        p, n, m_arr, reps = FppParams(0.5, 1.0), 2, np.array([3, 7]), 1000
        grid = np.arange(1.0, n * m_arr.max() + 1.0)
        spec = PathSpec("fpp", p, grid, stable_step=0.05)
        seed = Seed(61)
        table = delta_empirical(p, n, list(m_arr), reps, seed, stable_step=0.05)
        incs = np.array([np.diff(sample_process_path(spec, seed.child(i)).values,
                                 prepend=0.0) for i in range(reps)])
        boot_rng = seed.rng(0xB007)
        boot = np.array([loop_ratios(incs[boot_rng.integers(0, reps, reps)], n, m_arr)
                         for _ in range(200)])
        assert table.value == pytest.approx(loop_ratios(incs, n, m_arr), rel=1e-12, abs=0)
        assert table.std_error == pytest.approx(np.nanstd(boot, axis=0, ddof=1),
                                                rel=1e-12, abs=0)

    def test_zero_variance_resample_is_nan_and_dropped(self):
        rng = np.random.default_rng(8)
        n, m_arr, reps = 2, np.array([4, 6]), 50
        incs = rng.poisson(0.7, size=(reps, n * m_arr.max())).astype(float)
        idx = [rng.integers(0, reps, reps) for _ in range(5)]
        idx.append(np.full(reps, 3))  # one replication: no variance anywhere
        counts = np.array([np.bincount(i, minlength=reps) for i in idx], dtype=float)
        weighted = _weighted_block_ratios(counts, incs, n, m_arr)
        loop = np.array([loop_ratios(incs[i], n, m_arr) for i in idx])
        assert np.all(np.isnan(weighted[-1])) and np.all(np.isnan(loop[-1]))
        assert weighted[:-1] == pytest.approx(loop[:-1], rel=1e-12, abs=0)
        kept = np.nanstd(loop, axis=0, ddof=1)
        assert kept == pytest.approx(np.std(loop[:-1], axis=0, ddof=1), rel=1e-15, abs=0)
        assert np.nanstd(weighted, axis=0, ddof=1) == pytest.approx(kept, rel=1e-12, abs=0)


class TestNbCovarianceOracle:
    def test_two_level_monte_carlo(self):
        # beta = 1: the gamma-mixed process is plain negative binomial in t;
        # the quadrature covariance must match a direct two-level simulation
        fn = FnbpParams(FppParams(1.0, 1.0), GammaParams(1.0, 1.0))
        s, t = 2.0, 5.0
        R = 1_000_000
        rng = Seed(314).rng()
        ys = rng.gamma(shape=s, scale=1.0, size=R)
        yt = ys + rng.gamma(shape=t - s, scale=1.0, size=R)
        qs = rng.poisson(ys)
        qt = qs + rng.poisson(yt - ys)
        prods = (qs - qs.mean()) * (qt - qt.mean())
        emp = float(np.cov(qs, qt, ddof=1)[0, 1])
        se = prods.std(ddof=1) / math.sqrt(R)
        from fracdep.analytic import fnbp_covariance
        assert abs(emp - fnbp_covariance(fn, s, t)) <= 3.0 * se
