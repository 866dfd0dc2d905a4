"""Special-function and quadrature tests.

Golden values were generated once with mpmath at 40 significant digits and
are frozen here; the quadrature cross-checks run live against the
closed-form implementations.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdep import specfun
from fracdep.errors import ConvergenceError, DomainError
from fracdep.specfun import (QuadConfig, adaptive_quad, beta_fn,
                             gamma_frac_moment, inc_beta, power_diff, power_gap)

# mpmath: mp.betainc(0.5, 1.5, 0, 0.3)
INC_BETA_05_15_03 = 1.0378973098592882836


class TestBetaFn:
    def test_known_values(self):
        assert beta_fn(1, 1) == pytest.approx(1.0, rel=1e-15, abs=0)
        assert beta_fn(1, 2) == pytest.approx(0.5, rel=1e-15, abs=0)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14, abs=0)

    def test_symmetry(self):
        assert beta_fn(0.3, 1.7) == pytest.approx(beta_fn(1.7, 0.3), rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_fn(0.0, 1.0)


class TestIncBeta:
    def test_empty_integral(self):
        assert inc_beta(0.4, 1.4, 0.0) == 0.0

    def test_full_integral_equals_beta(self):
        assert inc_beta(0.5, 1.5, 1.0) == pytest.approx(math.pi / 2, rel=1e-13, abs=0)
        for a, b in [(0.3, 0.9), (2.5, 3.5), (1.0, 2.0)]:
            assert inc_beta(a, b, 1.0) == pytest.approx(beta_fn(a, b), rel=1e-13, abs=0)

    def test_polynomial_case(self):
        # B(1,2;x) = x - x^2/2
        assert inc_beta(1.0, 2.0, 0.5) == pytest.approx(0.375, rel=1e-14, abs=0)

    def test_golden(self):
        assert inc_beta(0.5, 1.5, 0.3) == pytest.approx(INC_BETA_05_15_03, rel=1e-12, abs=0)

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x(self, a, b, x1, x2):
        lo, hi = min(x1, x2), max(x1, x2)
        assert inc_beta(a, b, lo) <= inc_beta(a, b, hi) + 1e-15

    def test_head_plus_tail_is_complete(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b = rng.uniform(0.1, 3.0, 2)
            x = rng.uniform(0.0, 1.0)
            # tail evaluated by quadrature on the reflected variable
            tail = adaptive_quad(lambda w: (1 - w) ** (a - 1) * w ** (b - 1),
                                 0.0, 1.0 - x) if x < 1.0 else 0.0
            assert inc_beta(a, b, x) + tail == pytest.approx(beta_fn(a, b), rel=1e-10, abs=0)

    def test_tail_matches_difference(self):
        # the reflection B(b, a; y) = B(a, b) - B(a, b; 1 - y) gives the upper
        # tail without cancellation (the FPP factorial moment relies on it)
        a, b, y = 0.5, 1.5, 1e-3
        assert inc_beta(b, a, y) == pytest.approx(
            beta_fn(a, b) - inc_beta(a, b, 1.0 - y), rel=1e-9, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            inc_beta(0.5, 1.5, 1.5)
        with pytest.raises(DomainError):
            inc_beta(-0.5, 1.5, 0.5)


class TestAdaptiveQuad:
    def test_linear(self):
        assert adaptive_quad(lambda u: u, 0, 1) == pytest.approx(0.5, rel=1e-12, abs=0)

    def test_integrable_singularity(self):
        assert adaptive_quad(lambda u: u ** -0.5, 0, 1) == pytest.approx(
            2.0, rel=1e-12, abs=0)

    def test_strong_singularity(self):
        assert adaptive_quad(lambda u: u ** -0.9, 0, 1) == pytest.approx(
            10.0, rel=1e-10, abs=0)

    def test_cross_oracle_against_inc_beta(self):
        val = adaptive_quad(lambda u: u ** -0.5 * (1 - u) ** 0.5, 0, 0.3)
        assert val == pytest.approx(inc_beta(0.5, 1.5, 0.3), rel=1e-10, abs=0)

    def test_smooth(self):
        assert adaptive_quad(np.sin, 0, math.pi) == pytest.approx(2.0, rel=1e-12, abs=0)

    def test_nonintegrable_raises(self):
        with pytest.raises(ConvergenceError):
            adaptive_quad(lambda u: 1.0 / u, 0, 1)

    def test_depth_budget_raises(self):
        cfg = QuadConfig(rel_tol=1e-10, abs_tol=0.0, max_depth=2)
        with pytest.raises(ConvergenceError):
            adaptive_quad(lambda u: u ** -0.9, 0, 1, cfg)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadConfig(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadConfig(max_depth=0)
        with pytest.raises(DomainError):
            adaptive_quad(lambda u: u, 1.0, 1.0)


def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _adaptive_quad_reference(f, a, b, cfg=QuadConfig()):
    """adaptive_quad as it was before its node tables were cached: every
    call recomputes sinh, cosh, exp and the sigmoids on the tau grid."""
    a = float(a)
    b = float(b)
    width = b - a
    t_max = 6.11

    def _sum(tau):
        u = 0.5 * math.pi * np.sinh(tau)
        off_lo = width * _sigmoid_reference(2.0 * u)
        off_hi = width * _sigmoid_reference(-2.0 * u)
        e = np.exp(-2.0 * np.abs(u))
        weight = 2.0 * width * e / (1.0 + e) ** 2 * 0.5 * math.pi * np.cosh(tau)
        keep = (off_lo > 0.0) & (off_hi > 0.0) & (weight > 0.0)
        if not np.any(keep):
            return 0.0
        x = np.where(u < 0, a + off_lo, b - off_hi)[keep]
        w = weight[keep]
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x), dtype=float) * w
        bad = ~np.isfinite(vals)
        if np.any(bad & (w > 1e-250)):
            return math.nan
        vals[bad] = 0.0
        return float(np.sum(vals))

    h = 1.0
    n0 = int(t_max / h)
    total = _sum(np.arange(-n0, n0 + 1) * h) * h
    prev = math.inf
    for level in range(1, cfg.max_depth + 1):
        h *= 0.5
        j_max = int(t_max / h)
        odd = np.arange(1, j_max + 1, 2)
        tau = np.concatenate((-odd[::-1], odd)) * h
        total = 0.5 * total + _sum(tau) * h
        err = abs(total - prev)
        prev = total
        if level >= 2 and math.isfinite(total) and \
                err <= max(cfg.rel_tol * abs(total), cfg.abs_tol):
            return total
    raise ConvergenceError(
        f"quadrature did not converge within max_depth={cfg.max_depth} "
        f"(last increment {err:g})")


def _outcome(quad, f, a, b, cfg):
    try:
        return quad(f, a, b, cfg)
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"


class TestCachedQuadNodes:
    """adaptive_quad reads its tanh-sinh factors from cached per-level
    tables; every result must keep the bits of the uncached rule."""

    CONFIGS = [QuadConfig(), QuadConfig(rel_tol=1e-12, abs_tol=1e-300, max_depth=14),
               QuadConfig(rel_tol=1e-6, abs_tol=0.0, max_depth=4)]
    INTEGRANDS = [
        (lambda u: u ** -0.5, 0.0, 1.0),
        (lambda u: u ** -0.9, 0.0, 1.0),
        (lambda u: np.exp(-u) * u ** -0.3, 0.0, 3.0),
        (np.sin, 0.3, 7.0),
        (lambda u: np.abs(u - 0.37) ** 0.5, -2.0, 5.0),
        (lambda r: r ** -0.7 * ((1e6 - r + 1.0) ** 0.3 - (1e6 - r) ** 0.3), 1.0, 2.0),
        (lambda u: 1.0 / u, 0.0, 1.0),  # does not converge
        (lambda u: u ** 2, 1e6, 1e6 + 1e-3),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("case", range(len(INTEGRANDS)))
    def test_bitwise_equal_to_uncached_rule(self, cfg, case):
        f, a, b = self.INTEGRANDS[case]
        want = _outcome(_adaptive_quad_reference, f, a, b, cfg)
        for _ in range(2):  # the second call reads the warm cache
            got = _outcome(adaptive_quad, f, a, b, cfg)
            if isinstance(want, str):
                assert got == want
            else:
                assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_tables_are_read_only(self):
        adaptive_quad(np.cos, 0.0, 1.0)
        for table in specfun._NODE_TABLES.values():
            for arr in table:
                assert not arr.flags.writeable


class TestGammaFracMoment:
    def test_first_two_moments(self):
        assert gamma_frac_moment(1.0, 2.0, 3.0) == pytest.approx(1.5, rel=1e-14, abs=0)
        assert gamma_frac_moment(2.0, 2.0, 3.0) == pytest.approx(
            3.0 * 4.0 / 4.0, rel=1e-14, abs=0)

    def test_half_moment(self):
        # Gamma(2.5)/Gamma(2) = 1.5*sqrt(pi)/2
        assert gamma_frac_moment(0.5, 1.0, 2.0) == pytest.approx(
            1.5 * math.sqrt(math.pi) / 2.0, rel=1e-14, abs=0)

    def test_large_shape_power_limit(self):
        pt = 1e6
        ratio = gamma_frac_moment(0.5, 2.0, pt) / (pt / 2.0) ** 0.5
        assert ratio == pytest.approx(1.0, abs=1e-4)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_frac_moment(0.5, -1.0, 2.0)


class TestPowerDiff:
    def test_unit_exponent(self):
        for x in (1.0, 2.0, 10.0, 1e7):
            assert power_diff(x, 1.0) == pytest.approx(1.0, rel=1e-14, abs=0)

    def test_at_one(self):
        assert power_diff(1.0, 0.7) == 1.0

    def test_sqrt2(self):
        assert power_diff(2.0, 0.5) == pytest.approx(math.sqrt(2) - 1, rel=1e-14, abs=0)

    def test_large_x_asymptote(self):
        x, y = 1e8, 0.3
        assert power_diff(x, y) / (y * x ** (y - 1)) == pytest.approx(1.0, abs=1e-6)

    def test_vectorized(self):
        x = np.array([1.0, 2.0, 5.0])
        out = power_diff(x, 0.5)
        assert out.shape == (3,)
        assert out[0] == 1.0

    def test_gap_matches_diff(self):
        # (u+delta)^y - u^y at u = x-1, delta = 1 equals x^y - (x-1)^y
        assert power_gap(4.0, 1.0, 0.3) == pytest.approx(
            power_diff(5.0, 0.3), rel=1e-13, abs=0)
        assert power_gap(0.0, 2.0, 0.5) == pytest.approx(math.sqrt(2), rel=1e-14, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            power_diff(0.5, 1.0)


def mean_gap(beta, s, t):
    """t^beta - s^beta for 0 <= s <= t: the FPP mean-gap helper that
    power_gap replaced, verbatim."""
    sa = np.asarray(s, dtype=float)
    ta = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            sa == 0.0,
            ta ** beta,
            sa ** beta * np.expm1(beta * np.log1p((ta - sa) / np.where(sa == 0, 1.0, sa))),
        )
    return float(out) if out.ndim == 0 else out


class TestPowerGap:
    S = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 91)))

    @pytest.mark.parametrize("beta", [0.01, 0.3, 0.5, 0.9, 1.0])
    def test_array_delta_bitwise_equal_to_mean_gap(self, beta):
        s = self.S
        wide = s + np.geomspace(1e-6, 1e8, len(s))
        for t in (s, s + 1.0, s * (1.0 + 1e-9), wide, s + s[::-1]):
            got = power_gap(s, t - s, beta)
            assert got.tobytes() == mean_gap(beta, s, t).tobytes()
        for si, ti in ((0.0, 0.0), (0.0, 2.5), (3.0, 3.0), (3.0, 4.0)):
            got = power_gap(si, ti - si, beta)
            assert type(got) is float
            assert got == mean_gap(beta, si, ti)

    def test_scalar_u_array_delta(self):
        out = power_gap(9.0, np.array([0.0, 1.0, 7.0]), 0.5)
        assert out.shape == (3,)
        assert out[0] == 0.0
        assert out[2] == pytest.approx(1.0, rel=1e-15, abs=0)

    @pytest.mark.parametrize("delta", [-1.0, -1e-300, math.nan, math.inf, -math.inf,
                                       np.array([1.0, -2.0]), np.array([1.0, math.nan])])
    def test_bad_delta_raises(self, delta):
        with pytest.raises(DomainError):
            power_gap(1.0, delta, 0.5)


class TestInequalities:
    @given(st.floats(0.01, 0.99), st.floats(0.0, 1e6), st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_subadditive_power_difference(self, beta, a, frac):
        # (a-b)^beta >= a^beta - b^beta for a >= b >= 0
        b = a * frac
        assert (a - b) ** beta >= a ** beta - b ** beta - 1e-12

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_last_window_tail_below_complete_beta(self, h):
        # int_{1-1/t}^1 (1-u)^h u^{h-1} du <= B(1+h, h), strict for t >= 2
        full = beta_fn(1.0 + h, h)
        for t in range(1, 101):
            tail = inc_beta(h, 1.0 + h, 1.0) - inc_beta(h, 1.0 + h, 1.0 - 1.0 / t)
            assert tail <= full + 1e-12
            if t >= 2:
                assert tail < full
