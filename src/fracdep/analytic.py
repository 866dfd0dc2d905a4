"""Exact and asymptotic dependence structure of fractional counting processes.

Processes covered: the fractional Poisson process (FPP) N_b(t) with
fractional index b and rate lam, its width-delta increments (FPN), the
fractional negative binomial process (FNBP) Q_b(t) = N_b(Y(t)) driven by an
independent gamma subordinator Y(t) ~ Gamma(rate alpha, shape p*t), and the
FNBP's increments (FNBN).

Derived constants (with q = lam/Gamma(1+b)):

    d   = b q^2 B(b, 1+b)
    c   = 2 b q^2 / (b+1)
    R   = (lam^2/b) (1/Gamma(2b) - 1/(b Gamma(b)^2)) = 2d - q^2
    eta = lam/(alpha+lam)
    d1  = (p/alpha)^{2b} R

All operations are pure.  The non-closed-form pieces are a 1-d
deterministic quadrature in the FNBP covariance and the FPN covariance,
and the denominator of Delta_n^(m), whose unit windows past j = 512 are
summed as a 1/j series by Euler-Maclaurin (cost independent of m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy import special as sp

from .errors import DomainError, NumericalError
from .specfun import (DEFAULT_QUAD, QuadConfig, _float_or_array, adaptive_quad,
                      beta_fn, gamma_frac_moment, inc_beta, power_diff, power_gap)

__all__ = [
    "LRD", "SRD", "UNCLASSIFIED",
    "FppParams", "GammaParams", "FnbpParams", "NoiseParams",
    "AsymptoticValue", "FnbnAsymptotics",
    "classify_exponent",
    "fpp_mean", "fpp_variance", "fpp_F", "fpp_covariance",
    "fpp_increment_factorial_moment", "fpp_increment_variance",
    "fpn_covariance", "fpn_covariance_asymptotic",
    "fpn_variance", "fpn_variance_asymptotic",
    "fpn_correlation", "fpn_theoretical_exponent",
    "delta_statistic", "delta_limit_bound",
    "nb_pmf", "fnbp_mean", "fnbp_variance", "fnbp_covariance",
    "fnbp_correlation", "fnbp_theoretical_exponent",
    "fnbn_asymptotics", "fnbn_correlation_asymptotic",
    "fnbn_theoretical_exponent", "COV_QUAD", "THEORETICAL_EXPONENTS",
]

LRD = "LRD"
SRD = "SRD"
UNCLASSIFIED = "UNCLASSIFIED"


# ---------------------------------------------------------------------------
# Parameter bundles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FppParams:
    """Fractional Poisson process: index beta in (0, 1], rate lam > 0."""

    beta: float
    lam: float

    def __post_init__(self) -> None:
        if not (0.0 < self.beta <= 1.0):
            raise DomainError(f"beta must be in (0, 1], got {self.beta}")
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise DomainError(f"lam must be > 0, got {self.lam}")

    @property
    def q(self) -> float:
        return self.lam / math.exp(sp.gammaln(1.0 + self.beta))

    @property
    def d(self) -> float:
        return self.beta * self.q ** 2 * beta_fn(self.beta, 1.0 + self.beta)

    @property
    def c(self) -> float:
        return 2.0 * self.beta * self.q ** 2 / (self.beta + 1.0)

    @property
    def R(self) -> float:
        # 1/Gamma(2) - 1/Gamma(1)^2 vanishes exactly at beta == 1
        b = self.beta
        return (self.lam ** 2 / b) * (math.exp(-sp.gammaln(2.0 * b))
                                      - math.exp(-2.0 * sp.gammaln(b)) / b)


@dataclass(frozen=True)
class GammaParams:
    """Gamma subordinator with Y(t) ~ Gamma(rate alpha, shape p*t)."""

    alpha: float
    p: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError(f"alpha must be > 0, got {self.alpha}")
        if not (self.p > 0.0 and math.isfinite(self.p)):
            raise DomainError(f"p must be > 0, got {self.p}")


@dataclass(frozen=True)
class FnbpParams:
    """FNBP Q_b(t) = N_b(Y(t)): an FPP composed with an independent gamma clock."""

    fpp: FppParams
    gamma: GammaParams

    @property
    def eta(self) -> float:
        return self.fpp.lam / (self.gamma.alpha + self.fpp.lam)

    @property
    def d1(self) -> float:
        return (self.gamma.p / self.gamma.alpha) ** (2.0 * self.fpp.beta) * self.fpp.R

    def clock_moment(self, m: float, t: float) -> float:
        """E[Y^m(t)] for the gamma clock."""
        return gamma_frac_moment(m, self.gamma.alpha, self.gamma.p * t)


@dataclass(frozen=True)
class NoiseParams:
    """Width-delta increment process of an FPP (FPN) or FNBP (FNBN)."""

    base: Union[FppParams, FnbpParams]
    delta: float

    def __post_init__(self) -> None:
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise DomainError(f"delta must be > 0, got {self.delta}")

    @property
    def fpp(self) -> FppParams:
        return self.base if isinstance(self.base, FppParams) else self.base.fpp


@dataclass(frozen=True)
class AsymptoticValue:
    """A large-t power law: value = prefactor * t^exponent at the given t."""

    value: float
    exponent: float
    prefactor: float
    validity_note: str = ""


@dataclass(frozen=True)
class FnbnAsymptotics:
    cov: AsymptoticValue
    var: AsymptoticValue
    corr_exponent: float


def classify_exponent(d: float) -> str:
    """LRD for decay exponent d in (0,1), SRD for d in (1,2), else UNCLASSIFIED."""
    if not math.isfinite(d):
        raise DomainError(f"exponent must be finite, got {d}")
    if 0.0 < d < 1.0:
        return LRD
    if 1.0 < d < 2.0:
        return SRD
    return UNCLASSIFIED


# ---------------------------------------------------------------------------
# FPP: mean, variance, covariance
# ---------------------------------------------------------------------------

def _check_time(name: str, t: float, allow_zero: bool = True) -> float:
    t = float(t)
    if not math.isfinite(t) or t < 0.0 or (t == 0.0 and not allow_zero):
        raise DomainError(f"{name} must be {'>= 0' if allow_zero else '> 0'}, got {t}")
    return t


def fpp_mean(params: FppParams, t: float) -> float:
    """E[N_b(t)] = q t^b."""
    t = _check_time("t", t)
    return params.q * t ** params.beta


def fpp_variance(params: FppParams, t: float) -> float:
    """Var[N_b(t)] = q t^b + R t^{2b}."""
    t = _check_time("t", t)
    return params.q * t ** params.beta + params.R * t ** (2.0 * params.beta)


def fpp_F(params: FppParams, s: float, t: float) -> float:
    """F(b; s, t) = b t^{2b} B(b, 1+b; s/t) - (st)^b for 0 <= s <= t."""
    s = _check_time("s", s)
    t = _check_time("t", t, allow_zero=False)
    if s > t:
        raise DomainError(f"need s <= t, got s={s}, t={t}")
    b = params.beta
    if s == 0.0:
        return 0.0
    return (b * t ** (2.0 * b) * inc_beta(b, 1.0 + b, s / t)
            - (s * t) ** b)


def fpp_covariance(params: FppParams, s: float, t: float) -> float:
    """Cov[N_b(s), N_b(t)] = q s^b + q^2 [b s^{2b} B(b,1+b) + F(b;s,t)], s <= t."""
    s = _check_time("s", s)
    t = _check_time("t", t)
    if s > t:
        s, t = t, s
    if s == 0.0:
        return 0.0
    b, q = params.beta, params.q
    return (q * s ** b
            + q * q * (b * s ** (2.0 * b) * beta_fn(b, 1.0 + b)
                       + fpp_F(params, s, t)))


def fpp_increment_factorial_moment(params: FppParams, s: float, t: float):
    """E[(N_b(t)-N_b(s))(N_b(t)-N_b(s)-1)] = 2 b q^2 int_s^t (t-r)^b r^{b-1} dr.

    Closed form 2 b q^2 t^{2b} [B(b,1+b) - B(b,1+b; s/t)], evaluated through
    the reflected tail B(1+b, b; (t-s)/t) so nearby windows (s close to t)
    do not cancel.  Vectorized in ``t``.
    """
    ta = np.asarray(t, dtype=float)
    sa = np.asarray(s, dtype=float)
    if np.any(sa < 0.0) or np.any(ta < sa):
        raise DomainError(f"need 0 <= s <= t, got s={s}, t={t}")
    b, q = params.beta, params.q
    with np.errstate(invalid="ignore", divide="ignore"):
        xc = np.where(ta > 0.0, (ta - sa) / ta, 0.0)
        out = np.where(
            ta == sa,
            0.0,
            2.0 * b * q * q * ta ** (2.0 * b) * inc_beta(1.0 + b, b, np.minimum(xc, 1.0)),
        )
    return _float_or_array(out)


def fpp_increment_variance(params: FppParams, s: float, t: float):
    """Var[N_b(t) - N_b(s)] via the factorial moment and the mean gap."""
    gap = params.q * power_gap(s, t - s, params.beta)
    fact = fpp_increment_factorial_moment(params, s, t)
    return fact + gap - gap * gap


# ---------------------------------------------------------------------------
# FPN: increments of the FPP
# ---------------------------------------------------------------------------

def fpn_covariance(noise: NoiseParams, s: float, t: float,
                   cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Exact Cov[Z(s), Z(t)] of the FPN for disjoint windows s + delta <= t.

    Identical to Cov[s+d,t+d] + Cov[s,t] - Cov[s+d,t] - Cov[s,t+d] but
    evaluated, with g(u) = (u+d)^b - u^b, as

        q^2 b int_s^{s+d} r^{b-1} (g(t-r) - g(t)) dr,

    which folds the product g(s) g(t) = b int r^{b-1} g(t) dr into the
    integrand.  Subtracting after integrating would lose ~log10(t/s)
    digits of the small large-t value (order t^{b-2}); inside the integral
    the quadrature's relative tolerance applies to the difference itself.
    """
    params = noise.fpp
    delta = noise.delta
    s = _check_time("s", s)
    t = _check_time("t", t)
    if t < s + delta:
        raise DomainError(
            f"windows overlap: need t >= s + delta, got s={s}, delta={delta}, t={t}")
    if params.beta == 1.0:
        return 0.0  # Poisson increments over disjoint windows are independent
    b, q = params.beta, params.q
    g_t = power_gap(t, delta, b)
    integral = adaptive_quad(
        lambda r: r ** (b - 1.0) * (power_gap(t - r, delta, b) - g_t), s, s + delta, cfg)
    return q * q * b * integral


def fpn_covariance_asymptotic(noise: NoiseParams, s: float, t: float) -> AsymptoticValue:
    """Literature large-t model K t^{-(b+2)} with K = b q^2 d ((s+d)^{b+1} - s^{b+1}).

    The exact covariance instead tracks K b(1-b)/(b+1) * t^{b-2}; see
    ``validity_note``.
    """
    params = noise.fpp
    delta = noise.delta
    s = _check_time("s", s)
    t = _check_time("t", t)
    if t <= s + delta:
        raise DomainError(f"need t > s + delta, got s={s}, delta={delta}, t={t}")
    b, q = params.beta, params.q
    K = b * q * q * delta * power_gap(s, delta, b + 1.0)
    exponent = -(b + 2.0)
    return AsymptoticValue(
        value=K * t ** exponent,
        exponent=exponent,
        prefactor=K,
        validity_note=(
            "claimed decay rate of the FPN covariance; the exact four-term "
            "covariance follows K*b*(1-b)/(b+1) * t^(b-2) instead"),
    )


def fpn_variance(noise: NoiseParams, t: float) -> float:
    """Exact Var[Z(t)] = E[Z(Z-1)] + q g - (q g)^2 with g = (t+d)^b - t^b.

    Algebraically equal to Var[N(t+d)] + Var[N(t)] - 2 Cov[N(t), N(t+d)].
    """
    params = noise.fpp
    delta = noise.delta
    t = _check_time("t", t)
    gap = params.q * power_gap(t, delta, params.beta)
    fact = fpp_increment_factorial_moment(params, t, t + delta)
    return fact + gap - gap * gap


def fpn_variance_asymptotic(noise: NoiseParams, t: float) -> AsymptoticValue:
    """Var[Z(t)] ~ b d q (1 + 2 q d^b/(b+1)) t^{b-1}.

    The factor in parentheses keeps exact/asymptotic -> 1; the bare b*d*q
    reported in the literature drops the factorial-moment contribution,
    which enters at the same order.
    """
    params = noise.fpp
    delta = noise.delta
    t = _check_time("t", t)
    b, q = params.beta, params.q
    prefactor = b * delta * q * (1.0 + 2.0 * q * delta ** b / (b + 1.0))
    exponent = b - 1.0
    return AsymptoticValue(
        value=prefactor * t ** exponent,
        exponent=exponent,
        prefactor=prefactor,
        validity_note=("exact-variance prefactor; the literature value "
                       "b*delta*q omits the factorial-moment term"),
    )


def fpn_correlation(noise: NoiseParams, s: float, t: float) -> float:
    """Correlation model of the FPN: K t^{-(b+2)} over exact standard deviations.

    This is the object whose decay rate t^{-3(b+1)/2} is studied for the
    FPN; both window variances are exact, the cross term is the claimed
    large-t covariance model.  For beta == 1 the increments are independent
    and the correlation is exactly 0.
    """
    params = noise.fpp
    if params.beta == 1.0:
        return 0.0
    num = fpn_covariance_asymptotic(noise, s, t).value
    return num / math.sqrt(fpn_variance(noise, s) * fpn_variance(noise, t))


def fpn_theoretical_exponent(beta: float) -> float:
    """Claimed FPN correlation decay exponent 3(1+beta)/2 (SRD for beta < 1/3)."""
    return 1.5 * (1.0 + beta)


# ---------------------------------------------------------------------------
# Block-variance ratio Delta_n^(m)
# ---------------------------------------------------------------------------

# Delta's denominator sums unit windows exactly up to j = _DELTA_EXACT.  Past
# it each unit variance is a series in 1/j, cut after _DELTA_TERMS terms
# (relative truncation ~ j^-_DELTA_TERMS), whose power sums are Euler-Maclaurin.
_DELTA_EXACT = 512
_DELTA_TERMS = 8
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)  # B_2, ..., B_8


def _power_sums(a: int, n: int, e: np.ndarray) -> np.ndarray:
    """sum_{j=a}^{n} j^e for each exponent in ``e`` by Euler-Maclaurin.

    The remainder after the B_8 term is of relative order a^-10 / (2 pi)^10,
    negligible for a > _DELTA_EXACT.  The integral is a^y expm1(y log1p((n-a)/a)) / y with
    y = e + 1, and log1p((n-a)/a) itself at y == 0.
    """
    a, n = float(a), float(n)
    y = e + 1.0
    log_ratio = math.log1p((n - a) / a)
    flat = y == 0.0
    y_safe = np.where(flat, 1.0, y)
    total = np.where(flat, log_ratio, a ** y_safe * np.expm1(y_safe * log_ratio) / y_safe)
    total += 0.5 * (a ** e + n ** e)
    deriv = e  # e (e-1) ... (e-p+1), the p-th derivative's factor, p = 2k - 1
    for k, bern in enumerate(_BERNOULLI, start=1):
        p = 2 * k - 1
        if k > 1:
            deriv = deriv * (e - p + 2.0) * (e - p + 1.0)
        total += bern / math.factorial(2 * k) * deriv * (n ** (e - p) - a ** (e - p))
    return total


def _unit_window_tail(params: FppParams, cut: int, hi: int) -> float:
    """sum_{j=cut+1}^{hi} Var[N(j) - N(j-1)] for cut >= _DELTA_EXACT.

    The mean gaps q (j^b - (j-1)^b) telescope to q ((hi)^b - cut^b).  The
    factorial moment is 2 b q^2 sum_k (1-b)_k / (k! (1+b+k)) j^(b-1-k) and
    the squared gap q^2 sum_n (sum_{k+l=n} a_k a_l) j^(2b-n), with
    a_k = (-1)^(k+1) binom(b, k) the coefficients of j^b - (j-1)^b.
    """
    b, q = params.beta, params.q
    k = np.arange(_DELTA_TERMS, dtype=float)
    rising = np.cumprod(np.concatenate(([1.0], (k[1:] - b) / k[1:])))  # (1-b)_k/k!
    a_k = np.cumprod(np.concatenate(([b], (k[1:] - b) / (k[1:] + 1.0))))  # k = 1, 2, ...
    coef = np.concatenate((2.0 * b * q * q * rising / (1.0 + b + k),
                           -q * q * np.convolve(a_k, a_k)[:_DELTA_TERMS]))
    expo = np.concatenate((b - 1.0 - k, 2.0 * b - 2.0 - k))
    return (q * power_gap(float(cut), float(hi - cut), b)
            + float(coef @ _power_sums(cut + 1, hi, expo)))


def delta_statistic(params: FppParams, n: int, m: int) -> float:
    """Delta_n^(m) = Var[N((n)m) - N((n-1)m)] / sum_j Var[N(j) - N(j-1)].

    The denominator runs over unit increments j = (n-1)m+1 .. nm.  Windows
    with j <= 512, and every window of m <= 512, are summed exactly; the
    rest is a 1/j series summed by Euler-Maclaurin, so the cost does not
    grow with m and agrees with the exact sum to ~1e-15 relative.  For
    beta == 1 the increments are i.i.d. Poisson and the ratio is exactly 1.
    """
    if n < 1 or m < 1:
        raise DomainError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if params.beta == 1.0:
        return 1.0
    lo, hi = (n - 1) * m, n * m
    numerator = fpp_increment_variance(params, float(lo), float(hi))
    cut = hi if m <= _DELTA_EXACT else max(lo, _DELTA_EXACT)
    j = np.arange(lo + 1, cut + 1, dtype=float)
    denominator = float(np.sum(fpp_increment_variance(params, j - 1.0, j)))
    if cut < hi:
        denominator += _unit_window_tail(params, cut, hi)
    if not (denominator > 0.0) or not math.isfinite(denominator):
        raise NumericalError(
            f"Delta denominator degenerate ({denominator}) at n={n}, m={m}")
    return numerator / denominator


def delta_limit_bound(params: FppParams, n: int) -> float:
    """Upper bound C(n,b)^2 / C(n,2b) on lim_m Delta_n^(m); always <= 1."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    b = params.beta
    return power_diff(float(n), b) ** 2 / power_diff(float(n), 2.0 * b)


# ---------------------------------------------------------------------------
# FNBP: the FPP on a gamma clock
# ---------------------------------------------------------------------------

def nb_pmf(params: FnbpParams, n: int, t: float) -> float:
    """P[Q(t) = n] for the (non-fractional) NB marginal: NB(pt, eta)."""
    if n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n}")
    t = _check_time("t", t, allow_zero=False)
    pt = params.gamma.p * t
    eta = params.eta
    logp = (sp.gammaln(n + pt) - sp.gammaln(n + 1.0) - sp.gammaln(pt)
            + n * math.log(eta) + pt * math.log1p(-eta))
    return math.exp(logp)


def fnbp_mean(params: FnbpParams, t: float) -> float:
    """E[Q_b(t)] = q E[Y^b(t)] = q Gamma(pt+b) / (alpha^b Gamma(pt))."""
    t = _check_time("t", t, allow_zero=False)
    return params.fpp.q * params.clock_moment(params.fpp.beta, t)


def fnbp_variance(params: FnbpParams, t: float) -> float:
    """Var[Q_b(t)] = q E[Y^b](1 - q E[Y^b]) + 2 d E[Y^{2b}]."""
    t = _check_time("t", t, allow_zero=False)
    b = params.fpp.beta
    q = params.fpp.q
    m1 = params.clock_moment(b, t)
    m2 = params.clock_moment(2.0 * b, t)
    out = q * m1 * (1.0 - q * m1) + 2.0 * params.fpp.d * m2
    if not (out >= 0.0):
        raise NumericalError(
            f"FNBP variance formula returned {out} at t={t}; parameter regime "
            "breaks the moment inequality")
    return out


def _beta_mixture_expectation(params: FnbpParams, s: float, t: float,
                              cfg: QuadConfig) -> float:
    """E[B(b, 1+b; V)] with V ~ Beta(ps, p(t-s)).

    Integration by parts turns the expectation of the incomplete beta into

        int_0^1 v^{b-1} (1-v)^b  P(V > v) dv,

    which has no spike even when p(t-s) is huge (the survival factor just
    truncates the integrand on a log scale).
    """
    b = params.fpp.beta
    p1 = params.gamma.p * s
    p2 = params.gamma.p * (t - s)

    def integrand(v: np.ndarray) -> np.ndarray:
        return v ** (b - 1.0) * (1.0 - v) ** b * sp.betaincc(p1, p2, v)

    return adaptive_quad(integrand, 0.0, 1.0, cfg)


# tolerances of the FNBP covariance quadrature
COV_QUAD = QuadConfig(rel_tol=1e-12, abs_tol=1e-300, max_depth=14)


def fnbp_covariance(params: FnbpParams, s: float, t: float,
                    cfg: QuadConfig = COV_QUAD) -> float:
    """Cov[Q_b(s), Q_b(t)] for 0 < s <= t (arguments symmetrized).

    q E[Y^b(s)] + d E[Y^{2b}(s)] - q^2 E[Y^b(s)] E[Y^b(t)]
        + q^2 b E[Y^{2b}(t)] E[B(b, 1+b; V)],

    where V = Y(s)/Y(t) ~ Beta(ps, p(t-s)) independently of Y(t).
    """
    s = _check_time("s", s, allow_zero=False)
    t = _check_time("t", t, allow_zero=False)
    if s > t:
        s, t = t, s
    if s == t:
        return fnbp_variance(params, t)
    b = params.fpp.beta
    q = params.fpp.q
    m1s = params.clock_moment(b, s)
    m2s = params.clock_moment(2.0 * b, s)
    m1t = params.clock_moment(b, t)
    m2t = params.clock_moment(2.0 * b, t)
    eb = _beta_mixture_expectation(params, s, t, cfg)
    return (q * m1s + params.fpp.d * m2s
            - q * q * m1s * m1t + q * q * b * m2t * eb)


def fnbp_correlation(params: FnbpParams, s: float, t: float,
                     cfg: QuadConfig = COV_QUAD) -> float:
    """Corr[Q_b(s), Q_b(t)]; decays like t^{-b} (LRD for 0 < b < 1)."""
    s = _check_time("s", s, allow_zero=False)
    t = _check_time("t", t, allow_zero=False)
    if s == t:
        return 1.0
    return (fnbp_covariance(params, s, t, cfg)
            / math.sqrt(fnbp_variance(params, s) * fnbp_variance(params, t)))


def fnbp_theoretical_exponent(beta: float) -> float:
    """FNBP correlation decay exponent: beta itself (LRD)."""
    return beta


# ---------------------------------------------------------------------------
# FNBN: increments of the FNBP (asymptotics only)
# ---------------------------------------------------------------------------

def fnbn_asymptotics(noise: NoiseParams, s: float, t: float) -> FnbnAsymptotics:
    """Large-t asymptotics of the FNBN covariance/variance and its decay rate.

    Covariance model: t^{b-2} q^2 d (p/a)^b b(1-b)
        ((s+d) E[Y^b(s+d)] - s E[Y^b(s)]);
    variance model: t^{b-1} b d q (p/a)^b; correlation decays like
    t^{-(3-b)/2}, SRD for every b in (0,1).
    """
    if not isinstance(noise.base, FnbpParams):
        raise DomainError("fnbn_asymptotics needs NoiseParams over FnbpParams")
    params: FnbpParams = noise.base
    delta = noise.delta
    s = _check_time("s", s, allow_zero=False)
    t = _check_time("t", t, allow_zero=False)
    if t < s + delta:
        raise DomainError(
            f"windows overlap: need t >= s + delta, got s={s}, delta={delta}, t={t}")
    b = params.fpp.beta
    q = params.fpp.q
    ratio = (params.gamma.p / params.gamma.alpha) ** b
    cov_pref = (q * q * delta * ratio * b * (1.0 - b)
                * ((s + delta) * params.clock_moment(b, s + delta)
                   - s * params.clock_moment(b, s)))
    var_pref = b * delta * q * ratio
    note = "leading-order model; same-order corrections to the prefactor exist"
    return FnbnAsymptotics(
        cov=AsymptoticValue(cov_pref * t ** (b - 2.0), b - 2.0, cov_pref, note),
        var=AsymptoticValue(var_pref * t ** (b - 1.0), b - 1.0, var_pref, note),
        corr_exponent=fnbn_theoretical_exponent(b),
    )


def fnbn_correlation_asymptotic(noise: NoiseParams, s: float, t: float) -> float:
    """Asymptotic FNBN correlation: cov model over the variance model at s and t."""
    asym = fnbn_asymptotics(noise, s, t)
    b = noise.base.fpp.beta if isinstance(noise.base, FnbpParams) else noise.fpp.beta
    var_s = asym.var.prefactor * s ** (b - 1.0)
    var_t = asym.var.prefactor * t ** (b - 1.0)
    return asym.cov.value / math.sqrt(var_s * var_t)


def fnbn_theoretical_exponent(beta: float) -> float:
    """FNBN correlation decay exponent (3 - beta)/2 in (1, 1.5): SRD."""
    return 0.5 * (3.0 - beta)


# claimed correlation decay exponent per process, as a function of beta; the
# FPP correlation decays like t^-beta, as the FNBP's does
THEORETICAL_EXPONENTS = {
    "fpp": fnbp_theoretical_exponent,
    "fpn": fpn_theoretical_exponent,
    "fnbp": fnbp_theoretical_exponent,
    "fnbn": fnbn_theoretical_exponent,
}
