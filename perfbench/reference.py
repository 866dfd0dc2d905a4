"""Reference values computed without fracdep's own numerical code paths.

They re-derive two exact quantities from their defining formulas with
scipy: the FPN increment covariance by QUADPACK instead of the package's
tanh-sinh rule, and the block-variance ratio by direct summation of the
unit-window variances.  The checker compares the package against them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy import special as sp


def _q(beta: float, lam: float) -> float:
    return lam / math.gamma(1.0 + beta)


def _gap(u, d: float, y: float):
    """(u + d)^y - u^y for u > 0 without cancellation."""
    return u ** y * np.expm1(y * np.log1p(d / u))


def fpn_covariance(beta: float, lam: float, s: float, delta: float, t: float) -> float:
    """Cov[N(s+d)-N(s), N(t+d)-N(t)] for s > 0 and t >= s + d, by QUADPACK."""
    q = _q(beta, lam)
    integral, _ = integrate.quad(
        lambda r: r ** (beta - 1.0) * _gap(t - r, delta, beta),
        s, s + delta, epsabs=0.0, epsrel=1e-13, limit=200)
    return q * q * (beta * integral - _gap(s, delta, beta) * _gap(t, delta, beta))


def _increment_variance(beta: float, lam: float, lo, hi):
    """Var[N(hi) - N(lo)] = E[Z(Z-1)] + g - g^2 with mean gap g = q (hi^b - lo^b)."""
    q = _q(beta, lam)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    # E[Z(Z-1)] = 2 b q^2 hi^{2b} B(1+b, b; (hi-lo)/hi)
    fact = (2.0 * beta * q * q * hi ** (2.0 * beta)
            * sp.betainc(1.0 + beta, beta, (hi - lo) / hi) * sp.beta(1.0 + beta, beta))
    with np.errstate(divide="ignore"):  # lo == 0 gives log1p(-1) = -inf, g = q hi^b
        g = q * hi ** beta * -np.expm1(beta * np.log1p(-(hi - lo) / hi))
    return fact + g - g * g


def delta_statistic(beta: float, lam: float, n: int, m: int) -> float:
    """Delta_n^(m) = Var[N(nm) - N((n-1)m)] / sum_j Var[N(j) - N(j-1)]."""
    lo, hi = (n - 1) * m, n * m
    j = np.arange(lo + 1, hi + 1, dtype=float)
    den = float(np.sum(_increment_variance(beta, lam, j - 1.0, j)))
    return float(_increment_variance(beta, lam, float(lo), float(hi))) / den
