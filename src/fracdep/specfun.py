"""Special functions and deterministic quadrature.

Everything here is pure and deterministic; the heavy lifting for the
gamma/beta family is delegated to scipy.special (log-space throughout so
shape parameters up to 1e6 stay finite), while the quadrature is an
independent double-exponential scheme used as the oracle for the
closed-form results elsewhere in the package.  The quadrature keeps its
interval-independent node factors in read-only per-level tables, built on
first use; they change no result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sp

from .errors import ConvergenceError, DomainError

__all__ = [
    "QuadConfig",
    "DEFAULT_QUAD",
    "beta_fn",
    "inc_beta",
    "adaptive_quad",
    "gamma_frac_moment",
    "power_diff",
    "power_gap",
]


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and refinement budget for :func:`adaptive_quad`.

    ``max_depth`` counts doublings of the node density; each level roughly
    doubles the work, and convergence for integrable endpoint singularities
    u^{g-1}, g > 0, is typically reached by level 8-10.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0):
            raise DomainError(f"rel_tol must be > 0, got {self.rel_tol}")
        if not (self.abs_tol >= 0):
            raise DomainError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_depth < 1:
            raise DomainError(f"max_depth must be >= 1, got {self.max_depth}")


DEFAULT_QUAD = QuadConfig()


def _require_positive(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x}")
    return x


def _float_or_array(out):
    """A 0-d result as a Python float; any other array as it is."""
    return float(out) if np.ndim(out) == 0 else out


def beta_fn(a: float, b: float) -> float:
    """Complete beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b)."""
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    return math.exp(sp.gammaln(a) + sp.gammaln(b) - sp.gammaln(a + b))


def inc_beta(a: float, b: float, x) -> float:
    """Unregularized lower incomplete beta B(a,b;x) = int_0^x u^{a-1}(1-u)^{b-1} du.

    Computed as the regularized incomplete beta (continued-fraction based)
    times B(a,b). Accepts a scalar or an ndarray for ``x``.
    """
    a = _require_positive("a", a)
    b = _require_positive("b", b)
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    return _float_or_array(sp.betainc(a, b, xa) * beta_fn(a, b))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)), stable on both tails (keeps denormal resolution)."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_T_MAX = 6.11  # |u| ~ pi/2*sinh(6.11) puts endpoint offsets past denormals
_CACHED_LEVELS = 10  # node tables kept for levels 0..10 (0.5 MB in all)
# shared by every caller, which is safe because a table is a pure function of
# its level: a thread that misses the cache builds an identical copy
_NODE_TABLES: dict = {}


def _node_table(level: int) -> tuple:
    """The interval-independent factors of the tanh-sinh rule on the grid
    of refinement ``level`` (all of it at level 0, the new odd nodes after).

    Built on first use; levels up to ``_CACHED_LEVELS`` are then kept.
    """
    table = _NODE_TABLES.get(level)
    if table is not None:
        return table
    h = 0.5 ** level
    if level == 0:
        n0 = int(_T_MAX / h)
        tau = np.arange(-n0, n0 + 1) * h
    else:
        odd = np.arange(1, int(_T_MAX / h) + 1, 2)
        tau = np.concatenate((-odd[::-1], odd)) * h
    u = 0.5 * math.pi * np.sinh(tau)
    e = np.exp(-2.0 * np.abs(u))
    table = (u < 0, _sigmoid(2.0 * u), _sigmoid(-2.0 * u), e, (1.0 + e) ** 2,
             np.cosh(tau))
    for arr in table:
        arr.flags.writeable = False
    if level <= _CACHED_LEVELS:
        _NODE_TABLES[level] = table
    return table


def adaptive_quad(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  cfg: QuadConfig = DEFAULT_QUAD) -> float:
    """Integrate f over (a, b) to max(rel_tol*|I|, abs_tol).

    Double-exponential (tanh-sinh) node placement with dyadic refinement:
    all nodes are strictly interior, so integrable endpoint singularities
    u^{g-1} with any g > 0 converge.  ``f`` must accept an ndarray of
    abscissae.  Blow-up singularities are resolved to full precision at a
    left endpoint a == 0 (abscissae there are exact offsets); an integrand
    that blows up at the right endpoint should be reflected by the caller.
    Vanishing endpoint behavior is fine at either end.

    Raises :class:`ConvergenceError` if ``cfg.max_depth`` refinements do not
    reach the tolerance.
    """
    a = float(a)
    b = float(b)
    if not (a < b):
        raise DomainError(f"need a < b, got a={a}, b={b}")
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("endpoints must be finite")

    width = b - a

    def _sum(level: int) -> float:
        left, sig_lo, sig_hi, e, e_sq, cosh = _node_table(level)
        off_lo = width * sig_lo    # x - a
        off_hi = width * sig_hi    # b - x
        weight = 2.0 * width * e / e_sq * 0.5 * math.pi * cosh
        keep = (off_lo > 0.0) & (off_hi > 0.0) & (weight > 0.0)
        if not np.any(keep):
            return 0.0
        x = np.where(left, a + off_lo, b - off_hi)[keep]
        w = weight[keep]
        with np.errstate(all="ignore"):
            vals = np.asarray(f(x), dtype=float) * w
        # a blown-up f is harmless only where the DE weight has collapsed
        bad = ~np.isfinite(vals)
        if np.any(bad & (w > 1e-250)):
            return math.nan
        vals[bad] = 0.0
        return float(np.sum(vals))

    h = 1.0
    total = _sum(0) * h
    prev = math.inf
    for level in range(1, cfg.max_depth + 1):
        h *= 0.5
        total = 0.5 * total + _sum(level) * h
        err = abs(total - prev)
        prev = total
        if level >= 2 and math.isfinite(total) and \
                err <= max(cfg.rel_tol * abs(total), cfg.abs_tol):
            return total
    raise ConvergenceError(
        f"quadrature did not converge within max_depth={cfg.max_depth} "
        f"(last increment {err:g})")


def gamma_frac_moment(m: float, alpha: float, pt: float) -> float:
    """E[Y^m] for Y ~ Gamma(rate=alpha, shape=pt): Gamma(pt+m)/(alpha^m Gamma(pt))."""
    m = _require_positive("m", m)
    alpha = _require_positive("alpha", alpha)
    pt = _require_positive("pt", pt)
    return math.exp(sp.gammaln(pt + m) - sp.gammaln(pt) - m * math.log(alpha))


def power_diff(x, y):
    """x^y - (x-1)^y for x >= 1, cancellation-free for large x.

    Uses x^y * (-expm1(y*log1p(-1/x))) away from x == 1, which is exact in
    the sense of never subtracting nearly equal powers.  Vectorized in x.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(xa)) or np.any(xa < 1.0):
        raise DomainError(f"x must be finite and >= 1, got {x}")
    y = float(y)
    if not math.isfinite(y):
        raise DomainError(f"y must be finite, got {y}")
    with np.errstate(divide="ignore"):
        out = np.where(
            xa == 1.0,
            1.0 if y > 0 else (0.0 if y == 0 else np.inf),
            xa ** y * -np.expm1(y * np.log1p(-1.0 / np.maximum(xa, 1.0 + 1e-300))),
        )
    return _float_or_array(out)


def power_gap(u, delta, y: float):
    """(u+delta)^y - u^y for u >= 0 and finite delta >= 0, stable when
    delta << u.  Vectorized in u and delta."""
    ua = np.asarray(u, dtype=float)
    da = np.asarray(delta, dtype=float)
    if (ua < 0.0).any():
        raise DomainError(f"u must be >= 0, got {u}")
    if not ((da >= 0.0) & (da < math.inf)).all():
        raise DomainError(f"delta must be finite and >= 0, got {delta}")
    zero = ua == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(zero, da ** y,
                       ua ** y * np.expm1(y * np.log1p(da / np.where(zero, 1.0, ua))))
    return _float_or_array(out)
