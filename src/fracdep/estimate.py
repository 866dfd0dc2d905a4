"""Monte Carlo estimation, power-law exponent fitting, and LRD/SRD labels.

Replications are embarrassingly parallel: replication i always draws from
Seed(root, stream=i) and lands in row i of a replications x grid path
matrix, so the aggregated results are byte-identical for any thread count.
Standard errors of nonlinear statistics (correlations, variance ratios) come
from a seeded nonparametric bootstrap over replications; both estimators
weight the replications by the same resample counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import analytic
from .analytic import (FnbpParams, FppParams, NoiseParams, classify_exponent)
from .errors import DomainError, NumericalError
# increment_path is unused here but stays importable as
# fracdep.estimate.increment_path
from .sim import PathSpec, Seed, increment_path, sample_process_path  # noqa: F401
from .specfun import QuadConfig

__all__ = [
    "BOOTSTRAP_RESAMPLES",
    "ANALYTIC_CORR_FLOOR",
    "MonteCarloEstimate",
    "CorrelationCurve",
    "ExponentFit",
    "DeltaTable",
    "default_fit_cutoff",
    "analytic_curve",
    "mc_correlation",
    "mc_marginal_moments",
    "fit_power_law",
    "delta_empirical",
]

BOOTSTRAP_RESAMPLES = 200
ANALYTIC_CORR_FLOOR = 1e-12

ANALYTIC = "ANALYTIC"
EMPIRICAL = "EMPIRICAL"


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    std_error: float
    replications: int


@dataclass
class CorrelationCurve:
    """Corr[X(s), X(t)] over a grid of t, analytic or empirical."""

    s: float
    delta: Optional[float]
    t: np.ndarray
    corr: np.ndarray
    std_error: Optional[np.ndarray]
    source: str

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.corr = np.asarray(self.corr, dtype=float)
        if np.any(np.diff(self.t) <= 0.0):
            raise DomainError("curve t values must be strictly increasing")
        if self.std_error is not None:
            self.std_error = np.asarray(self.std_error, dtype=float)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log|corr| = log c - d log t."""

    d_hat: float
    c_hat: float
    r_squared: float
    label: str
    n_points: int


@dataclass
class DeltaTable:
    """Block-variance ratio Delta_n^(m) over a list of m values."""

    n: int
    m: np.ndarray
    value: np.ndarray
    std_error: Optional[np.ndarray]
    source: str


def default_fit_cutoff(s: float, delta: Optional[float]) -> float:
    """Default start of the asymptotic fit window: t >= 100 * max(s, delta)."""
    return 100.0 * max(s, delta or 0.0)


# ---------------------------------------------------------------------------
# Analytic correlation curves
# ---------------------------------------------------------------------------

def analytic_curve(kind: str, params, s: float, t_grid,
                   delta: Optional[float] = None,
                   cfg: QuadConfig = analytic.COV_QUAD) -> CorrelationCurve:
    """Exact (fpp, fnbp) or model (fpn, fnbn) correlation over a t grid.

    ``cfg`` sets the quadrature tolerances of the FNBP covariance.
    """
    t = np.asarray(t_grid, dtype=float)
    if kind == "fpp":
        if not isinstance(params, FppParams):
            raise DomainError("fpp curve needs FppParams")
        var_s = analytic.fpp_variance(params, s)
        corr = np.array([analytic.fpp_covariance(params, s, ti)
                         / math.sqrt(var_s * analytic.fpp_variance(params, ti))
                         for ti in t])
    elif kind == "fpn":
        noise = NoiseParams(params, delta)
        corr = np.array([analytic.fpn_correlation(noise, s, ti) for ti in t])
    elif kind == "fnbp":
        if not isinstance(params, FnbpParams):
            raise DomainError("fnbp curve needs FnbpParams")
        corr = np.array([analytic.fnbp_correlation(params, s, ti, cfg) for ti in t])
    elif kind == "fnbn":
        noise = NoiseParams(params, delta)
        corr = np.array([analytic.fnbn_correlation_asymptotic(noise, s, ti)
                         for ti in t])
    else:
        raise DomainError(f"unknown curve kind {kind!r}")
    return CorrelationCurve(s=s, delta=delta, t=t, corr=corr,
                            std_error=None, source=ANALYTIC)


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------

def _run_replications(spec: PathSpec, reps: int, seed: Seed,
                      threads: int) -> np.ndarray:
    """The reps x len(spec.t_grid) matrix whose row i is the path of
    replication i; thread-count invariant."""
    out = np.empty((reps, len(spec.t_grid)))

    def work(lo: int, hi: int) -> None:
        for i in range(lo, hi):
            out[i] = sample_process_path(spec, seed.child(i)).values

    if threads in (0, None):
        threads = 1
    if threads <= 1 or reps < 256:
        work(0, reps)
        return out
    bounds = np.linspace(0, reps, threads + 1).astype(int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, bounds[k], bounds[k + 1])
                   for k in range(threads)]
        for f in futures:
            f.result()
    return out


def _bootstrap_counts(seed: Seed, reps: int, bootstrap: int) -> np.ndarray:
    """counts[b, i]: how often bootstrap resample b takes replication i.

    Each resample is ``reps`` uniform draws from the stream
    ``seed.rng(0xB007)``; every row sums to ``reps``.
    """
    boot_rng = seed.rng(0xB007)
    counts = np.empty((bootstrap, reps))
    for b in range(bootstrap):
        counts[b] = np.bincount(boot_rng.integers(0, reps, reps), minlength=reps)
    return counts


def _weighted_corr(counts: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Pearson correlation of column 0 of x against each later column, in
    the sample that takes replication i counts[b, i] times, for every row b
    of ``counts`` (each row sums to the number of replications R), from the
    count-weighted sums as (R S_xy - S_x S_y) / sqrt((R S_xx - S_x^2)
    (R S_yy - S_y^2)).

    Columns are first shifted by their mean, rounded for integer columns:
    real values then lose no digits to the offset, and integer sums stay
    exact below 2^53, so a resample in which a column is constant has
    exactly zero variance.  Such a resample gives NaN.
    """
    shift = x.mean(axis=0)
    x = x - np.where(np.all(x == np.round(x), axis=0), np.round(shift), shift)
    reps = x.shape[0]
    s1 = counts @ x
    var = reps * (counts @ (x * x)) - s1 * s1
    cov = reps * (counts @ (x[:, :1] * x[:, 1:])) - s1[:, :1] * s1[:, 1:]
    den = var[:, :1] * var[:, 1:]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(den > 0, cov / np.sqrt(den), math.nan)


def mc_correlation(spec: PathSpec, s: float, t_grid, reps: int, seed: Seed,
                   delta: Optional[float] = None, threads: int = 0,
                   bootstrap: int = BOOTSTRAP_RESAMPLES) -> CorrelationCurve:
    """Sample correlation between X(s) and X(t) (or their width-delta
    increments) across replications, with bootstrap standard errors.

    Raises :class:`NumericalError`, naming the time, when X has no variance
    across the replications at s or at any t.  Resamples in which one has no
    variance are left out of that time's standard error.
    """
    if reps < 100:
        raise DomainError(f"need reps >= 100, got {reps}")
    t = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t) <= 0.0):
        raise DomainError("curve t values must be strictly increasing")
    t_min = float(t.min())
    if not (s < t_min):
        raise DomainError(f"s={s} must be below min(t_grid)={t_min}")
    if delta is not None and s + delta > t_min:
        raise DomainError(f"s+delta={s + delta} must not exceed min(t_grid)={t_min}")

    # X at s and every t, then (with delta) X at the right endpoints; each
    # probe time is exactly a point of the simulated grid
    probe = np.concatenate(([s], t))
    if delta is not None:
        probe = np.concatenate((probe, probe + delta))
    sim_grid = np.unique(probe)
    idx = np.searchsorted(sim_grid, probe).reshape(-1, len(t) + 1)
    paths = _run_replications(replace(spec, t_grid=sim_grid), reps, seed, threads)
    out = paths[:, idx[0]] if delta is None else paths[:, idx[1]] - paths[:, idx[0]]

    flat = np.flatnonzero(np.ptp(out, axis=0) == 0.0)
    if len(flat):
        at = f"s={s}" if flat[0] == 0 else f"t={t[flat[0] - 1]}"
        raise NumericalError(
            f"degenerate sample: X({at}) has zero variance across {reps} replications")
    corr = _weighted_corr(np.ones((1, reps)), out)[0]
    boot = _weighted_corr(_bootstrap_counts(seed, reps, bootstrap), out)
    std_error = np.nanstd(boot, axis=0, ddof=1)

    return CorrelationCurve(s=s, delta=delta, t=t, corr=corr,
                            std_error=std_error, source=EMPIRICAL)


def mc_marginal_moments(spec: PathSpec, reps: int, seed: Seed,
                        threads: int = 0):
    """Empirical mean and variance (with standard errors) at every grid time.

    Returns two lists of :class:`MonteCarloEstimate`, one for the means and
    one for the variances, aligned with ``spec.t_grid``.
    """
    if reps < 2:
        raise DomainError(f"need reps >= 2, got {reps}")
    out = _run_replications(spec, reps, seed, threads)
    means = out.mean(axis=0)
    devs = out - means
    m2 = np.sum(devs ** 2, axis=0) / (reps - 1)
    m4 = np.mean(devs ** 4, axis=0)
    se_mean = np.sqrt(m2 / reps)
    # standard error of the sample variance via the fourth central moment
    var_of_var = (m4 - m2 ** 2 * (reps - 3) / (reps - 1)) / reps
    se_var = np.sqrt(np.maximum(var_of_var, 0.0))
    mean_est = [MonteCarloEstimate(float(means[i]), float(se_mean[i]), reps)
                for i in range(len(means))]
    var_est = [MonteCarloEstimate(float(m2[i]), float(se_var[i]), reps)
               for i in range(len(means))]
    return mean_est, var_est


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

def fit_power_law(curve: CorrelationCurve,
                  t_min_cutoff: Optional[float] = None) -> ExponentFit:
    """Fit log|corr| = log c - d log t over the usable tail of the curve.

    Points below the fit floor (1e-12 for analytic curves, 2 standard
    errors for empirical ones) are discarded; at least 5 usable points are
    required.
    """
    if t_min_cutoff is None:
        t_min_cutoff = default_fit_cutoff(curve.s, curve.delta)
    mask = curve.t >= t_min_cutoff
    acorr = np.abs(curve.corr)
    if curve.source == ANALYTIC or curve.std_error is None:
        floor = np.full_like(acorr, ANALYTIC_CORR_FLOOR)
    else:
        floor = 2.0 * curve.std_error
    usable = mask & np.isfinite(acorr) & (acorr > floor)
    if not np.any(mask):
        raise DomainError(f"no points at or beyond t_min_cutoff={t_min_cutoff}")
    if not np.any(usable):
        raise DomainError("all points beyond the cutoff are below the fit floor")
    n = int(np.sum(usable))
    if n < 5:
        raise DomainError(f"insufficient usable points for a fit: {n} < 5")
    x = np.log(curve.t[usable])
    y = np.log(acorr[usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    d_hat = -float(slope)
    return ExponentFit(d_hat=d_hat, c_hat=math.exp(float(intercept)),
                       r_squared=r2, label=classify_exponent(d_hat), n_points=n)


# ---------------------------------------------------------------------------
# Empirical block-variance ratio
# ---------------------------------------------------------------------------

def _weighted_block_ratios(counts: np.ndarray, incs: np.ndarray, n: int,
                           m_arr: np.ndarray) -> np.ndarray:
    """Delta_n^(m) of the sample that takes replication i counts[b, i] times,
    for every row b of ``counts`` (each row sums to the number of replications).

    With R replications, window row sums y_i, squared-entry row sums q_i and
    column sums T1_j = sum_i c_i x_ij, the ratio of the sample variances is

        (R sum c y^2 - (sum c y)^2) / (R sum c q - sum_j T1_j^2),

    the common factor R (R - 1) cancelling.  Unit increments are integers,
    so every sum is exact while it stays below 2^53.  A sample whose window
    columns all have zero variance gives NaN.
    """
    reps = incs.shape[0]
    out = np.empty((counts.shape[0], len(m_arr)))
    for k, m in enumerate(m_arr):
        window = incs[:, (n - 1) * m:n * m]
        y = window.sum(axis=1)
        q = np.einsum("ij,ij->i", window, window)
        num = reps * (counts @ (y * y)) - (counts @ y) ** 2
        col = counts @ window
        den = reps * (counts @ q) - np.einsum("bj,bj->b", col, col)
        with np.errstate(invalid="ignore", divide="ignore"):
            out[:, k] = np.where(den > 0, num / den, math.nan)
    return out


def delta_empirical(params: FppParams, n: int, m_values: Sequence[int],
                    reps: int, seed: Seed, threads: int = 0,
                    stable_step: Optional[float] = None,
                    bootstrap: int = BOOTSTRAP_RESAMPLES) -> DeltaTable:
    """Delta_n^(m) estimated from simulated FPP paths on the integer grid.

    The same paths feed numerator and denominator (common random numbers):
    Delta is the sample variance of the block sum over the sum of the
    sample variances of its unit increments.  The standard error is the
    spread of ``bootstrap`` resamples of the replications.  A resample
    enters only through how often it takes each replication, so every
    estimate is computed from count-weighted sums (see
    :func:`_weighted_block_ratios`); the point estimate weights each
    replication once.  Resamples whose window has no variance give NaN and
    are left out of the standard error.
    """
    if reps < 1000:
        raise DomainError(f"need reps >= 1000, got {reps}")
    if n < 1 or min(m_values) < 1:
        raise DomainError("need n >= 1 and all m >= 1")
    m_arr = np.asarray(sorted(m_values), dtype=int)
    t_max = int(n * m_arr.max())
    grid = np.arange(1, t_max + 1, dtype=float)
    spec = PathSpec("fpp", params, grid, stable_step=stable_step)

    incs = _run_replications(spec, reps, seed, threads)
    # unit increments, row by row in place: a whole-matrix np.diff would
    # hold a second reps x t_max matrix
    for row in incs:
        row[1:] = np.diff(row)

    value = _weighted_block_ratios(np.ones((1, reps)), incs, n, m_arr)[0]
    counts = _bootstrap_counts(seed, reps, bootstrap)
    std_error = np.nanstd(_weighted_block_ratios(counts, incs, n, m_arr),
                          axis=0, ddof=1)
    return DeltaTable(n=n, m=m_arr, value=value, std_error=std_error,
                      source=EMPIRICAL)
