"""Seeded sample-path generation for all processes in the package.

Subordination identities drive everything: the FPP is a Poisson process on
an inverse-stable clock, N_b(t) = N(E_b(t)); the FNBP additionally runs
that clock on a gamma subordinator, Q_b(t) = N_b(Y(t)).  So every process
is a subset of three stages, always applied in this order to the time grid:
a gamma clock Y, an inverse-stable clock E_b, and a Poisson count.  The
table ``_STAGES`` says which stages each process uses; the poisson, gamma
and inv_stable processes are single stages, nb is gamma then count, fpp is
inverse-stable then count, and fnbp is all three.  The inverse stable clock
is generated by first passage of a discretized stable subordinator, which
is the faithful construction for joint (multi-time) laws.  Without an
explicit ``stable_step`` the step is chosen from the last clock target, for
the FPP and the FNBP alike.

Every stage draws from the replication's one stream, in stage order, so a
(root, stream) pair reproduces a path bit-for-bit.  First passage draws the
uniform V and exponential W of Kanter's construction a whole chunk at a
time, but transforms and sums them only up to the sub-block in which the
subordinator passes the last target.  The draws past passage are discarded
untransformed, so neither the stream nor the path depends on where the
transform stops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .analytic import FnbpParams, FppParams, GammaParams
from .errors import DomainError, GridError, NumericalError, ResourceCapError

__all__ = [
    "PROCESSES",
    "Seed",
    "SamplePath",
    "PathSpec",
    "sample_positive_stable",
    "sample_process_path",
    "increment_path",
]

# process -> (parameter type, gamma clock?, inverse-stable clock?, Poisson count?)
_STAGES = {
    "poisson": (FppParams, False, False, True),
    "gamma": (GammaParams, True, False, False),
    "inv_stable": (FppParams, False, True, False),
    "fpp": (FppParams, False, True, True),
    "nb": (FnbpParams, True, False, True),
    "fnbp": (FnbpParams, True, True, True),
}
PROCESSES = tuple(_STAGES)

# default resolution of the first-passage inversion: expected number of
# stable steps needed to exceed the largest requested time
DEFAULT_TARGET_STEPS = 10_000
DEFAULT_MAX_STEPS = 20_000_000
# first passage transforms a chunk's stable steps one sub-block at a time,
# max(MIN_PASSAGE_BLOCK, chunk // 8) of them: each sub-block costs a fixed
# call overhead of a few hundred transforms, and on average half of the one
# in which passage falls is wasted
MIN_PASSAGE_BLOCK = 512
# the largest mean numpy's Poisson sampler accepts
_POISSON_MEAN_MAX = np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class Seed:
    """Reproducibility handle: (root, stream) fully determines a replication."""

    root: int
    stream: int = 0

    def __post_init__(self) -> None:
        if not (0 <= self.root < 2 ** 64):
            raise DomainError(f"root must be a 64-bit unsigned int, got {self.root}")
        if not (0 <= self.stream < 2 ** 64):
            raise DomainError(f"stream must be a 64-bit unsigned int, got {self.stream}")

    def rng(self, *extra: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.root,
                                   spawn_key=(self.stream, *extra)))

    def child(self, stream: int) -> "Seed":
        return Seed(self.root, stream)


@dataclass
class SamplePath:
    """A process evaluated on a strictly increasing time grid.

    Paths of the processes themselves are nondecreasing; increment paths
    (built by :func:`increment_path`) carry nonnegative but non-monotone
    values and set ``nondecreasing=False``.
    """

    times: np.ndarray
    values: np.ndarray
    nondecreasing: bool = True

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape or self.times.ndim != 1:
            raise DomainError("times and values must be 1-d arrays of equal length")
        if np.any(np.diff(self.times) <= 0.0):
            raise DomainError("times must be strictly increasing")
        # a nondecreasing path is nonnegative when its first value is
        if len(self.values) and (self.values[0] if self.nondecreasing
                                 else self.values.min()) < 0.0:
            raise DomainError("values must be nonnegative")
        if self.nondecreasing and np.any(np.diff(self.values) < 0.0):
            raise DomainError("values must be nondecreasing")


@dataclass(frozen=True)
class PathSpec:
    """What to simulate: process kind, parameters, and evaluation grid."""

    process: str
    params: Union[FppParams, FnbpParams, GammaParams]
    t_grid: np.ndarray
    stable_step: Optional[float] = None
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self) -> None:
        if self.process not in PROCESSES:
            raise DomainError(f"unknown process {self.process!r}; choose from {PROCESSES}")
        grid = np.asarray(self.t_grid, dtype=float)
        if grid.ndim != 1 or len(grid) == 0:
            raise DomainError("t_grid must be a nonempty 1-d array")
        if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
            raise DomainError("t_grid must be strictly increasing and positive")
        object.__setattr__(self, "t_grid", grid)
        if self.stable_step is not None and not (self.stable_step > 0.0):
            raise DomainError(f"stable_step must be > 0, got {self.stable_step}")
        needs = _STAGES[self.process][0]
        if not isinstance(self.params, needs):
            raise DomainError(f"process {self.process!r} needs {needs.__name__}")


# ---------------------------------------------------------------------------
# Elementary samplers and the three stages
# ---------------------------------------------------------------------------

def _kanter_inputs(rng: np.random.Generator, n: int):
    """n uniforms V on (0, 1), then n unit exponentials W."""
    v = np.maximum(rng.random(n), 1e-300)  # open interval (0, 1)
    w = np.maximum(rng.standard_exponential(n), 1e-300)
    return v, w


def _kanter(beta: float, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Kanter's transform of (V, W) in log space; overflows to inf unless
    the caller ignores it."""
    r = (1.0 - beta) / beta
    log_s = (np.log(np.sin(beta * math.pi * v))
             + r * np.log(np.sin((1.0 - beta) * math.pi * v))
             - np.log(np.sin(math.pi * v)) / beta
             - r * np.log(w))
    return np.exp(log_s)


def sample_positive_stable(beta: float, rng: np.random.Generator, size=None):
    """Draw S > 0 with Laplace transform E[exp(-u S)] = exp(-u^beta), 0 < beta < 1.

    Kanter's construction: with V uniform on (0,1) and W unit exponential,

        S = sin(b pi V) sin((1-b) pi V)^{(1-b)/b}
            / ( sin(pi V)^{1/b} W^{(1-b)/b} ),

    evaluated in log space (the law is heavy-tailed; rare draws overflow to
    inf, which downstream first-passage logic treats as an immediate jump
    past every level).
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must be in (0, 1), got {beta}")
    scalar = size is None
    v, w = _kanter_inputs(rng, 1 if scalar else size)
    with np.errstate(over="ignore"):
        s = _kanter(beta, v, w)
    return float(s[0]) if scalar else s


def _auto_step(beta: float, t_char: float, target_steps: int = DEFAULT_TARGET_STEPS) -> float:
    """Step so the expected number of stable steps to exceed t_char is ~target."""
    return t_char ** beta / math.exp(math.lgamma(1.0 + beta)) / target_steps


def _first_passage(beta: float, targets: np.ndarray, step: float,
                   rng: np.random.Generator, max_steps: int) -> np.ndarray:
    """E_b at nondecreasing targets via first passage of a discretized
    stable subordinator D(k*step) = sum step^{1/b} S_k.

    Each chunk draws all its V and W at once; the transform and the
    cumulative sum then run one sub-block at a time and stop at the
    sub-block where D passes the last target.  The chunk's running sum is
    added into the first element of each sub-block, so D is bitwise the
    sequential cumsum of the whole chunk.
    """
    t_max = float(targets[-1])
    if t_max == 0.0:
        return np.zeros_like(targets)
    expected = max(16, int(t_max ** beta / math.exp(math.lgamma(1.0 + beta)) / step))
    chunk = int(min(max(1024, 2 * expected), 2 ** 20))
    block = max(MIN_PASSAGE_BLOCK, chunk // 8)
    try:
        scale = step ** (1.0 / beta)
    except OverflowError:
        raise NumericalError(
            f"stable_step={step} overflows step^(1/beta); decrease it") from None
    if scale == 0.0:
        raise NumericalError(f"stable_step={step} underflows step^(1/beta); increase it")
    segments = []
    total = 0
    level = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        while level <= t_max:
            if total >= max_steps:
                raise ResourceCapError(
                    f"first passage needed more than max_steps={max_steps} steps")
            n = min(chunk, max_steps - total)
            v, w = _kanter_inputs(rng, n)
            total += n
            chunk_base = level
            run = 0.0
            for lo in range(0, n, block):
                hi = lo + block
                x = scale * _kanter(beta, v[lo:hi], w[lo:hi])
                x[0] += run
                part = np.cumsum(x)
                run = part[-1]
                seg = part + chunk_base
                segments.append(seg)
                level = float(seg[-1])
                if math.isnan(level):
                    raise NumericalError("stable increment sum became NaN")
                if level > t_max:
                    break
    d_path = np.concatenate(segments) if len(segments) > 1 else segments[0]
    k = np.searchsorted(d_path, targets, side="right")
    out = (k + 1).astype(float) * step
    if not math.isfinite(out[-1]):  # the largest time, since targets are sorted
        raise NumericalError(f"first-passage times overflowed at stable_step={step}; "
                             "decrease it")
    return out


def _inverse_stable_values(beta: float, targets: np.ndarray, step: Optional[float],
                           rng: np.random.Generator, max_steps: int) -> np.ndarray:
    """E_b at nondecreasing targets >= 0; ``step=None`` takes the default
    step for the last target, and beta == 1 is the identity clock (a copy
    of the targets)."""
    if beta == 1.0:
        return targets.copy()
    if step is None:
        step = _auto_step(beta, max(float(targets[-1]), 1e-300))
    return _first_passage(beta, targets, step, rng, max_steps)


def _gamma_values(gamma: GammaParams, grid: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Gamma subordinator at a strictly increasing positive grid."""
    dt = np.diff(np.concatenate(([0.0], grid)))
    return np.cumsum(rng.gamma(shape=gamma.p * dt, scale=1.0 / gamma.alpha))


def _poisson_compose(lam: float, clock: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Counts of a rate-lam Poisson process evaluated at nondecreasing clock times.

    The last clock time bounds every increment and the mean of the final
    count, so one check on it rejects an overflowed (inf or nan) clock before
    ``np.diff`` turns inf - inf into a warning, and any mean numpy's sampler
    or the int64 count would not hold.
    """
    mean_total = lam * clock[-1]
    if not mean_total <= _POISSON_MEAN_MAX:
        raise NumericalError(f"Poisson mean lam*clock={mean_total:g} exceeds the sampler's "
                             f"limit {_POISSON_MEAN_MAX:g}; decrease stable_step or the "
                             "time scale")
    dt = np.diff(np.concatenate(([0.0], clock)))
    return np.cumsum(rng.poisson(lam * dt)).astype(float)


# ---------------------------------------------------------------------------
# Composite processes
# ---------------------------------------------------------------------------

def sample_process_path(spec: PathSpec, seed: Seed) -> SamplePath:
    """One replication of the requested process on spec.t_grid: its stages
    of gamma clock, inverse-stable clock and Poisson count, in that order."""
    rng = seed.rng()
    _, gamma, stable, count = _STAGES[spec.process]
    params = spec.params
    fpp = getattr(params, "fpp", params)
    # spec.t_grid is already validated, so the stages pass arrays and only
    # the returned path is checked
    values = spec.t_grid
    if gamma:
        values = _gamma_values(getattr(params, "gamma", params), values, rng)
    if stable:
        values = _inverse_stable_values(fpp.beta, values, spec.stable_step,
                                        rng, spec.max_steps)
    if count:
        values = _poisson_compose(fpp.lam, values, rng)
    return SamplePath(spec.t_grid, values)


def _increment_pairs(grid: np.ndarray, delta: float, times=None):
    """(left endpoints, lo, hi) of the increments :func:`increment_path`
    reads: grid[lo] and grid[hi] are the grid points nearest to each left
    endpoint t and to t + delta, and both lie within 1e-9 * max(1, grid[-1])."""
    if not (delta > 0.0):
        raise DomainError(f"delta must be > 0, got {delta}")
    tol = 1e-9 * max(1.0, float(grid[-1]))

    def nearest(pts: np.ndarray):
        idx = np.minimum(np.searchsorted(grid, pts), len(grid) - 1)
        below = np.maximum(idx - 1, 0)
        idx = np.where(np.abs(grid[below] - pts) < np.abs(grid[idx] - pts), below, idx)
        return idx, np.abs(grid[idx] - pts) <= tol

    base = grid if times is None else np.asarray(times, dtype=float)
    lo, lo_ok = nearest(base)
    hi, hi_ok = nearest(base + delta)
    if times is None:
        if not np.any(hi_ok):
            raise GridError(f"no time on the grid has a partner at +{delta}")
        return base[hi_ok], lo[hi_ok], hi[hi_ok]
    if not np.all(lo_ok & hi_ok):
        missing = np.concatenate((base[~lo_ok], (base + delta)[~hi_ok]))
        raise GridError(f"times not on the path grid: {missing[:5]}")
    return base, lo, hi


def increment_path(path: SamplePath, delta: float, times=None) -> SamplePath:
    """Width-delta increments X(t+delta) - X(t) read off an existing path.

    ``times`` selects the left endpoints (default: every grid time whose
    partner t+delta is also on the grid).  Raises :class:`GridError` when a
    requested pair is absent.
    """
    base, lo, hi = _increment_pairs(path.times, delta, times)
    return SamplePath(base, path.values[hi] - path.values[lo], nondecreasing=False)
