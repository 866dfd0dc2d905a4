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

Replications are sampled in groups (:func:`sample_batch`), one stream per
replication: the stages run on a whole group of rows at once, but every
row draws from its own stream, in stage order and in the amounts it would
alone, so a (root, stream) pair reproduces a path bit-for-bit whatever
group it lands in; :func:`sample_process_path` is the one-row case.  First
passage draws the uniform V and exponential W of Kanter's construction a
whole chunk at a time per row, but transforms and sums them only up to the
column block in which the row's subordinator passes its last target.  The
draws past passage are discarded untransformed, so neither the stream nor
the path depends on where the transform stops.
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
    "sample_batch",
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
# replications are sampled in groups of rows, one stream per row: up to
# GROUP_ROWS rows, holding at most GROUP_ELEMENTS grid values, go through the
# stages together, and first passage draws and sums their chunks in batches
# of at most GROUP_ELEMENTS stable steps (or one row), ~1 MB each of V and W:
# ~40 rows of ~1600 steps, or 3 default-step rows of ~2e4.  Larger groups
# fill the batches of the rows that need a second chunk; a group's
# generators take ~1 kB each
GROUP_ROWS = 1024
GROUP_ELEMENTS = 2 ** 16
# first passage transforms a batch's stable steps one column block at a
# time, across the rows that have not yet passed their last target.  Each
# block costs a fixed overhead of about PASSAGE_BLOCK_COST transforms, and
# each row wastes on average half of the block in which it passes, so for
# r live rows within chunks of c steps the width sqrt(cost * c / r), and at
# least MIN_PASSAGE_BLOCK columns, minimises the sum: ~2500 for a lone
# default-step row, ~110 for 40 rows of ~1600 steps
PASSAGE_BLOCK_COST = 300
MIN_PASSAGE_BLOCK = 64
# rows of at most SHORT_ROW grid values draw their gamma and Poisson
# increments value by value
SHORT_ROW = 16
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
#
# Each stage maps the 2-d values of a group of rows, one generator per row,
# to the next.


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
    past every level).  V and W are clipped below at 1e-300 (the open
    interval), as in first passage.
    """
    if not (0.0 < beta < 1.0):
        raise DomainError(f"beta must be in (0, 1), got {beta}")
    scalar = size is None
    n = 1 if scalar else size
    v = np.maximum(rng.random(n), 1e-300)
    w = np.maximum(rng.standard_exponential(n), 1e-300)
    with np.errstate(over="ignore"):
        s = _kanter(beta, v, w)
    return float(s[0]) if scalar else s


def _auto_step(beta: float, t_char: float, target_steps: int = DEFAULT_TARGET_STEPS) -> float:
    """Step so the expected number of stable steps to exceed t_char is ~target."""
    return t_char ** beta / math.exp(math.lgamma(1.0 + beta)) / target_steps


def _first_passage(beta: float, targets: np.ndarray, step, rngs: list,
                   max_steps: int) -> np.ndarray:
    """E_b at nondecreasing targets via first passage of a discretized
    stable subordinator D(k*step) = sum step^{1/b} S_k, one row of
    ``targets`` per generator in ``rngs``; ``step`` is one for all rows or
    one per row.

    Each row draws the uniform V and exponential W of Kanter's construction
    a whole chunk at a time (twice its expected passage count), as it would
    alone, and the rows then transform and sum their chunks together (see
    :func:`_pass_chunks`), in batches of at most GROUP_ELEMENTS steps.  A
    row still below its last target at the end of its chunk draws another.
    """
    steps = [step] * len(rngs) if np.ndim(step) == 0 else list(step)
    out = np.zeros(targets.shape)
    coef = math.exp(math.lgamma(1.0 + beta))
    rows, chunk, scale = [], [], []
    for k, (t_max, s) in enumerate(zip(targets[:, -1].tolist(), steps)):
        if t_max == 0.0:
            continue
        # a huge count (a tiny step) only caps the chunk
        expected = max(16, int(min(t_max ** beta / coef / s, 2.0 ** 20)))
        try:
            scale_k = s ** (1.0 / beta)
        except OverflowError:
            raise NumericalError(
                f"stable_step={s} overflows step^(1/beta); decrease it") from None
        if scale_k == 0.0:
            raise NumericalError(f"stable_step={s} underflows step^(1/beta); increase it")
        rows.append(k)
        chunk.append(int(min(max(1024, 2 * expected), 2 ** 20)))
        scale.append(scale_k)
    state = _PassageState(targets[rows], np.array(scale), [rngs[k] for k in rows])
    total = [0] * len(rows)
    todo = list(range(len(rows)))  # rows still at or below their last target
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while todo:
            n = {}
            for j in todo:
                if total[j] >= max_steps:
                    raise ResourceCapError(
                        f"first passage needed more than max_steps={max_steps} steps")
                n[j] = min(chunk[j], max_steps - total[j])
                total[j] += n[j]
            # equal batches of the widest rows first, each within the budget
            todo.sort(key=n.__getitem__, reverse=True)
            batches = -(-len(todo) // max(1, GROUP_ELEMENTS // n[todo[0]]))
            size = -(-len(todo) // batches)
            again = []
            for lo in range(0, len(todo), size):
                batch = todo[lo:lo + size]
                again += _pass_chunks(beta, state, batch, [n[j] for j in batch])
            todo = again
    if rows:
        out[rows] = ((state.count + 1).astype(float)
                     * np.array(steps, dtype=float)[rows, None])
        bad = np.flatnonzero(~np.isfinite(out[rows, -1]))  # the largest times
        if len(bad):
            raise NumericalError(f"first-passage times overflowed at "
                                 f"stable_step={steps[rows[bad[0]]]}; decrease it")
    return out


class _PassageState:
    """First-passage rows in progress: targets, step scale and generator of
    each, the level D has reached, and the D values counted at or below
    each target."""

    def __init__(self, targets: np.ndarray, scale: np.ndarray, rngs: list) -> None:
        self.targets, self.scale, self.rngs = targets, scale, rngs
        self.level = np.zeros(len(rngs))
        self.count = np.zeros(targets.shape, dtype=np.intp)


def _pass_chunks(beta: float, state: _PassageState, rows: list, n: list) -> list:
    """Draw and sum one chunk of n[i] steps for each row rows[i] of
    ``state``; returns the rows still at or below their last target at the
    end of their chunk.

    The chunks are transformed and summed one column block at a time,
    across the rows that have not yet passed, and a row drops out at the
    block in which D passes its last target; the draws past that are
    discarded untransformed.  The running sum is carried into the first
    element of each block and the chunk's base (the level D had reached) is
    added after, so a row's D is bitwise its chunk's sequential cumsum plus
    the base, whatever the block widths: rows of different chunk lengths
    share blocks, and the width follows the number of live rows.  Each block
    of V and W is gathered into contiguous buffers, on which the transform
    is fastest.  A row's D is counted against its targets when it drops
    out; over several chunks the counts add up, since D is nondecreasing.
    """
    v = np.empty((len(rows), max(n)))
    w = np.empty_like(v)
    for i, j in enumerate(rows):
        state.rngs[j].random(out=v[i, :n[i]])
        state.rngs[j].standard_exponential(out=w[i, :n[i]])
    np.maximum(v, 1e-300, out=v)  # open interval (0, 1)
    np.maximum(w, 1e-300, out=w)
    d = v  # each block's D overwrites the V it was computed from
    rows, n = np.array(rows), np.array(n)
    live = np.arange(len(rows))  # the buffer rows still summing
    base, run = state.level[rows], np.zeros(len(rows))
    t_max, row_scale = state.targets[rows, -1], state.scale[rows, None]
    shortest, widest = int(n.min()), v.shape[1]
    again = []
    lo = 0
    while len(live):
        width = max(MIN_PASSAGE_BLOCK,
                    int(math.sqrt(PASSAGE_BLOCK_COST * widest / len(live))))
        hi = lo + width
        x = _kanter(beta, v[live, lo:hi].ravel(), w[live, lo:hi].ravel())
        x = x.reshape(len(live), -1)
        x *= row_scale
        x[:, 0] += run
        part = np.cumsum(x, axis=1)
        seg = part + base[:, None]
        d[live, lo:hi] = seg
        if hi < shortest:
            lev = seg[:, -1]
        else:  # a short chunk may end inside the block
            lev = seg[np.arange(len(live)), np.minimum(n, hi) - lo - 1]
        if math.isnan(lev.sum()):
            raise NumericalError("stable increment sum became NaN")
        passed = lev > t_max
        done = passed | (n <= hi) if hi >= shortest else passed
        if done.any():
            ends = np.minimum(n[done], hi).tolist()
            for i, j, end in zip(live[done].tolist(), rows[done].tolist(), ends):
                state.count[j] += np.searchsorted(d[i, :end], state.targets[j],
                                                  side="right")
            below = done & ~passed
            state.level[rows[below]] = lev[below]
            again += rows[below].tolist()
            keep = ~done
            live, rows, n, base = live[keep], rows[keep], n[keep], base[keep]
            t_max, row_scale, run = t_max[keep], row_scale[keep], part[keep, -1]
        else:
            run = part[:, -1]
        lo = hi
    return again


def _inverse_stable_values(beta: float, targets: np.ndarray, step: Optional[float],
                           rngs: list, max_steps: int) -> np.ndarray:
    """E_b at rows of nondecreasing targets >= 0, one per generator in
    ``rngs``; ``step=None`` takes each row's default step for its last
    target, and beta == 1 is the identity clock (a copy of the targets)."""
    if beta == 1.0:
        return targets.copy()
    if step is None:
        step = [_auto_step(beta, max(t, 1e-300)) for t in targets[:, -1].tolist()]
    return _first_passage(beta, targets, step, rngs, max_steps)


def _draw_rows(method: str, params: np.ndarray, rngs, dtype) -> np.ndarray:
    """Row k holds ``rngs[k].<method>(params[k])``.  Short rows draw value
    by value, which gives the same draws: numpy's samplers spend ~10 us per
    call on an array parameter before they draw."""
    out = np.empty(params.shape, dtype=dtype)
    if params.shape[1] > SHORT_ROW:
        for row, g, p in zip(out, rngs, params):
            row[:] = getattr(g, method)(p)
    else:
        for row, g, p in zip(out, rngs, params.tolist()):
            draw = getattr(g, method)
            row[:] = [draw(x) for x in p]
    return out


def _gamma_values(gamma: GammaParams, grid: np.ndarray, rngs: list) -> np.ndarray:
    """Gamma subordinator at a strictly increasing positive grid, one row
    per generator.  A gamma(k, s) draw is s times a standard gamma(k) draw,
    so each row's standard draws are scaled together."""
    shape = gamma.p * np.diff(np.concatenate(([0.0], grid)))
    y = _draw_rows("standard_gamma", np.broadcast_to(shape, (len(rngs), len(grid))),
                   rngs, float)
    return np.cumsum(y * (1.0 / gamma.alpha), axis=1)


def _poisson_compose(lam: float, clock: np.ndarray, rngs: list) -> np.ndarray:
    """Counts of a rate-lam Poisson process evaluated at each row of
    nondecreasing clock times, one row per generator.

    The last clock time of a row bounds every increment and the mean of its
    final count, so one check on it rejects an overflowed (inf or nan) clock
    before ``np.diff`` turns inf - inf into a warning, and any mean numpy's
    sampler or the int64 count would not hold.
    """
    mean_total = lam * clock[:, -1]
    bad = np.flatnonzero(~(mean_total <= _POISSON_MEAN_MAX))
    if len(bad):
        raise NumericalError(f"Poisson mean lam*clock={mean_total[bad[0]]:g} exceeds "
                             f"the sampler's limit {_POISSON_MEAN_MAX:g}; decrease "
                             "stable_step or the time scale")
    mean = lam * np.diff(clock, axis=1, prepend=0.0)
    return np.cumsum(_draw_rows("poisson", mean, rngs, np.int64), axis=1).astype(float)


# ---------------------------------------------------------------------------
# Composite processes
# ---------------------------------------------------------------------------

def _sample_group(spec: PathSpec, seed: Seed, streams) -> np.ndarray:
    """The paths of one group of streams, stage by stage across its rows,
    each row drawing from its own stream in stage order."""
    rngs = [seed.child(stream).rng() for stream in streams]
    _, gamma, stable, count = _STAGES[spec.process]
    params = spec.params
    fpp = getattr(params, "fpp", params)
    # spec.t_grid is already validated, so the stages pass arrays and only
    # the returned paths are checked
    values = np.broadcast_to(spec.t_grid, (len(rngs), len(spec.t_grid)))
    if gamma:
        values = _gamma_values(getattr(params, "gamma", params), spec.t_grid, rngs)
    if stable:
        values = _inverse_stable_values(fpp.beta, values, spec.stable_step,
                                        rngs, spec.max_steps)
    if count:
        values = _poisson_compose(fpp.lam, values, rngs)
    # the checks of SamplePath, one group at a time
    if np.any(values[:, 0] < 0.0):
        raise DomainError("values must be nonnegative")
    if np.any(np.diff(values, axis=1) < 0.0):
        raise DomainError("values must be nondecreasing")
    return values


def sample_batch(spec: PathSpec, seed: Seed, streams) -> np.ndarray:
    """The len(streams) x len(spec.t_grid) path matrix whose row k is the
    path of replication ``seed.child(streams[k])``.

    Rows are sampled in groups (see GROUP_ROWS); each row draws from
    its own stream, in stage order and in the amounts it would alone, so a
    row never depends on the group it is in.  A failing group is replayed
    row by row, so the error raised is that of the first failing row.
    """
    streams = list(streams)
    out = np.empty((len(streams), len(spec.t_grid)))
    size = max(1, min(GROUP_ROWS, GROUP_ELEMENTS // len(spec.t_grid)))
    for lo in range(0, len(streams), size):
        group = streams[lo:lo + size]
        try:
            out[lo:lo + len(group)] = _sample_group(spec, seed, group)
        except (DomainError, NumericalError, ResourceCapError):
            for stream in group:
                _sample_group(spec, seed, [stream])
            raise
    return out


def sample_process_path(spec: PathSpec, seed: Seed) -> SamplePath:
    """One replication of the requested process on spec.t_grid: its stages
    of gamma clock, inverse-stable clock and Poisson count, in that order
    (the one-row case of :func:`sample_batch`)."""
    return SamplePath(spec.t_grid, sample_batch(spec, seed, [seed.stream])[0])


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
