"""Span tracer that wraps fracdep's public functions from outside the package.

Each wrapper replaces a function at the name a consuming module imported it
under (``fracdep.analytic.adaptive_quad`` is what analytic calls, the
``fracdep.estimate.sample_process_path`` binding is what the Monte Carlo
engine calls, and so on), records one span per call and restores the
original on exit.  Nothing under ``src/`` is modified.  Only the bindings
the workloads reach are wrapped: ``fracdep.cli.sample_process_path``, used
by ``fracdep simulate`` alone, is not.

A span is ``[name, start, end, parent, data]``; ``parent`` is the index of
the enclosing span or -1.  The layer of a span is the first component of
its name, which is the fracdep module that defines the function.  Spans stay
in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager

# analytic functions called across a module boundary (by estimate, cli or
# the benchmark); calls between them inside analytic nest as analytic spans
ANALYTIC_POINT_FUNCTIONS = (
    "fpp_mean", "fpp_variance", "fpp_covariance",
    "fpn_covariance", "fpn_variance", "fpn_correlation",
    "fnbp_mean", "fnbp_variance", "fnbp_covariance", "fnbp_correlation",
    "fnbn_correlation_asymptotic", "delta_statistic", "delta_limit_bound",
)
ESTIMATE_FUNCTIONS = ("analytic_curve", "mc_correlation", "mc_marginal_moments",
                      "delta_empirical", "fit_power_law")
CLI_IMPORTED_ESTIMATE = ("analytic_curve", "mc_correlation", "delta_empirical",
                         "fit_power_law")

QUAD = "specfun.adaptive_quad"
INC_BETA = "specfun.inc_beta"
PATH = "sim.sample_process_path"
RNG = "sim.Seed.rng"
STABLE = "sim.sample_positive_stable"
DELTA = "analytic.delta_statistic"

# per-pass metrics that are counts: reported from one pass, they repeat
# exactly for a given seed; every other metric is a median over passes
COUNT_METRICS = (
    "specfun.quad_calls", "specfun.quad_nodes", "specfun.inc_beta_calls",
    "analytic.points", "sim.paths", "sim.stable_draws_per_path",
    "sim.stable_used_frac", "estimate.increment_path_calls",
)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, fracdep_modules) -> None:
        self.mods = fracdep_modules
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._saved: list = []

    def span(self, name, fn, data=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   data(*args, **kwargs) if data is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        analytic, estimate, sim, cli = (self.mods["analytic"], self.mods["estimate"],
                                        self.mods["sim"], self.mods["cli"])
        counts = self.counts

        quad = self.span(QUAD, analytic.adaptive_quad)

        def adaptive_quad(f, a, b, *rest, **kwargs):
            def counted(x):
                counts["specfun.quad_nodes"] += len(x)
                return f(x)
            return quad(counted, a, b, *rest, **kwargs)

        self._patch(analytic, "adaptive_quad", adaptive_quad)
        self._patch(analytic, "inc_beta", self.span(INC_BETA, analytic.inc_beta))
        for name in ANALYTIC_POINT_FUNCTIONS:
            data = (lambda params, n, m: m) if name == "delta_statistic" else None
            self._patch(analytic, name,
                        self.span(f"analytic.{name}", getattr(analytic, name), data))

        self._patch(estimate, "sample_process_path",
                    self.span(PATH, estimate.sample_process_path, lambda spec, seed: spec))
        self._patch(sim, "sample_positive_stable",
                    self.span(STABLE, sim.sample_positive_stable,
                              lambda beta, rng, size=None: 1 if size is None else int(size)))
        self._patch(sim.Seed, "rng", self.span(RNG, sim.Seed.rng))

        increment_path = estimate.increment_path

        def counted_increment_path(*args, **kwargs):
            counts["estimate.increment_path_calls"] += 1
            return increment_path(*args, **kwargs)

        self._patch(estimate, "increment_path", counted_increment_path)
        for name in ESTIMATE_FUNCTIONS:
            self._patch(estimate, name,
                        self.span(f"estimate.{name}", getattr(estimate, name)))
        for name in CLI_IMPORTED_ESTIMATE:
            self._patch(cli, name, self.span(f"estimate.{name}", getattr(cli, name)))
        self._patch(cli, "main", self.span("cli.main", cli.main))

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Trace one pass; yields the index of its first span."""
        self.counts.clear()
        first = len(self.spans)
        self._install()
        try:
            yield first
        finally:
            self._uninstall()


def _median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def pass_metrics(spans: list, lo: int, counts: Counter) -> dict:
    """Per-layer metrics of the spans recorded from index ``lo`` on."""
    recs = spans[lo:]
    n = len(recs)
    dur = [r[2] - r[1] for r in recs]
    child = [0.0] * n
    kids: list = [[] for _ in range(n)]
    for i, r in enumerate(recs):
        if r[3] >= lo:
            child[r[3] - lo] += dur[i]
            kids[r[3] - lo].append(i)
    names = [r[0] for r in recs]
    layers = [_layer(nm) for nm in names]

    def parent_layer(i):
        p = recs[i][3]
        return layers[p - lo] if p >= lo else None

    def self_s(layer):
        return sum(dur[i] - child[i] for i in range(n) if layers[i] == layer)

    m: dict = {}
    quad = [i for i in range(n) if names[i] == QUAD]
    inc = [i for i in range(n) if names[i] == INC_BETA]
    m["specfun.quad_calls"] = len(quad)
    m["specfun.quad_nodes"] = counts["specfun.quad_nodes"]
    m["specfun.quad_s"] = sum(dur[i] for i in quad)
    m["specfun.inc_beta_calls"] = len(inc)
    m["specfun.inc_beta_s"] = sum(dur[i] for i in inc)

    outer = [i for i in range(n)
             if layers[i] == "analytic" and parent_layer(i) != "analytic"]
    m["analytic.points"] = len(outer)
    m["analytic.point_us"] = (sum(dur[i] for i in outer) / len(outer) * 1e6
                              if outer else 0.0)
    m["analytic.self_s"] = self_s("analytic")
    deltas = [i for i in range(n) if names[i] == DELTA]
    m_max = max((recs[i][4] for i in deltas), default=None)
    m["analytic.delta_statistic_ms"] = _median_or_zero(
        [dur[i] * 1e3 for i in deltas if recs[i][4] == m_max])

    paths = [i for i in range(n) if names[i] == PATH]
    n_paths = len(paths)
    rng_s = 0.0
    stable_s = 0.0
    draws = 0
    expected_used = 0.0
    explicit_draws = 0
    for i in paths:
        path_draws = 0
        for c in kids[i]:
            if names[c] == RNG:
                rng_s += dur[c]
            elif names[c] == STABLE:
                stable_s += dur[c]
                path_draws += recs[c][4]
        draws += path_draws
        spec = recs[i][4]
        if spec.process == "fpp" and spec.stable_step is not None and path_draws:
            beta = spec.params.beta
            t_max = float(spec.t_grid[-1])
            expected_used += t_max ** beta / math.gamma(1.0 + beta) / spec.stable_step
            explicit_draws += path_draws
    m["sim.paths"] = n_paths
    m["sim.path_us"] = sum(dur[i] for i in paths) / n_paths * 1e6 if n_paths else 0.0
    m["sim.rng_us_per_path"] = rng_s / n_paths * 1e6 if n_paths else 0.0
    m["sim.stable_draws_per_path"] = draws / n_paths if n_paths else 0.0
    m["sim.stable_us_per_draw"] = stable_s / draws * 1e6 if draws else 0.0
    m["sim.stable_used_frac"] = expected_used / explicit_draws if explicit_draws else 0.0

    per_rep_s = 0.0
    post_sim_s = 0.0
    for i in range(n):
        if layers[i] != "estimate":
            continue
        sim_kids = [c for c in kids[i] if names[c] == PATH]
        if not sim_kids:
            continue
        first = recs[sim_kids[0]][1]
        last = recs[sim_kids[-1]][2]
        during = [c for c in kids[i] if first <= recs[c][1] < last]
        after = [c for c in kids[i] if recs[c][1] >= last]
        per_rep_s += (last - first) - sum(dur[c] for c in during)
        post_sim_s += (recs[i][2] - last) - sum(dur[c] for c in after)
    m["estimate.self_s"] = self_s("estimate")
    m["estimate.per_rep_us"] = per_rep_s / n_paths * 1e6 if n_paths else 0.0
    m["estimate.increment_path_calls"] = counts["estimate.increment_path_calls"]
    m["estimate.post_sim_s"] = post_sim_s
    m["cli.self_s"] = self_s("cli")
    return m


def combine_passes(per_pass: list) -> dict:
    """Counts from the first traced pass, medians over passes for the rest."""
    out = {}
    for key in per_pass[0]:
        if key in COUNT_METRICS:
            out[key] = per_pass[0][key]
        else:
            out[key] = _median_or_zero([p[key] for p in per_pass])
    return out
