"""The three workloads, their inputs, and the checks on their outputs.

Each workload generates the inputs of pass ``k`` from the benchmark seed
alone, runs one pass through fracdep's public API (the timed part), and
afterwards checks every output against the package's exact formulas.
Monte Carlo runs use ``threads=1``, the library and CLI default.

Why these three (the per-layer predictions are in README.md):

* ``analytic_sweep`` -- specfun, analytic and cli do all the work and sim is
  idle, so a sampler change must read "no change" here.
* ``mc_moments`` -- first passage at an explicit ``stable_step`` is nearly
  all of the time and there is no bootstrap; the explicit step bypasses
  any default-step sampler.
* ``mc_dependence`` -- the default step: long (~1e4-step) paths, increment
  extraction per replication and bootstrap resampling in estimate.
"""

from __future__ import annotations

import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import reference
from checks import Checker, Failed, call


def _ss(seed: int, k: int, tag: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, k, tag])


def _roots(seed: int, k: int, tag: int, n: int) -> list:
    """``n`` 64-bit fracdep seed roots for pass ``k``."""
    return [int(v) for v in _ss(seed, k, tag).generate_state(n, dtype=np.uint64)]


@dataclass
class CliResult:
    code: object
    stdout: str
    stderr: str


def run_cli(cli, argv: list) -> CliResult:
    """``fracdep.cli.main`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code
    return CliResult(code, out.getvalue(), err.getvalue())


def _csv(res: CliResult):
    """(header, rows, comment lines) of a CLI CSV output."""
    lines = [ln for ln in res.stdout.splitlines() if ln]
    comments = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    return header, rows, comments


def _cli_ok(res: CliResult, header: list, n_rows: int):
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()[:200]}"], None
    got_header, rows, comments = _csv(res)
    if got_header != header or rows.shape != (n_rows, len(header)):
        return [f"unexpected table {got_header} with shape {rows.shape}"], None
    return [], (rows, comments)


def _numbers(obj) -> bytes:
    """Canonical bytes of an output, for the sha256 of a pass."""
    if isinstance(obj, Failed):
        return repr(obj).encode()
    if isinstance(obj, CliResult):
        return f"{obj.code}\n{obj.stdout}".encode()
    if isinstance(obj, (list, tuple)):
        return b"".join(_numbers(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return b"".join(_numbers(getattr(obj, f)) for f in obj.__dataclass_fields__)
    if isinstance(obj, str):
        return obj.encode()
    if obj is None:
        return b"None"
    return np.asarray(obj, dtype=float).tobytes()


def digest(out: dict) -> str:
    h = hashlib.sha256()
    for key, value in out.items():
        h.update(repr(key).encode())
        h.update(_numbers(value))
    return h.hexdigest()


class Workload:
    name = ""
    items_per_pass = 0  # Monte Carlo replications or exact evaluation points

    def inputs(self, seed: int, k: int):
        raise NotImplementedError

    def run(self, fd, inp) -> dict:
        raise NotImplementedError

    def check(self, fd, inp, out: dict, ck: Checker) -> None:
        raise NotImplementedError

    @staticmethod
    def cli_bytes(out: dict) -> int:
        return sum(len(v.stdout.encode()) for v in out.values()
                   if isinstance(v, CliResult))


# ---------------------------------------------------------------------------
# analytic_sweep
# ---------------------------------------------------------------------------

T_GRID_SPEC = "geom:100:1e6:25"
T_GRID = np.geomspace(100.0, 1e6, 25)
CURVE_KINDS = ("fpp", "fpn", "fnbp", "fnbn")
FIT_TOL = 0.05  # |d_hat - theoretical exponent|; largest seen on [0.1, 0.9] is 0.018


@dataclass
class SweepInputs:
    betas: list
    cli_beta: float


class AnalyticSweep(Workload):
    """Four curve kinds, fits and labels, exact FPN covariance, Delta up to
    m = 1e6 and three README CLI commands, over a stratified beta grid."""

    name = "analytic_sweep"
    N_BETA = 8
    M_VALUES = (10, 100, 1_000, 10_000, 100_000)
    # m = 1e6 costs as much as the rest of a beta's work, so two strata take it
    M_LARGE, LARGE_STRATA = 1_000_000, (1, 5)
    CLI_M = (10, 100, 1000)
    CLI_T = (1.0, 2.0, 4.0)
    items_per_pass = (N_BETA * (len(CURVE_KINDS) * len(T_GRID) + len(T_GRID) + len(M_VALUES))
                      + len(LARGE_STRATA) + len(CLI_T) + len(T_GRID) + len(CLI_M))

    def m_values(self, i: int) -> tuple:
        return self.M_VALUES + ((self.M_LARGE,) if i in self.LARGE_STRATA else ())

    def inputs(self, seed, k):
        rng = np.random.default_rng(_ss(seed, k, 1))
        # one beta in each of [0.1, 0.2), ..., [0.8, 0.9)
        betas = [float(0.1 * (1 + i + rng.random())) for i in range(self.N_BETA)]
        return SweepInputs(betas, float(rng.uniform(0.1, 0.9)))

    def _argv(self, beta):
        b = repr(beta)
        return {
            "moments": ["moments", "--process", "fpp", "--beta", b, "--lambda", "1",
                        "--t", ",".join(f"{t:g}" for t in self.CLI_T)],
            "corr": ["corr", "--process", "fnbp", "--mode", "analytic", "--beta", b,
                     "--lambda", "1", "--alpha", "1", "--p", "1", "--s", "1",
                     "--t-grid", T_GRID_SPEC],
            "delta": ["delta", "--beta", b, "--lambda", "1", "--n", "2",
                      "--m", ",".join(str(m) for m in self.CLI_M)],
        }

    def run(self, fd, inp):
        analytic, estimate = fd.analytic, fd.estimate
        out = {}
        for i, b in enumerate(inp.betas):
            fpp = fd.FppParams(b, 1.0)
            fnbp = fd.FnbpParams(fpp, fd.GammaParams(1.0, 1.0))
            for kind in CURVE_KINDS:
                params = fpp if kind in ("fpp", "fpn") else fnbp
                delta = 1.0 if kind in ("fpn", "fnbn") else None
                curve = call(estimate.analytic_curve, kind, params, 1.0, T_GRID,
                             delta=delta)
                out[("curve", kind, i)] = curve
                out[("fit", kind, i)] = call(estimate.fit_power_law, curve)
            noise = fd.NoiseParams(fpp, 1.0)
            for j, t in enumerate(T_GRID):
                out[("fpn_cov", i, j)] = call(analytic.fpn_covariance, noise, 1.0, t)
            for m in self.m_values(i):
                out[("delta", i, m)] = call(analytic.delta_statistic, fpp, 2, m)
        for name, argv in self._argv(inp.cli_beta).items():
            out[("cli", name)] = call(run_cli, fd.cli, argv)
        return out

    def check(self, fd, inp, out, ck):
        analytic = fd.analytic
        theory = {"fpp": analytic.fnbp_theoretical_exponent,  # FPP decays like t^-b too
                  "fpn": analytic.fpn_theoretical_exponent,
                  "fnbp": analytic.fnbp_theoretical_exponent,
                  "fnbn": analytic.fnbn_theoretical_exponent}
        for i, b in enumerate(inp.betas):
            fpp = fd.FppParams(b, 1.0)
            fnbp = fd.FnbpParams(fpp, fd.GammaParams(1.0, 1.0))
            noise = fd.NoiseParams(fpp, 1.0)
            var_s = analytic.fpp_variance(fpp, 1.0)
            exact = {
                "fpp": [analytic.fpp_covariance(fpp, 1.0, t)
                        / math.sqrt(var_s * analytic.fpp_variance(fpp, t)) for t in T_GRID],
                "fpn": [analytic.fpn_correlation(noise, 1.0, t) for t in T_GRID],
                "fnbp": [analytic.fnbp_correlation(fnbp, 1.0, t) for t in T_GRID],
                "fnbn": [analytic.fnbn_correlation_asymptotic(
                    fd.NoiseParams(fnbp, 1.0), 1.0, t) for t in T_GRID],
            }
            for kind in CURVE_KINDS:
                want = np.array(exact[kind])
                ck.op(f"analytic_curve {kind} beta={b:.4f}", out[("curve", kind, i)],
                      lambda c, want=want, kind=kind: [
                          ck.close(f"{kind} t", c.t, T_GRID, rel=0.0),
                          ck.close(f"{kind} corr", c.corr, want, rel=1e-9)])
                theo = theory[kind](b)
                # the label is checked only away from the class boundaries
                near_edge = min(abs(theo - e) for e in (0.0, 1.0, 2.0)) < FIT_TOL
                ck.op(f"fit_power_law {kind} beta={b:.4f}", out[("fit", kind, i)],
                      lambda f, theo=theo, near_edge=near_edge, kind=kind: [
                          ck.true(f"{kind} d_hat {f.d_hat} vs {theo}",
                                  abs(f.d_hat - theo) <= FIT_TOL),
                          ck.true(f"{kind} label {f.label}",
                                  near_edge or f.label == analytic.classify_exponent(theo))])
            for j, t in enumerate(T_GRID):
                want = reference.fpn_covariance(b, 1.0, 1.0, 1.0, float(t))
                ck.op(f"fpn_covariance beta={b:.4f} t={t:g}", out[("fpn_cov", i, j)],
                      lambda v, want=want: [ck.close("cov", v, want, rel=1e-7)])
            for m in self.m_values(i):
                want = reference.delta_statistic(b, 1.0, 2, m)
                ck.op(f"delta_statistic beta={b:.4f} m={m}", out[("delta", i, m)],
                      lambda v, want=want: [ck.close("Delta", v, want, rel=1e-9)])
        self._check_cli(fd, inp.cli_beta, out, ck)

    def _check_cli(self, fd, b, out, ck):
        analytic = fd.analytic
        fpp = fd.FppParams(b, 1.0)
        fnbp = fd.FnbpParams(fpp, fd.GammaParams(1.0, 1.0))

        def moments(res):
            problems, parsed = _cli_ok(res, ["t", "mean", "variance"], len(self.CLI_T))
            if parsed is None:
                return problems
            rows, _ = parsed
            return [ck.close("t", rows[:, 0], self.CLI_T, rel=0.0),
                    ck.close("mean", rows[:, 1],
                             [analytic.fpp_mean(fpp, t) for t in self.CLI_T], rel=1e-12),
                    ck.close("variance", rows[:, 2],
                             [analytic.fpp_variance(fpp, t) for t in self.CLI_T], rel=1e-12)]

        def corr(res):
            problems, parsed = _cli_ok(res, ["t", "corr"], len(T_GRID))
            if parsed is None:
                return problems
            rows, _ = parsed
            # the CLI integrates to --rel-tol 1e-10, the library default is 1e-12
            return [ck.close("t", rows[:, 0], T_GRID, rel=1e-15),
                    ck.close("corr", rows[:, 1],
                             [analytic.fnbp_correlation(fnbp, 1.0, t) for t in T_GRID],
                             rel=1e-8)]

        def delta(res):
            problems, parsed = _cli_ok(res, ["m", "delta_analytic"], len(self.CLI_M))
            if parsed is None:
                return problems
            rows, comments = parsed
            bounds = [float(c.split("=", 1)[1]) for c in comments
                      if c.startswith("limit_bound=")]
            return [ck.close("m", rows[:, 0], self.CLI_M, rel=0.0),
                    ck.close("Delta", rows[:, 1],
                             [reference.delta_statistic(b, 1.0, 2, m) for m in self.CLI_M],
                             rel=1e-9),
                    ck.close("limit_bound", bounds, [analytic.delta_limit_bound(fpp, 2)],
                             rel=1e-15)]

        for name, check in (("moments", moments), ("corr", corr), ("delta", delta)):
            ck.op(f"cli {name} beta={b:.4f}", out[("cli", name)], check)


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

class McMoments(Workload):
    """mc_marginal_moments for FPP and FNBP at the acceptance check's explicit
    stable_step on t = {1, 5, 10}, against the exact means and variances."""

    name = "mc_moments"
    BETA = 0.5
    T = np.array([1.0, 5.0, 10.0])
    STEP = 10.0 ** 0.5 / math.gamma(1.5) / 800  # ~800 steps to reach t = 10
    REPS = 1000
    items_per_pass = 2 * REPS

    def inputs(self, seed, k):
        return _roots(seed, k, 2, 2)

    def run(self, fd, roots):
        fpp = fd.FppParams(self.BETA, 1.0)
        fnbp = fd.FnbpParams(fpp, fd.GammaParams(1.0, 1.0))
        out = {}
        for (process, params), root in zip((("fpp", fpp), ("fnbp", fnbp)), roots):
            spec = fd.PathSpec(process, params, self.T, stable_step=self.STEP)
            out[process] = call(fd.estimate.mc_marginal_moments, spec, self.REPS,
                                fd.Seed(root), threads=1)
        return out

    def check(self, fd, roots, out, ck):
        analytic = fd.analytic
        fpp = fd.FppParams(self.BETA, 1.0)
        fnbp = fd.FnbpParams(fpp, fd.GammaParams(1.0, 1.0))
        exact = {
            "fpp": ([analytic.fpp_mean(fpp, t) for t in self.T],
                    [analytic.fpp_variance(fpp, t) for t in self.T]),
            "fnbp": ([analytic.fnbp_mean(fnbp, t) for t in self.T],
                     [analytic.fnbp_variance(fnbp, t) for t in self.T]),
        }
        for process, (mean, var) in exact.items():
            def moments(res, mean=mean, var=var):
                means, variances = res
                return [ck.within_z("mean", [e.value for e in means], mean,
                                    [e.std_error for e in means]),
                        ck.within_z("variance", [e.value for e in variances], var,
                                    [e.std_error for e in variances]),
                        ck.true("replications", all(e.replications == self.REPS
                                                    for e in means + variances))]
            ck.op(f"mc_marginal_moments {process}", out[process], moments)


class McDependence(Workload):
    """Default stable_step: the README FPN increment correlation, an FNBP
    correlation curve and delta_empirical with m up to 1000."""

    name = "mc_dependence"
    FPN_BETA, FPN_T, FPN_REPS = 0.3, np.array([10.0, 20.0, 50.0]), 600
    FNBP_BETA, FNBP_T, FNBP_REPS = 0.5, np.geomspace(2.0, 50.0, 8), 400
    DELTA_BETA, DELTA_N, DELTA_M, DELTA_REPS = 0.5, 2, (10, 100, 1000), 1000
    items_per_pass = FPN_REPS + FNBP_REPS + DELTA_REPS

    def __init__(self) -> None:
        self._exact = None

    def inputs(self, seed, k):
        return _roots(seed, k, 3, 3)

    def fpn_correlation(self, fd, root: int, threads: int = 1):
        """The README's FPN increment correlation; also the thread-speedup slice."""
        spec = fd.PathSpec("fpp", fd.FppParams(self.FPN_BETA, 1.0), self.FPN_T)
        return fd.estimate.mc_correlation(spec, 1.0, self.FPN_T, self.FPN_REPS,
                                          fd.Seed(root), delta=1.0, threads=threads)

    def run(self, fd, roots):
        estimate = fd.estimate
        fnbp = fd.FnbpParams(fd.FppParams(self.FNBP_BETA, 1.0), fd.GammaParams(1.0, 1.0))
        return {
            "fpn_corr": call(self.fpn_correlation, fd, roots[0]),
            "fnbp_corr": call(estimate.mc_correlation,
                              fd.PathSpec("fnbp", fnbp, self.FNBP_T), 1.0, self.FNBP_T,
                              self.FNBP_REPS, fd.Seed(roots[1]), threads=1),
            "delta": call(estimate.delta_empirical, fd.FppParams(self.DELTA_BETA, 1.0),
                          self.DELTA_N, list(self.DELTA_M), self.DELTA_REPS,
                          fd.Seed(roots[2]), threads=1),
        }

    def exact(self, fd) -> dict:
        """Exact targets; the parameters are fixed, so they are computed once."""
        if self._exact is None:
            analytic = fd.analytic
            noise = fd.NoiseParams(fd.FppParams(self.FPN_BETA, 1.0), 1.0)
            var_s = analytic.fpn_variance(noise, 1.0)
            fnbp = fd.FnbpParams(fd.FppParams(self.FNBP_BETA, 1.0), fd.GammaParams(1.0, 1.0))
            delta_params = fd.FppParams(self.DELTA_BETA, 1.0)
            self._exact = {
                "fpn_corr": np.array([analytic.fpn_covariance(noise, 1.0, t)
                                      / math.sqrt(var_s * analytic.fpn_variance(noise, t))
                                      for t in self.FPN_T]),
                "fnbp_corr": np.array([analytic.fnbp_correlation(fnbp, 1.0, t)
                                       for t in self.FNBP_T]),
                "delta": np.array([analytic.delta_statistic(delta_params, self.DELTA_N, m)
                                   for m in self.DELTA_M]),
            }
        return self._exact

    def check(self, fd, roots, out, ck):
        exact = self.exact(fd)
        # FPN increments are sparse (at t = 50 about 2% of replications see an
        # event), so a bootstrap can miss the rare coincidences that carry the
        # correlation and report a standard error near zero.  The large-sample
        # error (1 - rho^2)/sqrt(reps) of a sample correlation is the floor.
        for key, grid, reps in (("fpn_corr", self.FPN_T, self.FPN_REPS),
                                ("fnbp_corr", self.FNBP_T, self.FNBP_REPS)):
            rho = exact[key]
            ck.op(f"mc_correlation {key[:-5]}", out[key],
                  lambda c, key=key, grid=grid, rho=rho, reps=reps: [
                      ck.close("t", c.t, grid, rel=0.0),
                      ck.within_z("corr", c.corr, rho, c.std_error,
                                  se_floor=(1.0 - rho ** 2) / np.sqrt(reps))])
        # against the exact ratio, never the claimed limit bound (which fails)
        ck.op("delta_empirical", out["delta"], lambda d: [
            ck.close("m", d.m, self.DELTA_M, rel=0.0),
            ck.within_z("Delta", d.value, exact["delta"], d.std_error)])


WORKLOADS = {w.name: w for w in (AnalyticSweep(), McMoments(), McDependence())}
