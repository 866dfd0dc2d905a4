"""Command-line front end: moments, corr, classify, delta, simulate.

Every run is reproducible from its output alone: the full parameter set
and seed are echoed as ``#`` comment lines (CSV) or a ``meta`` object
(JSON), numbers are written in shortest round-trip form, and data rows are
byte-identical for any ``--threads`` value.

Exit codes: 0 on success, 2 for validation errors, 3 for numerical or
convergence failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from . import analytic, estimate
from .analytic import FnbpParams, FppParams, GammaParams
from .errors import (ConvergenceError, DomainError, GridError, NumericalError,
                     ResourceCapError)
from .estimate import (CorrelationCurve, analytic_curve, delta_empirical,
                       fit_power_law, mc_correlation)
from .sim import PROCESSES, PathSpec, Seed, sample_process_path

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(v) -> str:
    # np.float64 subclasses float, but its repr is "np.float64(...)" in numpy 2
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _grid_number(field: str, text: str, kind=float):
    try:
        return kind(field)
    except ValueError:
        raise DomainError(f"malformed number {field!r} in grid spec {text!r}") from None


def parse_grid(text: str) -> np.ndarray:
    """Grid mini-language: ``geom:start:stop:count``, ``lin:start:stop:count``,
    or a comma-separated list of values."""
    parts = text.split(":")
    if parts[0] in ("geom", "lin"):
        if len(parts) != 4:
            raise DomainError(f"grid spec needs 3 fields after '{parts[0]}:', got {text!r}")
        start, stop = _grid_number(parts[1], text), _grid_number(parts[2], text)
        count = _grid_number(parts[3], text, int)
        if not (np.isfinite(start) and np.isfinite(stop)):
            raise DomainError(f"grid spec {text!r} has a non-finite bound")
        if count < 1:
            raise DomainError(f"grid count must be >= 1, got {count}")
        if parts[0] == "geom":
            if start <= 0 or stop <= start:
                raise DomainError(f"geom grid needs 0 < start < stop, got {text!r}")
            return np.geomspace(start, stop, count)
        if stop <= start:
            raise DomainError(f"lin grid needs start < stop, got {text!r}")
        return np.linspace(start, stop, count)
    vals = np.array([_grid_number(v, text) for v in text.split(",") if v.strip() != ""])
    if len(vals) == 0:
        raise DomainError(f"empty grid spec {text!r}")
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"grid spec {text!r} has a non-finite value")
    if np.any(np.diff(vals) <= 0):
        raise DomainError("grid values must be strictly increasing")
    return vals


def _native(v):
    if isinstance(v, np.floating):
        return float(v)
    if isinstance(v, np.integer):
        return int(v)
    return v


def _emit(args, meta: dict, columns: Sequence[str], rows, footers: Sequence[str] = ()):
    if args.output == "json":
        doc = {"meta": {k: _native(v) for k, v in meta.items()},
               "data": [dict(zip(columns, map(_native, row))) for row in rows]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        lines.extend(f"# {f}" for f in footers)
        text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_threads(threads: int) -> int:
    if threads == 0:
        return min(4, os.cpu_count() or 1)
    return threads


# ---------------------------------------------------------------------------
# Parameter assembly
# ---------------------------------------------------------------------------

def _fpp_params(args) -> FppParams:
    if args.beta is None or args.lam is None:
        raise DomainError("--beta and --lambda are required for this process")
    return FppParams(beta=args.beta, lam=args.lam)


def _gamma_params(args) -> GammaParams:
    if args.alpha is None or args.p is None:
        raise DomainError(f"--alpha and --p are required for --process {args.process}")
    return GammaParams(alpha=args.alpha, p=args.p)


def _fnbp_params(args) -> FnbpParams:
    gamma = _gamma_params(args)  # checked before the FPP flags
    return FnbpParams(fpp=_fpp_params(args), gamma=gamma)


# --process: (parameter builder, simulated process); the increment kinds
# fpn and fnbn are read off paths of the fpp and the fnbp
_KINDS = {
    "poisson": (_fpp_params, "poisson"),
    "inv_stable": (_fpp_params, "inv_stable"),
    "fpp": (_fpp_params, "fpp"),
    "fpn": (_fpp_params, "fpp"),
    "gamma": (_gamma_params, "gamma"),
    "nb": (_fnbp_params, "nb"),
    "fnbp": (_fnbp_params, "fnbp"),
    "fnbn": (_fnbp_params, "fnbp"),
}


def _needs_delta(args) -> float:
    if args.delta is None:
        raise DomainError("--delta is required for increment (noise) processes")
    return args.delta


def _meta(args, **extra) -> dict:
    meta = {"command": args.command, "process": getattr(args, "process", None)}
    for key in ("beta", "lam", "alpha", "p", "delta", "s", "n", "mode",
                "reps", "seed", "threads", "stable_step", "rel_tol", "t_min"):
        val = getattr(args, key, None)
        if val is not None:
            name = {"lam": "lambda"}.get(key, key)
            meta[name] = val
    meta.update(extra)
    return {k: v for k, v in meta.items() if v is not None}


def _build_path_spec(args, kind: str, t_grid: np.ndarray) -> PathSpec:
    build, process = _KINDS[kind]
    return PathSpec(process, build(args), t_grid, stable_step=args.stable_step)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    t = parse_grid(args.t)
    if args.process == "fpp":
        params = _fpp_params(args)
        rows = [(float(ti), analytic.fpp_mean(params, ti),
                 analytic.fpp_variance(params, ti)) for ti in t]
    elif args.process == "fnbp":
        params = _fnbp_params(args)
        rows = [(float(ti), analytic.fnbp_mean(params, ti),
                 analytic.fnbp_variance(params, ti)) for ti in t]
    else:
        raise DomainError("moments supports --process fpp or fnbp")
    _emit(args, _meta(args, t=args.t), ("t", "mean", "variance"), rows)
    return EXIT_OK


def _make_curve(args) -> CorrelationCurve:
    t_grid = parse_grid(args.t_grid)
    kind = args.process
    if kind is None:
        raise DomainError("--process is required unless --in is given")
    if args.s is None:
        raise DomainError("--s is required for correlation curves")
    delta = _needs_delta(args) if kind in ("fpn", "fnbn") else None
    if args.mode == "analytic":
        params = _KINDS[kind][0](args)
        cfg = replace(analytic.COV_QUAD, rel_tol=args.rel_tol)
        return analytic_curve(kind, params, args.s, t_grid, delta=delta, cfg=cfg)
    spec = _build_path_spec(args, kind, t_grid)
    return mc_correlation(spec, args.s, t_grid, reps=args.reps,
                          seed=Seed(args.seed), delta=delta,
                          threads=_resolve_threads(args.threads))


def _curve_rows(curve: CorrelationCurve):
    if curve.std_error is None:
        cols = ("t", "corr")
        rows = [(float(t), float(c)) for t, c in zip(curve.t, curve.corr)]
    else:
        cols = ("t", "corr", "std_error")
        rows = [(float(t), float(c), float(e))
                for t, c, e in zip(curve.t, curve.corr, curve.std_error)]
    return cols, rows


def cmd_corr(args) -> int:
    curve = _make_curve(args)
    cols, rows = _curve_rows(curve)
    _emit(args, _meta(args, t_grid=args.t_grid, source=curve.source), cols, rows)
    return EXIT_OK


def _read_curve(stream) -> CorrelationCurve:
    meta = {}
    header = None
    data = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if "=" in body:
                k, v = body.split("=", 1)
                meta[k.strip()] = v.strip()
            continue
        if header is None:
            header = [c.strip() for c in line.split(",")]
            continue
        data.append([float(v) for v in line.split(",")])
    if header is None or not data:
        raise DomainError("no curve data found on input")
    cols = {name: np.array([row[i] for row in data]) for i, name in enumerate(header)}
    if "t" not in cols or "corr" not in cols:
        raise DomainError("curve input needs 't' and 'corr' columns")
    s = float(meta.get("s", 0.0))
    delta = float(meta["delta"]) if "delta" in meta else None
    source = meta.get("source", estimate.EMPIRICAL if "std_error" in cols
                       else estimate.ANALYTIC)
    return CorrelationCurve(s=s, delta=delta, t=cols["t"], corr=cols["corr"],
                            std_error=cols.get("std_error"), source=source)


def cmd_classify(args) -> int:
    if args.infile is not None:
        stream = sys.stdin if args.infile == "-" else open(args.infile, "r", encoding="utf-8")
        try:
            curve = _read_curve(stream)
        finally:
            if stream is not sys.stdin:
                stream.close()
    else:
        curve = _make_curve(args)
    fit = fit_power_law(curve, t_min_cutoff=args.t_min)
    cols = ["d_hat", "c_hat", "r_squared", "label", "n_points"]
    row = [fit.d_hat, fit.c_hat, fit.r_squared, fit.label, fit.n_points]
    process = getattr(args, "process", None)
    if process in analytic.THEORETICAL_EXPONENTS and args.beta is not None:
        theo = analytic.THEORETICAL_EXPONENTS[process](args.beta)
        cols += ["theoretical_exponent", "abs_error"]
        row += [theo, abs(fit.d_hat - theo)]
    _emit(args, _meta(args), cols, [tuple(row)])
    return EXIT_OK


def cmd_delta(args) -> int:
    params = _fpp_params(args)
    if args.n is None or args.m is None:
        raise DomainError("--n and --m are required for delta")
    m_values = [int(v) for v in parse_grid(args.m)]
    bound = analytic.delta_limit_bound(params, args.n)
    rows = []
    if args.empirical:
        table = delta_empirical(params, args.n, m_values, reps=args.reps,
                                seed=Seed(args.seed),
                                threads=_resolve_threads(args.threads),
                                stable_step=args.stable_step)
        for k, m in enumerate(table.m):
            rows.append((int(m), analytic.delta_statistic(params, args.n, int(m)),
                         float(table.value[k]), float(table.std_error[k])))
        cols = ("m", "delta_analytic", "delta_empirical", "std_error")
    else:
        for m in m_values:
            rows.append((m, analytic.delta_statistic(params, args.n, m)))
        cols = ("m", "delta_analytic")
    footer = f"limit_bound C^2(n,beta)/C(n,2beta)={_fmt(bound)}"
    _emit(args, _meta(args, m=args.m, limit_bound=bound), cols, rows,
          footers=(footer,))
    return EXIT_OK


def cmd_simulate(args) -> int:
    t_grid = parse_grid(args.t_grid)
    if args.reps < 1:
        raise DomainError(f"--reps must be >= 1, got {args.reps}")
    spec = _build_path_spec(args, args.process, t_grid)
    rows = []
    for rep in range(args.reps):
        path = sample_process_path(spec, Seed(args.seed, rep))
        rows.extend((rep, float(t), float(v))
                    for t, v in zip(path.times, path.values))
    _emit(args, _meta(args, t_grid=args.t_grid), ("replication", "t", "value"), rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sp, *, grids=(), needs_mode=False, needs_reps=False):
    sp.add_argument("--beta", type=float, help="fractional index in (0, 1]")
    sp.add_argument("--lambda", dest="lam", type=float, help="Poisson rate")
    sp.add_argument("--alpha", type=float, help="gamma subordinator rate")
    sp.add_argument("--p", type=float, help="gamma subordinator shape rate")
    sp.add_argument("--delta", type=float, help="increment width")
    sp.add_argument("--s", type=float, help="fixed earlier time")
    if "t" in grids:
        sp.add_argument("--t", type=str, help="time list, e.g. 1,2,3")
    if "t_grid" in grids:
        sp.add_argument("--t-grid", dest="t_grid", type=str,
                        help="grid spec: geom:a:b:n, lin:a:b:n, or comma list")
    if needs_mode:
        sp.add_argument("--mode", choices=("analytic", "empirical"),
                        default="analytic")
    if needs_reps:
        sp.add_argument("--reps", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--threads", type=int, default=1,
                    help="0 = auto, otherwise explicit thread count")
    sp.add_argument("--stable-step", dest="stable_step", type=float,
                    help="internal step of the stable-path inversion")
    sp.add_argument("--rel-tol", dest="rel_tol", type=float, default=1e-10)
    sp.add_argument("--output", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", type=str, default="-", help="output path or - for stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracdep",
        description="Dependence structure of fractional Poisson and negative "
                    "binomial processes")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("moments", help="analytic mean/variance per time")
    sp.add_argument("--process", choices=("fpp", "fnbp"), required=True)
    _add_common(sp, grids=("t",))
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("corr", help="correlation curve, analytic or empirical")
    sp.add_argument("--process", choices=("fpp", "fpn", "fnbp", "fnbn"), required=True)
    _add_common(sp, grids=("t_grid",), needs_mode=True, needs_reps=True)
    sp.set_defaults(func=cmd_corr)

    sp = sub.add_parser("classify", help="fit the decay exponent of a curve")
    sp.add_argument("--process", choices=("fpp", "fpn", "fnbp", "fnbn"))
    sp.add_argument("--in", dest="infile", type=str,
                    help="curve CSV path or - for stdin")
    sp.add_argument("--t-min", dest="t_min", type=float,
                    help="fit cutoff; default 100*max(s, delta)")
    _add_common(sp, grids=("t_grid",), needs_mode=True, needs_reps=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("delta", help="block-variance ratio Delta_n^(m)")
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=str, help="comma list of block sizes")
    sp.add_argument("--empirical", action="store_true")
    _add_common(sp, needs_reps=True)
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("simulate", help="dump seeded sample paths as CSV")
    sp.add_argument("--process", choices=PROCESSES, required=True)
    _add_common(sp, grids=("t_grid",), needs_reps=True)
    sp.set_defaults(func=cmd_simulate)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, GridError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConvergenceError, NumericalError, ResourceCapError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
