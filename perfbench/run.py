"""fracdep benchmark: one workload per run, checked against exact formulas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

Run from the root of a checkout; fracdep is imported from its ``src/``.
With ``--trace 0`` the run measures set-up (fresh interpreters importing
``fracdep.cli``), then repeats passes of the workload until ``--seconds`` of
pass time have been spent (at least three passes), and reports medians.
With ``--trace 1`` each pass runs twice on the same inputs, once plain and
once with every layer boundary wrapped in spans (see tracing.py), and the
per-layer metrics are reported instead.  Every output of every pass is
checked; the last line of standard output is the result as JSON, and the
full record (machine, sha256 of the outputs, failures, spans) is written to
``perfbench/results/``.
"""

from __future__ import annotations

import os
import sys

# one single-threaded process: keep BLAS from starting its own threads.
# BASE_ENV is what a user's shell would hand a fresh ``fracdep`` process.
BASE_ENV = dict(os.environ)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import machine  # noqa: E402
import tracing  # noqa: E402
from checks import Checker, self_test  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 7
IMPORT_REPEATS = 3
MIN_PASSES = 4          # untraced; a traced run makes at least two pairs
TIME_CAP_S = 100.0      # no new pass after this, well inside 180 s per run


def metric_units(section: str) -> dict:
    """Metric names and units, in order, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def load_fracdep() -> SimpleNamespace:
    """Import fracdep from this checkout's ``src/``, or stop with an error."""
    if not (SRC / "fracdep" / "__init__.py").is_file():
        raise SystemExit(f"error: no fracdep package under {SRC}; "
                         "run from the root of a fracdep checkout")
    sys.path.insert(0, str(SRC))
    import fracdep
    from fracdep import analytic, cli, estimate, sim, specfun
    if Path(fracdep.__file__).resolve().parent != (SRC / "fracdep").resolve():
        raise SystemExit(f"error: fracdep imported from {fracdep.__file__}, not {SRC}")
    return SimpleNamespace(
        analytic=analytic, estimate=estimate, sim=sim, cli=cli, specfun=specfun,
        FppParams=analytic.FppParams, FnbpParams=analytic.FnbpParams,
        GammaParams=analytic.GammaParams, NoiseParams=analytic.NoiseParams,
        PathSpec=sim.PathSpec, Seed=sim.Seed)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2 ** 20 if sys.platform == "darwin" else peak / 2 ** 10


def timed_pass(wl, fd, inp):
    t0 = time.perf_counter()
    out = wl.run(fd, inp)
    return time.perf_counter() - t0, out


def run_plain(wl, fd, seed: int, seconds: float, record: dict) -> dict:
    """Passes until ``seconds`` of pass time, with set-up samples spread
    evenly between them.

    Times are reported as the slowest sample.  On a shared machine the core
    alternates, every few seconds, between an uncontended speed and a
    contended one about 1.7x slower, and the share of each varies from run
    to run.  A median or quartile lands in either state depending on that
    share.  The slowest pass is usually a contended one, and in trials it
    repeated best from run to run (see README.md).
    """
    setup = machine.SetupClock(SRC, BASE_ENV)
    start = time.perf_counter()
    walls, passes = [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        if walls and time.perf_counter() - start > TIME_CAP_S:
            break
        inp = wl.inputs(seed, len(walls))
        wall, out = timed_pass(wl, fd, inp)
        walls.append(wall)
        passes.append((inp, out))
        while len(setup.seconds) < SETUP_SAMPLES * min(1.0, sum(walls) / seconds):
            setup.sample()
    while len(setup.seconds) < SETUP_SAMPLES:
        setup.sample()
    rss = peak_rss_mb()  # before the checks, which allocate references of their own
    ck = Checker()
    for inp, out in passes:
        wl.check(fd, inp, out, ck)
    wall = max(walls)
    record.update(setup_s_samples=setup.seconds, pass_wall_s=walls,
                  sha256_pass0=digest(passes[0][1]))
    metrics = {"setup_s": max(setup.seconds), "wall_s": wall,
               "items_per_s": wl.items_per_pass / wall, "peak_rss_mb": rss}
    return {"checker": ck, "metrics": metrics}


def thread_speedup(fd, seed: int, ck: Checker) -> float:
    """threads=1 over threads=nproc wall time on a fixed mc_dependence slice."""
    wl = WORKLOADS["mc_dependence"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    root = wl.inputs(seed, 0)[0]  # the FPN correlation of pass 0
    times = {1: [], nproc: []}
    curves = {}
    for _ in range(2):
        for threads in (1, nproc):
            t0 = time.perf_counter()
            curves[threads] = wl.fpn_correlation(fd, root, threads)
            times[threads].append(time.perf_counter() - t0)
    a, b = curves[1], curves[nproc]
    ck.op(f"mc_correlation threads=1 vs threads={nproc}", b, lambda c: [
        ck.true("corr differs", np.array_equal(a.corr, c.corr)),
        ck.true("std_error differs", np.array_equal(a.std_error, c.std_error))])
    return statistics.median(times[1]) / statistics.median(times[nproc])


def run_traced(wl, fd, seed: int, seconds: float, record: dict) -> dict:
    tracer = tracing.Tracer({"analytic": fd.analytic, "estimate": fd.estimate,
                             "sim": fd.sim, "cli": fd.cli})
    ck = Checker()
    start = time.perf_counter()
    spent = 0.0
    per_pass, overhead, pass_walls = [], [], []
    k = 0
    while k < 2 or spent < seconds:
        if k and time.perf_counter() - start > TIME_CAP_S:
            break
        inp = wl.inputs(seed, k)
        wall = {}
        out = {}
        # alternate which of the pair runs first
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed() as lo:
                    wall[traced], out[traced] = timed_pass(wl, fd, inp)
                per_pass.append(tracing.pass_metrics(tracer.spans, lo, tracer.counts))
            else:
                wall[traced], out[traced] = timed_pass(wl, fd, inp)
        spent += wall[True] + wall[False]
        overhead.append(wall[True] / wall[False] - 1.0)
        pass_walls.append([wall[False], wall[True]])
        # the traced outputs are checked through their digest: they must be
        # identical to the untraced ones, which are checked in full
        wl.check(fd, inp, out[False], ck)
        same = digest(out[False]) == digest(out[True])
        ck.op(f"pass {k} traced output identical to untraced", same,
              lambda ok: [ck.true("outputs differ under tracing", ok)])
        if k == 0:
            record["sha256_pass0"] = digest(out[False])
            bytes_out = wl.cli_bytes(out[False])
        k += 1
    metrics = tracing.combine_passes(per_pass)
    metrics["cli.bytes_out"] = bytes_out
    metrics["estimate.thread_speedup"] = thread_speedup(fd, seed, ck)
    imports = machine.import_ms(SRC, BASE_ENV, IMPORT_REPEATS)
    for module in machine.IMPORT_MODULES:
        metrics[f"{module.split('.')[1]}.import_ms"] = imports.get(module, 0.0)
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    record.update(pass_wall_s_untraced_traced=pass_walls, per_pass=per_pass,
                  spans=[[name, s - start, e - start, parent,
                          d if isinstance(d, int) or d is None else getattr(d, "process", str(d))]
                         for name, s, e, parent, d in tracer.spans])
    return {"checker": ck, "metrics": metrics}


def run_workload(args) -> int:
    started = time.perf_counter()
    fd = load_fracdep()
    wl = WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine.describe(SRC)}
    problems = self_test(fd.analytic.fpp_variance, fd.FppParams(0.5, 1.0))
    runner = run_traced if args.trace else run_plain
    res = runner(wl, fd, args.seed, float(args.seconds), record)
    ck, metrics = res["checker"], res["metrics"]
    units = metric_units("per_layer" if args.trace else "end_to_end")
    fail_rate = ck.failed / ck.attempted
    record.update(metrics=metrics, attempted=ck.attempted, failed=ck.failed,
                  fail_rate=fail_rate, max_abs_z=ck.max_abs_z,
                  checker_self_test=problems or "ok", problems=ck.problems,
                  run_s=time.perf_counter() - started)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=float) + "\n", encoding="utf-8")

    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print(f"# machine {json.dumps(record['machine'])}")
    print(f"# sha256 of pass 0 outputs {record['sha256_pass0']}")
    print(f"# checker self-test: {'; '.join(problems) if problems else 'ok'}")
    for p in ck.problems[:10]:
        print(f"# FAILED {p}")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(f"# fail_rate = {fail_rate:.6g} ({ck.failed}/{ck.attempted}), "
          f"max |z| {ck.max_abs_z:.2f}")
    print(f"# record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ck.failed == 0 and not problems,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table of the metrics."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    units = metric_units("end_to_end")
    cols = list(units) + ["fail_rate"]
    print(f"{'workload':<16}" + "".join(f"{c:>16}" for c in cols))
    print(f"{'':<16}" + "".join(f"{u:>16}" for u in list(units.values()) + ["ratio"]))
    for name, res in rows:
        vals = [res["metrics"][c]["value"] for c in units]
        vals.append(res["failed"] / res["attempted"])
        print(f"{name:<16}" + "".join(f"{v:>16.6g}" for v in vals))
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{name}.{m}": v for name, r in rows for m, v in r["metrics"].items()},
    }))
    return 0


def run_self_test() -> int:
    fd = load_fracdep()
    problems = self_test(fd.analytic.fpp_variance, fd.FppParams(0.5, 1.0))
    for p in problems:
        print(f"FAIL {p}")
    print("checker self-test:", "FAIL" if problems else
          "ok (perturbed exact values, a raised operation and a NaN are rejected)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload")
    mode.add_argument("--self-test", action="store_true",
                      help="show that the checker rejects perturbed exact values")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if args.self_test:
        return run_self_test()
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
