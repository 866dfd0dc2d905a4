"""Public names: every exported name resolves, and the functions the
benchmark's tracer wraps from outside the package still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fracdep import analytic, cli, estimate, sim, specfun

MODULES = ["fracdep", "fracdep.specfun", "fracdep.analytic", "fracdep.sim",
           "fracdep.estimate"]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
    assert len(set(exported)) == len(exported)


def test_tracer_patches_existing_names():
    # the tracer replaces functions at the names the modules imported; a
    # missing name would make `perfbench/run.py --trace 1` fail
    spec = importlib.util.spec_from_file_location("_fracdep_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    mods = {"analytic": analytic, "estimate": estimate, "sim": sim, "cli": cli}
    owners = (analytic, estimate, sim, sim.Seed, cli, specfun)
    before = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    tracer = tracing.Tracer(mods)
    with tracer.installed():
        assert tracer._saved
        patched = [(owner, attr) for owner, attr, _ in tracer._saved]
    for owner, attr in patched:
        assert vars(owner)[attr] is before[(id(owner), attr)]
