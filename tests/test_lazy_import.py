"""scipy.special is imported on first use: importing fracdep and running the
sampling and fitting commands loads no scipy module, while the exact
gamma/beta formulas still load it.  Each case runs in a fresh interpreter,
because the test process itself has long since imported scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracdep

SRC = Path(fracdep.__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import fracdep, fracdep.cli
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = fracdep.cli.main(argv)
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def run_fresh(argv=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(list(argv))],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert run_fresh()["scipy"] == []


@pytest.mark.parametrize("argv", [
    ("simulate", "--process", "fnbp", "--beta", "0.5", "--lambda", "1",
     "--alpha", "1", "--p", "1", "--t-grid", "lin:1:10:10", "--reps", "5", "--seed", "7"),
    ("corr", "--process", "fpn", "--mode", "empirical", "--beta", "0.3",
     "--lambda", "1", "--delta", "1", "--s", "1", "--t-grid", "10,20,50",
     "--reps", "100", "--seed", "42"),
], ids=["simulate", "corr_empirical"])
def test_sampling_commands_load_no_scipy(argv):
    result = run_fresh(argv)
    assert result["code"] == 0
    assert result["scipy"] == []


def test_classify_from_file_loads_no_scipy(tmp_path):
    curve = tmp_path / "curve.csv"
    rows = "\n".join(f"{t!r},{t ** -0.5!r}" for t in (100.0, 200.0, 400.0, 800.0,
                                                       1600.0, 3200.0))
    curve.write_text("# s=1.0\nt,corr\n" + rows + "\n")
    result = run_fresh(("classify", "--in", str(curve), "--process", "fpp",
                        "--beta", "0.5"))
    assert result["code"] == 0
    assert result["scipy"] == []


def test_exact_formulas_still_load_scipy_special():
    # the check above would pass vacuously if no command could load scipy
    result = run_fresh(("moments", "--process", "fpp", "--beta", "0.5",
                        "--lambda", "1", "--t", "1"))
    assert result["code"] == 0
    assert "scipy.special" in result["scipy"]
