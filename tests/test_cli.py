"""CLI contract tests: flags, formats, exit codes, determinism, piping."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from fracdep import cli
from fracdep.cli import _fmt, main, parse_grid
from fracdep.errors import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def data_rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


class TestParseGrid:
    def test_geom(self):
        g = parse_grid("geom:100:1e6:25")
        assert len(g) == 25
        assert g[0] == pytest.approx(100.0)
        assert g[-1] == pytest.approx(1e6)

    def test_lin(self):
        assert np.allclose(parse_grid("lin:0:10:11"), np.arange(11.0))

    def test_list(self):
        assert np.allclose(parse_grid("1,2,3"), [1.0, 2.0, 3.0])

    def test_bad(self):
        with pytest.raises(DomainError):
            parse_grid("geom:100:10:5")
        with pytest.raises(DomainError):
            parse_grid("3,2,1")

    @pytest.mark.parametrize("spec", ["geom:1:x:5", "lin:0:1:2.5", "1,,abc",
                                      "geom:1:1e400:5", "lin:-inf:1:3", "1,nan,3"])
    def test_malformed_or_non_finite(self, spec):
        with pytest.raises(DomainError, match="grid spec"):
            parse_grid(spec)

    @pytest.mark.parametrize("spec", ["geom:1:x:5", "1,,abc", "geom:1:1e400:5"])
    def test_bad_grid_exit_2(self, capsys, spec):
        code, out, err = run_cli(capsys, "moments", "--process", "fpp",
                                 "--beta", "0.5", "--lambda", "1", "--t", spec)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and spec in err
        assert "Traceback" not in err


class TestMoments:
    def test_poisson_case(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--process", "fpp",
                               "--beta", "1", "--lambda", "2", "--t", "3")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "t,mean,variance"
        t, mean, var = rows[1].split(",")
        assert float(mean) == pytest.approx(6.0, rel=1e-12, abs=0)
        assert float(var) == pytest.approx(6.0, rel=1e-12, abs=0)

    def test_fnbp_mean(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--process", "fnbp",
                               "--beta", "1", "--lambda", "1",
                               "--alpha", "1", "--p", "1", "--t", "2")
        assert code == 0
        assert float(data_rows(out)[1].split(",")[1]) == pytest.approx(2.0, rel=1e-12, abs=0)

    def test_fractional_mean(self, capsys):
        code, out, _ = run_cli(capsys, "moments", "--process", "fpp",
                               "--beta", "0.5", "--lambda", "1", "--t", "4")
        assert float(data_rows(out)[1].split(",")[1]) == pytest.approx(
            4.0 / math.sqrt(math.pi) * math.sqrt(math.pi) / math.gamma(1.5) / 2,
            rel=1e-10, abs=0)
        assert float(data_rows(out)[1].split(",")[1]) == pytest.approx(
            2.0 / math.gamma(1.5), rel=1e-12, abs=0)

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "moments", "--process", "fpp", "--t", "3")
        assert code == 2
        assert "required" in err

    def test_header_echoes_parameters(self, capsys):
        _, out, _ = run_cli(capsys, "moments", "--process", "fpp",
                            "--beta", "0.5", "--lambda", "1", "--t", "4")
        assert "# beta=0.5" in out
        assert "# lambda=1.0" in out
        assert "# seed=42" in out


class TestCorr:
    def test_analytic_fpn_monotone(self, capsys):
        code, out, _ = run_cli(capsys, "corr", "--process", "fpn",
                               "--mode", "analytic", "--beta", "0.2",
                               "--lambda", "1", "--delta", "1", "--s", "1",
                               "--t-grid", "geom:100:1e6:10")
        assert code == 0
        vals = [abs(float(r.split(",")[1])) for r in data_rows(out)[1:]]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_empirical_determinism(self, capsys):
        args = ("corr", "--process", "fpp", "--mode", "empirical",
                "--beta", "0.5", "--lambda", "1", "--s", "1",
                "--t-grid", "5,10", "--reps", "400", "--seed", "9",
                "--stable-step", "0.02")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert "std_error" in out1

    def test_validation_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "corr", "--process", "fpn",
                               "--mode", "analytic", "--beta", "1.5",
                               "--lambda", "1", "--delta", "1", "--s", "1",
                               "--t-grid", "geom:100:1e6:10")
        assert code == 2

    def test_resource_cap_exit_3(self, capsys):
        # a pathologically fine inversion step exceeds the step budget
        code, _, err = run_cli(capsys, "simulate", "--process", "fpp",
                               "--beta", "0.5", "--lambda", "1",
                               "--t-grid", "1", "--reps", "1",
                               "--stable-step", "1e-9")
        assert code == 3
        assert "numerical" in err


class TestClassify:
    FLAGS = ("--process", "fnbp", "--mode", "analytic", "--beta", "0.5",
             "--lambda", "1", "--alpha", "1", "--p", "1", "--s", "1",
             "--t-grid", "geom:100:1e6:25")

    def test_direct(self, capsys):
        code, out, _ = run_cli(capsys, "classify", *self.FLAGS)
        assert code == 0
        rows = data_rows(out)
        header = rows[0].split(",")
        vals = dict(zip(header, rows[1].split(",")))
        assert vals["label"] == "LRD"
        assert abs(float(vals["d_hat"]) - 0.5) <= 0.05
        assert float(vals["theoretical_exponent"]) == 0.5

    def test_pipe_equals_direct(self, capsys, monkeypatch):
        code, curve_text, _ = run_cli(capsys, "corr", *self.FLAGS)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(curve_text))
        code, piped, _ = run_cli(capsys, "classify", "--in", "-",
                                 "--process", "fnbp", "--beta", "0.5", "--s", "1")
        assert code == 0
        code, direct, _ = run_cli(capsys, "classify", *self.FLAGS)
        assert data_rows(piped) == data_rows(direct)

    def test_fpn_labels(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--process", "fpn",
                               "--mode", "analytic", "--beta", "0.2",
                               "--lambda", "1", "--delta", "1", "--s", "1",
                               "--t-grid", "geom:100:1e6:25")
        rows = data_rows(out)
        vals = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert vals["label"] == "SRD"
        assert abs(float(vals["d_hat"]) - 1.8) <= 0.05

    def test_fnbn_labels(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--process", "fnbn",
                               "--mode", "analytic", "--beta", "0.5",
                               "--lambda", "1", "--alpha", "1", "--p", "1",
                               "--delta", "1", "--s", "1",
                               "--t-grid", "geom:100:1e6:25")
        rows = data_rows(out)
        vals = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert vals["label"] == "SRD"
        assert abs(float(vals["d_hat"]) - 1.25) <= 0.05

    def test_insufficient_data_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("t,corr\n10.0,0.5\n20.0,0.3\n"))
        code, _, err = run_cli(capsys, "classify", "--in", "-", "--t-min", "0")
        assert code == 2


class TestFormat:
    def test_numpy_scalars_print_as_floats(self):
        assert _fmt(np.float64(49.46)) == "49.46" == _fmt(49.46)
        assert _fmt(np.float32(0.5)) == "0.5"
        assert _fmt(7) == "7"

    def test_numpy_scalar_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.analytic, "delta_statistic", lambda *a: np.float64(1.25))
        monkeypatch.setattr(cli.analytic, "delta_limit_bound", lambda *a: np.float64(0.5))
        code, out, _ = run_cli(capsys, "delta", "--beta", "0.5", "--lambda", "1",
                               "--n", "2", "--m", "10")
        assert code == 0
        assert "np." not in out
        assert data_rows(out)[1] == "10,1.25"
        assert "=0.5" in out.splitlines()[-1]


class TestDelta:
    def test_poisson_column_of_ones(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--beta", "1", "--lambda", "2",
                               "--n", "2", "--m", "5,10")
        assert code == 0
        for row in data_rows(out)[1:]:
            assert float(row.split(",")[1]) == 1.0

    def test_footer_states_bound(self, capsys):
        _, out, _ = run_cli(capsys, "delta", "--beta", "0.5", "--lambda", "1",
                            "--n", "2", "--m", "10,100")
        assert "limit_bound" in out
        bound = float(out.rsplit("=", 1)[1])
        assert bound <= 1.0

    def test_empirical_columns_agree(self, capsys):
        code, out, _ = run_cli(capsys, "delta", "--beta", "0.5", "--lambda", "1",
                               "--n", "2", "--m", "10", "--empirical",
                               "--reps", "2000", "--stable-step", "0.005")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "m,delta_analytic,delta_empirical,std_error"
        _, ana, emp, se = map(float, rows[1].split(","))
        assert abs(emp - ana) <= 3.0 * se + 0.02 * ana


class TestSimulate:
    def test_format_contract(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--process", "fpp",
                               "--beta", "0.5", "--lambda", "1",
                               "--t-grid", "1,5,10", "--reps", "4",
                               "--seed", "7", "--stable-step", "0.01")
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "replication,t,value"
        assert len(rows) - 1 == 4 * 3
        for row in rows[1:]:
            assert len(row.split(",")) == 3

    def test_paths_nondecreasing(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--process", "nb",
                            "--beta", "1", "--lambda", "1", "--alpha", "1",
                            "--p", "1", "--t-grid", "1,2,3,4", "--reps", "5")
        rows = data_rows(out)[1:]
        by_rep = {}
        for row in rows:
            rep, t, v = row.split(",")
            by_rep.setdefault(rep, []).append(float(v))
        for vals in by_rep.values():
            assert vals == sorted(vals)

    def test_mean_matches_moments(self, capsys):
        _, sim_out, _ = run_cli(capsys, "simulate", "--process", "nb",
                                "--beta", "1", "--lambda", "1", "--alpha", "1",
                                "--p", "1", "--t-grid", "2", "--reps", "3000")
        vals = np.array([float(r.split(",")[2]) for r in data_rows(sim_out)[1:]])
        _, mom_out, _ = run_cli(capsys, "moments", "--process", "fnbp",
                                "--beta", "1", "--lambda", "1", "--alpha", "1",
                                "--p", "1", "--t", "2")
        mean = float(data_rows(mom_out)[1].split(",")[1])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - mean) <= 3.0 * se

    @pytest.mark.parametrize("reps", ["-1", "0"])
    def test_nonpositive_reps_exit_2(self, capsys, reps):
        code, out, err = run_cli(capsys, "simulate", "--process", "poisson",
                                 "--beta", "1", "--lambda", "1",
                                 "--t-grid", "1,2", "--reps", reps)
        assert code == 2
        assert out == ""
        assert "--reps" in err

    def test_huge_step_exit_3(self, capsys):
        # step^(1/beta) overflows a float: 1e200^10
        code, out, err = run_cli(capsys, "simulate", "--process", "fpp",
                                 "--beta", "0.1", "--lambda", "1",
                                 "--t-grid", "1,2", "--reps", "1",
                                 "--stable-step", "1e200")
        assert code == 3
        assert out == ""
        assert err.startswith("numerical error:")

    def test_flat_empirical_column_exit_3(self, capsys):
        # no replication sees an FPN event in [1e6, 1e6 + 1] at beta = 0.1
        code, out, err = run_cli(capsys, "corr", "--process", "fpn",
                                 "--mode", "empirical", "--beta", "0.1",
                                 "--lambda", "1", "--delta", "1", "--s", "1",
                                 "--t-grid", "1e6", "--reps", "100", "--seed", "3")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert "X(t=1000000.0) has zero variance" in err

    @pytest.mark.parametrize("process,step,alpha", [
        ("fpp", "inf", "1"), ("inv_stable", "inf", "1"), ("fnbp", "inf", "1"),
        ("fpp", "1e150", "1"),        # finite clock, Poisson mean past numpy's limit
        ("nb", "0.01", "1e-310"),     # gamma clock of scale 1/alpha = inf
        ("nb", "0.01", "1e-300"),     # finite gamma clock, Poisson mean too large
    ])
    def test_overflowing_clock_exit_3_without_warning(self, capsys, process, step,
                                                      alpha):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "simulate", "--process", process,
                                     "--beta", "0.5", "--lambda", "1",
                                     "--alpha", alpha, "--p", "1",
                                     "--t-grid", "1,2", "--reps", "1",
                                     "--stable-step", step)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("numerical error:")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--process", "gamma",
                               "--alpha", "1", "--p", "1", "--t-grid", "1,2",
                               "--reps", "2", "--output", "json")
        doc = json.loads(out)
        assert set(doc) == {"meta", "data"}
        assert doc["meta"]["seed"] == 42
        assert len(doc["data"]) == 4


class TestDeterminismAcrossThreads:
    def test_empirical_corr_threads(self, capsys):
        base = ("corr", "--process", "fpp", "--mode", "empirical",
                "--beta", "0.5", "--lambda", "1", "--s", "1",
                "--t-grid", "5,10", "--reps", "600", "--seed", "21",
                "--stable-step", "0.02")
        _, out1, _ = run_cli(capsys, *base, "--threads", "1")
        _, out8, _ = run_cli(capsys, *base, "--threads", "8")
        assert data_rows(out1) == data_rows(out8)

    def test_outfile_roundtrip(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, "corr", "--process", "fpp",
                             "--mode", "analytic", "--beta", "0.5",
                             "--lambda", "1", "--s", "1",
                             "--t-grid", "10,100", "--out", str(target))
        assert code == 0
        text = target.read_text()
        assert "t,corr" in text
