"""Command-line interface: config parsing, artifacts, exit codes."""

import json
import math

import pytest

import oscbath.cli as cli
from oscbath.errors import DensityInvariantViolated

M1_CFG = """\
# reference model
omega = 1.0
lambda = 0.1
exponent = 1
cutoff = 5
prefactor = 1
"""


@pytest.fixture()
def cfg_path(tmp_path):
    p = tmp_path / "m1.cfg"
    p.write_text(M1_CFG)
    return p


def run(args):
    return cli.main([str(a) for a in args])


def test_pole_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["pole", "--config", cfg_path, "--out", out]) == 0
    report = json.loads((out / "pole.json").read_text())
    # the pole width and its golden-rule estimate are both reported
    assert report["gamma"] == pytest.approx(0.05757314, abs=1e-6)
    assert -2.0 * report["perturbative_z0_im"] == pytest.approx(0.0603682, abs=1e-6)
    assert report["residual"] < 1e-12
    assert report["z0_im"] < 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == report


def test_pole_decoupled(cfg_path, tmp_path):
    out = tmp_path / "out"
    assert run(["pole", "--config", cfg_path, "--out", out,
                "--override", "lambda=0"]) == 0
    report = json.loads((out / "pole.json").read_text())
    assert report["gamma"] == 0.0
    assert report["z0_re"] == 1.0


def test_positivity_violation_exit_2(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["pole", "--config", cfg_path, "--out", out,
                "--override", "omega=0.01", "--override", "lambda=0.5"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PositivityViolated"


def test_unknown_key_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("omega = 1\nlambda = 0.1\ncutoff = 5\nwhatever = 3\n")
    assert run(["pole", "--config", p, "--out", tmp_path / "out"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert ":4:" in err["message"]


def test_missing_required_key_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("omega = 1\nlambda = 0.1\n")
    assert run(["pole", "--config", p, "--out", tmp_path / "out"]) == 2
    assert "cutoff" in json.loads(capsys.readouterr().err)["message"]


def test_malformed_line_diagnostic(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("omega = 1\nnot a pair\n")
    assert run(["pole", "--config", p, "--out", tmp_path / "out"]) == 2
    assert ":2:" in json.loads(capsys.readouterr().err)["message"]


def test_solver_failure_exit_3(cfg_path, tmp_path, capsys):
    code = run(["pole", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "newton_max_iter=0",
                "--override", "newton_tol=1e-30"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NoConvergence"


def test_survival_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["survival", "--config", cfg_path, "--out", out]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert abs(report["zeno_slope"]) < 1e-8
    assert report["khalfin_exponent"] == pytest.approx(-4.0, abs=0.2)
    assert report["gamma_fit"] == pytest.approx(report["gamma"], rel=0.02)
    assert report["dual_method_sup"] < 1e-6
    assert report["t_zeno"] < report["t_khalfin"]
    header = (out / "survival.csv").read_text().splitlines()[0]
    assert header == "t,re_delta0,im_delta0,P,Gamma,method"
    capsys.readouterr()


def test_survival_dual_mismatch_exit_4(cfg_path, tmp_path, capsys):
    code = run(["survival", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "dual_tol=1e-18"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DualMethodMismatch"


def test_density_outputs(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["density", "--config", cfg_path, "--out", out,
                "--override", "c11=1.0"]) == 0
    report = json.loads((out / "density.json").read_text())
    assert report["final_rho00"] > 0.999
    assert report["sup_exact_minus_lindblad"] <= 0.05
    lines = (out / "density.csv").read_text().splitlines()
    first = lines[1].split(",")
    # t = 0 row equals the initial state
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
    assert float(first[4]) == pytest.approx(0.0, abs=1e-12)
    capsys.readouterr()


def test_density_invariant_exit_5(cfg_path, tmp_path, capsys):
    # an impossible positivity demand trips the invariant check wiring
    code = run(["density", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "density_pos_tol=-1"])
    assert code == 5
    assert json.loads(capsys.readouterr().err)["error"] == "DensityInvariantViolated"


def test_density_exit_5_wiring(cfg_path, tmp_path, monkeypatch, capsys):
    def boom(cfg, out):
        raise DensityInvariantViolated("forced")

    monkeypatch.setitem(cli._COMMANDS, "density", boom)
    assert run(["density", "--config", cfg_path, "--out", tmp_path / "out"]) == 5
    capsys.readouterr()


def test_oracle_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--override", "oracle_n=200,400",
                "--override", "oracle_omega_max=40"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["monotone_deviation"] is True
    assert [entry["N"] for entry in report["ladder"]] == [200, 400]
    header = (out / "oracle.csv").read_text().splitlines()[0]
    assert header == "N,t,P_oracle,P_continuum,abs_diff"
    capsys.readouterr()


def test_oracle_decoupled_deviation_zero(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--override", "lambda=0",
                "--override", "oracle_n=64"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["ladder"][0]["max_abs_dP"] < 1e-12
    capsys.readouterr()


def test_sweep_ordering(tmp_path, capsys):
    p = tmp_path / "sweep.cfg"
    p.write_text("omega = 0.5\nlambda = 0.1\ncutoff = 5\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", p, "--out", out]) == 0
    report = json.loads((out / "sweep.json").read_text())
    rates = {r["exponent"]: r["gamma_golden_rule"] for r in report["rates"]}
    for n in (0.5, 1.0, 2.0):
        closed = 2.0 * math.pi * 0.01 * 0.5**n * math.exp(-0.01)
        assert rates[n] == pytest.approx(closed, abs=1e-6)
    assert rates[2.0] < rates[1.0] < rates[0.5]
    assert report["ordering_decreasing_in_exponent"] is True
    capsys.readouterr()


def test_sweep_single_exponent(tmp_path, capsys):
    p = tmp_path / "sweep.cfg"
    p.write_text("omega = 1.0\nlambda = 0.1\ncutoff = 5\nexponents = 1\n")
    out = tmp_path / "out"
    assert run(["sweep", "--config", p, "--out", out]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    capsys.readouterr()


def test_sweep_degenerate_ordering_exit_6(tmp_path, capsys):
    p = tmp_path / "sweep.cfg"
    p.write_text("omega = 0.5\nlambda = 0.1\ncutoff = 5\nexponents = 1,1\n")
    assert run(["sweep", "--config", p, "--out", tmp_path / "out"]) == 6
    assert json.loads(capsys.readouterr().err)["error"] == "OrderingViolated"


def test_csv_outputs_are_bit_stable(cfg_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["survival", "--config", cfg_path, "--out", out]) == 0
        assert run(["pole", "--config", cfg_path, "--out", out]) == 0
    assert (out_a / "survival.csv").read_bytes() == (out_b / "survival.csv").read_bytes()
    assert (out_a / "pole.json").read_bytes() == (out_b / "pole.json").read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("command, override", [
    ("pole", "nonsense"),
    ("density", "c11=2"),
    ("survival", "n_points=8"),
    ("survival", "t_max_gamma=-1"),
])
def test_override_validation(cfg_path, tmp_path, capsys, command, override):
    assert run([command, "--config", cfg_path, "--out", tmp_path / "out",
                "--override", override]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
