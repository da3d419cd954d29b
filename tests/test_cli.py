"""Command-line interface: config parsing, artifacts, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

import oscbath
import oscbath.cli as cli
from oscbath.errors import ConfigError, DensityInvariantViolated
from oscbath.oracle import Scheme, discretize, oracle_amplitude, recurrence_time
from oscbath.quadrature import CauchyRule

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

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


def model_cfg(tmp_path, params):
    """A config file holding one (omega, lambda, exponent, cutoff) model."""
    path = tmp_path / "model.cfg"
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in
                            zip(("omega", "lambda", "exponent", "cutoff"), params)))
    return path


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


def test_runtime_loads_no_scipy(tmp_path):
    # a fresh interpreter: the test session itself has scipy loaded
    script = (
        "import sys\n"
        "import oscbath.cli as cli\n"
        f"assert cli.main(['pole', '--config', {str(CONFIGS / 'reference.cfg')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=env, check=True)
    assert done.stdout.splitlines()[-1] == "[]"


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
    # the adaptive-quadrature panel budget is no config key: the Cauchy rule has none
    p.write_text("omega = 1\nlambda = 0.1\ncutoff = 5\n")
    assert run(["pole", "--config", p, "--out", tmp_path / "out",
                "--override", "max_subdivisions=1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "'max_subdivisions'" in err["message"]


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


def test_config_file_errors_exit_2(tmp_path, capsys):
    dup = tmp_path / "dup.cfg"
    dup.write_text(M1_CFG + "lambda = 0.2\n")
    for args in (["--config", tmp_path / "missing.cfg"],
                 ["--config", dup],
                 ["--config", CONFIGS / "reference.cfg", "--override", "bogus=1"]):
        assert run(["pole", "--out", tmp_path / "out"] + args) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["pole", "survival", "sweep"])
@pytest.mark.parametrize("override", ["omega=-1", "cutoff=0"])
def test_model_parameter_error_class(cfg_path, tmp_path, capsys, command, override):
    # every subcommand reports a bad model parameter by the model's own class
    assert run([command, "--config", cfg_path, "--out", tmp_path / "out",
                "--override", override]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "NonPositiveParameter"


@pytest.mark.parametrize("command", ["pole", "survival"])
def test_pole_in_upper_half_plane_exit_3(tmp_path, capsys, command):
    # a strong-coupling model inside the benchmark's sampling box
    p = tmp_path / "upper.cfg"
    p.write_text("omega = 1.4844001007952778\nlambda = 0.5693375059864305\n"
                 "exponent = 1.2315595050163481\ncutoff = 2.093369274459863\n")
    assert run([command, "--config", p, "--out", tmp_path / "out"]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "PoleInUpperHalfPlane"


def test_solver_failure_exit_3(cfg_path, tmp_path, capsys):
    code = run(["pole", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "newton_max_iter=0",
                "--override", "newton_tol=1e-30"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "NoConvergence"


def test_numerical_failure_exit_1(cfg_path, tmp_path, capsys):
    # any other OscBathError exits 1; stderr names its class
    code = run(["survival", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "ray_theta=0.02"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "PoleOnRay"


@pytest.mark.parametrize("command, overrides, error", [
    ("pole", ("cutoff=0.1", "lambda=0.05"), "QuadratureFailure"),
    ("survival", ("cutoff=0.1", "lambda=0.05"), "QuadratureFailure"),
    ("density", ("cutoff=0.1", "lambda=0.05"), "QuadratureFailure"),
    ("sweep", ("cutoff=0.1", "lambda=0.05"), "QuadratureFailure"),
    ("survival", ("n_points=16",), "GridTooCoarse"),
    ("survival", ("n_points=40", "spacing=linear"), "GridTooCoarse"),
])
def test_typed_failure_exit_1(cfg_path, tmp_path, capsys, command, overrides, error):
    # omega above the truncated bath range (8 * cutoff), or too few points in a fit window
    args = [command, "--config", cfg_path, "--out", tmp_path / "out"]
    for item in overrides:
        args += ["--override", item]
    assert run(args) == 1
    assert json.loads(capsys.readouterr().err)["error"] == error


def test_survival_report(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["survival", "--config", cfg_path, "--out", out]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert abs(report["zeno_slope"]) < 1e-8
    assert report["khalfin_exponent"] == pytest.approx(-4.0, abs=0.2)
    assert report["gamma_fit"] == pytest.approx(report["gamma"], rel=0.02)
    assert report["dual_method_sup"] < 1e-6
    assert report["t_zeno"] < report["t_khalfin"]
    assert report["zeno_quadratic"] == pytest.approx(0.125, rel=1e-12)
    lines = (out / "survival.csv").read_text().splitlines()
    assert lines[0] == "t,re_delta0,im_delta0,P,Gamma,method"
    # both routes cover the whole grid, and the dual check compares them there
    rows = [line.split(",") for line in lines[1:]]
    spectral = [row[0] for row in rows if row[-1] == "spectral"]
    assert spectral == [row[0] for row in rows if row[-1] == "pole_background"]
    capsys.readouterr()


def test_survival_absolute_time_span(tmp_path, capsys):
    # an absolute span of 50 replaces the lifetime-scaled one and ends before
    # the Khalfin crossover, so no tail is fitted
    out = tmp_path / "out"
    assert run(["survival", "--config", CONFIGS / "reference.cfg", "--out", out,
                "--override", "t_max_abs=50"]) == 0
    last = (out / "survival.csv").read_text().splitlines()[-1].split(",")
    assert float(last[0]) == 50.0
    assert json.loads((out / "survival.json").read_text())["khalfin_exponent"] is None
    capsys.readouterr()


def test_survival_crossover_not_bracketed(tmp_path, capsys):
    # 20 lifetimes end before the tail takes over, so neither crossover is reported
    out = tmp_path / "out"
    assert run(["survival", "--config", CONFIGS / "reference.cfg", "--out", out,
                "--override", "t_max_gamma=20"]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert report["t_zeno"] is None
    assert report["t_khalfin"] is None
    capsys.readouterr()


# survival07 and survival13 of the benchmark's decay_phases jobs at seed 3:
# long-lived models whose crossover lies past 80 lifetimes
LATE_CROSSOVER_MODELS = {
    "survival07": (0.5350106401262051, 0.018718646028297228, 1.9998892042116694,
                   8.431740219348837),
    "survival13": (0.9242823536284637, 0.003703903132941654, 2.709637661197955,
                   7.360923263001053),
}


def test_survival_tail_fit_past_crossover(tmp_path, capsys):
    # the fit starts at 1.5 t_khalfin, past the pole term, and finds -2(n+1)
    params = LATE_CROSSOVER_MODELS["survival07"]
    out = tmp_path / "out"
    assert run(["survival", "--config", model_cfg(tmp_path, params), "--out", out]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert report["gamma"] * report["t_khalfin"] > 80.0 / 1.5
    assert report["khalfin_exponent"] == pytest.approx(-2.0 * (params[2] + 1.0), abs=1e-3)
    capsys.readouterr()


def test_survival_crossover_too_late_for_a_tail_fit(tmp_path, capsys):
    # the crossover lies at 126 lifetimes, so the grid ends within a factor 1.5
    # of the fit's start: the exponent is null, the crossover is still reported
    out = tmp_path / "out"
    config = model_cfg(tmp_path, LATE_CROSSOVER_MODELS["survival13"])
    assert run(["survival", "--config", config, "--out", out]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert report["khalfin_exponent"] is None
    assert report["t_khalfin"] is not None
    assert report["gamma"] * report["t_khalfin"] > 200.0 / 1.5**2
    capsys.readouterr()


def test_survival_wrong_ray_amplitude_fails_dual_check(tmp_path, capsys):
    # at exponent 3 the ray route loses a second zero of alpha_II; its amplitude
    # brackets no crossover, so no tail fit runs and the dual check names the fault
    assert run(["survival", "--config", CONFIGS / "reference.cfg", "--out", tmp_path / "out",
                "--override", "exponent=3"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DualMethodMismatch"


def test_survival_dual_mismatch_exit_4(cfg_path, tmp_path, capsys):
    code = run(["survival", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "dual_tol=1e-18"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DualMethodMismatch"


def test_survival_dual_nan_exit_4(cfg_path, tmp_path, monkeypatch, capsys):
    # a NaN in either route fails the two-route check instead of passing it
    def with_nan(*args, **kwargs):
        series = spectral(*args, **kwargs)
        series.delta0[1] = math.nan
        return series

    spectral = cli.Decay.amplitude_spectral
    monkeypatch.setattr(cli.Decay, "amplitude_spectral", with_nan)
    code = run(["survival", "--config", cfg_path, "--out", tmp_path / "out"])
    assert code == 4
    assert json.loads(capsys.readouterr().err)["error"] == "DualMethodMismatch"


def test_survival_ray_angle_near_quarter_pi(cfg_path, tmp_path, capsys):
    # the Gaussian tail rule alone truncates the ray up to pi/4
    out = tmp_path / "out"
    assert run(["survival", "--config", cfg_path, "--out", out,
                "--override", "ray_theta=0.78"]) == 0
    assert json.loads((out / "survival.json").read_text())["dual_method_sup"] < 1e-6
    capsys.readouterr()


# (omega, lambda, exponent, cutoff) whose poles lie at arguments -0.691 and
# -0.760, beyond the default ray angle pi/5
STEEP_POLE_MODELS = [
    (0.32541578306195745, 0.21686674803955486, 0.28447604436102997, 5.919254938419256),
    (0.29218468110489987, 0.18376525579041023, 0.25125170330807556, 19.07743516178407),
]


# |Delta0| - 1 of each model's spectral table: its sum defect
STEEP_POLE_EXCESS = [1.80e-8, 4.07e-7]


@pytest.mark.parametrize("command", ["survival", "density"])
@pytest.mark.parametrize("params", STEEP_POLE_MODELS)
def test_steep_pole_on_ray_exit_1(tmp_path, capsys, command, params):
    # survival's ray cannot pass below the pole; density builds no ray, and
    # its spectral amplitude exceeds the unit bound by the sum defect
    assert run([command, "--config", model_cfg(tmp_path, params),
                "--out", tmp_path / "out"]) == 1
    err = json.loads(capsys.readouterr().err)
    if command == "survival":
        assert err["error"] == "PoleOnRay"
        assert "pi/4" in err["message"]
    else:
        assert err["error"] == "AmplitudeOutOfRange"
        excess = float(err["message"].split()[2]) - 1.0
        assert excess == pytest.approx(STEEP_POLE_EXCESS[STEEP_POLE_MODELS.index(params)],
                                       rel=0.01)


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


@pytest.mark.parametrize("overrides", [[], ["--override", "density_pos_tol=-1"]])
def test_density_amplitude_bound_checked_first(cfg_path, tmp_path, monkeypatch, capsys,
                                               overrides):
    # the amplitude bound is checked over the whole grid before the trace and
    # the positivity: an amplitude of 1.5 at the last time wins over a
    # positivity demand that fails at t = 0
    def out_of_range_at_end(*args, **kwargs):
        series = spectral(*args, **kwargs)
        series.delta0[-1] = 1.5
        return series

    spectral = cli.Decay.amplitude_spectral
    monkeypatch.setattr(cli.Decay, "amplitude_spectral", out_of_range_at_end)
    code = run(["density", "--config", cfg_path, "--out", tmp_path / "out", *overrides])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "AmplitudeOutOfRange"
    assert err["message"] == "|Delta0| = 1.5 exceeds the unit bound"


# seed 3's density12 model of the benchmark, (omega, lambda, exponent, cutoff):
# its pole+background amplitude is off by 0.30
DENSITY12 = (1.314983291250635, 0.2872554125771939, 2.118277196713841, 4.32239565200586)


def test_density_matches_finite_bath(tmp_path, capsys):
    # rho11 = c11 |Delta0|^2 against a uniform bath of 2000 modes, at the grid
    # times within a fifth of its recurrence time
    p = model_cfg(tmp_path, DENSITY12)
    out = tmp_path / "out"
    assert run(["density", "--config", p, "--out", out]) == 0
    t, rho11 = np.loadtxt(out / "density.csv", delimiter=",", skiprows=1, usecols=(0, 1)).T
    decay = cli.build_runconfig(cli.parse_config_file(p)).decay()
    bath = discretize(decay.model, 2000, decay.truncation, Scheme.UNIFORM)
    near = t <= 0.2 * recurrence_time(bath)
    assert np.count_nonzero(near) >= 30
    exact = np.abs(oracle_amplitude(bath, t[near]).delta0) ** 2
    assert np.max(np.abs(rho11[near] - exact)) < 1e-6
    capsys.readouterr()


@pytest.mark.parametrize("overrides", [["re_c10=1e200"], ["re_c10=1.7e308", "im_c10=1.7e308"]])
def test_density_huge_coherence_exit_2(cfg_path, tmp_path, capsys, overrides):
    # a coherence far outside the state space is refused before it is squared
    args = ["density", "--config", cfg_path, "--out", tmp_path / "out"]
    for item in overrides:
        args += ["--override", item]
    assert run(args) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


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


def test_oracle_gauss_2000(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--override", "oracle_scheme=gauss",
                "--override", "oracle_n=2000"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["ladder"][0]["max_abs_dP"] < 1e-10
    capsys.readouterr()


def test_oracle_decoupled_deviation_zero(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--override", "lambda=0",
                "--override", "oracle_n=64"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["ladder"][0]["max_abs_dP"] < 1e-12
    capsys.readouterr()


def test_oracle_non_monotone_ladder(tmp_path, capsys):
    # three and four modes are too few to converge: the deviation grows
    out = tmp_path / "out"
    assert run(["oracle", "--config", CONFIGS / "reference.cfg", "--out", out,
                "--override", "oracle_n=3,4"]) == 0
    report = json.loads((out / "oracle.json").read_text())
    assert report["monotone_deviation"] is False
    devs = [entry["max_abs_dP"] for entry in report["ladder"]]
    assert devs[0] < devs[1]
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


def test_sweep_decoupled_rates_are_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["sweep", "--config", CONFIGS / "reference.cfg", "--out", out,
                "--override", "lambda=0"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    for rate in report["rates"]:
        for key in ("gamma_golden_rule", "gamma_closed_form", "gamma_pole"):
            assert rate[key] == 0.0
            assert math.copysign(1.0, rate[key]) == 1.0
    assert "-0" not in (out / "sweep.csv").read_text()
    capsys.readouterr()


def test_sweep_degenerate_ordering_exit_6(tmp_path, capsys):
    p = tmp_path / "sweep.cfg"
    p.write_text("omega = 0.5\nlambda = 0.1\ncutoff = 5\nexponents = 1,1\n")
    assert run(["sweep", "--config", p, "--out", tmp_path / "out"]) == 6
    assert json.loads(capsys.readouterr().err)["error"] == "OrderingViolated"


@pytest.mark.parametrize("command, models", [("pole", 1), ("survival", 1), ("density", 1),
                                             ("sweep", 3), ("oracle", 1)])
def test_one_cauchy_rule_per_model(tmp_path, monkeypatch, capsys, command, models):
    # the resonance search, the spectral table and the ray table of a model
    # share its rule; the reference sweep runs three exponents
    built = []
    init = CauchyRule.__init__

    def counted(self, model):
        built.append(model)
        init(self, model)

    monkeypatch.setattr(CauchyRule, "__init__", counted)
    assert run([command, "--config", CONFIGS / "reference.cfg", "--out", tmp_path]) == 0
    assert len(built) == len(set(built)) == models
    capsys.readouterr()


def test_csv_outputs_are_bit_stable(cfg_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["survival", "--config", cfg_path, "--out", out]) == 0
        assert run(["pole", "--config", cfg_path, "--out", out]) == 0
    assert (out_a / "survival.csv").read_bytes() == (out_b / "survival.csv").read_bytes()
    assert (out_a / "pole.json").read_bytes() == (out_b / "pole.json").read_bytes()
    capsys.readouterr()


def _fmt(x) -> str:
    # the per-value formatting that write_csv's per-file format string replaced
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def test_write_csv_matches_per_value_formatting(tmp_path):
    rng = np.random.default_rng(3)
    specials = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e308, 0.1, 1.0, -2.5]
    rows = [("spectral", 7, np.int64(-12), np.float64(1.0 / 3.0), -0.0, math.inf)]
    for i in range(200):
        rows.append((f"route{i % 3}", int(rng.integers(-10**12, 10**12)),
                     np.int32(rng.integers(-1000, 1000)), np.float64(rng.normal() * 10.0 ** i),
                     float(specials[i % len(specials)]), np.float64(specials[-1 - i % 10])))
    rows.append(["pole_background", True, np.uint64(2**63), np.float64(math.nan), 1.0, -math.inf])
    header = ("route", "n", "k", "x", "y", "z")
    path = tmp_path / "t.csv"
    cli.write_csv(path, header, rows)
    expected = ",".join(header) + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n"
                                                 for row in rows)
    assert path.read_bytes() == expected.encode()
    cli.write_csv(path, header, [])
    assert path.read_bytes() == b"route,n,k,x,y,z\n"


@pytest.mark.parametrize("command, override", [
    ("pole", "nonsense"),
    ("density", "c11=2"),
    ("survival", "n_points=8"),
    ("survival", "t_max_gamma=-1"),
    ("survival", "khalfin_lo=300"),  # retired: the run places its Khalfin window itself
    ("survival", "gamma_fit_lo=7"),
    ("survival", "gamma_fit_lo=-1"),
    ("survival", "ray_theta=2"),
    ("survival", "ray_theta=nan"),
    ("survival", "ray_theta=0"),
    ("survival", "ray_theta=0.7853981633974483"),
    ("survival", "ray_theta=1"),
    ("oracle", "oracle_window_fraction=0"),
    ("oracle", "oracle_omega_max=inf"),
    ("oracle", "oracle_n=,"),
    ("oracle", "oracle_n=1"),
    ("oracle", "oracle_n=0,500"),
    ("oracle", "oracle_n=-3"),
    ("sweep", "exponents=1,nan"),
    ("survival", "dual_tol=nan"),
    ("survival", "dual_tol=0"),
    ("pole", "newton_tol=nan"),
    ("pole", "newton_tol=-1e-12"),
    ("survival", "truncation_multiple=inf"),
    ("survival", "truncation_multiple=1e9"),
])
def test_override_validation(cfg_path, tmp_path, capsys, command, override):
    assert run([command, "--config", cfg_path, "--out", tmp_path / "out",
                "--override", override]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert override.partition("=")[0] in err["message"]


def test_decoupled_pole_checks_truncation(cfg_path, tmp_path, capsys):
    # a decoupled run builds its model and truncation as every other run does
    assert run(["pole", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "lambda=0", "--override", "truncation_multiple=100"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


RETIRED_KEYS = ["abs_tol", "max_subdivisions", "rel_tol", "khalfin_hi", "khalfin_lo"]


@pytest.mark.parametrize("key", sorted(cli._SCHEMA) + RETIRED_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_schema_rejects_nonfinite(key, value):
    # every key checks its own domain as the config is read; the retired
    # adaptive-quadrature and Khalfin-window keys are refused by name
    raw = cli.parse_config_file(CONFIGS / "reference.cfg")
    with pytest.raises(ConfigError, match=key):
        cli.build_runconfig(raw, [f"{key}={value}"])


def test_readme_key_table_names_every_schema_key():
    # the first column of README's config-key table, with `x_lo/hi` standing
    # for x_lo and x_hi, lists exactly the keys that the config reader knows
    text = (ROOT / "README.md").read_text()
    table = text[text.index("| key | default |"):].split("\n\n")[0].splitlines()[2:]
    keys = set()
    for row in table:
        for name in re.findall(r"`([a-z0-9_/]+)`", row.split("|")[1]):
            stem, slash, _ = name.partition("_lo/")
            keys |= {stem + "_lo", stem + "_hi"} if slash else {name}
    assert keys == set(cli._SCHEMA)


def test_truncation_multiple_checked_in_schema():
    # [4, 64] is the key's domain, refused as the config is read
    raw = cli.parse_config_file(CONFIGS / "reference.cfg")
    for value in ("3.99", "100"):
        with pytest.raises(ConfigError, match="truncation_multiple.*in \\[4, 64\\]"):
            cli.build_runconfig(raw, [f"truncation_multiple={value}"])
    for value in ("4", "64"):
        assert cli.build_runconfig(raw, [f"truncation_multiple={value}"])["truncation_multiple"] \
            == float(value)


def test_one_parser_serves_every_call(tmp_path, monkeypatch, capsys):
    # the parser and its five subparsers are built on the first call of the
    # process only, which an earlier test may have made
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(3):
        assert run(["pole", "--config", CONFIGS / "reference.cfg", "--out", tmp_path]) == 0
    assert len(built) in (0, 1 + len(cli._COMMANDS))
    capsys.readouterr()


def test_calls_leave_no_state_behind(tmp_path, capsys):
    # an override of one call does not reach the next: --override appends to a
    # copy of its default
    args = ["pole", "--config", CONFIGS / "reference.cfg", "--out"]
    assert run(args + [tmp_path / "a", "--override", "lambda=0"]) == 0
    assert json.loads((tmp_path / "a" / "pole.json").read_text())["z0_im"] == 0.0
    assert run(args + [tmp_path / "b"]) == 0
    capsys.readouterr()
    second = (tmp_path / "b" / "pole.json").read_bytes()
    assert json.loads(second)["z0_im"] < 0
    script = (
        "import oscbath.cli as cli\n"
        f"raise SystemExit(cli.main(['pole', '--config', {str(CONFIGS / 'reference.cfg')!r}, "
        f"'--out', {str(tmp_path / 'fresh')!r}]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=tmp_path, env=env,
                   check=True)
    assert (tmp_path / "fresh" / "pole.json").read_bytes() == second


def test_bad_arguments_then_a_valid_call(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert run(["pole", "--config", CONFIGS / "reference.cfg", "--out", tmp_path]) == 0
    capsys.readouterr()


def test_version_twice(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"oscbath {oscbath.__version__}\n"
