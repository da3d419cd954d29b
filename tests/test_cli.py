"""Command-line interface: config parsing, artifacts, exit codes."""

import json
import math

from pathlib import Path

import pytest

import oscbath.cli as cli
from oscbath.errors import ConfigError, DensityInvariantViolated

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    code = run(["pole", "--config", cfg_path, "--out", tmp_path / "out",
                "--override", "max_subdivisions=1"])
    assert code == 1
    assert json.loads(capsys.readouterr().err)["error"] == "QuadratureFailure"


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
    header = (out / "survival.csv").read_text().splitlines()[0]
    assert header == "t,re_delta0,im_delta0,P,Gamma,method"
    capsys.readouterr()


def test_survival_short_spectral_window(cfg_path, tmp_path, capsys):
    # the Zeno ladder reaches past a spectral window of 1e-6 lifetimes
    out = tmp_path / "out"
    assert run(["survival", "--config", cfg_path, "--out", out,
                "--override", "spectral_t_max_gamma=1e-6"]) == 0
    report = json.loads((out / "survival.json").read_text())
    assert report["zeno_quadratic"] == pytest.approx(0.125, rel=1e-12)
    capsys.readouterr()


def test_survival_absolute_time_span(tmp_path, capsys):
    # an absolute span of 50 replaces the lifetime-scaled one and ends before
    # the Khalfin window at 80/gamma
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

    spectral = cli.amplitude_spectral
    monkeypatch.setattr(cli, "amplitude_spectral", with_nan)
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


@pytest.mark.parametrize("command", ["survival", "density"])
@pytest.mark.parametrize("params", STEEP_POLE_MODELS)
def test_steep_pole_on_ray_exit_1(tmp_path, capsys, command, params):
    p = tmp_path / "steep.cfg"
    p.write_text("".join(f"{key} = {value!r}\n" for key, value in
                         zip(("omega", "lambda", "exponent", "cutoff"), params)))
    assert run([command, "--config", p, "--out", tmp_path / "out"]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "PoleOnRay"
    assert "pi/4" in err["message"]


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
    ("survival", "khalfin_lo=300"),
    ("survival", "gamma_fit_lo=7"),
    ("survival", "gamma_fit_lo=-1"),
    ("survival", "ray_theta=2"),
    ("survival", "ray_theta=nan"),
    ("survival", "ray_theta=0"),
    ("survival", "ray_theta=0.7853981633974483"),
    ("survival", "ray_theta=1"),
    ("survival", "spectral_t_max_gamma=-1"),
    ("survival", "spectral_t_max_gamma=0"),
    ("oracle", "oracle_window_fraction=0"),
    ("oracle", "oracle_omega_max=inf"),
    ("oracle", "oracle_n=,"),
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


@pytest.mark.parametrize("key", sorted(cli._SCHEMA))
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_schema_rejects_nonfinite(key, value):
    # every key checks its own domain as the config is read
    raw = cli.parse_config_file(CONFIGS / "reference.cfg")
    with pytest.raises(ConfigError, match=key):
        cli.build_runconfig(raw, [f"{key}={value}"])
