"""Configuration-driven command-line runner.

Subcommands: pole | survival | density | oracle | sweep.  Each reads a flat
key=value config file (one key per line, ``#`` comments), writes CSV/JSON
artifacts into the output directory, and prints the JSON report to stdout.
Exit codes: 0 success, 2 config, 3 solver, 4 dual-method disagreement,
5 density invariant, 6 rate ordering.  Failures emit a machine-readable
JSON object on stderr.

All quadrature in the production path is deterministic, so reruns with the
same config are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .density import OscillatorState, lindblad_solution, reduced_density
from .errors import (
    ConfigError,
    CrossoverNotBracketed,
    DensityInvariantViolated,
    DualMethodMismatch,
    NoConvergence,
    NonPositiveParameter,
    OrderingViolated,
    OscBathError,
    PoleInUpperHalfPlane,
    PositivityViolated,
)
from .model import ModelParams, QuadConfig, build_model
from .oracle import Scheme, discretize, oracle_amplitude, recurrence_time
from .selfenergy import Resonance, find_resonance, perturbative_resonance
from .survival import (
    DEFAULT_RAY_ANGLE,
    PhaseReport,
    amplitude_pole_background,
    amplitude_spectral,
    crossover_times,
    exponential_rate_fit,
    hybrid_time_grid,
    khalfin_exponent,
    survival_probability,
    zeno_slope,
)

_REQUIRED = object()

# key -> (converter, default); _REQUIRED means the config must supply it
_SCHEMA = {
    "omega": (float, _REQUIRED),
    "lambda": (float, _REQUIRED),
    "exponent": (float, 1.0),
    "cutoff": (float, _REQUIRED),
    "prefactor": (float, 1.0),
    "abs_tol": (float, 1e-12),
    "rel_tol": (float, 1e-10),
    "max_subdivisions": (int, 200),
    "truncation_multiple": (float, 8.0),
    "newton_tol": (float, 1e-12),
    "newton_max_iter": (int, 50),
    "t_max_gamma": (float, 200.0),
    "t_max_abs": (float, None),
    "n_points": (int, 320),
    "spacing": (str, "hybrid"),
    "spectral_t_max_gamma": (float, 10.0),
    "ray_theta": (float, DEFAULT_RAY_ANGLE),
    "dual_tol": (float, 1e-6),
    "gamma_fit_lo": (float, 2.0),
    "gamma_fit_hi": (float, 6.0),
    "khalfin_lo": (float, 80.0),
    "khalfin_hi": (float, 200.0),
    "zeno_threshold": (float, 0.9),
    "oracle_n": (str, "500,1000,2000,4000"),
    "oracle_omega_max": (float, None),
    "oracle_scheme": (str, "uniform"),
    "oracle_window_fraction": (float, 0.2),
    "c11": (float, 1.0),
    "re_c10": (float, 0.0),
    "im_c10": (float, 0.0),
    "density_t_max_gamma": (float, 20.0),
    "density_pos_tol": (float, 1e-12),
    "lindblad_frequency": (str, "shifted"),
    "exponents": (str, "0.5,1,2"),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def model(self) -> ModelParams:
        try:
            return build_model(self["omega"], self["lambda"], self["exponent"],
                               self["cutoff"], self["prefactor"])
        except NonPositiveParameter as exc:
            raise ConfigError(f"invalid model parameters: {exc}") from exc

    @property
    def quad(self) -> QuadConfig:
        try:
            return QuadConfig(
                abs_tol=self["abs_tol"],
                rel_tol=self["rel_tol"],
                max_subdivisions=self["max_subdivisions"],
                upper_truncation_multiple=self["truncation_multiple"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid quadrature settings: {exc}") from exc


def parse_config_file(path: Path) -> dict:
    raw = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def build_runconfig(raw: dict, overrides=()) -> RunConfig:
    merged = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"override: unknown key {key!r}")
        merged[key] = value
    values = {}
    for key, (conv, default) in _SCHEMA.items():
        if key in merged:
            try:
                values[key] = conv(merged[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: cannot parse {merged[key]!r}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default
    if values["spacing"] not in ("hybrid", "linear"):
        raise ConfigError("spacing must be 'hybrid' or 'linear'")
    if values["oracle_scheme"] not in ("uniform", "gauss"):
        raise ConfigError("oracle_scheme must be 'uniform' or 'gauss'")
    if values["lindblad_frequency"] not in ("shifted", "bare"):
        raise ConfigError("lindblad_frequency must be 'shifted' or 'bare'")
    for key, floor in (("n_points", 15), ("t_max_gamma", 0.0), ("t_max_abs", 0.0),
                       ("density_t_max_gamma", 0.0)):
        if values[key] is not None and not values[key] > floor:
            raise ConfigError(f"{key} must exceed {floor}, got {values[key]!r}")
    try:
        OscillatorState(c11=values["c11"], c10=complex(values["re_c10"], values["im_c10"]))
    except ValueError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc
    return RunConfig(values)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows):
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n")
    return text


def _resonance(cfg: RunConfig, model: ModelParams) -> Resonance:
    return find_resonance(model, cfg.quad, tol=cfg["newton_tol"],
                          max_iter=cfg["newton_max_iter"])


def _time_grid(cfg: RunConfig, gamma: float):
    if cfg["t_max_abs"] is not None:
        t_max = cfg["t_max_abs"]
    else:
        t_max = cfg["t_max_gamma"] / gamma
    if cfg["spacing"] == "linear":
        return np.linspace(0.0, t_max, cfg["n_points"])
    return hybrid_time_grid(cfg["omega"], gamma, t_max, cfg["n_points"])


def cmd_pole(cfg: RunConfig, out: Path) -> dict:
    model = cfg.model
    if model.lam == 0.0:
        report = {
            "omega_bare": model.omega_bare,
            "lambda": 0.0,
            "z0_re": model.omega_bare,
            "z0_im": 0.0,
            "omega0": model.omega_bare,
            "gamma": 0.0,
            "delta_omega": 0.0,
            "alpha_prime_re": 1.0,
            "alpha_prime_im": 0.0,
            "perturbative_z0_re": model.omega_bare,
            "perturbative_z0_im": 0.0,
            "perturbative_gap": 0.0,
            "newton_iterations": 0,
            "residual": 0.0,
        }
    else:
        res = _resonance(cfg, model)
        pert = res.perturbative_z0
        report = {
            "omega_bare": model.omega_bare,
            "lambda": model.lam,
            "z0_re": res.z0.real,
            "z0_im": res.z0.imag,
            "omega0": res.omega0,
            "gamma": res.gamma,
            "delta_omega": res.omega0 - model.omega_bare,
            "alpha_prime_re": res.alpha_prime_at_pole.real,
            "alpha_prime_im": res.alpha_prime_at_pole.imag,
            "perturbative_z0_re": pert.real,
            "perturbative_z0_im": pert.imag,
            "perturbative_gap": abs(res.z0 - pert),
            "newton_iterations": res.newton_iterations,
            "residual": res.residual,
        }
    print(write_json(out / "pole.json", report))
    return report


def cmd_survival(cfg: RunConfig, out: Path) -> dict:
    model = cfg.model
    quad = cfg.quad
    res = _resonance(cfg, model)
    gamma = res.gamma
    grid = _time_grid(cfg, gamma)
    pb = amplitude_pole_background(model, res, grid, quad, theta=cfg["ray_theta"])

    spectral_cap = cfg["spectral_t_max_gamma"] / gamma
    sp_grid = grid[grid <= spectral_cap]
    sp = amplitude_spectral(model, sp_grid, quad)
    dual_sup = float(np.max(np.abs(sp.delta0 - pb.delta0[: sp_grid.size])))

    # dedicated geometric ladder near t = 0 for the short-time diagnostics
    zeno_grid = np.concatenate([[0.0], np.geomspace(1e-4 / model.omega_bare,
                                                    0.1 / model.omega_bare, 24)])
    zeno = zeno_slope(amplitude_spectral(model, zeno_grid, quad))

    gamma_fit = exponential_rate_fit(pb, gamma, (cfg["gamma_fit_lo"], cfg["gamma_fit_hi"]))
    khalfin = None
    k_window = (cfg["khalfin_lo"] / gamma, cfg["khalfin_hi"] / gamma)
    if grid.max() >= k_window[1] * (1 - 1e-9):
        khalfin = khalfin_exponent(pb, k_window)
    try:
        t_zeno, t_khalfin = crossover_times(model, res, pb, threshold=cfg["zeno_threshold"])
    except CrossoverNotBracketed:
        t_zeno = t_khalfin = None

    rows = []
    P, G = survival_probability(sp)
    for t, d, p, g in zip(sp_grid, sp.delta0, P, G):
        rows.append((t, d.real, d.imag, p, g, "spectral"))
    P, G = survival_probability(pb)
    for t, d, p, g in zip(grid, pb.delta0, P, G):
        rows.append((t, d.real, d.imag, p, g, "pole_background"))
    write_csv(out / "survival.csv",
              ("t", "re_delta0", "im_delta0", "P", "Gamma", "method"), rows)

    phases = PhaseReport(gamma_fit=gamma_fit, zeno_slope=zeno.slope,
                         zeno_quadratic=zeno.quadratic, khalfin_exponent=khalfin,
                         t_zeno=t_zeno, t_khalfin=t_khalfin)
    report = {
        "gamma": gamma,
        "gamma_fit": phases.gamma_fit,
        "zeno_slope": phases.zeno_slope,
        "zeno_quadratic": phases.zeno_quadratic,
        "khalfin_exponent": phases.khalfin_exponent,
        "t_zeno": phases.t_zeno,
        "t_khalfin": phases.t_khalfin,
        "dual_method_sup": dual_sup,
        "dual_tol": cfg["dual_tol"],
    }
    print(write_json(out / "survival.json", report))
    if dual_sup > cfg["dual_tol"]:
        raise DualMethodMismatch(
            f"spectral and pole-background amplitudes differ by {dual_sup:.3e} "
            f"(tolerance {cfg['dual_tol']:.3e})"
        )
    return report


def cmd_density(cfg: RunConfig, out: Path) -> dict:
    model = cfg.model
    quad = cfg.quad
    res = _resonance(cfg, model)
    gamma = res.gamma
    omega_l = res.omega0 if cfg["lindblad_frequency"] == "shifted" else model.omega_bare
    state = OscillatorState(c11=cfg["c11"], c10=complex(cfg["re_c10"], cfg["im_c10"]))
    t_max = cfg["density_t_max_gamma"] / gamma
    grid = np.linspace(0.0, t_max, cfg["n_points"])
    pb = amplitude_pole_background(model, res, grid, quad, theta=cfg["ray_theta"])

    pos_tol = cfg["density_pos_tol"]
    rows = []
    sup_diff = 0.0
    for t, d in zip(grid, pb.delta0):
        exact = reduced_density(state, d, t)
        lind = lindblad_solution(state, omega_l, gamma, t)
        if abs(exact.trace - 1.0) > 1e-12:
            raise DensityInvariantViolated(f"trace {exact.trace} != 1 at t={t}")
        if exact.positivity_determinant < -pos_tol:
            raise DensityInvariantViolated(
                f"positivity determinant {exact.positivity_determinant} < -{pos_tol} at t={t}"
            )
        diff = max(abs(exact.rho11 - lind.rho11), abs(exact.rho00 - lind.rho00),
                   abs(exact.rho10 - lind.rho10))
        sup_diff = max(sup_diff, diff)
        rows.append((t, exact.rho11, exact.rho10.real, exact.rho10.imag, exact.rho00,
                     lind.rho11, lind.rho10.real, lind.rho10.imag, lind.rho00, diff))
    write_csv(out / "density.csv",
              ("t", "rho11", "re_rho10", "im_rho10", "rho00",
               "l_rho11", "l_re_rho10", "l_im_rho10", "l_rho00", "abs_diff"), rows)
    report = {
        "gamma": gamma,
        "lindblad_omega": omega_l,
        "final_rho00": rows[-1][4],
        "sup_exact_minus_lindblad": sup_diff,
    }
    print(write_json(out / "density.json", report))
    return report


def cmd_oracle(cfg: RunConfig, out: Path) -> dict:
    model = cfg.model
    quad = cfg.quad
    try:
        ladder = sorted({int(tok) for tok in cfg["oracle_n"].split(",") if tok.strip()})
    except ValueError as exc:
        raise ConfigError(f"oracle_n must be a comma list of integers: {exc}") from exc
    if not ladder:
        raise ConfigError("oracle_n is empty")
    omega_max = cfg["oracle_omega_max"]
    if omega_max is None:
        omega_max = cfg.quad.truncation(model)
    scheme = Scheme.UNIFORM if cfg["oracle_scheme"] == "uniform" else Scheme.GAUSS

    rows = []
    summary = []
    prev = None
    monotone = True
    for N in ladder:
        bath = discretize(model, N, omega_max, scheme)
        t_rec = recurrence_time(bath)
        window = cfg["oracle_window_fraction"] * t_rec
        grid = np.linspace(0.0, window, min(cfg["n_points"], 320))
        disc = oracle_amplitude(bath, grid)
        cont = amplitude_spectral(model, grid, quad)
        p_disc = np.abs(disc.delta0) ** 2
        p_cont = np.abs(cont.delta0) ** 2
        dev = np.abs(p_disc - p_cont)
        for t, po, pc, d in zip(grid, p_disc, p_cont, dev):
            rows.append((N, t, po, pc, d))
        max_dev = float(dev.max())
        if prev is not None and max_dev >= prev:
            monotone = False
        prev = max_dev
        summary.append({
            "N": N,
            "coupling_sum": float(np.sum(bath.couplings**2)),
            "recurrence_time": t_rec,
            "window": window,
            "max_abs_dP": max_dev,
        })
    write_csv(out / "oracle.csv", ("N", "t", "P_oracle", "P_continuum", "abs_diff"), rows)
    report = {"scheme": cfg["oracle_scheme"], "omega_max": omega_max,
              "ladder": summary, "monotone_deviation": monotone}
    print(write_json(out / "oracle.json", report))
    return report


def cmd_sweep(cfg: RunConfig, out: Path) -> dict:
    quad = cfg.quad
    try:
        exponents = sorted(float(tok) for tok in cfg["exponents"].split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"exponents must be a comma list of reals: {exc}") from exc
    if not exponents:
        raise ConfigError("exponents is empty")
    rows = []
    for n in exponents:
        model = build_model(cfg["omega"], cfg["lambda"], n, cfg["cutoff"], cfg["prefactor"])
        pert = perturbative_resonance(model, quad)
        gamma_gr = -2.0 * pert.imag
        closed = (2.0 * math.pi * model.lam**2 * model.prefactor
                  * model.omega_bare**n * math.exp(-((model.omega_bare / model.cutoff) ** 2)))
        if model.lam > 0:
            res = _resonance(cfg, model)
            gamma_pole = res.gamma
        else:
            gamma_pole = 0.0
        rows.append((n, gamma_gr, closed, gamma_pole))
    write_csv(out / "sweep.csv",
              ("exponent", "gamma_golden_rule", "gamma_closed_form", "gamma_pole"), rows)
    report = {
        "omega_bare": cfg["omega"],
        "rates": [{"exponent": r[0], "gamma_golden_rule": r[1],
                   "gamma_closed_form": r[2], "gamma_pole": r[3]} for r in rows],
    }
    if cfg["omega"] < 1.0 and len(rows) > 1:
        rates = [r[1] for r in rows]
        ordered = all(a > b for a, b in zip(rates, rates[1:]))
        report["ordering_decreasing_in_exponent"] = ordered
        print(write_json(out / "sweep.json", report))
        if not ordered:
            raise OrderingViolated(
                f"decay rates {rates} are not strictly decreasing in the exponent "
                f"at omega_bare={cfg['omega']} < 1"
            )
    else:
        report["ordering_decreasing_in_exponent"] = None
        print(write_json(out / "sweep.json", report))
    return report


_COMMANDS = {
    "pole": cmd_pole,
    "survival": cmd_survival,
    "density": cmd_density,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
}

_EXIT_CODES = (
    ((ConfigError, NonPositiveParameter, PositivityViolated), 2),
    ((NoConvergence, PoleInUpperHalfPlane), 3),
    ((DualMethodMismatch,), 4),
    ((DensityInvariantViolated,), 5),
    ((OrderingViolated,), 6),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Resonance pole, survival decay phases, reduced dynamics, "
                    "and finite-bath cross-checks for a damped oscillator.",
    )
    parser.add_argument("--version", action="version", version=f"oscbath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=Path("out"))
        p.add_argument("--override", action="append", default=[],
                       help="key=value, repeatable; takes precedence over the file")
    args = parser.parse_args(argv)
    try:
        cfg = build_runconfig(parse_config_file(args.config), args.override)
        args.out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](cfg, args.out)
    except OscBathError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                return code
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
