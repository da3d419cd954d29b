"""Configuration-driven command-line runner.

Subcommands: pole | survival | density | oracle | sweep.  Each reads a flat
key=value config file (one key per line, ``#`` comments), writes CSV/JSON
artifacts into the output directory, and prints the JSON report to stdout.
Exit codes: 0 success, 2 config, 3 solver, 4 dual-method disagreement,
5 density invariant, 6 rate ordering, and 1 for any other
:class:`OscBathError` (for example ``QuadratureFailure``,
``OscillationUnderResolved``, ``PoleOnRay`` or ``WindowBeforeCrossover``).
Failures emit a machine-readable JSON object on stderr whose ``error`` field
names the class.

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


def _conv(parse, domain, ok=None):
    """Converter that parses a value and rejects it outside ``domain``.

    Any failure raises ``ValueError(domain)``, so the config error can name
    the key, the value and the domain.
    """
    def convert(text):
        try:
            value = parse(text)
            if ok is None or ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(domain)
    return convert


def _choice(*options):
    return _conv(str, " or ".join(map(repr, options)), lambda v: v in options)


def _items(text):
    return [tok for tok in text.split(",") if tok.strip()]


_INT = _conv(int, "an integer")
_FINITE = _conv(float, "a finite float", math.isfinite)
_POSITIVE = _conv(float, "a finite float > 0", lambda v: 0.0 < v < math.inf)

# key -> (converter, default); _REQUIRED means the config must supply it
_SCHEMA = {
    "omega": (_FINITE, _REQUIRED),
    "lambda": (_FINITE, _REQUIRED),
    "exponent": (_FINITE, 1.0),
    "cutoff": (_FINITE, _REQUIRED),
    "prefactor": (_FINITE, 1.0),
    "abs_tol": (_FINITE, 1e-12),
    "rel_tol": (_FINITE, 1e-10),
    "max_subdivisions": (_INT, 200),
    "truncation_multiple": (_FINITE, 8.0),
    "newton_tol": (_POSITIVE, 1e-12),
    "newton_max_iter": (_INT, 50),
    "t_max_gamma": (_POSITIVE, 200.0),
    "t_max_abs": (_POSITIVE, None),
    "n_points": (_conv(int, "an integer >= 16", lambda v: v >= 16), 320),
    "spacing": (_choice("hybrid", "linear"), "hybrid"),
    "spectral_t_max_gamma": (_POSITIVE, 10.0),
    "ray_theta": (_conv(float, "a float in (0, pi/4)", lambda v: 0.0 < v < 0.25 * math.pi),
                  DEFAULT_RAY_ANGLE),
    "dual_tol": (_POSITIVE, 1e-6),
    "gamma_fit_lo": (_FINITE, 2.0),
    "gamma_fit_hi": (_FINITE, 6.0),
    "khalfin_lo": (_FINITE, 80.0),
    "khalfin_hi": (_FINITE, 200.0),
    "zeno_threshold": (_FINITE, 0.9),
    "oracle_n": (_conv(lambda s: tuple(sorted({int(tok) for tok in _items(s)})),
                      "a nonempty comma list of integers", bool), (500, 1000, 2000, 4000)),
    "oracle_omega_max": (_POSITIVE, None),
    "oracle_scheme": (_choice("uniform", "gauss"), "uniform"),
    "oracle_window_fraction": (_POSITIVE, 0.2),
    "c11": (_FINITE, 1.0),
    "re_c10": (_FINITE, 0.0),
    "im_c10": (_FINITE, 0.0),
    "density_t_max_gamma": (_POSITIVE, 20.0),
    "density_pos_tol": (_FINITE, 1e-12),
    "lindblad_frequency": (_choice("shifted", "bare"), "shifted"),
    "exponents": (_conv(lambda s: tuple(sorted(_FINITE(tok) for tok in _items(s))),
                       "a nonempty comma list of finite floats", bool), (0.5, 1.0, 2.0)),
}


@dataclass
class RunConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def model(self) -> ModelParams:
        return build_model(self["omega"], self["lambda"], self["exponent"],
                           self["cutoff"], self["prefactor"])

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
                raise ConfigError(f"key {key!r}: {merged[key]!r} is not {exc}") from exc
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            values[key] = default
    for lo, hi in (("gamma_fit_lo", "gamma_fit_hi"), ("khalfin_lo", "khalfin_hi")):
        if not 0.0 < values[lo] < values[hi]:
            raise ConfigError(f"need 0 < {lo} < {hi}, got {values[lo]!r} and {values[hi]!r}")
    try:
        OscillatorState(c11=values["c11"], c10=complex(values["re_c10"], values["im_c10"]))
    except ValueError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc
    return RunConfig(values)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
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
    if model.lam == 0.0:  # a decoupled oscillator keeps its bare frequency and unit residue
        res = Resonance(z0=complex(model.omega_bare), alpha_prime_at_pole=1.0 + 0.0j,
                        perturbative_z0=perturbative_resonance(model),
                        newton_iterations=0, residual=0.0)
    else:
        res = _resonance(cfg, model)
    pert = res.perturbative_z0
    report = {
        "omega_bare": model.omega_bare,
        "lambda": model.lam,
        "z0_re": res.z0.real,
        "z0_im": res.z0.imag,
        "omega0": res.omega0,
        "gamma": res.gamma + 0.0,  # + 0.0 writes the decoupled width -0.0 as 0.0
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
    zeno = zeno_slope(sp)

    gamma_fit = exponential_rate_fit(pb, gamma, (cfg["gamma_fit_lo"], cfg["gamma_fit_hi"]))
    khalfin = None
    k_window = (cfg["khalfin_lo"] / gamma, cfg["khalfin_hi"] / gamma)
    if grid.max() >= k_window[1] * (1 - 1e-9):
        khalfin = khalfin_exponent(pb, k_window)
    try:
        t_zeno, t_khalfin = crossover_times(res, pb, threshold=cfg["zeno_threshold"])
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
    if not dual_sup <= cfg["dual_tol"]:  # a NaN sup fails too
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
    omega_max = cfg["oracle_omega_max"]
    if omega_max is None:
        omega_max = quad.truncation(model)
    scheme = Scheme.UNIFORM if cfg["oracle_scheme"] == "uniform" else Scheme.GAUSS

    # the eigensolves come before the one continuum table, whose build
    # temporaries would otherwise stay in the heap through eigh
    baths = [discretize(model, N, omega_max, scheme) for N in cfg["oracle_n"]]
    t_recs = [recurrence_time(bath) for bath in baths]
    windows = [cfg["oracle_window_fraction"] * t_rec for t_rec in t_recs]
    grids = [np.linspace(0.0, window, min(cfg["n_points"], 320)) for window in windows]
    p_discs = [np.abs(oracle_amplitude(bath, grid).delta0) ** 2
               for bath, grid in zip(baths, grids)]
    table = amplitude_spectral(model, [0.0, max(windows)], quad).table

    rows = []
    summary = []
    prev = None
    monotone = True
    for bath, t_rec, window, grid, p_disc in zip(baths, t_recs, windows, grids, p_discs):
        N = bath.frequencies.size
        p_cont = np.abs(table.amplitude(grid)) ** 2
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
    rows = []
    for n in cfg["exponents"]:
        model = build_model(cfg["omega"], cfg["lambda"], n, cfg["cutoff"], cfg["prefactor"])
        pert = perturbative_resonance(model, quad)
        gamma_gr = -2.0 * pert.imag + 0.0  # + 0.0 writes the decoupled rate -0.0 as 0.0
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
