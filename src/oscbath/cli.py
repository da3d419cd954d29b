"""Configuration-driven command-line runner.

Subcommands: pole | survival | density | oracle | sweep.  Each reads a flat
key=value config file (one key per line, ``#`` comments), writes CSV/JSON
artifacts into the output directory, and prints the JSON report to stdout.
Exit codes: 0 success, 2 config, 3 solver, 4 dual-method disagreement,
5 density invariant, 6 rate ordering, and 1 for any other
:class:`OscBathError` (for example ``QuadratureFailure``,
``PoleOnRay`` or ``WindowBeforeCrossover``).
Failures emit a machine-readable JSON object on stderr whose ``error`` field
names the class.

``density`` takes the amplitude from the spectral route; ``survival`` checks
that route against the pole+background one over its whole time grid.

All quadrature in the production path is deterministic, so reruns with the
same config are byte-identical.

``main(argv)`` may be called repeatedly in one process, as the benchmark, the
replay tool and the tests do.  The argument parser is built on the first call
and reused; each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
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
from .model import QuadConfig, build_model
from .oracle import Scheme, discretize, oracle_amplitude, recurrence_time
from .selfenergy import Resonance, find_resonance, perturbative_resonance
from .survival import (
    DEFAULT_RAY_ANGLE,
    Decay,
    PhaseReport,
    crossover_times,
    exponential_rate_fit,
    hybrid_time_grid,
    khalfin_exponent,
    survival_probability,
    zeno_slope,
)

_REQUIRED = object()
# The tail fit starts at 1.5 t_khalfin, where the pole term lies far below the
# background, and runs only when the grid reaches 1.5 times past that start.
_PAST_CROSSOVER = 1.5
_GRID_SHARE = 0.4  # nor does it start before 0.4 t_end: 80-200 lifetimes on the default grid


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
    "truncation_multiple": (_conv(float, "a float in [4, 64]", lambda v: 4.0 <= v <= 64.0), 8.0),
    "newton_tol": (_POSITIVE, 1e-12),
    "newton_max_iter": (_INT, 50),
    "t_max_gamma": (_POSITIVE, 200.0),
    "t_max_abs": (_POSITIVE, None),
    "n_points": (_conv(int, "an integer >= 16", lambda v: v >= 16), 320),
    "spacing": (_choice("hybrid", "linear"), "hybrid"),
    "ray_theta": (_conv(float, "a float in (0, pi/4)", lambda v: 0.0 < v < 0.25 * math.pi),
                  DEFAULT_RAY_ANGLE),
    "dual_tol": (_POSITIVE, 1e-6),
    "gamma_fit_lo": (_FINITE, 2.0),
    "gamma_fit_hi": (_FINITE, 6.0),
    "zeno_threshold": (_FINITE, 0.9),
    "oracle_n": (_conv(lambda s: tuple(sorted({int(tok) for tok in _items(s)})),
                      "a nonempty comma list of integers >= 2", lambda v: v and v[0] >= 2),
                 (500, 1000, 2000, 4000)),
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

    def decay(self, exponent: float | None = None) -> Decay:
        """The run's model, or the one with ``exponent`` in place of the
        config's, with its truncation."""
        model = build_model(self["omega"], self["lambda"],
                            self["exponent"] if exponent is None else exponent,
                            self["cutoff"], self["prefactor"])
        return Decay(model, QuadConfig(upper_truncation_multiple=self["truncation_multiple"]))


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
    lo, hi = values["gamma_fit_lo"], values["gamma_fit_hi"]
    if not 0.0 < lo < hi:
        raise ConfigError(f"need 0 < gamma_fit_lo < gamma_fit_hi, got {lo!r} and {hi!r}")
    try:
        OscillatorState(c11=values["c11"], c10=complex(values["re_c10"], values["im_c10"]))
    except ValueError as exc:
        raise ConfigError(f"invalid initial state: {exc}") from exc
    return RunConfig(values)


def _spec(x) -> str:
    if isinstance(x, str):
        return "%s"
    if isinstance(x, (int, np.integer)):
        return "%d"
    return "%.17g"


def write_csv(path: Path, header, rows):
    """Write ``rows`` under ``header``: strings as they are, integers in
    decimal and every other value as a float to 17 significant digits.  Each
    column keeps the type of its cell in the first row."""
    with path.open("w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            line = ",".join(_spec(v) for v in rows[0]) + "\n"
            fh.writelines(line % tuple(row) for row in rows)


def _rows(*columns) -> list[tuple]:
    """Rows of Python numbers from equally long numpy columns."""
    return list(zip(*(column.tolist() for column in columns)))


def write_json(path: Path, payload) -> str:
    text = json.dumps(payload, indent=2, sort_keys=True)
    path.write_text(text + "\n")
    return text


def _resonance(cfg: RunConfig, decay: Decay) -> Resonance:
    return find_resonance(decay, tol=cfg["newton_tol"], max_iter=cfg["newton_max_iter"])


def _time_grid(cfg: RunConfig, gamma: float):
    t_max = cfg["t_max_abs"] or cfg["t_max_gamma"] / gamma
    if cfg["spacing"] == "linear":
        return np.linspace(0.0, t_max, cfg["n_points"])
    return hybrid_time_grid(cfg["omega"], gamma, t_max, cfg["n_points"])


def cmd_pole(cfg: RunConfig, out: Path) -> dict:
    decay = cfg.decay()
    model = decay.model
    if model.lam == 0.0:  # a decoupled oscillator keeps its bare frequency and unit residue
        res = Resonance(z0=complex(model.omega_bare), alpha_prime_at_pole=1.0 + 0.0j,
                        perturbative_z0=perturbative_resonance(decay),
                        newton_iterations=0, residual=0.0)
    else:
        res = _resonance(cfg, decay)
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
    decay = cfg.decay()
    res = _resonance(cfg, decay)
    gamma = res.gamma
    grid = _time_grid(cfg, gamma)
    pb = decay.amplitude_pole_background(res, grid, theta=cfg["ray_theta"])
    sp = decay.amplitude_spectral(grid)
    dual_sup = float(np.max(np.abs(sp.delta0 - pb.delta0)))
    zeno = zeno_slope(decay)

    gamma_fit = exponential_rate_fit(pb, gamma, (cfg["gamma_fit_lo"], cfg["gamma_fit_hi"]))
    try:
        t_zeno, t_khalfin = crossover_times(res, pb, threshold=cfg["zeno_threshold"])
    except CrossoverNotBracketed:
        t_zeno = t_khalfin = None
    khalfin, t_end = None, grid[-1]
    if t_khalfin is not None:
        lo = max(_PAST_CROSSOVER * t_khalfin, _GRID_SHARE * t_end)
        if _PAST_CROSSOVER * lo <= t_end:
            khalfin = khalfin_exponent(pb, (lo, t_end))

    rows = []
    for series, method in ((sp, "spectral"), (pb, "pole_background")):
        P, G = survival_probability(series)
        rows += [(*row, method) for row in _rows(series.times, series.delta0.real,
                                                 series.delta0.imag, P, G)]
    write_csv(out / "survival.csv",
              ("t", "re_delta0", "im_delta0", "P", "Gamma", "method"), rows)

    phases = PhaseReport(gamma_fit=gamma_fit, zeno_slope=zeno.slope,
                         zeno_quadratic=zeno.quadratic, khalfin_exponent=khalfin,
                         t_zeno=t_zeno, t_khalfin=t_khalfin)
    report = {"gamma": gamma, **asdict(phases), "dual_method_sup": dual_sup,
              "dual_tol": cfg["dual_tol"]}
    print(write_json(out / "survival.json", report))
    if not dual_sup <= cfg["dual_tol"]:  # a NaN sup fails too
        raise DualMethodMismatch(
            f"spectral and pole-background amplitudes differ by {dual_sup:.3e} "
            f"(tolerance {cfg['dual_tol']:.3e})"
        )
    return report


def cmd_density(cfg: RunConfig, out: Path) -> dict:
    decay = cfg.decay()
    res = _resonance(cfg, decay)
    gamma = res.gamma
    omega_l = res.omega0 if cfg["lindblad_frequency"] == "shifted" else decay.model.omega_bare
    state = OscillatorState(c11=cfg["c11"], c10=complex(cfg["re_c10"], cfg["im_c10"]))
    t_max = cfg["density_t_max_gamma"] / gamma
    grid = np.linspace(0.0, t_max, cfg["n_points"])
    sp = decay.amplitude_spectral(grid)

    exact = reduced_density(state, sp.delta0, grid)  # checks the amplitude bound first
    lind = lindblad_solution(state, omega_l, gamma, grid)
    trace, det, pos_tol = exact.trace, exact.positivity_determinant, cfg["density_pos_tol"]
    bad_trace = np.abs(trace - 1.0) > 1e-12
    bad = np.flatnonzero(bad_trace | (det < -pos_tol))
    if bad.size:  # the first failing time, the trace before the positivity
        i = bad[0]
        if bad_trace[i]:
            raise DensityInvariantViolated(f"trace {trace[i]} != 1 at t={grid[i]}")
        raise DensityInvariantViolated(
            f"positivity determinant {det[i]} < -{pos_tol} at t={grid[i]}")
    diff = np.max([np.abs(exact.rho11 - lind.rho11), np.abs(exact.rho00 - lind.rho00),
                   np.abs(exact.rho10 - lind.rho10)], axis=0)
    write_csv(out / "density.csv",
              ("t", "rho11", "re_rho10", "im_rho10", "rho00",
               "l_rho11", "l_re_rho10", "l_im_rho10", "l_rho00", "abs_diff"),
              _rows(grid, exact.rho11, exact.rho10.real, exact.rho10.imag, exact.rho00,
                    lind.rho11, lind.rho10.real, lind.rho10.imag, lind.rho00, diff))
    report = {
        "gamma": gamma,
        "lindblad_omega": omega_l,
        "final_rho00": float(exact.rho00[-1]),
        "sup_exact_minus_lindblad": float(diff.max()),
    }
    print(write_json(out / "density.json", report))
    return report


def cmd_oracle(cfg: RunConfig, out: Path) -> dict:
    decay = cfg.decay()
    omega_max = cfg["oracle_omega_max"] or decay.truncation
    scheme = Scheme.UNIFORM if cfg["oracle_scheme"] == "uniform" else Scheme.GAUSS

    baths = [discretize(decay.model, N, omega_max, scheme) for N in cfg["oracle_n"]]
    t_recs = [recurrence_time(bath) for bath in baths]
    windows = [cfg["oracle_window_fraction"] * t_rec for t_rec in t_recs]
    grids = [np.linspace(0.0, window, min(cfg["n_points"], 320)) for window in windows]
    p_discs = [np.abs(oracle_amplitude(bath, grid).delta0) ** 2
               for bath, grid in zip(baths, grids)]
    table = decay.spectral_table  # one table serves every window

    rows = []
    summary = []
    prev = None
    monotone = True
    for bath, t_rec, window, grid, p_disc in zip(baths, t_recs, windows, grids, p_discs):
        N = bath.frequencies.size
        p_cont = np.abs(table.amplitude(grid)) ** 2
        dev = np.abs(p_disc - p_cont)
        rows += [(N, *row) for row in _rows(grid, p_disc, p_cont, dev)]
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
    rows = []
    for n in cfg["exponents"]:
        decay = cfg.decay(exponent=n)
        model = decay.model
        pert = perturbative_resonance(decay)
        gamma_gr = -2.0 * pert.imag + 0.0  # + 0.0 writes the decoupled rate -0.0 as 0.0
        closed = (2.0 * math.pi * model.lam**2 * model.prefactor
                  * model.omega_bare**n * math.exp(-((model.omega_bare / model.cutoff) ** 2)))
        gamma_pole = _resonance(cfg, decay).gamma if model.lam > 0 else 0.0
        rows.append((n, gamma_gr, closed, gamma_pole))
    write_csv(out / "sweep.csv",
              ("exponent", "gamma_golden_rule", "gamma_closed_form", "gamma_pole"), rows)
    report = {
        "omega_bare": cfg["omega"],
        "rates": [{"exponent": r[0], "gamma_golden_rule": r[1],
                   "gamma_closed_form": r[2], "gamma_pole": r[3]} for r in rows],
    }
    rates = [r[1] for r in rows]
    ordered = None
    if cfg["omega"] < 1.0 and len(rows) > 1:
        ordered = all(a > b for a, b in zip(rates, rates[1:]))
    report["ordering_decreasing_in_exponent"] = ordered
    print(write_json(out / "sweep.json", report))
    if ordered is False:
        raise OrderingViolated(
            f"decay rates {rates} are not strictly decreasing in the exponent "
            f"at omega_bare={cfg['omega']} < 1"
        )
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  ``--override``
    appends to a copy of its empty default, never to the default itself."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
