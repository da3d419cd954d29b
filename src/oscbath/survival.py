"""Survival amplitude, survival probability, and decay-phase diagnostics.

A :class:`Decay` holds one model's Cauchy rule and spectral table, each
built on first use, and gives two independent routes to the amplitude of
the one-quantum state:

* ``Decay.amplitude_spectral`` integrates the real-axis spectral
  representation Delta0(t) = int_0^inf w(omega) exp(-i omega t) domega with
  the weight w = lam^2 g2 / |alpha_plus|^2 (a probability density; its total
  mass is the sum rule).  This route answers: density and Zeno numbers.
* ``Decay.amplitude_pole_background`` extracts the resonance residue
  exp(-i z0 t) / alpha'(z0) and evaluates the remainder on a ray rotated
  into the lower half-plane, where the integrand decays for every t >= 0.
  It carries the pole/background split that the phase fits read.

The second route checks the first: their pointwise agreement over the
survival grid is the load-bearing check of the whole contour bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from ._tables import (DEFAULT_RAY_ANGLE, RayTable, SpectralTable, build_ray_table,
                      build_spectral_table)
from .errors import CrossoverNotBracketed, GridTooCoarse, WindowBeforeCrossover
from .model import ModelParams, QuadConfig
from .quadrature import CauchyRule, _brentq
from .selfenergy import Resonance

__all__ = [
    "Decay",
    "AmplitudeSeries",
    "PhaseReport",
    "ZenoFit",
    "hybrid_time_grid",
    "survival_probability",
    "zeno_slope",
    "khalfin_exponent",
    "crossover_times",
    "sum_rule",
    "exponential_rate_fit",
    "DEFAULT_RAY_ANGLE",
]


@dataclass
class AmplitudeSeries:
    """Survival amplitude Delta0 on an ascending time grid; a pole+background
    series also keeps its two parts and the ray table of the background."""

    times: np.ndarray
    delta0: np.ndarray
    pole_term: np.ndarray | None = None
    background: np.ndarray | None = None
    ray: RayTable | None = None


@dataclass(frozen=True)
class PhaseReport:
    """Summary numbers for the three decay phases.

    Crossover times satisfy t_zeno < t_khalfin whenever both are detected;
    fields are None when the underlying series does not reach the feature.
    """

    gamma_fit: float
    zeno_slope: float
    zeno_quadratic: float
    khalfin_exponent: float | None
    t_zeno: float | None
    t_khalfin: float | None

    def __post_init__(self):
        if self.t_zeno is not None and self.t_khalfin is not None:
            if not self.t_zeno < self.t_khalfin:
                raise ValueError("t_zeno must precede t_khalfin")


class ZenoFit(NamedTuple):
    slope: float
    quadratic: float


# Zeno fit times in units of 1/omega_bare, a geometric ladder from 1e-4
_ZENO_LADDER = 1e-4 * 1.35 ** np.arange(5)
# degree of the Chebyshev interpolant of the background on the Khalfin bracket
_KHALFIN_DEGREE = 15


def _validated_grid(tgrid) -> np.ndarray:
    t = np.asarray(tgrid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("time grid must be a nonempty 1-d array")
    if not (np.all(np.isfinite(t)) and t[0] >= 0 and np.all(np.diff(t) > 0)):
        raise ValueError("time grid must be finite, ascending and nonnegative")
    return t


def hybrid_time_grid(omega_bare: float, gamma: float, t_max: float,
                     n_points: int) -> np.ndarray:
    """Grid spanning the three decay phases on their own scales.

    Log-spaced below 1/omega_bare (quadratic start), linear through the
    exponential window, log-spaced out to ``t_max`` for the algebraic tail;
    t = 0 is always included.
    """
    if n_points < 16:
        raise ValueError("hybrid grid needs at least 16 points")
    t1 = 1.0 / omega_bare
    t2 = 10.0 / gamma if gamma > 0 else t_max
    pieces = [np.array([0.0])]
    n1 = max(n_points // 4, 8)
    pieces.append(np.geomspace(1e-4 / omega_bare, min(t1, t_max), n1))
    if t_max > t1:
        if t_max <= t2:
            pieces.append(np.linspace(t1, t_max, n_points - n1)[1:])
        else:
            n2 = max(n_points // 2, 8)
            n3 = max(n_points - n1 - n2, 8)
            pieces.append(np.linspace(t1, t2, n2)[1:])
            pieces.append(np.geomspace(t2, t_max, n3 + 1)[1:])
    grid = np.unique(np.concatenate(pieces))
    return grid[grid <= t_max * (1 + 1e-12)]


class Decay:
    """One model's resolvent: its Cauchy rule and its spectral table.

    Keeps the model and the truncation ``quad_cfg.truncation(model)``, and
    builds the rule and the table once each, on first use, for the resonance
    search, both amplitude routes, the Zeno numbers and the sum rule.  A run
    builds one per model; objects share nothing.
    """

    def __init__(self, model: ModelParams, quad_cfg: QuadConfig = QuadConfig()):
        self.model = model
        self.truncation = quad_cfg.truncation(model)

    @cached_property
    def rule(self) -> CauchyRule:
        return CauchyRule(self.model)

    @cached_property
    def spectral_table(self) -> SpectralTable:
        """The real-axis weight table; it does not depend on the times."""
        return build_spectral_table(self)

    def amplitude_spectral(self, tgrid) -> AmplitudeSeries:
        """Survival amplitude from the real-axis spectral integral."""
        t = _validated_grid(tgrid)
        return AmplitudeSeries(times=t, delta0=self.spectral_table.amplitude(t))

    def amplitude_pole_background(self, resonance: Resonance, tgrid,
                                  theta: float = DEFAULT_RAY_ANGLE) -> AmplitudeSeries:
        """Survival amplitude as resonance pole term plus deformed background."""
        t = _validated_grid(tgrid)
        table = build_ray_table(self, resonance.z0, theta=theta)
        pole = np.exp(-1j * resonance.z0 * t) / resonance.alpha_prime_at_pole
        bg = table.background(t)
        return AmplitudeSeries(times=t, delta0=pole + bg, pole_term=pole, background=bg,
                               ray=table)


def survival_probability(series: AmplitudeSeries):
    """P(t) = |Delta0|^2 and the effective rate Gamma(t) = -ln P / t.

    Gamma(0) is defined as 0; the survival probability starts flat.
    """
    P = np.abs(series.delta0) ** 2
    gamma_t = np.zeros_like(P)
    positive = series.times > 0
    with np.errstate(divide="ignore"):
        gamma_t[positive] = -np.log(P[positive]) / series.times[positive]
    return P, gamma_t


def zeno_slope(decay: Decay) -> ZenoFit:
    """One-sided dP/dt at t = 0 plus the quadratic coefficient q.

    Both numbers come from the spectral table of ``decay``.  The slope is a
    polynomial elimination of P at the Zeno ladder times (a small
    Vandermonde solve handles the geometric spacing) and vanishes for a
    valid model.  q is the exact t^2 coefficient of |sum w exp(-i x t)|^2,
    S * sum w (x - mu)^2 with S = sum w and mu the weighted mean frequency,
    so P(t) ~ 1 - q t^2 with q = lam^2 * int g2 domega.
    """
    table = decay.spectral_table
    ts = _ZENO_LADDER / decay.model.omega_bare
    P = np.abs(table.amplitude(np.concatenate([[0.0], ts]))) ** 2
    tau = ts / ts[-1]
    V = np.column_stack([tau**k for k in range(1, tau.size + 1)])
    slope = np.linalg.solve(V, P[1:] - P[0])[0] / ts[-1]
    w, x = table.weights, table.nodes
    total = w.sum()
    mu = np.dot(w, x) / total
    quadratic = total * np.dot(w, (x - mu) ** 2)
    return ZenoFit(slope=float(slope), quadratic=float(quadratic))


def khalfin_exponent(series: AmplitudeSeries, fit_window) -> float:
    """Log-log slope of P over a late-time window.

    Raises :class:`WindowBeforeCrossover` when the window still shows the
    exponential phase, detected both by residual curvature of ln P in ln t
    and, when the series carries them, by the pole term still dominating.
    """
    lo, hi = float(fit_window[0]), float(fit_window[1])
    if not (0 < lo < hi):
        raise ValueError("fit window must satisfy 0 < lo < hi")
    mask = (series.times >= lo) & (series.times <= hi)
    if np.count_nonzero(mask) < 8:
        raise GridTooCoarse("fit window contains fewer than 8 grid points")
    P = np.abs(series.delta0[mask]) ** 2
    if np.any(P <= 0):
        raise ValueError("survival probability vanished inside the fit window")
    if series.pole_term is not None and series.background is not None:
        pole = np.abs(series.pole_term[mask])
        bg = np.abs(series.background[mask])
        if np.mean(pole) > np.mean(bg):
            raise WindowBeforeCrossover("pole term still dominates the fit window")
    x = np.log(series.times[mask])
    y = np.log(P)
    curv = np.polyfit(x, y, 2)[0]
    if abs(curv) > 0.5:
        raise WindowBeforeCrossover(
            f"ln P is strongly curved in ln t (coefficient {curv:.3g}); "
            "the window sits before the algebraic tail"
        )
    return float(np.polyfit(x, y, 1)[0])


def crossover_times(resonance: Resonance, series: AmplitudeSeries,
                    threshold: float = 0.9):
    """Zeno and Khalfin crossover times from a pole-background series.

    t_zeno: first time the local logarithmic slope of P reaches
    -threshold*gamma.  t_khalfin: the |background| = |pole| equality,
    refined by Brent's method on the Chebyshev interpolant of the background
    through 16 points of the bracket, all taken from the ray table in one call.
    """
    if series.pole_term is None or series.background is None:
        raise ValueError("crossover detection needs a pole-background series")
    gamma = resonance.gamma
    t = series.times
    P = np.abs(series.delta0) ** 2
    pos = t > 0
    tp = t[pos]
    logp = np.log(P[pos])
    slope = np.gradient(logp, tp)
    target = -threshold * gamma
    below = np.nonzero(slope <= target)[0]
    if below.size == 0 or below[0] == 0:
        t_zeno = None
    else:
        i = below[0]
        f0, f1 = slope[i - 1] - target, slope[i] - target
        t_zeno = tp[i - 1] + (tp[i] - tp[i - 1]) * f0 / (f0 - f1)

    diff = np.abs(series.background) - np.abs(series.pole_term)
    sign_change = np.nonzero((diff[:-1] < 0) & (diff[1:] >= 0))[0]
    if t_zeno is None or sign_change.size == 0:
        raise CrossoverNotBracketed(
            "series does not span both the exponential onset and the tail takeover"
        )
    i = sign_change[0]
    a_prime = resonance.alpha_prime_at_pole
    z0 = resonance.z0
    mid, half = 0.5 * (t[i + 1] + t[i]), 0.5 * (t[i + 1] - t[i])
    cheb = np.polynomial.chebyshev
    coef = cheb.chebinterpolate(lambda x: series.ray.background(mid + half * x), _KHALFIN_DEGREE)

    def excess(tt):
        bg = cheb.chebval((tt - mid) / half, coef)
        return float(abs(bg) - abs(np.exp(-1j * z0 * tt) / a_prime))

    t_khalfin = _brentq(excess, t[i], t[i + 1], xtol=1e-10 * max(t[i + 1], 1.0))
    return float(t_zeno), float(t_khalfin)


def sum_rule(model: ModelParams, quad_cfg: QuadConfig = QuadConfig()) -> float:
    """Total mass of the spectral weight; equals 1 by completeness."""
    return float(Decay(model, quad_cfg).spectral_table.weights.sum())


def exponential_rate_fit(series: AmplitudeSeries, gamma: float,
                         window=(2.0, 6.0)) -> float:
    """Least-squares decay rate of P over t in [window]/gamma.

    Returns the fitted rate (positive for decay).
    """
    lo, hi = window[0] / gamma, window[1] / gamma
    mask = (series.times >= lo) & (series.times <= hi)
    if np.count_nonzero(mask) < 4:
        raise GridTooCoarse("exponential window contains fewer than 4 grid points")
    P = np.abs(series.delta0[mask]) ** 2
    slope = np.polyfit(series.times[mask], np.log(P), 1)[0]
    return float(-slope)
