"""Precomputed quadrature tables for the two survival-amplitude routes.

Both routes reduce the amplitude to a weighted node sum, so a dense time
grid costs one complex exponential per node per time:

* :class:`SpectralTable` holds real-axis nodes carrying the nonnegative
  weight lam^2 g2(w) / |alpha_plus(w)|^2.  Panel widths are capped by three
  competing scales: the resonance peak (Lorentzian-like, half-width
  eta / X'), the coupling-density scale, and the phase budget at the largest
  requested time.  When the peak half-width drops below float resolution of
  the node positions (tiny couplings), an inner window around the peak
  switches to offset-based nodes with a local quadratic model of the real
  part, which stays exact where direct evaluation would suffer total
  cancellation.

* :class:`RayTable` holds nodes on the rotated ray z = s * exp(-i*theta)
  carrying the deformed background integrand
  lam^2 g2(z) / (alpha_I(z) alpha_II(z)).  On the ray the Gaussian factor of
  g2 decays like exp(-s^2 cos(2 theta)/cutoff^2) and the time factor like
  exp(-s t sin(theta)), so the angle must stay below pi/4 for the table to
  truncate at t = 0; the default angle pi/5 keeps both decay channels open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import OscillationUnderResolved, PoleOnRay, QuadratureFailure
from .model import ModelParams, QuadConfig, spectral_weight, spectral_weight_analytic
from .quadrature import MasterGrid, gauss_panels, graded_boundaries, master_grid, pv_integral_many

DEFAULT_RAY_ANGLE = math.pi / 5.0

_NODES_PER_PANEL = 24         # Gauss nodes per panel of both tables
_RAD_PER_NODE = 0.8           # phase budget per node at the largest requested time
_SPECTRAL_MAX_NODES = 500_000
_INNER_CUT = 1e-5             # peak half-width below which the offset window is used
_INNER_SPAN = 1e4             # offset window half-span, in peak half-widths
_RAY_TAIL_TOL = 1e-13         # ray truncation: Gaussian tail bound
_RAY_MAX_NODES = 300_000

__all__ = ["SpectralTable", "RayTable", "build_spectral_table", "build_ray_table",
           "DEFAULT_RAY_ANGLE", "AxisProfile", "axis_profile"]


@dataclass(frozen=True)
class AxisProfile:
    """Local description of the resonance peak on the real axis.

    omega0 solves X(omega0) = 0 where X is the real part of the boundary
    value alpha_plus; eta = pi lam^2 g2(omega0) is the half-width of the
    imaginary part, and halfwidth = eta / X' the peak scale in frequency.
    """

    omega0: float
    xprime: float
    xsecond: float
    eta: float

    @property
    def halfwidth(self) -> float:
        return self.eta / self.xprime


def axis_profile(model: ModelParams, quad_cfg: QuadConfig,
                 grid: MasterGrid | None = None) -> AxisProfile:
    grid = grid or master_grid(model, quad_cfg)
    T = grid.T

    def x_of(w):
        return w - model.omega_bare - model.lam**2 * pv_integral_many(model, w, quad_cfg, grid)

    lo = 1e-6 * model.cutoff
    hi = T - 1e-6 * model.cutoff
    flo, fhi = x_of(lo), x_of(hi)
    if not (flo < 0 < fhi):
        raise QuadratureFailure(
            "could not bracket the resonance position on the real axis; "
            "the oscillator frequency may exceed the truncated bath range"
        )
    omega0 = brentq(x_of, lo, hi, xtol=1e-15, rtol=8.9e-16)
    h = 1e-5 * max(1.0, omega0)
    xp = (x_of(omega0 + h) - x_of(omega0 - h)) / (2.0 * h)
    h2 = 1e-4 * max(1.0, omega0)
    xs = (x_of(omega0 + h2) - 2.0 * x_of(omega0) + x_of(omega0 - h2)) / h2**2
    eta = math.pi * model.lam**2 * spectral_weight(model, omega0)
    return AxisProfile(omega0=float(omega0), xprime=float(xp), xsecond=float(xs), eta=float(eta))


def node_sum(times, rates, values) -> np.ndarray:
    """sum_j values_j * exp(rates_j * t) at every t, chunked over the times."""
    t = np.asarray(times, dtype=float)
    out = np.empty(t.size, dtype=complex)
    chunk = max(1, 4_000_000 // max(rates.size, 1))  # about 4M exponentials per chunk
    for i in range(0, t.size, chunk):
        out[i:i + chunk] = np.exp(np.outer(t.ravel()[i:i + chunk], rates)) @ values
    return out.reshape(t.shape)


@dataclass
class SpectralTable:
    """Fixed nodes/weights such that amplitude(t) = sum w_j exp(-i x_j t)."""

    nodes: np.ndarray
    weights: np.ndarray
    t_max: float
    sum_defect: float = field(init=False)

    def __post_init__(self):
        self.sum_defect = float(self.weights.sum() - 1.0)

    def amplitude(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        if t.size and t.max() > self.t_max * (1.0 + 1e-9) + 1e-30:
            raise OscillationUnderResolved(
                f"table resolves phases up to t={self.t_max:.6g}, requested {t.max():.6g}"
            )
        return node_sum(t, -1j * self.nodes, self.weights)


def _estimate_nodes(T: float, t_max: float) -> int:
    phase_panels = 0 if t_max <= 0 else T * t_max / (_RAD_PER_NODE * _NODES_PER_PANEL)
    return int(_NODES_PER_PANEL * (phase_panels + 400))


def build_spectral_table(model: ModelParams, quad_cfg: QuadConfig, t_max: float) -> SpectralTable:
    """Build the real-axis weight table resolving phases up to ``t_max``.

    The table records the time its widest panel resolves, which is at least
    ``t_max``.  A decoupled model is one node at omega_bare with weight 1,
    exact at every time.
    """
    if model.lam == 0.0:
        return SpectralTable(nodes=np.array([model.omega_bare]), weights=np.array([1.0]),
                             t_max=math.inf)
    grid = master_grid(model, quad_cfg)
    T = grid.T
    if _estimate_nodes(T, t_max) > _SPECTRAL_MAX_NODES:
        raise OscillationUnderResolved(
            f"resolving t_max={t_max:.4g} over [0,{T:.3g}] needs more than "
            f"{_SPECTRAL_MAX_NODES} nodes; shorten the requested time span"
        )
    prof = axis_profile(model, quad_cfg, grid)
    om0, halfw = prof.omega0, prof.halfwidth
    h_phase = math.inf if t_max <= 0 else _RAD_PER_NODE * _NODES_PER_PANEL / t_max
    coarse = model.cutoff / 2.5
    inner = halfw < _INNER_CUT
    peak_floor = max(halfw / 2.0, 0.0) if not inner else 0.0
    d = 0.0
    if inner:
        d = min(_INNER_SPAN * halfw, 0.1 * min(om0, T - om0))

    def width(x):
        w = min(coarse, h_phase, max(x / 2.0, 1e-4 * model.cutoff))
        scale = max(abs(x - om0) / 3.0, peak_floor if not inner else d / 3.0)
        return min(w, scale) if scale > 0 else w

    lam2 = model.lam**2

    def outer_weights(nodes, wq):
        pv = pv_integral_many(model, nodes, quad_cfg, grid)
        g2 = spectral_weight(model, nodes)
        x_re = nodes - model.omega_bare - lam2 * pv
        dens = lam2 * g2 / (x_re**2 + (math.pi * lam2 * g2) ** 2)
        return dens * wq

    if not inner:
        bounds = graded_boundaries(0.0, T, width)
        nodes, wq = gauss_panels(bounds, _NODES_PER_PANEL)
        weights = outer_weights(nodes, wq)
        widest = np.diff(bounds).max()
    else:
        b_left = graded_boundaries(0.0, om0 - d, width)
        b_right = graded_boundaries(om0 + d, T, width)
        n_l, w_l = gauss_panels(b_left, _NODES_PER_PANEL)
        n_r, w_r = gauss_panels(b_right, _NODES_PER_PANEL)
        outer_nodes = np.concatenate([n_l, n_r])
        outer_w = outer_weights(outer_nodes, np.concatenate([w_l, w_r]))

        # Inner window in the scaled offset u = (w - omega0)/halfwidth.  The
        # real part is modeled as X' * delta + X''/2 * delta^2, which keeps
        # full precision where omega0 + delta would round to omega0.
        span = d / halfw
        cap = math.inf if t_max <= 0 else _RAD_PER_NODE * 20 / (halfw * t_max)
        bx = [0.0]
        u = min(1.0, max(cap, 1e-3))
        while u < span:
            bx.append(u)
            u = min(u * 2.0, u + cap)
        bx.append(span)
        ux, uw = gauss_panels(np.array(bx), 20)
        inner_nodes = []
        inner_w = []
        for side in (1.0, -1.0):
            delta = side * halfw * ux
            g2v = spectral_weight(model, np.maximum(om0 + delta, 0.0))
            xloc = prof.xprime * delta + 0.5 * prof.xsecond * delta**2
            dens = lam2 * g2v / (xloc**2 + (math.pi * lam2 * g2v) ** 2)
            inner_nodes.append(om0 + delta)
            inner_w.append(dens * uw * halfw)
        nodes = np.concatenate([outer_nodes] + inner_nodes)
        weights = np.concatenate([outer_w] + inner_w)
        # an inner panel of 20 nodes counts as one of 24 nodes this much wider
        widest = max(np.diff(b_left).max(), np.diff(b_right).max(),
                     halfw * np.diff(bx).max() * _NODES_PER_PANEL / 20)

    if nodes.size > _SPECTRAL_MAX_NODES:
        raise OscillationUnderResolved(
            f"table construction produced {nodes.size} nodes, above the cap {_SPECTRAL_MAX_NODES}"
        )
    order = np.argsort(nodes)
    resolved = _RAD_PER_NODE * _NODES_PER_PANEL / widest
    return SpectralTable(nodes=nodes[order], weights=weights[order],
                         t_max=float(max(t_max, resolved)))


@dataclass
class RayTable:
    """Background integrand sampled on the rotated ray."""

    s_nodes: np.ndarray
    values: np.ndarray  # quadrature weight * integrand * ray jacobian
    theta: float

    def background(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        decay = -math.sin(self.theta) - 1j * math.cos(self.theta)
        return node_sum(t, decay * self.s_nodes, self.values)


def _ray_truncation(model: ModelParams, theta: float) -> float:
    lam2c = max(model.lam**2 * model.prefactor, 1e-300)
    n = model.exponent
    cut = model.cutoff
    c2 = math.cos(2.0 * theta)
    S = 6.0 * cut
    for _ in range(60):
        mag = lam2c * max(S, 1.0) ** n / max(S * S, 1.0)
        arg = max(math.log(max(mag / _RAY_TAIL_TOL, 2.0)), 1.0)
        S_new = cut * math.sqrt(arg / c2)
        if abs(S_new - S) < 1e-9 * S:
            break
        S = S_new
    return max(S, 3.0 * cut)


def build_ray_table(model: ModelParams, z0: complex, quad_cfg: QuadConfig,
                    t_max: float, theta: float = DEFAULT_RAY_ANGLE) -> RayTable:
    """Build the rotated-ray table for the non-pole part of the amplitude.

    The angle is used as given.  It must lie in (0, pi/4), where the
    Gaussian factor of g2 decays along the ray, and pass below the resonance
    pole (theta > |arg z0|) so that the pole term is the extracted residue;
    an angle within 0.02 of the pole direction raises :class:`PoleOnRay`.
    """
    if model.lam == 0.0:
        raise ValueError("ray table is undefined for a decoupled oscillator")
    if not (0.0 < theta < 0.25 * math.pi):
        raise ValueError("ray angle must lie in (0, pi/4)")
    pole_angle = abs(math.atan2(z0.imag, z0.real))
    lowest = pole_angle + 0.02
    if theta <= lowest:
        raise PoleOnRay(
            f"ray angle {theta:.4g} does not pass below the pole at argument "
            f"{pole_angle:.4g}; admissible angles are ({lowest:.4g}, pi/4)"
        )

    S = _ray_truncation(model, theta)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    abs_sin2 = abs(math.sin(2.0 * theta))
    cut2 = model.cutoff**2
    s0 = min(model.cutoff, S) / 50.0
    if t_max > 0:
        s0 = min(s0, 1.0 / (t_max * sin_t) / 8.0)

    def width(s):
        t_eff = t_max if s <= s0 else min(t_max, 40.0 / (s * sin_t)) if t_max > 0 else 0.0
        k = t_eff * cos_t + 2.0 * s * abs_sin2 / cut2
        w_phase = math.inf if k <= 0 else _RAD_PER_NODE * _NODES_PER_PANEL / k
        return min(max(s / 4.0, s0), w_phase)

    bounds = graded_boundaries(0.0, S, width)
    s_nodes, wq = gauss_panels(bounds, _NODES_PER_PANEL)
    if s_nodes.size > _RAY_MAX_NODES:
        raise QuadratureFailure(
            f"ray table needs {s_nodes.size} nodes, above the cap {_RAY_MAX_NODES}"
        )
    grid = master_grid(model, quad_cfg)
    phase = complex(math.cos(theta), -math.sin(theta))
    z = s_nodes * phase
    lam2 = model.lam**2
    alpha_one = z - model.omega_bare - lam2 * grid.resolvent_integral(model, z)
    g2z = spectral_weight_analytic(model, z)
    alpha_two = alpha_one + 2j * math.pi * lam2 * g2z
    values = wq * lam2 * g2z / (alpha_one * alpha_two) * phase
    return RayTable(s_nodes=s_nodes, values=values, theta=theta)
