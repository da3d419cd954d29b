"""Quadrature helpers shared by the resolvent and amplitude modules.

Three layers:

* composite Gauss-Legendre panels over explicit boundary lists (the fixed
  tables used for vectorized evaluation),
* a vectorized Cauchy principal-value integral by singularity subtraction,
* a vectorized adaptive panel integrator for single-point complex
  integrals, raising :class:`QuadratureFailure` when the error estimate
  misses the target.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureFailure
from .model import ModelParams, QuadConfig, spectral_weight

__all__ = [
    "gauss_panels",
    "graded_boundaries",
    "MasterGrid",
    "master_grid",
    "pv_integral_many",
    "cauchy_pv",
    "adaptive_complex_quad",
]


@lru_cache(maxsize=32)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gauss_panels(boundaries, n: int):
    """Nodes and weights of an n-point Gauss rule on each panel.

    ``boundaries`` is an ascending 1-d array; returns flat (nodes, weights).
    """
    b = np.asarray(boundaries, dtype=float)
    if b.ndim != 1 or b.size < 2 or np.any(np.diff(b) <= 0):
        raise ValueError("boundaries must be strictly ascending with >= 2 entries")
    x, w = _leggauss(n)
    mid = 0.5 * (b[1:] + b[:-1])
    half = 0.5 * (b[1:] - b[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def graded_boundaries(lo: float, hi: float, width_fn, max_panels: int = 200000):
    """Greedy panel boundaries on [lo, hi] with local width cap ``width_fn(x)``."""
    pts = [lo]
    x = lo
    floor = 1e-14 * max(1.0, abs(hi))
    for _ in range(max_panels):
        step = max(float(width_fn(x)), floor)
        x = x + step
        if x >= hi - floor:
            pts.append(hi)
            return np.array(pts)
        pts.append(x)
    raise QuadratureFailure("panel budget exhausted while grading the integration range")


class MasterGrid:
    """Fixed composite-Gauss grid on [0, T] carrying g2 samples.

    Geometric refinement toward 0 keeps near-axis complex evaluation points
    resolvable and handles the w**n cusp of fractional exponents.
    """

    def __init__(self, model: ModelParams, T: float, n_per_panel: int = 16):
        b = [0.0]
        x = 1e-6 * model.cutoff
        coarse = model.cutoff / 2.5
        while x < coarse:
            b.append(x)
            x *= 1.35
        while x < T:
            b.append(x)
            x += coarse
        b.append(T)
        self.T = T
        self.x, self.w = gauss_panels(np.array(b), n_per_panel)
        self.g2 = spectral_weight(model, self.x)

    def resolvent_integral(self, model: ModelParams, z):
        """int_0^T g2(x)/(z - x) dx for complex z off [0, T], vectorized over z.

        Accurate while the distance of each z from the real axis is not much
        smaller than the local panel width (the grid refines to ~1e-6*cutoff
        near the origin).
        """
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        out = np.empty(zz.shape, dtype=complex)
        chunk = max(1, int(4_000_000 // max(self.x.size, 1)))
        gw = self.g2 * self.w
        for i in range(0, zz.size, chunk):
            zc = zz[i:i + chunk, None]
            out[i:i + chunk] = np.sum(gw[None, :] / (zc - self.x[None, :]), axis=1)
        if np.isscalar(z) or np.ndim(z) == 0:
            return complex(out[0])
        return out


def master_grid(model: ModelParams, quad_cfg: QuadConfig) -> MasterGrid:
    return MasterGrid(model, quad_cfg.truncation(model))


def pv_integral_many(model: ModelParams, omegas, quad_cfg: QuadConfig,
                     grid: MasterGrid | None = None):
    """PV int_0^T g2(x)/(omega - x) dx for interior omegas, vectorized.

    Singularity subtraction: the smooth quotient (g2(x) - g2(w))/(w - x) is
    integrated on the master grid and the extracted logarithm
    g2(w) * ln(w / (T - w)) is added back.  Nodes closer to w than a small
    threshold switch to the Taylor form of the quotient to avoid 0/0.
    """
    from .model import spectral_weight_derivative

    if grid is None:
        grid = master_grid(model, quad_cfg)
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(om <= 0) or np.any(om >= grid.T):
        raise ValueError("principal-value point must lie strictly inside (0, T)")
    out = np.empty(om.shape)
    g2om = spectral_weight(model, om)
    d1 = np.real(spectral_weight_derivative(model, om.astype(complex)))
    # second derivative by central differences; only damps the near-node Taylor term
    h2 = 1e-4 * max(1.0, model.cutoff)
    d2 = (spectral_weight(model, om + h2) - 2.0 * g2om + spectral_weight(model, np.maximum(om - h2, 0.0))) / h2**2
    delta = 1e-6 * np.maximum(1.0, om)
    chunk = max(1, int(2_000_000 // max(grid.x.size, 1)))
    for i in range(0, om.size, chunk):
        oc = om[i:i + chunk, None]
        diff = oc - grid.x[None, :]
        near = np.abs(diff) < delta[i:i + chunk, None]
        safe = np.where(near, 1.0, diff)
        quot = (grid.g2[None, :] - g2om[i:i + chunk, None]) / safe
        taylor = -(d1[i:i + chunk, None] + 0.5 * d2[i:i + chunk, None] * (-diff))
        quot = np.where(near, taylor, quot)
        out[i:i + chunk] = quot @ grid.w
    out += g2om * np.log(om / (grid.T - om))
    if np.isscalar(omegas) or np.ndim(omegas) == 0:
        return float(out[0])
    return out


def cauchy_pv(f, x0: float, a: float, b: float, fprime=None, n: int = 24,
              panels: int = 24) -> float:
    """PV int_a^b f(x)/(x0 - x) dx for a < x0 < b and smooth f.

    Generic-weight variant of the subtraction rule, used for synthetic
    integrands in validation work.  ``fprime`` supplies f'(x0); omitted, it
    is taken by central differences.
    """
    if not (a < x0 < b):
        raise ValueError("x0 must be interior to (a, b)")
    if fprime is None:
        h = 1e-6 * max(1.0, abs(x0))
        df = (f(x0 + h) - f(x0 - h)) / (2.0 * h)
    else:
        df = fprime(x0)
    bounds = np.unique(np.concatenate([
        np.linspace(a, x0, panels // 2 + 1), np.linspace(x0, b, panels // 2 + 1)
    ]))
    x, w = gauss_panels(bounds, n)
    f0 = f(x0)
    diff = x0 - x
    small = np.abs(diff) < 1e-9 * max(1.0, abs(x0))
    quot = np.empty_like(x)
    quot[~small] = (np.asarray([f(xi) for xi in x[~small]]) - f0) / diff[~small]
    quot[small] = -df
    return float(quot @ w + f0 * np.log((x0 - a) / (b - x0)))


def adaptive_complex_quad(f, a: float, b: float, quad_cfg: QuadConfig,
                          points=None, abs_tol: float | None = None) -> complex:
    """Adaptive integral of a complex integrand on [a, b] by bisecting Gauss panels.

    ``f`` takes a 1-d float array; interior ``points`` become breakpoints.  A
    panel's value is the 15-point Gauss sum over its halves, its error the
    distance to the whole-panel rule.  Raises :class:`QuadratureFailure` when
    the error misses the target max(abs_tol, rel_tol*|I|) by a wide factor.
    """
    atol = quad_cfg.abs_tol if abs_tol is None else abs_tol
    x, w = _leggauss(15)
    cat = np.concatenate

    def gauss(lo, hi, parts):
        half = 0.5 * (hi - lo)
        nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x
        values = np.asarray(f(nodes.ravel()), dtype=complex).reshape(nodes.shape)
        return ((values @ w) * half).reshape(parts, -1)

    edges = np.unique(np.clip(np.append([a, b], [] if points is None else points), a, b))
    lo, hi = edges[:-1], edges[1:]
    whole, left, right = gauss(cat([lo, lo, (lo + hi) / 2]), cat([hi, (lo + hi) / 2, hi]), 3)
    while True:
        err = np.abs(whole - left - right)
        target = max(atol, quad_cfg.rel_tol * abs(np.sum(left + right)))
        # Refine to target/100: beside an endpoint singularity such as w**n the halves
        # beat the whole-panel error only by 2**(1+n).  A non-finite error stops, then fails.
        if not err.sum() > target / 100.0 or lo.size >= quad_cfg.max_subdivisions:
            break
        # one integrand call bisects every panel within a factor 4 of the worst
        count = min(np.count_nonzero(4.0 * err >= err.max()), quad_cfg.max_subdivisions - lo.size)
        split = np.argsort(err)[::-1][:count]
        g = np.linspace(lo[split], hi[split], 5)  # rows: lo, quarter, mid, three quarters, hi
        quarters = gauss(g[:-1].ravel(), g[1:].ravel(), 4)
        whole = cat([np.delete(whole, split), left[split], right[split]])
        lo, hi = cat([np.delete(lo, split), g[0], g[2]]), cat([np.delete(hi, split), g[2], g[4]])
        left = cat([np.delete(left, split), quarters[0], quarters[2]])
        right = cat([np.delete(right, split), quarters[1], quarters[3]])
    if not err.sum() <= 50.0 * target:
        raise QuadratureFailure(f"adaptive quadrature error estimate {err.sum():.3g} "
                                f"exceeds target on [{a}, {b}]")
    return complex(np.sum(left + right))
