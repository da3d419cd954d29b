"""Quadrature helpers shared by the resolvent and amplitude modules.

Three layers:

* composite Gauss-Legendre panels over explicit boundary lists (the fixed
  tables used for vectorized evaluation),
* a vectorized Cauchy principal-value integral by singularity subtraction,
  and panel-by-panel barycentric interpolation of values sampled at the
  master grid's nodes (so a principal value computed once per master node
  serves any number of points),
* a vectorized adaptive panel integrator for single-point complex
  integrals, raising :class:`QuadratureFailure` when the error estimate
  misses the target,

and a scalar bracketed root finder (Brent's method) for the two real roots
the library needs: the resonance position on the real axis and the Khalfin
crossover time.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, QuadratureFailure
from .model import ModelParams, QuadConfig, spectral_weight, spectral_weight_jet

__all__ = [
    "gauss_panels",
    "graded_boundaries",
    "MasterGrid",
    "master_grid",
    "pv_integral_many",
    "adaptive_complex_quad",
]

_MASTER_NODES_PER_PANEL = 16
_MAX_PANELS = 200_000  # panel budget of graded_boundaries
# Elements per temporary of the blocked principal-value sums and interpolation
# (2 MB of float64).  Larger blocks made table builds no faster, and freed
# temporaries of tens of MB can stay resident in the heap through a later
# large allocation.
_BLOCK = 262_144
_BRENT_RTOL = 4 * np.finfo(float).eps  # SciPy's default rtol for brentq, the smallest it accepts
_BRENT_MAXITER = 100


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


def graded_boundaries(lo: float, hi: float, width_fn):
    """Greedy panel boundaries on [lo, hi] with local width cap ``width_fn(x)``."""
    pts = [lo]
    x = lo
    floor = 1e-14 * max(1.0, abs(hi))
    for _ in range(_MAX_PANELS):
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
    resolvable and handles the w**n cusp of fractional exponents.  The panel
    boundaries are kept in ``bounds``; panel k holds the 16 nodes
    ``x[16k:16k+16]``.
    """

    def __init__(self, model: ModelParams, T: float):
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
        self.bounds = np.array(b)
        self.x, self.w = gauss_panels(self.bounds, _MASTER_NODES_PER_PANEL)
        self.g2 = spectral_weight(model, self.x)

    def resolvent_integral(self, model: ModelParams, z):
        """int_0^T g2(x)/(z - x) dx at each point of a 1-d array z off [0, T].

        Accurate while the distance of each z from the real axis is not much
        smaller than the local panel width (the grid refines to ~1e-6*cutoff
        near the origin).
        """
        zz = np.asarray(z, dtype=complex)
        out = np.empty(zz.shape, dtype=complex)
        chunk = max(1, _BLOCK // self.x.size)
        gw = self.g2 * self.w
        # 1/(z - x) = (d - ib)/(d^2 + b^2) with d = Re z - x, b = Im z: two real sums
        for i in range(0, zz.size, chunk):
            zc = zz[i:i + chunk]
            d = zc.real[:, None] - self.x
            r = d * d
            r += (zc.imag**2)[:, None]
            np.reciprocal(r, out=r)
            out.imag[i:i + chunk] = -zc.imag * (r @ gw)
            d *= r
            out.real[i:i + chunk] = d @ gw
        return out

    def interpolate(self, values, omegas):
        """Values given at the grid nodes, interpolated to a 1-d array of points of [0, T].

        Each point takes the degree-15 polynomial through the 16 values of
        the panel that contains it, in the barycentric form of Berrut &
        Trefethen, SIAM Rev. 46 (2004) 501; a point on a node takes that
        node's value.  Accurate where the sampled function is analytic in a
        neighbourhood of the panel.
        """
        om = np.asarray(omegas, dtype=float)
        nodes = self.x.reshape(-1, _MASTER_NODES_PER_PANEL)
        vals = values.reshape(nodes.shape)
        x, w = _leggauss(_MASTER_NODES_PER_PANEL)
        lam = (-1.0) ** np.arange(x.size) * np.sqrt((1.0 - x * x) * w)  # barycentric weights
        panel = np.clip(np.searchsorted(self.bounds, om, side="right") - 1,
                        0, nodes.shape[0] - 1)
        out = np.empty(om.shape)
        chunk = _BLOCK // _MASTER_NODES_PER_PANEL
        for i in range(0, om.size, chunk):
            p = panel[i:i + chunk]
            diff = om[i:i + chunk, None] - nodes[p]
            hit = diff == 0.0
            c = lam / np.where(hit, 1.0, diff)
            block = np.sum(c * vals[p], axis=1) / np.sum(c, axis=1)
            row, col = np.nonzero(hit)
            block[row] = vals[p[row], col]
            out[i:i + chunk] = block
        return out


def master_grid(model: ModelParams, quad_cfg: QuadConfig) -> MasterGrid:
    return MasterGrid(model, quad_cfg.truncation(model))


def pv_integral_many(model: ModelParams, omegas, quad_cfg: QuadConfig,
                     grid: MasterGrid | None = None):
    """PV int_0^T g2(x)/(omega - x) dx for interior omegas, vectorized.

    Singularity subtraction: the smooth quotient (g2(x) - g2(w))/(w - x) is
    integrated on the master grid and the extracted logarithm
    g2(w) * ln(w / (T - w)) is added back.  Nodes closer to w than a small
    threshold switch to the closed-form Taylor form of the quotient to avoid 0/0.
    """
    if grid is None:
        grid = master_grid(model, quad_cfg)
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    if np.any(om <= 0) or np.any(om >= grid.T):
        raise ValueError("principal-value point must lie strictly inside (0, T)")
    out = np.empty(om.shape)
    g2om, d1, d2 = spectral_weight_jet(model, om)
    delta = 1e-6 * np.maximum(1.0, om)
    chunk = max(1, _BLOCK // grid.x.size)
    for i in range(0, om.size, chunk):
        diff = om[i:i + chunk, None] - grid.x
        row, col = np.nonzero(np.abs(diff) < delta[i:i + chunk, None])
        offset = diff[row, col]
        diff[row, col] = 1.0
        quot = grid.g2 - g2om[i:i + chunk, None]
        quot /= diff
        quot[row, col] = -(d1[i + row] + 0.5 * d2[i + row] * (-offset))
        out[i:i + chunk] = quot @ grid.w
    out += g2om * np.log(om / (grid.T - om))
    if np.isscalar(omegas) or np.ndim(omegas) == 0:
        return float(out[0])
    return out


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


def _brentq(f, a: float, b: float, xtol: float, rtol: float = _BRENT_RTOL) -> float:
    """Root of the scalar function ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (R. P. Brent, Algorithms for Minimization Without
    Derivatives, 1973, ch. 4), ported statement by statement from SciPy's
    ``optimize/Zeros/brentq.c`` (Charles Harris; SciPy is BSD-3-Clause) with
    its default ``rtol`` and iteration cap, so it returns the same double as
    ``scipy.optimize.brentq``: a root within xtol + rtol*|root|.  Raises
    ``ValueError`` on a NaN value or a same-sign bracket, and
    :class:`NoConvergence` after ``_BRENT_MAXITER`` iterations.
    """

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; root search cannot continue")
        return fx

    xpre, xcur, xtol, rtol = float(a), float(b), float(xtol), float(rtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant step
                num, den = -fcur * (xcur - xpre), fcur - fpre
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num, den = -fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre)
            # a zero denominator makes the C step infinite or NaN, which bisects
            if den != 0:
                stry = num / den
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    spre, scur = scur, stry
                    bisect = False
        if bisect:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise NoConvergence(f"Brent root search did not converge in {_BRENT_MAXITER} iterations; "
                        f"last iterate {xcur!r}")
