"""Quadrature helpers shared by the resolvent and amplitude modules.

Three layers:

* composite Gauss-Legendre panels over explicit boundary lists (the fixed
  tables used for vectorized evaluation),
* one Cauchy rule per model, a fixed Gauss rule on a ray above the cut that
  gives every resolvent integral the package needs -- alpha and its
  derivative anywhere off the positive axis or on it from below, and the
  principal value on the axis -- as a node sum,
* a vectorized adaptive panel integrator for single-point complex
  integrals, raising :class:`QuadratureFailure` when the error estimate
  misses the target,

and a scalar bracketed root finder (Brent's method) for the two real roots
the library needs: the resonance position on the real axis and the Khalfin
crossover time.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import NoConvergence, QuadratureFailure
from .model import ModelParams, spectral_weight_analytic

__all__ = [
    "gauss_panels",
    "graded_boundaries",
    "CauchyRule",
    "pv_integral_many",
    "adaptive_complex_quad",
]

_MAX_PANELS = 200_000  # panel budget of graded_boundaries
# Elements per temporary of the blocked node sums (2 MB of float64).  Larger
# blocks made table builds no faster, and freed temporaries of tens of MB can
# stay resident in the heap through a later large allocation.
_BLOCK = 262_144
# The Cauchy rule: 16-node panels on s e^{i pi/8}, the first one [0, 1e-12 * cutoff],
# then widths growing by 1.5 up to cutoff/4, until prefactor s^n |e^{-zeta^2/cutoff^2}|
# falls below 1e-18.  Points about 1e3 first-panel widths from 0 get full accuracy.
_RULE_ANGLE = math.pi / 8.0
_RULE_NODES = 16
_RULE_START = 1e-12
_RULE_GROWTH = 1.5
_RULE_CAP = 0.25
_RULE_TAIL = 1e-18
_RULE_BLOCK = 131_072  # elements of the rule's block buffer (1 MB); 2 MB ran slower
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


class CauchyRule:
    """Fixed Gauss rule for the resolvent integrals on the ray above the cut.

    The nodes lie on zeta = s * exp(i*pi/8), s >= 0, and carry
    g2(zeta) * (Gauss weight) * exp(i*pi/8).  For Im z <= 0, with the real
    axis taken from below, turning [0, inf) up onto this ray crosses no
    singularity of g2(x)/(z - x)^p, and the Gaussian factor of g2 still
    decays on the ray, so the node sum is the physical-sheet integral

        R_p(z) = int_0^inf g2(x) / (z - x)^p dx.

    Every such z lies at least |z| sin(pi/8) from every node, and the panels
    are graded geometrically into the s^n endpoint (Babuska & Guo, SIAM J.
    Numer. Anal. 25 (1988) 837), which keeps the rule accurate to rounding
    for |z| down to about 1e-9 * cutoff.  Points with Im z > 0 take the
    reflection R_p(z) = conj R_p(conj z).  On the axis R_1(w) is
    PV + i*pi*g2(w), so the principal value is its real part.
    """

    def __init__(self, model: ModelParams):
        cut = model.cutoff
        decay = math.cos(2.0 * _RULE_ANGLE) / cut**2
        b = [0.0]
        s = _RULE_START * cut
        while s < cut or (model.prefactor * s**model.exponent
                          * math.exp(-decay * s * s) >= _RULE_TAIL):
            b.append(s)
            s = min(_RULE_GROWTH * s, s + _RULE_CAP * cut)
        b.append(s)
        x, w = gauss_panels(np.array(b), _RULE_NODES)
        # on the first panel [0, h], s = h u^q with q = 1/(n+1) makes s^n ds smooth in u
        u, q = x[:_RULE_NODES] / b[1], 1.0 / (model.exponent + 1.0)
        x[:_RULE_NODES] = b[1] * u**q
        w[:_RULE_NODES] *= q * u ** (q - 1.0)
        phase = cmath.exp(1j * _RULE_ANGLE)
        self.nodes = x * phase
        self.weights = spectral_weight_analytic(model, self.nodes) * w * phase

    def resolvent(self, z: complex, power: int = 1) -> complex:
        """R_power(z) at one point; Im z = 0 is the limit from below."""
        z = complex(z)
        upper = z.imag > 0.0
        zz = z.conjugate() if upper else z
        value = complex(np.sum(self.weights / (zz - self.nodes) ** power))
        return value.conjugate() if upper else value

    def resolvent_on_ray(self, s, theta: float = 0.0) -> np.ndarray:
        """R_1(s e^{-i theta}) at a 1-d array of s >= 0, for 0 <= theta < pi.

        Turning the nodes by e^{i theta} makes the points real:
        R_1 = e^{i theta} sum_k c_k / (s - zeta'_k), and each term is
        c (s - conj zeta') r with r = 1/|s - zeta'|^2.  A block of points
        takes |s - zeta'|^2 = s^2 - 2 s Re zeta' + |zeta'|^2 as one matrix
        product, which loses at most a few ulps since |s - zeta'| >=
        sin(pi/8) max(s, |zeta'|), then r, then the sums of c r and
        c conj(zeta') r as a second product.  The blocks hold
        ``_RULE_BLOCK`` elements.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        turn = cmath.exp(1j * theta)
        nodes = self.nodes * turn
        square = np.stack([np.ones(nodes.size), -2.0 * nodes.real, np.abs(nodes) ** 2])
        powers = np.column_stack([s * s, s, np.ones(s.size)])
        moments = np.column_stack([self.weights, self.weights * nodes.conj()])
        moments = moments.view(float).reshape(nodes.size, 4)
        sums = np.empty((s.size, 4))
        chunk = max(1, _RULE_BLOCK // nodes.size)
        buf = np.empty((min(chunk, s.size), nodes.size))
        for i in range(0, s.size, chunk):
            m = slice(i, i + chunk)
            r = buf[:s[m].size]
            np.matmul(powers[m], square, out=r)
            np.reciprocal(r, out=r)
            sums[m] = r @ moments
        sums = sums.view(complex)
        return turn * (s * sums[:, 0] - sums[:, 1])


def pv_integral_many(rule: CauchyRule, omegas):
    """PV int_0^inf g2(x)/(omega - x) dx at real omegas > 0, vectorized.

    The real part of the model's Cauchy rule's R_1 on the axis.
    """
    out = rule.resolvent_on_ray(omegas).real
    if np.isscalar(omegas) or np.ndim(omegas) == 0:
        return float(out[0])
    return out


def adaptive_complex_quad(f, a: float, b: float, points=None, abs_tol: float = 1e-12,
                          rel_tol: float = 1e-10, max_subdivisions: int = 200) -> complex:
    """Adaptive integral of a complex integrand on [a, b] by bisecting Gauss panels.

    ``f`` takes a 1-d float array; interior ``points`` become breakpoints.  A
    panel's value is the 15-point Gauss sum over its halves, its error the
    distance to the whole-panel rule.  At most ``max_subdivisions`` panels
    are used.  Raises :class:`QuadratureFailure` when the error misses the
    target max(abs_tol, rel_tol*|I|) by a wide factor.
    """
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
        target = max(abs_tol, rel_tol * abs(np.sum(left + right)))
        # Refine to target/100: beside an endpoint singularity such as w**n the halves
        # beat the whole-panel error only by 2**(1+n).  A non-finite error stops, then fails.
        if not err.sum() > target / 100.0 or lo.size >= max_subdivisions:
            break
        # one integrand call bisects every panel within a factor 4 of the worst
        count = min(np.count_nonzero(4.0 * err >= err.max()), max_subdivisions - lo.size)
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
