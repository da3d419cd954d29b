"""Quadrature helpers shared by the resolvent and amplitude modules.

Two layers:

* composite Gauss-Legendre panels over explicit boundary lists (the fixed
  tables used for vectorized evaluation),
* one Cauchy rule per model, a fixed Gauss rule on a ray above the cut that
  gives every resolvent integral the package needs -- alpha and its
  derivative anywhere off the positive axis or on it from below, and the
  principal value on the axis -- as a node sum: a direct sum at one
  point, and at an array of points on one ray a direct sum over the panels
  near each point plus multipole and Taylor series for the rest,

and a scalar bracketed root finder (Brent's method) for the two real roots
the library needs: the resonance position on the real axis and the Khalfin
crossover time.  The adaptive panel integrator :func:`adaptive_complex_quad`
has no caller in the package; it is kept only because ``bench/tracing.py``
wraps it by name.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property, lru_cache

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
# resolvent_on_ray sums node by node the panels within a factor _LINE_BAND of a
# point's s, the others by _LINE_TERMS terms of a series in at most 1/_LINE_BAND:
# the truncation is _LINE_BAND**-_LINE_TERMS = 2**-54
_LINE_BAND = 4.0
_LINE_TERMS = 27
_GROUP_COST = 200  # point-panel pairs that cost as much as one more group; 100-300 ran alike
_LINE_POINTS = _RULE_BLOCK // (2 * _LINE_TERMS)  # points whose series factors fill a block
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

    :meth:`resolvent` sums every node at one point.  :meth:`resolvent_on_ray`
    takes many points on one ray from 0 as a one-dimensional fast multipole
    method (Greengard & Rokhlin, J. Comput. Phys. 73 (1987) 325; Dutt, Gu &
    Rokhlin, SIAM J. Numer. Anal. 33 (1996) 1689).  Each point sums node by
    node only the panels whose edges lie within kappa = ``_LINE_BAND`` = 4
    of its s, the panels inside by a multipole series in e/s and those
    outside by a Taylor series in s/e, e a panel edge.  Both series stop at
    q = ``_LINE_TERMS`` = 27 terms, so each truncation is below
    kappa^-q / (1 - 1/kappa) = 7.4e-17 times the sum of the |weights| it
    replaces, over s for the multipole and over e for the Taylor series.
    The edge moments are built once per rule, and turned to an angle once,
    the first time an array asks for it.
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
        self.edges = np.array(b)
        self.nodes = x * phase
        self.weights = spectral_weight_analytic(model, self.nodes) * w * phase
        self._lines = {}  # angle -> _line_tables(angle), built on first use

    def resolvent(self, z: complex, power: int = 1) -> complex:
        """R_power(z) at one point; Im z = 0 is the limit from below."""
        z = complex(z)
        upper = z.imag > 0.0
        zz = z.conjugate() if upper else z
        d = zz - self.nodes
        value = complex((self.weights / (d if power == 1 else d**power)).sum())
        return value.conjugate() if upper else value

    def resolvent_on_ray(self, s, theta: float = 0.0) -> np.ndarray:
        """R_1(s e^{-i theta}) at a 1-d array of s >= 0, for 0 <= theta < pi.

        Turning the nodes by e^{i theta} makes the points real:
        R_1 = e^{i theta} sum_k c_k / (s - zeta'_k).  The points are sorted
        and grouped by the rule panel that holds them.  A group sums node by
        node only the panels between the edges e_in <= s_min / kappa and
        e_out >= kappa s_max, each term as c (s - conj zeta') r with
        r = 1/|s - zeta'|^2 and |s - zeta'|^2 = s^2 - 2 s Re zeta' + |zeta'|^2
        one matrix product, which loses at most a few ulps since
        |s - zeta'| >= sin(pi/8) max(s, |zeta'|).  The panels inside e_in
        add the multipole series sum_m P_m (e_in/s)^m / s, the panels outside
        e_out the Taylor series -sum_m Q_m (s/e_out)^m / e_out, from the
        edge's moments of :meth:`_line_tables`.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if theta not in self._lines:
            self._lines[theta] = self._line_tables(theta)
        order = np.argsort(s)
        x = s[order]
        out = np.empty(s.size, dtype=complex)
        if not x.size:
            return out
        if not x[0] >= 0.0:
            raise ValueError("resolvent_on_ray needs s >= 0")
        groups = self._groups(x)
        # whole groups at a time, those that start in one run of _LINE_POINTS points
        for part in np.split(groups, np.flatnonzero(np.diff(groups[:, 0] // _LINE_POINTS)) + 1):
            a, b = part[0, 0], part[-1, 1]
            out[order[a:b]] = self._line_sums(x[a:b], part - [a, a, 0, 0], theta)
        return cmath.exp(1j * theta) * out

    def _line_sums(self, x, groups, theta: float) -> np.ndarray:
        """sum_k c_k / (x - zeta'_k) at sorted x >= 0, zeta' = zeta e^{i theta}."""
        square, moments, inner, outer = self._lines[theta]
        start, end, jin, jout = groups.T
        # per point the series factors (e_in/x)^m / x and -(x/e_out)^m / e_out, zero
        # where the group has no panel inside e_in or outside e_out
        e_in, e_out = (np.repeat(self.edges[j], end - start) for j in (jin, jout))
        first = np.zeros((2, x.size))
        np.divide(1.0, x, out=first[0], where=e_in > 0.0)
        np.divide(-1.0, e_out, out=first[1],
                  where=np.repeat(jout < self.edges.size - 1, end - start))
        series = _powers(first * [e_in, -x], first).reshape(2 * _LINE_TERMS, x.size)
        powers = np.column_stack([x * x, x, np.ones(x.size)])
        sums = np.empty((x.size, 4))
        buf = np.empty(_RULE_BLOCK)
        for a, b, i, o in groups.tolist():
            lo, hi = i * _RULE_NODES, o * _RULE_NODES
            r = buf[:(b - a) * (hi - lo)].reshape(b - a, hi - lo)
            np.matmul(powers[a:b], square[:, lo:hi], out=r)
            np.reciprocal(r, out=r)
            sums[a:b] = r @ moments[lo:hi]
            coef = np.stack((inner[i], outer[o]), axis=1).reshape(2 * _LINE_TERMS, 2)
            sums[a:b, 2:] -= (coef.T @ series[:, a:b]).T
        sums = sums.view(complex)
        return x * sums[:, 0] - sums[:, 1]

    def _groups(self, x) -> np.ndarray:
        """Rows (start, end, e_in, e_out) that group the sorted points x.

        A group begins as the points of one rule panel, with the indices of
        the edges e_in <= x_min / kappa and e_out >= kappa x_max (at least
        the first edge past 0).  A group takes in the next while the merged
        direct sum costs less than the two apart plus ``_GROUP_COST``
        point-panel pairs and fits a block; a group whose direct sum or
        series factors overfill a block is split.
        """
        edges, width = self.edges, _RULE_BLOCK // _RULE_NODES
        cuts = np.append(np.searchsorted(x, edges), x.size)  # panel j holds x[cuts[j]:cuts[j + 1]]
        held = cuts[1:] > cuts[:-1]
        starts, ends = cuts[:-1][held], cuts[1:][held]
        jin = np.searchsorted(edges, x[starts] / _LINE_BAND, side="right") - 1
        jout = np.clip(np.searchsorted(edges, _LINE_BAND * x[ends - 1]), 1, edges.size - 1)
        groups = []
        for a, b, i, o in zip(starts.tolist(), ends.tolist(), jin.tolist(), jout.tolist()):
            if groups:
                a0, b0, i0, o0 = groups[-1]
                merged = (b - a0) * (o - i0)
                if merged <= min(width, (b0 - a0) * (o0 - i0) + (b - a) * (o - i) + _GROUP_COST):
                    groups[-1] = (a0, b, i0, o)
                    continue
            groups.append((a, b, i, o))
        rows = []
        for a, b, i, o in groups:
            step = max(1, min(_LINE_POINTS, width // max(o - i, 1)))
            rows.extend((c, min(c + step, b), i, o) for c in range(a, b, step))
        return np.array(rows)

    def _line_tables(self, theta: float):
        """The arrays of :meth:`resolvent_on_ray` at angle theta.

        ``square`` (rows 1, -2 Re zeta', |zeta'|^2) and ``moments`` (c and
        c conj zeta' as float pairs) of the turned nodes zeta' = zeta e^{i theta},
        and the edge moments of :attr:`_edge_moments` turned to zeta' by
        e^{i m (theta + pi/8)} and e^{-i (m+1) (theta + pi/8)}, as
        (edges, q, 2) float arrays.
        """
        turn = cmath.exp(1j * theta)
        nodes = self.nodes * turn
        square = np.stack([np.ones(nodes.size), -2.0 * nodes.real, np.abs(nodes) ** 2])
        moments = np.column_stack([self.weights, self.weights * nodes.conj()])
        moments = moments.view(float).reshape(nodes.size, 4)
        inner, outer = self._edge_moments
        spin = _powers(np.array(turn * cmath.exp(1j * _RULE_ANGLE)), 1.0)
        pairs = (self.edges.size, _LINE_TERMS, 2)
        return (square, moments, (inner * spin).view(float).reshape(pairs),
                (outer * spin.conj() * spin[1].conj()).view(float).reshape(pairs))

    @cached_property
    def _edge_moments(self):
        """Prefix and suffix moments of the weights at every panel edge e_j,

            P_m = sum_{|zeta| < e_j} c (|zeta|/e_j)^m,
            Q_m = sum_{|zeta| > e_j} c (e_j/|zeta|)^{m+1},   m < q,

        in the node radii.  Each comes from a recurrence over the panels
        that rescales the running sum by a power of e_j/e_{j+1}, which lies
        in [2/3, 1) past the first edge, so the rescaling neither overflows
        nor underflows, and every moment is at most the sum of the |weights|.
        """
        e = self.edges
        radii = np.abs(self.nodes).reshape(-1, _RULE_NODES)
        ratio = np.stack([radii / e[1:, None], e[:-1, None] / radii])
        first = ratio.copy()
        first[0] = 1.0
        # per panel j: sum c (|zeta|/e_{j+1})^m and sum c (e_j/|zeta|)^{m+1}
        c = self.weights.reshape(-1, _RULE_NODES)
        panel = np.einsum("jkr,mijk->ijmr", c.view(float).reshape(c.shape + (2,)),
                          _powers(ratio, first), optimize=True)
        panel = panel[..., 0] + 1j * panel[..., 1]
        step = e[:-1] / e[1:]
        shrink = _powers(step, 1.0).T
        # both recurrences in one pass: P from the first edge up, Q from the last down
        scale = np.hstack([shrink, (shrink * step[:, None])[::-1]])
        add = np.hstack([panel[0], panel[1, ::-1]])
        rows = [np.zeros(2 * _LINE_TERMS, dtype=complex)]
        for f, g in zip(scale, add):
            rows.append(rows[-1] * f + g)
        rows = np.array(rows)
        return rows[:, :_LINE_TERMS], rows[::-1, _LINE_TERMS:]


def _powers(ratio, first):
    """first * ratio^m for m < q along a new first axis, by doubling."""
    ratio = np.asarray(ratio)
    out = np.empty((_LINE_TERMS,) + ratio.shape, dtype=np.result_type(ratio, first))
    out[0] = first
    k = 1
    while True:
        n = min(k, _LINE_TERMS - k)
        np.multiply(out[:n], ratio, out=out[k:k + n])
        k += n
        if k == _LINE_TERMS:
            return out
        ratio = ratio * ratio


def pv_integral_many(rule: CauchyRule, omegas):
    """PV int_0^inf g2(x)/(omega - x) dx at real omegas > 0.

    The real part of the model's Cauchy rule's R_1 on the axis: a scalar
    omega takes :meth:`CauchyRule.resolvent`, an array
    :meth:`CauchyRule.resolvent_on_ray`.
    """
    if np.isscalar(omegas) or np.ndim(omegas) == 0:
        return rule.resolvent(float(omegas)).real
    return rule.resolvent_on_ray(omegas).real


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
