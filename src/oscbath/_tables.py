"""Precomputed quadrature tables for the two survival-amplitude routes.

* :class:`SpectralTable` holds real-axis Gauss panels carrying the
  nonnegative weight lam^2 g2(w) / |alpha_plus(w)|^2.  Panel widths resolve
  the weight alone, capped by the resonance peak (Lorentzian-like, half-width
  eta / X') and the coupling-density scale, so the table does not depend on
  the requested times.  The amplitude integrates each panel's polynomial
  interpolant of the weight against exp(-i w t) exactly, from the panel's
  Legendre moments and the spherical Bessel functions j_k (a Filon-type rule:
  Iserles & Norsett, Proc. R. Soc. A 461 (2005) 1383), so its cost per time
  is one short sum per panel at every t (:func:`filon_sums`, summed inside
  the j_k recurrences up to the order where j_k drops below rounding; the
  same panel sum serves the ray table).  When
  the peak half-width drops below float resolution of the node positions
  (tiny couplings), an inner window around the peak switches to offset-based
  nodes with a local quadratic model of the real part, which stays exact
  where direct evaluation would suffer total cancellation.  The real part of
  alpha_plus needs the principal value of the resolvent integral at every
  node outside that window; all of them come from one call of the model's
  Cauchy rule (:func:`~oscbath.quadrature.pv_integral_many`), and the
  window's X' and X'' from the same rule in closed form.  This table gives
  the amplitude; the ray table checks it.

* :class:`RayTable` holds Gauss panels on the rotated ray z = s * exp(-i*theta)
  carrying the deformed background integrand
  lam^2 g2(z) / (alpha_I(z) alpha_II(z)); alpha_I on the ray comes from the
  Cauchy rule.  Each panel of a geometric starting mesh is bisected until
  its top Legendre coefficients reach rounding, which grades the panels into
  the s^n endpoint (Babuska & Guo, SIAM J. Numer. Anal. 25 (1988) 837) and
  around any zero of alpha_II near the ray.  The background is the same
  panel sum with a complex argument, so the table takes no times; as
  |exp(-i z t)| <= 1 on the ray, the error at t = 0 bounds it at every t.
  On the ray the Gaussian factor of g2 decays like
  exp(-s^2 cos(2 theta)/cutoff^2) and the time factor like
  exp(-s t sin(theta)), so the angle must stay below pi/4 for the table to
  truncate at t = 0; the default angle pi/5 keeps both decay channels open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import PoleOnRay, QuadratureFailure
from .model import ModelParams, spectral_weight, spectral_weight_analytic
from .quadrature import (_BLOCK, _brentq, _leggauss, gauss_panels, graded_boundaries,
                         pv_integral_many)

if TYPE_CHECKING:
    from .survival import Decay

DEFAULT_RAY_ANGLE = math.pi / 5.0

_NODES_PER_PANEL = 24         # Gauss nodes per panel of both tables
_INNER_NODES = 20             # Gauss nodes per panel of the spectral table's offset window
_SERIES_EDGE = 1e-3           # j_k: argument below which the power series is used
_JN_GROUPS = (0.5, 3.0)       # j_k: edges of the argument groups between 1e-3 and the top
_JN_DROP = 2.0**-53           # j_k: orders whose bound a^k/(2k+1)!! falls below this are dropped
_PAIRS = _BLOCK // 8          # panel sum: panel-time pairs per block
_INNER_CUT = 1e-5             # peak half-width below which the offset window is used
_INNER_SPAN = 1e4             # offset window half-span, in peak half-widths
_RAY_TAIL_TOL = 1e-13         # ray truncation: Gaussian tail bound
_RAY_FIRST = 1e-7             # ray table: first panel of the starting mesh, in cutoffs
_RAY_COEF_TOL = 1e-15         # ray table: bound on (2k+1)|m_pk| at a panel's top two orders
_RAY_MAX_ROUNDS = 40          # ray table: bisection rounds before QuadratureFailure

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


def axis_profile(decay: Decay) -> AxisProfile:
    """omega0 by Brent's method on X, then X' = 1 + lam^2 Re R_2 and
    X'' = -2 lam^2 Re R_3 at omega0 from the Cauchy rule."""
    model, rule, T = decay.model, decay.rule, decay.truncation
    lam2 = model.lam**2

    def x_of(w):
        return w - model.omega_bare - lam2 * pv_integral_many(rule, w)

    lo = 1e-6 * model.cutoff
    hi = T - 1e-6 * model.cutoff
    flo, fhi = x_of(lo), x_of(hi)
    if not (flo < 0 < fhi):
        raise QuadratureFailure(
            "could not bracket the resonance position on the real axis; "
            "the oscillator frequency may exceed the truncated bath range"
        )
    omega0 = _brentq(x_of, lo, hi, xtol=1e-15, rtol=8.9e-16)
    xp = 1.0 + lam2 * rule.resolvent(omega0, 2).real
    xs = -2.0 * lam2 * rule.resolvent(omega0, 3).real
    eta = math.pi * lam2 * spectral_weight(model, omega0)
    return AxisProfile(omega0=float(omega0), xprime=float(xp), xsecond=float(xs), eta=float(eta))


def filon_sums(coef, a) -> np.ndarray:
    """sum_k coef[p, k] (-i)^k j_k(a[p, t]) e^{-|Im a[p, t]|}, one row of a per row of coef.

    ``a`` holds real a >= 0, or complex a, whose factor e^{-|Im a|} keeps
    every sum within its coefficients' scale.  The sums grow inside the
    recurrences that make the j_k.  The arguments go in groups by |a|, split
    at 1e-3, ``_JN_GROUPS`` and n = coef.shape[1] (2n for complex a); a group
    stops at the first order where j_k's bound B_k = |a|^k/(2k+1)!!, at its
    largest |a|, is below ``_JN_DROP``.  Below 1e-3 the series a^k/(2k+1)!! *
    (1 - h/(2k+3) + h^2/(2(2k+3)(2k+5))), h = a^2/2, exact to rounding; from
    the top edge up the upward recurrence from j_{-1} = cos a / a and
    j_0 = sin a / a, stable while |a| > k.  In between, Miller's downward
    recurrence from B_K ~ j_K(a): its start's error at the group's top kept
    order is about B_K^2 / min(1, B_top), so K is the first order where that
    is below ``_JN_DROP``.  Its sums are scaled by the least-squares fit of
    its first two values to j_0 and j_1 = (j_0 - cos a)/a (never both 0).
    """
    n = coef.shape[1]
    signed = np.ascontiguousarray((coef * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(n) % 4]).T)
    flat = a.ravel()
    size = np.abs(flat) if np.iscomplexobj(flat) else flat
    even, odd = np.empty((2, flat.size), np.result_type(coef, flat))
    top = 2 * n if np.iscomplexobj(flat) else n
    edges = np.minimum([_SERIES_EDGE, *_JN_GROUPS, top], top)  # sorted for any n >= 1
    group = np.searchsorted(edges, size, side="right")
    for g in np.flatnonzero(np.bincount(group)):
        idx = np.flatnonzero(group == g)
        x = flat[idx]
        sums = _series_sums if g == 0 else _upward_sums if g == edges.size else _miller_sums
        even[idx], odd[idx] = sums(x, signed[:_first_below(size[idx].max(), _JN_DROP, n)],
                                   idx // a.shape[1])
    return (even + 1j * odd).reshape(a.shape)


def _first_below(a: float, tol: float, cap=math.inf, k: int = 0) -> int:
    """The first order from k on where a^j/(2j+1)!!, relative to its value
    at order k, is below tol; or cap if that comes first."""
    bound = 1.0
    while k < cap and bound >= tol:
        bound, k = bound * a / (2 * k + 3), k + 1
    return k


def _scaled_sin_cos(x):
    """sin x and cos x, times e^{-|Im x|} for complex x."""
    if not np.iscomplexobj(x):
        return np.sin(x), np.cos(x)
    e = 0.5 * np.expm1(-2.0 * np.abs(x.imag))  # cosh(y) e^{-|y|} - 1, exact at small y
    s, c, sh = np.sin(x.real), np.cos(x.real), -np.sign(x.imag) * e  # sh = sinh(y) e^{-|y|}
    return s * (1.0 + e) + 1j * (c * sh), c * (1.0 + e) - 1j * (s * sh)


def _series_sums(x, signed, rows):
    sums, term, h = np.zeros((2, x.size), np.result_type(x, signed)), np.ones(x.size), 0.5 * x * x
    for k, c in enumerate(signed):  # term = x^k / (2k+1)!!
        sums[k & 1] += term * (1.0 - h / (2 * k + 3) * (1.0 - 0.5 * h / (2 * k + 5))) * c.take(rows)
        term = term * x / (2 * k + 3)
    return sums * np.exp(-np.abs(x.imag)) if np.iscomplexobj(x) else sums


def _upward_sums(x, signed, rows):
    sums, inv = np.zeros((2, x.size), np.result_type(x, signed)), 1.0 / x
    sin, cos = _scaled_sin_cos(x)
    below, f = cos * inv, sin * inv
    for k, c in enumerate(signed):
        sums[k & 1] += f * c.take(rows)
        below, f = f, (2 * k + 1) * inv * f - below
    return sums


def _miller_sums(x, signed, rows):
    size, top = np.abs(x).max(), len(signed) - 1
    bound = size**top / np.prod(2.0 * np.arange(top + 1) + 1.0)  # at the top kept order
    K = _first_below(size, math.sqrt(_JN_DROP * min(1.0, bound)) / bound, k=top)
    sums, inv = np.zeros((2, x.size), np.result_type(x, signed)), 1.0 / x
    f, above = np.exp(K * np.log(x) - np.sum(np.log(2.0 * np.arange(K + 1) + 1.0))), 0.0
    for k in range(K - 1, -1, -1):  # f becomes j_k up to a common scale
        f, above = (2 * k + 3) * inv * f - above, f
        if k < len(signed):
            sums[k & 1] += f * signed[k].take(rows)
    sin, cos = _scaled_sin_cos(x)
    j0 = sin * inv
    fc, ac = (f.conj(), above.conj()) if np.iscomplexobj(x) else (f, above)
    return sums * ((j0 * fc + (j0 - cos) * inv * ac) / (f * fc + above * ac))


@dataclass
class _PanelTable:
    """Gauss panels on z = s e^{-i theta}, s >= 0 (the real axis at theta = 0),
    with the Legendre moments of their table weights.

    Panel p has centre ``centres[p]`` and half-width ``halfwidths[p]`` in s;
    its samples at the Gauss abscissae xi_j carry the table weights W_pj, and
    ``moments[p, k]`` is sum_j W_pj P_k(xi_j) (zero above the panel's node
    count).  With phi = e^{-i theta}, the panel sum

        sum_p exp(-i c_p phi t) sum_k (2k+1) (-i)^k j_k(h_p phi t) m_pk

    integrates each panel's interpolant against exp(-i z t) exactly, by
    int_{-1}^{1} P_k(x) exp(-i a x) dx = 2 (-i)^k j_k(a); at t = 0 it is sum W.
    :func:`filon_sums` scales j_k by e^{-|Im a|} = e^{-h t sin theta}, which
    moves into the panel's exponential, exp(-i c t cos theta - (c - h) t sin
    theta), never above 1 as c - h >= 0.  Pairs of panels and times go in
    blocks of ``_PAIRS``.
    """

    centres: np.ndarray
    halfwidths: np.ndarray
    moments: np.ndarray

    def _panel_sum(self, times, theta: float = 0.0) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        flat = t.ravel()
        coef = (2 * np.arange(self.moments.shape[1]) + 1) * self.moments
        sin, cos = math.sin(theta), math.cos(theta)
        rates = -(self.centres - self.halfwidths) * sin - 1j * self.centres * cos
        scales = self.halfwidths * complex(cos, -sin) if theta else self.halfwidths
        out = np.zeros(flat.size, dtype=complex)
        tc = max(1, min(flat.size, _PAIRS))
        pc = max(1, _PAIRS // tc)
        for i in range(0, flat.size, tc):
            ts = flat[i:i + tc]
            for p in range(0, self.centres.size, pc):
                inner = filon_sums(coef[p:p + pc], np.outer(scales[p:p + pc], ts))
                phase = np.exp(np.outer(rates[p:p + pc], ts))
                out[i:i + tc] += np.einsum("pt,pt->t", phase, inner)
        return out.reshape(t.shape)


@dataclass
class SpectralTable(_PanelTable):
    """Panels of the spectral weight on the real axis; ``amplitude`` is
    their panel sum.  ``nodes`` and ``weights`` hold every sample, sorted by
    node."""

    nodes: np.ndarray
    weights: np.ndarray
    sum_defect: float = field(init=False)

    def __post_init__(self):
        self.sum_defect = float(self.weights.sum() - 1.0)

    def amplitude(self, times) -> np.ndarray:
        return self._panel_sum(times)


def _panels(bounds, weights, xi, n: int):
    """Centres, half-widths and Legendre moments, padded to ``n`` orders, of
    Gauss panels; ``weights`` holds each panel's table weights at its local
    coordinates ``xi``."""
    centres = 0.5 * (bounds[1:] + bounds[:-1])
    halfwidths = 0.5 * (bounds[1:] - bounds[:-1])
    moments = np.zeros((centres.size, n))
    moments[:, :xi.size] = (weights.reshape(centres.size, xi.size)
                            @ np.polynomial.legendre.legvander(xi, xi.size - 1))
    return centres, halfwidths, moments


def build_spectral_table(decay: Decay) -> SpectralTable:
    """Build the real-axis weight table, on panels that resolve the weight.

    The same table serves every time.  A decoupled model is one node at
    omega_bare with weight 1, a panel of zero width, exact at every time.
    """
    model = decay.model
    if model.lam == 0.0:
        one = np.array([1.0])
        return SpectralTable(nodes=np.array([model.omega_bare]), weights=one,
                             centres=np.array([model.omega_bare]), halfwidths=np.zeros(1),
                             moments=one[:, None])
    T = decay.truncation
    prof = axis_profile(decay)
    om0, halfw = prof.omega0, prof.halfwidth
    coarse = model.cutoff / 2.5
    inner = halfw < _INNER_CUT
    peak_floor = max(halfw / 2.0, 0.0) if not inner else 0.0
    d = 0.0
    if inner:
        d = min(_INNER_SPAN * halfw, 0.1 * min(om0, T - om0))

    def width(x):
        w = min(coarse, max(x / 2.0, 1e-4 * model.cutoff))
        scale = max(abs(x - om0) / 3.0, peak_floor if not inner else d / 3.0)
        return min(w, scale) if scale > 0 else w

    lam2 = model.lam**2

    def outer_weights(nodes, wq):
        pv = pv_integral_many(decay.rule, nodes)
        g2 = spectral_weight(model, nodes)
        x_re = nodes - model.omega_bare - lam2 * pv
        dens = lam2 * g2 / (x_re**2 + (math.pi * lam2 * g2) ** 2)
        return dens * wq

    x_outer, _ = _leggauss(_NODES_PER_PANEL)
    if not inner:
        bounds = graded_boundaries(0.0, T, width)
        nodes, wq = gauss_panels(bounds, _NODES_PER_PANEL)
        weights = outer_weights(nodes, wq)
        panels = [_panels(bounds, weights, x_outer, _NODES_PER_PANEL)]
    else:
        b_left = graded_boundaries(0.0, om0 - d, width)
        b_right = graded_boundaries(om0 + d, T, width)
        n_l, w_l = gauss_panels(b_left, _NODES_PER_PANEL)
        n_r, w_r = gauss_panels(b_right, _NODES_PER_PANEL)
        outer_nodes = np.concatenate([n_l, n_r])
        outer_w = outer_weights(outer_nodes, np.concatenate([w_l, w_r]))
        panels = [_panels(b_left, outer_w[:n_l.size], x_outer, _NODES_PER_PANEL),
                  _panels(b_right, outer_w[n_l.size:], x_outer, _NODES_PER_PANEL)]

        # Inner window in the scaled offset u = (w - omega0)/halfwidth.  The
        # real part is modeled as X' * delta + X''/2 * delta^2, which keeps
        # full precision where omega0 + delta would round to omega0.  Each
        # panel's local coordinate comes from u, not from its rounded nodes.
        span = d / halfw
        bx = [0.0]
        u = 1.0
        while u < span:
            bx.append(u)
            u *= 2.0
        bx.append(span)
        bx = np.array(bx)
        ux, uw = gauss_panels(bx, _INNER_NODES)
        x_inner, _ = _leggauss(_INNER_NODES)
        inner_nodes = []
        inner_w = []
        for side in (1.0, -1.0):
            delta = side * halfw * ux
            g2v = spectral_weight(model, np.maximum(om0 + delta, 0.0))
            xloc = prof.xprime * delta + 0.5 * prof.xsecond * delta**2
            dens = lam2 * g2v / (xloc**2 + (math.pi * lam2 * g2v) ** 2)
            inner_nodes.append(om0 + delta)
            inner_w.append(dens * uw * halfw)
            c, h, m = _panels(bx, inner_w[-1], side * x_inner, _NODES_PER_PANEL)
            panels.append((om0 + side * halfw * c, halfw * h, m))
        nodes = np.concatenate([outer_nodes] + inner_nodes)
        weights = np.concatenate([outer_w] + inner_w)

    order = np.argsort(nodes)
    centres, halfwidths, moments = (np.concatenate(part) for part in zip(*panels))
    return SpectralTable(nodes=nodes[order], weights=weights[order], centres=centres,
                         halfwidths=halfwidths, moments=moments)


@dataclass
class RayTable(_PanelTable):
    """Panels of the background integrand on the rotated ray; ``background``
    is their panel sum.  The table weights are Gauss weight * integrand *
    e^{-i theta}, sampled at the abscissae ``s_nodes``."""

    s_nodes: np.ndarray
    theta: float

    def background(self, times) -> np.ndarray:
        return self._panel_sum(times, self.theta)


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


def build_ray_table(decay: Decay, z0: complex, theta: float = DEFAULT_RAY_ANGLE) -> RayTable:
    """Build the rotated-ray table for the non-pole part of the amplitude.

    The angle is used as given.  It must lie in (0, pi/4), where the
    Gaussian factor of g2 decays along the ray, and pass below the resonance
    pole (theta > |arg z0|) so that the pole term is the extracted residue;
    an angle within 0.02 of the pole direction raises :class:`PoleOnRay`.

    The starting mesh is a first panel of ``_RAY_FIRST`` cutoffs, widths
    equal to s up to the cutoff, then cutoff-wide panels to the truncation.
    A panel whose (2k+1)|m_k| at k = 22 or 23 exceeds ``_RAY_COEF_TOL`` is
    bisected; one still unresolved after ``_RAY_MAX_ROUNDS`` rounds raises
    :class:`QuadratureFailure`.
    """
    model = decay.model
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

    phase = complex(math.cos(theta), -math.sin(theta))
    lam2 = model.lam**2

    def weights(s, wq):
        z = s * phase
        alpha_one = z - model.omega_bare - lam2 * decay.rule.resolvent_on_ray(s, theta)
        g2z = spectral_weight_analytic(model, z)
        alpha_two = alpha_one + 2j * math.pi * lam2 * g2z
        return wq * lam2 * g2z / (alpha_one * alpha_two) * phase

    cut = model.cutoff
    bounds = graded_boundaries(0.0, _ray_truncation(model, theta),
                               lambda s: min(max(s, _RAY_FIRST * cut), cut))
    lo, hi = bounds[:-1], bounds[1:]
    xi, wi = _leggauss(_NODES_PER_PANEL)
    vander = np.polynomial.legendre.legvander(xi, _NODES_PER_PANEL - 1)
    top = 2 * np.arange(_NODES_PER_PANEL - 2, _NODES_PER_PANEL) + 1
    done = []
    for _ in range(_RAY_MAX_ROUNDS):
        centres, halfwidths = 0.5 * (hi + lo), 0.5 * (hi - lo)
        w = weights((centres[:, None] + halfwidths[:, None] * xi).ravel(),
                    (halfwidths[:, None] * wi).ravel())
        moments = w.reshape(centres.size, _NODES_PER_PANEL) @ vander
        fine = np.all(top * np.abs(moments[:, -2:]) <= _RAY_COEF_TOL, axis=1)
        done.append((centres[fine], halfwidths[fine], moments[fine]))
        if fine.all():
            break
        lo, hi = (np.concatenate([lo[~fine], centres[~fine]]),
                  np.concatenate([centres[~fine], hi[~fine]]))
    else:
        raise QuadratureFailure(f"ray table: {np.count_nonzero(~fine)} panels still "
                                f"unresolved after {_RAY_MAX_ROUNDS} bisection rounds")
    centres, halfwidths, moments = (np.concatenate(part) for part in zip(*done))
    s_nodes = (centres[:, None] + halfwidths[:, None] * xi).ravel()
    return RayTable(s_nodes=s_nodes, centres=centres, halfwidths=halfwidths, moments=moments,
                    theta=theta)
