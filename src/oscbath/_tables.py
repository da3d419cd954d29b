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
  the j_k recurrences up to the order where j_k drops below rounding).  When
  the peak half-width drops below float resolution of the node positions
  (tiny couplings), an inner window around the peak switches to offset-based
  nodes with a local quadratic model of the real part, which stays exact
  where direct evaluation would suffer total cancellation.  The real part of
  alpha_plus needs the principal value of the resolvent integral at every
  node outside that window; all of them come from one call of the model's
  Cauchy rule (:func:`~oscbath.quadrature.pv_integral_many`), and the
  window's X' and X'' from the same rule in closed form.  This table gives
  the amplitude; the ray table checks it.

* :class:`RayTable` holds nodes on the rotated ray z = s * exp(-i*theta)
  carrying the deformed background integrand
  lam^2 g2(z) / (alpha_I(z) alpha_II(z)); alpha_I on the ray comes from the
  Cauchy rule.  The background is the weighted node sum
  :func:`node_sum`, which factorizes each run of equally spaced times into
  anchor and offset exponentials joined by one complex GEMM, and skips
  nodes whose exponential underflows to 0.
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
_RAD_PER_NODE = 0.8           # ray table: phase budget per node at the largest requested time
_SERIES_EDGE = 1e-3           # j_k: argument below which the power series is used
_JN_GROUPS = (0.5, 3.0)       # j_k: edges of the argument groups between 1e-3 and n
_JN_DROP = 2.0**-53           # j_k: orders whose bound a^k/(2k+1)!! falls below this are dropped
_PAIRS = _BLOCK // 8          # spectral amplitude: panel-time pairs per block
_INNER_CUT = 1e-5             # peak half-width below which the offset window is used
_INNER_SPAN = 1e4             # offset window half-span, in peak half-widths
_RAY_TAIL_TOL = 1e-13         # ray truncation: Gaussian tail bound
_RAY_MAX_NODES = 300_000
_MIN_RUN = 16                 # node_sum: fewest equally spaced times summed as a lattice
_RUN_ULPS = 4                 # node_sum: a lattice time's largest offset from t_a + i h, in ulps
_EXP_ZERO = -745.2            # node_sum: exp(x) rounds to exactly 0 below this

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


def node_sum(times, rates, values) -> np.ndarray:
    """sum_j values_j * exp(rates_j * t) at every t.

    A run of L >= ``_MIN_RUN`` equally spaced ascending times t_a + i h is
    factorized exactly: with m = ceil(sqrt(L)), exp(r t_{km+q}) = A_k Q_q
    for the anchor A_k = exp(r (t_a + k m h)) and the offset
    Q_q = exp(r q h), so the run costs L/m + m exponentials per node and
    one complex GEMM, A @ (Q * values).T.  A run is taken only where every
    time lies within ``_RUN_ULPS`` ulps of t_a + i h, with h from the run's
    end times, so each term stays exp(r t') with t' a few ulps from t_i.
    All other times, and unsorted input, go to the direct sum.  Nodes whose
    exponential is exactly 0 at every time of a block are skipped.
    """
    t = np.asarray(times, dtype=float)
    flat = t.ravel()
    out = np.empty(flat.size, dtype=complex)
    direct = np.ones(flat.size, dtype=bool)
    for a, b, h in _lattice_runs(flat):
        L = b - a
        m = min(math.isqrt(L - 1) + 1, max(1, _BLOCK // max(rates.size, 1)))
        weights = np.multiply.outer(np.arange(m) * h, rates)  # Q_q * values
        np.exp(weights, out=weights)
        weights *= values
        out[a:b] = _anchor_sums(flat[a] + np.arange(0, L, m) * h, rates, weights).ravel()[:L]
        direct[a:b] = False
    idx = np.flatnonzero(direct)
    out[idx] = _anchor_sums(flat[idx], rates, values)
    return out.reshape(t.shape)


def _lattice_runs(t):
    """(start, stop, step) of each run of at least ``_MIN_RUN`` equally spaced times.

    Candidates are stretches of strictly ascending times whose consecutive
    steps agree to within rounding; a candidate is a run only if every time
    lies within ``_RUN_ULPS`` ulps of t_a + i h, h from its end times.
    """
    if t.size < _MIN_RUN:
        return []
    d = np.diff(t)
    if not np.all(d > 0):
        return []
    # times within _RUN_ULPS ulps of a lattice have second differences within 4x that
    even = np.abs(np.diff(d)) <= 4 * _RUN_ULPS * np.spacing(np.abs(t[2:]))
    edges = np.flatnonzero(np.diff(np.concatenate([[0], even.view(np.int8), [0]])))
    runs = []
    for a, b in zip(edges[0::2], edges[1::2] + 2):  # steps a..b-2 even: times a..b-1
        if b - a < _MIN_RUN:
            continue
        h = (t[b - 1] - t[a]) / (b - a - 1)
        if np.all(np.abs(t[a:b] - (t[a] + np.arange(b - a) * h))
                  <= _RUN_ULPS * np.spacing(np.abs(t[a:b]))):
            runs.append((a, b, h))
    return runs


def _anchor_sums(anchors, rates, weights) -> np.ndarray:
    """exp(outer(anchors, rates)) @ weights.T, for weights of shape (n,) or (m, n).

    The anchors go in blocks of at most ``_BLOCK`` exponentials, all computed
    in one buffer: a fresh 4 MB temporary per block was measured slower.
    A column whose rate has Re(rate) * t < ``_EXP_ZERO`` at both ends of a
    block is exactly 0 there and is left out.
    """
    out = np.empty(anchors.shape + weights.shape[:-1], dtype=complex)
    chunk = max(1, _BLOCK // max(rates.size, 1))
    buf = np.empty(min(chunk, anchors.size) * rates.size, dtype=complex)
    re = rates.real
    for i in range(0, anchors.size, chunk):
        ts = anchors[i:i + chunk]
        live = np.maximum(re * ts.min(), re * ts.max()) >= _EXP_ZERO
        r, w = (rates, weights) if live.all() else (rates[live], weights[..., live])
        block = buf[:ts.size * r.size].reshape(ts.size, r.size)
        np.multiply.outer(ts, r, out=block)
        np.exp(block, out=block)
        out[i:i + chunk] = block @ w.T
    return out


def filon_sums(coef, a) -> np.ndarray:
    """sum_k coef[p, k] (-i)^k j_k(a[p, t]) at a 2-d array a >= 0, one row per row of coef.

    The sums grow inside the recurrences that make the j_k.  The arguments go
    in groups split at 1e-3, ``_JN_GROUPS`` and n = coef.shape[1]; a group
    stops at the first order where j_k's bound a^k/(2k+1)!!, at its largest a,
    is below ``_JN_DROP``.  Below 1e-3 the series a^k/(2k+1)!! * (1 - h/(2k+3)
    + h^2/(2(2k+3)(2k+5))), h = a^2/2, exact to rounding; from n up the upward
    recurrence from j_{-1} = cos a / a and j_0 = sin a / a.  In between,
    Miller's downward recurrence from a^K/(2K+1)!! ~ j_K(a), near unit scale,
    at the order K where that bound is below sqrt(``_JN_DROP``): the start's
    error is about its square.  Its sums are scaled by the least-squares fit
    of its first two values to j_0 and j_1 = (j_0 - cos a)/a (never both 0).
    """
    n = coef.shape[1]
    signed = np.ascontiguousarray((coef * np.array([1.0, -1.0, -1.0, 1.0])[np.arange(n) % 4]).T)
    flat = a.ravel()
    re, im = np.empty(flat.size), np.empty(flat.size)  # from the even and the odd orders
    edges = np.minimum([_SERIES_EDGE, *_JN_GROUPS, n], n)  # sorted for any n >= 1
    group = np.searchsorted(edges, flat, side="right")
    for g in np.flatnonzero(np.bincount(group)):
        idx = np.flatnonzero(group == g)
        x = flat[idx]
        sums = _series_sums if g == 0 else _upward_sums if g == edges.size else _miller_sums
        re[idx], im[idx] = sums(x, signed[:_first_below(x.max(), _JN_DROP, n)], idx // a.shape[1])
    return (re + 1j * im).reshape(a.shape)


def _first_below(a: float, tol: float, cap=math.inf) -> int:
    """The first order k where a^k/(2k+1)!! < tol, or cap if that comes first."""
    bound, k = 1.0, 0
    while k < cap and bound >= tol:
        bound, k = bound * a / (2 * k + 3), k + 1
    return k


def _series_sums(x, signed, rows):
    sums, term, h = [np.zeros(x.size), np.zeros(x.size)], np.ones(x.size), 0.5 * x * x
    for k, c in enumerate(signed):  # term = x^k / (2k+1)!!
        sums[k & 1] += term * (1.0 - h / (2 * k + 3) * (1.0 - 0.5 * h / (2 * k + 5))) * c.take(rows)
        term = term * x / (2 * k + 3)
    return sums


def _upward_sums(x, signed, rows):
    sums, inv = [np.zeros(x.size), np.zeros(x.size)], 1.0 / x
    below, f = np.cos(x) * inv, np.sin(x) * inv
    for k, c in enumerate(signed):
        sums[k & 1] += f * c.take(rows)
        below, f = f, (2 * k + 1) * inv * f - below
    return sums


def _miller_sums(x, signed, rows):
    K = max(len(signed), _first_below(x.max(), math.sqrt(_JN_DROP)))
    sums, inv = [np.zeros(x.size), np.zeros(x.size)], 1.0 / x
    f, above = np.exp(K * np.log(x) - np.sum(np.log(2.0 * np.arange(K + 1) + 1.0))), 0.0
    for k in range(K - 1, -1, -1):  # f becomes j_k up to a common scale
        f, above = (2 * k + 3) * inv * f - above, f
        if k < len(signed):
            sums[k & 1] += f * signed[k].take(rows)
    j0 = np.sin(x) * inv
    scale = (j0 * f + (j0 - np.cos(x)) * inv * above) / (f * f + above * above)
    return sums[0] * scale, sums[1] * scale


@dataclass
class SpectralTable:
    """Gauss panels of the spectral weight, with their Legendre moments.

    Panel p has centre ``centres[p]`` and half-width ``halfwidths[p]``; its
    samples at the Gauss abscissae xi_j of [-1, 1] carry the table weights
    W_pj, and ``moments[p, k]`` is sum_j W_pj P_k(xi_j) (zero above the
    panel's own node count).  ``nodes`` and ``weights`` hold every sample,
    sorted by node.  The amplitude integrates each panel's interpolant of
    the weight against exp(-i w t) exactly:

        amplitude(t) = sum_p exp(-i c_p t) sum_k (2k+1) (-i)^k j_k(h_p t) m_pk,

    by int_{-1}^{1} P_k(x) exp(-i a x) dx = 2 (-i)^k j_k(a).  At t = 0 this
    is the node sum sum_j W_j.
    """

    nodes: np.ndarray
    weights: np.ndarray
    centres: np.ndarray
    halfwidths: np.ndarray
    moments: np.ndarray
    sum_defect: float = field(init=False)

    def __post_init__(self):
        self.sum_defect = float(self.weights.sum() - 1.0)

    def amplitude(self, times) -> np.ndarray:
        t = np.atleast_1d(np.asarray(times, dtype=float))
        flat = t.ravel()
        coef = (2 * np.arange(self.moments.shape[1]) + 1) * self.moments
        out = np.zeros(flat.size, dtype=complex)
        tc = max(1, min(flat.size, _PAIRS))
        pc = max(1, _PAIRS // tc)
        for i in range(0, flat.size, tc):
            ts = flat[i:i + tc]
            for p in range(0, self.centres.size, pc):
                inner = filon_sums(coef[p:p + pc], np.outer(self.halfwidths[p:p + pc], ts))
                phase = np.exp(-1j * np.outer(self.centres[p:p + pc], ts))
                out[i:i + tc] += np.einsum("pt,pt->t", phase, inner)
        return out.reshape(t.shape)


def _panels(bounds, weights, xi, n: int):
    """Centres, half-widths and Legendre moments of Gauss panels.

    ``weights`` holds each panel's table weights in the order of ``xi``,
    the panel's local coordinate of its samples; the moments are padded to
    ``n`` orders.
    """
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


def build_ray_table(decay: Decay, z0: complex, t_max: float,
                    theta: float = DEFAULT_RAY_ANGLE) -> RayTable:
    """Build the rotated-ray table for the non-pole part of the amplitude.

    The angle is used as given.  It must lie in (0, pi/4), where the
    Gaussian factor of g2 decays along the ray, and pass below the resonance
    pole (theta > |arg z0|) so that the pole term is the extracted residue;
    an angle within 0.02 of the pole direction raises :class:`PoleOnRay`.
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
    phase = complex(math.cos(theta), -math.sin(theta))
    z = s_nodes * phase
    lam2 = model.lam**2
    alpha_one = z - model.omega_bare - lam2 * decay.rule.resolvent_on_ray(s_nodes, theta)
    g2z = spectral_weight_analytic(model, z)
    alpha_two = alpha_one + 2j * math.pi * lam2 * g2z
    values = wq * lam2 * g2z / (alpha_one * alpha_two) * phase
    return RayTable(s_nodes=s_nodes, values=values, theta=theta)
