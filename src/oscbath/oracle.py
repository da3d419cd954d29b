"""Brute-force finite-bath reference.

The bath is replaced by N modes at quadrature nodes with couplings
g_k = lam * g(w_k) * sqrt(quadrature weight), so the discrete level-shift
sum converges to the continuum resolvent integral.  The one-particle
Hamiltonian is a real symmetric arrow matrix: omega_bare in the corner, the
mode frequencies on the diagonal and the couplings on the border.  The
survival amplitude needs only its eigenvalues E_k and the oscillator
overlaps |<osc|v_k>|^2, which the secular equation

    f(E) = E - omega_bare - sum_k g_k^2 / (E - w_k) = 0,   |<osc|v_k>|^2 = 1 / f'(E_k)

gives in O(N^2) time and O(N) memory (Gu & Eisenstat, SIAM J. Matrix Anal.
Appl. 15 (1994) 1266; Jakovcevic Stor, Slapnicar & Barlow, Linear Algebra
Appl. 464 (2015) 62).  The amplitude is then exact at any time, with no
propagation error, at the price of finite recurrence times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._tables import node_sum
from .errors import EigensolveFailure, InvalidDiscretization
from .model import ModelParams, spectral_weight
from .quadrature import _BLOCK, gauss_panels
from .survival import AmplitudeSeries

__all__ = ["Scheme", "DiscreteBath", "arrow_eigensystem", "discretize", "oracle_amplitude",
           "recurrence_time"]

_EPS = np.finfo(float).eps
_DEFLATE = 8.0 * _EPS   # coupling or mode gap (of the rescaled matrix) below which a mode deflates
_MAX_SWEEPS = 100       # roots take 4 to 8 sweeps; the cap only ends a failed solve


class Scheme(enum.Enum):
    UNIFORM = "uniform"
    GAUSS = "gauss"


@dataclass(frozen=True)
class DiscreteBath:
    """N-mode bath plus oscillator in the one-particle sector.

    The Hamiltonian is the arrow matrix with omega_bare at the corner, the
    mode frequencies on the rest of the diagonal and the couplings on the
    first row and column.
    """

    model: ModelParams
    frequencies: np.ndarray
    couplings: np.ndarray

    def eigensystem(self):
        """(energies, overlaps): the ascending eigenvalues of the arrow
        Hamiltonian and the oscillator weight |<osc|v_k>|^2 of each."""
        return arrow_eigensystem(self.model.omega_bare, self.frequencies, self.couplings)


def arrow_eigensystem(corner: float, diagonal, border):
    """Eigenvalues of the symmetric arrow matrix [[corner, border], [border,
    diag(diagonal)]] in ascending order, and the squared corner component of
    each eigenvector.

    A mode whose coupling is below about eps times the matrix scale is an
    eigenpair as it stands, with corner weight 0; so is one of two modes
    closer than that, once a rotation moves their joint coupling onto the
    other.  The remaining m modes interlace the m + 1 roots of the secular
    equation, each found in its own bracket by :func:`_secular_roots`.
    Non-finite entries, or a root that does not converge in its bracket,
    raise :class:`EigensolveFailure`.
    """
    a = float(corner)
    order = np.argsort(diagonal, kind="stable")
    w = np.asarray(diagonal, dtype=float)[order]
    g = np.asarray(border, dtype=float)[order]
    if not (math.isfinite(a) and np.isfinite(w).all() and np.isfinite(g).all()):
        raise EigensolveFailure("the arrow matrix has non-finite entries")
    # a power of two near 1 / |H| keeps the rescaling exact and 1/(E - w)^2 in range
    scale = math.ldexp(1.0, -math.frexp(max(abs(a), np.abs(w).max(initial=0.0),
                                             float(np.linalg.norm(g))))[1])
    ws, gs = w * scale, g * scale
    for k in np.flatnonzero(np.diff(ws) <= _DEFLATE):
        gs[k + 1], gs[k] = math.hypot(gs[k], gs[k + 1]), 0.0
    live = np.abs(gs) > _DEFLATE
    roots, weights = _secular_roots(a * scale, ws[live], gs[live] ** 2)
    energies = np.concatenate([roots / scale, w[~live]])
    overlaps = np.concatenate([weights, np.zeros(np.count_nonzero(~live))])
    order = np.argsort(energies, kind="stable")
    return energies[order], overlaps[order]


def _secular_roots(a: float, d: np.ndarray, z2: np.ndarray):
    """Roots E of f(E) = E - a + sum_j z2_j / (d_j - E) and 1 / f'(E) at each.

    ``d`` ascends strictly and every ``z2`` is positive, so f rises through
    one root in each gap of (lo, d_0, ..., d_{m-1}, hi), where lo and hi lie
    beyond the Weyl bounds of the spectrum.  Each root is held as an offset
    tau from its origin, the nearer pole of its gap (the one real pole for
    the end roots), so every difference d_j - E = (d_j - d_o) - tau keeps
    its relative accuracy.  A step solves the two-pole rational model
    c + S / (dl - eta) + T / (dr - eta) of f through the gap's poles that
    matches f and f' at the current point, as in LAPACK's dlaed4: S and T
    carry the slopes of the poles on either side, and the unit slope of
    E - a goes with the farther pole (the virtual pole lo or hi at the ends).
    A step that leaves the bracket is replaced by bisection.  The roots are
    solved in blocks of at most ``_BLOCK`` pole-root pairs, and a converged
    root leaves the sweeps.
    """
    m = d.size
    if m == 0:
        return np.array([a]), np.array([1.0])
    spread = 2.0 * math.sqrt(float(z2.sum()))
    poles = np.concatenate([[min(a, d[0]) - spread], d, [max(a, d[-1]) + spread]])
    energies = np.empty(m + 1)
    weights = np.empty(m + 1)
    cols = np.arange(m)
    rows = max(1, _BLOCK // m)
    for start in range(0, m + 1, rows):
        k = np.arange(start, min(start + rows, m + 1))
        o = np.maximum(k - 1, 0)  # origin pole: the left one, or d_0 for the lowest root
        t_lo, t_hi = poles[k] - d[o], poles[k + 1] - d[o]
        tau = 0.5 * (t_lo + t_hi)
        for sweep in range(_MAX_SWEEPS):
            inv = np.subtract(d, d[o][:, None])
            inv -= tau[:, None]
            np.divide(1.0, inv, out=inv)  # 1 / (d_j - E)
            inv2 = inv * inv
            # poles j < k lie left of root k: all of them below the block's
            # first active root, none from its last one up
            lo, hi = k[0], k[-1]
            left = np.where(cols[lo:hi] < k[:, None], 1.0, 0.0)
            r_left = inv[:, :lo] @ z2[:lo] + (inv[:, lo:hi] * left) @ z2[lo:hi]
            psi = inv2[:, :lo] @ z2[:lo] + (inv2[:, lo:hi] * left) @ z2[lo:hi]
            r = inv @ z2
            f = (d[o] - a) + tau + r
            fp = 1.0 + inv2 @ z2
            # rounding bound of f; r - 2 r_left is sum_j |z2_j / (d_j - E)|
            noise = 8.0 * _EPS * (np.abs(d[o] - a) + np.abs(tau) + r - 2.0 * r_left)
            if sweep == 0:
                # the sign of f at the midpoint names the nearer pole of an inner gap
                right = (k > 0) & (k < m) & (f < 0.0)
                shift = np.where(right, d[np.minimum(k, m - 1)] - d[o], 0.0)
                o = np.where(right, k, o)
                tau, t_lo, t_hi = tau - shift, t_lo - shift, t_hi - shift
            t_lo = np.where(f < 0.0, tau, t_lo)
            t_hi = np.where(f > 0.0, tau, t_hi)
            dl = (poles[k] - d[o]) - tau
            dr = (poles[k + 1] - d[o]) - tau
            origin_left = o < k
            s_slope = psi + ~origin_left
            t_slope = fp - 1.0 - psi + origin_left
            c = f - dl * s_slope - dr * t_slope
            big_a = (dl + dr) * f - dl * dr * fp
            b = dl * dr * f
            disc = np.sqrt(np.abs(big_a * big_a - 4.0 * c * b))
            # the model's root in (dl, dr) is (A - sqrt(D)) / 2c, taken in the
            # form without cancellation; both denominators vanish only if c = 0
            # with A <= 0, which the bracket then replaces by bisection
            num = np.where(big_a > 0.0, 2.0 * b, big_a - disc)
            den = np.where(big_a > 0.0, big_a + disc, 2.0 * c)
            step = num / np.where(den != 0.0, den, 1.0)
            new = tau + step
            inside = (den != 0.0) & (t_lo < new) & (new < t_hi)
            new = np.where(inside, new, 0.5 * (t_lo + t_hi))
            done = (np.abs(f) <= noise) | (new == tau)
            energies[k[done]] = d[o[done]] + tau[done]
            weights[k[done]] = 1.0 / fp[done]
            live = ~done
            k, o, tau, t_lo, t_hi = k[live], o[live], new[live], t_lo[live], t_hi[live]
            if k.size == 0:
                break
        else:
            raise EigensolveFailure(
                f"{k.size} secular roots did not converge in their brackets")
    return energies, weights


def discretize(model: ModelParams, N: int, omega_max: float,
               scheme: Scheme = Scheme.GAUSS) -> DiscreteBath:
    """Build the N-mode bath on [0, omega_max].

    Uniform uses midpoint nodes with equal weights (clean revivals at
    2*pi/spacing); Gauss uses Gauss-Legendre nodes (spectral convergence of
    the level-shift function).
    """
    if N < 2:
        raise InvalidDiscretization("need at least 2 bath modes")
    if omega_max < 6.0 * model.cutoff:
        raise InvalidDiscretization(
            f"omega_max={omega_max} must cover the coupling support (>= 6*cutoff)"
        )
    if scheme is Scheme.UNIFORM:
        step = omega_max / N
        freqs = (np.arange(N) + 0.5) * step
        wq = np.full(N, step)
    else:
        freqs, wq = gauss_panels(np.array([0.0, omega_max]), N)
    couplings = model.lam * np.sqrt(spectral_weight(model, freqs) * wq)
    return DiscreteBath(model=model, frequencies=freqs, couplings=couplings)


def oracle_amplitude(bath: DiscreteBath, tgrid) -> AmplitudeSeries:
    """Delta0(t) = sum_k |<osc|v_k>|^2 exp(-i E_k t), exact in the finite bath.

    The sum is :func:`~oscbath._tables.node_sum`: an equally spaced grid,
    such as the CLI's windows, is factorized into anchor and offset
    exponentials joined by one complex GEMM.  Its skipping of nodes whose
    exponential underflows to 0 never applies here: the rates are imaginary.
    """
    t = np.asarray(tgrid, dtype=float)
    energies, overlaps = bath.eigensystem()
    delta0 = node_sum(t, -1j * energies, overlaps)
    return AmplitudeSeries(times=t, delta0=delta0, model=bath.model)


def recurrence_time(bath: DiscreteBath) -> float:
    """2*pi over the spacing of the two bath modes that bracket omega_bare.

    The amplitude's weight sits near omega_bare, so its first revival comes
    from the level spacing there (with weak coupling the levels track the
    modes).  For a uniform bath this is exactly the revival period; Gauss
    modes crowd at the ends of the range, far from the weight.
    """
    freqs = bath.frequencies
    i = int(np.clip(np.searchsorted(freqs, bath.model.omega_bare, side="right"),
                    1, freqs.size - 1))
    return 2.0 * np.pi / float(freqs[i] - freqs[i - 1])
