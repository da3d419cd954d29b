"""Brute-force finite-bath reference.

The bath is replaced by N modes at quadrature nodes with couplings
g_k = lam * g(w_k) * sqrt(quadrature weight), so the discrete level-shift
sum converges to the continuum resolvent integral.  The one-particle
Hamiltonian is a real symmetric arrow matrix: omega_bare in the corner, the
mode frequencies on the diagonal and the couplings on the border.  The
survival amplitude needs only its eigenvalues E_k and the oscillator
overlaps |<osc|v_k>|^2, which the secular equation

    f(E) = E - omega_bare - sum_k g_k^2 / (E - w_k) = 0,   |<osc|v_k>|^2 = 1 / f'(E_k)

gives in O(N) memory (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 15 (1994)
1266; Jakovcevic Stor, Slapnicar & Barlow, Linear Algebra Appl. 464 (2015)
62).  Each sweep of the root iteration sums the poles near a block of roots
exactly and reads the rest from Chebyshev tables made once per block, so a
sweep costs O(N) times the near width plus the table size, and the tables
O(N^2 / block) once (Livne & Brandt, SIAM J. Matrix Anal. Appl. 24 (2002)
439; Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172, on fast
multipole sums for the same equation).  The amplitude is then exact at any
time, with no propagation error, at the price of finite recurrence times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._tables import node_sum
from .errors import EigensolveFailure, InvalidDiscretization
from .model import ModelParams, spectral_weight
from .quadrature import _BLOCK
from .survival import AmplitudeSeries

__all__ = ["Scheme", "DiscreteBath", "arrow_eigensystem", "discretize", "oracle_amplitude",
           "recurrence_time"]

_EPS = np.finfo(float).eps
_DEFLATE = 8.0 * _EPS   # coupling or mode gap (of the rescaled matrix) below which a mode deflates
_MAX_SWEEPS = 100       # roots take 4 to 8 sweeps; the cap only ends a failed solve
_NEWTON_STEPS = 10      # Gauss-Legendre nodes take 3 or 4 Newton steps; the cap ends a runaway
_ROOTS = 128            # roots per block, sharing near poles and a far table (fastest of 24-192)
_SEPARATION = 0.5       # a pole is far from a block at this multiple of the block's width
# A far pole lies at |x| >= 1 + 2 * _SEPARATION = 2 in the block's coordinate
# x = (2E - e0 - e1) / (e1 - e0), on the Bernstein ellipse rho = 2 + sqrt(3).
# The Chebyshev coefficients of 1 / (2 - x) are 2 rho^-n / sqrt(3), those of
# 1 / (2 - x)^2 are (2/3) (n + 2/sqrt(3)) rho^-n, so interpolation in P points
# errs by at most twice their tails: 3.2 rho^-P and (1.8 P + 2.8) rho^-P of
# the term's largest value on the block.  The terms of each tabulated sum
# share one sign, so the bounds hold for the sums.  P = 31 is the least P
# that puts the squared sums' bound (1.1e-16) below eps; the plain sums' is
# 6e-18.  P = 28 would leave 5e-15 on the squared sums.
_CHEB = 31
_NODES = np.cos(np.pi * np.arange(_CHEB) / (_CHEB - 1))  # Chebyshev points, 1 down to -1
_BARY = np.where(np.arange(_CHEB) % 2 == 0, 1.0, -1.0)   # their barycentric weights
_BARY[[0, -1]] *= 0.5


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


def _far_table(q: np.ndarray, z2: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Columns sum_j z2_j / (q_j - u_i) and sum_j z2_j / (q_j - u_i)^2, one
    row per point u_i, summed in blocks of at most ``_BLOCK`` terms."""
    table = np.zeros((u.size, 2))
    cols = max(1, _BLOCK // u.size)
    for s in range(0, q.size, cols):
        inv = np.subtract(q[s:s + cols], u[:, None])
        np.divide(1.0, inv, out=inv)
        table[:, 0] += inv @ z2[s:s + cols]
        inv *= inv
        table[:, 1] += inv @ z2[s:s + cols]
    return table


def _interpolate(table: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The columns of ``table``, tabulated at ``_NODES``, read at the points
    ``x`` by the barycentric formula; a point on a node takes that row."""
    diff = x[:, None] - _NODES
    hit = diff == 0.0
    c = _BARY / np.where(hit, 1.0, diff)
    values = (c @ table) / c.sum(axis=1)[:, None]
    rows, nodes = np.nonzero(hit)
    values[rows] = table[nodes]
    return values


def _root_blocks(d: np.ndarray, z2: np.ndarray, poles: np.ndarray):
    """Yield (k, jl, jr, e0, width, table) for each block of roots k.

    A block is ``_ROOTS`` consecutive roots, whose brackets span [e0, e0 +
    width].  The poles d_j with jl <= j < jr are near it; the others, at
    least ``_SEPARATION * width`` away, are far.  ``table`` holds the far
    sums of 1/(d_j - E) and 1/(d_j - E)^2, over the far poles left of the
    block and then over all far poles, at E = e0 + width (1 + x) / 2 for x
    in ``_NODES``.  A block whose near poles would make temporaries above
    ``_BLOCK`` elements comes in parts that share its table.
    """
    m = d.size
    for first in range(0, m + 1, _ROOTS):
        last = min(first + _ROOTS, m + 1)
        e0, width = poles[first], poles[last] - poles[first]
        jl = int(np.searchsorted(d, e0 - _SEPARATION * width, side="right"))
        jr = int(np.searchsorted(d, poles[last] + _SEPARATION * width, side="left"))
        u = 0.5 * width * (1.0 + _NODES)
        far_left = _far_table(d[:jl] - e0, z2[:jl], u)
        table = np.hstack([far_left, far_left + _far_table(d[jr:] - e0, z2[jr:], u)])
        rows = max(1, _BLOCK // max(jr - jl, _CHEB))
        for start in range(first, last, rows):
            yield np.arange(start, min(start + rows, last)), jl, jr, e0, width, table


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
    A step that leaves the bracket is replaced by bisection, and a converged
    root leaves the sweeps.

    The sums go by blocks of consecutive roots (:func:`_root_blocks`).  The
    poles near a block, its own among them, are summed exactly from the
    origin offsets.  The far ones are smooth on the block's interval, so
    their four sums (left of the block and all, of 1/(d_j - E) and
    1/(d_j - E)^2) are tabulated once at ``_CHEB`` Chebyshev points and read
    at every sweep by barycentric interpolation.  When every pole is near,
    as in small arrows, the tables are zero and every sum is exact.  A sweep
    costs O(m) times the near width plus ``_CHEB``, and the tables
    O(m * _CHEB) per block; temporaries stay within ``_BLOCK`` elements.
    """
    m = d.size
    if m == 0:
        return np.array([a]), np.array([1.0])
    spread = 2.0 * math.sqrt(float(z2.sum()))
    poles = np.concatenate([[min(a, d[0]) - spread], d, [max(a, d[-1]) + spread]])
    energies = np.empty(m + 1)
    weights = np.empty(m + 1)
    for k, jl, jr, e0, width, table in _root_blocks(d, z2, poles):
        near, zn, cols = d[jl:jr], z2[jl:jr], np.arange(jl, jr)
        o = np.maximum(k - 1, 0)  # origin pole: the left one, or d_0 for the lowest root
        t_lo, t_hi = poles[k] - d[o], poles[k + 1] - d[o]
        tau = 0.5 * (t_lo + t_hi)
        for sweep in range(_MAX_SWEEPS):
            inv = np.subtract(near, d[o][:, None])
            inv -= tau[:, None]
            np.divide(1.0, inv, out=inv)  # 1 / (d_j - E)
            inv2 = inv * inv
            # near poles j < k lie left of root k: all of them below the
            # block's first active root, none from its last one up
            lo, hi = k[0] - jl, k[-1] - jl
            left = np.where(cols[lo:hi] < k[:, None], 1.0, 0.0)
            far = _interpolate(table, ((d[o] - e0) + tau) * (2.0 / width) - 1.0)
            r_left = inv[:, :lo] @ zn[:lo] + (inv[:, lo:hi] * left) @ zn[lo:hi] + far[:, 0]
            psi = inv2[:, :lo] @ zn[:lo] + (inv2[:, lo:hi] * left) @ zn[lo:hi] + far[:, 1]
            r = inv @ zn + far[:, 2]
            f = (d[o] - a) + tau + r
            fp = 1.0 + inv2 @ zn + far[:, 3]
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


@lru_cache(maxsize=32)
def _gauss_legendre(n: int):
    """Read-only ascending nodes and weights of the n-point Gauss-Legendre
    rule on [-1, 1], in O(n) memory and O(n^2) time.

    Newton's method on P_n, with P_n and P_n' from the three-term
    recurrence, refines Tricomi's guesses for the nonnegative nodes; the
    others follow by symmetry, and for odd n the middle node is exactly 0.
    The weights are 2 / ((1 - x^2) P_n'(x)^2), with P_n' evaluated at the
    final nodes (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
    ``numpy.polynomial.legendre.leggauss`` gives the same nodes from an
    n x n companion eigensolve (Golub & Welsch 1969), in O(n^3) time and
    O(n^2) memory, with weights less accurate near the ends.
    """
    theta = np.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(theta)  # descending
    if n % 2:
        x[-1] = 0.0

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))

    for _ in range(_NEWTON_STEPS):
        p, dp = legendre(x)
        step = p / dp
        x = x - step
        if np.abs(step).max() <= _EPS:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def discretize(model: ModelParams, N: int, omega_max: float,
               scheme: Scheme = Scheme.GAUSS) -> DiscreteBath:
    """Build the N-mode bath on [0, omega_max].

    Uniform uses midpoint nodes with equal weights (clean revivals at
    2*pi/spacing); Gauss uses Gauss-Legendre nodes (spectral convergence of
    the level-shift function), made by :func:`_gauss_legendre`.
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
        x, w = _gauss_legendre(N)
        half = 0.5 * omega_max
        freqs, wq = half + half * x, half * w
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
    return AmplitudeSeries(times=t, delta0=delta0)


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
