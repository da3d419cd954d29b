"""Oracles used only by the tests.

A derivative-free pole search on a fixed graded-panel rule, deliberately
independent of the adaptive resolvent and the Newton path in
``oscbath.selfenergy`` so the two can cross-check each other; and a dense
eigendecomposition of the finite bath's arrow Hamiltonian, independent of
the package's secular-equation solver, with the energy-drift check that
needs its full eigenvectors; the secular-equation solver that sums over
every pole for every root, against which the package's tabulated far sums
are checked; the closed-form moments of the coupling density; and the
occupation rate-equation residual of a density-matrix trajectory, with the
late-time equilibrium state.
"""

import math

import numpy as np
from scipy.optimize import minimize

import oscbath as ob
from oscbath.errors import EigensolveFailure, GridTooCoarse, OscBathError
from oscbath.oracle import _EPS, _MAX_SWEEPS
from oscbath.quadrature import _BLOCK, gauss_panels, graded_boundaries


class NotNormalized(OscBathError):
    """An initial state vector is not normalized."""


def spectral_moment(model, k: int = 0) -> float:
    """Closed form of int_0^inf w^k g2(w) dw.

    Equals prefactor * cutoff**(n+k+1) * Gamma((n+k+1)/2) / 2 for the shipped
    family; used by the short-time (quadratic) decay coefficient and by the
    bath-discretization checks.
    """
    s = model.exponent + k + 1.0
    if s <= 0:
        raise ValueError("moment does not converge")
    return 0.5 * model.prefactor * model.cutoff**s * math.gamma(s / 2.0)


def pauli_residual(rho, gamma: float) -> float:
    """Worst occupation-rate-equation defect along a uniform-grid trajectory,
    a density matrix whose fields are arrays over its times ``rho.t``.

    Checks d/dt rho_nn = gamma * ((n+1) rho_{n+1,n+1} - n rho_nn) for
    n in {0, 1} with the two-quantum population identically zero, using
    4th-order central differences.
    """
    t = np.asarray(rho.t, dtype=float)
    if t.size < 5:
        raise GridTooCoarse("need at least 5 trajectory points for 4th-order differences")
    h = np.diff(t)
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise GridTooCoarse("trajectory grid must be uniform")
    h = h[0]
    r11, r00 = rho.rho11, rho.rho00

    def d4(f):
        return (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12.0 * h)

    inner = slice(2, -2)
    res1 = np.abs(d4(r11) + gamma * r11[inner])
    res0 = np.abs(d4(r00) - gamma * r11[inner])
    return float(max(res1.max(), res0.max()))


def equilibrium(state):
    """The late-time state: all population in the vacuum, no coherence."""
    return ob.DensityMatrix2(rho11=0.0, rho00=state.c00 + state.c11, rho10=0.0, t=np.inf)


def _alpha_second_fixed(model, z: complex, quad_cfg) -> complex:
    """alpha_II by a fixed graded-panel rule; cheap enough for dense scans.

    Panels shrink toward Re z down to a third of the distance from the cut,
    which keeps the rule accurate to ~1e-12 for the scan's purposes.
    """
    T = quad_cfg.truncation(model)
    c = min(max(z.real, 0.0), T)
    b = max(abs(z.imag), 1e-9)
    coarse = model.cutoff / 2.5

    def width(x):
        return min(coarse, max(abs(x - c) / 3.0, b / 3.0), max(x / 2.0, 1e-4 * model.cutoff))

    nodes, wq = gauss_panels(graded_boundaries(0.0, T, width), 24)
    integral = np.sum(wq * ob.spectral_weight(model, nodes) / (z - nodes))
    return (z - model.omega_bare - model.lam**2 * integral
            + 2j * math.pi * model.lam**2 * ob.spectral_weight_analytic(model, z))


def grid_refine_resonance(model, quad_cfg=ob.QuadConfig(), half_width: float = 0.05,
                          grid: int = 21) -> complex:
    """Derivative-free pole search: |alpha_II| grid scans that zoom onto the
    minimum, then a Nelder-Mead polish.
    """
    seed = ob.perturbative_resonance(ob.Decay(model, quad_cfg))

    def objective(p):
        return abs(_alpha_second_fixed(model, complex(p[0], p[1]), quad_cfg))

    center = np.array([seed.real, seed.imag])
    span = half_width
    for _ in range(3):
        xs = np.linspace(center[0] - span, center[0] + span, grid)
        ys = np.linspace(center[1] - span, center[1] + span, grid)
        vals = np.array([[objective((x, y)) for x in xs] for y in ys])
        iy, ix = np.unravel_index(np.argmin(vals), vals.shape)
        center = np.array([xs[ix], ys[iy]])
        span /= 8.0
    res = minimize(objective, center, method="Nelder-Mead",
                   options={"xatol": 1e-13, "fatol": 1e-16, "maxiter": 500})
    return complex(res.x[0], res.x[1])


def dense_arrow(corner, diagonal, border):
    """(eigenvalues, eigenvectors) of the arrow matrix [[corner, border],
    [border, diag(diagonal)]] by dense eigh."""
    h = np.diag(np.concatenate([[corner], diagonal]))
    h[0, 1:] = border
    h[1:, 0] = border
    return np.linalg.eigh(h)


def dense_eigensystem(bath):
    """(eigenvalues, eigenvectors) of the bath's one-particle Hamiltonian."""
    return dense_arrow(bath.model.omega_bare, bath.frequencies, bath.couplings)


def energy_drift(bath, coefficients, tgrid) -> float:
    """Relative drift of <H> along the exact evolution of a one-particle state.

    The state is evolved through the eigenbasis but the energy is formed by
    the O(N) arrow product H c in the site basis, so the result measures real
    numerical error rather than an algebraic identity.
    """
    c0 = np.asarray(coefficients, dtype=complex)
    if c0.shape != (bath.frequencies.size + 1,):
        raise NotNormalized("coefficient vector has the wrong length")
    norm = np.linalg.norm(c0)
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"initial state norm {norm} differs from 1")
    g, w = bath.couplings, bath.frequencies

    def energy(c):
        hc = np.concatenate([[bath.model.omega_bare * c[0] + g @ c[1:]], g * c[0] + w * c[1:]])
        return np.real(np.vdot(c, hc))

    vals, vecs = dense_eigensystem(bath)
    a0 = vecs.T @ c0
    e_ref = energy(c0)
    if e_ref == 0.0:
        raise NotNormalized("reference energy vanishes; relative drift is undefined")
    worst = 0.0
    for t in np.asarray(tgrid, dtype=float):
        worst = max(worst, abs(energy(vecs @ (np.exp(-1j * vals * t) * a0)) - e_ref))
    return worst / abs(e_ref)


def quadratic_secular_roots(a: float, d: np.ndarray, z2: np.ndarray):
    """Roots E of f(E) = E - a + sum_j z2_j / (d_j - E) and 1 / f'(E) at each,
    with every sum over all m poles: O(m^2) work per sweep.

    The reference for ``oscbath.oracle._secular_roots``, which runs the same
    iteration but reads the sums over poles far from a block of roots from
    Chebyshev tables.

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
