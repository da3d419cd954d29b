"""Oracles used only by the tests.

A derivative-free pole search on a fixed graded-panel rule, deliberately
independent of the adaptive resolvent and the Newton path in
``oscbath.selfenergy`` so the two can cross-check each other; and a dense
eigendecomposition of the finite bath's arrow Hamiltonian, independent of
the package's secular-equation solver, with the energy-drift check that
needs its full eigenvectors.
"""

import math

import numpy as np
from scipy.optimize import minimize

import oscbath as ob
from oscbath.quadrature import gauss_panels, graded_boundaries


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


def grid_refine_resonance(model, quad_cfg=None, half_width: float = 0.05,
                          grid: int = 21) -> complex:
    """Derivative-free pole search: |alpha_II| grid scans that zoom onto the
    minimum, then a Nelder-Mead polish.
    """
    quad_cfg = quad_cfg or ob.QuadConfig()
    seed = ob.perturbative_resonance(model, quad_cfg)

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
        raise ob.NotNormalized("coefficient vector has the wrong length")
    norm = np.linalg.norm(c0)
    if abs(norm - 1.0) > 1e-10:
        raise ob.NotNormalized(f"initial state norm {norm} differs from 1")
    g, w = bath.couplings, bath.frequencies

    def energy(c):
        hc = np.concatenate([[bath.model.omega_bare * c[0] + g @ c[1:]], g * c[0] + w * c[1:]])
        return np.real(np.vdot(c, hc))

    vals, vecs = dense_eigensystem(bath)
    a0 = vecs.T @ c0
    e_ref = energy(c0)
    if e_ref == 0.0:
        raise ob.NotNormalized("reference energy vanishes; relative drift is undefined")
    worst = 0.0
    for t in np.asarray(tgrid, dtype=float):
        worst = max(worst, abs(energy(vecs @ (np.exp(-1j * vals * t) * a0)) - e_ref))
    return worst / abs(e_ref)
