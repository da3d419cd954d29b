"""Brute-force finite-bath reference.

The bath is replaced by N modes at quadrature nodes with couplings
g_k = lam * g(w_k) * sqrt(quadrature weight), so the discrete level-shift
sum converges to the continuum resolvent integral.  The one-particle
Hamiltonian is a real symmetric arrow matrix; its exact eigendecomposition
gives the survival amplitude at any time with no propagation error, at the
price of finite recurrence times.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._tables import node_sum
from .errors import EigensolveFailure, InvalidDiscretization, NotNormalized
from .model import ModelParams, spectral_weight
from .quadrature import gauss_panels
from .survival import AmplitudeSeries

__all__ = ["Scheme", "DiscreteBath", "discretize", "oracle_amplitude",
           "energy_drift", "recurrence_time"]


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
        """(eigenvalues, eigenvectors) of the arrow Hamiltonian, by dense eigh."""
        h = np.diag(np.concatenate([[self.model.omega_bare], self.frequencies]))
        h[0, 1:] = self.couplings
        h[1:, 0] = self.couplings
        try:
            return np.linalg.eigh(h)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(str(exc)) from exc


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
    """Delta0(t) = sum_k |<osc|v_k>|^2 exp(-i E_k t), exact in the finite bath."""
    t = np.asarray(tgrid, dtype=float)
    vals, vecs = bath.eigensystem()
    delta0 = node_sum(t, -1j * vals, vecs[0, :] ** 2)
    return AmplitudeSeries(times=t, delta0=delta0, model=bath.model)


def energy_drift(bath: DiscreteBath, coefficients, tgrid) -> float:
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

    vals, vecs = bath.eigensystem()
    a0 = vecs.T @ c0
    e_ref = energy(c0)
    if e_ref == 0.0:
        raise NotNormalized("reference energy vanishes; relative drift is undefined")
    worst = 0.0
    for t in np.asarray(tgrid, dtype=float):
        worst = max(worst, abs(energy(vecs @ (np.exp(-1j * vals * t) * a0)) - e_ref))
    return worst / abs(e_ref)


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
