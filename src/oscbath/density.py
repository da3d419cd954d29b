"""Reduced density matrix of the oscillator and its rate-equation limits.

With the bath starting in its ground state and the oscillator in an
arbitrary state on the {vacuum, one-quantum} sectors, the exact reduced
density matrix is an algebraic function of the survival amplitude:

    rho11 = c11 * P(t)          rho10 = c10 * Delta0(t)
    rho00 = c00 + c11 * (1 - P(t))       P = |Delta0|^2

Dropping the background (keeping only the normalized pole term) turns this
into the closed-form solution of a damped two-level rate model, whose
populations obey the usual occupation rate equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange, GridTooCoarse

__all__ = [
    "OscillatorState",
    "DensityMatrix2",
    "reduced_density",
    "lindblad_solution",
    "lindblad_trajectory",
    "pauli_residual",
    "equilibrium",
]

_BOUND_TOL = 1e-9
_POSITIVITY_TOL = 1e-12  # slack in the initial-state check c11*c00 >= |c10|^2


@dataclass(frozen=True)
class OscillatorState:
    """Initial oscillator state on the 0/1-quantum sectors.

    Requires c11 + c00 = 1 and the positivity condition
    c11 * c00 >= |c10|^2.
    """

    c11: float
    c10: complex = 0.0

    def __post_init__(self):
        if not (0.0 <= self.c11 <= 1.0):
            raise ValueError("c11 must lie in [0, 1]")
        if self.c11 * self.c00 + _POSITIVITY_TOL < abs(self.c10) ** 2:
            raise ValueError("initial state violates positivity: c11*c00 < |c10|^2")

    @property
    def c00(self) -> float:
        return 1.0 - self.c11

    @property
    def c01(self) -> complex:
        return complex(self.c10).conjugate()


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 reduced density matrix on {|0>, |1>} at time t."""

    rho11: float
    rho00: float
    rho10: complex
    t: float = 0.0

    @property
    def rho01(self) -> complex:
        return complex(self.rho10).conjugate()

    @property
    def trace(self) -> float:
        return self.rho11 + self.rho00

    @property
    def positivity_determinant(self) -> float:
        return self.rho11 * self.rho00 - abs(self.rho10) ** 2


def reduced_density(state: OscillatorState, delta0_t: complex,
                    t: float = 0.0) -> DensityMatrix2:
    """Exact reduced density matrix given the survival amplitude at time t."""
    amp = complex(delta0_t)
    try:
        mag = abs(amp)
    except OverflowError:  # the modulus exceeds the float range
        mag = math.inf
    if not mag <= 1.0 + _BOUND_TOL:  # NaN fails too
        raise AmplitudeOutOfRange(f"|Delta0| = {mag} exceeds the unit bound")
    P = min(mag * mag, 1.0)
    return DensityMatrix2(
        rho11=state.c11 * P,
        rho00=state.c00 + state.c11 * (1.0 - P),
        rho10=state.c10 * amp,
        t=t,
    )


def lindblad_solution(state: OscillatorState, omega0: float, gamma: float,
                      t: float) -> DensityMatrix2:
    """Closed-form damped evolution with rate gamma and frequency omega0.

    This is what the exact solution reduces to when the background is
    dropped and the residue normalization is replaced by 1.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if t < 0:
        raise ValueError("t must be nonnegative")
    decay = np.exp(-gamma * t)
    rho11 = state.c11 * decay
    rho10 = state.c10 * cmath.exp(-1j * omega0 * t) * np.exp(-0.5 * gamma * t)
    return DensityMatrix2(rho11=rho11, rho00=1.0 - rho11, rho10=rho10, t=t)


def lindblad_trajectory(state: OscillatorState, omega0: float, gamma: float,
                        times) -> list[DensityMatrix2]:
    return [lindblad_solution(state, omega0, gamma, float(t)) for t in np.asarray(times)]


def pauli_residual(trajectory, gamma: float) -> float:
    """Worst occupation-rate-equation defect along a uniform-grid trajectory.

    Checks d/dt rho_nn = gamma * ((n+1) rho_{n+1,n+1} - n rho_nn) for
    n in {0, 1} with the two-quantum population identically zero, using
    4th-order central differences.
    """
    traj = list(trajectory)
    if len(traj) < 5:
        raise GridTooCoarse("need at least 5 trajectory points for 4th-order differences")
    t = np.array([d.t for d in traj])
    h = np.diff(t)
    if np.max(np.abs(h - h[0])) > 1e-9 * h[0]:
        raise GridTooCoarse("trajectory grid must be uniform")
    h = h[0]
    r11 = np.array([d.rho11 for d in traj])
    r00 = np.array([d.rho00 for d in traj])

    def d4(f):
        return (-f[4:] + 8 * f[3:-1] - 8 * f[1:-3] + f[:-4]) / (12.0 * h)

    inner = slice(2, -2)
    res1 = np.abs(d4(r11) + gamma * r11[inner])
    res0 = np.abs(d4(r00) - gamma * r11[inner])
    return float(max(res1.max(), res0.max()))


def equilibrium(state: OscillatorState) -> DensityMatrix2:
    """The late-time state: all population in the vacuum, no coherence."""
    return DensityMatrix2(rho11=0.0, rho00=state.c00 + state.c11, rho10=0.0,
                          t=np.inf)
