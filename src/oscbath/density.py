"""Reduced density matrix of the oscillator and its rate-equation limits.

With the bath starting in its ground state and the oscillator in an
arbitrary state on the {vacuum, one-quantum} sectors, the exact reduced
density matrix is an algebraic function of the survival amplitude:

    rho11 = c11 * P(t)          rho10 = c10 * Delta0(t)
    rho00 = c00 + c11 * (1 - P(t))       P = |Delta0|^2

Dropping the background (keeping only the normalized pole term) turns this
into the closed-form solution of a damped two-level rate model, whose
populations obey the usual occupation rate equation.

Both functions take one time or a whole time grid; on a grid they return
one :class:`DensityMatrix2` whose fields are arrays over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AmplitudeOutOfRange

__all__ = [
    "OscillatorState",
    "DensityMatrix2",
    "reduced_density",
    "lindblad_solution",
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
        small = abs(self.c10.real) <= 1.0 and abs(self.c10.imag) <= 1.0  # else abs() may overflow
        if not (small and self.c11 * self.c00 + _POSITIVITY_TOL >= abs(self.c10) ** 2):  # NaN too
            raise ValueError("initial state violates positivity: c11*c00 < |c10|^2")

    @property
    def c00(self) -> float:
        return 1.0 - self.c11


@dataclass(frozen=True)
class DensityMatrix2:
    """2x2 reduced density matrix on {|0>, |1>} at time t, or at every time
    of a grid t (then each field is an array over it)."""

    rho11: float | np.ndarray
    rho00: float | np.ndarray
    rho10: complex | np.ndarray
    t: float | np.ndarray = 0.0

    @property
    def rho01(self):
        return np.conj(self.rho10)

    @property
    def trace(self):
        return self.rho11 + self.rho00

    @property
    def positivity_determinant(self):
        return self.rho11 * self.rho00 - np.hypot(np.real(self.rho10), np.imag(self.rho10)) ** 2


def reduced_density(state: OscillatorState, delta0, t=0.0) -> DensityMatrix2:
    """Exact reduced density matrix given the survival amplitude Delta0 at
    time t, or at every time of a grid.  The first |Delta0| above the unit
    bound (NaN or an overflowing modulus too) raises AmplitudeOutOfRange."""
    amp = np.asarray(delta0, dtype=complex)
    with np.errstate(over="ignore"):  # a modulus beyond the float range is inf
        mag = np.hypot(amp.real, amp.imag)  # rounds as abs(complex) does
    bad = np.flatnonzero(~(mag <= 1.0 + _BOUND_TOL))  # NaN fails too
    if bad.size:
        raise AmplitudeOutOfRange(f"|Delta0| = {np.ravel(mag)[bad[0]]} exceeds the unit bound")
    P = np.minimum(mag * mag, 1.0)
    return DensityMatrix2(rho11=state.c11 * P, rho00=state.c00 + state.c11 * (1.0 - P),
                          rho10=state.c10 * amp, t=t)


def lindblad_solution(state: OscillatorState, omega0: float, gamma: float, t) -> DensityMatrix2:
    """Closed-form damped evolution with rate gamma and frequency omega0 at
    time t, or at every time of a grid.

    This is what the exact solution reduces to when the background is
    dropped and the residue normalization is replaced by 1.
    """
    if not gamma > 0:  # NaN fails too
        raise ValueError("gamma must be positive")
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be nonnegative")
    rho11 = state.c11 * np.exp(-gamma * t)
    rho10 = state.c10 * np.exp(-1j * omega0 * t) * np.exp(-0.5 * gamma * t)
    return DensityMatrix2(rho11=rho11, rho00=1.0 - rho11, rho10=rho10, t=t)
