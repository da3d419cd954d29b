"""Oscillator-bath model parameters and the spectral coupling family.

The model is a single harmonic oscillator of frequency ``omega_bare``
linearly coupled, with overall strength ``lam``, to a continuum of bath
modes.  The squared coupling density is fixed to the family

    g2(w) = prefactor * w**exponent * exp(-(w / cutoff)**2)

which vanishes at w = 0 and is cut off by a Gaussian at ``cutoff``.  A model
is admissible only when the stability margin

    omega_bare - lam**2 * int_0^inf g2(w) / w dw

is strictly positive; otherwise the composite Hamiltonian loses its lower
bound and no decaying resonance exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchCutHit,
    NegativeFrequency,
    NonPositiveParameter,
    PositivityViolated,
)

__all__ = [
    "ModelParams",
    "QuadConfig",
    "build_model",
    "spectral_weight",
    "spectral_weight_analytic",
]


@dataclass(frozen=True)
class QuadConfig:
    """Truncation of the real frequency axis.

    The spectral table and the oracle's default band cover
    [0, ``upper_truncation_multiple * cutoff``]; the Gaussian factor makes
    the discarded tail negligible for any multiple >= 4.  The multiple is
    capped at 64, where exp(-m^2) is below 1e-1700; a larger one only adds
    panels.  The resolvent integrals are not truncated: their Cauchy rule
    runs to its own Gaussian tail.
    """

    upper_truncation_multiple: float = 8.0

    def __post_init__(self):
        if not 4 <= self.upper_truncation_multiple <= 64:
            raise ValueError(f"upper_truncation_multiple must lie in [4, 64], "
                             f"got {self.upper_truncation_multiple!r}")

    def truncation(self, model: "ModelParams") -> float:
        return self.upper_truncation_multiple * model.cutoff


@dataclass(frozen=True)
class ModelParams:
    """Validated parameters of the oscillator-bath model.

    Immutable; all library operations treat it as a pure value, so instances
    can be shared freely across workers.
    """

    omega_bare: float
    lam: float
    exponent: float
    cutoff: float
    prefactor: float = 1.0

    def __post_init__(self):
        for name in ("omega_bare", "exponent", "cutoff", "prefactor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise NonPositiveParameter(f"{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise NonPositiveParameter(f"lam must be finite and >= 0, got {self.lam!r}")
        margin = self.positivity_margin
        if not margin > 0:
            raise PositivityViolated(
                f"stability margin {margin:.6g} <= 0: the Hamiltonian is unbounded below "
                f"for omega_bare={self.omega_bare}, lam={self.lam}",
                margin,
            )

    @property
    def positivity_margin(self) -> float:
        """omega_bare - lam^2 * int_0^inf g2(w)/w dw, in closed form.

        The integral is prefactor * cutoff**exponent * Gamma(exponent/2) / 2.
        """
        integral = 0.5 * self.prefactor * self.cutoff**self.exponent * math.gamma(self.exponent / 2.0)
        return self.omega_bare - self.lam**2 * integral


def build_model(omega_bare: float, lam: float, exponent: float, cutoff: float,
                prefactor: float = 1.0) -> ModelParams:
    """Validate and construct a :class:`ModelParams`.

    Raises :class:`NonPositiveParameter` for out-of-range fields and
    :class:`PositivityViolated` (with the computed margin) when the coupling
    is too strong for the requested oscillator frequency.
    """
    return ModelParams(omega_bare=float(omega_bare), lam=float(lam),
                       exponent=float(exponent), cutoff=float(cutoff),
                       prefactor=float(prefactor))


def spectral_weight(model: ModelParams, omega):
    """Squared coupling density g2(omega) on the nonnegative real axis.

    Accepts scalars or arrays; g2(0) = 0 exactly.
    """
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise NegativeFrequency("spectral_weight requires omega >= 0")
    out = np.zeros_like(w)
    nz = w > 0
    wn = w[nz]
    out[nz] = model.prefactor * wn**model.exponent * np.exp(-((wn / model.cutoff) ** 2))
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return float(out)
    return out


def _is_integer_exponent(n: float) -> bool:
    return float(n).is_integer()


def spectral_weight_analytic(model: ModelParams, z):
    """Analytic continuation of g2 to complex frequency.

    For integer exponents this is an entire function.  For fractional
    exponents the principal branch of z**n is used, with the cut on the
    negative real axis; evaluation on that cut raises
    :class:`BranchCutHit`.
    """
    zz = np.asarray(z, dtype=complex)
    n = model.exponent
    if not _is_integer_exponent(n):
        on_cut = (zz.imag == 0.0) & (zz.real <= 0.0) & (zz != 0.0)
        if np.any(on_cut):
            raise BranchCutHit(
                "fractional exponent with z on the negative real axis (principal branch cut)"
            )
    out = np.zeros_like(zz)
    axis = (zz.imag == 0.0) & (zz.real >= 0.0)
    if np.any(axis):
        out[axis] = spectral_weight(model, zz.real[axis])
    nz = ~axis & (zz != 0.0)
    zn = zz[nz]
    if _is_integer_exponent(n):
        powed = zn ** int(round(n))
    else:
        powed = np.exp(n * np.log(zn))
    out[nz] = model.prefactor * powed * np.exp(-((zn / model.cutoff) ** 2))
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def spectral_weight_jet(model: ModelParams, w):
    """g2, g2' and g2'' in closed form at real or complex w != 0; scalars or arrays.

    With d = n/w - 2w/cutoff^2 (the log-derivative of g2) they are g2,
    g2*d and g2*(d^2 - n/w^2 - 2/cutoff^2).  Complex w takes the principal
    branch of w**n; the caller keeps w off the negative real axis when the
    exponent is fractional (see :func:`spectral_weight_analytic`).
    """
    n, k2 = model.exponent, model.cutoff**2
    g2 = model.prefactor * w**n * np.exp(-((w / model.cutoff) ** 2))
    d = n / w - 2.0 * w / k2
    return g2, g2 * d, g2 * (d * d - n / w**2 - 2.0 / k2)
