"""The inverse reduced resolvent alpha(z) and the resonance pole.

On the physical sheet

    alpha_I(z) = z - omega_bare - lam^2 * int_0^inf g2(w) / (z - w) dw

is analytic off the cut [0, inf).  Its boundary values from above/below are

    alpha_pm(w) = w - omega_bare - lam^2 PV int g2(w')/(w - w') dw'
                  +- i pi lam^2 g2(w).

Continuing alpha_plus through the cut into the lower half-plane picks up the
residue of the integrand, giving the second-sheet function

    alpha_II(z) = alpha_I(z) + 2*pi*i * lam^2 * g2(z),

whose boundary value from below equals alpha_plus(w); the sign is fixed by
that continuity requirement (and by the second-order pole estimate, which
must land in the lower half-plane).  The resonance is the zero z0 of
alpha_II with Im z0 < 0.

Every resolvent integral here, and alpha_II' = 1 + lam^2 int g2/(z - w)^2 dw
+ 2 pi i lam^2 g2'(z), comes from one :class:`~oscbath.quadrature.CauchyRule`
per model, a fixed Gauss rule on a ray above the cut.  The pole search uses
the rule of a :class:`~oscbath.survival.Decay`, as the amplitude routes do;
``alpha`` and ``alpha_boundary`` build one per call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NoConvergence, OnCut, PoleInUpperHalfPlane, QuadratureFailure
from .model import (
    ModelParams,
    QuadConfig,
    spectral_weight,
    spectral_weight_analytic,
    spectral_weight_jet,
)
from .quadrature import adaptive_complex_quad  # noqa: F401 -- a name bench/tracing.py wraps
from .quadrature import CauchyRule, pv_integral_many

if TYPE_CHECKING:
    from .survival import Decay

__all__ = [
    "Sheet",
    "Side",
    "SheetPoint",
    "Resonance",
    "alpha",
    "alpha_boundary",
    "perturbative_resonance",
    "find_resonance",
]


class Sheet(enum.Enum):
    PHYSICAL_I = "I"
    SECOND_II = "II"


class Side(enum.Enum):
    PLUS = "+"
    MINUS = "-"


@dataclass(frozen=True)
class SheetPoint:
    """A complex frequency tagged with the Riemann sheet it lives on."""

    z: complex
    sheet: Sheet = Sheet.PHYSICAL_I

    def __post_init__(self):
        if self.sheet is Sheet.SECOND_II and self.z.imag > 0:
            raise ValueError("second-sheet points must have Im z <= 0")


@dataclass(frozen=True)
class Resonance:
    """Resonance pole z0 = omega0 - i*gamma/2 and the residue denominator."""

    z0: complex
    alpha_prime_at_pole: complex
    perturbative_z0: complex
    newton_iterations: int
    residual: float

    @property
    def omega0(self) -> float:
        return self.z0.real

    @property
    def gamma(self) -> float:
        return -2.0 * self.z0.imag


def _alpha(model: ModelParams, rule: CauchyRule, z: complex, sheet: Sheet,
           derivative: bool = False) -> complex:
    """alpha (or d alpha/dz) on ``sheet``; Im z = 0 is the limit from below."""
    lam2 = model.lam**2
    if derivative:
        value = 1.0 + lam2 * rule.resolvent(z, 2)
    else:
        value = z - model.omega_bare - lam2 * rule.resolvent(z, 1)
    if sheet is Sheet.SECOND_II:
        if derivative:
            residue = spectral_weight_jet(model, z)[1]
        else:
            residue = spectral_weight_analytic(model, z)
        value += 2j * math.pi * lam2 * residue
    return value


def alpha(model: ModelParams, point: SheetPoint, quad_cfg: QuadConfig | None = None) -> complex:
    """Evaluate alpha on the requested sheet at a point off the cut.

    ``quad_cfg`` is ignored: the Cauchy rule has no settings.  It is kept
    because ``bench/checks.py`` passes one positionally.
    """
    z = complex(point.z)
    if z.imag == 0.0 and z.real >= 0.0:
        raise OnCut("alpha is discontinuous on [0, inf); use alpha_boundary")
    return _alpha(model, CauchyRule(model), z, point.sheet)


def alpha_boundary(model: ModelParams, omega: float, side: Side = Side.PLUS) -> complex:
    """Boundary value alpha_pm(omega) on the cut, omega > 0."""
    pv = pv_integral_many(CauchyRule(model), float(omega))
    real = omega - model.omega_bare - model.lam**2 * pv
    imag = math.pi * model.lam**2 * spectral_weight(model, float(omega))
    return complex(real, imag if side is Side.PLUS else -imag)


def perturbative_resonance(decay: Decay) -> complex:
    """Second-order pole estimate: omega_bare + shift - i * golden-rule rate / 2.

    The real shift is lam^2 PV int g2/(omega_bare - w) dw and the width is
    gamma = 2 pi lam^2 g2(omega_bare).  An oscillator frequency at or above
    the truncation of ``decay`` raises :class:`QuadratureFailure`.
    """
    model = decay.model
    if model.lam == 0.0:
        return complex(model.omega_bare, 0.0)
    if not model.omega_bare < decay.truncation:
        raise QuadratureFailure("could not bracket the resonance position on the real axis; "
                                "the oscillator frequency may exceed the truncated bath range")
    shift = model.lam**2 * pv_integral_many(decay.rule, model.omega_bare)
    half_width = math.pi * model.lam**2 * spectral_weight(model, model.omega_bare)
    return complex(model.omega_bare + shift, -half_width)


def _muller(f, x0: complex, x1: complex, x2: complex, tol: float, max_iter: int):
    """Muller iteration; returns (root, |f(root)|, evaluations)."""
    xs = [x0, x1, x2]
    fs = [f(x) for x in xs]
    best = min(zip(xs, fs), key=lambda p: abs(p[1]))
    for it in range(max_iter):
        (xa, xb, xc), (fa, fb, fc) = xs, fs
        if abs(fc) < tol:
            return xc, abs(fc), it
        q = (xc - xb) / (xb - xa)
        a = q * fc - q * (1 + q) * fb + q**2 * fa
        b = (2 * q + 1) * fc - (1 + q) ** 2 * fb + q**2 * fa
        c = (1 + q) * fc
        disc = np.sqrt(complex(b * b - 4 * a * c))
        den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
        if den == 0:
            break
        xn = xc - (xc - xb) * (2 * c / den)
        fn = f(xn)
        xs = [xb, xc, xn]
        fs = [fb, fc, fn]
        if abs(fn) < abs(best[1]):
            best = (xn, fn)
    return best[0], abs(best[1]), max_iter


def find_resonance(decay: Decay, tol: float = 1e-12, max_iter: int = 50) -> Resonance:
    """Locate the second-sheet zero of alpha by Newton from the perturbative seed.

    Falls back to Muller's method on a small triangle around the seed when
    Newton stalls.  Raises :class:`NoConvergence` with both residuals if the
    fallback also fails, and :class:`PoleInUpperHalfPlane` when the root is
    not a decaying resonance (which also covers the non-analytic real-root
    regime excluded by the positivity condition).
    """
    model = decay.model
    if model.lam <= 0.0:
        raise NoConvergence("find_resonance requires a nonzero coupling")
    rule = decay.rule
    seed = perturbative_resonance(decay)

    def f(z: complex) -> complex:
        return _alpha(model, rule, z, Sheet.SECOND_II)

    z = seed
    newton_res = math.inf
    iterations = 0
    for it in range(max_iter):
        fz = f(z)
        newton_res = abs(fz)
        iterations = it
        if newton_res < tol:
            break
        fpz = _alpha(model, rule, z, Sheet.SECOND_II, derivative=True)
        step = fz / fpz
        if not np.isfinite(step):
            break
        z = z - step
    else:
        fz = f(z)
        newton_res = abs(fz)
        iterations = max_iter

    if newton_res >= tol:
        spread = max(abs(seed.imag), 1e-3 * abs(seed), 1e-6)
        x0 = seed + spread
        x1 = seed - spread * 0.5 + 0.75j * spread
        x2 = seed - spread * 0.5 - 0.75j * spread
        z_m, muller_res, _ = _muller(f, x0, x1, x2, tol, max_iter)
        if muller_res < tol:
            z, newton_res = z_m, muller_res
        else:
            raise NoConvergence(
                f"Newton residual {newton_res:.3g} and Muller residual {muller_res:.3g} "
                f"both exceed tol={tol:.3g} after {max_iter} iterations"
            )

    if z.imag >= 0.0:
        raise PoleInUpperHalfPlane(
            f"continued resolvent zero at {z} is not a decaying resonance"
        )
    prime = _alpha(model, rule, z, Sheet.SECOND_II, derivative=True)
    return Resonance(
        z0=complex(z),
        alpha_prime_at_pole=complex(prime),
        perturbative_z0=complex(seed),
        newton_iterations=iterations,
        residual=float(newton_res),
    )
