"""Adaptive panel quadrature against QUADPACK and mpmath references."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import oscbath as ob
from oscbath.errors import QuadratureFailure
from oscbath.quadrature import adaptive_complex_quad
from oscbath.selfenergy import _resolvent_integral, _resolvent_second_moment

QUAD = ob.QuadConfig()
M1 = ob.ModelParams(1.0, 0.1, 1.0, 5.0)
# fractional exponent whose pole sits close to the origin
FRACTIONAL = ob.ModelParams(0.8203870617329918, 0.5512457297805049, 0.652113547996434,
                            2.172331457053775)
MODELS = {"m1": M1, "fractional": FRACTIONAL}


def quadpack_complex(f, a, b, points=None):
    """Independent reference: QUADPACK on the real and imaginary parts."""
    kw = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 1000, "points": points}
    re = scipy_quad(lambda x: f(np.array([x]))[0].real, a, b, **kw)[0]
    im = scipy_quad(lambda x: f(np.array([x]))[0].imag, a, b, **kw)[0]
    return complex(re, im)


@lru_cache(maxsize=None)
def mp_moments(name: str, z: complex):
    """int_0^T g2(w)/(z - w)^k dw for k = 1, 2 at 30 digits."""
    model = MODELS[name]
    T = QUAD.truncation(model)
    n, cutoff, zz = mp.mpf(model.exponent), mp.mpf(model.cutoff), mp.mpc(z.real, z.imag)
    b = abs(z.imag)
    cuts = sorted({p for p in (z.real - 10 * b, z.real - b, z.real, z.real + b, z.real + 10 * b)
                   if 0.0 < p < T})
    with mp.workdps(30):
        def g2(w):
            return model.prefactor * w**n * mp.exp(-((w / cutoff) ** 2))
        return tuple(complex(mp.quad(lambda w: g2(w) / (zz - w) ** k, [0, *cuts, T]))
                     for k in (1, 2))


def mp_g2(model, z: complex):
    """Continued g2(z) and g2'(z) on the principal branch."""
    n, cutoff, zz = mp.mpf(model.exponent), mp.mpf(model.cutoff), mp.mpc(z.real, z.imag)
    with mp.workdps(30):
        g = model.prefactor * mp.exp(n * mp.log(zz)) * mp.exp(-((zz / cutoff) ** 2))
        return complex(g), complex(g * (n / zz - 2 * zz / cutoff**2))


def pole(name: str) -> complex:
    return ob.find_resonance(MODELS[name], QUAD, tol=1e-12).z0


NEAR_CUT = [10.0**-k for k in range(3, 9)]


def second_moment_rtol(depth: float) -> float:
    # the subtracted second-moment integrand loses digits to cancellation
    # within |w - Re z| ~ Im z, so its floor grows like eps / Im z
    return QUAD.rel_tol + 1e-16 / depth


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth", NEAR_CUT)
@pytest.mark.parametrize("sheet", [ob.Sheet.PHYSICAL_I, ob.Sheet.SECOND_II])
def test_alpha_and_derivative_near_cut_match_mpmath(name, depth, sheet):
    model = MODELS[name]
    z = complex(pole(name).real, -depth)
    first, second = mp_moments(name, z)
    g2, g2_prime = mp_g2(model, z)
    lam2 = model.lam**2
    ref = z - model.omega_bare - lam2 * first
    ref_prime = 1.0 + lam2 * second
    val_prime = 1.0 + lam2 * _resolvent_second_moment(model, z, QUAD, QUAD.abs_tol)
    if sheet is ob.Sheet.SECOND_II:
        ref += 2j * math.pi * lam2 * g2
        ref_prime += 2j * math.pi * lam2 * g2_prime
        val_prime += 2j * math.pi * lam2 * complex(ob.spectral_weight_derivative(model, z))
    # the integrals' relative tolerance carried through lam^2
    assert abs(ob.alpha(model, ob.SheetPoint(z, sheet), QUAD) - ref) <= (
        QUAD.rel_tol * lam2 * abs(first))
    assert abs(val_prime - ref_prime) <= second_moment_rtol(depth) * lam2 * abs(second)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth", [1e-3, 1e-8])
def test_resolvent_integrals_match_mpmath(name, depth):
    model = MODELS[name]
    z = complex(pole(name).real, -depth)
    first, second = mp_moments(name, z)
    assert _resolvent_integral(model, z, QUAD) == pytest.approx(first, rel=QUAD.rel_tol)
    assert _resolvent_second_moment(model, z, QUAD, QUAD.abs_tol) == pytest.approx(
        second, rel=second_moment_rtol(depth))


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_off_range_real_part_matches_quadpack(name, side):
    # Re z < 0 and Re z > T take the unsubtracted integrands
    model = MODELS[name]
    T = QUAD.truncation(model)
    z = complex(-0.05, -1e-3) if side == "below" else complex(T + 0.05, -1e-3)
    got = (_resolvent_integral(model, z, QUAD),
           _resolvent_second_moment(model, z, QUAD, QUAD.abs_tol))
    for k, value, exact in zip((1, 2), got, mp_moments(name, z)):
        ref = quadpack_complex(lambda w: ob.spectral_weight(model, w) / (z - w) ** k, 0.0, T)
        assert value == pytest.approx(ref, rel=1e-11)
        assert value == pytest.approx(exact, rel=1e-11)


def test_fractional_pole_near_origin():
    z0 = pole("fractional")
    assert 0.0 < z0.real < 0.5
    first, second = mp_moments("fractional", z0)
    assert _resolvent_integral(FRACTIONAL, z0, QUAD) == pytest.approx(first, rel=QUAD.rel_tol)
    assert _resolvent_second_moment(FRACTIONAL, z0, QUAD, QUAD.abs_tol) == pytest.approx(
        second, rel=QUAD.rel_tol)
    g2, _ = mp_g2(FRACTIONAL, z0)
    lam2 = FRACTIONAL.lam**2
    true_alpha = z0 - FRACTIONAL.omega_bare - lam2 * first + 2j * math.pi * lam2 * g2
    assert abs(true_alpha) <= QUAD.rel_tol * lam2 * abs(first)


def test_breakpoints_resolve_a_kink():
    p = 0.3141592653589793

    def f(w):
        return np.abs(w - p) + 0j

    exact = 0.5 * (p**2 + (1.0 - p) ** 2)
    cfg = ob.QuadConfig(max_subdivisions=8)
    assert adaptive_complex_quad(f, 0.0, 1.0, cfg, points=[p], abs_tol=1e-14) == pytest.approx(
        exact, abs=1e-12)
    # points outside the open interval and repeated points are ignored
    assert adaptive_complex_quad(f, 0.0, 1.0, cfg, points=np.array([-1.0, p, p, 1.0, 2.0]),
                                 abs_tol=1e-14) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(f, 0.0, 1.0, cfg, abs_tol=1e-14)


def test_integrand_is_called_on_arrays():
    sizes = []

    def f(w):
        sizes.append(np.shape(w))
        return np.exp(1j * w)

    val = adaptive_complex_quad(f, 0.0, 3.0, QUAD)
    assert val == pytest.approx((np.exp(3j) - 1.0) / 1j, abs=1e-14)
    # one call per refinement round, each on a 1-d array of nodes
    assert sizes and all(len(s) == 1 and s[0] > 1 for s in sizes)


def test_single_panel_budget_raises():
    z = complex(0.5, -1e-3)
    cfg = ob.QuadConfig(max_subdivisions=1)
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(lambda w: 1.0 / (z - w), 0.0, 1.0, cfg, abs_tol=1e-14)
    exact = complex(np.log(z) - np.log(z - 1.0))
    assert adaptive_complex_quad(lambda w: 1.0 / (z - w), 0.0, 1.0, QUAD,
                                 points=[0.5], abs_tol=1e-14) == pytest.approx(exact, rel=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(lambda w: np.where(w > 0.5, np.nan, 1.0) + 0j, 0.0, 1.0, QUAD)
