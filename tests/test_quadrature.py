"""Adaptive panel quadrature, principal values, master-grid interpolation
and the Brent root finder against QUADPACK, mpmath and SciPy references."""

import math
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

import oscbath as ob
import oscbath.quadrature as quadrature
from oscbath._tables import build_spectral_table, spherical_jn, table_pv
from oscbath.errors import NoConvergence, QuadratureFailure
from oscbath.quadrature import _brentq, adaptive_complex_quad, master_grid, pv_integral_many
from oscbath.selfenergy import _alpha, _resolvent

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
    """int_0^T g2(w)/(z - w)^k dw for k = 1, 2 at 30 digits.

    On the cut (Im z = 0) the limit from below: PV(c) + i pi g2(c) and its
    negated derivative -PV'(c) - i pi g2'(c).
    """
    model = MODELS[name]
    T = QUAD.truncation(model)
    n, cutoff, zz = mp.mpf(model.exponent), mp.mpf(model.cutoff), mp.mpc(z.real, z.imag)
    b = abs(z.imag)
    cuts = sorted({p for p in (z.real - 10 * b, z.real - b, z.real, z.real + b, z.real + 10 * b)
                   if 0.0 < p < T})
    with mp.workdps(30):
        def g2(w):
            return model.prefactor * w**n * mp.exp(-((w / cutoff) ** 2))

        if b == 0.0:
            def pv(x):
                # subtracted form: the quotient is smooth through w = x
                return (mp.quad(lambda w: (g2(w) - g2(x)) / (x - w), [0, x, T])
                        + g2(x) * mp.log(x / (T - x)))

            c = zz.real
            return (complex(pv(c) + 1j * mp.pi * g2(c)),
                    complex(-mp.diff(pv, c) - 1j * mp.pi * mp.diff(g2, c)))
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


NEAR_CUT = [10.0**-k for k in range(3, 9)] + [2e-9, 1e-11]


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
    val_prime = _alpha(model, z, sheet, QUAD, QUAD.abs_tol, derivative=True)
    if sheet is ob.Sheet.SECOND_II:
        ref += 2j * math.pi * lam2 * g2
        ref_prime += 2j * math.pi * lam2 * g2_prime
    # the integrals' relative tolerance carried through lam^2
    assert abs(ob.alpha(model, ob.SheetPoint(z, sheet), QUAD) - ref) <= (
        QUAD.rel_tol * lam2 * abs(first))
    assert abs(val_prime - ref_prime) <= QUAD.rel_tol * lam2 * abs(second)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth", [1e-3, 1e-8, 0.0])
def test_resolvent_integrals_match_mpmath(name, depth):
    # depth 0 is the cut itself, the boundary value from below; +0.0 is the
    # signed zero on which a plain complex log takes the branch from above
    model = MODELS[name]
    z = complex(pole(name).real, -depth if depth else 0.0)
    first, second = mp_moments(name, z)
    assert _resolvent(model, z, QUAD, None, 1) == pytest.approx(first, rel=QUAD.rel_tol)
    assert _resolvent(model, z, QUAD, QUAD.abs_tol, 2) == pytest.approx(second, rel=QUAD.rel_tol)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_off_range_real_part_matches_quadpack(name, side):
    # Re z < 0 and Re z > T take the unsubtracted integrands
    model = MODELS[name]
    T = QUAD.truncation(model)
    z = complex(-0.05, -1e-3) if side == "below" else complex(T + 0.05, -1e-3)
    got = (_resolvent(model, z, QUAD, None, 1), _resolvent(model, z, QUAD, QUAD.abs_tol, 2))
    for k, value, exact in zip((1, 2), got, mp_moments(name, z)):
        ref = quadpack_complex(lambda w: ob.spectral_weight(model, w) / (z - w) ** k, 0.0, T)
        assert value == pytest.approx(ref, rel=1e-11)
        assert value == pytest.approx(exact, rel=1e-11)


def test_fractional_pole_near_origin():
    z0 = pole("fractional")
    assert 0.0 < z0.real < 0.5
    first, second = mp_moments("fractional", z0)
    assert _resolvent(FRACTIONAL, z0, QUAD, None, 1) == pytest.approx(first, rel=QUAD.rel_tol)
    assert _resolvent(FRACTIONAL, z0, QUAD, QUAD.abs_tol, 2) == pytest.approx(
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


# the reference model and three fractional exponents whose tables reach the w^n cusp
PV_MODELS = {
    "m1": M1,
    "n0.3628": ob.ModelParams(1.1789, 0.3215, 0.3628, 7.0347),
    "n0.25": ob.ModelParams(1.0, 0.2, 0.25, 5.0),
    "n0.2845": ob.ModelParams(0.3254, 0.2169, 0.2845, 5.919),
}


def mp_pv(model, x: float) -> float:
    """PV int_0^T g2(w)/(x - w) dw at 30 digits, in the subtracted form."""
    T = QUAD.truncation(model)
    n, cutoff = mp.mpf(model.exponent), mp.mpf(model.cutoff)
    with mp.workdps(30):
        def g2(w):
            return model.prefactor * w**n * mp.exp(-((w / cutoff) ** 2))

        xx = mp.mpf(x)
        return float(mp.quad(lambda w: (g2(w) - g2(xx)) / (xx - w), [0, xx, T])
                     + g2(xx) * mp.log(xx / (T - xx)))


@pytest.mark.parametrize("name", ["m1", "n0.3628"])
@pytest.mark.parametrize("fraction", [1e-3, 0.07, 0.25, 0.6, 1.4])
def test_pv_integral_matches_mpmath(name, fraction):
    model = PV_MODELS[name]
    x = fraction * model.cutoff
    ref = mp_pv(model, x)
    got = pv_integral_many(model, x, QUAD)
    # At a fractional exponent the 16 Gauss nodes of the first master panel,
    # [0, 1e-6*cutoff], miss part of the w^n cusp.  The error of that panel's
    # integral, divided by x, is about 7e-13*cutoff/x at n = 0.3628.
    cusp = 0.0 if float(model.exponent).is_integer() else 1e-12 * model.cutoff / x
    assert abs(got - ref) <= 1e-12 * (abs(ref) + ob.spectral_weight(model, x)) + cusp


@pytest.mark.parametrize("name", PV_MODELS)
def test_interpolated_table_pv_matches_direct_sum(name):
    # every node of a table, and a dense sweep of (0, T): interpolated above
    # 1e-2*cutoff, direct below
    model = PV_MODELS[name]
    grid = master_grid(model, QUAD)
    nodes = np.union1d(build_spectral_table(model, QUAD).nodes,
                       np.linspace(0.0, grid.T, 20_001)[1:-1])
    direct = pv_integral_many(model, nodes, QUAD, grid)
    scale = np.abs(direct) + ob.spectral_weight(model, nodes)
    assert np.all(np.abs(table_pv(model, QUAD, grid, nodes) - direct) <= 1e-11 * scale)


def test_interpolated_table_pv_near_the_truncation_point():
    # the PV's g2(w) ln(T - w) term is added back, not interpolated; at the
    # smallest truncation g2(T) is large enough for it to show
    quad = ob.QuadConfig(upper_truncation_multiple=4.0)
    grid = master_grid(M1, quad)
    nodes = np.linspace(grid.bounds[-2], grid.T, 202)[1:-1]
    direct = pv_integral_many(M1, nodes, quad, grid)
    scale = np.abs(direct) + ob.spectral_weight(M1, nodes)
    assert np.all(np.abs(table_pv(M1, quad, grid, nodes) - direct) <= 1e-11 * scale)


def test_master_interpolation_is_exact_on_nodes_and_polynomials():
    grid = master_grid(M1, QUAD)
    values = np.cos(grid.x)
    # a point on a node takes the node's value, without dividing by zero
    assert np.array_equal(grid.interpolate(values, grid.x), values)
    # a polynomial of degree 15 is reproduced between the nodes, panel edges included
    poly = np.polynomial.Legendre(np.linspace(1.0, 0.1, 16), domain=[0.0, grid.T])
    points = np.concatenate([grid.bounds, 0.5 * (grid.x[1:] + grid.x[:-1])])
    assert np.allclose(grid.interpolate(poly(grid.x), points), poly(points), rtol=0.0, atol=1e-13)


# the series switch at 1e-3, the recurrence switch at n = 24, zeros of sin
# on both sides of it, and a large argument
JN_ARGS = [0.0, 1e-12, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9), 0.02, 0.7, 3.0, 11.5,
           24.0 * (1 - 1e-12), 24.0, 24.0 * (1 + 1e-12), 30.0,
           math.pi, 2 * math.pi, 7 * math.pi, 8 * math.pi, 9 * math.pi, 1e4]


def test_spherical_bessel_against_mpmath():
    got = spherical_jn(24, np.array(JN_ARGS))
    with mp.workdps(40):
        for i, a in enumerate(JN_ARGS):
            for k in range(24):
                ref = (mp.mpf(1 if k == 0 else 0) if a == 0.0 else
                       mp.sqrt(mp.pi / (2 * mp.mpf(a))) * mp.besselj(k + mp.mpf(1) / 2, a))
                assert abs(got[k, i] - float(ref)) < 1e-14, (k, a)


def _axis_models():
    """The reference, a fractional exponent, a coupling at 0.99 of the positivity
    limit, and 21 seeded models across the admissible space."""
    def model(omega, frac, exponent, cutoff):
        limit = math.sqrt(omega / (0.5 * cutoff**exponent * math.gamma(exponent / 2.0)))
        return ob.ModelParams(float(omega), float(frac * limit), float(exponent), float(cutoff))

    models = [M1, FRACTIONAL, model(1.0, 0.99, 1.0, 5.0)]
    rng = np.random.default_rng(7)
    for _ in range(21):
        omega, cutoff = np.exp(rng.uniform(np.log([0.3, 1.0]), np.log([3.0, 10.0])))
        frac, exponent = rng.uniform([0.0, 0.3], [0.95, 2.5])
        models.append(model(omega, frac, exponent, cutoff))
    return models


@pytest.mark.parametrize("rtol", [None, 8.9e-16])
def test_brent_root_of_x_matches_scipy(rtol):
    # the axis_profile root X(omega0) = 0, on the same bracket
    kw = {} if rtol is None else {"rtol": rtol}
    for model in _axis_models():
        grid = master_grid(model, QUAD)

        def x_of(w):
            return w - model.omega_bare - model.lam**2 * pv_integral_many(model, w, QUAD, grid)

        lo, hi = 1e-6 * model.cutoff, grid.T - 1e-6 * model.cutoff
        assert x_of(lo) < 0 < x_of(hi)
        assert _brentq(x_of, lo, hi, xtol=1e-15, **kw) == scipy_brentq(x_of, lo, hi,
                                                                       xtol=1e-15, **kw)


SMOOTH = [
    lambda x, c: math.tanh(3.0 * (x - c)) + 0.05 * math.sin(7.0 * x),
    lambda x, c: (x - c) ** 3 + 0.1 * (x - c),
    lambda x, c: math.exp(x) - math.exp(c),
    lambda x, c: math.atan(40.0 * (x - c)),
    lambda x, c: (x - c) * (1.0 + x * x) + 1e-3 * math.cos(30.0 * x),
    lambda x, c: math.log1p(x + 3.0) - math.log1p(c + 3.0),
]


@pytest.mark.parametrize("rtol", [None, 8.9e-16])
@pytest.mark.parametrize("xtol", [1e-15, 1e-10, 1e-6])
def test_brent_root_of_smooth_functions_matches_scipy(xtol, rtol):
    kw = {} if rtol is None else {"rtol": rtol}
    rng = np.random.default_rng(11)
    for k, f in enumerate(SMOOTH):
        for c, lo, hi in rng.uniform([0.1, -2.0, 2.0], [1.9, 0.0, 4.0], (20, 3)):
            g = partial(f, c=c)
            assert _brentq(g, lo, hi, xtol, **kw) == scipy_brentq(g, lo, hi, xtol=xtol, **kw), \
                (k, c, lo, hi)


def test_brent_failures_are_typed(monkeypatch):
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, 0.0, 1.0, 1e-12)
    # a NaN met at an interior iterate, not at the bracket
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 1.0, 1e-12)
    monkeypatch.setattr(quadrature, "_BRENT_MAXITER", 3)
    with pytest.raises(NoConvergence):
        _brentq(lambda x: math.tanh(x - 0.3), -4.0, 4.0, 1e-15)
