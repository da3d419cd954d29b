"""The Cauchy rule, adaptive panel quadrature and the Brent root finder
against QUADPACK, mpmath and SciPy references."""

import math
from functools import lru_cache, partial

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

import oscbath as ob
import oscbath.quadrature as quadrature
from oscbath._tables import _JN_GROUPS, axis_profile, build_spectral_table, filon_sums
from oscbath.errors import NoConvergence, QuadratureFailure
from oscbath.quadrature import CauchyRule, _brentq, adaptive_complex_quad, pv_integral_many
from oscbath.selfenergy import _alpha

QUAD = ob.QuadConfig()
M1 = ob.ModelParams(1.0, 0.1, 1.0, 5.0)
# fractional exponent whose pole sits close to the origin
FRACTIONAL = ob.ModelParams(0.8203870617329918, 0.5512457297805049, 0.652113547996434,
                            2.172331457053775)
MODELS = {"m1": M1, "fractional": FRACTIONAL}
# the rule's resolvents carry rounding error only; the adaptive quadrature
# they replace was held to 1e-10 relative
RULE_RTOL = 1e-12


def quadpack_complex(f, a, b, points=None):
    """Independent reference: QUADPACK on the real and imaginary parts."""
    kw = {"epsabs": 1e-14, "epsrel": 1e-13, "limit": 1000, "points": points}
    re = scipy_quad(lambda x: f(np.array([x]))[0].real, a, b, **kw)[0]
    im = scipy_quad(lambda x: f(np.array([x]))[0].imag, a, b, **kw)[0]
    return complex(re, im)


def mp_g2_fn(model):
    n, cutoff = mp.mpf(model.exponent), mp.mpf(model.cutoff)
    return lambda w: model.prefactor * w**n * mp.exp(-((w / cutoff) ** 2))


@lru_cache(maxsize=None)
def mp_resolvents(model, z: complex, top: int = 2):
    """int_0^inf g2(w)/(z - w)^k dw for k = 1..top at 30 digits, z off the cut."""
    T = QUAD.truncation(model)
    zz = mp.mpc(z.real, z.imag)
    b = abs(z.imag)
    cuts = sorted({p for p in (z.real - 10 * b, z.real - b, z.real, z.real + b, z.real + 10 * b,
                               abs(z), 10 * abs(z))
                   if 0.0 < p < T})
    with mp.workdps(30):
        g2 = mp_g2_fn(model)
        return tuple(complex(mp.quad(lambda w: g2(w) / (zz - w) ** k, [0, *cuts, T, mp.inf]))
                     for k in range(1, top + 1))


@lru_cache(maxsize=None)
def mp_moments(name: str, z: complex):
    """int_0^inf g2(w)/(z - w)^k dw for k = 1, 2 at 30 digits.

    On the cut (Im z = 0) the limit from below: PV(c) + i pi g2(c) and its
    negated derivative -PV'(c) - i pi g2'(c).
    """
    model = MODELS[name]
    if z.imag != 0.0:
        return mp_resolvents(model, z)
    with mp.workdps(30):
        g2 = mp_g2_fn(model)
        c = mp.mpf(z.real)
        return (complex(mp_pv_value(model, c) + 1j * mp.pi * g2(c)),
                complex(-mp.diff(lambda x: mp_pv_value(model, x), c) - 1j * mp.pi * mp.diff(g2, c)))


def mp_pv_value(model, x):
    """PV int_0^inf g2(w)/(x - w) dw at the working precision, in the subtracted form."""
    T = QUAD.truncation(model)
    g2 = mp_g2_fn(model)
    return (mp.quad(lambda w: (g2(w) - g2(x)) / (x - w), [0, x, T])
            + g2(x) * mp.log(x / (T - x)) + mp.quad(lambda w: g2(w) / (x - w), [T, mp.inf]))


def mp_pv(model, x: float) -> float:
    """PV int_0^inf g2(w)/(x - w) dw at 30 digits."""
    with mp.workdps(30):
        return float(mp_pv_value(model, mp.mpf(x)))


def mp_g2(model, z: complex):
    """Continued g2(z) and g2'(z) on the principal branch."""
    n, cutoff, zz = mp.mpf(model.exponent), mp.mpf(model.cutoff), mp.mpc(z.real, z.imag)
    with mp.workdps(30):
        g = model.prefactor * mp.exp(n * mp.log(zz)) * mp.exp(-((zz / cutoff) ** 2))
        return complex(g), complex(g * (n / zz - 2 * zz / cutoff**2))


def mp_alpha_second(model, z: complex) -> complex:
    """alpha_II(z) at 30 digits."""
    lam2 = model.lam**2
    return (z - model.omega_bare - lam2 * mp_resolvents(model, z)[0]
            + 2j * math.pi * lam2 * mp_g2(model, z)[0])


def pole(name: str) -> complex:
    return ob.find_resonance(ob.Decay(MODELS[name], QUAD), tol=1e-12).z0


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
    val_prime = _alpha(model, CauchyRule(model), z, sheet, derivative=True)
    if sheet is ob.Sheet.SECOND_II:
        ref += 2j * math.pi * lam2 * g2
        ref_prime += 2j * math.pi * lam2 * g2_prime
    # the integrals' relative tolerance carried through lam^2
    assert abs(ob.alpha(model, ob.SheetPoint(z, sheet), QUAD) - ref) <= (
        RULE_RTOL * lam2 * abs(first))
    assert abs(val_prime - ref_prime) <= RULE_RTOL * lam2 * abs(second)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("depth", [1e-3, 1e-8, 0.0])
def test_resolvent_integrals_match_mpmath(name, depth):
    # depth 0 is the cut itself, the boundary value from below, asked for with
    # Im z = +0.0, the signed zero on which reflection must not act
    rule = CauchyRule(MODELS[name])
    z = complex(pole(name).real, -depth if depth else 0.0)
    first, second = mp_moments(name, z)
    assert rule.resolvent(z, 1) == pytest.approx(first, rel=RULE_RTOL)
    assert rule.resolvent(z, 2) == pytest.approx(second, rel=RULE_RTOL)
    if z.imag == 0.0:
        assert rule.resolvent_on_ray(z.real)[0] == pytest.approx(first, rel=RULE_RTOL)


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("side", ["below", "above"])
def test_off_range_real_part_matches_quadpack(name, side):
    # Re z < 0 and Re z beyond the truncation point, where the old adaptive
    # quadrature took the unsubtracted integrands
    model = MODELS[name]
    rule = CauchyRule(model)
    T = QUAD.truncation(model)
    z = complex(-0.05, -1e-3) if side == "below" else complex(T + 0.05, -1e-3)
    got = (rule.resolvent(z, 1), rule.resolvent(z, 2))
    for k, value, exact in zip((1, 2), got, mp_resolvents(model, z)):
        ref = quadpack_complex(lambda w: ob.spectral_weight(model, w) / (z - w) ** k, 0.0, T)
        assert value == pytest.approx(ref, rel=1e-11)
        assert value == pytest.approx(exact, rel=RULE_RTOL)


def test_fractional_pole_near_origin():
    z0 = pole("fractional")
    assert 0.0 < z0.real < 0.5
    first, second = mp_moments("fractional", z0)
    rule = CauchyRule(FRACTIONAL)
    assert rule.resolvent(z0, 1) == pytest.approx(first, rel=RULE_RTOL)
    assert rule.resolvent(z0, 2) == pytest.approx(second, rel=RULE_RTOL)
    assert abs(mp_alpha_second(FRACTIONAL, z0)) <= 1e-13


def test_upper_half_plane_by_reflection():
    # points above the cut, including ones between the cut and the rule's ray,
    # take the reflection R(z) = conj R(conj z) of the physical-sheet integral
    rule = CauchyRule(FRACTIONAL)
    for z in (complex(1.3, 1e-6), complex(1.3, 0.2), complex(0.4, 2.0), complex(-0.7, 0.3)):
        first = mp_resolvents(FRACTIONAL, z)[0]
        assert rule.resolvent(z, 1) == pytest.approx(first, rel=RULE_RTOL)


@pytest.mark.parametrize("s", np.geomspace(1e-7, 30.0, 9))
def test_resolvent_on_the_background_ray_matches_mpmath(s):
    # the ray table's alpha_I: R_1 at s e^{-i pi/5}, down to s = 1e-7, at n = 0.36
    model = ob.ModelParams(1.0, 0.2, 0.36, 5.0)
    z = s * complex(math.cos(math.pi / 5), -math.sin(math.pi / 5))
    got = CauchyRule(model).resolvent_on_ray(s, math.pi / 5)[0]
    assert got == pytest.approx(mp_resolvents(model, z, 1)[0], rel=RULE_RTOL)


# six poles of the bench's pole_scan on seed 3, with arg z0 from -0.41 to -1.52,
# the reference model and the strong-coupling model of decay_phases' survival02
POLE_MODELS = {
    "pole004": (1.1789419345435512, 0.3215124834108771, 0.36282551035205024, 7.034710430451965),
    "pole005": (0.8241286071838806, 0.45710641621085235, 0.9026618045178143, 2.914100983486717),
    "pole019": (0.6106188726363649, 0.3121394748859274, 0.6821027289431032, 6.507717336537754),
    "pole039": (0.5683328486705523, 0.31203905702672935, 0.6028981292042097, 4.3648081703383514),
    "pole080": (1.0346628978474732, 0.4762948830874378, 0.9829398617929007, 2.009044407466463),
    "pole089": (0.811572061005079, 0.5387919628278132, 0.652728531033485, 2.1483660979081804),
    "reference": (1.0, 0.1, 1.0, 5.0),
    "survival02": (1.4274832499309253, 0.30110592191667285, 1.8917333424776708,
                   2.3546682619403145),
}


@pytest.mark.parametrize("name", POLE_MODELS)
def test_pole_residual_against_mpmath(name):
    model = ob.ModelParams(*POLE_MODELS[name])
    z0 = ob.find_resonance(ob.Decay(model, QUAD)).z0
    assert abs(mp_alpha_second(model, z0)) <= 1e-13


@pytest.mark.parametrize("name", POLE_MODELS)
def test_alpha_at_the_pole_agrees_with_the_search(name):
    # the public evaluator and the search share the rule, so the pole the
    # search returns passes the 1e-12 residual check made through ob.alpha
    model = ob.ModelParams(*POLE_MODELS[name])
    res = ob.find_resonance(ob.Decay(model, QUAD))
    assert res.residual < 1e-12
    assert abs(ob.alpha(model, ob.SheetPoint(res.z0, ob.Sheet.SECOND_II), QUAD)) < 1e-12


def test_breakpoints_resolve_a_kink():
    p = 0.3141592653589793

    def f(w):
        return np.abs(w - p) + 0j

    exact = 0.5 * (p**2 + (1.0 - p) ** 2)
    kw = {"abs_tol": 1e-14, "max_subdivisions": 8}
    assert adaptive_complex_quad(f, 0.0, 1.0, points=[p], **kw) == pytest.approx(exact, abs=1e-12)
    # points outside the open interval and repeated points are ignored
    assert adaptive_complex_quad(f, 0.0, 1.0, points=np.array([-1.0, p, p, 1.0, 2.0]),
                                 **kw) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(f, 0.0, 1.0, **kw)


def test_integrand_is_called_on_arrays():
    sizes = []

    def f(w):
        sizes.append(np.shape(w))
        return np.exp(1j * w)

    val = adaptive_complex_quad(f, 0.0, 3.0)
    assert val == pytest.approx((np.exp(3j) - 1.0) / 1j, abs=1e-14)
    # one call per refinement round, each on a 1-d array of nodes
    assert sizes and all(len(s) == 1 and s[0] > 1 for s in sizes)


def test_single_panel_budget_raises():
    z = complex(0.5, -1e-3)
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(lambda w: 1.0 / (z - w), 0.0, 1.0, abs_tol=1e-14,
                              max_subdivisions=1)
    exact = complex(np.log(z) - np.log(z - 1.0))
    assert adaptive_complex_quad(lambda w: 1.0 / (z - w), 0.0, 1.0,
                                 points=[0.5], abs_tol=1e-14) == pytest.approx(exact, rel=1e-12)


def test_non_finite_integrand_raises():
    with pytest.raises(QuadratureFailure):
        adaptive_complex_quad(lambda w: np.where(w > 0.5, np.nan, 1.0) + 0j, 0.0, 1.0)


# the reference model and four fractional exponents whose tables reach the w^n cusp
PV_MODELS = {
    "m1": M1,
    "n0.36": ob.ModelParams(1.0, 0.2, 0.36, 5.0),
    "n0.3628": ob.ModelParams(1.1789, 0.3215, 0.3628, 7.0347),
    "n0.25": ob.ModelParams(1.0, 0.2, 0.25, 5.0),
    "n0.2845": ob.ModelParams(0.3254, 0.2169, 0.2845, 5.919),
}


@pytest.mark.parametrize("name", ["m1", "n0.36", "n0.3628"])
@pytest.mark.parametrize("fraction", [1e-6, 1e-3, 0.07, 0.25, 0.6, 1.4, 7.99])
def test_pv_integral_matches_mpmath(name, fraction):
    # from w = 1e-6 * cutoff, where the PV carries a w^n ln w term, to just below
    # the truncation point
    model = PV_MODELS[name]
    x = fraction * model.cutoff
    ref = mp_pv(model, x)
    got = pv_integral_many(CauchyRule(model), x)
    assert abs(got - ref) <= 1e-14 * (abs(ref) + ob.spectral_weight(model, x))


@pytest.mark.parametrize("name", PV_MODELS)
def test_table_pv_matches_mpmath(name):
    # the spectral table's principal values, one vectorized call at its nodes,
    # checked at twelve nodes spread from the smallest to the largest
    model = PV_MODELS[name]
    decay = ob.Decay(model, QUAD)
    nodes = build_spectral_table(decay).nodes
    pick = nodes[np.unique(np.geomspace(1, nodes.size, 12).astype(int) - 1)]
    got = pv_integral_many(decay.rule, nodes)[np.searchsorted(nodes, pick)]
    for xi, value in zip(pick, got):
        ref = mp_pv(model, xi)
        assert abs(value - ref) <= 1e-14 * (abs(ref) + ob.spectral_weight(model, xi)), xi


@pytest.mark.parametrize("name", ["m1", "fractional", "n0.3628"])
def test_axis_profile_derivatives_match_mpmath(name):
    # X' and X'' come from the rule's R_2 and R_3 in closed form; the reference
    # differentiates the 30-digit X(w) = w - omega - lam^2 PV(w) numerically
    model = {**MODELS, **PV_MODELS}[name]
    prof = axis_profile(ob.Decay(model, QUAD))
    lam2 = model.lam**2
    with mp.workdps(30):
        w0 = mp.mpf(prof.omega0)

        def x_of(w):
            return w - model.omega_bare - lam2 * mp_pv_value(model, w)

        xp, xs = (float(mp.diff(x_of, w0, k)) for k in (1, 2))
        assert abs(float(x_of(w0))) <= 1e-14
    assert prof.xprime == pytest.approx(xp, rel=1e-13)
    assert prof.xsecond == pytest.approx(xs, rel=1e-11)


# the series switch at 1e-3, the recurrence switch at n = 24, zeros of sin
# on both sides of it, and a large argument
JN_ARGS = [0.0, 1e-12, 1e-3 * (1 - 1e-9), 1e-3 * (1 + 1e-9), 0.02, 0.7, 3.0, 11.5,
           24.0 * (1 - 1e-12), 24.0, 24.0 * (1 + 1e-12), 30.0,
           math.pi, 2 * math.pi, 7 * math.pi, 8 * math.pi, 9 * math.pi, 1e4]


def mp_jn(k, a):
    a = mp.mpmathify(a)
    return (mp.mpf(1 if k == 0 else 0) if a == 0 else
            mp.sqrt(mp.pi / (2 * a)) * mp.besselj(k + mp.mpf(1) / 2, a))


def test_spherical_bessel_against_mpmath():
    # the unit coefficient vector e_k turns the Filon sum into (-i)^k j_k
    got = filon_sums(np.eye(24), np.tile(JN_ARGS, (24, 1)))
    with mp.workdps(40):
        for i, a in enumerate(JN_ARGS):
            for k in range(24):
                assert abs(got[k, i] * 1j**k - float(mp_jn(k, a))) < 1e-14, (k, a)


def test_filon_sums_at_group_edges_against_mpmath():
    # random coefficients at and on both sides of every branch and group edge,
    # three arguments to a row; the error is relative to sum_k |c_k|
    edges = [1e-3, *_JN_GROUPS, 24.0]
    args = np.array([[e * (1 - 1e-9), e, e * (1 + 1e-9)] for e in edges])
    coef = np.random.default_rng(5).normal(size=(len(edges), 24))
    got = filon_sums(coef, args)
    with mp.workdps(40):
        for p, row in enumerate(args):
            for i, a in enumerate(row):
                ref = mp.fsum(mp.mpf(c) * (-1j)**k * mp_jn(k, a) for k, c in enumerate(coef[p]))
                assert abs(got[p, i] - complex(ref)) < 1e-14 * np.abs(coef[p]).sum(), (p, a)


@pytest.mark.parametrize("a", [5.0, 10.0, 15.0, 20.0])
def test_miller_start_set_by_a_single_argument(a):
    # the largest argument of a call sets Miller's start; each argument here
    # has a call of its own, and at 10 a start one order above the top kept
    # order once erred by 2.5e-12
    got = filon_sums(np.eye(24), np.full((24, 1), a))
    with mp.workdps(40):
        for k in range(24):
            assert abs(got[k, 0] * 1j**k - float(mp_jn(k, a))) < 1e-14, k


# |a| on both sides of every group edge of complex arguments (1e-3, 0.5, 3 and
# 2n = 48) and of the real top edge n = 24, and out to 1e5
COMPLEX_JN_MODULI = [0.0, 1e-12, 1e-4, 10.0, 24.1, 1e2, 1e3, 1e4, 1e5] + [
    e * f for e in (1e-3, *_JN_GROUPS, 24.0, 48.0) for f in (1 - 1e-9, 1 + 1e-9)]


@pytest.mark.parametrize("theta", [0.1, math.pi / 5, 0.78])
def test_complex_filon_sums_against_mpmath(theta):
    # a = |a| e^{-i theta}, as on a ray panel: unit coefficient rows give each
    # (-i)^k j_k(a) e^{-|Im a|}, and random complex rows their sums, one row
    # per argument; the error is relative to sum_k |c_k|
    a = np.array(COMPLEX_JN_MODULI) * complex(math.cos(theta), -math.sin(theta))
    rng = np.random.default_rng(9)
    coef = rng.normal(size=(a.size, 24)) + 1j * rng.normal(size=(a.size, 24))
    unit, summed = filon_sums(np.eye(24), np.tile(a, (24, 1))), filon_sums(coef, a[:, None])
    with mp.workdps(40):
        for i, x in enumerate(a):
            jk = [mp_jn(k, x) * (-1j)**k * mp.exp(-abs(x.imag)) for k in range(24)]
            for k in range(24):
                assert abs(unit[k, i] - complex(jk[k])) < 1e-14, (abs(x), k)
            ref = complex(mp.fsum(mp.mpc(c) * j for c, j in zip(coef[i], jk)))
            assert abs(summed[i, 0] - ref) < 1e-14 * np.abs(coef[i]).sum(), abs(x)


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
        rule = CauchyRule(model)

        def x_of(w):
            return w - model.omega_bare - model.lam**2 * pv_integral_many(rule, w)

        lo, hi = 1e-6 * model.cutoff, QUAD.truncation(model) - 1e-6 * model.cutoff
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
