"""Resolvent evaluation on both sheets and the resonance search."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import oscbath as ob
from oracles import grid_refine_resonance
from oscbath.quadrature import CauchyRule, gauss_panels, pv_integral_many

I = ob.Sheet.PHYSICAL_I
II = ob.Sheet.SECOND_II


def test_alpha_free_oscillator(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    val = ob.alpha(m, ob.SheetPoint(complex(2.0, 1.0), I), quad)
    assert val == pytest.approx(complex(1.0, 1.0), abs=1e-13)


def test_alpha_second_sheet_identity(m1, quad):
    # the continuation through the cut adds the residue of the integrand;
    # the + sign is pinned by continuity with the upper boundary value
    z = complex(1.0, -0.03)
    a1 = ob.alpha(m1, ob.SheetPoint(z, I), quad)
    a2 = ob.alpha(m1, ob.SheetPoint(z, II), quad)
    expected = a1 + 2j * math.pi * 0.01 * ob.spectral_weight_analytic(m1, z)
    assert a2 == pytest.approx(expected, abs=1e-14)


def test_alpha_dual_quadrature_oracle(m1, quad):
    # independent evaluation: arbitrary precision on four mapped subintervals
    mp.mp.dps = 30
    z = mp.mpc(1.0, 0.5)
    integral = mp.quad(lambda w: w * mp.exp(-((w / 5) ** 2)) / (z - w),
                       [0, 0.5, 2.0, 5.0, 40.0])
    ref = complex(z - 1.0 - 0.01 * integral)
    val = ob.alpha(m1, ob.SheetPoint(complex(1.0, 0.5), I), quad)
    assert val == pytest.approx(ref, abs=1e-8)


def test_alpha_on_cut_raises(m1, quad):
    with pytest.raises(ob.OnCut):
        ob.alpha(m1, ob.SheetPoint(complex(1.0, 0.0), I), quad)


def test_second_sheet_point_requires_lower_half_plane():
    with pytest.raises(ValueError):
        ob.SheetPoint(complex(1.0, 0.5), II)


def test_alpha_boundary_free():
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    assert ob.alpha_boundary(m, 2.0, ob.Side.PLUS) == pytest.approx(1.0, abs=1e-13)


def test_alpha_boundary_m1_imaginary_part(m1):
    val = ob.alpha_boundary(m1, 1.0, ob.Side.PLUS)
    assert val.imag == pytest.approx(math.pi * 0.01 * math.exp(-0.04), rel=1e-12)
    assert val.imag == pytest.approx(0.0301839, abs=1e-6)


def test_alpha_boundary_conjugation(m1):
    for w in (0.4, 1.0, 3.7):
        plus = ob.alpha_boundary(m1, w, ob.Side.PLUS)
        minus = ob.alpha_boundary(m1, w, ob.Side.MINUS)
        assert minus == pytest.approx(plus.conjugate(), abs=1e-14)


def cauchy_pv(f, x0: float, a: float, b: float, fprime, n: int = 24,
              panels: int = 24) -> float:
    """PV int_a^b f(x)/(x0 - x) dx for a < x0 < b and smooth f with derivative fprime.

    Generic-weight variant of the subtraction rule, for synthetic integrands.
    """
    if not (a < x0 < b):
        raise ValueError("x0 must be interior to (a, b)")
    bounds = np.unique(np.concatenate([
        np.linspace(a, x0, panels // 2 + 1), np.linspace(x0, b, panels // 2 + 1)
    ]))
    x, w = gauss_panels(bounds, n)
    f0 = f(x0)
    diff = x0 - x
    small = np.abs(diff) < 1e-9 * max(1.0, abs(x0))
    quot = np.empty_like(x)
    quot[~small] = (np.asarray([f(xi) for xi in x[~small]]) - f0) / diff[~small]
    quot[small] = -fprime(x0)
    return float(quot @ w + f0 * np.log((x0 - a) / (b - x0)))


def test_principal_value_even_weight_vanishes():
    # constant weight on a symmetric window integrates to zero in PV sense
    val = cauchy_pv(lambda x: 1.0, 2.0, 1.5, 2.5, fprime=lambda x: 0.0)
    assert abs(val) < 1e-12


def _pv_excision_oracle(omega, T=40.0):
    """Symmetric-excision PV with two Richardson eliminations (odd series)."""

    def g2(w):
        return w * np.exp(-((w / 5.0) ** 2))

    def excised(eps):
        left, _ = scipy_quad(lambda w: g2(w) / (omega - w), 0.0, omega - eps,
                             epsabs=1e-13, limit=400)
        right, _ = scipy_quad(lambda w: g2(w) / (omega - w), omega + eps, T,
                              epsabs=1e-13, limit=400)
        return left + right

    eps = 0.2
    vals = [excised(eps / 2**k) for k in range(4)]
    r1 = [2 * vals[k + 1] - vals[k] for k in range(3)]
    r2 = [(8 * r1[k + 1] - r1[k]) / 7 for k in range(2)]
    return r2[-1]


@pytest.mark.parametrize("omega", [1.0, 4.9])
def test_principal_value_excision_oracle(m1, quad, omega):
    assert pv_integral_many(CauchyRule(m1), omega) == pytest.approx(
        _pv_excision_oracle(omega), abs=1e-8)


def test_perturbative_free_limit(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    assert ob.perturbative_resonance(ob.Decay(m, quad)) == complex(1.0, 0.0)


def test_perturbative_m1_width(m1, quad):
    z = ob.perturbative_resonance(ob.Decay(m1, quad))
    assert z.imag == pytest.approx(-math.pi * 0.01 * math.exp(-0.04), rel=1e-12)
    gamma = -2.0 * z.imag
    assert gamma == pytest.approx(0.0603678, abs=1e-6)


def test_golden_rule_rate_ordering(quad):
    # subresonant oscillator: smaller exponent decays faster
    rates = {}
    for n in (0.5, 1.0, 2.0):
        m = ob.build_model(0.5, 0.1, n, 5.0, 1.0)
        z = ob.perturbative_resonance(ob.Decay(m, quad))
        rates[n] = -2.0 * z.imag
        closed = 2.0 * math.pi * 0.01 * 0.5**n * math.exp(-0.01)
        assert rates[n] == pytest.approx(closed, abs=1e-12)
    assert rates[2.0] < rates[1.0] < rates[0.5]


def test_find_resonance_near_decoupled(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    res = ob.find_resonance(ob.Decay(m, quad), tol=1e-12)
    assert abs(res.z0.imag) < 1e-15
    assert abs(res.z0 - 1.0) < 1e-14


def test_find_resonance_m1(m1, m1_resonance, quad):
    res = m1_resonance
    assert res.residual < 1e-12
    assert res.z0.imag < 0
    assert res.gamma > 0
    assert res.omega0 > 0
    # residual re-measured through the public evaluator
    direct = ob.alpha(m1, ob.SheetPoint(res.z0, II), quad)
    assert abs(direct) < 1e-12


def test_find_resonance_fourth_order_scaling(quad):
    # |z0 - z0_pert| / lam^4 tends to |G'(Omega) G(Omega)| ~ 17.5 for this
    # family; the ratio must be flat across a coupling sweep
    ratios = []
    for lam in (0.05, 0.1, 0.2):
        m = ob.build_model(1.0, lam, 1.0, 5.0, 1.0)
        res = ob.find_resonance(ob.Decay(m, quad), tol=1e-12)
        ratios.append(abs(res.z0 - res.perturbative_z0) / lam**4)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.15)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.15)


def test_find_resonance_grid_oracle(m1, m1_resonance, quad):
    zg = grid_refine_resonance(m1, quad)
    assert abs(zg - m1_resonance.z0) < 1e-10


@pytest.mark.parametrize("omega, lam", [(1.0, 2.2292387458683365e-05),
                                        (0.8, 2.4744841084995144e-05)])
def test_find_resonance_narrow(quad, omega, lam):
    # |Im z0| ~ 1.5e-9: the second moment is evaluated a hair below the cut
    res = ob.find_resonance(ob.Decay(ob.build_model(omega, lam, 1.0, 5.0), quad), tol=1e-12)
    assert res.residual < 1e-12
    assert res.z0.imag < 0


def test_find_resonance_requires_coupling(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    with pytest.raises(ob.NoConvergence):
        ob.find_resonance(ob.Decay(m, quad))


def test_find_resonance_iteration_budget(m1, quad):
    with pytest.raises(ob.NoConvergence):
        ob.find_resonance(ob.Decay(m1, quad), tol=1e-30, max_iter=1)


def test_find_resonance_muller_fallback(quad):
    # at 0.9988 of the positivity limit Newton uses up its 50 iterations from
    # the perturbative seed; only the Muller fallback reaches the zero
    m = ob.build_model(1.6413773735241075, 0.8007082973461992, 0.7787778415163586,
                       2.8169474662566714)
    res = ob.find_resonance(ob.Decay(m, quad))
    assert res.newton_iterations == 50
    assert res.z0.imag < 0
    assert abs(ob.alpha(m, ob.SheetPoint(res.z0, II), quad)) < 1e-12


def test_schwarz_reflection(m1, quad):
    for z in (complex(1.0, 0.5), complex(0.3, -0.8), complex(4.0, 2.0)):
        a = ob.alpha(m1, ob.SheetPoint(z, I), quad)
        b = ob.alpha(m1, ob.SheetPoint(z.conjugate(), I), quad)
        assert b == pytest.approx(a.conjugate(), abs=1e-12)


def test_boundary_consistency_richardson(m1, quad):
    # alpha(w + i eps, I) -> alpha_plus(w); the approach is linear in eps
    w = 1.3
    ref = ob.alpha_boundary(m1, w, ob.Side.PLUS)
    vals = [ob.alpha(m1, ob.SheetPoint(complex(w, eps), I), quad)
            for eps in (1e-3, 1e-4, 1e-5)]
    extrap = (10.0 * vals[1] - vals[0]) / 9.0
    assert abs(extrap - ref) < 1e-6
    extrap2 = (10.0 * vals[2] - vals[1]) / 9.0
    assert abs(extrap2 - ref) < abs(extrap - ref) + 1e-12


def test_sheet_continuity_across_cut(m1, quad):
    # the second sheet from below joins the upper boundary value
    w = 1.3
    ref = ob.alpha_boundary(m1, w, ob.Side.PLUS)
    diffs = [abs(ob.alpha(m1, ob.SheetPoint(complex(w, -eps), II), quad) - ref)
             for eps in (1e-3, 1e-4, 1e-5)]
    assert diffs[2] < diffs[1] < diffs[0]
    assert diffs[2] < 2e-5
