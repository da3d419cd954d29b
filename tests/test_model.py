"""Model construction, stability margin, and the spectral coupling family."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

import oscbath as ob
from oracles import spectral_moment
from oscbath.model import spectral_weight_jet

SQRT_PI = math.sqrt(math.pi)


def test_zero_coupling_margin_is_omega():
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    assert m.positivity_margin == pytest.approx(1.0, abs=0)


def test_m1_margin_closed_form(m1):
    # int_0^inf exp(-w^2/25) dw = sqrt(pi)*5/2
    expected = 1.0 - 0.01 * SQRT_PI * 5.0 / 2.0
    assert m1.positivity_margin == pytest.approx(expected, abs=1e-15)
    assert m1.positivity_margin == pytest.approx(0.9556886537273621, abs=1e-12)


def test_margin_against_quadrature_oracle():
    # independent route: numerically integrate g2(w)/w
    for n, lam in ((1.0, 0.1), (0.5, 0.2), (2.0, 0.15)):
        m = ob.build_model(1.0, lam, n, 5.0, 1.3)
        integral, err = scipy_quad(
            lambda w: 1.3 * w ** (n - 1.0) * np.exp(-((w / 5.0) ** 2)),
            0.0, 80.0, epsabs=1e-13, limit=400,
        )
        assert m.positivity_margin == pytest.approx(1.0 - lam**2 * integral, abs=1e-10)


def test_positivity_violated_reports_margin():
    with pytest.raises(ob.PositivityViolated) as exc:
        ob.build_model(0.01, 0.5, 1.0, 5.0, 1.0)
    assert exc.value.margin == pytest.approx(0.01 - 0.25 * SQRT_PI * 5.0 / 2.0, abs=1e-12)
    assert exc.value.margin < 0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(omega_bare=0.0),
        dict(omega_bare=-1.0),
        dict(cutoff=0.0),
        dict(prefactor=-2.0),
        dict(exponent=0.0),
        dict(exponent=-0.5),
        dict(lam=-0.1),
        dict(omega_bare=float("nan")),
    ],
)
def test_non_positive_parameters_rejected(kwargs):
    params = dict(omega_bare=1.0, lam=0.1, exponent=1.0, cutoff=5.0, prefactor=1.0)
    params.update(kwargs)
    with pytest.raises(ob.NonPositiveParameter):
        ob.build_model(params["omega_bare"], params["lam"], params["exponent"],
                       params["cutoff"], params["prefactor"])


def test_spectral_weight_vanishes_at_zero():
    for n in (0.5, 1.0, 2.0, 3.0):
        m = ob.build_model(1.0, 0.1, n, 5.0, 1.0)
        assert ob.spectral_weight(m, 0.0) == 0.0


def test_spectral_weight_m1_values(m1):
    assert ob.spectral_weight(m1, 1.0) == pytest.approx(math.exp(-0.04), rel=1e-15)
    assert ob.spectral_weight(m1, 5.0) == pytest.approx(5.0 * math.exp(-1.0), rel=1e-15)


def test_spectral_weight_mpmath_oracle(m1):
    # arbitrary-precision evaluation of the same family
    mp.mp.dps = 40
    for w in (0.3, 1.0, 2.7, 5.0, 11.0):
        ref = float(mp.mpf(w) * mp.exp(-((mp.mpf(w) / 5) ** 2)))
        assert ob.spectral_weight(m1, w) == pytest.approx(ref, rel=1e-15)


def test_spectral_weight_rejects_negative(m1):
    with pytest.raises(ob.NegativeFrequency):
        ob.spectral_weight(m1, -0.5)


def test_analytic_matches_real_axis(m1):
    w = np.linspace(0.0, 50.0, 801)
    real = ob.spectral_weight(m1, w)
    cont = ob.spectral_weight_analytic(m1, w.astype(complex))
    assert np.max(np.abs(cont.imag)) == 0.0
    scale = np.maximum(real, 1e-290)
    assert np.max(np.abs(cont.real - real) / scale) < 1e-14


def test_analytic_matches_real_axis_fractional():
    m = ob.build_model(0.5, 0.1, 0.5, 5.0, 1.0)
    w = np.linspace(1e-6, 50.0, 400)
    real = ob.spectral_weight(m, w)
    cont = ob.spectral_weight_analytic(m, w.astype(complex))
    assert np.max(np.abs(cont - real) / np.maximum(real, 1e-290)) < 1e-13


def test_analytic_taylor_oracle(m1):
    # 4th-order Taylor expansion about z=1, evaluated at 1 - 0.03i
    mp.mp.dps = 40
    coeffs = mp.taylor(lambda z: z * mp.exp(-((z / 5) ** 2)), 1.0, 4)
    dz = mp.mpc(0.0, -0.03)
    ref = complex(sum(c * dz**k for k, c in enumerate(coeffs)))
    val = ob.spectral_weight_analytic(m1, complex(1.0, -0.03))
    assert val.imag != 0.0
    assert val == pytest.approx(ref, abs=2e-9)


def test_analytic_branch_cut():
    m2 = ob.build_model(0.5, 0.1, 0.5, 5.0, 1.0)
    with pytest.raises(ob.BranchCutHit):
        ob.spectral_weight_analytic(m2, complex(-1.0, 0.0))
    # integer exponent is entire: no cut
    m1 = ob.build_model(1.0, 0.1, 1.0, 5.0, 1.0)
    val = ob.spectral_weight_analytic(m1, complex(-1.0, 0.0))
    assert val == pytest.approx(-math.exp(-0.04), rel=1e-14)


def test_derivative_against_mpmath(m1):
    mp.mp.dps = 30
    for z in (complex(1.0, -0.1), complex(2.5, 0.3), complex(0.4, 0.0)):
        ref = complex(mp.diff(lambda zz: zz * mp.exp(-((zz / 5) ** 2)), mp.mpc(z)))
        assert complex(spectral_weight_jet(m1, z)[1]) == pytest.approx(ref, rel=1e-11)


def test_margin_strictly_decreasing_in_lambda():
    lams = np.linspace(0.0, 0.4, 17)
    margins = [ob.build_model(1.0, lam, 1.0, 5.0, 1.0).positivity_margin for lam in lams]
    assert np.all(np.diff(margins) < 0)


def test_spectral_moment_closed_form(m1):
    # k-th moment against direct quadrature
    for k in (0, 1, 2):
        ref, _ = scipy_quad(lambda w: w**k * w * np.exp(-((w / 5.0) ** 2)),
                            0.0, 80.0, epsabs=1e-13, limit=400)
        assert spectral_moment(m1, k) == pytest.approx(ref, rel=1e-12)
    assert spectral_moment(m1, 0) == pytest.approx(12.5, rel=1e-14)


def test_model_is_frozen(m1):
    with pytest.raises(AttributeError):
        m1.lam = 0.2


def test_quad_config_validation():
    with pytest.raises(ValueError):
        ob.QuadConfig(upper_truncation_multiple=2.0)
    assert ob.QuadConfig(upper_truncation_multiple=4.0).truncation(
        ob.build_model(1.0, 0.1, 1.0, 5.0, 1.0)) == 20.0


@pytest.mark.parametrize("multiple", [64.5, 1e9, math.inf, math.nan])
def test_quad_config_truncation_cap(multiple):
    # beyond 64 * cutoff the Gaussian tail is below any float; a huge or infinite
    # multiple would only make the master grid's panel loop run away
    with pytest.raises(ValueError):
        ob.QuadConfig(upper_truncation_multiple=multiple)
    assert ob.QuadConfig(upper_truncation_multiple=64.0).upper_truncation_multiple == 64.0
