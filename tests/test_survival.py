"""Survival amplitude routes, decay phases, and their cross-validation."""

import math

import numpy as np
import pytest

import oscbath as ob
from oscbath._tables import build_ray_table, build_spectral_table, node_sum


def test_sum_rule_m1(m1, quad):
    assert abs(ob.sum_rule(m1, quad) - 1.0) < 1e-9


def test_sum_rule_subohmic(quad):
    m2 = ob.build_model(0.5, 0.1, 0.5, 5.0, 1.0)
    assert abs(ob.sum_rule(m2, quad) - 1.0) < 1e-6


def test_sum_rule_near_decoupled(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    assert abs(ob.sum_rule(m, quad) - 1.0) < 1e-6


def test_spectral_amplitude_at_zero(m1_spectral):
    assert abs(m1_spectral.delta0[0] - 1.0) < 1e-6


def test_spectral_free_evolution(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    t = np.array([0.0, 0.5, 3.0, 17.0, 60.0])
    series = ob.amplitude_spectral(m, t, quad)
    assert np.max(np.abs(series.delta0 - np.exp(-1j * t))) < 1e-6


def test_spectral_exponential_phase(m1, m1_resonance, quad):
    gamma = m1_resonance.gamma
    t = 2.0 / gamma
    series = ob.amplitude_spectral(m1, np.array([0.0, t]), quad)
    P = abs(series.delta0[1]) ** 2
    assert P == pytest.approx(math.exp(-2.0), rel=0.02)


def test_pole_background_at_zero(m1_pb):
    assert abs(m1_pb.delta0[0] - 1.0) < 1e-6


def test_dual_method_agreement(m1_spectral, m1_pb):
    sup = np.max(np.abs(m1_spectral.delta0 - m1_pb.delta0))
    assert sup < 1e-6


def test_oracle_consistency_exponential_point(m1, m1_resonance, quad, uniform_bath_1000):
    # spectral amplitude against the finite-bath eigensolver at t = 2/gamma
    gamma = m1_resonance.gamma
    t = np.array([2.0 / gamma])
    sp = ob.amplitude_spectral(m1, t, quad)
    disc = ob.oracle_amplitude(uniform_bath_1000, t)
    assert abs(abs(sp.delta0[0]) ** 2 - abs(disc.delta0[0]) ** 2) < 1e-3


def test_background_dominates_at_late_times(m1, m1_resonance, quad):
    gamma = m1_resonance.gamma
    t = np.array([0.0, 50.0 / gamma])
    pb = ob.amplitude_pole_background(m1, m1_resonance, t, quad)
    assert abs(pb.background[1]) > abs(pb.pole_term[1])


def test_amplitude_unit_bound(m1_spectral, m1_pb):
    for series in (m1_spectral, m1_pb):
        assert np.max(np.abs(series.delta0)) <= 1.0 + 1e-9


def test_survival_probability_free_limit(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    series = ob.amplitude_spectral(m, np.linspace(0.0, 40.0, 50), quad)
    P, G = ob.survival_probability(series)
    assert np.max(np.abs(P - 1.0)) < 1e-6
    assert np.max(np.abs(G)) < 1e-6


def test_gamma_of_zero_is_zero(m1_spectral):
    _, G = ob.survival_probability(m1_spectral)
    assert G[0] == 0.0


def test_gamma_reconstruction_identity(m1_pb):
    P, G = ob.survival_probability(m1_pb)
    t = m1_pb.times
    mask = t > 0
    assert np.allclose(np.exp(-G[mask] * t[mask]), P[mask], rtol=1e-12, atol=0)


def test_gamma_in_exponential_window(m1_resonance, m1_pb):
    gamma = m1_resonance.gamma
    P, G = ob.survival_probability(m1_pb)
    mask = (m1_pb.times >= 2.0 / gamma) & (m1_pb.times <= 6.0 / gamma)
    assert np.all(np.abs(G[mask] - gamma) < 0.02 * gamma)


def test_gamma_late_log_over_t(m1, m1_resonance, quad):
    # -ln P / t drifts like ln t / t at late times: Gamma*t/ln t flattens
    gamma = m1_resonance.gamma
    ts = np.array([50.0, 100.0, 200.0]) / gamma
    pb = ob.amplitude_pole_background(m1, m1_resonance, ts, quad)
    P, G = ob.survival_probability(pb)
    v = G * ts / np.log(ts)
    assert abs(v[2] - v[1]) < abs(v[1] - v[0])


def test_zeno_slope_and_quadratic(m1, m1_spectral):
    fit = ob.zeno_slope(m1_spectral)
    assert abs(fit.slope) < 1e-8
    q_expected = 0.01 * ob.spectral_moment(m1, 0)
    assert fit.quadratic == pytest.approx(q_expected, rel=0.01)
    assert q_expected == pytest.approx(0.125, rel=1e-12)


def test_zeno_variance_identity(m1, quad):
    # table moments: the variance of the spectral measure equals lam^2 int g2
    table = build_spectral_table(m1, quad, t_max=0.0)
    w, x = table.weights, table.nodes
    variance = np.sum(w * x**2) - np.sum(w * x) ** 2
    assert variance == pytest.approx(0.01 * ob.spectral_moment(m1, 0), abs=1e-6)


def test_zeno_quadratic_is_table_variance(m1, quad):
    # the Zeno numbers come from the series' table, whatever grid it holds
    series = ob.amplitude_spectral(m1, np.linspace(0.0, 10.0, 11), quad)
    fit = ob.zeno_slope(series)
    assert abs(fit.slope) < 1e-8
    assert fit.quadratic == pytest.approx(0.01 * ob.spectral_moment(m1, 0), rel=1e-12)


def test_zeno_needs_spectral_table(m1_pb):
    with pytest.raises(ValueError):
        ob.zeno_slope(m1_pb)


def test_decoupled_table_is_free_evolution(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    t = np.linspace(0.0, 1e3, 500)
    series = ob.amplitude_spectral(m, t, quad)
    assert series.table.nodes.tolist() == [1.0]
    assert np.array_equal(series.delta0, np.exp(-1j * m.omega_bare * t))
    assert ob.sum_rule(m, quad) == 1.0


def test_zeno_free_limit(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 0.1, 24)])
    fit = ob.zeno_slope(ob.amplitude_spectral(m, grid, quad))
    # one node has variance 0; rounding noise in |exp(-i t)|^2 is amplified
    # by the 1/t of the slope fit
    assert abs(fit.slope) < 1e-8
    assert fit.quadratic == 0.0


def test_khalfin_exponent_m1(m1_resonance, m1_pb_long):
    gamma = m1_resonance.gamma
    slope = ob.khalfin_exponent(m1_pb_long, (80.0 / gamma, 200.0 / gamma))
    assert slope == pytest.approx(-4.0, abs=0.2)


def test_khalfin_exponent_supraohmic(quad):
    m = ob.build_model(1.0, 0.1, 2.0, 5.0, 1.0)
    res = ob.find_resonance(m, quad, tol=1e-12)
    gamma = res.gamma
    grid = ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320)
    pb = ob.amplitude_pole_background(m, res, grid, quad)
    slope = ob.khalfin_exponent(pb, (80.0 / gamma, 200.0 / gamma))
    assert slope == pytest.approx(-6.0, abs=0.3)


def test_khalfin_window_inside_exponential_phase(m1_resonance, m1_pb_long):
    gamma = m1_resonance.gamma
    with pytest.raises(ob.WindowBeforeCrossover):
        ob.khalfin_exponent(m1_pb_long, (2.0 / gamma, 6.0 / gamma))


def test_crossover_times_m1(m1_resonance, m1_pb_long):
    t_zeno, t_khalfin = ob.crossover_times(m1_resonance, m1_pb_long)
    # the flat start ends on the cutoff timescale, well before 1/gamma
    assert 0.0 < t_zeno < 1.0
    assert t_zeno < t_khalfin
    # defining equation |pole| = |background| holds at the returned point
    pole = abs(np.exp(-1j * m1_resonance.z0 * t_khalfin)
               / m1_resonance.alpha_prime_at_pole)
    bg = abs(m1_pb_long.table.background(np.array([t_khalfin]))[0])
    assert abs(pole - bg) <= 0.01 * pole


def test_crossover_scaling_with_coupling(m1, m1_resonance, m1_pb_long, quad):
    # stronger coupling brings the tail takeover earlier in lifetime units
    m = ob.build_model(1.0, 0.2, 1.0, 5.0, 1.0)
    res = ob.find_resonance(m, quad, tol=1e-12)
    grid = ob.hybrid_time_grid(1.0, res.gamma, 200.0 / res.gamma, 320)
    pb = ob.amplitude_pole_background(m, res, grid, quad)
    tk_strong = ob.crossover_times(res, pb)[1]
    tk_weak = ob.crossover_times(m1_resonance, m1_pb_long)[1]
    assert tk_strong * res.gamma < tk_weak * m1_resonance.gamma


def test_crossover_not_bracketed_without_decay(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    res = ob.find_resonance(m, quad, tol=1e-12)
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 80)])
    pb = ob.amplitude_pole_background(m, res, grid, quad)
    with pytest.raises(ob.CrossoverNotBracketed):
        ob.crossover_times(res, pb)


def test_phase_structure_descend_plateau_rise(m1_resonance, m1_pb_long):
    """The log-slope of P descends from 0, sits near -gamma, then rises.

    Window-averaged trend with a deadband absorbs the pole-background
    interference ripple; the collapsed trend must change sign exactly twice
    (descending -> flat -> rising).
    """
    gamma = m1_resonance.gamma
    P, _ = ob.survival_probability(m1_pb_long)
    t = m1_pb_long.times
    ts = np.geomspace(t[1], t[-1], 400)
    lnp = np.interp(np.log(ts), np.log(t[1:]), np.log(P[1:]))
    slope = np.gradient(lnp, ts)

    edges = np.geomspace(t[1], t[-1], 13)
    means = np.array([slope[(ts >= a) & (ts < b)].mean()
                      for a, b in zip(edges[:-1], edges[1:])])
    # qualitative anchors
    assert abs(means[0]) < 0.05 * gamma
    assert min(means) == pytest.approx(-gamma, rel=0.1)
    assert means[-1] > -0.1 * gamma
    # collapsed trend after the initial flat stretch: descending, flat,
    # rising, i.e. the trend changes sign exactly twice
    d = np.diff(means)
    states = np.sign(np.where(np.abs(d) < 0.1 * gamma, 0.0, d))
    trend = [s for i, s in enumerate(states) if i == 0 or s != states[i - 1]]
    while trend and trend[0] == 0.0:
        trend.pop(0)
    assert trend == [-1.0, 0.0, 1.0]


def test_oscillation_cap(m1, quad):
    with pytest.raises(ob.OscillationUnderResolved):
        ob.amplitude_spectral(m1, np.array([0.0, 1e7]), quad)


def test_table_records_resolved_time(m1, quad):
    # the widest panel, cutoff / 2.5, resolves 0.8 rad per node up to t = 9.6
    table = build_spectral_table(m1, quad, t_max=0.0)
    assert table.t_max == pytest.approx(9.6, rel=1e-12)
    table.amplitude(np.array([9.6]))
    with pytest.raises(ob.OscillationUnderResolved):
        table.amplitude(np.array([9.7]))


def test_node_sum_across_chunks():
    # 1.5M rates put 2 times in each 4M-exponential chunk: 7 times span 4 chunks
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 40.0, 1_500_000)
    rates = (-math.sin(0.6) - 1j * math.cos(0.6)) * s
    values = rng.uniform(0.0, 1.0, s.size) + 1j * rng.uniform(-1.0, 1.0, s.size)
    values /= np.abs(values).sum()
    times = np.array([0.0, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0])
    direct = np.array([np.sum(values * np.exp(rates * t)) for t in times])
    assert np.max(np.abs(node_sum(times, rates, values) - direct)) < 1e-12


def test_hybrid_grid_shape(m1_resonance):
    gamma = m1_resonance.gamma
    grid = ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320)
    assert grid[0] == 0.0
    assert np.all(np.diff(grid) > 0)
    positive = grid[grid > 0]
    assert positive[0] <= 1e-3
    assert grid[-1] == pytest.approx(200.0 / gamma, rel=1e-9)


def test_phase_report_ordering_invariant():
    with pytest.raises(ValueError):
        ob.PhaseReport(gamma_fit=0.05, zeno_slope=0.0, zeno_quadratic=0.125,
                       khalfin_exponent=-4.0, t_zeno=10.0, t_khalfin=1.0)


def test_ray_angle_not_below_pole(m1, m1_resonance, quad):
    # the angle is used as given; one that does not pass below the pole fails
    # with a message that names the admissible interval
    with pytest.raises(ob.PoleOnRay, match=r"\(0\.05043, pi/4\)"):
        ob.amplitude_pole_background(m1, m1_resonance, np.array([0.0, 1.0]),
                                     quad, theta=0.02)


@pytest.mark.parametrize("theta", [-0.5, 0.0, math.pi / 4, 1.0, 2.0])
def test_ray_angle_out_of_range(m1, m1_resonance, quad, theta):
    # the Gaussian factor of g2 decays along the ray only below pi/4
    with pytest.raises(ValueError, match="pi/4"):
        build_ray_table(m1, m1_resonance.z0, quad, t_max=1.0, theta=theta)
