"""Survival amplitude routes, decay phases, and their cross-validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander

import oscbath as ob
from oracles import spectral_moment
from oscbath._tables import build_ray_table, build_spectral_table
from oscbath.oracle import node_sum


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
    series = ob.Decay(m, quad).amplitude_spectral(t)
    assert np.max(np.abs(series.delta0 - np.exp(-1j * t))) < 1e-6


def test_spectral_exponential_phase(m1_decay, m1_resonance):
    gamma = m1_resonance.gamma
    t = 2.0 / gamma
    series = m1_decay.amplitude_spectral(np.array([0.0, t]))
    P = abs(series.delta0[1]) ** 2
    assert P == pytest.approx(math.exp(-2.0), rel=0.02)


def test_pole_background_at_zero(m1_pb):
    assert abs(m1_pb.delta0[0] - 1.0) < 1e-6


def test_dual_method_agreement(m1_spectral, m1_pb):
    sup = np.max(np.abs(m1_spectral.delta0 - m1_pb.delta0))
    assert sup < 1e-6


def test_oracle_consistency_exponential_point(m1_decay, m1_resonance, uniform_bath_1000):
    # spectral amplitude against the finite-bath eigensolver at t = 2/gamma
    gamma = m1_resonance.gamma
    t = np.array([2.0 / gamma])
    sp = m1_decay.amplitude_spectral(t)
    disc = ob.oracle_amplitude(uniform_bath_1000, t)
    assert abs(abs(sp.delta0[0]) ** 2 - abs(disc.delta0[0]) ** 2) < 1e-3


def test_background_dominates_at_late_times(m1_decay, m1_resonance):
    gamma = m1_resonance.gamma
    t = np.array([0.0, 50.0 / gamma])
    pb = m1_decay.amplitude_pole_background(m1_resonance, t)
    assert abs(pb.background[1]) > abs(pb.pole_term[1])


def test_amplitude_unit_bound(m1_spectral, m1_pb):
    for series in (m1_spectral, m1_pb):
        assert np.max(np.abs(series.delta0)) <= 1.0 + 1e-9


def test_survival_probability_free_limit(quad):
    m = ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0)
    series = ob.Decay(m, quad).amplitude_spectral(np.linspace(0.0, 40.0, 50))
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


def test_gamma_late_log_over_t(m1_decay, m1_resonance):
    # -ln P / t drifts like ln t / t at late times: Gamma*t/ln t flattens
    gamma = m1_resonance.gamma
    ts = np.array([50.0, 100.0, 200.0]) / gamma
    pb = m1_decay.amplitude_pole_background(m1_resonance, ts)
    P, G = ob.survival_probability(pb)
    v = G * ts / np.log(ts)
    assert abs(v[2] - v[1]) < abs(v[1] - v[0])


def test_zeno_slope_and_quadratic(m1, m1_decay):
    fit = ob.zeno_slope(m1_decay)
    assert abs(fit.slope) < 1e-8
    q_expected = 0.01 * spectral_moment(m1, 0)
    assert fit.quadratic == pytest.approx(q_expected, rel=0.01)
    assert q_expected == pytest.approx(0.125, rel=1e-12)


def test_zeno_variance_identity(m1, m1_decay):
    # table moments: the variance of the spectral measure equals lam^2 int g2
    table = build_spectral_table(m1_decay)
    w, x = table.weights, table.nodes
    variance = np.sum(w * x**2) - np.sum(w * x) ** 2
    assert variance == pytest.approx(0.01 * spectral_moment(m1, 0), abs=1e-6)


def test_zeno_quadratic_is_table_variance(m1, quad):
    # the Zeno numbers come from the object's table, before any amplitude
    fit = ob.zeno_slope(ob.Decay(m1, quad))
    assert abs(fit.slope) < 1e-8
    assert fit.quadratic == pytest.approx(0.01 * spectral_moment(m1, 0), rel=1e-12)


def test_decoupled_table_is_free_evolution(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    t = np.linspace(0.0, 1e3, 500)
    decay = ob.Decay(m, quad)
    series = decay.amplitude_spectral(t)
    assert decay.spectral_table.nodes.tolist() == [1.0]
    assert np.array_equal(series.delta0, np.exp(-1j * m.omega_bare * t))
    assert ob.sum_rule(m, quad) == 1.0


def test_zeno_free_limit(quad):
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    fit = ob.zeno_slope(ob.Decay(m, quad))
    # one node has variance 0; rounding noise in |exp(-i t)|^2 is amplified
    # by the 1/t of the slope fit
    assert abs(fit.slope) < 1e-8
    assert fit.quadratic == 0.0


def test_khalfin_exponent_m1(m1_resonance, m1_pb_long):
    gamma = m1_resonance.gamma
    slope = ob.khalfin_exponent(m1_pb_long, (80.0 / gamma, 200.0 / gamma))
    assert slope == pytest.approx(-4.0, abs=0.2)


def test_khalfin_exponent_supraohmic(quad):
    decay = ob.Decay(ob.build_model(1.0, 0.1, 2.0, 5.0, 1.0), quad)
    res = ob.find_resonance(decay, tol=1e-12)
    gamma = res.gamma
    grid = ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320)
    pb = decay.amplitude_pole_background(res, grid)
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
    bg = abs(m1_pb_long.ray.background(np.array([t_khalfin]))[0])
    assert abs(pole - bg) <= 0.01 * pole


def test_crossover_scaling_with_coupling(m1_resonance, m1_pb_long, quad):
    # stronger coupling brings the tail takeover earlier in lifetime units
    decay = ob.Decay(ob.build_model(1.0, 0.2, 1.0, 5.0, 1.0), quad)
    res = ob.find_resonance(decay, tol=1e-12)
    grid = ob.hybrid_time_grid(1.0, res.gamma, 200.0 / res.gamma, 320)
    pb = decay.amplitude_pole_background(res, grid)
    tk_strong = ob.crossover_times(res, pb)[1]
    tk_weak = ob.crossover_times(m1_resonance, m1_pb_long)[1]
    assert tk_strong * res.gamma < tk_weak * m1_resonance.gamma


def test_crossover_not_bracketed_without_decay(quad):
    decay = ob.Decay(ob.build_model(1.0, 1e-8, 1.0, 5.0, 1.0), quad)
    res = ob.find_resonance(decay, tol=1e-12)
    grid = np.concatenate([[0.0], np.geomspace(1e-4, 50.0, 80)])
    pb = decay.amplitude_pole_background(res, grid)
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


def test_spectral_route_at_long_times(m1_decay, m1_resonance):
    # the table resolves the weight, not the phase, so one table serves any t
    times = np.concatenate([[0.0], np.geomspace(1.0, 1e7, 29)])
    sp = m1_decay.amplitude_spectral(times)
    pb = m1_decay.amplitude_pole_background(m1_resonance, times)
    assert np.max(np.abs(sp.delta0 - pb.delta0)) < 1e-13


def test_one_ray_table_serves_every_horizon(m1_decay, m1_resonance):
    # the ray table takes no times: one build serves 20 and 2,000 lifetimes
    table = build_ray_table(m1_decay, m1_resonance.z0)
    gamma = m1_resonance.gamma
    for lifetimes in (20.0, 2000.0):
        grid = ob.hybrid_time_grid(1.0, gamma, lifetimes / gamma, 320)
        pole = np.exp(-1j * m1_resonance.z0 * grid) / m1_resonance.alpha_prime_at_pole
        spectral = m1_decay.amplitude_spectral(grid).delta0
        assert np.max(np.abs(pole + table.background(grid) - spectral)) < 1e-13


# the seed-3 decay_phases models (omega, lambda, exponent, cutoff) but
# survival02 and survival12, whose sectors hold a second zero of alpha_II
SEED_3_MODELS = [
    (0.983425966685745, 0.07875557898472955, 0.8096407828866048, 3.3839480771022985),
    (0.6956270056120993, 0.08303652978128999, 1.3488687700996052, 5.832392435389162),
    (0.5929536044672549, 0.1101337738418159, 2.473308103154632, 4.103822469435331),
    (1.1789419345435512, 0.3215124834108771, 0.36282551035205024, 7.034710430451965),
    (0.8241286071838806, 0.45710641621085235, 0.9026618045178143, 2.914100983486717),
    (1.7081439053036311, 0.010142078188521449, 1.458324484446619, 4.907085017379619),
    (0.5350106401262051, 0.018718646028297228, 1.9998892042116694, 8.431740219348837),
    (1.0975087952501943, 0.1720636184120155, 2.5300163756114946, 2.1594796915299224),
    (0.7648799113728705, 0.19576914932331058, 0.47417669839307175, 3.6651127751500843),
    (1.562561029754574, 0.2989603474669245, 1.0274581954407023, 6.246372458940868),
    (0.6465671876659129, 0.34122904127462844, 1.5937685555970407, 2.5647922187818586),
    (0.9242823536284637, 0.003703903132941654, 2.709637661197955, 7.360923263001053),
    (1.8385424673681878, 0.13632791544896042, 0.5826195002121366, 3.023415140486667),
    (0.515459544433448, 0.09821463907691323, 1.1414004985102912, 5.24205788649189),
]


@pytest.mark.parametrize("params", SEED_3_MODELS)
def test_pole_background_at_zero_on_seed_3_models(params):
    # the ray panels are bisected until their top Legendre coefficients reach
    # rounding, so pole + background at t = 0 is 1 to rounding
    decay = ob.Decay(ob.ModelParams(*params))
    res = ob.find_resonance(decay)
    assert abs(decay.amplitude_pole_background(res, [0.0]).delta0[0] - 1.0) <= 1e-13


# lambda 0.0037: a peak half-width below 1e-5, so the table has an offset window
NARROW = ob.build_model(0.9242823536284637, 0.003703903132941654, 2.709637661197955,
                        7.360923263001053)


@pytest.mark.parametrize("name", ["m1", "narrow"])
def test_filon_is_the_node_sum_where_panels_resolve_phase(m1, quad, name):
    # where h*t <= 1 on every panel, the panel rule and the Gauss node sum
    # of the same table agree to rounding; the node sum is taken in extended
    # precision, because in double its own rounding is about 7e-16
    table = build_spectral_table(ob.Decay(m1 if name == "m1" else NARROW, quad))
    times = np.linspace(0.0, 1.0 / table.halfwidths.max(), 17)
    x, w = table.nodes.astype(np.longdouble), table.weights.astype(np.longdouble)
    direct = np.array([np.sum(w * np.exp(-1j * x * t)) for t in times.astype(np.longdouble)])
    assert np.max(np.abs(table.amplitude(times) - direct)) < 1e-15


def test_narrow_resonance_routes_agree(quad):
    # once past the old phase-resolving node cap; out to about 10 lifetimes
    decay = ob.Decay(NARROW, quad)
    res = ob.find_resonance(decay)
    grid = ob.hybrid_time_grid(NARROW.omega_bare, res.gamma, 1.5e5, 320)
    sp = decay.amplitude_spectral(grid)
    pb = decay.amplitude_pole_background(res, grid)
    assert np.max(np.abs(sp.delta0 - pb.delta0)) < 1e-10


def test_node_sum_across_chunks():
    # 1.5M rates: every time is a chunk of its own
    rng = np.random.default_rng(7)
    s = rng.uniform(0.0, 40.0, 1_500_000)
    rates = (-math.sin(0.6) - 1j * math.cos(0.6)) * s
    values = rng.uniform(0.0, 1.0, s.size) + 1j * rng.uniform(-1.0, 1.0, s.size)
    values /= np.abs(values).sum()
    times = np.array([0.0, 0.01, 0.3, 1.0, 2.5, 7.0, 20.0])
    direct = np.array([np.sum(values * np.exp(rates * t)) for t in times])
    assert np.max(np.abs(node_sum(times, rates, values) - direct)) < 1e-12


def _extended_sum(times, rates, values):
    """The node sum one time at a time, in extended precision."""
    r, v = rates.astype(np.clongdouble), values.astype(np.clongdouble)
    return np.array([np.sum(v * np.exp(r * t)) for t in np.asarray(times, np.longdouble)])


def _rounding_bound(times, rates, values):
    # each term may be exp(r t') with t' a few ulps from t, and is rounded
    # a few times more; the bound scales with the term's own size
    rt = np.multiply.outer(np.asarray(times, dtype=float), rates)
    return 32 * np.finfo(float).eps * (np.exp(rt.real) * (1.0 + np.abs(rt))) @ np.abs(values)


def _assert_node_sum(times, rates, values):
    got = node_sum(times, rates, values)
    err = np.abs(got - _extended_sum(times, rates, values)).astype(float)
    assert got.shape == np.shape(times)
    assert np.all(err <= _rounding_bound(times, rates, values))


def _grid(name, t_max, gamma):
    rng = np.random.default_rng(11)
    if name == "linspace":
        return np.linspace(0.0, t_max, 320)
    if name == "hybrid":
        return ob.hybrid_time_grid(1.0, gamma, t_max, 320)
    if name == "irregular":
        return np.sort(rng.uniform(0.0, t_max, 200))
    if name == "nudged":  # off the lattice by 1e-9 relative, far above the ulps allowed
        t = np.linspace(0.1 * t_max, t_max, 100)
        t[57] *= 1.0 + 1e-9
        return t
    if name == "single":
        return np.array([0.7 * t_max])
    return rng.permutation(np.linspace(0.0, t_max, 64))  # unsorted


GRIDS = ["linspace", "hybrid", "irregular", "nudged", "single", "unsorted"]


@pytest.mark.parametrize("grid", GRIDS)
def test_node_sum_ray_table(m1_decay, m1_resonance, grid):
    # where h*t <= 1 on every panel, the ray table's panel sum is the Gauss
    # node sum of its own panels; the node weights come back from the moments
    # by the discrete Legendre transform W_j = w_j sum_k (2k+1)/2 m_k P_k(x_j)
    table = build_ray_table(m1_decay, m1_resonance.z0)
    x, w = np.polynomial.legendre.leggauss(table.moments.shape[1])
    orders = np.arange(x.size)
    weights = (((orders + 0.5) * table.moments) @ legvander(x, x.size - 1).T * w).ravel()
    rates = -1j * complex(math.cos(table.theta), -math.sin(table.theta)) * table.s_nodes
    times = _grid(grid, 1.0 / table.halfwidths.max(), m1_resonance.gamma)
    got = table.background(times)
    err = np.abs(got - _extended_sum(times, rates, weights)).astype(float)
    assert got.shape == np.shape(times)
    assert np.all(err <= _rounding_bound(times, rates, weights))


@pytest.mark.parametrize("grid", GRIDS)
def test_node_sum_oracle_rates(m1_resonance, uniform_bath_1000, grid):
    # imaginary rates -i E with |E t| up to about 1e4, as in the oracle
    energies, overlaps = uniform_bath_1000.eigensystem()
    t_max = 1e4 / energies.max()
    _assert_node_sum(_grid(grid, t_max, m1_resonance.gamma), -1j * energies, overlaps)


def test_node_sum_keeps_every_column_that_does_not_underflow():
    # subnormal terms add exactly, so dropping a column that is nonzero
    # anywhere in the block (Re(rate) t_min above -745.13) changes the sum
    rates = -np.arange(712.0, 760.0, 0.25) + 0j
    values = np.ones(rates.size)
    times = np.array([1.0004, 0.999, 1.001, 0.9995, 1.0])
    direct = np.array([np.exp(rates * t) @ values for t in times])
    assert np.all(direct > 0)
    assert np.array_equal(node_sum(times, rates, values), direct)


@settings(deadline=None, max_examples=60)
@given(start=st.floats(0.0, 1e3), step=st.floats(1e-3, 10.0), length=st.integers(1, 300))
def test_node_sum_equally_spaced_runs(start, step, length):
    rng = np.random.default_rng(5)
    rates = -rng.uniform(0.0, 1.0, 40) + 1j * rng.uniform(-40.0, 40.0, 40)
    values = rng.uniform(-1.0, 1.0, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    _assert_node_sum(start + np.arange(length) * step, rates, values)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("route", ["spectral", "pole_background"])
def test_nonfinite_times_refused(m1_decay, m1_resonance, route, bad):
    # a NaN or an infinite time would size the ray table from t_max = nan or
    # inf and return a wrong Delta0(0), or NaN rows from the spectral table
    times = [0.0, 1.0, bad]
    with pytest.raises(ValueError, match="finite"):
        if route == "spectral":
            m1_decay.amplitude_spectral(times)
        else:
            m1_decay.amplitude_pole_background(m1_resonance, times)


def test_ray_angle_not_below_pole(m1_decay, m1_resonance):
    # the angle is used as given; one that does not pass below the pole fails
    # with a message that names the admissible interval
    with pytest.raises(ob.PoleOnRay, match=r"\(0\.05043, pi/4\)"):
        m1_decay.amplitude_pole_background(m1_resonance, np.array([0.0, 1.0]), theta=0.02)


@pytest.mark.parametrize("theta", [-0.5, 0.0, math.pi / 4, 1.0, 2.0])
def test_ray_angle_out_of_range(m1_decay, m1_resonance, theta):
    # the Gaussian factor of g2 decays along the ray only below pi/4
    with pytest.raises(ValueError, match="pi/4"):
        build_ray_table(m1_decay, m1_resonance.z0, theta=theta)
