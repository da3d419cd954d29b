"""Reduced density matrix algebra and the rate-equation limits."""

import cmath
import math
import warnings

import numpy as np
import pytest

import oscbath as ob
from conftest import state_sampler
from oracles import equilibrium, pauli_residual


def test_identity_evolution_returns_initial_state():
    state = ob.OscillatorState(c11=0.3, c10=0.2 + 0.1j)
    rho = ob.reduced_density(state, 1.0, t=0.0)
    assert rho.rho11 == pytest.approx(0.3, abs=1e-15)
    assert rho.rho00 == pytest.approx(0.7, abs=1e-15)
    assert rho.rho10 == pytest.approx(0.2 + 0.1j, abs=1e-15)


def test_full_decay_reaches_vacuum():
    state = ob.OscillatorState(c11=1.0, c10=0.0)
    rho = ob.reduced_density(state, 0.0, t=np.inf)
    assert rho.rho11 == 0.0
    assert rho.rho00 == 1.0
    assert rho.rho10 == 0.0


def test_trace_and_positivity_mixed_state(m1_decay, m1_resonance):
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    t = 2.0 / m1_resonance.gamma
    series = m1_decay.amplitude_pole_background(m1_resonance, np.array([0.0, t]))
    rho = ob.reduced_density(state, series.delta0[1], t)
    assert rho.trace == pytest.approx(1.0, abs=1e-15)
    assert rho.positivity_determinant >= 0.0
    # eigenvalue route confirms the determinant condition
    mat = np.array([[rho.rho00, rho.rho01], [rho.rho10, rho.rho11]])
    assert np.linalg.eigvalsh(mat).min() >= -1e-12


def test_random_states_trace_and_positivity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        state = state_sampler(rng)
        amp = rng.uniform(0.0, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        rho = ob.reduced_density(state, amp)
        assert abs(rho.trace - 1.0) < 1e-12
        assert rho.positivity_determinant >= -1e-12


def test_amplitude_out_of_range():
    # a NaN amplitude, and one whose modulus overflows, fail the bound too
    state = ob.OscillatorState(c11=0.5, c10=0.0)
    for amp in (1.0 + 1e-6, complex(math.nan, 0.0), complex(1.7e308, 1.7e308)):
        with pytest.raises(ob.AmplitudeOutOfRange):
            ob.reduced_density(state, amp)


def test_grid_matches_pointwise(m1_decay, m1_resonance):
    # one call over a grid gives the values of one call per time: the
    # populations bitwise, |Delta0| rounded as abs(complex), the coherences
    # to within numpy's complex rounding
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=0.6, c10=0.3 + 0.2j)
    grid = np.linspace(0.0, 20.0 / gamma, 320)
    amps = m1_decay.amplitude_pole_background(m1_resonance, grid).delta0
    exact = ob.reduced_density(state, amps, grid)
    lind = ob.lindblad_solution(state, m1_resonance.omega0, gamma, grid)
    for i, (t, d) in enumerate(zip(grid, amps)):
        P = min(abs(complex(d)) ** 2, 1.0)
        assert exact.rho11[i] == state.c11 * P
        assert exact.rho00[i] == state.c00 + state.c11 * (1.0 - P)
        for rho, one in ((exact, ob.reduced_density(state, d, t)),
                         (lind, ob.lindblad_solution(state, m1_resonance.omega0, gamma, t))):
            assert rho.rho11[i] == one.rho11
            assert rho.rho00[i] == one.rho00
            assert abs(rho.rho10[i] - one.rho10) <= 1.1e-16
            assert rho.positivity_determinant[i] == pytest.approx(one.positivity_determinant,
                                                                  abs=1e-15)


def test_amplitude_out_of_range_on_a_grid():
    # the first offending modulus is named; a NaN anywhere fails; an
    # overflowing modulus fails without a RuntimeWarning
    state = ob.OscillatorState(c11=0.5, c10=0.1)
    with pytest.raises(ob.AmplitudeOutOfRange, match=r"\|Delta0\| = 1\.5 exceeds"):
        ob.reduced_density(state, np.array([0.5, 1.5, 0.2, 2.0]))
    with pytest.raises(ob.AmplitudeOutOfRange, match="nan"):
        ob.reduced_density(state, np.array([0.5, math.nan, 0.5]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ob.AmplitudeOutOfRange, match="inf"):
            ob.reduced_density(state, np.array([0.5, complex(1.7e308, 1.7e308)]))


def test_state_validation():
    with pytest.raises(ValueError):
        ob.OscillatorState(c11=1.2)
    with pytest.raises(ValueError):
        ob.OscillatorState(c11=0.1, c10=0.9)  # c11*c00 < |c10|^2
    for c10 in (complex(math.nan, 0.0), complex(0.0, math.nan), math.nan):
        with pytest.raises(ValueError):
            ob.OscillatorState(c11=0.5, c10=c10)
    # the positivity boundary itself passes within its slack
    ob.OscillatorState(c11=0.3, c10=math.sqrt(0.3 * 0.7))


@pytest.mark.parametrize("gamma, t", [
    (math.nan, 1.0), (0.0, 1.0), (-0.1, 1.0),
    (0.05, -1.0), (0.05, math.nan), (0.05, [0.0, math.nan, 1.0]), (0.05, [0.0, -1.0, 1.0])])
def test_lindblad_rejects_nan_and_negative_inputs(gamma, t):
    with pytest.raises(ValueError):
        ob.lindblad_solution(ob.OscillatorState(c11=0.5), 1.0, gamma, t)


def test_lindblad_initial_state():
    state = ob.OscillatorState(c11=0.4, c10=0.1 - 0.2j)
    rho = ob.lindblad_solution(state, 1.0, 0.05, 0.0)
    assert rho.rho11 == pytest.approx(0.4, abs=1e-15)
    assert rho.rho10 == pytest.approx(0.1 - 0.2j, abs=1e-15)


def test_lindblad_population_decay():
    state = ob.OscillatorState(c11=1.0)
    gamma = 0.05
    rho = ob.lindblad_solution(state, 1.0, gamma, 1.0 / gamma)
    assert rho.rho11 == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert rho.rho00 == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)


def test_lindblad_matches_normalized_pole_term(m1_resonance):
    # dropping the background and the residue normalization turns the exact
    # solution into the damped closed form, elementwise
    z0 = m1_resonance.z0
    state = ob.OscillatorState(c11=0.6, c10=0.3 + 0.2j)
    for t in (0.0, 3.7, 25.0, 120.0):
        amp = cmath.exp(-1j * z0 * t)
        exact = ob.reduced_density(state, amp, t)
        lind = ob.lindblad_solution(state, m1_resonance.omega0, m1_resonance.gamma, t)
        assert exact.rho11 == pytest.approx(lind.rho11, abs=1e-12)
        assert exact.rho00 == pytest.approx(lind.rho00, abs=1e-12)
        assert exact.rho10 == pytest.approx(lind.rho10, abs=1e-12)


def test_lindblad_close_to_exact(m1_decay, m1_resonance):
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    gamma = m1_resonance.gamma
    grid = np.linspace(0.0, 20.0 / gamma, 800)
    pb = m1_decay.amplitude_pole_background(m1_resonance, grid)
    sup = 0.0
    for t, d in zip(grid, pb.delta0):
        exact = ob.reduced_density(state, d, t)
        lind = ob.lindblad_solution(state, m1_resonance.omega0, gamma, t)
        sup = max(sup, abs(exact.rho11 - lind.rho11), abs(exact.rho00 - lind.rho00),
                  abs(exact.rho10 - lind.rho10))
    assert sup <= 0.05


def test_pauli_residual_lindblad(m1_resonance):
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=0.8, c10=0.2)
    h = 1e-3 / gamma
    times = np.arange(0.0, 2.0 / gamma, h)
    traj = ob.lindblad_solution(state, m1_resonance.omega0, gamma, times)
    assert pauli_residual(traj, gamma) < 1e-8


def test_pauli_residual_fourth_order_scaling(m1_resonance):
    # with steps large enough to dominate rounding, halving h divides the
    # defect by ~16
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    res = {}
    for h in (0.1 / gamma, 0.05 / gamma):
        times = np.arange(0.0, 3.0 / gamma, h)
        traj = ob.lindblad_solution(state, m1_resonance.omega0, gamma, times)
        res[h] = pauli_residual(traj, gamma)
    ratio = res[0.1 / gamma] / res[0.05 / gamma]
    assert 8.0 < ratio < 32.0


def test_pauli_residual_vacuum_stationary(m1_resonance):
    gamma = m1_resonance.gamma
    traj = ob.DensityMatrix2(rho11=np.zeros(50), rho00=np.ones(50), rho10=np.zeros(50, complex),
                             t=np.linspace(0.0, 10.0, 50))
    assert pauli_residual(traj, gamma) == 0.0


def test_pauli_residual_exact_trajectory_reported(m1_decay, m1_resonance):
    # the exact evolution with background is not a rate equation; its defect
    # is finite and small but has no asserted scale
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    h = 1e-2 / gamma
    times = np.arange(0.0, 1.0 / gamma, h)
    pb = m1_decay.amplitude_pole_background(m1_resonance, times)
    traj = ob.reduced_density(state, pb.delta0, times)
    residual = pauli_residual(traj, gamma)
    assert np.isfinite(residual)
    assert residual < 1.0


def test_pauli_grid_validation(m1_resonance):
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    with pytest.raises(ob.GridTooCoarse):
        pauli_residual(ob.lindblad_solution(state, 1.0, gamma, [0.0, 1.0, 2.0]), gamma)
    uneven = ob.lindblad_solution(state, 1.0, gamma, [0.0, 1.0, 2.0, 4.0, 8.0, 9.0])
    with pytest.raises(ob.GridTooCoarse):
        pauli_residual(uneven, gamma)


def test_equilibrium_cases():
    for c11, c10 in ((1.0, 0.0), (0.0, 0.0), (0.3, 0.2j)):
        rho = equilibrium(ob.OscillatorState(c11=c11, c10=c10))
        assert rho.rho00 == 1.0
        assert rho.rho11 == 0.0
        assert rho.rho10 == 0.0


def test_equilibrium_approach_and_monotonicity(m1_decay, m1_resonance):
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    grid = np.linspace(0.0, 20.0 / gamma, 600)
    pb = m1_decay.amplitude_pole_background(m1_resonance, grid)
    rho00 = ob.reduced_density(state, pb.delta0, grid).rho00
    assert rho00[-1] > 0.999
    # monotone growth inside the exponential window, where the background
    # is subdominant
    t_zeno, _ = ob.crossover_times(m1_resonance,
                                   m1_decay.amplitude_pole_background(
                                       m1_resonance,
                                       ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320)))
    window = (grid >= t_zeno) & (grid <= 10.0 / gamma)
    assert np.all(np.diff(rho00[window]) > -1e-12)
