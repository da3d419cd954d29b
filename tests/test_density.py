"""Reduced density matrix algebra and the rate-equation limits."""

import cmath
import math

import numpy as np
import pytest

import oscbath as ob
from conftest import state_sampler


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


def test_trace_and_positivity_mixed_state(m1, m1_resonance, quad):
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    t = 2.0 / m1_resonance.gamma
    series = ob.amplitude_pole_background(m1, m1_resonance, np.array([0.0, t]), quad)
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


def test_state_validation():
    with pytest.raises(ValueError):
        ob.OscillatorState(c11=1.2)
    with pytest.raises(ValueError):
        ob.OscillatorState(c11=0.1, c10=0.9)  # c11*c00 < |c10|^2


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


def test_lindblad_close_to_exact(m1, m1_resonance, quad):
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    gamma = m1_resonance.gamma
    grid = np.linspace(0.0, 20.0 / gamma, 800)
    pb = ob.amplitude_pole_background(m1, m1_resonance, grid, quad)
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
    traj = ob.lindblad_trajectory(state, m1_resonance.omega0, gamma, times)
    assert ob.pauli_residual(traj, gamma) < 1e-8


def test_pauli_residual_fourth_order_scaling(m1_resonance):
    # with steps large enough to dominate rounding, halving h divides the
    # defect by ~16
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    res = {}
    for h in (0.1 / gamma, 0.05 / gamma):
        times = np.arange(0.0, 3.0 / gamma, h)
        traj = ob.lindblad_trajectory(state, m1_resonance.omega0, gamma, times)
        res[h] = ob.pauli_residual(traj, gamma)
    ratio = res[0.1 / gamma] / res[0.05 / gamma]
    assert 8.0 < ratio < 32.0


def test_pauli_residual_vacuum_stationary(m1_resonance):
    gamma = m1_resonance.gamma
    traj = [ob.DensityMatrix2(rho11=0.0, rho00=1.0, rho10=0.0, t=t)
            for t in np.linspace(0.0, 10.0, 50)]
    assert ob.pauli_residual(traj, gamma) == 0.0


def test_pauli_residual_exact_trajectory_reported(m1, m1_resonance, quad):
    # the exact evolution with background is not a rate equation; its defect
    # is finite and small but has no asserted scale
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=0.5, c10=0.5)
    h = 1e-2 / gamma
    times = np.arange(0.0, 1.0 / gamma, h)
    pb = ob.amplitude_pole_background(m1, m1_resonance, times, quad)
    traj = [ob.reduced_density(state, d, t) for t, d in zip(times, pb.delta0)]
    residual = ob.pauli_residual(traj, gamma)
    assert np.isfinite(residual)
    assert residual < 1.0


def test_pauli_grid_validation(m1_resonance):
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    with pytest.raises(ob.GridTooCoarse):
        ob.pauli_residual(ob.lindblad_trajectory(state, 1.0, gamma, [0.0, 1.0, 2.0]), gamma)
    uneven = ob.lindblad_trajectory(state, 1.0, gamma, [0.0, 1.0, 2.0, 4.0, 8.0, 9.0])
    with pytest.raises(ob.GridTooCoarse):
        ob.pauli_residual(uneven, gamma)


def test_equilibrium_cases():
    for c11, c10 in ((1.0, 0.0), (0.0, 0.0), (0.3, 0.2j)):
        rho = ob.equilibrium(ob.OscillatorState(c11=c11, c10=c10))
        assert rho.rho00 == 1.0
        assert rho.rho11 == 0.0
        assert rho.rho10 == 0.0


def test_equilibrium_approach_and_monotonicity(m1, m1_resonance, quad):
    gamma = m1_resonance.gamma
    state = ob.OscillatorState(c11=1.0)
    grid = np.linspace(0.0, 20.0 / gamma, 600)
    pb = ob.amplitude_pole_background(m1, m1_resonance, grid, quad)
    rho00 = np.array([ob.reduced_density(state, d, t).rho00
                      for t, d in zip(grid, pb.delta0)])
    assert rho00[-1] > 0.999
    # monotone growth inside the exponential window, where the background
    # is subdominant
    t_zeno, _ = ob.crossover_times(m1_resonance,
                                   ob.amplitude_pole_background(
                                       m1, m1_resonance,
                                       ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320),
                                       quad))
    window = (grid >= t_zeno) & (grid <= 10.0 / gamma)
    assert np.all(np.diff(rho00[window]) > -1e-12)
