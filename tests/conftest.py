"""Shared fixtures: the reference model and its expensive derived objects.

Everything heavy (resonance solve, amplitude tables, discrete baths) is
session-scoped so module tests and the acceptance suite share one build.
"""

import numpy as np
import pytest

import oscbath as ob

# reference parameter set used throughout: Omega=1, lam=0.1, n=1, cutoff=5, c=1
M1 = dict(omega_bare=1.0, lam=0.1, exponent=1.0, cutoff=5.0, prefactor=1.0)


@pytest.fixture(scope="session")
def quad():
    return ob.QuadConfig()


@pytest.fixture(scope="session")
def m1():
    return ob.build_model(M1["omega_bare"], M1["lam"], M1["exponent"],
                          M1["cutoff"], M1["prefactor"])


@pytest.fixture(scope="session")
def m1_decay(m1, quad):
    return ob.Decay(m1, quad)


@pytest.fixture(scope="session")
def m1_resonance(m1_decay):
    return ob.find_resonance(m1_decay, tol=1e-12)


@pytest.fixture(scope="session")
def m1_grid(m1_resonance):
    gamma = m1_resonance.gamma
    return ob.hybrid_time_grid(1.0, gamma, 10.0 / gamma, 200)


@pytest.fixture(scope="session")
def m1_spectral(m1_decay, m1_grid):
    return m1_decay.amplitude_spectral(m1_grid)


@pytest.fixture(scope="session")
def m1_pb(m1_decay, m1_resonance, m1_grid):
    return m1_decay.amplitude_pole_background(m1_resonance, m1_grid)


@pytest.fixture(scope="session")
def m1_pb_long(m1_decay, m1_resonance):
    gamma = m1_resonance.gamma
    grid = ob.hybrid_time_grid(1.0, gamma, 200.0 / gamma, 320)
    return m1_decay.amplitude_pole_background(m1_resonance, grid)


@pytest.fixture(scope="session")
def uniform_bath_1000(m1):
    return ob.discretize(m1, 1000, 40.0, ob.Scheme.UNIFORM)


def state_sampler(rng):
    """Random valid initial oscillator state."""
    c11 = rng.uniform(0.0, 1.0)
    r = np.sqrt(c11 * (1.0 - c11)) * rng.uniform(0.0, 1.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return ob.OscillatorState(c11=c11, c10=r * np.exp(1j * phase))
