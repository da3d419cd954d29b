"""Finite-bath discretization, exact evolution, and recurrence behavior."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import oscbath as ob
from oracles import (NotNormalized, dense_arrow, dense_eigensystem, energy_drift,
                     quadratic_secular_roots, spectral_moment)
from oscbath import oracle
from oscbath.oracle import arrow_eigensystem


def test_discretize_two_modes_uniform(m1):
    bath = ob.discretize(m1, 2, 31.0, ob.Scheme.UNIFORM)
    step = 31.0 / 2
    freqs = np.array([0.5, 1.5]) * step
    assert np.allclose(bath.frequencies, freqs)
    g = 0.1 * np.sqrt(freqs * np.exp(-((freqs / 5.0) ** 2)) * step)
    assert np.allclose(bath.couplings, g)
    h = np.array([[1.0, g[0], g[1]],
                  [g[0], freqs[0], 0.0],
                  [g[1], 0.0, freqs[1]]])
    vals, vecs = dense_eigensystem(bath)
    assert np.allclose(vals, np.linalg.eigvalsh(h))
    assert np.allclose(vecs @ np.diag(vals) @ vecs.T, h)


def test_discretize_validation(m1):
    with pytest.raises(ob.InvalidDiscretization):
        ob.discretize(m1, 1, 40.0)
    with pytest.raises(ob.InvalidDiscretization):
        ob.discretize(m1, 100, 20.0)  # below 6*cutoff


def test_coupling_sum_converges(m1):
    bath = ob.discretize(m1, 4000, 40.0, ob.Scheme.GAUSS)
    target = 0.01 * spectral_moment(m1, 0)
    assert np.sum(bath.couplings**2) == pytest.approx(target, rel=1e-4)
    assert target == pytest.approx(0.125, rel=1e-12)


def test_decoupled_bath_is_diagonal():
    m = ob.build_model(1.0, 0.0, 1.0, 5.0, 1.0)
    bath = ob.discretize(m, 64, 40.0, ob.Scheme.GAUSS)
    assert np.all(bath.couplings == 0.0)
    vals, overlaps = bath.eigensystem()
    assert np.array_equal(vals, np.sort(np.concatenate([[1.0], bath.frequencies])))
    # every eigenvector is a single site: the oscillator weight is all on omega_bare
    one_hot = np.zeros(65)
    one_hot[np.searchsorted(vals, 1.0)] = 1.0
    assert np.array_equal(overlaps, one_hot)


def test_oracle_amplitude_starts_at_one(uniform_bath_1000):
    series = ob.oracle_amplitude(uniform_bath_1000, np.array([0.0]))
    assert abs(series.delta0[0] - 1.0) < 1e-12


def test_discrete_sum_rule(uniform_bath_1000):
    _, vecs = dense_eigensystem(uniform_bath_1000)
    assert np.sum(vecs[0, :] ** 2) == pytest.approx(1.0, abs=1e-12)


def test_oracle_tracks_continuum(m1_decay, uniform_bath_1000):
    t_rec = ob.recurrence_time(uniform_bath_1000)
    grid = np.linspace(0.0, 0.2 * t_rec, 160)
    disc = ob.oracle_amplitude(uniform_bath_1000, grid)
    cont = m1_decay.amplitude_spectral(grid)
    dev = np.abs(np.abs(disc.delta0) ** 2 - np.abs(cont.delta0) ** 2)
    assert dev.max() < 1e-3


def test_recurrence_spike(m1, m1_decay, m1_resonance):
    # a small bath returns its energy: the discrete amplitude revives far
    # above the decayed continuum value near multiples of the recurrence time
    bath = ob.discretize(m1, 50, 30.0, ob.Scheme.UNIFORM)
    t_rec = ob.recurrence_time(bath)
    grid = np.linspace(0.5 * t_rec, 14.0 * t_rec, 4000)
    disc = ob.oracle_amplitude(bath, grid)
    cont = m1_decay.amplitude_pole_background(m1_resonance, grid)
    ratio = np.abs(disc.delta0) / np.maximum(np.abs(cont.delta0), 1e-300)
    assert ratio.max() > 10.0


@pytest.mark.parametrize("N", [500, 1000])
def test_gauss_oracle_tracks_continuum(m1, m1_decay, N):
    # the Gauss window comes from the mode spacing at omega_bare, not at the
    # crowded ends of the range
    bath = ob.discretize(m1, N, 40.0, ob.Scheme.GAUSS)
    grid = np.linspace(0.0, 0.2 * ob.recurrence_time(bath), 160)
    disc = ob.oracle_amplitude(bath, grid)
    cont = m1_decay.amplitude_spectral(grid)
    assert np.max(np.abs(np.abs(disc.delta0) ** 2 - np.abs(cont.delta0) ** 2)) < 1e-10


@pytest.mark.parametrize("N", [500, 1000, 2000, 4000])
def test_gauss_oracle_tracks_continuum_to_rounding(m1, m1_decay, N):
    # accurate weights put the Gauss bath at the reference model on the
    # continuum to rounding: 1.7e-15 to 3.0e-15 here, 2.4e-14 to 1.0e-13
    # with the companion-matrix weights
    bath = ob.discretize(m1, N, 40.0, ob.Scheme.GAUSS)
    grid = np.linspace(0.0, 0.2 * ob.recurrence_time(bath), 160)
    disc = ob.oracle_amplitude(bath, grid)
    cont = m1_decay.amplitude_spectral(grid)
    assert np.max(np.abs(np.abs(disc.delta0) ** 2 - np.abs(cont.delta0) ** 2)) <= 5e-15


@pytest.mark.parametrize("N", [2, 3, 5, 24, 150, 501, 2000])
def test_gauss_legendre_matches_leggauss(N):
    x, w = oracle._gauss_legendre(N)
    x_ref, _ = np.polynomial.legendre.leggauss(N)
    assert np.max(np.abs(x - x_ref)) <= 2.2e-16
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    if N % 2:
        assert x[N // 2] == 0.0
    assert abs(w.sum() - 2.0) <= 4 * np.spacing(2.0)
    assert not (x.flags.writeable or w.flags.writeable)


def test_gauss_legendre_exact_on_even_powers():
    x, w = oracle._gauss_legendre(40)
    for k in range(40):
        assert np.dot(w, x ** (2 * k)) == pytest.approx(2.0 / (2 * k + 1), rel=1e-14)


def test_gauss_legendre_weights_match_mpmath():
    # each root is bracketed: Newton from the node at index 0 finds another
    # root; leggauss errs by 6.8e-10 at index 0 and 4.7e-14 in the middle
    n = 500
    x, w = oracle._gauss_legendre(n)
    with mp.workdps(40):
        for i in (0, 1, 10, 125, 249):
            node = mp.mpf(float(x[i]))
            r = mp.findroot(lambda s: mp.legendre(n, s), (node - mp.mpf("1e-13"),
                                                           node + mp.mpf("1e-13")),
                            solver="anderson")
            dp = n * (r * mp.legendre(n, r) - mp.legendre(n - 1, r)) / (r * r - 1)
            error = float(abs(w[i] * (1 - r * r) * dp * dp / 2 - 1))
            assert error <= (1e-15 if i >= 125 else 1e-10)


def test_gauss_discretize_memory_is_linear(m1):
    # a companion-matrix eigensolve at N = 4000 would take 122 MB
    oracle._gauss_legendre.cache_clear()
    tracemalloc.start()
    try:
        ob.discretize(m1, 4000, 40.0, ob.Scheme.GAUSS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_recurrence_time_uniform_spacing(m1):
    bath = ob.discretize(m1, 100, 40.0, ob.Scheme.UNIFORM)
    assert ob.recurrence_time(bath) == pytest.approx(2.0 * math.pi / 0.4, rel=1e-12)


def test_recurrence_estimate_grows_with_refinement(m1):
    t2 = ob.recurrence_time(ob.discretize(m1, 2000, 40.0, ob.Scheme.UNIFORM))
    t4 = ob.recurrence_time(ob.discretize(m1, 4000, 40.0, ob.Scheme.UNIFORM))
    assert t4 == pytest.approx(2.0 * t2, rel=1e-9)


def test_recurrence_minimal_bath(m1):
    bath = ob.discretize(m1, 2, 31.0, ob.Scheme.UNIFORM)
    assert math.isfinite(ob.recurrence_time(bath))


def test_energy_drift_excited_oscillator(m1):
    bath = ob.discretize(m1, 500, 40.0, ob.Scheme.GAUSS)
    c0 = np.zeros(501)
    c0[0] = 1.0
    drift = energy_drift(bath, c0, np.linspace(0.0, 200.0, 50))
    assert drift < 1e-10


def test_energy_drift_stationary_state(m1):
    bath = ob.discretize(m1, 200, 40.0, ob.Scheme.GAUSS)
    _, vecs = dense_eigensystem(bath)
    drift = energy_drift(bath, vecs[:, 60], np.linspace(0.0, 100.0, 20))
    assert drift < 1e-12


def test_energy_drift_rejects_unnormalized(m1):
    bath = ob.discretize(m1, 10, 40.0, ob.Scheme.GAUSS)
    bad = np.full(11, 0.5)
    with pytest.raises(NotNormalized):
        energy_drift(bath, bad, np.array([0.0, 1.0]))


def test_discrete_positivity(m1, uniform_bath_1000):
    vals, _ = uniform_bath_1000.eigensystem()
    assert np.all(vals > 0)


def _inadmissible_arrow():
    # an oscillator frequency below the coupling-induced shift cannot be
    # built as a model, so assemble the same arrow matrix by hand
    N = 400
    omega_max = 40.0
    step = omega_max / N
    freqs = (np.arange(N) + 0.5) * step
    lam = 0.5
    g2 = freqs * np.exp(-((freqs / 5.0) ** 2))
    couplings = lam * np.sqrt(g2 * step)
    return 0.01, freqs, couplings  # margin would be 0.01 - 0.25*sqrt(pi)*5/2 < 0


def test_discrete_positivity_fails_for_inadmissible_couplings():
    corner, freqs, couplings = _inadmissible_arrow()
    N = freqs.size
    h = np.zeros((N + 1, N + 1))
    h[0, 0] = corner
    h[np.arange(1, N + 1), np.arange(1, N + 1)] = freqs
    h[0, 1:] = couplings
    h[1:, 0] = couplings
    vals = np.linalg.eigvalsh(h)
    assert vals.min() < 0
    energies, _ = arrow_eigensystem(corner, freqs, couplings)
    assert np.max(np.abs(energies - vals)) <= 1e-13 * freqs.max()
    assert energies.min() < 0


def _assert_matches_dense(energies, overlaps, corner, diagonal, border, window=None):
    vals, vecs = dense_arrow(corner, diagonal, border)
    assert np.max(np.abs(energies - vals)) <= 1e-13 * np.max(np.abs(diagonal))
    assert np.max(np.abs(overlaps - vecs[0] ** 2)) <= 1e-12
    assert abs(overlaps.sum() - 1.0) <= 1e-13
    if window is not None:
        t = np.linspace(0.0, window, 320)
        amp = np.exp(-1j * np.outer(t, energies)) @ overlaps
        ref = np.exp(-1j * np.outer(t, vals)) @ vecs[0] ** 2
        assert np.max(np.abs(amp - ref)) <= 1e-12


@pytest.mark.parametrize("scheme", [ob.Scheme.UNIFORM, ob.Scheme.GAUSS])
@pytest.mark.parametrize("N", [500, 1000, 2000])
def test_secular_solver_matches_dense(m1, scheme, N):
    # the Gauss tail couplings fall to about 5e-17 and deflate
    bath = ob.discretize(m1, N, 40.0, scheme)
    energies, overlaps = bath.eigensystem()
    _assert_matches_dense(energies, overlaps, 1.0, bath.frequencies, bath.couplings,
                          window=0.2 * ob.recurrence_time(bath))


def test_secular_solver_two_modes(m1):
    bath = ob.discretize(m1, 2, 31.0, ob.Scheme.UNIFORM)
    _assert_matches_dense(*bath.eigensystem(), 1.0, bath.frequencies, bath.couplings)


def test_secular_solver_omega_on_a_mode(m1):
    bath = ob.discretize(m1, 20, 40.0, ob.Scheme.UNIFORM)
    assert bath.frequencies[0] == m1.omega_bare
    _assert_matches_dense(*bath.eigensystem(), 1.0, bath.frequencies, bath.couplings)


def test_secular_solver_bound_state():
    corner, freqs, couplings = _inadmissible_arrow()
    energies, overlaps = arrow_eigensystem(corner, freqs, couplings)
    assert energies[0] < 0.0 < freqs[0]
    _assert_matches_dense(energies, overlaps, corner, freqs, couplings)


def test_secular_solver_coincident_modes():
    # repeated and unsorted frequencies: one of each equal pair is an
    # eigenpair with no oscillator weight
    freqs = np.array([3.0, 1.0, 2.0, 2.0, 0.5, 1.0, 2.0])
    couplings = np.array([0.1, 0.2, 0.05, 0.3, 0.1, 0.15, 0.2])
    energies, overlaps = arrow_eigensystem(1.5, freqs, couplings)
    _assert_matches_dense(energies, overlaps, 1.5, freqs, couplings)
    assert np.count_nonzero(overlaps) == 5


def test_secular_solver_rejects_nan(m1):
    bath = ob.discretize(m1, 50, 40.0, ob.Scheme.UNIFORM)
    couplings = bath.couplings.copy()
    couplings[7] = np.nan
    with pytest.raises(ob.EigensolveFailure):
        ob.DiscreteBath(m1, bath.frequencies, couplings).eigensystem()


def test_secular_solver_memory_is_linear(m1):
    # a dense (N+1)^2 matrix would take 122 MB
    bath = ob.discretize(m1, 4000, 40.0, ob.Scheme.UNIFORM)
    tracemalloc.start()
    try:
        bath.eigensystem()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def _mp_arrow(corner, diagonal, border):
    # 40-digit eigendecomposition: energies and squared corner components
    n = diagonal.size
    with mp.workdps(40):
        h = mp.matrix(n + 1, n + 1)
        h[0, 0] = corner
        for j in range(n):
            h[j + 1, j + 1] = diagonal[j]
            h[0, j + 1] = h[j + 1, 0] = border[j]
        vals, vecs = mp.eigsy(h)
        energies = np.array([float(v) for v in vals])
        overlaps = np.array([float(vecs[0, k] ** 2) for k in range(n + 1)])
    order = np.argsort(energies)
    return energies[order], overlaps[order]


@pytest.mark.parametrize("seed", range(40))
def test_secular_solver_matches_mpmath(seed):
    # small arrows with repeated modes, couplings from 1e-20 to 3 and the
    # corner often on a mode; eigenvalues closer than 1e-12 of the scale
    # form one cluster, whose overlaps are compared as a sum
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    freqs = rng.choice(np.arange(6.0), n) + rng.uniform(0.0, 1.0) * (rng.random() < 0.5)
    couplings = rng.normal(size=n) * 10.0 ** rng.uniform(-20.0, 0.5, n)
    corner = float(rng.choice(np.r_[freqs, rng.uniform(-3.0, 8.0)]))
    energies, overlaps = arrow_eigensystem(corner, freqs, couplings)
    ref_e, ref_o = _mp_arrow(corner, freqs, couplings)
    scale = max(abs(corner), np.abs(freqs).max(), np.linalg.norm(couplings))
    assert np.max(np.abs(energies - ref_e)) <= 1e-14 * scale
    starts = np.r_[0, np.flatnonzero(np.diff(ref_e) > 1e-12 * scale) + 1]
    assert np.max(np.abs(np.add.reduceat(overlaps, starts)
                         - np.add.reduceat(ref_o, starts))) <= 1e-13
    assert abs(overlaps.sum() - 1.0) <= 1e-13


def _assert_matches_reference(corner, diagonal, border):
    # the tolerances of _assert_matches_dense, against the solver that sums
    # every pole for every root
    energies, overlaps = arrow_eigensystem(corner, diagonal, border)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_secular_roots", quadratic_secular_roots)
        ref_e, ref_o = arrow_eigensystem(corner, diagonal, border)
    assert np.max(np.abs(energies - ref_e)) <= 1e-13 * np.max(np.abs(diagonal))
    assert np.max(np.abs(overlaps - ref_o)) <= 1e-12
    assert abs(overlaps.sum() - 1.0) <= 1e-13


_REFERENCE = ob.build_model(1.0, 0.1, 1.0, 5.0)
_FRACTIONAL = ob.build_model(1.0, 0.2, 0.36, 5.0)
# lambda at 0.99 of the positivity limit sqrt(omega / (cutoff * Gamma(1/2) / 2))
_NEAR_LIMIT = ob.build_model(1.0, 0.99 / math.sqrt(2.5 * math.sqrt(math.pi)), 1.0, 5.0)


@pytest.mark.parametrize("model, N, scheme", [
    (_REFERENCE, 4000, ob.Scheme.UNIFORM),
    (_REFERENCE, 2000, ob.Scheme.GAUSS),
    (_REFERENCE, 4000, ob.Scheme.GAUSS),
    (_FRACTIONAL, 4000, ob.Scheme.UNIFORM),
    (_FRACTIONAL, 2000, ob.Scheme.GAUSS),
    (_NEAR_LIMIT, 4000, ob.Scheme.UNIFORM),
    (_NEAR_LIMIT, 4000, ob.Scheme.GAUSS),
])
def test_far_tables_match_full_sums(model, N, scheme):
    # largest differences measured: energies 2.2e-17 of the scale, overlaps
    # 1.9e-16 at the first two models and 7.1e-15 at 0.99 of the limit
    bath = ob.discretize(model, N, 40.0, scheme)
    _assert_matches_reference(model.omega_bare, bath.frequencies, bath.couplings)


@pytest.mark.parametrize("seed", range(6))
def test_far_tables_match_full_sums_on_clustered_modes(seed):
    # sorted beta-distributed modes crowd at one or both ends, so the spacing
    # varies by orders of magnitude and a block's near poles must be chosen
    # by distance: near sets of a fixed index width fail to converge here.
    # Largest differences measured: energies 1.4e-18 of the scale, overlaps
    # 2.2e-16
    rng = np.random.default_rng(seed)
    m = int(rng.integers(300, 1501))
    freqs = 10.0 * np.sort(rng.beta(*rng.uniform(0.1, 0.6, 2), m))
    couplings = rng.uniform(0.2, 1.0, m) * math.sqrt(0.2 / m)
    _assert_matches_reference(float(rng.uniform(0.0, 10.0)), freqs, couplings)


@pytest.mark.parametrize("q", [-oracle._SEPARATION, 1.0 + oracle._SEPARATION])
def test_far_table_interpolation_at_the_separation(q):
    # a pole at the closest distance a far pole may have, on either side of a
    # block of width 0.01: the truncation bound of the table is 1.1e-16 of
    # the largest value, the rest is rounding
    width = 0.01
    u = 0.5 * width * (1.0 + oracle._NODES)
    table = oracle._far_table(np.array([q * width]), np.array([1.0]), u)
    points = np.linspace(0.0, width, 20001)
    got = oracle._interpolate(table, points * (2.0 / width) - 1.0)
    exact = 1.0 / (q * width - points)
    assert np.max(np.abs(got[:, 0] - exact)) <= 3e-15 * np.max(np.abs(exact))
    assert np.max(np.abs(got[:, 1] - exact**2)) <= 3e-15 * np.max(exact**2)
    # a point on a node reads that node's row, with no division by zero
    assert np.array_equal(oracle._interpolate(table, oracle._NODES[[0, 7, -1]]),
                          table[[0, 7, -1]])

