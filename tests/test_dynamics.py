import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import jv

from watched_decay import dynamics, resolvent
from watched_decay.discretize import (
    DiscreteModel,
    GridSpec,
    RecurrenceError,
    ToySpec,
    build_radial_vacuum,
    build_scalar_toy,
)
from watched_decay.dynamics import (
    TAIL_TOL,
    FitWindowError,
    IntegrationError,
    SolverSpec,
    Trajectory,
    _bessel_table,
    _kapteyn_order,
    _generator_product,
    _spectral_interval,
    compare_routes,
    fit_decay_rate,
    integrate,
)
from watched_decay.model import OMEGA0, PhysicalSystem


def tiny_model(omegas, alphas, channel_omegas=(), channel_mu=(),
               factors=None):
    omegas = np.asarray(omegas, dtype=float)
    alphas = np.asarray(alphas, dtype=complex)
    n_atoms = 1 if factors is not None else 0
    if factors is None:
        factors = np.zeros((omegas.size, 0), complex)
    else:
        factors = np.asarray(factors, complex).reshape(omegas.size, 1)
    return DiscreteModel(
        mode_omegas=omegas, mode_alphas=alphas, detector_factors=factors,
        channel_omegas=np.asarray(channel_omegas, dtype=float),
        channel_mu=np.asarray(channel_mu, dtype=float),
        t_rec=math.inf, meta={"gamma": 0.0}, omega_a=1.0)


def random_model(rng, n_modes=7, n_channels=3):
    return tiny_model(
        omegas=rng.uniform(0.5, 1.5, n_modes),
        alphas=rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes),
        channel_omegas=rng.uniform(0.4, 1.4, n_channels),
        channel_mu=rng.uniform(0.1, 0.5, n_channels),
        factors=rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))


def random_state(rng, model):
    y = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    return y / np.linalg.norm(y)


# -- right-hand side -------------------------------------------------------

def test_free_evolution_preserves_amplitude():
    model = tiny_model([1.3], [0.0])
    traj = integrate(model, 50.0)
    np.testing.assert_allclose(np.abs(traj.a0), 1.0, atol=1e-9)


def test_vacuum_rabi_oscillation():
    alpha = 0.02
    model = tiny_model([1.0], [alpha])
    t = np.linspace(0.0, 200.0, 400)
    traj = integrate(model, 200.0, t_eval=t)
    np.testing.assert_allclose(traj.survival, np.cos(alpha * t) ** 2,
                               atol=1e-7)


def test_derivative_is_anti_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(25):
        model = random_model(rng)
        y = random_state(rng, model)
        dy = -1j * _generator_product(model)(y)
        assert abs(np.vdot(y, dy).real) < 1e-14


def test_compare_routes_has_no_size_cap():
    # The transform chunks itself, so the route check takes any model size.
    model = tiny_model(np.linspace(0.5, 1.5, 2001), np.full(2001, 1e-3))
    assert model.size == 2002
    comp = compare_routes(model, np.linspace(0.0, 20.0, 41))
    assert comp.max_abs_diff < 1e-6


# -- trajectories ----------------------------------------------------------

def test_trajectory_invariants():
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 1.0]),
                   a0=np.array([0.5 + 0j, 0.4 + 0j]),
                   survival=np.array([0.25, 0.16]),
                   norm_drift=np.zeros(2))
    with pytest.raises(ValueError):
        Trajectory(times=np.array([0.0, 0.0]),
                   a0=np.ones(2, complex), survival=np.ones(2),
                   norm_drift=np.zeros(2))


def test_integrate_serves_grids_that_start_late():
    # Only a grid that holds t = 0 must start fully excited; the
    # propagator serves any time in [0, t_max] on its own.
    model = build_scalar_toy(ToySpec())
    late = integrate(model, 10.0, t_eval=[5.0, 10.0])
    full = integrate(model, 10.0, t_eval=[0.0, 2.5, 5.0, 7.5, 10.0])
    bound = late.metadata["error_bound"] + full.metadata["error_bound"]
    assert np.max(np.abs(late.a0 - full.a0[2::2])) <= bound


def test_integrate_refuses_horizon_beyond_recurrence():
    model = build_scalar_toy(ToySpec())
    with pytest.raises(RecurrenceError):
        integrate(model, 2.0 * model.t_rec)


def test_integrate_refuses_horizon_the_gauss_grid_cannot_resolve():
    # The largest spacing near omega0 of 400 Gauss modes recurs at 783; the
    # smallest, where the panels meet at omega0, only at 43,676.
    model = build_radial_vacuum(
        PhysicalSystem(gamma=0.01, omega_i=0.3, beta=0.0), GridSpec())
    assert model.t_rec < 1000.0
    with pytest.raises(RecurrenceError):
        integrate(model, 1000.0)


def test_norm_drift_within_tolerance():
    solver = SolverSpec()
    model = build_scalar_toy(ToySpec())
    traj = integrate(model, 100.0, solver=solver)
    assert np.max(np.abs(traj.norm_drift)) <= 100.0 * solver.rtol


def test_integrate_refuses_times_outside_horizon():
    model = tiny_model([1.3], [0.01])
    with pytest.raises(ValueError, match="t_eval"):
        integrate(model, 10.0, t_eval=np.array([0.0, 5.0, 11.0]))
    # No series length exists for an infinite horizon.
    with pytest.raises(ValueError, match="t_max"):
        integrate(model, math.inf)


# -- Chebyshev propagator --------------------------------------------------

def test_bessel_table_matches_scipy():
    x = np.array([0.0, 1e-3, 1.0, 50.0, 460.0, 1e4])
    n = int(_kapteyn_order(x[-1], TAIL_TOL))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        table = _bessel_table(n, x)
    assert np.all(np.isfinite(table))
    ref = jv(np.arange(n + 1)[:, None], x)
    assert np.max(np.abs(table - ref)) <= 1e-13
    np.testing.assert_array_equal(table[:, 0], np.eye(n + 1)[0])
    # The series length leaves every later order below the tail tolerance.
    for xi in x:
        cut = int(_kapteyn_order(xi, TAIL_TOL))
        assert np.max(np.abs(jv(np.arange(cut, cut + 200), xi))) <= TAIL_TOL


def test_spectral_interval_holds_spectrum():
    # The interval holds the spectrum and is no wider than it needs to be;
    # test_route_monitors_bound_exact_error checks criterion 3's models.
    rng = np.random.default_rng(8)
    for _ in range(10):
        model = random_model(rng)
        y = np.eye(model.size, dtype=complex)
        H = np.column_stack([_generator_product(model)(v) for v in y])
        c, r = _spectral_interval(model)
        lam = np.linalg.eigvalsh(H)
        assert c - r <= lam[0] and lam[-1] <= c + r
        assert r <= (1.0 + 1e-3) * 0.5 * (lam[-1] - lam[0])


@pytest.mark.parametrize("model", [
    tiny_model([1.3], [0.0]),                            # no coupling
    tiny_model([0.8, 1.3], [0.0, 0.0], channel_omegas=[0.9],
               channel_mu=[0.2], factors=[0.0, 0.0]),    # no coupling
    tiny_model([1.0], [0.02]),                           # one mode
    tiny_model([1.0], [0.02], channel_omegas=[0.9],
               channel_mu=[0.2], factors=[0.3]),         # one mode
], ids=["free", "free-detector", "single-mode", "single-mode-detector"])
def test_degenerate_models_integrate_without_float_errors(model):
    # Weyl's bound is an exact end of the first three spectra, and the
    # inertia test's 1 / (lam - w) must not meet a zero on any of them.
    with np.errstate(all="raise"):
        traj = integrate(model, 50.0)
    H = np.column_stack([_generator_product(model)(v)
                         for v in np.eye(model.size, dtype=complex)])
    lam, vec = np.linalg.eigh(H)
    exact = (np.exp(-1j * np.outer(traj.times, lam + OMEGA0))
             @ np.abs(vec[0]) ** 2)
    assert np.max(np.abs(traj.a0 - exact)) <= traj.metadata["error_bound"]


def test_inertia_test_fails_where_channel_block_is_singular():
    # One mode and one channel at 0.5, with f = m = 0.5: at lam = -0.25,
    # above every detuning, E = 0.75 gives g = G = 1, so I - g G is exactly
    # zero, and E is an eigenvalue of the mode-channel block, which lies
    # below the top of the spectrum.  The point fails, and the singular
    # solve does not escape; lam = 0.3, above the spectrum, passes.
    model = DiscreteModel(
        mode_omegas=np.array([0.5]), mode_alphas=np.array([0.1 + 0j]),
        detector_factors=np.array([[0.5 + 0j]]),
        channel_omegas=np.array([0.5]), channel_mu=np.array([0.5]),
        t_rec=math.inf, meta={}, omega_a=0.6)
    H = np.column_stack([_generator_product(model)(v)
                         for v in np.eye(model.size, dtype=complex)])
    top = np.linalg.eigvalsh(H)[-1]
    assert -0.25 < top < 0.3
    assert dynamics._inertia_test(model, -0.25, 1.0) is False
    assert dynamics._inertia_test(model, 0.3, 1.0) is True


def test_undersized_interval_raises(monkeypatch):
    model = build_scalar_toy(ToySpec())
    c, r = _spectral_interval(model)
    monkeypatch.setattr(dynamics, "_spectral_interval",
                        lambda model: (c, 0.5 * r))
    with pytest.raises(IntegrationError, match="too small"):
        integrate(model, 100.0)


def test_integrate_memory_is_bounded():
    # The series runs over chunks of times: 20,000 samples of a 261-amplitude
    # model stay within a fixed budget beside the output arrays.
    model = build_scalar_toy(ToySpec())
    t_max = 0.9 * model.t_rec
    t = np.linspace(0.0, t_max, 20_000)
    tracemalloc.start()
    try:
        traj = integrate(model, t_max, t_eval=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.metadata["n_terms"] > 300
    assert peak < 24e6


def test_spectral_interval_memory_is_bounded():
    # The inertia test takes one point at a time, K (1 + A) + A^2 + C
    # values per array, so a many-atom model (K = 600, A = 60, C = 4) stays
    # within two arrays of CHUNK_VALUES complex values, below one K x A^2
    # array (35 MB).
    rng = np.random.default_rng(4)
    n_modes, n_atoms, n_channels = 600, 60, 4
    model = DiscreteModel(
        mode_omegas=np.sort(rng.uniform(0.2, 3.0, n_modes)),
        mode_alphas=(np.sqrt(0.01 / n_modes)
                     * np.exp(2j * np.pi * rng.random(n_modes))),
        detector_factors=0.05 * (rng.normal(size=(n_modes, n_atoms))
                                 + 1j * rng.normal(size=(n_modes, n_atoms))),
        channel_omegas=rng.uniform(0.5, 2.5, n_channels),
        channel_mu=rng.uniform(0.05, 0.3, n_channels),
        t_rec=math.inf, meta={}, omega_a=1.0)
    tracemalloc.start()
    try:
        c, r = _spectral_interval(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r > 0.0
    assert peak < 2 * 16 * resolvent.CHUNK_VALUES


def test_vacuum_survival_tracks_exponential():
    system = PhysicalSystem(gamma=0.01, omega_i=0.3, beta=0.0)
    model = build_radial_vacuum(system, GridSpec())
    traj = integrate(model, 200.0)
    # The pole residue renormalizes the amplitude by ~5%, so against the
    # bare exp(-gamma t) only an absolute few-percent bound holds...
    dev = np.abs(traj.survival - np.exp(-0.01 * traj.times))
    assert np.max(dev) < 0.07
    # ...while the dressed exponential (fitted amplitude and rate) tracks
    # the survival tightly once the onset transient has passed.
    late = traj.times >= 20.0
    slope, intercept = np.polyfit(traj.times[late],
                                  np.log(traj.survival[late]), 1)
    dressed = np.exp(intercept + slope * traj.times[late])
    assert np.max(np.abs(traj.survival[late] - dressed)) < 5e-3


# -- rate fitting ----------------------------------------------------------

def synthetic_trajectory(rate, t_end=300.0, n=301):
    t = np.linspace(0.0, t_end, n)
    a0 = np.exp(-0.5 * rate * t) * np.exp(-1j * t)
    return Trajectory(times=t, a0=a0, survival=np.abs(a0) ** 2,
                      norm_drift=np.zeros(n))


def test_fit_recovers_exact_exponential():
    fit = fit_decay_rate(synthetic_trajectory(0.0123),
                         gamma_expected=0.0123)
    assert fit.rate == pytest.approx(0.0123, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.stderr < 1e-12


def test_fit_default_window_skips_onset():
    fit = fit_decay_rate(synthetic_trajectory(0.01), gamma_expected=0.01)
    t_lo, t_hi = fit.window
    assert t_lo == pytest.approx(20.0)
    assert t_hi == pytest.approx(240.0)


def test_fit_window_errors():
    # 0.2 / gamma_expected = 250 lies past 0.8 t_end = 240: empty window.
    with pytest.raises(FitWindowError, match="t_lo < t_hi"):
        fit_decay_rate(synthetic_trajectory(0.01), gamma_expected=0.0008)
    # The window [20, 240] holds only 8 of 12 samples on [0, 300].
    with pytest.raises(FitWindowError, match="fewer than 10"):
        fit_decay_rate(synthetic_trajectory(0.01, n=12), gamma_expected=0.01)
