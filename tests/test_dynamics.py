import math

import numpy as np
import pytest

from watched_decay.discretize import (
    DiscreteModel,
    GridSpec,
    RecurrenceError,
    ToySpec,
    build_radial_vacuum,
    build_scalar_toy,
)
from watched_decay.dynamics import (
    FitWindowError,
    SolverSpec,
    Trajectory,
    _rhs_factory,
    compare_routes,
    fit_decay_rate,
    integrate,
)
from watched_decay.model import PhysicalSystem


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
        kind="scalar_toy", mode_omegas=omegas,
        mode_alphas=alphas, detector_factors=factors,
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
        dy = _rhs_factory(model)(0.0, y)
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


def test_integrate_refuses_horizon_beyond_recurrence():
    model = build_scalar_toy(ToySpec())
    with pytest.raises(RecurrenceError):
        integrate(model, 2.0 * model.t_rec)


def test_norm_drift_within_tolerance():
    solver = SolverSpec()
    model = build_scalar_toy(ToySpec())
    traj = integrate(model, 100.0, solver=solver)
    assert np.max(np.abs(traj.norm_drift)) <= 100.0 * solver.rtol


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
