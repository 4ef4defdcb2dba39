import math

import numpy as np
import pytest

from oracles import resolvent_a0_dense
from watched_decay import resolvent
from watched_decay.discretize import (
    DiscreteModel,
    GridSpec,
    ToySpec,
    build_full_3d,
    build_radial_vacuum,
    build_scalar_toy,
)
from watched_decay.model import OMEGA0, DetectorAtom, PhysicalSystem
from watched_decay.resolvent import (
    REF_ORDER,
    InversionError,
    PoleError,
    _phase_sums,
    invert_laplace,
    resolvent_a0_discrete,
    self_energy,
    ww_pole,
)

ZHAT = np.array([0.0, 0.0, 1.0])


def vacuum_system(gamma=0.01):
    return PhysicalSystem(gamma=gamma, omega_i=0.3, beta=0.0)


def empty_model():
    return DiscreteModel(
        kind="radial1d", mode_omegas=np.empty(0),
        mode_alphas=np.empty(0, complex),
        detector_factors=np.empty((0, 0), complex),
        channel_omegas=np.empty(0), channel_mu=np.empty(0),
        t_rec=math.inf, omega_a=1.0, meta={"gamma": 0.0})


def direct_k(s, model):
    """K(s) = sum_k |alpha_k|^2 / (s + i omega_k), one term at a time."""
    return complex(np.sum(np.abs(model.mode_alphas) ** 2
                          / (s + 1j * model.mode_omegas)))


# -- propagator sums -------------------------------------------------------
# K is the self-energy of a model whose detector has no channels.

def test_k_discrete_empty_model():
    assert self_energy(1.0 + 0.0j, empty_model()) == 0.0


def test_k_discrete_single_mode():
    model = DiscreteModel(
        kind="radial1d", mode_omegas=np.array([1.0]),
        mode_alphas=np.array([0.1 + 0.0j]),
        detector_factors=np.empty((1, 0), complex),
        channel_omegas=np.empty(0), channel_mu=np.empty(0),
        t_rec=math.inf, omega_a=1.0, meta={"gamma": 0.0})
    assert self_energy(1.0 + 0.0j, model) == pytest.approx(
        0.005 - 0.005j, abs=1e-15)


def test_k_discrete_pole_detection():
    model = build_scalar_toy(ToySpec())
    with pytest.raises(PoleError):
        self_energy(-1j * model.mode_omegas[3], model)


def test_k_discrete_continuum_limit():
    # Re K(-i omega0 + Gamma) approaches the cutoff Lorentzian integral;
    # the omega^3 wings inflate it above the ideal Gamma/2 by ~6% at this
    # evaluation width.
    from scipy.integrate import quad
    model = build_radial_vacuum(vacuum_system(), GridSpec())
    k = self_energy(-1j + 0.01, model)
    coeff = 0.01 / (2.0 * math.pi)
    ref = quad(lambda w: coeff * w**3 * 0.01 / (0.01**2 + (w - 1.0) ** 2),
               0.0, 4.0, limit=400, points=[1.0])[0]
    assert k.real == pytest.approx(ref, rel=1e-6)
    assert k.real == pytest.approx(0.005, rel=0.07)


# -- resolvent -------------------------------------------------------------

def test_resolvent_free_limit():
    s = 0.5 + 2.0j
    assert resolvent_a0_discrete(s, empty_model()) == pytest.approx(
        1.0 / (s + 1.0j), abs=1e-15)


def test_resolvent_vacuum_matches_ww_form():
    model = build_radial_vacuum(vacuum_system(), GridSpec())
    s = 0.1 + 0.3j
    expected = 1.0 / (s + 1j * model.omega_a + direct_k(s, model))
    assert resolvent_a0_discrete(s, model) == pytest.approx(
        expected, abs=1e-15)


def detector_model(n_modes=20, n_atoms=30, n_channels=10, seed=3):
    """Random model with dense detector factors: A^2 dominates the chunk
    budget K (1 + A) + A^2 + C."""
    rng = np.random.default_rng(seed)
    shape = (n_modes, n_atoms)
    return DiscreteModel(
        kind="scalar_toy",
        mode_omegas=rng.uniform(0.5, 1.5, n_modes),
        mode_alphas=0.01 * (rng.normal(size=n_modes)
                            + 1j * rng.normal(size=n_modes)),
        detector_factors=0.1 * (rng.normal(size=shape)
                                + 1j * rng.normal(size=shape)),
        channel_omegas=rng.uniform(0.4, 1.4, n_channels),
        channel_mu=rng.uniform(0.1, 0.5, n_channels),
        t_rec=math.inf, meta={"gamma": 0.0}, omega_a=1.0)


# The one-detector toy cannot tell G from its transpose; the 30-detector
# model can.
@pytest.mark.parametrize("model", [
    build_scalar_toy(ToySpec(n_modes=60, n_channels=15, r=1.3)),
    detector_model()], ids=["toy", "detector"])
def test_dense_and_woodbury_paths_agree(model):
    for s in (0.5 + 0.0j, 0.01 - 1.0j + 0.02, 2.0 + 3.0j, 0.1 - 0.6j):
        a = resolvent_a0_discrete(s, model)
        b = resolvent_a0_dense(s, model)
        assert a == pytest.approx(b, rel=1e-12)


def test_initial_value_theorem():
    model = build_scalar_toy(ToySpec())
    for s in (1e4, 1e6, 1e8):
        assert abs(s * resolvent_a0_discrete(s + 0.0j, model) - 1.0) < 2.0 / s


def test_pole_free_right_half_plane():
    model = build_scalar_toy(ToySpec(n_modes=60, n_channels=15))
    rng = np.random.default_rng(2)
    s = 1e-6 + rng.uniform(0, 2, 64) + 1j * rng.uniform(-3, 3, 64)
    vals = resolvent_a0_discrete(s, model)
    assert np.all(np.isfinite(vals))


def test_self_energy_reduces_to_k_without_channels():
    s = 0.2 + 0.4j
    for model in (build_radial_vacuum(vacuum_system(), GridSpec()),
                  build_scalar_toy(ToySpec(r=1.3, n_channels=0))):
        assert self_energy(s, model) == pytest.approx(direct_k(s, model),
                                                      rel=1e-14, abs=0.0)


def test_transform_memory_is_bounded():
    # Unchunked, the (n x A x A) block G alone would take 144 MB here.
    import tracemalloc
    s = 0.05 + 1j * np.linspace(-50.0, 50.0, 10_000)
    model = detector_model()
    tracemalloc.start()
    try:
        vals = resolvent_a0_discrete(s, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(vals))
    assert peak < 64e6


@pytest.mark.parametrize("model", [detector_model(), empty_model()],
                         ids=["detector", "empty"])
def test_self_energy_does_not_depend_on_chunk(model, monkeypatch):
    # numpy sends a one-row product to BLAS dot rather than gemv/gemm, which
    # rounds differently (~1e-15 relative), so one-point chunks are held to
    # scalar calls and longer chunks to the default pass.
    s = 0.05 + 1j * np.linspace(-5.0, 5.0, 1000)
    default = self_energy(s, model)
    one_by_one = np.array([self_energy(x, model) for x in s])
    per_point = max(1, model.n_modes * (1 + model.n_atoms)
                    + model.n_atoms**2 + model.n_channels)
    # 7 does not divide 1000; the last chunk holds 6 points.
    for chunk, expected in ((1, one_by_one), (7, default)):
        monkeypatch.setattr(resolvent, "CHUNK_VALUES", chunk * per_point)
        assert np.array_equal(self_energy(s, model), expected)


# -- pole approximation ----------------------------------------------------

def test_ww_pole_vacuum_rate():
    model = build_radial_vacuum(vacuum_system(), GridSpec())
    pole = ww_pole(model)
    assert pole["u"] == pytest.approx(1.0, abs=1e-12)
    # The raw rate carries an O(gamma_eval) wing bias from the omega^3
    # profile; the ratio u cancels it.
    assert pole["rate"] == pytest.approx(0.01, rel=0.10)


def test_ww_pole_rate_converges_with_evaluation_width():
    model = build_radial_vacuum(vacuum_system(),
                                GridSpec(n_modes=3200, scheme="uniform"))
    coarse = 2.0 * self_energy(-1j + 0.01, model).real
    fine = 2.0 * self_energy(-1j + 0.003, model).real
    assert abs(fine - 0.01) < abs(coarse - 0.01)
    assert fine == pytest.approx(0.01, rel=0.03)


def test_ww_pole_toy_slowing():
    model = build_scalar_toy(ToySpec())
    pole = ww_pole(model)
    assert pole["rate"] < pole["vacuum_rate"]
    assert 0.9 < pole["u"] < 1.0


def full3d_detector_model():
    system = PhysicalSystem(
        gamma=0.01, omega_i=0.3, beta=0.05,
        detector_atoms=(DetectorAtom(position=[0.5 * math.pi, 0.0, 0.0],
                                     dipole_dir=ZHAT),))
    return build_full_3d(system, GridSpec(n_modes=120, scheme="uniform",
                                          n_theta=8, n_phi=6, n_channels=40,
                                          channel_scheme="uniform"))


@pytest.mark.parametrize("build", [lambda: build_scalar_toy(ToySpec()),
                                   full3d_detector_model],
                         ids=["toy", "full3d"])
def test_ww_pole_rates_from_one_kernel_evaluation(build):
    model = build()
    pole = ww_pole(model)
    s0 = -1j * OMEGA0 + pole["gamma_eval"]
    assert pole["vacuum_rate"] == pytest.approx(2.0 * direct_k(s0, model).real,
                                                rel=1e-13, abs=0.0)
    assert pole["rate"] == 2.0 * self_energy(s0, model).real
    assert pole["u"] == pole["rate"] / pole["vacuum_rate"] < 1.0


# -- inverse transform -----------------------------------------------------

def pole_moments(a, weight=1.0):
    """m_0..m_P of weight / (s + a) = sum_n weight (-a)^n / s^(n+1)."""
    return [weight * (-a) ** n for n in range(REF_ORDER + 1)]


def test_invert_known_oscillator():
    t = np.linspace(0.0, 20.0, 81)
    vals, info = invert_laplace(lambda s: 1.0 / (s + 1.0j), pole_moments(1j),
                                t)
    np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-8)
    np.testing.assert_allclose(vals, np.exp(-1.0j * t), atol=1e-8)
    assert info["error_estimate"] < 1e-6
    assert info["error_estimate"] == (info["truncation_estimate"]
                                      + info["alias_estimate"])
    assert info["ref_order"] == REF_ORDER


def test_invert_known_decay():
    t = np.linspace(0.0, 50.0, 51)
    vals, _ = invert_laplace(lambda s: 1.0 / (s + 0.01), pole_moments(0.01),
                             t)
    np.testing.assert_allclose(vals.real, np.exp(-0.01 * t), atol=1e-8)
    np.testing.assert_allclose(vals.imag, 0.0, atol=1e-8)


def test_invert_two_pole_cosine():
    omega = 0.7
    t = np.linspace(0.0, 30.0, 61)
    vals, _ = invert_laplace(lambda s: s / (s**2 + omega**2),
                             [1.0, 0.0, -omega**2, 0.0], t)
    np.testing.assert_allclose(vals.real, np.cos(omega * t), atol=1e-8)


def test_invert_value_at_zero_is_initial_value():
    vals, _ = invert_laplace(lambda s: 1.0 / (s + 1.0j), pole_moments(1j),
                             np.array([0.0, 1.0]))
    assert vals[0] == pytest.approx(1.0, abs=1e-8)


def direct_phase_sums(g, h, t, inner_max):
    """Oracle: one exponential per (time, node) pair."""
    omegas = (np.arange(g.size) - g.size // 2) * h
    phase = np.exp(1j * np.outer(t, omegas))
    inner = np.abs(omegas) <= inner_max
    return phase @ np.where(inner, g, 0.0), phase @ np.where(inner, 0.0, g)


@pytest.mark.parametrize("uniform_t", [True, False])
@pytest.mark.parametrize("n_nodes", [1, 2, 10007, 63**2 - 1, 64**2 + 1])
def test_phase_sums_match_direct_sum(n_nodes, uniform_t):
    rng = np.random.default_rng(n_nodes)
    # Random weights that fall off like the Bromwich integrand, so most of
    # the sum sits near w = 0 where the block phases must not cancel.
    j = np.arange(n_nodes) - n_nodes // 2
    g = (rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)) \
        / (1.0 + np.abs(j)) ** 3
    h = math.pi / 37.7
    t = (np.linspace(0.0, 200.0, 201) if uniform_t
         else np.sort(rng.uniform(0.0, 200.0, 57)))
    inner_max = 0.25 * n_nodes * h
    fast = _phase_sums(g, h, t, inner_max)
    slow = direct_phase_sums(g, h, t, inner_max)
    # Relative to sum |g|, the scale of the whole Bromwich sum: the outer
    # nodes carry phases t w ~ 1e5, whose rounding limits both methods.
    scale = np.sum(np.abs(g))
    for got, want in zip(fast, slow):
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.parametrize("transform, moments, expected", [
    (lambda s: 2.0 / (s + 1.0), pole_moments(1.0, 2.0),
     lambda t: 2.0 * np.exp(-t)),
    (lambda s: 1.0 / (s + 1.0) ** 2, [0.0, 1.0, -2.0, 3.0],
     lambda t: t * np.exp(-t)),
], ids=["scaled", "double-pole"])
def test_invert_non_unit_initial_value(transform, moments, expected):
    # The moment reference carries any initial value m_0, including 0.
    t = np.linspace(0.0, 20.0, 41)
    vals, _ = invert_laplace(transform, moments, t)
    np.testing.assert_allclose(vals, expected(t), atol=1e-8)


@pytest.mark.parametrize("transform, moments", [
    (lambda s: 2.0 / (s + 1.0), pole_moments(1.0)),      # wrong m_0
    (lambda s: 1.0 / (s + 2.0), pole_moments(1.0)),      # wrong m_1
    (lambda s: 1.0 / (s + 1.0), pole_moments(1.0)[:2]),  # too few
], ids=["m0", "m1", "order"])
def test_invert_rejects_moments_of_another_transform(transform, moments):
    with pytest.raises(ValueError, match="moments"):
        invert_laplace(transform, moments, np.array([0.0, 1.0]))


def test_inversion_self_check_raises_when_starved(monkeypatch):
    # Two-pole transform defeats the analytic reference subtraction, so a
    # severely truncated contour must fail its own error estimate.
    monkeypatch.setattr(resolvent, "MAX_NODES", 128)
    with pytest.raises(InversionError):
        invert_laplace(lambda s: s / (s**2 + 1.0), [1.0, 0.0, -1.0, 0.0],
                       np.linspace(0.0, 20.0, 21))


def test_invert_rejects_negative_time():
    with pytest.raises(ValueError, match="t must be"):
        invert_laplace(lambda s: 1.0 / s, pole_moments(0.0), np.array([-1.0]))

