import cmath
import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oracles import self_energy
from watched_decay.discretize import (
    DETECTOR_BAND,
    OMEGA_CUT,
    DiscreteModel,
    GridError,
    GridSpec,
    SumRuleError,
    ToySpec,
    _detector_form_factor,
    _frequency_grid,
    _leggauss,
    build_full_3d,
    build_radial_vacuum,
    build_scalar_toy,
    check_sum_rule,
    recurrence_time,
)
from watched_decay.dynamics import integrate
from watched_decay.geometry import _orthonormal_transverse
from watched_decay.model import (
    OMEGA0,
    AtomDipole,
    DetectorAtom,
    PhysicalSystem,
)
from watched_decay.resolvent import ww_pole

ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])


def make_system(**kw):
    base = dict(gamma=0.01, omega_i=0.3, beta=0.05)
    base.update(kw)
    return PhysicalSystem(**base)


def detector_system(z=1.5, **kw):
    atom = DetectorAtom(position=z * XHAT, dipole_dir=ZHAT)
    return make_system(atom_dipole=AtomDipole(ZHAT),
                       detector_atoms=(atom,), **kw)


# -- grids and sum rule ----------------------------------------------------

def test_gridspec_rejects_unknown_scheme():
    with pytest.raises(GridError):
        GridSpec(scheme="chebyshev")
    with pytest.raises(GridError):
        GridSpec(channel_scheme="chebyshev")


@pytest.mark.parametrize("scheme", ["gauss", "uniform"])
def test_vacuum_sum_rule(scheme):
    for n_modes in (400, 800):
        model = build_radial_vacuum(make_system(),
                                    GridSpec(n_modes=n_modes, scheme=scheme))
        dev = check_sum_rule(model)
        assert dev < 0.01
        # Exact reference: with |alpha_k|^2 = (gamma/2pi) w_k^3 dw_k the
        # window density over gamma/2 is sum w^3 dw / sum dw (omega0 = 1).
        w, dw = model.mode_omegas, model.meta["mode_weights"]
        win = np.abs(w - 1.0) <= 0.025 * (1.0 + 1e-9)
        exact = abs(np.sum(w[win] ** 3 * dw[win]) / np.sum(dw[win]) - 1.0)
        assert dev == pytest.approx(exact, rel=1e-12)


def test_gauss_rule_is_cached_and_read_only():
    # Every build takes the same rule, equal to leggauss's, so two builds
    # give equal models; no caller can write into the shared arrays.
    x, w = _leggauss(200)
    ref_x, ref_w = leggauss(200)
    np.testing.assert_array_equal(x, ref_x)
    np.testing.assert_array_equal(w, ref_w)
    assert _leggauss(200)[0] is x
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    first, second = (build_radial_vacuum(make_system(beta=0.0), GridSpec())
                     for _ in range(2))
    np.testing.assert_array_equal(first.mode_omegas, second.mode_omegas)
    np.testing.assert_array_equal(first.mode_alphas, second.mode_alphas)
    assert first.omega_a == second.omega_a


def test_vacuum_rejects_coarse_grid():
    with pytest.raises(SumRuleError):
        build_radial_vacuum(make_system(), GridSpec(n_modes=60))


def test_vacuum_preconditions():
    with pytest.raises(GridError):
        build_radial_vacuum(make_system(), GridSpec(n_modes=40))


def test_vacuum_coupling_profile():
    model = build_radial_vacuum(make_system(), GridSpec())
    w = model.meta["mode_weights"]
    density = np.abs(model.mode_alphas) ** 2 / w
    expected = (0.01 / (2.0 * math.pi)) * model.mode_omegas**3
    np.testing.assert_allclose(density, expected, rtol=1e-12)
    assert model.n_atoms == 0
    assert model.n_channels == 0


def test_recurrence_time_uniform_grid():
    omegas = np.arange(0.5, 1.5, 0.01)
    assert recurrence_time(omegas) == pytest.approx(
        2.0 * math.pi / 0.01, rel=1e-9)


def test_recurrence_time_takes_largest_spacing_near_resonance():
    # Two 4-point Gauss panels meet at omega0; 2.0 lies outside the window.
    x, _ = leggauss(4)
    omegas = np.concatenate([0.95 + 0.05 * x, 1.05 + 0.05 * x, [2.0]])
    # The widest in-window gap is the middle one of a panel, 2 * 0.05 * x[2];
    # the narrowest, 2 * 0.05 * (1 - x[3]), straddles omega0.
    widest = 0.1 * x[2]
    assert widest > 0.1 * (1.0 - x[3])
    assert recurrence_time(omegas) == pytest.approx(2.0 * math.pi / widest,
                                                    rel=1e-10)


def two_mode_model(omegas, alphas):
    return DiscreteModel(mode_omegas=np.array(omegas),
                         mode_alphas=np.array(alphas, complex),
                         detector_factors=np.zeros((2, 0), complex),
                         channel_omegas=np.empty(0),
                         channel_mu=np.empty(0), t_rec=1.0, omega_a=1.0)


def test_model_rejects_nonpositive_frequencies():
    with pytest.raises(GridError):
        two_mode_model([0.0, 1.0], [0.0, 0.0])


def test_model_rejects_nonfinite_couplings():
    # The backstop for a non-finite coupling that no spec caught, such as
    # the one ToySpec(r=inf) makes: the solver would otherwise reject steps
    # forever.
    with pytest.raises(GridError):
        two_mode_model([0.5, 1.0], [0.0, np.nan])


# -- level-shift counterterm ----------------------------------------------

def test_counterterm_moves_bare_frequency_down():
    system = make_system()
    shifted = build_radial_vacuum(system, GridSpec())
    # The omega^3 tail above resonance dominates, pulling the dressed pole
    # down; the counterterm therefore raises the bare frequency.
    assert shifted.omega_a > OMEGA0
    assert shifted.omega_a - OMEGA0 == pytest.approx(0.0548, abs=2e-3)


def test_counterterm_scales_with_gamma():
    a = build_radial_vacuum(make_system(gamma=0.01), GridSpec())
    b = build_radial_vacuum(make_system(gamma=0.02), GridSpec())
    assert (b.omega_a - 1.0) == pytest.approx(2.0 * (a.omega_a - 1.0),
                                              rel=1e-12)


# -- scalar toy ------------------------------------------------------------

def test_toy_reference_model():
    model = build_scalar_toy(ToySpec())
    assert model.size == 1 + 200 + 60
    assert model.t_rec == pytest.approx(139.626, abs=1e-2)
    # A flat profile puts exactly gamma/2 in any window: only rounding shows.
    assert check_sum_rule(model) < 1e-14


def test_toy_detector_phase():
    r = 2.5
    model = build_scalar_toy(ToySpec(r=r))
    f = model.detector_factors[:, 0]
    w = model.meta["mode_weights"]
    np.testing.assert_allclose(
        f, np.sqrt(w) * np.exp(1j * model.mode_omegas * r), rtol=1e-12)


def test_toy_zero_detector_coupling():
    model = build_scalar_toy(ToySpec(beta_toy=0.0))
    assert np.all(model.channel_mu == 0.0)


def test_toy_k_large_s_limit():
    # K(s) -> sum |alpha|^2 / s (real, positive) for large real s; K is the
    # self-energy of the toy without ionization channels.
    model = build_scalar_toy(ToySpec(n_channels=0))
    total = float(np.sum(np.abs(model.mode_alphas) ** 2))
    k = self_energy(1e6 + 0.0j, model)
    assert k.real == pytest.approx(total / 1e6, rel=1e-5)
    assert abs(k.imag) < 1e-11


# -- full 3d ---------------------------------------------------------------

SMALL_GRID = GridSpec(n_modes=60, scheme="uniform", n_theta=6, n_phi=4,
                      n_channels=20, channel_scheme="uniform")


@pytest.fixture(scope="module")
def small_full3d():
    return build_full_3d(detector_system(), SMALL_GRID), SMALL_GRID


def test_full3d_requires_detector():
    with pytest.raises(GridError):
        build_full_3d(make_system(), GridSpec())


def shell_sums(model, values):
    """Per-radial-shell sums of values, with the shell frequencies."""
    om, shell = np.unique(model.mode_omegas, return_inverse=True)
    return om, np.bincount(shell, weights=values, minlength=om.size)


def test_full3d_mode_count(small_full3d):
    # A shell keeps one mode per independent coupling vector: the emitter's
    # alone where the detector band has rolled off, at most 1 + A inside.
    model, grid = small_full3d
    om, per_shell = shell_sums(model, np.ones(model.n_modes))
    assert om.size == grid.n_modes
    outside = np.abs(om - 1.0) > 2.0 * DETECTOR_BAND
    assert np.all(per_shell[outside] == 1)
    assert np.all(per_shell[~outside] <= 1 + model.n_atoms)
    assert model.n_atoms == 1
    assert model.n_channels == grid.n_channels


def test_full3d_vacuum_density_matches_radial(small_full3d):
    # Summing |alpha_k|^2 over the modes of each radial shell reproduces the
    # radial coupling density (gamma/2 pi) omega^3 * w.
    model, grid = small_full3d
    om, per_radial = shell_sums(model, np.abs(model.mode_alphas) ** 2)
    h = 4.0 / grid.n_modes
    expected = (0.01 / (2.0 * math.pi)) * om**3 * h
    np.testing.assert_allclose(per_radial, expected, rtol=1e-12)


def test_full3d_polarization_completeness(small_full3d):
    # Per radial shell, summing the detector-factor magnitudes over its
    # modes gives the transverse average 2/3 of the scalar weight (detector
    # dipole fixed, form factor inside the band).
    model, grid = small_full3d
    om, f_sq = shell_sums(model, np.abs(model.detector_factors[:, 0]) ** 2)
    idx = int(np.argmin(np.abs(om - 1.0)))  # inside the response band
    h = 4.0 / grid.n_modes
    scalar_weight = om[idx] ** 3 * h / (4.0 * math.pi**2)
    assert f_sq[idx] == pytest.approx(
        scalar_weight * (8.0 * math.pi / 3.0), rel=1e-10)


def test_full3d_factorized_coupling_is_rank_one(small_full3d):
    # g_{k,c,i} = mu_c_eff(c) * f_{k,i} makes the (mode, channel) coupling
    # matrix rank one per atom: all 2x2 minors vanish.
    model, _ = small_full3d
    rng = np.random.default_rng(0)
    g = model.detector_factors[:, 0][:, None] * model.channel_mu[None, :]
    for _ in range(50):
        k1, k2 = rng.integers(model.n_modes, size=2)
        c1, c2 = rng.integers(model.n_channels, size=2)
        minor = g[k1, c1] * g[k2, c2] - g[k1, c2] * g[k2, c1]
        assert abs(minor) < 1e-14


def test_full3d_detector_band_limits_coupling(small_full3d):
    model, _ = small_full3d
    om, per_radial = shell_sums(
        model, np.abs(model.detector_factors[:, 0]) ** 2)
    outside = np.abs(om - 1.0) > 2.0 * DETECTOR_BAND
    assert np.all(per_radial[outside] == 0.0)
    inside = np.abs(om - 1.0) <= DETECTOR_BAND
    assert np.all(per_radial[inside] > 0.0)


def per_direction_modes(system, grid):
    """Reference layout: one mode per radial node, direction, polarization.

    Test oracle for build_full_3d, which must be a unitary change of basis
    inside each frequency shell of this model.
    """
    om_r, w_r = _frequency_grid(grid.scheme, 0.0, OMEGA_CUT, grid.n_modes)
    form = _detector_form_factor(om_r)
    x, w_x = leggauss(grid.n_theta)
    w_phi = 2.0 * math.pi / grid.n_phi
    directions = []
    for xi, wxi in zip(x, w_x):
        st = math.sqrt(1.0 - xi * xi)
        for j in range(grid.n_phi):
            phi = j * w_phi
            k_hat = np.array([st * math.cos(phi), st * math.sin(phi), xi])
            for eps in _orthonormal_transverse(k_hat):
                directions.append((k_hat, eps, wxi * w_phi))
    omegas, alphas, factors = [], [], []
    for om, w, ff in zip(om_r, w_r, form):
        for k_hat, eps, w_dir in directions:
            amp = math.sqrt(om**3 * w * w_dir / (4.0 * math.pi**2))
            omegas.append(om)
            alphas.append(-1j * system.mu_a * amp
                          * np.dot(system.atom_dipole.dipole_dir, eps))
            factors.append([
                -1j * amp * ff * np.dot(atom.dipole_dir, eps)
                * cmath.exp(1j * om * np.dot(k_hat, atom.position))
                for atom in system.detector_atoms])
    return np.array(omegas), np.array(alphas), np.array(factors)


def shell_grams(model):
    """Per-shell Gram matrices of the (emitter, detector) coupling vectors."""
    om, shell = np.unique(model.mode_omegas, return_inverse=True)
    u = np.column_stack((model.mode_alphas, model.detector_factors))
    gram = np.zeros((om.size, u.shape[1], u.shape[1]), dtype=complex)
    np.add.at(gram, shell, u[:, :, None] * np.conj(u)[:, None, :])
    return om, gram


def three_detector_system():
    """Three detectors at distinct, non-collinear positions with distinct
    dipoles: a dipole paired with another atom's position, or a (D, A)
    table read transposed, changes the couplings here, where with one
    detector it cannot."""
    atoms = tuple(DetectorAtom(position=np.array(r),
                               dipole_dir=np.array(p) / np.linalg.norm(p))
                  for r, p in (([1.5, 0.0, 0.0], [0.0, 0.0, 1.0]),
                               ([-0.4, 1.1, 0.3], [1.0, 1.0, 0.0]),
                               ([0.2, -0.7, -1.3], [0.3, -0.5, 0.8])))
    return make_system(atom_dipole=AtomDipole(ZHAT), detector_atoms=atoms)


@pytest.mark.parametrize("system", [detector_system(),
                                    three_detector_system()],
                         ids=["one-detector", "three-detectors"])
def test_full3d_matches_per_direction_oracle(system):
    model = build_full_3d(system, SMALL_GRID)
    omegas, alphas, factors = per_direction_modes(system, SMALL_GRID)
    oracle = dataclasses.replace(model, mode_omegas=omegas,
                                 mode_alphas=alphas, detector_factors=factors)
    assert model.n_modes < oracle.n_modes

    om, gram = shell_grams(model)
    om_ref, gram_ref = shell_grams(oracle)
    np.testing.assert_array_equal(om, om_ref)
    scale = np.max(np.abs(gram_ref), axis=(1, 2))
    assert np.all(np.max(np.abs(gram - gram_ref), axis=(1, 2))
                  <= 1e-12 * scale)

    assert abs(ww_pole(model)["u"] - ww_pole(oracle)["u"]) < 1e-12

    t = np.linspace(0.0, min(50.0, model.t_rec), 101)
    a0 = integrate(model, t[-1], t_eval=t).a0
    a0_ref = integrate(oracle, t[-1], t_eval=t).a0
    assert np.max(np.abs(a0 - a0_ref)) < 1e-8


def test_full3d_collinear_couplings_keep_one_mode_per_shell():
    # A detector at the emitter with the same dipole couples through the
    # emitter's own vector, so each shell's Gram matrix has rank one and the
    # rank cutoff must drop the rounding-level second eigenvalue.
    grid = SMALL_GRID
    system = make_system(atom_dipole=AtomDipole(ZHAT), detector_atoms=(
        DetectorAtom(position=np.zeros(3), dipole_dir=ZHAT),))
    model = build_full_3d(system, grid)
    assert model.n_modes == grid.n_modes
    omegas, alphas, factors = per_direction_modes(system, grid)
    oracle = dataclasses.replace(model, mode_omegas=omegas,
                                 mode_alphas=alphas, detector_factors=factors)
    _, gram = shell_grams(model)
    _, gram_ref = shell_grams(oracle)
    scale = np.max(np.abs(gram_ref), axis=(1, 2))
    assert np.all(np.max(np.abs(gram - gram_ref), axis=(1, 2))
                  <= 1e-12 * scale)

