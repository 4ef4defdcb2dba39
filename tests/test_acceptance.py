"""End-to-end acceptance criteria.

Each test covers one numbered criterion and prints a single
``criterion N: PASS/FAIL`` line (visible with ``pytest -rA`` or on
failure).  Criteria 4 and 5 check the isotropic angular average
<l^2> = 2/9 that independent uniform orientations give, derived in the
test from the moments of a uniform unit vector.  The printed value 2/7 is
kept untuned as the default of ``analytic.reduction_shell``; both criteria
print it next to the isotropic value and assert the size of its
discrepancy (see the notes in ``analytic`` and ``geometry``).
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv

from golden_runs import criteria_moved, read_criteria, versions_note
from oracles import (
    angular_average_l2,
    bromwich_fresh_sum,
    chebyshev_moments,
    polarization_sum,
    resolvent_a0_dense,
    s_func_quadrature,
    self_energy,
    t_func_quadrature,
)
from watched_decay import analytic, dynamics, resolvent
from watched_decay.discretize import (
    OMEGA_CUT,
    DiscreteModel,
    GridSpec,
    ToySpec,
    build_full_3d,
    build_radial_vacuum,
    build_scalar_toy,
)
from watched_decay.dynamics import (
    TAIL_TOL,
    SolverSpec,
    _generator_product,
    _inertia_test,
    _kapteyn_order,
    _moments,
    _series,
    _spectral_interval,
    compare_routes,
    fit_decay_rate,
    integrate,
)
from watched_decay.geometry import (
    DipoleGeometry,
    s_func,
    t_func,
)
from watched_decay.model import (
    OMEGA0,
    AtomDipole,
    DetectorAtom,
    PhysicalSystem,
)
from watched_decay.resolvent import (
    TOL,
    invert_laplace,
    resolvent_a0_discrete,
    ww_pole,
)

GAMMA = 0.01
BETA = 0.05
ZHAT = np.array([0.0, 0.0, 1.0])
XHAT = np.array([1.0, 0.0, 0.0])
# Emitter/detector dipole orientation with cos(theta) = 1/sqrt(3) to the
# separation axis: the full angular kernel then vanishes exactly at
# z = n*pi while the transverse overlap stays nonzero between the nodes.
MAGIC = np.array([math.sqrt(2.0 / 3.0), 0.0, math.sqrt(1.0 / 3.0)])

FULL3D_GRID = GridSpec(n_modes=320, scheme="uniform", n_theta=12, n_phi=8,
                       n_channels=100, channel_scheme="uniform")
FULL3D_T = 200.0
SWEEP_Z = (2.3, math.pi, 4.6, 2.0 * math.pi)
NODE_Z = (math.pi, 2.0 * math.pi)


#: Each criterion's line as ``report`` printed it in this session.
CRITERION_LINES = {}


def report(num: int, ok: bool, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    CRITERION_LINES[num] = line
    assert ok, line


def fitted(model, t_max, gamma=GAMMA):
    traj = integrate(model, t_max)
    fit = fit_decay_rate(traj, gamma_expected=gamma)
    return traj, fit


# -- shared expensive runs -------------------------------------------------

@pytest.fixture(scope="module")
def vacuum_run():
    system = PhysicalSystem(gamma=GAMMA, omega_i=0.3, beta=0.0)
    model = build_radial_vacuum(system, GridSpec(n_modes=400))
    traj, fit = fitted(model, 300.0)
    return {"model": model, "traj": traj, "fit": fit}


@pytest.fixture(scope="module")
def toy_runs():
    out = {}
    for name, beta in (("vacuum", 0.0), ("detector", BETA)):
        model = build_scalar_toy(ToySpec(gamma=GAMMA, beta_toy=beta))
        traj, fit = fitted(model, 120.0)
        out[name] = {"model": model, "traj": traj, "fit": fit}
    out["u_kernels"] = ww_pole(out["detector"]["model"])["u"]
    return out


def full3d_system(beta, p_a, atom):
    return PhysicalSystem(gamma=GAMMA, omega_i=0.3, beta=beta,
                          atom_dipole=AtomDipole(p_a),
                          detector_atoms=(atom,))


@pytest.fixture(scope="module")
def full3d_runs():
    """One vacuum and five detector integrations on the shared 3d grid."""
    out = {"drift": []}
    # Vacuum reference (rate is orientation independent: the angular rules
    # integrate the degree-2 polarization factors exactly).
    vac_sys = full3d_system(0.0, ZHAT,
                            DetectorAtom(position=XHAT, dipole_dir=ZHAT))
    model = build_full_3d(vac_sys, FULL3D_GRID)
    traj, fit = fitted(model, FULL3D_T)
    out["vacuum"] = fit
    out["drift"].append(float(np.max(np.abs(traj.norm_drift))))

    # Off-node single detector: parallel dipoles transverse to the
    # separation at z = pi/2.
    z2 = math.pi / 2.0
    det_sys = full3d_system(BETA, ZHAT,
                            DetectorAtom(position=z2 * XHAT, dipole_dir=ZHAT))
    model = build_full_3d(det_sys, FULL3D_GRID)
    traj, fit = fitted(model, FULL3D_T)
    out["offnode"] = {"fit": fit, "z": z2, "model": model,
                      "u_kernels": ww_pole(model)["u"]}
    out["drift"].append(float(np.max(np.abs(traj.norm_drift))))

    # Node sweep with the magic-angle orientation along the z axis.
    sweep = {}
    for z in SWEEP_Z:
        sys_z = full3d_system(BETA, MAGIC,
                              DetectorAtom(position=z * ZHAT,
                                           dipole_dir=MAGIC))
        model = build_full_3d(sys_z, FULL3D_GRID)
        traj, fit = fitted(model, FULL3D_T)
        sweep[z] = fit
        out["drift"].append(float(np.max(np.abs(traj.norm_drift))))
    out["sweep"] = sweep
    return out


# -- criteria --------------------------------------------------------------

def test_criterion_1_vacuum_ww_decay(vacuum_run):
    fit = vacuum_run["fit"]
    rel = abs(fit.rate - GAMMA) / GAMMA
    ok_rate = rel < 0.03

    # Convergence of the discrete atom kernel toward its continuum limit at
    # the same cutoff: the error must at least halve per doubling.
    s0 = -1j + GAMMA
    coeff = GAMMA / (2.0 * math.pi)
    ref = quad(lambda w: coeff * w**3 * GAMMA / (GAMMA**2 + (w - 1.0) ** 2),
               0.0, 4.0, limit=400, points=[1.0])[0]
    system = PhysicalSystem(gamma=GAMMA, omega_i=0.3, beta=0.0)
    errs = []
    for n in (100, 200, 400, 800):
        m = build_radial_vacuum(system, GridSpec(n_modes=n, scheme="uniform"),
                                enforce_sum_rule=False)
        errs.append(abs(self_energy(s0, m).real - ref))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok_halving = all(r >= 2.0 for r in ratios)

    report(1, ok_rate and ok_halving,
           f"fitted rate {fit.rate:.6e} vs gamma {GAMMA} "
           f"({rel:.2%} off, need < 3%); doubling ratios "
           + ", ".join(f"{r:.3g}" for r in ratios) + " (need >= 2)")


def z_factor(profile, gamma, cut):
    """1 / (1 + dP/dE) at E = omega0 = 1 for the counterterm integral
    P(E) = PV int_0^cut (gamma/2pi) profile(w) / (w - E) dw, with the
    profile held fixed."""
    def pv(e):
        return gamma / (2.0 * math.pi) * quad(
            profile, 0.0, cut, weight="cauchy", wvar=e, epsabs=1e-14,
            epsrel=1e-12, limit=200)[0]
    h = 1e-4
    return 1.0 / (1.0 + (pv(1.0 + h) - pv(1.0 - h)) / (2.0 * h))


def test_vacuum_rates_carry_the_z_factor(vacuum_run, toy_runs):
    # The fitted vacuum rate is the pole residue Z times gamma; with the
    # omega^3 profile Z sits 2.8% below 1, with the flat toy about 0.2%
    # above.  Each builder records the closed form of Z in its model.
    for run, profile in ((vacuum_run, lambda w: w**3),
                         (toy_runs["vacuum"], lambda w: 1.0)):
        z = z_factor(profile, GAMMA, OMEGA_CUT)
        assert run["fit"].rate / GAMMA == pytest.approx(z, rel=1e-3)
        assert run["model"].meta["z_factor"] == pytest.approx(z, abs=1e-6)


def test_criterion_2_detector_slowing(toy_runs, full3d_runs):
    details = []
    ok = True
    for label, vac_fit, det_fit, z, u_kern in (
        ("scalar toy", toy_runs["vacuum"]["fit"],
         toy_runs["detector"]["fit"], 0.0, toy_runs["u_kernels"]),
        ("full 3d", full3d_runs["vacuum"], full3d_runs["offnode"]["fit"],
         full3d_runs["offnode"]["z"], full3d_runs["offnode"]["u_kernels"]),
    ):
        sigma = math.hypot(vac_fit.stderr, det_fit.stderr)
        n_sigma = (vac_fit.rate - det_fit.rate) / sigma
        target = GAMMA * u_kern.real
        rel = abs(det_fit.rate - target) / target
        ok_here = n_sigma >= 3.0 and rel <= 0.10
        ok = ok and ok_here
        details.append(f"{label}: slowing {n_sigma:.0f} sigma (need >= 3), "
                       f"rate {det_fit.rate:.4e} vs gamma*U {target:.4e} "
                       f"({rel:.2%}, need <= 10%)")
    report(2, ok, "; ".join(details))


@pytest.fixture(scope="module")
def route_runs(toy_runs, full3d_runs):
    """compare_routes on criterion 3's models, 201 times each."""
    system = PhysicalSystem(gamma=GAMMA, omega_i=0.3, beta=0.0)
    models = {
        "vacuum-1d": build_radial_vacuum(
            system, GridSpec(n_modes=50, scheme="uniform")),
        "toy": toy_runs["detector"]["model"],
        "toy-retarded": build_scalar_toy(ToySpec(gamma=GAMMA,
                                                 beta_toy=BETA, r=3.0)),
        "full3d-detector": full3d_runs["offnode"]["model"],
    }
    out = {}
    for name, model in models.items():
        assert model.size <= 2000
        t_end = FULL3D_T if name == "full3d-detector" else 0.8 * model.t_rec
        t_grid = np.linspace(0.0, t_end, 201)
        out[name] = (model, compare_routes(model, t_grid))
    return out


def test_criterion_3_route_equivalence(route_runs):
    details = []
    ok = True
    for name, (_, comp) in route_runs.items():
        ok = ok and comp.max_abs_diff < 1e-6
        details.append(f"{name}: {comp.max_abs_diff:.2e}")
    report(3, ok, "max |A0_ode - A0_bromwich| (need < 1e-6): "
           + ", ".join(details))


def hermitian_generator(model):
    """H with d/dt (a0, a_k, a_c) = -i H (a0, a_k, a_c), lab frame."""
    n_k, n_c = model.n_modes, model.n_channels
    k = np.arange(1, 1 + n_k)
    c = np.arange(1 + n_k, model.size)
    H = np.zeros((model.size, model.size), dtype=complex)
    H[0, 0] = model.omega_a
    H[0, k] = model.mode_alphas
    H[k, 0] = np.conj(model.mode_alphas)
    H[k, k] = model.mode_omegas
    H[c, c] = np.tile(model.channel_omegas, model.n_atoms)
    # a_c is stored atom-major: (atom i, channel m) at 1 + n_k + i * n_c + m.
    coupling = (np.conj(model.detector_factors)[:, :, None]
                * model.channel_mu).reshape(n_k, -1)
    H[1:1 + n_k, 1 + n_k:] = coupling
    H[1 + n_k:, 1:1 + n_k] = coupling.conj().T
    return H


def exact_a0(model, t):
    """a0(t) = sum_n |V_0n|^2 exp(-i lambda_n t) from the eigenbasis of H."""
    lam, vec = np.linalg.eigh(hermitian_generator(model))
    return np.exp(-1j * np.outer(t, lam)) @ (np.abs(vec[0]) ** 2)


@pytest.mark.parametrize("name", ["vacuum-1d", "toy", "toy-retarded",
                                  "full3d-detector"])
def test_route_monitors_bound_exact_error(route_runs, name):
    model, comp = route_runs[name]
    # The oracle's generator, less omega0 on the diagonal, is the
    # rotating-frame generator the propagator expands.
    rng = np.random.default_rng(3)
    y = rng.normal(size=model.size) + 1j * rng.normal(size=model.size)
    H = hermitian_generator(model) - OMEGA0 * np.eye(model.size)
    np.testing.assert_allclose(_generator_product(model)(y), H @ y,
                               atol=1e-12)
    # The propagator's interval holds its spectrum, within 1e-3 of tight.
    c, r = _spectral_interval(model)
    lam = np.linalg.eigvalsh(H)
    assert c - r <= lam[0] and lam[-1] <= c + r
    assert r <= (1.0 + 1e-3) * 0.5 * (lam[-1] - lam[0])

    exact = exact_a0(model, comp.times)
    bromwich_err = np.max(np.abs(comp.a0_resolvent - exact))
    assert bromwich_err <= comp.inversion_info["error_estimate"] <= TOL
    traj = integrate(model, float(comp.times[-1]), t_eval=comp.times)
    np.testing.assert_array_equal(traj.a0, comp.a0_ode)
    # The norm drift is no error bound (a phase error leaves the norm
    # alone); the propagator's Bessel tail plus rounding is.
    ode_err = np.max(np.abs(traj.a0 - exact))
    assert ode_err <= traj.metadata["error_bound"]
    assert ode_err <= 1e-12


def random_discrete_model(rng, n_atoms=None, n_channels=None):
    """A small model with 0-3 detector atoms, random coupling phases and
    omega^3 or flat profiles, omega_a detuned from omega0 by about 0.05.
    The atom and channel counts are drawn unless given."""
    n_modes = int(rng.integers(5, 61))
    if n_atoms is None:
        n_atoms = int(rng.integers(0, 4))
    if n_channels is None:
        n_channels = int(rng.integers(1, 21)) if n_atoms else 0
    n_channels = min(n_channels, (124 - n_modes) // max(n_atoms, 1))
    omegas = np.sort(rng.uniform(0.2, 3.0, n_modes))
    profile = omegas**3 if rng.random() < 0.5 else np.ones(n_modes)
    phases = np.exp(2j * np.pi * rng.random(n_modes))
    alphas = np.sqrt(0.01 * profile / n_modes) * phases
    factors = 0.05 * (rng.normal(size=(n_modes, n_atoms))
                      + 1j * rng.normal(size=(n_modes, n_atoms)))
    return DiscreteModel(
        mode_omegas=omegas, mode_alphas=alphas, detector_factors=factors,
        channel_omegas=rng.uniform(0.5, 2.5, n_channels),
        channel_mu=rng.uniform(0.05, 0.3, n_channels),
        t_rec=math.inf, meta={}, omega_a=1.0 + rng.normal(scale=0.05))


@pytest.mark.parametrize("n_atoms, n_channels", [
    (0, None), (1, None), (3, None), (2, 0)])
def test_scaled_product_matches_dense_generator(n_atoms, n_channels):
    # The recursion's one product, (2 / r) (H - c) v - prev, against the
    # dense rotating-frame generator.  With atoms but no channels the
    # model has 1 + K amplitudes: there a channel diagonal that is not
    # repeated per atom would not fit.
    rng = np.random.default_rng(41 + n_atoms)
    for _ in range(5):
        model = random_discrete_model(rng, n_atoms, n_channels)
        assert model.n_atoms == n_atoms
        if n_channels == 0:
            assert model.size == 1 + model.n_modes
        H = hermitian_generator(model) - OMEGA0 * np.eye(model.size)
        c, r = rng.normal(scale=0.1), rng.uniform(0.5, 3.0)
        v, prev = (rng.normal(size=model.size)
                   + 1j * rng.normal(size=model.size) for _ in range(2))
        expected = (2.0 / r) * (H @ v - c * v) - prev
        apply = _generator_product(model, c, r)
        np.testing.assert_allclose(apply(v, prev=prev), expected,
                                   rtol=0.0, atol=1e-12)
        out = np.empty_like(v)
        assert apply(v, out, prev) is out
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)


def test_moments_match_reference_recursion(full3d_runs, monkeypatch):
    # The block-wise recursion against one dot product pair per order, on
    # the quick-start model and on random models with 0, 1 and 3 detector
    # atoms, each in one block; blocks of 2, 3 and 7 orders, which carry
    # their last two vectors into the next block, give the same moments.
    rng = np.random.default_rng(23)
    cases = [(full3d_runs["offnode"]["model"], FULL3D_T)]
    cases += [(random_discrete_model(rng, n_atoms), 60.0)
              for n_atoms in (0, 1, 3)]
    for model, t_max in cases:
        c, r = _spectral_interval(model)
        n = int(_kapteyn_order(r * t_max, TAIL_TOL)) - 1
        assert n <= dynamics.CHUNK_VALUES // model.size
        mu = _moments(model, c, r, n)
        np.testing.assert_allclose(mu, chebyshev_moments(model, c, r, n),
                                   rtol=0.0, atol=1e-13)
        for block in (2, 3, 7):
            monkeypatch.setattr(dynamics, "CHUNK_VALUES", block * model.size)
            np.testing.assert_array_equal(_moments(model, c, r, n), mu)
        monkeypatch.undo()


def test_integrate_within_error_bound_on_random_models():
    rng = np.random.default_rng(11)
    sizes = []
    for _ in range(10):
        model = random_discrete_model(rng)
        sizes.append(model.size)
        t = np.linspace(0.0, 60.0, 121)
        traj = integrate(model, 60.0, t_eval=t)
        err = np.max(np.abs(traj.a0 - exact_a0(model, t)))
        assert err <= traj.metadata["error_bound"]
        assert err <= 1e-12
    assert min(sizes) >= 6 and max(sizes) <= 125


def test_norm_monitor_is_norm_of_series_on_random_models():
    # Cut far below r t, the series is no propagator, and its norm is far
    # from 1; the moments' quadratic form must still be its exact norm,
    # sum_j w_j |sum_k (2 - delta_k0) (-i)^k J_k(x) T_k(e_j)|^2 over the
    # eigenvalues of H rescaled to e_j = (lambda_j - c) / r.
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 60.0, 61)
    n = 12
    k = np.arange(n + 1)
    weights = np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4]
    series = weights * jv(k, x[:, None])                  # (x, k)
    for _ in range(6):
        model = random_discrete_model(rng)
        c, r = _spectral_interval(model)
        lam, vec = np.linalg.eigh(hermitian_generator(model)
                                  - OMEGA0 * np.eye(model.size))
        cheb = np.polynomial.chebyshev.chebvander((lam - c) / r, n)
        exact = np.abs(series @ cheb.T) ** 2 @ np.abs(vec[0]) ** 2
        _, norm = _series(_moments(model, c, r, n), x)
        assert np.max(np.abs(exact - 1.0)) > 0.1
        np.testing.assert_allclose(norm, exact, rtol=0.0, atol=1e-12)


def test_inertia_test_matches_eigenvalues_on_random_models():
    # Point by point across each end's bracket, from the diagonal's range
    # to Weyl's bound: lam I - sign H is positive definite exactly when
    # its least eigenvalue, lam - max(sign spec H), is positive.  Below the
    # top of the mode-channel block the channels' I - g G is not positive
    # definite, and the test must fail there on that branch alone.
    rng = np.random.default_rng(29)
    tested = indefinite = 0
    for _ in range(20):
        model = random_discrete_model(rng)
        H = hermitian_generator(model) - OMEGA0 * np.eye(model.size)
        spec = np.linalg.eigvalsh(H)
        r = 0.5 * (spec[-1] - spec[0])
        off = np.linalg.norm(model.mode_alphas)
        if model.n_atoms and model.n_channels:
            off += (np.linalg.norm(model.detector_factors, 2)
                    * np.linalg.norm(model.channel_mu))
        for sign in (1.0, -1.0):
            top = np.max(sign * np.diag(H).real)
            lam = top + off * np.linspace(0.0, 1.0, 66)[1:-1]
            lam = lam[np.min(np.abs(lam[:, None] - sign * spec), axis=1)
                      > 1e-9 * r]
            least = lam - np.max(sign * spec)
            np.testing.assert_array_equal(
                [_inertia_test(model, x, sign) for x in lam], least > 0.0)
            # The mode-channel block alone, where I - g G decides.
            block = np.linalg.eigvalsh(sign * H[1:, 1:])[-1]
            tested += lam.size
            indefinite += int(np.sum(lam < block))
    assert tested > 2000 and indefinite > 0


def test_atom_complement_matches_dense_resolvent_on_random_models():
    # The value the inertia test reads, not only its sign: at s = -i E the
    # elimination gives the atom's Schur complement E - omega_a -
    # Im sigma(-i E), which is 1 / [(E - H)^-1]_00 for the dense lab-frame
    # H at every E away from the spectra of H and of its mode-channel block.
    rng = np.random.default_rng(37)
    tested = 0
    for _ in range(10):
        model = random_discrete_model(rng)
        H = hermitian_generator(model)
        poles = np.concatenate([np.linalg.eigvalsh(H),
                                np.linalg.eigvalsh(H[1:, 1:])])
        E = np.linspace(poles.min() - 0.5, poles.max() + 0.5, 400)
        E = E[np.min(np.abs(E[:, None] - poles), axis=1) > 1e-3]
        _, sigma, _ = resolvent._eliminate(-1j * E[:, None], model)
        unit = np.eye(model.size)[0]
        dense = [1.0 / np.linalg.solve(x * np.eye(model.size) - H, unit)[0]
                 for x in E]
        np.testing.assert_allclose(E - model.omega_a - sigma.imag, dense,
                                   rtol=1e-10, atol=0.0)
        tested += E.size
    assert tested > 2000


def test_spectral_interval_bisects_to_certified_ends(monkeypatch):
    # The interval tests at most INTERVAL_STEPS points per end, one by one,
    # and each end it returns is Weyl's bound or a point the inertia test
    # passed for that end, up to the rounding of c and r.
    calls = []

    def counting(model, lam, sign):
        ok = _inertia_test(model, lam, sign)
        calls.append((lam, sign, ok))
        return ok

    monkeypatch.setattr(dynamics, "_inertia_test", counting)
    rng = np.random.default_rng(31)
    tested_ends = 0
    for _ in range(10):
        model = random_discrete_model(rng)
        calls.clear()
        c, r = _spectral_interval(model)
        assert len(calls) <= 2 * dynamics.INTERVAL_STEPS
        diag = np.diag(hermitian_generator(model)).real - OMEGA0
        off = np.linalg.norm(model.mode_alphas)
        if model.n_atoms and model.n_channels:
            off += (np.linalg.norm(model.detector_factors, 2)
                    * np.linalg.norm(model.channel_mu))
        for sign, end in ((1.0, c + r), (-1.0, r - c)):
            weyl = np.max(sign * diag) + off
            passed = [x for x, s, ok in calls if s == sign and ok]
            nearest = min(passed + [weyl], key=lambda x: abs(x - end))
            assert abs(nearest - end) <= 4.0 * np.finfo(float).eps * (
                abs(c) + r)
            tested_ends += nearest != weyl
    assert tested_ends > 0


def test_laplace_route_on_random_models():
    # The Laplace half of the random-model audit: the rank-per-atom
    # transform against the dense channel solve off the axis, both routes
    # against the eigen oracle, and the Bromwich error under its estimate.
    rng = np.random.default_rng(7)
    s = np.array([0.05 - 0.9j, 0.3 - 1.2j, 1.0 + 0.4j])
    t = np.linspace(0.0, 60.0, 121)
    for _ in range(20):
        model = random_discrete_model(rng)
        np.testing.assert_allclose(
            resolvent_a0_discrete(s, model),
            [resolvent_a0_dense(x, model) for x in s], rtol=1e-12, atol=0.0)
        comp = compare_routes(model, t)
        exact = exact_a0(model, t)
        bromwich_err = np.max(np.abs(comp.a0_resolvent - exact))
        assert np.max(np.abs(comp.a0_ode - exact)) <= 1e-6
        assert bromwich_err <= 1e-6
        assert bromwich_err <= comp.inversion_info["error_estimate"]


@pytest.mark.parametrize("name, max_nodes", [
    ("vacuum-1d", 3_300), ("toy", 3_000), ("toy-retarded", 3_000),
    ("full3d-detector", 11_000)])
def test_route_contour_node_count(route_runs, name, max_nodes):
    # The seventh-order moment reference takes 3,203, 2,847, 2,847 and
    # 10,187 nodes here; with the same omega_max rule a third-order one
    # needs 51,203, 91,025, 91,025 and 162,977.
    _, comp = route_runs[name]
    assert comp.inversion_info["n_nodes"] <= max_nodes


def test_contour_doubles_until_estimate_meets_tol(route_runs, monkeypatch):
    # At order 9 the one-point probe passes at the floor omega_max = 16 on
    # vacuum-1d, where the summed error estimate is 3.4e-8; the contour is
    # summed again on a doubled one until the estimate is within TOL.
    monkeypatch.setattr(resolvent, "REF_ORDER", 9)
    model, comp = route_runs["vacuum-1d"]
    info = compare_routes(model, comp.times).inversion_info
    assert info["ref_order"] == 9
    assert info["omega_max"] > 16.0
    assert info["error_estimate"] <= TOL


def test_contour_summed_again_evaluates_only_new_nodes(route_runs,
                                                       monkeypatch):
    # On vacuum-1d at order 9 the contour of 1,601 nodes is summed again on
    # one of 3,201 with the same h: its 1,601 inner nodes are the old ones,
    # so the transform is evaluated only at the 1,600 beyond them, and the
    # result is the sum with every node evaluated afresh.
    monkeypatch.setattr(resolvent, "REF_ORDER", 9)
    model, comp = route_runs["vacuum-1d"]
    apply = _generator_product(model)
    y = np.zeros(model.size, dtype=complex)
    y[0] = 1.0
    moments = [y[0]]
    for _ in range(9):
        y = -1j * apply(y)
        moments.append(y[0])

    def shifted(s):
        return resolvent.resolvent_a0_discrete(s - 1j * OMEGA0, model)

    with mock.patch.object(resolvent, "resolvent_a0_discrete",
                           wraps=resolvent.resolvent_a0_discrete) as spy:
        values, info = invert_laplace(shifted, moments, comp.times)
    sums = [call.args[0] for call in spy.call_args_list
            if np.size(call.args[0]) > 1]
    assert [s.size for s in sums] == [1_601, 1_600]
    nodes = np.concatenate(sums)
    n_half = (info["n_nodes"] - 1) // 2
    contour = (info["sigma"] + 1j * (np.arange(-n_half, n_half + 1)
                                     * info["h"]) - 1j * OMEGA0)
    np.testing.assert_array_equal(np.sort_complex(nodes),
                                  np.sort_complex(contour))
    fresh = bromwich_fresh_sum(shifted, moments, comp.times, info)
    assert np.max(np.abs(values - fresh)) <= 1e-14 * np.max(np.abs(fresh))


def test_bromwich_initial_value(route_runs):
    # t = 0 takes the contour sum like every other time; exactly, a0(0) = 1.
    _, comp = route_runs["vacuum-1d"]
    assert comp.times[0] == 0.0
    assert abs(comp.a0_resolvent[0] - 1.0) < 1e-10


#: Printed angular average of l^2 for the spherical shell.
PRINTED_L2 = Fraction(2, 7)

# Exact <l^2> for independent uniform unit vectors a, b, r, where
# l = a.b - (r.a)(r.b).  A uniform unit vector has <u_i u_j> = delta_ij / 3,
# and each term of <l^2> factorizes into these second moments (|r| = 1
# splits the last term into two independent ones).
_SECOND = Fraction(1, 3)
ISOTROPIC_L2 = (3 * _SECOND**2            # <(a.b)^2>
                - 2 * 3 * _SECOND**3      # -2 <(a.b)(r.a)(r.b)>
                + _SECOND * _SECOND)      # <(r.a)^2 (r.b)^2>


def test_criterion_4_angular_average():
    target = float(ISOTROPIC_L2)
    det = angular_average_l2()
    ok_det = abs(det - target) < 1e-6

    mc, stderr = angular_average_l2(samples=10**6, seed=42)
    sigma_iso = abs(mc - target) / stderr
    sigma_printed = abs(mc - float(PRINTED_L2)) / stderr
    ok_mc = sigma_iso < 3.0 and sigma_printed > 3.0

    report(4, ok_det and ok_mc,
           f"deterministic {det:.7f} vs isotropic 2/9 = {target:.7f} "
           f"(|diff| = {abs(det - target):.2e}, need < 1e-6); "
           f"MC {mc:.6f} is {sigma_iso:.1f} sigma from 2/9 (need < 3) and "
           f"{sigma_printed:.0f} sigma from printed 2/7 = "
           f"{float(PRINTED_L2):.7f} (need > 3)")


def test_criterion_5_shell_consistency():
    n_atoms, z, beta = 100, math.pi / 2.0, 0.01
    u_printed = analytic.reduction_shell(n_atoms, z, beta)
    u_iso = analytic.reduction_shell(
        n_atoms, z, beta, l2_average=analytic.L2_AVERAGE_ISOTROPIC)
    mc, mc_err = analytic.shell_reduction_mc(n_atoms, z, beta,
                                             10_000, seed=123)
    rel = abs(mc - u_iso) / abs(u_iso)
    # The printed default differs from the placement average only through
    # its l^2 moment, so its offset from the MC is fixed in closed form.
    gap = mc - u_printed
    gap_expected = (2.25 * beta * n_atoms * (math.sin(z) / z) ** 2
                    * float(PRINTED_L2 - ISOTROPIC_L2))
    ok_gap = abs(gap - gap_expected) <= 3.0 * mc_err
    report(5, rel <= 0.01 and ok_gap,
           f"MC over placements {mc:.6f} (+/- {mc_err:.1e}) vs "
           f"reduction_shell isotropic 2/9 {u_iso:.6f}: {rel:.2%} relative "
           f"(need <= 1%); printed 2/7 {u_printed:.6f} is {gap:.6f} below "
           f"the MC vs {gap_expected:.6f} predicted "
           f"({abs(gap - gap_expected) / mc_err:.1f} sigma, need <= 3)")


def test_criterion_6_special_functions():
    worst = 0.0
    for z in np.linspace(0.0, 50.0, 201):
        worst = max(worst, abs(s_func(z) - s_func_quadrature(z)),
                    abs(t_func(z) - t_func_quadrature(z)))
    ok_st = worst < 1e-10

    rng = np.random.default_rng(7)
    worst_pol = 0.0
    for _ in range(10_000):
        v = rng.normal(size=(3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        a, b, k = v
        ident = float(np.dot(a, b) - np.dot(a, k) * np.dot(b, k))
        worst_pol = max(worst_pol, abs(polarization_sum(a, b, k) - ident))
    ok_pol = worst_pol < 1e-14

    report(6, ok_st and ok_pol,
           f"s/t vs quadrature worst {worst:.1e} (need < 1e-10); "
           f"polarization identity worst {worst_pol:.1e} (need < 1e-14)")


def test_criterion_7_unitarity_and_onset(vacuum_run, toy_runs, full3d_runs):
    tol = 100.0 * SolverSpec().rtol
    drifts = [float(np.max(np.abs(vacuum_run["traj"].norm_drift)))]
    drifts += [float(np.max(np.abs(toy_runs[k]["traj"].norm_drift)))
               for k in ("vacuum", "detector")]
    drifts += full3d_runs["drift"]
    ok_drift = max(drifts) <= tol

    t = np.logspace(-3, -1, 25)
    traj = integrate(vacuum_run["model"], 0.1,
                     t_eval=np.concatenate(([0.0], t)))
    onset = 1.0 - traj.survival[1:]
    slope = float(np.polyfit(np.log(t), np.log(onset), 1)[0])
    ok_slope = abs(slope - 2.0) <= 0.1

    report(7, ok_drift and ok_slope,
           f"worst norm drift {max(drifts):.1e} (need <= {tol:.0e}); "
           f"early-time log-log slope {slope:.4f} (need 2.0 +/- 0.1)")


def test_criterion_8_node_property(full3d_runs):
    vac = full3d_runs["vacuum"]
    sweep = full3d_runs["sweep"]
    details = []
    ok = True
    for z, fit in sweep.items():
        sigma = math.hypot(vac.stderr, fit.stderr)
        n_sigma = (vac.rate - fit.rate) / sigma
        at_node = any(abs(z - nz) < 1e-9 for nz in NODE_Z)
        if at_node:
            ok_here = abs(n_sigma) <= 3.0
            details.append(f"z = {z:.3f} (node): {n_sigma:+.1f} sigma from "
                           f"vacuum rate (need within 3)")
        else:
            ok_here = n_sigma >= 3.0
            details.append(f"z = {z:.3f}: slowing {n_sigma:+.1f} sigma "
                           f"(need >= 3)")
        ok = ok and ok_here
    report(8, ok, "; ".join(details))


def test_criterion_9_normalization_report(capsys, full3d_runs):
    reports = analytic.normalization_report(BETA)
    ok_report = len(reports) == 2 and all(
        math.isfinite(r.oracle_ratio) and r.discrepancy >= 0.0
        for r in reports)
    for r in reports:
        print(f"z = {r.z}: raw-oracle / printed kernel ratio = "
              f"{r.oracle_ratio:.6f}; U spread general/far/near/oracle = "
              f"{r.discrepancy:.3e}")

    # Self-consistency: the oracle variant must agree with the dynamics of
    # the off-node detector run.
    off = full3d_runs["offnode"]
    u_fitted = off["fit"].rate / full3d_runs["vacuum"].rate
    geom = DipoleGeometry(p_a=ZHAT, p_d=ZHAT, r_hat=XHAT, z=off["z"])
    u_oracle = analytic.reduction_single(geom, BETA).u_oracle
    ok_dyn = abs(u_fitted - u_oracle) < 5e-3

    report(9, ok_report and ok_dyn,
           f"report generated for z = 0.05, 10; fitted U {u_fitted:.5f} vs "
           f"oracle U {u_oracle:.5f} (|diff| = {abs(u_fitted - u_oracle):.1e},"
           f" need < 5e-3)")


def test_criterion_lines_match_golden():
    # The criterion lines are half of the behaviour contract: each line the
    # criteria above printed must match tests/golden/criteria.txt byte for
    # byte.  Runs last, after the criteria it reads.
    if not CRITERION_LINES:
        pytest.skip("no criterion ran in this session")
    moves = criteria_moved(read_criteria(), CRITERION_LINES)
    assert not moves, ("criterion lines moved:\n  " + "\n  ".join(moves)
                       + versions_note())
