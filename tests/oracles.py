"""Reference implementations that the tests compare the package against.

Each oracle evaluates a quantity the slow, direct way: the defining
integrals of S and T by adaptive quadrature, the transverse polarization
sum with an explicit basis, the raw spherical integral behind
``geometry.d_oracle`` direction by direction, the isotropic average of
l^2 by product quadrature or Monte Carlo, and the excited-state resolvent
by a dense solve over the full channel block instead of the rank-per-atom
elimination.  ``chebyshev_moments`` runs the propagator's moment
recursion one order at a time, with a dot product pair per order, and
``bromwich_fresh_sum`` takes the Bromwich inversion's sum on its final
contour in one pass.  ``spectral_interval_by_ends`` bisects the
propagator's spectral interval one end after the other, one inertia
test per call, where the package bisects both ends in lockstep.
``mode_sums`` takes the resolvent's kernel sums mode by mode, where the
package takes them shell by shell.  ``self_energy`` is no oracle: it
exposes the package's own rank-per-atom self-energy, which only the tests
need on its own.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from watched_decay.discretize import DiscreteModel
from watched_decay.dynamics import (
    INTERVAL_STEPS,
    MOMENT_SLACK,
    IntegrationError,
    _generator_product,
)
from watched_decay.geometry import TWO_PI, DipoleGeometry, _orthonormal_transverse
from watched_decay.model import OMEGA0, _as_unit_vector
from watched_decay.resolvent import (
    _as_s_array,
    _inertia_tests,
    _phase_sums,
    _sigma,
)


def s_func_quadrature(z: float) -> float:
    """Adaptive-quadrature evaluation of the defining integral for S."""
    val, _ = quad(lambda xi: 0.5 * math.cos(z * xi), -1.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def t_func_quadrature(z: float) -> float:
    """Adaptive-quadrature evaluation of the defining integral for T."""
    val, _ = quad(lambda xi: xi * xi * math.cos(z * xi), -1.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def polarization_sum(a, b, k_hat) -> float:
    """sum_lambda (a.eps_lambda)(b.eps_lambda) over a transverse basis."""
    a = _as_unit_vector(a, "a")
    b = _as_unit_vector(b, "b")
    k_hat = _as_unit_vector(k_hat, "k_hat")
    e1, e2 = _orthonormal_transverse(k_hat)
    return float(np.dot(a, e1) * np.dot(b, e1) + np.dot(a, e2) * np.dot(b, e2))


def d_oracle_quadrature(geom: DipoleGeometry) -> float:
    """Spherical-quadrature reconstruction of the angular kernel.

    Integrates sum_lambda (p_d.eps)(p_a.eps) exp(-i z k.r_hat) over the unit
    sphere of propagation directions with an explicit transverse polarization
    basis (max(24, floor(z) + 16) Gauss-Legendre nodes in cos(theta) x 16
    uniform in phi, theta measured from r_hat).  The imaginary part
    vanishes by symmetry and is dropped.  Returns the raw integral, which
    ``geometry.d_oracle`` evaluates in closed form, as a Python float.
    """
    n_theta = max(24, int(geom.z) + 16)
    n_phi = 16
    # Rotate so the polar axis is the separation direction: the remaining
    # phi dependence is a trigonometric polynomial of degree <= 2, which the
    # uniform phi rule integrates exactly for n_phi >= 5.
    e3 = geom.r_hat
    e1, e2 = _orthonormal_transverse(e3)

    x, w = leggauss(n_theta)            # x = cos(theta)
    phi = TWO_PI * np.arange(n_phi) / n_phi
    w_phi = TWO_PI / n_phi

    sin_th = np.sqrt(1.0 - x**2)
    total = 0.0
    for xi, wi, st in zip(x, w, sin_th):
        k_hats = (st * np.cos(phi)[:, None] * e1
                  + st * np.sin(phi)[:, None] * e2
                  + xi * e3)
        phase = math.cos(geom.z * xi)   # Re exp(-i z cos(theta))
        for k_hat in k_hats:
            eps1, eps2 = _orthonormal_transverse(k_hat)
            pol = (np.dot(geom.p_d, eps1) * np.dot(geom.p_a, eps1)
                   + np.dot(geom.p_d, eps2) * np.dot(geom.p_a, eps2))
            total += wi * w_phi * pol * phase
    return float(total)


def angular_average_l2(order: int | None = None,
                       samples: int | None = None,
                       seed: int | None = None) -> float | tuple[float, float]:
    """Average of l^2 over independent uniform orientations.

    Deterministic product quadrature by default (``order`` Gauss-Legendre
    nodes per polar angle); pass ``samples`` (+ ``seed``) for the Monte Carlo
    cross-check instead, which returns (mean, standard error) like
    ``analytic.shell_reduction_mc``.  The closed-form limit of the isotropic
    average is 2/9 = 1/3 - 2/9 + 1/9 by moment algebra on the unit sphere.
    """
    if samples is not None:
        rng = np.random.default_rng(seed)

        def unit(n):
            v = rng.normal(size=(n, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        a, b, r = unit(samples), unit(samples), unit(samples)
        l = (np.sum(a * b, axis=1)
             - np.sum(r * a, axis=1) * np.sum(r * b, axis=1))
        l_sq = l * l
        return (float(np.mean(l_sq)),
                float(np.std(l_sq, ddof=1) / math.sqrt(samples)))

    if order is None:
        order = 12
    # Isotropy: fix p_a = z.  Average over r_hat polar angle, and over the
    # detector dipole's polar/azimuthal angles relative to the same frame.
    x_r, w_r = leggauss(order)       # cos(theta_r), r_hat in the xz plane
    x_d, w_d = leggauss(order)       # cos(theta_d)
    n_phi = max(8, order)
    phi = TWO_PI * np.arange(n_phi) / n_phi

    cr = x_r[:, None, None]
    sr = np.sqrt(1.0 - x_r**2)[:, None, None]
    cd = x_d[None, :, None]
    sd = np.sqrt(1.0 - x_d**2)[None, :, None]
    cp = np.cos(phi)[None, None, :]

    # p_a = (0,0,1); r_hat = (sr, 0, cr); p_d = (sd cos(phi), sd sin(phi), cd)
    pd_dot_pa = cd
    r_dot_pa = cr
    r_dot_pd = sr * sd * cp + cr * cd
    l = pd_dot_pa - r_dot_pd * r_dot_pa
    wt = (w_r[:, None, None] / 2.0) * (w_d[None, :, None] / 2.0) / n_phi
    return float(np.sum(wt * l * l))


def resolvent_a0_dense(s: complex, model: DiscreteModel) -> complex:
    """A0(s) via the explicit channel-block linear solve."""
    s = complex(s)
    denom_k = 1.0 / (s + 1j * model.mode_omegas)
    K = np.sum(np.abs(model.mode_alphas) ** 2 * denom_k)
    if model.n_atoms == 0 or model.n_channels == 0:
        return 1.0 / (s + 1j * model.omega_a + K)
    f = model.detector_factors
    m = model.channel_mu
    n_atoms, n_ch = model.n_atoms, model.n_channels
    dim = n_atoms * n_ch

    # Channel-space propagators, flattened (atom, channel) index.
    J_ac = (denom_k * model.mode_alphas) @ np.conj(f)          # (A,)
    J_ca = (denom_k * np.conj(model.mode_alphas)) @ f          # (A,)
    G = np.einsum("k,ki,kj->ij", denom_k, f, np.conj(f))       # (A, A)

    M_ac = (m[None, :] * J_ac[:, None]).reshape(dim)
    M_ca = (m[None, :] * J_ca[:, None]).reshape(dim)
    N = np.kron(G, np.outer(m, m))
    diag = np.tile(s + 1j * model.channel_omegas, n_atoms)
    # a_c = A_c per unit A0; the deficit M_ac . a_c joins K in the
    # denominator (the elimination is exact, not a first-order expansion).
    a_c = np.linalg.solve(np.diag(diag) + N, -M_ca)
    return 1.0 / (s + 1j * model.omega_a + K + M_ac @ a_c)


def mode_sums(block: np.ndarray, model: DiscreteModel):
    """K, J_ac, J_ca, G and L over a column block[b, 0] of s, each a sum
    over the model's modes (channels for L) with its own propagator
    d_k = 1 / (s + i w_k); see ``resolvent._kernel_sums``."""
    alpha = model.mode_alphas
    denom = 1.0 / (block + 1j * model.mode_omegas)
    k = denom @ (np.abs(alpha) ** 2)
    if not (model.n_atoms and model.n_channels):
        return k, None, None, None, None
    f = model.detector_factors
    fc = np.conj(f)
    J_ac = (denom * alpha) @ fc
    J_ca = (denom * np.conj(alpha)) @ f
    G = (denom[:, None, :] * f.T) @ fc
    L = np.sum(model.channel_mu**2 / (block + 1j * model.channel_omegas),
               axis=1)
    return k, J_ac, J_ca, G, L


def self_energy(s, model: DiscreteModel):
    """K(s) minus the detector deficit: the full denominator correction.

    K(s) = sum_k |alpha_k|^2 / (s + i omega_k) is the self-energy of a
    model without detector atoms.
    """
    s_arr, scalar = _as_s_array(s)
    sigma = _sigma(s_arr, model)
    return complex(sigma[0]) if scalar else sigma


def chebyshev_moments(model: DiscreteModel, c: float, r: float,
                      n: int) -> np.ndarray:
    """mu_0 .. mu_2n of (H - c) / r, one order at a time.

    The recursion t_k+1 = (2 / r) (H - c) t_k - t_k-1 through three
    vectors, with mu_2k-1 = 2 Re <t_k|t_k-1> - mu_1 and
    mu_2k = 2 <t_k|t_k> - mu_0 from ``np.vdot`` at each order.  Raises
    IntegrationError, as the propagator does, at the first order whose
    moments leave [-1, 1] by more than MOMENT_SLACK.
    """
    apply = _generator_product(model, c, r)
    prev, cur, nxt = (np.zeros(model.size, dtype=complex) for _ in range(3))
    mu = np.empty(2 * n + 1)
    prev[0] = 1.0
    apply(prev, cur)
    cur *= 0.5
    mu[0], mu[1] = 1.0, cur[0].real
    limit = 1.0 + MOMENT_SLACK
    for k in range(1, n + 1):                 # cur = t_k, prev = t_k-1
        if k > 1:
            apply(cur, nxt, prev)
            prev, cur, nxt = cur, nxt, prev
        mu[2 * k - 1] = 2.0 * np.vdot(cur, prev).real - mu[1]
        mu[2 * k] = 2.0 * np.vdot(cur, cur).real - mu[0]
        if not (abs(mu[2 * k - 1]) <= limit and abs(mu[2 * k]) <= limit):
            raise IntegrationError(
                f"Chebyshev moments {2 * k - 1} and {2 * k} are "
                f"{mu[2 * k - 1]:.3g} and {mu[2 * k]:.3g}, outside "
                f"[-1, 1]: the spectral interval c = {c:.6g}, "
                f"r = {r:.6g} is too small")
    return mu


def _spectrum_top(model: DiscreteModel, sign: float, lo: float,
                  hi: float) -> float:
    """Least tested lam above every eigenvalue of sign H, bisected from
    the bracket (lo, hi) one inertia test at a time; it stops early once
    the midpoint is no longer strictly inside the bracket."""
    for _ in range(INTERVAL_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _inertia_tests(model, np.array([mid]), np.array([sign]))[0]:
            hi = mid
        else:
            lo = mid
    return hi


def spectral_interval_by_ends(model: DiscreteModel) -> tuple[float, float]:
    """Centre c and half-width r of the propagator's spectral interval,
    with the top end bisected to the end before the bottom one starts.

    Each end's bracket runs from the diagonal's range to Weyl's bound, as
    in ``dynamics._spectral_interval``.
    """
    diag = np.concatenate(([model.omega_a], model.mode_omegas,
                           model.channel_omegas)) - OMEGA0
    lo, hi = float(np.min(diag)), float(np.max(diag))
    off = float(np.linalg.norm(model.mode_alphas))
    if model.n_atoms and model.n_channels:
        off += float(np.linalg.norm(model.detector_factors, 2)
                     * np.linalg.norm(model.channel_mu))
    top = _spectrum_top(model, 1.0, hi, hi + off)
    bottom = -_spectrum_top(model, -1.0, -lo, -lo + off)
    half = 0.5 * (top - bottom)
    return 0.5 * (top + bottom), half if half > 0.0 else 1.0


def bromwich_fresh_sum(f, moments, t, info: dict) -> np.ndarray:
    """The trapezoidal Bromwich sum on the contour ``info`` describes,
    with f evaluated at every node in one call.

    info is what ``resolvent.invert_laplace`` returns for f, moments and
    t.  The reference sum_p b_p / (s + c)^(p+1), b_p the moments
    re-expanded about -c = -info["c_ref"], is inverted in closed form and
    its remainder summed with the inversion's own phase sum, so this is
    the inversion's result when it takes no value from an earlier
    contour.
    """
    t = np.asarray(t, dtype=float)
    m = np.asarray(moments, dtype=complex)
    c, h, sigma = info["c_ref"], info["h"], info["sigma"]
    b = [sum(math.comb(p, k) * c ** (p - k) * m[k] for k in range(p + 1))
         for p in range(m.size)]
    n_half = (info["n_nodes"] - 1) // 2
    s = sigma + 1j * ((np.arange(info["n_nodes"]) - n_half) * h)
    u = 1.0 / (s + c)
    ref = np.zeros_like(u)
    for b_p in b[::-1]:
        ref = u * (b_p + ref)
    g = np.asarray(f(s)) - ref
    g[[0, -1]] *= 0.5
    inner, outer = _phase_sums(g, h, t, 0.5 * info["omega_max"])
    reference = np.exp(-c * t) * sum(
        b_p * t**p / math.factorial(p) for p, b_p in enumerate(b))
    return reference + (h / TWO_PI) * np.exp(sigma * t) * (inner + outer)
