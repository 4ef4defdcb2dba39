"""Reference implementations that the tests compare the package against.

Each oracle evaluates a quantity the slow, direct way: the defining
integrals of S and T by adaptive quadrature, the transverse polarization
sum with an explicit basis, and the excited-state resolvent by a dense
solve over the full channel block instead of the rank-per-atom
elimination.
"""

import math

import numpy as np
from scipy.integrate import quad

from watched_decay.discretize import DiscreteModel
from watched_decay.geometry import _orthonormal_transverse
from watched_decay.model import _as_unit_vector
from watched_decay.resolvent import k_discrete


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


def resolvent_a0_dense(s: complex, model: DiscreteModel) -> complex:
    """A0(s) via the explicit channel-block linear solve."""
    s = complex(s)
    K = k_discrete(s, model)
    if model.n_atoms == 0 or model.n_channels == 0:
        return 1.0 / (s + 1j * model.omega_a + K)
    denom_k = 1.0 / (s + 1j * model.mode_omegas)
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
