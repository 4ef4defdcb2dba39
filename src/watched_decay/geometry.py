"""Angular special functions and dipole geometry factors.

The radiation kernel that couples two dipoles through the transverse field
reduces, after the polarization sum and the angular integration, to
combinations of

    S(z) = (1/2) * int_{-1}^{1} exp(-i z xi) dxi          = sin(z)/z
    T(z) =        int_{-1}^{1} xi^2 exp(-i z xi) dxi

and the directional dot products of the two dipole axes with the separation
direction.  ``d_func`` evaluates the combination

    D(z) = (p_d . p_a) (S + T) + (r . p_d)(r . p_a) (S - 3 T)

exactly as written, with T the integral definition above.  ``d_oracle``
instead integrates the transverse polarization sum over the sphere of
propagation directions directly; the two kernels do *not* agree up to a
constant, and the discrepancy is surfaced by the reduction reports rather
than silently patched.

Identity worth knowing: the raw spherical integral equals

    2*pi * [ (p_d.p_a)(S + T/2) + (r.p_d)(r.p_a)(S - 3 T/2) ]

i.e. the combination obtained with *half* the integral T (equivalently
-S''(z)).  That half-T kernel reproduces both the far-field sin(z)/z limit
and the z -> 0 limit of the reduction factor, so the raw integral is the
physically consistent choice for quantitative work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import _as_unit_vector

TWO_PI = 2.0 * math.pi

_S_SERIES_CUT = 1e-4
# The closed form for T cancels three powers of z, so it loses ~3|log10 z|
# digits; the switchover sits where series truncation and cancellation noise
# are both below 1e-13.
_T_SERIES_CUT = 0.1


@dataclass(frozen=True, eq=False)
class DipoleGeometry:
    """Relative geometry of emitter dipole, detector dipole and separation.

    z is the dimensionless retardation omega0*r/c.
    """

    p_a: np.ndarray
    p_d: np.ndarray
    r_hat: np.ndarray
    z: float

    def __post_init__(self):
        object.__setattr__(self, "p_a", _as_unit_vector(self.p_a, "p_a"))
        object.__setattr__(self, "p_d", _as_unit_vector(self.p_d, "p_d"))
        object.__setattr__(self, "r_hat", _as_unit_vector(self.r_hat, "r_hat"))
        if self.z < 0.0:
            raise ValueError("z must be >= 0")


def s_func(z: float) -> float:
    """sin(z)/z with the removable singularity handled by series."""
    if z < 0.0:
        raise ValueError("z must be >= 0")
    if z < _S_SERIES_CUT:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def t_func(z: float) -> float:
    """int_{-1}^{1} xi^2 exp(-i z xi) dxi (real by symmetry).

    Closed form 2 sin z/z + 4 cos z/z^2 - 4 sin z/z^3, series near z = 0.
    """
    if z < 0.0:
        raise ValueError("z must be >= 0")
    if z < _T_SERIES_CUT:
        # Term-by-term integration: sum_n (-1)^n z^(2n) * 2/((2n+3)(2n)!).
        z2 = z * z
        return 2.0 / 3.0 - z2 / 5.0 + z2 * z2 / 84.0 - z2 * z2 * z2 / 3240.0
    s, c = math.sin(z), math.cos(z)
    return 2.0 * s / z + 4.0 * c / z**2 - 4.0 * s / z**3


def d_func(geom: DipoleGeometry) -> float:
    """Printed angular kernel with the integral T convention."""
    s = s_func(geom.z)
    t = t_func(geom.z)
    ca = float(np.dot(geom.p_d, geom.p_a))
    cr = float(np.dot(geom.r_hat, geom.p_d) * np.dot(geom.r_hat, geom.p_a))
    return ca * (s + t) + cr * (s - 3.0 * t)


def d_func_half_t(geom: DipoleGeometry) -> float:
    """Angular kernel with T replaced by -S'' = T/2.

    Equals the raw spherical integral divided by 2*pi; reproduces the
    far-field and contact limits of the reduction factor.
    """
    s = s_func(geom.z)
    t = 0.5 * t_func(geom.z)
    ca = float(np.dot(geom.p_d, geom.p_a))
    cr = float(np.dot(geom.r_hat, geom.p_d) * np.dot(geom.r_hat, geom.p_a))
    return ca * (s + t) + cr * (s - 3.0 * t)


def _orthonormal_transverse(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit polarization vectors spanning the plane transverse to k_hat."""
    # Pick the axis least aligned with k_hat to seed the cross products.
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(k_hat)))] = 1.0
    e1 = np.cross(k_hat, seed)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(k_hat, e1)
    return e1, e2


def d_oracle(geom: DipoleGeometry) -> float:
    """Spherical-quadrature reconstruction of the angular kernel.

    Integrates sum_lambda (p_d.eps)(p_a.eps) exp(-i z k.r_hat) over the unit
    sphere of propagation directions with an explicit transverse polarization
    basis (max(24, floor(z) + 16) Gauss-Legendre nodes in cos(theta) x 16
    uniform in phi, theta measured from r_hat).  The imaginary part
    vanishes by symmetry and is dropped.  Returns the raw integral, which
    is 2*pi * d_func_half_t, as a Python float.
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


def dipole_factor_l(p_a, p_d, r_hat) -> float:
    """p_d.p_a - (r.p_d)(r.p_a): transverse dipole-dipole overlap."""
    p_a = _as_unit_vector(p_a, "p_a")
    p_d = _as_unit_vector(p_d, "p_d")
    r_hat = _as_unit_vector(r_hat, "r_hat")
    return float(np.dot(p_d, p_a) - np.dot(r_hat, p_d) * np.dot(r_hat, p_a))


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
