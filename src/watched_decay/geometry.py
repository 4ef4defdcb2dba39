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
is instead the transverse polarization sum integrated over the sphere of
propagation directions; the two kernels do *not* agree up to a constant,
and the discrepancy is surfaced by the reduction reports rather than
silently patched.

The raw spherical integral has the closed form

    2*pi * [ (p_d.p_a)(S + T/2) + (r.p_d)(r.p_a)(S - 3 T/2) ]

i.e. the combination obtained with *half* the integral T (equivalently
-S''(z)), which is how ``d_oracle`` evaluates it; the tests check it
against a direct per-direction quadrature.  That half-T kernel reproduces
both the far-field sin(z)/z limit and the z -> 0 limit of the reduction
factor, so the raw integral is the physically consistent choice for
quantitative work.

S and T come from the spherical Bessel functions j0 and j2, evaluated here
with ``math`` alone: j0 = sin z/z, and j2 from its power series at small z
and from the elementary form above that (DLMF 10.49.3, 10.53.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _as_unit_vector

TWO_PI = 2.0 * math.pi

# j2 comes from its power series up to this argument, from the elementary
# form above it.  Ten terms of the series reach double precision there.
_J2_SERIES_MAX = 2.0
_J2_SERIES_TERMS = 10


@dataclass(frozen=True, eq=False)
class DipoleGeometry:
    """Relative geometry of emitter dipole, detector dipole and separation.

    z is the dimensionless retardation omega0*r/c, which is the distance r
    in the natural units of ``model``.
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


def _j0(z: float) -> float:
    return math.sin(z) / z if z != 0.0 else 1.0


def _j2(z: float) -> float:
    """Spherical Bessel function j2(z) for z >= 0."""
    if z <= _J2_SERIES_MAX:
        # z^2 sum_k (-z^2/2)^k / (k! (2k+5)!!) in Horner form: the terms
        # fall fast here, so the sum keeps full relative accuracy at small
        # z, where the elementary form cancels, and it is 0 at z = 0.
        z2 = z * z
        p = 1.0
        for k in range(_J2_SERIES_TERMS, 0, -1):
            p = 1.0 - 0.5 * z2 * p / (k * (2 * k + 5))
        return z2 / 15.0 * p
    # (3/z^2 - 1) sin z/z - 3 cos z/z^2, written as the upward recurrence
    # j2 = 3 j1/z - j0 with j1 = (j0 - cos z)/z, the order of operations
    # scipy.special.spherical_jn uses, so that the two agree bit for bit.
    j0 = math.sin(z) / z
    j1 = (j0 - math.cos(z)) / z
    return 3.0 * j1 / z - j0


def s_func(z: float) -> float:
    """sin(z)/z, the spherical Bessel function j0(z)."""
    if z < 0.0:
        raise ValueError("z must be >= 0")
    return _j0(float(z))


def t_func(z: float) -> float:
    """int_{-1}^{1} xi^2 exp(-i z xi) dxi (real by symmetry).

    Closed form (2/3)(j0(z) - 2 j2(z)) in spherical Bessel functions.  The
    power series of j2 avoids the cancellation of the elementary form
    2 sin z/z + 4 cos z/z^2 - 4 sin z/z^3 at small z.
    """
    if z < 0.0:
        raise ValueError("z must be >= 0")
    z = float(z)
    return 2.0 / 3.0 * (_j0(z) - 2.0 * _j2(z))


def _kernel(geom: DipoleGeometry, t_weight: float) -> float:
    """(p_d.p_a)(S + wT) + (r.p_d)(r.p_a)(S - 3wT) with T weighted by w."""
    s = s_func(geom.z)
    t = t_weight * t_func(geom.z)
    ca = float(np.dot(geom.p_d, geom.p_a))
    cr = float(np.dot(geom.r_hat, geom.p_d) * np.dot(geom.r_hat, geom.p_a))
    return ca * (s + t) + cr * (s - 3.0 * t)


def d_func(geom: DipoleGeometry) -> float:
    """Printed angular kernel with the integral T convention."""
    return _kernel(geom, 1.0)


def _orthonormal_transverse(k_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit polarization vectors spanning the plane transverse to k_hat,
    for one unit 3-vector or for each row of an (N, 3) array of them."""
    # Pick the axis least aligned with k_hat to seed the cross products.
    seed = np.eye(3)[np.argmin(np.abs(k_hat), axis=-1)]
    e1 = np.cross(k_hat, seed)
    e1 /= np.linalg.norm(e1, axis=-1, keepdims=True)
    e2 = np.cross(k_hat, e1)
    return e1, e2


def d_oracle(geom: DipoleGeometry) -> float:
    """Raw spherical integral of the transverse polarization sum.

    sum_lambda (p_d.eps)(p_a.eps) exp(-i z k.r_hat) integrated over the
    unit sphere of propagation directions, evaluated in closed form as
    2*pi times the kernel with T replaced by -S'' = T/2.
    """
    return TWO_PI * _kernel(geom, 0.5)


def dipole_factor_l(p_a, p_d, r_hat) -> float:
    """p_d.p_a - (r.p_d)(r.p_a): transverse dipole-dipole overlap."""
    p_a = _as_unit_vector(p_a, "p_a")
    p_d = _as_unit_vector(p_d, "p_d")
    r_hat = _as_unit_vector(r_hat, "r_hat")
    return float(np.dot(p_d, p_a) - np.dot(r_hat, p_d) * np.dot(r_hat, p_a))
