"""Closed-form decay rates and detector-induced reduction factors.

The vacuum decay rate is Gamma = 4 omega0^3 mu_a^2 / 3, and a detector atom
at retarded distance z = omega0*r/c multiplies it by a reduction factor
U <= 1.  In the natural units of ``model`` (omega0 = 1, lengths in c/omega0)
z is the plain distance r.  Several published variants of U exist and they are
*not* mutually consistent because of a normalization ambiguity in the
angular kernel; ``reduction_single`` therefore reports all of them side by
side together with a quadrature-oracle variant and their spread:

  u_general    1 - (9/64 pi^2) beta D^2        with the printed kernel D
  u_far_field  1 - (9/4) beta l^2 sin^2(z)/z^2 (z well into the wave zone)
  u_near_field 1 - beta (p_d.p_a)^2            (z -> 0 contact limit)
  u_oracle     1 - (9/64 pi^2) beta D_raw^2    with the raw spherical
               integral; this variant interpolates the far- and near-field
               limits exactly and matches the time-domain simulations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    DipoleGeometry,
    TWO_PI,
    d_func,
    d_oracle,
    dipole_factor_l,
    s_func,
)
from .model import DetectorAtom, _check_beta

#: Printed coefficient of the single-detector deficit.
DEFICIT_COEFF = 9.0 / (64.0 * math.pi**2)

#: Printed angular average of l^2 used by the spherical-shell formula.
#: Kept as printed, untuned.  It is *not* the placement average that
#: shell_reduction_mc samples (independent uniform detector dipoles and
#: positions); that average is L2_AVERAGE_ISOTROPIC.
L2_AVERAGE_PRINTED = 2.0 / 7.0

#: Isotropic average of l^2 for independent uniform orientations
#: (closed form 1/3 - 2/9 + 1/9 by moment algebra on the unit sphere).
L2_AVERAGE_ISOTROPIC = 2.0 / 9.0

#: Variance of l^2 over the same orientations, <l^4> - <l^2>^2 with
#: <l^4> = 8/75 (sin^4 of the emitter-to-separation angle averages 8/15,
#: and a uniform detector dipole gives the fourth moment 1/5 of it).
L2_VARIANCE_ISOTROPIC = 8.0 / 75.0 - 4.0 / 81.0

FAR_FIELD_THRESHOLD = TWO_PI
NEAR_FIELD_THRESHOLD = 0.1

#: Distances of normalization_report: near contact and in the wave zone.
NORMALIZATION_Z = (0.05, 10.0)


@dataclass
class ReductionReport:
    """All reduction-factor variants for one geometry, plus diagnostics."""

    z: float
    beta: float
    l: float
    d_printed: float
    d_oracle_raw: float
    u_general: float
    u_far_field: float
    u_near_field: float
    u_oracle: float
    far_field_applicable: bool
    near_field_applicable: bool
    discrepancy: float
    #: d_oracle_raw / d_printed where d_printed is nonzero (else nan);
    #: constant only channel-by-channel, which is the point of reporting it.
    oracle_ratio: float = float("nan")


def _check_radius(radius_z: float) -> None:
    """Refuse a shell radius outside (0, inf), written so that NaN fails."""
    if not 0.0 < radius_z < math.inf:
        raise ValueError(f"radius_z must satisfy 0 < radius_z < inf, "
                         f"got {radius_z!r}")


def _far_field_deficit(beta: float, l2_sum, z: float):
    """(9/4) beta (sin z / z)^2 l2_sum: the far-field deficit of atoms at
    retardation z whose l^2 sum (or its spread) is l2_sum, also an array."""
    return 2.25 * beta * s_func(z) ** 2 * l2_sum


def reduction_single(geom: DipoleGeometry, beta: float) -> ReductionReport:
    """Reduction factor of a single detector atom, all variants."""
    _check_beta(beta)
    z = geom.z
    l = dipole_factor_l(geom.p_a, geom.p_d, geom.r_hat)
    dp = d_func(geom)
    draw = d_oracle(geom)

    u_general = 1.0 - DEFICIT_COEFF * beta * dp * dp
    u_oracle = 1.0 - DEFICIT_COEFF * beta * draw * draw
    u_far = 1.0 - _far_field_deficit(beta, l * l, z)
    cos_pd_pa = float(np.dot(geom.p_d, geom.p_a))
    u_near = 1.0 - beta * cos_pd_pa**2

    far_ok = z > FAR_FIELD_THRESHOLD
    near_ok = z < NEAR_FIELD_THRESHOLD
    variants = [u_general, u_oracle]
    if far_ok:
        variants.append(u_far)
    if near_ok:
        variants.append(u_near)
    disc = max(abs(a - b) for a in variants for b in variants)

    ratio = draw / dp if dp != 0.0 else float("nan")
    return ReductionReport(
        z=z, beta=beta, l=l, d_printed=dp, d_oracle_raw=draw,
        u_general=u_general, u_far_field=u_far, u_near_field=u_near,
        u_oracle=u_oracle, far_field_applicable=far_ok,
        near_field_applicable=near_ok, discrepancy=disc, oracle_ratio=ratio,
    )


def _warn_below_zero(u: float) -> float:
    """u as-is, with a warning at the public caller's caller when u < 0."""
    if u < 0.0:
        warnings.warn(
            "reduction factor below zero: additive single-atom deficits are "
            "outside their validity regime", stacklevel=3)
    return u


def reduction_multi(atoms: Sequence[DetectorAtom], p_a,
                    beta: float) -> float:
    """Additive far-field reduction factor for many detector atoms.

    May drop below zero for N*beta large; that regime is reported as-is with
    a warning because it signals that neglecting inter-atom coupling is no
    longer valid, which clamping would hide.
    """
    _check_beta(beta)
    deficit = 0.0
    for atom in atoms:
        # r_hat refuses an atom at the origin; z = r in units of c/omega0.
        li = dipole_factor_l(p_a, atom.dipole_dir, atom.r_hat)
        deficit += _far_field_deficit(beta, li * li, atom.r)
    return _warn_below_zero(1.0 - deficit)


def reduction_shell(n_atoms: int, radius_z: float, beta: float,
                    l2_average: float = L2_AVERAGE_PRINTED) -> float:
    """Thin spherical shell of n_atoms at retarded radius radius_z.

    Uses the printed angular average 2/7 by default.  That default is *not*
    the placement average that shell_reduction_mc samples: for independent
    uniform detector dipoles and positions the average is 2/9, so pass
    L2_AVERAGE_ISOTROPIC for the closed form of that Monte Carlo.  The two
    differ by 2.25 beta n_atoms (sin z / z)^2 (2/7 - 2/9).  Like
    reduction_multi, it warns when U drops below zero.
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be >= 0")
    _check_radius(radius_z)
    _check_beta(beta)
    return _warn_below_zero(
        1.0 - _far_field_deficit(beta, l2_average * n_atoms, radius_z))


def shell_placement_spread(n_atoms: int, radius_z: float,
                           beta: float) -> float:
    """Standard deviation of U over uniform shell placements.

    The atoms' l^2 are independent, each with variance
    L2_VARIANCE_ISOTROPIC, so the deficit's variance is n_atoms times
    that.  This is the spread about reduction_shell(...,
    L2_AVERAGE_ISOTROPIC), the placement average.
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be >= 0")
    _check_radius(radius_z)
    _check_beta(beta)
    return _far_field_deficit(
        beta, math.sqrt(n_atoms * L2_VARIANCE_ISOTROPIC), radius_z)


def shell_reduction_mc(n_atoms: int, radius_z: float, beta: float,
                       n_samples: int, seed: int | None = None,
                       ) -> tuple[float, float]:
    """Monte Carlo average of reduction_multi over uniform shell placements.

    Each sample draws n_atoms uniformly on the shell with independent uniform
    detector dipoles and a fixed emitter dipole.  Returns (mean, stderr);
    the standard error needs n_samples >= 2.  The closed forms
    reduction_shell(..., L2_AVERAGE_ISOTROPIC) and shell_placement_spread
    give its mean and per-sample spread; it is the sampled reference they
    are checked against.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    p_a = np.array([0.0, 0.0, 1.0])
    values = np.empty(n_samples)
    for lo in range(0, n_samples, 512):
        # Each sample draws its n_atoms directions, then its n_atoms
        # dipoles, so the stream order does not depend on the chunking.
        v = rng.normal(size=(min(512, n_samples - lo), 2, n_atoms, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        r_hat, p_d = v[:, 0], v[:, 1]
        l = (p_d @ p_a) - (r_hat @ p_a) * np.sum(r_hat * p_d, axis=-1)
        values[lo:lo + 512] = 1.0 - _far_field_deficit(
            beta, np.sum(l * l, axis=-1), radius_z)
    mean = float(np.mean(values))
    stderr = float(np.std(values, ddof=1) / math.sqrt(n_samples))
    return mean, stderr


def normalization_report(beta: float) -> list[ReductionReport]:
    """Kernel-normalization discrepancy at the NORMALIZATION_Z distances.

    Uses the parallel-dipoles-perpendicular-to-separation geometry (l = 1)
    and returns one ReductionReport per z, carrying the printed/oracle kernel
    ratio and the spread among the U variants.
    """
    p_a = np.array([0.0, 0.0, 1.0])
    r_hat = np.array([1.0, 0.0, 0.0])
    reports = []
    for z in NORMALIZATION_Z:
        geom = DipoleGeometry(p_a=p_a, p_d=p_a, r_hat=r_hat, z=float(z))
        reports.append(reduction_single(geom, beta))
    return reports
