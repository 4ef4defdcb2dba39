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
)
from .model import DetectorAtom

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


def reduction_single(geom: DipoleGeometry, beta: float) -> ReductionReport:
    """Reduction factor of a single detector atom, all variants."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    z = geom.z
    l = dipole_factor_l(geom.p_a, geom.p_d, geom.r_hat)
    dp = d_func(geom)
    draw = d_oracle(geom)

    u_general = 1.0 - DEFICIT_COEFF * beta * dp * dp
    u_oracle = 1.0 - DEFICIT_COEFF * beta * draw * draw
    if z > 0.0:
        u_far = 1.0 - 2.25 * beta * (l * math.sin(z) / z) ** 2
    else:
        u_far = 1.0 - 2.25 * beta * l * l  # limit sin(z)/z -> 1
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


def reduction_multi(atoms: Sequence[DetectorAtom], p_a,
                    beta: float) -> float:
    """Additive far-field reduction factor for many detector atoms.

    May drop below zero for N*beta large; that regime is reported as-is with
    a warning because it signals that neglecting inter-atom coupling is no
    longer valid, which clamping would hide.
    """
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    deficit = 0.0
    for atom in atoms:
        r = atom.r  # positions are in units of c/omega0, so z = r
        if r == 0.0:
            raise ValueError("far-field formula is singular at r = 0")
        li = dipole_factor_l(p_a, atom.dipole_dir, atom.r_hat)
        deficit += (li * math.sin(r) / r) ** 2
    u = 1.0 - 2.25 * beta * deficit
    if u < 0.0:
        warnings.warn(
            "reduction factor below zero: additive single-atom deficits are "
            "outside their validity regime", stacklevel=2)
    return u


def reduction_shell(n_atoms: int, radius_z: float, beta: float,
                    l2_average: float = L2_AVERAGE_PRINTED) -> float:
    """Thin spherical shell of n_atoms at retarded radius radius_z.

    Uses the printed angular average 2/7 by default.  That default is *not*
    the placement average that shell_reduction_mc samples: for independent
    uniform detector dipoles and positions the average is 2/9, so pass
    L2_AVERAGE_ISOTROPIC for the closed form of that Monte Carlo.  The two
    differ by 2.25 beta n_atoms (sin z / z)^2 (2/7 - 2/9).
    """
    if n_atoms < 0:
        raise ValueError("n_atoms must be >= 0")
    if radius_z <= 0.0:
        raise ValueError("radius_z must be > 0")
    deficit = 2.25 * l2_average * beta * n_atoms * (
        math.sin(radius_z) / radius_z) ** 2
    return 1.0 - deficit


def shell_reduction_mc(n_atoms: int, radius_z: float, beta: float,
                       n_samples: int, seed: int | None = None,
                       ) -> tuple[float, float]:
    """Monte Carlo average of reduction_multi over uniform shell placements.

    Each sample draws n_atoms uniformly on the shell with independent uniform
    detector dipoles and a fixed emitter dipole.  Returns (mean, stderr);
    the standard error needs n_samples >= 2.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    p_a = np.array([0.0, 0.0, 1.0])
    sin_term = (math.sin(radius_z) / radius_z) ** 2
    values = np.empty(n_samples)
    for lo in range(0, n_samples, 512):
        # Each sample draws its n_atoms directions, then its n_atoms
        # dipoles, so the stream order does not depend on the chunking.
        v = rng.normal(size=(min(512, n_samples - lo), 2, n_atoms, 3))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        r_hat, p_d = v[:, 0], v[:, 1]
        l = (p_d @ p_a) - (r_hat @ p_a) * np.sum(r_hat * p_d, axis=-1)
        values[lo:lo + 512] = (1.0 - 2.25 * beta * sin_term
                               * np.sum(l * l, axis=-1))
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
