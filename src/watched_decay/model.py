"""Unit conventions and shared domain types.

Everything downstream works in natural units: hbar = c = 1 and all
frequencies measured in units of the atomic transition frequency, so
omega0 = 1 unless a caller deliberately rescales.  Lengths are measured in
units of c/omega0, which makes the retardation argument omega0*r/c equal to
the plain coordinate distance.

The physical inputs are parametrized by the two observable strengths:
the vacuum decay rate ``gamma`` and the detector response ``beta``.  The raw
dipole matrix elements and the quantization volume never appear; they are
back-derived where a coupling constant is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: Hard cap on gamma/omega0.  The exponential-decay (pole) approximation that
#: all closed-form results rely on assumes the linewidth is small compared to
#: the transition frequency.
WW_GAMMA_CAP = 0.1

_UNIT_NORM_TOL = 1e-12


def _as_unit_vector(v: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    norm = float(np.linalg.norm(arr))
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise ValueError(f"{name} must be unit-norm (|v| = {norm!r})")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AtomDipole:
    """Orientation of the emitting atom's transition dipole."""

    dipole_dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "dipole_dir", _as_unit_vector(self.dipole_dir, "dipole_dir")
        )


@dataclass(frozen=True, eq=False)
class DetectorAtom:
    """A single ionizable detector atom.

    position is measured in units of c/omega0 from the emitting atom at the
    origin; mu_c_scale multiplies the common ionization dipole magnitude and
    is 1.0 for identical atoms.
    """

    position: np.ndarray
    dipole_dir: np.ndarray
    mu_c_scale: float = 1.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError("position must be a 3-vector")
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        object.__setattr__(
            self, "dipole_dir", _as_unit_vector(self.dipole_dir, "dipole_dir")
        )

    @property
    def r(self) -> float:
        return float(np.linalg.norm(self.position))

    @property
    def r_hat(self) -> np.ndarray:
        r = self.r
        if r == 0.0:
            raise ValueError("detector atom at the origin has no direction")
        return self.position / r


def _default_dipole() -> AtomDipole:
    return AtomDipole(np.array([0.0, 0.0, 1.0]))


@dataclass(frozen=True, eq=False)
class PhysicalSystem:
    """Dimensionless description of atom + detector.

    gamma and beta are the observable strengths; the dipole magnitudes are
    derived properties.
    """

    gamma: float
    omega_i: float
    beta: float
    omega0: float = 1.0
    atom_dipole: AtomDipole = field(default_factory=_default_dipole)
    detector_atoms: tuple[DetectorAtom, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "detector_atoms", tuple(self.detector_atoms))

    @property
    def mu_a(self) -> float:
        """Atomic dipole magnitude giving the configured vacuum rate."""
        return math.sqrt(3.0 * self.gamma / (4.0 * self.omega0**3))

    @property
    def mu_c_sq_rho0(self) -> float:
        """|mu_c|^2 rho(omega0) implied by beta.

        The ionization continuum has a flat density of states, so this is
        the squared channel coupling per unit frequency at every channel.
        """
        return 3.0 * self.beta / (2.0 * math.pi * self.omega0**3)


def validate(system: PhysicalSystem) -> list[str]:
    """Check the hard invariants of a system.

    Returns the violated invariants; an empty list means every downstream
    constructor will accept the system.
    """
    v = []
    if not system.omega0 > 0.0:
        v.append("omega0 > 0")
    if not system.gamma > 0.0:
        v.append("gamma > 0")
    elif system.gamma > WW_GAMMA_CAP * system.omega0:
        v.append(f"gamma <= {WW_GAMMA_CAP}*omega0")
    if not (0.0 < system.omega_i < system.omega0):
        v.append("0 < omega_i < omega0")
    if system.beta < 0.0:
        v.append("beta >= 0")
    for i, atom in enumerate(system.detector_atoms):
        if atom.mu_c_scale < 0.0:
            v.append(f"detector_atoms[{i}].mu_c_scale >= 0")
    return v
