"""Unit conventions and shared domain types.

Everything downstream works in natural units: hbar = c = 1 and the
atomic transition frequency omega0 is the unit of frequency, OMEGA0 = 1.
It is fixed, not a setting.  Lengths are measured in units of c/omega0,
so the retardation argument z = omega0*r/c equals the plain coordinate
distance r.

The physical inputs are parametrized by the two observable strengths:
the vacuum decay rate ``gamma`` and the detector response ``beta``.  The raw
dipole matrix elements and the quantization volume never appear; they are
back-derived where a coupling constant is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

#: The atomic transition frequency, the unit of every frequency.
OMEGA0 = 1.0

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
    if not abs(norm - 1.0) <= _UNIT_NORM_TOL:
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
    origin; every detector atom has the same ionization dipole magnitude.
    """

    position: np.ndarray
    dipole_dir: np.ndarray

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
    """Dimensionless description of atom + detector, in the pole regime.

    gamma and beta are the observable strengths; the dipole magnitudes are
    derived properties.  The constructor refuses a system outside the
    regime the closed forms assume: 0 < gamma <= WW_GAMMA_CAP,
    0 < omega_i < omega0 and beta >= 0, each written so that NaN fails.
    omega0 is the unit, not a field; the read-only class attribute equal
    to OMEGA0 stays because perfbench/workloads.py reads system.omega0.
    """

    omega0: ClassVar[float] = OMEGA0
    gamma: float
    omega_i: float
    beta: float
    atom_dipole: AtomDipole = field(default_factory=_default_dipole)
    detector_atoms: tuple[DetectorAtom, ...] = ()

    def __post_init__(self):
        if not 0.0 < self.gamma <= WW_GAMMA_CAP:
            raise ValueError(f"gamma must satisfy 0 < gamma <= "
                             f"{WW_GAMMA_CAP}*omega0, got {self.gamma!r}")
        if not 0.0 < self.omega_i < OMEGA0:
            raise ValueError(f"omega_i must satisfy 0 < omega_i < omega0, "
                             f"got {self.omega_i!r}")
        if not self.beta >= 0.0:
            raise ValueError(f"beta must satisfy beta >= 0, got {self.beta!r}")
        object.__setattr__(self, "detector_atoms", tuple(self.detector_atoms))

    @property
    def mu_a(self) -> float:
        """Atomic dipole magnitude giving the configured vacuum rate."""
        return math.sqrt(3.0 * self.gamma / 4.0)

    @property
    def mu_c_sq_rho0(self) -> float:
        """|mu_c|^2 rho(omega0) implied by beta.

        The ionization continuum has a flat density of states, so this is
        the squared channel coupling per unit frequency at every channel.
        """
        return 3.0 * self.beta / (2.0 * math.pi)
