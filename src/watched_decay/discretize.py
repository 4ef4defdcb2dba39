"""Finite mode and channel grids standing in for the radiation continuum.

A DiscreteModel carries photon modes (omega_k, alpha_k) with the quadrature
weight absorbed into the coupling, so every continuum kernel becomes a plain
finite sum, and ionization channels (omega_c, mu_c_eff) likewise.  Detector
couplings factorize exactly as g_{k,c,i} = mu_c_eff(c) * f_{k,i}; the
per-mode detector factors f are stored independently of alpha_k (never
obtained by dividing out the atom factor) so degenerate dipole geometries
need no special-casing.

Frequencies are in units of omega0 (OMEGA0 = 1).  Coupling
normalization: the vacuum coupling density is
|alpha(omega)|^2 = (gamma/2 pi) omega^3 per unit frequency, which makes the
discrete atom kernel reproduce Re K(-i omega0 + 0) = gamma/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import TWO_PI, _orthonormal_transverse
from .model import OMEGA0, WW_GAMMA_CAP, PhysicalSystem

#: Half-width of the band about omega0 whose largest spacing sets t_rec,
#: and through t_rec the evaluation width of resolvent.ww_pole.
RECURRENCE_WINDOW = 0.1
#: Width of the sum-rule window centred on omega0.
SUM_RULE_WINDOW = 0.05
#: Upper end of the photon-mode grid.
OMEGA_CUT = 4.0
#: Upper end of the ionization-channel grid.
CHANNEL_CUT = 3.0
#: Half-width of the detector response band (full-3d only): the detector
#: coupling carries a form factor that is 1 within omega0 +/- DETECTOR_BAND
#: and rolls smoothly to 0 by twice that distance.  Without it the
#: principal-value parts of the detector kernels are dominated by spurious
#: cutoff-boundary contributions that can flip the sign of the slowing.
DETECTOR_BAND = 0.05


class GridError(ValueError):
    """A grid specification cannot produce a usable model."""


class SumRuleError(GridError):
    """Discrete coupling density near omega0 misses the configured rate."""


class RecurrenceError(GridError):
    """Grid too coarse for the requested simulation horizon."""


@dataclass(frozen=True)
class GridSpec:
    """Discretization knobs for the photon and ionization continua."""

    n_modes: int = 400
    scheme: str = "gauss"          # "gauss": Legendre panels split at omega0
    n_theta: int = 16              # full-3d only
    n_phi: int = 8                 # full-3d only
    n_channels: int = 200
    channel_scheme: str = "gauss"

    def __post_init__(self):
        if self.scheme not in ("gauss", "uniform"):
            raise GridError(f"unknown scheme {self.scheme!r}")
        if self.channel_scheme not in ("gauss", "uniform"):
            raise GridError(f"unknown channel scheme {self.channel_scheme!r}")
        if min(self.n_modes, self.n_theta, self.n_phi) < 1:
            raise GridError("n_modes, n_theta and n_phi must be at least 1")
        if self.n_channels < 0:
            raise GridError("n_channels must be non-negative")


@dataclass(frozen=True)
class ToySpec:
    """Dipole-pattern-free single-detector model for end-to-end tests.

    Its grids are uniform on [0, OMEGA_CUT] and [0.3, CHANNEL_CUT].
    """

    gamma: float = 0.01
    beta_toy: float = 0.05
    r: float = 0.0
    n_modes: int = 200
    n_channels: int = 60

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.beta_toy >= 0.0):
            raise GridError("toy needs gamma > 0 and beta_toy >= 0")
        if self.gamma > WW_GAMMA_CAP:
            raise GridError(f"toy gamma must be at most {WW_GAMMA_CAP} "
                            "(pole regime)")
        if self.n_modes < 1:
            raise GridError("n_modes must be at least 1")
        if self.n_channels < 0:
            raise GridError("n_channels must be non-negative")


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Finite proxy of atom + field (+ detector) ready for both routes."""

    mode_omegas: np.ndarray        # (K,)
    mode_alphas: np.ndarray        # (K,) complex
    detector_factors: np.ndarray   # (K, A) complex; A = 0 without detector
    channel_omegas: np.ndarray     # (C,)
    channel_mu: np.ndarray         # (C,) real effective weights
    t_rec: float
    #: Bare atom frequency, including the counterterm that absorbs the
    #: principal-value (level-shift) part of the coupling kernel so the
    #: dressed resonance sits at omega0.  The cutoff omega^3 profile pulls
    #: the pole down by several linewidths otherwise, and the closed-form
    #: rates all discard that shift.
    omega_a: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mode_omegas", "mode_alphas", "detector_factors",
                     "channel_omegas", "channel_mu"):
            getattr(self, name).setflags(write=False)
        if np.any(self.mode_omegas <= 0.0):
            raise GridError("all mode frequencies must be positive")
        if self.channel_omegas.size and np.any(self.channel_omegas <= 0.0):
            raise GridError("all channel frequencies must be positive")
        for name in ("mode_alphas", "detector_factors", "channel_mu"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise GridError(f"{name} must be finite")

    @property
    def n_modes(self) -> int:
        return self.mode_omegas.size

    @property
    def n_atoms(self) -> int:
        return self.detector_factors.shape[1]

    @property
    def n_channels(self) -> int:
        return self.channel_omegas.size

    @property
    def size(self) -> int:
        """Total amplitude count (excited state + modes + channels)."""
        return 1 + self.n_modes + self.n_atoms * self.n_channels


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    """leggauss(n), computed once per order and returned read-only."""
    x, w = leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_panels(edges: list[float], n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels, n_total overall."""
    n_panels = len(edges) - 1
    base, extra = divmod(n_total, n_panels)
    nodes, weights = [], []
    for i in range(n_panels):
        n = base + (1 if i < extra else 0)
        x, w = _leggauss(n)
        a, b = edges[i], edges[i + 1]
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _uniform_midpoint(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    h = (b - a) / n
    nodes = a + (np.arange(n) + 0.5) * h
    return nodes, np.full(n, h)


def _frequency_grid(scheme: str, a: float, b: float,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [a, b]; Gauss panels split at omega0."""
    if scheme == "gauss":
        edges = [a, OMEGA0, b] if a < OMEGA0 < b else [a, b]
        return _gauss_panels(edges, n)
    return _uniform_midpoint(a, b, n)


def recurrence_time(omegas: np.ndarray) -> float:
    """2 pi over the largest grid spacing near omega0: the horizon.

    A discrete set of modes stands in for the continuum only until its
    spacing shows: modes spaced d apart near the resonance rephase, and
    the amplitude they carried away starts to return, after 2 pi / d.  On
    an uneven grid the widest gap shows first, so the horizon is set by
    the largest spacing within |omega - omega0| <= RECURRENCE_WINDOW (the
    global largest when fewer than two modes sit there), and it is the
    time up to which the grid resolves the resonance.  It is a necessary
    limit, not a sufficient one: a default vacuum run fitted up to
    0.9 t_rec reads rate / (gamma Z) 1.3e-3 below its converged value on
    400 Gauss modes (t_rec 783) and 5.9e-3 above it on 800 (t_rec 1,505).
    """
    uniq = np.unique(np.round(omegas, 12))
    if uniq.size < 2:
        return math.inf
    near = uniq[np.abs(uniq - OMEGA0) <= RECURRENCE_WINDOW]
    spacings = np.diff(near) if near.size >= 2 else np.diff(uniq)
    return TWO_PI / float(np.max(spacings))


def check_sum_rule(model: DiscreteModel) -> float:
    """Relative deviation of the windowed coupling density from gamma/2.

    The window is |omega - omega0| <= SUM_RULE_WINDOW / 2 and the
    density estimate pi * sum |alpha_k|^2 / measure targets gamma/2
    directly.  The window measure is the quadrature weight the grid assigns
    to the window (meta["mode_weights"]), not its nominal width: with that,
    node clustering near the window edges would put a spurious
    O(spacing/window) jitter on the estimate.
    """
    gamma = model.meta["gamma"]
    # Edge tolerance: keep nodes that sit on the window boundary up to
    # rounding, so the window stays symmetric about omega0.
    mask = (np.abs(model.mode_omegas - OMEGA0)
            <= 0.5 * SUM_RULE_WINDOW * (1.0 + 1e-9))
    if not mask.any():
        raise GridError("no modes inside the sum-rule window")
    measure = float(np.sum(model.meta["mode_weights"][mask]))
    density = math.pi * float(
        np.sum(np.abs(model.mode_alphas[mask]) ** 2)) / measure
    return abs(density - 0.5 * gamma) / (0.5 * gamma)


def _channel_grid(scheme: str, omega_i: float,
                  n: int) -> tuple[np.ndarray, np.ndarray]:
    if n == 0:
        return np.empty(0), np.empty(0)
    return _frequency_grid(scheme, omega_i, CHANNEL_CUT, n)


def _cubic_level_shift(gamma: float) -> tuple[float, float]:
    """Level shift P(1) and pole residue Z = 1/(1 + dP/dE) at E = 1 of
    P(E) = PV int (gamma/2pi) w^3 / (w - E) dw on [0, OMEGA_CUT]."""
    b = OMEGA_CUT
    log = math.log(b - 1.0)
    pv = b**3 / 3.0 + b**2 / 2.0 + b + log
    slope = b**2 / 2.0 + 2.0 * b + 3.0 * log - 1.0 / (b - 1.0) - 1.0
    return (gamma / TWO_PI * pv, 1.0 / (1.0 + gamma / TWO_PI * slope))


def _flat_level_shift(gamma: float) -> tuple[float, float]:
    """Level shift P(1) and pole residue Z = 1/(1 + dP/dE) at E = 1 of
    P(E) = PV int (gamma/2pi) / (w - E) dw on [0, OMEGA_CUT]."""
    slope = -1.0 / (OMEGA_CUT - 1.0) - 1.0
    return (gamma / TWO_PI * math.log(OMEGA_CUT - 1.0),
            1.0 / (1.0 + gamma / TWO_PI * slope))


def build_radial_vacuum(system: PhysicalSystem, grid: GridSpec,
                        enforce_sum_rule: bool = True) -> DiscreteModel:
    """Vacuum-only 1d frequency grid (angular integration done analytically)."""
    if grid.n_modes < 50:
        raise GridError("need at least 50 modes for a vacuum grid")
    omegas, weights = _frequency_grid(grid.scheme, 0.0, OMEGA_CUT,
                                      grid.n_modes)
    # Open interval: midpoint/GL nodes never hit omega = 0 exactly.
    alpha_sq = (system.gamma / TWO_PI) * omegas ** 3 * weights
    alphas = np.sqrt(alpha_sq).astype(complex)
    t_rec = recurrence_time(omegas)
    shift, z_factor = _cubic_level_shift(system.gamma)
    model = DiscreteModel(
        mode_omegas=omegas, mode_alphas=alphas,
        detector_factors=np.empty((omegas.size, 0), complex),
        channel_omegas=np.empty(0), channel_mu=np.empty(0), t_rec=t_rec,
        meta={"gamma": system.gamma, "mode_weights": weights,
              "z_factor": z_factor},
        omega_a=OMEGA0 + shift)
    if enforce_sum_rule:
        dev = check_sum_rule(model)
        if dev > 0.01:
            raise SumRuleError(
                f"windowed coupling density off by {dev:.2%} (> 1%)")
    return model


def _detector_form_factor(omegas: np.ndarray) -> np.ndarray:
    """Smooth response band for the detector coupling.

    1 inside |omega - omega0| <= DETECTOR_BAND, cos^2 rolloff to 0 at twice
    that.  Keeps resonance kernels exact while suppressing the cutoff-scale
    principal values that otherwise swamp the reactive parts of J and G.
    """
    x = np.abs(omegas - OMEGA0) / DETECTOR_BAND
    out = np.zeros_like(omegas)
    out[x <= 1.0] = 1.0
    mid = (x > 1.0) & (x < 2.0)
    out[mid] = np.cos(0.5 * math.pi * (x[mid] - 1.0)) ** 2
    return out


def build_full_3d(system: PhysicalSystem, grid: GridSpec) -> DiscreteModel:
    """Full wave-vector field with detectors, kept to its coupled modes.

    At each radial frequency the emitter and the A detector atoms couple
    only to the span of their own coupling vectors over directions and
    polarizations; every other mode of that degenerate shell stays empty.
    The angular quadrature (n_theta x n_phi directions, two polarizations)
    gives the shell's (1 + A) x (1 + A) Gram matrix of those vectors, and
    its eigendecomposition gives one mode per eigenvalue above the
    numerical-rank cutoff.  This is a unitary change of basis inside the
    shell, so every kernel sum and the dynamics are those of the full
    per-direction grid; a shell holds at most 1 + A modes.
    """
    if not system.detector_atoms:
        raise GridError("full-3d model needs at least one detector atom")
    om_r, w_r = _frequency_grid(grid.scheme, 0.0, OMEGA_CUT, grid.n_modes)
    x, w_x = _leggauss(grid.n_theta)
    phis = np.tile(TWO_PI * np.arange(grid.n_phi) / grid.n_phi, grid.n_theta)
    sin_theta = np.repeat(np.sqrt(1.0 - x * x), grid.n_phi)
    atoms = system.detector_atoms
    n_atoms = len(atoms)

    # Direction-dependent factors are the same for every radial node, so
    # take them once per direction-polarization row (theta, then phi, with
    # the polarization fastest; D = 2 n_theta n_phi rows) and form their
    # outer product with the radial profile.
    k_hats = np.column_stack((sin_theta * np.cos(phis),
                              sin_theta * np.sin(phis),
                              np.repeat(x, grid.n_phi)))
    eps = np.stack(_orthonormal_transverse(k_hats), axis=1).reshape(-1, 3)
    k_hats = np.repeat(k_hats, 2, axis=0)                          # (D, 3)
    dir_weights = np.repeat(w_x * (TWO_PI / grid.n_phi), 2 * grid.n_phi)
    dir_atom = eps @ system.atom_dipole.dipole_dir                 # (D,)
    dir_det = eps @ np.array([atom.dipole_dir for atom in atoms]).T  # (D, A)

    radial = np.sqrt(om_r**3 * w_r / (4.0 * math.pi**2))   # (R,)
    amp = radial[:, None] * np.sqrt(dir_weights)[None, :]   # (R, D)
    positions = np.asarray([atom.position for atom in atoms])  # (A, 3)
    # Phase exp(i k . r_i): k = omega * k_hat in natural units.
    kdotr = om_r[:, None, None] * (k_hats @ positions.T)[None, :, :]  # (R,D,A)
    form = _detector_form_factor(om_r)

    # Coupling vectors over directions, emitter first: u[r, 0] = alpha and
    # u[r, i] = f_i at radial node r.
    u = np.empty((om_r.size, 1 + n_atoms, dir_atom.size), dtype=complex)
    u[:, 0] = (-1j) * system.mu_a * amp * dir_atom[None, :]
    u[:, 1:] = ((-1j) * (amp * form[:, None])[:, :, None]
                * dir_det[None, :, :] * np.exp(1j * kdotr)).transpose(0, 2, 1)
    gram = u @ np.conj(u).transpose(0, 2, 1)             # (R, 1+A, 1+A)
    lam, vecs = np.linalg.eigh(gram)
    # Rank cutoff of numpy.linalg.matrix_rank, per shell.
    keep = lam > lam[:, -1:] * (1 + n_atoms) * np.finfo(float).eps
    # Column m of couplings[r] is the coupling vector of shell mode m, so
    # that couplings[r] @ couplings[r]^H reproduces gram[r].
    couplings = vecs * np.sqrt(np.where(keep, lam, 0.0))[:, None, :]
    alphas = couplings[:, 0, :][keep]
    factors = couplings[:, 1:, :].transpose(0, 2, 1)[keep]   # (K, A)
    omegas = np.repeat(om_r, keep.sum(axis=1))

    om_c, w_c = _channel_grid(grid.channel_scheme, system.omega_i,
                              grid.n_channels)
    channel_mu = math.sqrt(system.mu_c_sq_rho0) * np.sqrt(w_c)

    t_rec = min(recurrence_time(om_r), recurrence_time(om_c))
    # Angular sums reproduce the same omega^3 vacuum profile, so the vacuum
    # counterterm and pole residue carry over; detector-induced shifts are
    # O(beta * gamma) and left alone.
    shift, z_factor = _cubic_level_shift(system.gamma)
    return DiscreteModel(
        mode_omegas=omegas, mode_alphas=alphas, detector_factors=factors,
        channel_omegas=om_c, channel_mu=channel_mu, t_rec=t_rec,
        meta={"gamma": system.gamma, "z_factor": z_factor},
        omega_a=OMEGA0 + shift)


def build_scalar_toy(params: ToySpec) -> DiscreteModel:
    """Flat-coupling single-detector model with the full three-tier structure.

    The detector deficit for this model is computable in closed form from
    the discrete kernels, which makes it the workhorse of route-equivalence
    and slowing tests.  beta_toy is calibrated so the pole-approximation
    reduction factor is roughly 1/(1 + beta_toy) at r = 0.
    """
    omegas, weights = _uniform_midpoint(0.0, OMEGA_CUT, params.n_modes)
    alphas = np.sqrt((params.gamma / TWO_PI) * weights).astype(complex)
    factors = (np.sqrt(weights) * np.exp(1j * omegas * params.r)).astype(
        complex)[:, None]
    om_c, w_c = _channel_grid("uniform", 0.3, params.n_channels)
    channel_mu = np.sqrt((params.beta_toy / math.pi**2) * w_c)
    t_rec = min(recurrence_time(omegas), recurrence_time(om_c))
    shift, z_factor = _flat_level_shift(params.gamma)
    return DiscreteModel(
        mode_omegas=omegas, mode_alphas=alphas, detector_factors=factors,
        channel_omegas=om_c, channel_mu=channel_mu, t_rec=t_rec,
        meta={"gamma": params.gamma, "mode_weights": weights,
              "z_factor": z_factor},
        omega_a=OMEGA0 + shift)

