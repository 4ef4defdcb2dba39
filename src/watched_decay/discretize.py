"""Finite mode and channel grids standing in for the radiation continuum.

A DiscreteModel carries photon modes (omega_k, alpha_k) with the quadrature
weight absorbed into the coupling, so every continuum kernel becomes a plain
finite sum, and ionization channels (omega_c, mu_c_eff) likewise.  Detector
couplings factorize exactly as g_{k,c,i} = mu_c_eff(c) * f_{k,i}; the
per-mode detector factors f are stored independently of alpha_k (never
obtained by dividing out the atom factor) so degenerate dipole geometries
need no special-casing.

Coupling normalization: the vacuum coupling density is
|alpha(omega)|^2 = (gamma/2 pi) (omega/omega0)^3 per unit frequency, which
makes the discrete atom kernel reproduce Re K(-i omega0 + 0) = gamma/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import _orthonormal_transverse
from .model import PhysicalSystem

TWO_PI = 2.0 * math.pi


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
    omega_cut: float = 4.0
    scheme: str = "gauss"          # "gauss": Legendre panels split at omega0
    n_theta: int = 16              # full-3d only
    n_phi: int = 8                 # full-3d only
    n_channels: int = 200
    channel_cut: float = 3.0
    channel_scheme: str = "gauss"
    t_max: float = 0.0             # requested horizon; 0 skips the check
    #: Half-width of the detector response band (full-3d only): the detector
    #: coupling carries a form factor that is 1 within omega0 +/- band and
    #: rolls smoothly to 0 by omega0 +/- 2*band.  Without it the
    #: principal-value parts of the detector kernels are dominated by
    #: spurious cutoff-boundary contributions that can flip the sign of the
    #: slowing.  0 disables the form factor.
    detector_band: float = 0.05

    def __post_init__(self):
        if self.scheme not in ("gauss", "uniform"):
            raise GridError(f"unknown scheme {self.scheme!r}")
        if self.channel_scheme not in ("gauss", "uniform"):
            raise GridError(f"unknown channel scheme {self.channel_scheme!r}")


@dataclass(frozen=True)
class ToySpec:
    """Dipole-pattern-free single-detector model for end-to-end tests."""

    gamma: float = 0.01
    beta_toy: float = 0.05
    r: float = 0.0
    n_modes: int = 200
    omega_cut: float = 4.0
    scheme: str = "uniform"
    n_channels: int = 60
    omega_i: float = 0.3
    channel_cut: float = 3.0
    channel_scheme: str = "uniform"
    t_max: float = 0.0
    renormalize_shift: bool = True


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """Finite proxy of atom + field (+ detector) ready for both routes."""

    kind: str                      # "radial1d" | "full3d" | "scalar_toy"
    omega0: float
    mode_omegas: np.ndarray        # (K,)
    mode_alphas: np.ndarray        # (K,) complex
    detector_factors: np.ndarray   # (K, A) complex; A = 0 without detector
    channel_omegas: np.ndarray     # (C,)
    channel_mu: np.ndarray         # (C,) real effective weights
    t_rec: float
    meta: dict = field(default_factory=dict)
    #: Bare atom frequency, including the counterterm that absorbs the
    #: principal-value (level-shift) part of the coupling kernel so the
    #: dressed resonance sits at omega0.  The cutoff omega^3 profile pulls
    #: the pole down by several linewidths otherwise, and the closed-form
    #: rates all discard that shift.  0.0 means "no counterterm".
    omega_a: float = 0.0

    def __post_init__(self):
        if self.omega_a == 0.0:
            object.__setattr__(self, "omega_a", self.omega0)
        for name in ("mode_omegas", "mode_alphas", "detector_factors",
                     "channel_omegas", "channel_mu"):
            getattr(self, name).setflags(write=False)
        if np.any(self.mode_omegas <= 0.0):
            raise GridError("all mode frequencies must be positive")
        if self.channel_omegas.size and np.any(self.channel_omegas <= 0.0):
            raise GridError("all channel frequencies must be positive")

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


def _gauss_panels(edges: list[float], n_total: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels, n_total overall."""
    n_panels = len(edges) - 1
    base, extra = divmod(n_total, n_panels)
    nodes, weights = [], []
    for i in range(n_panels):
        n = base + (1 if i < extra else 0)
        x, w = leggauss(n)
        a, b = edges[i], edges[i + 1]
        nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _uniform_midpoint(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    h = (b - a) / n
    nodes = a + (np.arange(n) + 0.5) * h
    return nodes, np.full(n, h)


def _frequency_grid(scheme: str, a: float, split: float, b: float,
                    n: int) -> tuple[np.ndarray, np.ndarray]:
    if scheme == "gauss":
        edges = [a, split, b] if a < split < b else [a, b]
        return _gauss_panels(edges, n)
    return _uniform_midpoint(a, b, n)


def recurrence_time(omegas: np.ndarray, omega0: float,
                    window: float = 0.1) -> float:
    """2 pi over the minimum mode spacing near omega0.

    Falls back to the global minimum spacing when no two modes sit inside
    the window around omega0.
    """
    uniq = np.unique(np.round(omegas, 12))
    if uniq.size < 2:
        return math.inf
    near = uniq[np.abs(uniq - omega0) <= window * omega0]
    spacings = np.diff(near) if near.size >= 2 else np.diff(uniq)
    dmin = float(np.min(spacings))
    return TWO_PI / dmin if dmin > 0.0 else math.inf


def check_sum_rule(model: DiscreteModel, window: float = 0.05) -> float:
    """Relative deviation of the windowed coupling density from gamma/2.

    The window is [omega0 - window/2, omega0 + window/2] and the density
    estimate pi * sum |alpha_k|^2 / measure targets gamma/2 directly.  The
    window measure is the quadrature weight the grid itself assigns to the
    window when the model carries its weights (meta["mode_weights"]); with
    the nominal width instead, node clustering near the window edges puts a
    spurious O(spacing/window) jitter on the estimate.
    """
    gamma = model.meta.get("gamma")
    if gamma is None:
        raise GridError("model does not carry a configured gamma")
    w0 = model.omega0
    # Edge tolerance: keep nodes that sit on the window boundary up to
    # rounding, so the window stays symmetric about omega0.
    mask = np.abs(model.mode_omegas - w0) <= 0.5 * window * w0 * (1.0 + 1e-9)
    if not mask.any():
        raise GridError("no modes inside the sum-rule window")
    weights = model.meta.get("mode_weights")
    measure = (float(np.sum(weights[mask])) if weights is not None
               else window * w0)
    density = math.pi * float(
        np.sum(np.abs(model.mode_alphas[mask]) ** 2)) / measure
    return abs(density - 0.5 * gamma) / (0.5 * gamma)


def _check_horizon(t_rec: float, t_max: float):
    if t_max > 0.0 and t_rec < 1.5 * t_max:
        raise RecurrenceError(
            f"grid recurrence time {t_rec:.3g} is below 1.5x the requested "
            f"horizon {t_max:.3g}")


def _channel_grid(omega_i: float, omega0: float, cut: float, n: int,
                  scheme: str) -> tuple[np.ndarray, np.ndarray]:
    if n == 0:
        return np.empty(0), np.empty(0)
    return _frequency_grid(scheme, omega_i, omega0, cut, n)


def _cubic_pv_shift(gamma: float, omega0: float, cut: float) -> float:
    """Level shift PV int (gamma/2pi)(w/w0)^3 / (w - w0) dw on [0, cut]."""
    b, w0 = cut, omega0
    pv = b**3 / 3.0 + w0 * b**2 / 2.0 + w0**2 * b \
        + w0**3 * math.log((b - w0) / w0)
    return gamma / TWO_PI * pv / w0**3


def _flat_pv_shift(gamma: float, omega0: float, cut: float) -> float:
    """Level shift PV int (gamma/2pi) / (w - w0) dw on [0, cut]."""
    return gamma / TWO_PI * math.log((cut - omega0) / omega0)


def build_radial_vacuum(system: PhysicalSystem, grid: GridSpec,
                        enforce_sum_rule: bool = True,
                        renormalize_shift: bool = True) -> DiscreteModel:
    """Vacuum-only 1d frequency grid (angular integration done analytically)."""
    if grid.n_modes < 50:
        raise GridError("need at least 50 modes for a vacuum grid")
    if grid.omega_cut < 2.0 * system.omega0:
        raise GridError("omega_cut must be at least 2*omega0")
    omegas, weights = _frequency_grid(
        grid.scheme, 0.0, system.omega0, grid.omega_cut, grid.n_modes)
    # Open interval: midpoint/GL nodes never hit omega = 0 exactly.
    alpha_sq = (system.gamma / TWO_PI) * (omegas / system.omega0) ** 3 * weights
    alphas = np.sqrt(alpha_sq).astype(complex)
    t_rec = recurrence_time(omegas, system.omega0)
    omega_a = system.omega0
    if renormalize_shift:
        omega_a += _cubic_pv_shift(system.gamma, system.omega0, grid.omega_cut)
    model = DiscreteModel(
        kind="radial1d", omega0=system.omega0, mode_omegas=omegas,
        mode_alphas=alphas, detector_factors=np.empty((omegas.size, 0), complex),
        channel_omegas=np.empty(0), channel_mu=np.empty(0), t_rec=t_rec,
        meta={"gamma": system.gamma, "mode_weights": weights},
        omega_a=omega_a)
    if enforce_sum_rule:
        dev = check_sum_rule(model)
        if dev > 0.01:
            raise SumRuleError(
                f"windowed coupling density off by {dev:.2%} (> 1%)")
    _check_horizon(t_rec, grid.t_max)
    return model


def _detector_form_factor(omegas: np.ndarray, omega0: float,
                          band: float) -> np.ndarray:
    """Smooth response band for the detector coupling.

    1 inside |omega - omega0| <= band, cos^2 rolloff to 0 at 2*band.  Keeps
    resonance kernels exact while suppressing the cutoff-scale principal
    values that otherwise swamp the reactive parts of J and G.
    """
    if band <= 0.0:
        return np.ones_like(omegas)
    x = np.abs(omegas - omega0) / band
    out = np.zeros_like(omegas)
    out[x <= 1.0] = 1.0
    mid = (x > 1.0) & (x < 2.0)
    out[mid] = np.cos(0.5 * math.pi * (x[mid] - 1.0)) ** 2
    return out


def build_full_3d(system: PhysicalSystem, grid: GridSpec,
                  renormalize_shift: bool = True) -> DiscreteModel:
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
    om_r, w_r = _frequency_grid(
        grid.scheme, 0.0, system.omega0, grid.omega_cut, grid.n_modes)
    x, w_x = leggauss(grid.n_theta)
    phis = TWO_PI * np.arange(grid.n_phi) / grid.n_phi
    w_phi = TWO_PI / grid.n_phi

    p_a = system.atom_dipole.dipole_dir
    atoms = system.detector_atoms
    n_atoms = len(atoms)

    # Direction-dependent factors are the same for every radial node, so
    # precompute them per (theta, phi, polarization) and take the outer
    # product with the radial profile.
    dir_atom = []       # (p_a . eps) per direction/pol
    dir_det = []        # (p_d_i . eps) per direction/pol, shape (A,)
    k_hats = []
    dir_weights = []
    for xi, wxi in zip(x, w_x):
        st = math.sqrt(max(0.0, 1.0 - xi * xi))
        for phi in phis:
            k_hat = np.array([st * math.cos(phi), st * math.sin(phi), xi])
            eps1, eps2 = _orthonormal_transverse(k_hat)
            for eps in (eps1, eps2):
                dir_atom.append(float(np.dot(p_a, eps)))
                dir_det.append([
                    atom.mu_c_scale * float(np.dot(atom.dipole_dir, eps))
                    for atom in atoms])
                k_hats.append(k_hat)
                dir_weights.append(wxi * w_phi)
    dir_atom = np.asarray(dir_atom)                     # (D,)
    dir_det = np.asarray(dir_det)                       # (D, A)
    k_hats = np.asarray(k_hats)                         # (D, 3)
    dir_weights = np.asarray(dir_weights)               # (D,)

    radial = np.sqrt(om_r**3 * w_r / (4.0 * math.pi**2))   # (R,)
    amp = radial[:, None] * np.sqrt(dir_weights)[None, :]   # (R, D)
    positions = np.asarray([atom.position for atom in atoms])  # (A, 3)
    # Phase exp(i k . r_i): k = omega * k_hat in natural units.
    kdotr = om_r[:, None, None] * (k_hats @ positions.T)[None, :, :]  # (R,D,A)
    form = _detector_form_factor(om_r, system.omega0, grid.detector_band)

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

    om_c, w_c = _channel_grid(system.omega_i, system.omega0,
                              grid.channel_cut, grid.n_channels,
                              grid.channel_scheme)
    channel_mu = math.sqrt(system.mu_c_sq_rho0) * np.sqrt(w_c)

    t_rec_modes = recurrence_time(om_r, system.omega0)
    t_rec_channels = recurrence_time(om_c, system.omega0)
    t_rec = min(t_rec_modes, t_rec_channels)
    omega_a = system.omega0
    if renormalize_shift:
        # Angular sums reproduce the same omega^3 vacuum profile, so the
        # vacuum counterterm carries over; detector-induced shifts are
        # O(beta * gamma) and left alone.
        omega_a += _cubic_pv_shift(system.gamma, system.omega0, grid.omega_cut)
    model = DiscreteModel(
        kind="full3d", omega0=system.omega0, mode_omegas=omegas,
        mode_alphas=alphas, detector_factors=factors,
        channel_omegas=om_c, channel_mu=channel_mu, t_rec=t_rec,
        meta={"gamma": system.gamma},
        omega_a=omega_a)
    _check_horizon(t_rec, grid.t_max)
    return model


def build_scalar_toy(params: ToySpec) -> DiscreteModel:
    """Flat-coupling single-detector model with the full three-tier structure.

    The detector deficit for this model is computable in closed form from
    the discrete kernels, which makes it the workhorse of route-equivalence
    and slowing tests.  beta_toy is calibrated so the pole-approximation
    reduction factor is roughly 1/(1 + beta_toy) at r = 0.
    """
    omegas, weights = _frequency_grid(
        params.scheme, 0.0, 1.0, params.omega_cut, params.n_modes)
    alphas = np.sqrt((params.gamma / TWO_PI) * weights).astype(complex)
    factors = (np.sqrt(weights) * np.exp(1j * omegas * params.r)).astype(
        complex)[:, None]
    om_c, w_c = _channel_grid(params.omega_i, 1.0, params.channel_cut,
                              params.n_channels, params.channel_scheme)
    channel_mu = np.sqrt((params.beta_toy / math.pi**2) * w_c)
    t_rec_modes = recurrence_time(omegas, 1.0)
    t_rec_channels = recurrence_time(om_c, 1.0)
    t_rec = min(t_rec_modes, t_rec_channels)
    omega_a = 1.0
    if params.renormalize_shift:
        omega_a += _flat_pv_shift(params.gamma, 1.0, params.omega_cut)
    model = DiscreteModel(
        kind="scalar_toy", omega0=1.0, omega_a=omega_a, mode_omegas=omegas,
        mode_alphas=alphas, detector_factors=factors,
        channel_omegas=om_c, channel_mu=channel_mu, t_rec=t_rec,
        meta={"gamma": params.gamma, "mode_weights": weights})
    _check_horizon(t_rec, params.t_max)
    return model

