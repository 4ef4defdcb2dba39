"""Time-domain integration of the coupled amplitude equations.

The amplitudes (excited state a0, one-photon modes a_k, ionization
channels a_c per detector atom) evolve under

    da0/dt = -i w0 a0 - i sum_k alpha_k a_k
    dak/dt = -i wk ak - i conj(alpha_k) a0 - i sum_{c,i} m_c conj(f_ki) a_ci
    dac/dt = -i wc ac - i m_c sum_k f_ki a_k

which is generated by a Hermitian matrix, so the total norm is conserved
exactly and any drift measures integrator error.  Integration runs in
the frame rotating at w0 (every frequency replaced by its detuning), which
removes the fast common phase and lets an explicit adaptive Runge-Kutta
method (DOP853) take steps set by the physical rates; the stored
trajectory is in the lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .discretize import DiscreteModel, RecurrenceError
from .model import OMEGA0


ATOL = 1e-12  # absolute tolerance of the ODE solver


class FitWindowError(ValueError):
    """Decay-rate fit window unusable."""


class IntegrationError(RuntimeError):
    """The ODE solver stopped before reaching the requested horizon."""


@dataclass(frozen=True)
class SolverSpec:
    rtol: float = 1e-9


@dataclass(eq=False)
class Trajectory:
    """Sampled lab-frame history of the excited-state amplitude."""

    times: np.ndarray
    a0: np.ndarray
    survival: np.ndarray
    norm_drift: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.times.size and abs(self.survival[0] - 1.0) > 1e-9:
            raise ValueError("trajectory must start fully excited")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


@dataclass
class RateFit:
    rate: float
    stderr: float
    window: tuple[float, float]
    r_squared: float


def _rhs_factory(model: DiscreteModel):
    # Bare atom frequency (with its level-shift counterterm); the frame
    # still rotates at the dressed omega0 on every tier.
    w0 = model.omega_a - OMEGA0
    wk = model.mode_omegas - OMEGA0
    wc = model.channel_omegas - OMEGA0
    alpha = model.mode_alphas
    alpha_c = np.conj(alpha)
    f = model.detector_factors
    fc = np.conj(f)
    m = model.channel_mu
    n_modes, n_atoms = f.shape
    n_ch = m.size

    def rhs(t, y):
        a0 = y[0]
        ak = y[1:1 + n_modes]
        dy = np.empty_like(y)
        dy[0] = -1j * (w0 * a0 + alpha @ ak)
        dak = -1j * (wk * ak + alpha_c * a0)
        if n_atoms and n_ch:
            ac = y[1 + n_modes:].reshape(n_atoms, n_ch)
            s_atom = ac @ m                       # (A,)
            dak -= 1j * (fc @ s_atom)
            p_atom = f.T @ ak                     # (A,)
            dac = -1j * (wc[None, :] * ac + np.outer(p_atom, m))
            dy[1 + n_modes:] = dac.reshape(-1)
        dy[1:1 + n_modes] = dak
        return dy

    return rhs


def integrate(model: DiscreteModel, t_max: float,
              solver: SolverSpec = SolverSpec(),
              t_eval: np.ndarray | None = None) -> Trajectory:
    """Evolve from the fully excited state and sample the trajectory.

    Initial condition: atom excited, field empty, detector in its ground
    state.  Refuses horizons beyond the grid recurrence time.
    """
    if t_max > model.t_rec:
        raise RecurrenceError(
            f"t_max = {t_max:.3g} exceeds grid recurrence time "
            f"{model.t_rec:.3g}")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_max, 301)
    t_eval = np.asarray(t_eval, dtype=float)

    y0 = np.zeros(model.size, dtype=complex)
    y0[0] = 1.0
    sol = solve_ivp(_rhs_factory(model), (0.0, t_max), y0, method="DOP853",
                    t_eval=t_eval, rtol=solver.rtol, atol=ATOL)
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")

    a0 = sol.y[0] * np.exp(-1j * OMEGA0 * sol.t)
    norm = np.sum(np.abs(sol.y) ** 2, axis=0)
    return Trajectory(
        times=sol.t, a0=a0, survival=np.abs(a0) ** 2, norm_drift=norm - 1.0,
        metadata={"nfev": sol.nfev})


def fit_decay_rate(traj: Trajectory, gamma_expected: float) -> RateFit:
    """Least-squares exponential-rate fit of log P(t) on a window.

    The window skips the early quadratic onset (t_lo at least 10/omega0
    and 0.2 expected lifetimes) and the last fifth of the horizon.
    """
    t = traj.times
    t_lo = 10.0
    if gamma_expected > 0.0:
        t_lo = max(t_lo, 0.2 / gamma_expected)
    t_hi = 0.8 * t[-1]
    if not t_lo < t_hi:
        raise FitWindowError("window must satisfy t_lo < t_hi")
    mask = (t >= t_lo) & (t <= t_hi)
    if int(np.sum(mask)) < 10:
        raise FitWindowError("fewer than 10 samples in fit window")
    p = traj.survival[mask]
    if np.any(p <= 0.0):
        raise FitWindowError("non-positive survival inside fit window")
    x = t[mask]
    y = np.log(p)
    (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return RateFit(rate=-float(slope), stderr=float(math.sqrt(cov[0, 0])),
                   window=(float(t_lo), float(t_hi)), r_squared=r_sq)


@dataclass
class RouteComparison:
    times: np.ndarray
    a0_ode: np.ndarray
    a0_resolvent: np.ndarray
    max_abs_diff: float
    inversion_info: dict


def compare_routes(model: DiscreteModel, t_grid) -> RouteComparison:
    """Time-domain integration vs resolvent inversion on the same model.

    The inversion runs on the rotated resolvent A0(s - i w0) so the contour
    sees only detuning-scale oscillations; the comparison is in the lab
    frame.  Its moments <0|M^n|0> at infinity come from the rotating-frame
    generator M of the ODE, one rhs evaluation each.
    """
    from .resolvent import REF_ORDER, invert_laplace, resolvent_a0_discrete

    t_grid = np.asarray(t_grid, dtype=float)
    traj = integrate(model, float(t_grid[-1]), t_eval=t_grid)

    def shifted(s_arr):
        return resolvent_a0_discrete(s_arr - 1j * OMEGA0, model)

    rhs = _rhs_factory(model)
    y = np.zeros(model.size, dtype=complex)
    y[0] = 1.0
    moments = []
    for _ in range(REF_ORDER + 1):
        moments.append(y[0])
        y = rhs(0.0, y)
    rotated, info = invert_laplace(shifted, moments, t_grid)
    a0_res = rotated * np.exp(-1j * OMEGA0 * t_grid)
    diff = float(np.max(np.abs(traj.a0 - a0_res)))
    return RouteComparison(times=t_grid, a0_ode=traj.a0,
                           a0_resolvent=a0_res, max_abs_diff=diff,
                           inversion_info=info)
