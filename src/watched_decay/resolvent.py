"""Laplace-domain route: propagator sums, pole rate, inversion.

For a finite model every propagator is an exact rational sum, and the
excited-state resolvent is

    A0(s) = 1 / (s + i omega0 + K(s) - deficit(s)),

where the detector deficit follows from eliminating the ionization
amplitudes.  With factorized couplings g_{k,c,i} = m_c f_{k,i} the channel
block reduces to one rank per detector atom, so the elimination is an
A x A solve (A = number of detector atoms) instead of a dense
channel-count solve.

The time signal is recovered by a trapezoidal Bromwich integral on a
vertical contour.  A reference R(s) = sum_n b_n / (s + c)^(n+1) of order
P = REF_ORDER = 7, built from the exact moments m_n = <0|M^n|0> of the
generator (the coefficients of the transform at infinity), is split off
and inverted in closed form, so the remaining integrand decays
~ 1/|s|^(P+2) = 1/|s|^9.  The contour ends at the first omega_max, doubled
from max(16, 8 h), where the tail it drops, e^(sigma t_max) |g| omega_max /
((P + 1) pi), is below TOL / 4, and doubles again while the summed error
estimate exceeds TOL.  The contour nodes are equispaced,
w_j = j h, so the phase sum sum_j g_j exp(i t w_j) factors exactly:
writing j = q B + r with B ~ sqrt(N) turns it into one matrix product of
a T x Q table of row phases with the Q x B node block, followed by a
row-wise product with a T x B table of column phases.  That costs
T (Q + B) exponentials instead of T N and works on any time grid.  A
chirp-z transform would need a uniform time grid, and so a second code
path for other grids, and scipy's czt builds its chirp as w**(k^2/2),
whose phase at 773,697 nodes is off by up to 1.6e-7 rad.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .discretize import DiscreteModel
from .geometry import TWO_PI
# Unused here; kept because perfbench/workloads.py wraps resolvent.d_oracle.
from .geometry import d_oracle  # noqa: F401
from .model import OMEGA0

_POLE_TOL = 1e-12


class PoleError(ValueError):
    """Evaluation point coincides with a propagator pole."""


class InversionError(RuntimeError):
    """Numerical inverse transform failed its self-validation."""


def _as_s_array(s) -> tuple[np.ndarray, bool]:
    arr = np.atleast_1d(np.asarray(s, dtype=complex))
    return arr, np.ndim(s) == 0


def _check_poles(s_arr: np.ndarray, omegas: np.ndarray):
    if omegas.size == 0:
        return
    # |s + i w| >= |Re s|, so only points this close to the imaginary axis
    # can hit a pole; a contour (Re s = sigma > 0) passes in one comparison.
    for s in s_arr[np.abs(s_arr.real) < _POLE_TOL]:
        if np.min(np.abs(s + 1j * omegas)) < _POLE_TOL:
            raise PoleError(f"s = {s} hits a propagator pole")


#: Complex values one chunk of the elimination holds per array: a chunk of
#: b points keeps b (K (1 + A) + A^2 + C) of them for its mode propagators,
#: the propagator-scaled factors behind G, G and channel propagators.
#: ``_chunk_points`` gives b for the transform; the inertia test of
#: dynamics takes one point at a time.  b is floored at one point, so the
#: budget holds whatever n but not whatever the model: one point needs
#: K (1 + A) + A^2 + C values, 761,330 for a 300-detector shell (K = 2,230),
#: where the spectral interval's tracemalloc peak is 23.6 MB.  Summing over
#: blocks of modes when one point exceeds the budget removes that floor
#: (ROADMAP.md, "Memory bounded per point").
CHUNK_VALUES = 1 << 19


def _chunk_points(model: DiscreteModel) -> int:
    a = model.n_atoms
    per_point = model.n_modes * (1 + a) + a * a + model.n_channels
    return max(1, CHUNK_VALUES // max(1, per_point))


def _eliminate(block: np.ndarray, model: DiscreteModel):
    """K, the self-energy sigma and 1 + L G over a column block[b, 0] of s.

    With the propagators d_k = 1 / (s + i w_k) it forms the mode sums

    K      = sum_k |alpha_k|^2 d_k
    J_ac_i = sum_k alpha_k conj(f_ki) d_k      (atom <- channel)
    J_ca_i = sum_k conj(alpha_k) f_ki d_k      (channel <- atom)
    G_ij   = sum_k f_ki conj(f_kj) d_k         (detector self-term)

    and L = sum_c m_c^2 / (s + i w_c), and eliminates the channels and
    detector atoms: sigma = K - J_ac . X with (1 + L G) X = L J_ca.
    Without detector atoms or channels sigma is K and 1 + L G is None.
    Raises numpy.linalg.LinAlgError where 1 + L G is singular.
    """
    alpha = model.mode_alphas
    denom = 1.0 / (block + 1j * model.mode_omegas)
    k = denom @ (np.abs(alpha) ** 2)
    if not (model.n_atoms and model.n_channels):
        return k, k, None
    f = model.detector_factors
    fc = np.conj(f)
    J_ac = (denom * alpha) @ fc
    J_ca = (denom * np.conj(alpha)) @ f
    G = (denom[:, None, :] * f.T) @ fc
    L = np.sum(model.channel_mu**2 / (block + 1j * model.channel_omegas),
               axis=1)
    mat = np.eye(model.n_atoms) + L[:, None, None] * G
    X = np.linalg.solve(mat, (L[:, None] * J_ca)[..., None])[..., 0]
    return k, k - np.einsum("bi,bi->b", J_ac, X), mat


def _sigma(s_arr: np.ndarray, model: DiscreteModel) -> np.ndarray:
    """Self-energy over an array of s, by ``_eliminate`` over chunks."""
    _check_poles(s_arr, model.mode_omegas)
    _check_poles(s_arr, model.channel_omegas)
    chunk = _chunk_points(model)
    sigma = np.empty(s_arr.size, dtype=complex)
    for lo in range(0, s_arr.size, chunk):
        sigma[lo:lo + chunk] = _eliminate(s_arr[lo:lo + chunk, None],
                                          model)[1]
    return sigma


def resolvent_a0_discrete(s, model: DiscreteModel):
    """A0(s) via the rank-per-atom elimination (vectorized over s)."""
    s_arr, scalar = _as_s_array(s)
    out = 1.0 / (s_arr + 1j * model.omega_a + _sigma(s_arr, model))
    return complex(out[0]) if scalar else out


def ww_pole(model: DiscreteModel) -> dict:
    """Effective pole of the excited-state resolvent of a DiscreteModel.

    The kernels are summed once at s = -i omega0 + gamma_eval, with
    gamma_eval = max(gamma/2, 4 pi / t_rec, 1e-6): 4 pi / t_rec is twice
    the largest grid spacing near omega0 (discretize.recurrence_time), far
    enough off the imaginary axis to smooth over the discrete pole
    spacing, so the kernel sums approximate their continuum values.
    Returns rate (decay of the survival probability), shift (frequency
    pull, reported only), u (rate over the same model's vacuum rate),
    vacuum_rate (2 Re K at the same point) and gamma_eval.
    """
    gamma = model.meta.get("gamma", 0.0)
    gamma_eval = max(0.5 * gamma, 2.0 * TWO_PI / model.t_rec, 1e-6)
    s0 = np.array([[-1j * OMEGA0 + gamma_eval]])
    k_val, sigma = (complex(v[0]) for v in _eliminate(s0, model)[:2])
    rate = 2.0 * sigma.real
    vacuum_rate = 2.0 * k_val.real
    return {"rate": rate, "shift": sigma.imag,
            "u": rate / vacuum_rate if vacuum_rate else float("nan"),
            "vacuum_rate": vacuum_rate, "gamma_eval": gamma_eval}


def _phase_sums(g: np.ndarray, h: float, t: np.ndarray,
                inner_max: float) -> tuple[np.ndarray, np.ndarray]:
    """sum_j g_j exp(i t w_j) over w_j = j h, with g[k] at j = k - N // 2.

    Returns the partial sums over the inner nodes |w_j| <= inner_max and
    over the rest.  With B = ceil(sqrt(N)) the padded node index splits as
    j = (q - q_c) B + (r - r_c), so each exponential is a row factor times
    a column factor, and the sum is one batched matrix product of a T x Q
    phase table with the two masked Q x B node blocks.  The node w = 0
    sits mid-row (r_c = B // 2): the heavy nodes near it then take two
    small phases instead of two large ones that cancel.
    """
    n_nodes = g.size
    B = math.isqrt(n_nodes - 1) + 1
    r_c = B // 2
    pad = (r_c - n_nodes // 2) % B            # leading zeros: w = 0 at r_c
    Q = -(-(pad + n_nodes) // B)
    q_c = (pad + n_nodes // 2) // B
    jq = (np.arange(Q) - q_c) * B
    jr = np.arange(B) - r_c
    outer = np.abs((jq[:, None] + jr) * h) > inner_max
    blocks = np.zeros((2, Q, B), dtype=complex)
    blocks[0].reshape(-1)[pad:pad + n_nodes] = g
    np.copyto(blocks[1], blocks[0], where=outer)
    np.copyto(blocks[0], 0.0, where=outer)
    partial = np.exp(1j * np.outer(t, jq * h)) @ blocks      # (2, T, B)
    inner_sum, outer_sum = np.einsum("ktb,tb->kt", partial,
                                     np.exp(1j * np.outer(t, jr * h)))
    return inner_sum, outer_sum


#: Order P of the moment reference: it matches m_0..m_P of the transform.
#: Each order makes the remainder decay one power faster and so shortens
#: the contour; at 9 a vacuum model's probe passes at the floor of 16 with
#: an error estimate above TOL there, so its contour is summed again.
REF_ORDER = 7
#: Re c of the reference pole at -c, in units of omega0.  At Re c = 0 the
#: order-P pole sits only sigma from the contour and its aliases exceed
#: the error estimate; near the spectral radius the remainder is larger.
REF_DAMPING = 1.0
#: Target accuracy of the inversion; the self-check raises above 50 TOL.
TOL = 1e-8
#: Most contour nodes one inversion takes, and so the length of its node
#: vectors; a contour cut short shows in the truncation estimate.
MAX_NODES = 2_000_000


def invert_laplace(f: Callable[[np.ndarray], np.ndarray], moments,
                   t_grid) -> tuple[np.ndarray, dict]:
    """Numerical inverse Laplace transform of a vectorized transform f.

    Trapezoidal Bromwich rule.  f must be analytic to the right of the
    contour and accept an ndarray of complex s; moments are its exact
    coefficients at infinity, f(s) = sum_n m_n / s^(n+1), for
    n = 0..P with P = REF_ORDER.  For an amplitude resolvent
    <0|(s - M)^-1|0> they are m_n = <0|M^n|0>.  The reference
    sum_n b_n / (s + c)^(n+1), with b_n the moments re-expanded about -c,
    is inverted exactly as sum_n b_n t^n e^(-ct)/n!; the contour only sees
    the remainder g, which decays ~ 1/|s|^(P+2).  The contour half-width
    omega_max is the first of max(16, 8 h) times 1, 2, 4, ... at which
    e^(sigma t_max) |g(sigma + i omega_max)| omega_max / ((P + 1) pi), the
    bound on the dropped tail at the last time, is below TOL / 4; the sum
    is taken again on a doubled omega_max while its error estimate exceeds
    TOL and the contour fits in MAX_NODES, with f evaluated only at the
    nodes the last sum did not have.  Returns (values, info); info carries
    the contour settings, the reference and a self-reported error
    estimate, the sum of a truncation estimate from comparing two
    truncations and an alias estimate.  Raises InversionError when that
    estimate exceeds 50 TOL.
    """
    t = np.asarray(t_grid, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("t must be >= 0")
    m = np.asarray(moments, dtype=complex)
    if m.shape != (REF_ORDER + 1,):
        raise ValueError(f"need the moments m_0..m_{REF_ORDER}, "
                         f"got shape {m.shape}")
    t_max = float(np.max(t)) if t.size else 1.0
    t_max = max(t_max, 1e-6)

    # s (s f(s) - m_0) -> m_1 + m_2 / s: one probe far out checks that the
    # moments belong to f.
    S = 1e8
    fS = np.asarray(f(np.array([S + 0.0j], dtype=complex))).ravel()[0]
    m1_probe = S * (S * fS - m[0])
    if not abs(m1_probe - m[1]) <= 1e-3 * max(1.0, abs(m[0]) + abs(m[1])):
        raise ValueError("moments do not belong to the transform: "
                         f"s f(s) = {S * fS:.6g} at s = {S:.0e} against "
                         f"m_0 + m_1 / s with m_0 = {m[0]:.6g}, "
                         f"m_1 = {m[1]:.6g}")

    # The pole -c sits REF_DAMPING left of the spectral centroid, and
    # b_p = <0|(M + c)^p|0> = sum_n C(p, n) c^(p-n) m_n.
    c_ref = REF_DAMPING - 1j * (m[1] / m[0]).imag if m[0] else REF_DAMPING
    b = np.array([sum(math.comb(p, n) * c_ref ** (p - n) * m[n]
                      for n in range(p + 1)) for p in range(REF_ORDER + 1)])

    period = 2.5 * t_max
    h = math.pi / period
    sigma = math.log(10.0 / TOL) / max(2.0 * period - t_max, period)

    def g(s_arr):
        u = 1.0 / (s_arr + c_ref)
        ref = np.zeros_like(u)
        for b_p in b[::-1]:
            ref = u * (b_p + ref)
        return np.asarray(f(s_arr)) - ref

    # Double omega_max until the dropped tail drops below TOL / 4, up to
    # 1e9.  With |g| ~ 1/|s|^(P+2) the nodes beyond W add up to about
    # e^(sigma t) |g(W)| W / ((P + 1) pi) at time t; the bound takes the
    # contour growth at t_max, as the truncation estimate does.
    tail = math.exp(sigma * t_max) / ((REF_ORDER + 1) * math.pi)
    probe = max(16.0, 8.0 * h)
    while probe < 1e9 and (abs(g(np.array([sigma + 1j * probe]))[0])
                           * probe * tail >= 0.25 * TOL):
        probe *= 2.0
    omega_max = min(probe, 1e9)
    scale = (h / TWO_PI) * np.exp(sigma * t)
    alias_est = math.exp(-sigma * (2.0 * period - t_max))
    # The probe bounds the tail only once |g| falls as 1/|s|^(P+2); while
    # the summed estimate still exceeds TOL, sum again on a doubled
    # contour, up to MAX_NODES.  h stays, so the nodes summed so far are
    # the inner ones of the doubled contour, and g is evaluated only at
    # the nodes beyond them.
    g_vals = np.empty(0, dtype=complex)
    while True:
        n_half = int(math.ceil(omega_max / h))
        capped = 2 * n_half + 1 > MAX_NODES
        if capped:
            n_half = (MAX_NODES - 1) // 2
            omega_max = n_half * h
        n_nodes = 2 * n_half + 1
        j = np.arange(n_nodes) - n_half
        fresh = np.abs(j) > (g_vals.size - 1) // 2
        vals = np.empty(n_nodes, dtype=complex)
        vals[~fresh] = g_vals
        vals[fresh] = g(sigma + 1j * (j[fresh] * h))
        g_vals = vals
        g_vals[[0, -1]] *= 0.5                 # trapezoid end weights
        result_inner, result_outer = _phase_sums(g_vals, h, t,
                                                 0.5 * omega_max)
        trunc_est = (float(np.max(np.abs(scale * result_outer)))
                     if t.size else 0.0)
        err_est = trunc_est + alias_est
        if err_est <= TOL or capped:
            break
        g_vals[[0, -1]] *= 2.0                 # inner on the doubled one
        omega_max *= 2.0

    reference = np.exp(-c_ref * t) * sum(
        b_p * t**p / math.factorial(p) for p, b_p in enumerate(b))
    values = reference + scale * (result_inner + result_outer)

    info = {"sigma": sigma, "omega_max": omega_max,
            "n_nodes": n_nodes, "h": h, "c_ref": complex(c_ref),
            "ref_order": REF_ORDER, "truncation_estimate": trunc_est,
            "alias_estimate": alias_est, "error_estimate": err_est}
    if err_est > 50.0 * TOL:
        raise InversionError(
            f"inversion self-check failed: estimated error {err_est:.3g}")
    return values, info

