"""Time-domain propagation of the coupled amplitude equations.

The amplitudes (excited state a0, one-photon modes a_k, ionization
channels a_c per detector atom) evolve under

    da0/dt = -i w0 a0 - i sum_k alpha_k a_k
    dak/dt = -i wk ak - i conj(alpha_k) a0 - i sum_{c,i} m_c conj(f_ki) a_ci
    dac/dt = -i wc ac - i m_c sum_k f_ki a_k

that is dy/dt = -i H y with H Hermitian and constant in time, so
a0(t) = <0|exp(-i H t)|0>.  In the frame rotating at w0 (every frequency
replaced by its detuning) the spectrum of H lies in [c - r, c + r].
Each end is bisected between the diagonal and Weyl's bound on an inertia
test over the Schur complements of the channel, mode and atom blocks,
which the resolvent's own elimination gives at s = -i E.  That puts each
end at most 2^-13 of its bracket past an extreme eigenvalue, so the
series is no longer than the spectrum needs.  The amplitude is the
Chebyshev series of Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967, 1984)

    a0(t) = exp(-i (w0 + c) t) sum_k (2 - delta_k0) (-i)^k J_k(r t) mu_k

over the moments mu_k = <0|T_k((H - c) / r)|0>, in the moment form of
the kernel polynomial method (Weisse et al., Rev. Mod. Phys. 78, 275,
2006): one recursion of N generator products gives the 2N + 1 moments
that serve every output time at once.  Each step of the recursion is one
call of the one generator product, t_k+1 = (2 / r) (H - c) t_k - t_k-1,
from arrays scaled by 2 / r once per model.  The steps go a block of
orders at a time, and each block's moments come from two row-wise dot
products over its vectors rather than from two dot products per step.
The series stops where every later |J_k(r t_max)| is below ``TAIL_TOL``,
so its error has a bound.  The norm, which the same moments give, is
exact up to that tail and rounding and so indicates the propagator's
health.  The stored trajectory is in the lab frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import resolvent
from .discretize import DiscreteModel, RecurrenceError
from .model import OMEGA0


#: Every Bessel function past the series cut is below this at r t_max.
TAIL_TOL = 1e-17
#: Miller's recurrence starts each argument's column at the first order
#: from which |J_k(x)| stays below this.
MILLER_TOL = 1e-30
#: Start value of Miller's recurrence: a column grows by at most
#: 1 / J_start(x) on its way down to order 0, which cannot overflow from
#: here for any x above 1e-300, while the values that matter stay normal.
MILLER_SEED = 1e-250
#: Values one chunk of output times holds per array (Bessel table, norm
#: spectra), so memory stays bounded whatever the series length and the
#: number of times; it also bounds the complex values of one block of the
#: moment recursion, floored at two orders, besides the two vectors the
#: block carries.  It is not resolvent.CHUNK_VALUES (2^19): a 2^19
#: chunk doubles the tracemalloc peak of 20,000 samples of the default toy,
#: from 10.7 to 20.3 MB, and moves their amplitudes by 5e-16, since the
#: split of the times sets the rounding.
CHUNK_VALUES = 1 << 18
#: With the spectrum inside the interval every |mu_k| <= 1; a moment past
#: 1 + this means the interval is too small and the series diverges.
MOMENT_SLACK = 1e-9
#: Bisection steps per end of the spectral interval; each halves the
#: end's bracket, so an end lies at most 2^-13 of it above the spectrum.
INTERVAL_STEPS = 13


class FitWindowError(ValueError):
    """Decay-rate fit window unusable."""


class IntegrationError(RuntimeError):
    """The Chebyshev moments left [-1, 1]: the series would diverge."""


@dataclass(frozen=True)
class SolverSpec:
    # The propagator has no tolerance; ROADMAP item 1 deletes this class.
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
        if (self.times.size and self.times[0] == 0.0
                and abs(self.survival[0] - 1.0) > 1e-9):
            raise ValueError("trajectory must start fully excited")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")


@dataclass
class RateFit:
    rate: float
    stderr: float
    window: tuple[float, float]
    r_squared: float


def _generator_product(model: DiscreteModel, c: float = 0.0,
                       r: float = 2.0):
    """The product v -> (2 / r) (H - c) v - prev with the rotating-frame
    generator H; the defaults give H itself.

    Returns apply(v, out=None, prev=None), which writes the product into
    out (a new array when out is None; out must be neither v nor prev)
    and returns it.  Its arrays are scaled by 2 / r once, here: the
    diagonal over every amplitude (the channel detunings repeated per
    atom), stored complex so that no call casts it, and one K x (1 + A)
    coupling matrix F = (2 / r) [alpha, f], the atom in column 0, with
    its conjugate.  a_k F gives the atom row and the channel sources,
    and with y = [a0, a_c m] the mode rows are conj(F) y.
    """
    scale = 2.0 / r
    n_modes, n_atoms = model.detector_factors.shape
    n_channels = model.n_channels
    # Bare atom frequency (with its level-shift counterterm); the frame
    # still rotates at the dressed omega0 on every tier.
    diag = np.concatenate(([model.omega_a], model.mode_omegas,
                           np.tile(model.channel_omegas, n_atoms)))
    diag = (scale * (diag - OMEGA0 - c)).astype(complex)
    coupling = scale * np.column_stack((model.mode_alphas,
                                        model.detector_factors))
    coupling_conj = np.conj(coupling)
    m = model.channel_mu.astype(complex)
    detector = n_atoms > 0 and n_channels > 0
    y, sources = np.zeros((2, 1 + n_atoms), dtype=complex)
    mode_tmp = np.empty(n_modes, dtype=complex)
    channel_tmp = np.empty((n_atoms, n_channels), dtype=complex)

    def apply(v, out=None, prev=None):
        if out is None:
            out = np.empty_like(v)
        np.multiply(diag, v, out=out)
        if prev is not None:
            out -= prev
        np.matmul(v[1:1 + n_modes], coupling, out=sources)
        out[0] += sources[0]
        y[0] = v[0]
        if detector:
            ac = v[1 + n_modes:].reshape(n_atoms, n_channels)
            np.matmul(ac, m, out=y[1:])
            hc = out[1 + n_modes:].reshape(n_atoms, n_channels)
            hc += np.multiply(sources[1:, None], m, out=channel_tmp)
        np.matmul(coupling_conj, y, out=mode_tmp)
        out[1:1 + n_modes] += mode_tmp
        return out

    return apply


def _inertia_test(model: DiscreteModel, lam: float, sign: float) -> bool:
    """The test of lam I - sign H > 0 for the rotating-frame generator H.

    For lam above every diagonal entry of sign H it returns whether
    sign (E - H) is positive definite, with
    E = sign lam + omega0 in the lab frame.  At s = -i E every propagator
    of the resolvent is i times a real one, so its elimination,
    resolvent._eliminate, gives the Schur complements of the channel,
    mode and atom blocks: 1 + L G is I - g G, g = sum_c m_c^2 / (E - w_c),
    and the atom's complement is E - omega_a - Im sigma(-i E).  By
    Haynsworth's inertia additivity sign (E - H) is positive definite
    exactly when I - g G is and sign times the atom's complement is
    positive.  A singular I - g G fails the test.
    """
    E = sign * lam + OMEGA0
    try:
        _, sigma, mat = resolvent._eliminate(np.array([[-1j * E]]), model)
    except np.linalg.LinAlgError:
        return False
    complement = sign * (E - model.omega_a - sigma[0].imag)
    return bool(complement > 0.0) and (
        mat is None or bool(np.all(np.linalg.eigvalsh(mat[0]) > 0.0)))


def _spectrum_top(model: DiscreteModel, sign: float, lo: float,
                  hi: float) -> float:
    """Least tested lam above every eigenvalue of sign H.

    lo is the largest diagonal entry of sign H, at or below its top
    eigenvalue, and hi Weyl's bound, at or above it.  Above the diagonal
    the inertia test passes exactly above the spectrum, so each of
    ``INTERVAL_STEPS`` steps tests the midpoint and keeps the half that
    brackets the top eigenvalue; hi stays Weyl's bound until a point
    passes.  It stops early once the midpoint is no longer strictly
    inside (lo, hi): without coupling lo = hi is a diagonal entry, where
    the test would divide by zero.
    """
    for _ in range(INTERVAL_STEPS):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _inertia_test(model, mid, sign):
            hi = mid
        else:
            lo = mid
    return hi


def _spectral_interval(model: DiscreteModel) -> tuple[float, float]:
    """Centre c and half-width r of an interval holding the spectrum of
    the rotating-frame generator.

    Each end is bracketed between the range of the diagonal (the
    detunings), which the extreme eigenvalues reach at least, and Weyl's
    bound, that range widened by the norm of the off-diagonal part: at
    most |alpha|_2 + |F|_2 |m|_2, since the mode-channel block is
    conj(F) kron m^T.  ``_spectrum_top`` bisects the bracket on the
    inertia test of ``_inertia_test``, at most 2 ``INTERVAL_STEPS``
    points in all, so each end is either Weyl's bound or a point shown
    to lie beyond the spectrum.
    """
    diag = np.concatenate(([model.omega_a], model.mode_omegas,
                           model.channel_omegas)) - OMEGA0
    lo, hi = float(np.min(diag)), float(np.max(diag))
    off = float(np.linalg.norm(model.mode_alphas))
    if model.n_atoms and model.n_channels:
        off += float(np.linalg.norm(model.detector_factors, 2)
                     * np.linalg.norm(model.channel_mu))
    top = _spectrum_top(model, 1.0, hi, hi + off)
    bottom = -_spectrum_top(model, -1.0, -lo, -lo + off)
    half = 0.5 * (top - bottom)
    # A generator with a single eigenvalue is c itself; any r serves.
    return 0.5 * (top + bottom), half if half > 0.0 else 1.0


def _moments(model: DiscreteModel, c: float, r: float, n: int) -> np.ndarray:
    """mu_0 .. mu_2n of (H - c) / r from n generator products.

    With t_k = T_k((H - c) / r)|0> and H Hermitian, T_k T_l =
    (T_k+l + T_|k-l|) / 2 gives mu_2k = 2 <t_k|t_k> - mu_0 and
    mu_2k-1 = 2 <t_k|t_k-1> - mu_1.  The recursion writes a block of up to
    ``CHUNK_VALUES`` / size orders into the rows of a ring behind the two
    vectors it carries from the block before, and the block's moments
    come from two row-wise dot products of the real views, since
    Re <a|b> = Re a . Re b + Im a . Im b.  The first order whose moments
    leave [-1, 1] by more than ``MOMENT_SLACK`` raises IntegrationError;
    the rest of its block may overflow on the way, which is not reported.
    """
    apply = _generator_product(model, c, r)
    block = max(2, min(n, CHUNK_VALUES // model.size))
    ring = np.zeros((2 + block, model.size), dtype=complex)
    rows = ring.view(float)
    mu = np.empty(2 * n + 1)
    limit = 1.0 + MOMENT_SLACK
    ring[0, 0] = 1.0                          # t_0
    apply(ring[0], ring[1])
    ring[1] *= 0.5                            # t_1, half the product
    mu[0], mu[1] = 1.0, ring[1, 0].real
    # Row 0 holds t_base, and the moments are due from row first on.
    base, first = 0, 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            m = min(2 + block, n + 1 - base)      # rows t_base .. t_top
            for j in range(2, m):
                apply(ring[j - 1], ring[j], ring[j - 2])
            lo, top = base + first, base + m - 1
            pairs = mu[2 * lo - 1:2 * top + 1].reshape(-1, 2)
            cur, prev = rows[first:m], rows[first - 1:m - 1]
            pairs[:, 0] = 2.0 * np.einsum("ij,ij->i", cur, prev) - mu[1]
            pairs[:, 1] = 2.0 * np.einsum("ij,ij->i", cur, cur) - mu[0]
            outside = ~np.all(np.abs(pairs) <= limit, axis=1)
            if outside.any():
                k = lo + int(np.argmax(outside))
                raise IntegrationError(
                    f"Chebyshev moments {2 * k - 1} and {2 * k} are "
                    f"{mu[2 * k - 1]:.3g} and {mu[2 * k]:.3g}, outside "
                    f"[-1, 1]: the spectral interval c = {c:.6g}, "
                    f"r = {r:.6g} is too small")
            if top == n:
                return mu
            ring[:2] = ring[m - 2:m]
            base, first = top - 1, 2


def _log_kapteyn(k, x):
    """Kapteyn's bound (DLMF 10.14.5) on log |J_k(x)| for k > x >= 0.

    It is sqrt(k^2 - x^2) - k arccosh(k / x), which falls with k at the
    rate arccosh(k / x); NaN, which no comparison passes, for k <= x.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(k * k - x * x) - k * np.arccosh(k / x)


def _kapteyn_order(x, tol: float) -> np.ndarray:
    """Smallest order k > x from which Kapteyn's bound keeps every
    |J_k(x)| below tol, for each x >= 0."""
    x = np.asarray(x, dtype=float)
    log_tol = math.log(tol)
    lo = np.floor(x)                          # the bound needs k > x
    hi = lo + 1.0
    while True:                               # double the step until it fits
        fits = _log_kapteyn(hi, x) <= log_tol
        if np.all(fits):
            break
        hi = np.where(fits, hi, 2.0 * hi - lo)
    while np.any(hi - lo > 1.0):              # then bisect down to it
        mid = np.floor(0.5 * (lo + hi))
        fits = _log_kapteyn(mid, x) <= log_tol
        lo, hi = np.where(fits, lo, mid), np.where(fits, mid, hi)
    return hi.astype(int)


def _kapteyn_tail(k: int, x: float) -> float:
    """Bound on sum_{j >= k} |J_j(x)| for k > x >= 0.

    From order k on, Kapteyn's bound falls by at least exp(-arccosh(k/x))
    per order, so the sum is below a geometric series.
    """
    x = np.float64(x)
    with np.errstate(divide="ignore"):
        ratio = np.exp(-np.arccosh(k / x))
    return float(np.exp(_log_kapteyn(k, x)) / (1.0 - ratio))


def _bessel_table(n: int, x) -> np.ndarray:
    """J_k(x) for k = 0 .. n (rows) at each x >= 0 (columns).

    Miller's backward recurrence J_k-1 = (2k / x) J_k - J_k+1 (DLMF
    10.74(iv)), three vector steps per order over every x, each order
    written straight into its row; orders above n go through three
    rolling rows.  Each column starts from ``MILLER_SEED`` at its own
    Kapteyn order for ``MILLER_TOL`` and is normalized by
    J_0 + 2 sum_k J_2k = 1, the rows up to n summed once at the end.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    zero = x == 0.0
    x = np.where(zero, 1.0, x)
    start = _kapteyn_order(x, MILLER_TOL)
    order = np.argsort(start, kind="stable")
    starts, first = np.unique(start[order], return_index=True)
    ends = first.tolist()[1:] + [x.size]
    seeds = {k: order[i:j]                    # the columns that start at k
             for k, i, j in zip(starts.tolist(), first.tolist(), ends)}
    two_over_x = 2.0 / x
    top = int(starts[-1])
    # Rows 0 .. n are the table; row e, the first even row above them,
    # sums the even orders past n, so that one strided sum adds every even
    # order top down, in the recurrence's order.
    e = n + 2 - n % 2
    tall = np.zeros((e + 1, x.size))
    table = tall[:n + 1]
    spare = np.zeros((3, x.size))             # the orders above n
    row = [table[k] if k <= n else spare[k % 3] for k in range(top + 2)]
    for k in range(top, 0, -1):
        here, below = row[k], row[k - 1]
        if k in seeds:
            here[seeds[k]] = MILLER_SEED
        if k > n and k % 2 == 0:
            tall[e] += here
        np.multiply(two_over_x, k, out=below)
        below *= here
        below -= row[k + 1]
    table /= 2.0 * tall[e:0:-2].sum(axis=0) + table[0]
    table[:, zero] = 0.0
    table[0, zero] = 1.0
    return table


def _norm_form(mu: np.ndarray, first: int, m: int):
    """Spectral weights of the quadratic form of one parity of the norm.

    The form is Q(v) = sum_ab v_a v_b (h_a+b + g_|a-b|) / 2 over
    a, b < m, with h_s = mu_2s+first and g_d = mu_2d: a Hankel part, the
    linear autoconvolution of v against h, and a Toeplitz part, its
    autocorrelation against g.  On an FFT of a length L >= 2m neither
    wraps, so with V = rfft(v, L), Q(v) = Re(sum_f A_f V_f^2) +
    sum_f B_f |V_f|^2 by Parseval.  Returns L, A and B.
    """
    size = 2 << (m - 1).bit_length()          # a power of two >= 2m
    h = mu[first::2][:2 * m - 1]
    g = mu[0::2][:m]
    g_circ = np.zeros(size)
    g_circ[:m] = g
    g_circ[size - m + 1:] = g[:0:-1]
    weight = np.full(size // 2 + 1, 1.0 / size)
    weight[1:-1] *= 2.0                       # the bins that stand for two
    return (size, 0.5 * weight * np.conj(np.fft.rfft(h, size)),
            0.5 * weight * np.fft.rfft(g_circ).real)


def _series(mu: np.ndarray, x: np.ndarray):
    """The rotating-frame series at each x = r t, and its norm squared.

    With w_k = (2 - delta_k0) J_k(x) and v_k = (-1)^(k // 2) w_k, the
    amplitude is sum_even v_k mu_k - i sum_odd v_k mu_k.  In the norm
    sum_kl conj(c_k) c_l (mu_k+l + mu_|k-l|) / 2, with c_k = (-i)^k w_k,
    the terms with k - l odd cancel in pairs, which leaves one real
    quadratic form in v per parity.  The times go in chunks of
    ``CHUNK_VALUES`` table entries.
    """
    n = (mu.size - 1) // 2
    scale = np.where(np.arange(n + 1) % 4 < 2, 2.0, -2.0)
    scale[0] = 1.0
    forms = [_norm_form(mu, 0, n // 2 + 1), _norm_form(mu, 2, (n + 1) // 2)]
    amp = np.empty(x.size, dtype=complex)
    norm = np.zeros(x.size)
    chunk = max(1, CHUNK_VALUES // (n + 1))
    for lo in range(0, x.size, chunk):
        sl = slice(lo, lo + chunk)
        v = scale[:, None] * _bessel_table(n, x[sl])
        amp[sl] = mu[0:n + 1:2] @ v[0::2] - 1j * (mu[1:n + 1:2] @ v[1::2])
        for p, (size, a, b) in enumerate(forms):
            spec = np.fft.rfft(np.ascontiguousarray(v[p::2].T), size)
            norm[sl] += (spec**2 @ a).real + (spec.real**2
                                              + spec.imag**2) @ b
    return amp, norm


def integrate(model: DiscreteModel, t_max: float,
              solver: SolverSpec = SolverSpec(),
              t_eval: np.ndarray | None = None) -> Trajectory:
    """Propagate from the fully excited state and sample the trajectory.

    Initial condition: atom excited, field empty, detector in its ground
    state.  Refuses horizons beyond the grid recurrence time.  The
    metadata hold ``nfev``, the generator products; ``n_terms``, the
    series length; and ``error_bound``, a bound on the amplitude error
    at every sampled time.  It is the Bessel tail
    2 sum_{k >= n_terms} |J_k(r t_max)| (every |mu_k| <= 1) plus the
    rounding term eps (2 N^(3/2) + (omega0 + |c|) t_max), N = n_terms - 1.
    Its first part takes moment errors that grow linearly in the order,
    as rounding does in a stable three-term recursion, |d mu_k| <= k eps,
    against series weights whose absolute sum is at most sqrt(2 (N + 1))
    (Cauchy-Schwarz with sum_k w_k^2 <= 2); its second part is the
    rounding of the phase exp(-i (omega0 + c) t).
    ``solver`` is unused.
    """
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and >= 0, got {t_max}")
    if t_max > model.t_rec:
        raise RecurrenceError(
            f"t_max = {t_max:.3g} exceeds grid recurrence time "
            f"{model.t_rec:.3g}")
    if t_eval is None:
        t_eval = np.linspace(0.0, t_max, 301)
    t_eval = np.array(t_eval, dtype=float)
    if t_eval.size and not (t_eval.min() >= 0.0 and t_eval.max() <= t_max):
        raise ValueError("t_eval must lie within [0, t_max]")

    c, r = _spectral_interval(model)
    x_max = r * t_max
    n_terms = max(2, int(_kapteyn_order(x_max, TAIL_TOL)))
    n = n_terms - 1
    mu = _moments(model, c, r, n)
    rotated, norm = _series(mu, r * t_eval)
    a0 = rotated * np.exp(-1j * (OMEGA0 + c) * t_eval)

    tail = 2.0 * _kapteyn_tail(n_terms, x_max)
    rounding = np.finfo(float).eps * (2.0 * n**1.5
                                      + (OMEGA0 + abs(c)) * t_max)
    return Trajectory(
        times=t_eval, a0=a0, survival=np.abs(a0) ** 2, norm_drift=norm - 1.0,
        metadata={"nfev": n, "n_terms": n_terms,
                  "error_bound": float(tail + rounding)})


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
    """Chebyshev propagation vs resolvent inversion on the same model.

    The inversion runs on the rotated resolvent A0(s - i w0) so the contour
    sees only detuning-scale oscillations; the comparison is in the lab
    frame.  Its moments <0|M^n|0> at infinity come from the rotating-frame
    generator M = -i (H - w0) that the propagator expands, one generator
    product each.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    traj = integrate(model, float(t_grid[-1]), t_eval=t_grid)

    def shifted(s_arr):
        return resolvent.resolvent_a0_discrete(s_arr - 1j * OMEGA0, model)

    apply = _generator_product(model)
    y = np.zeros(model.size, dtype=complex)
    y[0] = 1.0
    moments = [y[0]]
    for _ in range(resolvent.REF_ORDER):
        y = -1j * apply(y)
        moments.append(y[0])
    rotated, info = resolvent.invert_laplace(shifted, moments, t_grid)
    a0_res = rotated * np.exp(-1j * OMEGA0 * t_grid)
    diff = float(np.max(np.abs(traj.a0 - a0_res)))
    return RouteComparison(times=t_grid, a0_ode=traj.a0,
                           a0_resolvent=a0_res, max_abs_diff=diff,
                           inversion_info=info)
