"""Electron-box physics: tunnelling rates, two-level master equation,
partial-swap Monte Carlo, the jump-expansion work distribution, and the
tilted-generator characteristic function.

Energies are measured against the inverse temperature in ``EboxParams``
(beta = 1 puts everything in units of kT); level 0 is pinned at zero energy
and level 1 sits at the time-dependent splitting eps(t).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericError,
    StepSizeError,
)

DEFAULT_SEED = 20177
_JUMP_GRID_DEFAULTS = {1: 200, 2: 80, 3: 40}
_JUMP_GRID_FALLBACK = 24


@dataclass(frozen=True)
class EboxParams:
    """Coupling strength gamma0, bath cutoff energy eps_c, inverse temperature."""

    gamma0: float
    eps_c: float
    beta: float

    def __post_init__(self):
        for name in ("gamma0", "eps_c", "beta"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                if name == "gamma0" and v == 0.0:
                    continue  # decoupled bath is a legitimate limit
                raise InvalidInputError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class Ramp:
    """Piecewise-linear energy splitting eps(t) on [0, tau]."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.array(self.times, dtype=float)
        v = np.array(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != v.shape:
            raise InvalidInputError("ramp needs matching time/value arrays")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvalidInputError("ramp times must start at 0 and increase")
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("ramp values must be finite")
        t.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    def __call__(self, t):
        return np.interp(t, self.times, self.values)

    def slope(self, t):
        """d eps/dt, taking the right-hand slope at breakpoints."""
        idx = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0,
                      self.times.size - 2)
        dt = np.diff(self.times)
        dv = np.diff(self.values)
        return (dv / dt)[idx]

    def reversed(self) -> "Ramp":
        return Ramp(times=self.tau - self.times[::-1], values=self.values[::-1])

    def time_grid(self, n_steps: int) -> np.ndarray:
        """At least n_steps RK4 nodes, aligned with the ramp breakpoints."""
        if n_steps < 1:
            raise InvalidInputError("n_steps must be >= 1")
        pieces = [np.array([0.0])]
        total = self.tau
        for a, b in zip(self.times[:-1], self.times[1:]):
            n = max(1, int(round(n_steps * (b - a) / total)))
            pieces.append(np.linspace(a, b, n + 1)[1:])
        return np.concatenate(pieces)


def linear_ramp(eps0: float, epsf: float, tau: float) -> Ramp:
    if tau <= 0:
        raise InvalidInputError("tau must be positive")
    return Ramp(times=np.array([0.0, tau]), values=np.array([eps0, epsf]))


def constant_ramp(eps: float, tau: float) -> Ramp:
    return linear_ramp(eps, eps, tau)


def szilard_ramp(eps_max: float, tau: float) -> Ramp:
    """Lift the splitting linearly from 0 to eps_max and back to 0."""
    if not (eps_max > 0 and tau > 0):
        raise InvalidInputError("eps_max and tau must be positive")
    return Ramp(
        times=np.array([0.0, tau / 2.0, tau]),
        values=np.array([0.0, eps_max, 0.0]),
    )


def tunneling_rate(eps, params: EboxParams):
    """Gamma(eps) = gamma0 (eps/eps_c) / (exp(beta eps) - 1), with the
    removable singularity at eps = 0 evaluated as gamma0 / (beta eps_c)."""
    eps = np.asarray(eps, dtype=float)
    x = params.beta * eps
    small = np.abs(x) < 1e-8
    denom = np.where(small, 1.0, np.expm1(np.where(small, 1.0, x)))
    ratio = np.where(small, 1.0 - x / 2.0 + x * x / 12.0, x / denom)
    out = (params.gamma0 / (params.beta * params.eps_c)) * ratio
    return out if out.ndim else float(out)


def swap_probability(eps, dt: float, params: EboxParams):
    """Partial-swap probability (gamma0 dt / eps_c) eps coth(beta eps / 2),
    equal to (Gamma(+eps) + Gamma(-eps)) dt."""
    if dt < 0:
        raise InvalidInputError("dt must be nonnegative")
    eps = np.asarray(eps, dtype=float)
    x = params.beta * eps / 2.0
    small = np.abs(x) < 1e-8
    coth_scaled = np.where(  # eps*coth(beta eps/2) = (2/beta) * x*coth(x)
        small, 1.0 + x * x / 3.0, x / np.tanh(np.where(small, 1.0, x))
    )
    p = (2.0 * params.gamma0 * dt / (params.beta * params.eps_c)) * coth_scaled
    pmax = float(np.max(p)) if p.ndim else float(p)
    if pmax > 1.0 + 1e-12:
        raise StepSizeError(
            f"swap probability {pmax:.4g} exceeds 1; reduce dt below "
            f"{dt / pmax:.4g}"
        )
    return p if p.ndim else float(p)


def gibbs_occupations(eps, beta: float):
    """(p0, p1) of the instantaneous Gibbs state at splitting eps."""
    eps = np.asarray(eps, dtype=float)
    p1 = 1.0 / (1.0 + np.exp(beta * eps))
    return 1.0 - p1, p1


def _rk4(f, y0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    y = np.empty((grid.size,) + np.shape(y0))
    y[0] = y0
    for k in range(grid.size - 1):
        t, h = grid[k], grid[k + 1] - grid[k]
        k1 = f(t, y[k])
        k2 = f(t + h / 2, y[k] + h / 2 * k1)
        k3 = f(t + h / 2, y[k] + h / 2 * k2)
        k4 = f(t + h, y[k] + h * k3)
        y[k + 1] = y[k] + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def _initial_pair(rho0) -> np.ndarray:
    p = np.asarray(getattr(rho0, "probs", rho0), dtype=float)
    if p.shape != (2,) or abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise InvalidInputError("rho0 must be a normalized two-level distribution")
    return p


def integrate_master(ramp: Ramp, p0, n_steps: int, params: EboxParams):
    """Solve p0' = -Gamma(+eps) p0 + Gamma(-eps) p1 along the ramp.

    Returns (times, occupations) with occupations[:, 0] + occupations[:, 1] = 1
    enforced exactly at every node.
    """
    start = _initial_pair(p0)
    grid = ramp.time_grid(n_steps)

    def f(t, y):
        e = ramp(t)
        gp = tunneling_rate(e, params)
        gm = tunneling_rate(-e, params)
        return -gp * y + gm * (1.0 - y)

    p0_series = _rk4(f, np.float64(start[0]), grid)
    if np.any(p0_series < -1e-9) or np.any(p0_series > 1 + 1e-9):
        raise StepSizeError("occupation left [0, 1]; reduce the step size")
    p0_series = np.clip(p0_series, 0.0, 1.0)
    occ = np.column_stack([p0_series, 1.0 - p0_series])
    return grid, occ


def constant_relaxation_p0(eps: float, t, p0_initial: float, params: EboxParams):
    """Closed form for constant splitting: exponential relaxation to the Gibbs
    ground-state occupation with rate Gamma(+eps) + Gamma(-eps)."""
    rate = tunneling_rate(eps, params) + tunneling_rate(-eps, params)
    p_th = 1.0 / (1.0 + math.exp(-params.beta * eps))
    decay = np.exp(-rate * np.asarray(t, dtype=float))
    return p0_initial * decay + p_th * (1.0 - decay)


def two_level_relaxation_probs(
    omega: float, dt: float, gamma: float, dos: float, beta: float
) -> np.ndarray:
    """Column-stochastic relaxation matrix over a time interval dt for a
    two-level system with splitting omega, bath density-of-states factor dos
    and base rate gamma; decay rate 2 dos coth(beta omega / 2) gamma."""
    if min(omega, dt, gamma, dos, beta) < 0:
        raise InvalidInputError("inputs must be nonnegative")
    rate = 2.0 * dos * (1.0 / math.tanh(beta * omega / 2.0)) * gamma
    p_th = 1.0 / (math.exp(-beta * omega) + 1.0)
    decay = math.exp(-rate * dt)
    p00 = decay + p_th * (1.0 - decay)  # p0(dt) with p0(0) = 1
    p10 = p_th * (1.0 - decay)  # p0(dt) with p0(0) = 0
    return np.array([[p00, p10], [1.0 - p00, 1.0 - p10]])


def partial_swap_chain(ramp: Ramp, p0, n_steps: int, params: EboxParams):
    """Occupations under the discrete chain of partial-swap matrices with a
    uniform step; first-order-in-dt image of the master equation."""
    start = _initial_pair(p0)
    grid = np.linspace(0.0, ramp.tau, n_steps + 1)
    dt = ramp.tau / n_steps
    occ = np.empty((n_steps + 1, 2))
    occ[0] = start
    p = start.copy()
    for k in range(n_steps):
        e = float(ramp(grid[k]))
        psw = swap_probability(e, dt, params)
        g0, g1 = gibbs_occupations(e, params.beta)
        p = (1.0 - psw) * p + psw * np.array([g0, g1])
        occ[k + 1] = p
    return grid, occ


@dataclass(frozen=True)
class EmpiricalWorkDistribution:
    """Work statistics either as raw Monte Carlo samples or as the atoms and
    density bins of the jump-expansion series."""

    samples: np.ndarray = None
    final_levels: np.ndarray = None
    atoms: tuple = None
    bin_edges: np.ndarray = None
    bin_masses: np.ndarray = None
    remainder: float = 0.0
    n: int = None
    seed: int = None

    def mean(self) -> float:
        if self.samples is not None:
            return float(self.samples.mean())
        w_at = np.array([w for w, _ in self.atoms])
        p_at = np.array([p for _, p in self.atoms])
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        return float(np.dot(w_at, p_at) + np.dot(centers, self.bin_masses))

    def total_mass(self) -> float:
        if self.samples is not None:
            return 1.0
        return float(sum(p for _, p in self.atoms) + self.bin_masses.sum())


def monte_carlo_work(
    ramp: Ramp,
    rho0,
    n_traj: int,
    n_steps: int,
    seed: int,
    params: EboxParams,
    chunk_size: int = 4096,
) -> EmpiricalWorkDistribution:
    """Sample trajectories with the partial-swap update.

    Per step: with probability p_sw(t) the level is resampled from the
    instantaneous Gibbs state, then the splitting moves and the occupied level
    accrues work sigma * d(eps).  Each trajectory draws from its own
    counter-based stream keyed by (seed, trajectory index), so the sample
    multiset is independent of chunking or scheduling.
    """
    if n_traj < 1 or n_steps < 1:
        raise InvalidInputError("n_traj and n_steps must be >= 1")
    start = _initial_pair(rho0)
    t_edges = np.linspace(0.0, ramp.tau, n_steps + 1)
    eps_nodes = ramp(t_edges)
    dt = ramp.tau / n_steps
    psw = np.asarray(swap_probability(eps_nodes[:-1], dt, params))  # checks <= 1
    g1 = gibbs_occupations(eps_nodes[:-1], params.beta)[1]
    deps = np.diff(eps_nodes)

    works = np.empty(n_traj)
    finals = np.empty(n_traj, dtype=np.int8)
    step_idx = np.arange(n_steps)
    # keep per-chunk scratch arrays near ~100 MB regardless of n_steps
    chunk_size = max(16, min(chunk_size, 2**22 // (2 * n_steps + 1)))
    draws = np.empty((min(chunk_size, n_traj), 2 * n_steps + 1))
    lo = 0
    while lo < n_traj:
        hi = min(lo + chunk_size, n_traj)
        c = hi - lo
        u = draws[:c]
        for i in range(c):
            gen = np.random.Generator(np.random.Philox(key=[seed, lo + i]))
            u[i] = gen.random(2 * n_steps + 1)
        init = (u[:, 0] >= start[0]).astype(np.int8)  # 1 with prob p1
        u_swap = u[:, 1 : n_steps + 1]
        u_gibbs = u[:, n_steps + 1 :]
        swapped = u_swap < psw[None, :]
        lvl_at_swap = (u_gibbs < g1[None, :]).astype(np.int8)
        last = np.maximum.accumulate(
            np.where(swapped, step_idx[None, :], -1), axis=1
        )
        state = np.where(
            last >= 0,
            np.take_along_axis(lvl_at_swap, np.maximum(last, 0), axis=1),
            init[:, None],
        )
        works[lo:hi] = state @ deps
        finals[lo:hi] = state[:, -1]
        lo = hi

    return EmpiricalWorkDistribution(
        samples=works, final_levels=finals, n=n_traj, seed=seed
    )


def _cumulative_rate_integrals(ramp: Ramp, params: EboxParams, n_fine: int = 4001):
    t = ramp.time_grid(n_fine)
    e = ramp(t)
    gp = np.atleast_1d(tunneling_rate(e, params))
    gm = np.atleast_1d(tunneling_rate(-e, params))

    def cum(g):
        inc = 0.5 * (g[1:] + g[:-1]) * np.diff(t)
        return np.concatenate([[0.0], np.cumsum(inc)])

    cp, cm = cum(gp), cum(gm)
    return t, {+1: lambda x: np.interp(x, t, cp), -1: lambda x: np.interp(x, t, cm)}


def analytic_work_distribution(
    ramp: Ramp,
    j_max: int,
    w_grid: np.ndarray,
    rho0,
    params: EboxParams,
    grid_sizes: dict = None,
    remainder_tol: float = 0.05,
) -> EmpiricalWorkDistribution:
    """Jump-expansion series for the work distribution.

    Atoms at W = 0 and W = eps_f - eps_0 carry the no-jump weights
    p_sigma exp(-S0(sigma)); each J >= 1 term is a nested quadrature over
    ordered jump times, binned onto ``w_grid``.  The uncaptured mass
    (truncation plus quadrature leakage) is reported as ``remainder``.
    """
    if j_max < 0:
        raise InvalidInputError("j_max must be >= 0")
    start = _initial_pair(rho0)
    w_grid = np.asarray(w_grid, dtype=float)
    if w_grid.ndim != 1 or w_grid.size < 2 or np.any(np.diff(w_grid) <= 0):
        raise InvalidInputError("w_grid must be increasing bin edges")
    sizes = dict(_JUMP_GRID_DEFAULTS)
    if grid_sizes:
        sizes.update(grid_sizes)
    tau = ramp.tau
    eps0, epsf = float(ramp(0.0)), float(ramp(tau))
    _, cumint = _cumulative_rate_integrals(ramp, params)

    def seg_sign(sigma0, j):  # sign of the rate in segment/jump j (1-based)
        return +1 if (sigma0 + j + 1) % 2 == 0 else -1

    atoms = {}

    def add_atom(w, p):
        for key in atoms:
            if abs(key - w) <= 1e-9:
                atoms[key] += p
                return
        atoms[w] = p

    bin_masses = np.zeros(w_grid.size - 1)
    for sigma0 in (0, 1):
        p_init = start[sigma0]
        if p_init == 0.0:
            continue
        s0 = cumint[seg_sign(sigma0, 1)](tau)
        add_atom(epsf - eps0 if sigma0 else 0.0, p_init * math.exp(-s0))
        for j_jumps in range(1, j_max + 1):
            n = sizes.get(j_jumps, _JUMP_GRID_FALLBACK)
            mid = (np.arange(n) + 0.5) * tau / n
            dtq = tau / n
            if j_jumps == 1:
                t_mat = mid[:, None]
            else:
                combos = np.fromiter(
                    itertools.chain.from_iterable(
                        itertools.combinations(range(n), j_jumps)
                    ),
                    dtype=int,
                ).reshape(-1, j_jumps)
                t_mat = mid[combos]
            rates = np.ones(t_mat.shape[0])
            action = np.zeros(t_mat.shape[0])
            prev = np.zeros(t_mat.shape[0])
            for j in range(1, j_jumps + 1):
                s = seg_sign(sigma0, j)
                tj = t_mat[:, j - 1]
                rates *= np.atleast_1d(tunneling_rate(s * ramp(tj), params))
                action += cumint[s](tj) - cumint[s](prev)
                prev = tj
            s_last = seg_sign(sigma0, j_jumps + 1)
            action += cumint[s_last](tau) - cumint[s_last](prev)
            signs = np.array(
                [(-1.0) ** (sigma0 + j) for j in range(1, j_jumps + 1)]
            )
            w_vals = (
                ramp(t_mat) @ signs
                + ((sigma0 + j_jumps) % 2) * epsf
                - sigma0 * eps0
            )
            weights = p_init * rates * np.exp(-action) * dtq**j_jumps
            hist, _ = np.histogram(w_vals, bins=w_grid, weights=weights)
            bin_masses += hist

    atom_list = tuple(sorted(atoms.items()))
    captured = sum(p for _, p in atom_list) + bin_masses.sum()
    remainder = 1.0 - captured
    if remainder > remainder_tol:
        raise ConvergenceError(
            f"series remainder {remainder:.4g} exceeds {remainder_tol}; "
            "increase j_max or use the characteristic function"
        )
    return EmpiricalWorkDistribution(
        atoms=atom_list,
        bin_edges=w_grid,
        bin_masses=bin_masses,
        remainder=float(remainder),
    )


def characteristic_function(
    xi: float, ramp: Ramp, rho0, n_steps: int, params: EboxParams
) -> float:
    """Z(xi) = <exp(xi w)> via the tilted forward generator.

    Integrates phi' = M(t) phi + xi * deps/dt * diag(0, 1) phi from
    phi(0) = p(0) and returns the sum of the components at tau.  Each linear
    piece of the ramp is integrated on its own, with its constant slope, so
    no RK4 stage takes the slope of a neighbouring piece.
    """
    if not math.isfinite(xi):
        raise InvalidInputError("xi must be finite")
    phi = _initial_pair(rho0).astype(float)
    grid = ramp.time_grid(max(n_steps, 4))
    # time_grid puts every breakpoint on the grid
    bounds = np.searchsorted(grid, ramp.times)
    slopes = (np.diff(ramp.values) / np.diff(ramp.times)).tolist()

    for lo, hi, slope in zip(bounds[:-1], bounds[1:], slopes):

        def f(t, phi, slope=slope):
            e = ramp(t)
            gp = tunneling_rate(e, params)
            gm = tunneling_rate(-e, params)
            dot0 = -gp * phi[0] + gm * phi[1]
            dot1 = gp * phi[0] - gm * phi[1] + xi * slope * phi[1]
            return np.array([dot0, dot1])

        phi = _rk4(f, phi, grid[lo : hi + 1])[-1]
    z = float(phi.sum())
    if not math.isfinite(z):
        raise NumericError(
            f"characteristic function diverged at xi={xi} with {grid.size - 1} steps"
        )
    return z


def mean_work(
    ramp: Ramp,
    rho0,
    n_steps: int,
    params: EboxParams,
    lambda_probe: float = None,
):
    """Mean work from the characteristic function's derivative at 0, plus the
    optional Jensen bound log Z(lambda) / lambda >= mean."""

    def z(xi):
        return characteristic_function(xi, ramp, rho0, n_steps, params)

    h = 0.1
    prev = (z(h) - z(-h)) / (2 * h)
    for _ in range(40):
        h /= 2.0
        cur = (z(h) - z(-h)) / (2 * h)
        if abs(cur - prev) <= 1e-6:
            break
        prev = cur
    else:
        raise NumericError("finite-difference mean work did not stabilize")
    mean = float(cur)
    bound = None
    if lambda_probe is not None:
        if lambda_probe == 0:
            raise InvalidInputError("lambda_probe must be nonzero")
        bound = float(math.log(z(lambda_probe)) / lambda_probe)
    return mean, bound


@dataclass(frozen=True)
class CrooksCheck:
    bin_centers: np.ndarray
    residuals: np.ndarray
    standard_errors: np.ndarray
    skipped_bins: int
    log_z_ratio: float

    @property
    def max_sigma_ratio(self) -> float:
        return float(np.max(np.abs(self.residuals) / self.standard_errors))


def ebox_crooks_check(
    ramp: Ramp,
    n_traj: int,
    seed: int,
    params: EboxParams,
    n_steps: int = 400,
    n_bins: int = 40,
    min_count: int = 100,
) -> CrooksCheck:
    """Monte Carlo Crooks test: forward from Gibbs(eps_0), reverse from
    Gibbs(eps_f), compared bin-by-bin where both histograms have at least
    ``min_count`` samples."""
    beta = params.beta
    eps0, epsf = float(ramp(0.0)), float(ramp(ramp.tau))
    gibbs0 = np.array(gibbs_occupations(eps0, beta))
    gibbsf = np.array(gibbs_occupations(epsf, beta))
    fwd = monte_carlo_work(ramp, gibbs0, n_traj, n_steps, seed, params)
    rev = monte_carlo_work(ramp.reversed(), gibbsf, n_traj, n_steps, seed + 1, params)
    log_z_ratio = math.log((1 + math.exp(-beta * epsf)) / (1 + math.exp(-beta * eps0)))

    w_f = fwd.samples
    w_r = -rev.samples
    lo = min(w_f.min(), w_r.min())
    hi = max(w_f.max(), w_r.max())
    pad = 1e-9 * max(1.0, abs(lo), abs(hi))
    edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
    cf, _ = np.histogram(w_f, bins=edges)
    cr, _ = np.histogram(w_r, bins=edges)
    sums, _ = np.histogram(w_f, bins=edges, weights=w_f)

    use = (cf >= min_count) & (cr >= min_count)
    skipped = int(np.sum((cf > 0) | (cr > 0)) - use.sum())
    if not np.any(use):
        raise InvalidInputError("no bins with enough forward/reverse overlap")
    w_bar = sums[use] / cf[use]
    resid = (
        np.log(cf[use] / cr[use].astype(float)) - log_z_ratio - beta * w_bar
    )
    se = np.sqrt(
        (1.0 - cf[use] / n_traj) / cf[use] + (1.0 - cr[use] / n_traj) / cr[use]
    )
    centers = 0.5 * (edges[:-1] + edges[1:])
    return CrooksCheck(
        bin_centers=centers[use],
        residuals=resid,
        standard_errors=se,
        skipped_bins=skipped,
        log_z_ratio=log_z_ratio,
    )


def extracted_work_quantile(samples: np.ndarray, eps: float):
    """Guaranteed extracted work at tolerance eps and an order-statistic
    standard-error estimate.

    Returns the largest g with P(extracted < g) <= eps, where extracted = -w.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    # 0.0 - w, unlike -w, maps a zero work to +0.0
    x = np.sort(0.0 - np.asarray(samples, dtype=float))
    n = x.size
    k = int(math.floor(eps * n))
    k = min(k, n - 1)
    dk = max(1, int(math.ceil(3.0 * math.sqrt(n * eps * (1.0 - eps)))))
    lo = x[max(k - dk, 0)]
    hi = x[min(k + dk, n - 1)]
    return float(x[k]), float((hi - lo) / 6.0)


def cost_work_quantile(samples: np.ndarray, eps: float) -> float:
    """Smallest x with the empirical P(w > x) <= eps (work-cost convention)."""
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    k = n - 1 - int(math.floor(eps * n))  # at most eps*n samples above x[k]
    return float(x[max(k, 0)])


def markov_bound_check(
    samples: np.ndarray, eps: float, beta: float, log_z_ratio: float
):
    """Compare the Markov penalty bound against the measured penalty term.

    Returns (applicable, bound, measured).  Inapplicable (flagged, not
    bounded) when any sampled work is negative.
    """
    from .singleshot import markov_d_infinity_bound

    samples = np.asarray(samples, dtype=float)
    if samples.min() < 0 or samples.mean() < 0:
        return False, None, None
    w_eps = cost_work_quantile(samples, eps)
    measured = beta * w_eps - math.log1p(-eps) + log_z_ratio
    bound = markov_d_infinity_bound(float(samples.mean()), eps, beta, log_z_ratio)
    return True, bound, measured


def szilard_sweep(
    durations,
    eps,
    eps_max: float,
    n_traj: int,
    n_steps: int,
    seed: int,
    params_proto: EboxParams,
):
    """Extracted eps-guaranteed work across durations of the feedback
    extraction protocol: the unoccupied level is raised to eps_max
    instantaneously (free, and jump-free in that limit), then returned
    linearly to degeneracy over tau with the system starting in the
    ground level.

    ``eps`` is one tolerance or a sequence of them; every tolerance is read
    from the single sample set drawn for each duration (seed + duration
    index).  ``n_steps`` is the step count used for the longest duration;
    shorter runs get proportionally fewer steps (at least 200) so the step
    size, and with it the swap probability per step, stays uniform across
    the sweep.  Returns rows (speed, eps, w_eps_extracted, stderr) with
    speed = 1/tau, duration-major: for each duration, one row per tolerance
    in the order given.
    """
    durations = [float(t) for t in durations]
    if not durations or min(durations) <= 0:
        raise InvalidInputError("durations must be positive")
    eps_values = [float(e) for e in np.atleast_1d(eps)]
    if not eps_values or not all(0.0 < e < 1.0 for e in eps_values):
        raise InvalidInputError("eps values must lie in (0, 1)")
    tau_max = max(durations)
    rows = []
    for i, tau in enumerate(durations):
        ramp = linear_ramp(eps_max, 0.0, tau)
        steps = max(200, int(math.ceil(n_steps * tau / tau_max)))
        dist = monte_carlo_work(
            ramp, np.array([1.0, 0.0]), n_traj, steps, seed + i, params_proto
        )
        for e in eps_values:
            w_eps, err = extracted_work_quantile(dist.samples, e)
            rows.append((1.0 / tau, e, w_eps, err))
    return rows
