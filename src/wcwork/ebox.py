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

from .engine import bin_works
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericError,
    StepSizeError,
)
from .singleshot import markov_d_infinity_bound

DEFAULT_SEED = 20177
_JUMP_GRID_DEFAULTS = {1: 200, 2: 80, 3: 40}
_JUMP_GRID_FALLBACK = 24
_SERIES_REMAINDER_TOL = 0.05
_RATE_INTEGRAL_NODES = 4001
# trajectories per Monte Carlo stream: part of the streams' definition
_MC_BLOCK = 4096


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
    with np.errstate(over="ignore"):  # expm1 -> inf gives the exact limit 0
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
    with np.errstate(over="ignore"):  # exp -> inf gives the exact limit p1 = 0
        p1 = 1.0 / (1.0 + np.exp(beta * eps))
    return 1.0 - p1, p1


def _initial_pair(rho0) -> np.ndarray:
    p = np.asarray(getattr(rho0, "probs", rho0), dtype=float)
    if p.shape != (2,) or abs(p.sum() - 1.0) > 1e-9 or np.any(p < 0):
        raise InvalidInputError("rho0 must be a normalized two-level distribution")
    return p


def _rk4_steps(ramp: Ramp, grid: np.ndarray, params: EboxParams) -> list:
    """Per-step inputs of the tilted RK4 on ``grid``: the step, the slope of
    the ramp piece the step lies in (``grid`` holds the breakpoints, so no
    stage takes the slope of a neighbouring piece), and Gamma(+eps) and
    Gamma(-eps) at its start, midpoint and end, all evaluated once."""
    t, h = grid[:-1], np.diff(grid)
    e = ramp(np.concatenate([t, t + h / 2, t + h]))
    rates = tunneling_rate(np.concatenate([e, -e]), params).reshape(6, -1)
    piece = np.searchsorted(ramp.times, t, side="right") - 1
    slope = (np.diff(ramp.values) / np.diff(ramp.times))[piece]
    return list(zip(h.tolist(), slope.tolist(), *rates.tolist()))


def _tilted_rk4(steps: list, start: list, xi: float) -> list:
    """RK4 for phi' = M(t) phi + xi * deps/dt * diag(0, 1) phi from
    phi(0) = start, with the accumulator w' = deps/dt * phi_1, over the
    ``_rk4_steps`` schedule.  Returns (phi_0, phi_1, w) at every node."""

    def f(p0, p1, gp, gm):  # at the current step's slope s and xs = xi * s
        dot0 = gm * p1 - gp * p0
        return dot0, xs * p1 - dot0, s * p1

    p0, p1, w = start[0], start[1], 0.0
    nodes = [(p0, p1, w)]
    for h, s, gp0, gph, gp1, gm0, gmh, gm1 in steps:
        xs = xi * s
        k1 = f(p0, p1, gp0, gm0)
        k2 = f(p0 + h / 2 * k1[0], p1 + h / 2 * k1[1], gph, gmh)
        k3 = f(p0 + h / 2 * k2[0], p1 + h / 2 * k2[1], gph, gmh)
        k4 = f(p0 + h * k3[0], p1 + h * k3[1], gp1, gm1)
        p0, p1, w = (y + h / 6 * (a + 2 * b + 2 * c + d)
                     for y, a, b, c, d in zip((p0, p1, w), k1, k2, k3, k4))
        nodes.append((p0, p1, w))
    return nodes


def integrate_master(ramp: Ramp, p0, n_steps: int, params: EboxParams):
    """Solve p0' = -Gamma(+eps) p0 + Gamma(-eps) p1 along the ramp: the
    untilted (xi = 0) run of the tilted RK4.

    Returns (times, occupations) with occupations[:, 1] = 1 - occupations[:, 0]
    at every node.
    """
    grid = ramp.time_grid(n_steps)
    start = _initial_pair(p0).tolist()
    nodes = _tilted_rk4(_rk4_steps(ramp, grid, params), start, 0.0)
    p0_series = np.array(nodes)[:, 0]
    if np.any(p0_series < -1e-9) or np.any(p0_series > 1 + 1e-9):
        raise StepSizeError("occupation left [0, 1]; reduce the step size")
    p0_series = np.clip(p0_series, 0.0, 1.0)
    occ = np.column_stack([p0_series, 1.0 - p0_series])
    return grid, occ


def constant_relaxation_p0(eps: float, t, p0_initial: float, params: EboxParams):
    """Closed form for constant splitting: exponential relaxation to the Gibbs
    ground-state occupation with rate Gamma(+eps) + Gamma(-eps)."""
    rate = tunneling_rate(eps, params) + tunneling_rate(-eps, params)
    p_th = gibbs_occupations(eps, params.beta)[0]
    decay = np.exp(-rate * np.asarray(t, dtype=float))
    return p0_initial * decay + p_th * (1.0 - decay)


def _swap_schedule(ramp: Ramp, n_steps: int, params: EboxParams):
    """The partial-swap chain's uniform grid and the splitting on it, with
    the swap probability and the Gibbs excited occupation g1 at every step
    start."""
    grid = np.linspace(0.0, ramp.tau, n_steps + 1)
    eps = ramp(grid)
    psw = np.asarray(swap_probability(eps[:-1], ramp.tau / n_steps, params))
    g1 = gibbs_occupations(eps[:-1], params.beta)[1]
    return grid, eps, psw, g1


def partial_swap_chain(ramp: Ramp, p0, n_steps: int, params: EboxParams):
    """Occupations under the discrete chain of partial-swap matrices with a
    uniform step; first-order-in-dt image of the master equation."""
    p, q = _initial_pair(p0).tolist()
    grid, _, psw, g1 = _swap_schedule(ramp, n_steps, params)
    occ = np.empty((n_steps + 1, 2))
    occ[0] = p, q
    for k, (sw, g) in enumerate(zip(psw.tolist(), g1.tolist()), start=1):
        p = (1.0 - sw) * p + sw * (1.0 - g)
        q = (1.0 - sw) * q + sw * g
        occ[k] = p, q
    return grid, occ


@dataclass(frozen=True)
class WorkSamples:
    """Monte Carlo work samples, the final level of each trajectory, and the
    seed and count that reproduce them."""

    samples: np.ndarray
    final_levels: np.ndarray
    seed: int
    n: int

    def mean(self) -> float:
        return float(self.samples.mean())


@dataclass(frozen=True)
class SeriesWorkDistribution:
    """The jump-expansion series: (w, p) atoms as a read-only (n, 2) array
    sorted by work, density-bin masses on ``bin_edges``, and the mass the
    series did not capture."""

    atoms: np.ndarray
    bin_edges: np.ndarray
    bin_masses: np.ndarray
    remainder: float

    def mean(self) -> float:
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        return float(np.dot(self.atoms[:, 0], self.atoms[:, 1])
                     + np.dot(centers, self.bin_masses))

    def total_mass(self) -> float:
        return float(self.atoms[:, 1].sum() + self.bin_masses.sum())


def _check_seed(seed, n_keys: int = 1) -> None:
    """Reject a seed that is not an integer, or whose keys seed, ...,
    seed + n_keys - 1 do not all fit a 64-bit Philox key word."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= int(seed) <= 2**64 - n_keys:
        raise InvalidInputError(
            f"seed must be an integer in [0, 2**64 - {n_keys}], got {seed!r}")


def _sample_block(seed, block, m, p0, hazard, cap, g1, eps):
    """Works and final levels of the ``m`` trajectories of one block, drawn
    from the block's own Philox keyed (seed, block): the initial levels,
    then per round one exponential for every live trajectory and one
    uniform, the new Gibbs level, for every trajectory that swaps.  The
    rounds walk the live trajectories in index order, one swap each."""
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    n = g1.size
    works, finals = np.empty(m), np.empty(m, dtype=np.int8)
    live = np.arange(m)
    level = gen.random(m) >= p0  # 1 with probability p1
    frm = np.zeros(m, dtype=np.intp)  # the first step the next swap may take
    acc, at = np.zeros(m), np.full(m, eps[0])  # work so far, eps where it stops
    while live.size:
        # the swap step k: H_k <= H_frm + e < H_{k+1}, or the next certain swap
        x = hazard[frm]
        x += gen.standard_exponential(live.size)
        k = np.searchsorted(hazard, x, side="right") - 1
        np.minimum(k, cap[frm], out=k)
        e_k = eps[k]
        acc += level * (e_k - at)  # the level held since its last swap
        done = k >= n
        if done.any():
            works[live[done]], finals[live[done]] = acc[done], level[done]
            keep = ~done
            live, k, e_k, acc = live[keep], k[keep], e_k[keep], acc[keep]
        level = gen.random(live.size) < g1[k]
        frm, at = k + 1, e_k
    return works, finals


def monte_carlo_work(
    ramp: Ramp,
    rho0,
    n_traj: int,
    n_steps: int,
    seed: int,
    params: EboxParams,
) -> WorkSamples:
    """Sample trajectories of the partial-swap chain.

    Per step: with probability p_sw(t) the level is resampled from the
    instantaneous Gibbs state, then the splitting moves and the occupied level
    accrues work sigma * d(eps).  The sampler draws no "no swap" steps: from
    step m the next swap is the first step k with H_{k+1} - H_m > e, where
    H_k = -sum_{j<k} log(1 - p_j) is the cumulative hazard and e ~ Exp(1)
    (a step with p_sw >= 1 always swaps).  A trajectory's work adds, per
    stretch between swaps, its level times the splitting's change.

    Trajectories come in blocks of ``_MC_BLOCK``; block b draws from Philox
    keyed (seed, b), so a block's samples depend only on the seed, its index
    and its trajectory count.  ``seed`` is an integer in [0, 2**64).
    """
    if n_traj < 1 or n_steps < 1:
        raise InvalidInputError("n_traj and n_steps must be >= 1")
    _check_seed(seed)
    start = _initial_pair(rho0)
    _, eps, psw, g1 = _swap_schedule(ramp, n_steps, params)

    certain = psw >= 1.0  # swap_probability allows 1 + 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        rate = np.where(certain, 0.0, -np.log1p(-psw))
    hazard = np.concatenate([[0.0], np.cumsum(rate)])
    # cap[m]: the first certain swap at or after step m, else n_steps
    cap = np.where(certain, np.arange(n_steps), n_steps)
    cap = np.minimum.accumulate(np.append(cap, n_steps)[::-1])[::-1]

    works = np.empty(n_traj)
    finals = np.empty(n_traj, dtype=np.int8)
    for b, a in enumerate(range(0, n_traj, _MC_BLOCK)):
        c = min(_MC_BLOCK, n_traj - a)
        works[a:a + c], finals[a:a + c] = _sample_block(
            seed, b, c, start[0], hazard, cap, g1, eps)
    return WorkSamples(samples=works, final_levels=finals, seed=seed, n=n_traj)


def _cumulative_rate_integrals(ramp: Ramp, params: EboxParams):
    """Interpolants x -> integral over [0, x] of Gamma(+eps) (key +1) and of
    Gamma(-eps) (key -1), by the trapezoid rule on the ramp's time grid."""
    t = ramp.time_grid(_RATE_INTEGRAL_NODES)
    e = ramp(t)
    gp = np.atleast_1d(tunneling_rate(e, params))
    gm = np.atleast_1d(tunneling_rate(-e, params))

    def cum(g):
        inc = 0.5 * (g[1:] + g[:-1]) * np.diff(t)
        return np.concatenate([[0.0], np.cumsum(inc)])

    cp, cm = cum(gp), cum(gm)
    return {+1: lambda x: np.interp(x, t, cp), -1: lambda x: np.interp(x, t, cm)}


def analytic_work_distribution(
    ramp: Ramp,
    j_max: int,
    w_grid: np.ndarray,
    rho0,
    params: EboxParams,
) -> SeriesWorkDistribution:
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
    tau = ramp.tau
    eps0, epsf = float(ramp(0.0)), float(ramp(tau))
    cumint = _cumulative_rate_integrals(ramp, params)

    def seg_sign(sigma0, j):  # sign of the rate in segment/jump j (1-based)
        return +1 if (sigma0 + j + 1) % 2 == 0 else -1

    atom_w, atom_p = [], []
    bin_masses = np.zeros(w_grid.size - 1)
    for sigma0 in (0, 1):
        p_init = start[sigma0]
        if p_init == 0.0:
            continue
        s0 = cumint[seg_sign(sigma0, 1)](tau)
        atom_w.append(epsf - eps0 if sigma0 else 0.0)
        atom_p.append(p_init * math.exp(-s0))
        for j_jumps in range(1, j_max + 1):
            n = _JUMP_GRID_DEFAULTS.get(j_jumps, _JUMP_GRID_FALLBACK)
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

    # the no-jump atoms, merged where they lie within 1e-9 of each other
    atoms = bin_works(atom_w, atom_p, 1e-9).atoms
    remainder = 1.0 - (atoms[:, 1].sum() + bin_masses.sum())
    if remainder > _SERIES_REMAINDER_TOL:
        raise ConvergenceError(
            f"series remainder {remainder:.4g} exceeds {_SERIES_REMAINDER_TOL}; "
            "increase j_max or use the characteristic function"
        )
    return SeriesWorkDistribution(
        atoms=atoms,
        bin_edges=w_grid,
        bin_masses=bin_masses,
        remainder=float(remainder),
    )


def _tilted_end(xi, ramp: Ramp, rho0, n_steps: int, params: EboxParams):
    """Z = phi_0 + phi_1 and the accumulator w at tau for the tilts ``xi``
    (one value or a 1-D sequence); every tilt is stepped over the one rate
    schedule."""
    xis = np.atleast_1d(np.asarray(xi, dtype=float))
    if xis.ndim != 1 or not np.all(np.isfinite(xis)):
        raise InvalidInputError("xi must be finite: one value or a 1-D sequence")
    start = _initial_pair(rho0).tolist()
    grid = ramp.time_grid(max(n_steps, 4))
    steps = _rk4_steps(ramp, grid, params)
    end = np.array([_tilted_rk4(steps, start, x)[-1] for x in xis.tolist()])
    phi0, phi1, w = end.reshape(-1, 3).T
    z = phi0 + phi1
    bad = ~np.isfinite(z)
    if bad.any():
        raise NumericError(
            f"characteristic function diverged at xi={float(xis[bad][0])} "
            f"with {grid.size - 1} steps"
        )
    return z, w


def characteristic_function(
    xi, ramp: Ramp, rho0, n_steps: int, params: EboxParams
):
    """Z(xi) = <exp(xi w)> via the tilted forward generator.

    Integrates phi' = M(t) phi + xi * deps/dt * diag(0, 1) phi from
    phi(0) = p(0) and returns the sum of the components at tau.  ``xi`` is
    one tilt, giving a float, or a 1-D sequence of tilts, giving an array;
    the rates along the ramp are evaluated once for the whole batch.
    """
    z, _ = _tilted_end(xi, ramp, rho0, n_steps, params)
    return float(z[0]) if np.ndim(xi) == 0 else z


def mean_work(
    ramp: Ramp,
    rho0,
    n_steps: int,
    params: EboxParams,
    lambda_probe: float = None,
):
    """Mean work <w> = Z'(0), plus the optional Jensen bound
    log Z(lambda) / lambda >= mean.

    The mean is the accumulator w' = deps/dt * phi_1 of the untilted run:
    the exact derivative at xi = 0 of the same discrete RK4 map that gives Z.
    ``lambda_probe`` rides in the same batch as one more tilt.
    """
    if lambda_probe is not None and lambda_probe == 0:
        raise InvalidInputError("lambda_probe must be nonzero")
    xis = [0.0] if lambda_probe is None else [0.0, lambda_probe]
    z, w = _tilted_end(xis, ramp, rho0, n_steps, params)
    bound = None
    if lambda_probe is not None:
        bound = float(math.log(z[1]) / lambda_probe)
    return float(w[0]), bound


@dataclass(frozen=True)
class CrooksCheck:
    bin_centers: np.ndarray
    residuals: np.ndarray
    standard_errors: np.ndarray
    skipped_bins: int
    log_z_ratio: float

    @property
    def max_sigma_ratio(self) -> float:
        """Largest |residual| / standard error over the used bins; a bin whose
        standard error is 0 counts 0 if its residual is 0 and inf otherwise."""
        r = np.abs(self.residuals)
        ratio = np.divide(r, self.standard_errors, out=np.where(r > 0, np.inf, 0.0),
                          where=self.standard_errors > 0)
        return float(np.max(ratio))


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
    _check_seed(seed, 2)  # the reverse run reads seed + 1
    beta = params.beta
    eps0, epsf = float(ramp(0.0)), float(ramp(ramp.tau))
    gibbs0 = np.array(gibbs_occupations(eps0, beta))
    gibbsf = np.array(gibbs_occupations(epsf, beta))
    fwd = monte_carlo_work(ramp, gibbs0, n_traj, n_steps, seed, params)
    rev = monte_carlo_work(ramp.reversed(), gibbsf, n_traj, n_steps, seed + 1, params)
    # log((1 + e^{-beta eps_f}) / (1 + e^{-beta eps_0})), finite at any splitting
    log_z_ratio = float(
        np.logaddexp(0.0, -beta * epsf) - np.logaddexp(0.0, -beta * eps0))

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


def _sorted_cost_quantile(samples, eps: float):
    """The sorted samples and the index of the smallest x among them with at
    most floor(eps * n) samples above it."""
    x = np.sort(np.asarray(samples, dtype=float))
    return x, max(x.size - 1 - int(math.floor(eps * x.size)), 0)


def extracted_work_quantile(samples: np.ndarray, eps: float):
    """Guaranteed extracted work at tolerance eps and an order-statistic
    standard-error estimate.

    Returns the largest g with P(extracted < g) <= eps, where extracted = -w:
    the negated cost quantile, read from the same order statistics.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    x, k = _sorted_cost_quantile(samples, eps)
    n = x.size
    dk = max(1, int(math.ceil(3.0 * math.sqrt(n * eps * (1.0 - eps)))))
    # 0.0 - w, unlike -w, maps a zero work to +0.0
    lo = 0.0 - x[min(k + dk, n - 1)]
    hi = 0.0 - x[max(k - dk, 0)]
    return float(0.0 - x[k]), float((hi - lo) / 6.0)


def cost_work_quantile(samples: np.ndarray, eps: float) -> float:
    """Smallest x with the empirical P(w > x) <= eps (work-cost convention)."""
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    x, k = _sorted_cost_quantile(samples, eps)
    return float(x[k])


def markov_bound_check(
    samples: np.ndarray, eps: float, beta: float, log_z_ratio: float
):
    """Compare the Markov penalty bound against the measured penalty term.

    Returns (applicable, bound, measured).  Inapplicable (flagged, not
    bounded) when any sampled work is negative.
    """
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
    _check_seed(seed, len(durations))
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
