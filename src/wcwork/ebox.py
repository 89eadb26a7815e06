"""Electron-box physics: tunnelling rates, two-level master equation,
partial-swap Monte Carlo, the jump-expansion work distribution, and the
tilted-generator characteristic function.

Energies are measured against the inverse temperature in ``EboxParams``
(beta = 1 puts everything in units of kT); level 0 is pinned at zero energy
and level 1 sits at the time-dependent splitting eps(t).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .engine import DEFAULT_BIN_TOLERANCE, bin_works
from .errors import (
    ConvergenceError,
    InvalidInputError,
    NumericError,
    StepSizeError,
)
from .model import EnergyLandscape, make_thermal_state
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
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidInputError("ramp times and values must be finite")
        if t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise InvalidInputError("ramp times must start at 0 and increase")
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
    xs = np.where(small, x, 0.0)  # the series on small x only: x * x may overflow
    ratio = np.where(small, 1.0 - xs / 2.0 + xs * xs / 12.0, x / denom)
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
    xs = np.where(small, x, 0.0)  # the series on small x only: x * x may overflow
    coth_scaled = np.where(  # eps*coth(beta eps/2) = (2/beta) * x*coth(x)
        small, 1.0 + xs * xs / 3.0, x / np.tanh(np.where(small, 1.0, x))
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
    with np.errstate(over="ignore"):  # exp -> inf gives the exact limits 0
        p1 = 1.0 / (1.0 + np.exp(beta * eps))
        return 1.0 / (1.0 + np.exp(-beta * eps)), p1


def _initial_pair(rho0) -> np.ndarray:
    p = np.asarray(getattr(rho0, "probs", rho0), dtype=float)
    if p.shape != (2,) or not np.all(np.isfinite(p)) or abs(p.sum() - 1.0) > 1e-9 \
            or np.any(p < 0):
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
    ``_rk4_steps`` schedule.  Returns (phi_0, phi_1, w) at every node.

    A stage at (q0, q1) has slopes dot0 = gm * q1 - gp * q0,
    xi * s * q1 - dot0 and s * q1, with s the step's ramp slope."""
    p0, p1, w = start[0], start[1], 0.0
    nodes = [(p0, p1, w)]
    for h, s, gp0, gph, gp1, gm0, gmh, gm1 in steps:
        xs, h2 = xi * s, h / 2.0
        a0 = gm0 * p1 - gp0 * p0
        a1, aw = xs * p1 - a0, s * p1
        q0, q1 = p0 + h2 * a0, p1 + h2 * a1
        b0 = gmh * q1 - gph * q0
        b1, bw = xs * q1 - b0, s * q1
        q0, q1 = p0 + h2 * b0, p1 + h2 * b1
        c0 = gmh * q1 - gph * q0
        c1, cw = xs * q1 - c0, s * q1
        q0, q1 = p0 + h * c0, p1 + h * c1
        d0 = gm1 * q1 - gp1 * q0
        h6 = h / 6.0
        p0 += h6 * (a0 + 2.0 * b0 + 2.0 * c0 + d0)
        w += h6 * (aw + 2.0 * bw + 2.0 * cw + s * q1)
        p1 += h6 * (a1 + 2.0 * b1 + 2.0 * c1 + (xs * q1 - d0))
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
    the swap probability and the Gibbs occupations (g0, g1) at every step
    start."""
    grid = np.linspace(0.0, ramp.tau, n_steps + 1)
    eps = ramp(grid)
    psw = np.asarray(swap_probability(eps[:-1], ramp.tau / n_steps, params))
    return grid, eps, psw, gibbs_occupations(eps[:-1], params.beta)


def partial_swap_chain(ramp: Ramp, p0, n_steps: int, params: EboxParams):
    """Occupations under the discrete chain of partial-swap matrices with a
    uniform step; first-order-in-dt image of the master equation."""
    p, q = _initial_pair(p0).tolist()
    grid, _, psw, (g0, g1) = _swap_schedule(ramp, n_steps, params)
    occ = np.empty((n_steps + 1, 2))
    occ[0] = p, q
    for k, (sw, a, b) in enumerate(zip(psw.tolist(), g0.tolist(), g1.tolist()), start=1):
        p = (1.0 - sw) * p + sw * a
        q = (1.0 - sw) * q + sw * b
        occ[k] = p, q
    return grid, occ


@dataclass(frozen=True)
class WorkSamples:
    """Monte Carlo work samples and the final level of each trajectory."""

    samples: np.ndarray
    final_levels: np.ndarray

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

    def total_mass(self) -> float:
        return float(self.atoms[:, 1].sum() + self.bin_masses.sum())


def _check_seed(seed, n_keys: int = 1) -> None:
    """Reject a seed that is not an integer, or whose keys seed, ...,
    seed + n_keys - 1 do not all fit a 64-bit Philox key word."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or not 0 <= int(seed) <= 2**64 - n_keys:
        raise InvalidInputError(
            f"seed must be an integer in [0, 2**64 - {n_keys}], got {seed!r}")


def _hazard_index(hazard):
    """x -> searchsorted(hazard, x, side="right") - 1 for x >= hazard[0] >= 0
    on a non-decreasing hazard, by a guide table over its distinct values
    (Chen & Asau 1974; Devroye 1986, III.2.4).  Buckets are half the
    smallest positive increment wide, or top / (8 nodes) where that is wider
    (and never narrower than 2**-1000), so the table has at most 8 entries
    per node.  A lookup reads the table, then takes ceil(log2(B + 1))
    branchless steps, B the most values in one bucket; B = 1 unless the
    rate varies more than about 4-fold along the hazard."""
    ends = np.flatnonzero(np.append(hazard[1:] > hazard[:-1], True))  # run ends
    vals = hazard[ends]
    high = float(vals[-1])
    rise = float(np.diff(vals).min(initial=np.inf))
    inv = 1.0 / max(rise / 2.0, high / (8 * hazard.size), 2.0**-1000)
    # guide[j]: the last value in a bucket below j, from the values per bucket
    guide = np.bincount((vals * inv).astype(np.intp) + 1)
    steps = [1 << i for i in reversed(range(int(guide.max()).bit_length()))]
    np.cumsum(guide, out=guide)
    guide -= 1
    top = np.append(vals, np.full(2 * steps[0] - 1, np.inf))

    def index(x):
        k = guide[(np.minimum(x, high) * inv).astype(np.intp)]
        for s in steps:
            k += s * (top[k + s] <= x)
        return ends[k]

    return index


def _sample_block(seed, block, m, p0, index, hazard, cap, eps):
    """Works and final levels of the ``m`` trajectories of one block, drawn
    from the block's own Philox keyed (seed, block): the initial levels,
    then per round one exponential for every live trajectory, which gives
    the step of its next level change.  The rounds walk the live
    trajectories in index order, one level change each."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))
    n = eps.size - 1
    works, finals = np.empty(m), np.empty(m, dtype=np.int8)
    live = np.arange(m)
    level = (gen.random(m) >= p0).astype(np.intp)  # 1 with probability p1
    pos = level * (n + 1)  # the level's section + the first step its next flip may take
    acc, at = np.zeros(m), np.full(m, eps[0])  # work so far, eps at the last change
    while live.size:
        # the flip step k: H_k <= H_pos + e < H_{k+1} in the level's own
        # section, or its next certain flip, or n (no flip) at the section's end
        x = hazard[pos]
        x += gen.standard_exponential(live.size)
        k = np.minimum(index(x), cap[pos])
        k -= level * (n + 1)
        e_k = eps[k]
        acc += level * (e_k - at)  # the level held since its last change
        done = k >= n
        if done.any():
            works[live[done]], finals[live[done]] = acc[done], level[done]
            keep = ~done
            live, k, e_k, acc, level = live[keep], k[keep], e_k[keep], acc[keep], level[keep]
        level ^= 1
        pos, at = level * (n + 1) + k + 1, e_k
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
    instantaneous Gibbs state (g0, g1), then the splitting moves and the
    occupied level accrues work sigma * d(eps).  So per step level 0 flips
    to 1 with probability p_sw g1 and level 1 to 0 with probability p_sw g0,
    and the sampler draws only the flips (thinning; Lewis & Shedler 1979):
    from step m, level sigma next flips at the first step k with
    H^sigma_{k+1} - H^sigma_m > e, where H^sigma_k = -sum_{j<k}
    log(1 - p_j g_{1-sigma,j}) is the level's cumulative flip hazard and
    e ~ Exp(1) (a step with p_sw g >= 1 always flips).  A trajectory's work
    adds, per stretch between level changes, its level times the
    splitting's change.

    Trajectories come in blocks of ``_MC_BLOCK``; block b draws from Philox
    keyed (seed, b), so a block's samples depend only on the seed, its index
    and its trajectory count.  ``seed`` is an integer in [0, 2**64).
    """
    if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in (n_traj, n_steps)):
        raise InvalidInputError("n_traj and n_steps must be integers >= 1")
    _check_seed(seed)
    start = _initial_pair(rho0)
    _, eps, psw, (g0, g1) = _swap_schedule(ramp, n_steps, params)

    flip = np.stack([psw * g1, psw * g0])  # row sigma: level sigma's flip probabilities
    certain = flip >= 1.0
    flip[certain] = 0.0  # no hazard: cap stops there
    # the levels' hazards end to end, level 1's section starting 1 above level 0's top
    hazard = np.concatenate([[0.0], -np.log1p(-flip[0]), [1.0], -np.log1p(-flip[1])])
    np.cumsum(hazard, out=hazard)
    index = _hazard_index(hazard)
    # cap[i]: the first certain flip at or after position i, else its section's
    # end, which also stops a level-0 lookup that ran past that section's top
    stops = np.pad(certain, ((0, 0), (0, 1)), constant_values=True).ravel()
    cap = np.minimum.accumulate(np.where(stops, np.arange(stops.size), stops.size)[::-1])[::-1]

    works = np.empty(n_traj)
    finals = np.empty(n_traj, dtype=np.int8)
    for b, a in enumerate(range(0, n_traj, _MC_BLOCK)):
        c = min(_MC_BLOCK, n_traj - a)
        works[a:a + c], finals[a:a + c] = _sample_block(
            seed, b, c, start[0], index, hazard, cap, eps)
    return WorkSamples(samples=works, final_levels=finals)


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
    # row sigma: the rate out of level sigma, Gamma(+eps) for level 0 and
    # Gamma(-eps) for level 1, and its trapezoid integral over [0, t]
    t_int = ramp.time_grid(_RATE_INTEGRAL_NODES)
    e_int = ramp(t_int)
    g = tunneling_rate(np.stack([e_int, -e_int]), params)
    cum_int = np.zeros_like(g)
    np.cumsum(0.5 * (g[:, 1:] + g[:, :-1]) * np.diff(t_int), axis=1, out=cum_int[:, 1:])

    # per J: each ordered J-subset of the n midpoints as a path of time
    # indices 0, its midpoints (1..n), n + 1, over the times 0, mid, tau, and
    # the splitting, both rates and both rate integrals at them
    tables = []
    for j_jumps in range(1, j_max + 1):
        n = _JUMP_GRID_DEFAULTS.get(j_jumps, _JUMP_GRID_FALLBACK)
        combos = np.arange(1, n + 1)[:, None]
        for _ in range(j_jumps - 1):  # each subset extended by every later index
            count = n - combos[:, -1]
            after = np.repeat(combos[:, -1] + 1 - (count.cumsum() - count), count)
            combos = np.column_stack([np.repeat(combos, count, axis=0),
                                      np.arange(count.sum()) + after])
        path = np.pad(combos, ((0, 0), (1, 1)), constant_values=((0, 0), (0, n + 1)))
        t = np.concatenate([[0.0], (np.arange(n) + 0.5) * tau / n, [tau]])
        e = ramp(t)
        cum = np.stack([np.interp(t, t_int, c) for c in cum_int])
        tables.append((path, e, tunneling_rate(np.stack([e, -e]), params), cum, tau / n))

    atom_w, atom_p = [], []
    bin_masses = np.zeros(w_grid.size - 1)
    for sigma0 in (0, 1):
        p_init = start[sigma0]
        if p_init == 0.0:
            continue
        atom_w.append(epsf - eps0 if sigma0 else 0.0)
        atom_p.append(p_init * math.exp(-cum_int[sigma0, -1]))  # the grid ends at tau
        for j_jumps, (path, e, rate, cum, dtq) in enumerate(tables, start=1):
            rates = np.ones(path.shape[0])
            action = np.zeros(path.shape[0])
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                for j in range(1, j_jumps + 2):
                    held = (sigma0 + j - 1) % 2  # the level held up to path time j
                    if j <= j_jumps:
                        rates *= rate[held][path[:, j]]
                    action += cum[held][path[:, j]] - cum[held][path[:, j - 1]]
                weights = p_init * rates * np.exp(-action) * dtq**j_jumps
            if not np.isfinite(weights).all():
                raise NumericError(f"a {j_jumps}-jump series weight is not finite")
            signs = 1.0 - 2.0 * ((sigma0 + np.arange(1, j_jumps + 1)) % 2)
            w_vals = (e[path[:, 1:-1]] @ signs + ((sigma0 + j_jumps) % 2) * epsf
                      - sigma0 * eps0)
            bin_masses += np.histogram(w_vals, bins=w_grid, weights=weights)[0]

    # the no-jump atoms, merged where they are the same work
    atoms = bin_works(atom_w, atom_p, DEFAULT_BIN_TOLERANCE).atoms
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
    neg = (phi0 < 0) | (phi1 < 0)
    if neg.any():
        raise StepSizeError(
            f"phi at tau is negative at xi={float(xis[neg][0])} with "
            f"{grid.size - 1} steps; reduce the step size"
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
        if z[1] < sys.float_info.min:  # RK4 keeps few bits of a subnormal Z
            raise NumericError(f"Z({lambda_probe!r}) = {float(z[1])!r} is below the normal "
                               "double range; use a smaller |lambda_probe|")
        bound = float(math.log(z[1]) / lambda_probe)
    return float(w[0]), bound


@dataclass(frozen=True)
class CrooksCheck:
    residuals: np.ndarray
    standard_errors: np.ndarray
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
    log_z_ratio = (make_thermal_state(EnergyLandscape([0.0, epsf]), beta)[1]
                   - make_thermal_state(EnergyLandscape([0.0, eps0]), beta)[1])

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
    if not np.any(use):
        raise InvalidInputError("no bins with enough forward/reverse overlap")
    w_bar = sums[use] / cf[use]
    resid = (
        np.log(cf[use] / cr[use].astype(float)) - log_z_ratio - beta * w_bar
    )
    se = np.sqrt(
        (1.0 - cf[use] / n_traj) / cf[use] + (1.0 - cr[use] / n_traj) / cr[use]
    )
    return CrooksCheck(residuals=resid, standard_errors=se, log_z_ratio=log_z_ratio)


def _sorted_cost_quantile(samples, eps: float):
    """The sorted samples and the index of the smallest x among them with at
    most floor(eps * n) samples above it."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise InvalidInputError("no work samples")
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
    w_eps = cost_work_quantile(samples, eps)
    if samples.min() < 0 or samples.mean() < 0:
        return False, None, None
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
    shorter runs get proportionally fewer steps so the step size, and with
    it the swap probability per step, stays uniform across the sweep, but
    no run gets fewer than 200 (below 200, every duration runs 200).
    Returns rows (speed, eps, w_eps_extracted, stderr) with
    speed = 1/tau, duration-major: for each duration, one row per tolerance
    in the order given.
    """
    durations = [float(t) for t in durations]
    if not durations or not all(0.0 < t < math.inf for t in durations):
        raise InvalidInputError("durations must be positive and finite")
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
