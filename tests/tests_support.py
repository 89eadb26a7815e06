"""Shared helpers for the test suite, a hypothesis strategy of drawn
protocols, the path-walk oracle, the entry-by-entry merge oracle, the first
form of the column-stochastic check, the subset-by-subset smoothed-D0
oracle, the stage-by-stage RK4 reference for the electron box, and the
electron box's partial-swap chain as a discrete protocol.

The oracle expands every positive-probability trajectory of a protocol and
bins the path works in a per-atom loop.  It grows as d^(steps+1), so it only
serves small protocols, as the reference the engine's recursion is checked
against.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from wcwork import (
    EnergyLandscape,
    HamiltonianChange,
    Protocol,
    Thermalization,
    d_zero,
    partial_swap_hop_matrix,
    swap_probability,
    tunneling_rate,
)
from wcwork.model import PROB_ATOL


def random_protocol(rng, d, n_steps, beta):
    """Random mix of doubly stochastic level changes and partial thermalizations."""
    e0 = rng.normal(size=d)
    land = EnergyLandscape(e0)
    steps = []
    current = land
    for _ in range(n_steps):
        if rng.random() < 0.5:
            target = EnergyLandscape(rng.normal(size=d))
            jump = np.zeros((d, d))
            for weight in rng.dirichlet(np.ones(5)):
                jump += weight * np.eye(d)[rng.permutation(d)]
            steps.append(HamiltonianChange(target=target, jump=jump))
            current = target
        else:
            hop = partial_swap_hop_matrix(current, beta, rng.random())
            steps.append(Thermalization(hop=hop))
    return Protocol(initial=land, beta=beta, steps=tuple(steps))


@st.composite
def drawn_protocols(draw):
    """Protocols at beta = 1 with 2-4 levels and 1-6 steps, energies in
    [-20, 20] kT: level changes whose jump is a drawn mixture of
    permutations, and partial thermalizations of drawn swap probability.

    Energies lie on a 2^-6 kT grid, so every work is exact and two distinct
    works lie far beyond the engine's 1e-9 merge tolerance, within which
    forward and reverse atoms merge at different means.  The swap
    probability is 0, at least 1e-6, or at most 1e-300, where a hop entry
    p_swap * Gibbs falls into the subnormal range or to zero."""
    d = draw(st.integers(2, 4))
    energies = st.lists(st.integers(-1280, 1280), min_size=d, max_size=d).map(
        lambda k: np.array(k) / 64.0)
    land = EnergyLandscape(draw(energies))
    steps, current = [], land
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
            weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(perms),
                                             max_size=len(perms))))
            jump = sum(w * np.eye(d)[list(q)] for w, q in zip(weights / weights.sum(), perms))
            current = EnergyLandscape(draw(energies))
            steps.append(HamiltonianChange(target=current, jump=jump))
        else:
            p_swap = draw(st.just(0.0) | st.floats(1e-6, 1.0)
                          | st.floats(2.0**-1074, 1e-300))
            hop = partial_swap_hop_matrix(current, 1.0, p_swap)
            steps.append(Thermalization(hop=hop))
    return Protocol(initial=land, beta=1.0, steps=tuple(steps))


@st.composite
def planted_gap_protocols(draw):
    """Protocols at beta = 1 with 2-3 levels and 1-4 steps whose energies are
    off the 2^-6 kT grid, in [-5, 5] kT, and one landscape (the initial, a
    middle or the final one) in which two levels lie tol * (1 +- 2^-40)
    apart, tol = 1e-9 the bin tolerance.  Such gaps make works that lie
    just inside or just outside the tolerance of one another, after rounding
    one way on the forward side and the other on the reverse side.  Jump
    weights are at least 0.01 and swap probabilities 0 or at least 1e-3, so
    no path probability falls into the subnormal range.  Also drawn: a
    start state with every level occupied and a retained set."""
    d = draw(st.integers(2, 3))
    n_steps = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.booleans(), min_size=n_steps, max_size=n_steps))
    energy = st.builds(lambda k, f: k / 64.0 + f, st.integers(-320, 319),
                       st.floats(2.0**-20, 2.0**-6 - 2.0**-20))
    lands = [np.array(draw(st.lists(energy, min_size=d, max_size=d)))
             for _ in range(1 + sum(kinds))]
    planted = lands[draw(st.integers(0, len(lands) - 1))]
    i, j = draw(st.permutations(range(d)))[:2]
    planted[j] = planted[i] + 1e-9 * (1.0 + draw(st.sampled_from((-1, 1))) * 2.0**-40)
    current = EnergyLandscape(lands[0])
    initial, targets, steps = current, iter(lands[1:]), []
    for change in kinds:
        if change:
            perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
            weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(perms),
                                             max_size=len(perms))))
            jump = sum(w * np.eye(d)[list(q)] for w, q in zip(weights / weights.sum(), perms))
            current = EnergyLandscape(next(targets))
            steps.append(HamiltonianChange(target=current, jump=jump))
        else:
            p_swap = draw(st.just(0.0) | st.floats(1e-3, 1.0))
            steps.append(Thermalization(hop=partial_swap_hop_matrix(current, 1.0, p_swap)))
    occupations = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    in_set = draw(st.sets(st.integers(0, d - 1), min_size=1))
    return (Protocol(initial=initial, beta=1.0, steps=tuple(steps)),
            occupations / occupations.sum(), in_set)


def enumerate_paths(protocol, rho0):
    """Every trajectory with probability > 0 as arrays (nodes, works, probs):
    row i of ``nodes`` is the level sequence of path i."""
    d = protocol.d
    lands = protocol.landscapes()
    nodes = np.flatnonzero(rho0.probs > 0)[:, None]
    work = np.zeros(nodes.shape[0])
    prob = rho0.probs[nodes[:, 0]]
    for k, step in enumerate(protocol.steps):
        level = nodes[:, -1]
        new_prob = prob[:, None] * step.matrix[:, level].T
        if isinstance(step, HamiltonianChange):
            d_e = step.target.energies[None, :] - lands[k].energies[level][:, None]
            new_work = work[:, None] + d_e
        else:
            new_work = np.repeat(work[:, None], d, axis=1)
        nodes = np.column_stack([np.repeat(nodes, d, axis=0),
                                 np.tile(np.arange(d), level.size)])
        keep = new_prob.ravel() > 0
        nodes, work, prob = nodes[keep], new_work.ravel()[keep], new_prob.ravel()[keep]
    return nodes, work, prob


def trajectory_work(protocol, nodes):
    """Work of one node sequence: the energy differences of its level changes."""
    lands = protocol.landscapes()
    w = 0.0
    for k, step in enumerate(protocol.steps):
        if isinstance(step, HamiltonianChange):
            w += step.target.energies[nodes[k + 1]] - lands[k].energies[nodes[k]]
    return float(w)


def oracle_atoms(protocol, rho0, bin_tolerance=1e-9, restrict_start=None):
    """Work distribution by the path walk, as a list of (work, probability)
    atoms: sorted path works are cut where adjacent values differ by more
    than ``bin_tolerance``, each atom at its probability-weighted mean."""
    nodes, works, probs = enumerate_paths(protocol, rho0)
    if restrict_start is not None:
        sel = np.isin(nodes[:, 0], list(restrict_start))
        works, probs = works[sel], probs[sel] / probs[sel].sum()
    order = np.argsort(works, kind="stable")
    w, p = works[order], probs[order]
    cuts = np.flatnonzero(np.diff(w) > bin_tolerance) + 1
    return [(float(np.dot(sw, sp) / sp.sum()), float(sp.sum()))
            for sw, sp in zip(np.split(w, cuts), np.split(p, cuts))]


def reduceat_sum(terms):
    """A run's sum in the order ``np.add.reduceat`` adds it: the first term
    plus numpy's pairwise sum of the rest, which adds in order below 8 terms
    and otherwise keeps 8 interleaved partial sums (up to 128 terms)."""
    first, rest = terms[0], terms[1:]
    if len(rest) < 8:
        return first + sum(rest)
    acc, stop = rest[:8], len(rest) - len(rest) % 8
    for i in range(8, stop, 8):
        acc = [a + x for a, x in zip(acc, rest[i:i + 8])]
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in rest[stop:]:
        total += x
    return first + total


def merge_oracle(key, work, prob, tol):
    """The engine's merge one entry at a time: a stable sort by (key, work),
    runs of one key whose adjacent works lie within ``tol``, and per run its
    key, its first work plus the probability-weighted mean of the offsets
    from that work (their weighted sum itself where the run has no mass), and
    its mass."""
    entries = sorted(zip(key.tolist(), work.tolist(), prob.tolist()),
                     key=lambda e: e[:2])
    runs = []
    for k, w, p in entries:
        if runs and runs[-1][-1][0] == k and w - runs[-1][-1][1] <= tol:
            runs[-1].append((k, w, p))
        else:
            runs.append([(k, w, p)])
    keys, works, masses = [], [], []
    for run in runs:
        k, base, _ = run[0]
        mass = reduceat_sum([p for _, _, p in run])
        shift = reduceat_sum([(w - base) * p for _, w, p in run])
        keys.append(k)
        works.append(base + (shift / mass if mass > 0 else shift))
        masses.append(mass)
    return np.array(keys, dtype=int), np.array(works), np.array(masses)


def column_stochastic_oracle(m):
    """The column-stochastic check as first written: a square matrix with no
    entry below -PROB_ATOL and every column sum within PROB_ATOL * max(1, d)
    of 1."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    if np.any(m < -PROB_ATOL):
        return False
    return bool(np.all(np.abs(m.sum(axis=0) - 1.0) <= PROB_ATOL * max(1, m.shape[0])))


def closure_rk4_z(xi, ramp, rho0, n_steps, params):
    """Z(xi) from a per-piece RK4 whose right-hand side evaluates the ramp and
    the rates at every stage: the reference the electron-box integrator,
    which evaluates them once per call, must match bit for bit."""
    phi = np.array(rho0, dtype=float)
    grid = ramp.time_grid(max(n_steps, 4))
    bounds = np.searchsorted(grid, ramp.times)
    slopes = (np.diff(ramp.values) / np.diff(ramp.times)).tolist()
    for lo, hi, slope in zip(bounds[:-1], bounds[1:], slopes):

        def f(t, phi, slope=slope):
            e = ramp(t)
            gp = tunneling_rate(e, params)
            gm = tunneling_rate(-e, params)
            return np.array([-gp * phi[0] + gm * phi[1],
                             gp * phi[0] - gm * phi[1] + xi * slope * phi[1]])

        for k in range(lo, hi):
            t, h = grid[k], grid[k + 1] - grid[k]
            k1 = f(t, phi)
            k2 = f(t + h / 2, phi + h / 2 * k1)
            k3 = f(t + h / 2, phi + h / 2 * k2)
            k4 = f(t + h, phi + h * k3)
            phi = phi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return float(phi.sum())


def partial_swap_chain_protocol(ramp, n_steps, params):
    """The electron box's partial-swap chain as a discrete ``Protocol``: per
    step of the uniform grid, a partial swap at the step's starting
    splitting, then the level change to the next splitting.  Its work
    distribution is the exact law of ``monte_carlo_work``'s samples."""
    dt = ramp.tau / n_steps
    eps = ramp(np.linspace(0.0, ramp.tau, n_steps + 1))
    lands = [EnergyLandscape(np.array([0.0, e])) for e in eps]
    steps = []
    for k in range(n_steps):
        p_swap = swap_probability(eps[k], dt, params)
        steps.append(Thermalization(
            hop=partial_swap_hop_matrix(lands[k], params.beta, p_swap)))
        steps.append(HamiltonianChange(target=lands[k + 1], jump=np.eye(2)))
    return Protocol(initial=lands[0], beta=params.beta, steps=tuple(steps))


def exhaustive_smooth_d_zero(rho, sigma, eps):
    """Smoothed D0 by visiting every proper subset of supp(rho) one
    combination at a time: the largest -log(kept sigma-mass) over the
    subsets of rho-mass <= eps (+1e-15) that can be discarded, and d_zero
    itself at eps = 0.  Masses add in increasing level order, as in the
    subset-sum search, so the two agree bit for bit."""
    best = d_zero(rho, sigma)
    if eps == 0.0:
        return best
    supp = rho.support()
    rho_p = rho.probs[supp].tolist()
    sigma_p = sigma.probs[supp].tolist()
    total = sigma.probs[supp].sum()
    for r in range(1, len(supp)):
        for combo in itertools.combinations(range(len(supp)), r):
            if sum(rho_p[i] for i in combo) <= eps + 1e-15:
                best = max(best, -math.log(total - sum(sigma_p[i] for i in combo)))
    return float(best)
