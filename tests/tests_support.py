"""Shared helpers for the test suite, and the path-walk oracle.

The oracle expands every positive-probability trajectory of a protocol and
bins the path works in a per-atom loop.  It grows as d^(steps+1), so it only
serves small protocols, as the reference the engine's recursion is checked
against.
"""

import numpy as np

from wcwork import (
    EnergyLandscape,
    HamiltonianChange,
    Protocol,
    Thermalization,
    partial_swap_hop_matrix,
)


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
