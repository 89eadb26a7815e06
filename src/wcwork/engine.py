"""Exact work distributions by a forward recursion, and their statistics.

A trajectory visits one level per protocol node (len(steps) + 1 nodes); its
probability is the initial occupation times the product of transition matrix
entries, and its work is the sum of per-change energy differences.  Instead
of expanding every trajectory, the recursion carries a (level x work) table
of masses over sorted distinct works.  A thermalization only mixes each
work's levels; a level change sorts its candidates' works once and merges all
works within the merge tolerance, whatever their levels.  Whenever works
recur, as on the lattice of a discretized ramp, the table stays polynomial in
the steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidInputError, NumericError, ResourceLimitError,
                     SupportMismatchError)
from .model import DiagonalState, HamiltonianChange, Protocol

DEFAULT_BIN_TOLERANCE = 1e-9
# Works closer than this are merged after every step.  It is fixed, below the
# default bin tolerance, so that a coarse caller tolerance cannot compound
# across steps; the caller's tolerance is applied once, to the final entries.
_MERGE_TOLERANCE = 1e-10
# Upper bound on live entries times levels before a step expands them.
LIVE_ENTRY_CAP = 10**7


@dataclass(frozen=True, eq=False)
class WorkDistribution:
    """Finite set of (work, probability) atoms, sorted by work.

    ``atoms`` is stored as a read-only (n, 2) float array; ``works`` and
    ``probs`` are its columns.
    """

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float).reshape(-1, 2)
        if atoms.shape[0] == 0:
            raise InvalidInputError("work distribution needs at least one atom")
        if (atoms[1:, 0] < atoms[:-1, 0]).any():
            raise InvalidInputError("atoms must be sorted by work")
        atoms.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)

    @property
    def works(self) -> np.ndarray:
        return self.atoms[:, 0]

    @property
    def probs(self) -> np.ndarray:
        return self.atoms[:, 1]


def _merge(work, prob, tol):
    """Sort entries by work and merge each run whose adjacent works lie within
    ``tol``: masses add, and the merged work is the probability-weighted mean,
    taken as an offset from the run's first work so that an unmerged entry, or
    a run of zero mass, keeps its first work exactly.  Also returns each
    entry's run."""
    order = np.argsort(work, kind="stable")
    work, prob = work[order], prob[order]
    head = np.concatenate([[True], work[1:] - work[:-1] > tol])  # run starts
    first = head.nonzero()[0]
    base = work[first]
    mass = np.add.reduceat(prob, first)
    run = head.cumsum() - 1
    shift = np.add.reduceat((work - base[run]) * prob, first)
    np.divide(shift, mass, out=shift, where=mass > 0)
    entry_run = np.empty_like(run)
    entry_run[order] = run
    return base + shift, mass, entry_run


def _paired_runs(fwd: WorkDistribution, rev: WorkDistribution):
    """The one pairing of forward works w with reverse works -w: one ``_merge``
    of both, reverse entries at zero mass, cuts runs of adjacent works within
    DEFAULT_BIN_TOLERANCE and gives each run's work w and forward mass p, and a
    bincount its reverse mass q.  A run with p = 0 keeps its first work, which
    nothing reads: the Crooks residual and D_inf read only runs with p > 0, and
    an eps-cut past the first run lands on one, as p = 0 leaves p(W > w) as is."""
    n = fwd.works.size
    w, p, run = _merge(np.concatenate([fwd.works, -rev.works]),
                       np.concatenate([fwd.probs, np.zeros(rev.works.size)]),
                       DEFAULT_BIN_TOLERANCE)
    return w, p, np.bincount(run[n:], rev.probs, w.size)


def _forward(protocol: Protocol, rho0: np.ndarray):
    """Sorted works, each more than the merge tolerance from the next, and
    their masses, by the exact recursion from the occupations ``rho0``."""
    d, energies = protocol.d, protocol.initial.energies
    work, prob = np.zeros(1), rho0[:, None]  # prob[level, work]
    for step in protocol.steps:
        if prob.size * d > LIVE_ENTRY_CAP:
            raise ResourceLimitError(
                f"{prob.size} live entries times {d} levels exceed the cap of "
                f"{LIVE_ENTRY_CAP}; use Monte Carlo sampling instead")
        m, n = step.matrix, work.size
        if not isinstance(step, HamiltonianChange):
            # one old level at a time, in ascending order: not np.add.reduce,
            # which sums a long axis pairwise when there is a single work
            prob = sum(m[:, lv, None] * prob[lv] for lv in range(d))
            continue
        # candidates in (level, new level, row) blocks, each sorted by work
        cand = (m.T[:, :, None] * prob[:, None, :]).ravel()
        cand_work = (work + (step.target.energies - energies[:, None])[:, :, None]).ravel()
        energies = step.target.energies
        live = np.flatnonzero(cand > 0)
        work, _, run = _merge(cand_work[live], cand[live], _MERGE_TOLERANCE)
        prob = np.bincount(live // n % d * work.size + run, weights=cand[live],
                           minlength=d * work.size).reshape(d, work.size)
    mass = np.ascontiguousarray(prob.T).sum(axis=1)  # each work's levels in order
    return work[mass > 0], mass[mass > 0]


def bin_works(
    works: np.ndarray, probs: np.ndarray, bin_tolerance: float = DEFAULT_BIN_TOLERANCE
) -> WorkDistribution:
    """Merge work values into atoms whenever adjacent sorted values are within
    bin_tolerance; atom positions are probability-weighted means."""
    works, probs = np.asarray(works, dtype=float), np.asarray(probs, dtype=float)
    if works.size == 0:
        raise InvalidInputError("no trajectories to bin")
    w, p, _ = _merge(works, probs, bin_tolerance)
    return WorkDistribution(atoms=np.column_stack([w, p]))


def _masked(rho0: DiagonalState, levels) -> np.ndarray:
    """The occupations of ``levels``, zero elsewhere."""
    keep = np.zeros(rho0.d, dtype=bool)
    keep[levels] = True
    return np.where(keep, rho0.probs, 0.0)


def work_distribution(protocol: Protocol, rho0: DiagonalState,
                      bin_tolerance: float = DEFAULT_BIN_TOLERANCE) -> WorkDistribution:
    """Exact work distribution from the occupations ``rho0``.

    Works closer than the merge tolerance (1e-10) are merged whatever
    ``bin_tolerance``.  For the distribution conditioned on trajectories
    starting in some levels, pass the state of their renormalized occupations.
    """
    if rho0.d != protocol.d:
        raise InvalidInputError("state dimension does not match protocol")
    work, prob = _forward(protocol, rho0.probs)
    if bin_tolerance == 0.0:  # the works are already distinct
        return WorkDistribution(np.column_stack([work, prob]))
    return bin_works(work, prob, bin_tolerance)


def _max_work(protocol: Protocol, rho0: np.ndarray):
    """Largest work over the paths from the levels occupied in ``rho0`` whose
    every step has positive probability: a max-plus recursion over levels.
    A (k, d) stack of occupations gives k works in one pass."""
    best, energies = np.where(rho0 > 0, 0.0, -np.inf), protocol.initial.energies
    for step in protocol.steps:
        d_e = 0.0
        if isinstance(step, HamiltonianChange):
            d_e, energies = step.target.energies[:, None] - energies, step.target.energies
        best = np.where(step.matrix > 0, best[..., None, :] + d_e, -np.inf).max(axis=-1)
    return best.max(axis=-1)


def worst_case_work(dist: WorkDistribution) -> float:
    """Largest work value with positive probability."""
    works = dist.works[dist.probs > 0]
    if works.size == 0:
        raise InvalidInputError("work distribution has no atom of positive probability")
    return float(works.max())


def epsilon_guaranteed_work(dist: WorkDistribution, eps: float):
    """Smallest work x of positive mass with p(w > x) <= eps, plus the
    distribution cut at x.

    The cut removes atoms above x and renormalizes by the retained mass.
    """
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    w, p = dist.works, dist.probs
    tail = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])  # p(W > w_k)
    k = int(np.flatnonzero((tail <= eps + 1e-15) & (p > 0))[0])
    cut = np.column_stack([w[: k + 1], p[: k + 1] / p[: k + 1].sum()])
    return float(w[k]), WorkDistribution(cut)


def variation_distance(p, q) -> float:
    """Half the L1 distance between two probability vectors."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInputError("probability vectors differ in length")
    return float(0.5 * np.abs(p - q).sum())


def crooks_residual(
    fwd: WorkDistribution,
    rev: WorkDistribution,
    log_z0: float,
    log_zf: float,
    beta: float,
) -> float:
    """Max over the forward support of
    |log p_fwd(w) - log p_rev(-w) - (log Zf - log Z0) - beta w|.

    ``log_z0`` and ``log_zf`` are log partition functions, as
    ``make_thermal_state`` gives them.  Pass both sides binned at tolerance 0:
    w and -w pair in runs of adjacent works within DEFAULT_BIN_TOLERANCE.  A
    run of forward mass without reverse mass raises SupportMismatchError; a
    log Zf - log Z0 that is not finite, NumericError.
    """
    log_ratio = log_zf - log_z0
    if not math.isfinite(log_ratio):
        raise NumericError(f"log Zf - log Z0 = {log_ratio!r} is not finite")
    w, p, q = _paired_runs(fwd, rev)
    live = p > 0
    w, p, q = w[live], p[live], q[live]
    if not q.all():
        w = float(w[q == 0][0])
        raise SupportMismatchError(f"no reverse atom at {-w!r} matching forward work {w!r}")
    resid = np.log(p) - np.log(q) - log_ratio - beta * w
    return float(np.abs(resid).max())


def jarzynski_sum(dist: WorkDistribution, beta: float) -> float:
    """The exponential work average sum_w p(w) exp(-beta w)."""
    with np.errstate(over="ignore"):  # an infinite sum is the caller's to report
        return float(np.dot(dist.probs, np.exp(-beta * dist.works)))
