"""Exact work distributions by a forward recursion, and their statistics.

A trajectory visits one level per protocol node (len(steps) + 1 nodes); its
probability is the initial occupation times the product of transition matrix
entries, and its work is the sum of per-change energy differences.  Instead
of expanding every trajectory, the recursion carries entries (start level,
current level, work, probability) from step to step and merges, after every
step, the entries that share a start and a level and whose works coincide.
Whenever work values recur, as on the lattice of a discretized ramp, the
number of live entries stays polynomial in the number of steps.
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
    ``probs`` are its columns.  Atom values closer than ``bin_tolerance``
    have been merged.
    """

    atoms: np.ndarray
    bin_tolerance: float = DEFAULT_BIN_TOLERANCE

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

    def prob_at(self, w: float):
        """Probability of the first atom within bin_tolerance of ``w``, or None."""
        tol = max(self.bin_tolerance, 1e-12)
        i = min(int(np.searchsorted(self.works, w - tol)), self.works.size - 1)
        return float(self.probs[i]) if abs(self.works[i] - w) <= tol else None


def _merge(key, work, prob, tol):
    """Sort entries by (key, work) and merge each run of one key whose
    adjacent works lie within ``tol``: masses add, and the merged work is the
    probability-weighted mean, taken as an offset from the run's first work
    so that an unmerged entry, or a run of zero mass, keeps its first work
    exactly."""
    order = np.lexsort((work, key))
    key, work, prob = key[order], work[order], prob[order]
    head = np.empty(key.size, dtype=bool)  # True where a run starts
    head[0] = True
    np.not_equal(key[1:], key[:-1], out=head[1:])
    head[1:] |= work[1:] - work[:-1] > tol
    first = head.nonzero()[0]
    base = work[first]
    mass = np.add.reduceat(prob, first)
    offset = work - base[head.cumsum() - 1]
    shift = np.add.reduceat(offset * prob, first)
    np.divide(shift, mass, out=shift, where=mass > 0)
    return key[first], base + shift, mass


def _paired_runs(fwd: WorkDistribution, rev: WorkDistribution):
    """The one pairing of forward works w with reverse works -w: sorted together,
    they form runs of adjacent works within DEFAULT_BIN_TOLERANCE (``_merge``'s
    rule).  Each run's work, forward mass and reverse mass are ``_merge``'s of
    its forward atoms (of its reverse atoms where it has none)."""
    works = np.concatenate([fwd.works, -rev.works])
    ordered = np.sort(works)
    heads = ordered[np.concatenate([[True], np.diff(ordered) > DEFAULT_BIN_TOLERANCE])]
    run, n = np.searchsorted(heads, works, side="right") - 1, fwd.works.size
    rev_run, rev_work, rev_mass = _merge(run[n:], works[n:], rev.probs, math.inf)
    fwd_run, fwd_work, fwd_mass = _merge(run[:n], works[:n], fwd.probs, math.inf)
    w, p, q = np.zeros((3, heads.size))
    w[rev_run], q[rev_run] = rev_work, rev_mass
    w[fwd_run], p[fwd_run] = fwd_work, fwd_mass
    return w, p, q


def _forward(protocol: Protocol, rho0: DiagonalState):
    """Final (start level, work, probability) entries of the exact recursion."""
    d = protocol.d
    if rho0.d != d:
        raise InvalidInputError("state dimension does not match protocol")
    energies, levels = protocol.initial.energies, np.arange(d)
    level = start = (rho0.probs > 0).nonzero()[0]
    work = np.zeros(start.size)
    prob = rho0.probs[start]
    for step in protocol.steps:
        if level.size * d > LIVE_ENTRY_CAP:
            raise ResourceLimitError(
                f"{level.size} live atoms times {d} levels exceed the cap of "
                f"{LIVE_ENTRY_CAP}; use Monte Carlo sampling instead"
            )
        new_prob = (prob[:, None] * step.matrix[:, level].T).ravel()
        if isinstance(step, HamiltonianChange):
            d_e = step.target.energies[None, :] - energies[level][:, None]
            energies = step.target.energies
            new_work = (work[:, None] + d_e).ravel()
        else:
            new_work = work.repeat(d)
        key = (start[:, None] * d + levels).ravel()
        live = new_prob > 0
        key, work, prob = _merge(key[live], new_work[live], new_prob[live],
                                 _MERGE_TOLERANCE)
        start, level = np.divmod(key, d)
    return start, work, prob


def bin_works(
    works: np.ndarray, probs: np.ndarray, bin_tolerance: float = DEFAULT_BIN_TOLERANCE
) -> WorkDistribution:
    """Merge work values into atoms whenever adjacent sorted values are within
    bin_tolerance; atom positions are probability-weighted means."""
    works = np.asarray(works, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if works.size == 0:
        raise InvalidInputError("no trajectories to bin")
    _, w, p = _merge(np.zeros(works.size, dtype=int), works, probs, bin_tolerance)
    return WorkDistribution(atoms=np.column_stack([w, p]),
                            bin_tolerance=bin_tolerance)


def _distribution(entries, bin_tolerance=DEFAULT_BIN_TOLERANCE, restrict_start=None):
    """Bin the recursion's final entries, optionally conditioned on the
    trajectories that start in the levels ``restrict_start``."""
    start, work, prob = entries
    if restrict_start is not None:
        sel = np.isin(start, np.fromiter(restrict_start, dtype=int))
        work, prob = work[sel], prob[sel]
        if prob.size == 0:
            raise InvalidInputError("no trajectories start in the restricted set")
        prob = prob / prob.sum()
    return bin_works(work, prob, bin_tolerance)


def work_distribution(
    protocol: Protocol,
    rho0: DiagonalState,
    bin_tolerance: float = DEFAULT_BIN_TOLERANCE,
    restrict_start=None,
) -> WorkDistribution:
    """Exact work distribution.

    With ``restrict_start`` (an iterable of level indices) the distribution is
    conditioned on trajectories starting in those levels.  Works closer than
    the merge tolerance (1e-10) are merged whatever ``bin_tolerance``.
    """
    return _distribution(_forward(protocol, rho0), bin_tolerance, restrict_start)


def worst_case_work(dist: WorkDistribution) -> float:
    """Largest work value with positive probability."""
    works = dist.works[dist.probs > 0]
    if works.size == 0:
        raise InvalidInputError("work distribution has no atom of positive probability")
    return float(works.max())


def epsilon_guaranteed_work(dist: WorkDistribution, eps: float):
    """Smallest x with p(w > x) <= eps, plus the distribution cut at x.

    The cut removes atoms above x and renormalizes by the retained mass.
    """
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    w, p = dist.works, dist.probs
    tail = np.concatenate([np.cumsum(p[::-1])[::-1][1:], [0.0]])  # p(W > w_k)
    k = int(np.flatnonzero(tail <= eps + 1e-15)[0])
    cut = np.column_stack([w[: k + 1], p[: k + 1] / p[: k + 1].sum()])
    return float(w[k]), WorkDistribution(cut, dist.bin_tolerance)


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
    z0: float,
    zf: float,
    beta: float,
) -> float:
    """Max over the forward support of
    |log p_fwd(w) - log p_rev(-w) - log(Zf/Z0) - beta w|.

    Pass both sides binned at tolerance 0: w and -w pair in runs of adjacent
    works within DEFAULT_BIN_TOLERANCE.  A run of forward mass without reverse
    mass raises SupportMismatchError; a Zf/Z0 not finite and positive, NumericError.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.divide(zf, z0))  # IEEE: no ZeroDivisionError at z0 = 0
    if not 0.0 < ratio < math.inf:
        raise NumericError(f"Zf/Z0 = {ratio!r} is not finite and positive")
    w, p, q = _paired_runs(fwd, rev)
    live = p > 0
    w, p, q = w[live], p[live], q[live]
    if not q.all():
        w = float(w[q == 0][0])
        raise SupportMismatchError(f"no reverse atom at {-w!r} matching forward work {w!r}")
    resid = np.log(p) - np.log(q) - math.log(ratio) - beta * w
    return float(np.abs(resid).max())


def jarzynski_sum(dist: WorkDistribution, beta: float) -> float:
    """The exponential work average sum_w p(w) exp(-beta w)."""
    with np.errstate(over="ignore"):  # an infinite sum is the caller's to report
        return float(np.dot(dist.probs, np.exp(-beta * dist.works)))
