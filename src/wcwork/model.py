"""Domain types for driven level systems coupled to a Markovian bath.

States are probability vectors over energy eigenstates; protocols are
ordered sequences of Hamiltonian changes and work-free thermalizations.
All transition matrices are column-stochastic: ``M[j, i]`` is the
probability of hopping from level ``i`` to level ``j``, so probability
vectors are columns and evolve as ``p' = M @ p``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

PROB_ATOL = 1e-12
DB_RTOL = 1e-10
_ULP_MIN = 2.0**-1074  # the spacing of the subnormal doubles


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _trusted(cls, **fields):
    """A frozen dataclass ``cls`` with ``fields`` set as given and its checks
    skipped: only for fields taken from objects that already passed them."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def is_column_stochastic(m: np.ndarray) -> bool:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    tol = PROB_ATOL * max(1, m.shape[0])
    # min and max propagate a NaN, which then fails its comparison
    return bool(m.min(initial=0.0) >= -PROB_ATOL
                and np.abs(m.sum(axis=0) - 1.0).max(initial=0.0) <= tol)


def is_doubly_stochastic(m: np.ndarray) -> bool:
    return is_column_stochastic(m) and is_column_stochastic(np.transpose(m))


def satisfies_detailed_balance(m: np.ndarray, landscape: "EnergyLandscape",
                               beta: float) -> bool:
    """Check M[j,i]/M[i,j] = exp(-beta (E_j - E_i)) to relative tolerance
    DB_RTOL wherever both entries are > 0.

    The ratio is compared in log space, so no Boltzmann factor is formed and
    none can overflow or underflow at extreme energies.  A subnormal entry x
    is only known to within its spacing 2**-1074, so it widens the tolerance
    by 2**-1074 / x, its rounding in log space.
    """
    m = np.asarray(m, dtype=float).tolist()
    e = landscape.energies.tolist()
    tol = -math.log1p(-DB_RTOL)
    d = len(e)
    for i in range(d):
        for j in range(i + 1, d):
            if m[j][i] > 0 and m[i][j] > 0:
                gap = math.log(m[j][i]) - math.log(m[i][j]) + beta * (e[j] - e[i])
                # the subnormal slack is only worked out for a gap beyond
                # the plain tolerance, which keeps it off the common path
                if abs(gap) > tol and abs(gap) > tol + _subnormal_rounding(
                        m[j][i]) + _subnormal_rounding(m[i][j]):
                    return False
    return True


def _subnormal_rounding(x: float) -> float:
    """The relative rounding of a positive double: 2**-1074 / x below the
    normal range, where the spacing is 2**-1074, and 0 above it."""
    return _ULP_MIN / x if x < sys.float_info.min else 0.0


@dataclass(frozen=True)
class EnergyLandscape:
    """An ordered finite set of instantaneous energy eigenvalues."""

    energies: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.energies)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("landscape needs at least one energy level")
        if not np.isfinite(arr).all():
            raise InvalidInputError("energies must be finite reals")
        object.__setattr__(self, "energies", arr)

    @property
    def d(self) -> int:
        return int(self.energies.size)


@dataclass(frozen=True)
class DiagonalState:
    """Probability distribution over energy eigenstates (diagonal density matrix)."""

    probs: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.probs)
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("state needs at least one probability")
        # min and max propagate a NaN, which then fails its comparison
        if not (arr.min() >= -PROB_ATOL and arr.max() <= 1 + PROB_ATOL):
            raise InvalidInputError("probabilities must lie in [0, 1]")
        if abs(arr.sum() - 1.0) > PROB_ATOL * max(1, arr.size):
            raise InvalidInputError(f"probabilities sum to {arr.sum()!r}, not 1")
        object.__setattr__(self, "probs", arr)

    @property
    def d(self) -> int:
        return int(self.probs.size)

    def support(self) -> np.ndarray:
        """Indices with positive probability."""
        return np.flatnonzero(self.probs > 0)


@dataclass(frozen=True)
class HamiltonianChange:
    """Spectrum change to ``target`` with the doubly stochastic ``jump`` matrix
    encoding the squared overlaps between old and new eigenbases."""

    target: EnergyLandscape
    jump: np.ndarray

    def __post_init__(self):
        j = _readonly(self.jump)
        if not is_doubly_stochastic(j):
            raise InvalidInputError("jump matrix must be doubly stochastic")
        if j.shape[0] != self.target.d:
            raise InvalidInputError("jump matrix dimension mismatch with target")
        object.__setattr__(self, "jump", j)

    @property
    def matrix(self) -> np.ndarray:
        return self.jump


@dataclass(frozen=True)
class Thermalization:
    """Work-free stochastic hop whose matrix satisfies detailed balance
    with respect to the landscape in force (checked by Protocol)."""

    hop: np.ndarray

    def __post_init__(self):
        h = _readonly(self.hop)
        if not is_column_stochastic(h):
            raise InvalidInputError("hop matrix must be column-stochastic")
        object.__setattr__(self, "hop", h)

    @property
    def matrix(self) -> np.ndarray:
        return self.hop


@dataclass(frozen=True)
class Protocol:
    """Initial landscape, inverse temperature and an ordered step sequence."""

    initial: EnergyLandscape
    beta: float
    steps: tuple = field(default=())

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise InvalidInputError("beta must be a positive finite real")
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        d = self.initial.d
        land = self.initial
        for k, step in enumerate(steps):
            if step.matrix.shape != (d, d):
                raise InvalidInputError(f"step {k}: matrix dimension != {d}")
            if isinstance(step, HamiltonianChange):
                land = step.target
            elif isinstance(step, Thermalization):
                if not satisfies_detailed_balance(step.hop, land, self.beta):
                    raise InvalidInputError(
                        f"step {k}: hop matrix violates detailed balance"
                    )
            else:
                raise InvalidInputError(f"step {k}: unknown step type {type(step)}")

    @property
    def d(self) -> int:
        return self.initial.d

    def landscapes(self) -> list:
        """Landscape in force at each of the len(steps)+1 protocol nodes."""
        out = [self.initial]
        for step in self.steps:
            out.append(step.target if isinstance(step, HamiltonianChange) else out[-1])
        return out

    @property
    def final_landscape(self) -> EnergyLandscape:
        return self.landscapes()[-1]


@dataclass(frozen=True)
class LevelPartition:
    """Split of the initial levels into a retained set and its complement."""

    in_set: frozenset
    d: int

    def __post_init__(self):
        in_set = set()
        for i in self.in_set:  # bool is an int subclass, but not an index
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise InvalidInputError(f"level index {i!r} is not an integer")
            if not 0 <= i < self.d:
                raise InvalidInputError("level index out of range")
            in_set.add(int(i))
        if not in_set:
            raise InvalidInputError("retained level set must be nonempty")
        object.__setattr__(self, "in_set", frozenset(in_set))

    @property
    def out_set(self) -> frozenset:
        return frozenset(range(self.d)) - self.in_set

    def in_indices(self) -> np.ndarray:
        return np.array(sorted(self.in_set), dtype=int)

    def out_indices(self) -> np.ndarray:
        return np.array(sorted(self.out_set), dtype=int)


def make_thermal_state(landscape: EnergyLandscape, beta: float):
    """Gibbs state and log partition function for a landscape at inverse
    temperature beta: the one place a partition function is formed.

    log Z = log sum exp(-beta (E - E_min)) - beta E_min, from the Gibbs state's
    own weights, so a common energy shift s moves it by -beta s alone.
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidInputError("beta must be a positive finite real")
    e = landscape.energies
    e_min = float(e.min())
    shifted = np.exp(-beta * (e - e_min))
    total = shifted.sum()
    return DiagonalState(shifted / total), math.log(total) - beta * e_min


def partial_swap_hop_matrix(
    landscape: EnergyLandscape, beta: float, p_swap: float
) -> np.ndarray:
    """(1 - p_swap) I + p_swap (Gibbs column in every column).

    Satisfies detailed balance and fixes the Gibbs state for any p_swap in [0, 1].
    """
    if not (0.0 <= p_swap <= 1.0):
        raise InvalidInputError(f"p_swap must be in [0, 1], got {p_swap}")
    gibbs, _ = make_thermal_state(landscape, beta)
    d = landscape.d
    return (1.0 - p_swap) * np.eye(d) + p_swap * np.tile(
        gibbs.probs[:, None], (1, d)
    )


def sudden_quench_jump_matrix(theta: float) -> np.ndarray:
    """Two-level jump matrix for a sudden basis rotation by angle theta."""
    c2 = math.cos(theta) ** 2
    s2 = math.sin(theta) ** 2
    return np.array([[c2, s2], [s2, c2]])


def reverse_protocol(p: Protocol) -> Protocol:
    """Run the Hamiltonian changes backwards (transposed jumps) and invert the
    thermalization sequence.

    The landscape in force at a thermalization is unchanged under reversal, so
    each validated Thermalization is reused as-is, and the construction is an
    involution.  A transposed doubly stochastic jump is doubly stochastic, so
    the reversed steps and Protocol are built without checking them again.
    """
    lands = p.landscapes()
    rev_steps = [_trusted(HamiltonianChange, target=lands[k], jump=step.jump.T)
                 if isinstance(step, HamiltonianChange) else step
                 for k, step in reversed(list(enumerate(p.steps)))]
    return _trusted(Protocol, initial=lands[-1], beta=p.beta, steps=tuple(rev_steps))
