"""One-shot relative entropies and the worst-case-work equality machinery.

The central construction replaces a non-thermal diagonal initial state by an
associated thermal state: levels outside the retained set are lifted to new
energies so their Gibbs weights equal their actual occupations, and the
protocol is prepended with a step lowering them back.  Against that scenario
the fluctuation-theorem route gives
``beta * w0_in = penalty(D_infinity) - optimum(log Zf/Z~)``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    WorkDistribution,
    _distribution,
    _forward,
    epsilon_guaranteed_work,
    variation_distance,
    work_distribution,
    worst_case_work,
)
from .errors import InvalidInputError
from .model import (
    DiagonalState,
    EnergyLandscape,
    HamiltonianChange,
    LevelPartition,
    Protocol,
    make_thermal_state,
    reverse_protocol,
)

_NORM_ATOL = 1e-9
_EXHAUSTIVE_SUPPORT_LIMIT = 16


def _check_normalized(p: np.ndarray, name: str):
    if abs(p.sum() - 1.0) > _NORM_ATOL:
        raise InvalidInputError(f"{name} is not normalized (sum={p.sum()!r})")


def d_infinity(p, q) -> float:
    """Max-relative entropy sup over supp(P) of log(P/Q).

    Accepts two probability vectors, or two work distributions in which case
    Q is evaluated at the negated support points (Q(w) := q(-w)).  Returns
    +inf when the forward support is not covered.
    """
    if isinstance(p, WorkDistribution):
        qw = q.probs_at(-p.works)
        if np.isnan(qw).any():
            return math.inf
        return float(np.max(np.log(p.probs) - np.log(qw)))
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise InvalidInputError("probability vectors differ in length")
    _check_normalized(p, "P")
    _check_normalized(q, "Q")
    supp = p > 0
    if np.any(q[supp] == 0):
        return math.inf
    return float(np.max(np.log(p[supp]) - np.log(q[supp])))


def _as_state(x) -> DiagonalState:
    return x if isinstance(x, DiagonalState) else DiagonalState(np.asarray(x, float))


def d_zero(rho, sigma) -> float:
    """-log of the sigma-mass on the support of rho."""
    rho, sigma = _as_state(rho), _as_state(sigma)
    supp = rho.support()
    if np.any(sigma.probs[supp] <= 0):
        raise InvalidInputError("supp(rho) must lie inside supp(sigma)")
    return float(-math.log(sigma.probs[supp].sum()))


def max_entropy(rho) -> float:
    """log of the support size (Renyi-0 entropy)."""
    return float(math.log(len(_as_state(rho).support())))


def exhaustive_smooth_d_zero(
    rho: DiagonalState, sigma: DiagonalState, eps: float
) -> float:
    """Reference implementation: search all proper support subsets to remove."""
    rho, sigma = _as_state(rho), _as_state(sigma)
    supp = rho.support()
    rho_p = rho.probs[supp]
    sigma_p = sigma.probs[supp]
    best = d_zero(rho, sigma)
    k = supp.size
    for r in range(1, k):
        for combo in itertools.combinations(range(k), r):
            idx = np.array(combo)
            if rho_p[idx].sum() <= eps + 1e-15:
                kept = sigma_p.sum() - sigma_p[idx].sum()
                best = max(best, -math.log(kept))
    return float(best)


def greedy_smooth_d_zero(rho: DiagonalState, sigma: DiagonalState, eps: float) -> float:
    """Remove support levels in decreasing sigma/rho ratio while the removed
    rho-mass stays within eps."""
    rho, sigma = _as_state(rho), _as_state(sigma)
    supp = rho.support()
    rho_p = rho.probs[supp]
    sigma_p = sigma.probs[supp]
    order = np.argsort(-(sigma_p / rho_p), kind="stable")
    removed_rho = 0.0
    removed_sigma = 0.0
    n_removed = 0
    for i in order:
        if n_removed == supp.size - 1:
            break
        if removed_rho + rho_p[i] <= eps + 1e-15:
            removed_rho += rho_p[i]
            removed_sigma += sigma_p[i]
            n_removed += 1
    return float(-math.log(sigma_p.sum() - removed_sigma))


def smooth_d_zero(rho: DiagonalState, sigma: DiagonalState, eps: float) -> float:
    """d_zero after discarding the support subset of rho-mass <= eps that
    maximizes the discarded sigma-mass (the best retained/ignored level cut).

    Exact subset search up to moderate support sizes, greedy beyond.
    """
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    rho, sigma = _as_state(rho), _as_state(sigma)
    supp = rho.support()
    if eps == 0.0 or supp.size == 1:
        return d_zero(rho, sigma)
    if supp.size <= _EXHAUSTIVE_SUPPORT_LIMIT:
        return exhaustive_smooth_d_zero(rho, sigma, eps)
    return greedy_smooth_d_zero(rho, sigma, eps)


# ---------------------------------------------------------------------------
# associated thermal scenario and the equality reports
# ---------------------------------------------------------------------------

# lifted levels with exactly zero occupation get a finite energy large enough
# that their Gibbs weight underflows to 0.0 in double precision
_ZERO_OCCUPATION_LIFT = 800.0


@dataclass(frozen=True)
class TildeScenario:
    """Associated thermal state, its partition function, the protocol with
    the prepended lowering of the lifted levels, and that protocol's work
    distribution from the associated thermal state."""

    gamma_tilde: DiagonalState
    z_tilde: float
    tilde_protocol: Protocol
    lifted_energies: dict
    p_out: float
    mild_assumption_ok: bool
    forward: WorkDistribution


@dataclass(frozen=True)
class EqualityReport:
    w0_in: float
    d_infinity_term: float
    optimum_term: float
    residual: float
    eps: float
    log1meps_term: float
    mild_assumption_ok: bool
    tail_bound: float


def build_tilde_scenario(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
    mild_tol: float = 1e-9,
) -> TildeScenario:
    """Construct the associated thermal state and its prepended protocol.

    Levels outside the retained set are lifted so their Gibbs weight in the
    modified landscape equals their actual occupation; zero-occupation levels
    get a finite lift whose Gibbs weight underflows to exactly zero.
    """
    if partition.d != protocol.d or rho0.d != protocol.d:
        raise InvalidInputError("partition/state dimension mismatch")
    beta = protocol.beta
    e0 = protocol.initial.energies
    in_idx = partition.in_indices()
    out_idx = partition.out_indices()
    p_out = float(rho0.probs[out_idx].sum()) if out_idx.size else 0.0
    if p_out >= 1.0 - 1e-15:
        raise InvalidInputError("retained set carries no probability")

    z_tilde = float(np.exp(-beta * e0[in_idx]).sum() / (1.0 - p_out))

    gamma = np.empty(protocol.d)
    gamma[in_idx] = np.exp(-beta * e0[in_idx]) / z_tilde
    gamma[out_idx] = rho0.probs[out_idx]
    gamma_tilde = DiagonalState(gamma / gamma.sum())

    lifted = {}
    e_tilde = e0.copy()
    big = _ZERO_OCCUPATION_LIFT / beta + float(np.abs(e0).max()) + 1.0
    for i in out_idx:
        p_i = float(rho0.probs[i])
        lifted[int(i)] = (-math.log(p_i * z_tilde) / beta) if p_i > 0 else big
        e_tilde[i] = lifted[int(i)]

    lowering = HamiltonianChange(
        target=protocol.initial, jump=np.eye(protocol.d)
    )
    tilde_protocol = Protocol(
        initial=EnergyLandscape(e_tilde),
        beta=beta,
        steps=(lowering,) + tuple(protocol.steps),
    )

    entries = _forward(tilde_protocol, gamma_tilde)
    full = _distribution(entries)
    w0_in_tilde = worst_case_work(_distribution(entries, restrict_start=in_idx))
    mild_ok = abs(worst_case_work(full) - w0_in_tilde) <= mild_tol

    return TildeScenario(
        gamma_tilde=gamma_tilde,
        z_tilde=z_tilde,
        tilde_protocol=tilde_protocol,
        lifted_energies=lifted,
        p_out=p_out,
        mild_assumption_ok=mild_ok,
        forward=full,
    )


def _reverse_distribution(scenario: TildeScenario):
    """Work distribution of the reversed tilde protocol from the final Gibbs
    state, and the final partition function."""
    proto = scenario.tilde_protocol
    gamma_f, z_f = make_thermal_state(proto.final_landscape, proto.beta)
    return work_distribution(reverse_protocol(proto), gamma_f), z_f


def main_equality_report(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
) -> EqualityReport:
    """Worst-case work of the retained trajectories versus penalty - optimum."""
    scen = build_tilde_scenario(rho0, protocol, partition)
    rev, z_f = _reverse_distribution(scen)
    d_inf = d_infinity(scen.forward, rev)
    optimum = math.log(z_f / scen.z_tilde)

    in_dist = work_distribution(
        protocol, rho0, restrict_start=partition.in_indices()
    )
    w0_in = worst_case_work(in_dist)
    residual = abs(protocol.beta * w0_in - d_inf + optimum)
    tail_bound = scen.p_out + variation_distance(rho0.probs, scen.gamma_tilde.probs)
    return EqualityReport(
        w0_in=w0_in,
        d_infinity_term=d_inf,
        optimum_term=optimum,
        residual=residual,
        eps=0.0,
        log1meps_term=0.0,
        mild_assumption_ok=scen.mild_assumption_ok,
        tail_bound=tail_bound,
    )


def work_tail_equality_report(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
    eps: float,
) -> EqualityReport:
    """Equality after additionally cutting the eps-tail of the work distribution.

    The cut renormalizes by the retained mass, so the log(1-eps) term uses the
    realized tail probability (<= eps); with discrete atoms the realized tail
    probability is what the fluctuation-theorem identity holds for exactly.
    """
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    scen = build_tilde_scenario(rho0, protocol, partition)
    fwd = scen.forward
    rev, z_f = _reverse_distribution(scen)
    w_eps, cut = epsilon_guaranteed_work(fwd, eps)
    retained = float(fwd.probs[fwd.works <= w_eps + fwd.bin_tolerance].sum())
    d_inf = d_infinity(cut, rev)
    optimum = math.log(z_f / scen.z_tilde)
    log1meps = math.log(retained)
    residual = abs(protocol.beta * w_eps - d_inf - log1meps + optimum)
    tail_bound = (
        scen.p_out
        + variation_distance(rho0.probs, scen.gamma_tilde.probs)
        + eps
    )
    return EqualityReport(
        w0_in=w_eps,
        d_infinity_term=d_inf,
        optimum_term=optimum,
        residual=residual,
        eps=eps,
        log1meps_term=log1meps,
        mild_assumption_ok=scen.mild_assumption_ok,
        tail_bound=tail_bound,
    )


def out_of_set_probability(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
    w_threshold: float,
) -> float:
    """Probability (under the actual protocol and state) that a trajectory
    starts outside the retained levels or exceeds the work threshold."""
    start, work, prob = _forward(protocol, rho0)
    in_mask = np.isin(start, partition.in_indices())
    bad = (~in_mask) | (work > w_threshold + 1e-9)
    return float(prob[bad].sum())


def markov_d_infinity_bound(
    mean_work: float, eps: float, beta: float, log_z_ratio: float
) -> float:
    """Upper bound beta*<w>/eps - log(1-eps) + log(Z/Z~) on the penalty term.

    Valid only for nonnegative work (Markov's inequality); callers must flag,
    not bound, distributions with negative support.
    """
    if not (0.0 < eps < 1.0):
        raise InvalidInputError(f"eps must be in (0, 1), got {eps}")
    if mean_work < 0:
        raise InvalidInputError("Markov bound requires nonnegative mean work")
    return float(beta * mean_work / eps - math.log1p(-eps) + log_z_ratio)
