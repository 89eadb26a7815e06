"""One-shot relative entropies and the worst-case-work equality machinery.

The central construction replaces a non-thermal diagonal initial state by an
associated thermal state: levels outside the retained set are lifted to new
energies so their Gibbs weights equal their actual occupations, and the
protocol is prepended with a step lowering them back.  Against that scenario
the fluctuation-theorem route gives
``beta * w0_in = penalty(D_infinity) - optimum(log Zf/Z~)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import (
    DEFAULT_BIN_TOLERANCE,
    WorkDistribution,
    _forward,
    _masked,
    _max_work,
    _paired_runs,
    bin_works,
    epsilon_guaranteed_work,
    variation_distance,
    work_distribution,
    worst_case_work,
)
from .errors import InvalidInputError, ResourceLimitError
from .model import (
    DiagonalState,
    EnergyLandscape,
    HamiltonianChange,
    LevelPartition,
    Protocol,
    _readonly,
    _trusted,
    make_thermal_state,
    reverse_protocol,
)

_NORM_ATOL = 1e-9
# 2^20 subsets: 8 MB per subset-sum array
_SMOOTH_SUPPORT_LIMIT = 20


def _check_normalized(p: np.ndarray, name: str):
    if not abs(p.sum() - 1.0) <= _NORM_ATOL:  # a NaN sum fails too
        raise InvalidInputError(f"{name} is not normalized (sum={p.sum()!r})")


def d_infinity(p, q) -> float:
    """Max-relative entropy sup over supp(P) of log(P/Q) of two probability
    vectors.  Returns +inf when the support of P is not covered by Q's.
    """
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


def smooth_d_zero(rho: DiagonalState, sigma: DiagonalState, eps: float) -> float:
    """d_zero after discarding the support subset of rho-mass <= eps that
    maximizes the discarded sigma-mass (the best retained/ignored level cut).

    Exact: the rho- and sigma-masses of all 2^k removal sets of the k support
    levels are built as subset sums, one level at a time.  For eps > 0, raises
    ResourceLimitError above ``_SMOOTH_SUPPORT_LIMIT`` support levels.
    """
    if not (0.0 <= eps < 1.0):
        raise InvalidInputError(f"eps must be in [0, 1), got {eps}")
    rho, sigma = _as_state(rho), _as_state(sigma)
    unsmoothed = d_zero(rho, sigma)  # also checks supp(rho) inside supp(sigma)
    if eps == 0.0:
        return unsmoothed
    supp = rho.support()
    if supp.size > _SMOOTH_SUPPORT_LIMIT:
        raise ResourceLimitError(
            f"{supp.size} support levels exceed the exact search's limit of "
            f"{_SMOOTH_SUPPORT_LIMIT}")
    rho_mass = sigma_mass = np.zeros(1)
    for r, s in zip(rho.probs[supp].tolist(), sigma.probs[supp].tolist()):
        rho_mass = np.concatenate([rho_mass, rho_mass + r])
        sigma_mass = np.concatenate([sigma_mass, sigma_mass + s])
    # the last subset is the whole support, which cannot be discarded; the
    # first is the empty set, so the search never falls below d_zero
    removable = sigma_mass[:-1][rho_mass[:-1] <= eps + 1e-15]
    return float(-math.log(sigma.probs[supp].sum() - removable.max()))


# ---------------------------------------------------------------------------
# associated thermal scenario and the equality reports
# ---------------------------------------------------------------------------

# lifted levels with exactly zero occupation get a finite energy large enough
# that their Gibbs weight underflows to 0.0 in double precision
_ZERO_OCCUPATION_LIFT = 800.0


@dataclass(frozen=True)
class TildeScenario:
    """Associated thermal state, its log partition function log Z~, the
    protocol with the prepended lowering of the lifted levels, and that
    protocol's work distribution from the associated thermal state, binned at
    tolerance 0 (the equality reports pair it with the reverse works).

    Z~ is the retained levels' partition function divided by their share
    1 - p_out of gamma~, so log Z~ = log Z_in - log(1 - p_out)."""

    gamma_tilde: DiagonalState
    log_z_tilde: float
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

    gibbs_in, log_z_in = make_thermal_state(EnergyLandscape(e0[in_idx]), beta)
    log_z_tilde = log_z_in - math.log1p(-p_out)

    gamma = np.empty(protocol.d)
    gamma[in_idx] = gibbs_in.probs * (1.0 - p_out)
    gamma[out_idx] = rho0.probs[out_idx]
    gamma_tilde = DiagonalState(gamma / gamma.sum())

    lifted = {}
    e_tilde = e0.copy()
    big = _ZERO_OCCUPATION_LIFT / beta + float(np.abs(e0).max()) + 1.0
    for i in out_idx:
        p_i = float(rho0.probs[i])
        lifted[int(i)] = -(math.log(p_i) + log_z_tilde) / beta if p_i > 0 else big
        e_tilde[i] = lifted[int(i)]

    # the lowering lands on the protocol's initial landscape, so every
    # thermalization sees the landscape it was checked against
    lowering = _trusted(HamiltonianChange, target=protocol.initial,
                        jump=_readonly(np.eye(protocol.d)))
    tilde_protocol = _trusted(Protocol, initial=EnergyLandscape(e_tilde), beta=beta,
                              steps=(lowering,) + protocol.steps)

    full = work_distribution(tilde_protocol, gamma_tilde, 0.0)
    top = _max_work(tilde_protocol, np.stack([gamma_tilde.probs,
                                              _masked(gamma_tilde, in_idx)]))
    # mild assumption: the largest works from all and from retained starts agree
    mild_ok = bool(abs(top[0] - top[1]) <= DEFAULT_BIN_TOLERANCE)

    return TildeScenario(
        gamma_tilde=gamma_tilde,
        log_z_tilde=log_z_tilde,
        tilde_protocol=tilde_protocol,
        lifted_energies=lifted,
        p_out=p_out,
        mild_assumption_ok=mild_ok,
        forward=full,
    )


def _equality_terms(rho0, protocol, partition):
    """What both equality reports share: the tilde scenario, the reversed
    tilde protocol's work distribution from the final Gibbs state, the
    optimum log Zf - log Z~ and the tail bound p_out + V(rho0, gamma~)."""
    scen = build_tilde_scenario(rho0, protocol, partition)
    proto = scen.tilde_protocol
    gamma_f, log_z_f = make_thermal_state(proto.final_landscape, proto.beta)
    rev = work_distribution(reverse_protocol(proto), gamma_f, 0.0)
    tail_bound = scen.p_out + variation_distance(rho0.probs, scen.gamma_tilde.probs)
    return scen, rev, log_z_f - scen.log_z_tilde, tail_bound


def main_equality_report(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
) -> EqualityReport:
    """Worst-case work of the retained trajectories versus penalty - optimum."""
    scen, rev, optimum, tail_bound = _equality_terms(rho0, protocol, partition)
    _, p, q = _paired_runs(scen.forward, rev)
    d_inf = d_infinity(p, q)
    rho_in = _masked(rho0, partition.in_indices())
    if not rho_in.any():
        raise InvalidInputError("no trajectories start in the restricted set")
    work, prob = _forward(protocol, rho_in)
    w0_in = worst_case_work(bin_works(work, prob / prob.sum()))
    return EqualityReport(
        w0_in=w0_in, d_infinity_term=d_inf, optimum_term=optimum,
        residual=abs(protocol.beta * w0_in - d_inf + optimum), eps=0.0,
        log1meps_term=0.0, mild_assumption_ok=scen.mild_assumption_ok,
        tail_bound=tail_bound)


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
    scen, rev, optimum, tail_bound = _equality_terms(rho0, protocol, partition)
    w, p, q = _paired_runs(scen.forward, rev)  # cut runs, not atoms: no pair is split
    w_eps, _ = epsilon_guaranteed_work(WorkDistribution(np.column_stack([w, p])), eps)
    retained = float(p[(p > 0) & (w <= w_eps)].sum())
    d_inf = d_infinity(np.where(w <= w_eps, p / retained, 0.0), q)
    log1meps = math.log(retained)
    return EqualityReport(
        w0_in=w_eps, d_infinity_term=d_inf, optimum_term=optimum,
        residual=abs(protocol.beta * w_eps - d_inf - log1meps + optimum), eps=eps,
        log1meps_term=log1meps, mild_assumption_ok=scen.mild_assumption_ok,
        tail_bound=tail_bound + eps)


def out_of_set_probability(
    rho0: DiagonalState,
    protocol: Protocol,
    partition: LevelPartition,
    w_threshold: float,
) -> float:
    """Probability (under the actual protocol and state) that a trajectory
    starts outside the retained levels or exceeds the work threshold."""
    if partition.d != protocol.d or rho0.d != protocol.d:
        raise InvalidInputError("partition/state dimension mismatch")
    rho_in = _masked(rho0, partition.in_indices())
    work, prob = _forward(protocol, rho_in) if rho_in.any() else np.zeros((2, 0))
    return float(rho0.probs[partition.out_indices()].sum()
                 + prob[work > w_threshold + DEFAULT_BIN_TOLERANCE].sum())


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
