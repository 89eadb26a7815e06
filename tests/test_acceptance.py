"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Criterion 6 sweeps the duration of the feedback-extraction ramp (splitting
lowered linearly from eps_max = 8 to 0, system starting in the ground level)
and reads two tolerances from one sample set per duration.  Both legs must
rise monotonically beyond their error bars.  Neither can reach kT ln 2: the
Gibbs occupation p1_eq(eps) only rises as eps is lowered, so the occupation
lags behind it, p1(t) <= p1_eq(eps(t)), and the mean extracted work
int p1 |d eps/dt| dt stays below the quasistatic ceiling
ln 2 - ln(1 + e^{-eps_max}) < ln 2.  The eps = 0.01 leg must approach ln 2
from below by 3 sigma.  The eps = 0.5 leg is the sample median; it must also
stay below ln 2 by 3 sigma, sit no higher than the master-equation mean
extracted work (plus 3 sigma), and that mean must respect the ceiling.
"""

import math
import time

import numpy as np
import pytest

from wcwork import (
    DiagonalState,
    EboxParams,
    EnergyLandscape,
    HamiltonianChange,
    LevelPartition,
    Protocol,
    Thermalization,
    constant_ramp,
    constant_relaxation_p0,
    crooks_residual,
    d_zero,
    integrate_master,
    jarzynski_sum,
    main_equality_report,
    make_thermal_state,
    markov_bound_check,
    max_entropy,
    mean_work,
    monte_carlo_work,
    analytic_work_distribution,
    linear_ramp,
    out_of_set_probability,
    partial_swap_chain,
    partial_swap_hop_matrix,
    reverse_protocol,
    sudden_quench_jump_matrix,
    szilard_ramp,
    szilard_sweep,
    work_distribution,
    work_tail_equality_report,
    worst_case_work,
)
from tests_support import random_protocol


def test_acceptance_1_degenerate_two_level_equality(report):
    t0 = time.perf_counter()
    land = EnergyLandscape(np.zeros(2))
    prot = Protocol(
        initial=land,
        beta=1.0,
        steps=(Thermalization(hop=partial_swap_hop_matrix(land, 1.0, 1.0)),),
    )
    rho0 = DiagonalState(np.array([0.9, 0.1]))
    part = LevelPartition(in_set=frozenset({0}), d=2)
    rep = main_equality_report(rho0, prot, part)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rep.w0_in) < 1e-12
        and abs(rep.d_infinity_term - math.log(1.8)) < 1e-12
        and abs(rep.optimum_term - math.log(1.8)) < 1e-12
        and rep.residual < 1e-12
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"w0_in={rep.w0_in:.3g}, D_inf={rep.d_infinity_term:.12f}, "
        f"optimum={rep.optimum_term:.12f}, residual={rep.residual:.3g}, "
        f"{elapsed:.3f}s",
    )


def test_acceptance_2_fluctuation_relations(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_crooks = 0.0
    worst_jarz = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        prot = random_protocol(rng, d, int(rng.integers(1, 7)), 1.0)
        gamma0, z0 = make_thermal_state(prot.initial, prot.beta)
        gammaf, zf = make_thermal_state(prot.final_landscape, prot.beta)
        fwd = work_distribution(prot, gamma0)
        rev = work_distribution(reverse_protocol(prot), gammaf)
        worst_crooks = max(
            worst_crooks, crooks_residual(fwd, rev, z0, zf, prot.beta)
        )
        worst_jarz = max(worst_jarz, abs(jarzynski_sum(fwd, prot.beta) - zf / z0))
    elapsed = time.perf_counter() - t0
    ok = worst_crooks < 1e-10 and worst_jarz < 1e-10 and elapsed < 30.0
    report(
        2,
        ok,
        f"200 protocols, max crooks residual {worst_crooks:.3g}, "
        f"max jarzynski residual {worst_jarz:.3g}, {elapsed:.1f}s",
    )


def test_acceptance_3_main_equality_and_special_cases(report):
    rng = np.random.default_rng(31)
    worst = 0.0
    checked = 0
    while checked < 200:
        d = int(rng.integers(2, 5))
        prot = random_protocol(rng, d, int(rng.integers(1, 5)), 1.0)
        rho0 = DiagonalState(rng.dirichlet(np.ones(d)))  # full support
        n_in = int(rng.integers(1, d + 1))
        part = LevelPartition(in_set=frozenset(rng.permutation(d)[:n_in].tolist()),
                              d=d)
        rep = main_equality_report(rho0, prot, part)
        if not rep.mild_assumption_ok:
            continue
        worst = max(worst, rep.residual)
        checked += 1

    # special case: same initial and final landscape, zero out-of-set mass,
    # partial-support rho0 with the retained set equal to its support;
    # the optimum term must equal d_zero(rho0, gibbs).
    worst_d0 = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        land = EnergyLandscape(rng.normal(size=d))
        hop = partial_swap_hop_matrix(land, 1.0, float(rng.random()))
        prot = Protocol(initial=land, beta=1.0,
                        steps=(Thermalization(hop=hop),))
        k = int(rng.integers(1, d + 1))
        supp = np.sort(rng.permutation(d)[:k])
        p = np.zeros(d)
        p[supp] = rng.dirichlet(np.ones(k))
        rho0 = DiagonalState(p)
        part = LevelPartition(in_set=frozenset(supp.tolist()), d=d)
        rep = main_equality_report(rho0, prot, part)
        gamma, _ = make_thermal_state(land, 1.0)
        worst_d0 = max(worst_d0, abs(rep.optimum_term - d_zero(rho0, gamma)))

    # special case: additionally a flat (all-zero) landscape throughout;
    # the optimum term must equal log d - max_entropy(rho0).
    worst_flat = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 5))
        land = EnergyLandscape(np.zeros(d))
        hop = partial_swap_hop_matrix(land, 1.0, float(rng.random()))
        prot = Protocol(initial=land, beta=1.0,
                        steps=(Thermalization(hop=hop),))
        k = int(rng.integers(1, d + 1))
        supp = np.sort(rng.permutation(d)[:k])
        p = np.zeros(d)
        p[supp] = rng.dirichlet(np.ones(k))
        rho0 = DiagonalState(p)
        part = LevelPartition(in_set=frozenset(supp.tolist()), d=d)
        rep = main_equality_report(rho0, prot, part)
        worst_flat = max(
            worst_flat, abs(rep.optimum_term - (math.log(d) - max_entropy(rho0)))
        )

    ok = worst < 1e-9 and worst_d0 < 1e-12 and worst_flat < 1e-12
    report(
        3,
        ok,
        f"200 instances max residual {worst:.3g}; optimum vs D0 "
        f"{worst_d0:.3g}; flat-landscape vs log d - S_max {worst_flat:.3g}",
    )


def test_acceptance_4_work_tail_equality_and_bound(report):
    rng = np.random.default_rng(41)
    worst = 0.0
    violations = 0
    checks = 0
    while checks < 180:
        d = int(rng.integers(2, 5))
        prot = random_protocol(rng, d, int(rng.integers(1, 5)), 1.0)
        rho0 = DiagonalState(rng.dirichlet(np.ones(d)))
        n_in = int(rng.integers(1, d + 1))
        part = LevelPartition(in_set=frozenset(rng.permutation(d)[:n_in].tolist()),
                              d=d)
        for eps in (0.0, 0.1, 0.3):
            rep = work_tail_equality_report(rho0, prot, part, eps)
            if not rep.mild_assumption_ok:
                continue
            worst = max(worst, rep.residual)
            p_fail = out_of_set_probability(rho0, prot, part, rep.w0_in)
            if p_fail > rep.tail_bound + 1e-10:
                violations += 1
            checks += 1
    ok = worst < 1e-9 and violations == 0
    report(
        4,
        ok,
        f"{checks} checks over eps in (0, 0.1, 0.3): max residual {worst:.3g}, "
        f"{violations} tail-bound violations",
    )


@pytest.mark.slow
def test_acceptance_5_electron_box_cross_validation(report):
    t0 = time.perf_counter()
    params = EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)  # gamma0*tau/eps_c = 0.1
    ramp = szilard_ramp(5.0, 1.0)
    rho0 = np.array([0.5, 0.5])  # Gibbs state at the degenerate start
    n_traj, n_steps = 10**6, 400
    # grid offset by half the per-step energy quantum so that the lattice of
    # Monte Carlo work values does not sit exactly on bin edges
    w_grid = np.linspace(-5.0, 5.0, 201) + 0.0125

    mc = monte_carlo_work(ramp, rho0, n_traj, n_steps, seed=1, params=params)
    series = analytic_work_distribution(ramp, 3, w_grid, rho0, params)

    mc_hist, _ = np.histogram(mc.samples, bins=w_grid)
    p_mc = mc_hist / n_traj
    mc_outside = 1.0 - p_mc.sum()
    p_series = series.bin_masses.copy()
    for w, p in series.atoms:
        k = np.searchsorted(w_grid, w, side="right") - 1
        p_series[np.clip(k, 0, p_series.size - 1)] += p
    tv = 0.5 * (np.abs(p_mc - p_series).sum() + mc_outside + series.remainder)

    _, occ = integrate_master(ramp, rho0, 1600, params)
    p1_master = occ[-1, 1]
    p1_mc = mc.final_levels.mean()
    occ_se = math.sqrt(p1_master * (1 - p1_master) / n_traj)
    occ_sigmas = abs(p1_mc - p1_master) / occ_se

    mean_cf, _ = mean_work(ramp, rho0, 2000, params)
    mean_se = mc.samples.std() / math.sqrt(n_traj)
    mean_sigmas = abs(mc.samples.mean() - mean_cf) / mean_se

    elapsed = time.perf_counter() - t0
    ok = (
        tv < 0.02
        and occ_sigmas < 3.0
        and mean_sigmas < 3.0
        and series.remainder < 0.05
        and elapsed < 300.0
    )
    report(
        5,
        ok,
        f"TV(MC, series)={tv:.4f}, final-occupation {occ_sigmas:.2f} sigma, "
        f"mean work {mean_sigmas:.2f} sigma, series remainder "
        f"{series.remainder:.2g}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_acceptance_6_guaranteed_extraction_trend(report):
    t0 = time.perf_counter()
    params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
    durations = [24.0, 48.0, 96.0, 192.0, 384.0]
    eps_max = 8.0
    ln2 = math.log(2.0)
    # quasistatic limit of the mean extracted work, reached only as tau -> oo
    ceiling = ln2 - math.log1p(math.exp(-eps_max))

    # one sample set per duration serves both tolerances
    rows = szilard_sweep(durations, (0.01, 0.5), eps_max, 15000, 40000, 100,
                         params)

    def trend(eps):
        vals = [r[2] for r in rows if r[1] == eps]
        errs = [r[3] for r in rows if r[1] == eps]
        # slower drive (later rows) must extract strictly more, resolved
        # beyond the Monte Carlo error bars
        monotone = all(
            vals[i + 1] - vals[i] > errs[i] + errs[i + 1]
            for i in range(len(vals) - 1)
        )
        below = all(v + 3 * e < ln2 for v, e in zip(vals, errs))
        return vals, errs, monotone, below

    def master_equation_mean(tau):
        # <W_ext> = int p1 |d eps/dt| dt from the independent RK4 solver
        grid, occ = integrate_master(linear_ramp(eps_max, 0.0, tau),
                                     np.array([1.0, 0.0]), 4000, params)
        return float(np.trapezoid(occ[:, 1], grid)) * eps_max / tau

    v1, e1, mono1, below1 = trend(0.01)
    v5, e5, mono5, below5 = trend(0.5)
    means = [master_equation_mean(tau) for tau in durations]
    # the median sits below the mean extracted work ...
    median_le_mean = all(v <= m + 3 * e for v, e, m in zip(v5, e5, means))
    # ... which the lagging occupation p1 <= p1_eq caps below ln 2
    mean_le_ceiling = all(m <= ceiling for m in means)
    elapsed = time.perf_counter() - t0
    ok = (
        mono1 and below1 and mono5 and below5 and median_le_mean
        and mean_le_ceiling and elapsed < 120.0
    )
    report(
        6,
        ok,
        f"eps=0.01: monotone={mono1}, from below={below1}, "
        f"last={v1[-1]:.4f}±{e1[-1]:.4f}; eps=0.5: monotone={mono5}, "
        f"from below={below5}, median<=ME mean={median_le_mean}, "
        f"ME mean<=ceiling {ceiling:.5f}={mean_le_ceiling}, "
        f"last={v5[-1]:.4f}±{e5[-1]:.4f} (ME mean {means[-1]:.4f}); "
        f"ln2={ln2:.4f}; {elapsed:.0f}s",
    )


def test_acceptance_7_markov_bound_and_flags(report):
    params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
    # applicable case: pure lift from the occupied ground level, work >= 0
    ramp = linear_ramp(0.0, 5.0, 2.0)
    dist = monte_carlo_work(ramp, np.array([1.0, 0.0]), 10**5, 800, 9, params)
    z_ratio = math.log(2.0 / (1.0 + math.exp(-5.0)))
    bound_ok = True
    flagged_ok = True
    details = []
    for eps in (0.1, 0.25, 0.5):
        applicable, bound, measured = markov_bound_check(
            dist.samples, eps, 1.0, z_ratio
        )
        bound_ok &= applicable and bound >= measured
        details.append(f"eps={eps}: bound {bound:.3f} >= measured {measured:.3f}")
    # inapplicable case: extraction samples with negative work support
    ext = monte_carlo_work(linear_ramp(8.0, 0.0, 24.0), np.array([1.0, 0.0]),
                           2000, 2000, 10, params)
    applicable, bound, measured = markov_bound_check(ext.samples, 0.25, 1.0, 0.0)
    flagged_ok &= (not applicable) and bound is None and measured is None
    ok = bound_ok and flagged_ok
    report(7, ok, "; ".join(details) + f"; negative-support flagged={not applicable}")


def test_acceptance_8_basis_rotation_counterexample(report):
    l0 = EnergyLandscape(np.zeros(2))
    l1 = EnergyLandscape(np.array([0.0, 1.0]))
    rho0 = DiagonalState(np.array([1.0 / 3.0, 2.0 / 3.0]))
    results = {}
    for name, jump in (
        ("rotation", sudden_quench_jump_matrix(math.pi / 4.0)),
        ("identity", np.eye(2)),
    ):
        prot = Protocol(initial=l0, beta=1.0,
                        steps=(HamiltonianChange(target=l1, jump=jump),))
        dist = work_distribution(prot, rho0)
        assert worst_case_work(dist) == pytest.approx(1.0)
        results[name] = dist.prob_at(1.0)
    ok = (
        abs(results["rotation"] - 0.5) < 1e-15
        and abs(results["identity"] - 2.0 / 3.0) < 1e-15
    )
    report(
        8,
        ok,
        f"p(w0=dE) rotation {results['rotation']:.12f} vs identity "
        f"{results['identity']:.12f}",
    )


def test_acceptance_9_continuum_limit(report):
    params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
    eps, tau = 2.0, 5.0
    ramp = constant_ramp(eps, tau)
    errs = []
    for n in (250, 500, 1000, 2000):
        grid, occ = partial_swap_chain(ramp, np.array([1.0, 0.0]), n, params)
        exact = constant_relaxation_p0(eps, grid, 1.0, params)
        errs.append(float(np.max(np.abs(occ[:, 0] - exact))))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    ok = all(1.8 < r < 2.2 for r in ratios)
    report(9, ok, "error ratios over 3 step halvings: "
           + ", ".join(f"{r:.3f}" for r in ratios))
