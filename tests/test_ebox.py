"""Tests for the driven single-electron box: rates, dynamics, work statistics."""

import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcwork import ebox
from wcwork import (
    ConvergenceError,
    CrooksCheck,
    DiagonalState,
    EboxParams,
    InvalidInputError,
    NumericError,
    Ramp,
    StepSizeError,
    analytic_work_distribution,
    characteristic_function,
    constant_ramp,
    constant_relaxation_p0,
    cost_work_quantile,
    ebox_crooks_check,
    extracted_work_quantile,
    gibbs_occupations,
    integrate_master,
    linear_ramp,
    markov_bound_check,
    mean_work,
    monte_carlo_work,
    partial_swap_chain,
    swap_probability,
    szilard_ramp,
    szilard_sweep,
    tunneling_rate,
    work_distribution,
)

from tests_support import closure_rk4_z, partial_swap_chain_protocol

PARAMS = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)


class TestRates:
    def test_detailed_balance(self):
        for eps in (0.1, 0.5, 2.0, 7.0):
            ratio = tunneling_rate(eps, PARAMS) / tunneling_rate(-eps, PARAMS)
            assert ratio == pytest.approx(math.exp(-PARAMS.beta * eps), rel=1e-12)

    def test_zero_splitting_limit(self):
        p = EboxParams(gamma0=0.7, eps_c=2.0, beta=3.0)
        assert tunneling_rate(0.0, p) == pytest.approx(0.7 / (3.0 * 2.0), rel=1e-12)
        # smooth through the removable singularity
        assert tunneling_rate(1e-10, p) == pytest.approx(
            tunneling_rate(0.0, p), rel=1e-8
        )

    def test_vectorized(self):
        eps = np.array([-1.0, 0.0, 1.0])
        out = tunneling_rate(eps, PARAMS)
        assert out.shape == (3,)
        assert out[0] > out[1] > out[2] > 0  # emission beats absorption

    def test_swap_probability_is_total_rate_times_dt(self):
        dt = 0.01
        for eps in (0.0, 0.3, 1.7):
            total = (tunneling_rate(eps, PARAMS) + tunneling_rate(-eps, PARAMS)) * dt
            assert swap_probability(eps, dt, PARAMS) == pytest.approx(total, rel=1e-10)

    def test_swap_probability_step_guard(self):
        with pytest.raises(StepSizeError):
            swap_probability(0.0, 10.0, PARAMS)
        with pytest.raises(InvalidInputError):
            swap_probability(0.0, -0.1, PARAMS)

    def test_large_splittings_reach_exact_limits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g0, g1 = gibbs_occupations(1000.0, 1.0)
            assert (float(g0), float(g1)) == (1.0, 0.0)
            assert tunneling_rate(1000.0, PARAMS) == 0.0
            assert tunneling_rate(-1000.0, PARAMS) == pytest.approx(1000.0)
            rates = tunneling_rate(np.array([-800.0, 0.0, 800.0]), PARAMS)
            assert rates[2] == 0.0 and np.all(np.isfinite(rates))

    def test_params_validation(self):
        with pytest.raises(InvalidInputError):
            EboxParams(gamma0=1.0, eps_c=0.0, beta=1.0)
        with pytest.raises(InvalidInputError):
            EboxParams(gamma0=-1.0, eps_c=1.0, beta=1.0)
        EboxParams(gamma0=0.0, eps_c=1.0, beta=1.0)  # decoupled limit allowed


class TestRamps:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Ramp(times=np.array([1.0, 2.0]), values=np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError):
            Ramp(times=np.array([0.0, 0.0]), values=np.array([0.0, 1.0]))
        with pytest.raises(InvalidInputError):
            linear_ramp(0.0, 1.0, 0.0)

    def test_interpolation(self):
        r = linear_ramp(0.0, 2.0, 4.0)
        assert r(1.0) == pytest.approx(0.5)

    def test_reversed(self):
        r = linear_ramp(0.0, 2.0, 4.0)
        rr = r.reversed()
        assert rr(0.0) == pytest.approx(2.0)
        assert rr(4.0) == pytest.approx(0.0)
        assert rr.reversed()(1.0) == pytest.approx(r(1.0))

    def test_updown_ramp_endpoints(self):
        r = szilard_ramp(50.0, 2.0)  # large splittings are valid inputs
        assert r(0.0) == 0.0
        assert r(1.0) == pytest.approx(50.0)
        assert r(2.0) == 0.0

    def test_time_grid_hits_breakpoints(self):
        r = szilard_ramp(1.0, 2.0)
        grid = r.time_grid(7)
        assert 1.0 in grid
        assert grid[0] == 0.0 and grid[-1] == 2.0
        assert np.all(np.diff(grid) > 0)


class TestMasterEquation:
    def test_matches_closed_form_at_constant_splitting(self):
        ramp = constant_ramp(1.3, 5.0)
        t, occ = integrate_master(ramp, np.array([1.0, 0.0]), 400, PARAMS)
        exact = constant_relaxation_p0(1.3, t, 1.0, PARAMS)
        assert np.max(np.abs(occ[:, 0] - exact)) < 1e-7

    def test_rows_normalized(self):
        ramp = linear_ramp(0.0, 3.0, 2.0)
        _, occ = integrate_master(ramp, np.array([0.5, 0.5]), 200, PARAMS)
        np.testing.assert_allclose(occ.sum(axis=1), 1.0, atol=1e-12)

    def test_relaxes_to_gibbs(self):
        eps = 2.0
        ramp = constant_ramp(eps, 60.0)
        _, occ = integrate_master(ramp, np.array([0.0, 1.0]), 2000, PARAMS)
        g0, g1 = gibbs_occupations(eps, PARAMS.beta)
        assert occ[-1, 0] == pytest.approx(float(g0), abs=1e-6)

    def test_bad_initial_state_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate_master(constant_ramp(1.0, 1.0), np.array([0.7, 0.7]), 10, PARAMS)

    def test_closed_form_at_extreme_splittings(self):
        t = np.array([0.0, 1e-3, 5.0])
        for eps in (-800.0, 1.3, 800.0):
            # Gibbs ground occupation 1 / (1 + e^{-eps}): 0 at -800, 1 at +800
            p_th = 1.0 / (1.0 + math.exp(-eps)) if abs(eps) < 700 else float(eps > 0)
            rate = tunneling_rate(eps, PARAMS) + tunneling_rate(-eps, PARAMS)
            decay = np.exp(-rate * t)
            got = constant_relaxation_p0(eps, t, 0.3, PARAMS)
            assert np.all(np.isfinite(got))
            np.testing.assert_allclose(got, 0.3 * decay + p_th * (1 - decay),
                                       rtol=1e-14, atol=1e-300)


class TestPartialSwapChain:
    def test_matches_step_by_step_chain(self):
        ramp = szilard_ramp(3.0, 2.0)
        grid, occ = partial_swap_chain(ramp, np.array([0.8, 0.2]), 100, PARAMS)
        p = np.array([0.8, 0.2])
        for k in range(100):
            e = float(ramp(grid[k]))
            psw = swap_probability(e, 2.0 / 100, PARAMS)
            g0, g1 = gibbs_occupations(e, PARAMS.beta)
            p = (1.0 - psw) * p + psw * np.array([g0, g1])
            assert occ[k + 1].tolist() == p.tolist()

    def test_first_order_convergence(self):
        ramp = constant_ramp(2.0, 5.0)
        exact = constant_relaxation_p0(2.0, 5.0, 1.0, PARAMS)
        errs = []
        for n in (250, 500, 1000, 2000):
            _, occ = partial_swap_chain(ramp, np.array([1.0, 0.0]), n, PARAMS)
            errs.append(abs(occ[-1, 0] - exact))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(1.7 < r < 2.3 for r in ratios)


def _digest(dist):
    return hashlib.sha256(dist.samples.tobytes() + dist.final_levels.tobytes()).hexdigest()


class TestMonteCarlo:
    def test_block_layout_is_exact(self):
        # block b reads the stream keyed (seed, b) and nothing else, so the
        # first blocks of a larger run are the whole of a smaller one
        kw = dict(ramp=szilard_ramp(5.0, 2.0), rho0=np.array([0.5, 0.5]),
                  n_steps=300, seed=8, params=PARAMS)
        runs = {n: monte_carlo_work(n_traj=n, **kw) for n in (4096, 8192, 8193)}
        for small, large in ((4096, 8192), (8192, 8193)):
            np.testing.assert_array_equal(runs[large].samples[:small], runs[small].samples)
            np.testing.assert_array_equal(runs[large].final_levels[:small],
                                          runs[small].final_levels)

    def test_no_bit_depends_on_blas_threads(self):
        script = ("import hashlib, numpy as np\n"
                  "from wcwork import EboxParams, monte_carlo_work, szilard_ramp\n"
                  "d = monte_carlo_work(szilard_ramp(5, 2), [0.5, 0.5], 2000, 3000, 3,"
                  " EboxParams(1, 1, 1))\n"
                  "print(hashlib.sha256(d.samples.tobytes()"
                  " + d.final_levels.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ebox.__file__)))
        digests = set()
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.add(run.stdout)
        assert len(digests) == 1

    # sha256 of samples + final levels, taken when the event sampler on
    # 4,096-trajectory blocks became the stream
    GOLDEN = [
        ((linear_ramp(0.0, 2.0, 1.0), (0.7, 0.3), 500, 50, 42, PARAMS),
         "eaec8109bfc9943b260ef7f88ba448900de5e992fb5191da7e60b49b149fb1f4"),
        ((szilard_ramp(5.0, 1.0), (0.5, 0.5), 12000, 400, 3,
          EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)),
         "e7c449b805cfc5324c81aad21435a5dee0dd1f9afceeaa70401ba77703c6af59"),
        ((linear_ramp(8.0, 0.0, 24.0), (1.0, 0.0), 1001, 2500, 7, PARAMS),
         "3421eab8845ebfaa085f20387f26edbe54721caa35d4c43e53ecb41cbe6b02ba"),
        ((linear_ramp(8.0, 0.0, 24.0), (1.0, 0.0), 1, 3000, 5, PARAMS),
         "c3848accee9700842ad037f930392d40ceb8c2ea7ea14cf0d3a505fc64c2a238"),
        ((szilard_ramp(5.0, 2.0), (0.25, 0.75), 37, 3000, 2**63 - 1, PARAMS),
         "e95a4a90789baba6837070465a0e69b3b35b259d3a2d39cf548ca2749cadcb4a"),
    ]

    @pytest.mark.parametrize("case, digest", GOLDEN,
                             ids=["short", "chunks", "threaded-odd", "one-traj", "seed-2^63-1"])
    def test_streams_unchanged(self, case, digest):
        ramp, rho0, n_traj, n_steps, seed, params = case
        dist = monte_carlo_work(ramp, np.array(rho0), n_traj, n_steps, seed, params)
        assert _digest(dist) == digest

    # linear, up-down and four-knot ramps whose works lie on a lattice, so
    # the exact chain law has a few hundred atoms
    CHAIN_RAMPS = [linear_ramp(0.0, 4.0, 3.0), szilard_ramp(4.0, 3.0),
                   Ramp([0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 1.0, 4.0])]

    @pytest.mark.parametrize("ramp", CHAIN_RAMPS, ids=["linear", "up-down", "four-knot"])
    def test_law_matches_exact_chain(self, ramp):
        rho0, n_traj, n_steps = np.array([0.7, 0.3]), 20000, 300
        dist = monte_carlo_work(ramp, rho0, n_traj, n_steps, 4242, PARAMS)
        atoms = work_distribution(partial_swap_chain_protocol(ramp, n_steps, PARAMS),
                                  DiagonalState(rho0)).atoms
        w, cdf = atoms[:, 0], np.cumsum(atoms[:, 1])
        x = np.sort(dist.samples)
        half_gap = np.diff(w).min() / 2
        # every sample lies on an atom, and the CDFs meet between atoms
        near = np.clip(np.searchsorted(w, x), 1, w.size - 1)
        assert np.all(np.minimum(x - w[near - 1], w[near] - x) <= 1e-9)
        ks = np.abs(np.searchsorted(x, w + half_gap) / n_traj - cdf).max()
        assert ks * math.sqrt(n_traj) < 1.63
        _, occ = partial_swap_chain(ramp, rho0, n_steps, PARAMS)
        q = occ[-1, 1]
        assert abs(dist.final_levels.mean() - q) < 4 * math.sqrt(q * (1 - q) / n_traj)

    def test_certain_swap_at_every_step(self):
        # p_sw = 1 to within 1e-12: every step swaps, so the run ends with
        # the last step's Gibbs level, 1 with probability 1/2
        ramp = linear_ramp(0.0, 1e-9, 1.0)
        assert swap_probability(ramp(0.5), 0.5, PARAMS) == pytest.approx(1.0, abs=1e-12)
        n = 20000
        dist = monte_carlo_work(ramp, np.array([1.0, 0.0]), n, 2, 3, PARAMS)
        assert abs(dist.final_levels.mean() - 0.5) < 4 * math.sqrt(0.25 / n)
        # each step's 5e-10 rise is paid by the level drawn at that step
        quanta = dist.samples / 5e-10
        np.testing.assert_allclose(quanta, np.round(quanta), atol=1e-6)
        assert set(np.round(quanta).tolist()) == {0.0, 1.0, 2.0}

    def test_certain_swaps_between_uncertain_steps(self, monkeypatch):
        # certain swaps (one of them just above 1) cut the hazard into pieces,
        # with steps that never swap between them
        pattern = np.array([0.3, 1.0, 0.0, 0.6, 1.0 + 1e-13, 0.2, 0.0, 0.0])
        monkeypatch.setattr(ebox, "swap_probability", lambda eps, dt, params: pattern)
        ramp, rho0, n = szilard_ramp(2.0, 1.0), np.array([0.9, 0.1]), 40000
        dist = monte_carlo_work(ramp, rho0, n, pattern.size, 6, PARAMS)
        grid, occ = partial_swap_chain(ramp, rho0, pattern.size, PARAMS)
        q = occ[-1, 1]
        assert abs(dist.final_levels.mean() - q) < 4 * math.sqrt(q * (1 - q) / n)
        # the mean work: each step's change times the level after its swap
        mean = float(np.dot(occ[1:, 1], np.diff(ramp(grid))))
        assert abs(dist.mean() - mean) < 4 * dist.samples.std() / math.sqrt(n)

    def test_single_step_and_single_trajectory(self):
        ramp = linear_ramp(1.0, 3.0, 0.25)
        n = 20000
        dist = monte_carlo_work(ramp, np.array([0.6, 0.4]), n, 1, 5, PARAMS)
        _, occ = partial_swap_chain(ramp, np.array([0.6, 0.4]), 1, PARAMS)
        q = occ[-1, 1]
        assert abs(dist.final_levels.mean() - q) < 4 * math.sqrt(q * (1 - q) / n)
        np.testing.assert_array_equal(dist.samples, 2.0 * dist.final_levels)
        one = monte_carlo_work(szilard_ramp(4.0, 3.0), np.array([0.4, 0.6]), 1, 1200,
                               2**64 - 1, PARAMS)
        assert one.samples.shape == one.final_levels.shape == (1,)
        assert one.final_levels[0] in (0, 1) and np.isfinite(one.samples[0])

    def test_concurrent_calls_match_sequential_ones(self):
        cases = [(szilard_ramp(5.0, 2.0), 37, 3000, 11),
                 (linear_ramp(0.0, 2.0, 1.0), 300, 50, 12),
                 (linear_ramp(8.0, 0.0, 24.0), 101, 1500, 13),
                 (szilard_ramp(3.0, 1.0), 2000, 200, 14)]

        def run(case):
            ramp, n_traj, n_steps, seed = case
            return monte_carlo_work(ramp, np.array([0.5, 0.5]), n_traj, n_steps,
                                    seed, PARAMS)

        expected = [_digest(run(case)) for case in cases]
        got = [None] * len(cases)

        def worker(k):
            got[k] = _digest(run(cases[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(cases))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected

    def test_decoupled_limit_is_deterministic(self):
        params = EboxParams(gamma0=0.0, eps_c=1.0, beta=1.0)
        ramp = linear_ramp(0.0, 2.0, 1.0)
        dist = monte_carlo_work(ramp, np.array([1.0, 0.0]), 200, 20, 1, params)
        np.testing.assert_array_equal(dist.samples, np.zeros(200))
        dist = monte_carlo_work(ramp, np.array([0.0, 1.0]), 200, 20, 1, params)
        np.testing.assert_allclose(dist.samples, 2.0, atol=1e-12)

    def test_final_occupation_matches_master_equation(self):
        ramp = linear_ramp(0.0, 2.0, 2.0)
        rho0 = np.array([0.5, 0.5])
        n = 40000
        dist = monte_carlo_work(ramp, rho0, n, 400, 3, PARAMS)
        _, occ = integrate_master(ramp, rho0, 800, PARAMS)
        p1_mc = dist.final_levels.mean()
        se = math.sqrt(occ[-1, 1] * occ[-1, 0] / n)
        assert abs(p1_mc - occ[-1, 1]) < 4 * se

    def test_input_validation(self, monkeypatch):
        ramp, rho0 = constant_ramp(1.0, 1.0), np.array([1.0, 0.0])
        with pytest.raises(InvalidInputError):
            monte_carlo_work(ramp, rho0, 0, 10, 1, PARAMS)
        for seed in (-1, 1.5, True, np.True_, 2**64, "3", None):
            with pytest.raises(InvalidInputError, match="seed"):
                monte_carlo_work(ramp, rho0, 10, 10, seed, PARAMS)
        for seed in (2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
            assert monte_carlo_work(ramp, rho0, 3, 10, seed, PARAMS).n == 3
        assert szilard_sweep([1.0, 2.0], 0.5, 1.0, 10, 200, 2**64 - 2, PARAMS)

        # derived keys, seed + 1 for the reverse run and seed + i for
        # duration i, are checked before anything is sampled
        def never(*args):
            raise AssertionError("sampled before the seed was checked")

        monkeypatch.setattr(ebox, "monte_carlo_work", never)
        for seed in (2**64 - 1, -1, 2.0):
            with pytest.raises(InvalidInputError, match="seed"):
                ebox_crooks_check(ramp, 10, seed, PARAMS)
        for seed in (2**64 - 2, -1, False):
            with pytest.raises(InvalidInputError, match="seed"):
                szilard_sweep([1.0, 2.0, 3.0], 0.5, 1.0, 10, 200, seed, PARAMS)


class TestJumpSeries:
    def test_no_jump_atoms_match_manual_integrals(self):
        # weak coupling, analytic action for a constant ramp: S = Gamma * tau
        params = EboxParams(gamma0=0.05, eps_c=1.0, beta=1.0)
        tau, eps = 2.0, 1.0
        ramp = constant_ramp(eps, tau)
        rho0 = np.array([0.6, 0.4])
        grid = np.linspace(-2.0, 2.0, 81)
        dist = analytic_work_distribution(ramp, 2, grid, rho0, params)
        atoms = dict(dist.atoms)
        s_up = tunneling_rate(eps, params) * tau  # escape from level 0
        s_dn = tunneling_rate(-eps, params) * tau  # escape from level 1
        # constant ramp: both no-jump atoms land at W = 0 and their weights add
        assert atoms[0.0] == pytest.approx(
            0.6 * math.exp(-s_up) + 0.4 * math.exp(-s_dn), rel=1e-9
        )
        assert len(atoms) == 1

    def test_atoms_are_a_read_only_array_merged_at_their_mean(self):
        # the two no-jump atoms, at 0 and at eps_f - eps_0 = 5e-10, lie
        # within 1e-9 of each other: one atom at their probability-weighted
        # mean, as WorkDistribution merges them
        params = EboxParams(gamma0=0.05, eps_c=1.0, beta=1.0)
        ramp = Ramp([0.0, 1.0], [1.0, 1.0 + 5e-10])
        dist = analytic_work_distribution(ramp, 1, np.linspace(-2, 2, 41),
                                          np.array([0.6, 0.4]), params)
        assert dist.atoms.shape == (1, 2) and not dist.atoms.flags.writeable
        p0 = 0.6 * math.exp(-tunneling_rate(1.0, params))
        p1 = 0.4 * math.exp(-tunneling_rate(-1.0, params))
        w_shift = ramp(1.0) - ramp(0.0)
        assert dist.atoms[0, 0] == pytest.approx(w_shift * p1 / (p0 + p1), rel=1e-6)
        assert dist.atoms[0, 1] == pytest.approx(p0 + p1, rel=1e-6)

    def test_atom_of_zero_weight_keeps_its_work(self):
        # from level 1 the escape action is ~4e4: its no-jump weight is 0.0,
        # the lost 0.03 stays within the remainder tolerance
        params = EboxParams(gamma0=100.0, eps_c=1.0, beta=1.0)
        dist = analytic_work_distribution(linear_ramp(40.0, 41.0, 10.0), 1,
                                          np.linspace(-2, 2, 5),
                                          np.array([0.97, 0.03]), params)
        assert dist.atoms[:, 0].tolist() == [0.0, 1.0]
        assert dist.atoms[1, 1] == 0.0

    def test_mass_accounting(self):
        ramp = linear_ramp(0.0, 1.5, 1.0)
        grid = np.linspace(-2.0, 2.0, 161)
        dist = analytic_work_distribution(ramp, 3, grid, np.array([1.0, 0.0]), PARAMS)
        assert dist.total_mass() == pytest.approx(1.0 - dist.remainder, abs=1e-12)
        assert 0.0 <= dist.remainder < 0.05

    def test_truncation_error_raised(self):
        # strong coupling over a long window: many jumps, j_max=0 cannot work
        params = EboxParams(gamma0=5.0, eps_c=1.0, beta=1.0)
        ramp = constant_ramp(0.5, 4.0)
        grid = np.linspace(-3.0, 3.0, 61)
        with pytest.raises(ConvergenceError):
            analytic_work_distribution(ramp, 0, grid, np.array([1.0, 0.0]), params)

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            analytic_work_distribution(
                constant_ramp(1.0, 1.0), 1, np.array([1.0, 0.0]),
                np.array([1.0, 0.0]), PARAMS,
            )


class TestCharacteristicFunction:
    def test_normalization_at_zero(self):
        ramp = linear_ramp(0.0, 2.0, 1.5)
        z0 = characteristic_function(0.0, ramp, np.array([0.3, 0.7]), 400, PARAMS)
        assert z0 == pytest.approx(1.0, abs=1e-10)

    def test_exponential_average_identity(self):
        # <e^{-beta w}> = Z_f / Z_0 for a Gibbs-distributed start
        ramp = linear_ramp(0.0, 2.0, 1.5)
        beta = PARAMS.beta
        gibbs0 = np.array(gibbs_occupations(0.0, beta))
        z = characteristic_function(-beta, ramp, gibbs0, 800, PARAMS)
        z_ratio = (1 + math.exp(-beta * 2.0)) / (1 + math.exp(-beta * 0.0))
        assert z == pytest.approx(z_ratio, rel=1e-8)

    def test_exponential_average_identity_on_kinked_ramp(self):
        # each linear piece is integrated with its own slope: RK4 keeps its
        # order across the breakpoint of the up-down ramp
        params = EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)
        z = characteristic_function(-1.0, szilard_ramp(5.0, 1.0),
                                    np.array([0.5, 0.5]), 400, params)
        assert z == pytest.approx(1.0, abs=1e-9)

    def test_constant_ramp_mean_zero(self):
        m, _ = mean_work(constant_ramp(1.0, 2.0), np.array([0.5, 0.5]), 200, PARAMS)
        assert m == pytest.approx(0.0, abs=1e-8)

    def test_mean_work_matches_monte_carlo(self):
        ramp = linear_ramp(0.0, 2.0, 1.0)
        rho0 = np.array([0.5, 0.5])
        m, bound = mean_work(ramp, rho0, 400, PARAMS, lambda_probe=1.0)
        dist = monte_carlo_work(ramp, rho0, 40000, 400, 5, PARAMS)
        se = dist.samples.std() / math.sqrt(dist.n)
        assert abs(dist.mean() - m) < 4 * se
        assert bound >= m - 1e-9  # convexity bound

    def test_lambda_probe_validation(self):
        with pytest.raises(InvalidInputError):
            mean_work(constant_ramp(1.0, 1.0), np.array([1.0, 0.0]), 50, PARAMS,
                      lambda_probe=0.0)


class TestTiltedIntegrator:
    """One RK4 serves Z(xi) for a batch of tilts and the mean work as the
    exact tangent at xi = 0."""

    @settings(max_examples=25, deadline=None)
    @given(
        gaps=st.lists(st.floats(0.5, 1.5), min_size=1, max_size=3),
        values=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        gamma0=st.floats(0.05, 2.0),
    )
    def test_jarzynski_on_drawn_ramps(self, gaps, values, gamma0):
        # <exp(-beta w)> = Z_f / Z_0 from the Gibbs state, on 2-4-knot ramps
        params = EboxParams(gamma0=gamma0, eps_c=1.0, beta=1.0)
        times = np.concatenate([[0.0], np.cumsum(gaps)])
        ramp = Ramp(times=times, values=np.array(values[: times.size]))
        e0, ef = float(ramp(0.0)), float(ramp(ramp.tau))
        gibbs0 = np.array(gibbs_occupations(e0, 1.0))
        z = characteristic_function(-1.0, ramp, gibbs0, 2000, params)
        z_ratio = (1 + math.exp(-ef)) / (1 + math.exp(-e0))
        assert z == pytest.approx(z_ratio, rel=1e-8)

    def test_batch_equals_single_tilts_bit_for_bit(self):
        ramp = Ramp(times=np.array([0.0, 0.4, 1.0, 1.7]),
                    values=np.array([1.0, -2.0, 3.0, 0.5]))
        rho0 = np.array([0.3, 0.7])
        xis = [-1.5, -1.0, 0.0, 0.3, 2.0]
        batch = characteristic_function(xis, ramp, rho0, 300, PARAMS)
        assert isinstance(batch, np.ndarray) and batch.shape == (5,)
        single = [characteristic_function(x, ramp, rho0, 300, PARAMS) for x in xis]
        assert all(isinstance(z, float) for z in single)
        assert batch.tolist() == single
        # and both equal the stage-by-stage closure RK4
        assert single == [closure_rk4_z(x, ramp, rho0, 300, PARAMS) for x in xis]

    def test_mean_work_is_the_tangent_of_the_batched_z(self):
        params = EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)
        ramp, rho0 = szilard_ramp(5.0, 1.0), np.array([0.5, 0.5])
        z = characteristic_function([-1e-4, 0.0, 1e-4], ramp, rho0, 2000, params)
        m, _ = mean_work(ramp, rho0, 2000, params)
        assert z[1] == pytest.approx(1.0, abs=1e-12)
        assert m == pytest.approx((z[2] - z[0]) / 2e-4, abs=1e-7)

    def test_tilt_validation_and_divergence(self):
        ramp, rho0 = linear_ramp(0.0, 2.0, 1.0), np.array([1.0, 0.0])
        for bad in (math.inf, [0.0, math.nan], [[0.0]]):
            with pytest.raises(InvalidInputError):
                characteristic_function(bad, ramp, rho0, 50, PARAMS)
        steep = linear_ramp(0.0, 1e6, 1.0)
        with pytest.raises(NumericError, match=r"xi=1e\+100 "):
            characteristic_function([0.0, 1e100], steep, rho0, 4, PARAMS)


class TestCrooksCheck:
    def test_constant_ramp_trivial(self):
        check = ebox_crooks_check(constant_ramp(1.0, 0.5), 2000, 11, PARAMS,
                                  n_steps=50, n_bins=1, min_count=10)
        assert check.log_z_ratio == pytest.approx(0.0)
        np.testing.assert_allclose(check.residuals, 0.0, atol=1e-12)

    def test_linear_ramp_within_errors(self):
        ramp = linear_ramp(0.0, 2.0, 1.0)
        check = ebox_crooks_check(ramp, 60000, 7, PARAMS, n_steps=200,
                                  n_bins=20, min_count=50)
        assert check.max_sigma_ratio < 4.0
        expected = math.log((1 + math.exp(-2.0)) / 2.0)
        assert check.log_z_ratio == pytest.approx(expected)

    def test_log_z_ratio_finite_at_extreme_splittings(self):
        # log((1 + e^{790}) / (1 + e^{800})) = -10 to double precision
        check = ebox_crooks_check(linear_ramp(-800, -790, 1), 200, 1,
                                  EboxParams(0.001, 1, 1), n_steps=50, n_bins=2,
                                  min_count=1)
        assert check.log_z_ratio == pytest.approx(-10.0, abs=1e-12)
        check = ebox_crooks_check(linear_ramp(790, 800, 1), 200, 1,
                                  EboxParams(0.001, 1, 1), n_steps=50, n_bins=2,
                                  min_count=1)
        assert check.log_z_ratio == 0.0

    def test_sigma_ratio_of_bins_without_spread(self):
        # one bin holds every sample of both runs: residual 0, error 0
        check = ebox_crooks_check(linear_ramp(-800, -790, 1), 200, 1,
                                  EboxParams(0.001, 1, 1), n_steps=50, n_bins=2,
                                  min_count=1)
        assert check.standard_errors.tolist() == [0.0]
        assert check.max_sigma_ratio == 0.0

        def ratio(residuals, errors):
            return CrooksCheck(np.zeros(len(errors)), np.array(residuals),
                               np.array(errors), 0, 0.0).max_sigma_ratio

        assert ratio([0.0, -0.5], [0.0, 0.1]) == pytest.approx(5.0)
        assert ratio([0.0, 0.1], [0.0, 0.0]) == math.inf


class TestQuantiles:
    def test_cost_quantile_manual(self):
        s = np.arange(10, dtype=float)
        assert cost_work_quantile(s, 0.0) == 9.0
        assert cost_work_quantile(s, 0.25) == 7.0  # two samples strictly above
        assert cost_work_quantile(s, 0.95) == 0.0

    def test_extracted_quantile_manual(self):
        s = -np.arange(10, dtype=float)  # extracted work 0..9
        g, err = extracted_work_quantile(s, 0.25)
        assert g == 2.0  # P(extracted < 2) = 0.2 <= 0.25
        assert err >= 0.0
        with pytest.raises(InvalidInputError):
            extracted_work_quantile(s, 0.0)

    def test_extracted_quantile_of_zero_work_is_positive_zero(self):
        g, err = extracted_work_quantile(np.array([0.0, 0.0, 0.0, -1.0]), 0.5)
        assert g == 0.0 and math.copysign(1.0, g) == 1.0
        assert math.copysign(1.0, err) == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        works=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])
                       | st.floats(-5.0, 5.0), min_size=1, max_size=40),
        eps=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_quantiles_match_their_definition(self, works, eps):
        # the largest extracted value g with #{extracted < g} <= floor(eps n)
        extracted = [0.0 - w for w in works]
        k = math.floor(eps * len(works))
        g = max(x for x in extracted if sum(y < x for y in extracted) <= k)
        value, err = extracted_work_quantile(np.array(works), eps)
        assert value == g and math.copysign(1.0, value) == math.copysign(1.0, g)
        assert err >= 0.0
        cost = cost_work_quantile(np.array(works), eps)
        assert cost == -g
        assert (0.0 - cost).hex() == value.hex()

    def test_markov_check_flags_negative_support(self):
        ok, bound, measured = markov_bound_check(np.array([-0.1, 1.0]), 0.2, 1.0, 0.0)
        assert not ok and bound is None and measured is None

    def test_markov_check_bounds_nonnegative_work(self):
        ramp = linear_ramp(0.0, 3.0, 1.0)
        dist = monte_carlo_work(ramp, np.array([1.0, 0.0]), 20000, 400, 9, PARAMS)
        assert dist.samples.min() >= 0.0
        z_ratio = (1 + math.exp(-0.0)) / (1 + math.exp(-3.0))
        ok, bound, measured = markov_bound_check(
            dist.samples, 0.25, 1.0, math.log(z_ratio)
        )
        assert ok
        assert bound >= measured


class TestSweep:
    def test_rows_and_second_law_ceiling(self):
        rows = szilard_sweep([4.0, 8.0], 0.5, 6.0, 3000, 1600, 77, PARAMS)
        assert len(rows) == 2
        assert rows[0][0] == pytest.approx(0.25)
        assert rows[1][0] == pytest.approx(0.125)
        asym = math.log(2) - math.log(1 + math.exp(-6.0))
        for _, eps, w_eps, err in rows:
            assert eps == 0.5
            assert w_eps <= asym + 5 * max(err, 1e-3)
        # slower drive extracts more at the median
        assert rows[1][2] > rows[0][2]

    def test_duration_validation(self):
        with pytest.raises(InvalidInputError):
            szilard_sweep([], 0.1, 1.0, 10, 100, 1, PARAMS)
        with pytest.raises(InvalidInputError):
            szilard_sweep([0.0], 0.1, 1.0, 10, 100, 1, PARAMS)

    def test_tolerances_share_one_sample_set_per_duration(self):
        durations, rest = [4.0, 8.0], (6.0, 3000, 1600, 77, PARAMS)
        low = szilard_sweep(durations, 0.1, *rest)
        mid = szilard_sweep(durations, 0.5, *rest)
        both = szilard_sweep(durations, (0.1, 0.5), *rest)
        # duration-major, bit for bit the rows of the single-tolerance calls
        assert both == [low[0], mid[0], low[1], mid[1]]

    def test_rows_unchanged(self):
        # golden rows (speed, eps, w_eps, stderr) of a small fixed sweep
        rows = szilard_sweep([8.0, 16.0], (0.1, 0.5), 4.0, 300, 400, 13, PARAMS)
        assert [tuple(x.hex() for x in row) for row in rows] == [
            ("0x1.0000000000000p-3", "0x1.999999999999ap-4",
             "0x1.99999999999a0p-4", "0x1.eb851eb851eabp-6"),
            ("0x1.0000000000000p-3", "0x1.0000000000000p-1",
             "0x1.0a3d70a3d70a4p-1", "0x1.eb851eb851ec0p-6"),
            ("0x1.0000000000000p-4", "0x1.999999999999ap-4",
             "0x1.ffffffffffff0p-3", "0x1.1111111111115p-5"),
            ("0x1.0000000000000p-4", "0x1.0000000000000p-1",
             "0x1.3851eb851eb84p-1", "0x1.2c5f92c5f92d5p-6"),
        ]

    def test_tolerance_validation(self):
        for eps in ((), (0.1, 1.0), 0.0):
            with pytest.raises(InvalidInputError):
                szilard_sweep([1.0], eps, 1.0, 10, 100, 1, PARAMS)
