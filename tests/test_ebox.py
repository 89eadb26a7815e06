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
from hypothesis import event, given, settings
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

from tests_support import (
    closure_rk4,
    closure_rk4_z,
    partial_swap_chain_protocol,
    pointwise_series_oracle,
)

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

    def test_huge_beta_eps_skips_the_small_x_series(self):
        # |beta eps| = 1e300: x * x of the small-x series would overflow
        p = EboxParams(gamma0=1.0, eps_c=1.0, beta=1e300)
        eps = np.array([-1.0, 0.0, 1e-309, 1.0])
        rates = tunneling_rate(eps, p)
        assert rates[0] == 1.0 and rates[3] == 0.0
        x = np.array([0.0, 1e-9])  # beta * eps in the series branch
        assert rates[1:3].tolist() == (1e-300 * (1.0 - x / 2.0 + x * x / 12.0)).tolist()
        psw = swap_probability(eps, 0.01, p)
        assert psw[0] == psw[3] == pytest.approx(0.01, rel=1e-15)
        assert psw[1:3].tolist() == (2e-302 * (1.0 + (x / 2.0) ** 2 / 3.0)).tolist()

    def test_gibbs_ground_occupation_keeps_its_digits(self):
        # p0 = 1/(1 + e^{-beta eps}) directly, not 1 - p1, which cancels to 0
        assert gibbs_occupations(-40.0, 1.0)[0] == pytest.approx(
            1.0 / (1.0 + math.exp(40.0)), rel=1e-15)
        p0, p1 = gibbs_occupations(np.linspace(-750.0, 750.0, 30001), 1.0)
        assert np.abs(p0 + p1 - 1.0).max() <= 2.2205e-16

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

    def test_non_finite_times_rejected(self):
        for times in ([0.0, math.inf], [0.0, math.nan], [0.0, 1.0, math.inf]):
            with pytest.raises(InvalidInputError, match="finite"):
                Ramp(times, np.zeros(len(times)))
        with pytest.raises(InvalidInputError, match="finite"):
            linear_ramp(0.0, 1.0, math.nan)
        for durations in ([math.nan, 1.0], [1.0, math.inf]):
            with pytest.raises(InvalidInputError, match="finite"):
                szilard_sweep(durations, 0.5, 1.0, 10, 200, 1, PARAMS)

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

    def test_non_finite_initial_state_rejected(self):
        # a NaN entry fails no comparison, so it must be rejected explicitly
        ramp = linear_ramp(0.0, 2.0, 1.0)
        calls = [lambda r: monte_carlo_work(ramp, r, 10, 10, 1, PARAMS),
                 lambda r: integrate_master(ramp, r, 10, PARAMS),
                 lambda r: partial_swap_chain(ramp, r, 10, PARAMS),
                 lambda r: analytic_work_distribution(ramp, 1, np.linspace(-1, 3, 5), r, PARAMS),
                 lambda r: characteristic_function(0.5, ramp, r, 10, PARAMS)]
        for rho0 in ([np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0], [np.inf, -np.inf]):
            for call in calls:
                with pytest.raises(InvalidInputError, match="rho0"):
                    call(rho0)

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

    # certain swaps (one of them just above 1) cut the hazard into pieces,
    # with steps that never swap between them
    CERTAIN_PATTERN = np.array([0.3, 1.0, 0.0, 0.6, 1.0 + 1e-13, 0.2, 0.0, 0.0])

    # sha256 of samples + final levels, taken when the sampler on
    # 4,096-trajectory blocks began drawing only level changes (version
    # 1.12.0); a seventh entry replaces the swap probabilities
    GOLDEN = [
        ((linear_ramp(0.0, 2.0, 1.0), (0.7, 0.3), 500, 50, 42, PARAMS),
         "5ba69dd91bf1a6d18a689452238a17fd88fe25ac9d23097140a63f43287c1827"),
        ((szilard_ramp(5.0, 1.0), (0.5, 0.5), 12000, 400, 3,
          EboxParams(gamma0=0.1, eps_c=1.0, beta=1.0)),
         "2cc42467cfdac95826fbeb4c7c0af8587e92e7dbc4bcc6becb38572c9813db8f"),
        ((linear_ramp(8.0, 0.0, 24.0), (1.0, 0.0), 1001, 2500, 7, PARAMS),
         "4995c345ae6bc26ec1dbd3a6ed70730007e5a23d82f0fd9332f30538c8ef2f23"),
        ((linear_ramp(8.0, 0.0, 24.0), (1.0, 0.0), 1, 3000, 5, PARAMS),
         "b1c9677ed0e768ff16893ee7cfa8e5644c9b2c179ba024e7a70c8086355072c8"),
        ((szilard_ramp(5.0, 2.0), (0.25, 0.75), 37, 3000, 2**63 - 1, PARAMS),
         "f5c73b63178ab3e01e50771398d252866bac70b5d30858b3dc76177dad43d5fc"),
        # ebox-sweep's longest row across a block boundary, acceptance 6's
        # row, a 200 kT ramp (swap rate ratio about 100), a decoupled bath
        # (no level changes: its digest predates 1.12.0), and certain swaps
        ((linear_ramp(8.0, 0.0, 144.0), (1.0, 0.0), 4097, 7200, 21, PARAMS),
         "7bb66ea02d43efd4f717e412591a1d19c26876624fc4b7416bf27a4e93d74ca5"),
        ((linear_ramp(8.0, 0.0, 384.0), (1.0, 0.0), 300, 40000, 22, PARAMS),
         "7ff229c3445fd44b67aeb1c0c5f61e58fa5bec6d5fccf7219d7e1cca1e661aca"),
        ((linear_ramp(0.0, 200.0, 10.0), (1.0, 0.0), 3000, 4000, 23, PARAMS),
         "0a6a11a5113634665bd3cde5b79f05277b3f3ca1da27527b8aa1d69394a62cf8"),
        ((linear_ramp(0.0, 2.0, 1.0), (0.5, 0.5), 500, 20000, 24,
          EboxParams(gamma0=0.0, eps_c=1.0, beta=1.0)),
         "c8d7688cd1e4333280f22d2a3a48be7577481e502e4975279cc01e5647b78134"),
        ((szilard_ramp(2.0, 1.0), (0.9, 0.1), 40000, CERTAIN_PATTERN.size, 6, PARAMS,
          CERTAIN_PATTERN),
         "c75533a687e42d6b76ae29d9541920ed3845f91118130aa63bb8749a639bc838"),
    ]

    @pytest.mark.parametrize("case, digest", GOLDEN,
                             ids=["short", "chunks", "threaded-odd", "one-traj", "seed-2^63-1",
                                  "sweep-longest", "acceptance-6-row", "200kT-ramp",
                                  "gamma0-zero", "certain-swaps"])
    def test_streams_unchanged(self, case, digest, monkeypatch):
        ramp, rho0, n_traj, n_steps, seed, params, *pattern = case
        if pattern:
            monkeypatch.setattr(ebox, "swap_probability", lambda eps, dt, params: pattern[0])
        dist = monte_carlo_work(ramp, np.array(rho0), n_traj, n_steps, seed, params)
        assert _digest(dist) == digest

    @settings(max_examples=250, deadline=None)
    @given(size=st.integers(1, 5000), low=st.integers(-323, 3),
           decades=st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 326.0)),
           zero_share=st.sampled_from([0.0, 0.1, 0.5, 0.95, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_hazard_index_matches_binary_search(self, size, low, decades, zero_share, seed):
        # non-decreasing hazards from 0 with runs of equal values (zero
        # increments, and increments lost to rounding next to large ones),
        # down to subnormal increments
        rng = np.random.default_rng(seed)
        inc = 10.0 ** (low + min(decades, 3 - low) * rng.random(size - 1))  # <= 1e3
        inc[rng.random(size - 1) < zero_share] = 0.0
        h = np.concatenate([[0.0], np.cumsum(inc)])
        # the table's bucket width: half the smallest rise, or top / (8 nodes)
        # where that is wider, and at least 2**-1000
        vals = np.unique(h)
        rise = float(np.diff(vals).min(initial=np.inf))
        inv = 1.0 / max(rise / 2.0, float(h[-1]) / (8 * size), 2.0**-1000)
        per_bucket = np.bincount((vals * inv).astype(np.intp)).max()
        event("one value per bucket" if per_bucket == 1 else "several per bucket")
        # nodes, their neighbours, the table's bucket edges j / inv next to
        # each node, and points above the top
        with np.errstate(all="ignore"):
            edges = np.concatenate([np.floor(h * inv), np.floor(h * inv) + 1]) / inv
        x = np.concatenate([h, edges[np.isfinite(edges)], [h[-1] + 1.0, 2.0 * h[-1] + 1e3],
                            h[-1] * (1.0 + rng.random(5)), h[-1] * rng.random(50)])
        x = np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])
        x = x[x >= 0.0]
        np.testing.assert_array_equal(ebox._hazard_index(h)(x),
                                      np.searchsorted(h, x, side="right") - 1)

    # linear, up-down and four-knot ramps whose works lie on a lattice, so
    # the exact chain law has a few hundred atoms, from a mixed start; and
    # the sweep's ramp from the ground level, where level 0 flips with
    # probability down to 3e-4 p_sw per step and level 1 flips back fast
    CHAIN_CASES = [(linear_ramp(0.0, 4.0, 3.0), (0.7, 0.3)),
                   (szilard_ramp(4.0, 3.0), (0.7, 0.3)),
                   (Ramp([0.0, 1.0, 2.0, 3.0], [0.0, 3.0, 1.0, 4.0]), (0.7, 0.3)),
                   (linear_ramp(8.0, 0.0, 24.0), (1.0, 0.0))]

    @pytest.mark.parametrize("ramp, rho0", CHAIN_CASES,
                             ids=["linear", "up-down", "four-knot", "sweep-ramp-from-ground"])
    def test_law_matches_exact_chain(self, ramp, rho0):
        rho0, n_traj, n_steps = np.array(rho0), 20000, 300
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

    def test_tiny_swap_rates(self):
        # swap probabilities of about 2e-308: the table's scale stays finite
        # and no query overflows; no trajectory swaps, so each pays its level
        dist = monte_carlo_work(linear_ramp(0.0, 1.0, 1.0), [0.5, 0.5], 5000, 100, 1,
                                EboxParams(1e-306, 1.0, 1.0))
        np.testing.assert_array_equal(dist.samples, dist.final_levels)
        assert 0 < dist.final_levels.sum() < 5000

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

    def test_certain_flip(self, monkeypatch):
        # at 40 kT g0 rounds to 1, so with p_sw = 1 level 1 flips to 0 at
        # every step: a trajectory that starts there leaves it at step 0,
        # before the splitting moves, and level 0 flips up with probability
        # p_sw g1 = 4e-18 per step, so it never comes back
        assert gibbs_occupations(40.0, 1.0)[0] == 1.0
        monkeypatch.setattr(ebox, "swap_probability", lambda eps, dt, params: np.ones(eps.shape))
        dist = monte_carlo_work(linear_ramp(40.0, 41.0, 1.0), np.array([0.0, 1.0]), 5000, 50, 9,
                                PARAMS)
        np.testing.assert_array_equal(dist.final_levels, np.zeros(5000, dtype=np.int8))
        np.testing.assert_array_equal(dist.samples, np.zeros(5000))

    def test_certain_swaps_between_uncertain_steps(self, monkeypatch):
        pattern = self.CERTAIN_PATTERN
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
        for n_traj, n_steps in ((10.5, 10), (10, 10.5), (10.0, 10), ("10", 10), (10, None)):
            with pytest.raises(InvalidInputError, match="n_traj and n_steps"):
                monte_carlo_work(ramp, rho0, n_traj, n_steps, 1, PARAMS)
        for seed in (-1, 1.5, True, np.True_, 2**64, "3", None):
            with pytest.raises(InvalidInputError, match="seed"):
                monte_carlo_work(ramp, rho0, 10, 10, seed, PARAMS)
        for seed in (2**64 - 1, np.uint64(2**64 - 1), np.int8(3)):
            assert monte_carlo_work(ramp, rho0, 3, 10, seed, PARAMS).samples.size == 3
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

    @pytest.mark.parametrize("ramp", [
        szilard_ramp(5.0, 1.0), linear_ramp(0.0, 1.5, 1.0),
        Ramp(times=[0.0, 0.3, 0.7, 1.1], values=[1.0, -2.0, 3.0, 0.5])],
        ids=["szilard", "linear", "points"])
    @pytest.mark.parametrize("rho0", [[1.0, 0.0], [0.3, 0.7], [0.0, 1.0]])
    @pytest.mark.parametrize("params", [
        EboxParams(gamma0=0.05, eps_c=1.0, beta=1.0),
        EboxParams(gamma0=0.03, eps_c=1.5, beta=0.6)], ids=["beta1", "beta0.6"])
    def test_matches_the_pointwise_oracle_bit_for_bit(self, ramp, rho0, params):
        # the series gathers every jump time's splitting, rates and rate
        # integrals from per-level, per-midpoint tables; the oracle computes
        # its own rate integrals and interpolates them at every jump time.
        # j_max 5 reaches the fallback grid of midpoints
        grid = np.linspace(-4.0, 6.0, 121)
        for j_max in range(6):
            atoms, bin_masses, remainder = pointwise_series_oracle(
                ramp, j_max, grid, rho0, params)
            if remainder > 0.05:
                with pytest.raises(ConvergenceError):
                    analytic_work_distribution(ramp, j_max, grid, rho0, params)
                assert j_max == 0  # from level 1 without a jump
                continue
            dist = analytic_work_distribution(ramp, j_max, grid, rho0, params)
            assert dist.atoms.tolist() == atoms.tolist()
            assert dist.bin_masses.tolist() == bin_masses.tolist()
            assert dist.remainder == remainder

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
        se = dist.samples.std() / math.sqrt(dist.samples.size)
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

    @pytest.mark.parametrize("ramp", [
        szilard_ramp(5.0, 1.0), linear_ramp(8.0, 0.0, 24.0),
        Ramp(times=[0.0, 0.4, 1.0, 1.7], values=[1.0, -2.0, 3.0, 0.5])],
        ids=["szilard", "linear", "points"])
    def test_mean_work_and_master_match_the_closure_bit_for_bit(self, ramp):
        params = EboxParams(gamma0=0.4, eps_c=1.2, beta=0.8)
        for rho0 in ([1.0, 0.0], [0.3, 0.7]):
            for n_steps in (60, 301):
                nodes = closure_rk4(0.0, ramp, rho0, n_steps, params)
                m, bound = mean_work(ramp, rho0, n_steps, params, lambda_probe=0.7)
                assert m == nodes[-1, 2]
                assert bound == math.log(closure_rk4_z(0.7, ramp, rho0, n_steps, params)) / 0.7
                _, occ = integrate_master(ramp, rho0, n_steps, params)
                p0 = np.clip(nodes[:, 0], 0.0, 1.0)
                assert occ[:, 0].tolist() == p0.tolist()
                assert occ[:, 1].tolist() == (1.0 - p0).tolist()

    def test_step_too_coarse_raises_step_size_error(self):
        # steps of 6 and of 0.65 time units at rates up to 8 leave phi
        # negative at tau, and the Jensen bound took the log of a negative Z
        ramp, params = linear_ramp(8.0, 0.0, 24.0), EboxParams(1.0, 1.0, 1.0)
        for rho0, n_steps in (([1.0, 0.0], 4), ([0.46, 0.54], 37)):
            with pytest.raises(StepSizeError, match="reduce the step size"):
                mean_work(ramp, rho0, n_steps, params, lambda_probe=0.7)
        with pytest.raises(StepSizeError, match="negative at xi=0.7 with 37 steps"):
            characteristic_function([0.7], ramp, [0.46, 0.54], 37, params)

    def test_subnormal_jensen_probe_raises_numeric_error(self):
        # every work is 2, so Z(lambda) = exp(2 lambda): at lambda = -400 the
        # RK4 gave a subnormal Z and a bound of 1.861, below the mean 2; at
        # lambda = -1000 Z underflowed to 0 and its log raised ValueError
        ramp, params = linear_ramp(0.0, 2.0, 1.0), EboxParams(0.0, 1.0, 1.0)
        for probe in (-400.0, -1000.0):
            with pytest.raises(NumericError, match="below the normal double range"):
                mean_work(ramp, [0.0, 1.0], 2000, params, lambda_probe=probe)

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
            return CrooksCheck(np.array(residuals), np.array(errors),
                               0.0).max_sigma_ratio

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

    def test_empty_samples_rejected(self):
        for call in (lambda: extracted_work_quantile([], 0.1),
                     lambda: cost_work_quantile(np.array([]), 0.1),
                     lambda: markov_bound_check([], 0.1, 1.0, 0.0)):
            with pytest.raises(InvalidInputError, match="no work samples"):
                call()

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
             "0x1.eb851eb851ec0p-5", "0x1.47ae147ae1480p-6"),
            ("0x1.0000000000000p-3", "0x1.0000000000000p-1",
             "0x1.d70a3d70a3d70p-2", "0x1.eb851eb851ec0p-6"),
            ("0x1.0000000000000p-4", "0x1.999999999999ap-4",
             "0x1.0a3d70a3d7090p-2", "0x1.47ae147ae146bp-6"),
            ("0x1.0000000000000p-4", "0x1.0000000000000p-1",
             "0x1.2e147ae147ae4p-1", "0x1.2c5f92c5f92c0p-6"),
        ]

    def test_tolerance_validation(self):
        for eps in ((), (0.1, 1.0), 0.0):
            with pytest.raises(InvalidInputError):
                szilard_sweep([1.0], eps, 1.0, 10, 100, 1, PARAMS)
