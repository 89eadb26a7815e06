"""Tests for the driven single-electron box: rates, dynamics, work statistics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcwork import (
    ConvergenceError,
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
)

from tests_support import closure_rk4_z

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


class TestMonteCarlo:
    def test_reproducible_across_chunk_sizes(self):
        ramp = linear_ramp(0.0, 2.0, 1.0)
        kw = dict(rho0=np.array([0.7, 0.3]), n_traj=500, n_steps=50,
                  seed=42, params=PARAMS)
        a = monte_carlo_work(ramp, chunk_size=7, **kw)
        b = monte_carlo_work(ramp, chunk_size=500, **kw)
        np.testing.assert_array_equal(a.samples, b.samples)
        np.testing.assert_array_equal(a.final_levels, b.final_levels)

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

    def test_input_validation(self):
        with pytest.raises(InvalidInputError):
            monte_carlo_work(constant_ramp(1.0, 1.0), np.array([1.0, 0.0]),
                             0, 10, 1, PARAMS)


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

    def test_tolerance_validation(self):
        for eps in ((), (0.1, 1.0), 0.0):
            with pytest.raises(InvalidInputError):
                szilard_sweep([1.0], eps, 1.0, 10, 100, 1, PARAMS)
