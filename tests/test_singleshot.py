"""Tests for one-shot entropies and the worst-case-work equality machinery."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wcwork import engine, singleshot
from wcwork import (
    DiagonalState,
    EnergyLandscape,
    HamiltonianChange,
    InvalidInputError,
    LevelPartition,
    Protocol,
    ResourceLimitError,
    Thermalization,
    build_tilde_scenario,
    crooks_residual,
    d_infinity,
    d_zero,
    main_equality_report,
    make_thermal_state,
    markov_d_infinity_bound,
    max_entropy,
    out_of_set_probability,
    partial_swap_hop_matrix,
    reverse_protocol,
    smooth_d_zero,
    work_distribution,
    work_tail_equality_report,
)

from tests_support import exhaustive_smooth_d_zero, planted_gap_protocols


def degenerate_thermalize_protocol(beta=1.0, p_swap=1.0):
    """Two degenerate levels, a single (full by default) thermalization."""
    land = EnergyLandscape(np.zeros(2))
    hop = partial_swap_hop_matrix(land, beta, p_swap)
    return Protocol(initial=land, beta=beta, steps=(Thermalization(hop=hop),))


class TestDInfinity:
    def test_known_vectors(self):
        assert d_infinity([0.5, 0.5], [0.25, 0.75]) == pytest.approx(math.log(2))
        assert d_infinity([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_zero_on_equal(self):
        p = np.array([0.2, 0.3, 0.5])
        assert d_infinity(p, p) == pytest.approx(0.0, abs=1e-14)

    def test_infinite_on_support_mismatch(self):
        assert d_infinity([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            d_infinity([0.5, 0.5], [0.2, 0.3, 0.5])

    def test_work_distribution_overload(self):
        # degenerate-levels scenario: forward starts from (0.9, 0.1); all work
        # values are 0, so D_inf reduces to a plain ratio of masses at w = 0.
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        scen = build_tilde_scenario(rho0, prot, part)
        rep = main_equality_report(rho0, prot, part)
        assert rep.d_infinity_term == pytest.approx(math.log(1.8), abs=1e-12)
        assert scen.z_tilde == pytest.approx(1 / 0.9)


class TestDZeroAndMaxEntropy:
    def test_manual_value(self):
        rho = DiagonalState(np.array([0.5, 0.5, 0.0]))
        sigma = DiagonalState(np.array([0.2, 0.3, 0.5]))
        assert d_zero(rho, sigma) == pytest.approx(-math.log(0.5))

    def test_support_escape_rejected(self):
        with pytest.raises(InvalidInputError):
            d_zero([0.5, 0.5], [1.0, 0.0])

    def test_max_entropy_counts_support(self):
        assert max_entropy([0.5, 0.5, 0.0]) == pytest.approx(math.log(2))
        assert max_entropy([1.0, 0.0]) == pytest.approx(0.0)


class TestSmoothDZero:
    def test_eps_zero_reduces_to_d_zero(self):
        rho = DiagonalState(np.array([0.6, 0.4, 0.0]))
        sigma = DiagonalState(np.array([0.3, 0.3, 0.4]))
        assert smooth_d_zero(rho, sigma, 0.0) == pytest.approx(d_zero(rho, sigma))

    def test_greedy_can_be_suboptimal(self):
        # removing levels in decreasing sigma/rho order takes level 0 first
        # (ratio 1.5, sigma-mass 0.45) and then has no eps left; the exact
        # search removes level 1 alone (sigma-mass 0.5)
        rho = DiagonalState(np.array([0.3, 0.4, 0.3]))
        sigma = DiagonalState(np.array([0.45, 0.5, 0.05]))
        assert smooth_d_zero(rho, sigma, 0.4) == pytest.approx(-math.log(0.5))

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.tuples(
            st.sampled_from([0.0, 0.0, 1e-300, 0.1, 1.0, 3.0])
            | st.floats(0.0, 10.0),
            st.floats(1e-3, 10.0)), min_size=1, max_size=10),
        eps=st.floats(0.0, 1.0, exclude_max=True),
        more=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_matches_subset_oracle_and_grows_with_eps(self, weights, eps, more):
        # drawn rho with some unoccupied levels, sigma positive everywhere
        r = np.array([w for w, _ in weights])
        if r.sum() == 0:
            r[0] = 1.0
        rho = DiagonalState(r / r.sum())
        s = np.array([w for _, w in weights])
        sigma = DiagonalState(s / s.sum())
        got = smooth_d_zero(rho, sigma, eps)
        assert got == exhaustive_smooth_d_zero(rho, sigma, eps)
        larger = eps + more * (1.0 - eps)
        if larger < 1.0:
            assert smooth_d_zero(rho, sigma, larger) >= got

    def test_support_limit(self):
        # 20 support levels are searched exactly; 21 raise instead
        for d, within in ((20, True), (21, False)):
            rho = DiagonalState(np.full(d, 1.0 / d))
            if within:
                # ten of twenty uniform levels (rho-mass 0.5) can go
                assert smooth_d_zero(rho, rho, 0.5) == pytest.approx(math.log(2.0))
            else:
                with pytest.raises(ResourceLimitError):
                    smooth_d_zero(rho, rho, 0.5)
        # with eps = 0 nothing is searched, and d_zero needs no limit
        assert smooth_d_zero(rho, rho, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_nondecreasing_in_eps(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            rho = DiagonalState(rng.dirichlet(np.ones(d)))
            sigma = DiagonalState(rng.dirichlet(np.ones(d)))
            vals = [smooth_d_zero(rho, sigma, e) for e in (0.0, 0.1, 0.3, 0.6)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_eps_range_validated(self):
        rho = DiagonalState(np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            smooth_d_zero(rho, rho, 1.0)
        with pytest.raises(InvalidInputError):
            smooth_d_zero(rho, rho, -0.1)


class TestTildeScenario:
    def test_degenerate_two_level_internals(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        scen = build_tilde_scenario(rho0, prot, part)
        assert scen.z_tilde == pytest.approx(1 / 0.9)
        assert scen.p_out == pytest.approx(0.1)
        # lifted level 1 satisfies exp(-beta*E) / z_tilde = 0.1, so E = ln 9
        assert scen.lifted_energies == pytest.approx({1: math.log(9.0)})
        np.testing.assert_allclose(scen.gamma_tilde.probs, [0.9, 0.1])
        assert scen.mild_assumption_ok
        # prepended step lowers the lifted landscape back without mixing
        first = scen.tilde_protocol.steps[0]
        np.testing.assert_array_equal(first.jump, np.eye(2))
        np.testing.assert_allclose(first.target.energies, [0.0, 0.0])

    def test_zero_occupation_level_gets_finite_lift(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([1.0, 0.0]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        scen = build_tilde_scenario(rho0, prot, part)
        lift = scen.lifted_energies[1]
        assert np.isfinite(lift)
        assert math.exp(-prot.beta * lift) == 0.0  # underflows exactly
        np.testing.assert_allclose(scen.gamma_tilde.probs, [1.0, 0.0])

    def test_no_retained_probability_rejected(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.0, 1.0]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        with pytest.raises(InvalidInputError):
            build_tilde_scenario(rho0, prot, part)

    def test_mild_assumption_can_fail(self):
        # raise level 1 by a lot with no thermalization: trajectories starting
        # outside the retained set perform strictly more work than any retained
        # trajectory, so the full worst case exceeds the retained worst case.
        l0 = EnergyLandscape(np.zeros(2))
        l1 = EnergyLandscape(np.array([0.0, 5.0]))
        prot = Protocol(
            initial=l0,
            beta=1.0,
            steps=(HamiltonianChange(target=l1, jump=np.eye(2)),),
        )
        rho0 = DiagonalState(np.array([0.5, 0.5]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        scen = build_tilde_scenario(rho0, prot, part)
        assert not scen.mild_assumption_ok


class TestForwardPasses:
    """Each report runs the exact recursion once per protocol it needs: the
    tilde scenario's forward pass serves both the mild-assumption check and
    D_inf."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        forward = engine._forward

        def counting(*args):
            counted.append(args)
            return forward(*args)

        monkeypatch.setattr(engine, "_forward", counting)
        monkeypatch.setattr(singleshot, "_forward", counting)
        return counted

    def case(self):
        prot = degenerate_thermalize_protocol(p_swap=0.5)
        rho0 = DiagonalState(np.array([0.7, 0.3]))
        return rho0, prot, LevelPartition(in_set=frozenset({0}), d=2)

    def test_build_tilde_scenario(self, calls):
        build_tilde_scenario(*self.case())
        assert len(calls) == 1

    def test_main_equality_report(self, calls):
        main_equality_report(*self.case())
        assert len(calls) == 3

    def test_work_tail_equality_report(self, calls):
        work_tail_equality_report(*self.case(), 0.1)
        assert len(calls) == 2


class TestMainEquality:
    def test_degenerate_two_level(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        rep = main_equality_report(rho0, prot, part)
        assert rep.w0_in == pytest.approx(0.0, abs=1e-12)
        assert rep.d_infinity_term == pytest.approx(math.log(1.8), abs=1e-12)
        assert rep.optimum_term == pytest.approx(math.log(1.8), abs=1e-12)
        assert rep.residual <= 1e-12
        assert rep.mild_assumption_ok

    def test_zero_occupation_gives_support_entropy(self):
        # rho0 = pure state on level 0 of two degenerate levels: the optimum
        # term becomes log(d) - max_entropy(rho0) = log 2.
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([1.0, 0.0]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        rep = main_equality_report(rho0, prot, part)
        expected = math.log(2) - max_entropy(rho0)
        assert rep.optimum_term == pytest.approx(expected, abs=1e-12)
        assert rep.residual <= 1e-12

    def test_random_protocols(self):
        from tests_support import random_protocol

        rng = np.random.default_rng(23)
        checked = 0
        while checked < 25:
            d = int(rng.integers(2, 4))
            prot = random_protocol(rng, d, int(rng.integers(1, 4)), 1.0)
            rho0 = DiagonalState(rng.dirichlet(np.ones(d)))
            n_in = int(rng.integers(1, d + 1))
            part = LevelPartition(in_set=frozenset(range(n_in)), d=d)
            rep = main_equality_report(rho0, prot, part)
            if not rep.mild_assumption_ok:
                continue
            assert rep.residual <= 1e-10
            checked += 1


class TestWorkTailEquality:
    def test_matches_main_at_eps_zero(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0, 1}), d=2)
        main = main_equality_report(rho0, prot, part)
        tail = work_tail_equality_report(rho0, prot, part, 0.0)
        assert tail.w0_in == pytest.approx(main.w0_in)
        assert tail.residual <= 1e-12
        assert tail.log1meps_term == pytest.approx(0.0, abs=1e-12)

    def test_random_protocols_with_tail(self):
        from tests_support import random_protocol

        rng = np.random.default_rng(77)
        checked = 0
        while checked < 20:
            d = int(rng.integers(2, 4))
            prot = random_protocol(rng, d, int(rng.integers(1, 4)), 1.0)
            rho0 = DiagonalState(rng.dirichlet(np.ones(d)))
            part = LevelPartition(in_set=frozenset(range(d)), d=d)
            for eps in (0.1, 0.3):
                rep = work_tail_equality_report(rho0, prot, part, eps)
                if not rep.mild_assumption_ok:
                    continue
                assert rep.residual <= 1e-10
                # the realized retained mass is at least 1 - eps
                assert rep.log1meps_term >= math.log(1 - eps) - 1e-12
                checked += 1

    def test_eps_validated(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        with pytest.raises(InvalidInputError):
            work_tail_equality_report(rho0, prot, part, 1.0)


class TestFailureProbabilityBound:
    def test_out_of_set_probability_bounded(self):
        from tests_support import random_protocol

        rng = np.random.default_rng(3)
        for _ in range(30):
            d = int(rng.integers(2, 4))
            prot = random_protocol(rng, d, int(rng.integers(1, 4)), 1.0)
            rho0 = DiagonalState(rng.dirichlet(np.ones(d)))
            n_in = int(rng.integers(1, d + 1))
            part = LevelPartition(in_set=frozenset(range(n_in)), d=d)
            for eps in (0.0, 0.2):
                rep = work_tail_equality_report(rho0, prot, part, eps)
                p_fail = out_of_set_probability(rho0, prot, part, rep.w0_in)
                assert p_fail <= rep.tail_bound + 1e-10

    def test_manual_value(self):
        prot = degenerate_thermalize_protocol()
        rho0 = DiagonalState(np.array([0.9, 0.1]))
        part = LevelPartition(in_set=frozenset({0}), d=2)
        # all work values are zero; failure = starting on the excluded level
        assert out_of_set_probability(rho0, prot, part, 0.0) == pytest.approx(0.1)


class TestMarkovBound:
    def test_bounds_d_infinity_for_nonnegative_work(self):
        # lift protocol: work is 0 or delta >= 0, thermal start
        l0 = EnergyLandscape(np.zeros(2))
        l1 = EnergyLandscape(np.array([0.0, 1.5]))
        prot = Protocol(
            initial=l0,
            beta=1.0,
            steps=(
                HamiltonianChange(target=l1, jump=np.eye(2)),
                Thermalization(hop=partial_swap_hop_matrix(l1, 1.0, 1.0)),
            ),
        )
        rho0, z0 = make_thermal_state(l0, 1.0)
        dist = work_distribution(prot, rho0)
        mean_w = float(np.dot(dist.works, dist.probs))
        _, z_f = make_thermal_state(l1, 1.0)
        eps = 0.25
        bound = markov_d_infinity_bound(mean_w, eps, 1.0, math.log(z0 / z_f))
        part = LevelPartition(in_set=frozenset({0, 1}), d=2)
        rep = work_tail_equality_report(rho0, prot, part, eps)
        assert rep.d_infinity_term <= bound + 1e-10

    def test_negative_mean_rejected(self):
        with pytest.raises(InvalidInputError):
            markov_d_infinity_bound(-0.1, 0.5, 1.0, 0.0)

    def test_eps_range(self):
        with pytest.raises(InvalidInputError):
            markov_d_infinity_bound(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(InvalidInputError):
            markov_d_infinity_bound(1.0, 1.0, 1.0, 0.0)


class TestPairingAtTheBinTolerance:
    """Forward works w and reverse works -w that lie about the bin tolerance
    apart pair alike in the Crooks residual, D_inf and the tail cut."""

    @settings(max_examples=250, deadline=None)
    @given(case=planted_gap_protocols())
    def test_relations_hold_across_planted_gaps(self, case):
        prot, occupations, in_set = case
        gamma0, z0 = make_thermal_state(prot.initial, 1.0)
        gamma_f, zf = make_thermal_state(prot.final_landscape, 1.0)
        fwd = work_distribution(prot, gamma0, 0.0)
        rev = work_distribution(reverse_protocol(prot), gamma_f, 0.0)
        assert crooks_residual(fwd, rev, z0, zf, 1.0) < 1e-8
        rho0 = DiagonalState(occupations)
        part = LevelPartition(in_set=frozenset(in_set), d=prot.d)
        main = main_equality_report(rho0, prot, part)
        tail = work_tail_equality_report(rho0, prot, part, 0.2)
        event(f"mild assumption holds: {main.mild_assumption_ok}")
        if main.mild_assumption_ok:
            assert main.residual < 1e-8
            assert tail.residual < 1e-8
