"""Tests for the exact work recursion and work-distribution utilities."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wcwork import (
    DiagonalState,
    EboxParams,
    EnergyLandscape,
    HamiltonianChange,
    InvalidInputError,
    NumericError,
    Protocol,
    ResourceLimitError,
    SupportMismatchError,
    Thermalization,
    WorkDistribution,
    bin_works,
    crooks_residual,
    engine,
    epsilon_guaranteed_work,
    jarzynski_sum,
    linear_ramp,
    make_thermal_state,
    partial_swap_hop_matrix,
    reverse_protocol,
    variation_distance,
    work_distribution,
    worst_case_work,
)
from tests_support import (
    drawn_protocols,
    enumerate_paths,
    merge_oracle,
    oracle_atoms,
    partial_swap_chain_protocol,
    random_protocol,
    trajectory_work,
)


def lift_protocol(delta=1.0, beta=1.0, p_swap=1.0):
    """Raise level 1 by delta from degeneracy, then thermalize."""
    l0 = EnergyLandscape(np.zeros(2))
    l1 = EnergyLandscape(np.array([0.0, delta]))
    return Protocol(
        initial=l0,
        beta=beta,
        steps=(
            HamiltonianChange(target=l1, jump=np.eye(2)),
            Thermalization(hop=partial_swap_hop_matrix(l1, beta, p_swap)),
        ),
    )


def never_recurring_protocol(d, n_changes):
    """Level changes to unrelated energies with dense jumps, each followed by
    a partial thermalization, so that works never recur and live entries
    grow with every step."""
    rng = np.random.default_rng(11)
    jump = np.full((d, d), 1.0 / d)
    steps = []
    for _ in range(n_changes):
        land = EnergyLandscape(rng.normal(size=d))
        steps.append(HamiltonianChange(target=land, jump=jump))
        steps.append(Thermalization(hop=partial_swap_hop_matrix(land, 1.0, 0.5)))
    return Protocol(initial=EnergyLandscape(np.zeros(d)), beta=1.0,
                    steps=tuple(steps))


def assert_matches_oracle(prot, rho0, restrict_start=None):
    got = work_distribution(prot, rho0, restrict_start=restrict_start).atoms
    want = np.array(oracle_atoms(prot, rho0, restrict_start=restrict_start))
    assert got.shape == want.shape
    assert np.max(np.abs(got[:, 0] - want[:, 0])) <= 1e-9
    assert np.max(np.abs(got[:, 1] - want[:, 1])) <= 1e-12


class TestEnumeration:
    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prot = random_protocol(rng, int(rng.integers(2, 5)),
                                   int(rng.integers(1, 5)),
                                   float(rng.uniform(0.5, 2.0)))
            rho0 = DiagonalState(rng.dirichlet(np.ones(prot.d)))
            dist = work_distribution(prot, rho0)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_work_matches_manual(self):
        prot = lift_protocol(delta=2.0)
        rho0 = DiagonalState(np.array([0.25, 0.75]))
        nodes, works, _ = enumerate_paths(prot, rho0)
        for path, w in zip(nodes, works):
            expect = 2.0 if path[1] == 1 else 0.0
            assert w == pytest.approx(expect)
            assert trajectory_work(prot, path) == pytest.approx(w)
        dist = work_distribution(prot, rho0)
        np.testing.assert_allclose(dist.atoms, [[0.0, 0.25], [2.0, 0.75]],
                                   rtol=0, atol=1e-15)

    def test_resource_cap(self, monkeypatch):
        # three levels: 441 live entries x 3 > 1000 before the sixth step
        monkeypatch.setattr(engine, "LIVE_ENTRY_CAP", 1000)
        rho0 = DiagonalState(np.full(3, 1 / 3))
        with pytest.raises(ResourceLimitError):
            work_distribution(never_recurring_protocol(3, 3), rho0)
        assert len(work_distribution(never_recurring_protocol(3, 2), rho0).atoms) == 21

    def test_recurring_works_stay_small(self):
        # 4^14 paths, all of work 0: the recursion keeps 16 live entries
        land = EnergyLandscape(np.zeros(4))
        hop = partial_swap_hop_matrix(land, 1.0, 0.5)
        steps = tuple(Thermalization(hop=hop) for _ in range(13))
        prot = Protocol(initial=land, beta=1.0, steps=steps)
        dist = work_distribution(prot, DiagonalState(np.full(4, 0.25)))
        assert dist.atoms.tolist() == [[0.0, pytest.approx(1.0, abs=1e-15)]]


class TestRecursionMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4),
           n_steps=st.integers(1, 6), gibbs=st.booleans())
    def test_drawn_protocols(self, seed, d, n_steps, gibbs):
        rng = np.random.default_rng(seed)
        prot = random_protocol(rng, d, n_steps, float(rng.uniform(0.5, 2.0)))
        if gibbs:
            rho0, _ = make_thermal_state(prot.initial, prot.beta)
        else:
            rho0 = DiagonalState(rng.dirichlet(np.ones(d)))
        assert_matches_oracle(prot, rho0)
        in_set = rng.permutation(d)[: int(rng.integers(1, d + 1))]
        assert_matches_oracle(prot, rho0, restrict_start=in_set)

    @pytest.mark.parametrize("seed,max_steps", [(2024, 7), (31, 5), (41, 5)])
    def test_acceptance_shapes(self, seed, max_steps):
        # the protocol generators of acceptance criteria 2, 3 and 4
        rng = np.random.default_rng(seed)
        for _ in range(40):
            d = int(rng.integers(2, 5))
            prot = random_protocol(rng, d, int(rng.integers(1, max_steps)), 1.0)
            gamma0, _ = make_thermal_state(prot.initial, prot.beta)
            assert_matches_oracle(prot, gamma0)
            assert_matches_oracle(prot, DiagonalState(rng.dirichlet(np.ones(d))))
            gamma_f, _ = make_thermal_state(prot.final_landscape, prot.beta)
            assert_matches_oracle(reverse_protocol(prot), gamma_f)

    @settings(max_examples=250, deadline=None)
    @given(prot=drawn_protocols())
    def test_fluctuation_theorems_from_gibbs_on_drawn_protocols(self, prot):
        # Zf/Z0 reaches e^+-80 at +-20 kT, so the Jarzynski sum is compared
        # relative to it
        gamma0, z0 = make_thermal_state(prot.initial, prot.beta)
        gamma_f, zf = make_thermal_state(prot.final_landscape, prot.beta)
        fwd = work_distribution(prot, gamma0)
        rev = work_distribution(reverse_protocol(prot), gamma_f)
        assert abs(jarzynski_sum(fwd, prot.beta) / (zf / z0) - 1.0) < 1e-10
        # a log ratio holds 1e-10 only between normal doubles: a subnormal
        # one carries its spacing 2^-1074 as rounding, and a partner below it
        # is 0.  Crooks puts the partner of p at w at p e^(-beta w) Z0/Zf, so
        # the clause is skipped only where that mass or p itself underflows;
        # a partner missing from the reverse distribution still fails it
        if np.all(fwd.probs >= sys.float_info.min):
            partner = np.log(fwd.probs) - prot.beta * fwd.works - math.log(zf / z0)
            if np.all(partner >= math.log(sys.float_info.min)):
                event("Crooks clause run")
                assert crooks_residual(fwd, rev, z0, zf, prot.beta) < 1e-10
                return
        event("Crooks clause skipped: a probability underflows")

    def test_electron_box_partial_swap_chain(self):
        # 400 ramp steps, each a partial swap then a level change: 800 steps,
        # 2^801 paths, and one atom per count of excited-level steps
        params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
        n = 400
        prot = partial_swap_chain_protocol(linear_ramp(8.0, 0.0, 48.0), n, params)
        t0 = time.perf_counter()
        gamma0, z0 = make_thermal_state(prot.initial, 1.0)
        gamma_f, zf = make_thermal_state(prot.final_landscape, 1.0)
        fwd = work_distribution(prot, gamma0)
        rev = work_distribution(reverse_protocol(prot), gamma_f)
        assert len(fwd.atoms) == len(rev.atoms) == n + 1
        assert crooks_residual(fwd, rev, z0, zf, 1.0) < 1e-12
        assert abs(jarzynski_sum(fwd, 1.0) - zf / z0) < 1e-12
        assert time.perf_counter() - t0 < 5.0


# powers of two, so that works on the grid m * tol lie exactly tol apart
MERGE_TOLERANCES = (2.0**-33, 2.0**-30, 0.25)


@st.composite
def merge_inputs(draw):
    """Entries for ``engine._merge``: few keys, works on a grid of the
    tolerance with one-ulp nudges (gaps exactly at and just past it) or
    anywhere, repeated works, and probabilities that may be zero."""
    tol = draw(st.sampled_from(MERGE_TOLERANCES))
    n = draw(st.integers(1, 40))
    on_grid = st.builds(lambda m, nudge: float(np.nextafter(m * tol, nudge * np.inf))
                        if nudge else m * tol,
                        st.integers(-6, 6), st.sampled_from((0, 1, -1)))
    works = draw(st.lists(on_grid | st.floats(-3, 3), min_size=1, max_size=8))
    work = draw(st.lists(st.sampled_from(works), min_size=n, max_size=n))
    prob = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    key = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return np.array(key), np.array(work), np.array(prob), tol


class TestMergeMatchesOracle:
    @staticmethod
    def assert_bitwise_equal(got, want):
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(entries=merge_inputs())
    def test_drawn_entries(self, entries):
        self.assert_bitwise_equal(engine._merge(*entries), merge_oracle(*entries))

    def test_single_entry_and_signed_zero(self):
        for work in (0.25, -0.0):
            entries = (np.array([2]), np.array([work]), np.array([0.5]), 1e-10)
            self.assert_bitwise_equal(engine._merge(*entries), merge_oracle(*entries))


class TestBinning:
    def test_clusters_within_tolerance(self):
        works = np.array([1.0, 1.0 + 4e-10, 0.0, 5.0])
        probs = np.array([0.2, 0.3, 0.4, 0.1])
        dist = bin_works(works, probs, 1e-9)
        assert len(dist.works) == 3
        assert dist.probs[1] == pytest.approx(0.5)
        # merged atom sits at the probability-weighted mean
        assert dist.works[1] == pytest.approx((0.2 * 1.0 + 0.3 * (1.0 + 4e-10)) / 0.5)

    def test_distinct_atoms_survive(self):
        dist = bin_works(np.array([0.0, 1e-6]), np.array([0.5, 0.5]), 1e-9)
        assert len(dist.works) == 2

    def test_zero_mass_atom_keeps_its_work(self):
        # a run of zero mass has no weighted mean: it stays at its first work
        dist = bin_works(np.array([1.0, 3.0, 3.0 + 1e-12]), np.array([0.0, 0.5, 0.0]))
        assert dist.atoms.tolist() == [[1.0, 0.0], [3.0, 0.5]]


class TestWorkDistribution:
    def test_atoms_sorted_and_normalized(self):
        prot = lift_protocol()
        dist = work_distribution(prot, DiagonalState(np.array([0.9, 0.1])))
        assert list(dist.works) == sorted(dist.works)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert dist.prob_at(0.0) == pytest.approx(0.9)
        assert dist.prob_at(1.0) == pytest.approx(0.1)

    def test_restrict_start_renormalizes(self):
        prot = lift_protocol(delta=3.0)
        rho0 = DiagonalState(np.array([0.5, 0.5]))
        dist = work_distribution(prot, rho0, restrict_start=np.array([1]))
        assert dist.prob_at(3.0) == pytest.approx(1.0)


    def test_lookup_within_tolerance(self):
        dist = WorkDistribution(atoms=((0.0, 0.25), (1.0, 0.75)))
        assert dist.prob_at(1.0 + 5e-10) == 0.75
        assert dist.prob_at(-5e-10) == 0.25
        assert dist.prob_at(0.5) is None
        assert dist.prob_at(2.0) is None
        assert dist.prob_at(-1.0) is None
        assert dist.prob_at(1.0) == 0.75
        assert dist.prob_at(0.5) is None

    def test_unsorted_atoms_rejected(self):
        with pytest.raises(InvalidInputError):
            WorkDistribution(atoms=((1.0, 0.5), (0.0, 0.5)))


class TestWorstCase:
    def test_worst_case_is_support_max(self):
        dist = WorkDistribution(atoms=((0.0, 0.5), (2.0, 0.5)))
        assert worst_case_work(dist) == pytest.approx(2.0)

    def test_single_atom(self):
        dist = WorkDistribution(atoms=((0.0, 1.0),))
        assert worst_case_work(dist) == 0.0


class TestEpsilonGuaranteed:
    def test_uniform_three_atoms(self):
        dist = WorkDistribution(atoms=((0.0, 1 / 3), (1.0, 1 / 3), (2.0, 1 / 3)))
        w_eps, cut = epsilon_guaranteed_work(dist, 1 / 3)
        assert w_eps == pytest.approx(1.0)
        assert cut.probs.sum() == pytest.approx(1.0)
        assert max(cut.works) == pytest.approx(1.0)

    def test_eps_zero_is_worst_case(self):
        dist = WorkDistribution(atoms=((0.0, 0.9), (1.0, 0.1)))
        w_eps, cut = epsilon_guaranteed_work(dist, 0.0)
        assert w_eps == worst_case_work(dist)
        assert np.array_equal(cut.atoms, dist.atoms)

    def test_cut_removes_tail_atom(self):
        dist = WorkDistribution(atoms=((0.0, 0.9), (1.0, 0.1)))
        w_eps, cut = epsilon_guaranteed_work(dist, 0.1)
        assert w_eps == 0.0
        assert cut.atoms.tolist() == [[0.0, 1.0]]

    def test_eps_out_of_range(self):
        dist = WorkDistribution(atoms=((0.0, 1.0),))
        with pytest.raises(InvalidInputError):
            epsilon_guaranteed_work(dist, 1.0)


class TestFluctuationRelations:
    def test_crooks_exact_on_random_thermal_protocols(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            beta = float(rng.uniform(0.5, 2.0))
            prot = random_protocol(rng, int(rng.integers(2, 5)),
                                   int(rng.integers(1, 6)), beta)
            gamma0, z0 = make_thermal_state(prot.initial, beta)
            gammaf, zf = make_thermal_state(prot.final_landscape, beta)
            fwd = work_distribution(prot, gamma0)
            rev = work_distribution(reverse_protocol(prot), gammaf)
            resid = crooks_residual(fwd, rev, z0, zf, beta)
            assert np.max(np.abs(resid)) < 1e-10

    def test_jarzynski_matches_partition_ratio(self):
        rng = np.random.default_rng(23)
        beta = 1.3
        prot = random_protocol(rng, 3, 4, beta)
        gamma0, z0 = make_thermal_state(prot.initial, beta)
        _, zf = make_thermal_state(prot.final_landscape, beta)
        fwd = work_distribution(prot, gamma0)
        assert jarzynski_sum(fwd, beta) == pytest.approx(zf / z0, rel=1e-12)

    def test_support_mismatch_raises(self):
        fwd = WorkDistribution(atoms=((0.0, 0.5), (1.0, 0.5)))
        rev = WorkDistribution(atoms=((0.0, 1.0),))  # no atom at -1
        with pytest.raises(SupportMismatchError):
            crooks_residual(fwd, rev, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("z0,zf", [(math.inf, 1.0), (1.0, math.inf),
                                       (math.inf, math.inf), (1.0, 0.0),
                                       (0.0, 0.0), (0.0, 1.0)])
    def test_partition_ratio_out_of_range_raises(self, z0, zf):
        dist = WorkDistribution(atoms=((0.0, 1.0),))
        with pytest.raises(NumericError, match="Zf/Z0"):
            crooks_residual(dist, dist, z0, zf, 1.0)


class TestVariationDistance:
    def test_known_values(self):
        assert variation_distance([1, 0], [0, 1]) == pytest.approx(1.0)
        assert variation_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert variation_distance([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.4)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            variation_distance([1.0], [0.5, 0.5])
