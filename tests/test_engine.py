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
    max_work_oracle,
    merge_oracle,
    oracle_atoms,
    paired_runs_oracle,
    partial_swap_chain_protocol,
    random_protocol,
    row_major_forward,
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


def assert_matches_oracle(prot, rho0, in_set=None):
    """The engine against the path walk; with ``in_set``, as the main equality
    report conditions on the retained starts: the recursion from their
    occupations, renormalized and binned."""
    if in_set is None:
        got = work_distribution(prot, rho0).atoms
    else:
        work, prob = engine._forward(prot, engine._masked(rho0, in_set))
        got = bin_works(work, prob / prob.sum()).atoms
    want = np.array(oracle_atoms(prot, rho0, in_set=in_set))
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
        assert_matches_oracle(prot, rho0, in_set=in_set)

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
        gamma0, log_z0 = make_thermal_state(prot.initial, prot.beta)
        gamma_f, log_zf = make_thermal_state(prot.final_landscape, prot.beta)
        fwd = work_distribution(prot, gamma0)
        rev = work_distribution(reverse_protocol(prot), gamma_f)
        z_ratio = math.exp(log_zf - log_z0)
        assert abs(jarzynski_sum(fwd, prot.beta) / z_ratio - 1.0) < 1e-10
        # a log ratio holds 1e-10 only between normal doubles: a subnormal
        # one carries its spacing 2^-1074 as rounding, and a partner below it
        # is 0.  Crooks puts the partner of p at w at p e^(-beta w) Z0/Zf, so
        # the clause is skipped only where that mass or p itself underflows;
        # a partner missing from the reverse distribution still fails it
        if np.all(fwd.probs >= sys.float_info.min):
            partner = np.log(fwd.probs) - prot.beta * fwd.works - (log_zf - log_z0)
            if np.all(partner >= math.log(sys.float_info.min)):
                event("Crooks clause run")
                assert crooks_residual(fwd, rev, log_z0, log_zf, prot.beta) < 1e-10
                return
        event("Crooks clause skipped: a probability underflows")

    def test_electron_box_partial_swap_chain(self):
        # 400 ramp steps, each a partial swap then a level change: 800 steps,
        # 2^801 paths, and one atom per count of excited-level steps
        params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
        n = 400
        prot = partial_swap_chain_protocol(linear_ramp(8.0, 0.0, 48.0), n, params)
        t0 = time.perf_counter()
        gamma0, log_z0 = make_thermal_state(prot.initial, 1.0)
        gamma_f, log_zf = make_thermal_state(prot.final_landscape, 1.0)
        fwd = work_distribution(prot, gamma0)
        rev = work_distribution(reverse_protocol(prot), gamma_f)
        assert len(fwd.atoms) == len(rev.atoms) == n + 1
        assert crooks_residual(fwd, rev, log_z0, log_zf, 1.0) < 1e-12
        assert abs(jarzynski_sum(fwd, 1.0) - math.exp(log_zf - log_z0)) < 1e-12
        assert time.perf_counter() - t0 < 5.0


class TestMergeRule:
    """Works closer than the merge tolerance are merged whatever the bin
    tolerance, also where they arrive in different levels."""

    @pytest.mark.parametrize("start", [[1.0, 0.0], [0.5, 0.5]])
    @pytest.mark.parametrize("n_steps", [200, 800])
    def test_electron_box_chain_at_tolerance_zero(self, n_steps, start):
        # on linear_ramp(8, 0, 24) each level change moves the splitting by
        # one quantum, so a path's work is that quantum times the number of
        # steps it spends excited: n + 1 values.  Paths that reach one value
        # through different levels round it differently in the last bits
        params = EboxParams(gamma0=1.0, eps_c=1.0, beta=1.0)
        prot = partial_swap_chain_protocol(linear_ramp(8.0, 0.0, 24.0), n_steps, params)
        dist = work_distribution(prot, DiagonalState(np.array(start)), 0.0)
        assert len(dist.atoms) == n_steps + 1
        assert np.diff(dist.works).min() > 1e-10


class TestMaxWork:
    @settings(max_examples=200, deadline=None)
    @given(prot=drawn_protocols(), data=st.data())
    def test_matches_path_walk(self, prot, data):
        # drawn jumps mix one to three permutations and swap probabilities
        # may be 0, so most matrices have structural zeros
        starts = sorted(data.draw(st.sets(st.integers(0, prot.d - 1), min_size=1)))
        occupied = np.zeros(prot.d)
        occupied[starts] = data.draw(st.floats(2.0**-1074, 1.0))
        assert engine._max_work(prot, occupied) == max_work_oracle(prot, starts)


class TestStackedMaxWork:
    @settings(max_examples=100, deadline=None)
    @given(prot=drawn_protocols(), data=st.data())
    def test_stack_equals_single_starts(self, prot, data):
        occupation = st.just(0.0) | st.floats(2.0**-1074, 1.0)
        stack = np.array([data.draw(st.lists(occupation, min_size=prot.d,
                                             max_size=prot.d)) for _ in range(2)])
        singles = np.array([engine._max_work(prot, rho0) for rho0 in stack])
        assert engine._max_work(prot, stack).tobytes() == singles.tobytes()


@st.composite
def off_grid_protocols(draw):
    """Protocols at beta = 1 with 2-12 levels and 2-6 steps, with occupations
    of every level.  Every energy is one of three drawn multiples of 1/7, which
    a double holds exactly only at integers, so works recur through different
    levels, differ in their last bits, and merge.  About half the draws start with a thermalization, which acts on
    the start's single work."""
    d = draw(st.integers(2, 12))
    pool = draw(st.lists(st.integers(-21, 21).map(lambda k: k / 7.0), min_size=3,
                         max_size=3))
    landscapes = st.lists(st.sampled_from(pool), min_size=d, max_size=d).map(
        lambda e: EnergyLandscape(np.array(e)))
    land = draw(landscapes)
    steps, current = [], land
    for change in draw(st.lists(st.booleans(), min_size=2, max_size=6)):
        if change:
            perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
            weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(perms),
                                             max_size=len(perms))))
            jump = sum(w * np.eye(d)[list(q)] for w, q in zip(weights / weights.sum(), perms))
            current = draw(landscapes)
            steps.append(HamiltonianChange(target=current, jump=jump))
        else:
            p_swap = draw(st.floats(0.05, 1.0))
            steps.append(Thermalization(hop=partial_swap_hop_matrix(current, 1.0, p_swap)))
    occupations = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d)))
    return Protocol(initial=land, beta=1.0, steps=tuple(steps)), occupations / occupations.sum()


class TestLevelMajorTable:
    @settings(max_examples=200, deadline=None)
    @given(case=off_grid_protocols())
    def test_matches_the_row_major_recursion_bit_for_bit(self, case):
        got, want = engine._forward(*case), row_major_forward(*case)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


# powers of two, so that works on the grid m * tol lie exactly tol apart
MERGE_TOLERANCES = (2.0**-33, 2.0**-30, 0.25)


@st.composite
def merge_inputs(draw):
    """Entries for ``engine._merge``: works on a grid of the tolerance with
    one-ulp nudges (gaps exactly at and just past it) or anywhere, repeated
    works, and probabilities that may be zero."""
    tol = draw(st.sampled_from(MERGE_TOLERANCES))
    n = draw(st.integers(1, 40))
    on_grid = st.builds(lambda m, nudge: float(np.nextafter(m * tol, nudge * np.inf))
                        if nudge else m * tol,
                        st.integers(-6, 6), st.sampled_from((0, 1, -1)))
    works = draw(st.lists(on_grid | st.floats(-3, 3), min_size=1, max_size=8))
    work = draw(st.lists(st.sampled_from(works), min_size=n, max_size=n))
    prob = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0), min_size=n, max_size=n))
    return np.array(work), np.array(prob), tol


class TestMergeMatchesOracle:
    @staticmethod
    def assert_bitwise_equal(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (a, b)

    @settings(max_examples=300, deadline=None)
    @given(entries=merge_inputs())
    def test_drawn_entries(self, entries):
        self.assert_bitwise_equal(engine._merge(*entries), merge_oracle(*entries))

    def test_single_entry_and_signed_zero(self):
        for work in (0.25, -0.0):
            entries = (np.array([work]), np.array([0.5]), 1e-10)
            self.assert_bitwise_equal(engine._merge(*entries), merge_oracle(*entries))


# gaps along a chain of works: ties, just inside and just outside the 1e-9
# bin tolerance (by more than an ulp at |w| <= 4), and well apart
PAIR_GAPS = (0.0, 1e-9 - 2e-15, 1e-9, 1e-9 + 2e-15, 0.25)


@st.composite
def paired_inputs(draw):
    """Forward and reverse distributions for ``engine._paired_runs``: both
    draw their works from chains of points whose gaps lie at the bin
    tolerance, the reverse side negated, so forward and negated reverse works
    tie exactly; each point may serve the forward side, the reverse side or
    both, and up to 30 atoms a side make runs of more than 8 entries."""
    start = draw(st.integers(-8, 8)) / 4.0
    gaps = draw(st.lists(st.sampled_from(PAIR_GAPS), max_size=11))
    points = np.cumsum([start] + gaps).tolist()
    sides = [3] + draw(st.lists(st.integers(1, 3), min_size=len(gaps),
                                max_size=len(gaps)))  # 1 forward, 2 reverse, 3 both

    def side(bit, sign):
        pool = [sign * x for x, s in zip(points, sides) if s & bit]
        works = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30)))
        probs = draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                              min_size=len(works), max_size=len(works)))
        return WorkDistribution(np.column_stack([works, probs]))

    return side(1, 1.0), side(2, -1.0)


class TestPairingMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(pair=paired_inputs())
    def test_drawn_pairs(self, pair):
        TestMergeMatchesOracle.assert_bitwise_equal(engine._paired_runs(*pair),
                                                    paired_runs_oracle(*pair))


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
        assert dist.atoms.tolist() == [[0.0, pytest.approx(0.9)],
                                       [1.0, pytest.approx(0.1)]]

    def test_conditioned_start_is_the_renormalized_state(self):
        # conditioning on level 1 of [0.5, 0.5] is the state [0, 1]
        prot = lift_protocol(delta=3.0)
        dist = work_distribution(prot, DiagonalState(np.array([0.0, 1.0])))
        assert dist.atoms.tolist() == [[3.0, pytest.approx(1.0)]]

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
            gamma0, log_z0 = make_thermal_state(prot.initial, beta)
            gammaf, log_zf = make_thermal_state(prot.final_landscape, beta)
            fwd = work_distribution(prot, gamma0)
            rev = work_distribution(reverse_protocol(prot), gammaf)
            resid = crooks_residual(fwd, rev, log_z0, log_zf, beta)
            assert np.max(np.abs(resid)) < 1e-10

    def test_jarzynski_matches_partition_ratio(self):
        rng = np.random.default_rng(23)
        beta = 1.3
        prot = random_protocol(rng, 3, 4, beta)
        gamma0, log_z0 = make_thermal_state(prot.initial, beta)
        _, log_zf = make_thermal_state(prot.final_landscape, beta)
        fwd = work_distribution(prot, gamma0)
        assert jarzynski_sum(fwd, beta) == pytest.approx(math.exp(log_zf - log_z0),
                                                         rel=1e-12)

    def test_support_mismatch_raises(self):
        fwd = WorkDistribution(atoms=((0.0, 0.5), (1.0, 0.5)))
        rev = WorkDistribution(atoms=((0.0, 1.0),))  # no atom at -1
        with pytest.raises(SupportMismatchError):
            crooks_residual(fwd, rev, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("z0,zf", [(math.inf, 1.0), (1.0, math.inf),
                                       (math.inf, math.inf), (1.0, 0.0),
                                       (0.0, 0.0), (0.0, 1.0)])
    def test_partition_ratio_out_of_range_raises(self, z0, zf):
        # the log partition functions of a Z that left the double range
        dist = WorkDistribution(atoms=((0.0, 1.0),))
        with np.errstate(divide="ignore"):
            log_z0, log_zf = np.log([z0, zf]).tolist()
        with pytest.raises(NumericError, match="log Zf - log Z0"):
            crooks_residual(dist, dist, log_z0, log_zf, 1.0)


class TestVariationDistance:
    def test_known_values(self):
        assert variation_distance([1, 0], [0, 1]) == pytest.approx(1.0)
        assert variation_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert variation_distance([0.9, 0.1], [0.5, 0.5]) == pytest.approx(0.4)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            variation_distance([1.0], [0.5, 0.5])
