"""Tests for the protocol/state data model."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wcwork import (
    DiagonalState,
    EnergyLandscape,
    HamiltonianChange,
    InvalidInputError,
    LevelPartition,
    Protocol,
    Thermalization,
    make_thermal_state,
    partial_swap_hop_matrix,
    reverse_protocol,
    sudden_quench_jump_matrix,
    work_distribution,
)
from wcwork.model import (DB_RTOL, PROB_ATOL, is_column_stochastic,
                          satisfies_detailed_balance)
from tests_support import column_stochastic_oracle, drawn_protocols


def two_level_protocol(delta=1.0, beta=1.0, p_swap=1.0):
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


class TestEnergyLandscape:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            EnergyLandscape(np.array([0.0, np.inf]))
        with pytest.raises(InvalidInputError):
            EnergyLandscape(np.array([0.0, np.nan]))

    def test_energies_read_only(self):
        land = EnergyLandscape(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            land.energies[0] = 5.0


class TestDiagonalState:
    def test_requires_normalization(self):
        with pytest.raises(InvalidInputError):
            DiagonalState(np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            DiagonalState(np.array([1.2, -0.2]))

    def test_support(self):
        rho = DiagonalState(np.array([0.5, 0.0, 0.5]))
        assert rho.support().tolist() == [0, 2]
        rho2 = DiagonalState(np.array([1.0, 1e-300]))
        assert rho2.support().tolist() == [0, 1]


# entries and column-sum offsets at the edges of the column-stochastic check
EDGE_ENTRIES = (math.nan, math.inf, -math.inf, 0.0, -0.0, -PROB_ATOL,
                float(np.nextafter(-PROB_ATOL, -1.0)), float(np.nextafter(-PROB_ATOL, 0.0)))


@st.composite
def near_stochastic(draw):
    """Arrays near the column-stochastic boundary: square matrices whose
    columns sum to 1 up to an offset at, just inside or just past the
    tolerance, with edge entries mixed in; non-square, empty, 1-D and 3-D
    arrays too."""
    shape = draw(st.sampled_from([(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                  (2, 3), (0, 2), (3,), (2, 2, 2)]))
    m = np.array(draw(st.lists(st.floats(0, 1), min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))).reshape(shape)
    if len(shape) == 2 and shape[0] == shape[1] and m.size:
        m = m / np.where(m.sum(axis=0) > 0, m.sum(axis=0), 1.0)
        tol = PROB_ATOL * shape[0]
        for j in range(shape[1]):
            edge = draw(st.sampled_from([0.0, tol, -tol, 2 * tol]))
            m[draw(st.integers(0, shape[0] - 1)), j] += draw(st.sampled_from(
                [edge, float(np.nextafter(edge, np.inf)), float(np.nextafter(edge, -np.inf))]))
    for _ in range(draw(st.integers(0, 2)) if m.size else 0):
        m.flat[draw(st.integers(0, m.size - 1))] = draw(st.sampled_from(EDGE_ENTRIES))
    return m


class TestColumnStochastic:
    @settings(max_examples=400, deadline=None)
    @given(m=near_stochastic())
    def test_same_verdict_as_the_first_form(self, m):
        assert is_column_stochastic(m) is column_stochastic_oracle(m)

    def test_edge_cases(self):
        assert is_column_stochastic(np.zeros((0, 0)))
        assert not is_column_stochastic(np.array([[math.nan]]))
        assert not is_column_stochastic(np.array([[1.0 + PROB_ATOL, 0.0],
                                                  [-2 * PROB_ATOL, 1.0]]))


class TestStepValidation:
    def test_jump_must_be_doubly_stochastic(self):
        tgt = EnergyLandscape(np.zeros(2))
        with pytest.raises(InvalidInputError):
            HamiltonianChange(target=tgt, jump=np.array([[0.9, 0.3], [0.1, 0.7]]))

    def test_hop_must_be_column_stochastic(self):
        with pytest.raises(InvalidInputError):
            Thermalization(hop=np.array([[0.5, 0.5], [0.4, 0.5]]))

    @pytest.mark.parametrize("e0", [0.0, -800.0, 800.0])
    def test_detailed_balance_relative_tolerance(self, e0):
        # M[1,0]/M[0,1] must equal e^{-beta (E_1 - E_0)} = e^{-2} within
        # DB_RTOL relative, at any common offset of the energies
        land = EnergyLandscape(np.array([e0, e0 + 2.0]))
        for rel, ok in ((0.5 * DB_RTOL, True), (-0.5 * DB_RTOL, True),
                        (2 * DB_RTOL, False), (-2 * DB_RTOL, False)):
            up = 0.5 * math.exp(-2.0) * (1 + rel)
            hop = np.array([[1 - up, 0.5], [up, 0.5]])
            assert satisfies_detailed_balance(hop, land, 1.0) is ok

    def test_subnormal_hop_entries(self):
        # p_swap = 1e-310 puts both off-diagonal entries of the library's own
        # hop below the normal range; each widens the tolerance only by its
        # own rounding, so a subnormal pair of the wrong ratio still fails
        land = EnergyLandscape(np.array([0.0, 20.0]))
        hop = partial_swap_hop_matrix(land, 1.0, 1e-310)
        assert 0 < hop[1, 0] < hop[0, 1] < sys.float_info.min
        Protocol(initial=land, beta=1.0, steps=(Thermalization(hop=hop),))
        wrong = np.array([[1.0, 1e-310], [1e-310, 1.0]])
        assert not satisfies_detailed_balance(wrong, land, 1.0)
        with pytest.raises(InvalidInputError, match="detailed balance"):
            Protocol(initial=land, beta=1.0, steps=(Thermalization(hop=wrong),))

    def test_protocol_rejects_detailed_balance_violation(self):
        l0 = EnergyLandscape(np.array([0.0, 1.0]))
        # a hop thermal for the WRONG landscape (degenerate) violates
        # detailed balance against (0, 1)
        bad_hop = np.full((2, 2), 0.5)
        with pytest.raises(InvalidInputError):
            Protocol(initial=l0, beta=1.0, steps=(Thermalization(hop=bad_hop),))

    def test_protocol_rejects_dimension_mismatch(self):
        l0 = EnergyLandscape(np.zeros(2))
        l3 = EnergyLandscape(np.zeros(3))
        with pytest.raises(InvalidInputError):
            Protocol(initial=l0, beta=1.0,
                     steps=(HamiltonianChange(target=l3, jump=np.eye(3)),))


class TestProtocol:
    def test_landscape_sequence(self):
        prot = two_level_protocol(delta=2.0)
        lands = prot.landscapes()
        assert len(lands) == len(prot.steps) + 1
        assert lands[0].energies[1] == 0.0
        assert lands[1].energies[1] == 2.0
        assert prot.final_landscape.energies[1] == 2.0
        assert prot.d == 2


class TestThermalState:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(2, 6)
            e = rng.normal(size=d)
            beta = rng.uniform(0.2, 3.0)
            gamma, z = make_thermal_state(EnergyLandscape(e), beta)
            weights = np.exp(-beta * e)
            assert z == pytest.approx(weights.sum(), rel=1e-12)
            np.testing.assert_allclose(gamma.probs, weights / weights.sum(),
                                       rtol=1e-12)

    def test_shift_invariant_probabilities(self):
        e = np.array([0.0, 1.0, -2.0])
        g1, _ = make_thermal_state(EnergyLandscape(e), 1.3)
        g2, _ = make_thermal_state(EnergyLandscape(e + 700.0), 1.3)
        np.testing.assert_allclose(g1.probs, g2.probs, rtol=1e-12)


class TestPartialSwap:
    def test_full_swap_columns_are_gibbs(self):
        land = EnergyLandscape(np.array([0.0, 1.0, 2.5]))
        gamma, _ = make_thermal_state(land, 0.7)
        hop = partial_swap_hop_matrix(land, 0.7, 1.0)
        for col in range(3):
            np.testing.assert_allclose(hop[:, col], gamma.probs, rtol=1e-12)

    def test_zero_swap_is_identity(self):
        land = EnergyLandscape(np.array([0.0, 1.0]))
        np.testing.assert_allclose(partial_swap_hop_matrix(land, 1.0, 0.0),
                                   np.eye(2))

    def test_detailed_balance(self):
        land = EnergyLandscape(np.array([0.3, -1.2, 2.0]))
        beta = 1.4
        hop = partial_swap_hop_matrix(land, beta, 0.6)
        gamma, _ = make_thermal_state(land, beta)
        for i in range(3):
            for j in range(3):
                lhs = hop[j, i] * gamma.probs[i]
                rhs = hop[i, j] * gamma.probs[j]
                assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_invalid_swap_probability(self):
        land = EnergyLandscape(np.zeros(2))
        with pytest.raises(InvalidInputError):
            partial_swap_hop_matrix(land, 1.0, 1.5)


class TestSuddenQuenchJump:
    def test_theta_zero_is_identity(self):
        np.testing.assert_allclose(sudden_quench_jump_matrix(0.0), np.eye(2),
                                   atol=1e-15)

    def test_theta_quarter_pi_is_uniform(self):
        np.testing.assert_allclose(sudden_quench_jump_matrix(math.pi / 4),
                                   np.full((2, 2), 0.5), atol=1e-15)

    def test_doubly_stochastic_for_any_angle(self):
        for theta in np.linspace(0, math.pi, 9):
            m = sudden_quench_jump_matrix(theta)
            np.testing.assert_allclose(m.sum(axis=0), [1, 1], atol=1e-12)
            np.testing.assert_allclose(m.sum(axis=1), [1, 1], atol=1e-12)


class TestReverseProtocol:
    def test_involution(self):
        prot = two_level_protocol(delta=1.7, beta=0.8, p_swap=0.4)
        back = reverse_protocol(reverse_protocol(prot))
        assert back.beta == prot.beta
        np.testing.assert_allclose(back.initial.energies, prot.initial.energies)
        for s1, s2 in zip(back.steps, prot.steps):
            assert type(s1) is type(s2)
            np.testing.assert_allclose(s1.matrix, s2.matrix, atol=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(prot=drawn_protocols())
    def test_involution_on_drawn_protocols(self, prot):
        back = reverse_protocol(reverse_protocol(prot))
        assert back.beta == prot.beta
        assert back.initial.energies.tobytes() == prot.initial.energies.tobytes()
        assert len(back.steps) == len(prot.steps)
        for s1, s2 in zip(back.steps, prot.steps):
            assert type(s1) is type(s2)
            assert s1.matrix.tobytes() == s2.matrix.tobytes()
            if isinstance(s1, HamiltonianChange):
                assert s1.target.energies.tobytes() == s2.target.energies.tobytes()

    def test_reversed_change_transposes_jump(self):
        l0 = EnergyLandscape(np.zeros(2))
        l1 = EnergyLandscape(np.array([0.0, 1.0]))
        jump = np.array([[0.7, 0.3], [0.3, 0.7]])
        prot = Protocol(initial=l0, beta=1.0,
                        steps=(HamiltonianChange(target=l1, jump=jump),))
        rev = reverse_protocol(prot)
        np.testing.assert_allclose(rev.initial.energies, l1.energies)
        np.testing.assert_allclose(rev.steps[0].jump, jump.T)
        np.testing.assert_allclose(rev.steps[0].target.energies, l0.energies)

    def test_reversed_thermalization_keeps_hop(self):
        prot = two_level_protocol(p_swap=0.3)
        rev = reverse_protocol(prot)
        # the thermalization acts on the same landscape in both directions,
        # so the validated step itself is reused
        assert rev.steps[0] is prot.steps[1]


class TestStepWork:
    """A level change costs the energy after minus the energy before; the
    engine forms these differences inline."""

    def test_change_work_is_energy_difference(self):
        cur = EnergyLandscape(np.array([0.0, 1.0]))
        tgt = EnergyLandscape(np.array([0.5, 3.0]))
        prot = Protocol(initial=cur, beta=1.0,
                        steps=(HamiltonianChange(target=tgt, jump=np.eye(2)),))
        dist = work_distribution(prot, DiagonalState(np.array([0.25, 0.75])))
        assert dist.atoms.tolist() == [[0.5, 0.25], [2.0, 0.75]]

    def test_cross_level_difference(self):
        cur = EnergyLandscape(np.array([0.0, -1.0]))
        tgt = EnergyLandscape(np.array([0.0, 0.0]))
        step = HamiltonianChange(target=tgt, jump=np.full((2, 2), 0.5))
        prot = Protocol(initial=cur, beta=1.0, steps=(step,))
        dist = work_distribution(prot, DiagonalState(np.array([0.0, 1.0])))
        # from level 1 to either level: 0 - (-1)
        assert dist.atoms.tolist() == [[1.0, 1.0]]

    def test_thermalization_costs_no_work(self):
        cur = EnergyLandscape(np.array([0.0, 1.0]))
        step = Thermalization(hop=partial_swap_hop_matrix(cur, 1.0, 0.5))
        prot = Protocol(initial=cur, beta=1.0, steps=(step,))
        dist = work_distribution(prot, DiagonalState(np.array([0.5, 0.5])))
        assert dist.works.tolist() == [0.0]
        assert dist.probs[0] == pytest.approx(1.0, abs=1e-15)


class TestLevelPartition:
    def test_in_out_indices(self):
        part = LevelPartition(in_set=frozenset({0, 2}), d=4)
        assert part.in_indices().tolist() == [0, 2]
        assert part.out_indices().tolist() == [1, 3]
        assert part.out_set == frozenset({1, 3})

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            LevelPartition(in_set=frozenset({5}), d=3)
