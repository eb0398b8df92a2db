import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.circuits import (
    ControlSpec,
    StrategyParams,
    bayesian_payoffs_circuit,
    bayesian_payoffs_full_circuit,
    bayesian_payoffs_mixture,
    control_for_probability,
    entangler,
    evolve_bayesian_circuit,
    evolve_two_player,
    no_signaling_check,
    payoff_expectation,
    strategy_unitary,
)
from qgame.games import builtin_bayesian, builtin_da, builtin_pd
from qgame.linalg import is_unitary
from qgame.strategies import DEFAULT_GRID, enumerate_strategies

PI = math.pi

angles = st.floats(min_value=0.0, max_value=PI, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * PI - 1e-9, allow_nan=False)

C_LIKE = StrategyParams(0.0)
D_LIKE = StrategyParams(PI, 0.0, 0.0)
D_LIKE_X = StrategyParams(PI, 0.0, PI / 2)


class TestStrategyUnitary:
    def test_identity_at_theta_zero(self):
        assert np.allclose(strategy_unitary(StrategyParams(0.0, 0.0, 1.0)), np.eye(2))

    def test_defect_like(self):
        assert np.allclose(strategy_unitary(D_LIKE), [[0, 1], [-1, 0]])

    def test_defect_like_with_quarter_phase(self):
        assert np.allclose(strategy_unitary(D_LIKE_X), [[0, 1j], [1j, 0]])

    def test_range_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(-0.1)
        with pytest.raises(ValueError):
            StrategyParams(1.0, 7.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(angles, phases, phases)
    def test_unitary_everywhere(self, theta, phi, alpha):
        u = strategy_unitary(StrategyParams(theta, phi, alpha))
        assert is_unitary(u, 1e-14)


class TestEntangler:
    def test_no_entanglement_at_zero(self):
        assert np.array_equal(entangler(0.0), np.eye(4))

    def test_bell_state_at_max(self):
        psi = entangler(PI / 2) @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, 0, 0, 1j]) / math.sqrt(2)
        assert np.max(np.abs(psi - expected)) < 1e-15

    def test_diagonal_value(self):
        j = entangler(PI / 3)
        assert np.allclose(np.diag(j), math.sqrt(3) / 2)

    def test_unitary(self):
        for gamma in (0.0, 0.4, 1.3, PI / 2):
            assert is_unitary(entangler(gamma), 1e-14)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            entangler(-0.1)
        with pytest.raises(ValueError):
            entangler(2.0)


class TestEvolveTwoPlayer:
    @pytest.mark.parametrize("gamma", [0.0, 0.7, PI / 2])
    def test_identity_strategies_recover_initial_state(self, gamma):
        psi = evolve_two_player(gamma, C_LIKE, C_LIKE)
        assert np.max(np.abs(psi - [1, 0, 0, 0])) < 1e-12

    def test_both_defect_unentangled(self):
        psi = evolve_two_player(0.0, D_LIKE, D_LIKE)
        # |11> up to a global phase
        assert abs(abs(psi[3]) - 1.0) < 1e-12
        assert np.max(np.abs(psi[:3])) < 1e-12

    def test_frozen_amplitudes_against_explicit_chain(self):
        # Independent oracle: the 4x4 matrix chain written out by hand.
        c, s = math.cos(0.5), math.sin(0.5)
        j = np.array(
            [
                [c, 0, 0, 1j * s],
                [0, c, -1j * s, 0],
                [0, -1j * s, c, 0],
                [1j * s, 0, 0, c],
            ]
        )
        ua = np.array([[0, 1], [-1, 0]], dtype=complex)
        ub = np.array([[0, 1j], [1j, 0]])
        expected = j.conj().T @ np.kron(ua, ub) @ j @ np.array([1, 0, 0, 0])
        psi = evolve_two_player(1.0, D_LIKE, D_LIKE_X)
        assert np.max(np.abs(psi - expected)) < 1e-14
        frozen = np.array([-0.8414709848078965, 0.0, 0.0, -0.5403023058681398j])
        assert np.max(np.abs(psi - frozen)) < 1e-12

    def test_unentangled_probabilities_factor(self):
        ua = StrategyParams(1.1, 0.3, 2.2)
        ub = StrategyParams(2.0, 4.0, 0.7)
        psi = evolve_two_player(0.0, ua, ub)
        probs = np.abs(psi) ** 2
        pa = np.abs(strategy_unitary(ua) @ [1, 0]) ** 2
        pb = np.abs(strategy_unitary(ub) @ [1, 0]) ** 2
        for a, b in product(range(2), repeat=2):
            assert abs(probs[2 * a + b] - pa[a] * pb[b]) < 1e-12


class TestPayoffExpectation:
    def test_pure_cooperate_outcome(self):
        assert payoff_expectation([1, 0, 0, 0], (11, 1, 10, 6)) == 11

    def test_pure_defect_outcome(self):
        assert payoff_expectation([0, 0, 0, 1], (9, 6, 1, 0)) == 0

    def test_uniform_superposition(self):
        psi = np.full(4, 0.5)
        assert payoff_expectation(psi, (11, 1, 10, 6)) == pytest.approx(7.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            payoff_expectation([1, 0], (1, 2, 3, 4))

    @settings(max_examples=30, deadline=None)
    @given(angles, phases, phases, angles, phases, phases)
    def test_payoff_bounds(self, t1, p1, a1, t2, p2, a2):
        psi = evolve_two_player(0.9, StrategyParams(t1, p1, a1), StrategyParams(t2, p2, a2))
        vec = (9, 10, 1, 6)
        value = payoff_expectation(psi, vec)
        assert min(vec) - 1e-12 <= value <= max(vec) + 1e-12


class TestMixture:
    def test_p_one_is_pure_pd_subgame(self):
        game = builtin_bayesian()
        pa, pb1, _ = bayesian_payoffs_mixture(1.0, 0.8, D_LIKE, D_LIKE_X, C_LIKE, game)
        psi = evolve_two_player(0.8, D_LIKE, D_LIKE_X)
        assert pa == pytest.approx(payoff_expectation(psi, game.subgame_b1.payoff_a), abs=1e-12)
        assert pb1 == pytest.approx(payoff_expectation(psi, game.subgame_b1.payoff_b), abs=1e-12)

    def test_half_weight_classical(self):
        game = builtin_bayesian()
        pa, pb1, pb2 = bayesian_payoffs_mixture(0.5, 0.0, D_LIKE, D_LIKE, C_LIKE, game)
        assert pa == pytest.approx(0.5 * 6 + 0.5 * 10, abs=1e-12)
        assert pb1 == pytest.approx(6, abs=1e-12)
        assert pb2 == pytest.approx(1, abs=1e-12)

    def test_classical_ne_point(self):
        game = builtin_bayesian()
        pa, pb1, pb2 = bayesian_payoffs_mixture(0.1, 0.0, C_LIKE, D_LIKE, C_LIKE, game)
        assert (pa, pb1, pb2) == pytest.approx((10.0, 10.0, 9.0), abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="p must lie"):
            bayesian_payoffs_mixture(1.2, 0.0, C_LIKE, C_LIKE, C_LIKE, builtin_bayesian())

    def test_b_payoffs_structurally_independent(self):
        # B1's payoff is a function of (gamma, u_a, u_b1) only: changing p or
        # B2's strategy must not change the float at all.
        game = builtin_bayesian()
        ref = bayesian_payoffs_mixture(0.3, 0.9, D_LIKE, D_LIKE_X, C_LIKE, game)[1]
        for p in (0.0, 0.65, 1.0):
            for other in (C_LIKE, D_LIKE, D_LIKE_X):
                assert bayesian_payoffs_mixture(p, 0.9, D_LIKE, D_LIKE_X, other, game)[1] == ref


class TestGlobalPhaseInvariance:
    @pytest.mark.parametrize("delta", [PI / 7, 1.0, 3.0])
    @pytest.mark.parametrize("player", [0, 1, 2])
    def test_mixture_payoffs_unchanged(self, delta, player):
        game = builtin_bayesian()
        us = [strategy_unitary(D_LIKE), strategy_unitary(D_LIKE_X), strategy_unitary(C_LIKE)]
        base = bayesian_payoffs_mixture(0.4, 0.9, *us, game)
        shifted = list(us)
        shifted[player] = np.exp(1j * delta) * shifted[player]
        out = bayesian_payoffs_mixture(0.4, 0.9, *shifted, game)
        assert np.max(np.abs(np.array(out) - np.array(base))) < 1e-12


class TestBayesianCircuit:
    def test_all_weight_on_da_branch_at_theta_zero(self):
        game = builtin_bayesian()
        out = bayesian_payoffs_full_circuit(ControlSpec(0.0), 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        mix = bayesian_payoffs_mixture(0.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-12

    def test_all_weight_on_pd_branch_at_theta_pi(self):
        game = builtin_bayesian()
        out = bayesian_payoffs_full_circuit(ControlSpec(PI), 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        mix = bayesian_payoffs_mixture(1.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-12

    def test_equal_superposition_matches_half_mixture(self):
        game = builtin_bayesian()
        ua, ub1, ub2 = StrategyParams(1.3, 0.4, 5.0), D_LIKE_X, StrategyParams(0.0, 2.0, 0.0)
        out = bayesian_payoffs_full_circuit(ControlSpec(PI / 2), 0.5, ua, ub1, ub2, game)
        mix = bayesian_payoffs_mixture(0.5, 0.5, ua, ub1, ub2, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-9

    def test_control_phases_do_not_matter(self):
        game = builtin_bayesian()
        ref = bayesian_payoffs_full_circuit(ControlSpec(1.0), 0.8, D_LIKE, C_LIKE, D_LIKE_X, game)
        for phi_q, alpha_q in product((0.9, 2.5), repeat=2):
            out = bayesian_payoffs_full_circuit(
                ControlSpec(1.0, phi_q, alpha_q), 0.8, D_LIKE, C_LIKE, D_LIKE_X, game
            )
            assert np.max(np.abs(np.array(out) - np.array(ref))) < 1e-12

    def test_final_state_normalized(self):
        psi = evolve_bayesian_circuit(ControlSpec(1.2, 0.3, 0.1), 0.9, D_LIKE, C_LIKE, D_LIKE_X)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_control_for_probability_roundtrip(self):
        for p in (0.0, 0.3, 1.0):
            assert control_for_probability(p).p == pytest.approx(p, abs=1e-12)


class TestBayesianPayoffsFromState:
    def test_pd_branch_pure_defect(self):
        game = builtin_bayesian()
        psi = np.zeros(16, dtype=complex)
        # q=1, a=1, b1=1 with B2's qubit in an arbitrary superposition
        psi[8 + 4 + 2 + 0] = 0.6
        psi[8 + 4 + 2 + 1] = 0.8j
        pa, pb1, _ = bayesian_payoffs_circuit(psi, game, fallback_b2=0.0)
        assert pa == pytest.approx(6.0, abs=1e-12)
        assert pb1 == pytest.approx(6.0, abs=1e-12)

    def test_da_branch_pure_cooperate(self):
        game = builtin_bayesian()
        psi = np.zeros(16, dtype=complex)
        psi[0] = 1 / math.sqrt(2)  # q=0, a=0, b1=0, b2=0
        psi[2] = 1j / math.sqrt(2)  # q=0, a=0, b1=1, b2=0
        pa, _, pb2 = bayesian_payoffs_circuit(psi, game, fallback_b1=0.0)
        assert pa == pytest.approx(11.0, abs=1e-12)
        assert pb2 == pytest.approx(9.0, abs=1e-12)

    def test_equal_branch_superposition(self):
        game = builtin_bayesian()
        psi = np.zeros(16, dtype=complex)
        psi[14] = 1 / math.sqrt(2)  # q=1, a=1, b1=1, b2=0 -> PD (D, D)
        psi[0] = 1 / math.sqrt(2)  # q=0, a=0, b2=0 -> DA (C, C)
        pa, pb1, pb2 = bayesian_payoffs_circuit(psi, game)
        assert pa == pytest.approx(0.5 * 6 + 0.5 * 11, abs=1e-12)
        assert pb1 == pytest.approx(6.0, abs=1e-12)
        assert pb2 == pytest.approx(9.0, abs=1e-12)

    def test_degenerate_branch_requires_fallback(self):
        game = builtin_bayesian()
        psi = np.zeros(16, dtype=complex)
        psi[14] = 1.0
        with pytest.raises(ValueError, match="fallback_b2"):
            bayesian_payoffs_circuit(psi, game)


# Each public evolution with the given strategies in player order (A, B1, B2).
EVOLUTIONS = {
    "two_player": lambda us: evolve_two_player(0.7, us[0], us[1]),
    "bayesian": lambda us: evolve_bayesian_circuit(ControlSpec(1.0), 0.5, *us),
}


class TestInputValidation:
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("evolution", sorted(EVOLUTIONS))
    def test_non_finite_strategy_matrix_rejected(self, evolution, value):
        bad = np.array([[value, 0], [0, 1]])
        for player in range(2 if evolution == "two_player" else 3):
            us = [D_LIKE, D_LIKE_X, C_LIKE]
            us[player] = bad
            with pytest.raises((ValueError, RuntimeError)):
                EVOLUTIONS[evolution](us)

    @pytest.mark.parametrize("evolution", sorted(EVOLUTIONS))
    def test_non_2x2_matrix_rejected(self, evolution):
        with pytest.raises(ValueError, match="2x2"):
            EVOLUTIONS[evolution]([np.eye(3), D_LIKE, C_LIKE])

    def test_nan_state_rejected(self):
        game = builtin_bayesian()
        with pytest.raises(ValueError, match="non-finite"):
            payoff_expectation([math.nan, 0, 0, 0], (11, 1, 10, 6))
        psi = np.zeros(16, dtype=complex)
        psi[0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            bayesian_payoffs_circuit(psi, game, fallback_b1=0.0, fallback_b2=0.0)

    def test_wrong_length_state_rejected(self):
        for n in (1, 3, 32):
            with pytest.raises(ValueError, match="length"):
                payoff_expectation(np.ones(n) / math.sqrt(n), np.ones(n))
        with pytest.raises(ValueError, match="length 16"):
            bayesian_payoffs_circuit(np.eye(8)[0], builtin_bayesian(), 0.0, 0.0)


class TestNoSignaling:
    def test_product_distribution(self):
        pa = np.array([[0.3, 0.7], [0.6, 0.4]])  # P(a|x)
        pb = np.array([[0.2, 0.8], [0.9, 0.1]])  # P(b|y)
        dist = np.einsum("xa,yb->abxy", pa, pb)
        assert no_signaling_check(dist, 1e-9)

    def test_outcome_copying_other_side_type_signals(self):
        dist = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                dist[y, 0, x, y] = 1.0  # a deterministically copies y
        assert not no_signaling_check(dist, 1e-9)

    @pytest.mark.parametrize("gamma", [0.0, 0.7, PI / 2])
    def test_local_strategies_on_shared_state(self, gamma):
        # Distribution built by circuit simulation: per-type local unitaries
        # acting on the shared entangled state cannot signal.
        sset = enumerate_strategies(DEFAULT_GRID)
        base = entangler(gamma) @ np.array([1, 0, 0, 0], dtype=complex)
        ua = [sset.unitaries[1], sset.unitaries[4]]
        ub = [sset.unitaries[5], sset.unitaries[2]]
        dist = np.zeros((2, 2, 2, 2))
        for x, y in product(range(2), repeat=2):
            probs = np.abs(np.kron(ua[x], ub[y]) @ base) ** 2
            for a, b in product(range(2), repeat=2):
                dist[a, b, x, y] = probs[2 * a + b]
        assert no_signaling_check(dist, 1e-9)

    def test_unnormalized_input_rejected(self):
        dist = np.full((2, 2, 1, 1), 0.3)
        with pytest.raises(ValueError, match="normalized"):
            no_signaling_check(dist, 1e-9)
