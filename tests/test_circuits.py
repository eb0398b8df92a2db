import math
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame import circuits
from qgame.circuits import (
    StrategyParams,
    _controlled_entanglers,
    _two_player_states,
    bayesian_payoffs_full_circuit,
    entangler,
    evolve_bayesian_circuit,
    evolve_two_player,
    payoff_expectation,
    strategy_unitary,
)
from qgame.games import builtin_bayesian, builtin_da, builtin_pd, check_probability
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import gamma_grid

from conftest import is_unitary

PI = math.pi

angles = st.floats(min_value=0.0, max_value=PI, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * PI - 1e-9, allow_nan=False)

C_LIKE = StrategyParams(0.0)
D_LIKE = StrategyParams(PI, 0.0, 0.0)
D_LIKE_X = StrategyParams(PI, 0.0, PI / 2)


def reference_bayesian_payoffs_mixture(p, gamma, u_a, u_b1, u_b2, game):
    """Payoffs from the statistical mixture of the two subgame circuits.

    The reference for the full four-qubit circuit, built on the public
    two-player evolution.  A's payoff is p-weighted across the subgames
    at the same gamma; each B player receives its conditional subgame
    expectation, which does not depend on p or on the other B player's
    strategy.  Strategies may be stacks; each payoff is then an array
    over all their batch axes.
    """
    p = check_probability(p)
    u_a, u_b1, u_b2 = (
        strategy_unitary(u) if isinstance(u, StrategyParams) else np.asarray(u)
        for u in (u_a, u_b1, u_b2)
    )
    full = np.broadcast_shapes(u_a.shape, u_b1.shape, u_b2.shape)
    # Both subgames in one stacked evolution: A against B1, then against B2.
    psi1, psi2 = evolve_two_player(
        gamma, u_a, np.array([np.broadcast_to(u_b1, full), np.broadcast_to(u_b2, full)])
    )
    pay_a = p * payoff_expectation(psi1, game.subgame_b1.payoff_a) + (
        1.0 - p
    ) * payoff_expectation(psi2, game.subgame_b2.payoff_a)
    pay_b1 = payoff_expectation(psi1, game.subgame_b1.payoff_b)
    pay_b2 = payoff_expectation(psi2, game.subgame_b2.payoff_b)
    return pay_a, pay_b1, pay_b2


def reference_no_signaling_check(dist: np.ndarray, tol: float = 1e-9) -> bool:
    """Check that outcome marginals are independent of the other side's type.

    ``dist[a, b, x, y]`` holds P(a, b | x, y) for binary outcomes and
    arbitrary type counts.  Each (x, y) slice must be normalized within
    1e-9.  Returns True iff A's marginal is independent of y and B's
    marginal is independent of x, within ``tol``.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 4 or dist.shape[0] != 2 or dist.shape[1] != 2:
        raise ValueError(f"distribution must have shape (2, 2, nx, ny), got {dist.shape}")
    if np.any(dist < -1e-12) or np.any(dist > 1.0 + 1e-12):
        raise ValueError("probabilities must lie in [0, 1]")
    sums = dist.sum(axis=(0, 1))
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError("each (x, y) slice must be normalized to 1 within 1e-9")

    marg_a = dist.sum(axis=1)  # (a, x, y)
    marg_b = dist.sum(axis=0)  # (b, x, y)
    spread_a = marg_a.max(axis=2) - marg_a.min(axis=2)
    spread_b = marg_b.max(axis=1) - marg_b.min(axis=1)
    return bool(spread_a.max() <= tol and spread_b.max() <= tol)


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
        pa, pb1, _ = reference_bayesian_payoffs_mixture(1.0, 0.8, D_LIKE, D_LIKE_X, C_LIKE, game)
        psi = evolve_two_player(0.8, D_LIKE, D_LIKE_X)
        assert pa == pytest.approx(payoff_expectation(psi, game.subgame_b1.payoff_a), abs=1e-12)
        assert pb1 == pytest.approx(payoff_expectation(psi, game.subgame_b1.payoff_b), abs=1e-12)

    def test_half_weight_classical(self):
        game = builtin_bayesian()
        pa, pb1, pb2 = reference_bayesian_payoffs_mixture(0.5, 0.0, D_LIKE, D_LIKE, C_LIKE, game)
        assert pa == pytest.approx(0.5 * 6 + 0.5 * 10, abs=1e-12)
        assert pb1 == pytest.approx(6, abs=1e-12)
        assert pb2 == pytest.approx(1, abs=1e-12)

    def test_classical_ne_point(self):
        game = builtin_bayesian()
        pa, pb1, pb2 = reference_bayesian_payoffs_mixture(0.1, 0.0, C_LIKE, D_LIKE, C_LIKE, game)
        assert (pa, pb1, pb2) == pytest.approx((10.0, 10.0, 9.0), abs=1e-12)

    def test_invalid_p(self):
        with pytest.raises(ValueError, match="p must lie"):
            reference_bayesian_payoffs_mixture(
                1.2, 0.0, C_LIKE, C_LIKE, C_LIKE, builtin_bayesian()
            )

    def test_b_payoffs_structurally_independent(self):
        # B1's payoff is a function of (gamma, u_a, u_b1) only: changing p or
        # B2's strategy must not change the float at all.
        game = builtin_bayesian()
        ref = reference_bayesian_payoffs_mixture(0.3, 0.9, D_LIKE, D_LIKE_X, C_LIKE, game)[1]
        for p in (0.0, 0.65, 1.0):
            for other in (C_LIKE, D_LIKE, D_LIKE_X):
                out = reference_bayesian_payoffs_mixture(p, 0.9, D_LIKE, D_LIKE_X, other, game)
                assert out[1] == ref


class TestGlobalPhaseInvariance:
    @pytest.mark.parametrize("delta", [PI / 7, 1.0, 3.0])
    @pytest.mark.parametrize("player", [0, 1, 2])
    def test_mixture_payoffs_unchanged(self, delta, player):
        game = builtin_bayesian()
        us = [strategy_unitary(D_LIKE), strategy_unitary(D_LIKE_X), strategy_unitary(C_LIKE)]
        base = reference_bayesian_payoffs_mixture(0.4, 0.9, *us, game)
        shifted = list(us)
        shifted[player] = np.exp(1j * delta) * shifted[player]
        out = reference_bayesian_payoffs_mixture(0.4, 0.9, *shifted, game)
        assert np.max(np.abs(np.array(out) - np.array(base))) < 1e-12


class TestBayesianCircuit:
    # The control is cos(x)|0> - sin(x)|1> with x = asin(sqrt(p)): its
    # rotation angle 2x is 0 at p = 0 and pi at p = 1.
    def test_all_weight_on_da_branch_at_theta_zero(self):
        game = builtin_bayesian()
        out = bayesian_payoffs_full_circuit(0.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        mix = reference_bayesian_payoffs_mixture(0.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-12

    def test_all_weight_on_pd_branch_at_theta_pi(self):
        game = builtin_bayesian()
        out = bayesian_payoffs_full_circuit(1.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        mix = reference_bayesian_payoffs_mixture(1.0, 0.7, D_LIKE, D_LIKE_X, C_LIKE, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-12

    def test_equal_superposition_matches_half_mixture(self):
        game = builtin_bayesian()
        ua, ub1, ub2 = StrategyParams(1.3, 0.4, 5.0), D_LIKE_X, StrategyParams(0.0, 2.0, 0.0)
        out = bayesian_payoffs_full_circuit(0.5, 0.5, ua, ub1, ub2, game)
        mix = reference_bayesian_payoffs_mixture(0.5, 0.5, ua, ub1, ub2, game)
        assert np.max(np.abs(np.array(out) - np.array(mix))) < 1e-9

    @pytest.mark.parametrize("p", [0.0, 1e-13, 0.3, 1.0 - 1e-13, 1.0])
    def test_full_circuit_equals_mixture(self, p):
        # p within 1e-12 of 0 or 1 leaves a branch empty, whose B player then
        # gets the two-player limit: the mixture's conditional payoff.
        game, rng = builtin_bayesian(), np.random.default_rng(4242)
        for gamma in (0.0, 0.6, PI / 2):
            us = _pi8_unitaries()[rng.integers(1824, size=12)].reshape(3, 4, 2, 2)
            stacks = (us[0][:, None, None], us[1][None, :, None], us[2][None, None, :])
            out = bayesian_payoffs_full_circuit(p, gamma, *stacks, game)
            mix = reference_bayesian_payoffs_mixture(p, gamma, *stacks, game)
            for x, y in zip(out, mix):
                assert x.shape == (4, 4, 4)
                assert np.max(np.abs(x - y)) < 1e-12

    @pytest.mark.parametrize("p", [-0.1, 1.0 + 1e-9, math.nan, math.inf])
    def test_p_outside_unit_interval_rejected(self, p):
        game = builtin_bayesian()
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            evolve_bayesian_circuit(p, 0.5, D_LIKE, C_LIKE, D_LIKE_X)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            bayesian_payoffs_full_circuit(p, 0.5, D_LIKE, C_LIKE, D_LIKE_X, game)

    def test_controlled_entanglers_agree_with_direct_index_arithmetic(self):
        # Oracle: J1 = blockdiag(I4, J) on (Q, A, B1) and J2 = blockdiag(J, I4)
        # on (Q, A, B2), each scattered over the amplitudes by hand.
        rng = np.random.default_rng(3)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        for gamma in (0.0, 0.4, 0.9, PI / 2):
            j1_local = np.eye(8, dtype=complex)
            j1_local[4:, 4:] = entangler(gamma)
            j2_local = np.eye(8, dtype=complex)
            j2_local[:4, :4] = entangler(gamma)
            expected = _direct_apply(j2_local, [0, 1, 3], _direct_apply(j1_local, [0, 1, 2], psi))
            both, _ = _controlled_entanglers(gamma)
            assert np.max(np.abs(both @ psi - expected)) < 1e-14

    def test_final_state_normalized(self):
        psi = evolve_bayesian_circuit(0.4, 0.9, D_LIKE, C_LIKE, D_LIKE_X)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    def test_control_for_probability_roundtrip(self):
        # The control prepared for p puts weight p on the q = 1 branch.
        for p in (0.0, 0.3, 1.0):
            psi = evolve_bayesian_circuit(p, 0.9, D_LIKE, C_LIKE, D_LIKE_X)
            assert np.sum(np.abs(psi[8:]) ** 2) == pytest.approx(p, abs=1e-12)


@lru_cache(maxsize=1)
def _pi8_unitaries():
    return enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8)).unitaries


def _direct_apply(op, targets, psi):
    """``op`` on qubits ``targets`` of state ``psi``, amplitude by amplitude."""
    n = int(np.log2(len(psi)))
    k = len(targets)
    out = np.zeros_like(psi)
    for i in range(len(psi)):
        bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        loc = 0
        for t in targets:
            loc = (loc << 1) | bits[t]
        for loc2 in range(2**k):
            amp = op[loc, loc2]
            if amp == 0:
                continue
            nb = bits[:]
            for pos, t in enumerate(targets):
                nb[t] = (loc2 >> (k - 1 - pos)) & 1
            j = 0
            for b in nb:
                j = (j << 1) | b
            out[i] += amp * psi[j]
    return out


class TestBayesianPayoffsFromState:
    """Payoffs read off the final state; at gamma = 0 the circuit is classical."""

    def test_pd_branch_pure_defect(self):
        game = builtin_bayesian()
        pa, pb1, _ = bayesian_payoffs_full_circuit(1.0, 0.0, D_LIKE, D_LIKE, C_LIKE, game)
        assert pa == pytest.approx(6.0, abs=1e-12)
        assert pb1 == pytest.approx(6.0, abs=1e-12)

    def test_da_branch_pure_cooperate(self):
        game = builtin_bayesian()
        pa, _, pb2 = bayesian_payoffs_full_circuit(0.0, 0.0, C_LIKE, D_LIKE, C_LIKE, game)
        assert pa == pytest.approx(11.0, abs=1e-12)
        assert pb2 == pytest.approx(9.0, abs=1e-12)

    def test_equal_branch_superposition(self):
        # PD branch (D, D), DA branch (D, C), each with weight 1/2.
        game = builtin_bayesian()
        pa, pb1, pb2 = bayesian_payoffs_full_circuit(0.5, 0.0, D_LIKE, D_LIKE, C_LIKE, game)
        assert pa == pytest.approx(0.5 * 6 + 0.5 * 10, abs=1e-12)
        assert pb1 == pytest.approx(6.0, abs=1e-12)
        assert pb2 == pytest.approx(1.0, abs=1e-12)


# Each public evolution with the given strategies in player order (A, B1, B2).
EVOLUTIONS = {
    "two_player": lambda us: evolve_two_player(0.7, us[0], us[1]),
    "bayesian": lambda us: evolve_bayesian_circuit(0.3, 0.5, *us),
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
        with pytest.raises(ValueError, match="non-finite"):
            payoff_expectation([math.nan, 0, 0, 0], (11, 1, 10, 6))
        psi = np.zeros(16, dtype=complex)
        psi[0] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            payoff_expectation(psi, np.ones(16))

    def test_wrong_length_state_rejected(self):
        for n in (1, 3, 32):
            with pytest.raises(ValueError, match="length"):
                payoff_expectation(np.ones(n) / math.sqrt(n), np.ones(n))


class TestUnitarityCheck:
    def test_non_unitary_strategy_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            evolve_two_player(0.0, np.diag([1, 2]), np.eye(2))
        with pytest.raises(ValueError, match="not unitary"):
            bayesian_payoffs_full_circuit(
                0.3, 0.5, np.eye(2), 2 * np.eye(2), np.eye(2) / 2, builtin_bayesian()
            )


@pytest.fixture(scope="module")
def grid24():
    return enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))


def _sampled_profiles(n, count, seed):
    return np.random.default_rng(seed).integers(n, size=(count, 3)).tolist()


class TestStackedEvaluation:
    """A stack evaluates each element bit for bit as a call on that element alone."""

    @pytest.mark.parametrize("gamma", [0.0, 0.9, PI / 2])
    def test_evolve_two_player(self, grid24, gamma):
        us = grid24.unitaries
        stacked = evolve_two_player(gamma, us[:, None], us[None, :])
        assert stacked.shape == (len(us), len(us), 4)
        for a, b in product(range(len(us)), repeat=2):
            assert np.array_equal(stacked[a, b], evolve_two_player(gamma, us[a], us[b]))

    def test_payoff_expectation(self, grid24):
        us = grid24.unitaries
        psi = evolve_two_player(0.9, us, us[5])
        stacked = payoff_expectation(psi, (11, 1, 10, 6))
        assert stacked.shape == (len(us),)
        assert [payoff_expectation(s, (11, 1, 10, 6)) for s in psi] == stacked.tolist()

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_bayesian_payoffs_mixture(self, grid24, p):
        game, us = builtin_bayesian(), grid24.unitaries
        stacked = reference_bayesian_payoffs_mixture(
            p, 0.9, us[:, None, None], us[None, :, None], us[None, None, :], game
        )
        for a, b1, b2 in _sampled_profiles(len(us), 60, 11):
            single = reference_bayesian_payoffs_mixture(p, 0.9, us[a], us[b1], us[b2], game)
            assert tuple(t[a, b1, b2] for t in stacked) == single

    @pytest.mark.parametrize("p", [0.0, 0.35, 1.0])
    def test_bayesian_payoffs_full_circuit(self, grid24, p):
        # At p = 0 and p = 1 one branch is empty, so its payoffs are fallbacks.
        game, us = builtin_bayesian(), grid24.unitaries
        stacked = bayesian_payoffs_full_circuit(
            p, 0.9, us[:, None, None], us[None, :, None], us[None, None, :], game
        )
        for a, b1, b2 in _sampled_profiles(len(us), 60, 13):
            single = bayesian_payoffs_full_circuit(p, 0.9, us[a], us[b1], us[b2], game)
            assert tuple(t[a, b1, b2] for t in stacked) == single

    def test_stack_shapes_broadcast(self, grid24):
        us = grid24.unitaries
        out = evolve_bayesian_circuit(0.3, 0.5, us[3], us[:, None], us[None, :5])
        assert out.shape == (len(us), 5, 16)
        single = evolve_bayesian_circuit(0.3, 0.5, us[3], us[7], us[2])
        assert np.array_equal(out[7, 2], single)


def gathered_apply(op, psi):
    """The sparse product as one gather of every column and one sum in
    index order: the reference for ``circuits._apply``.  Values may carry
    a trailing stack axis, as ``_apply`` takes them."""
    columns, values = op
    values = values.reshape(values.shape[:3] + (-1,))
    return circuits._sum_first(np.moveaxis(circuits._cmul(values, psi[:, columns]), 2, 0))


def reference_two_player_states(gamma, u_a, u_b):
    """The one-gamma evolution, J|00> and J^dag read off ``entangler(gamma)``
    with J^dag in the form of ``_sparse_rows``: the reference for
    ``_two_player_states``."""
    j = entangler(gamma)
    psi = circuits._planar(j[:, 0].reshape(2, 2, 1))
    return circuits._evolve(psi, (u_a, u_b), circuits._sparse_rows(j.conj().T))


class TestPerStateGamma:
    """One gamma per stacked state, or one gamma for the stack, gives each
    state the payoffs of the one-gamma reference at its gamma, bit for bit."""

    @pytest.mark.parametrize("steps", [DEFAULT_GRID, GridSteps(PI / 2, PI / 2, PI / 2)])
    def test_payoffs_match_one_call_per_gamma(self, steps):
        us = enumerate_strategies(steps).unitaries
        gammas = gamma_grid()
        assert gammas[0] == 0.0
        a, b, g = (x.ravel() for x in np.indices((len(us), len(us), len(gammas))))
        stacked = _two_player_states(gammas, g, us[a], us[b])
        vectors = (builtin_pd().payoff_a, builtin_pd().payoff_b, builtin_da().payoff_b)
        for k, gamma in enumerate(gammas):
            own = g == k
            alone = reference_two_player_states(gamma, us[a[own]], us[b[own]])
            single = _two_player_states([gamma], None, us[a[own]], us[b[own]])
            for states in (stacked[own], single):
                # Amplitudes may differ only in the sign of a zero.
                assert np.array_equal(states, alone)
                for vec in vectors:
                    hexes = [x.hex() for x in payoff_expectation(states, vec).tolist()]
                    assert hexes == [x.hex() for x in payoff_expectation(alone, vec).tolist()]

    @pytest.mark.parametrize("gamma", [0.0, 0.9, PI / 2])
    def test_single_gamma_states_match_the_gathered_sum(self, grid24, gamma, monkeypatch):
        # Summing the sparse products one column at a time keeps every bit.
        us = grid24.unitaries
        two = evolve_two_player(gamma, us[:, None], us[None, :])
        four = evolve_bayesian_circuit(0.3, gamma, us[:, None, None], us[None, :, None], us[5])
        monkeypatch.setattr(circuits, "_apply", gathered_apply)
        assert two.tobytes() == evolve_two_player(gamma, us[:, None], us[None, :]).tobytes()
        reference = evolve_bayesian_circuit(
            0.3, gamma, us[:, None, None], us[None, :, None], us[5]
        )
        assert four.tobytes() == reference.tobytes()


# One bad element in a stack of strategies, and the message its call fails with.
BAD_ELEMENTS = {
    "nan": (np.array([[math.nan, 0], [0, 1]]), "non-finite"),
    "non_unitary": (np.diag([1.0, 2.0]), "not unitary"),
}


class TestStackValidation:
    @pytest.mark.parametrize("bad", sorted(BAD_ELEMENTS))
    @pytest.mark.parametrize("evolution", sorted(EVOLUTIONS))
    def test_one_bad_element_fails_the_stack(self, grid24, evolution, bad):
        matrix, message = BAD_ELEMENTS[bad]
        stack = grid24.unitaries.copy()
        stack[17] = matrix
        with pytest.raises(ValueError, match=message):
            EVOLUTIONS[evolution]([stack, D_LIKE_X, C_LIKE])

    @pytest.mark.parametrize("bad", sorted(BAD_ELEMENTS))
    def test_one_bad_element_fails_the_payoff_calls(self, grid24, bad):
        matrix, message = BAD_ELEMENTS[bad]
        game, stack = builtin_bayesian(), grid24.unitaries.copy()
        stack[2] = matrix
        with pytest.raises(ValueError, match=message):
            reference_bayesian_payoffs_mixture(0.3, 0.9, C_LIKE, stack, D_LIKE, game)
        with pytest.raises(ValueError, match=message):
            bayesian_payoffs_full_circuit(0.3, 0.9, C_LIKE, D_LIKE, stack, game)

    @pytest.mark.parametrize("evolution", sorted(EVOLUTIONS))
    def test_non_2x2_stack_rejected(self, grid24, evolution):
        stack = np.tile(np.eye(3), (4, 1, 1))
        with pytest.raises(ValueError, match="2x2"):
            EVOLUTIONS[evolution]([grid24.unitaries, stack, C_LIKE])

    def test_one_nan_state_in_a_stack_rejected(self, grid24):
        psi = evolve_two_player(0.9, grid24.unitaries, C_LIKE)
        psi[4, 1] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            payoff_expectation(psi, (11, 1, 10, 6))
        states = np.zeros((3, 16), dtype=complex)
        states[:, 0] = 1.0
        states[1, 5] = math.nan
        with pytest.raises(ValueError, match="non-finite"):
            payoff_expectation(states, np.ones(16))

    def test_degenerate_branch_fallback_per_element(self, grid24):
        # The empty branch's B player gets each element's own two-player
        # payoff, broadcast to the full stack shape though it depends on
        # A and that player only.
        game, us = builtin_bayesian(), grid24.unitaries
        stacks = [us[:5, None, None], us[None, :6, None], us[None, None, :7]]
        for p, k, sub in ((0.0, 1, game.subgame_b1), (1.0, 2, game.subgame_b2)):
            pay = bayesian_payoffs_full_circuit(p, 0.9, *stacks, game)[k]
            assert pay.shape == (5, 6, 7) and pay.flags.writeable
            two_player = evolve_two_player(0.9, stacks[0], stacks[k])
            limit = payoff_expectation(two_player, sub.payoff_b)
            assert np.array_equal(pay, np.broadcast_to(limit, pay.shape))


class TestNoSignaling:
    def test_product_distribution(self):
        pa = np.array([[0.3, 0.7], [0.6, 0.4]])  # P(a|x)
        pb = np.array([[0.2, 0.8], [0.9, 0.1]])  # P(b|y)
        dist = np.einsum("xa,yb->abxy", pa, pb)
        assert reference_no_signaling_check(dist, 1e-9)

    def test_outcome_copying_other_side_type_signals(self):
        dist = np.zeros((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                dist[y, 0, x, y] = 1.0  # a deterministically copies y
        assert not reference_no_signaling_check(dist, 1e-9)

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
        assert reference_no_signaling_check(dist, 1e-9)

    def test_unnormalized_input_rejected(self):
        dist = np.full((2, 2, 1, 1), 0.3)
        with pytest.raises(ValueError, match="normalized"):
            reference_no_signaling_check(dist, 1e-9)
