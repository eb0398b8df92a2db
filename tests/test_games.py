from itertools import product

import pytest

from qgame.games import (
    TwoPlayerGame,
    builtin_bayesian,
    builtin_da,
    builtin_pd,
    classical_bayesian_ne,
    classical_bayesian_payoffs,
    classical_payoffs,
    classical_pure_ne,
    payoff_vector,
)

C, D = 0, 1


def test_builtin_pd_vectors():
    game = builtin_pd()
    assert game.payoff_a == (11, 1, 10, 6)
    assert game.payoff_b == (9, 10, 1, 6)


def test_builtin_da_vectors():
    game = builtin_da()
    assert game.payoff_a == (11, 1, 10, 6)
    assert game.payoff_b == (9, 6, 1, 0)


def test_a_payoffs_identical_across_subgames():
    assert builtin_pd().payoff_a == builtin_da().payoff_a


def test_payoff_vector_validation():
    with pytest.raises(ValueError, match="length 4"):
        payoff_vector([1, 2, 3])
    with pytest.raises(ValueError, match="non-finite"):
        payoff_vector([1, 2, 3, float("nan")])


def test_classical_bayesian_ne_rejects_bad_p():
    with pytest.raises(ValueError, match="p must lie"):
        classical_bayesian_ne(1.5)


class TestClassicalPureNE:
    def test_pd(self):
        game = builtin_pd()
        assert classical_pure_ne(game) == [(D, D)]
        assert classical_payoffs(game, D, D) == (6, 6)

    def test_da(self):
        game = builtin_da()
        assert classical_pure_ne(game) == [(C, C)]
        assert classical_payoffs(game, C, C) == (11, 9)

    def test_zero_game_total_indifference(self):
        game = TwoPlayerGame((0, 0, 0, 0), (0, 0, 0, 0))
        assert classical_pure_ne(game) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_against_independent_enumeration(self):
        # Oracle: re-derive stability from raw payoff lookups.
        for game in (builtin_pd(), builtin_da()):
            expected = []
            for r, c in product((0, 1), repeat=2):
                ra = [game.payoff_a[2 * alt + c] for alt in (0, 1)]
                cb = [game.payoff_b[2 * r + alt] for alt in (0, 1)]
                if game.payoff_a[2 * r + c] >= max(ra) and game.payoff_b[
                    2 * r + c
                ] >= max(cb):
                    expected.append((r, c))
            assert classical_pure_ne(game) == expected


class TestClassicalBayesianNE:
    def test_low_p(self):
        ((profile, payoffs),) = classical_bayesian_ne(0.1)
        assert profile == (C, D, C)
        assert payoffs == pytest.approx((10.0, 10.0, 9.0), abs=1e-12)

    def test_high_p(self):
        ((profile, payoffs),) = classical_bayesian_ne(0.5)
        assert profile == (D, D, C)
        assert payoffs == pytest.approx((8.0, 6.0, 1.0), abs=1e-12)

    def test_threshold_indifference(self):
        results = classical_bayesian_ne(1 / 6)
        profiles = [r[0] for r in results]
        assert profiles == [(C, D, C), (D, D, C)]
        # A's payoff is equal across the two branches exactly at p = 1/6
        assert results[0][1][0] == results[1][1][0]

    def test_payoff_weighting(self):
        pa, pb1, pb2 = classical_bayesian_payoffs(builtin_bayesian(), 0.3, C, D, C)
        assert pa == pytest.approx(0.3 * 1 + 0.7 * 11)
        assert pb1 == 10
        assert pb2 == 9
