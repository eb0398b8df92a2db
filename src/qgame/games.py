"""Payoff data for the prisoner's dilemma family and classical baselines.

A game holds only its payoffs.  Payoff vectors are length-4 tuples
indexed by the two-qubit basis outcome (|00>, |01>, |10>, |11>) with
the first player's bit most significant.  Classical strategies are
encoded as 0 = cooperate (C), 1 = defect (D).  The probability p that A
faces B1 is not part of a Bayesian game: like gamma, it is a coordinate
of the (p, gamma) plane and is passed wherever it is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

def payoff_vector(values, name: str = "payoff vector") -> tuple[float, float, float, float]:
    vec = tuple(float(v) for v in values)
    if len(vec) != 4:
        raise ValueError(f"{name} must have length 4, got {len(vec)}")
    if not all(math.isfinite(v) for v in vec):
        raise ValueError(f"{name} contains non-finite entries")
    return vec


@dataclass(frozen=True)
class TwoPlayerGame:
    """A two-player game given by per-player payoff vectors in basis order."""

    payoff_a: tuple[float, float, float, float]
    payoff_b: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "payoff_a", payoff_vector(self.payoff_a, "payoff_a"))
        object.__setattr__(self, "payoff_b", payoff_vector(self.payoff_b, "payoff_b"))


@dataclass(frozen=True)
class BayesianGame:
    """Player A faces B1 with probability p and B2 with probability 1 - p.

    Each subgame carries its own payoff vector for A; the built-in games
    share it, arbitrary games loaded from JSON need not.
    """

    subgame_b1: TwoPlayerGame
    subgame_b2: TwoPlayerGame


def builtin_pd() -> TwoPlayerGame:
    """Asymmetric prisoner's dilemma between A and B1; classical NE (D, D)."""
    return TwoPlayerGame((11, 1, 10, 6), (9, 10, 1, 6))


def builtin_da() -> TwoPlayerGame:
    """District attorney's brother variant between A and B2; classical NE (C, C)."""
    return TwoPlayerGame((11, 1, 10, 6), (9, 6, 1, 0))


def builtin_bayesian() -> BayesianGame:
    return BayesianGame(builtin_pd(), builtin_da())


def classical_payoffs(game: TwoPlayerGame, row: int, col: int) -> tuple[float, float]:
    """Payoffs when the row player plays ``row`` and the column player ``col``."""
    idx = 2 * row + col
    return game.payoff_a[idx], game.payoff_b[idx]


def classical_pure_ne(game: TwoPlayerGame, eps: float = 1e-12) -> list[tuple[int, int]]:
    """All pure-strategy profiles over {C, D} stable under unilateral deviation."""
    ne = []
    for row, col in product((0, 1), repeat=2):
        pa, pb = classical_payoffs(game, row, col)
        if any(classical_payoffs(game, alt, col)[0] > pa + eps for alt in (0, 1)):
            continue
        if any(classical_payoffs(game, row, alt)[1] > pb + eps for alt in (0, 1)):
            continue
        ne.append((row, col))
    return ne


def classical_bayesian_payoffs(
    game: BayesianGame, p: float, a: int, b1: int, b2: int
) -> tuple[float, float, float]:
    """Payoffs (A, B1, B2) for a classical profile of the Bayesian game.

    A's payoff is the p-weighted average of the two subgames; the B
    players receive their conditional subgame payoff, not scaled by the
    probability of playing.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    pa1, pb1 = classical_payoffs(game.subgame_b1, a, b1)
    pa2, pb2 = classical_payoffs(game.subgame_b2, a, b2)
    return p * pa1 + (1.0 - p) * pa2, pb1, pb2


def classical_bayesian_ne(
    p: float, game: BayesianGame | None = None, eps: float = 1e-12
) -> list[tuple[tuple[int, int, int], tuple[float, float, float]]]:
    """Pure-strategy NE of the classical Bayesian game over {C, D}^3.

    Exhaustive deviation check; returns (profile, payoffs) pairs.  For
    the built-in payoffs this is (C, D, C) below p = 1/6, (D, D, C)
    above it, and both at the threshold.
    """
    if game is None:
        game = builtin_bayesian()
    ne = []
    for profile in product((0, 1), repeat=3):
        base = classical_bayesian_payoffs(game, p, *profile)
        if all(
            classical_bayesian_payoffs(game, p, *profile[:k], alt, *profile[k + 1 :])[k]
            <= base[k] + eps
            for k in range(3)
            for alt in (0, 1)
        ):
            ne.append((profile, base))
    return ne
