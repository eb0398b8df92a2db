"""Discretized strategy spaces.

A grid is defined by step sizes (d_theta, d_phi, d_alpha) that divide
their ranges exactly: theta runs over [0, pi] inclusive, phi and alpha
over [0, 2*pi) periodically.  A grid point is its integer code (t, f, a),
whole steps of each angle.  At the poles one phase is undefined, so
t = 0 keeps only a = 0 and t = n_theta only f = 0; every other code is
its own matrix.  Exact duplicate matrices are thereby removed, NOT
duplicates up to global phase: strategies differing only by a global
phase are payoff equivalent but count as distinct grid points, which is
what makes the coarse grid have 8 members and the pi/8 grid 1824.

A pole code is a Pauli matrix up to a unimodular factor exactly when its
free phase is a whole number of quarter turns (``equilibrium``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import TAU, strategy_unitaries

_DIVIDES_TOL = 1e-12
_ANGLE_SNAP = 1e-9

# Largest strategy count a grid may have.  The pi/16 grid's 15,424 fit;
# the pi/32 grid's 127,104 would need 129 GB per dense payoff table.
MAX_STRATEGIES = 16_384


def _step_count(step: float, full_range: float, name: str) -> int:
    if not step > 0:
        raise ValueError(f"{name} must be positive, got {step}")
    if not math.isfinite(full_range / step):
        raise ValueError(f"{name} = {step} is too small")
    n = round(full_range / step)
    if n < 1 or abs(n * step - full_range) > _DIVIDES_TOL:
        raise ValueError(f"{name} = {step} does not divide {full_range:.6g} exactly")
    return n


@dataclass(frozen=True)
class GridSteps:
    """Step sizes for the (theta, phi, alpha) grid; each must divide its range,
    and the grid may hold at most ``MAX_STRATEGIES`` strategies."""

    d_theta: float
    d_phi: float
    d_alpha: float

    def __post_init__(self):
        _step_count(self.d_theta, math.pi, "d_theta")
        _step_count(self.d_phi, TAU, "d_phi")
        _step_count(self.d_alpha, TAU, "d_alpha")
        if self.n_strategies > MAX_STRATEGIES:
            raise ValueError(
                f"grid has {self.n_strategies} strategies, more than {MAX_STRATEGIES}"
            )

    @property
    def n_theta(self) -> int:
        return _step_count(self.d_theta, math.pi, "d_theta")

    @property
    def n_phi(self) -> int:
        return _step_count(self.d_phi, TAU, "d_phi")

    @property
    def n_alpha(self) -> int:
        return _step_count(self.d_alpha, TAU, "d_alpha")

    @property
    def code_blocks(self) -> tuple[tuple[int, tuple[int, int, int]], ...]:
        """The grid's codes (t, f, a) as blocks in code order, each its first
        t and its (t, f, a) extents: t = 0 keeps a = 0 and t = n_theta keeps
        f = 0, where the other phase is undefined."""
        n_theta, n_phi, n_alpha = self.n_theta, self.n_phi, self.n_alpha
        return ((0, (1, n_phi, 1)), (1, (n_theta - 1, n_phi, n_alpha)), (n_theta, (1, 1, n_alpha)))

    @property
    def n_strategies(self) -> int:
        """Size of the enumerated set, without allocating it."""
        return sum(math.prod(shape) for _, shape in self.code_blocks)


DEFAULT_GRID = GridSteps(math.pi, math.pi / 2.0, math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class StrategySet:
    """The strategies of the grid ``steps`` in code order: ``codes`` (n, 3)
    int grid points (t, f, a), ``angles`` their (theta, phi, alpha) and
    ``unitaries`` their matrices."""

    steps: GridSteps
    codes: np.ndarray
    angles: np.ndarray
    unitaries: np.ndarray

    def __post_init__(self):
        for array in (self.codes, self.angles, self.unitaries):
            array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.codes)

    @cached_property
    def gauge_shift(self) -> np.ndarray:
        """``shift[k, i]``, the index of ``U_i diag(e^{-ik chi}, e^{ik chi})``.

        With K = gcd(n_phi, n_alpha) rows and chi = 2*pi / K, the turn adds
        k chi to phi and to alpha, whole grid steps of each (at theta = 0
        and pi only the free phase moves), so each row permutes the grid.
        A B player turns by ``shift[(K - k) % K]`` against A's ``shift[k]``
        (README, "The gauge symmetry").  Looked up in a dense index of
        every code; int32, so the index and the K * n entries each take
        at most a quarter of the bytes of an n x n payoff table.
        """
        steps = self.steps
        n_phi, n_alpha = steps.n_phi, steps.n_alpha
        index = np.empty((steps.n_theta + 1, n_phi, n_alpha), dtype=np.int32)
        index[tuple(self.codes.T)] = np.arange(len(self))
        theta, phi, alpha = self.codes.T
        k = np.arange(math.gcd(n_phi, n_alpha))[:, None]
        phi_turned = (phi + k * (n_phi // len(k)) * (theta != steps.n_theta)) % n_phi
        alpha_turned = (alpha + k * (n_alpha // len(k)) * (theta != 0)) % n_alpha
        return index[theta, phi_turned, alpha_turned]

    @cached_property
    def class_facts(self) -> dict[tuple, tuple]:
        """``equilibrium.classify``'s class facts, keyed by the player count
        and the member profiles' bytes."""
        return {}


def wrap_angle(value: float) -> float:
    """Reduce an angle to [0, 2*pi), snapping values within 1e-9 of 2*pi to 0."""
    w = math.fmod(value, TAU)
    if w < 0.0:
        w += TAU
    if TAU - w < _ANGLE_SNAP:
        w = 0.0
    return w


def enumerate_strategies(steps: GridSteps) -> StrategySet:
    """Every grid strategy, in lexicographic (t, f, a) code order.

    Each of ``steps.code_blocks`` (the two poles and the interior) is built
    on its own, so the work is linear in the strategy count.
    """
    codes = np.concatenate(
        [np.indices(shape).reshape(3, -1).T + (t, 0, 0) for t, shape in steps.code_blocks]
    )
    angles = codes * (steps.d_theta, steps.d_phi, steps.d_alpha)
    angles[codes[:, 0] == steps.n_theta, 0] = math.pi
    return StrategySet(steps, codes, angles, strategy_unitaries(*angles.T))
