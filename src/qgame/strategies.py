"""Discretized strategy spaces with redundancy removal and Pauli labeling.

A grid is defined by step sizes (d_theta, d_phi, d_alpha) that divide
their ranges exactly: theta runs over [0, pi] inclusive, phi and alpha
over [0, 2*pi) periodically.  Grid points are canonicalized (the
undefined phase parameter is zeroed at theta = 0 and theta = pi) and
exact duplicate matrices are removed, NOT duplicates up to global
phase: strategies differing only by a global phase are payoff
equivalent but count as distinct grid points, which is what makes the
coarse grid have 8 members and the pi/8 grid 1824.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import TAU, StrategyParams, strategy_unitary

_PAULIS = (
    ("I", np.eye(2, dtype=complex)),
    ("X", np.array([[0, 1], [1, 0]], dtype=complex)),
    ("Y", np.array([[0, -1j], [1j, 0]], dtype=complex)),
    ("Z", np.array([[1, 0], [0, -1]], dtype=complex)),
)

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
    def n_strategies(self) -> int:
        """Size of the enumerated set, without allocating it: theta = 0
        keeps phi only, theta = pi alpha only."""
        return self.n_phi + self.n_alpha + (self.n_theta - 1) * self.n_phi * self.n_alpha


DEFAULT_GRID = GridSteps(math.pi, math.pi / 2.0, math.pi / 2.0)


@dataclass(frozen=True, eq=False)
class StrategySet:
    """Deduplicated, canonically ordered strategies with precomputed unitaries."""

    params: tuple[StrategyParams, ...]
    unitaries: np.ndarray

    def __post_init__(self):
        self.unitaries.setflags(write=False)

    def __len__(self) -> int:
        return len(self.params)

    @cached_property
    def free_phases(self) -> tuple[float | None, ...]:
        """Per index, the free phase (phi at theta = 0, alpha at pi), else None."""
        return tuple(
            None if (free := _free_parameter(s.theta)) is None else getattr(s, free)
            for s in self.params
        )

    @cached_property
    def pauli_names(self) -> tuple[str | None, ...]:
        """Per index, the Pauli matrix the unitary is a unimodular multiple of, else None.

        Only theta = 0 or pi can give one: in between, all four entries
        of the unitary are nonzero.
        """
        labels = (
            None if g is None else pauli_label(u)
            for u, g in zip(self.unitaries, self.free_phases)
        )
        return tuple(None if label is None else label[0] for label in labels)


def wrap_angle(value: float) -> float:
    """Reduce an angle to [0, 2*pi), snapping values within 1e-9 of 2*pi to 0."""
    w = math.fmod(value, TAU)
    if w < 0.0:
        w += TAU
    if TAU - w < _ANGLE_SNAP:
        w = 0.0
    return w


def _free_parameter(theta: float) -> str | None:
    """The phase parameter theta leaves free, "phi" at 0 and "alpha" at pi (the
    other is undefined there); None in between, where both matter."""
    if theta < _ANGLE_SNAP:
        return "phi"
    if math.pi - theta < _ANGLE_SNAP:
        return "alpha"
    return None


def canonicalize(s: StrategyParams) -> StrategyParams:
    """Reduce phases mod 2*pi and zero the parameter that theta makes undefined."""
    free = _free_parameter(s.theta)
    phi = 0.0 if free == "alpha" else wrap_angle(s.phi)
    alpha = 0.0 if free == "phi" else wrap_angle(s.alpha)
    return StrategyParams(s.theta, phi, alpha)


def enumerate_strategies(steps: GridSteps) -> StrategySet:
    """All canonical grid strategies with exact-duplicate matrices removed.

    Order is deterministic: lexicographic by (theta, phi, alpha).
    """
    seen: dict[tuple[float, float, float], StrategyParams] = {}
    for i in range(steps.n_theta + 1):
        theta = math.pi if i == steps.n_theta else i * steps.d_theta
        for j in range(steps.n_phi):
            for k in range(steps.n_alpha):
                s = canonicalize(StrategyParams(theta, j * steps.d_phi, k * steps.d_alpha))
                key = (round(s.theta, 12), round(s.phi, 12), round(s.alpha, 12))
                seen.setdefault(key, s)
    params = tuple(seen[key] for key in sorted(seen))
    unitaries = np.stack([strategy_unitary(s) for s in params])
    return StrategySet(params, unitaries)


def pauli_label(u: np.ndarray, tol: float = 1e-10) -> tuple[str, complex] | None:
    """Express ``u`` as c * P for a Pauli matrix P and unimodular c, if possible."""
    u = np.asarray(u, dtype=complex)
    for name, pauli in _PAULIS:
        idx = np.unravel_index(np.argmax(np.abs(pauli)), pauli.shape)
        c = u[idx] / pauli[idx]
        if abs(abs(c) - 1.0) > tol:
            continue
        if np.max(np.abs(u - c * pauli)) <= tol:
            return name, complex(c)
    return None
