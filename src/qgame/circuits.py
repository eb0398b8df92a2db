"""EWL-protocol circuit evaluation and expected payoffs.

Two-player circuit: |psi_f> = J(gamma)^dag (U_A (x) U_B) J(gamma) |00>,
with basis index 2a + b and payoffs as Born-rule expectations over the
outcome distribution.

Bayesian circuit: a four-qubit register (Q, A, B1, B2), basis index
8q + 4a + 2b1 + b2.  A control rotation U_Q prepares qubit Q, then two
controlled entanglers act: one entangles (A, B1) on the Q = |1> branch,
the other entangles (A, B2) on the Q = |0> branch.  Both are block
diagonal in Q and commute.  Measuring Q selects the subgame: q = 1
plays (A, B1), q = 0 plays (A, B2), so the probability of facing B1 is
p = sin^2(theta_q / 2).

Strategy unitaries take three angles (theta, phi, alpha):

    U = [[exp(-i phi) cos(theta/2),  exp(i alpha) sin(theta/2)],
         [-exp(-i alpha) sin(theta/2), exp(i phi) cos(theta/2)]]

The entangler J(gamma) has cos(gamma/2) on the diagonal and
+/- i sin(gamma/2) on the anti-diagonal; gamma = 0 is the classical
limit (J = I), gamma = pi/2 maps |00> to the Bell state
(|00> + i |11>)/sqrt(2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .games import BayesianGame
from .linalg import embed

TAU = 2.0 * math.pi

_DEGENERATE_BRANCH = 1e-12
_NORM_TOL = 1e-12


def _check_angle(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {value}")
    return value


@dataclass(frozen=True)
class StrategyParams:
    """The (theta, phi, alpha) triple parametrizing one player's strategy.

    theta in [0, pi]; phi and alpha in [0, 2*pi].  At theta = 0 alpha is
    undefined and at theta = pi phi is undefined; ``canonicalize`` in
    the strategy-grid module zeroes the undefined parameter.
    """

    theta: float
    phi: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        _check_angle(self.theta, 0.0, math.pi, "theta")
        _check_angle(self.phi, 0.0, TAU, "phi")
        _check_angle(self.alpha, 0.0, TAU, "alpha")


@dataclass(frozen=True)
class ControlSpec:
    """Rotation angles for the control qubit; p = sin^2(theta_q / 2)."""

    theta_q: float
    phi_q: float = 0.0
    alpha_q: float = 0.0

    def __post_init__(self):
        _check_angle(self.theta_q, 0.0, math.pi, "theta_q")
        _check_angle(self.phi_q, 0.0, TAU, "phi_q")
        _check_angle(self.alpha_q, 0.0, TAU, "alpha_q")

    @property
    def p(self) -> float:
        return math.sin(self.theta_q / 2.0) ** 2


def control_for_probability(p: float) -> ControlSpec:
    """Control rotation realizing a given probability of playing B1."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return ControlSpec(2.0 * math.asin(math.sqrt(p)))


def strategy_unitary(s: StrategyParams) -> np.ndarray:
    c = math.cos(s.theta / 2.0)
    sn = math.sin(s.theta / 2.0)
    return np.array(
        [
            [np.exp(-1j * s.phi) * c, np.exp(1j * s.alpha) * sn],
            [-np.exp(-1j * s.alpha) * sn, np.exp(1j * s.phi) * c],
        ]
    )


def entangler(gamma: float) -> np.ndarray:
    """The two-qubit entangling operation J(gamma), gamma in [0, pi/2]."""
    gamma = _check_angle(gamma, 0.0, math.pi / 2.0, "gamma")
    c = math.cos(gamma / 2.0)
    s = 1j * math.sin(gamma / 2.0)
    return np.array(
        [
            [c, 0, 0, s],
            [0, c, -s, 0],
            [0, -s, c, 0],
            [s, 0, 0, c],
        ]
    )


def _as_unitary(u) -> np.ndarray:
    """Accept StrategyParams or a ready, finite 2x2 matrix."""
    if isinstance(u, StrategyParams):
        return strategy_unitary(u)
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"strategy matrix must be 2x2, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("strategy matrix contains non-finite entries")
    return u


def _checked_norm(psi: np.ndarray) -> np.ndarray:
    # Written so that a NaN norm fails too.
    if not abs(np.linalg.norm(psi) - 1.0) <= _NORM_TOL:
        raise RuntimeError("state norm drifted beyond 1e-12 during evolution")
    return psi


def evolve_two_player(gamma: float, u_a, u_b) -> np.ndarray:
    """Final two-qubit state J^dag (U_A (x) U_B) J |00>."""
    j = entangler(gamma)
    layer = np.kron(_as_unitary(u_a), _as_unitary(u_b))
    return _checked_norm(j.conj().T @ (layer @ j[:, 0]))


def payoff_expectation(psi: np.ndarray, payoff) -> float:
    """Born-rule expectation sum_j |psi_j|^2 * payoff_j over 1 to 4 qubits."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) not in (2, 4, 8, 16):
        raise ValueError(f"state length must be 2, 4, 8 or 16, got {len(psi)}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    vec = np.asarray(payoff, dtype=float)
    if vec.shape != psi.shape:
        raise ValueError(
            f"payoff vector length {vec.shape} does not match state length {psi.shape}"
        )
    return float(np.abs(psi) ** 2 @ vec)


def bayesian_payoffs_mixture(
    p: float, gamma: float, u_a, u_b1, u_b2, game: BayesianGame
) -> tuple[float, float, float]:
    """Payoffs from the statistical mixture of the two subgame circuits.

    A's payoff is p-weighted across the subgames at the same gamma; each
    B player receives its conditional subgame expectation, which does
    not depend on p or on the other B player's strategy.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    psi1 = evolve_two_player(gamma, u_a, u_b1)
    psi2 = evolve_two_player(gamma, u_a, u_b2)
    pay_a = p * payoff_expectation(psi1, game.subgame_b1.payoff_a) + (
        1.0 - p
    ) * payoff_expectation(psi2, game.subgame_b2.payoff_a)
    pay_b1 = payoff_expectation(psi1, game.subgame_b1.payoff_b)
    pay_b2 = payoff_expectation(psi2, game.subgame_b2.payoff_b)
    return pay_a, pay_b1, pay_b2


@lru_cache(maxsize=64)
def _controlled_entanglers(gamma: float):
    """16x16 controlled entanglers and their daggers for a given gamma.

    J1 = blockdiag(I4, J) on qubits (Q, A, B1): entangles (A, B1) when
    Q = |1>.  J2 = blockdiag(J, I4) on qubits (Q, A, B2): entangles
    (A, B2) when Q = |0>.  They act on orthogonal Q branches and must
    commute; this is asserted once per gamma.
    """
    j = entangler(gamma)
    j1_local = np.eye(8, dtype=complex)
    j1_local[4:, 4:] = j
    j2_local = np.eye(8, dtype=complex)
    j2_local[:4, :4] = j
    j1 = embed(j1_local, [0, 1, 2], 4)
    j2 = embed(j2_local, [0, 1, 3], 4)
    if np.max(np.abs(j1 @ j2 - j2 @ j1)) > 1e-12:
        raise RuntimeError("controlled entanglers failed to commute")
    return j1, j2, j1.conj().T, j2.conj().T


def evolve_bayesian_circuit(
    control: ControlSpec, gamma: float, u_a, u_b1, u_b2
) -> np.ndarray:
    """Final four-qubit state of the controlled-entangler circuit.

    J1^dag J2^dag (I_Q (x) U_A (x) U_B1 (x) U_B2) J2 J1 (U_Q (x) I_8) |0000>.
    """
    j1, j2, j1d, j2d = _controlled_entanglers(float(gamma))
    uq = strategy_unitary(StrategyParams(control.theta_q, control.phi_q, control.alpha_q))
    psi = np.zeros(16, dtype=complex)
    psi[0] = uq[0, 0]
    psi[8] = uq[1, 0]
    psi = j2 @ (j1 @ psi)
    local = np.kron(_as_unitary(u_a), np.kron(_as_unitary(u_b1), _as_unitary(u_b2)))
    psi = (psi.reshape(2, 8) @ local.T).reshape(16)
    psi = j1d @ (j2d @ psi)
    return _checked_norm(psi)


def _branch_weights(probs: np.ndarray) -> tuple[float, float]:
    """Outcome weights of the q = 1 (facing B1) and q = 0 (facing B2) branches."""
    return probs[8:].sum(), probs[:8].sum()


def bayesian_payoffs_circuit(
    psi: np.ndarray,
    game: BayesianGame,
    fallback_b1: float | None = None,
    fallback_b2: float | None = None,
) -> tuple[float, float, float]:
    """Payoffs read off a four-qubit final state.

    A's payoff sums PD payoffs over the q = 1 outcomes and DA payoffs
    over q = 0.  Each B player's payoff is the expectation conditioned
    on its own branch; when a branch carries (numerically) zero weight
    the conditional is undefined and the two-player subgame value must
    be supplied as a fallback.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if len(psi) != 16:
        raise ValueError(f"expected a 4-qubit state of length 16, got {len(psi)}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    probs = np.abs(psi) ** 2
    pd_a = np.asarray(game.subgame_b1.payoff_a)
    pd_b = np.asarray(game.subgame_b1.payoff_b)
    da_a = np.asarray(game.subgame_b2.payoff_a)
    da_b = np.asarray(game.subgame_b2.payoff_b)

    idx = np.arange(16)
    a_bit = (idx >> 2) & 1
    b1_bit = (idx >> 1) & 1
    b2_bit = idx & 1
    pd_outcome = 2 * a_bit + b1_bit
    da_outcome = 2 * a_bit + b2_bit

    p1, p0 = _branch_weights(probs)
    pay_a = float(
        probs[8:] @ pd_a[pd_outcome[8:]] + probs[:8] @ da_a[da_outcome[:8]]
    )

    if p1 > _DEGENERATE_BRANCH:
        pay_b1 = float(probs[8:] @ pd_b[pd_outcome[8:]] / p1)
    elif fallback_b1 is not None:
        pay_b1 = float(fallback_b1)
    else:
        raise ValueError("q=1 branch has zero weight and no fallback_b1 was given")

    if p0 > _DEGENERATE_BRANCH:
        pay_b2 = float(probs[:8] @ da_b[da_outcome[:8]] / p0)
    elif fallback_b2 is not None:
        pay_b2 = float(fallback_b2)
    else:
        raise ValueError("q=0 branch has zero weight and no fallback_b2 was given")

    return pay_a, pay_b1, pay_b2


def bayesian_payoffs_full_circuit(
    control: ControlSpec, gamma: float, u_a, u_b1, u_b2, game: BayesianGame
) -> tuple[float, float, float]:
    """Evolve the four-qubit circuit and read off payoffs.

    A degenerate control branch falls back to the two-player subgame
    expectation, the continuous limit of the conditional payoff; only
    such a branch runs the two-player evolution.
    """
    psi = evolve_bayesian_circuit(control, gamma, u_a, u_b1, u_b2)
    p1, p0 = _branch_weights(np.abs(psi) ** 2)
    fb1 = fb2 = None
    if p1 <= _DEGENERATE_BRANCH:
        fb1 = payoff_expectation(evolve_two_player(gamma, u_a, u_b1), game.subgame_b1.payoff_b)
    if p0 <= _DEGENERATE_BRANCH:
        fb2 = payoff_expectation(evolve_two_player(gamma, u_a, u_b2), game.subgame_b2.payoff_b)
    return bayesian_payoffs_circuit(psi, game, fallback_b1=fb1, fallback_b2=fb2)


def no_signaling_check(dist: np.ndarray, tol: float = 1e-9) -> bool:
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
