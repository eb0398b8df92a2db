"""EWL-protocol circuit evaluation and expected payoffs.

Two-player circuit: |psi_f> = J(gamma)^dag (U_A (x) U_B) J(gamma) |00>,
with basis index 2a + b and payoffs as Born-rule expectations over the
outcome distribution.

Bayesian circuit: a four-qubit register (Q, A, B1, B2), basis index
8q + 4a + 2b1 + b2.  The control qubit Q is prepared from p as
cos(x)|0> - sin(x)|1> with x = asin(sqrt(p)), then two controlled
entanglers act: one entangles (A, B1) on the Q = |1> branch, the other
entangles (A, B2) on the Q = |0> branch.  Both are block diagonal in Q
and commute.  Measuring Q selects the subgame: q = 1 plays (A, B1),
q = 0 plays (A, B2), so the probability of facing B1 is p.  The two
branches never interfere, so no phase of the control can change a
payoff and none is a parameter.

Strategy unitaries take three angles (theta, phi, alpha):

    U = [[exp(-i phi) cos(theta/2),  exp(i alpha) sin(theta/2)],
         [-exp(-i alpha) sin(theta/2), exp(i phi) cos(theta/2)]]

The entangler J(gamma) has cos(gamma/2) on the diagonal and
+/- i sin(gamma/2) on the anti-diagonal; gamma = 0 is the classical
limit (J = I), gamma = pi/2 maps |00> to the Bell state
(|00> + i |11>)/sqrt(2).

The evolution and payoff functions also take stacks of strategies: 2x2
matrices with leading batch axes that broadcast against each other.  A
stack gives each of its profiles the same bits as a call on that profile
alone, and one non-finite, non-unitary or misshapen matrix fails the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .games import BayesianGame, check_probability

TAU = 2.0 * math.pi

_DEGENERATE_BRANCH = 1e-12
_NORM_TOL = 1e-12
_UNITARY_TOL = 1e-12


def _check_angle(value: float, lo: float, hi: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value) or not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo:.6g}, {hi:.6g}], got {value}")
    return value


@dataclass(frozen=True)
class StrategyParams:
    """The (theta, phi, alpha) triple parametrizing one player's strategy.

    theta in [0, pi]; phi and alpha in [0, 2*pi].  At theta = 0 alpha is
    undefined and at theta = pi phi is undefined.
    """

    theta: float
    phi: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        _check_angle(self.theta, 0.0, math.pi, "theta")
        _check_angle(self.phi, 0.0, TAU, "phi")
        _check_angle(self.alpha, 0.0, TAU, "alpha")


def strategy_unitaries(theta, phi, alpha) -> np.ndarray:
    """U(theta, phi, alpha) of every strategy, from three angle columns, as
    one (n, 2, 2) array:
    [[e^{-i phi} cos(theta/2), e^{i alpha} sin(theta/2)],
     [-e^{-i alpha} sin(theta/2), e^{i phi} cos(theta/2)]].

    Each cosine, sine and phase factor is evaluated once per distinct angle,
    as a Python float, so the bits do not depend on numpy's vector kernels.
    """
    thetas, t = np.unique(theta, return_inverse=True)
    phases, at = np.unique(np.concatenate([phi, alpha]), return_inverse=True)
    f, a = np.split(at, 2)
    half = [x / 2.0 for x in thetas.tolist()]
    c = np.array([math.cos(x) for x in half])[t]
    sn = np.array([math.sin(x) for x in half])[t]
    minus = np.array([np.exp(-1j * x) for x in phases.tolist()])
    plus = np.array([np.exp(1j * x) for x in phases.tolist()])
    u = np.empty((len(t), 2, 2), dtype=complex)
    u[:, 0, 0] = minus[f] * c
    u[:, 0, 1] = plus[a] * sn
    u[:, 1, 0] = -minus[a] * sn
    u[:, 1, 1] = plus[f] * c
    return u


def strategy_unitary(s: StrategyParams) -> np.ndarray:
    return strategy_unitaries([s.theta], [s.phi], [s.alpha])[0]


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
    """StrategyParams, or a 2x2 matrix or stack of them (leading batch axes).

    Every matrix of a stack must be finite and unitary, max |U^dag U - I|
    within 1e-12; one bad matrix fails the whole call.
    """
    if isinstance(u, StrategyParams):
        return strategy_unitary(u)
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise ValueError(f"strategy matrix must be 2x2, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("strategy matrix contains non-finite entries")
    # U^dag U has |u00|^2 + |u10|^2 and |u01|^2 + |u11|^2 on its diagonal and
    # conj(u00) u01 + conj(u10) u11 and its conjugate off it.
    m = u.reshape(-1, 2, 2)
    squares = np.abs(m) ** 2
    diagonal = squares[:, 0] + squares[:, 1]
    off = m[:, 0, 0].conj() * m[:, 0, 1] + m[:, 1, 0].conj() * m[:, 1, 1]
    error = max(np.abs(diagonal - 1.0).max(initial=0.0), np.abs(off).max(initial=0.0))
    if not error <= _UNITARY_TOL:
        raise ValueError(f"strategy matrix is not unitary within {_UNITARY_TOL:g}")
    return u


# Stacked evaluation.  The public functions below take stacks of
# strategies (leading batch axes, broadcast against each other) and return
# states with the state index last.  Each element of a stack goes through
# the same elementwise operations as it would alone and so rounds exactly
# alike: complex products are formed from real parts (numpy's complex
# multiply may fuse a multiply-add in its vector loops), and sums run in
# index order rather than through BLAS or numpy reductions, whose order
# depends on memory layout.  The circuits work on planar arrays: axis 0
# holds the real and imaginary parts, then come the qubit or matrix axes,
# and the stack runs last, so numpy's inner loops run contiguously along it.


def _planar(z: np.ndarray) -> np.ndarray:
    return np.array((z.real, z.imag))


def _cmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise complex product of two planar arrays."""
    out = np.empty((2,) + np.broadcast(x[0], y[0]).shape)
    re, im = out
    np.multiply(x[0], y[0], out=re)
    re -= x[1] * y[1]
    np.multiply(x[0], y[1], out=im)
    im += x[1] * y[0]
    return out


def _sum_first(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis in index order."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _probabilities(psi: np.ndarray) -> np.ndarray:
    return psi.real**2 + psi.imag**2


def _on_qubit(u: np.ndarray, psi: np.ndarray, k: int) -> np.ndarray:
    """Apply planar ``u`` (2, 2, 2, stack) to qubit k of planar states
    ``psi`` (2, 2, .., 2, stack); the qubit's axis is swapped to the front
    and back."""
    psi = psi.swapaxes(1, k + 1)
    u = u.reshape(u.shape[:3] + (1,) * (psi.ndim - 3) + u.shape[3:])
    terms = _cmul(u, psi[:, None])
    return (terms[:, :, 0] + terms[:, :, 1]).swapaxes(1, k + 1)


def _sparse_rows(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A square operator as (columns, values): row i's nonzero entries are
    op[i, columns[i, j]] = values[i, j] in column order, padded with zeros.

    Values are planar (2, d, m).  A skipped zero entry contributes an exact
    zero to a product's sum, so skipping it does not change the sum.
    """
    width = max(1, int((op != 0).sum(axis=1).max()))
    columns = np.zeros((len(op), width), dtype=int)
    values = np.zeros((len(op), width), dtype=complex)
    for i, row in enumerate(op):
        nonzero = np.flatnonzero(row)
        columns[i, : len(nonzero)] = nonzero
        values[i, : len(nonzero)] = row[nonzero]
    return columns, _planar(values)


def _apply(op: tuple[np.ndarray, np.ndarray], psi: np.ndarray) -> np.ndarray:
    """op @ psi for planar states ``psi`` (2, d, stack) and an operator in
    the form of ``_sparse_rows``."""
    columns, values = op
    return _sum_first(np.moveaxis(_cmul(values[..., None], psi[:, columns]), 2, 0))


def _checked_norm(psi: np.ndarray) -> np.ndarray:
    """Planar states (2, d, stack) whose every norm is within 1e-12 of 1."""
    # Written so that a NaN norm fails too.
    if not (np.abs(np.sqrt((psi**2).sum(axis=(0, 1))) - 1.0) <= _NORM_TOL).all():
        raise RuntimeError("state norm drifted beyond 1e-12 during evolution")
    return psi


def _evolve(psi0: np.ndarray, strategies, op: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """op (I (x) U_1 (x) .. (x) U_m) psi0 for checked stacks of strategies U_i.

    ``psi0`` is one n-qubit state as a planar (2, 2, .., 2, 1) array,
    ``op`` is in the form of ``_sparse_rows``, and strategy i acts on
    qubit n - m + i.  Returns the states as (batch..., 2**n).
    """
    n = psi0.ndim - 2
    batch = np.broadcast_shapes(*(u.shape[:-2] for u in strategies))
    psi = psi0
    for k, u in enumerate(strategies, start=n - len(strategies)):
        flat = np.broadcast_to(u, batch + (2, 2)).reshape(-1, 2, 2)
        psi = _on_qubit(_planar(flat.transpose(1, 2, 0)), psi, k)
    psi = _checked_norm(_apply(op, psi.reshape(2, 2**n, -1)))
    out = np.empty(psi.shape[1:], dtype=complex)
    out.real, out.imag = psi
    return _state_last(out.reshape((2**n,) + batch))


def _state_last(psi: np.ndarray) -> np.ndarray:
    """(d, batch...) states as the public (batch..., d) view."""
    return psi.transpose(tuple(range(1, psi.ndim)) + (0,))


def _state_first(psi: np.ndarray) -> np.ndarray:
    return psi.transpose((psi.ndim - 1,) + tuple(range(psi.ndim - 1)))


def _value(x):
    """A float for a single profile, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


@lru_cache(maxsize=64)
def _entangled_pair(gamma: float):
    """J|00> as a planar (2, 2, 2, 1) amplitude array (A's qubit first), and
    J^dag in the form of ``_sparse_rows``."""
    j = entangler(gamma)
    return _planar(j[:, 0].reshape(2, 2, 1)), _sparse_rows(j.conj().T)


def evolve_two_player(gamma: float, u_a, u_b) -> np.ndarray:
    """Final two-qubit state J^dag (U_A (x) U_B) J |00>, or a stack of them.

    ``u_a`` and ``u_b`` may be stacks of 2x2 matrices; their batch axes
    broadcast, and the states come back with the state index last.
    """
    return _two_player_states(gamma, _as_unitary(u_a), _as_unitary(u_b))


def _two_player_states(gamma: float, u_a: np.ndarray, u_b: np.ndarray) -> np.ndarray:
    psi, j_dag = _entangled_pair(float(gamma))
    return _evolve(psi, (u_a, u_b), j_dag)


def payoff_expectation(psi: np.ndarray, payoff):
    """Born-rule expectation sum_j |psi_j|^2 * payoff_j over 1 to 4 qubits.

    ``psi`` holds one state or a stack (state index last); the result is
    a float or an array of the stack's shape.
    """
    psi = np.asarray(psi, dtype=complex)
    length = psi.shape[-1] if psi.ndim else 1
    if psi.ndim == 0 or length not in (2, 4, 8, 16):
        raise ValueError(f"state length must be 2, 4, 8 or 16, got {length}")
    if not np.isfinite(psi).all():
        raise ValueError("state contains non-finite amplitudes")
    vec = np.asarray(payoff, dtype=float)
    if vec.shape != (length,):
        raise ValueError(
            f"payoff vector length {vec.shape} does not match state length {(length,)}"
        )
    probs = _probabilities(_state_first(psi))
    return _value(_sum_first(probs * vec.reshape(vec.shape + (1,) * (psi.ndim - 1))))


def bayesian_payoffs_mixture(p: float, gamma: float, u_a, u_b1, u_b2, game: BayesianGame):
    """Payoffs from the statistical mixture of the two subgame circuits.

    A's payoff is p-weighted across the subgames at the same gamma; each
    B player receives its conditional subgame expectation, which does
    not depend on p or on the other B player's strategy.  Strategies may
    be stacks; each payoff is then an array over all their batch axes.
    """
    p = check_probability(p)
    u_a, u_b1, u_b2 = (_as_unitary(u) for u in (u_a, u_b1, u_b2))
    full = np.broadcast_shapes(u_a.shape, u_b1.shape, u_b2.shape)
    # Both subgames in one stacked evolution: A against B1, then against B2.
    psi1, psi2 = _two_player_states(
        gamma, u_a, np.array([np.broadcast_to(u_b1, full), np.broadcast_to(u_b2, full)])
    )
    pay_a = p * payoff_expectation(psi1, game.subgame_b1.payoff_a) + (
        1.0 - p
    ) * payoff_expectation(psi2, game.subgame_b2.payoff_a)
    pay_b1 = payoff_expectation(psi1, game.subgame_b1.payoff_b)
    pay_b2 = payoff_expectation(psi2, game.subgame_b2.payoff_b)
    return pay_a, pay_b1, pay_b2


@lru_cache(maxsize=64)
def _controlled_entanglers(gamma: float):
    """The 16x16 product J2 J1 of the controlled entanglers, and its dagger
    in the form of ``_sparse_rows``.

    J1 = blockdiag(I8, J (x) I2): entangles (A, B1) when Q = |1>.
    J2 = blockdiag(J on (A, B2), I8): entangles (A, B2) when Q = |0>.
    They act on orthogonal Q branches and must commute; this is asserted
    once per gamma.
    """
    j_b1 = np.kron(entangler(gamma), np.eye(2))
    # The same operator on (A, B2): swap the B1 and B2 axes of rows and columns.
    j_b2 = j_b1.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    j1 = np.eye(16, dtype=complex)
    j1[8:, 8:] = j_b1
    j2 = np.eye(16, dtype=complex)
    j2[:8, :8] = j_b2
    if np.max(np.abs(j1 @ j2 - j2 @ j1)) > 1e-12:
        raise RuntimeError("controlled entanglers failed to commute")
    both = j2 @ j1
    return both, _sparse_rows(both.conj().T)


def evolve_bayesian_circuit(p: float, gamma: float, u_a, u_b1, u_b2) -> np.ndarray:
    """Final four-qubit state of the controlled-entangler circuit.

    J1^dag J2^dag (I_Q (x) U_A (x) U_B1 (x) U_B2) J2 J1 |c>|000>, with the
    control |c> = cos(x)|0> - sin(x)|1> and x = asin(sqrt(p)).  Strategies
    may be stacks; the states come back with the state index last.
    """
    x = math.asin(math.sqrt(check_probability(p)))
    entangle, disentangle = _controlled_entanglers(float(gamma))
    psi = np.zeros(16, dtype=complex)
    psi[0] = math.cos(x)
    psi[8] = -math.sin(x)
    psi = _planar((entangle @ psi).reshape(2, 2, 2, 2, 1))
    return _evolve(psi, [_as_unitary(u) for u in (u_a, u_b1, u_b2)], disentangle)


# Two-player outcome 2a + b of each four-qubit basis state 8q + 4a + 2b1 + b2:
# (A, B1) on the q = 1 half, (A, B2) on the q = 0 half.
_BASIS = np.arange(16)
_PD_OUTCOME = (2 * ((_BASIS >> 2) & 1) + ((_BASIS >> 1) & 1))[8:]
_DA_OUTCOME = (2 * ((_BASIS >> 2) & 1) + (_BASIS & 1))[:8]


def bayesian_payoffs_full_circuit(p: float, gamma: float, u_a, u_b1, u_b2, game: BayesianGame):
    """Evolve the four-qubit circuit and read off payoffs.

    A's payoff sums PD payoffs over the q = 1 outcomes and DA payoffs
    over q = 0.  Each B player's payoff is the expectation on its own
    branch divided by the branch's measured weight.  Where p leaves a
    branch empty (weight p or 1 - p within 1e-12) that conditional is
    undefined, and the B player gets its two-player subgame expectation,
    the conditional's continuous limit; only then does the two-player
    evolution run.  Strategies may be stacks; each payoff is then an array.
    """
    psi = evolve_bayesian_circuit(p, gamma, u_a, u_b1, u_b2)
    probs = _probabilities(_state_first(psi))
    column = (1,) * (psi.ndim - 1)

    def vector(payoff, outcome):
        return np.asarray(payoff, dtype=float)[outcome].reshape((len(outcome),) + column)

    pd, da = game.subgame_b1, game.subgame_b2
    a_vec = np.concatenate([vector(da.payoff_a, _DA_OUTCOME), vector(pd.payoff_a, _PD_OUTCOME)])
    pays = [_sum_first(probs * a_vec)]
    for weight, sub, u_b, branch, outcome in (
        (p, pd, u_b1, probs[8:], _PD_OUTCOME),
        (1.0 - p, da, u_b2, probs[:8], _DA_OUTCOME),
    ):
        if weight <= _DEGENERATE_BRANCH:
            limit = payoff_expectation(evolve_two_player(gamma, u_a, u_b), sub.payoff_b)
            pays.append(np.array(np.broadcast_to(limit, probs.shape[1:])))
        else:
            pays.append(
                _sum_first(branch * vector(sub.payoff_b, outcome)) / _sum_first(branch)
            )
    return tuple(_value(x) for x in pays)


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
