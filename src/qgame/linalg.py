"""Pauli matrices, operator embedding and a unitarity test for qubit registers.

Operators and states are plain numpy arrays; the circuit code calls
numpy directly.  Basis ordering is big-endian: for a register
(q0, q1, ...), q0 is the most significant bit of the basis index.  A
two-qubit state over players (A, B) therefore stores |ab> at index
2a + b, and the four-qubit register (Q, A, B1, B2) stores |q a b1 b2>
at index 8q + 4a + 2b1 + b2.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def embed(op: np.ndarray, targets, n_total: int) -> np.ndarray:
    """Lift ``op`` to an ``n_total``-qubit operator acting on ``targets``.

    The first listed target is the most significant qubit of the
    operator's local ordering; all other qubits get the identity.
    """
    op = np.asarray(op, dtype=complex)
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= n_total for t in targets):
        raise ValueError(f"target qubits {targets} out of range for {n_total} qubits")
    if op.shape != (2 ** len(targets),) * 2:
        raise ValueError(
            f"operator shape {op.shape} does not match {len(targets)} target qubits"
        )

    rest = [q for q in range(n_total) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # Row/column axes of ``full`` are ordered (targets..., rest...); permute
    # each side into physical qubit order.
    order = targets + rest
    inv = [order.index(q) for q in range(n_total)]
    tensor = full.reshape([2] * (2 * n_total))
    tensor = tensor.transpose(inv + [n_total + i for i in inv])
    return np.ascontiguousarray(tensor.reshape(2**n_total, 2**n_total))


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(m.conj().T @ m - eye)) < tol)
