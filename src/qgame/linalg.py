"""Dense complex linear algebra for small qubit registers.

Everything operates on plain numpy arrays: operators are square
``complex128`` matrices of dimension 2, 4, 8, or 16; state vectors are
1-D arrays of the same lengths.  Basis ordering is big-endian: for a
register (q0, q1, ...), q0 is the most significant bit of the basis
index.  A two-qubit state over players (A, B) therefore stores |ab> at
index 2a + b, and the four-qubit register (Q, A, B1, B2) stores
|q a b1 b2> at index 8q + 4a + 2b1 + b2.

All numeric comparisons use absolute tolerances; the default for
algebraic identities is 1e-12.
"""

from __future__ import annotations

import numpy as np

MAX_DIM = 16
DEFAULT_TOL = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def as_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Validate and return a square complex matrix of dimension 2..16.

    Rejects non-square shapes, dimensions that are not powers of two,
    dimensions above 16, and non-finite entries.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dim = m.shape[0]
    if not _is_pow2(dim) or not 2 <= dim <= MAX_DIM:
        raise ValueError(f"{name} dimension must be a power of two in 2..{MAX_DIM}, got {dim}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def state_vector(amplitudes, name: str = "state") -> np.ndarray:
    """Validate and return a complex amplitude vector over 1..4 qubits."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if not _is_pow2(len(psi)) or not 2 <= len(psi) <= MAX_DIM:
        raise ValueError(f"{name} length must be a power of two in 2..{MAX_DIM}, got {len(psi)}")
    if not np.all(np.isfinite(psi.view(float))):
        raise ValueError(f"{name} contains non-finite amplitudes")
    return psi


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product, with the left factor on the more significant qubits.

    (a (x) b)[i*db + k, j*db + l] = a[i, j] * b[k, l] with db = dim(b).
    """
    a = as_matrix(a, "left factor")
    b = as_matrix(b, "right factor")
    if a.shape[0] * b.shape[0] > MAX_DIM:
        raise ValueError(
            f"tensor product dimension {a.shape[0] * b.shape[0]} exceeds {MAX_DIM}"
        )
    return np.kron(a, b)


def embed(op: np.ndarray, targets, n_total: int) -> np.ndarray:
    """Lift ``op`` to an ``n_total``-qubit operator acting on ``targets``.

    The first listed target is the most significant qubit of the
    operator's local ordering; all other qubits get the identity.
    """
    op = as_matrix(op, "operator")
    targets = list(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= n_total for t in targets):
        raise ValueError(f"target qubits {targets} out of range for {n_total} qubits")
    if op.shape[0] != 2 ** len(targets):
        raise ValueError(
            f"operator dim {op.shape[0]} does not match {len(targets)} target qubits"
        )
    if 2**n_total > MAX_DIM:
        raise ValueError(f"register of {n_total} qubits exceeds {MAX_DIM} dimensions")

    rest = [q for q in range(n_total) if q not in targets]
    full = np.kron(op, np.eye(2 ** len(rest), dtype=complex))
    # Row/column axes of ``full`` are ordered (targets..., rest...); permute
    # each side into physical qubit order.
    order = targets + rest
    inv = [order.index(q) for q in range(n_total)]
    tensor = full.reshape([2] * (2 * n_total))
    tensor = tensor.transpose(inv + [n_total + i for i in inv])
    return np.ascontiguousarray(tensor.reshape(2**n_total, 2**n_total))


def apply(op: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Matrix-vector product op @ psi with dimension checking."""
    op = as_matrix(op, "operator")
    psi = state_vector(psi)
    if op.shape[0] != len(psi):
        raise ValueError(f"operator dim {op.shape[0]} does not match state length {len(psi)}")
    return op @ psi


def dagger(op: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(op, dtype=complex).conj().T


def is_unitary(m: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[0])
    return bool(np.max(np.abs(dagger(m) @ m - eye)) < tol)


def phase_equal(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff a = exp(i*delta) * b for some real delta, within ``tol``."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    if abs(b[idx]) <= tol:
        return bool(np.max(np.abs(a)) <= tol)
    if np.max(np.abs(a)) <= tol:
        return False
    c = a[idx] / b[idx]
    if abs(abs(c) - 1.0) > tol:
        return False
    return bool(np.max(np.abs(a - c * b)) <= tol)
