import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgame.circuits import StrategyParams, entangler, strategy_unitary
from qgame.linalg import PAULI_X, embed, is_unitary

I2 = np.eye(2, dtype=complex)

angles = st.floats(min_value=0.0, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9, allow_nan=False)


def random_unitary(theta, phi, alpha):
    return strategy_unitary(StrategyParams(theta, phi, alpha))


class TestEmbed:
    def test_single_qubit_definition(self):
        assert np.allclose(embed(PAULI_X, [0], 2), np.kron(PAULI_X, I2))

    def test_identity_case(self):
        assert np.allclose(embed(np.eye(8), [0, 1, 2], 4), np.eye(16))

    def test_matches_kron_composition(self):
        j = entangler(0.8)
        expected = np.kron(I2, np.kron(j, I2))
        assert np.max(np.abs(embed(j, [1, 2], 4) - expected)) < 1e-15

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            embed(entangler(0.3), [1, 1], 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            embed(entangler(0.3), [0], 3)

    def test_agrees_with_direct_index_arithmetic(self):
        # Oracle: scatter the local operator over amplitudes by hand.
        rng = np.random.default_rng(3)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        op = entangler(0.9)
        for targets in ([0, 1], [1, 3], [2, 0], [3, 1]):
            expected = _direct_apply(op, targets, psi)
            assert np.max(np.abs(embed(op, targets, 4) @ psi - expected)) < 1e-14


def _direct_apply(op, targets, psi):
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


class TestUnitarityInvariants:
    @settings(max_examples=25, deadline=None)
    @given(angles, phases, phases, angles, phases, phases)
    def test_kron_embed_dagger_preserve_unitarity(self, t1, p1, a1, t2, p2, a2):
        u = random_unitary(t1, p1, a1)
        v = random_unitary(t2, p2, a2)
        assert is_unitary(np.kron(u, v), 1e-12)
        assert is_unitary(embed(u, [1], 3), 1e-12)
        assert is_unitary(u.conj().T, 1e-12)
