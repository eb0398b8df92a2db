import math

import numpy as np
import pytest

from qgame.circuits import StrategyParams
from qgame.strategies import (
    DEFAULT_GRID,
    GridSteps,
    canonicalize,
    enumerate_strategies,
    pauli_label,
)

from conftest import is_unitary

PI = math.pi


class TestGridSteps:
    def test_valid_default(self):
        steps = DEFAULT_GRID
        assert (steps.n_theta, steps.n_phi, steps.n_alpha) == (1, 4, 4)

    def test_fine_grid_counts(self):
        steps = GridSteps(PI / 8, PI / 8, PI / 8)
        assert (steps.n_theta, steps.n_phi, steps.n_alpha) == (8, 16, 16)

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError, match="does not divide"):
            GridSteps(1.0, PI / 2, PI / 2)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            GridSteps(0.0, PI / 2, PI / 2)

    def test_rejects_grid_above_strategy_cap(self):
        # pi/32 divides every range but gives 127,104 strategies.
        with pytest.raises(ValueError, match="127104 strategies"):
            GridSteps(PI / 32, PI / 32, PI / 32)

    def test_rejects_step_too_small_to_count(self):
        with pytest.raises(ValueError, match="too small"):
            GridSteps(5e-324, PI / 2, PI / 2)


class TestCanonicalize:
    def test_alpha_undefined_at_theta_zero(self):
        s = canonicalize(StrategyParams(0.0, PI / 2, 3 * PI / 2))
        assert (s.theta, s.phi, s.alpha) == (0.0, PI / 2, 0.0)

    def test_phi_undefined_at_theta_pi(self):
        s = canonicalize(StrategyParams(PI, PI / 2, PI / 4))
        assert (s.theta, s.phi, s.alpha) == (PI, 0.0, PI / 4)

    def test_mod_two_pi_reduction(self):
        s = canonicalize(StrategyParams(PI / 2, 2 * PI, 2 * PI))
        assert (s.theta, s.phi, s.alpha) == (PI / 2, 0.0, 0.0)


class TestEnumerate:
    def test_coarse_count(self):
        assert len(enumerate_strategies(DEFAULT_GRID)) == 8

    def test_fine_count(self):
        assert len(enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))) == 1824

    def test_fine_count_formula(self):
        # 7 interior theta values x 16 phi x 16 alpha, plus 16 each at the poles
        assert 7 * 16 * 16 + 16 + 16 == 1824

    @pytest.mark.parametrize(
        "steps",
        [
            DEFAULT_GRID,
            GridSteps(PI / 2, PI / 2, PI / 2),
            GridSteps(PI / 8, PI / 8, PI / 8),
            GridSteps(PI / 4, PI / 2, PI),
            GridSteps(PI / 3, 2 * PI, PI / 4),
        ],
    )
    def test_n_strategies_matches_enumeration(self, steps):
        assert steps.n_strategies == len(enumerate_strategies(steps))

    def test_two_point_grid(self):
        # Oracle: by hand, theta in {0, pi} with phi = alpha = 0 gives the
        # identity and the real spin flip.
        sset = enumerate_strategies(GridSteps(PI, 2 * PI, 2 * PI))
        assert len(sset) == 2
        assert np.allclose(sset.unitaries[0], np.eye(2))
        assert np.allclose(sset.unitaries[1], [[0, 1], [-1, 0]])

    def test_idempotent_under_canonicalize(self):
        sset = enumerate_strategies(DEFAULT_GRID)
        assert [canonicalize(s) for s in sset.params] == list(sset.params)

    def test_matrices_pairwise_distinct(self):
        for steps in (DEFAULT_GRID, GridSteps(PI / 8, PI / 8, PI / 8)):
            us = enumerate_strategies(steps).unitaries
            flat = np.round(us.reshape(len(us), 4), 10)
            keys = {tuple(row) for row in flat.view(float).reshape(len(us), 8)}
            assert len(keys) == len(us)

    def test_all_unitary(self):
        us = enumerate_strategies(GridSteps(PI / 4, PI / 2, PI / 2)).unitaries
        for u in us:
            assert is_unitary(u, 1e-12)

    def test_deterministic_order(self):
        a = enumerate_strategies(DEFAULT_GRID)
        b = enumerate_strategies(DEFAULT_GRID)
        assert a.params == b.params

    def test_coarse_set_is_two_phase_variants_per_pauli(self):
        sset = enumerate_strategies(DEFAULT_GRID)
        by_symbol = {}
        for u in sset.unitaries:
            label = pauli_label(u)
            assert label is not None
            by_symbol.setdefault(label[0], []).append(u)
        assert sorted(by_symbol) == ["I", "X", "Y", "Z"]
        for us in by_symbol.values():
            assert len(us) == 2
            # us[0] = c * us[1] with |c| = 1; the Frobenius norm of a 2x2 unitary is sqrt(2)
            c = np.vdot(us[1], us[0]) / 2.0
            assert abs(abs(c) - 1.0) < 1e-12
            assert np.max(np.abs(us[0] - c * us[1])) < 1e-12


class TestPauliLabel:
    def test_x_variant(self):
        sym, phase = pauli_label(np.array([[0, 1j], [1j, 0]]))
        assert sym == "X"
        assert phase == pytest.approx(1j, abs=1e-12)

    def test_z_variant(self):
        sym, phase = pauli_label(np.diag([-1j, 1j]))
        assert sym == "Z"
        assert phase == pytest.approx(-1j, abs=1e-12)

    def test_generic_rotation_has_no_label(self):
        from qgame.circuits import strategy_unitary

        assert pauli_label(strategy_unitary(StrategyParams(PI / 2, 0.0, 0.0))) is None


class TestPerIndexFacts:
    def test_match_direct_computation_on_24_grid(self):
        sset = enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))
        for s, u, phase, name in zip(
            sset.params, sset.unitaries, sset.free_phases, sset.pauli_names
        ):
            label = pauli_label(u)
            assert name == (label[0] if label else None)
            if s.theta == 0.0:
                assert phase == s.phi
            elif s.theta == PI:
                assert phase == s.alpha
            else:
                assert phase is None and name is None
