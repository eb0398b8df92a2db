import math
import tracemalloc

import numpy as np
import pytest

from qgame.circuits import StrategyParams, strategy_unitary
from qgame.equilibrium import _describe, _strategy_facts, two_player_tables
from qgame.games import builtin_pd
from qgame.strategies import (
    DEFAULT_GRID,
    GridSteps,
    enumerate_strategies,
    wrap_angles,
)

from conftest import is_unitary

PI = math.pi

PAULIS = (
    ("I", np.eye(2, dtype=complex)),
    ("X", np.array([[0, 1], [1, 0]], dtype=complex)),
    ("Y", np.array([[0, -1j], [1j, 0]], dtype=complex)),
    ("Z", np.array([[1, 0], [0, -1]], dtype=complex)),
)


def reference_pauli_label(u: np.ndarray, tol: float = 1e-10) -> tuple[str, complex] | None:
    """Express ``u`` as c * P for a Pauli matrix P and unimodular c, if
    possible, by matching the matrix entries within ``tol``."""
    u = np.asarray(u, dtype=complex)
    for name, pauli in PAULIS:
        idx = np.unravel_index(np.argmax(np.abs(pauli)), pauli.shape)
        c = u[idx] / pauli[idx]
        if abs(abs(c) - 1.0) > tol:
            continue
        if np.max(np.abs(u - c * pauli)) <= tol:
            return name, complex(c)
    return None


def reference_wrap_angle(value: float) -> float:
    """Reduce an angle to [0, 2*pi), snapping values within 1e-9 of 2*pi to 0."""
    w = math.fmod(value, 2.0 * PI)
    if w < 0.0:
        w += 2.0 * PI
    if 2.0 * PI - w < 1e-9:
        w = 0.0
    return w


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
        assert a.codes.tobytes() == b.codes.tobytes()
        assert a.angles.tobytes() == b.angles.tobytes()

    def test_coarse_set_is_two_phase_variants_per_pauli(self):
        sset = enumerate_strategies(DEFAULT_GRID)
        by_symbol = {}
        for u in sset.unitaries:
            label = reference_pauli_label(u)
            assert label is not None
            by_symbol.setdefault(label[0], []).append(u)
        assert sorted(by_symbol) == ["I", "X", "Y", "Z"]
        for us in by_symbol.values():
            assert len(us) == 2
            # us[0] = c * us[1] with |c| = 1; the Frobenius norm of a 2x2 unitary is sqrt(2)
            c = np.vdot(us[1], us[0]) / 2.0
            assert abs(abs(c) - 1.0) < 1e-12
            assert np.max(np.abs(us[0] - c * us[1])) < 1e-12


def reference_unitary(s: StrategyParams) -> np.ndarray:
    """One strategy's unitary built entry by entry from its angles."""
    c = math.cos(s.theta / 2.0)
    sn = math.sin(s.theta / 2.0)
    return np.array(
        [
            [np.exp(-1j * s.phi) * c, np.exp(1j * s.alpha) * sn],
            [-np.exp(-1j * s.alpha) * sn, np.exp(1j * s.phi) * c],
        ]
    )


def reference_canonical(theta: float, phi: float, alpha: float) -> StrategyParams:
    """A grid point from its float angles alone: phases reduced mod 2*pi,
    and the one theta leaves undefined (alpha at 0, phi at pi) zeroed."""
    if theta < 1e-9:
        return StrategyParams(theta, reference_wrap_angle(phi), 0.0)
    if PI - theta < 1e-9:
        return StrategyParams(theta, 0.0, reference_wrap_angle(alpha))
    return StrategyParams(theta, reference_wrap_angle(phi), reference_wrap_angle(alpha))


def reference_enumeration(steps: GridSteps):
    """The grid built from float angles, deduplicated on their values
    rounded to 12 places: its angles and one ``reference_unitary`` per
    strategy."""
    seen = {}
    for i in range(steps.n_theta + 1):
        theta = PI if i == steps.n_theta else i * steps.d_theta
        for j in range(steps.n_phi):
            for k in range(steps.n_alpha):
                s = reference_canonical(theta, j * steps.d_phi, k * steps.d_alpha)
                key = (round(s.theta, 12), round(s.phi, 12), round(s.alpha, 12))
                seen.setdefault(key, s)
    params = [seen[key] for key in sorted(seen)]
    return (
        np.array([(s.theta, s.phi, s.alpha) for s in params]),
        np.stack([reference_unitary(s) for s in params]),
    )


class TestEnumerateBitForBit:
    @pytest.mark.parametrize(
        "steps,count",
        [
            (DEFAULT_GRID, 8),
            (GridSteps(PI / 4, PI / 2, PI / 2), 56),
            (GridSteps(PI / 8, PI / 8, PI / 8), 1824),
            (GridSteps(PI / 16, PI / 16, PI / 16), 15424),
            (GridSteps(PI / 4, PI / 4, PI / 6), 308),
        ],
        ids=["8", "56", "1824", "15424", "phi8-alpha12"],
    )
    def test_matches_one_unitary_per_strategy(self, steps, count):
        sset = enumerate_strategies(steps)
        angles, unitaries = reference_enumeration(steps)
        assert len(sset) == count
        assert sset.codes.shape == (count, 3)
        assert sset.angles.dtype == angles.dtype
        assert sset.angles.tobytes() == angles.tobytes()
        assert sset.unitaries.dtype == unitaries.dtype
        assert sset.unitaries.tobytes() == unitaries.tobytes()

    def test_one_strategy_matches_reference_off_grid(self):
        rng = np.random.default_rng(7)
        for theta, phi, alpha in rng.uniform(0.0, 1.0, size=(50, 3)) * (PI, 2 * PI, 2 * PI):
            s = StrategyParams(float(theta), float(phi), float(alpha))
            assert strategy_unitary(s).tobytes() == reference_unitary(s).tobytes()

    def test_pole_heavy_grid_is_built_from_its_poles(self):
        # theta is 0 or pi alone, so every strategy sits on a pole: 4096 phi
        # values at theta = 0 and 4096 alpha values at pi.  The full code
        # product would hold 2 x 4096 x 4096 points.
        steps = GridSteps(PI, 2 * PI / 4096, 2 * PI / 4096)
        tracemalloc.start()
        try:
            sset = enumerate_strategies(steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        j, zero = np.arange(4096), np.zeros(4096, dtype=int)
        codes = np.concatenate(
            [np.column_stack([zero, j, zero]), np.column_stack([zero + 1, zero, j])]
        )
        angles = np.array(
            [(0.0, f * steps.d_phi, 0.0) for f in range(4096)]
            + [(PI, 0.0, a * steps.d_alpha) for a in range(4096)]
        )
        assert len(sset) == steps.n_strategies == 8192
        assert np.array_equal(sset.codes, codes)
        assert sset.angles.tobytes() == angles.tobytes()


class TestPauliLabel:
    def test_x_variant(self):
        sym, phase = reference_pauli_label(np.array([[0, 1j], [1j, 0]]))
        assert sym == "X"
        assert phase == pytest.approx(1j, abs=1e-12)

    def test_z_variant(self):
        sym, phase = reference_pauli_label(np.diag([-1j, 1j]))
        assert sym == "Z"
        assert phase == pytest.approx(-1j, abs=1e-12)

    def test_generic_rotation_has_no_label(self):
        assert reference_pauli_label(strategy_unitary(StrategyParams(PI / 2, 0.0, 0.0))) is None


def test_wrap_angles_matches_the_scalar_reference_bit_for_bit():
    tau = 2.0 * PI
    edges = [0.0, -0.0, tau, -tau, 3 * tau, tau - 1e-9, tau - 2e-9, -1e-10, -5e-10, 1e-300]
    rng = np.random.default_rng(7)
    values = np.array(edges + list(rng.uniform(-4 * tau, 4 * tau, 2000)))
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    expected = [reference_wrap_angle(v).hex() for v in values.tolist()]
    assert [v.hex() for v in wrap_angles(values).tolist()] == expected


def code_rule_names(sset) -> list[str | None]:
    """Each strategy's Pauli name by the code rule, read off the operator
    label that ``_describe`` gives the one-member class (i, i), every
    class described from one set of per-strategy arrays."""
    facts = _strategy_facts(sset)
    labels = (_describe(np.array([[i, i]]), facts)[3] for i in range(len(sset)))
    return [None if label is None else label.split("⊗")[0] for label in labels]


def oracle_names(sset) -> list[str | None]:
    labels = map(reference_pauli_label, sset.unitaries)
    return [None if label is None else label[0] for label in labels]


PHASE_COUNTS = (1, 2, 3, 4, 6, 7, 8, 12, 16)


class TestPerIndexFacts:
    def test_match_direct_computation_on_24_grid(self):
        sset = enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))
        names = code_rule_names(sset)
        assert names == oracle_names(sset)
        for (theta, _, _), name in zip(sset.angles.tolist(), names):
            assert (name is None) == (theta not in (0.0, PI))

    @pytest.mark.parametrize("n_phi", PHASE_COUNTS)
    def test_quarter_turn_rule_matches_matrix_matching(self, n_phi):
        # Every strategy of the grids with n_phi phi steps and each alpha
        # step count: a pole code is named exactly when the float matcher
        # finds a Pauli matrix, and by the same name.
        for n_alpha in PHASE_COUNTS:
            sset = enumerate_strategies(GridSteps(PI / 2, 2 * PI / n_phi, 2 * PI / n_alpha))
            assert code_rule_names(sset) == oracle_names(sset), (n_phi, n_alpha)


# Grids for the gauge map: the default 8, 24 and 1824 strategies, and one
# with d_phi != d_alpha (8 and 12 steps), whose map has gcd(8, 12) = 4 rows.
GAUGE_GRIDS = [
    DEFAULT_GRID,
    GridSteps(PI / 2, PI / 2, PI / 2),
    GridSteps(PI / 8, PI / 8, PI / 8),
    GridSteps(PI / 4, PI / 4, PI / 6),
]


class TestGaugeShift:
    @pytest.mark.parametrize("steps", GAUGE_GRIDS, ids=["8", "24", "1824", "phi8-alpha12"])
    def test_each_row_turns_every_strategy_by_the_gauge(self, steps):
        sset = enumerate_strategies(steps)
        shift, turns = sset.gauge_shift, math.gcd(steps.n_phi, steps.n_alpha)
        assert shift.shape == (turns, len(sset))
        chi = 2 * PI / turns
        for k, row in enumerate(shift):
            assert sorted(row.tolist()) == list(range(len(sset)))
            turn = np.diag([np.exp(-1j * k * chi), np.exp(1j * k * chi)])
            # Both sides carry the rounding of e^{i phi} at angles up to
            # 2*pi, which reaches 1.2e-15 on the 1824 grid.
            assert np.abs(sset.unitaries[row] - sset.unitaries @ turn).max() <= 2e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.7, PI / 2])
    def test_opposite_turns_leave_payoff_tables_unchanged(self, gamma):
        # J(gamma)|00> lies in span{|00>, |11>}, where e^{-i chi Z} (x) e^{i chi Z}
        # is the identity, so A turning by k and B by -k changes no payoff.
        sset = enumerate_strategies(GridSteps(PI / 4, PI / 4, PI / 6))
        shift, turns = sset.gauge_shift, len(sset.gauge_shift)
        for table in two_player_tables(builtin_pd(), gamma, sset):
            for k in range(turns):
                turned = table[np.ix_(shift[k], shift[(turns - k) % turns])]
                assert np.abs(turned - table).max() < 1e-12
