"""End-to-end acceptance suite.

Pins the headline results of the solver on the default configuration:
coarse strategy grid (pi, pi/2, pi/2), tie tolerance 1e-9, sweep step
0.05 with the gamma endpoint clamped to pi/2.  One test per criterion;
the conftest hook prints a PASS/FAIL line for each.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from qgame.circuits import (
    bayesian_payoffs_full_circuit,
    entangler,
    evolve_bayesian_circuit,
    evolve_two_player,
)
from qgame.equilibrium import (
    classify,
    find_ne_two_player,
    two_player_tables,
    verify_records,
)
from qgame.games import builtin_bayesian, builtin_da, builtin_pd, classical_bayesian_ne
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import SweepSpec, gamma_grid, p_grid, run_sweep

from conftest import find_ne_at, is_unitary, records_of, sweep_cell
from test_circuits import reference_bayesian_payoffs_mixture, reference_no_signaling_check

PI = math.pi
EPS_TIE = 1e-9
BOUNDARY_TOL = 0.05 + 1e-9

THETA_E1 = (PI, PI, 0.0)
THETA_E2 = (0.0, PI, 0.0)
THETA_E3 = (PI, PI, PI)
THETA_E4 = (PI, 0.0, PI)


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


@pytest.fixture(scope="module")
def bayes_sweep():
    spec = SweepSpec(
        game=builtin_bayesian(),
        gamma_values=gamma_grid(),
        p_values=p_grid(),
        eps_tie=EPS_TIE,
    )
    return run_sweep(spec, workers=1)


@pytest.fixture(scope="module")
def pd_sweep():
    return run_sweep(SweepSpec(game=builtin_pd(), gamma_values=gamma_grid(), eps_tie=EPS_TIE))


@pytest.fixture(scope="module")
def da_sweep():
    return run_sweep(SweepSpec(game=builtin_da(), gamma_values=gamma_grid(), eps_tie=EPS_TIE))


def classes_with_theta(cell, thetas):
    key = tuple(round(t, 9) for t in thetas)
    return [
        cls
        for cls in cell.classes
        if tuple(round(t, 9) for t in cls.theta_profile) == key
    ]


def occupied_cells(result, thetas):
    key = tuple(round(t, 9) for t in thetas)
    return [
        (c.p, c.gamma)
        for c in result.cells
        for cls in c.classes
        if tuple(round(t, 9) for t in cls.theta_profile) == key
    ]


def assert_box(cells, p_box, gamma_box):
    ps = [c[0] for c in cells]
    gs = [c[1] for c in cells]
    assert cells, "class occupies no cells"
    assert abs(min(ps) - p_box[0]) <= BOUNDARY_TOL, f"p min {min(ps)} vs {p_box[0]}"
    assert abs(max(ps) - p_box[1]) <= BOUNDARY_TOL, f"p max {max(ps)} vs {p_box[1]}"
    assert abs(min(gs) - gamma_box[0]) <= BOUNDARY_TOL, f"gamma min {min(gs)} vs {gamma_box[0]}"
    assert abs(max(gs) - gamma_box[1]) <= BOUNDARY_TOL, f"gamma max {max(gs)} vs {gamma_box[1]}"


def test_c01_strategy_counts():
    assert len(enumerate_strategies(GridSteps(PI, PI / 2, PI / 2))) == 8
    assert len(enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))) == 1824


def test_c02_pd_two_player_sweep(pd_sweep):
    branch = []
    for cell in pd_sweep.cells:
        classes = classes_with_theta(cell, (PI, PI))
        if cell.gamma <= 1.1 + 1e-9:
            assert classes, f"theta=(pi,pi) class missing at gamma={cell.gamma}"
        if cell.gamma >= 1.2 - 1e-9:
            assert not cell.classes, f"unexpected NE at gamma={cell.gamma}"
        if classes:
            branch.append((cell.gamma, classes[0].payoffs))
    assert branch[0][0] == 0.0
    assert branch[0][1] == (6.0, 6.0)
    for (_, prev), (_, cur) in zip(branch, branch[1:]):
        assert cur[0] >= prev[0] - 1e-12
        assert cur[1] >= prev[1] - 1e-12


def test_c03_da_two_player_sweep(da_sweep):
    for cell in da_sweep.cells:
        cc = classes_with_theta(cell, (0.0, 0.0))
        assert len(cc) == 1
        assert cc[0].payoffs == pytest.approx((11.0, 9.0), abs=1e-9)
        dd = classes_with_theta(cell, (PI, PI))
        if cell.gamma <= 0.5 + 1e-9:
            assert not dd, f"theta=(pi,pi) class too early at gamma={cell.gamma}"
        if cell.gamma >= 0.6 - 1e-9:
            assert dd, f"theta=(pi,pi) class missing at gamma={cell.gamma}"
    top = sweep_cell(da_sweep, None, PI / 2)
    for cls in top.classes:
        assert cls.payoffs == pytest.approx((11.0, 9.0), abs=1e-6)
    assert len(top.classes) == 2


def test_c04_classical_anchor_at_gamma_zero(bayes_sweep):
    for p in p_grid():
        cell = sweep_cell(bayes_sweep, p, 0.0)
        if p <= 0.15 + 1e-9:
            assert len(cell.classes) == 1
            assert cell.classes[0].payoffs == pytest.approx(
                (11.0 - 10.0 * p, 10.0, 9.0), abs=1e-9
            )
        if p >= 0.2 - 1e-9:
            assert len(cell.classes) == 1
            assert cell.classes[0].payoffs == pytest.approx(
                (10.0 - 4.0 * p, 6.0, 1.0), abs=1e-9
            )


def test_c05a_region_e1(bayes_sweep):
    # The gamma = 0 row of this theta-profile is the classical branch and is
    # checked against the classical formulas in test_c05e; the entangled
    # region proper is the stated box.
    cells = [c for c in occupied_cells(bayes_sweep, THETA_E1) if c[1] > 1e-12]
    assert_box(cells, (0.7, 1.0), (0.0, 0.55))


def test_c05b_region_e2(bayes_sweep):
    assert_box(occupied_cells(bayes_sweep, THETA_E2), (0.0, 0.15), (0.0, PI / 2))


def test_c05c_region_e3(bayes_sweep):
    assert_box(occupied_cells(bayes_sweep, THETA_E3), (0.0, 1.0), (0.55, 1.1))


# E4's representative profile on the 8-strategy grid is (4, 1, 5): A plays
# (pi, 0, 0), B1 (0, pi/2, 0), B2 (pi, 0, pi/2).  The (A, B1) outcomes are
# P(01) = sin^2 g, P(10) = cos^2 g and the (A, B2) outcomes P(00) = sin^2 g,
# P(11) = cos^2 g, so B1 earns 1 + 9 sin^2 g and B2 earns 9 sin^2 g.  B1's
# best deviation pays 9 - 3 cos^2 g, a margin of 1 - 6 cos^2 g, which is >= 0
# iff g >= arccos(1/sqrt(6)) ~ 1.1503.  Above that edge A's margin is
# 1 + 4 cos^2 g - 6 p and B2's is 3 - 4 cos^2 g >= 7/3.  So E4 is an
# equilibrium iff g >= arccos(1/sqrt(6)) and p <= (1 + 4 cos^2 g) / 6, which
# reaches gamma = pi/2 for p <= 1/6.  There E4's payoffs (11 - 10 p, 10, 9)
# coincide with E2's; classes are keyed by theta-profile, so both are listed.
E4_GAMMA_EDGE = math.acos(1.0 / math.sqrt(6.0))


def e4_p_edge(gamma):
    return (1.0 + 4.0 * math.cos(gamma) ** 2) / 6.0


def test_c05d_region_e4(bayes_sweep):
    cells = occupied_cells(bayes_sweep, THETA_E4)
    assert_box(cells, (0.0, 0.2), (1.2, PI / 2))
    grid = [(c.p, c.gamma) for c in bayes_sweep.cells]
    for p, gamma in grid:
        assert abs(gamma - E4_GAMMA_EDGE) >= 1e-6, f"cell ({p}, {gamma}) on the gamma edge"
        assert abs(p - e4_p_edge(gamma)) >= 1e-6, f"cell ({p}, {gamma}) on the p edge"
    expected = {(p, g) for p, g in grid if g >= E4_GAMMA_EDGE and p <= e4_p_edge(g)}
    assert set(cells) == expected
    for p in (p for p in p_grid() if p <= 0.15 + 1e-9):
        cell = sweep_cell(bayes_sweep, p, PI / 2)
        (e4,) = classes_with_theta(cell, THETA_E4)
        (e2,) = classes_with_theta(cell, THETA_E2)
        assert e4.payoffs == pytest.approx(e2.payoffs, abs=1e-9)
        assert e4.payoffs == pytest.approx((11.0 - 10.0 * p, 10.0, 9.0), abs=1e-9)


def test_c05e_no_ne_cells_and_classical_tail(bayes_sweep):
    assert sweep_cell(bayes_sweep, 0.5, 0.3).classes == ()
    assert sweep_cell(bayes_sweep, 0.5, 1.4).classes == ()
    # gamma = 0 occupancy of the theta=(pi,pi,0) profile must match the
    # classical (D, D, C) branch exactly: present iff p > 1/6 on the grid.
    gamma0 = {
        round(p, 9) for p, g in occupied_cells(bayes_sweep, THETA_E1) if g <= 1e-12
    }
    classical = {
        round(p, 9)
        for p in p_grid()
        if any(profile == (1, 1, 0) for profile, _ in classical_bayesian_ne(p))
    }
    assert gamma0 == classical


def test_c06_e2_payoffs(bayes_sweep):
    cells = {}
    for cell in bayes_sweep.cells:
        for cls in classes_with_theta(cell, THETA_E2):
            assert cls.payoffs[1] == pytest.approx(10.0, abs=1e-9)
            assert cls.payoffs[2] == pytest.approx(9.0, abs=1e-9)
            cells.setdefault(round(cell.gamma, 9), []).append((cell.p, cls.payoffs[0]))
    assert cells
    for gamma, entries in cells.items():
        entries.sort()
        (p0, y0), (p1, y1) = entries[0], entries[-1]
        slope = (y1 - y0) / (p1 - p0)
        assert slope < 0
        for p, y in entries:
            assert abs(y - (y0 + slope * (p - p0))) < 1e-9


PROBE_CELLS = {
    THETA_E1: (0.9, 0.3),
    THETA_E2: (0.1, 0.5),
    THETA_E3: (0.5, 0.8),
    THETA_E4: (0.1, 1.3),
}
EXPECTED_OFFSETS = {
    THETA_E1: (PI / 2, 3 * PI / 2),
    THETA_E2: (0.0, PI),
    THETA_E3: (PI / 2, 3 * PI / 2),
    THETA_E4: (PI / 2, 3 * PI / 2),
}


def test_c07_phase_relations(bayes_sweep):
    # The expected offset sets are negation-symmetric mod 2*pi, so the sum
    # and difference representations must both equal the printed set.
    for thetas, (p, gamma) in PROBE_CELLS.items():
        (cls,) = classes_with_theta(sweep_cell(bayes_sweep, p, gamma), thetas)
        expected = EXPECTED_OFFSETS[thetas]
        for pair in ("A-B1", "A-B2"):
            assert cls.phase_sums[pair] == pytest.approx(expected, abs=1e-9)
            assert cls.phase_diffs[pair] == pytest.approx(expected, abs=1e-9)


def test_c08_mixture_circuit_equivalence(grid8):
    game, us = builtin_bayesian(), grid8.unitaries
    worst = 0.0
    for gamma in (0.0, 0.5, 1.0, PI / 2):
        ta1, tb1 = two_player_tables(game.subgame_b1, gamma, grid8)
        ta2, tb2 = two_player_tables(game.subgame_b2, gamma, grid8)
        for p in (0.0, 0.25, 0.5, 1.0):
            # All 512 profiles (a, b1, b2) in one stacked call.
            circuit = bayesian_payoffs_full_circuit(
                p, gamma, us[:, None, None], us[None, :, None], us[None, None, :], game
            )
            mixture = (
                p * ta1[:, :, None] + (1.0 - p) * ta2[:, None, :],
                tb1[:, :, None],
                tb2[:, None, :],
            )
            for x, y in zip(circuit, mixture):
                worst = max(worst, np.max(np.abs(x - y)))
    assert worst < 1e-9, f"worst mixture/circuit deviation {worst}"


def test_c09a_oracle_equivalence(grid8):
    from test_equilibrium import naive_bayesian_ne

    rng = np.random.default_rng(20240917)
    for _ in range(20):
        p = float(rng.uniform())
        gamma = float(rng.uniform(0.0, PI / 2))
        game = builtin_bayesian()
        fast = {r.profile for r in records_of(find_ne_at(game, gamma, grid8, p, EPS_TIE))}
        assert fast == naive_bayesian_ne(game, gamma, grid8, p, EPS_TIE)


def test_c09b_unitarity_and_normalization(grid8):
    for u in grid8.unitaries:
        assert is_unitary(u, 1e-12)
    for gamma in (0.0, 0.7, 1.3, PI / 2):
        assert is_unitary(entangler(gamma), 1e-12)
    rng = np.random.default_rng(5)
    for _ in range(25):
        ua, ub1, ub2 = (grid8.unitaries[i] for i in rng.integers(0, 8, 3))
        gamma = float(rng.uniform(0.0, PI / 2))
        assert abs(np.linalg.norm(evolve_two_player(gamma, ua, ub1)) - 1) < 1e-12
        psi = evolve_bayesian_circuit(float(rng.uniform()), gamma, ua, ub1, ub2)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12


def test_c09c_global_phase_invariance(grid8):
    game = builtin_bayesian()
    us = [grid8.unitaries[4], grid8.unitaries[5], grid8.unitaries[0]]
    base = reference_bayesian_payoffs_mixture(0.4, 0.9, *us, game)
    for delta in (PI / 7, 1.0, 3.0):
        for player in range(3):
            shifted = list(us)
            shifted[player] = np.exp(1j * delta) * shifted[player]
            out = reference_bayesian_payoffs_mixture(0.4, 0.9, *shifted, game)
            assert np.max(np.abs(np.array(out) - np.array(base))) < 1e-12


def test_c09d_no_signaling_of_entangled_distributions(grid8):
    for gamma in (0.0, 0.7, PI / 2):
        base = entangler(gamma)[:, 0]
        ua = [grid8.unitaries[1], grid8.unitaries[4]]
        ub = [grid8.unitaries[5], grid8.unitaries[2]]
        dist = np.zeros((2, 2, 2, 2))
        for x, y in product(range(2), repeat=2):
            probs = np.abs(np.kron(ua[x], ub[y]) @ base) ** 2
            for a, b in product(range(2), repeat=2):
                dist[a, b, x, y] = probs[2 * a + b]
        assert reference_no_signaling_check(dist, EPS_TIE)


def test_c09e_found_equilibria_pass_independent_verification(grid8):
    for p, gamma in ((0.9, 0.3), (0.1, 0.5), (0.5, 0.8), (0.1, 1.3), (0.1, PI / 2)):
        game = builtin_bayesian()
        records = find_ne_at(game, gamma, grid8, p, EPS_TIE)
        assert records
        assert all(verify_records(records, game, gamma, grid8, EPS_TIE, (p,)))


def test_c10_performance(bayes_sweep):
    assert bayes_sweep.elapsed < 10.0, f"default 2-D sweep took {bayes_sweep.elapsed:.1f}s"
    start = time.perf_counter()
    fine = enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))
    records = find_ne_two_player(builtin_pd(), 1.0, fine, EPS_TIE)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"1824-strategy solve took {elapsed:.1f}s"
    (classes,) = classify(records, fine)
    assert len(classes) == 1
    assert classes[0].theta_profile == (PI, PI)
    assert classes[0].phase_sums["A-B"] == pytest.approx((PI / 2, 3 * PI / 2))
