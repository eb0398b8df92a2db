"""The Bayesian row search and its re-check against A's full column maximum.

``find_ne_bayesian_row`` and ``sweep._recheck`` take A's best deviation
``max_a p * T1[a, b1] + (1 - p) * T2[a, b2]`` in full only where rounding
bounds cannot decide it.  ``reference_row_search`` below is the search
without bounds, which takes that maximum for every candidate; every case
here must give its records and payoffs bit for bit.
"""

import math
import re

import numpy as np
import pytest

from qgame.equilibrium import (
    BayesianTables,
    EquilibriumRecord,
    bayesian_tables,
    find_ne_bayesian_row,
)
from qgame.games import builtin_bayesian
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import _recheck, gamma_grid, p_grid

from conftest import custom_bayesian

PI = math.pi


def reference_row_search(tables: BayesianTables, p_values) -> list[list[tuple]]:
    """Each p's records as (profile, payoffs in ``float.hex``), A's best
    deviation taken as the full maximum of its mixture per candidate."""
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n = ta1.shape[0]
    a1, b1_of = np.divmod(tables.br1, n)
    a2, b2_of = np.divmod(tables.br2, n)
    i1, i2 = np.nonzero(a1[:, None] == a2[None, :])
    a, b1, b2 = a1[i1], b1_of[i1], b2_of[i2]
    row = []
    for p in p_values:
        pay_a = p * ta1[a, b1] + (1.0 - p) * ta2[a, b2]
        best = (p * ta1.T[b1] + (1.0 - p) * ta2.T[b2]).max(axis=1)
        keep = np.flatnonzero(pay_a >= best - eps_tie)
        row.append(
            [
                ((int(a[k]), int(b1[k]), int(b2[k])), (pay_a[k].hex(), pay1.hex(), pay2.hex()))
                for k, pay1, pay2 in zip(
                    keep, tables.pay1[i1[keep]].tolist(), tables.pay2[i2[keep]].tolist()
                )
            ]
        )
    return row


def hex_row(row: list[list[EquilibriumRecord]]) -> list[list[tuple]]:
    return [
        [(rec.profile, tuple(float.hex(x) for x in rec.payoffs)) for rec in records]
        for records in row
    ]


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


@pytest.fixture(scope="module")
def grid24():
    return enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))


class TestAgainstFullMaximum:
    def test_every_default_row_at_every_p(self, grid8):
        for gamma in gamma_grid():
            tables = bayesian_tables(builtin_bayesian(), gamma, grid8)
            row = find_ne_bayesian_row(tables, p_grid())
            assert hex_row(row) == reference_row_search(tables, p_grid())

    def test_every_24_grid_row_at_every_p(self, grid24):
        assert gamma_grid()[0] == 0.0
        for gamma in gamma_grid():
            tables = bayesian_tables(builtin_bayesian(), gamma, grid24)
            row = find_ne_bayesian_row(tables, p_grid())
            assert hex_row(row) == reference_row_search(tables, p_grid())

    @pytest.mark.parametrize("gamma", [0.0, 0.45, 1.2])
    def test_custom_game_with_distinct_a_payoffs(self, grid24, gamma):
        tables = bayesian_tables(custom_bayesian(), gamma, grid24)
        assert tables.ta2 is not tables.ta1
        row = find_ne_bayesian_row(tables, p_grid())
        assert hex_row(row) == reference_row_search(tables, p_grid())


# Hand-built tables with eps_tie = 0.25, where every sum below is exact.
# Row a of B1's and B2's lists is the same set of columns, so the
# candidates are (a, b1, b2) for b1, b2 in it: pair (0, 0) has a = 0, 1;
# pair (3, 3) has a = 2; pairs (1, 1), (1, 2), (2, 1), (2, 2) have a = 3.
# At p = 0.5:
# - pair (0, 0): both argmax rows are row 0, so U == L == 1;
# - pair (1, 1): L = 1 and a = 3 pays H = 0.25 < L - eps_tie;
# - pair (2, 2): a = 3 pays H = 0.75, exactly L - eps_tie, so the full
#   maximum decides, and it is 1.25 at row 2: a = 3 is not kept;
# - pair (3, 3): the maximum, 1.25 at row 2, is reached by neither argmax
#   row (L = 1), and a = 2 is kept.
BOUND_COLUMNS = {
    0: ([1.0, 0.5, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]),
    1: ([2.0, 0.0, 1.0, 0.25], [0.0, 2.0, 1.0, 0.25]),
    2: ([2.0, 0.0, 1.25, 0.75], [0.0, 2.0, 1.25, 0.75]),
    3: ([2.0, 0.0, 1.25, 0.75], [0.0, 2.0, 1.25, 0.75]),
}
BOUND_LISTS = {0: [0], 1: [0], 2: [3], 3: [1, 2]}
BOUND_EPS = 0.25


def bound_tables() -> BayesianTables:
    n = len(BOUND_COLUMNS)
    ta1 = np.asfortranarray(np.array([BOUND_COLUMNS[j][0] for j in range(n)]).T)
    ta2 = np.asfortranarray(np.array([BOUND_COLUMNS[j][1] for j in range(n)]).T)
    br = np.array([a * n + b for a in range(n) for b in BOUND_LISTS[a]])
    return BayesianTables(ta1, ta2, br, br * 0.5, br, br * 0.25, np.array(BOUND_EPS))


class TestBoundBranches:
    def test_hand_built_pairs_reach_each_branch(self):
        tables, p, q = bound_tables(), 0.5, 0.5
        ta1, ta2 = tables.ta1, tables.ta2

        def bounds(c1, c2, candidates):
            r1, r2 = ta1[:, c1].argmax(), ta2[:, c2].argmax()
            upper = p * ta1[:, c1].max() + q * ta2[:, c2].max()
            lower = max(p * ta1[r, c1] + q * ta2[r, c2] for r in (r1, r2))
            drop = p * max(ta1[candidates, c1]) + q * max(ta2[candidates, c2])
            best = (p * ta1[:, c1] + q * ta2[:, c2]).max()
            return upper, lower, drop, best

        upper, lower, _, best = bounds(0, 0, [0, 1])
        assert upper == lower == best
        upper, lower, drop, _ = bounds(1, 1, [3])
        assert upper != lower and drop < lower - BOUND_EPS
        upper, lower, drop, best = bounds(2, 2, [3])
        assert upper != lower and drop == lower - BOUND_EPS and best > lower
        upper, lower, drop, best = bounds(3, 3, [2])
        assert upper != lower and drop > lower - BOUND_EPS and best > lower

    def test_hand_built_tables_match_full_maximum(self):
        tables, p_values = bound_tables(), [0.0, 0.25, 0.5, 0.75, 1.0]
        row = find_ne_bayesian_row(tables, p_values)
        assert hex_row(row) == reference_row_search(tables, p_values)
        assert [rec.profile for rec in row[2]] == [(0, 0, 0), (2, 3, 3)]


class TestRecheckBounds:
    def test_record_proved_only_by_the_full_maximum_passes(self):
        # A pays 1.25 at (2, 3, 3): below U - eps_tie = 1.75, within
        # eps_tie of the maximum 1.25.
        record = EquilibriumRecord((2, 3, 3), (1.25, 5.5, 2.75))
        _recheck([[record]], bound_tables(), [0.5])

    def test_record_below_the_upper_bound_and_the_maximum_raises(self):
        # A pays 0.75 at (3, 2, 2), in both B lists, but the maximum is 1.25.
        good = EquilibriumRecord((2, 3, 3), (1.25, 5.5, 2.75))
        bad = EquilibriumRecord((3, 2, 2), (0.75, 7.0, 3.5))
        with pytest.raises(RuntimeError, match=re.escape(f"record {bad.profile} failed")):
            _recheck([[], [good, bad]], bound_tables(), [0.0, 0.5])
