"""The Bayesian row search and its re-check against A's full column maximum.

``find_ne_bayesian_row`` and its re-check ``_recheck`` take A's best deviation
``max_a p * T1[a, b1] + (1 - p) * T2[a, b2]`` in full only where rounding
bounds cannot decide it, and the search keeps a row's candidates with one
2-D test per group of p.  ``reference_row_search`` below is the search
without bounds, one p at a time, which takes that maximum for every
candidate's (b1, b2); every case here must give its records and payoffs
bit for bit, read straight off the search's arrays.
"""

import math
import re

import numpy as np
import pytest

from qgame.equilibrium import (
    BayesianTables,
    EquilibriumRecord,
    RecordSet,
    _recheck,
    bayesian_tables,
    find_ne_bayesian_row,
)
from qgame import equilibrium
from qgame.games import builtin_bayesian
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import gamma_grid, p_grid

from conftest import custom_bayesian, records_of

PI = math.pi


def reference_row_search(tables: BayesianTables, p_values) -> list[list[tuple]]:
    """Each p's records as (profile, payoffs in ``float.hex``), A's best
    deviation taken as the full maximum of its mixture per candidate,
    formed once per distinct (b1, b2)."""
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n = ta1.shape[0]
    a1, b1_of = np.divmod(tables.br1, n)
    a2, b2_of = np.divmod(tables.br2, n)
    # Entry i1 of B1's list meets the entries lo..hi of B2's with the same a.
    lo, hi = np.searchsorted(a2, a1, "left"), np.searchsorted(a2, a1, "right")
    i1 = np.repeat(np.arange(len(a1)), hi - lo)
    i2 = np.concatenate([np.arange(x, y) for x, y in zip(lo, hi)] + [np.arange(0)])
    a, b1, b2 = a1[i1], b1_of[i1], b2_of[i2]
    pairs, pair_of = np.unique(b1 * n + b2, return_inverse=True)
    c1, c2 = np.divmod(pairs, n)
    row = []
    for p in p_values:
        pay_a = p * ta1[a, b1] + (1.0 - p) * ta2[a, b2]
        best = np.array([(p * ta1.T[x] + (1.0 - p) * ta2.T[y]).max() for x, y in zip(c1, c2)])
        keep = np.flatnonzero(pay_a >= best[pair_of] - eps_tie)
        row.append(
            [
                ((int(a[k]), int(b1[k]), int(b2[k])), (pay_a[k].hex(), pay1.hex(), pay2.hex()))
                for k, pay1, pay2 in zip(
                    keep, tables.pay1[i1[keep]].tolist(), tables.pay2[i2[keep]].tolist()
                )
            ]
        )
    return row


def hex_row(row: RecordSet) -> list[list[tuple]]:
    """Each cell's records as (profile, payoffs in ``float.hex``), read off
    the arrays, which must be in (cell, profile) order."""
    assert row.profiles.dtype == np.int64 and row.payoffs.dtype == np.float64
    assert len(row.cell) == len(row.profiles) == len(row.payoffs)
    assert np.all(np.diff(row.cell) >= 0)
    cells = [[] for _ in range(row.n_cells)]
    for c, profile, payoffs in zip(row.cell.tolist(), row.profiles.tolist(), row.payoffs.tolist()):
        cells[c].append((tuple(profile), tuple(map(float.hex, payoffs))))
    for records in cells:
        assert [profile for profile, _ in records] == sorted({profile for profile, _ in records})
    return cells


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


@pytest.fixture(scope="module")
def grid24():
    return enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))


@pytest.fixture(scope="module")
def pi8():
    return enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))


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

    def test_pi8_gamma_zero_row_at_a_coarse_p_step(self, pi8):
        # 466,944 candidates, so only a few p values fit one 2-D test.
        tables = bayesian_tables(builtin_bayesian(), 0.0, pi8)
        p_values = p_grid(0.25)
        row = find_ne_bayesian_row(tables, p_values)
        assert len(row) > 0 and row.n_cells == len(p_values)
        assert hex_row(row) == reference_row_search(tables, p_values)

    @pytest.mark.parametrize("share", [3, 0.4])
    def test_small_triple_block_splits_the_keep_test(self, grid24, monkeypatch, share):
        # A budget of 3 rows' candidates gives groups of 3 p values; one of
        # 0.4 of them also splits the candidates into blocks of rows of a.
        tables = bayesian_tables(custom_bayesian(), 0.0, grid24)
        n = len(grid24)
        counts = [np.bincount(br // n, minlength=n) for br in (tables.br1, tables.br2)]
        triples = int((counts[0] * counts[1]).sum())
        monkeypatch.setattr(equilibrium, "_TRIPLE_BLOCK", int(share * triples))
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
    top1, top2 = ta1.argmax(axis=0), ta2.argmax(axis=0)
    identity = np.arange(n)[None, :]
    return BayesianTables(
        ta1, ta2, top1, top2, br, br * 0.5, br, br * 0.25, np.array(BOUND_EPS), identity
    )


def count_hints(monkeypatch) -> list[int]:
    """Record how many pairs each call of the search's gauge-hint stage takes."""
    calls, hints = [], equilibrium._gauge_hints

    def counted(tables, per_pair, exact, *rest):
        calls.append(len(exact))
        hints(tables, per_pair, exact, *rest)

    monkeypatch.setattr(equilibrium, "_gauge_hints", counted)
    return calls


@pytest.fixture(scope="module")
def fine_row(pi8):
    """The pi/8 row at gamma index 28, whose pairs stay open at p = 0.2 and 0.4."""
    return bayesian_tables(builtin_bayesian(), gamma_grid()[28], pi8)


def other_maps(shift: np.ndarray) -> list[np.ndarray]:
    """Maps of the same shape that are not the gauge: a random permutation
    per turn, and the identity for every turn."""
    rng = np.random.default_rng(7)
    identity = np.tile(np.arange(shift.shape[1], dtype=shift.dtype), (len(shift), 1))
    return [rng.permuted(identity, axis=1), identity]


class TestGaugeHints:
    def test_pi8_fine_row_matches_full_maximum(self, fine_row, monkeypatch):
        calls = count_hints(monkeypatch)
        row = find_ne_bayesian_row(fine_row, p_grid(0.2))
        assert calls and max(calls) > 1000
        assert hex_row(row) == reference_row_search(fine_row, p_grid(0.2))

    @pytest.mark.parametrize("grid", ["grid8", "grid24"])
    def test_every_row_with_small_column_blocks(self, grid, request, monkeypatch):
        # A block of 16 entries holds 2 columns of the 8 grid, 1 of the 24
        # grid, so the hints run on these small rows.
        sset = request.getfixturevalue(grid)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 16)
        calls = count_hints(monkeypatch)
        entered = 0
        for gamma in gamma_grid():
            before = len(calls)
            tables = bayesian_tables(builtin_bayesian(), gamma, sset)
            row = find_ne_bayesian_row(tables, p_grid())
            assert hex_row(row) == reference_row_search(tables, p_grid())
            entered += len(calls) > before
        assert entered == len(gamma_grid()) if grid == "grid8" else entered > 0

    def test_records_do_not_depend_on_the_map_on_a_pi8_row(self, pi8, monkeypatch):
        # The golden fine row's gamma: records at every p, and pairs that
        # the hints leave open at p = 0.2, 0.4 and 0.6.
        tables = bayesian_tables(builtin_bayesian(), gamma_grid()[14], pi8)
        calls = count_hints(monkeypatch)
        gauge = hex_row(find_ne_bayesian_row(tables, p_grid(0.2)))
        assert gauge == reference_row_search(tables, p_grid(0.2))
        per_search = len(calls)
        for shift in other_maps(tables.shift):
            row = find_ne_bayesian_row(tables._replace(shift=shift), p_grid(0.2))
            assert hex_row(row) == gauge
        assert per_search > 0 and len(calls) == 3 * per_search

    def test_records_do_not_depend_on_the_map_on_small_blocks(self, grid24, monkeypatch):
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 16)
        calls = count_hints(monkeypatch)
        for gamma in gamma_grid()[::4]:
            tables = bayesian_tables(custom_bayesian(), gamma, grid24)
            gauge = hex_row(find_ne_bayesian_row(tables, p_grid()))
            for shift in other_maps(tables.shift):
                row = find_ne_bayesian_row(tables._replace(shift=shift), p_grid())
                assert hex_row(row) == gauge
        assert calls


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
        assert row.in_cell(2).profiles.tolist() == [[0, 0, 0], [2, 3, 3]]


class TestRecheckBounds:
    def test_record_proved_only_by_the_full_maximum_passes(self):
        # A pays 1.25 at (2, 3, 3): below U - eps_tie = 1.75, within
        # eps_tie of the maximum 1.25.
        record = EquilibriumRecord((2, 3, 3), (1.25, 5.5, 2.75))
        _recheck(RecordSet.of([record]), bound_tables(), [0.5])

    @pytest.mark.parametrize("gamma", [0.45, 1.2])
    def test_every_other_candidate_fails_with_distinct_a_tables(self, grid24, gamma):
        # Each table's own column maxima bound A's best deviation; a
        # candidate in both B lists that the search drops fails on A alone.
        tables = bayesian_tables(custom_bayesian(), gamma, grid24)
        assert tables.ta2 is not tables.ta1
        found = {rec.profile for rec in records_of(find_ne_bayesian_row(tables, [0.5]))}
        n = len(grid24)
        dropped = [
            (a, b1 % n, b2 % n)
            for b1 in tables.br1.tolist()
            for b2 in tables.br2.tolist()
            if (a := b1 // n) == b2 // n and (a, b1 % n, b2 % n) not in found
        ]
        assert dropped
        for bad in dropped:
            record = RecordSet.of([EquilibriumRecord(bad, (0.0, 0.0, 0.0))])
            with pytest.raises(RuntimeError, match=re.escape(f"record {bad} failed")):
                _recheck(record, tables, [0.5])

    def test_record_below_the_upper_bound_and_the_maximum_raises(self):
        # A pays 0.75 at (3, 2, 2), in both B lists, but the maximum is 1.25.
        good = EquilibriumRecord((2, 3, 3), (1.25, 5.5, 2.75))
        bad = EquilibriumRecord((3, 2, 2), (0.75, 7.0, 3.5))
        one = RecordSet.of([good, bad])
        # Cell 0 (p = 0) is empty; both records lie in cell 1 (p = 0.5).
        records = RecordSet(one.cell + 1, one.profiles, one.payoffs, n_cells=2)
        with pytest.raises(RuntimeError, match=re.escape(f"record {bad.profile} failed")):
            _recheck(records, bound_tables(), [0.0, 0.5])
