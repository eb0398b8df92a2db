"""Gamma rows searched as one stacked table set.

``bayesian_tables`` stacks a block of gamma rows by column and
``find_ne_bayesian_row`` searches and re-checks the block at once, cell
``g * len(p_values) + i`` holding p_values[i] at the block's g-th gamma.
Each gamma's GEMMs keep one row's shapes, so the stacked tables, and the
records and payoffs of every block size, must equal those of one row at
a time byte for byte.  ``run_sweep`` takes as many rows per block as keep
``G * n * n`` within ``_COLUMN_BLOCK``; the tests patch that bound so
that each row is a block, that all rows are one, and that the last block
is partial.
"""

import math

import numpy as np
import pytest

from qgame import equilibrium, sweep
from qgame.equilibrium import RecordSet, bayesian_tables, find_ne_bayesian_row
from qgame.games import builtin_bayesian
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import SweepSpec, gamma_grid, p_grid, run_sweep

from conftest import custom_bayesian

PI = math.pi
GRIDS = {
    8: DEFAULT_GRID,
    24: GridSteps(PI / 2, PI / 2, PI / 2),
    56: GridSteps(PI / 4, PI / 2, PI / 2),
}
GAMES = {"builtin": builtin_bayesian, "custom": custom_bayesian}


@pytest.fixture(scope="module", params=sorted(GRIDS), ids=lambda n: f"grid{n}")
def sset(request):
    grid = enumerate_strategies(GRIDS[request.param])
    assert len(grid) == request.param
    return grid


def row_by_row(game, gammas, sset, p_values) -> RecordSet:
    """The records of each gamma's own one-row table set, joined in gamma order."""
    rows = [find_ne_bayesian_row(bayesian_tables(game, g, sset), p_values) for g in gammas]
    return RecordSet(
        np.concatenate([row.cell + k * len(p_values) for k, row in enumerate(rows)]),
        np.concatenate([row.profiles for row in rows]),
        np.concatenate([row.payoffs for row in rows]),
        len(rows) * len(p_values),
    )


def assert_same_bytes(got: RecordSet, expected: RecordSet) -> None:
    assert got.n_cells == expected.n_cells
    for name in ("cell", "profiles", "payoffs"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def swept_records(spec: SweepSpec, monkeypatch) -> tuple[RecordSet, list[int]]:
    """The joined records ``run_sweep`` hands to ``classify``, and the row
    count of each block it searched."""
    joined, blocks = [], []
    search, classify = sweep.find_ne_bayesian_row, sweep.classify

    def counted(tables, p_values):
        blocks.append(tables.ta1.shape[1] // tables.ta1.shape[0])
        return search(tables, p_values)

    def kept(records, grid):
        joined.append(records)
        return classify(records, grid)

    monkeypatch.setattr(sweep, "find_ne_bayesian_row", counted)
    monkeypatch.setattr(sweep, "classify", kept)
    run_sweep(spec)
    (records,) = joined
    return records, blocks


class TestStackedTables:
    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_slices_equal_one_row_tables(self, sset, game):
        n, gammas = len(sset), gamma_grid()[::3]
        stacked = bayesian_tables(GAMES[game](), gammas, sset)
        assert stacked.ta1.shape == (n, len(gammas) * n) and stacked.ta1.flags.f_contiguous
        assert (stacked.ta2 is stacked.ta1) == (game == "builtin")
        assert (stacked.top2 is stacked.top1) == (game == "builtin")
        rows = [bayesian_tables(GAMES[game](), g, sset) for g in gammas]
        for g, row in enumerate(rows):
            cols = slice(g * n, (g + 1) * n)
            for name in ("ta1", "ta2"):
                assert getattr(stacked, name)[:, cols].tobytes() == getattr(row, name).tobytes()
            for name in ("top1", "top2"):
                assert getattr(stacked, name)[cols].tobytes() == getattr(row, name).tobytes()
        for br, pay in (("br1", "pay1"), ("br2", "pay2")):
            expected = np.concatenate([getattr(r, br) + g * n * n for g, r in enumerate(rows)])
            assert getattr(stacked, br).tobytes() == expected.tobytes()
            expected = np.concatenate([getattr(r, pay) for r in rows])
            assert getattr(stacked, pay).tobytes() == expected.tobytes()

    def test_an_empty_block_is_refused(self, sset):
        for gammas in ([], (), np.empty(0)):
            with pytest.raises(ValueError, match="gamma must hold at least one angle"):
                bayesian_tables(builtin_bayesian(), gammas, sset)

    def test_one_gamma_is_a_block_of_one(self, sset):
        one = bayesian_tables(builtin_bayesian(), 0.7, sset)
        block = bayesian_tables(builtin_bayesian(), [0.7], sset)
        for a, b in zip(one, block):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBlockSizes:
    @pytest.mark.parametrize("game", sorted(GAMES))
    @pytest.mark.parametrize("rows", [1, 5, 32], ids=["row", "partial", "whole"])
    def test_sweep_records_equal_row_by_row(self, sset, game, rows, monkeypatch):
        # 32 rows per block are the whole sweep; 5 leave a last block of 2.
        n, p_values = len(sset), p_grid(0.1)
        expected = row_by_row(GAMES[game](), gamma_grid(), sset, p_values)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", rows * n * n)
        spec = SweepSpec(GAMES[game](), gamma_grid(), p_values, sset.steps)
        records, blocks = swept_records(spec, monkeypatch)
        assert blocks == [rows] * (32 // rows) + [32 % rows] * (32 % rows > 0)
        assert_same_bytes(records, expected)

    def test_default_bound_gives_the_documented_blocks(self, sset, monkeypatch):
        # 8 and 24 strategies: one block; 56: 20 rows, then a partial 12.
        spec = SweepSpec(builtin_bayesian(), gamma_grid(), p_grid(), sset.steps)
        records, blocks = swept_records(spec, monkeypatch)
        assert blocks == {8: [32], 24: [32], 56: [20, 12]}[len(sset)]
        assert_same_bytes(records, row_by_row(builtin_bayesian(), gamma_grid(), sset, p_grid()))


class TestGaugeHintsOnStackedBlocks:
    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_hints_on_a_stacked_block_match_row_by_row(self, game, monkeypatch):
        # Tables built at the default bound; a 16-entry bound then holds one
        # column per block of the 24 grid, so the hints take every open pair.
        sset = enumerate_strategies(GRIDS[24])
        n, gammas, p_values = len(sset), gamma_grid()[::4], p_grid()
        tables = bayesian_tables(GAMES[game](), gammas, sset)
        expected = row_by_row(GAMES[game](), gammas, sset, p_values)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 16)
        spans, hints = [], equilibrium._gauge_hints

        def counted(tables, per_pair, exact, *rest):
            spans.append(np.unique(per_pair[0][exact] // n))
            hints(tables, per_pair, exact, *rest)

        monkeypatch.setattr(equilibrium, "_gauge_hints", counted)
        assert_same_bytes(find_ne_bayesian_row(tables, p_values), expected)
        # The hints ran on pairs of more than one gamma of the block.
        assert any(len(gs) > 1 for gs in spans)

    def test_records_do_not_depend_on_the_map_on_a_stacked_block(self, monkeypatch):
        sset = enumerate_strategies(GRIDS[24])
        gammas, p_values = gamma_grid()[::4], p_grid(0.2)
        tables = bayesian_tables(custom_bayesian(), gammas, sset)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 16)
        gauge = find_ne_bayesian_row(tables, p_values)
        identity = np.tile(np.arange(len(sset), dtype=np.int32), (len(tables.shift), 1))
        assert_same_bytes(find_ne_bayesian_row(tables._replace(shift=identity), p_values), gauge)
