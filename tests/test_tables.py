"""Payoff tables built in blocks against the whole matrix product.

Every table is built from blocks of one stacked real GEMM
(``equilibrium._table_blocks``), from cores built for a block of gammas
at once (``equilibrium._born_cores``); ``reference_born_core`` below is
one gamma's core on its own, and ``whole_gemm_table`` one gamma's whole
product in one call.  A block's entries are the same dot products as the
whole product's, so the tables, A's argmax rows and the B players'
best-response lists must equal the whole product's byte for byte, each
gamma's slice of a stacked block its own, in both orientations, at the
default block size and at others.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qgame import equilibrium
from qgame.circuits import entangler
from qgame.equilibrium import (
    _born_cores,
    _born_factors,
    _in_sorted,
    _payoff_table,
    _best_responses,
    _table_blocks,
    bayesian_tables,
)
from qgame.games import builtin_bayesian
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import gamma_grid

from conftest import custom_bayesian

PI = math.pi
GAMMAS = [0.0, 0.7, 1.15, PI / 2]
GRIDS = {
    8: DEFAULT_GRID,
    24: GridSteps(PI / 2, PI / 2, PI / 2),
    56: GridSteps(PI / 4, PI / 2, PI / 2),
    208: GridSteps(PI / 4, PI / 4, PI / 4),
    1824: GridSteps(PI / 8, PI / 8, PI / 8),
}


def reference_born_core(j: np.ndarray, payoff) -> np.ndarray:
    """One gamma's 16x16 core, built on its own from its entangler ``j``."""
    v = j[:, 0]
    rho = np.outer(v, v.conj()).reshape(2, 2, 2, 2)
    m = ((j * np.asarray(payoff, dtype=float)) @ j.conj().T).reshape(2, 2, 2, 2)
    return np.einsum("cgdh,bfae->abcdefgh", rho, m).reshape(16, 16)


def stacked_cores(gammas, payoff) -> np.ndarray:
    return _born_cores(np.stack([entangler(g) for g in gammas]), payoff)


def whole_gemm_table(factors, core, columns: bool) -> np.ndarray:
    """T = Re(X C X^T) as one whole real GEMM, column-major with ``columns``."""
    real, x = factors
    xc = x @ core
    left = np.hstack([xc.real, -xc.imag])
    return (real @ left.T).T if columns else left @ real.T


def reference_best_responses(tb: np.ndarray, eps_tie: float):
    idx = np.flatnonzero(tb >= tb.max(axis=1, keepdims=True) - eps_tie)
    return idx, tb.ravel()[idx]


@pytest.fixture(scope="module", params=sorted(GRIDS), ids=lambda n: f"grid{n}")
def sset(request):
    grid = enumerate_strategies(GRIDS[request.param])
    assert len(grid) == request.param
    return grid


def payoff_vectors():
    """Every distinct payoff vector of the built-in and the custom game."""
    vectors = {}
    for game in (builtin_bayesian(), custom_bayesian()):
        for sub in (game.subgame_b1, game.subgame_b2):
            for vec in (sub.payoff_a, sub.payoff_b):
                vectors[tuple(vec)] = np.asarray(vec, dtype=float)
    return list(vectors.values())


def block_rows(steps) -> list[int]:
    """The row count of each block that ``_table_blocks`` cuts a table of
    the grid ``steps`` into."""
    factors = _born_factors(enumerate_strategies(steps))
    cores = stacked_cores([0.7], payoff_vectors()[0])
    return [rows.stop - rows.start for rows, _ in _table_blocks(factors, cores, columns=False)]


def assert_tables_match_whole_gemm(tables, game, gammas, sset):
    """Each gamma's slice of a block's tables and lists equals its own
    whole product, and its own best-response lists, byte for byte."""
    factors, n = _born_factors(sset), len(sset)
    subgames = (game.subgame_b1, game.subgame_b2)
    assert tables.ta1.shape == (n, len(gammas) * n)
    assert tables.ta1.flags.f_contiguous and tables.ta2.flags.f_contiguous
    lists = ((tables.br1, tables.pay1), (tables.br2, tables.pay2))
    for g, j in enumerate(entangler(gamma) for gamma in gammas):
        cols = slice(g * n, (g + 1) * n)
        for ta, top, sub in zip((tables.ta1, tables.ta2), (tables.top1, tables.top2), subgames):
            expected = whole_gemm_table(factors, reference_born_core(j, sub.payoff_a), columns=True)
            assert ta[:, cols].tobytes("A") == expected.tobytes("A")
            assert top[cols].tobytes() == expected.T.argmax(axis=1).tobytes()
        for (idx, pay), sub in zip(lists, subgames):
            tb = whole_gemm_table(factors, reference_born_core(j, sub.payoff_b), columns=False)
            expected_idx, expected_pay = reference_best_responses(tb, float(tables.eps_tie))
            mine = (idx >= g * n * n) & (idx < (g + 1) * n * n)
            assert (idx[mine] - g * n * n).tobytes() == expected_idx.tobytes()
            assert pay[mine].tobytes() == expected_pay.tobytes()
    for idx, _ in lists:
        assert (np.diff(idx) > 0).all() and 0 <= idx.min() and idx.max() < len(gammas) * n * n


class TestStackedCores:
    def test_cores_equal_one_gamma_cores(self):
        # Every angle of the sweep, every payoff vector: the stacked outer
        # product, J diag(payoff) J^dag and Born einsum keep each gamma's bits.
        gammas = gamma_grid()
        for vec in payoff_vectors():
            cores = stacked_cores(gammas, vec)
            assert cores.shape == (len(gammas), 16, 16)
            for core, gamma in zip(cores, gammas):
                assert core.tobytes() == reference_born_core(entangler(gamma), vec).tobytes()


class TestBlockBuiltTables:
    @pytest.mark.parametrize("gamma", GAMMAS)
    def test_payoff_tables_equal_the_whole_product(self, sset, gamma):
        factors, j = _born_factors(sset), entangler(gamma)
        for vec in payoff_vectors():
            core = reference_born_core(j, vec)
            for columns in (True, False):
                table, top = _payoff_table(factors, stacked_cores([gamma], vec), columns)
                expected = whole_gemm_table(factors, core, columns)
                assert table.flags.f_contiguous if columns else table.flags.c_contiguous
                assert table.tobytes("A") == expected.tobytes("A")
                # Argmax rows of the columns, or argmax columns of the rows.
                lines = expected.T if columns else expected
                assert top.tobytes() == lines.argmax(axis=1).tobytes()

    @pytest.mark.parametrize("gamma", GAMMAS)
    @pytest.mark.parametrize("game", [builtin_bayesian, custom_bayesian])
    def test_bayesian_tables_equal_the_whole_product(self, sset, gamma, game):
        tables = bayesian_tables(game(), gamma, sset)
        assert (tables.ta2 is tables.ta1) == (game is builtin_bayesian)
        assert (tables.top2 is tables.top1) == (tables.ta2 is tables.ta1)
        assert_tables_match_whole_gemm(tables, game(), [gamma], sset)

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("game", [builtin_bayesian, custom_bayesian])
    def test_stacked_blocks_equal_each_gammas_whole_product(self, n, game):
        # Every gamma of the sweep in one call: one block of whole tables
        # of 32 gammas on both grids, each gamma's slice its own product.
        grid = enumerate_strategies(GRIDS[n])
        gammas = gamma_grid()
        cores = stacked_cores(gammas, payoff_vectors()[0])
        blocks = list(_table_blocks(_born_factors(grid), cores, columns=False))
        assert [rows for rows, _ in blocks] == [slice(0, len(gammas) * n)]
        tables = bayesian_tables(game(), gammas, grid)
        assert_tables_match_whole_gemm(tables, game(), gammas, grid)

    @pytest.mark.parametrize("block", [1 << 13, 14_000, 1 << 14, 1 << 17, 1 << 20])
    def test_other_block_sizes_give_the_same_bytes(self, block, monkeypatch):
        # Five blocks of 32 rows and one of 48, two of 64 and one of 80, one
        # of 72 and one of 136, and one block for the whole table, on the
        # 208 grid; a block of the four gammas' whole tables holds 3 of them
        # at 1 << 17 (then one) and all 4 at 1 << 20.
        grid = enumerate_strategies(GRIDS[208])
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", block)
        for gamma in GAMMAS:
            tables = bayesian_tables(custom_bayesian(), gamma, grid, 1e-6)
            assert_tables_match_whole_gemm(tables, custom_bayesian(), [gamma], grid)
        tables = bayesian_tables(custom_bayesian(), GAMMAS, grid, 1e-6)
        assert_tables_match_whole_gemm(tables, custom_bayesian(), GAMMAS, grid)

    @pytest.mark.parametrize("block", [None, 1 << 13, 14_000])
    def test_large_tables_are_cut_at_multiples_of_eight_rows(self, block, monkeypatch):
        # BLAS kernels work through rows in groups of up to 8: under
        # OpenBLAS's Haswell kernel a block of 35 rows of the 1824 grid
        # rounds some last bits unlike the whole product.
        if block is not None:
            monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", block)
        rows = block_rows(GRIDS[1824])
        assert len(rows) > 1 and sum(rows) == 1824
        assert all(count % 8 == 0 for count in rows)

    @pytest.mark.parametrize("n", [8, 24, 208])
    def test_small_tables_are_one_block(self, n):
        assert block_rows(GRIDS[n]) == [n]

    def test_table_build_holds_one_table_and_a_block(self):
        # bayesian_tables of one pi/8 row (gamma index 28): A's one table of
        # n x n floats, never a whole B table.
        grid = enumerate_strategies(GRIDS[1824])
        n = len(grid)
        tracemalloc.start()
        try:
            tables = bayesian_tables(builtin_bayesian(), gamma_grid()[28], grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tables.ta2 is tables.ta1
        assert peak < 1.125 * n * n * 8

    @pytest.mark.parametrize("n", [56, 208])
    @pytest.mark.parametrize("game", [builtin_bayesian, custom_bayesian])
    def test_stacked_build_holds_no_whole_b_tables(self, n, game, monkeypatch):
        # Every gamma of the sweep in one call: blocks of 20 gammas' whole
        # tables on the 56 grid, one gamma's table per block on the 208
        # grid.  Until A's first table is allocated the build holds the B
        # lists, and after it what it returns, besides one block of entries,
        # its gammas' operands X C_g and [Re XC_g, -Im XC_g] (64 floats per
        # strategy and gamma, about another block on the 56 grid) and the
        # call's cores (a quarter block): up to 2.13 blocks on these grids.
        # Holding the call's 32 whole B tables reads 3.4 blocks on the 56
        # grid and 22 on the 208 grid.
        grid = enumerate_strategies(GRIDS[n])
        lists_peak, payoff_table = [], equilibrium._payoff_table

        def first_a_table(*args, **kwargs):
            if not lists_peak:
                lists_peak.append(tracemalloc.get_traced_memory()[1])
            return payoff_table(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "_payoff_table", first_a_table)
        tracemalloc.start()
        try:
            tables = bayesian_tables(game(), gamma_grid(), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = equilibrium._COLUMN_BLOCK * 8
        lists = sum(a.nbytes for a in (tables.br1, tables.pay1, tables.br2, tables.pay2))
        a_tables = {id(a): a.nbytes for a in tables[:4]}  # ta2 and top2 may be ta1 and top1
        assert lists_peak[0] < lists + 2.5 * block
        assert peak < lists + sum(a_tables.values()) + 2.5 * block


def reduce_hand_built(table: np.ndarray, rows_per_block: int, eps_tie: float, monkeypatch):
    """``_best_responses`` of ``table``, fed to it in blocks of rows."""

    def blocks(factors, core, columns, out=None):
        for start in range(0, len(table), rows_per_block):
            rows = slice(start, start + rows_per_block)
            yield rows, table[rows]

    monkeypatch.setattr(equilibrium, "_table_blocks", blocks)
    return _best_responses((np.empty((len(table), 32)), None), None, eps_tie)


class TestBestResponseReduction:
    # Hand-built square tables with whole-number entries, so entries land
    # exactly on the threshold max - eps_tie.
    @pytest.mark.parametrize("rows_per_block", [1, 3, 7, 20])
    def test_row_maxima_far_apart(self, rows_per_block, monkeypatch):
        # Row r lies near 10 r: the least threshold of a block passes most
        # of its other rows, which only their own thresholds then cut.
        rng = np.random.default_rng(rows_per_block)
        n = 20
        table = rng.integers(-9, 1, size=(n, n)).astype(float) + 10.0 * np.arange(n)[:, None]
        least = table.max(axis=1) - 1.0
        passed = sum(
            int((table[k : k + rows_per_block] >= least[k : k + rows_per_block].min()).sum())
            for k in range(0, n, rows_per_block)
        )
        idx, pay = reduce_hand_built(table, rows_per_block, 1.0, monkeypatch)
        expected_idx, expected_pay = reference_best_responses(table, 1.0)
        assert idx.tobytes() == expected_idx.tobytes()
        assert pay.tobytes() == expected_pay.tobytes()
        if rows_per_block > 1:
            assert passed > 2 * len(idx)

    @pytest.mark.parametrize("rows_per_block", [1, 4, 9])
    def test_every_row_ties(self, rows_per_block, monkeypatch):
        # Every row has the same maximum, so the least threshold is every
        # row's; the last rows are wholly tied and keep every entry.
        rng = np.random.default_rng(rows_per_block)
        n = 9
        table = rng.integers(0, 4, size=(n, n)).astype(float)
        table[:, 0] = 5.0
        table[-2:] = 5.0
        idx, pay = reduce_hand_built(table, rows_per_block, 1.0, monkeypatch)
        expected_idx, expected_pay = reference_best_responses(table, 1.0)
        assert idx.tobytes() == expected_idx.tobytes()
        assert pay.tobytes() == expected_pay.tobytes()
        assert set(range((n - 2) * n, n * n)) <= set(idx.tolist())


class TestInSorted:
    def test_matches_isin_on_random_lists(self):
        rng = np.random.default_rng(3)
        for size in [0, 1, 2, 5, 100, 3000]:
            values = np.unique(rng.integers(0, 4 * size + 1, size))
            # Keys below, inside and past the last entry of the list.
            keys = rng.integers(-3, 4 * size + 8, 500)
            keys[:3] = [-1, 4 * size + 7, values[-1] if size else 0]
            got = _in_sorted(keys, values)
            assert got.dtype == bool
            assert got.tolist() == np.isin(keys, values).tolist()

    def test_empty_list_and_no_keys(self):
        assert _in_sorted(np.array([0, 5]), np.empty(0, dtype=np.int64)).tolist() == [False] * 2
        assert _in_sorted(np.empty(0, dtype=np.int64), np.array([1, 2])).tolist() == []
