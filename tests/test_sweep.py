import math
import os

import numpy as np
import pytest

from qgame.equilibrium import bayesian_tables, classify, find_ne_bayesian_row
from qgame.games import builtin_bayesian, builtin_da, builtin_pd
from qgame.serialize import result_to_json_text
from qgame.strategies import GridSteps, enumerate_strategies
from qgame.sweep import (
    SweepSpec,
    effective_workers,
    gamma_grid,
    p_grid,
    run_sweep,
    summarize_regions,
    value_grid,
)

from conftest import cell_records, sweep_cell

PI = math.pi


@pytest.fixture(scope="module")
def bayes_result():
    spec = SweepSpec(
        game=builtin_bayesian(), gamma_values=gamma_grid(), p_values=p_grid()
    )
    return run_sweep(spec)


@pytest.fixture(scope="module")
def pd_result():
    return run_sweep(SweepSpec(game=builtin_pd(), gamma_values=gamma_grid()))


@pytest.fixture(scope="module")
def da_result():
    return run_sweep(SweepSpec(game=builtin_da(), gamma_values=gamma_grid()))


class TestGrids:
    def test_p_grid(self):
        grid = p_grid()
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_gamma_grid_clamps_endpoint(self):
        grid = gamma_grid()
        assert len(grid) == 32
        assert grid[-1] == PI / 2
        assert grid[-2] == pytest.approx(1.5)

    def test_value_grid_rejects_bad_input(self):
        for step in (0.0, float("inf")):
            with pytest.raises(ValueError, match="must be positive and finite"):
                value_grid(1.0, step)

    # A NaN step fails the cap comparison too, but is refused first as
    # not finite.
    @pytest.mark.parametrize(
        "step, message",
        [(1e-7, "points"), (float("nan"), "must be positive and finite")],
        ids=["1e-07", "nan"],
    )
    def test_value_grid_rejects_step_above_point_cap(self, step, message):
        with pytest.raises(ValueError, match=message):
            value_grid(1.0, step)


class TestRunSweep:
    def test_cell_count_and_order(self, bayes_result):
        assert len(bayes_result.cells) == 21 * 32
        keys = [(c.p, c.gamma) for c in bayes_result.cells]
        assert keys == sorted(keys)

    def test_two_player_cells_have_no_p(self, pd_result):
        assert len(pd_result.cells) == 32
        assert all(c.p is None for c in pd_result.cells)

    def test_boundary_column_p1_matches_pd_sweep(self, bayes_result, pd_result):
        # Project (A, B1) out of the p = 1 column and compare classes.
        for gamma in gamma_grid():
            bayes = sweep_cell(bayes_result, 1.0, gamma)
            pd = sweep_cell(pd_result, None, gamma)
            projected = {
                (
                    round(c.theta_profile[0], 9),
                    round(c.theta_profile[1], 9),
                    round(c.payoffs[0], 9),
                    round(c.payoffs[1], 9),
                )
                for c in bayes.classes
            }
            direct = {
                (
                    round(c.theta_profile[0], 9),
                    round(c.theta_profile[1], 9),
                    round(c.payoffs[0], 9),
                    round(c.payoffs[1], 9),
                )
                for c in pd.classes
            }
            assert projected == direct

    def test_boundary_column_p0_matches_da_sweep(self, bayes_result, da_result):
        for gamma in gamma_grid():
            bayes = sweep_cell(bayes_result, 0.0, gamma)
            da = sweep_cell(da_result, None, gamma)
            projected = {
                (
                    round(c.theta_profile[0], 9),
                    round(c.theta_profile[2], 9),
                    round(c.payoffs[0], 9),
                    round(c.payoffs[2], 9),
                )
                for c in bayes.classes
            }
            direct = {
                (
                    round(c.theta_profile[0], 9),
                    round(c.theta_profile[1], 9),
                    round(c.payoffs[0], 9),
                    round(c.payoffs[1], 9),
                )
                for c in da.classes
            }
            assert projected == direct

    def test_cooperate_class_payoff_structure(self, bayes_result):
        # Along the low-p band: B1 sits at 10, B2 at 9, A decreases linearly
        # in p from 11.
        cells = [
            (c.p, cls)
            for c in bayes_result.cells
            for cls in c.classes
            if cls.theta_profile == (0.0, PI, 0.0)
        ]
        assert cells
        for p, cls in cells:
            assert cls.payoffs[1] == pytest.approx(10.0, abs=1e-9)
            assert cls.payoffs[2] == pytest.approx(9.0, abs=1e-9)
            assert cls.payoffs[0] == pytest.approx(11.0 - 10.0 * p, abs=1e-9)

    def test_high_p_class_payoff_structure(self, bayes_result):
        # B payoffs constant along p at fixed gamma; A affine in p.
        by_gamma: dict[float, list] = {}
        for c in bayes_result.cells:
            for cls in c.classes:
                if cls.theta_profile == (PI, PI, 0.0) and c.gamma > 0:
                    by_gamma.setdefault(round(c.gamma, 9), []).append((c.p, cls.payoffs))
        assert by_gamma
        for gamma, entries in by_gamma.items():
            entries.sort()
            b1 = {round(pay[1], 9) for _, pay in entries}
            b2 = {round(pay[2], 9) for _, pay in entries}
            assert len(b1) == 1 and len(b2) == 1
            if len(entries) >= 3:
                (p0, y0), (p1, y1) = entries[0], entries[-1]
                slope = (y1[0] - y0[0]) / (p1 - p0)
                for p, pay in entries:
                    assert pay[0] == pytest.approx(y0[0] + slope * (p - p0), abs=1e-9)


class TestDeterminism:
    def test_parallel_run_is_byte_identical(self):
        spec = SweepSpec(
            game=builtin_bayesian(),
            gamma_values=gamma_grid(0.4),
            p_values=p_grid(0.25),
        )
        serial = result_to_json_text(run_sweep(spec, workers=1))
        parallel = result_to_json_text(run_sweep(spec, workers=2))
        assert serial == parallel

    def test_workers_capped_by_rows_and_cpus(self, monkeypatch):
        # Only the computed count is checked; no pool is started.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert effective_workers(None) == 1
        assert effective_workers(1000, rows=3) == 3
        assert effective_workers(1000, rows=50) == 4
        assert effective_workers(1000) == 4
        assert effective_workers(2, rows=50) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert effective_workers(1000, rows=50) == 1

    @pytest.mark.parametrize("requested", [0, -3])
    def test_non_positive_worker_request_rejected(self, requested):
        with pytest.raises(ValueError, match="at least 1"):
            effective_workers(requested)


class TestSweepSpec:
    @pytest.mark.parametrize("eps", [float("nan"), -1e-9, float("inf")])
    def test_bad_tie_tolerance_rejected(self, eps):
        with pytest.raises(ValueError, match="eps_tie"):
            SweepSpec(builtin_pd(), gamma_grid(), eps_tie=eps)

    @pytest.mark.parametrize(
        "p_values", [(0.5, 1.2), (-0.1, 0.5), (float("nan"),), (0.5, float("nan"))]
    )
    def test_probability_outside_unit_interval_rejected(self, p_values):
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            SweepSpec(builtin_bayesian(), gamma_grid(), p_values)

    @pytest.mark.parametrize(
        "gamma_values,p_values,axis",
        [((0.3, 0.3), (0.5,), "gamma_values"), ((0.3,), (0.5, 0.5), "p_values")],
        ids=["gamma", "p"],
    )
    def test_repeated_value_rejected(self, gamma_values, p_values, axis):
        # A repeated value would sweep one (p, gamma) point as two cells.
        with pytest.raises(ValueError, match=f"{axis} must be non-empty and ascending"):
            SweepSpec(builtin_bayesian(), gamma_values, p_values)

    @pytest.mark.parametrize("p_values", [(0.5,), (0.5, 7.0)])
    def test_two_player_game_takes_no_p_values(self, p_values):
        # A two-player sweep has no p axis; p values would be dropped unread.
        with pytest.raises(ValueError, match="two-player game takes no p_values"):
            SweepSpec(builtin_pd(), (0.0, 1.0), p_values)


class TestSummarizeRegions:
    def test_defect_defect_defect_region(self, bayes_result):
        summaries = summarize_regions(bayes_result)
        (e3,) = [s for s in summaries if s.theta_profile == (PI, PI, PI)]
        assert e3.p_range == (0.0, 1.0)
        assert e3.gamma_range[0] == pytest.approx(0.55)
        assert e3.gamma_range[1] == pytest.approx(1.15)

    def test_cooperate_region_spans_all_gamma(self, bayes_result):
        summaries = summarize_regions(bayes_result)
        (e2,) = [s for s in summaries if s.theta_profile == (0.0, PI, 0.0)]
        assert e2.gamma_range == (0.0, PI / 2)
        assert e2.p_range[0] == 0.0
        assert e2.p_range[1] == pytest.approx(0.15)

    def test_cells_cover_exactly_the_occupied_set(self, bayes_result):
        summaries = summarize_regions(bayes_result)
        for s in summaries:
            expected = {
                (c.p, c.gamma)
                for c in bayes_result.cells
                for cls in c.classes
                if cls.signature()
                == (tuple(round(t, 9) for t in s.theta_profile), s.operator_label)
            }
            assert set(s.cells) == expected

    def test_empty_result_gives_empty_summary(self):
        spec = SweepSpec(game=builtin_pd(), gamma_values=(1.3, 1.4, 1.5))
        result = run_sweep(spec)
        assert all(not c.classes for c in result.cells)
        assert summarize_regions(result) == []


def test_bayesian_sweep_searches_once_per_gamma(monkeypatch):
    from qgame import sweep

    calls = []
    search = sweep.find_ne_bayesian_row

    def counted(tables, p_values):
        calls.append(len(p_values))
        return search(tables, p_values)

    monkeypatch.setattr(sweep, "find_ne_bayesian_row", counted)
    spec = SweepSpec(builtin_bayesian(), (0.0, 0.8), (0.0, 0.3, 0.6, 1.0))
    assert len(run_sweep(spec).cells) == 8
    assert calls == [4, 4]


def searched_cells(result):
    """Each cell of a Bayesian sweep with the records, and their payoffs,
    that its gamma row's search found, in the row's order."""
    spec = result.spec
    sset = enumerate_strategies(spec.steps)
    by_point = {(cell.p, cell.gamma): cell for cell in result.cells}
    for gamma in spec.gamma_values:
        tables = bayesian_tables(spec.game, gamma, sset, spec.eps_tie)
        row = find_ne_bayesian_row(tables, spec.p_values)
        for i, p in enumerate(spec.p_values):
            yield by_point[p, gamma], cell_records(row, i)


class TestRowSharedClassFacts:
    """A sweep's cells share one classify call's class facts (theta, phases, label)."""

    @staticmethod
    def _assert_fresh_classify_agrees(result):
        sset = enumerate_strategies(result.spec.steps)
        for cell, records in searched_cells(result):
            # The reference describes each cell's classes in a call of its own.
            assert classify(records, sset) == [cell.classes], (cell.p, cell.gamma)

    def test_default_sweep_matches_per_cell_classify(self, bayes_result):
        self._assert_fresh_classify_agrees(bayes_result)

    @pytest.mark.parametrize("gamma_index", [0, 14, 28])
    def test_pi8_row_matches_per_cell_classify(self, gamma_index):
        pi8 = GridSteps(PI / 8, PI / 8, PI / 8)
        spec = SweepSpec(builtin_bayesian(), (gamma_grid()[gamma_index],), p_grid(), pi8)
        self._assert_fresh_classify_agrees(run_sweep(spec))

    def test_recurring_classes_are_described_once_per_sweep(self, monkeypatch):
        from qgame import equilibrium

        calls = []
        describe = equilibrium._facts_of_classes

        def counted(members, starts, sset):
            for run in np.split(members, starts[1:]):
                calls.append(tuple(map(tuple, run.tolist())))
            return describe(members, starts, sset)

        monkeypatch.setattr(equilibrium, "_facts_of_classes", counted)
        result = run_sweep(SweepSpec(builtin_bayesian(), (0.3, 1.2), p_grid()))
        per_row = {
            (cell.gamma, tuple(rec.profile for rec in cls.members))
            for cell in result.cells
            for cls in cell.classes
        }
        per_sweep = {profiles for _, profiles in per_row}
        # A class recurs across the two rows, and is still described once.
        assert len(calls) == len(per_sweep) < len(per_row)
        assert len(per_row) < sum(len(c.classes) for c in result.cells)
        assert sorted(calls) == sorted(per_sweep)

    def test_classify_leaves_the_strategy_set_unchanged(self, bayes_result):
        grid = enumerate_strategies(bayes_result.spec.steps)
        before = dict(vars(grid))
        for _, records in searched_cells(bayes_result):
            classify(records, grid)
        assert vars(grid).keys() == before.keys()
        assert all(vars(grid)[name] is value for name, value in before.items())

    @pytest.mark.parametrize(
        "game,p_values",
        [(builtin_bayesian(), (0.0, 0.5, 1.0)), (builtin_pd(), ())],
        ids=["bayesian", "pd"],
    )
    def test_sweep_classifies_once(self, monkeypatch, game, p_values):
        from qgame import sweep

        calls = []
        whole = sweep.classify

        def counted(records, sset):
            calls.append(records.n_cells)
            return whole(records, sset)

        monkeypatch.setattr(sweep, "classify", counted)
        result = run_sweep(SweepSpec(game, (0.0, 0.8, 1.2), p_values))
        assert calls == [len(result.cells)]

    def test_cells_do_not_share_phase_maps(self):
        result = run_sweep(SweepSpec(builtin_bayesian(), (0.3,), p_grid()))
        first_seen = {}
        pairs = []
        for cell in result.cells:
            for cls in cell.classes:
                key = tuple(rec.profile for rec in cls.members)
                if key in first_seen:
                    pairs.append((first_seen[key], cls))
                first_seen.setdefault(key, cls)
        assert pairs
        for first, later in pairs:
            sums, diffs = dict(later.phase_sums), dict(later.phase_diffs)
            first.phase_sums["A-B1"] = (9.0,)
            first.phase_diffs.clear()
            assert later.phase_sums == sums and later.phase_diffs == diffs
