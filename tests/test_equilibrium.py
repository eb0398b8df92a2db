import math
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from qgame.circuits import evolve_two_player, payoff_expectation
from qgame.equilibrium import (
    EquilibriumRecord,
    bayesian_tables,
    best_responses,
    classify,
    find_ne_bayesian,
    find_ne_bayesian_circuit,
    find_ne_two_player,
    two_player_tables,
    verify_ne,
)
from qgame import equilibrium
from qgame.games import (
    BayesianGame,
    TwoPlayerGame,
    builtin_bayesian,
    builtin_da,
    builtin_pd,
    classical_bayesian_ne,
)
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import _recheck

PI = math.pi

# Index map for the coarse grid (lexicographic by theta, phi, alpha):
# 0..3 are cooperate-like (theta=0, phi = 0, pi/2, pi, 3pi/2),
# 4..7 are defect-like (theta=pi, alpha = 0, pi/2, pi, 3pi/2).
IDENTITY, DEFECT = 0, 4


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


@pytest.fixture(scope="module")
def grid24():
    return enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))


def custom_bayesian(p):
    """A Bayesian game whose subgames give A different payoff vectors:
    chicken against B1, a stag hunt against B2."""
    return BayesianGame(
        TwoPlayerGame("chicken", (3, 1, 4, 0), (3, 4, 1, 0)),
        TwoPlayerGame("stag-hunt", (5, 0, 3, 3), (5, 3, 0, 3)),
        p,
    )


def scalar_two_player_tables(game, gamma, sset):
    """Oracle payoff tables built through the per-profile circuit path."""
    n = len(sset)
    ta = np.empty((n, n))
    tb = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            psi = evolve_two_player(gamma, sset.unitaries[i], sset.unitaries[j])
            ta[i, j] = payoff_expectation(psi, game.payoff_a)
            tb[i, j] = payoff_expectation(psi, game.payoff_b)
    return ta, tb


def naive_bayesian_ne(game, gamma, sset, eps):
    """Oracle: triple loop over all profiles with explicit deviation checks."""
    ta1, tb1 = scalar_two_player_tables(game.subgame_b1, gamma, sset)
    ta2, tb2 = scalar_two_player_tables(game.subgame_b2, gamma, sset)
    p = game.p
    n = len(sset)
    found = set()
    for a, b1, b2 in product(range(n), repeat=3):
        pay_a = p * ta1[a, b1] + (1 - p) * ta2[a, b2]
        if any(p * ta1[x, b1] + (1 - p) * ta2[x, b2] > pay_a + eps for x in range(n)):
            continue
        if any(tb1[a, x] > tb1[a, b1] + eps for x in range(n)):
            continue
        if any(tb2[a, x] > tb2[a, b2] + eps for x in range(n)):
            continue
        found.add((a, b1, b2))
    return found


class TestTables:
    def test_vectorized_tables_match_scalar_path(self, grid8):
        game = builtin_pd()
        for gamma in (0.0, 0.9, PI / 2):
            ta, tb = two_player_tables(game, gamma, grid8)
            oa, ob = scalar_two_player_tables(game, gamma, grid8)
            assert np.max(np.abs(ta - oa)) < 1e-12
            assert np.max(np.abs(tb - ob)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.1, PI / 2])
    def test_factored_tables_match_scalar_path_on_24_grid(self, grid24, gamma):
        games = [builtin_pd(), builtin_da()]
        games += [custom_bayesian(0.5).subgame_b1, custom_bayesian(0.5).subgame_b2]
        for game in games:
            ta, tb = two_player_tables(game, gamma, grid24)
            oa, ob = scalar_two_player_tables(game, gamma, grid24)
            assert np.max(np.abs(ta - oa)) < 1e-12
            assert np.max(np.abs(tb - ob)) < 1e-12

    def test_bayesian_tables_layout(self, grid24):
        # A's tables are read by column, the B players' by row.
        ta1, tb1, ta2, tb2 = bayesian_tables(custom_bayesian(0.5), 0.7, grid24)
        assert ta1.flags.f_contiguous and ta2.flags.f_contiguous
        assert tb1.flags.c_contiguous and tb2.flags.c_contiguous
        oa2, ob2 = scalar_two_player_tables(custom_bayesian(0.5).subgame_b2, 0.7, grid24)
        assert np.max(np.abs(ta2 - oa2)) < 1e-12
        assert np.max(np.abs(tb2 - ob2)) < 1e-12


class TestBestResponses:
    def test_defect_dominates_classically(self, grid8):
        game = builtin_pd()
        ta, _ = two_player_tables(game, 0.0, grid8)

        def payoff(k, opponents):
            return ta[k, opponents[0]]

        indices, value = best_responses(payoff, grid8, (DEFECT,), 1e-9)
        assert indices == (4, 5, 6, 7)
        assert value == pytest.approx(6.0, abs=1e-12)

    def test_constant_payoff_ties_everyone(self, grid8):
        indices, value = best_responses(lambda k, opp: 1.5, grid8, (0,), 1e-9)
        assert indices == tuple(range(8))
        assert value == 1.5

    def test_entangled_best_response_from_exhaustive_scan(self, grid8):
        # Oracle: per-candidate payoffs via the scalar circuit path.
        game = builtin_pd()
        scans = [
            payoff_expectation(
                evolve_two_player(1.0, grid8.unitaries[k], grid8.unitaries[DEFECT]),
                game.payoff_a,
            )
            for k in range(8)
        ]
        best = max(scans)
        expected = tuple(k for k in range(8) if scans[k] >= best - 1e-9)

        ta, _ = two_player_tables(game, 1.0, grid8)
        indices, value = best_responses(lambda k, opp: ta[k, opp[0]], grid8, (DEFECT,), 1e-9)
        assert indices == expected == (5, 7)
        assert value == pytest.approx(9.540367091367856, abs=1e-12)

    def test_empty_set_rejected(self, grid8):
        from qgame.strategies import StrategySet

        empty = StrategySet((), np.zeros((0, 2, 2), dtype=complex))
        with pytest.raises(ValueError, match="empty"):
            best_responses(lambda k, opp: 0.0, empty, (0,), 1e-9)


class TestFindNeTwoPlayer:
    def test_pd_classical_limit(self, grid8):
        classes = classify(find_ne_two_player(builtin_pd(), 0.0, grid8), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (PI, PI)
        assert classes[0].payoffs == pytest.approx((6.0, 6.0), abs=1e-12)

    def test_pd_above_threshold_empty(self, grid8):
        assert find_ne_two_player(builtin_pd(), 1.3, grid8) == []

    def test_da_two_classes_when_entangled(self, grid8):
        classes = classify(find_ne_two_player(builtin_da(), 1.0, grid8), grid8)
        assert [c.theta_profile for c in classes] == [(0.0, 0.0), (PI, PI)]
        assert classes[0].payoffs == pytest.approx((11.0, 9.0), abs=1e-9)
        assert classes[1].payoffs[0] < 11 and classes[1].payoffs[1] < 9


class TestFindNeBayesian:
    def test_central_gap_has_no_ne(self, grid8):
        assert find_ne_bayesian(builtin_bayesian(0.5), 0.3, grid8) == []

    def test_classical_limit_low_p(self, grid8):
        classes = classify(find_ne_bayesian(builtin_bayesian(0.1), 0.0, grid8), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (0.0, PI, 0.0)
        assert classes[0].payoffs == pytest.approx((10.0, 10.0, 9.0), abs=1e-9)

    def test_high_p_low_gamma_class(self, grid8):
        classes = classify(find_ne_bayesian(builtin_bayesian(0.9), 0.3, grid8), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (PI, PI, 0.0)
        assert classes[0].operator_label == "Y⊗X⊗Z"

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_tie_tolerance(self, grid8, eps):
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_bayesian(builtin_bayesian(0.5), 0.3, grid8, eps)
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_two_player(builtin_pd(), 0.3, grid8, eps)
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_bayesian_circuit(builtin_bayesian(0.3), 0.8, grid8, eps)

    def test_matches_four_qubit_circuit_search(self, grid8):
        game = builtin_bayesian(0.85)
        mixture = {r.profile for r in find_ne_bayesian(game, 0.4, grid8)}
        circuit = {r.profile for r in find_ne_bayesian_circuit(game, 0.4, grid8)}
        assert mixture == circuit


class TestVerifyNe:
    def test_all_found_records_verify(self, grid8):
        game = builtin_bayesian(0.9)
        records = find_ne_bayesian(game, 0.3, grid8)
        assert records
        assert all(verify_ne(rec, game, 0.3, grid8) for rec in records)

    def test_perturbed_profile_fails(self, grid8):
        game = builtin_bayesian(0.9)
        rec = find_ne_bayesian(game, 0.3, grid8)[0]
        broken = EquilibriumRecord((IDENTITY,) + rec.profile[1:], rec.payoffs)
        assert not verify_ne(broken, game, 0.3, grid8)

    def test_classical_cc_is_not_quantum_pd_ne(self, grid8):
        rec = EquilibriumRecord((IDENTITY, IDENTITY), (11.0, 9.0))
        assert not verify_ne(rec, builtin_pd(), 0.0, grid8)


class TestClassify:
    def test_pd_phase_class(self, grid8):
        classes = classify(find_ne_two_player(builtin_pd(), 0.5, grid8), grid8)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.theta_profile == (PI, PI)
        assert cls.phase_sums["A-B"] == pytest.approx((PI / 2, 3 * PI / 2))
        assert cls.phase_diffs["A-B"] == pytest.approx((PI / 2, 3 * PI / 2))
        assert cls.operator_label == "Y⊗X"
        assert cls.n_profiles == 8

    def test_bayesian_cooperate_class(self, grid8):
        classes = classify(find_ne_bayesian(builtin_bayesian(0.1), 0.5, grid8), grid8)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.theta_profile == (0.0, PI, 0.0)
        assert cls.operator_label == "I⊗Y⊗I"
        assert cls.phase_sums["A-B1"] == pytest.approx((0.0, PI))
        assert cls.phase_sums["A-B2"] == pytest.approx((0.0, PI))

    def test_singleton_degenerate_class(self, grid8):
        rec = EquilibriumRecord((IDENTITY, IDENTITY), (11.0, 9.0))
        (cls,) = classify([rec], grid8)
        assert cls.theta_profile == (0.0, 0.0)
        assert cls.members == (rec,)
        # both players sit at a single phase value
        assert cls.phase_sums["A-B"] == (0.0,)

    def test_payoff_spread_within_class(self, grid8):
        for gamma in (0.35, 0.8):
            for cls in classify(
                find_ne_bayesian(builtin_bayesian(0.8), gamma, grid8), grid8
            ):
                for rec in cls.members:
                    assert np.max(np.abs(np.array(rec.payoffs) - cls.payoffs)) < 1e-9

    def test_phase_class_closure(self, grid8):
        # Every grid profile consistent with the class theta-profile and its
        # reported phase-sum sets must itself be a member: no missing siblings.
        game = builtin_bayesian(0.9)
        records = find_ne_bayesian(game, 0.3, grid8)
        for cls in classify(records, grid8):
            members = {rec.profile for rec in cls.members}
            thetas = [round(t, 9) for t in cls.theta_profile]
            candidates = [
                prof
                for prof in product(range(8), repeat=3)
                if [round(grid8.params[i].theta, 9) for i in prof] == thetas
            ]
            sums = {
                "A-B1": set(cls.phase_sums["A-B1"]),
                "A-B2": set(cls.phase_sums["A-B2"]),
            }

            def free(i):
                s = grid8.params[i]
                return s.phi if s.theta < 1e-9 else s.alpha

            for prof in candidates:
                s1 = round((free(prof[0]) + free(prof[1])) % (2 * PI), 9)
                s2 = round((free(prof[0]) + free(prof[2])) % (2 * PI), 9)
                if s1 in sums["A-B1"] and s2 in sums["A-B2"]:
                    assert prof in members


class TestOracleEquivalence:
    def test_matches_naive_enumeration_at_random_points(self, grid8):
        rng = np.random.default_rng(20240917)
        for _ in range(20):
            p = float(rng.uniform())
            gamma = float(rng.uniform(0.0, PI / 2))
            game = builtin_bayesian(p)
            fast = {r.profile for r in find_ne_bayesian(game, gamma, grid8)}
            assert fast == naive_bayesian_ne(game, gamma, grid8, 1e-9)


    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_naive_enumeration_on_24_grid_at_gamma_zero(self, grid24, p):
        # Classical limit: payoffs depend on theta only, so every best
        # response is tied across the free phases.
        game = builtin_bayesian(p)
        fast = find_ne_bayesian(game, 0.0, grid24)
        assert len(fast) == 64
        assert {r.profile for r in fast} == naive_bayesian_ne(game, 0.0, grid24, 1e-9)

    def test_matches_naive_enumeration_on_24_grid_at_random_points(self, grid24):
        rng = np.random.default_rng(314159)
        for _ in range(4):
            p = float(rng.uniform())
            gamma = float(rng.uniform(0.0, PI / 2))
            game = builtin_bayesian(p)
            fast = {r.profile for r in find_ne_bayesian(game, gamma, grid24)}
            assert fast == naive_bayesian_ne(game, gamma, grid24, 1e-9)

    def test_custom_game_with_distinct_a_payoffs_matches_naive(self, grid24):
        rng = np.random.default_rng(271828)
        points = [(0.3, 0.0)] + [
            (float(rng.uniform()), float(rng.uniform(0.0, PI / 2))) for _ in range(3)
        ]
        found = 0
        for p, gamma in points:
            game = custom_bayesian(p)
            records = find_ne_bayesian(game, gamma, grid24)
            assert {r.profile for r in records} == naive_bayesian_ne(
                game, gamma, grid24, 1e-9
            )
            assert all(verify_ne(rec, game, gamma, grid24) for rec in records[:5])
            found += len(records)
        assert found > 0

    def test_block_boundaries_do_not_change_records(self, grid24, monkeypatch):
        game = custom_bayesian(0.4)
        tables = bayesian_tables(game, 0.0, grid24)
        whole = find_ne_bayesian(game, 0.0, grid24, tables=tables)
        monkeypatch.setattr(equilibrium, "_TRIPLE_BLOCK", 5)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 30)
        assert find_ne_bayesian(game, 0.0, grid24, tables=tables) == whole
        assert whole == sorted(whole, key=lambda r: r.profile)


class TestRecheck:
    def test_found_records_pass(self, grid24):
        game = builtin_bayesian(0.0)
        tables = bayesian_tables(game, 1.0, grid24)
        records = find_ne_bayesian(game, 1.0, grid24, tables=tables)
        assert records
        _recheck(records, tables, 0.0, 1e-9)

    def test_tampered_record_raises(self, grid24):
        game = builtin_bayesian(0.0)
        tables = bayesian_tables(game, 1.0, grid24)
        records = find_ne_bayesian(game, 1.0, grid24, tables=tables)
        bad = next(
            prof
            for prof in product(range(len(grid24)), repeat=3)
            if prof not in {r.profile for r in records}
        )
        tampered = records[:-1] + [EquilibriumRecord(bad, records[-1].payoffs)]
        with pytest.raises(RuntimeError, match=re.escape(str(bad))):
            _recheck(tampered, tables, 0.0, 1e-9)


class TestInvariants:
    def test_classical_anchor_at_gamma_zero(self, grid8):
        # Quantum solve at gamma = 0 matches the classical formulas away from
        # one grid step around the p = 1/6 threshold.
        for i in range(21):
            p = 0.05 * i
            if abs(p - 1 / 6) <= 0.05:
                continue
            classes = classify(find_ne_bayesian(builtin_bayesian(p), 0.0, grid8), grid8)
            classical = classical_bayesian_ne(p)
            assert len(classes) == len(classical) == 1
            assert classes[0].payoffs == pytest.approx(classical[0][1], abs=1e-9)

    def test_pd_branch_monotone_in_gamma(self, grid8):
        game = builtin_pd()
        prev = (-np.inf, -np.inf)
        for i in range(24):  # gamma = 0 .. 1.15, below the disappearance point
            gamma = 0.05 * i
            classes = classify(find_ne_two_player(game, gamma, grid8), grid8)
            assert len(classes) == 1
            pa, pb = classes[0].payoffs
            assert pa >= prev[0] - 1e-12 and pb >= prev[1] - 1e-12
            prev = (pa, pb)

    def test_eps_tie_robustness(self, grid8):
        points = [(0.9, 0.3), (0.1, 0.5), (0.5, 0.8), (0.1, 1.3), (0.5, 0.3)]
        for p, gamma in points:
            game = builtin_bayesian(p)
            tables = bayesian_tables(game, gamma, grid8)
            strict = {r.profile for r in find_ne_bayesian(game, gamma, grid8, 1e-9, tables)}
            loose = {r.profile for r in find_ne_bayesian(game, gamma, grid8, 1e-6, tables)}
            assert strict == loose
