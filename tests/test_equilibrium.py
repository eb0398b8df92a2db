import gzip
import math
import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from qgame.circuits import (
    bayesian_payoffs_full_circuit,
    evolve_two_player,
    payoff_expectation,
)
from qgame.equilibrium import (
    EquilibriumRecord,
    RecordSet,
    _recheck,
    bayesian_circuit_tables,
    bayesian_tables,
    classify,
    find_ne_bayesian_circuit,
    find_ne_bayesian_row,
    find_ne_two_player,
    two_player_tables,
    verify_records,
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
from qgame.serialize import load_result
from qgame.strategies import DEFAULT_GRID, GridSteps, StrategySet, enumerate_strategies
from qgame.sweep import SweepSpec, _block, gamma_grid, p_grid, run_sweep

from conftest import cell_records, cells_of, custom_bayesian, find_ne_at, record_set, records_of
from test_circuits import reference_bayesian_payoffs_mixture

PI = math.pi
GOLDEN = Path(__file__).parent / "golden"

# Index map for the coarse grid (lexicographic by theta, phi, alpha):
# 0..3 are cooperate-like (theta=0, phi = 0, pi/2, pi, 3pi/2),
# 4..7 are defect-like (theta=pi, alpha = 0, pi/2, pi, 3pi/2).
IDENTITY = 0


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


@pytest.fixture(scope="module")
def grid24():
    return enumerate_strategies(GridSteps(PI / 2, PI / 2, PI / 2))


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


def naive_bayesian_ne(game, gamma, sset, p, eps):
    """Oracle: triple loop over all profiles with explicit deviation checks."""
    ta1, tb1 = scalar_two_player_tables(game.subgame_b1, gamma, sset)
    ta2, tb2 = scalar_two_player_tables(game.subgame_b2, gamma, sset)
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
        games += [custom_bayesian().subgame_b1, custom_bayesian().subgame_b2]
        for game in games:
            ta, tb = two_player_tables(game, gamma, grid24)
            oa, ob = scalar_two_player_tables(game, gamma, grid24)
            assert np.max(np.abs(ta - oa)) < 1e-12
            assert np.max(np.abs(tb - ob)) < 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.4, 1.1, PI / 2])
    def test_best_response_lists_match_dense_tables(self, grid24, gamma):
        eps = 1e-9
        game = custom_bayesian()
        tables = bayesian_tables(game, gamma, grid24, eps)
        lists = ((tables.br1, tables.pay1), (tables.br2, tables.pay2))
        for sub, (idx, pay) in zip((game.subgame_b1, game.subgame_b2), lists):
            tb = two_player_tables(sub, gamma, grid24)[1]
            expected = np.flatnonzero(tb >= tb.max(axis=1, keepdims=True) - eps)
            assert idx.tobytes() == expected.tobytes()
            assert pay.tobytes() == tb.ravel()[expected].tobytes()
        for ta, sub in zip((tables.ta1, tables.ta2), (game.subgame_b1, game.subgame_b2)):
            # A's tables are read by column.
            assert ta.flags.f_contiguous
            assert ta.tobytes("A") == two_player_tables(sub, gamma, grid24)[0].tobytes("A")

    def test_shared_a_payoffs_share_one_table(self, grid24):
        tables = bayesian_tables(builtin_bayesian(), 0.7, grid24)
        assert tables.ta2 is tables.ta1
        tables = bayesian_tables(custom_bayesian(), 0.7, grid24)
        assert tables.ta2 is not tables.ta1
        assert not np.array_equal(tables.ta1, tables.ta2)
        # Equal as numbers, different as bytes: the tables are kept apart.
        signed_zeros = BayesianGame(
            TwoPlayerGame((11, 0.0, 10, 6), (9, 10, 1, 6)),
            TwoPlayerGame((11, -0.0, 10, 6), (9, 6, 1, 0)),
        )
        tables = bayesian_tables(signed_zeros, 0.7, grid24)
        assert tables.ta2 is not tables.ta1

    def test_every_field_is_an_array(self, grid24):
        # So a table set can be sized by summing its fields' sizes.
        tables = bayesian_tables(builtin_bayesian(), 0.7, grid24, 1e-6)
        assert all(isinstance(field, np.ndarray) for field in tables)
        assert tables.eps_tie == 1e-6

    def test_rejects_bad_eps_tie(self, grid8):
        with pytest.raises(ValueError, match="non-negative"):
            bayesian_tables(builtin_bayesian(), 0.7, grid8, -1e-9)

    def test_row_holds_at_most_one_and_a_half_tables(self):
        # Peak traced memory of one pi/8 row (gamma index 28, p step 0.2):
        # one A table of n x n floats, plus one B table while it is reduced.
        sset = enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))
        n = len(sset)
        job = (builtin_bayesian(), (gamma_grid()[28],), p_grid(0.2), sset, 1e-9)
        tracemalloc.start()
        try:
            records = _block(job)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) > 0
        assert peak < 1.5 * n * n * 8


class TestFindNeTwoPlayer:
    def test_pd_classical_limit(self, grid8):
        (classes,) = classify(find_ne_two_player(builtin_pd(), 0.0, grid8), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (PI, PI)
        assert classes[0].payoffs == pytest.approx((6.0, 6.0), abs=1e-12)

    def test_pd_above_threshold_empty(self, grid8):
        assert len(find_ne_two_player(builtin_pd(), 1.3, grid8)) == 0

    def test_da_two_classes_when_entangled(self, grid8):
        (classes,) = classify(find_ne_two_player(builtin_da(), 1.0, grid8), grid8)
        assert [c.theta_profile for c in classes] == [(0.0, 0.0), (PI, PI)]
        assert classes[0].payoffs == pytest.approx((11.0, 9.0), abs=1e-9)
        assert classes[1].payoffs[0] < 11 and classes[1].payoffs[1] < 9


class TestFindNeBayesian:
    def test_central_gap_has_no_ne(self, grid8):
        assert len(find_ne_at(builtin_bayesian(), 0.3, grid8, 0.5)) == 0

    def test_classical_limit_low_p(self, grid8):
        (classes,) = classify(find_ne_at(builtin_bayesian(), 0.0, grid8, 0.1), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (0.0, PI, 0.0)
        assert classes[0].payoffs == pytest.approx((10.0, 10.0, 9.0), abs=1e-9)

    def test_high_p_low_gamma_class(self, grid8):
        (classes,) = classify(find_ne_at(builtin_bayesian(), 0.3, grid8, 0.9), grid8)
        assert len(classes) == 1
        assert classes[0].theta_profile == (PI, PI, 0.0)
        assert classes[0].operator_label == "Y⊗X⊗Z"

    @pytest.mark.parametrize("eps", [float("nan"), -1.0, float("inf")])
    def test_rejects_bad_tie_tolerance(self, grid8, eps):
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_at(builtin_bayesian(), 0.3, grid8, 0.5, eps)
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_two_player(builtin_pd(), 0.3, grid8, eps)
        with pytest.raises(ValueError, match="eps_tie"):
            find_ne_bayesian_circuit(builtin_bayesian(), 0.8, grid8, 0.3, eps)

    def test_matches_four_qubit_circuit_search(self, grid8):
        game = builtin_bayesian()
        mixture = {r.profile for r in records_of(find_ne_at(game, 0.4, grid8, 0.85))}
        circuit = {r.profile for r in records_of(find_ne_bayesian_circuit(game, 0.4, grid8, 0.85))}
        assert mixture == circuit


class TestFourQubitWitness:
    def test_search_runs_without_mixture_search_code(self, grid8, monkeypatch):
        game = builtin_bayesian()
        mixture = find_ne_at(game, 0.4, grid8, 0.85)

        def refuse(*args):
            raise AssertionError("the four-qubit witness reached the mixture search")

        monkeypatch.setattr(equilibrium, "_candidate_triples", refuse)
        monkeypatch.setattr(equilibrium, "_row_blocks", refuse)
        records = find_ne_bayesian_circuit(game, 0.4, grid8, 0.85)
        assert records.profiles.tolist() == mixture.profiles.tolist()

    @pytest.mark.parametrize("gamma", [0.0, 0.9, PI / 2])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_matches_mixture_records_on_24_grid(self, grid24, p, gamma):
        # At p = 0 and p = 1 one control branch is empty, so the circuit's
        # payoff for that branch's B player is the two-player fallback.
        game = builtin_bayesian()
        mixture = find_ne_at(game, gamma, grid24, p)
        circuit = find_ne_bayesian_circuit(game, gamma, grid24, p)
        assert circuit.profiles.tolist() == mixture.profiles.tolist()

    def test_tables_match_scalar_circuit_at_sampled_profiles(self, grid24):
        game = custom_bayesian()
        tables = bayesian_circuit_tables(game, 0.9, grid24, 0.35)
        n = len(grid24)
        assert tables.shape == (3, n, n, n)
        us = grid24.unitaries
        rng = np.random.default_rng(57721)
        for a, b1, b2 in rng.integers(n, size=(40, 3)).tolist():
            expected = bayesian_payoffs_full_circuit(0.35, 0.9, us[a], us[b1], us[b2], game)
            assert tuple(tables[:, a, b1, b2]) == expected

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_tables_fill_every_profile_when_a_branch_is_empty(self, grid24, p):
        # The empty branch's B payoffs depend on (a, b1) or (a, b2) only and
        # must be spread over the whole table, not a (1, n) slice of it.
        game = custom_bayesian()
        tables = bayesian_circuit_tables(game, 0.9, grid24, p)
        n = len(grid24)
        assert tables.shape == (3, n, n, n)
        ta1, tb1 = two_player_tables(game.subgame_b1, 0.9, grid24)
        ta2, tb2 = two_player_tables(game.subgame_b2, 0.9, grid24)
        mixture = (
            p * ta1[:, :, None] + (1.0 - p) * ta2[:, None, :],
            np.broadcast_to(tb1[:, :, None], (n, n, n)),
            np.broadcast_to(tb2[:, None, :], (n, n, n)),
        )
        for circuit, expected in zip(tables, mixture):
            assert np.max(np.abs(circuit - expected)) < 1e-12

    @pytest.mark.parametrize("p", [-0.5, 1.5, math.nan])
    def test_p_outside_unit_interval_rejected(self, grid8, p):
        game = builtin_bayesian()
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            bayesian_circuit_tables(game, 0.8, grid8, p)
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            find_ne_bayesian_circuit(game, 0.8, grid8, p)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("grid, calls", [("grid8", 1), ("grid24", 4)])
    def test_slabs_equal_one_call_per_a(self, request, grid, calls, p, monkeypatch):
        # 8 strategies fill the cube in one call; 24 in slabs of 7, 7, 7
        # and 3 values of a.  At p = 0 and p = 1 one branch is empty and
        # its B player takes the two-player fallback.
        sset = request.getfixturevalue(grid)
        game = custom_bayesian()
        full, states = equilibrium.bayesian_payoffs_full_circuit, []

        def counting(p, gamma, u_a, u_b1, u_b2, game):
            batch = np.broadcast_shapes(*(u.shape[:-2] for u in (u_a, u_b1, u_b2)))
            states.append(math.prod(batch))
            return full(p, gamma, u_a, u_b1, u_b2, game)

        monkeypatch.setattr(equilibrium, "bayesian_payoffs_full_circuit", counting)
        tables = bayesian_circuit_tables(game, 0.9, sset, p)
        n, us = len(sset), sset.unitaries
        expected = np.empty((3, n, n, n))
        for a in range(n):
            expected[:, a] = full(p, 0.9, us[a], us[:, None], us[None, :], game)
        assert tables.tobytes() == expected.tobytes()
        assert len(states) == calls
        assert sum(states) == n**3
        assert max(states) <= equilibrium._VERIFY_BLOCK

    @pytest.mark.parametrize("block", [1, 64, 200])
    def test_slabs_of_other_sizes_give_the_same_bytes(self, grid8, block, monkeypatch):
        # One a per call below 64 states, and slabs of 3, 3 and 2 at 200.
        game = custom_bayesian()
        whole = bayesian_circuit_tables(game, 0.9, grid8, 0.3)
        monkeypatch.setattr(equilibrium, "_VERIFY_BLOCK", block)
        assert bayesian_circuit_tables(game, 0.9, grid8, 0.3).tobytes() == whole.tobytes()


class TestDenseNe:
    @staticmethod
    def naive(tables, eps):
        found = []
        for profile in np.ndindex(tables[0].shape):
            stable = True
            for k, t in enumerate(tables):
                for alt in range(t.shape[k]):
                    deviated = profile[:k] + (alt,) + profile[k + 1 :]
                    stable = stable and t[deviated] <= t[profile] + eps
            if stable:
                found.append(profile)
        return found

    @pytest.mark.parametrize("shape", [(5, 6), (4, 3, 5)])
    def test_matches_naive_deviation_loop_with_ties(self, shape):
        rng = np.random.default_rng(len(shape))
        for _ in range(20):
            tables = [rng.integers(0, 3, size=shape).astype(float) for _ in shape]
            records = records_of(equilibrium._dense_ne(tables, 0.5))
            assert [r.profile for r in records] == self.naive(tables, 0.5)
            for r in records:
                assert r.payoffs == tuple(float(t[r.profile]) for t in tables)


class TestVerifyNe:
    def test_all_found_records_verify(self, grid8):
        game = builtin_bayesian()
        records = find_ne_at(game, 0.3, grid8, 0.9)
        assert records
        assert all(verify_records(records, game, 0.3, grid8, p_values=(0.9,)))

    def test_perturbed_profile_fails(self, grid8):
        game = builtin_bayesian()
        rec = records_of(find_ne_at(game, 0.3, grid8, 0.9))[0]
        broken = EquilibriumRecord((IDENTITY,) + rec.profile[1:], rec.payoffs)
        assert verify_records(record_set([broken]), game, 0.3, grid8, p_values=(0.9,)) == [False]

    def test_classical_cc_is_not_quantum_pd_ne(self, grid8):
        rec = EquilibriumRecord((IDENTITY, IDENTITY), (11.0, 9.0))
        assert verify_records(record_set([rec]), builtin_pd(), 0.0, grid8) == [False]

    @pytest.mark.parametrize("shift", [1e-9, -1e-9])
    def test_stored_payoffs_within_tolerance_pass(self, grid8, shift):
        game = builtin_bayesian()
        rec = records_of(find_ne_at(game, 0.3, grid8, 0.9))[0]
        moved = tuple(x + shift for x in rec.payoffs)
        moved_set = record_set([EquilibriumRecord(rec.profile, moved)])
        assert verify_records(moved_set, game, 0.3, grid8, p_values=(0.9,)) == [True]

    @pytest.mark.parametrize("player", [0, 1, 2])
    def test_wrong_stored_payoff_fails(self, grid8, player):
        game = builtin_bayesian()
        rec = records_of(find_ne_at(game, 0.3, grid8, 0.9))[0]
        payoffs = list(rec.payoffs)
        payoffs[player] += 1e-6
        wrong = EquilibriumRecord(rec.profile, tuple(payoffs))
        assert verify_records(record_set([wrong]), game, 0.3, grid8, p_values=(0.9,)) == [False]

    def test_zeroed_two_player_payoffs_fail(self, grid8):
        rec = records_of(find_ne_two_player(builtin_pd(), 0.5, grid8))[0]
        zeroed = EquilibriumRecord(rec.profile, (0.0, 0.0))
        assert verify_records(record_set([rec, zeroed]), builtin_pd(), 0.5, grid8) == [True, False]

    def test_bayesian_record_without_p_raises(self, grid8):
        game = builtin_bayesian()
        rec = records_of(find_ne_at(game, 0.3, grid8, 0.9))[0]
        with pytest.raises(ValueError, match="needs p"):
            verify_records(record_set([rec]), game, 0.3, grid8)

    @pytest.mark.parametrize("p", [-0.1, 1.2, math.nan])
    def test_bayesian_record_with_p_out_of_range_raises(self, grid8, p):
        game = builtin_bayesian()
        rec = records_of(find_ne_at(game, 0.3, grid8, 0.9))[0]
        with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
            verify_records(record_set([rec]), game, 0.3, grid8, p_values=(p,))


def one_at_a_time(game, gamma, sset, p=None):
    """Every player's payoffs at one profile, each profile its own circuit call."""
    us = sset.unitaries
    cache = {}

    def payoffs(profile):
        if profile not in cache:
            if isinstance(game, TwoPlayerGame):
                psi = evolve_two_player(gamma, *(us[s] for s in profile))
                cache[profile] = (
                    payoff_expectation(psi, game.payoff_a),
                    payoff_expectation(psi, game.payoff_b),
                )
            else:
                cache[profile] = reference_bayesian_payoffs_mixture(
                    p, gamma, *(us[s] for s in profile), game
                )
        return cache[profile]

    return payoffs


def oracle_verdicts(records, game, gamma, sset, p=None, eps=1e-9):
    """The NE test of ``verify_records``, spelled out one profile at a time."""
    payoffs = one_at_a_time(game, gamma, sset, p)
    verdicts = []
    for rec in records:
        base = payoffs(rec.profile)
        ok = len(rec.payoffs) == len(base) and all(
            abs(x - y) <= equilibrium.PAYOFF_TOL for x, y in zip(rec.payoffs, base)
        )
        for k in range(len(rec.profile)):
            for alt in range(len(sset)):
                dev = rec.profile[:k] + (alt,) + rec.profile[k + 1 :]
                ok = ok and payoffs(dev)[k] <= base[k] + eps
        verdicts.append(ok)
    return verdicts


def with_decoys(records, n, players, rng, payoffs):
    """``records`` with about a third of them copied with one payoff shifted
    by 1e-6, and five random profiles carrying their true ``payoffs``."""
    decoys = []
    for rec in records:
        if rng.random() < 0.3:
            shifted = list(rec.payoffs)
            shifted[rng.integers(players)] += 1e-6
            decoys.append(EquilibriumRecord(rec.profile, tuple(shifted)))
    for _ in range(5):
        profile = tuple(int(s) for s in rng.integers(0, n, size=players))
        decoys.append(EquilibriumRecord(profile, payoffs(profile)))
    return list(records) + decoys


@pytest.fixture(scope="module")
def golden_sweep(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "sweep.json"
    with gzip.open(GOLDEN / "sweep.json.gz", "rb") as fh:
        path.write_bytes(fh.read())
    return load_result(str(path)).result


class TestVerifyRecords:
    # Cell 185 holds no NE, so only the random profiles are checked there;
    # cell 660 lies at p = 1, where B2's weight in A's mixture is 0.
    @pytest.mark.parametrize("index", [0, 111, 185, 370, 592, 660])
    def test_golden_cells_match_one_at_a_time_oracle(self, golden_sweep, index):
        spec, cell = golden_sweep.spec, golden_sweep.cells[index]
        sset = enumerate_strategies(spec.steps)
        found = [rec for cls in cell.classes for rec in cls.members]
        payoffs = one_at_a_time(spec.game, cell.gamma, sset, cell.p)
        records = with_decoys(found, len(sset), 3, np.random.default_rng(index), payoffs)
        verdicts = verify_records(
            record_set(records), spec.game, cell.gamma, sset, p_values=(cell.p,)
        )
        assert verdicts == oracle_verdicts(records, spec.game, cell.gamma, sset, cell.p)
        assert verdicts[: len(found)] == [True] * len(found)
        assert not all(verdicts)

    def test_pd_cell_matches_one_at_a_time_oracle(self, grid24):
        game = builtin_pd()
        found = records_of(find_ne_two_player(game, 0.7, grid24))
        payoffs = one_at_a_time(game, 0.7, grid24)
        records = with_decoys(found, len(grid24), 2, np.random.default_rng(5), payoffs)
        verdicts = verify_records(record_set(records), game, 0.7, grid24)
        assert verdicts == oracle_verdicts(records, game, 0.7, grid24)
        assert verdicts[: len(found)] == [True] * len(found)
        assert not all(verdicts)

    def test_empty_record_list(self, grid8):
        none = record_set([])
        assert verify_records(none, builtin_bayesian(), 0.3, grid8, p_values=(0.9,)) == []
        assert verify_records(none, builtin_pd(), 0.3, grid8) == []

    @pytest.mark.parametrize("block", [1, 24, 7])
    def test_block_edges_do_not_change_verdicts(self, grid24, monkeypatch, block):
        # Blocks of 1 and 7 states split keys of 24 alternatives; blocks of
        # 24 fall exactly between keys.
        game = custom_bayesian()
        found = records_of(find_ne_at(game, 0.9, grid24, 0.3))[:40]
        payoffs = one_at_a_time(game, 0.9, grid24, 0.3)
        records = with_decoys(found, len(grid24), 3, np.random.default_rng(block), payoffs)
        records = record_set(records)
        whole = verify_records(records, game, 0.9, grid24, p_values=(0.3,))
        monkeypatch.setattr(equilibrium, "_VERIFY_BLOCK", block)
        assert verify_records(records, game, 0.9, grid24, p_values=(0.3,)) == whole
        assert whole[: len(found)] == [True] * len(found)
        assert not all(whole)

    def test_states_evaluated_once_per_subgame_opponent(self, grid24, monkeypatch):
        # One row of n states per distinct a serves both B players, and one
        # per distinct B strategy in b1 or b2 serves A in both subgames.
        game = custom_bayesian()
        found = records_of(find_ne_at(game, 0.9, grid24, 0.3))
        payoffs = one_at_a_time(game, 0.9, grid24, 0.3)
        records = with_decoys(found, len(grid24), 3, np.random.default_rng(13), payoffs)
        evolve, states = equilibrium._two_player_states, []

        def counting(gammas, which, u_a, u_b):
            psi = evolve(gammas, which, u_a, u_b)
            states.append(psi.size // 4)
            return psi

        monkeypatch.setattr(equilibrium, "_two_player_states", counting)
        verdicts = verify_records(record_set(records), game, 0.9, grid24, p_values=(0.3,))
        a, b1, b2 = np.array([rec.profile for rec in records]).T
        keys = len(np.unique(a)) + len(np.union1d(b1, b2))
        assert sum(states) == keys * len(grid24)
        assert verdicts[: len(found)] == [True] * len(found)
        assert not all(verdicts)

    def test_wrong_profile_length_raises(self, grid8):
        rec = EquilibriumRecord((0, 0), (0.0, 0.0))
        with pytest.raises(ValueError, match="strategy indices"):
            verify_records(record_set([rec]), builtin_bayesian(), 0.3, grid8, p_values=(0.5,))


def per_cell_verdicts(records, game, gamma, sset, p_values=None):
    """The reference for a row: one ``verify_records`` call per cell."""
    verdicts = []
    for c in range(records.n_cells):
        p = None if p_values is None else (p_values[c],)
        verdicts += verify_records(cell_records(records, c), game, gamma, sset, p_values=p)
    return verdicts


def stored_with_faults(cells, n):
    """The stored records of ``cells`` as one set, cell i being ``cells[i]``,
    with faults planted: every third class's payoffs shifted by 1e-6, and
    per cell a copy of its first member with B1 moved off it.  Returns
    the set and the kinds of its records (0 stored, 1 shifted, 2 moved)."""
    cell, profiles, payoffs, kinds = [], [], [], []
    for i, c in enumerate(cells):
        for k, cls in enumerate(c.classes):
            shift = 1e-6 if (i + k) % 3 == 0 else 0.0
            for profile in cls.profiles.tolist():
                cell.append(i)
                profiles.append(profile)
                payoffs.append([x + shift for x in cls.payoffs])
                kinds.append(1 if shift else 0)
        if c.classes:
            a, b1, b2 = c.classes[0].profiles[0].tolist()
            cell.append(i)
            profiles.append([a, (b1 + n // 2) % n, b2])
            payoffs.append(list(c.classes[0].payoffs))
            kinds.append(2)
    records = RecordSet(
        np.array(cell, dtype=np.int64),
        np.array(profiles, dtype=np.int64).reshape(-1, 3),
        np.array(payoffs).reshape(-1, 3),
        len(cells),
    )
    return records, np.array(kinds)


class TestRowVerification:
    def test_golden_rows_match_one_call_per_cell(self, golden_sweep):
        spec = golden_sweep.spec
        sset = enumerate_strategies(spec.steps)
        rows = {}
        for cell in golden_sweep.cells:
            rows.setdefault(cell.gamma, []).append(cell)
        assert len(rows) == 32
        assert {0.0, 1.0} <= {cell.p for cell in golden_sweep.cells}
        all_kinds, all_verdicts = [], []
        for gamma, cells in rows.items():
            records, kinds = stored_with_faults(cells, len(sset))
            p_values = [cell.p for cell in cells]
            verdicts = verify_records(records, spec.game, gamma, sset, p_values=p_values)
            assert verdicts == per_cell_verdicts(records, spec.game, gamma, sset, p_values)
            all_kinds.append(kinds)
            all_verdicts += verdicts
        kinds, verdicts = np.concatenate(all_kinds), np.array(all_verdicts)
        assert verdicts[kinds == 0].all()
        assert not verdicts[kinds == 1].any()
        assert not verdicts[kinds == 2].all()

    @pytest.mark.parametrize("p_values", [[0.0, 1.0], [1.0, 0.3, 0.0]])
    def test_row_cells_at_the_ends_of_p(self, grid24, p_values):
        # The same candidates in every cell, found at different p: at p = 0
        # and p = 1 one of A's subgames has weight 0.
        game = custom_bayesian()
        found = [records_of(find_ne_at(game, 0.9, grid24, p)) for p in p_values]
        payoffs = [one_at_a_time(game, 0.9, grid24, p) for p in p_values]
        rng = np.random.default_rng(len(p_values))
        cells = [with_decoys(sum(found, []), len(grid24), 3, rng, pay) for pay in payoffs]
        records = RecordSet(
            np.repeat(np.arange(len(cells)), [len(c) for c in cells]),
            np.array([rec.profile for c in cells for rec in c]),
            np.array([rec.payoffs for c in cells for rec in c]),
            len(cells),
        )
        verdicts = verify_records(records, game, 0.9, grid24, p_values=p_values)
        assert verdicts == per_cell_verdicts(records, game, 0.9, grid24, p_values)
        for c, p in enumerate(p_values):
            own = [v for v, cell in zip(verdicts, records.cell) if cell == c]
            assert own == oracle_verdicts(cells[c], game, 0.9, grid24, p)
            assert all(v for v, rec in zip(own, cells[c]) if rec in found[c])
            assert not all(own)

    def test_pd_sweep_rows_match_one_call_per_cell(self, grid24):
        game = builtin_pd()
        result = run_sweep(SweepSpec(game, gamma_grid(0.2), (), grid24.steps))
        rng = np.random.default_rng(11)
        for cell in result.cells:
            found = [rec for cls in cell.classes for rec in cls.members]
            payoffs = one_at_a_time(game, cell.gamma, grid24)
            records = record_set(with_decoys(found, len(grid24), 2, rng, payoffs))
            verdicts = verify_records(records, game, cell.gamma, grid24, p_values=[cell.p])
            assert verdicts == per_cell_verdicts(records, game, cell.gamma, grid24)
            assert verdicts[: len(found)] == [True] * len(found)

    def test_cell_outside_the_p_values_raises(self, grid8):
        one = record_set([EquilibriumRecord((0, 0, 0), (0.0, 0.0, 0.0))])
        second = RecordSet(one.cell + 1, one.profiles, one.payoffs, 2)
        with pytest.raises(ValueError, match="index the 1 p values"):
            verify_records(second, builtin_bayesian(), 0.3, grid8, p_values=(0.5,))

    def test_grid_unitaries_are_checked_once_per_call(self, grid24, monkeypatch):
        # The grid's stacked matrices are checked once, however many
        # 4,096-state blocks the row's tables take.
        calls = []
        check = equilibrium._as_unitary
        monkeypatch.setattr(equilibrium, "_as_unitary", lambda u: calls.append(1) or check(u))
        profiles = product(range(len(grid24)), repeat=3)
        records = record_set([EquilibriumRecord(prof, (0.0, 0.0, 0.0)) for prof in profiles])
        assert len(records) * 24 > 2 * equilibrium._VERIFY_BLOCK
        verdicts = verify_records(records, builtin_bayesian(), 0.7, grid24, p_values=(0.4,))
        assert len(verdicts) == len(records)
        assert len(calls) == 1

    @pytest.mark.parametrize("corrupt", [2.0, math.nan], ids=["not-unitary", "non-finite"])
    def test_corrupted_grid_unitary_raises(self, grid8, corrupt):
        unitaries = grid8.unitaries.copy()
        unitaries[5, 0, 1] = corrupt
        bad = StrategySet(grid8.steps, grid8.codes, grid8.angles, unitaries)
        records = record_set([EquilibriumRecord((0, 1, 2), (0.0, 0.0, 0.0))])
        with pytest.raises(ValueError, match="strategy matrix"):
            verify_records(records, builtin_bayesian(), 0.3, bad, p_values=(0.5,))


def per_row_verdicts(records, game, gammas, sset, p_values=None):
    """The reference for a block of rows: one ``verify_records`` call per
    distinct gamma, cell c lying at ``gammas[c]``."""
    gammas = np.asarray(gammas)
    verdicts = np.empty(len(records), dtype=bool)
    for gamma in np.unique(gammas).tolist():
        cells = np.flatnonzero(gammas == gamma)
        own = np.flatnonzero(gammas[records.cell] == gamma)
        row = RecordSet(
            np.searchsorted(cells, records.cell[own]),
            records.profiles[own],
            records.payoffs[own],
            len(cells),
        )
        p = None if p_values is None else [p_values[c] for c in cells]
        verdicts[own] = verify_records(row, game, gamma, sset, p_values=p)
    return verdicts.tolist()


@pytest.fixture(scope="module")
def block_sources(golden_sweep, grid24):
    """Result files' cells whose rows one call checks together: the golden
    sweep, a 24-strategy Bayesian sweep and a 24-strategy PD sweep."""
    return {
        "golden": golden_sweep,
        "bayesian-24": run_sweep(
            SweepSpec(builtin_bayesian(), gamma_grid(), p_grid(0.25), grid24.steps)
        ),
        "pd-24": run_sweep(SweepSpec(builtin_pd(), gamma_grid(), (), grid24.steps)),
    }


class TestBlockVerification:
    @pytest.mark.parametrize("fault", ["stored", "zeroed", "shifted", "moved"])
    @pytest.mark.parametrize("source", ["golden", "bayesian-24", "pd-24"])
    def test_per_cell_gammas_match_one_call_per_row(self, block_sources, source, fault):
        result = block_sources[source]
        game, cells = result.spec.game, result.cells
        sset = enumerate_strategies(result.spec.steps)
        players = 3 if isinstance(game, BayesianGame) else 2
        classes = [(i, cls) for i, cell in enumerate(cells) for cls in cell.classes]
        cell = np.concatenate([[i] * cls.n_profiles for i, cls in classes]).astype(np.int64)
        profiles = np.concatenate([cls.profiles for _, cls in classes])
        payoffs = np.concatenate([[cls.payoffs] * cls.n_profiles for _, cls in classes])
        every = np.arange(len(profiles))
        if fault == "zeroed":
            payoffs = np.zeros_like(payoffs)
        elif fault == "shifted":
            payoffs[every % 3 == 0, every[every % 3 == 0] % players] += 1e-6
        elif fault == "moved":
            profiles[every % 4 == 0, 1] = (profiles[every % 4 == 0, 1] + len(sset) // 2) % len(sset)
        records = RecordSet(cell, profiles, payoffs, len(cells))
        gammas = [c.gamma for c in cells]
        p_values = [c.p for c in cells] if players == 3 else None
        assert len(set(gammas)) == 32
        verdicts = verify_records(records, game, gammas, sset, p_values=p_values)
        assert verdicts == per_row_verdicts(records, game, gammas, sset, p_values)
        assert all(verdicts) == (fault == "stored")

    def test_two_player_cell_outside_the_gammas_raises(self, grid8):
        one = record_set([EquilibriumRecord((0, 0), (0.0, 0.0))])
        second = RecordSet(one.cell + 1, one.profiles, one.payoffs, 2)
        with pytest.raises(ValueError, match="index the 1 gamma values"):
            verify_records(second, builtin_pd(), [0.3], grid8)

    def test_scalar_gamma_cell_outside_the_cells_raises(self, grid8):
        # One angle serves the set's n_cells cells and no record beyond them.
        one = record_set([EquilibriumRecord((0, 0), (0.0, 0.0))])
        beyond = RecordSet(one.cell + 1, one.profiles, one.payoffs, 1)
        with pytest.raises(ValueError, match="index the 1 gamma values"):
            verify_records(beyond, builtin_pd(), 0.3, grid8)
        inside = RecordSet(beyond.cell, one.profiles, one.payoffs, 2)
        assert verify_records(inside, builtin_pd(), 0.3, grid8) == verify_records(
            one, builtin_pd(), 0.3, grid8
        )


class TestClassify:
    def test_pd_phase_class(self, grid8):
        (classes,) = classify(find_ne_two_player(builtin_pd(), 0.5, grid8), grid8)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.theta_profile == (PI, PI)
        assert cls.phase_sums["A-B"] == pytest.approx((PI / 2, 3 * PI / 2))
        assert cls.phase_diffs["A-B"] == pytest.approx((PI / 2, 3 * PI / 2))
        assert cls.operator_label == "Y⊗X"
        assert cls.n_profiles == 8

    def test_bayesian_cooperate_class(self, grid8):
        (classes,) = classify(find_ne_at(builtin_bayesian(), 0.5, grid8, 0.1), grid8)
        assert len(classes) == 1
        cls = classes[0]
        assert cls.theta_profile == (0.0, PI, 0.0)
        assert cls.operator_label == "I⊗Y⊗I"
        assert cls.phase_sums["A-B1"] == pytest.approx((0.0, PI))
        assert cls.phase_sums["A-B2"] == pytest.approx((0.0, PI))

    def test_singleton_degenerate_class(self, grid8):
        rec = EquilibriumRecord((IDENTITY, IDENTITY), (11.0, 9.0))
        ((cls,),) = classify(record_set([rec]), grid8)
        assert cls.theta_profile == (0.0, 0.0)
        assert cls.members == (rec,)
        # both players sit at a single phase value
        assert cls.phase_sums["A-B"] == (0.0,)

    def test_payoff_spread_within_class(self, grid8):
        for gamma in (0.35, 0.8):
            records = find_ne_at(builtin_bayesian(), gamma, grid8, 0.8)
            (classes,) = classify(records, grid8)
            found = dict(zip(map(tuple, records.profiles.tolist()), records.payoffs))
            assert sum(cls.n_profiles for cls in classes) == len(found) > 0
            for cls in classes:
                for profile in map(tuple, cls.profiles.tolist()):
                    assert np.max(np.abs(found.pop(profile) - cls.payoffs)) < 1e-9

    def test_phase_class_closure(self, grid8):
        # Every grid profile consistent with the class theta-profile and its
        # reported phase-sum sets must itself be a member: no missing siblings.
        records = find_ne_at(builtin_bayesian(), 0.3, grid8, 0.9)
        for cls in classify(records, grid8)[0]:
            members = {rec.profile for rec in cls.members}
            thetas = [round(t, 9) for t in cls.theta_profile]
            angles = grid8.angles.tolist()
            candidates = [
                prof
                for prof in product(range(8), repeat=3)
                if [round(angles[i][0], 9) for i in prof] == thetas
            ]
            sums = {
                "A-B1": set(cls.phase_sums["A-B1"]),
                "A-B2": set(cls.phase_sums["A-B2"]),
            }

            def free(i):
                theta, phi, alpha = angles[i]
                return phi if theta < 1e-9 else alpha

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
            game = builtin_bayesian()
            fast = {r.profile for r in records_of(find_ne_at(game, gamma, grid8, p))}
            assert fast == naive_bayesian_ne(game, gamma, grid8, p, 1e-9)


    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_matches_naive_enumeration_on_24_grid_at_gamma_zero(self, grid24, p):
        # Classical limit: payoffs depend on theta only, so every best
        # response is tied across the free phases.
        game = builtin_bayesian()
        fast = find_ne_at(game, 0.0, grid24, p)
        assert len(fast) == 64
        assert {r.profile for r in records_of(fast)} == naive_bayesian_ne(game, 0.0, grid24, p, 1e-9)

    def test_matches_naive_enumeration_on_24_grid_at_random_points(self, grid24):
        rng = np.random.default_rng(314159)
        for _ in range(4):
            p = float(rng.uniform())
            gamma = float(rng.uniform(0.0, PI / 2))
            game = builtin_bayesian()
            fast = {r.profile for r in records_of(find_ne_at(game, gamma, grid24, p))}
            assert fast == naive_bayesian_ne(game, gamma, grid24, p, 1e-9)

    def test_custom_game_with_distinct_a_payoffs_matches_naive(self, grid24):
        rng = np.random.default_rng(271828)
        points = [(0.3, 0.0)] + [
            (float(rng.uniform()), float(rng.uniform(0.0, PI / 2))) for _ in range(3)
        ]
        found = 0
        game = custom_bayesian()
        for p, gamma in points:
            records = find_ne_at(game, gamma, grid24, p)
            assert {r.profile for r in records_of(records)} == naive_bayesian_ne(
                game, gamma, grid24, p, 1e-9
            )
            assert all(verify_records(records, game, gamma, grid24, p_values=(p,)))
            found += len(records)
        assert found > 0

    def test_block_boundaries_do_not_change_records(self, grid24, monkeypatch):
        game = custom_bayesian()
        whole = find_ne_at(game, 0.0, grid24, 0.4)
        monkeypatch.setattr(equilibrium, "_TRIPLE_BLOCK", 5)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", 30)
        assert records_of(find_ne_at(game, 0.0, grid24, 0.4)) == records_of(whole)
        assert records_of(whole) == sorted(records_of(whole), key=lambda r: r.profile)


class TestRowSearch:
    """One search over a gamma row's table set gives each p the records of a per-p call."""

    @staticmethod
    def per_p(game, gamma, sset, p_values):
        return [records_of(find_ne_at(game, gamma, sset, p)) for p in p_values]

    def test_matches_per_p_calls_at_random_points(self, grid24):
        rng = np.random.default_rng(161803)
        game = builtin_bayesian()
        for gamma in [0.0] + [float(g) for g in rng.uniform(0.0, PI / 2, size=3)]:
            p_values = [0.0] + rng.uniform(size=4).tolist() + [1.0]
            row = find_ne_bayesian_row(bayesian_tables(game, gamma, grid24), p_values)
            assert cells_of(row) == self.per_p(game, gamma, grid24, p_values)

    def test_custom_game_with_distinct_a_payoffs(self, grid24):
        rng = np.random.default_rng(141421)
        game = custom_bayesian()
        counts = set()
        for gamma in (0.0, float(rng.uniform(0.0, PI / 2))):
            p_values = sorted(rng.uniform(size=6).tolist())
            row = find_ne_bayesian_row(bayesian_tables(game, gamma, grid24), p_values)
            assert cells_of(row) == self.per_p(game, gamma, grid24, p_values)
            counts.update((gamma, len(records)) for records in cells_of(row))
        # Some row's record count changes with p, and some cell is not empty.
        assert len(counts) > 2 and any(n for _, n in counts)

    @pytest.mark.parametrize("triple_block,column_block", [(5, 30), (200, 100)])
    def test_block_boundaries_do_not_change_records(
        self, grid24, monkeypatch, triple_block, column_block
    ):
        game = custom_bayesian()
        p_values = [0.0, 0.2, 0.45, 0.7, 1.0]
        tables = bayesian_tables(game, 0.0, grid24)
        whole = cells_of(find_ne_bayesian_row(tables, p_values))
        monkeypatch.setattr(equilibrium, "_TRIPLE_BLOCK", triple_block)
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", column_block)
        assert cells_of(find_ne_bayesian_row(tables, p_values)) == whole
        assert self.per_p(game, 0.0, grid24, p_values) == whole

    def test_rejects_p_outside_unit_interval(self, grid8):
        with pytest.raises(ValueError, match="p must lie"):
            find_ne_bayesian_row(bayesian_tables(builtin_bayesian(), 0.3, grid8), [0.5, 1.5])


class TestRecheck:
    def test_found_records_pass(self, grid24):
        game = builtin_bayesian()
        tables = bayesian_tables(game, 1.0, grid24)
        records = find_ne_bayesian_row(tables, [0.0])
        assert len(records)
        _recheck(records, tables, [0.0])

    def test_tampered_record_raises(self, grid24):
        game = builtin_bayesian()
        tables = bayesian_tables(game, 1.0, grid24)
        records = records_of(find_ne_bayesian_row(tables, [0.0]))
        bad = next(
            prof
            for prof in product(range(len(grid24)), repeat=3)
            if prof not in {r.profile for r in records}
        )
        tampered = records[:-1] + [EquilibriumRecord(bad, records[-1].payoffs)]
        with pytest.raises(RuntimeError, match=re.escape(str(bad))):
            _recheck(record_set(tampered), tables, [0.0])

    def test_row_search_rechecks_what_it_returns(self, monkeypatch, grid24):
        # An unstable record from the search is caught by the re-check in
        # find_ne_bayesian_row.
        game = builtin_bayesian()
        found = records_of(find_ne_at(game, 1.0, grid24, 0.0))
        bad = EquilibriumRecord((0, 0, 0), found[0].payoffs)
        assert bad not in found
        monkeypatch.setattr(equilibrium, "_search_row", lambda tables, p: record_set([bad]))
        with pytest.raises(RuntimeError, match="failed deviation re-check"):
            find_ne_bayesian_row(bayesian_tables(game, 1.0, grid24), [0.0])

    def test_tampered_record_sharing_a_good_pair_raises(self, grid24):
        # A's best deviation is taken once per (b1, b2).  The bad record
        # shares its pair with a good one and passes both B players' lists,
        # so only A's check can name it.
        game, n = builtin_bayesian(), len(grid24)
        tables = bayesian_tables(game, 0.0, grid24)
        records = records_of(find_ne_bayesian_row(tables, [0.3]))
        found = {r.profile for r in records}
        bad = next(
            (a, b1, b2)
            for _, b1, b2 in sorted(found)
            for a in range(n)
            if (a, b1, b2) not in found
            and a * n + b1 in tables.br1
            and a * n + b2 in tables.br2
        )
        tampered = sorted(
            records + [EquilibriumRecord(bad, records[0].payoffs)], key=lambda r: r.profile
        )
        with pytest.raises(RuntimeError, match=re.escape(str(bad))):
            _recheck(record_set(tampered), tables, [0.3])

    def test_search_and_recheck_work_at_the_tables_eps_tie(self, grid24):
        # 1e-8 above the classical threshold p = 1/6, A's C and D differ by
        # 6e-8 against (D, C): tied at 1e-6, not at 1e-9.
        game, p_values = builtin_bayesian(), [1 / 6 + 1e-8, 0.5]
        loose = bayesian_tables(game, 0.0, grid24, 1e-6)
        row = find_ne_bayesian_row(loose, p_values)
        cells = cells_of(row)
        assert cells == [records_of(find_ne_at(game, 0.0, grid24, p, 1e-6)) for p in p_values]
        strict_tables = bayesian_tables(game, 0.0, grid24, 1e-9)
        strict = cells_of(find_ne_bayesian_row(strict_tables, p_values))
        assert len(cells[0]) > len(strict[0]) and cells[1] == strict[1]
        _recheck(row, loose, p_values)
        with pytest.raises(RuntimeError, match="failed deviation re-check"):
            _recheck(row, strict_tables, p_values)


class TestInvariants:
    def test_classical_anchor_at_gamma_zero(self, grid8):
        # Quantum solve at gamma = 0 matches the classical formulas away from
        # one grid step around the p = 1/6 threshold.
        for i in range(21):
            p = 0.05 * i
            if abs(p - 1 / 6) <= 0.05:
                continue
            (classes,) = classify(find_ne_at(builtin_bayesian(), 0.0, grid8, p), grid8)
            classical = classical_bayesian_ne(p)
            assert len(classes) == len(classical) == 1
            assert classes[0].payoffs == pytest.approx(classical[0][1], abs=1e-9)

    def test_pd_branch_monotone_in_gamma(self, grid8):
        game = builtin_pd()
        prev = (-np.inf, -np.inf)
        for i in range(24):  # gamma = 0 .. 1.15, below the disappearance point
            gamma = 0.05 * i
            (classes,) = classify(find_ne_two_player(game, gamma, grid8), grid8)
            assert len(classes) == 1
            pa, pb = classes[0].payoffs
            assert pa >= prev[0] - 1e-12 and pb >= prev[1] - 1e-12
            prev = (pa, pb)

    def test_eps_tie_robustness(self, grid8):
        points = [(0.9, 0.3), (0.1, 0.5), (0.5, 0.8), (0.1, 1.3), (0.5, 0.3)]
        for p, gamma in points:
            game = builtin_bayesian()
            found = []
            for eps in (1e-9, 1e-6):
                records = find_ne_at(game, gamma, grid8, p, eps)
                found.append({r.profile for r in records_of(records)})
            strict, loose = found
            assert strict == loose
