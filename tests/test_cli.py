import gzip
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qgame import cli, equilibrium
from qgame.cli import main, parse_angle
from qgame.equilibrium import DEFAULT_EPS_TIE
from qgame.games import builtin_bayesian, builtin_pd
from qgame.serialize import (
    BAYESIAN_CSV_HEADER,
    TWO_PLAYER_CSV_HEADER,
    ConfigError,
    class_id,
    emit,
    load_game,
    load_result,
)
from qgame.strategies import GridSteps, enumerate_strategies
from qgame.sweep import CellResult, SweepResult, gamma_grid, p_grid

PI = math.pi
GOLDEN = Path(__file__).parent / "golden"

GAME_JSON = {
    "game": "bayesian",
    "payoffs": {
        "A_vs_B1": {"A": [11, 1, 10, 6], "B": [9, 10, 1, 6]},
        "A_vs_B2": {"A": [11, 1, 10, 6], "B": [9, 6, 1, 0]},
    },
}


def write_game(tmp_path, data, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi", PI),
            ("pi/8", PI / 8),
            ("3pi/2", 3 * PI / 2),
            ("2pi", 2 * PI),
            ("0.5", 0.5),
            ("PI/2", PI / 2),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, abs=1e-15)

    def test_rejects_garbage(self):
        from qgame.cli import UsageError

        for text in ("fast", "pi/0", "3pi/0.0"):
            with pytest.raises(UsageError):
                parse_angle(text)


class TestExitCodes:
    def test_solve_succeeds(self, capsys):
        assert main(["solve", "--game", "pd", "--gamma", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "1 NE class(es)" in out
        assert "Y⊗X" in out

    def test_unknown_flag_is_argument_error(self, capsys):
        assert main(["solve", "--game", "pd", "--gamma", "0.5", "--bogus"]) == 1

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["solve", "--game", "pd", "--gamma", "0.5", "--p", "0.3"], "--p"),
            (["solve", "--game", "da", "--gamma", "0.5", "--p", "0.5"], "--p"),
            (["sweep", "--game", "pd", "--p-step", "0.5"], "--p-step"),
        ],
        ids=["solve-pd", "solve-da", "sweep-pd"],
    )
    def test_p_flag_refused_for_two_player_game(self, tmp_path, argv, flag, capsys):
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 1
        assert f"{flag} needs a Bayesian game" in capsys.readouterr().err
        assert not out.exists()

    def test_p_out_of_range(self, capsys):
        for circuit in ("mixture", "full"):
            argv = ["solve", "--game", "bayesian", "--gamma", "0.5", "--p", "1.2"]
            assert main(argv + ["--circuit", circuit]) == 1
            assert "must lie in [0, 1]" in capsys.readouterr().err

    def test_gamma_out_of_range(self, capsys):
        assert main(["solve", "--game", "pd", "--gamma", "2.0"]) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--gamma", "pi/0"],
            ["--gamma", "0.5", "--grid-phi", "pi/0"],
            ["--gamma", "0.5", "--circuit", "full", "--grid-theta", "pi/0"],
            ["--gamma", "0.5", "--circuit", "full", "--grid-alpha", "2pi/0"],
            ["--gamma", "3pi/0.0"],
        ],
    )
    def test_zero_angle_denominator_is_argument_error(self, flags, capsys):
        assert main(["solve", "--game", "bayesian"] + flags) == 1
        assert "divides by zero" in capsys.readouterr().err

    def test_bad_grid_step(self, capsys):
        assert (
            main(["solve", "--game", "pd", "--gamma", "0.5", "--grid-theta", "1.0"]) == 1
        )

    def test_short_payoff_vector_is_config_error(self, tmp_path, capsys):
        bad = {
            "game": "two-player",
            "payoffs": {"A_vs_B1": {"A": [1, 2, 3], "B": [0, 0, 0, 0]}},
        }
        path = write_game(tmp_path, bad)
        assert main(["solve", "--game", path, "--gamma", "0.5"]) == 2
        assert "payoffs.A_vs_B1.A" in capsys.readouterr().err

    def test_missing_b2_block_is_config_error(self, tmp_path, capsys):
        bad = {"game": "bayesian", "payoffs": {"A_vs_B1": GAME_JSON["payoffs"]["A_vs_B1"]}}
        path = write_game(tmp_path, bad)
        assert main(["solve", "--game", path, "--gamma", "0.5"]) == 2
        assert "A_vs_B2" in capsys.readouterr().err

    def test_invalid_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["solve", "--game", str(path), "--gamma", "0.5"]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        out = str(tmp_path / "missing-dir" / "out.csv")
        assert main(["solve", "--game", "pd", "--gamma", "0.5", "--out", out]) == 3


class TestToleranceAndWorkerFlags:
    @pytest.mark.parametrize("eps", ["nan", "-1", "inf"])
    @pytest.mark.parametrize(
        "command",
        [
            ["solve", "--game", "bayesian", "--gamma", "0.5"],
            ["sweep", "--p-step", "0.5", "--gamma-step", "0.8"],
            ["verify", "--in", "unused.json"],
        ],
    )
    def test_bad_eps_tie_is_argument_error(self, command, eps, capsys):
        assert main(command + ["--eps-tie", eps]) == 1
        err = capsys.readouterr().err
        assert "--eps-tie" in err and "non-negative" in err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--p-step", "1e-7", "--gamma-step", "1e-7"], "points"),
            (["--grid-theta", "pi/32", "--grid-phi", "pi/32", "--grid-alpha", "pi/32"],
             "strategies"),
            (["--p-step", "inf"], "finite"),
            (["--p-step", "nan"], "must be positive and finite"),
            (["--gamma-step", "nan"], "must be positive and finite"),
        ],
    )
    def test_oversized_sweep_is_refused(self, flags, message, capsys):
        assert main(["sweep"] + flags) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["sweep", "--p-step", "0.5", "--gamma-step", "0.8"]])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_non_positive_jobs_is_argument_error(self, command, jobs, capsys):
        assert main(command + ["--jobs", jobs]) == 1
        assert "worker count must be at least 1" in capsys.readouterr().err


class TestParserReuse:
    def test_calls_in_sequence_share_no_parsed_values(self, monkeypatch, capsys):
        # One parser serves every main() call of the process; each call
        # must still see only its own flags and the defaults.
        runs = []

        def recorded(spec, workers=None):
            runs.append((spec, workers))
            p = spec.p_values[0] if spec.p_values else None
            return SweepResult(spec, (CellResult(p, spec.gamma_values[0], ()),))

        monkeypatch.setattr(cli, "run_sweep", recorded)
        assert cli.build_parser() is cli.build_parser()
        commands = [
            ["sweep", "--jobs", "2", "--gamma-step", "0.5", "--eps-tie", "1e-6"],
            ["sweep"],
            ["sweep", "--game", "pd", "--grid-phi", "pi/4"],
            ["solve", "--game", "bayesian", "--gamma", "0.3", "--p", "0.9"],
            ["solve", "--gamma", "0.3"],
            ["sweep", "--p-step", "0.5"],
        ]
        for command in commands:
            assert main(command) == 0, command
        capsys.readouterr()
        default_steps = GridSteps(PI, PI / 2, PI / 2)
        want = [
            (gamma_grid(0.5), p_grid(), default_steps, 1e-6, 2),
            (gamma_grid(), p_grid(), default_steps, DEFAULT_EPS_TIE, 1),
            (gamma_grid(), (), GridSteps(PI, PI / 4, PI / 2), DEFAULT_EPS_TIE, 1),
            ((0.3,), (0.9,), default_steps, DEFAULT_EPS_TIE, None),
            ((0.3,), (), default_steps, DEFAULT_EPS_TIE, None),
            (gamma_grid(), p_grid(0.5), default_steps, DEFAULT_EPS_TIE, 1),
        ]
        got = [
            (spec.gamma_values, spec.p_values, spec.steps, spec.eps_tie, workers)
            for spec, workers in runs
        ]
        assert got == want
        games = [type(spec.game).__name__ for spec, _ in runs]
        assert games == ["BayesianGame", "BayesianGame", "TwoPlayerGame"] + [
            "BayesianGame", "TwoPlayerGame", "BayesianGame"
        ]


class TestGameLoading:
    def test_loads_builtin_equivalent(self, tmp_path):
        assert load_game(write_game(tmp_path, GAME_JSON)) == builtin_bayesian()
        pd = {"game": "two-player", "payoffs": {"A_vs_B1": GAME_JSON["payoffs"]["A_vs_B1"]}}
        assert load_game(write_game(tmp_path, pd, "pd.json")) == builtin_pd()

    @pytest.mark.parametrize(
        "vector",
        ["9876", True, {"0": 1, "1": 2, "2": 3, "3": 4}, [11, 1, 10, True], [11, 1, 10, "6"]],
        ids=["string", "boolean", "object", "boolean-entry", "string-entry"],
    )
    def test_malformed_payoff_vector_is_config_error(self, tmp_path, vector):
        data = json.loads(json.dumps(GAME_JSON))
        data["payoffs"]["A_vs_B2"]["B"] = vector
        path = write_game(tmp_path, data)
        with pytest.raises(ConfigError, match=r"payoffs\.A_vs_B2\.B must be a list of numbers"):
            load_game(path)
        assert main(["solve", "--game", path, "--gamma", "0.5"]) == 2

    def test_two_player_uses_only_first_block(self, tmp_path):
        data = {"game": "two-player", "payoffs": {"A_vs_B1": {"A": [1, 2, 3, 4], "B": [4, 3, 2, 1]}}}
        game = load_game(write_game(tmp_path, data))
        assert game.payoff_a == (1, 2, 3, 4)


class TestResultFiles:
    def test_json_round_trip_is_byte_identical(self, tmp_path):
        first = str(tmp_path / "solve.json")
        assert (
            main(
                [
                    "solve",
                    "--game",
                    "bayesian",
                    "--p",
                    "0.9",
                    "--gamma",
                    "0.3",
                    "--out",
                    first,
                ]
            )
            == 0
        )
        loaded = load_result(first)
        second = str(tmp_path / "roundtrip.json")
        emit(loaded.result, "json", second, kind=loaded.kind, circuit=loaded.circuit)
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_verify_command_passes_on_emitted_result(self, tmp_path, capsys):
        out = str(tmp_path / "solve.json")
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", out])
        assert main(["verify", "--in", out]) == 0
        assert "all pass" in capsys.readouterr().out

    def test_verify_command_passes_on_result_without_ne(self, tmp_path, capsys):
        # The central gap holds no NE class, so the file stores no profile.
        out = str(tmp_path / "gap.json")
        main(["solve", "--game", "bayesian", "--p", "0.5", "--gamma", "0.3", "--out", out])
        assert load_result(out).result.cells[0].classes == ()
        capsys.readouterr()
        assert main(["verify", "--in", out]) == 0
        assert "verified 0 recorded NE profiles" in capsys.readouterr().out

    def test_verify_command_flags_tampered_result(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        data["cells"][0]["classes"][0]["members"][0] = [0, 0, 0]
        out.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", "--in", str(out)]) == 3
        assert "not equilibria" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda cls: cls.update(
                theta=[0.0, 0.0, 0.0], operator_label="I⊗I⊗I", phase_sums={"A-B1": [9.0]}
            ),
            lambda cls: cls.update(theta=[0.0, 0.0, 0.0]),
            lambda cls: cls.update(operator_label=None),
            lambda cls: cls["phase_diffs"].update({"A-B2": [1.0]}),
        ],
        ids=["found-30", "theta", "label", "phase-diffs"],
    )
    def test_verify_command_flags_a_class_its_members_do_not_derive(
        self, tmp_path, capsys, edit
    ):
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        edit(data["cells"][0]["classes"][0])
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 3
        err = capsys.readouterr().err
        cls = load_result(str(out)).result.cells[0].classes[0]
        assert f"FAIL p=0.9 gamma=0.3 class={class_id(cls)}" in err
        assert "1 stored classes differ" in err and "not equilibria" not in err

    def test_verify_command_flags_regrouped_members(self, tmp_path, capsys):
        # Split a class in two: every member still passes, the grouping does not.
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        classes = data["cells"][0]["classes"]
        first = classes[0]
        assert len(first["members"]) > 1
        classes.insert(1, dict(first, members=first["members"][1:]))
        first["members"] = first["members"][:1]
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 3
        assert "2 stored classes differ" in capsys.readouterr().err

    def test_verify_command_flags_a_repeated_member(self, tmp_path, capsys):
        # Every copy passes on its own and the class re-derives with both.
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        members = data["cells"][0]["classes"][0]["members"]
        assert len(members) == 16
        members.insert(1, members[0])
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 3
        err = capsys.readouterr().err
        cls = load_result(str(out)).result.cells[0].classes[0]
        assert err.splitlines() == [
            f"FAIL p=0.9 gamma=0.3 class={class_id(cls)} repeats profile={tuple(members[0])}",
            "1 stored profiles repeat within their cell",
        ]

    def test_verify_command_flags_zeroed_payoffs(self, tmp_path, capsys):
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        for cls in data["cells"][0]["classes"]:
            cls["payoffs"] = [0.0] * len(cls["payoffs"])
        out.write_text(json.dumps(data), encoding="utf-8")
        assert main(["verify", "--in", str(out)]) == 3
        assert "stored payoffs" in capsys.readouterr().err

    def test_verify_command_reports_failures_in_file_order(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--p-step", "0.5", "--gamma-step", "0.4", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        # Shift every other class's payoffs, counting classes across cells.
        classes = [(cell, cls) for cell in data["cells"] for cls in cell["classes"]]
        expected = []
        for cell, cls in classes[1::2]:
            cls["payoffs"] = [x + 1e-6 for x in cls["payoffs"]]
            expected += [
                f"FAIL p={cell['p']} gamma={cell['gamma']:.6g} profile={tuple(m)}"
                for m in cls["members"]
            ]
        checked = sum(len(cls["members"]) for _, cls in classes)
        assert len({line.split(" profile")[0] for line in expected[:20]}) > 1
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == expected[:20] + [
            f"{len(expected)} of {checked} recorded profiles are not equilibria"
            " with their stored payoffs"
        ]

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    def test_verify_reports_failures_in_the_order_of_reordered_cells(
        self, tmp_path, capsys, order
    ):
        # Each gamma's cells are checked together, wherever they sit in
        # the file; the report follows the file.
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--p-step", "0.5", "--gamma-step", "0.4", "--format", "json"]
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        data["cells"].reverse()
        if order == "shuffled":
            random.Random(5).shuffle(data["cells"])
        classes = [(cell, cls) for cell in data["cells"] for cls in cell["classes"]]
        expected = []
        for cell, cls in classes[::2]:
            cls["payoffs"] = [x + 1e-6 for x in cls["payoffs"]]
            expected += [
                f"FAIL p={cell['p']} gamma={cell['gamma']:.6g} profile={tuple(m)}"
                for m in cls["members"]
            ]
        checked = sum(len(cls["members"]) for _, cls in classes)
        gammas = [line.split(" profile")[0].split()[2] for line in expected[:20]]
        assert gammas != sorted(gammas)
        out.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 3
        assert capsys.readouterr().err.splitlines() == expected[:20] + [
            f"{len(expected)} of {checked} recorded profiles are not equilibria"
            " with their stored payoffs"
        ]

    def verify_output(self, path, capsys):
        capsys.readouterr()
        code = main(["verify", "--in", str(path)])
        out, err = capsys.readouterr()
        return out, err, code

    @pytest.mark.parametrize(
        "argv, tamper",
        [
            (["--grid-theta", "pi/2", "--grid-phi", "pi/2", "--grid-alpha", "pi/2",
              "--p-step", "0.25", "--gamma-step", "0.1"], "shifted"),
            (["--game", "pd"], "none"),
            (["--game", "pd"], "zeroed"),
            (["--game", "pd", "--grid-theta", "pi/2", "--grid-phi", "pi/2",
              "--grid-alpha", "pi/2"], "shifted"),
        ],
        ids=["bayesian-24-shifted", "pd-8", "pd-8-zeroed", "pd-24-shifted"],
    )
    def test_verify_blocks_report_as_one_call_per_gamma(
        self, tmp_path, capsys, monkeypatch, argv, tamper
    ):
        # Shuffled cells put each block's rows all over the file.
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--format", "json", "--out", str(out)] + argv) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        random.Random(7).shuffle(data["cells"])
        classes = [cls for cell in data["cells"] for cls in cell["classes"]]
        for k, cls in enumerate(classes):
            if tamper == "zeroed":
                cls["payoffs"] = [0.0] * len(cls["payoffs"])
            elif tamper == "shifted" and k % 3 == 0:
                cls["payoffs"] = [x + 1e-6 for x in cls["payoffs"]]
        out.write_text(json.dumps(data), encoding="utf-8")
        blocked = self.verify_output(out, capsys)
        assert blocked[2] == (0 if tamper == "none" else 3)
        n = len(enumerate_strategies(load_result(str(out)).result.spec.steps))
        monkeypatch.setattr(equilibrium, "_VERIFY_BLOCK", n * n)  # one gamma row per block
        assert self.verify_output(out, capsys) == blocked

    @pytest.mark.parametrize(
        "source, calls, rows",
        [("golden", 1, 32), (["--game", "pd", "--grid-theta", "pi/4", "--grid-phi", "pi/4",
                              "--grid-alpha", "pi/4"], 24, 24)],
        ids=["golden-sweep", "pd-208"],
    )
    def test_verify_oracle_calls_per_file(
        self, tmp_path, capsys, monkeypatch, source, calls, rows
    ):
        # The 8-strategy sweep's 32 rows fit one block; from 46 strategies
        # up each row is its own block, and the 208-strategy PD sweep's 8
        # rows from gamma = 1.2 up hold no record, so they form none.
        # Every stacked call of a block takes the block's gammas.
        out = tmp_path / "sweep.json"
        if source == "golden":
            out.write_bytes(gzip.decompress((GOLDEN / "sweep.json.gz").read_bytes()))
        else:
            assert main(["sweep", "--format", "json", "--out", str(out)] + source) == 0
        blocks = set()
        evolve = equilibrium._two_player_states

        def counting(gammas, *args):
            blocks.add(tuple(gammas))
            return evolve(gammas, *args)

        monkeypatch.setattr(equilibrium, "_two_player_states", counting)
        assert self.verify_output(out, capsys)[2] == 0
        assert len(blocks) == calls and sum(map(len, blocks)) == rows

    def test_classify_command_summarizes_regions(self, tmp_path, capsys):
        res = str(tmp_path / "sweep.json")
        assert (
            main(
                [
                    "sweep",
                    "--p-step",
                    "0.25",
                    "--gamma-step",
                    "0.4",
                    "--out",
                    res,
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        regions = str(tmp_path / "regions.csv")
        assert main(["classify", "--in", res, "--out", regions]) == 0
        text = Path(regions).read_text(encoding="utf-8")
        assert text.startswith("class_id,theta_A,theta_B1,theta_B2,operator_label")


class TestCsvOutputs:
    def test_bayesian_sweep_header_and_none_rows(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert (
            main(
                [
                    "sweep",
                    "--p-step",
                    "0.25",
                    "--gamma-step",
                    "0.3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == BAYESIAN_CSV_HEADER
        none_rows = [ln for ln in lines if ",NONE," in ln]
        assert none_rows
        assert none_rows[0].endswith(",NONE,,,,,,,0")

    def test_pd_figure_data(self, tmp_path):
        out = tmp_path / "pd.csv"
        assert main(["emit-figure", "--fig", "pd", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == TWO_PLAYER_CSV_HEADER
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(6.0, abs=1e-12)
        assert float(first[2]) == pytest.approx(6.0, abs=1e-12)
        # above the entanglement threshold the rows carry NONE
        assert any(ln.endswith(",,NONE") or ln.endswith(",NONE") for ln in lines[-3:])

    def test_da_figure_has_two_classes_when_entangled(self, tmp_path):
        out = tmp_path / "da.csv"
        assert main(["emit-figure", "--fig", "da", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()[1:]
        by_gamma = {}
        for ln in lines:
            cols = ln.split(",")
            by_gamma.setdefault(float(cols[0]), []).append(cols[-1])
        for gamma, ids in by_gamma.items():
            if gamma >= 0.6:
                assert len(set(ids)) == 2
            elif gamma <= 0.5:
                assert len(set(ids)) == 1


class TestFullCircuitMode:
    def test_full_circuit_solve_matches_mixture(self, tmp_path, capsys):
        out_mix = tmp_path / "mix.json"
        out_full = tmp_path / "full.json"
        base = ["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3"]
        assert main(base + ["--out", str(out_mix)]) == 0
        assert main(base + ["--circuit", "full", "--out", str(out_full)]) == 0
        mix = json.loads(out_mix.read_text(encoding="utf-8"))
        full = json.loads(out_full.read_text(encoding="utf-8"))
        assert mix["circuit"] == "mixture" and full["circuit"] == "full"
        assert [c["members"] for c in mix["cells"][0]["classes"]] == [
            c["members"] for c in full["cells"][0]["classes"]
        ]

    def test_full_circuit_control_override(self, capsys):
        # --p 1 prepares the control at theta_Q = pi: all weight on the PD subgame.
        argv = ["solve", "--game", "bayesian", "--gamma", "0.3", "--circuit", "full"]
        assert main(argv + ["--p", "1"]) == 0
        assert "3.14159265;3.14159265;" in capsys.readouterr().out

    def test_control_override_records_the_circuit_p(self, tmp_path, capsys):
        # The p the control was prepared from is the p recorded and re-verified.
        out = str(tmp_path / "p1.json")
        argv = ["solve", "--game", "bayesian", "--gamma", "0.3", "--circuit", "full"]
        assert main(argv + ["--p", "1", "--out", out]) == 0
        assert "p=1:" in capsys.readouterr().out
        assert json.loads(Path(out).read_text(encoding="utf-8"))["cells"][0]["p"] == 1.0
        assert main(["verify", "--in", out]) == 0
        assert "all pass" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--theta-q", "--phi-q", "--alpha-q"])
    @pytest.mark.parametrize("game", ["bayesian", "pd"])
    def test_removed_control_flags_are_refused(self, flag, game, capsys):
        # The control is prepared from --p alone; these flags no longer exist.
        argv = ["solve", "--game", game, "--gamma", "0.3", "--circuit", "full", flag, "pi/2"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err and "Traceback" not in err

    def test_full_circuit_needs_a_bayesian_game(self, tmp_path, capsys):
        out = tmp_path / "pd.json"
        argv = ["solve", "--game", "pd", "--gamma", "0.3", "--circuit", "full"]
        assert main(argv + ["--out", str(out)]) == 1
        assert "--circuit full" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_rechecks_its_records_once(self, monkeypatch, capsys):
        from qgame import equilibrium

        calls = []
        recheck = equilibrium._recheck

        def counted(*args):
            calls.append(args)
            return recheck(*args)

        monkeypatch.setattr(equilibrium, "_recheck", counted)
        assert main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3"]) == 0
        assert len(calls) == 1


class TestSubprocessEntry:
    def test_module_invocation(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "qgame.cli", "solve", "--game", "da", "--gamma", "pi/2"],
            capture_output=True,
            text=True,
            env=env,
            cwd=root,
        )
        assert proc.returncode == 0
        assert "2 NE class(es)" in proc.stdout


class TestLoadResultErrors:
    def test_malformed_result_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "sweep"}), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_result(str(path))

    @staticmethod
    def _with_cell(tmp_path, game, edit):
        """A one-cell solve result of ``game`` after ``edit`` of its cell."""
        out = tmp_path / "solve.json"
        p = ["--p", "0.9"] if game == "bayesian" else []
        main(["solve", "--game", game, "--gamma", "0.3", "--out", str(out)] + p)
        data = json.loads(out.read_text(encoding="utf-8"))
        edit(data["cells"][0])
        out.write_text(json.dumps(data), encoding="utf-8")
        return str(out)

    def _with_member(self, tmp_path, member):
        def edit(cell):
            cell["classes"][0]["members"][1] = member

        return self._with_cell(tmp_path, "bayesian", edit)

    def test_index_beyond_grid_is_config_error(self, tmp_path, capsys):
        path = self._with_member(tmp_path, [99, 0, 0])
        with pytest.raises(ConfigError, match=r"members\[1\].*99.*\[0, 8\)"):
            load_result(path)
        assert main(["verify", "--in", path]) == 2
        assert "99" in capsys.readouterr().err

    def test_negative_index_is_config_error(self, tmp_path, capsys):
        path = self._with_member(tmp_path, [4, -1, 0])
        with pytest.raises(ConfigError, match="-1"):
            load_result(path)
        assert main(["verify", "--in", path]) == 2

    @pytest.mark.parametrize(
        "member",
        [
            [4, 5],
            [4, 5, 0, 0],
            [4, 5.0, 0],
            [4, "5", 0],
            [4, True, 0],
            [4, [5], 0],
            [4, 5, None],
        ],
    )
    def test_malformed_profile_is_config_error(self, tmp_path, member):
        with pytest.raises(ConfigError, match=r"members\[1\]"):
            load_result(self._with_member(tmp_path, member))

    def test_malformed_profile_in_a_later_class_is_named(self, tmp_path, capsys):
        def edit(cell):
            second = dict(cell["classes"][0], members=[[4, True, 0]])
            cell["classes"].append(second)

        path = self._with_cell(tmp_path, "bayesian", edit)
        with pytest.raises(ConfigError, match=r"cells\[0\]\.classes\[1\]\.members\[0\].*True"):
            load_result(path)
        capsys.readouterr()
        assert main(["verify", "--in", path]) == 2
        assert "cells[0].classes[1].members[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda cls: cls.update(phase_sums=[0.0]), "phase_sums"),
            (lambda cls: cls.update(phase_diffs={"A-B1": 1.5}), r"phase_diffs\.A-B1"),
            (lambda cls: cls.update(phase_sums={"A-B1": [0.0, True]}), r"phase_sums\.A-B1"),
            (lambda cls: cls.update(theta=[0.0, 0.0]), "theta"),
            (lambda cls: cls.update(payoffs=cls["payoffs"][:2]), "payoffs"),
            (lambda cls: cls.update(payoffs=cls["payoffs"] + [0.0]), "payoffs"),
            (lambda cls: cls.update(payoffs="10"), "payoffs"),
            (lambda cls: cls.update(members=[]), "members"),
            (lambda cls: cls.update(members="[[4, 5, 0]]"), "members must be a list"),
            (lambda cls: cls.update(members={"0": [4, 5, 0]}), "members must be a list"),
            (lambda cls: cls.update(operator_label=5), "operator_label"),
        ],
        ids=[
            "phase-sums-list",
            "phase-diffs-number",
            "phase-sums-boolean",
            "short-theta",
            "short-payoffs",
            "long-payoffs",
            "string-payoffs",
            "no-members",
            "string-members",
            "object-members",
            "numeric-label",
        ],
    )
    def test_malformed_class_is_config_error(self, tmp_path, edit, field):
        path = self._with_cell(tmp_path, "bayesian", lambda cell: edit(cell["classes"][0]))
        with pytest.raises(ConfigError, match=rf"cells\[0\]\.classes\[0\]\.{field}"):
            load_result(path)
        assert main(["verify", "--in", path]) == 2
        assert main(["classify", "--in", path]) == 2

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(cells={}), "cells must be a list of cells, got {}"),
            (lambda d: d.update(cells=""), "cells must be a list of cells, got ''"),
            (
                lambda d: d["cells"][3].update(classes={}),
                "cells[3].classes must be a list of classes, got {}",
            ),
            (
                lambda d: d["cells"][3].update(classes="ab"),
                "cells[3].classes must be a list of classes, got 'ab'",
            ),
        ],
        ids=["cells-object", "cells-string", "classes-object", "classes-string"],
    )
    def test_non_list_cells_or_classes_is_config_error(self, tmp_path, capsys, edit, message):
        # Each was read as a file, or a cell, with nothing in it.
        data = json.loads(gzip.decompress((GOLDEN / "sweep.json.gz").read_bytes()))
        edit(data)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_result(str(path))
        capsys.readouterr()
        for command in ("verify", "classify"):
            assert main([command, "--in", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"config error: {message}\n"

    def test_non_finite_stored_tolerance_is_config_error(self, tmp_path):
        out = tmp_path / "solve.json"
        main(["solve", "--game", "pd", "--gamma", "0.3", "--out", str(out)])
        text = out.read_text(encoding="utf-8").replace('"eps_tie": 1e-09', '"eps_tie": NaN')
        out.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="eps_tie"):
            load_result(str(out))

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.update(eps_tie=True), "eps_tie"),
            (lambda d: d.update(eps_tie="1e-09"), "eps_tie"),
            (lambda d: d["grid_steps"].update(d_theta=str(PI)), "grid_steps.d_theta"),
            (lambda d: d["grid_steps"].update(d_phi=str(PI / 2)), "grid_steps.d_phi"),
            (lambda d: d["grid_steps"].update(d_alpha=str(PI / 2)), "grid_steps.d_alpha"),
            (lambda d: d["cells"][0].update(p="0.9"), "cells[0].p"),
            (lambda d: d["cells"][0].update(gamma="0.3"), "cells[0].gamma"),
            (lambda d: d.update(p_values=[0.9, True]), "p_values"),
            (lambda d: d.update(gamma_values=[0.0, "0.3"]), "gamma_values"),
        ],
        ids=[
            "boolean-eps-tie",
            "string-eps-tie",
            "string-d-theta",
            "string-d-phi",
            "string-d-alpha",
            "string-p",
            "string-gamma",
            "boolean-p-value",
            "string-gamma-value",
        ],
    )
    def test_non_number_scalar_is_config_error(self, tmp_path, capsys, edit, field):
        # Each edit is accepted by a bare float(); the file must still be refused.
        path = self._with_header(tmp_path, edit)
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_result(path)
        capsys.readouterr()
        assert main(["verify", "--in", path]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "game,edit,field",
        [
            ("bayesian", lambda cell: cell.pop("p"), "p"),
            ("bayesian", lambda cell: cell.update(p=1.5), "p"),
            ("bayesian", lambda cell: cell.update(p=-0.1), "p"),
            ("bayesian", lambda cell: cell.update(p=float("nan")), "p"),
            ("bayesian", lambda cell: cell.update(gamma=5.0), "gamma"),
            ("bayesian", lambda cell: cell.update(gamma=float("inf")), "gamma"),
            ("pd", lambda cell: cell.update(p=0.5), "p"),
            ("pd", lambda cell: cell.update(gamma=-0.3), "gamma"),
        ],
        ids=[
            "missing-p",
            "p-above-1",
            "negative-p",
            "nan-p",
            "gamma-above-half-pi",
            "infinite-gamma",
            "two-player-p",
            "negative-two-player-gamma",
        ],
    )
    def test_bad_cell_coordinate_is_config_error(self, tmp_path, capsys, game, edit, field):
        path = self._with_cell(tmp_path, game, edit)
        with pytest.raises(ConfigError, match=rf"cells\[0\]\.{field}"):
            load_result(path)
        capsys.readouterr()
        assert main(["verify", "--in", path]) == 2
        assert f"cells[0].{field}" in capsys.readouterr().err
        assert main(["classify", "--in", path]) == 2

    @staticmethod
    def _with_header(tmp_path, edit):
        """A one-cell Bayesian solve result (p = 0.9, gamma = 0.3) after ``edit``."""
        out = tmp_path / "solve.json"
        main(["solve", "--game", "bayesian", "--p", "0.9", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        edit(data)
        out.write_text(json.dumps(data), encoding="utf-8")
        return str(out)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d.update(p_values=[7.0], gamma_values=[9.0]), "gamma_values must lie"),
            (lambda d: d.update(p_values=[7.0]), "p_values must lie"),
            (lambda d: d.update(p_values=[float("nan")]), "p_values must lie"),
            (lambda d: d.update(gamma_values=[-0.1, 0.3]), "gamma_values must lie"),
            (lambda d: d.update(gamma_values=[float("inf")]), "gamma_values must lie"),
            (lambda d: d.update(p_values=[0.9, 0.5]), "p_values must be ascending"),
            (lambda d: d.update(p_values=[0.9, 0.9]), "p_values must be ascending"),
            (lambda d: d.update(p_values=0.9), "p_values must be a list"),
            (lambda d: d.update(p_values=[0.5]), r"cells\[0\]\.p 0\.9 is not among p_values"),
            (lambda d: d.update(gamma_values=[0.2]), r"cells\[0\]\.gamma 0\.3 is not among"),
            (lambda d: d.update(cells=d["cells"] * 2), r"cells\[1\] repeats .* of cells\[0\]"),
        ],
        ids=[
            "both-out-of-range",
            "p-above-1",
            "nan-p",
            "negative-gamma",
            "infinite-gamma",
            "descending-p",
            "repeated-p",
            "p-not-a-list",
            "cell-p-missing-from-header",
            "cell-gamma-missing-from-header",
            "repeated-cell",
        ],
    )
    def test_bad_header_axis_is_config_error(self, tmp_path, capsys, edit, message):
        path = self._with_header(tmp_path, edit)
        with pytest.raises(ConfigError, match=message):
            load_result(path)
        capsys.readouterr()
        assert main(["verify", "--in", path]) == 2
        assert main(["classify", "--in", path]) == 2

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.update(kind=["x"]), "kind"),
            (lambda d: d.update(kind="figure"), "kind"),
            (lambda d: d.update(circuit=7), "circuit"),
            (lambda d: d.update(circuit=None), "circuit"),
            (lambda d: d.update(mode="two-player"), "mode"),
            (lambda d: d.update(mode=None), "mode"),
        ],
        ids=["list-kind", "unknown-kind", "number-circuit", "null-circuit", "other-mode", "null-mode"],
    )
    def test_bad_header_field_is_config_error(self, tmp_path, capsys, edit, field):
        # Each of these used to load, and re-emitting the file changed its bytes.
        data = json.loads(gzip.decompress((GOLDEN / "sweep.json.gz").read_bytes()))
        edit(data)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"field '{field}' must be"):
            load_result(str(path))
        capsys.readouterr()
        assert main(["classify", "--in", str(path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_absent_header_fields_keep_their_defaults(self, tmp_path, capsys):
        out = tmp_path / "pd.json"
        main(["solve", "--game", "pd", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        for field in ("kind", "mode", "circuit"):
            del data[field]
        out.write_text(json.dumps(data), encoding="utf-8")
        loaded = load_result(str(out))
        assert (loaded.kind, loaded.circuit) == ("sweep", "mixture")
        data["mode"] = "bayesian"
        out.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match="field 'mode' must be 'two-player', got 'bayesian'"):
            load_result(str(out))

    def test_two_player_header_with_p_values_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "pd.json"
        main(["solve", "--game", "pd", "--gamma", "0.3", "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        data["p_values"] = [0.5]
        out.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match="two-player game takes no p_values"):
            load_result(str(out))
        capsys.readouterr()
        assert main(["verify", "--in", str(out)]) == 2
        assert main(["classify", "--in", str(out)]) == 2

    def test_header_may_hold_more_values_than_its_cells(self, tmp_path, capsys):
        # A sampled file keeps its sweep's full axes over a subset of cells.
        def edit(data):
            data.update(p_values=[0.0, 0.5, 0.9, 1.0], gamma_values=[0.0, 0.3, 1.5])

        path = self._with_header(tmp_path, edit)
        assert load_result(path).result.spec.p_values == (0.0, 0.5, 0.9, 1.0)
        assert main(["verify", "--in", path]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize(
        "content",
        [
            lambda text: text.encode("utf-16"),
            lambda text: b'{"game": 1' + b"0" * 5000 + b"}",
        ],
        ids=["utf-16", "integer-past-digit-limit"],
    )
    def test_unreadable_file_is_config_error_naming_it(self, tmp_path, capsys, command, content):
        # UTF-16 starts with the bytes ff fe, which no UTF-8 text starts with;
        # json refuses an integer literal past Python's digit limit.
        if command == "solve":
            text, argv = json.dumps(GAME_JSON), ["solve", "--gamma", "0.5", "--game"]
        else:
            text = Path(self._with_header(tmp_path, lambda data: None)).read_text("utf-8")
            argv = ["verify", "--in"]
        path = tmp_path / "unreadable.json"
        path.write_bytes(content(text))
        capsys.readouterr()
        assert main(argv + [str(path)]) == 2
        assert f"config error: {path} is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit,field",
        [
            (lambda d: d.update(eps_tie=10**400), "eps_tie"),
            (lambda d: d["cells"][0].update(gamma=10**400), "cells[0].gamma"),
            (
                lambda d: d["cells"][0]["classes"][0].update(payoffs=[10**400, 0.0, 0.0]),
                "cells[0].classes[0].payoffs",
            ),
            (lambda g: g["payoffs"]["A_vs_B1"].update(A=[11, 1, 10, 10**400]), "payoffs.A_vs_B1.A"),
        ],
        ids=["eps-tie", "cell-gamma", "class-payoffs", "game-payoff-vector"],
    )
    def test_integer_too_large_for_a_float_is_config_error(self, tmp_path, capsys, edit, field):
        # float() of a 400-digit integer raises OverflowError, not ValueError.
        if field.startswith("payoffs."):
            game = json.loads(json.dumps(GAME_JSON))
            edit(game)
            path, load = write_game(tmp_path, game), load_game
            argv = ["solve", "--gamma", "0.5", "--game", path]
        else:
            path, load = self._with_header(tmp_path, edit), load_result
            argv = ["verify", "--in", path]
        with pytest.raises(ConfigError, match=re.escape(f"{field} holds an integer too large")):
            load(path)
        capsys.readouterr()
        assert main(argv) == 2
        assert field in capsys.readouterr().err
