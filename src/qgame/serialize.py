"""Game-definition ingestion and result/plot-data serialization.

Game files use a minimal JSON schema::

    {"game": "two-player" | "bayesian",
     "payoffs": {"A_vs_B1": {"A": [4 reals], "B": [4 reals]},
                 "A_vs_B2": {"A": [4 reals], "B": [4 reals]}}}

Two-player games use only ``A_vs_B1``.  Payoff vectors are in basis
order |00>, |01>, |10>, |11> with player A's bit most significant.

Results serialize to JSON (full precision, loadable, byte-stable under
emit -> load -> emit) or CSV (plot data, floats at 9 significant
digits).  All files are UTF-8 with LF line endings.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

from .equilibrium import EquilibriumClass, EquilibriumRecord
from .games import BayesianGame, TwoPlayerGame, payoff_vector
from .strategies import GridSteps
from .sweep import CellResult, RegionSummary, SweepResult, SweepSpec


class ConfigError(Exception):
    """Invalid game or result file; the message names the offending field."""


def _f9(x: float) -> str:
    return format(float(x), ".9g")


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing required field '{path}{key}'")
    return mapping[key]


def _payoff_pair(block, path) -> tuple[tuple, tuple]:
    vec_a = _require(block, "A", path)
    vec_b = _require(block, "B", path)
    try:
        return payoff_vector(vec_a, f"{path}A"), payoff_vector(vec_b, f"{path}B")
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def game_from_dict(data: dict) -> TwoPlayerGame | BayesianGame:
    kind = _require(data, "game", "")
    payoffs = _require(data, "payoffs", "")
    block1 = _require(payoffs, "A_vs_B1", "payoffs.")
    pa1, pb1 = _payoff_pair(block1, "payoffs.A_vs_B1.")
    if kind == "two-player":
        return TwoPlayerGame(pa1, pb1)
    if kind == "bayesian":
        block2 = _require(payoffs, "A_vs_B2", "payoffs.")
        pa2, pb2 = _payoff_pair(block2, "payoffs.A_vs_B2.")
        return BayesianGame(TwoPlayerGame(pa1, pb1), TwoPlayerGame(pa2, pb2))
    raise ConfigError(f"field 'game' must be 'two-player' or 'bayesian', got {kind!r}")


def load_game(path: str) -> TwoPlayerGame | BayesianGame:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return game_from_dict(data)


def game_to_dict(game: TwoPlayerGame | BayesianGame) -> dict:
    if isinstance(game, TwoPlayerGame):
        return {
            "game": "two-player",
            "payoffs": {"A_vs_B1": {"A": list(game.payoff_a), "B": list(game.payoff_b)}},
        }
    return {
        "game": "bayesian",
        "payoffs": {
            "A_vs_B1": {
                "A": list(game.subgame_b1.payoff_a),
                "B": list(game.subgame_b1.payoff_b),
            },
            "A_vs_B2": {
                "A": list(game.subgame_b2.payoff_a),
                "B": list(game.subgame_b2.payoff_b),
            },
        },
    }


def class_id(cls: EquilibriumClass | RegionSummary) -> str:
    thetas = ";".join(_f9(t) for t in cls.theta_profile)
    return f"{thetas}|{cls.operator_label or '-'}"


def _class_to_dict(cls: EquilibriumClass) -> dict:
    return {
        "theta": [float(t) for t in cls.theta_profile],
        "payoffs": [float(x) for x in cls.payoffs],
        "operator_label": cls.operator_label,
        "phase_sums": {k: list(v) for k, v in sorted(cls.phase_sums.items())},
        "phase_diffs": {k: list(v) for k, v in sorted(cls.phase_diffs.items())},
        "members": [list(rec.profile) for rec in cls.members],
    }


def _profile(prof, n_players: int, n_strategies: int, path: str) -> tuple[int, ...]:
    """One stored profile: ``n_players`` integer indices in [0, n_strategies)."""
    if not isinstance(prof, list) or len(prof) != n_players:
        raise ConfigError(f"{path} must list {n_players} strategy indices, got {prof!r}")
    for i in prof:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n_strategies:
            raise ConfigError(
                f"{path} holds index {i!r}, outside the grid's [0, {n_strategies})"
            )
    return tuple(prof)


def _class_from_dict(
    data: dict, n_players: int, n_strategies: int, path: str
) -> EquilibriumClass:
    payoffs = tuple(float(x) for x in data["payoffs"])
    members = tuple(
        EquilibriumRecord(
            _profile(prof, n_players, n_strategies, f"{path}.members[{k}]"), payoffs
        )
        for k, prof in enumerate(data["members"])
    )
    return EquilibriumClass(
        theta_profile=tuple(float(t) for t in data["theta"]),
        payoffs=payoffs,
        members=members,
        phase_sums={k: tuple(v) for k, v in data["phase_sums"].items()},
        phase_diffs={k: tuple(v) for k, v in data["phase_diffs"].items()},
        operator_label=data["operator_label"],
    )


def result_to_dict(result: SweepResult, kind: str = "sweep", circuit: str = "mixture") -> dict:
    spec = result.spec
    bayesian = isinstance(spec.game, BayesianGame)
    out = {
        "kind": kind,
        "mode": "bayesian" if bayesian else "two-player",
        "circuit": circuit,
        "game": game_to_dict(spec.game),
        "grid_steps": {
            "d_theta": spec.steps.d_theta,
            "d_phi": spec.steps.d_phi,
            "d_alpha": spec.steps.d_alpha,
        },
        "eps_tie": spec.eps_tie,
        "gamma_values": list(spec.gamma_values),
    }
    if bayesian:
        out["p_values"] = list(spec.p_values)
    cells = []
    for cell in result.cells:
        entry = {}
        if cell.p is not None:
            entry["p"] = cell.p
        entry["gamma"] = cell.gamma
        entry["classes"] = [_class_to_dict(c) for c in cell.classes]
        cells.append(entry)
    out["cells"] = cells
    return out


def _cell_coordinates(cell, path: str, bayesian: bool) -> tuple[float | None, float]:
    """A stored cell's (p, gamma): p in [0, 1] for Bayesian cells and absent
    otherwise, gamma in [0, pi/2]; NaN and infinities fail the range tests."""
    gamma = float(_require(cell, "gamma", path))
    if not 0.0 <= gamma <= math.pi / 2.0:
        raise ConfigError(f"{path}gamma must lie in [0, pi/2], got {gamma}")
    if not bayesian:
        if "p" in cell:
            raise ConfigError(f"{path}p is set on a two-player cell")
        return None, gamma
    p = float(_require(cell, "p", path))
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{path}p must lie in [0, 1], got {p}")
    return p, gamma


def _axis(values, name: str, hi: float) -> tuple[float, ...]:
    """A header axis: a list of values in [0, hi], ascending; NaN and
    infinities fail the range test."""
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    values = tuple(float(v) for v in values)
    for v in values:
        if not 0.0 <= v <= hi:
            raise ConfigError(f"{name} must lie in [0, {hi:.6g}], got {v}")
    if list(values) != sorted(values):
        raise ConfigError(f"{name} must be ascending")
    return values


def _check_cells_on_axes(cells, spec: SweepSpec) -> None:
    """Every cell's p and gamma must be among the header's values.

    Containment, not equality: a file may hold a subset of its sweep's cells.
    """
    gammas, ps = set(spec.gamma_values), set(spec.p_values)
    for i, cell in enumerate(cells):
        if cell.gamma not in gammas:
            raise ConfigError(f"cells[{i}].gamma {cell.gamma} is not among gamma_values")
        if cell.p is not None and cell.p not in ps:
            raise ConfigError(f"cells[{i}].p {cell.p} is not among p_values")


@dataclass(frozen=True)
class LoadedResult:
    result: SweepResult
    kind: str
    circuit: str


def load_result(path: str) -> LoadedResult:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    try:
        game = game_from_dict(_require(data, "game", ""))
        steps_raw = _require(data, "grid_steps", "")
        steps = GridSteps(
            float(_require(steps_raw, "d_theta", "grid_steps.")),
            float(_require(steps_raw, "d_phi", "grid_steps.")),
            float(_require(steps_raw, "d_alpha", "grid_steps.")),
        )
        spec = SweepSpec(
            game=game,
            gamma_values=_axis(_require(data, "gamma_values", ""), "gamma_values", math.pi / 2),
            p_values=_axis(data.get("p_values", []), "p_values", 1.0),
            steps=steps,
            eps_tie=float(_require(data, "eps_tie", "")),
        )
        bayesian = isinstance(game, BayesianGame)
        n_players = 3 if bayesian else 2
        cells = tuple(
            CellResult(
                *_cell_coordinates(c, f"cells[{i}].", bayesian),
                classes=tuple(
                    _class_from_dict(
                        cd, n_players, steps.n_strategies, f"cells[{i}].classes[{k}]"
                    )
                    for k, cd in enumerate(c["classes"])
                ),
            )
            for i, c in enumerate(_require(data, "cells", ""))
        )
        _check_cells_on_axes(cells, spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed result file {path}: {exc}") from exc
    return LoadedResult(
        result=SweepResult(spec, cells),
        kind=str(data.get("kind", "sweep")),
        circuit=str(data.get("circuit", "mixture")),
    )


BAYESIAN_CSV_HEADER = (
    "p,gamma,class_id,theta_A,theta_B1,theta_B2,"
    "payoff_A,payoff_B1,payoff_B2,n_profiles"
)
TWO_PLAYER_CSV_HEADER = "gamma,payoff_A,payoff_B,class_id"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _bayesian_csv(result: SweepResult) -> str:
    rows = [BAYESIAN_CSV_HEADER.split(",")]
    for cell in result.cells:
        if not cell.classes:
            rows.append([_f9(cell.p), _f9(cell.gamma), "NONE", "", "", "", "", "", "", "0"])
            continue
        for cls in cell.classes:
            rows.append(
                [_f9(cell.p), _f9(cell.gamma), class_id(cls)]
                + [_f9(t) for t in cls.theta_profile]
                + [_f9(x) for x in cls.payoffs]
                + [str(cls.n_profiles)]
            )
    return _csv_text(rows)


def _two_player_csv(result: SweepResult) -> str:
    rows = [TWO_PLAYER_CSV_HEADER.split(",")]
    for cell in result.cells:
        if not cell.classes:
            rows.append([_f9(cell.gamma), "", "", "NONE"])
            continue
        for cls in cell.classes:
            rows.append(
                [_f9(cell.gamma), _f9(cls.payoffs[0]), _f9(cls.payoffs[1]), class_id(cls)]
            )
    return _csv_text(rows)


def _csv_text(rows: list[list[str]]) -> str:
    from io import StringIO

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def result_to_json_text(
    result: SweepResult, kind: str = "sweep", circuit: str = "mixture"
) -> str:
    data = result_to_dict(result, kind=kind, circuit=circuit)
    return json.dumps(data, ensure_ascii=False, indent=1) + "\n"


def emit(
    result: SweepResult,
    fmt: str,
    path: str,
    kind: str = "sweep",
    circuit: str = "mixture",
) -> None:
    """Write a result to ``path`` as 'csv' or 'json'."""
    if fmt == "json":
        _write_text(path, result_to_json_text(result, kind=kind, circuit=circuit))
    elif fmt == "csv":
        if isinstance(result.spec.game, BayesianGame):
            _write_text(path, _bayesian_csv(result))
        else:
            _write_text(path, _two_player_csv(result))
    else:
        raise ValueError(f"unknown output format {fmt!r}")


REGIONS_CSV_HEADER = (
    "class_id,theta_A,theta_B1,theta_B2,operator_label,"
    "p_min,p_max,gamma_min,gamma_max,n_cells"
)


def regions_to_dicts(summaries: list[RegionSummary]) -> list[dict]:
    out = []
    for s in summaries:
        out.append(
            {
                "theta": [float(t) for t in s.theta_profile],
                "operator_label": s.operator_label,
                "p_range": list(s.p_range) if s.p_range else None,
                "gamma_range": list(s.gamma_range),
                "n_cells": s.n_cells,
            }
        )
    return out


def emit_regions(summaries: list[RegionSummary], fmt: str, path: str) -> None:
    if fmt == "json":
        _write_text(
            path, json.dumps(regions_to_dicts(summaries), ensure_ascii=False, indent=1) + "\n"
        )
        return
    if fmt != "csv":
        raise ValueError(f"unknown output format {fmt!r}")
    rows = [REGIONS_CSV_HEADER.split(",")]
    for s in summaries:
        thetas = [_f9(t) for t in s.theta_profile]
        thetas += [""] * (3 - len(thetas))
        rows.append(
            [class_id(s)]
            + thetas
            + [
                s.operator_label or "",
                _f9(s.p_range[0]) if s.p_range else "",
                _f9(s.p_range[1]) if s.p_range else "",
                _f9(s.gamma_range[0]),
                _f9(s.gamma_range[1]),
                str(s.n_cells),
            ]
        )
    _write_text(path, _csv_text(rows))
