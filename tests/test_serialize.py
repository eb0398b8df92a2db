"""The JSON result writer against ``json.dumps``, and the golden files' own bytes.

``result_to_json_text`` writes cells from the result's objects by fixed
templates.  ``reference_json_text`` below is the ``json.dumps`` writer
those templates replaced; every case here must give its bytes exactly.
"""

import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qgame.equilibrium import EquilibriumClass
from qgame.games import BayesianGame, builtin_bayesian, builtin_da, builtin_pd
from qgame.serialize import emit, game_to_dict, load_result, result_to_json_text
from qgame.sweep import CellResult, SweepResult, SweepSpec, gamma_grid, run_sweep

GOLDEN = Path(__file__).parent / "golden"
JSON_GOLDENS = sorted(path.name[: -len(".gz")] for path in GOLDEN.glob("*.json.gz"))


def reference_dict(result: SweepResult, kind: str = "sweep", circuit: str = "mixture") -> dict:
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
        entry["classes"] = [
            {
                "theta": [float(t) for t in cls.theta_profile],
                "payoffs": [float(x) for x in cls.payoffs],
                "operator_label": cls.operator_label,
                "phase_sums": {k: list(v) for k, v in sorted(cls.phase_sums.items())},
                "phase_diffs": {k: list(v) for k, v in sorted(cls.phase_diffs.items())},
                "members": [list(rec.profile) for rec in cls.members],
            }
            for cls in cell.classes
        ]
        cells.append(entry)
    out["cells"] = cells
    return out


def reference_json_text(result: SweepResult, kind: str = "sweep", circuit: str = "mixture"):
    return json.dumps(reference_dict(result, kind, circuit), ensure_ascii=False, indent=1) + "\n"


def _golden_bytes(name: str) -> bytes:
    with gzip.open(GOLDEN / f"{name}.gz", "rb") as fh:
        return fh.read()


def test_every_json_golden_is_checked():
    assert len(JSON_GOLDENS) == 5


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_golden_json_reemits_its_own_bytes(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(_golden_bytes(name))
    loaded = load_result(str(path))
    args = (loaded.result, loaded.kind, loaded.circuit)
    text = result_to_json_text(*args)
    assert text == reference_json_text(*args)
    assert text.encode("utf-8") == path.read_bytes()
    again = tmp_path / f"again_{name}"
    emit(loaded.result, "json", str(again), kind=loaded.kind, circuit=loaded.circuit)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("game", [builtin_pd, builtin_da], ids=["pd", "da"])
def test_two_player_sweep_matches_json_dumps(game):
    # Two-player cells have no p and classes of width 2.
    result = run_sweep(SweepSpec(game(), gamma_grid()))
    assert any(cell.classes for cell in result.cells)
    assert result_to_json_text(result) == reference_json_text(result)


def _class(
    label, phase_sums, phase_diffs, members, theta=(0.0, math.pi, 0.0), payoffs=(11.0, 10.0, 9.0)
):
    return EquilibriumClass(
        theta_profile=theta,
        payoffs=payoffs,
        profiles=np.array(members, dtype=np.int64).reshape(len(members), 3),
        phase_sums=phase_sums,
        phase_diffs=phase_diffs,
        operator_label=label,
    )


@pytest.mark.parametrize(
    "cells",
    [
        # An integer p is written as json writes an int.
        [CellResult(0, 0.3, ()), CellResult(0.5, 0.3, ())],
        [CellResult(0.5, 0.3, (_class(None, {}, {}, [(0, 5, 1)]),))],
        [
            CellResult(0.0, 0.0, ()),
            CellResult(
                0.5,
                0.3,
                (
                    _class("Z⊗X⊗Y", {"A-B2": (0.0,), "A-B1": (1.5, 4.7)}, {}, [(0, 5, 1)]),
                    _class("I⊗X⊗I", {}, {"A-B1": ()}, [(0, 4, 0), (1, 4, 1), (2, 7, 3)]),
                    _class('"X"\\\tY', {}, {}, [(3, 3, 3)]),
                ),
            ),
        ],
        [CellResult(0.5, 0.3, (_class("I", {"A-B1": (math.nan, math.inf, -math.inf)}, {}, []),))],
        [],
        # Each pair below differs only where values compare equal but are
        # written apart, so the writer's memo must not serve one for the other.
        [
            CellResult(0.0, 0.3, (_class(None, {}, {}, [(0, 5, 1)], theta=(0.0, 0.0, 0.0)),)),
            CellResult(0.5, 0.3, (_class(None, {}, {}, [(0, 5, 1)], theta=(-0.0, 0.0, 0.0)),)),
        ],
        [
            CellResult(
                0.5,
                0.3,
                (
                    _class(None, {"A-B1": (0.0, 1.5)}, {"A-B2": (0.0,)}, [(0, 5, 1)]),
                    _class(None, {"A-B1": (-0.0, 1.5)}, {"A-B2": (0.0,)}, [(0, 5, 1)]),
                    _class(None, {"A-B1": (0.0, 1.5)}, {"A-B2": (-0.0,)}, [(0, 5, 1)]),
                    _class(None, {"A-B1": (0, 1.5)}, {"A-B2": (0.0,)}, [(0, 5, 1)]),
                ),
            )
        ],
        [
            CellResult(
                0.5,
                0.3,
                (
                    _class("I", {}, {}, [(0, 5, 1)], payoffs=(0.0, 1.0, 2.0)),
                    _class("I", {}, {}, [(0, 5, 1)], payoffs=(-0.0, 1.0, 2.0)),
                ),
            )
        ],
        [CellResult(0.0, 0.3, ()), CellResult(-0.0, 0.3, ())],
        # Members arrays of one byte string but two shapes.
        [
            CellResult(
                0.5,
                0.3,
                (
                    _class(None, {}, {}, [(0, 5, 1), (2, 7, 3)]),
                    EquilibriumClass(
                        (0.0, math.pi, 0.0),
                        (11.0, 10.0, 9.0),
                        np.array([0, 5, 1, 2, 7, 3], dtype=np.int64).reshape(3, 2),
                        {},
                        {},
                        None,
                    ),
                ),
            )
        ],
        # Fact blocks held in arrays whose reprs would round alike.
        [
            CellResult(
                0.5,
                0.3,
                (
                    _class(None, {"A-B1": np.array([0.1234567891])}, {}, [(0, 5, 1)]),
                    _class(None, {"A-B1": np.array([0.1234567892])}, {}, [(0, 5, 1)]),
                    _class(None, {}, {}, [(0, 5, 1)], theta=np.array([0.1234567891, 0.0, 0.0])),
                    _class(None, {}, {}, [(0, 5, 1)], theta=np.array([0.1234567892, 0.0, 0.0])),
                ),
            )
        ],
        # One members list and one fact block recurring across cells.
        [
            CellResult(p, 0.3, (_class("Z⊗X⊗Y", {"A-B1": (1.5,)}, {}, [(0, 4, 0), (1, 4, 1)]),))
            for p in (0.0, 0.5)
        ],
    ],
    ids=[
        "no-classes",
        "no-label-no-phases",
        "non-ascii-labels",
        "non-finite-phases",
        "no-cells",
        "signed-zero-theta",
        "signed-zero-or-int-phases",
        "signed-zero-payoffs",
        "signed-zero-p",
        "same-bytes-other-shape",
        "array-values",
        "recurring-class",
    ],
)
def test_hand_made_cells_match_json_dumps(cells):
    spec = SweepSpec(builtin_bayesian(), (0.0, 0.3), (0.0, 0.5))
    result = SweepResult(spec, tuple(cells))
    for kind, circuit in [("sweep", "mixture"), ("solve", "full")]:
        assert result_to_json_text(result, kind, circuit) == reference_json_text(
            result, kind, circuit
        )
