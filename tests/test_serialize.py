"""The JSON result writer against ``json.dumps``, and the golden files' own bytes.

``result_to_json_text`` writes cells from the result's objects by fixed
templates.  ``reference_json_text`` below is the ``json.dumps`` writer
those templates replaced; every case here must give its bytes exactly.
"""

import functools
import gzip
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from qgame.equilibrium import EquilibriumClass
from qgame.games import BayesianGame, builtin_bayesian, builtin_da, builtin_pd
from qgame import serialize
from qgame.serialize import ConfigError, emit, game_to_dict, load_result, result_to_json_text
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


@functools.cache
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


def test_classes_sharing_fact_objects_render_their_facts_once_per_call(monkeypatch):
    # The two classes share the theta tuple and each phase tuple, as
    # ``classify`` gives them, but not their phase dicts.
    theta, sums, diffs = (0.0, math.pi, 0.0), (1.5, 4.7), (0.0,)
    first, second = (
        _class("Z⊗X⊗Y", {"A-B1": sums}, {"A-B2": diffs}, members, theta, payoffs)
        for members, payoffs in [([(0, 4, 0)], (11.0, 10.0, 9.0)), ([(1, 4, 1)], (1.0, 2.0, 3.0))]
    )
    assert first.phase_sums is not second.phase_sums
    spec = SweepSpec(builtin_bayesian(), (0.0, 0.3), (0.0, 0.5))
    result = SweepResult(spec, (CellResult(0.0, 0.3, (first,)), CellResult(0.5, 0.3, (second,))))
    calls = []
    facts_text = serialize._facts_text
    monkeypatch.setattr(serialize, "_facts_text", lambda cls: calls.append(cls) or facts_text(cls))
    text = result_to_json_text(result)
    assert calls == [first]
    assert text == reference_json_text(result)
    result_to_json_text(result)
    assert len(calls) == 2


def test_loaded_signed_zeros_keep_their_own_tuples(tmp_path):
    # 0.0 and -0.0 compare equal but are written apart, so each class must
    # keep its own sign.
    first, second, third = (
        _class(None, {"A-B1": (zero, 1.5)}, {"A-B2": (0.0,)}, [(0, 5, 1)], theta=(zero, 0.0, 0.0))
        for zero in (0.0, -0.0, 0.0)
    )
    spec = SweepSpec(builtin_bayesian(), (0.0, 0.3), (0.0, 0.5))
    result = SweepResult(spec, (CellResult(0.5, 0.3, (first, second, third)),))
    path = tmp_path / "zeros.json"
    path.write_text(result_to_json_text(result), encoding="utf-8")
    a, b, c = load_result(str(path)).result.cells[0].classes
    for zeros in ([cls.theta_profile[0] for cls in (a, b, c)],
                  [cls.phase_sums["A-B1"][0] for cls in (a, b, c)]):
        assert [math.copysign(1.0, zero) for zero in zeros] == [1.0, -1.0, 1.0]
    assert _fields((CellResult(0.5, 0.3, (a, b, c)),)) == _fields(result.cells)
    loaded = load_result(str(path)).result
    assert result_to_json_text(loaded) == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", JSON_GOLDENS)
def test_golden_json_loads_in_whole_file_passes(tmp_path, monkeypatch, name):
    path = tmp_path / name
    path.write_bytes(_golden_bytes(name))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_cells_in_passes", lambda *args: None)
        reference = load_result(str(path))

    def refused(*args):
        raise AssertionError("the per-class path ran")

    monkeypatch.setattr(serialize, "_class_from_dict", refused)
    monkeypatch.setattr(serialize, "_cell_coordinates", refused)
    loaded = load_result(str(path))
    assert _fields(loaded.result.cells) == _fields(reference.result.cells)
    assert result_to_json_text(loaded.result, loaded.kind, loaded.circuit).encode() == (
        path.read_bytes()
    )


def _fields(cells) -> str:
    """Every value of ``cells`` as one string, which tells apart values that
    compare equal but differ in type or sign (a tuple and a list, 0.0 and
    -0.0, 1 and 1.0)."""
    return repr(
        [
            (
                cell.p,
                cell.gamma,
                [
                    (
                        cls.theta_profile,
                        cls.payoffs,
                        cls.profiles.dtype,
                        cls.profiles.tolist(),
                        cls.phase_sums,
                        cls.phase_diffs,
                        cls.operator_label,
                    )
                    for cls in cell.classes
                ],
            )
            for cell in cells
        ]
    )


def _outcome(path: str) -> str:
    """The message ``load_result`` refuses ``path`` with, or its cells."""
    try:
        loaded = load_result(path)
    except ConfigError as exc:
        return str(exc)
    return _fields(loaded.result.cells)


def _any_class(data, rng) -> dict:
    return rng.choice([cls for cell in data["cells"] for cls in cell["classes"]])


def _any_index(data, rng) -> tuple[list, int]:
    """A random class's random member, and a position in it."""
    member = rng.choice(_any_class(data, rng)["members"])
    return member, rng.randrange(len(member))


def _set_index(value):
    def mutate(data, rng):
        member, k = _any_index(data, rng)
        member[k] = value(member[k])

    return mutate


def _set_field(field, value):
    def mutate(data, rng):
        cls = _any_class(data, rng)
        cls[field] = value(cls[field])

    return mutate


def _drop_class_field(data, rng):
    del _any_class(data, rng)[rng.choice(serialize._CLASS_FIELDS)]


def _drop_cell_field(data, rng):
    del rng.choice(data["cells"])[rng.choice(["p", "gamma", "classes"])]


def _shorten_member(data, rng):
    _any_index(data, rng)[0].pop()


def _phase_value(value):
    def mutate(data, rng):
        classes = [cls for cell in data["cells"] for cls in cell["classes"] if cls["phase_sums"]]
        phases = rng.choice(classes)["phase_sums"]
        phases[rng.choice(sorted(phases))].append(value)

    return mutate


def _two_faults(data, rng):
    # The earlier fault may sit in a cell's coordinates or in a class; the
    # later one is inside a class.
    cells = [cell for cell in data["cells"] if cell["classes"]]
    first, later = sorted(rng.sample(range(len(cells)), 2))
    if rng.random() < 0.5:
        cells[first]["gamma"] = str(cells[first]["gamma"])
    else:
        rng.choice(cells[first]["classes"])["payoffs"].pop()
    rng.choice(cells[later]["classes"])["members"][0][0] = True


_MUTATIONS = {
    "index-bool": _set_index(lambda i: True),
    "index-float": _set_index(float),
    "index-string": _set_index(str),
    "index-negative": _set_index(lambda i: -1 - i),
    "index-out-of-range": _set_index(lambda i: i + 1824),
    "dropped-class-field": _drop_class_field,
    "dropped-cell-field": _drop_cell_field,
    "short-payoffs": _set_field("payoffs", lambda v: v[:-1]),
    "short-theta": _set_field("theta", lambda v: v[:-1]),
    "short-member": _shorten_member,
    "members-dict": _set_field("members", lambda v: dict(enumerate(map(str, v)))),
    "payoffs-scalar": _set_field("payoffs", lambda v: v[0]),
    "phase-sums-list": _set_field("phase_sums", lambda v: list(v.values())),
    "classes-dict": lambda data, rng: rng.choice(data["cells"]).update(classes={}),
    "label-number": _set_field("operator_label", lambda v: 5),
    "empty-members": _set_field("members", lambda v: []),
    "huge-payoff": _set_field("payoffs", lambda v: [10**400] + v[1:]),
    "huge-index": _set_index(lambda i: 10**400),
    "nan-phase": _phase_value(math.nan),
    "infinite-phase": _phase_value(-math.inf),
    "two-faults": _two_faults,
}


@pytest.mark.parametrize("name", ["sweep.json", "fine_row_pi8_g14.json"])
@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_loader_matches_the_per_class_path(monkeypatch, name, mutation):
    # Each seeded fault is refused with the per-class path's message, or
    # loaded to the per-class path's cells.  The loader reads the mutated
    # value directly: ``json`` writes and reads back each one unchanged.
    data = json.loads(_golden_bytes(name))
    _MUTATIONS[mutation](data, random.Random(f"{name}/{mutation}"))
    monkeypatch.setattr(serialize, "_read_json", lambda path: data)
    outcome = _outcome(name)
    monkeypatch.setattr(serialize, "_cells_in_passes", lambda *args: None)
    assert outcome == _outcome(name)
