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
from itertools import chain, islice
from typing import Iterable, Iterator

import numpy as np

from .equilibrium import EquilibriumClass
from .games import BayesianGame, TwoPlayerGame, payoff_vector
from .strategies import GridSteps
from .sweep import CellResult, RegionSummary, SweepResult, SweepSpec, ascending


class ConfigError(Exception):
    """Invalid game or result file; the message names the offending field."""


def _f9(x: float) -> str:
    return format(float(x), ".9g")


def _require(mapping, key, path):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"missing required field '{path}{key}'")
    return mapping[key]


# The types ``json.load`` gives numbers; bool is neither.
_NUMBER_TYPES = frozenset({int, float})


def _number(value, path: str) -> float:
    """A JSON number, booleans and strings refused."""
    if type(value) not in _NUMBER_TYPES:
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return _numbers([value], path)[0]


def _numbers(values, path: str, count: int | None = None) -> tuple[float, ...]:
    """A JSON list of numbers, booleans excluded, of ``count`` items if given.

    An integer too large for a float is refused, naming ``path``."""
    if not isinstance(values, list) or not set(map(type, values)) <= _NUMBER_TYPES:
        raise ConfigError(f"{path} must be a list of numbers, got {values!r}")
    if count is not None and len(values) != count:
        raise ConfigError(f"{path} must list {count} numbers, got {len(values)}")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise ConfigError(f"{path} holds an integer too large for a float") from None


def _payoff_pair(block, path) -> tuple[tuple, tuple]:
    vec_a = _numbers(_require(block, "A", path), f"{path}A", 4)
    vec_b = _numbers(_require(block, "B", path), f"{path}B", 4)
    try:
        return payoff_vector(vec_a, f"{path}A"), payoff_vector(vec_b, f"{path}B")
    except ValueError as exc:
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


def _read_json(path: str):
    """The JSON value a file holds.  A file that is not UTF-8 JSON, or
    holds an integer past Python's digit limit, raises ConfigError naming
    the file: each of these is a ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def load_game(path: str) -> TwoPlayerGame | BayesianGame:
    return game_from_dict(_read_json(path))


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


def _profile(prof, n_players: int, n_strategies: int, path: str) -> None:
    """Raise unless ``prof`` is ``n_players`` integer indices in [0, n_strategies)."""
    if not isinstance(prof, list) or len(prof) != n_players:
        raise ConfigError(f"{path} must list {n_players} strategy indices, got {prof!r}")
    for i in prof:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < n_strategies:
            raise ConfigError(
                f"{path} holds index {i!r}, outside the grid's [0, {n_strategies})"
            )


def _members(value, n_players: int, n_strategies: int, path: str) -> np.ndarray:
    """A class's stored profiles as an int array, one row of ``n_players``
    indices in [0, n_strategies) each, checked as one list.  Only a list
    that fails goes through ``_profile`` member by member, to name the
    first bad one."""
    if (
        isinstance(value, list)
        and set(map(type, value)) == {list}
        and set(map(len, value)) == {n_players}
    ):
        flat = list(chain.from_iterable(value))
        if set(map(type, flat)) == {int} and min(flat) >= 0 and max(flat) < n_strategies:
            return np.array(flat, dtype=np.int64).reshape(len(value), n_players)
    if not isinstance(value, list):
        raise ConfigError(f"{path}members must be a list of profiles, got {value!r}")
    for k, prof in enumerate(value):
        _profile(prof, n_players, n_strategies, f"{path}members[{k}]")
    raise ConfigError(f"{path}members must list at least one profile")


def _phase_map(data: dict, key: str, path: str) -> dict[str, tuple[float, ...]]:
    """A class's phase sums or differences: an object of number lists."""
    value = _require(data, key, path)
    if not isinstance(value, dict):
        raise ConfigError(f"{path}{key} must be an object of number lists, got {value!r}")
    return {k: _numbers(v, f"{path}{key}.{k}") for k, v in value.items()}


def _class_from_dict(
    data: dict, n_players: int, n_strategies: int, path: str
) -> EquilibriumClass:
    payoffs = _numbers(_require(data, "payoffs", path), f"{path}payoffs", n_players)
    profiles = _members(_require(data, "members", path), n_players, n_strategies, path)
    theta = _numbers(_require(data, "theta", path), f"{path}theta", n_players)
    phase_sums = _phase_map(data, "phase_sums", path)
    phase_diffs = _phase_map(data, "phase_diffs", path)
    label = _require(data, "operator_label", path)
    if label is not None and not isinstance(label, str):
        raise ConfigError(f"{path}operator_label must be a string or null, got {label!r}")
    return EquilibriumClass(theta, payoffs, profiles, phase_sums, phase_diffs, label)


def _list_field(data, key: str, path: str, items: str) -> list:
    """The field ``key`` of ``data``, which must be a JSON list of ``items``."""
    value = _require(data, key, path)
    if not isinstance(value, list):
        raise ConfigError(f"{path}{key} must be a list of {items}, got {value!r}")
    return value


def _cells_one_by_one(cells, bayesian: bool, n_players: int, n_strategies: int) -> tuple:
    """The stored cells, checked cell by cell and class by class in file
    order, so that the first fault raises ConfigError naming it."""
    return tuple(
        CellResult(
            *_cell_coordinates(c, f"cells[{i}].", bayesian),
            classes=tuple(
                _class_from_dict(cd, n_players, n_strategies, f"cells[{i}].classes[{k}].")
                for k, cd in enumerate(_list_field(c, "classes", f"cells[{i}].", "classes"))
            ),
        )
        for i, c in enumerate(cells)
    )


def _of_type(values, *types) -> bool:
    """Whether every item of ``values`` is exactly one of ``types``."""
    return set(map(type, values)) <= set(types)


def _float_lists(rows: list, width: int | None = None) -> bool:
    """Whether each of ``rows`` is a JSON list of floats, of ``width``
    items if given."""
    if not _of_type(rows, list) or (width is not None and not set(map(len, rows)) <= {width}):
        return False
    return _of_type(chain.from_iterable(rows), float)


def _member_arrays(lists: list, n_players: int, n_strategies: int) -> list[np.ndarray] | None:
    """Each class's members as a slice of one int array over the whole
    file, when every list holds at least one profile of ``n_players``
    ints in [0, n_strategies); None otherwise.  The ints go straight into
    the array, so no flat list of them is held."""
    if not _of_type(lists, list) or not all(lists):
        return None
    if not _of_type(chain.from_iterable(lists), list):
        return None
    if not set(map(len, chain.from_iterable(lists))) <= {n_players}:
        return None
    if not _of_type(chain.from_iterable(chain.from_iterable(lists)), int):
        return None
    counts = list(map(len, lists))
    total = sum(counts)
    indices = chain.from_iterable(chain.from_iterable(lists))
    flat = np.fromiter(indices, dtype=np.int64, count=total * n_players)
    if total and not (flat.min() >= 0 and flat.max() < n_strategies):
        return None
    profiles = flat.reshape(total, n_players)
    ends = np.cumsum(counts).tolist()
    return [profiles[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _phase_maps(maps: list) -> list[dict[str, tuple[float, ...]]] | None:
    """Each class's phase map with its lists as tuples, when every map is a
    JSON object of float lists; None otherwise."""
    if not _of_type(maps, dict):
        return None
    if not _float_lists(list(chain.from_iterable(map(dict.values, maps)))):
        return None
    return [{k: tuple(v) for k, v in m.items()} for m in maps]


_CLASS_FIELDS = ("theta", "payoffs", "members", "phase_sums", "phase_diffs", "operator_label")


def _cells_in_passes(cells, bayesian: bool, n_players: int, n_strategies: int) -> tuple | None:
    """The stored cells, checked and converted one field at a time over the
    whole file; None where any check fails, for ``_cells_one_by_one`` to
    name the first fault.

    What a pass accepts, the one-by-one path accepts with the same values.
    A pass refuses more: cells and classes that are not JSON objects in
    lists, and numbers other than floats in the coordinates, thetas,
    payoffs and phase lists, go through that path, which names the first
    fault (a cell's ``classes`` that is not a list among them).
    """
    if not _of_type(cells, dict):
        return None
    try:
        gammas = [c["gamma"] for c in cells]
        ps = [c["p"] for c in cells] if bayesian else [None] * len(cells)
        class_lists = [c["classes"] for c in cells]
        if not _of_type(class_lists, list):
            return None
        classes = list(chain.from_iterable(class_lists))
        if not _of_type(classes, dict):
            return None
        fields = [[cls[name] for cls in classes] for name in _CLASS_FIELDS]
    except KeyError:
        return None
    if not _of_type(gammas, float) or not (
        _of_type(ps, float) if bayesian else not any("p" in c for c in cells)
    ):
        return None
    theta, payoffs, members, sums, diffs, labels = fields
    try:
        members = _member_arrays(members, n_players, n_strategies)
    except OverflowError:  # an int past int64, outside any grid
        return None
    columns = (
        list(map(tuple, theta)) if _float_lists(theta, n_players) else None,
        list(map(tuple, payoffs)) if _float_lists(payoffs, n_players) else None,
        members,
        _phase_maps(sums),
        _phase_maps(diffs),
    )
    if any(column is None for column in columns) or not _of_type(labels, str, type(None)):
        return None
    built = map(EquilibriumClass, *columns, labels)
    return tuple(
        CellResult(p, gamma, tuple(islice(built, len(own))))
        for p, gamma, own in zip(ps, gammas, class_lists)
    )


def _header_dict(spec: SweepSpec, kind: str, circuit: str) -> dict:
    """A result's JSON object without its cells."""
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
    return out


def _cell_coordinates(cell, path: str, bayesian: bool) -> tuple[float | None, float]:
    """A stored cell's (p, gamma): p set on Bayesian cells and absent
    otherwise.  Their ranges are not checked here: ``_check_cells_on_axes``
    requires both among the header's checked axis values."""
    gamma = _number(_require(cell, "gamma", path), f"{path}gamma")
    if not bayesian:
        if "p" in cell:
            raise ConfigError(f"{path}p is set on a two-player cell")
        return None, gamma
    return _number(_require(cell, "p", path), f"{path}p"), gamma


def _axis(values, name: str, hi: float) -> tuple[float, ...]:
    """A header axis: a list of values in [0, hi], strictly ascending; NaN
    and infinities fail the range test."""
    values = _numbers(values, name)
    for v in values:
        if not 0.0 <= v <= hi:
            raise ConfigError(f"{name} must lie in [0, {hi:.6g}], got {v}")
    if not ascending(values):
        raise ConfigError(f"{name} must be ascending")
    return values


def _check_cells_on_axes(cells, spec: SweepSpec) -> None:
    """Every cell's p and gamma must be among the header's values, and no
    two cells may share them.

    Containment, not equality: a file may hold a subset of its sweep's cells.
    """
    gammas, ps = set(spec.gamma_values), set(spec.p_values)
    seen: dict[tuple[float | None, float], int] = {}
    for i, cell in enumerate(cells):
        if cell.gamma not in gammas:
            raise ConfigError(f"cells[{i}].gamma {cell.gamma} is not among gamma_values")
        if cell.p is not None and cell.p not in ps:
            raise ConfigError(f"cells[{i}].p {cell.p} is not among p_values")
        first = seen.setdefault((cell.p, cell.gamma), i)
        if first != i:
            raise ConfigError(f"cells[{i}] repeats the (p, gamma) of cells[{first}]")


@dataclass(frozen=True)
class LoadedResult:
    result: SweepResult
    kind: str
    circuit: str


def _header_choice(data: dict, key: str, choices: tuple[str, ...]) -> str:
    """The header field ``key``, one of ``choices``; an absent field reads
    as the first of them."""
    value = data.get(key, choices[0])
    if type(value) is not str or value not in choices:
        allowed = " or ".join(map(repr, choices))
        raise ConfigError(f"field '{key}' must be {allowed}, got {value!r}")
    return value


def load_result(path: str) -> LoadedResult:
    data = _read_json(path)
    try:
        game = game_from_dict(_require(data, "game", ""))
        kind = _header_choice(data, "kind", ("sweep", "solve"))
        circuit = _header_choice(data, "circuit", ("mixture", "full"))
        steps_raw = _require(data, "grid_steps", "")
        steps = GridSteps(
            *(
                _number(_require(steps_raw, name, "grid_steps."), f"grid_steps.{name}")
                for name in ("d_theta", "d_phi", "d_alpha")
            )
        )
        spec = SweepSpec(
            game=game,
            gamma_values=_axis(_require(data, "gamma_values", ""), "gamma_values", math.pi / 2),
            p_values=_axis(data.get("p_values", []), "p_values", 1.0),
            steps=steps,
            eps_tie=_number(_require(data, "eps_tie", ""), "eps_tie"),
        )
        bayesian = isinstance(game, BayesianGame)
        _header_choice(data, "mode", ("bayesian" if bayesian else "two-player",))
        shape = (bayesian, 3 if bayesian else 2, steps.n_strategies)
        stored = _list_field(data, "cells", "", "cells")
        cells = _cells_in_passes(stored, *shape)
        if cells is None:
            cells = _cells_one_by_one(stored, *shape)
        _check_cells_on_axes(cells, spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed result file {path}: {exc}") from exc
    return LoadedResult(result=SweepResult(spec, cells), kind=kind, circuit=circuit)


BAYESIAN_CSV_HEADER = (
    "p,gamma,class_id,theta_A,theta_B1,theta_B2,"
    "payoff_A,payoff_B1,payoff_B2,n_profiles"
)
TWO_PLAYER_CSV_HEADER = "gamma,payoff_A,payoff_B,class_id"


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` in order as one UTF-8 file with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


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


# The JSON writer's pieces.  In the indent-1 layout a line at depth d
# starts with d spaces, ``_INDENT[d]``: cells sit at depth 2, classes at
# 4, a class's fields at 5 and their items at 6.  A class is written as
# its facts' head, its payoffs, its facts' tail and its members.
_INDENT = tuple(" " * depth for depth in range(8))
_encode_str = json.encoder.encode_basestring
_CLASS_HEAD = """{
     "theta": %s,
     "payoffs": """
_CLASS_TAIL = """,
     "operator_label": %s,
     "phase_sums": %s,
     "phase_diffs": %s,
     "members": """
_CLASS_END = "\n    }"


def _number_text(x) -> str:
    """``x`` as ``json.dumps`` writes it: floats by ``float.__repr__``,
    with NaN and the infinities spelled as ``json`` spells them."""
    if not isinstance(x, float):
        return json.dumps(x)
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _list_text(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON array, or with ``brackets`` "{}" an object, of already-encoded
    ``items`` at indent 1, the items' lines starting with ``pad``."""
    if not items:
        return brackets
    return f"{brackets[0]}\n{pad}" + (",\n" + pad).join(items) + f"\n{pad[:-1]}{brackets[1]}"


def _phase_map_text(phases: dict[str, tuple[float, ...]]) -> str:
    items = [
        f"{_encode_str(k)}: {_list_text([_number_text(x) for x in v], _INDENT[7])}"
        for k, v in sorted(phases.items())
    ]
    return _list_text(items, _INDENT[6], "{}")


def _members_text(profiles: np.ndarray) -> str:
    """A class's whole members list, one ``%``-format over the flat profiles."""
    if not len(profiles):
        return "[]"
    member = _list_text(["%d"] * profiles.shape[1], _INDENT[7])
    template = _list_text([member] * len(profiles), _INDENT[6])
    return template % tuple(profiles.ravel().tolist())


def _facts_text(cls: EquilibriumClass) -> tuple[str, str]:
    """A class's head (its theta-profile) and tail (label and phase maps)."""
    label = cls.operator_label
    return (
        _CLASS_HEAD % _list_text([_number_text(float(t)) for t in cls.theta_profile], _INDENT[6]),
        _CLASS_TAIL
        % (
            "null" if label is None else _encode_str(label),
            _phase_map_text(cls.phase_sums),
            _phase_map_text(cls.phase_diffs),
        ),
    )


# A payoff list of n finite floats, each written by its repr.
_PAYOFF_TEMPLATES = {n: _list_text(["%r"] * n, _INDENT[6]) for n in (2, 3)}


def _payoffs_text(payoffs) -> str:
    template = _PAYOFF_TEMPLATES.get(len(payoffs))
    if template and _of_type(payoffs, float) and all(map(math.isfinite, payoffs)):
        return template % tuple(payoffs)
    return _list_text([_number_text(float(x)) for x in payoffs], _INDENT[6])


def _class_text(cls: EquilibriumClass, memo: dict) -> str:
    """A class's block, its payoffs rendered here and the rest through
    ``memo``, which holds what this writer call has rendered so far.

    A fact block is keyed first by the identity of the objects it is
    written from, its theta-profile and each phase list, with its label
    and the phase maps' keys.  The writer call holds the result, and so
    each of these objects, while the memo lives, so no id is reused;
    ``classify`` gives every class of one member set the same theta and
    phase tuples, so a sweep's classes mostly find their block there.  A
    class that shares no objects with an earlier one, as every class that
    ``load_result`` builds, is keyed again by the ``repr`` of its values as
    they are written: the thetas as floats and each phase list as a tuple
    of its items (an array's repr would round and elide).  The ``repr``
    tells apart values that compare equal but are written apart (0.0 and
    -0.0, 1 and 1.0).  A members list is keyed by its array's dtype, shape
    and bytes, three items against an identity key's four; a str key never
    equals a tuple key.
    """
    label, sums, diffs = cls.operator_label, cls.phase_sums, cls.phase_diffs
    key = (
        id(cls.theta_profile),
        label,
        tuple(zip(sums, map(id, sums.values()))),
        tuple(zip(diffs, map(id, diffs.values()))),
    )
    facts = memo.get(key)
    if facts is None:
        phases = [[(k, tuple(v)) for k, v in m.items()] for m in (sums, diffs)]
        text_key = repr((tuple(map(float, cls.theta_profile)), label, phases))
        facts = memo[key] = memo.get(text_key) or memo.setdefault(text_key, _facts_text(cls))
    head, tail = facts
    profiles = cls.profiles
    key = (profiles.dtype, profiles.shape, profiles.tobytes())
    members = memo.get(key) or memo.setdefault(key, _members_text(profiles))
    return f"{head}{_payoffs_text(cls.payoffs)}{tail}{members}{_CLASS_END}"


def _cell_text(cell: CellResult, memo: dict) -> str:
    p = "" if cell.p is None else f'{_INDENT[3]}"p": {_number_text(cell.p)},\n'
    classes = _list_text([_class_text(c, memo) for c in cell.classes], _INDENT[4])
    return (
        f'{{\n{p}{_INDENT[3]}"gamma": {_number_text(cell.gamma)},\n'
        f'{_INDENT[3]}"classes": {classes}\n{_INDENT[2]}}}'
    )


def _json_chunks(result: SweepResult, kind: str, circuit: str) -> Iterator[str]:
    """``result_to_json_text``'s text in pieces, one per cell.

    The header goes through ``json.dumps``; the cells are written from
    the result's objects by the templates above, which must give exactly
    the bytes ``json.dumps(..., ensure_ascii=False, indent=1)`` would.
    One memo serves the call, so each distinct fact block and members
    list is rendered once however often its classes recur across cells;
    each class's payoffs and each cell's p and gamma are rendered where
    they stand.
    """
    header = json.dumps(_header_dict(result.spec, kind, circuit), ensure_ascii=False, indent=1)
    head = f'{header[:-2]},\n{_INDENT[1]}"cells": '
    if not result.cells:
        yield head + "[]\n}\n"
        return
    memo: dict = {}
    separator = head + "[\n" + _INDENT[2]
    for cell in result.cells:
        yield separator + _cell_text(cell, memo)
        separator = ",\n" + _INDENT[2]
    yield f"\n{_INDENT[1]}]\n}}\n"


def result_to_json_text(
    result: SweepResult, kind: str = "sweep", circuit: str = "mixture"
) -> str:
    """The result as ``json.dumps(..., ensure_ascii=False, indent=1)`` writes
    its object, plus a final newline."""
    return "".join(_json_chunks(result, kind, circuit))


def emit(
    result: SweepResult,
    fmt: str,
    path: str,
    kind: str = "sweep",
    circuit: str = "mixture",
) -> None:
    """Write a result to ``path`` as 'csv' or 'json'."""
    if fmt == "json":
        # Written cell by cell, so the whole text is never held at once.
        _write_text(path, _json_chunks(result, kind, circuit))
    elif fmt == "csv":
        if isinstance(result.spec.game, BayesianGame):
            _write_text(path, [_bayesian_csv(result)])
        else:
            _write_text(path, [_two_player_csv(result)])
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
            path, [json.dumps(regions_to_dicts(summaries), ensure_ascii=False, indent=1) + "\n"]
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
    _write_text(path, [_csv_text(rows)])
