"""Array-pass ``classify`` and its exact rounding against the code they replaced.

``classify`` rounds payoffs with ``_round9`` and describes each distinct
member set of a call once (``_describe``).
``reference_classify`` below is the classify those replaced: payoff rows
ranked by Python ``round(x, 9)`` and ``sorted(set(...))``, and the facts
of one class at a time.  Rounded values are compared by ``float.hex``,
so 0.0 and -0.0 count as different; classes must be equal in every
field, payoffs and offsets bit for bit.
"""

import gzip
import math
from pathlib import Path

import numpy as np
import pytest

from qgame.cli import _stored_records
from qgame.equilibrium import (
    EquilibriumClass,
    RecordSet,
    _round9,
    bayesian_tables,
    classify,
    find_ne_bayesian_row,
    find_ne_two_player,
)
from qgame.games import BayesianGame, builtin_bayesian, builtin_da, builtin_pd
from qgame.serialize import load_result
from qgame.strategies import GridSteps, enumerate_strategies
from qgame.sweep import gamma_grid, p_grid

from test_strategies import reference_wrap_angle

PI = math.pi
GOLDEN = Path(__file__).parent / "golden"
PI8 = GridSteps(PI / 8, PI / 8, PI / 8)


def _offset(phase: float) -> float:
    return round(reference_wrap_angle(phase), 9)


def reference_class_facts(members: np.ndarray, sset) -> tuple:
    """One class's theta-profile, phase sums and differences, and operator
    label, read off its member profiles' codes."""
    steps = sset.steps
    t, f, a = np.moveaxis(sset.codes[members], 2, 0)
    top = t == steps.n_theta
    pole = top | (t == 0)
    turns4, size = 4 * np.where(top, a, f), np.where(top, steps.n_alpha, steps.n_phi)
    free = np.where(top, sset.angles[members, 2], sset.angles[members, 1]).tolist()
    rep = members[0].tolist()
    phase_sums, phase_diffs = {}, {}
    for k, other in enumerate(("B",) if len(rep) == 2 else ("B1", "B2"), start=1):
        if pole[:, [0, k]].all():
            phases = {(row[0], row[k]) for row in free}
            phase_sums[f"A-{other}"] = tuple(sorted({_offset(g + h) for g, h in phases}))
            phase_diffs[f"A-{other}"] = tuple(sorted({_offset(h - g) for g, h in phases}))
    label = None
    if (pole & (turns4 % size == 0)).all():
        label = "⊗".join("IZYX"[i] for i in (2 * top + turns4 // size % 2)[0].tolist())
    return tuple(sset.angles[rep, 0].tolist()), phase_sums, phase_diffs, label


def reference_classify(records: RecordSet, sset) -> list[tuple[EquilibriumClass, ...]]:
    """Classes per cell, payoff rows ranked by Python ``round`` and the
    facts described class by class."""
    cells = [[] for _ in range(records.n_cells)]
    if not len(records):
        return [tuple(classes) for classes in cells]
    profiles = np.asarray(records.profiles, dtype=np.int64)
    thetas = sset.codes[profiles, 0]
    by_payoffs = np.lexsort(records.payoffs.T[::-1])
    sorted_payoffs = records.payoffs[by_payoffs]
    step = np.ones(len(records), dtype=bool)
    step[1:] = (sorted_payoffs[1:] != sorted_payoffs[:-1]).any(axis=1)
    rounded = [tuple([round(x, 9) for x in row]) for row in sorted_payoffs[step].tolist()]
    rank = {key: r for r, key in enumerate(sorted(set(rounded)))}
    pay_rank = np.empty(len(records), dtype=np.int64)
    pay_rank[by_payoffs] = np.array([rank[key] for key in rounded])[np.cumsum(step) - 1]
    order = np.lexsort((*profiles.T[::-1], pay_rank, *thetas.T[::-1], records.cell))
    cell, thetas, pay_rank = records.cell[order], thetas[order], pay_rank[order]
    profiles = profiles[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (
        (cell[1:] != cell[:-1])
        | (thetas[1:] != thetas[:-1]).any(axis=1)
        | (pay_rank[1:] != pay_rank[:-1])
    )
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(order))
    first = records.payoffs[order[starts]].tolist()
    for c, lo, hi, payoffs in zip(cell[starts].tolist(), starts.tolist(), ends.tolist(), first):
        members = profiles[lo:hi]
        theta_profile, sums, diffs, label = reference_class_facts(members, sset)
        fields = (theta_profile, tuple(payoffs), members, sums, diffs, label)
        cells[c].append(EquilibriumClass(*fields))
    return [tuple(classes) for classes in cells]


def exact(cls: EquilibriumClass) -> tuple:
    """Every field of a class, floats as ``float.hex``."""
    phases = [
        {pair: tuple(map(float.hex, values)) for pair, values in phase_map.items()}
        for phase_map in (cls.phase_sums, cls.phase_diffs)
    ]
    return (
        tuple(map(float.hex, cls.theta_profile)),
        tuple(map(float.hex, cls.payoffs)),
        cls.profiles.tolist(),
        *phases,
        cls.operator_label,
    )


def assert_classify_matches_reference(records: RecordSet, steps: GridSteps) -> int:
    """Both classifiers on fresh strategy sets; return the class count."""
    got = classify(records, enumerate_strategies(steps))
    want = reference_classify(records, enumerate_strategies(steps))
    assert [[exact(c) for c in cell] for cell in got] == [
        [exact(c) for c in cell] for cell in want
    ]
    return sum(map(len, got))


class TestRound9:
    @staticmethod
    def assert_exact(values) -> None:
        x = np.array(values, dtype=float)
        got = _round9(x).tolist()
        want = [round(v, 9) for v in x.tolist()]
        assert list(map(float.hex, got)) == list(map(float.hex, want))

    def test_half_way_points_and_their_neighbours(self):
        k = np.array([0, 1, 2, 3, 7, 976562, 10**6, 123456789, 10**11, 10**12 - 1])
        scaled = np.concatenate([(k + 0.5) * 1e-9, -(k + 0.5) * 1e-9])
        # j / 1024 with odd j is exactly a half-way point: j * 5**9 / 2 at 1e9.
        dyadic = np.arange(1, 4096, 2) / 1024.0
        points = np.concatenate([scaled, dyadic, -dyadic])
        around = [np.nextafter(points, np.inf), np.nextafter(points, -np.inf)]
        self.assert_exact(np.concatenate([points, *around]))

    def test_signed_zeros_and_subnormals(self):
        tiny = np.finfo(float).tiny
        values = [0.0, -0.0, 5e-324, -5e-324, tiny / 3, -tiny / 3, tiny, -tiny, 1e-12, -1e-12]
        self.assert_exact(values)
        # -1e-12 rounds to -0.0, which a set of rounded values would not
        # tell from 0.0; the hex comparison does.
        assert float.hex(float(_round9(np.array([-1e-12]))[0])) == "-0x0.0p+0"

    def test_both_sides_of_the_exact_range(self):
        edge = 2.0**40 / 1e9
        values = np.array([edge, 1099.5, 1099.6, 1e6, 1e15, 1e300, 2.0**60, 4503599.6274969])
        steps = [np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
        below = edge - np.arange(1, 200) * 1e-7
        self.assert_exact(np.concatenate([values, -values, *steps, below, -below]))

    def test_non_finite(self):
        self.assert_exact([math.inf, -math.inf, math.nan, -math.nan])

    def test_random_values_at_every_scale(self):
        rng = np.random.default_rng(7)
        mantissa = rng.uniform(-1.0, 1.0, 20_000)
        values = mantissa * 10.0 ** rng.integers(-12, 13, len(mantissa))
        ties = np.round(rng.uniform(-20, 20, 5_000), 9) + 0.5e-9
        self.assert_exact(np.concatenate([values, ties, np.nextafter(ties, 0.0)]))

    def test_two_dimensional_arrays_keep_their_shape(self):
        x = np.array([[0.5e-9, -0.0, 1.5e-9], [math.nan, 2.0**41, 0.1234567895]])
        got = _round9(x)
        assert got.shape == x.shape
        want = [[round(v, 9) for v in row] for row in x.tolist()]
        assert [list(map(float.hex, row)) for row in got.tolist()] == [
            list(map(float.hex, row)) for row in want
        ]


class TestAgainstReferenceClassify:
    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json.gz")))
    def test_goldens(self, tmp_path, name):
        path = tmp_path / name[: -len(".gz")]
        path.write_bytes(gzip.decompress((GOLDEN / name).read_bytes()))
        result = load_result(str(path)).result
        players = 3 if isinstance(result.spec.game, BayesianGame) else 2
        records = _stored_records(result.cells, players)
        assert assert_classify_matches_reference(records, result.spec.steps) > 0

    @pytest.mark.parametrize("gamma_index", [0, 14, 28])
    def test_pi8_rows(self, gamma_index):
        sset = enumerate_strategies(PI8)
        tables = bayesian_tables(builtin_bayesian(), gamma_grid()[gamma_index], sset)
        records = find_ne_bayesian_row(tables, p_grid())
        assert assert_classify_matches_reference(records, PI8) > 0

    @pytest.mark.parametrize("game", [builtin_pd, builtin_da], ids=["pd", "da"])
    def test_two_player_pi8_gammas(self, game):
        sset = enumerate_strategies(PI8)
        counts = [
            assert_classify_matches_reference(find_ne_two_player(game(), gamma, sset), PI8)
            for gamma in gamma_grid(0.25)
        ]
        assert sum(counts) > 0

    def test_payoffs_at_rounding_edges(self):
        # One profile per payoff row: rows that round alike share a class,
        # -0.0 and 0.0 among them, and rows a half-way point apart do not.
        rows = [
            (0.0, 1.0, 2.0),
            (-0.0, 1.0, 2.0),
            (-1e-12, 1.0, 2.0),
            (0.5e-9, 1.0, 2.0),
            (1.5e-9, 1.0, 2.0),
            (1 / 1024, 1.0, 2.0),
            (np.nextafter(1 / 1024, 1.0), 1.0, 2.0),
            (2.0**40 / 1e9, 1.0, 2.0),
            (np.nextafter(2.0**40 / 1e9, 0.0), 1.0, 2.0),
            (5e-324, -5e-324, math.inf),
        ]
        n = len(rows)
        records = RecordSet(
            np.array([0] * n + [1] * n),
            np.array([[i, i, i] for i in range(n)] * 2),
            np.array(rows + rows[::-1], dtype=float),
            2,
        )
        assert assert_classify_matches_reference(records, GridSteps(PI / 2, PI / 2, PI / 2)) < 2 * n


class TestPolePairs:
    def test_pair_needs_both_players_on_a_pole(self):
        # A at theta = 0, B1 interior and B2 at theta = pi, all with the
        # same payoffs: one class, whose A-B1 offsets are undefined.
        steps = GridSteps(PI / 2, PI / 2, PI / 2)
        sset = enumerate_strategies(steps)
        t = sset.codes[:, 0]
        at_zero, interior, at_pi = (np.flatnonzero(t == level) for level in (0, 1, 2))
        profiles = np.array(
            [[a, b1, b2] for a in at_zero[:2] for b1 in interior[:3] for b2 in at_pi[:2]]
        )
        records = RecordSet(
            np.zeros(len(profiles), dtype=np.int64), profiles, np.ones((len(profiles), 3))
        )
        ((cls,),) = classify(records, sset)
        assert cls.n_profiles == len(profiles)
        assert "A-B1" not in cls.phase_sums and "A-B1" not in cls.phase_diffs
        assert "A-B2" in cls.phase_sums and "A-B2" in cls.phase_diffs
        assert cls.operator_label is None
        assert [exact(cls)] == [exact(c) for c in reference_classify(records, sset)[0]]
