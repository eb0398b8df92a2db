"""Row-at-once ``classify`` against the per-cell grouping it replaced.

``classify`` sorts a whole row of record arrays once and reads each class
off as a run of it.  ``reference_classify`` below is the grouping it
replaced: one cell's ``EquilibriumRecord``s keyed in dicts by their
rounded thetas and payoffs.  Every case must give the same classes, with
payoffs bit for bit.
"""

import math

import pytest

from qgame.equilibrium import (
    EquilibriumRecord,
    RecordSet,
    bayesian_tables,
    classify,
    find_ne_bayesian_row,
)
from qgame.games import builtin_bayesian
from qgame.strategies import DEFAULT_GRID, GridSteps, enumerate_strategies
from qgame.sweep import gamma_grid, p_grid

from conftest import cells_of
from test_strategies import reference_pauli_label, reference_wrap_angle

PI = math.pi


def reference_strategy_facts(sset) -> tuple[list, list]:
    """Each strategy's free phase and Pauli name from its angles and
    unitary alone: the free phase is phi at theta = 0 and alpha at
    theta = pi, and the name comes from matching the matrix."""
    free = [
        phi if theta == 0.0 else alpha if theta == PI else None
        for theta, phi, alpha in sset.angles.tolist()
    ]
    labels = map(reference_pauli_label, sset.unitaries)
    return free, [None if label is None else label[0] for label in labels]


def reference_facts(members: list[EquilibriumRecord], free, names) -> tuple:
    """Phase sums and differences against A, and the operator label."""
    rep = members[0]
    others = ("B",) if len(rep.profile) == 2 else ("B1", "B2")
    sums, diffs = {}, {}
    for k, other in enumerate(others, start=1):
        phases = {(free[rec.profile[0]], free[rec.profile[k]]) for rec in members}
        if any(g_a is None or g_k is None for g_a, g_k in phases):
            continue
        wrap = reference_wrap_angle
        sums[f"A-{other}"] = tuple(sorted({round(wrap(a + b), 9) for a, b in phases}))
        diffs[f"A-{other}"] = tuple(sorted({round(wrap(b - a), 9) for a, b in phases}))
    label = None
    if all(names[i] is not None for rec in members for i in rec.profile):
        label = "⊗".join(names[i] for i in rep.profile)
    return sums, diffs, label


def reference_classify(records: list[EquilibriumRecord], sset) -> list[tuple]:
    """One cell's classes as (thetas, payoffs in ``float.hex``, member
    profiles, phase sums, phase differences, label), grouped in dicts."""
    theta = sset.angles[:, 0].tolist()
    free, names = reference_strategy_facts(sset)
    groups = {}
    for rec in sorted(records, key=lambda r: r.profile):
        thetas = tuple(round(theta[i], 9) for i in rec.profile)
        payoffs = tuple(round(x, 9) for x in rec.payoffs)
        groups.setdefault((thetas, payoffs), []).append(rec)
    classes = []
    for key in sorted(groups):
        members = groups[key]
        theta_profile = tuple(theta[i] for i in members[0].profile)
        payoffs = tuple(map(float.hex, members[0].payoffs))
        profiles = [rec.profile for rec in members]
        classes.append((theta_profile, payoffs, profiles) + reference_facts(members, free, names))
    return classes


def compact(cls) -> tuple:
    return (
        cls.theta_profile,
        tuple(map(float.hex, cls.payoffs)),
        [rec.profile for rec in cls.members],
        cls.phase_sums,
        cls.phase_diffs,
        cls.operator_label,
    )


def assert_row_matches_reference(records: RecordSet, sset) -> list[int]:
    """Check ``classify`` of a row against the per-cell reference; return
    each cell's class count."""
    got = classify(records, sset)
    want = [reference_classify(cell, sset) for cell in cells_of(records)]
    assert len(got) == records.n_cells
    assert [[compact(cls) for cls in cell] for cell in got] == want
    return [len(cell) for cell in got]


@pytest.fixture(scope="module")
def grid8():
    return enumerate_strategies(DEFAULT_GRID)


class TestAgainstPerCellClassify:
    def test_every_default_row(self, grid8):
        counts = []
        for gamma in gamma_grid():
            tables = bayesian_tables(builtin_bayesian(), gamma, grid8)
            records = find_ne_bayesian_row(tables, p_grid())
            counts += assert_row_matches_reference(records, grid8)
        # Empty cells and cells of several classes are both covered.
        assert 0 in counts and max(counts) > 1

    def test_pi8_fine_row(self):
        pi8 = enumerate_strategies(GridSteps(PI / 8, PI / 8, PI / 8))
        tables = bayesian_tables(builtin_bayesian(), gamma_grid()[28], pi8)
        records = find_ne_bayesian_row(tables, p_grid())
        assert len(records) > 0
        assert sum(assert_row_matches_reference(records, pi8)) > 0

    @pytest.mark.parametrize(
        "steps",
        [GridSteps(PI / 2, PI / 3, PI / 4), GridSteps(PI, 2 * PI / 12, 2 * PI / 8)],
        ids=["phi6-alpha8", "phi12-alpha8"],
    )
    def test_rows_of_grids_with_unequal_phase_steps(self, steps):
        sset = enumerate_strategies(steps)
        counts = []
        for gamma in gamma_grid(0.25):
            tables = bayesian_tables(builtin_bayesian(), gamma, sset)
            counts += assert_row_matches_reference(find_ne_bayesian_row(tables, p_grid(0.1)), sset)
        assert sum(counts) > 0

    def test_members_are_records_of_python_ints(self, grid8):
        tables = bayesian_tables(builtin_bayesian(), 0.3, grid8)
        (classes,) = classify(find_ne_bayesian_row(tables, [0.9]), grid8)
        for cls in classes:
            assert len(cls.members) == cls.n_profiles > 0
            for rec in cls.members:
                assert isinstance(rec, EquilibriumRecord)
                assert type(rec.profile) is tuple
                assert all(type(i) is int for i in rec.profile)
                assert rec.payoffs == cls.payoffs
