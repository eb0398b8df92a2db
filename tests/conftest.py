import numpy as np

from qgame.equilibrium import (
    DEFAULT_EPS_TIE,
    EquilibriumRecord,
    RecordSet,
    bayesian_tables,
    find_ne_bayesian_row,
)
from qgame.games import BayesianGame, TwoPlayerGame


def is_unitary(m, tol: float) -> bool:
    """max |M^dag M - I| below ``tol``; the tests' check of a unitary matrix."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) < tol)


def custom_bayesian() -> BayesianGame:
    """A Bayesian game whose subgames give A different payoff vectors:
    chicken against B1, a stag hunt against B2."""
    return BayesianGame(
        TwoPlayerGame((3, 1, 4, 0), (3, 4, 1, 0)),
        TwoPlayerGame((5, 0, 3, 3), (5, 3, 0, 3)),
    )


def records_of(records) -> list[EquilibriumRecord]:
    """A record set's records as ``EquilibriumRecord``s, in order."""
    return [
        EquilibriumRecord(tuple(profile), tuple(payoffs))
        for profile, payoffs in zip(records.profiles.tolist(), records.payoffs.tolist())
    ]


def record_set(records) -> RecordSet:
    """``EquilibriumRecord``s as a one-cell record set, in the order given."""
    profiles = np.array([rec.profile for rec in records], dtype=np.int64)
    payoffs = np.array([rec.payoffs for rec in records], dtype=float)
    return RecordSet(np.zeros(len(records), dtype=np.int64), profiles, payoffs)


def cell_records(records, c: int) -> RecordSet:
    """The records of cell ``c`` of a record set, as a one-cell set."""
    lo, hi = np.searchsorted(records.cell, [c, c + 1])
    return RecordSet(records.cell[lo:hi] - c, records.profiles[lo:hi], records.payoffs[lo:hi])


def cells_of(records) -> list[list[EquilibriumRecord]]:
    """A record set's records, one list of ``EquilibriumRecord``s per cell."""
    return [records_of(cell_records(records, c)) for c in range(records.n_cells)]


def find_ne_at(game, gamma, sset, p, eps_tie=DEFAULT_EPS_TIE) -> RecordSet:
    """The Bayesian NE search at one (p, gamma): a one-cell row."""
    return find_ne_bayesian_row(bayesian_tables(game, gamma, sset, eps_tie), (p,))


def sweep_cell(result, p, gamma, tol: float = 1e-9):
    """The cell of a sweep result at (p, gamma), each within ``tol``; p is
    None on a two-player sweep.  The tolerance matters: the grid's gamma
    0.3 is 6 * 0.05 = 0.30000000000000004."""
    for cell in result.cells:
        if abs(cell.gamma - gamma) <= tol and (
            (cell.p is None and p is None)
            or (cell.p is not None and p is not None and abs(cell.p - p) <= tol)
        ):
            return cell
    raise KeyError(f"no cell at p={p}, gamma={gamma}")


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance check as it completes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status} {name}")
