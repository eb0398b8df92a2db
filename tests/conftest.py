import numpy as np

from qgame.equilibrium import EquilibriumRecord
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


def cells_of(records) -> list[list[EquilibriumRecord]]:
    """A record set's records, one list of ``EquilibriumRecord``s per cell."""
    return [records_of(records.in_cell(c)) for c in range(records.n_cells)]


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance check as it completes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status} {name}")
