import numpy as np

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


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance check as it completes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status} {name}")
