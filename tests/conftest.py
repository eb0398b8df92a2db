import numpy as np


def is_unitary(m, tol: float) -> bool:
    """max |M^dag M - I| below ``tol``; the tests' check of a unitary matrix."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) < tol)


def pytest_runtest_logreport(report):
    """Print one pass/fail line per acceptance check as it completes."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    status = "PASS" if report.passed else "FAIL"
    name = report.nodeid.split("::")[-1]
    print(f"\n[acceptance] {status} {name}")
