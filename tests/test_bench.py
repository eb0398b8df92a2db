"""What the benchmark reads from the library.

``bench/workloads.py`` is imported as it stands, with ``bench/`` on the
path, and each workload is set up, run once and checked against the
recorded results in ``bench/ref``.  A change to a name, option or output
that the benchmark uses fails here.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


@pytest.mark.parametrize("name", ["phase-diagram", "fine-row", "certify"])
def test_workload_runs_once_without_failed_operations(workloads, tmp_path, name):
    work = workloads.WORKLOADS[name](1, str(tmp_path))
    work.load_expected()
    work.run()
    attempted, failed = work.check()
    assert attempted > 0
    assert failed == 0
