"""The benchmark's three workloads: set-up, one timed iteration, and its check.

Each workload runs single-process and calls qgame in-process.  Set-up
builds the inputs from the seed; ``load_expected`` then reads the
recorded results (benchmark bookkeeping, kept out of the set-up time);
``run`` is the timed part; ``check`` compares the last iteration's
outputs with the recorded results and returns (attempted, failed)
operations.  Program names are looked up at call time, so the traced
run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import sys
import time
import traceback

import reference

# Rows of the 1824-strategy phase diagram the fine-row seed chooses from:
# gamma = 1.4 .. pi/2.  At p = 0, 0.2, ..., 1 each of these rows holds
# 7,296 NE profiles, all at p = 0, so the spread between seeds measures
# the program, not the input; from gamma = 1.0 to 1.35 the counts differ.
# gamma = 0 would not fit a run: its 45,056 tied profiles take over a
# minute per row.  A p step of 0.2 keeps an iteration near 4 s, so a run
# holds enough iterations for its median to be a steady figure.
FINE_ROW_GAMMA_INDICES = tuple(range(28, 32))
FINE_ROW_P_STEP = 0.2
FINE_ROW_GRID_STEP = math.pi / 8

CERTIFY_POINTS_PER_COUNT = 2  # the sweep's cells hold 0, 16, 32 or 64 profiles: 8 points
CERTIFY_STRATUM = 8  # one sampled cell in every 8

_VERIFY_FAILURES = re.compile(r"(\d+) of (\d+) recorded profiles are not equilibria")


def cli(argv: list[str]) -> tuple[int, str, str]:
    """Run qgame's command line in-process; return exit code, stdout and stderr."""
    import qgame.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qgame.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def solve_full_circuit(cell: dict, path: str) -> tuple[int, str, str]:
    """``qgame solve --circuit full`` at a recorded sweep cell, written to ``path``."""
    return cli(["solve", "--game", "bayesian", "--p", repr(cell["p"]),
                "--gamma", repr(cell["gamma"]), "--circuit", "full", "--out", path])


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def _n_profiles(cell: dict) -> int:
    return sum(len(k["members"]) for k in cell["classes"])


def fine_row_spec(gamma_index: int):
    from qgame.games import builtin_bayesian
    from qgame.strategies import GridSteps
    from qgame.sweep import SweepSpec, gamma_grid, p_grid

    step = FINE_ROW_GRID_STEP
    return SweepSpec(
        builtin_bayesian(),
        (gamma_grid()[gamma_index],),
        p_grid(FINE_ROW_P_STEP),
        GridSteps(step, step, step),
    )


def compact_result_cells(result) -> dict:
    """Compact form of an in-memory SweepResult, keyed by (p, gamma)."""
    return {
        reference.cell_key(cell.p, cell.gamma): [
            reference.compact_class(
                k.theta_profile, k.operator_label, k.payoffs, [r.profile for r in k.members]
            )
            for k in cell.classes
        ]
        for cell in result.cells
    }


class PhaseDiagram:
    """The default 21x32 sweep written as JSON, then summarized by ``classify``.

    Seed-independent: it is the paper's headline output.
    """

    def __init__(self, seed: int, workdir: str):
        self.result_path = os.path.join(workdir, "phase.json")
        self.regions_path = os.path.join(workdir, "regions.csv")
        self.codes: tuple[int, ...] = ()
        self.inputs: dict = {}

    def load_expected(self) -> None:
        self.expected = reference.compact_json_cells(reference.load_phase_diagram())
        self.expected_regions = reference.load_regions()
        self.cells = len(self.expected)
        self.profiles = sum(k[2] for classes in self.expected.values() for k in classes)

    def _sweep(self, jobs: int = 1) -> int:
        argv = ["sweep", "--format", "json", "--out", self.result_path, "--jobs", str(jobs)]
        return cli(argv)[0]

    def run(self) -> None:
        self.codes = (
            self._sweep(),
            cli(["classify", "--in", self.result_path, "--out", self.regions_path])[0],
        )

    def time_sweep(self, jobs: int) -> tuple[float, int]:
        """Seconds for the sweep step alone at ``jobs`` workers, and its failed cells."""
        start = time.perf_counter()
        code = self._sweep(jobs)
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, self.cells
        with open(self.result_path, encoding="utf-8") as fh:
            actual = reference.compact_json_cells(json.load(fh))
        os.remove(self.result_path)
        return seconds, reference.count_failed_cells(self.expected, actual)

    def check(self) -> tuple[int, int]:
        """One operation per cell, plus one for the regions file."""
        attempted = self.cells + 1
        try:
            if self.codes != (0, 0):
                return attempted, attempted
            with open(self.result_path, encoding="utf-8") as fh:
                actual = reference.compact_json_cells(json.load(fh))
            with open(self.regions_path, encoding="utf-8", newline="") as fh:
                regions_differ = fh.read() != self.expected_regions
            return attempted, reference.count_failed_cells(self.expected, actual) + regions_differ
        except (OSError, ValueError, KeyError, TypeError) as exc:
            _report(exc)
            return attempted, attempted
        finally:
            self.codes = ()
            for path in (self.result_path, self.regions_path):
                if os.path.exists(path):
                    os.remove(path)


class FineRow:
    """One gamma row of the 1824-strategy Bayesian phase diagram, 6 values of p."""

    def __init__(self, seed: int, workdir: str):
        self.gamma_index = random.Random(seed).choice(FINE_ROW_GAMMA_INDICES)
        self.spec = fine_row_spec(self.gamma_index)
        self.result = None
        self.inputs = {"gamma_index": self.gamma_index, "gamma": self.spec.gamma_values[0]}

    def load_expected(self) -> None:
        row = reference.fine_row_cells(reference.load_fine_rows()[str(self.gamma_index)])
        gamma = self.spec.gamma_values[0]
        keys = [reference.cell_key(p, gamma) for p in self.spec.p_values]
        missing = [key for key in keys if key not in row]
        if missing:
            raise ValueError(f"bench/ref has no recorded fine-row cells {missing}")
        self.expected = {key: row[key] for key in keys}
        self.cells = len(self.expected)
        self.profiles = sum(k[2] for classes in self.expected.values() for k in classes)

    def run(self) -> None:
        import qgame.sweep

        self.result = qgame.sweep.run_sweep(self.spec, workers=1)

    def check(self) -> tuple[int, int]:
        if self.result is None:
            return self.cells, self.cells
        actual = compact_result_cells(self.result)
        self.result = None
        return self.cells, reference.count_failed_cells(self.expected, actual)


class Certify:
    """``verify`` on a sampled result file, then full-circuit solves at seeded points.

    The recorded default sweep's cells are grouped by profile count.  The
    file holds one cell, chosen by the seed, from every run of 8 cells of
    a group, and the full-circuit points are 2 cells of each group, so
    the profile totals do not depend on the seed.  Each point's recorded
    classes are the mixture result it must reproduce.
    """

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        sweep = reference.load_phase_diagram()
        cells = sweep["cells"]
        by_count: dict[int, list[int]] = {}
        for i, cell in enumerate(cells):
            by_count.setdefault(_n_profiles(cell), []).append(i)
        groups = [by_count[n] for n in sorted(by_count)]
        picked = sorted(
            rng.choice(group[k : k + CERTIFY_STRATUM])
            for group in groups
            for k in range(0, len(group), CERTIFY_STRATUM)
        )
        self.file_path = os.path.join(workdir, "certify.json")
        with open(self.file_path, "w", encoding="utf-8") as fh:
            json.dump(dict(sweep, cells=[cells[i] for i in picked]), fh, ensure_ascii=False, indent=1)
        self.file_profiles = sum(_n_profiles(cells[i]) for i in picked)
        self.file_cells = len(picked)
        points = (i for group in groups for i in rng.sample(group, CERTIFY_POINTS_PER_COUNT))
        self.points = [cells[i] for i in sorted(points)]
        self.point_paths = [
            os.path.join(workdir, f"point-{k}.json") for k in range(len(self.points))
        ]
        self.outcomes: list[tuple[int, str, str]] = []
        self.inputs = {
            "file_cells": self.file_cells,
            "file_profiles": self.file_profiles,
            "points": [[c["p"], c["gamma"]] for c in self.points],
        }

    def load_expected(self) -> None:
        self.expected_points = [reference.compact_classes(cell) for cell in self.points]
        self.cells = self.file_cells + len(self.points)
        self.profiles = self.file_profiles + sum(_n_profiles(c) for c in self.points)

    def run(self) -> None:
        self.outcomes = [cli(["verify", "--in", self.file_path])]
        for cell, path in zip(self.points, self.point_paths):
            self.outcomes.append(solve_full_circuit(cell, path))

    def check(self) -> tuple[int, int]:
        """One operation per profile in the file and one per circuit point."""
        attempted = self.file_profiles + len(self.points)
        if len(self.outcomes) != 1 + len(self.points):
            return attempted, attempted
        code, _, err = self.outcomes[0]
        match = _VERIFY_FAILURES.search(err)
        failed = 0 if code == 0 else int(match.group(1)) if match else self.file_profiles
        for (code, _, _), path, expected in zip(
            self.outcomes[1:], self.point_paths, self.expected_points
        ):
            failed += code != 0 or not point_matches(path, expected)
        self.outcomes = []
        return attempted, failed


def point_matches(path: str, expected: list) -> bool:
    """Whether the single cell of a ``solve`` result file has the expected classes."""
    try:
        with open(path, encoding="utf-8") as fh:
            cells = json.load(fh)["cells"]
        os.remove(path)
        return len(cells) == 1 and reference.classes_match(
            expected, reference.compact_classes(cells[0])
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _report(exc)
        return False


WORKLOADS = {"phase-diagram": PhaseDiagram, "fine-row": FineRow, "certify": Certify}
