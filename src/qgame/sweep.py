"""Parameter sweeps over entanglement gamma and type probability p.

Bayesian sweeps cover the (p, gamma) plane; two-player games sweep
gamma alone.  A Bayesian gamma row is one unit of work, a pipeline over
one table set (A's payoff tables and the B players' best-response
lists, reduced at the sweep's tie tolerance): the set is built, one NE
search (``find_ne_bayesian_row``) reads the records of every p in the
row off it, because only A's payoff depends on p, the records are
re-checked against it, and the row's cells are classified together.
The records stay arrays (``RecordSet``) from the search to the classes.
The strategy set keeps the facts of every class it has seen, so a class
that recurs across cells is described once.  With ``workers > 1`` rows
are evaluated in a process pool, each on its own copy of the strategy
set, and the merged result is sorted so output is identical regardless
of parallelism.  The worker count is capped by the row count and the
CPU count.
Grids above ``MAX_GRID_POINTS`` points per axis are refused.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    _COLUMN_BLOCK,
    DEFAULT_EPS_TIE,
    EquilibriumClass,
    bayesian_tables,
    check_eps_tie,
    classify,
    find_ne_bayesian_row,
    find_ne_two_player,
)
from .games import BayesianGame, TwoPlayerGame, check_probability
from .strategies import DEFAULT_GRID, GridSteps

DEFAULT_STEP = 0.05

# Largest limit / step ratio ``value_grid`` accepts: a 1e-4 step still
# fits on [0, pi/2] (15,709 points).
MAX_GRID_POINTS = 20_000


def value_grid(limit: float, step: float = DEFAULT_STEP) -> tuple[float, ...]:
    """Multiples of ``step`` from 0, with the endpoint included by clamping.

    The last regular point closer than half a step to the limit is
    replaced by the limit itself, so [0, 1] at 0.05 gives 21 values and
    [0, pi/2] at 0.05 gives 32 (0, 0.05, ..., 1.5, pi/2).  A step with
    ``limit / step`` above ``MAX_GRID_POINTS`` is refused before any
    point is built; so is an infinite step, which would give the limit
    alone, and a NaN one.
    """
    if not (math.isfinite(step) and step > 0 and limit > 0):
        raise ValueError(f"limit and step must be positive and finite, got step {step}")
    if not limit / step <= MAX_GRID_POINTS:
        raise ValueError(
            f"step {step} gives more than {MAX_GRID_POINTS} points on [0, {limit:.6g}]"
        )
    values = []
    i = 0
    while i * step < limit - step / 2.0:
        values.append(i * step)
        i += 1
    values.append(limit)
    return tuple(values)


def p_grid(step: float = DEFAULT_STEP) -> tuple[float, ...]:
    return value_grid(1.0, step)


def gamma_grid(step: float = DEFAULT_STEP) -> tuple[float, ...]:
    return value_grid(math.pi / 2.0, step)


@dataclass(frozen=True)
class SweepSpec:
    game: BayesianGame | TwoPlayerGame
    gamma_values: tuple[float, ...]
    p_values: tuple[float, ...] = ()
    steps: GridSteps = DEFAULT_GRID
    eps_tie: float = DEFAULT_EPS_TIE

    def __post_init__(self):
        check_eps_tie(self.eps_tie)
        if not self.gamma_values or list(self.gamma_values) != sorted(self.gamma_values):
            raise ValueError("gamma_values must be non-empty and ascending")
        if isinstance(self.game, BayesianGame):
            if not self.p_values or list(self.p_values) != sorted(self.p_values):
                raise ValueError("p_values must be non-empty and ascending")
            for p in self.p_values:
                check_probability(p)


@dataclass(frozen=True)
class CellResult:
    """Equilibrium classes found at one grid cell; p is None for 1-D sweeps."""

    p: float | None
    gamma: float
    classes: tuple[EquilibriumClass, ...]


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    cells: tuple[CellResult, ...]
    elapsed: float = 0.0

    def cell(self, p: float | None, gamma: float, tol: float = 1e-9) -> CellResult:
        for c in self.cells:
            if abs(c.gamma - gamma) <= tol and (
                (c.p is None and p is None)
                or (c.p is not None and p is not None and abs(c.p - p) <= tol)
            ):
                return c
        raise KeyError(f"no cell at p={p}, gamma={gamma}")


@dataclass(frozen=True)
class RegionSummary:
    """Occupied-cell bounding ranges for one class signature.

    Ranges are read off occupied cells, not interpolated, so boundaries
    are only resolved to the sweep step.
    """

    theta_profile: tuple[float, ...]
    operator_label: str | None
    p_range: tuple[float, float] | None
    gamma_range: tuple[float, float]
    cells: tuple[tuple[float | None, float], ...]

    @property
    def n_cells(self) -> int:
        return len(self.cells)


def _recheck(records, tables, p_values):
    """Table-backed deviation re-check of every record of a gamma row.

    Recomputes each record's deviation payoffs from the tables alone and
    raises on the first record that is not stable.  A is stable when its
    payoff is at least ``best - eps_tie``, with ``best`` its best
    deviation ``max_r p * T1[r, b1] + (1 - p) * T2[r, b2]`` and the
    tables' ``eps_tie``.  The bound ``U`` of that expression at the
    column maxima of both tables is at least ``best``, since correctly
    rounded ``*`` by a non-negative factor and ``+`` are monotone, so a
    record that reaches ``U - eps_tie`` is stable; only the others take
    the full maximum, once per distinct (b1, b2) of each cell, in blocks
    of pairs.  The column maxima are computed here, apart from the
    search, once per distinct table.  Each B player is stable when its
    (a, b) is in its best-response list.  All cells of the row are
    checked together, read off the record arrays.
    """
    if not len(records):
        return
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n = ta1.shape[0]
    p_cell = np.asarray(p_values, dtype=float)
    cell = records.cell
    p = p_cell[cell]
    a, b1, b2 = records.profiles.T
    top1 = ta1.max(axis=0)
    top2 = top1 if ta2 is ta1 else ta2.max(axis=0)
    pay = p * ta1[a, b1] + (1.0 - p) * ta2[a, b2]
    ok = pay >= p * top1[b1] + (1.0 - p) * top2[b2] - eps_tie
    rest = np.flatnonzero(~ok)
    pairs, pair_of = np.unique((cell[rest] * n + b1[rest]) * n + b2[rest], return_inverse=True)
    best = np.empty(len(pairs))
    step = max(1, _COLUMN_BLOCK // n)
    for start in range(0, len(pairs), step):
        c, c1, c2 = np.unravel_index(pairs[start : start + step], (records.n_cells, n, n))
        pc = p_cell[c]
        best[start : start + step] = (pc * ta1[:, c1] + (1.0 - pc) * ta2[:, c2]).max(axis=0)
    ok[rest] = pay[rest] >= best[pair_of] - eps_tie
    ok &= np.isin(a * n + b1, tables.br1) & np.isin(a * n + b2, tables.br2)
    if not ok.all():
        profile = tuple(records.profiles[np.argmin(ok)].tolist())
        raise RuntimeError(f"record {profile} failed deviation re-check")


def _bayesian_row(args) -> list[CellResult]:
    game, gamma, p_values, sset, eps_tie = args
    tables = bayesian_tables(game, gamma, sset, eps_tie)
    records = find_ne_bayesian_row(tables, p_values)
    _recheck(records, tables, p_values)
    return [
        CellResult(p, gamma, classes)
        for p, classes in zip(p_values, classify(records, sset))
    ]


def _two_player_row(args) -> list[CellResult]:
    game, gamma, sset, eps_tie = args
    (classes,) = classify(find_ne_two_player(game, gamma, sset, eps_tie), sset)
    return [CellResult(None, gamma, classes)]


def effective_workers(requested: int | None, rows: int | None = None) -> int:
    """Worker count: min(requested, rows, CPU count).

    ``None`` requests one worker; a request below one is an error.
    """
    if requested is None:
        requested = 1
    if int(requested) < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    workers = min(int(requested), os.cpu_count() or 1)
    if rows is not None:
        workers = max(1, min(workers, rows))
    return workers


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every grid cell; deterministic regardless of parallelism.

    The strategy grid is enumerated once and shared by every row.
    """
    # Looked up at call time, so a patch on the strategies module's
    # enumerate_strategies (as bench's tracer makes) sees the call.
    from .strategies import enumerate_strategies

    start = time.perf_counter()
    sset = enumerate_strategies(spec.steps)
    if isinstance(spec.game, BayesianGame):
        jobs = [(spec.game, g, spec.p_values, sset, spec.eps_tie) for g in spec.gamma_values]
        row_fn = _bayesian_row
    else:
        jobs = [(spec.game, g, sset, spec.eps_tie) for g in spec.gamma_values]
        row_fn = _two_player_row

    workers = effective_workers(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(row_fn, jobs))
    else:
        rows = [row_fn(job) for job in jobs]

    cells = [cell for row in rows for cell in row]
    cells.sort(key=lambda c: (c.p if c.p is not None else -1.0, c.gamma))
    return SweepResult(spec, tuple(cells), time.perf_counter() - start)


def summarize_regions(result: SweepResult) -> list[RegionSummary]:
    """Bounding (p, gamma) ranges per class signature across occupied cells."""
    occupied: dict[tuple, list[tuple[float | None, float]]] = {}
    samples: dict[tuple, EquilibriumClass] = {}
    for cell in result.cells:
        for cls in cell.classes:
            sig = cls.signature()
            occupied.setdefault(sig, []).append((cell.p, cell.gamma))
            samples.setdefault(sig, cls)

    summaries = []
    for sig in sorted(occupied, key=lambda s: (s[0], s[1] or "")):
        cells = sorted(
            occupied[sig], key=lambda c: (c[0] if c[0] is not None else -1.0, c[1])
        )
        ps = [c[0] for c in cells if c[0] is not None]
        gammas = [c[1] for c in cells]
        summaries.append(
            RegionSummary(
                theta_profile=samples[sig].theta_profile,
                operator_label=samples[sig].operator_label,
                p_range=(min(ps), max(ps)) if ps else None,
                gamma_range=(min(gammas), max(gammas)),
                cells=tuple(cells),
            )
        )
    return summaries
