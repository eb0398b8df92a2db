"""Parameter sweeps over entanglement gamma and type probability p.

Bayesian sweeps cover the (p, gamma) plane; two-player games sweep
gamma alone.  A block of consecutive gamma rows is one unit of work and
returns its NE records as one ``RecordSet``.  A Bayesian block takes as
many rows G as keep G * n * n within ``_COLUMN_BLOCK`` entries for n
strategies, and at least one: the 8- and 24-strategy sweeps are one
block, and from 208 strategies up each row is a block of its own.  It
builds one table set, stacked over its rows (A's payoff tables and the
B players' best-response lists, reduced at the sweep's tie tolerance),
and one search (``find_ne_bayesian_row``) reads the re-checked records
of every p of every row off it, because only A's payoff depends on p.
A two-player block is one row, ``find_ne_two_player``.  The blocks'
records are joined into one set, and one ``classify`` call groups every
cell of the sweep, so a class that recurs across cells is described
once.  The records stay arrays from the search to the classes.  With
``workers > 1`` blocks are evaluated in a process pool, each on its own
copy of the strategy set; the blocks are joined in gamma order either
way, so output is identical regardless of parallelism.  The worker
count is capped by the block count and the CPU count.  Grids above
``MAX_GRID_POINTS`` points per axis are refused.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import equilibrium
from .equilibrium import (
    DEFAULT_EPS_TIE,
    EquilibriumClass,
    RecordSet,
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


def ascending(values: tuple[float, ...]) -> bool:
    """Whether ``values`` strictly ascend, so no value repeats."""
    return all(a < b for a, b in zip(values, values[1:]))


@dataclass(frozen=True)
class SweepSpec:
    game: BayesianGame | TwoPlayerGame
    gamma_values: tuple[float, ...]
    p_values: tuple[float, ...] = ()
    steps: GridSteps = DEFAULT_GRID
    eps_tie: float = DEFAULT_EPS_TIE

    def __post_init__(self):
        check_eps_tie(self.eps_tie)
        if not self.gamma_values or not ascending(self.gamma_values):
            raise ValueError("gamma_values must be non-empty and ascending")
        if isinstance(self.game, BayesianGame):
            for p in self.p_values:
                check_probability(p)
            if not self.p_values or not ascending(self.p_values):
                raise ValueError("p_values must be non-empty and ascending")
        elif self.p_values:
            raise ValueError("a two-player game takes no p_values")


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


def _block(args) -> RecordSet:
    """The NE records of a block of consecutive gamma rows, cell
    ``g * len(p_values) + i`` at ``(p_values[i], gammas[g])``; a two-player
    block is one row of one cell."""
    game, gammas, p_values, sset, eps_tie = args
    if isinstance(game, BayesianGame):
        return find_ne_bayesian_row(bayesian_tables(game, gammas, sset, eps_tie), p_values)
    (gamma,) = gammas
    return find_ne_two_player(game, gamma, sset, eps_tie)


def effective_workers(requested: int | None, blocks: int | None = None) -> int:
    """Worker count: min(requested, blocks, CPU count).

    ``None`` requests one worker; a request below one is an error.
    """
    if requested is None:
        requested = 1
    if int(requested) < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    workers = min(int(requested), os.cpu_count() or 1)
    if blocks is not None:
        workers = max(1, min(workers, blocks))
    return workers


def run_sweep(spec: SweepSpec, workers: int | None = None) -> SweepResult:
    """Evaluate every grid cell; deterministic regardless of parallelism.

    The strategy grid is enumerated once and shared by every block, and
    the records of all blocks are classified in one call.  Cells come in
    (p, gamma) order.
    """
    # Looked up at call time, so a patch on the strategies module's
    # enumerate_strategies (as bench's tracer makes) sees the call.
    from .strategies import enumerate_strategies

    start = time.perf_counter()
    sset = enumerate_strategies(spec.steps)
    # As many Bayesian rows per block as keep G * n * n within _COLUMN_BLOCK
    # (read at call time), at least one; a two-player block is one row.
    size = 1
    if isinstance(spec.game, BayesianGame):
        size = max(1, equilibrium._COLUMN_BLOCK // len(sset) ** 2)
    gammas = spec.gamma_values
    jobs = [
        (spec.game, gammas[g : g + size], spec.p_values, sset, spec.eps_tie)
        for g in range(0, len(gammas), size)
    ]
    workers = effective_workers(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block, jobs))
    else:
        blocks = [_block(job) for job in jobs]

    # Each block's cells follow those of the blocks before it, so cell
    # g * len(p_values) + i of the joined set is (p_values[i], gamma_values[g])
    # and the blocks joined in gamma order are in (cell, profile) order.  A
    # two-player spec has no p values, and its blocks one cell each.
    p_values = spec.p_values or (None,)
    offsets = np.cumsum([0] + [block.n_cells for block in blocks])
    records = RecordSet(
        np.concatenate([block.cell + offset for block, offset in zip(blocks, offsets)]),
        np.concatenate([block.profiles for block in blocks]),
        np.concatenate([block.payoffs for block in blocks]),
        int(offsets[-1]),
    )
    del blocks  # kept through classify, they add 19 MB to the pi/8 diagram's peak
    classes = classify(records, sset)
    cells = tuple(
        CellResult(p, gamma, classes[g * len(p_values) + i])
        for i, p in enumerate(p_values)
        for g, gamma in enumerate(spec.gamma_values)
    )
    return SweepResult(spec, cells, time.perf_counter() - start)


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
