"""Quantized prisoner's dilemma games under the EWL protocol.

State-vector simulation of the two-player entangling circuit and its
three-player Bayesian extension, brute-force pure-strategy Nash
equilibrium search over discretized SU(2) strategy grids, equilibrium
classification by phase relationship, and (p, gamma) phase-diagram
sweeps.
"""

from .circuits import (
    StrategyParams,
    bayesian_payoffs_full_circuit,
    entangler,
    evolve_bayesian_circuit,
    evolve_two_player,
    payoff_expectation,
    strategy_unitary,
)
from .equilibrium import (
    BayesianTables,
    EquilibriumClass,
    EquilibriumRecord,
    RecordSet,
    bayesian_tables,
    classify,
    find_ne_bayesian_row,
    find_ne_bayesian_circuit,
    find_ne_two_player,
    two_player_tables,
    verify_records,
)
from .games import (
    BayesianGame,
    TwoPlayerGame,
    builtin_bayesian,
    builtin_da,
    builtin_pd,
    classical_bayesian_ne,
    classical_pure_ne,
)
from .serialize import ConfigError, emit, load_game, load_result
from .strategies import DEFAULT_GRID, GridSteps, StrategySet, enumerate_strategies
from .sweep import (
    CellResult,
    RegionSummary,
    SweepResult,
    SweepSpec,
    gamma_grid,
    p_grid,
    run_sweep,
    summarize_regions,
)

__version__ = "0.1.0"
