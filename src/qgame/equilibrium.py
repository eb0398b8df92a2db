"""Best-response search, Nash equilibrium enumeration, and classification.

NE search is brute force over a finite strategy set: payoff tables are
precomputed per gamma (they do not depend on p, so p-sweeps reuse
them), each as one real matrix product over a rank-16 factorization of
the Born payoff; best-response sets are read off with an absolute tie
tolerance, and a profile is an equilibrium when every player's strategy
is in its best-response set against the others.

``verify_ne`` is the independent oracle: it re-evaluates every
unilateral deviation through the scalar circuit path, never consulting
the vectorized tables or best-response structure.

Equilibria group into classes sharing a theta-profile and payoffs whose
members differ only by correlated phase shifts.  For each class the
observed sets of pairwise phase sums and differences (against player A)
are both reported, along with a Pauli operator label when every member
strategy is proportional to a Pauli matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuits import (
    ControlSpec,
    bayesian_payoffs_full_circuit,
    bayesian_payoffs_mixture,
    entangler,
    evolve_two_player,
    payoff_expectation,
)
from .games import BayesianGame, TwoPlayerGame
from .strategies import StrategySet, wrap_angle

DEFAULT_EPS_TIE = 1e-9

# How far a record's stored payoffs may sit from the recomputed ones in
# ``verify_ne``.  A class stores its first member's payoffs for every
# member, and members agree to round(x, 9), so within 1e-9; the rest
# covers the last bits by which tables and scalar circuits differ.
PAYOFF_TOL = 2e-9

# Working-array bounds of the vectorized Bayesian NE search: candidate
# triples per block of a, and float64 entries per block of A's columns
# (small enough to stay in cache).
_TRIPLE_BLOCK = 1 << 20
_COLUMN_BLOCK = 1 << 16


def check_eps_tie(eps_tie: float) -> float:
    """Return a tie tolerance if it is finite and non-negative, else raise ValueError."""
    if not (math.isfinite(eps_tie) and eps_tie >= 0):
        raise ValueError(f"eps_tie must be finite and non-negative, got {eps_tie}")
    return eps_tie


@dataclass(frozen=True)
class EquilibriumRecord:
    """One NE profile (strategy indices, one per player) with its payoffs."""

    profile: tuple[int, ...]
    payoffs: tuple[float, ...]


@dataclass
class EquilibriumClass:
    """A family of NE sharing a theta-profile and payoffs.

    ``phase_sums[pair]`` and ``phase_diffs[pair]`` hold the observed
    sets of (g_A + g_k) and (g_k - g_A) mod 2*pi over members, where g
    is each player's free phase (phi at theta = 0, alpha at theta = pi).
    Both are reported because sum and difference constraints coincide on
    negation-symmetric offset sets.  The operator label is one
    representative member's Pauli product and is not unique.
    """

    theta_profile: tuple[float, ...]
    payoffs: tuple[float, ...]
    members: tuple[EquilibriumRecord, ...]
    phase_sums: dict[str, tuple[float, ...]]
    phase_diffs: dict[str, tuple[float, ...]]
    operator_label: str | None

    @property
    def n_profiles(self) -> int:
        return len(self.members)

    def signature(self) -> tuple:
        return (tuple(round(t, 9) for t in self.theta_profile), self.operator_label)


def _born_factors(sset: StrategySet) -> tuple[np.ndarray, np.ndarray]:
    """Rows x_i = vec(U_i (x) conj U_i), 16 complex entries per strategy.

    Returned as the real GEMM operand [Re X, Im X] and X itself.
    """
    u = sset.unitaries
    x = np.einsum("ikm,iln->iklmn", u, u.conj()).reshape(len(sset), 16)
    return np.hstack([x.real, x.imag]), x


def _born_core(j: np.ndarray, payoff) -> np.ndarray:
    """16x16 core C with T[a, b] = x_a^T C x_b for the Born payoff.

    The payoff is tr(K rho K^dag M) with K = U_a (x) U_b, rho = J|00><00|J^dag
    and M = J diag(payoff) J^dag.  Splitting each two-qubit index into
    (A bit, B bit) makes it bilinear in U_a (x) conj U_a and U_b (x) conj U_b.
    """
    v = j[:, 0]
    rho = np.outer(v, v.conj()).reshape(2, 2, 2, 2)
    m = ((j * np.asarray(payoff, dtype=float)) @ j.conj().T).reshape(2, 2, 2, 2)
    return np.einsum("cgdh,bfae->abcdefgh", rho, m).reshape(16, 16)


def _payoff_table(factors, core: np.ndarray, columns: bool) -> np.ndarray:
    """T = Re(X C X^T) as one real GEMM [Re XC, -Im XC] @ [Re X, Im X]^T.

    With ``columns`` the table comes back in column-major order, so
    columns T[:, j] are contiguous.
    """
    real, x = factors
    xc = x @ core
    left = np.hstack([xc.real, -xc.imag])
    return (real @ left.T).T if columns else left @ real.T


def _subgame_tables(game: TwoPlayerGame, j: np.ndarray, factors):
    return (
        _payoff_table(factors, _born_core(j, game.payoff_a), columns=True),
        _payoff_table(factors, _born_core(j, game.payoff_b), columns=False),
    )


def two_player_tables(
    game: TwoPlayerGame, gamma: float, sset: StrategySet
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff tables T_A[i, j], T_B[i, j] for A playing i against B playing j.

    T_A is column-major (A's best responses scan columns), T_B row-major.
    """
    return _subgame_tables(game, entangler(gamma), _born_factors(sset))


def bayesian_tables(
    game: BayesianGame, gamma: float, sset: StrategySet
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-subgame payoff tables (T_A1, T_B1, T_A2, T_B2) at one gamma.

    Independent of p: A's Bayesian payoff against (b1, b2) is
    p * T_A1[:, b1] + (1 - p) * T_A2[:, b2], so sweeps over p share
    these tables.
    """
    j = entangler(gamma)
    factors = _born_factors(sset)
    ta1, tb1 = _subgame_tables(game.subgame_b1, j, factors)
    ta2, tb2 = _subgame_tables(game.subgame_b2, j, factors)
    return ta1, tb1, ta2, tb2


def _dense_ne(tables: Sequence[np.ndarray], eps_tie: float) -> list[EquilibriumRecord]:
    """Profiles where each player is within ``eps_tie`` of its best deviation.

    ``tables[k]`` is player k's payoff over the whole profile grid, and
    axis k is that player's strategy.  Records come back in profile order.
    """
    stable = np.ones(tables[0].shape, dtype=bool)
    for k, t in enumerate(tables):
        stable &= t >= t.max(axis=k, keepdims=True) - eps_tie
    found = np.nonzero(stable)
    return [
        EquilibriumRecord(profile, payoffs)
        for profile, payoffs in zip(
            zip(*(i.tolist() for i in found)), zip(*(t[found].tolist() for t in tables))
        )
    ]


def find_ne_two_player(
    game: TwoPlayerGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[EquilibriumRecord]:
    """All profiles (a, b) where each strategy best-responds to the other."""
    check_eps_tie(eps_tie)
    ta, tb = tables if tables is not None else two_player_tables(game, gamma, sset)
    return _dense_ne((ta, tb), eps_tie)


def _candidate_triples(br1: np.ndarray, br2: np.ndarray):
    """Triples (a, b1, b2) with br1[a, b1] and br2[a, b2], in lexicographic order.

    Each (a, b1) of the row-major nonzero list of br1 is repeated once per
    b2 of row a of br2, which ``start2`` locates in br2's nonzero list.
    """
    a1, b1 = np.divmod(np.flatnonzero(br1), br1.shape[1])
    a2, b2 = np.divmod(np.flatnonzero(br2), br2.shape[1])
    count2 = np.bincount(a2, minlength=len(br2))
    start2 = np.cumsum(count2) - count2
    reps = count2[a1]
    within = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.repeat(a1, reps), np.repeat(b1, reps), b2[np.repeat(start2[a1], reps) + within]


def _row_blocks(sizes: np.ndarray, budget: int):
    """Consecutive row slices whose summed sizes stay within ``budget``.

    A single row larger than the budget forms its own block.
    """
    start, total = 0, 0
    for row, size in enumerate(sizes.tolist()):
        if row > start and total + size > budget:
            yield slice(start, row)
            start, total = row, 0
        total += size
    if start < len(sizes):
        yield slice(start, len(sizes))


def find_ne_bayesian_row(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p_values: Sequence[float],
    eps_tie: float = DEFAULT_EPS_TIE,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[list[EquilibriumRecord]]:
    """The records of ``find_ne_bayesian`` at each p of ``p_values``.

    Only A's payoff depends on p, so one search serves the whole row.
    B1's payoff does not depend on b2 nor B2's on b1, so both
    best-response masks are taken for every a at once and expanded into
    candidate triples.  The triples, their distinct (b1, b2) pairs and
    A's gathered columns are built once for the row; only A's mixture,
    its maximum and the tie test run per p, once per distinct pair.
    Candidates, column blocks and the per-p best payoffs are processed in
    bounded chunks.  Records come back in profile order, one list per p.
    """
    check_eps_tie(eps_tie)
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
    ta1, tb1, ta2, tb2 = (
        tables if tables is not None else bayesian_tables(game, gamma, sset)
    )
    n = tb1.shape[1]
    br1 = tb1 >= tb1.max(axis=1, keepdims=True) - eps_tie
    br2 = tb2 >= tb2.max(axis=1, keepdims=True) - eps_tie
    sizes = br1.sum(axis=1) * br2.sum(axis=1)
    pair_block = max(1, _COLUMN_BLOCK // max(n, 1))
    records: list[list[EquilibriumRecord]] = [[] for _ in p_values]
    for rows in _row_blocks(sizes, _TRIPLE_BLOCK):
        a, b1, b2 = _candidate_triples(br1[rows], br2[rows])
        a += rows.start
        pairs, pair_of = np.unique(b1 * n + b2, return_inverse=True)
        g1, g2 = ta1.T[b1, a], ta2.T[b2, a]
        p_block = max(1, _TRIPLE_BLOCK // max(len(pairs), 1))
        for first in range(0, len(p_values), p_block):
            group = p_values[first : first + p_block]
            best = np.empty((len(group), len(pairs)))
            for start in range(0, len(pairs), pair_block):
                c1, c2 = np.divmod(pairs[start : start + pair_block], n)
                cols1, cols2 = ta1.T[c1], ta2.T[c2]
                for best_p, p in zip(best, group):
                    best_p[start : start + pair_block] = (
                        p * cols1 + (1.0 - p) * cols2
                    ).max(axis=1)
            for best_p, p, out in zip(best, group, records[first:]):
                pay_a = p * g1 + (1.0 - p) * g2
                keep = np.flatnonzero(pay_a >= best_p[pair_of] - eps_tie)
                ak, b1k, b2k = a[keep], b1[keep], b2[keep]
                out.extend(
                    EquilibriumRecord(profile, payoffs)
                    for profile, payoffs in zip(
                        zip(ak.tolist(), b1k.tolist(), b2k.tolist()),
                        zip(
                            pay_a[keep].tolist(),
                            tb1[ak, b1k].tolist(),
                            tb2[ak, b2k].tolist(),
                        ),
                    )
                )
    return records


def find_ne_bayesian(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p: float,
    eps_tie: float = DEFAULT_EPS_TIE,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[EquilibriumRecord]:
    """All profiles (a, b1, b2) stable under unilateral deviation at one p.

    A's payoff is the p-weighted mixture of its two subgame tables.
    """
    return find_ne_bayesian_row(game, gamma, sset, (p,), eps_tie, tables)[0]


def bayesian_circuit_tables(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    control: ControlSpec,
) -> np.ndarray:
    """Payoff tables evaluated through the four-qubit circuit.

    Returns one (3, n, n, n) array: A's, B1's and B2's payoffs at every
    profile (a, b1, b2), one stacked circuit call per strategy of A.
    Cubic in the strategy count; intended for coarse grids.
    """
    n = len(sset)
    us = sset.unitaries
    tables = np.empty((3, n, n, n))
    for a in range(n):
        tables[:, a] = bayesian_payoffs_full_circuit(
            control, gamma, us[a], us[:, None], us[None, :], game
        )
    return tables


def find_ne_bayesian_circuit(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    control: ControlSpec,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> list[EquilibriumRecord]:
    """NE search with payoffs evaluated through the four-qubit circuit.

    A dense check of the whole profile cube: it shares no search code
    with the p-mixture, whose witness it is.
    """
    check_eps_tie(eps_tie)
    return _dense_ne(bayesian_circuit_tables(game, gamma, sset, control), eps_tie)


def _payoffs_match(stored, base) -> bool:
    return len(stored) == len(base) and all(
        abs(x - y) <= PAYOFF_TOL for x, y in zip(stored, base)
    )


def _deviation_stacks(us: np.ndarray, profile: tuple[int, ...]) -> list[np.ndarray]:
    """Each player's strategy stack for evaluating every unilateral deviation.

    In the first n rows (n strategies) A plays each strategy in turn and
    the others keep theirs; in the next n every B player plays each
    strategy at once while A keeps its own.  That is sound because a B
    player's payoff depends only on A's strategy and its own.
    """
    def repeated(s):
        return np.repeat(us[s : s + 1], len(us), axis=0)

    a, *bs = profile
    return [np.concatenate([us, repeated(a)])] + [
        np.concatenate([repeated(b), us]) for b in bs
    ]


def verify_ne(
    record: EquilibriumRecord,
    game: TwoPlayerGame | BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    p: float | None = None,
) -> bool:
    """Independent NE check: every unilateral deviation, re-evaluated.

    Payoffs are recomputed through the scalar circuit path, all of a
    record's deviations in one stacked call, so the check shares nothing
    with the vectorized tables or best-response masks.  A player's
    deviation to its recorded strategy is the base payoff.  The record
    also fails when its stored payoffs are more than ``PAYOFF_TOL`` from
    the recomputed ones.  A Bayesian record needs the ``p`` it was found
    at; a two-player record takes none.
    """
    n = len(sset)
    stacks = _deviation_stacks(sset.unitaries, record.profile)
    if isinstance(game, TwoPlayerGame):
        psi = evolve_two_player(gamma, *stacks)
        payoffs = (
            payoff_expectation(psi, game.payoff_a),
            payoff_expectation(psi, game.payoff_b),
        )
    else:
        if p is None:
            raise ValueError("verify_ne needs p for a Bayesian record")
        payoffs = bayesian_payoffs_mixture(p, gamma, *stacks, game)
    deviations = [payoffs[0][:n]] + [pay[n:] for pay in payoffs[1:]]
    base = tuple(float(dev[s]) for dev, s in zip(deviations, record.profile))
    return _payoffs_match(record.payoffs, base) and all(
        dev.max() <= pay + eps_tie for dev, pay in zip(deviations, base)
    )


def _offset(phase: float) -> float:
    return round(wrap_angle(phase), 9)


def classify(
    records: list[EquilibriumRecord], sset: StrategySet
) -> list[EquilibriumClass]:
    """Group NE records into classes by theta-profile and payoffs.

    Within a class, phase sum/difference offsets against player A are
    collected per pair; a pair is reported only when both players'
    theta values pin a single free phase.  The operator label comes
    from the first member in profile order.
    """
    # Keys round each strategy's theta once, and each distinct payoff tuple
    # once: a cell's records share far fewer payoffs than profiles.
    theta9 = [round(s.theta, 9) for s in sset.params]
    payoffs9: dict[tuple, tuple] = {}
    groups: dict[tuple, list[EquilibriumRecord]] = {}
    for rec in sorted(records, key=lambda r: r.profile):
        pay9 = payoffs9.get(rec.payoffs)
        if pay9 is None:
            pay9 = payoffs9[rec.payoffs] = tuple([round(x, 9) for x in rec.payoffs])
        groups.setdefault((tuple([theta9[i] for i in rec.profile]), pay9), []).append(rec)

    free, names = sset.free_phases, sset.pauli_names
    classes = []
    for key in sorted(groups):
        members = tuple(groups[key])
        rep = members[0]
        others = ("B",) if len(rep.profile) == 2 else ("B1", "B2")

        phase_sums: dict[str, tuple[float, ...]] = {}
        phase_diffs: dict[str, tuple[float, ...]] = {}
        for k, other in enumerate(others, start=1):
            phases = {(free[rec.profile[0]], free[rec.profile[k]]) for rec in members}
            if any(g_a is None or g_k is None for g_a, g_k in phases):
                continue
            pair = f"A-{other}"
            phase_sums[pair] = tuple(sorted({_offset(g_a + g_k) for g_a, g_k in phases}))
            phase_diffs[pair] = tuple(sorted({_offset(g_k - g_a) for g_a, g_k in phases}))

        label = None
        if all(names[i] is not None for rec in members for i in rec.profile):
            label = "⊗".join(names[i] for i in rep.profile)

        theta_profile = tuple(sset.params[i].theta for i in rep.profile)
        classes.append(
            EquilibriumClass(
                theta_profile=theta_profile,
                payoffs=rep.payoffs,
                members=members,
                phase_sums=phase_sums,
                phase_diffs=phase_diffs,
                operator_label=label,
            )
        )
    return classes
