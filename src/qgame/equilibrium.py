"""Best-response search, Nash equilibrium enumeration, and classification.

NE search is brute force over a finite strategy set: payoff tables are
precomputed per gamma (they do not depend on p, so p-sweeps reuse
them), each as one real matrix product over a rank-16 factorization of
the Born payoff; best-response sets are read off with an absolute tie
tolerance, and a profile is an equilibrium when every player's strategy
is in its best-response set against the others.

``verify_ne`` is the independent oracle: a naive deviation loop that
re-evaluates payoffs through the scalar circuit path, never consulting
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
from typing import Callable

import numpy as np

from .circuits import (
    ControlSpec,
    bayesian_payoffs_full_circuit,
    bayesian_payoffs_mixture,
    control_for_probability,
    entangler,
    evolve_two_player,
    payoff_expectation,
)
from .games import BayesianGame, TwoPlayerGame
from .strategies import StrategySet, wrap_angle

DEFAULT_EPS_TIE = 1e-9

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


def best_responses(
    payoff_fn: Callable[[int, tuple[int, ...]], float],
    sset: StrategySet,
    opponents: tuple[int, ...],
    eps_tie: float = DEFAULT_EPS_TIE,
) -> tuple[tuple[int, ...], float]:
    """All strategies within eps_tie of the best payoff against fixed opponents."""
    check_eps_tie(eps_tie)
    if len(sset) == 0:
        raise ValueError("strategy set is empty")
    values = np.array([payoff_fn(k, opponents) for k in range(len(sset))])
    top = float(values.max())
    indices = tuple(int(i) for i in np.nonzero(values >= top - eps_tie)[0])
    return indices, top


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
    br_a = ta >= ta.max(axis=0, keepdims=True) - eps_tie
    br_b = tb >= tb.max(axis=1, keepdims=True) - eps_tie
    pairs = np.argwhere(br_a & br_b)
    return [
        EquilibriumRecord((int(i), int(j)), (float(ta[i, j]), float(tb[i, j])))
        for i, j in pairs
    ]


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


def _masked_search(tb1, tb2, payoff_a, eps_tie: float) -> list[EquilibriumRecord]:
    """All profiles (a, b1, b2) stable under unilateral deviation, in profile order.

    ``tb1[a, b1]`` and ``tb2[a, b2]`` are B1's and B2's payoffs; B1's does
    not depend on b2 nor B2's on b1, so both best-response masks are
    taken for every a at once and expanded into candidate triples.
    ``payoff_a(b1, b2, a)`` gives A's payoffs elementwise, and
    ``payoff_a(b1, b2)`` A's payoff of every strategy against each pair
    (rows).  A's check runs once per distinct (b1, b2) pair.  Candidates
    and column blocks are processed in bounded chunks.
    """
    n = tb1.shape[1]
    br1 = tb1 >= tb1.max(axis=1, keepdims=True) - eps_tie
    br2 = tb2 >= tb2.max(axis=1, keepdims=True) - eps_tie
    sizes = br1.sum(axis=1) * br2.sum(axis=1)
    pair_block = max(1, _COLUMN_BLOCK // max(n, 1))
    records = []
    for rows in _row_blocks(sizes, _TRIPLE_BLOCK):
        a, b1, b2 = _candidate_triples(br1[rows], br2[rows])
        a += rows.start
        pairs, pair_of = np.unique(b1 * n + b2, return_inverse=True)
        best = np.empty(len(pairs))
        for start in range(0, len(pairs), pair_block):
            u1, u2 = np.divmod(pairs[start : start + pair_block], n)
            best[start : start + len(u1)] = payoff_a(u1, u2).max(axis=1)
        pay_a = payoff_a(b1, b2, a)
        keep = pay_a >= best[pair_of] - eps_tie
        a, b1, b2, pay_a = a[keep], b1[keep], b2[keep], pay_a[keep]
        records.extend(
            EquilibriumRecord(profile, payoffs)
            for profile, payoffs in zip(
                zip(a.tolist(), b1.tolist(), b2.tolist()),
                zip(pay_a.tolist(), tb1[a, b1].tolist(), tb2[a, b2].tolist()),
            )
        )
    return records


def find_ne_bayesian(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> list[EquilibriumRecord]:
    """All profiles (a, b1, b2) stable under unilateral deviation.

    A's payoff is the p-weighted mixture of its two subgame tables.
    """
    check_eps_tie(eps_tie)
    ta1, tb1, ta2, tb2 = (
        tables if tables is not None else bayesian_tables(game, gamma, sset)
    )
    p = game.p

    def payoff_a(b1, b2, a=slice(None)):
        return p * ta1.T[b1, a] + (1.0 - p) * ta2.T[b2, a]

    return _masked_search(tb1, tb2, payoff_a, eps_tie)


def bayesian_circuit_tables(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    control: ControlSpec | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Payoff tables evaluated through the four-qubit circuit.

    Returns (T_A[a, b1, b2], T_B1[a, b1], T_B2[a, b2]).  Cubic in the
    strategy count; intended for the coarse grid.
    """
    if control is None:
        control = control_for_probability(game.p)
    n = len(sset)
    ta = np.empty((n, n, n))
    tb1 = np.empty((n, n))
    tb2 = np.empty((n, n))
    for a in range(n):
        for b1 in range(n):
            for b2 in range(n):
                pa, p1, p2 = bayesian_payoffs_full_circuit(
                    control,
                    gamma,
                    sset.unitaries[a],
                    sset.unitaries[b1],
                    sset.unitaries[b2],
                    game,
                )
                ta[a, b1, b2] = pa
                if b2 == 0:
                    tb1[a, b1] = p1
                if b1 == 0:
                    tb2[a, b2] = p2
    return ta, tb1, tb2


def find_ne_bayesian_circuit(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    control: ControlSpec | None = None,
) -> list[EquilibriumRecord]:
    """NE search with payoffs evaluated through the four-qubit circuit."""
    check_eps_tie(eps_tie)
    ta, tb1, tb2 = bayesian_circuit_tables(game, gamma, sset, control)

    def payoff_a(b1, b2, a=slice(None)):
        return ta.T[b2, b1, a]

    return _masked_search(tb1, tb2, payoff_a, eps_tie)


def _two_player_payoff(game, gamma, u_a, u_b):
    psi = evolve_two_player(gamma, u_a, u_b)
    return (
        payoff_expectation(psi, game.payoff_a),
        payoff_expectation(psi, game.payoff_b),
    )


def verify_ne(
    record: EquilibriumRecord,
    game: TwoPlayerGame | BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> bool:
    """Independent NE check: a naive loop over every unilateral deviation.

    Payoffs are recomputed through the scalar circuit path so the check
    shares nothing with the vectorized tables or best-response masks.
    """
    us = sset.unitaries
    if isinstance(game, TwoPlayerGame):
        a, b = record.profile
        base_a, base_b = _two_player_payoff(game, gamma, us[a], us[b])
        for alt in range(len(sset)):
            if _two_player_payoff(game, gamma, us[alt], us[b])[0] > base_a + eps_tie:
                return False
            if _two_player_payoff(game, gamma, us[a], us[alt])[1] > base_b + eps_tie:
                return False
        return True

    a, b1, b2 = record.profile
    base = bayesian_payoffs_mixture(game.p, gamma, us[a], us[b1], us[b2], game)
    for alt in range(len(sset)):
        if (
            bayesian_payoffs_mixture(game.p, gamma, us[alt], us[b1], us[b2], game)[0]
            > base[0] + eps_tie
        ):
            return False
        if (
            payoff_expectation(
                evolve_two_player(gamma, us[a], us[alt]), game.subgame_b1.payoff_b
            )
            > base[1] + eps_tie
        ):
            return False
        if (
            payoff_expectation(
                evolve_two_player(gamma, us[a], us[alt]), game.subgame_b2.payoff_b
            )
            > base[2] + eps_tie
        ):
            return False
    return True


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
    groups: dict[tuple, list[EquilibriumRecord]] = {}
    for rec in sorted(records, key=lambda r: r.profile):
        thetas = tuple(sset.params[i].theta for i in rec.profile)
        key = (
            tuple(round(t, 9) for t in thetas),
            tuple(round(x, 9) for x in rec.payoffs),
        )
        groups.setdefault(key, []).append(rec)

    free, names = sset.free_phases, sset.pauli_names
    classes = []
    for key in sorted(groups):
        members = tuple(groups[key])
        rep = members[0]
        others = ("B",) if len(rep.profile) == 2 else ("B1", "B2")

        phase_sums: dict[str, tuple[float, ...]] = {}
        phase_diffs: dict[str, tuple[float, ...]] = {}
        for k, other in enumerate(others, start=1):
            phases = [(free[rec.profile[0]], free[rec.profile[k]]) for rec in members]
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
