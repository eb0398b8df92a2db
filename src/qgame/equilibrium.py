"""Best-response search, Nash equilibrium enumeration, and classification.

NE search is brute force over a finite strategy set: payoff tables are
precomputed per gamma (they do not depend on p, so p-sweeps reuse
them), each as one real matrix product over a rank-16 factorization of
the Born payoff; best-response sets are read off with an absolute tie
tolerance, and a profile is an equilibrium when every player's strategy
is in its best-response set against the others.  A Bayesian row keeps
A's dense tables, one per distinct payoff vector of A, and each B
player's table only as its list of best responses.

``verify_records`` is the independent oracle: it re-evaluates every
unilateral deviation through the scalar circuit path, never consulting
the vectorized tables or best-response structure; ``verify_ne`` is its
one-record case.

Equilibria group into classes sharing a theta-profile and payoffs whose
members differ only by correlated phase shifts.  For each class the
observed sets of pairwise phase sums and differences (against player A)
are both reported, along with a Pauli operator label when every member
strategy is proportional to a Pauli matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import (
    bayesian_payoffs_full_circuit,
    entangler,
    evolve_two_player,
    payoff_expectation,
)
from .games import BayesianGame, TwoPlayerGame
from .strategies import StrategySet, wrap_angle

DEFAULT_EPS_TIE = 1e-9

# How far a record's stored payoffs may sit from the recomputed ones in
# ``verify_records``.  A class stores its first member's payoffs for every
# member, and members agree to round(x, 9), so within 1e-9; the rest
# covers the last bits by which tables and scalar circuits differ.
PAYOFF_TOL = 2e-9

# Working-array bounds of the vectorized Bayesian NE search: candidate
# triples per block of a, and float64 entries per block of A's columns
# (small enough to stay in cache), a bound ``verify_records`` shares.
_TRIPLE_BLOCK = 1 << 20
_COLUMN_BLOCK = 1 << 16

# Deviation states per stacked circuit call in ``verify_records``, which
# bounds the temporaries of one call.
_VERIFY_BLOCK = 1 << 12


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


def two_player_tables(
    game: TwoPlayerGame, gamma: float, sset: StrategySet
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff tables T_A[i, j], T_B[i, j] for A playing i against B playing j.

    T_A is column-major (A's best responses scan columns), T_B row-major.
    """
    j, factors = entangler(gamma), _born_factors(sset)
    return (
        _payoff_table(factors, _born_core(j, game.payoff_a), columns=True),
        _payoff_table(factors, _born_core(j, game.payoff_b), columns=False),
    )


class BayesianTables(NamedTuple):
    """What the Bayesian search of one gamma row reads, reduced at one tie tolerance.

    ``ta1[i, j]`` and ``ta2[i, j]`` are A's payoffs for playing i against
    B1 and against B2 playing j, column-major; when both subgames give A
    the same payoff vector they are one array (``ta2 is ta1``).
    ``br1`` holds B1's best responses as ascending row-major flat indices
    ``a * n + b1`` of B1's table, the entries within ``eps_tie`` of row
    a's maximum, and ``pay1`` B1's payoffs there; ``br2`` and ``pay2``
    likewise for B2.  ``eps_tie`` is a 0-d array, so every field is an
    array.
    """

    ta1: np.ndarray
    ta2: np.ndarray
    br1: np.ndarray
    pay1: np.ndarray
    br2: np.ndarray
    pay2: np.ndarray
    eps_tie: np.ndarray

    def check_reduced_at(self, eps_tie: float) -> None:
        """Raise ValueError unless the lists were reduced at ``eps_tie``."""
        if self.eps_tie != eps_tie:
            raise ValueError(
                f"tables were reduced at eps_tie {float(self.eps_tie)}, not {eps_tie}"
            )


def _best_responses(tb: np.ndarray, eps_tie: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of a row-major table's entries within ``eps_tie`` of
    their row's maximum, and the entries there."""
    idx = np.flatnonzero(tb >= tb.max(axis=1, keepdims=True) - eps_tie)
    return idx, tb.ravel()[idx]


def bayesian_tables(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> BayesianTables:
    """A's per-subgame tables and the B players' best-response lists at one gamma.

    Independent of p: A's Bayesian payoff against (b1, b2) is
    p * T_A1[b1] + (1 - p) * T_A2[b2] by columns, so sweeps over p share
    these tables.  Each B table is built whole, reduced to its best
    responses and dropped before the next table is built; A's tables
    come last, and A's second table is the first when the two payoff
    vectors agree byte for byte (so -0.0 never stands in for 0.0).  The
    row therefore holds at most one n x n table per distinct payoff
    vector of A, plus one B table while it is reduced.
    """
    check_eps_tie(eps_tie)
    j, factors = entangler(gamma), _born_factors(sset)
    subgames = (game.subgame_b1, game.subgame_b2)
    # Each B table is a temporary of one list item, freed before the next.
    (br1, pay1), (br2, pay2) = [
        _best_responses(
            _payoff_table(factors, _born_core(j, sub.payoff_b), columns=False), eps_tie
        )
        for sub in subgames
    ]
    vec1, vec2 = (np.asarray(sub.payoff_a, dtype=float) for sub in subgames)
    ta1 = _payoff_table(factors, _born_core(j, vec1), columns=True)
    ta2 = (
        ta1
        if vec1.tobytes() == vec2.tobytes()
        else _payoff_table(factors, _born_core(j, vec2), columns=True)
    )
    return BayesianTables(ta1, ta2, br1, pay1, br2, pay2, np.array(eps_tie))


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
) -> list[EquilibriumRecord]:
    """All profiles (a, b) where each strategy best-responds to the other."""
    check_eps_tie(eps_tie)
    return _dense_ne(two_player_tables(game, gamma, sset), eps_tie)


def _candidate_triples(rows1: np.ndarray, count2: np.ndarray, start2: np.ndarray):
    """Positions (i1, i2) of candidate triples in the B players' best-response lists.

    ``rows1`` holds the rows a of a run of B1's list.  Each of its entries
    is repeated once per entry of row a of B2's list, which starts at
    ``start2[a]`` and holds ``count2[a]`` entries, so the triples come in
    lexicographic order.  i1 counts from the start of the run.
    """
    reps = count2[rows1]
    within = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps, reps)
    return np.repeat(np.arange(len(rows1)), reps), np.repeat(start2[rows1], reps) + within


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
    tables: BayesianTables | None = None,
) -> list[list[EquilibriumRecord]]:
    """The records of ``find_ne_bayesian`` at each p of ``p_values``.

    Only A's payoff depends on p, so one search serves the whole row.
    B1's payoff does not depend on b2 nor B2's on b1, so the candidate
    triples are read straight off the two best-response lists of
    ``tables``, which must have been reduced at ``eps_tie``.  The
    triples, their distinct (b1, b2) pairs and A's gathered columns are
    built once for the row; only A's mixture, its maximum and the tie
    test run per p, once per distinct pair.  Candidates, column blocks
    and the per-p best payoffs are processed in bounded chunks.  Records
    come back in profile order, one list per p.
    """
    check_eps_tie(eps_tie)
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
    if tables is None:
        tables = bayesian_tables(game, gamma, sset, eps_tie)
    tables.check_reduced_at(eps_tie)
    ta1, ta2 = tables.ta1, tables.ta2
    n = ta1.shape[0]
    a1, b1_of = np.divmod(tables.br1, n)
    a2, b2_of = np.divmod(tables.br2, n)
    count1, count2 = (np.bincount(rows, minlength=n) for rows in (a1, a2))
    end1 = np.cumsum(count1)
    start2 = np.cumsum(count2) - count2
    pair_block = max(1, _COLUMN_BLOCK // max(n, 1))
    records: list[list[EquilibriumRecord]] = [[] for _ in p_values]
    for rows in _row_blocks(count1 * count2, _TRIPLE_BLOCK):
        offset = end1[rows.start] - count1[rows.start]
        i1, i2 = _candidate_triples(a1[offset : end1[rows.stop - 1]], count2, start2)
        i1 += offset
        a, b1, b2 = a1[i1], b1_of[i1], b2_of[i2]
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
                out.extend(
                    EquilibriumRecord(profile, payoffs)
                    for profile, payoffs in zip(
                        zip(a[keep].tolist(), b1[keep].tolist(), b2[keep].tolist()),
                        zip(
                            pay_a[keep].tolist(),
                            tables.pay1[i1[keep]].tolist(),
                            tables.pay2[i2[keep]].tolist(),
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
    tables: BayesianTables | None = None,
) -> list[EquilibriumRecord]:
    """All profiles (a, b1, b2) stable under unilateral deviation at one p.

    A's payoff is the p-weighted mixture of its two subgame tables.
    """
    return find_ne_bayesian_row(game, gamma, sset, (p,), eps_tie, tables)[0]


def bayesian_circuit_tables(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p: float,
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
            p, gamma, us[a], us[:, None], us[None, :], game
        )
    return tables


def find_ne_bayesian_circuit(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p: float,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> list[EquilibriumRecord]:
    """NE search with payoffs evaluated through the four-qubit circuit.

    A dense check of the whole profile cube: it shares no search code
    with the p-mixture, whose witness it is.
    """
    check_eps_tie(eps_tie)
    return _dense_ne(bayesian_circuit_tables(game, gamma, sset, p), eps_tie)


def verify_records(
    records: Sequence[EquilibriumRecord],
    game: TwoPlayerGame | BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    p: float | None = None,
) -> list[bool]:
    """Independent NE check of one cell's records: every unilateral
    deviation, re-evaluated.

    Payoffs are recomputed through the scalar circuit path, so the check
    shares nothing with the vectorized tables or best-response masks.
    Every deviation is keyed by the deviator's subgame opponent.  Each B
    player's payoff for every alternative is tabled against each distinct
    a, one state serving both B players; A's payoff in each subgame is
    tabled against each distinct B strategy, one state serving both
    subgames.  The states are evaluated in blocks of ``_VERIFY_BLOCK``,
    and each table holds at most n x n floats.  A's Bayesian payoff
    against (b1, b2) is ``p * E1[b1] + (1.0 - p) * E2[b2]``, the
    mixture's own expression, maximized once per distinct pair in blocks
    of ``_COLUMN_BLOCK`` entries; a two-player A reads its one table.
    A player's deviation to its recorded strategy is the base payoff, and
    a record also fails when its stored payoffs are more than
    ``PAYOFF_TOL`` from the base ones.  Bayesian records need the ``p``
    they were found at; two-player records take none.  Returns one
    verdict per record, in order.
    """
    bayesian = isinstance(game, BayesianGame)
    if bayesian and p is None:
        raise ValueError("verifying a Bayesian record needs p")
    if bayesian and not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    us = sset.unitaries
    n, players = len(us), 3 if bayesian else 2
    for rec in records:
        if len(rec.profile) != players or not all(0 <= s < n for s in rec.profile):
            raise ValueError(
                f"profile {rec.profile} is not {players} strategy indices in [0, {n})"
            )
    if not records:
        return []
    a, *bs = np.array([rec.profile for rec in records]).T
    # Stored payoffs of the wrong length become NaN, which fails the test.
    stored = np.array(
        [rec.payoffs if len(rec.payoffs) == players else (np.nan,) * players for rec in records],
        dtype=float,
    )
    subgames = (game.subgame_b1, game.subgame_b2) if bayesian else (game,)
    weights = (float(p), 1.0 - float(p)) if bayesian else (1.0,)

    def table(keys, vectors, deviator_first):
        """Payoffs ``vectors[k]`` of the deviator playing each alternative
        against each key, as (len(vectors), len(keys), n)."""
        total = len(keys) * n
        out = np.empty((len(vectors), total))
        for start in range(0, total, _VERIFY_BLOCK):
            key, alt = np.divmod(np.arange(start, min(start + _VERIFY_BLOCK, total)), n)
            pair = (us[alt], us[keys[key]]) if deviator_first else (us[keys[key]], us[alt])
            psi = evolve_two_player(gamma, *pair)
            for row, vec in zip(out, vectors):
                row[start : start + len(key)] = payoff_expectation(psi, vec)
        return out.reshape(len(vectors), len(keys), n)

    own, own_of = np.unique(a, return_inverse=True)
    table_b = table(own, [sub.payoff_b for sub in subgames], deviator_first=False)
    best_b = [t.max(axis=1)[own_of] for t in table_b]
    base_b = [t[own_of, b] for t, b in zip(table_b, bs)]
    del table_b  # freed before A's table is built, which lowers the peak

    others, other_of = np.unique(np.concatenate(bs), return_inverse=True)
    table_a = table(others, [sub.payoff_a for sub in subgames], deviator_first=True)
    keys = other_of.reshape(len(bs), len(records))
    shape = (len(others),) * len(bs)
    pairs, pair_of = np.unique(np.ravel_multi_index(keys, shape), return_inverse=True)
    pair_keys = np.unravel_index(pairs, shape)
    best_a = np.empty(len(pairs))
    step = max(1, _COLUMN_BLOCK // n)
    for start in range(0, len(pairs), step):
        block = slice(start, start + step)
        best_a[block] = sum(
            w * t[k[block]] for w, t, k in zip(weights, table_a, pair_keys)
        ).max(axis=1)
    base_a = sum(w * t[k, a] for w, t, k in zip(weights, table_a, keys))
    best = np.stack([best_a[pair_of]] + best_b, axis=1)
    base = np.stack([base_a] + base_b, axis=1)
    return (
        (np.abs(stored - base) <= PAYOFF_TOL).all(axis=1)
        & (best <= base + eps_tie).all(axis=1)
    ).tolist()


def verify_ne(
    record: EquilibriumRecord,
    game: TwoPlayerGame | BayesianGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    p: float | None = None,
) -> bool:
    """``verify_records`` of one record."""
    return verify_records([record], game, gamma, sset, eps_tie, p)[0]


_PROFILE = attrgetter("profile")


def _offset(phase: float) -> float:
    return round(wrap_angle(phase), 9)


def _class_facts(members: tuple[EquilibriumRecord, ...], sset: StrategySet) -> tuple:
    """What a class's member profiles alone fix: its theta-profile, phase
    sums and differences, and operator label."""
    rep = members[0]
    others = ("B",) if len(rep.profile) == 2 else ("B1", "B2")
    free, names = sset.free_phases, sset.pauli_names
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
    return theta_profile, phase_sums, phase_diffs, label


def classify(
    records: list[EquilibriumRecord],
    sset: StrategySet,
    facts: dict[tuple, tuple] | None = None,
) -> list[EquilibriumClass]:
    """Group NE records into classes by theta-profile and payoffs.

    Within a class, phase sum/difference offsets against player A are
    collected per pair; a pair is reported only when both players'
    theta values pin a single free phase.  The operator label comes
    from the first member in profile order.

    These facts depend only on a class's member profiles and ``sset``.
    A caller that classifies several cells over one ``sset`` may pass
    one ``facts`` dict to all of them; it is keyed by the tuple of
    member profiles, so a class that recurs across the cells is
    described once.  Each returned class gets its own phase dicts.
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

    classes = []
    for key in sorted(groups):
        members = tuple(groups[key])
        if facts is None:
            fact = _class_facts(members, sset)
        else:
            profiles = tuple(map(_PROFILE, members))
            fact = facts.get(profiles)
            if fact is None:
                fact = facts[profiles] = _class_facts(members, sset)
        theta_profile, phase_sums, phase_diffs, label = fact
        classes.append(
            EquilibriumClass(
                theta_profile=theta_profile,
                payoffs=members[0].payoffs,
                members=members,
                phase_sums=dict(phase_sums),
                phase_diffs=dict(phase_diffs),
                operator_label=label,
            )
        )
    return classes
