"""Best-response search, Nash equilibrium enumeration, and classification.

NE search is brute force over a finite strategy set: payoff tables are
precomputed per gamma (they do not depend on p, so p-sweeps reuse
them), each as one real matrix product over a rank-16 factorization of
the Born payoff; best-response sets are read off with an absolute tie
tolerance, and a profile is an equilibrium when every player's strategy
is in its best-response set against the others.  A Bayesian row keeps
A's dense tables, one per distinct payoff vector of A, and each B
player's table only as its list of best responses, reduced at one tie
tolerance; the row's search reads nothing else.  It takes A's best
deviation, the maximum of A's p-mixture over a column pair, in full only
where rounding bounds from column maxima, argmax rows (also those of a
gauge-turned pair) and the candidates' own payoffs cannot decide the tie
test: correctly rounded arithmetic is monotone, so the bounds hold for
the computed payoffs and the records are those of the full maximum, bit
for bit.

``verify_records`` is the independent oracle: it re-evaluates every
unilateral deviation through the scalar circuit path, never consulting
the vectorized tables or best-response structure; ``verify_ne`` is its
one-record case.

Equilibria group into classes sharing a theta-profile and payoffs whose
members differ only by correlated phase shifts.  For each class the
observed sets of pairwise phase sums and differences (against player A)
are both reported, along with a Pauli operator label when every member
strategy is proportional to a Pauli matrix.  Every fact is read off the
members' integer grid codes: the free phase is phi at t = 0 and alpha at
t = n_theta, and a pole code is a Pauli matrix up to a unimodular factor
exactly when its free phase is a whole number of quarter turns, an even
number naming I at theta = 0 and Y at pi, an odd number Z and X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .circuits import (
    bayesian_payoffs_full_circuit,
    entangler,
    evolve_two_player,
    payoff_expectation,
)
from .games import BayesianGame, TwoPlayerGame, check_probability
from .strategies import StrategySet, wrap_angle

DEFAULT_EPS_TIE = 1e-9

# How far a record's stored payoffs may sit from the recomputed ones in
# ``verify_records``.  A class stores its first member's payoffs for every
# member, and members agree to round(x, 9), so within 1e-9; the rest
# covers the last bits by which tables and scalar circuits differ.
PAYOFF_TOL = 2e-9

# Working-array bounds of the vectorized Bayesian NE search: candidate
# triples per block of a, and float64 entries per block of A's columns
# (small enough to stay in cache), a bound ``verify_records`` and the
# sweep's table re-check share.
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


@dataclass(frozen=True, eq=False)
class RecordSet:
    """NE records of one or more cells as arrays, in (cell, profile) order.

    Record i is the profile ``profiles[i]``, one strategy index per
    player, with its payoffs ``payoffs[i]``, found in cell ``cell[i]`` of
    ``n_cells`` cells (a gamma row's cells are its p values, in order).
    Every stage from the search to the JSON writer reads these arrays.
    """

    cell: np.ndarray
    profiles: np.ndarray
    payoffs: np.ndarray
    n_cells: int = 1

    @classmethod
    def of(cls, records: Sequence[EquilibriumRecord]) -> RecordSet:
        """One cell's records, in the order given."""
        profiles = np.array([rec.profile for rec in records], dtype=np.int64)
        payoffs = np.array([rec.payoffs for rec in records], dtype=float)
        return cls(np.zeros(len(records), dtype=np.int64), profiles, payoffs)

    def in_cell(self, c: int) -> RecordSet:
        """The records of cell ``c`` as a one-cell set."""
        lo, hi = np.searchsorted(self.cell, [c, c + 1])
        return RecordSet(self.cell[lo:hi] - c, self.profiles[lo:hi], self.payoffs[lo:hi])

    def __len__(self) -> int:
        return len(self.profiles)


@dataclass(eq=False)
class EquilibriumClass:
    """A family of NE sharing a theta-profile and payoffs.

    ``profiles`` holds the member profiles, one row each, in ascending
    order.  ``phase_sums[pair]`` and ``phase_diffs[pair]`` hold the
    observed sets of (g_A + g_k) and (g_k - g_A) mod 2*pi over members,
    where g is each player's free phase (phi at theta = 0, alpha at
    theta = pi).  Both are reported because sum and difference
    constraints coincide on negation-symmetric offset sets.  The
    operator label is one representative member's Pauli product and is
    not unique.  Classes are equal when every field is, the member
    arrays compared entry by entry.
    """

    theta_profile: tuple[float, ...]
    payoffs: tuple[float, ...]
    profiles: np.ndarray
    phase_sums: dict[str, tuple[float, ...]]
    phase_diffs: dict[str, tuple[float, ...]]
    operator_label: str | None

    @property
    def members(self) -> tuple[EquilibriumRecord, ...]:
        """The members as records carrying the class's payoffs, built on each read."""
        return tuple(
            EquilibriumRecord(tuple(profile), self.payoffs) for profile in self.profiles.tolist()
        )

    @property
    def n_profiles(self) -> int:
        return len(self.profiles)

    def signature(self) -> tuple:
        return (tuple(round(t, 9) for t in self.theta_profile), self.operator_label)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EquilibriumClass):
            return NotImplemented
        return (
            self.theta_profile == other.theta_profile
            and self.payoffs == other.payoffs
            and self.phase_sums == other.phase_sums
            and self.phase_diffs == other.phase_diffs
            and self.operator_label == other.operator_label
            and np.array_equal(self.profiles, other.profiles)
        )


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
    array.  ``shift`` is the grid's gauge map ``StrategySet.gauge_shift``;
    the search takes only lower bounds from it, so any map of valid
    indices gives the same records.
    """

    ta1: np.ndarray
    ta2: np.ndarray
    br1: np.ndarray
    pay1: np.ndarray
    br2: np.ndarray
    pay2: np.ndarray
    eps_tie: np.ndarray
    shift: np.ndarray


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
    return BayesianTables(ta1, ta2, br1, pay1, br2, pay2, np.array(eps_tie), sset.gauge_shift)


def _dense_ne(tables: Sequence[np.ndarray], eps_tie: float) -> RecordSet:
    """Profiles where each player is within ``eps_tie`` of its best deviation.

    ``tables[k]`` is player k's payoff over the whole profile grid, and
    axis k is that player's strategy.  Records come back in profile order,
    as one cell.
    """
    stable = np.ones(tables[0].shape, dtype=bool)
    for k, t in enumerate(tables):
        stable &= t >= t.max(axis=k, keepdims=True) - eps_tie
    found = np.nonzero(stable)
    return RecordSet(
        np.zeros(len(found[0]), dtype=np.int64),
        np.stack(found, axis=1).astype(np.int64),
        np.stack([t[found] for t in tables], axis=1),
    )


def find_ne_two_player(
    game: TwoPlayerGame,
    gamma: float,
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> RecordSet:
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


def _gauge_hints(tables, per_pair, exact, group, best, undecided, pair_block) -> None:
    """Raise the lower bounds of the pairs ``exact`` from one full maximum per gauge orbit.

    ``per_pair`` holds each pair's columns c1 and c2, column maxima m1
    and m2 and largest candidate entries h1 and h2; ``best`` and
    ``undecided`` are a group's (p, pair) lower bounds and open entries,
    updated in place.  The B players' turns ``shift[k]`` of a pair
    (b1, b2) form its orbit, keyed by the smallest code ``b1' * n + b2'``
    over k.  At each p, the first open pair of an orbit takes the full
    maximum with its row r*.  Another open pair, reached from it by the B
    players' turn by -s, takes the mixture at A's row ``shift[s, r*]``,
    which the gauge makes the same payoff up to rounding.  That row is a
    real row of the pair's own columns, so its mixture is at most the
    pair's ``best``: a lower bound like ``L``, whatever the map.  The
    upper-bound and drop tests then run again at the raised bound.
    """
    ta1, ta2, shift, eps_tie = tables.ta1, tables.ta2, tables.shift, float(tables.eps_tie)
    n, turns = ta1.shape[0], len(shift)
    c1, c2, m1, m2, h1, h2 = (x[exact] for x in per_pair)
    key = (c1 * n + c2).astype(np.int32)
    turn = np.zeros(len(exact), dtype=np.intp)
    for k in range(1, turns):
        code = shift[k, c1] * np.int32(n) + shift[k, c2]
        lower = code < key
        key[lower], turn[lower] = code[lower], k
    for best_p, open_p, p in zip(best, undecided, group):
        sub = np.flatnonzero(open_p[exact])
        _, first, orbit_of = np.unique(key[sub], return_index=True, return_inverse=True)
        reps = sub[first]
        top, top_value = np.empty(len(reps), dtype=np.intp), np.empty(len(reps))
        for start in range(0, len(reps), pair_block):
            block, sel = slice(start, start + pair_block), reps[start : start + pair_block]
            mix = p * ta1.T[c1[sel]] + (1.0 - p) * ta2.T[c2[sel]]
            top[block] = mix.argmax(axis=1)
            top_value[block] = mix[np.arange(len(sel)), top[block]]
        rows = shift[(turn[sub] - turn[reps][orbit_of]) % turns, top[orbit_of]]
        hint = p * ta1[rows, c1[sub]] + (1.0 - p) * ta2[rows, c2[sub]]
        lower = np.maximum(best_p[exact[sub]], hint)
        lower[first] = top_value
        still = (p * m1[sub] + (1.0 - p) * m2[sub] != lower) & (
            p * h1[sub] + (1.0 - p) * h2[sub] >= lower - eps_tie
        )
        still[first] = False
        best_p[exact[sub]], open_p[exact[sub]] = lower, still


def find_ne_bayesian_row(tables: BayesianTables, p_values: Sequence[float]) -> RecordSet:
    """The NE records of one gamma row's table set at each p of ``p_values``.

    Only A's payoff depends on p, so one search serves the whole row.
    B1's payoff does not depend on b2 nor B2's on b1, so the candidate
    triples are read straight off the two best-response lists, and A's
    ties are taken at the ``eps_tie`` they were reduced at.  The
    triples and their distinct (b1, b2) pairs are built once for the row.

    A candidate (a, b1, b2) is kept when its payoff ``pay_a`` is at least
    ``best - eps_tie``, where ``best`` is A's best deviation
    ``max_r p * T1[r, b1] + (1 - p) * T2[r, b2]``.  Every bound below is
    formed with that same expression, and correctly rounded ``*`` by a
    non-negative factor and ``+`` are monotone, so each bound holds for
    the computed values, not only for the exact ones:

    - upper: ``U`` with the column maxima ``max_r T1[r, b1]`` and
      ``max_r T2[r, b2]`` in place of the entries is at least ``best``;
    - lower: ``L``, the larger mixture at the argmax rows of columns b1
      and b2, is a real entry, so at most ``best``.  When ``U == L``,
      ``best`` is ``L`` (always so at p = 0 and p = 1);
    - drop: ``H`` with the pair's largest candidate entries of each
      table is at least every candidate's ``pay_a``.  When
      ``H < L - eps_tie``, no candidate of the pair is kept, and ``L``
      keeps none either.

    So ``L`` stands in for ``best`` wherever a bound decides.  Where the
    pairs that some p of a group leaves open fill more than one block of
    ``_COLUMN_BLOCK`` entries, ``_gauge_hints`` first takes the full
    maximum once per gauge orbit of them and raises the others' ``L`` to
    the mixture at A's turned argmax row, again a real entry, and the
    tests run again.  A's columns are gathered once per group of p for
    the pairs still open, and each p that leaves one of a block's
    pairs open takes the full maximum over the block, with p a scalar.
    The full maximum is right for every pair, so the records and their
    payoffs are bit for bit those of the full maximum everywhere.
    Candidates, column blocks and the per-p bounds are processed in
    bounded chunks, and the tie test is one 2-D test per group of p
    whose candidates times p values stay within ``_TRIPLE_BLOCK``.
    Records come back as one set for the row, cell i holding the
    records of ``p_values[i]`` in profile order.
    """
    p_values = [check_probability(p) for p in p_values]
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n = ta1.shape[0]
    a1, b1_of = np.divmod(tables.br1, n)
    a2, b2_of = np.divmod(tables.br2, n)
    count1, count2 = (np.bincount(rows, minlength=n) for rows in (a1, a2))
    end1 = np.cumsum(count1)
    start2 = np.cumsum(count2) - count2
    top1 = ta1.T.argmax(axis=1)
    top2 = top1 if ta2 is ta1 else ta2.T.argmax(axis=1)
    pair_block = max(1, _COLUMN_BLOCK // max(n, 1))
    cells = [np.empty(0, dtype=np.int64)]
    profiles = [np.empty((0, 3), dtype=np.int64)]
    payoffs = [np.empty((0, 3))]
    for rows in _row_blocks(count1 * count2, _TRIPLE_BLOCK):
        offset = end1[rows.start] - count1[rows.start]
        i1, i2 = _candidate_triples(a1[offset : end1[rows.stop - 1]], count2, start2)
        i1 += offset
        a, b1, b2 = a1[i1], b1_of[i1], b2_of[i2]
        pairs, pair_of = np.unique(b1 * n + b2, return_inverse=True)
        g1, g2 = ta1.T[b1, a], ta2.T[b2, a]
        # Per pair: A's entries at the argmax rows r1 of column c1 and r2
        # of column c2 (m1 and m2 are the column maxima), and the largest
        # candidate entries h1 and h2.
        c1, c2 = np.divmod(pairs, n)
        r1, r2 = top1[c1], top2[c2]
        m1, y1, x2, m2 = ta1[r1, c1], ta2[r1, c2], ta1[r2, c1], ta2[r2, c2]
        h1, h2 = np.full(len(pairs), -np.inf), np.full(len(pairs), -np.inf)
        np.maximum.at(h1, pair_of, g1)
        np.maximum.at(h2, pair_of, g2)
        p_block = max(1, _TRIPLE_BLOCK // max(len(pairs), 1))
        keep_block = max(1, _TRIPLE_BLOCK // max(len(i1), 1))
        for first in range(0, len(p_values), p_block):
            group = p_values[first : first + p_block]
            pcol = np.array(group)[:, None]
            qcol = 1.0 - pcol
            pm1, qm2 = pcol * m1, qcol * m2
            best = np.maximum(pm1 + qcol * y1, pcol * x2 + qm2)
            undecided = (pm1 + qm2 != best) & (pcol * h1 + qcol * h2 >= best - eps_tie)
            exact = np.flatnonzero(undecided.any(axis=0))
            if len(exact) > pair_block:
                _gauge_hints(
                    tables, (c1, c2, m1, m2, h1, h2), exact, group, best, undecided, pair_block
                )
                exact = np.flatnonzero(undecided.any(axis=0))
            for start in range(0, len(exact), pair_block):
                sel = exact[start : start + pair_block]
                cols1, cols2 = ta1.T[c1[sel]], ta2.T[c2[sel]]
                for best_p, p, need in zip(best, group, undecided[:, sel].any(axis=1).tolist()):
                    if need:
                        best_p[sel] = (p * cols1 + (1.0 - p) * cols2).max(axis=1)
            for sub in range(0, len(group), keep_block):
                # Built in place, so a test holds three (p, candidate) arrays.
                ps = slice(sub, sub + keep_block)
                pay_a = pcol[ps] * g1
                pay_a += qcol[ps] * g2
                threshold = best[ps][:, pair_of]
                threshold -= eps_tie
                kp, kt = np.nonzero(pay_a >= threshold)
                cells.append(kp + (first + sub))
                profiles.append(np.stack([a[kt], b1[kt], b2[kt]], axis=1))
                payoffs.append(
                    np.stack([pay_a[kp, kt], tables.pay1[i1[kt]], tables.pay2[i2[kt]]], axis=1)
                )
    cell = np.concatenate(cells)
    # Each block of candidates adds records to every cell; a stable sort by
    # cell puts them in (cell, profile) order.
    order = np.argsort(cell, kind="stable")
    return RecordSet(
        cell[order], np.concatenate(profiles)[order], np.concatenate(payoffs)[order], len(p_values)
    )


def find_ne_bayesian(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p: float,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> RecordSet:
    """All profiles (a, b1, b2) stable under unilateral deviation at one p.

    A's payoff is the p-weighted mixture of its two subgame tables.
    """
    return find_ne_bayesian_row(bayesian_tables(game, gamma, sset, eps_tie), (p,))


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
) -> RecordSet:
    """NE search with payoffs evaluated through the four-qubit circuit.

    A dense check of the whole profile cube: it shares no search code
    with the p-mixture, whose witness it is.
    """
    check_eps_tie(eps_tie)
    return _dense_ne(bayesian_circuit_tables(game, gamma, sset, p), eps_tie)


def verify_records(
    records: RecordSet,
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
    they were found at; two-player records take none.  ``records.cell``
    is not read.  Returns one verdict per record, in order.
    """
    bayesian = isinstance(game, BayesianGame)
    if bayesian and p is None:
        raise ValueError("verifying a Bayesian record needs p")
    if bayesian:
        check_probability(p)
    if not len(records):
        return []
    us = sset.unitaries
    n, players = len(us), 3 if bayesian else 2
    profiles = records.profiles
    bad = (profiles.shape[1] != players) | ((profiles < 0) | (profiles >= n)).any(axis=1)
    if bad.any():
        profile = tuple(profiles[np.argmax(bad)].tolist())
        raise ValueError(f"profile {profile} is not {players} strategy indices in [0, {n})")
    a, *bs = profiles.T
    # Stored payoffs of the wrong length become NaN, which fails the test.
    stored = records.payoffs
    if stored.shape != profiles.shape:
        stored = np.full(profiles.shape, np.nan)
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
    return verify_records(RecordSet.of([record]), game, gamma, sset, eps_tie, p)[0]


def _offset(phase: float) -> float:
    return round(wrap_angle(phase), 9)


def _class_facts(members: np.ndarray, sset: StrategySet) -> tuple:
    """A class's theta-profile, phase sums and differences, and operator
    label, read off its member profiles' codes (module docstring)."""
    steps = sset.steps
    t, f, a = np.moveaxis(sset.codes[members], 2, 0)
    top = t == steps.n_theta
    pole = top | (t == 0)
    turns4, size = 4 * np.where(top, a, f), np.where(top, steps.n_alpha, steps.n_phi)
    free = np.where(top, sset.angles[members, 2], sset.angles[members, 1]).tolist()
    rep = members[0].tolist()
    phase_sums: dict[str, tuple[float, ...]] = {}
    phase_diffs: dict[str, tuple[float, ...]] = {}
    for k, other in enumerate(("B",) if len(rep) == 2 else ("B1", "B2"), start=1):
        if pole[:, [0, k]].all():
            phases = {(row[0], row[k]) for row in free}
            phase_sums[f"A-{other}"] = tuple(sorted({_offset(g + h) for g, h in phases}))
            phase_diffs[f"A-{other}"] = tuple(sorted({_offset(h - g) for g, h in phases}))

    label = None
    if (pole & (turns4 % size == 0)).all():
        # Pole, then quarter-turn parity: theta = 0 gives +-I or +-iZ, pi +-iY or +-iX.
        label = "⊗".join("IZYX"[i] for i in (2 * top + turns4 // size % 2)[0].tolist())
    return tuple(sset.angles[rep, 0].tolist()), phase_sums, phase_diffs, label


def classify(records: RecordSet, sset: StrategySet) -> list[tuple[EquilibriumClass, ...]]:
    """Group each cell's NE records into classes by theta-profile and payoffs.

    Returns one tuple of classes per cell of ``records``, empty cells
    included.  A class's key is its members' theta codes and payoffs, the
    payoffs rounded to 9 places (theta steps are at least pi/16384, so
    the codes sort and tie as thetas rounded to 9 places would); a cell's
    classes come in key order, and each class's members in profile order.
    One ``lexsort`` over every cell puts the records in (cell, key,
    profile) order, so each class is a run of it.  Payoffs are rounded
    with ``round(x, 9)`` once per distinct payoff row, and ranked by the
    rounded values.  Within a class, phase sum/difference offsets against
    player A are collected per pair; a pair is reported only when both
    players' theta values pin a single free phase.  The class's payoffs
    and operator label come from its first member.

    These facts depend only on a class's member profiles and ``sset``,
    which keeps them (``StrategySet.class_facts``, keyed by the player
    count and the members array's bytes), so a class that recurs across
    the cells of a sweep is described once.  They live as long as
    ``sset``, one entry per distinct set of member profiles.  Each
    returned class gets its own phase dicts.
    """
    cells: list[list[EquilibriumClass]] = [[] for _ in range(records.n_cells)]
    if len(records):
        profiles = np.asarray(records.profiles, dtype=np.int64)
        thetas = sset.codes[profiles, 0]
        # Rank each record's rounded payoffs, rounding each distinct row once.
        by_payoffs = np.lexsort(records.payoffs.T[::-1])
        sorted_payoffs = records.payoffs[by_payoffs]
        step = np.ones(len(records), dtype=bool)
        step[1:] = (sorted_payoffs[1:] != sorted_payoffs[:-1]).any(axis=1)
        rounded = [tuple([round(x, 9) for x in row]) for row in sorted_payoffs[step].tolist()]
        rank = {key: r for r, key in enumerate(sorted(set(rounded)))}
        pay_rank = np.empty(len(records), dtype=np.int64)
        pay_rank[by_payoffs] = np.array([rank[key] for key in rounded])[np.cumsum(step) - 1]
        order = np.lexsort((*profiles.T[::-1], pay_rank, *thetas.T[::-1], records.cell))
        cell, thetas, pay_rank = records.cell[order], thetas[order], pay_rank[order]
        profiles = profiles[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (
            (cell[1:] != cell[:-1])
            | (thetas[1:] != thetas[:-1]).any(axis=1)
            | (pay_rank[1:] != pay_rank[:-1])
        )
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(order))
        first = records.payoffs[order[starts]].tolist()
        facts, players = sset.class_facts, profiles.shape[1]
        for c, lo, hi, payoffs in zip(cell[starts].tolist(), starts.tolist(), ends.tolist(), first):
            members = profiles[lo:hi]
            key = (players, members.tobytes())
            fact = facts.get(key)
            if fact is None:
                fact = facts[key] = _class_facts(members, sset)
            theta_profile, phase_sums, phase_diffs, label = fact
            cells[c].append(
                EquilibriumClass(
                    theta_profile=theta_profile,
                    payoffs=tuple(payoffs),
                    profiles=members,
                    phase_sums=dict(phase_sums),
                    phase_diffs=dict(phase_diffs),
                    operator_label=label,
                )
            )
    return [tuple(classes) for classes in cells]
