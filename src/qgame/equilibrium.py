"""Best-response search, Nash equilibrium enumeration, and classification.

NE search is brute force over a finite strategy set: payoff tables are
precomputed for a block of gamma rows at once (they do not depend on p,
so p-sweeps reuse them), each as one real matrix product over a rank-16
factorization of the Born payoff, built in cache-sized blocks that
stack several gammas' whole tables or hold one gamma's rows, each
gamma's product keeping one row's shapes; best-response sets are
read off with an absolute tie tolerance, and a profile is an
equilibrium when every player's strategy is in its best-response set
against the others.  A Bayesian row, or a block of consecutive rows
stacked by column, keeps A's dense tables, one per distinct payoff
vector of A, and each B player's table only as its list of best
responses, reduced at one tie tolerance; the block's one search reads
nothing else.  It takes A's best deviation, the maximum of A's
p-mixture over a column pair, in full only where rounding bounds from
column maxima, argmax rows (also those of a gauge-turned pair) and the
candidates' own payoffs cannot decide the tie test: correctly rounded
arithmetic is monotone, so the bounds hold for the computed payoffs and
the records are those of the full maximum, bit for bit.

``verify_records`` is the independent oracle: it re-evaluates every
unilateral deviation through the scalar circuit path, never consulting
the vectorized tables or best-response structure.  It takes each cell's
p and gamma; its deviation states do not depend on p, so a gamma row's
cells share them, and it checks consecutive rows in blocks as large as
one stacked call's states allow, each state evolved at its own row's gamma.
``bayesian_circuit_tables`` is the four-qubit witness: it fills the
profile cube through the scalar four-qubit circuit, in slabs of a
bounded number of states.

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
    _as_unitary,
    _two_player_states,
    bayesian_payoffs_full_circuit,
    entangler,
    payoff_expectation,
)
from .games import BayesianGame, TwoPlayerGame, check_probability
from .strategies import StrategySet, wrap_angles

DEFAULT_EPS_TIE = 1e-9

# How far a record's stored payoffs may sit from the recomputed ones in
# ``verify_records``.  A class stores its first member's payoffs for every
# member, and members agree to round(x, 9), so within 1e-9; the rest
# covers the last bits by which tables and scalar circuits differ.
PAYOFF_TOL = 2e-9

# Working-array bounds of the vectorized Bayesian NE search: candidate
# triples per block of a, and float64 entries per block of A's columns
# (small enough to stay in cache), a bound that the payoff tables' build,
# ``verify_records`` and the row's table re-check share.
_TRIPLE_BLOCK = 1 << 20
_COLUMN_BLOCK = 1 << 16

# States per stacked circuit call in ``verify_records`` and in
# ``bayesian_circuit_tables``, which bounds the temporaries of one call;
# ``verify_records`` also checks as many gamma rows G at once as keep
# G * n * n states, a table's size per vector, within it.
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


def _born_cores(js: np.ndarray, payoff) -> np.ndarray:
    """16x16 cores C_g with T_g[a, b] = x_a^T C_g x_b for the Born payoff,
    one per entangler ``js[g]``, as one (G, 16, 16) array.

    The payoff is tr(K rho K^dag M) with K = U_a (x) U_b, rho = J|00><00|J^dag
    and M = J diag(payoff) J^dag.  Splitting each two-qubit index into
    (A bit, B bit) makes it bilinear in U_a (x) conj U_a and U_b (x) conj U_b.
    Each step carries the gamma axis, and each gamma's entries are those
    of its own one-gamma build, bit for bit.
    """
    v = js[:, :, 0]
    rho = (v[:, :, None] * v.conj()[:, None, :]).reshape(-1, 2, 2, 2, 2)
    m = (js * np.asarray(payoff, dtype=float)) @ js.conj().transpose(0, 2, 1)
    return np.einsum("icgdh,ibfae->iabcdefgh", rho, m.reshape(-1, 2, 2, 2, 2)).reshape(-1, 16, 16)


def _table_blocks(factors, cores: np.ndarray, columns: bool, out: np.ndarray | None = None):
    """Blocks of the tables T_g = Re(X C_g X^T), one per core, stacked as
    G*n rows (row g * n + a is row a of T_g, or with ``columns`` of T_g^T,
    that is column a of T_g), each block one stacked real GEMM
    [Re XC_g, -Im XC_g] @ [Re X, Im X]^T.

    Yields ``(rows, block)``: ``block`` holds the stacked rows ``rows``,
    about ``_COLUMN_BLOCK`` entries, so it stays in cache while it is
    read.  Each block is written into the same rows of ``out`` when one
    is given, else into one buffer that the next block overwrites.  Every
    entry is bit for bit that of its gamma's whole product.

    A table's rows are cut at multiples of ``step`` rows, the largest
    multiple of 8 whose rows hold at most ``_COLUMN_BLOCK`` entries (8 if
    none does); each block holds ``step`` rows but the last, which runs to
    the table's end, so none is shorter than ``step`` and a table of fewer
    than 2 * ``step`` rows is one block (the grids of 8 to 208
    strategies).  Such tables go whole, as many gammas to a block as keep
    their entries within ``_COLUMN_BLOCK`` (at least one); larger ones go
    one gamma's ``step`` rows at a time.  BLAS kernels work through rows
    in groups of up to 8 (OpenBLAS 0.3.31's Haswell kernel rounds the last
    row of a 35-row block unlike the whole product) and may round a
    product of few rows with another kernel (it does for one row of any
    grid, up to 15 rows of the 80-strategy grid), so blocks cut elsewhere,
    or short ones, could differ from the whole product.  For the same
    reason a block's product is stacked by gamma, each gamma's slice one
    GEMM of a row's shapes, never one product over several gammas' rows.
    ``X C_g`` is formed once for the gammas of a block of whole tables,
    or for the one gamma of a run of row blocks, and freed before the
    next gammas' is built.
    """
    real, x = factors
    n, count = len(real), len(cores)
    step = 8 * max(1, _COLUMN_BLOCK // max(n, 1) // 8)
    bounds = [k * step for k in range(max(1, n // step))] + [n]
    per = max(1, _COLUMN_BLOCK // max(n * n, 1)) if len(bounds) == 2 else 1
    reuse = out is None
    for first in range(0, count, per):
        xc = x @ cores[first : first + per]
        left = np.empty(xc.shape[:2] + (32,))
        left[..., :16] = xc.real
        np.negative(xc.imag, out=left[..., 16:])
        del xc
        if out is None:  # the first block's gammas are the most; allocated once xc is freed
            out = np.empty((len(left) * (n - bounds[-2]), n))
        for start, stop in zip(bounds, bounds[1:]):
            rows = slice(first * n + start, (first + len(left) - 1) * n + stop)
            block = out[: rows.stop - rows.start] if reuse else out[rows]
            if columns:
                pair = real[start:stop], left.transpose(0, 2, 1)
            else:
                pair = left[:, start:stop], real.T
            np.matmul(*pair, out=block.reshape(len(left), stop - start, n))
            yield rows, block
        del left, pair  # freed before the next gammas' operands are built


def _payoff_table(factors, cores: np.ndarray, columns: bool) -> tuple[np.ndarray, np.ndarray]:
    """The tables T_g = Re(X C_g X^T) of ``_table_blocks``, every block
    written into one array, and the argmax of each stacked row, taken
    while its block is in cache.

    With ``columns`` the tables come back as one n x G*n column-major
    array, column g * n + j being T_g[:, j], and the argmax rows are those
    of these columns; without, as the G*n x n row-major stack of the T_g
    with the argmax column of each row.
    """
    n = len(factors[0])
    table, top = np.empty((len(cores) * n, n)), np.empty(len(cores) * n, dtype=np.intp)
    for rows, block in _table_blocks(factors, cores, columns, table):
        top[rows] = block.argmax(axis=1)
    return (table.T if columns else table), top


def two_player_tables(
    game: TwoPlayerGame, gamma: float, sset: StrategySet
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff tables T_A[i, j], T_B[i, j] for A playing i against B playing j.

    T_A is column-major (A's best responses scan columns), T_B row-major.
    """
    js, factors = entangler(gamma)[None], _born_factors(sset)
    return (
        _payoff_table(factors, _born_cores(js, game.payoff_a), columns=True)[0],
        _payoff_table(factors, _born_cores(js, game.payoff_b), columns=False)[0],
    )


class BayesianTables(NamedTuple):
    """What the Bayesian search of a block of gamma rows reads, reduced at one tie tolerance.

    The block's G consecutive gammas are stacked by column: with n
    strategies, column ``g * n + b`` belongs to B's strategy b at the
    block's g-th gamma, so ``ta1`` and ``ta2`` are n x G*n.  ``ta1[i,
    g * n + j]`` and ``ta2[i, g * n + j]`` are A's payoffs at gamma g for
    playing i against B1 and against B2 playing j, column-major; when both
    subgames give A the same payoff vector they are one array (``ta2 is
    ta1``).  ``top1[c]`` is the row of column c's maximum in ``ta1``, the
    first one as ``ta1[:, c].argmax()`` gives it, and ``top2`` likewise
    for ``ta2`` (``top2 is top1`` when ``ta2 is ta1``).  ``br1`` holds
    B1's best responses as ascending flat indices ``(g * n + a) * n +
    b1``, row key ``g * n + a``, of the entries of B1's table at gamma g
    within ``eps_tie`` of row a's maximum, and ``pay1`` B1's payoffs
    there; ``br2`` and ``pay2`` likewise for B2.  A one-gamma block is
    one row's tables, G = 1.  ``eps_tie`` is a 0-d array, so every field
    is an array.  ``shift`` is the grid's gauge map
    ``StrategySet.gauge_shift``; the search takes only lower bounds from
    it, so any map of valid indices gives the same records.
    """

    ta1: np.ndarray
    ta2: np.ndarray
    top1: np.ndarray
    top2: np.ndarray
    br1: np.ndarray
    pay1: np.ndarray
    br2: np.ndarray
    pay2: np.ndarray
    eps_tie: np.ndarray
    shift: np.ndarray


def _best_responses(factors, cores: np.ndarray, eps_tie: float) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of the stacked row-major tables' entries within
    ``eps_tie`` of their row's maximum, and the entries there, each block
    of ``_table_blocks`` reduced as soon as it is built, so no table is
    held whole.  Row a of the g-th table has flat indices from
    ``(g * n + a) * n`` on.

    A block of one table's rows (fewer than n) is first tested against
    the least of its rows' thresholds ``max - eps_tie``, one scalar
    compare, and only the entries that pass are tested against their own
    row's.  Every entry at or above its row's threshold is at or above
    the least one, so the kept set is exactly that of the per-row test.
    A block of whole tables is tested against each row's own threshold
    at once: its rows are short and their maxima spread, so the least one
    would pass 62% of the entries of the 56-strategy sweep's first block,
    whose second test would take several times as long as the per-row
    compare and hold four arrays of them.  The payoff vectors are checked
    to be finite, so no entry or threshold is NaN.
    """
    n = len(factors[0])
    idx, pay = [], []
    for rows, block in _table_blocks(factors, cores, columns=False):
        threshold = block.max(axis=1) - eps_tie
        first = threshold.min() if len(block) < n else threshold[:, None]
        candidates = np.flatnonzero(block >= first)
        values = block.ravel()[candidates]
        kept = values >= threshold[candidates // n]
        pay.append(values[kept])
        idx.append(candidates[kept] + rows.start * n)
    return np.concatenate(idx), np.concatenate(pay)


def bayesian_tables(
    game: BayesianGame,
    gamma: float | Sequence[float],
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
) -> BayesianTables:
    """A's per-subgame tables and the B players' best-response lists of a
    block of gamma rows, stacked as one ``BayesianTables`` set.

    ``gamma`` is one gamma, a block of one, or a non-empty sequence of
    them.  Independent of p: A's Bayesian payoff against (b1, b2) is
    p * T_A1[b1] + (1 - p) * T_A2[b2] by columns, so sweeps over p share
    these tables.  The Born factors are computed once for the block, and
    each payoff vector's cores for all its gammas in one stacked pass
    (``_born_cores``).  Every table is then built in blocks of about
    ``_COLUMN_BLOCK`` entries (``_table_blocks``): the whole tables of as
    many gammas as fit, or one gamma's rows, each block one stacked GEMM
    that keeps one row's shapes per gamma, so every entry is bit for bit
    the one-row entry.  Each block of the B tables is reduced to its best
    responses as soon as it is built, once for all its gammas, so no B
    table is ever held whole, and the B lists are built before A's tables
    are allocated.  A's blocks are written into its column-major table and
    give each column's argmax row on the way; A's second table is the
    first when the two payoff vectors agree byte for byte (so -0.0 never
    stands in for 0.0).  The block therefore holds one n x G*n table per
    distinct payoff vector of A and one block besides.
    """
    check_eps_tie(eps_tie)
    gammas = np.atleast_1d(gamma).tolist()
    if not gammas:
        raise ValueError("gamma must hold at least one angle")
    js = np.stack([entangler(g) for g in gammas])
    factors = _born_factors(sset)
    subgames = (game.subgame_b1, game.subgame_b2)
    (br1, pay1), (br2, pay2) = (
        _best_responses(factors, _born_cores(js, sub.payoff_b), eps_tie) for sub in subgames
    )
    vec1, vec2 = (np.asarray(sub.payoff_a, dtype=float) for sub in subgames)
    ta1, top1 = _payoff_table(factors, _born_cores(js, vec1), columns=True)
    if vec1.tobytes() == vec2.tobytes():
        ta2, top2 = ta1, top1
    else:
        ta2, top2 = _payoff_table(factors, _born_cores(js, vec2), columns=True)
    return BayesianTables(
        ta1, ta2, top1, top2, br1, pay1, br2, pay2, np.array(eps_tie), sset.gauge_shift
    )


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
    (b1, b2) at the block's gamma g (stacked columns g * n + b1 and
    g * n + b2) form its orbit, keyed by ``g * n * n`` plus the smallest
    code ``b1' * n + b2'`` over k, so an orbit never spans two gammas.
    At each p, the first open pair of an orbit takes the full maximum
    with its row r*.  Another open pair, reached from it by the B
    players' turn by -s, takes the mixture at A's row ``shift[s, r*]``,
    which the gauge makes the same payoff up to rounding.  That row is a
    real row of the pair's own columns, so its mixture is at most the
    pair's ``best``: a lower bound like ``L``, whatever the map.  The
    upper-bound and drop tests then run again at the raised bound.
    """
    ta1, ta2, shift, eps_tie = tables.ta1, tables.ta2, tables.shift, float(tables.eps_tie)
    n, turns = ta1.shape[0], len(shift)
    c1, c2, m1, m2, h1, h2 = (x[exact] for x in per_pair)
    # A pair's stacked columns c = g * n + b share their gamma g; the turns
    # act on b, and the key's g * n * n (below 2**31) keeps each gamma's
    # orbits apart.
    g, b1 = np.divmod(c1, n)
    b2 = c2 - g * n
    key = (b1 * n + b2).astype(np.int32)
    turn = np.zeros(len(exact), dtype=np.intp)
    for k in range(1, turns):
        code = shift[k, b1] * np.int32(n) + shift[k, b2]
        lower = code < key
        key[lower], turn[lower] = code[lower], k
    key += (g * (n * n)).astype(np.int32)
    del g, b1, b2  # freed before the maxima below, the row's peak
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
    """The NE records of a block of gamma rows' table set at each p of ``p_values``.

    Only A's payoff depends on p, so one search serves the whole block.
    B1's payoff does not depend on b2 nor B2's on b1, so the candidate
    triples are read straight off the two best-response lists, row key
    by row key (``BayesianTables``), and A's ties are taken at the
    ``eps_tie`` they were reduced at.  The triples and their distinct
    pairs of stacked columns are built once for the block; a pair's two
    columns always share their gamma.

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
    Records come back as one set for the block, cell ``g *
    len(p_values) + i`` holding the records of ``p_values[i]`` at the
    block's g-th gamma, in profile order; a one-gamma block's cell i is
    that of ``p_values[i]``.

    The records are then re-checked against the tables (``_recheck``),
    after the search's working arrays are freed; a record that is not
    stable raises RuntimeError.
    """
    p_values = [check_probability(p) for p in p_values]
    records = _search_row(tables, p_values)
    _recheck(records, tables, p_values)
    return records


def _search_row(tables: BayesianTables, p_values: list[float]) -> RecordSet:
    """``find_ne_bayesian_row``'s search of a block of gamma rows, before
    its re-check.

    A triple is a row key ``g * n + a`` of both B lists with one entry of
    each, so its B strategies are read as A's stacked columns ``g * n +
    b1`` and ``g * n + b2``: the per-triple gathers are those of a single
    row, and the block index g is read off the columns only on pairs (in
    ``_gauge_hints``) and on kept records.  The argmax rows of A's
    columns come with the tables (``top1`` and ``top2``, taken while the
    tables were built); the search does not scan A's tables for them.
    """
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n, width = ta1.shape
    # Each list entry's row key g * n + a, A strategy a and stacked column
    # g * n + b; B2's list needs only its row counts and its columns.
    key1, b1_of = np.divmod(tables.br1, n)
    a_of = key1 % n
    b1_of += key1 - a_of
    b2_of = tables.br2 // (n * n) * n + tables.br2 % n
    count1 = np.bincount(key1, minlength=width)
    count2 = np.bincount(tables.br2 // n, minlength=width)
    end1 = np.cumsum(count1)
    start2 = np.cumsum(count2) - count2
    top1, top2 = tables.top1, tables.top2
    pair_block = max(1, _COLUMN_BLOCK // max(n, 1))
    cells = [np.empty(0, dtype=np.int64)]
    profiles = [np.empty((0, 3), dtype=np.int64)]
    payoffs = [np.empty((0, 3))]
    for rows in _row_blocks(count1 * count2, _TRIPLE_BLOCK):
        offset = end1[rows.start] - count1[rows.start]
        i1, i2 = _candidate_triples(key1[offset : end1[rows.stop - 1]], count2, start2)
        i1 += offset
        a, b1, b2 = a_of[i1], b1_of[i1], b2_of[i2]
        pairs, pair_of = np.unique(b1 * width + b2, return_inverse=True)
        g1, g2 = ta1.T[b1, a], ta2.T[b2, a]
        # Per pair: A's entries at the argmax rows r1 of column c1 and r2
        # of column c2 (m1 and m2 are the column maxima), and the largest
        # candidate entries h1 and h2.
        c1, c2 = np.divmod(pairs, width)
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
                g, k1 = np.divmod(b1[kt], n)
                cells.append(g * len(p_values) + kp + (first + sub))
                profiles.append(np.stack([a[kt], k1, b2[kt] - g * n], axis=1))
                payoffs.append(
                    np.stack([pay_a[kp, kt], tables.pay1[i1[kt]], tables.pay2[i2[kt]]], axis=1)
                )
                # Freed before the next test and the records' assembly: this
                # cuts the pi/8 gamma = 0 row's peak from 122 to 110 MB, and
                # the default sweep's block search's traced peak from 2.4 to
                # 1.8 MB.
                del pay_a, threshold, kp, kt, g, k1
    cell = np.concatenate(cells)
    # Each block of candidates adds records to every cell; a stable sort by
    # cell puts them in (cell, profile) order.
    order = np.argsort(cell, kind="stable")
    profiles, payoffs = np.concatenate(profiles), np.concatenate(payoffs)
    return RecordSet(cell[order], profiles[order], payoffs[order], width // n * len(p_values))


def _in_sorted(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each key is an entry of the ascending array ``values``."""
    pos = np.searchsorted(values, keys)
    found = pos < len(values)
    found[found] = values[pos[found]] == keys[found]
    return found


def _recheck(records: RecordSet, tables: BayesianTables, p_values: Sequence[float]) -> None:
    """Table-backed deviation re-check of every record of a block of gamma rows.

    Recomputes each record's deviation payoffs from the tables alone and
    raises RuntimeError on the first record that is not stable.  A is
    stable when its payoff is at least ``best - eps_tie``, with ``best``
    its best deviation ``max_r p * T1[r, b1] + (1 - p) * T2[r, b2]`` and
    the tables' ``eps_tie``.  The bound ``U`` of that expression at the
    column maxima of both tables is at least ``best``, since correctly
    rounded ``*`` by a non-negative factor and ``+`` are monotone, so a
    record that reaches ``U - eps_tie`` is stable; only the others take
    the full maximum, once per distinct (p, column pair) of the records,
    in blocks of pairs.  The column maxima are computed here, apart from the
    search, once per distinct table.  Each B player is stable when its
    (a, b) is in its best-response list, found by binary search.  All
    cells of the block are checked together, read off the record arrays:
    cell ``g * len(p_values) + i`` is ``p_values[i]`` at the block's g-th
    gamma, whose strategy b is A's stacked column ``g * n + b``.
    """
    if not len(records):
        return
    ta1, ta2, eps_tie = tables.ta1, tables.ta2, float(tables.eps_tie)
    n, width = ta1.shape
    p_cell = np.asarray(p_values, dtype=float)
    g, at = np.divmod(records.cell, len(p_cell))
    p = p_cell[at]
    a, b1, b2 = records.profiles.T
    c1, c2 = g * n + b1, g * n + b2
    top1 = ta1.max(axis=0)
    top2 = top1 if ta2 is ta1 else ta2.max(axis=0)
    pay = p * ta1[a, c1] + (1.0 - p) * ta2[a, c2]
    ok = pay >= p * top1[c1] + (1.0 - p) * top2[c2] - eps_tie
    rest = np.flatnonzero(~ok)
    keys = (at[rest] * width + c1[rest]) * width + c2[rest]
    pairs, pair_of = np.unique(keys, return_inverse=True)
    best = np.empty(len(pairs))
    step = max(1, _COLUMN_BLOCK // n)
    for start in range(0, len(pairs), step):
        i, k1, k2 = np.unravel_index(pairs[start : start + step], (len(p_cell), width, width))
        pc = p_cell[i][:, None]
        best[start : start + step] = (pc * ta1.T[k1] + (1.0 - pc) * ta2.T[k2]).max(axis=1)
    ok[rest] = pay[rest] >= best[pair_of] - eps_tie
    row = (g * n + a) * n
    ok &= _in_sorted(row + b1, tables.br1) & _in_sorted(row + b2, tables.br2)
    if not ok.all():
        profile = tuple(records.profiles[np.argmin(ok)].tolist())
        raise RuntimeError(f"record {profile} failed deviation re-check")


def bayesian_circuit_tables(
    game: BayesianGame,
    gamma: float,
    sset: StrategySet,
    p: float,
) -> np.ndarray:
    """Payoff tables evaluated through the four-qubit circuit.

    Returns one (3, n, n, n) array: A's, B1's and B2's payoffs at every
    profile (a, b1, b2).  The cube is filled in slabs of consecutive a,
    one stacked circuit call per slab of at most ``_VERIFY_BLOCK``
    profiles (one a per call from 65 strategies up); the circuit rounds
    each profile of a stack as it would alone, so the slabs do not change
    the tables.  Cubic in the strategy count; intended for coarse grids.
    """
    n = len(sset)
    us = sset.unitaries
    tables = np.empty((3, n, n, n))
    slab = max(1, _VERIFY_BLOCK // max(n * n, 1))
    for start in range(0, n, slab):
        tables[:, start : start + slab] = bayesian_payoffs_full_circuit(
            p, gamma, us[start : start + slab, None, None], us[:, None], us[None, :], game
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
    gamma: float | Sequence[float],
    sset: StrategySet,
    eps_tie: float = DEFAULT_EPS_TIE,
    p_values: Sequence[float] | None = None,
) -> list[bool]:
    """Independent NE check of the records of a set of cells: every
    unilateral deviation, re-evaluated.

    Payoffs are recomputed through the scalar circuit path, so the check
    shares nothing with the vectorized tables or best-response masks.
    Record i lies at ``gamma[records.cell[i]]``, and a Bayesian record at
    ``p_values[records.cell[i]]``; one angle serves all ``records.n_cells``
    cells, and a Bayesian check needs ``p_values``.  Each distinct gamma
    is a row, and consecutive rows are checked in blocks of as many rows G
    as keep G * n * n states within ``_VERIFY_BLOCK``, whatever the order
    of the cells.  Within a block every deviation is keyed by the
    deviator's row and subgame opponent.  Each B player's payoff for every
    alternative is tabled against each distinct (row, a), one state
    serving both B players; A's payoff in each subgame is tabled against
    each distinct (row, b) over b1 and b2, one state serving both
    subgames.  None of these depends on p, so a row's cells share them.
    The states are evaluated in stacked calls of at most ``_VERIFY_BLOCK``,
    each state at its own row's gamma, and each table holds at most n x n
    floats per row.  A's Bayesian payoff against (b1, b2) is ``p * E1[b1]
    + (1.0 - p) * E2[b2]``, the mixture's own expression with the cell's
    p, maximized once per distinct (cell, b1, b2) in blocks of
    ``_COLUMN_BLOCK`` entries; a two-player A reads its one table.  A
    player's deviation to its recorded strategy is the base payoff, and a
    record also fails when its stored payoffs are more than ``PAYOFF_TOL``
    from the base ones.  Returns one verdict per record, in order.
    """
    bayesian = isinstance(game, BayesianGame)
    if bayesian and p_values is None:
        raise ValueError("verifying a Bayesian record needs p")
    if bayesian:
        p_cell = np.array([check_probability(p) for p in p_values], dtype=float)
    # One angle serves every cell.
    gamma_cell = np.broadcast_to(np.asarray(gamma, float), np.shape(gamma) or (records.n_cells,))
    if not len(records):
        return []
    # The grid's matrices are checked once; each block then evolves
    # through the unchecked path.
    us = _as_unitary(sset.unitaries)
    n, players = len(us), 3 if bayesian else 2
    profiles = records.profiles
    bad = (profiles.shape[1] != players) | ((profiles < 0) | (profiles >= n)).any(axis=1)
    if bad.any():
        profile = tuple(profiles[np.argmax(bad)].tolist())
        raise ValueError(f"profile {profile} is not {players} strategy indices in [0, {n})")
    counts = [("p", len(p_cell))] if bayesian else []
    for name, count in counts + [("gamma", len(gamma_cell))]:
        if not ((records.cell >= 0) & (records.cell < count)).all():
            raise ValueError(f"record cells must index the {count} {name} values")
    # Stored payoffs of the wrong length become NaN, which fails the test.
    stored = records.payoffs
    if stored.shape != profiles.shape:
        stored = np.full(profiles.shape, np.nan)
    subgames = (game.subgame_b1, game.subgame_b2) if bayesian else (game,)

    def table(gammas, keys, vectors, deviator_first):
        """Payoffs ``vectors[k]`` of the deviator playing each alternative
        against each key ``row * n + s``, strategy s at ``gammas[row]``,
        as (len(vectors), len(keys), n)."""
        key_row, key_s = np.divmod(keys, n)
        total = len(keys) * n
        out = np.empty((len(vectors), total))
        for start in range(0, total, _VERIFY_BLOCK):
            key, alt = np.divmod(np.arange(start, min(start + _VERIFY_BLOCK, total)), n)
            pair = (us[alt], us[key_s[key]]) if deviator_first else (us[key_s[key]], us[alt])
            psi = _two_player_states(gammas, key_row[key], *pair)
            for out_row, vec in zip(out, vectors):
                out_row[start : start + len(key)] = payoff_expectation(psi, vec)
        return out.reshape(len(vectors), len(keys), n)

    def payoff_a(table_a, cell, key, alt):
        """A's payoff for ``alt`` against the B keys ``key`` of ``table_a``:
        the mixture's own expression at the p of ``cell`` (a column of it
        broadcasts over a row of alternatives), or the one table of a
        two-player A."""
        if not bayesian:
            return table_a[0][key[0], alt]
        p = p_cell[cell]
        return p * table_a[0][key[0], alt] + (1.0 - p) * table_a[1][key[1], alt]

    def block_verdicts(gammas, row, cell, profiles, stored):
        """The verdicts of one block's records, record i at
        ``gammas[row[i]]``."""
        a, *bs = profiles.T
        own, own_of = np.unique(row * n + a, return_inverse=True)
        table_b = table(gammas, own, [sub.payoff_b for sub in subgames], deviator_first=False)
        best_b = [t.max(axis=1)[own_of] for t in table_b]
        base_b = [t[own_of, b] for t, b in zip(table_b, bs)]
        del table_b  # freed before A's table is built, which lowers the peak

        others, other_of = np.unique(np.concatenate([row * n + b for b in bs]), return_inverse=True)
        table_a = table(gammas, others, [sub.payoff_a for sub in subgames], deviator_first=True)
        keys = other_of.reshape(len(bs), len(profiles))

        # A's best deviation depends on the cell only through p; the keys
        # carry the row.
        cells = cell if bayesian else np.zeros(len(cell), dtype=np.int64)
        shape = (len(p_cell) if bayesian else 1,) + (len(others),) * len(bs)
        pairs, pair_of = np.unique(np.ravel_multi_index((cells, *keys), shape), return_inverse=True)
        pair_cell, *pair_keys = np.unravel_index(pairs, shape)
        best_a = np.empty(len(pairs))
        step = max(1, _COLUMN_BLOCK // n)
        for start in range(0, len(pairs), step):
            block = slice(start, start + step)
            key = [k[block] for k in pair_keys]
            best_a[block] = payoff_a(table_a, pair_cell[block, None], key, slice(None)).max(axis=1)
        base_a = payoff_a(table_a, cell, keys, a)
        best = np.stack([best_a[pair_of]] + best_b, axis=1)
        base = np.stack([base_a] + base_b, axis=1)
        return (np.abs(stored - base) <= PAYOFF_TOL).all(axis=1) & (
            best <= base + eps_tie
        ).all(axis=1)

    gammas, row_of = np.unique(gamma_cell, return_inverse=True)
    block_rows = max(1, _VERIFY_BLOCK // (n * n))
    block_of, row = np.divmod(row_of[records.cell], block_rows)
    ok = np.empty(len(records), dtype=bool)
    for b in np.flatnonzero(np.bincount(block_of)).tolist():  # the blocks that hold records
        in_block = np.flatnonzero(block_of == b)
        ok[in_block] = block_verdicts(
            gammas[b * block_rows : (b + 1) * block_rows].tolist(),
            row[in_block],
            records.cell[in_block],
            profiles[in_block],
            stored[in_block],
        )
    return ok.tolist()


# ``_round9`` scales by 1e9 and rounds to a whole number in float64.
# Below ``_ROUND9_LIMIT`` the product is off the exact scaled value by at
# most 2**-14, half its spacing there, so a product farther than
# ``_ROUND9_TIE`` from a half-way point rounds as the exact value does.
_ROUND9_LIMIT = 2.0**40
_ROUND9_TIE = 2.0**-12


def _round9(x: np.ndarray) -> np.ndarray:
    """``round(v, 9)`` of every entry of a float array, bit for bit.

    Python rounds the exact decimal value v * 10**9 to a whole number,
    half to even, and returns the double nearest that number over 10**9.
    ``rint(v * 1e9) / 1e9`` does the same wherever the product is below
    ``_ROUND9_LIMIT`` and farther than ``_ROUND9_TIE`` from a half-way
    point: the whole number is then Python's, and the division is
    correctly rounded.  The other entries (near-ties, large values, NaN
    and the infinities) take ``round`` itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # huge or infinite: not clear
        y = x * 1e9
        r = np.rint(y)
        clear = np.abs(y - r) < 0.5 - _ROUND9_TIE
    out = r / 1e9
    clear &= np.abs(y) < _ROUND9_LIMIT
    rest = np.flatnonzero(~clear)
    if len(rest):
        out.flat[rest] = [round(v, 9) for v in x.flat[rest].tolist()]
    return out


def _strategy_facts(sset: StrategySet) -> tuple[np.ndarray, ...]:
    """Per strategy of ``sset``: its theta, whether it sits on a pole,
    whether its free phase is a whole number of quarter turns, its Pauli
    index (pole, then quarter-turn parity: theta = 0 gives +-I or +-iZ,
    pi +-iY or +-iX) and its free phase, read off its codes (module
    docstring)."""
    steps = sset.steps
    t, f, a = sset.codes.T
    top = t == steps.n_theta
    turns4, size = 4 * np.where(top, a, f), np.where(top, steps.n_alpha, steps.n_phi)
    free = np.where(top, sset.angles[:, 2], sset.angles[:, 1])
    return sset.angles[:, 0], top | (t == 0), turns4 % size == 0, 2 * top + turns4 // size % 2, free


def _describe(members: np.ndarray, facts: tuple[np.ndarray, ...]) -> tuple:
    """The theta-profile, phase sums and differences, and operator label of
    the class whose members, sharing their theta codes, are the rows of
    ``members``; ``facts`` is ``_strategy_facts`` of their grid.

    Theta-profile and label are the first member's; the label needs every
    player on a pole and every member's free phases on quarter turns.  For
    each pair whose two players sit on a pole, the offsets are the sorted
    distinct ``round(g_A +- g_k, 9)`` over the members, each angle
    wrapped by ``wrap_angles``.
    """
    theta, on_pole, quarter, pauli, free = facts
    first = members[0]
    pole = on_pole[first]
    label = None
    if pole.all() and quarter[members].all():
        label = "⊗".join("IZYX"[i] for i in pauli[first].tolist())
    sums: dict[str, tuple[float, ...]] = {}
    diffs: dict[str, tuple[float, ...]] = {}
    for k, other in enumerate(("B",) if len(first) == 2 else ("B1", "B2"), 1):
        if pole[0] and pole[k]:
            g, h = free[members[:, 0]], free[members[:, k]]
            for phases, offsets in ((sums, g + h), (diffs, h - g)):
                offsets = _round9(wrap_angles(offsets))
                # By the stable sort: numpy's default sort and a bare np.unique
                # each add 0.25-1.5 MB of resident memory on first call.
                offsets = offsets[np.argsort(offsets, kind="stable")]
                fresh = np.concatenate([[True], offsets[1:] != offsets[:-1]])
                phases[f"A-{other}"] = tuple(offsets[fresh].tolist())
    return tuple(theta[first].tolist()), sums, diffs, label


def classify(records: RecordSet, sset: StrategySet) -> list[tuple[EquilibriumClass, ...]]:
    """Group each cell's NE records into classes by theta-profile and payoffs.

    Returns one tuple of classes per cell of ``records``, empty cells
    included.  A class's key is its members' theta codes and payoffs, the
    payoffs rounded to 9 places (theta steps are at least pi/16384, so
    the codes sort and tie as thetas rounded to 9 places would); a cell's
    classes come in key order, and each class's members in profile order.
    The payoffs are rounded by ``_round9``, bit for bit as ``round(x, 9)``,
    and the packed theta key is built, one player's column at a time, so
    the temporaries of a whole sweep stay small; one ``lexsort`` over
    every cell on the cell, the theta key, the rounded payoffs and the
    profile puts the records in (cell, key, profile) order, so each class
    is a run of it.  Within a class, phase sum/difference offsets against
    player A are collected per pair; a pair is reported only when both
    players' theta values pin a single free phase.  The class's payoffs
    and operator label come from its first member.

    A class's facts depend only on its member profiles and ``sset``, so
    each distinct member set is described once per call, by ``_describe``
    from per-strategy arrays built once per call; ``run_sweep`` classifies
    a whole sweep in one call, so a class that recurs across its cells is
    described once.  Nothing is kept between calls and ``sset`` is not
    changed; each returned class gets its own phase dicts.
    """
    cells: list[list[EquilibriumClass]] = [[] for _ in range(records.n_cells)]
    if len(records):
        profiles = np.asarray(records.profiles, dtype=np.int64)
        # Profiles and their theta codes as one int each, in the same order;
        # n and n_theta + 1 are at most MAX_STRATEGIES = 2**14, so both fit.
        n, rungs = len(sset), sset.steps.n_theta + 1
        theta_key = profile_key = 0
        for column in profiles.T:
            theta_key = theta_key * rungs + sset.codes[column, 0]
            profile_key = profile_key * n + column
        payoffs = [_round9(column) for column in records.payoffs.T]
        order = np.lexsort((profile_key, *payoffs[::-1], theta_key, records.cell))
        cell = records.cell[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = cell[1:] != cell[:-1]
        for key in (theta_key, *payoffs):
            ranked = key[order]
            new[1:] |= ranked[1:] != ranked[:-1]
        # Freed before the classes are described: on the full pi/8 diagram
        # this cuts classify's traced peak from 55 to 34 MB.
        del theta_key, profile_key, payoffs, ranked
        profiles = profiles[order]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(order))
        first_payoffs = records.payoffs[order[starts]].tolist()
        runs = zip(cell[starts].tolist(), starts.tolist(), ends.tolist(), first_payoffs)
        facts = _strategy_facts(sset)
        described: dict[bytes, tuple] = {}
        for c, lo, hi, row in runs:
            members = profiles[lo:hi]
            key = members.tobytes()
            if key not in described:
                described[key] = _describe(members, facts)
            theta_profile, phase_sums, phase_diffs, label = described[key]
            cells[c].append(
                EquilibriumClass(
                    theta_profile=theta_profile,
                    payoffs=tuple(row),
                    profiles=members,
                    phase_sums=dict(phase_sums),
                    phase_diffs=dict(phase_diffs),
                    operator_label=label,
                )
            )
    return [tuple(classes) for classes in cells]
