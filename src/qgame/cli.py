"""Command-line interface.

Commands: solve, sweep, classify, emit-figure, verify.  emit-figure is
a preset of sweep: a built-in game at the default steps, written to a
file.  Angles are in radians everywhere; flags also accept expressions
like ``pi/8`` or ``3pi/2``.  Exit codes: 0 success, 1 argument error,
2 game/result config error, 3 I/O or numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys

import numpy as np

from .equilibrium import (
    DEFAULT_EPS_TIE,
    RecordSet,
    check_eps_tie,
    classify,
    find_ne_bayesian_circuit,
    verify_records,
)
from .games import BayesianGame, builtin_bayesian, builtin_da, builtin_pd
from .serialize import (
    ConfigError,
    class_id,
    emit,
    emit_regions,
    load_game,
    load_result,
)
from .strategies import GridSteps, enumerate_strategies
from .sweep import (
    CellResult,
    SweepResult,
    SweepSpec,
    gamma_grid,
    p_grid,
    run_sweep,
    summarize_regions,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_BUILTIN_GAMES = {"pd": builtin_pd, "da": builtin_da, "bayesian": builtin_bayesian}

_ANGLE_RE = re.compile(r"(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?")


def parse_angle(text: str) -> float:
    """Parse a radian value, accepting forms like '0.5', 'pi', 'pi/8', '3pi/2'."""
    t = text.strip().lower()
    m = _ANGLE_RE.fullmatch(t)
    if m:
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise UsageError(f"angle {text!r} divides by zero")
        return num * math.pi / den
    try:
        return float(t)
    except ValueError:
        raise UsageError(f"cannot parse angle {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        return check_eps_tie(float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_grid_flags(sub):
    sub.add_argument("--grid-theta", default="pi", help="theta step (default pi)")
    sub.add_argument("--grid-phi", default="pi/2", help="phi step (default pi/2)")
    sub.add_argument("--grid-alpha", default="pi/2", help="alpha step (default pi/2)")
    sub.add_argument(
        "--eps-tie", type=_tolerance, default=DEFAULT_EPS_TIE, help="payoff tie tolerance"
    )


def _add_out_flags(sub, default_format=None):
    sub.add_argument("--out", help="output file path (default: print summary)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help="output format (default: inferred from --out extension)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    fills a fresh namespace on every call, so calls share no values."""
    parser = _Parser(prog="qgame", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="find NE classes at one (p, gamma) point")
    solve.add_argument(
        "--game",
        default="pd",
        help="pd | da | bayesian | path to a game JSON file",
    )
    solve.add_argument("--gamma", required=True, help="entanglement angle in [0, pi/2]")
    solve.add_argument(
        "--p", type=float, help="probability of facing B1 (Bayesian games; default 0.5)"
    )
    solve.add_argument(
        "--circuit",
        choices=("mixture", "full"),
        default="mixture",
        help="Bayesian evaluation: statistical mixture or the 4-qubit circuit",
    )
    _add_grid_flags(solve)
    _add_out_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    sweep = subs.add_parser("sweep", help="sweep gamma (and p for Bayesian games)")
    sweep.add_argument("--game", default="bayesian", help="pd | da | bayesian | path")
    sweep.add_argument(
        "--p-step", type=float, help="p step (Bayesian games; default 0.05)"
    )
    sweep.add_argument("--gamma-step", type=float, default=0.05)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    _add_grid_flags(sweep)
    _add_out_flags(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    cls = subs.add_parser("classify", help="summarize class regions of a result file")
    cls.add_argument("--in", dest="infile", required=True, help="result JSON file")
    _add_out_flags(cls)
    cls.set_defaults(func=_cmd_classify)

    fig = subs.add_parser(
        "emit-figure", help="write the data behind a payoff figure (a default sweep)"
    )
    fig.add_argument("--fig", dest="game", choices=tuple(_BUILTIN_GAMES), required=True)
    fig.add_argument("--out", required=True)
    fig.add_argument(
        "--format", choices=("csv", "json"), default=None, help="default csv"
    )
    preset = ("p_step", "gamma_step", "jobs", "grid_theta", "grid_phi", "grid_alpha", "eps_tie")
    fig.set_defaults(func=_cmd_sweep, **{name: sweep.get_default(name) for name in preset})

    ver = subs.add_parser("verify", help="re-check every NE and class in a result file")
    ver.add_argument("--in", dest="infile", required=True, help="result JSON file")
    ver.add_argument(
        "--eps-tie", type=_tolerance, default=None, help="override tie tolerance"
    )
    ver.set_defaults(func=_cmd_verify)

    return parser


def _resolve_game(selector: str):
    builtin = _BUILTIN_GAMES.get(selector)
    return builtin() if builtin else load_game(selector)


def _grid_steps(args) -> GridSteps:
    try:
        return GridSteps(
            parse_angle(args.grid_theta),
            parse_angle(args.grid_phi),
            parse_angle(args.grid_alpha),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _check_gamma(value: float) -> float:
    if not 0.0 <= value <= math.pi / 2.0 + 1e-12:
        raise UsageError(f"--gamma must lie in [0, pi/2], got {value}")
    return min(value, math.pi / 2.0)


def _format_for(args, fallback: str) -> str:
    if args.format:
        return args.format
    if args.out and args.out.endswith(".csv"):
        return "csv"
    if args.out and args.out.endswith(".json"):
        return "json"
    return fallback


def _print_classes(cell: CellResult) -> None:
    where = f"gamma={cell.gamma:.6g}" + (f", p={cell.p:.6g}" if cell.p is not None else "")
    if not cell.classes:
        print(f"{where}: no pure-strategy NE")
        return
    print(f"{where}: {len(cell.classes)} NE class(es)")
    for cls in cell.classes:
        payoffs = ", ".join(f"{x:.6g}" for x in cls.payoffs)
        sums = "; ".join(
            f"{pair}: {{{', '.join(f'{v:.6g}' for v in vals)}}}"
            for pair, vals in sorted(cls.phase_sums.items())
        )
        print(
            f"  {class_id(cls)}  payoffs=({payoffs})  profiles={cls.n_profiles}"
            + (f"  phase sums {sums}" if sums else "")
        )


def _bayesian_only(game, value, flag: str, default: float):
    """A p flag's value for a Bayesian game; two-player games take none."""
    if isinstance(game, BayesianGame):
        return default if value is None else value
    if value is not None:
        raise UsageError(f"{flag} needs a Bayesian game")
    return None


def _cmd_solve(args) -> int:
    gamma = _check_gamma(parse_angle(args.gamma))
    game = _resolve_game(args.game)
    p = _bayesian_only(game, args.p, "--p", 0.5)
    if p is None and args.circuit == "full":
        raise UsageError("--circuit full needs a Bayesian game")
    steps = _grid_steps(args)
    spec = SweepSpec(game, (gamma,), () if p is None else (p,), steps, args.eps_tie)
    if args.circuit == "full":
        sset = enumerate_strategies(steps)
        records = find_ne_bayesian_circuit(game, gamma, sset, p, args.eps_tie)
        (classes,) = classify(records, sset)
        result = SweepResult(spec, (CellResult(p, gamma, classes),))
    else:
        result = run_sweep(spec)
    _print_classes(result.cells[0])
    if args.out:
        emit(result, _format_for(args, "json"), args.out, kind="solve", circuit=args.circuit)
        print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    game = _resolve_game(args.game)
    p_step = _bayesian_only(game, args.p_step, "--p-step", 0.05)
    steps = _grid_steps(args)
    spec = SweepSpec(
        game=game,
        gamma_values=gamma_grid(args.gamma_step),
        p_values=() if p_step is None else p_grid(p_step),
        steps=steps,
        eps_tie=args.eps_tie,
    )
    result = run_sweep(spec, workers=args.jobs)
    occupied = sum(1 for c in result.cells if c.classes)
    print(
        f"swept {len(result.cells)} cells in {result.elapsed:.2f}s; "
        f"{occupied} have at least one NE"
    )
    if args.out:
        emit(result, _format_for(args, "csv"), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_classify(args) -> int:
    loaded = load_result(args.infile)
    summaries = summarize_regions(loaded.result)
    for s in summaries:
        thetas = ",".join(f"{t:.6g}" for t in s.theta_profile)
        p_part = (
            f"p in [{s.p_range[0]:.6g}, {s.p_range[1]:.6g}], " if s.p_range else ""
        )
        print(
            f"theta=({thetas}) label={s.operator_label or '-'}: "
            f"{p_part}gamma in [{s.gamma_range[0]:.6g}, {s.gamma_range[1]:.6g}] "
            f"({s.n_cells} cells)"
        )
    if args.out:
        emit_regions(summaries, _format_for(args, "csv"), args.out)
        print(f"wrote {args.out}")
    return 0


def _stored_records(cells: tuple[CellResult, ...], n_players: int) -> RecordSet:
    """Every stored profile of ``cells`` with its class's payoffs, cell i
    of the set being ``cells[i]``."""
    classes = [(i, cls) for i, cell in enumerate(cells) for cls in cell.classes]
    counts = [cls.n_profiles for _, cls in classes]
    return RecordSet(
        np.repeat(np.array([i for i, _ in classes], dtype=np.int64), counts),
        np.concatenate(
            [np.empty((0, n_players), dtype=np.int64)] + [cls.profiles for _, cls in classes]
        ),
        np.array([cls.payoffs for _, cls in classes]).reshape(-1, n_players).repeat(counts, axis=0),
        len(cells),
    )


def _cmd_verify(args) -> int:
    loaded = load_result(args.infile)
    spec, cells = loaded.result.spec, loaded.result.cells
    eps = args.eps_tie if args.eps_tie is not None else spec.eps_tie
    sset = enumerate_strategies(spec.steps)
    records = _stored_records(cells, 3 if isinstance(spec.game, BayesianGame) else 2)
    derived = classify(records, sset)
    # verify_records checks the file's gamma rows in blocks, whatever the
    # order of its cells.
    gammas, p_values = [cell.gamma for cell in cells], [cell.p for cell in cells]
    ok = np.array(verify_records(records, spec.game, gammas, sset, eps, p_values), dtype=bool)

    def where(cell: CellResult) -> str:
        return f"FAIL p={cell.p} gamma={cell.gamma:.6g}"

    # Records run in file cell order, so their failures do too.
    failures = [
        f"{where(cells[records.cell[r]])} profile={tuple(records.profiles[r].tolist())}"
        for r in np.flatnonzero(~ok).tolist()
    ]
    # Records as (cell, profile) keys, the profile packed into one int as
    # classify packs it and then ranked among the file's distinct profiles,
    # so the keys sort in (cell, profile) order.
    def packed(profiles):
        key = 0
        for column in profiles.T:
            key = key * len(sset) + column
        return key

    # return_index takes numpy's stable sort, as verify's other sorts do;
    # the default sort adds 0.8 MB of resident memory on its first call.
    ranks = np.unique(packed(records.profiles), return_index=True)[0]

    def keys(cell, profiles):
        return cell * len(ranks) + np.searchsorted(ranks, packed(profiles))

    record_keys = keys(records.cell, records.profiles)
    stored = [(cell, cls) for cell in cells for cls in cell.classes]
    sizes = np.array([cls.n_profiles for _, cls in stored], dtype=np.int64)
    ends = np.cumsum(sizes)
    # Each stored class must be the class its members re-derive to: the
    # derived class of its cell that holds its first member, the last such
    # where a profile repeats, found by binary search on the derived keys.
    bad_classes = []
    if stored:
        found = [(i, cls) for i, classes in enumerate(derived) for cls in classes]
        found_sizes = [cls.n_profiles for _, cls in found]
        found_keys = keys(
            np.repeat([i for i, _ in found], found_sizes),
            np.concatenate([cls.profiles for _, cls in found]),
        )
        order = np.argsort(found_keys, kind="stable")
        last = np.searchsorted(found_keys[order], record_keys[ends - sizes], side="right") - 1
        owner = np.repeat(np.arange(len(found)), found_sizes)[order[last]]
        bad_classes = [
            f"{where(cell)} class={class_id(cls)}"
            for (cell, cls), k in zip(stored, owner.tolist())
            if found[k][1] != cls
        ]
    # A profile stored twice in one cell, in one class or in two.
    _, first, count = np.unique(record_keys, return_index=True, return_counts=True)
    repeats = []
    for r in sorted(first[count > 1].tolist()):
        cell, cls = stored[np.searchsorted(ends, r, side="right")]
        profile = tuple(records.profiles[r].tolist())
        repeats.append(f"{where(cell)} class={class_id(cls)} repeats profile={profile}")
    checked = len(records)
    reports = (
        (failures, f"of {checked} recorded profiles are not equilibria with their stored payoffs"),
        (bad_classes, "stored classes differ from the classes their members re-derive to"),
        (repeats, "stored profiles repeat within their cell"),
    )
    for lines, summary in reports:
        if lines:
            print("\n".join(lines[:20] + [f"{len(lines)} {summary}"]), file=sys.stderr)
    if failures or bad_classes or repeats:
        return 3
    print(f"verified {checked} recorded NE profiles and their classes: all pass")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("run 'qgame --help' for usage", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, RuntimeError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
