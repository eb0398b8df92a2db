"""Span recording for the traced run, and the per-layer metrics read off the spans.

The traced run rebinds each layer's entry points, under the name the
calling module uses, to wrappers defined here; nothing in the program is
edited.  A span is ``[name, start, end, parent, run, value]``: ``parent``
is the index of the enclosing span (-1 at the top), ``run`` the traced
iteration and ``value`` a size recorded with the call (records returned,
table entries, bytes written or read).  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import time


def _returned(args, kwargs, result):
    return len(result)


def _table_entries(args, kwargs, result):
    return sum(t.size for t in result)


def _bytes_at(position):
    def value(args, kwargs, result):
        return os.path.getsize(args[position])

    return value


# (calling module, name it calls, span name, value recorded with the span)
PATCHES = (
    ("qgame.cli", "main", "cli.main", None),
    ("qgame.cli", "run_sweep", "sweep.run_sweep", None),
    ("qgame.sweep", "run_sweep", "sweep.run_sweep", None),
    ("qgame.cli", "summarize_regions", "sweep.summarize_regions", None),
    ("qgame.cli", "enumerate_strategies", "strategies.enumerate_strategies", None),
    # sweep's row functions import enumerate_strategies when they run.
    ("qgame.strategies", "enumerate_strategies", "strategies.enumerate_strategies", None),
    ("qgame.equilibrium", "pauli_label", "strategies.pauli_label", None),
    ("qgame.sweep", "bayesian_tables", "equilibrium.tables", _table_entries),
    ("qgame.sweep", "two_player_tables", "equilibrium.tables", _table_entries),
    ("qgame.equilibrium", "bayesian_tables", "equilibrium.tables", _table_entries),
    ("qgame.sweep", "find_ne_bayesian", "equilibrium.find_ne", _returned),
    ("qgame.sweep", "find_ne_two_player", "equilibrium.find_ne", _returned),
    ("qgame.cli", "find_ne_bayesian", "equilibrium.find_ne", _returned),
    ("qgame.cli", "find_ne_two_player", "equilibrium.find_ne", _returned),
    ("qgame.cli", "find_ne_bayesian_circuit", "equilibrium.find_ne_bayesian_circuit", _returned),
    ("qgame.sweep", "classify", "equilibrium.classify", _returned),
    ("qgame.cli", "classify", "equilibrium.classify", _returned),
    ("qgame.cli", "verify_ne", "equilibrium.verify_ne", None),
    ("qgame.equilibrium", "evolve_two_player", "circuits.evolve_two_player", None),
    ("qgame.circuits", "evolve_two_player", "circuits.evolve_two_player", None),
    ("qgame.equilibrium", "bayesian_payoffs_mixture", "circuits.bayesian_payoffs_mixture", None),
    (
        "qgame.equilibrium",
        "bayesian_payoffs_full_circuit",
        "circuits.bayesian_payoffs_full_circuit",
        None,
    ),
    ("qgame.circuits", "evolve_bayesian_circuit", "circuits.evolve_bayesian_circuit", None),
    ("qgame.circuits", "kron", "linalg.kron", None),
    ("qgame.cli", "emit", "serialize.emit", _bytes_at(2)),
    ("qgame.cli", "emit_regions", "serialize.emit", _bytes_at(2)),
    ("qgame.cli", "load_result", "serialize.load_result", _bytes_at(0)),
)

# Per-layer metrics read off one traced iteration, with their units.
LAYER_UNITS = {
    "cli.self_s": "s",
    "sweep.run_sweep_s": "s",
    "sweep.self_s": "s",
    "sweep.rows": "count",
    "sweep.summarize_regions_s": "s",
    "strategies.enumerate_s": "s",
    "strategies.enumerate_calls": "count",
    "strategies.pauli_label_calls": "count",
    "strategies.pauli_label_s": "s",
    "equilibrium.tables_s": "s",
    "equilibrium.tables_calls": "count",
    "equilibrium.table_entries_per_s": "1/s",
    "equilibrium.table_mb_computed": "MB",
    "equilibrium.find_ne_s": "s",
    "equilibrium.find_ne_calls": "count",
    "equilibrium.records": "count",
    "equilibrium.classes": "count",
    "equilibrium.classify_s": "s",
    "equilibrium.verify_ne_s": "s",
    "equilibrium.verify_ne_calls": "count",
    "equilibrium.verify_ms_per_profile": "ms",
    "equilibrium.circuit_tables_s": "s",
    "circuits.two_player_evals": "count",
    "circuits.two_player_s": "s",
    "circuits.four_qubit_evals": "count",
    "circuits.fallback_evals": "count",
    "linalg.kron_calls": "count",
    "linalg.kron_s": "s",
    "serialize.emit_s": "s",
    "serialize.bytes_out": "B",
    "serialize.load_s": "s",
    "serialize.bytes_in": "B",
}

# Every per-layer metric of a traced run: the above, plus traced minus plain
# iteration time, and the phase-diagram sweep's --jobs 1 over --jobs 2 time.
UNITS = {**LAYER_UNITS, "trace.overhead_s": "s", "sweep.jobs2_speedup": "ratio"}

# Metrics that must repeat exactly between traced runs of the same code.
COUNTS = tuple(name for name, unit in LAYER_UNITS.items() if unit in ("count", "B"))


class Tracer:
    """Installs the span-recording wrappers and holds the spans of the current iteration."""

    def __init__(self):
        self.spans: list[list] = []
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span_name, value in PATCHES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def start_iteration(self, run: int) -> None:
        self.spans.clear()
        self.run = run

    def _wrap(self, name, fn, value):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[5] = value(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=1) as fh:
            for span in self.spans:
                fh.write((json.dumps(span) + "\n").encode())


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    Times are inclusive span totals, except ``*.self_s``: a span minus
    the time its child spans cover.
    """
    duration = [s[2] - s[1] for s in spans]
    children = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[3] >= 0:
            children[s[3]] += duration[i]

    def select(name):
        return by_name.get(name, [])

    def total(name):
        return sum((duration[i] for i in select(name)), 0.0)

    def self_time(name):
        return sum((duration[i] - children[i] for i in select(name)), 0.0)

    def values(name):
        return [spans[i][5] for i in select(name)]

    def inside(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    tables = select("equilibrium.tables")
    tables_s = total("equilibrium.tables")
    entries = values("equilibrium.tables")
    verify_s = total("equilibrium.verify_ne")
    verify_calls = len(select("equilibrium.verify_ne"))
    full_circuit = set(select("circuits.bayesian_payoffs_full_circuit"))
    two_player = select("circuits.evolve_two_player")
    return {
        "cli.self_s": self_time("cli.main"),
        "sweep.run_sweep_s": total("sweep.run_sweep"),
        "sweep.self_s": self_time("sweep.run_sweep"),
        "sweep.rows": sum(1 for i in tables if inside(i, "sweep.run_sweep")),
        "sweep.summarize_regions_s": total("sweep.summarize_regions"),
        "strategies.enumerate_s": total("strategies.enumerate_strategies"),
        "strategies.enumerate_calls": len(select("strategies.enumerate_strategies")),
        "strategies.pauli_label_calls": len(select("strategies.pauli_label")),
        "strategies.pauli_label_s": total("strategies.pauli_label"),
        "equilibrium.tables_s": tables_s,
        "equilibrium.tables_calls": len(tables),
        "equilibrium.table_entries_per_s": sum(entries) / tables_s if tables_s else 0.0,
        # float64 entries of one gamma's tables, from the array sizes.
        "equilibrium.table_mb_computed": max(entries, default=0) * 8 / 2**20,
        "equilibrium.find_ne_s": total("equilibrium.find_ne"),
        "equilibrium.find_ne_calls": len(select("equilibrium.find_ne")),
        "equilibrium.records": sum(values("equilibrium.find_ne"))
        + sum(values("equilibrium.find_ne_bayesian_circuit")),
        "equilibrium.classes": sum(values("equilibrium.classify")),
        "equilibrium.classify_s": total("equilibrium.classify"),
        "equilibrium.verify_ne_s": verify_s,
        "equilibrium.verify_ne_calls": verify_calls,
        "equilibrium.verify_ms_per_profile": 1000 * verify_s / verify_calls if verify_calls else 0.0,
        "equilibrium.circuit_tables_s": total("equilibrium.find_ne_bayesian_circuit"),
        "circuits.two_player_evals": len(two_player),
        "circuits.two_player_s": total("circuits.evolve_two_player"),
        "circuits.four_qubit_evals": len(select("circuits.evolve_bayesian_circuit")),
        "circuits.fallback_evals": sum(1 for i in two_player if spans[i][3] in full_circuit),
        "linalg.kron_calls": len(select("linalg.kron")),
        "linalg.kron_s": total("linalg.kron"),
        "serialize.emit_s": total("serialize.emit"),
        "serialize.bytes_out": sum(values("serialize.emit")),
        "serialize.load_s": total("serialize.load_result"),
        "serialize.bytes_in": sum(values("serialize.load_result")),
    }


def unstable_counts(per_iteration: list[dict]) -> list[str]:
    """Counts that differ between traced iterations."""
    return [
        name for name in COUNTS
        if len({m[name] for m in per_iteration}) > 1
    ]
