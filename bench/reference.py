"""Recorded expected results and the comparison that counts failed operations.

A cell is reduced to a compact form: for each equilibrium class, its
class id (the theta profile at 9 significant digits and the operator
label), its payoffs, its member count and a digest of its sorted member
profiles.  A cell fails when its class ids or member profiles differ from
the recorded ones, or when a payoff differs by more than ``PAYOFF_TOL``.

This module uses only the standard library: it reads the program's
output files and the recorded references, never the program itself.
"""

from __future__ import annotations

import copy
import gzip
import hashlib
import json
import os

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ref")
PHASE_DIAGRAM_REF = os.path.join(REF_DIR, "phase-diagram.json.gz")
REGIONS_REF = os.path.join(REF_DIR, "regions.csv")
FINE_ROW_REF = os.path.join(REF_DIR, "fine-row.json.gz")

PAYOFF_TOL = 1e-9


def class_id(theta, label) -> str:
    return ";".join(format(float(t), ".9g") for t in theta) + "|" + (label or "-")


def members_digest(members) -> str:
    text = "\n".join(",".join(str(int(i)) for i in m) for m in sorted(map(tuple, members)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def compact_class(theta, label, payoffs, members) -> list:
    return [
        class_id(theta, label),
        [float(x) for x in payoffs],
        len(members),
        members_digest(members),
    ]


def cell_key(p, gamma) -> tuple:
    return (None if p is None else round(float(p), 9), round(float(gamma), 9))


def compact_classes(cell: dict) -> list:
    """Compact form of the classes of one cell of a result file."""
    return [
        compact_class(k["theta"], k["operator_label"], k["payoffs"], k["members"])
        for k in cell["classes"]
    ]


def compact_json_cells(data: dict) -> dict:
    """Compact form of every cell of a result file's parsed JSON, keyed by (p, gamma)."""
    return {cell_key(c.get("p"), c["gamma"]): compact_classes(c) for c in data["cells"]}


def classes_match(expected: list, actual: list) -> bool:
    if len(expected) != len(actual):
        return False
    for e, a in zip(sorted(expected, key=_order), sorted(actual, key=_order)):
        if e[0] != a[0] or e[2] != a[2] or e[3] != a[3] or len(e[1]) != len(a[1]):
            return False
        if any(abs(x - y) > PAYOFF_TOL for x, y in zip(e[1], a[1])):
            return False
    return True


def _order(compact: list) -> tuple:
    return (compact[0], compact[3])


def count_failed_cells(expected: dict, actual: dict) -> int:
    """Expected cells that are missing from ``actual`` or differ from it."""
    return sum(
        1
        for key, classes in expected.items()
        if key not in actual or not classes_match(classes, actual[key])
    )


def read_json_gz(path: str):
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def write_json_gz(path: str, data) -> None:
    text = json.dumps(data, ensure_ascii=False, separators=(",", ":"), sort_keys=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))


def load_phase_diagram() -> dict:
    """The default sweep's result file as the program emitted it at the recording commit."""
    return read_json_gz(PHASE_DIAGRAM_REF)


def load_regions() -> str:
    with open(REGIONS_REF, encoding="utf-8", newline="") as fh:
        return fh.read()


def load_fine_rows() -> dict:
    """Recorded fine-grid rows: {gamma index: {"gamma": g, "cells": [{"p", "gamma", "classes"}]}}."""
    return read_json_gz(FINE_ROW_REF)


def fine_row_cells(row: dict) -> dict:
    return {cell_key(c["p"], c["gamma"]): c["classes"] for c in row["cells"]}


def corrupted_results(data: dict) -> dict[str, dict]:
    """Two copies of a result file, each with exactly one corrupted cell.

    One drops a member profile from a class; the other shifts a class
    payoff by 1e-6.  Each must count as one failed cell.
    """
    cells = [
        i for i, c in enumerate(data["cells"])
        if any(len(k["members"]) > 1 for k in c["classes"])
    ]
    dropped = copy.deepcopy(data)
    dropped["cells"][cells[0]]["classes"][0]["members"].pop()
    shifted = copy.deepcopy(data)
    shifted["cells"][cells[-1]]["classes"][0]["payoffs"][0] += 1e-6
    return {"profile-dropped": dropped, "payoff-shifted": shifted}


def self_check(reference: dict) -> list[str]:
    """Problems found when the comparison is run on known-good and corrupted results."""
    expected = compact_json_cells(reference)
    problems = []
    if count_failed_cells(expected, compact_json_cells(reference)) != 0:
        problems.append("the reference does not match itself")
    for name, bad in corrupted_results(reference).items():
        failed = count_failed_cells(expected, compact_json_cells(bad))
        if failed != 1:
            problems.append(f"{name}: counted {failed} failed cells, expected 1")
    return problems
