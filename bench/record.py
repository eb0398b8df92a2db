"""Record the expected results the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 bench/record.py

It rewrites ``bench/ref/``: the default sweep's result file and its
``classify`` regions, and the compact classes of every fine-grid row the
fine-row seed can choose.  It also solves every cell of the default sweep
through the four-qubit circuit and fails unless each reproduces the
recorded mixture classes, because certify's seeded circuit points may be
any of those cells.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    os.makedirs(reference.REF_DIR, exist_ok=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    tmp = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        sweep_path = os.path.join(tmp, "phase.json")
        regions_path = os.path.join(tmp, "regions.csv")
        for argv in (
            ["sweep", "--format", "json", "--out", sweep_path],
            ["classify", "--in", sweep_path, "--out", regions_path],
        ):
            code, _, err = workloads.cli(argv)
            if code != 0:
                print(f"qgame {argv[0]} failed: {err}", file=sys.stderr)
                return 1
        with open(sweep_path, encoding="utf-8") as fh:
            sweep = json.load(fh)
        reference.write_json_gz(reference.PHASE_DIAGRAM_REF, sweep)
        shutil.copyfile(regions_path, reference.REGIONS_REF)
        print(f"recorded the default sweep: {len(sweep['cells'])} cells", flush=True)

        import qgame.sweep

        rows = {}
        for index in workloads.FINE_ROW_GAMMA_INDICES:
            spec = workloads.fine_row_spec(index)
            cells = workloads.compact_result_cells(qgame.sweep.run_sweep(spec, workers=1))
            rows[str(index)] = {
                "gamma": spec.gamma_values[0],
                "cells": [
                    {"p": p, "gamma": g, "classes": classes}
                    for (p, g), classes in sorted(cells.items())
                ],
            }
            print(f"recorded fine row {index} (gamma = {spec.gamma_values[0]:.6g})", flush=True)
        reference.write_json_gz(reference.FINE_ROW_REF, rows)

        mismatched = []
        point_path = os.path.join(tmp, "point.json")
        for cell in sweep["cells"]:
            code = workloads.solve_full_circuit(cell, point_path)[0]
            if code != 0 or not workloads.point_matches(point_path, reference.compact_classes(cell)):
                mismatched.append((cell["p"], cell["gamma"]))
        if mismatched:
            print(f"full circuit differs from the mixture at {mismatched}", file=sys.stderr)
            return 1
        print(f"full circuit matches the mixture at all {len(sweep['cells'])} cells")
        return 0
    finally:
        shutil.rmtree(tmp)


if __name__ == "__main__":
    sys.exit(main())
