"""Golden outputs: CLI results compared with files recorded from a known-good build.

CSV files must match byte for byte.  JSON files must match exactly after
parsing, except the stored equilibrium payoffs, which may differ by
1e-12: payoff tables are full-precision matrix products, whose last bit
can depend on the BLAS build.

To re-record after an intended change of output, run each case's
command with ``--out`` pointed at the golden file's name without
``.gz`` and compress it with ``gzip -9n``.
"""

import gzip
import json
from pathlib import Path

import pytest

from qgame.cli import main

GOLDEN = Path(__file__).parent / "golden"
PI8 = ["--grid-theta", "pi/8", "--grid-phi", "pi/8", "--grid-alpha", "pi/8"]

# (golden file, CLI arguments before --out); "{sweep}" is the golden sweep JSON.
CASES = [
    ("sweep.json", ["sweep"]),
    ("figure_pd.csv", ["emit-figure", "--fig", "pd"]),
    ("figure_da.csv", ["emit-figure", "--fig", "da"]),
    ("figure_bayesian.csv", ["emit-figure", "--fig", "bayesian"]),
    ("regions.csv", ["classify", "--in", "{sweep}"]),
    (
        "solve_circuit.json",
        ["solve", "--game", "bayesian", "--p", "0.3", "--gamma", "0.8", "--circuit", "full"],
    ),
    ("solve_pi8.json", ["solve", "--game", "bayesian", "--p", "0.1", "--gamma", "1.3"] + PI8),
]


def _golden_bytes(name: str) -> bytes:
    with gzip.open(GOLDEN / f"{name}.gz", "rb") as fh:
        return fh.read()


def _assert_same_json(actual, expected, path="$"):
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), path
        for key in expected:
            if key == "payoffs" and isinstance(expected[key], list):
                assert actual[key] == pytest.approx(expected[key], abs=1e-12, rel=0), path
            else:
                _assert_same_json(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), path
        for k, (a, e) in enumerate(zip(actual, expected)):
            _assert_same_json(a, e, f"{path}[{k}]")
    else:
        assert type(actual) is type(expected) and actual == expected, path


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(tmp_path, capsys, name, argv):
    sweep = tmp_path / "golden_sweep.json"
    sweep.write_bytes(_golden_bytes("sweep.json"))
    out = tmp_path / name
    argv = [arg.replace("{sweep}", str(sweep)) for arg in argv]
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    actual, expected = out.read_bytes(), _golden_bytes(name)
    if name.endswith(".csv"):
        assert actual == expected
    else:
        _assert_same_json(json.loads(actual), json.loads(expected))
