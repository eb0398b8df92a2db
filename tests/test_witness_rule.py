"""The witnesses never read the fast tables.

``verify_records`` and the four-qubit path (``bayesian_circuit_tables``,
``find_ne_bayesian_circuit``) check the table-backed search, so neither
may name the table builders or their types, directly or through a helper
of the same module.  The rule is read off the source (AST), following
every name that is a module-level function of ``equilibrium``.
"""

import ast
import inspect

from qgame import equilibrium

WITNESSES = ("verify_records", "bayesian_circuit_tables", "find_ne_bayesian_circuit")
TABLE_NAMES = frozenset(
    {
        "_born_cores",
        "_born_factors",
        "_table_blocks",
        "_payoff_table",
        "bayesian_tables",
        "two_player_tables",
        "BayesianTables",
    }
)


def names_reached(source: str, roots) -> dict[str, set[str]]:
    """Per root function of ``source``, every name and attribute its body,
    and the bodies of the module-level functions it names, refer to."""
    functions = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    reached = {}
    for root in roots:
        seen, todo, names = set(), [root], set()
        while todo:
            name = todo.pop()
            if name in seen or name not in functions:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                    todo.append(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
        reached[root] = names
    return reached


def table_names_of_witnesses(source: str) -> dict[str, set[str]]:
    return {
        root: names & TABLE_NAMES for root, names in names_reached(source, WITNESSES).items()
    }


def test_witnesses_name_no_table_builder():
    source = inspect.getsource(equilibrium)
    reached = table_names_of_witnesses(source)
    assert set(reached) == set(WITNESSES)
    assert reached == {root: set() for root in WITNESSES}


def test_rule_catches_a_witness_that_reads_the_tables():
    # A direct name, an attribute and a name reached through a helper.
    source = '''
def _helper(game):
    return bayesian_tables(game, 0.0, None)

def verify_records(records, game):
    return _helper(game)

def bayesian_circuit_tables(game):
    return equilibrium._table_blocks

def find_ne_bayesian_circuit(game) -> "BayesianTables":
    x: BayesianTables = None
    return x
'''
    assert table_names_of_witnesses(source) == {
        "verify_records": {"bayesian_tables"},
        "bayesian_circuit_tables": {"_table_blocks"},
        "find_ne_bayesian_circuit": {"BayesianTables"},
    }
