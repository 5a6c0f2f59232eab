"""Every public function of src/qforget is reached from src/qforget.

A top-level function that no other package code names is reached only by
tests, and should be deleted, unless it is an oracle listed here.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qforget"

# oracle -> why tests keep it although the package never calls it
ORACLES = {
    "grad_check": "criterion 3's central-difference check",
    "mul": "one of the 15 primitives criterion 3 checks",
    "masking_margin": "criterion 2's bound on an update that cannot cross a bin edge",
    "objective": "the one-graph reference that step_losses is checked against",
    "crossing_fraction": "the single-tensor form of the masking metric",
}


def _names(tree: ast.AST) -> Counter:
    """How often code under `tree` refers to each name or attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_no_function_is_reached_only_from_tests():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unreached = [f"{fname}:{fn.name}" for fname, tree in trees.items() for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                 and fn.name not in ORACLES and used[fn.name] == _names(fn)[fn.name]]
    assert unreached == []


def test_every_oracle_exists():
    defined = {fn.name for path in PACKAGE.glob("*.py")
               for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)}
    assert set(ORACLES) <= defined
