"""Every public function and method of src/qforget is reached from src/qforget.

A top-level function, or a public method of a top-level class, that no other
package code names is reached only by tests, and should be deleted, unless
it is an oracle listed here. Dunder methods are out of scope: Python calls
them, not package code by name (`QuantizedTensor.__eq__` is criterion 1's
reference for an idempotent re-quantization).
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


def _public_functions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and each
    public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{fn.name}", fn) for fn in node.body
                        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"))
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node


def test_no_function_is_reached_only_from_tests():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unreached = [f"{fname}:{name}" for fname, tree in trees.items()
                 for name, fn in _public_functions(tree)
                 if fn.name not in ORACLES and used[fn.name] == _names(fn)[fn.name]]
    assert unreached == []


def test_every_oracle_exists():
    defined = {fn.name for path in PACKAGE.glob("*.py")
               for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)}
    assert set(ORACLES) <= defined
