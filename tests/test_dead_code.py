"""Every public function and method of src/qforget, and every defaulted
parameter of one, is reached from src/qforget; every config field, and
every null a field may hold, is reached from a workload.

A top-level function, or a public method of a top-level class, that no other
package code names is reached only by tests, and should be deleted, unless
it is an oracle listed here. Dunder methods are out of scope: Python calls
them, not package code by name (`QuantizedTensor.__eq__` is criterion 1's
reference for an idempotent re-quantization). Likewise a parameter with a
default that no package call passes, by keyword or by position, should be
deleted unless it is listed here, and so should the default of one that
every package call passes. A name that a module imports and never reads
is likewise dead, unless its import line is marked `# noqa`. A config
field that no workload (configs/default.json or bench/workload.json) sets
should be a constant, unless it is listed here, and a null that no filled-in
spec or run of a workload holds should not be allowed.
"""

import ast
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

from qforget.checkpoint import FIELD_KINDS, NULLABLE
from qforget.pipeline import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qforget"
WORKLOADS = {"configs/default.json": lambda doc: doc,
             "bench/workload.json": lambda doc: doc["experiment"]}

# oracle -> why tests keep it although the package never calls it
ORACLES = {
    "grad_check": "criterion 3's central-difference check",
    "mul": "one of the 15 primitives criterion 3 checks",
    "masking_margin": "criterion 2's bound on an update that cannot cross a bin edge",
    "objective": "the one-graph reference that step_losses is checked against",
    "crossing_fraction": "the single-tensor form of the masking metric",
}

# function(parameter=) -> why it stays although no package call passes it
PARAMETER_ORACLES = {
    "grad_check(step=)": "a parameter of criterion 3's oracle, set by tests",
    "main(argv=)": "the console entry point calls main() and takes sys.argv",
    "forward_logits(adapters=)": "bench/workloads.py _judge_lora passes it until the "
                                 "benchmark harness is mended (ROADMAP item 1)",
}

# function(parameter=) -> why it keeps its default although every package call passes it
ALWAYS_PASSED = {
    "stream_texts(duplication=)": "bench/workloads.py calls it without one",
}

# config field -> why it has a kind although no workload sets it
UNSET_FIELDS = {
    "vocab_size": "ModelConfig takes it from the corpus tokenizer",
    "alpha_ratio": "the kind of each sweep.alpha_ratios value",
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


def _calls(trees: dict) -> dict:
    """Function name -> (positional args, keyword names) of each package call
    that names it; functools.partial(f, ...) counts as a call of f."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if isinstance(func, ast.Attribute) and func.attr == "partial" and args:
                func, args = args[0], args[1:]
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append((args, [k.arg for k in node.keywords]))
    return calls


def _defaulted(fn: ast.FunctionDef, method: bool):
    """(name, position or None) of each parameter of fn with a default; a
    method's position counts from after self or cls."""
    a = fn.args
    positional = [p.arg for p in a.posonlyargs + a.args][int(method):]
    first = len(positional) - len(a.defaults)
    yield from ((p, i) for i, p in enumerate(positional) if i >= first)
    yield from ((k.arg, None) for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)


def _defaulted_uses():
    """(function(parameter=), [whether each package call of the function
    passes it]) of each defaulted parameter of a public function; a call
    with *args or **kwargs counts as passing it."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    calls = _calls(trees)
    for tree in trees.values():
        for qualified, fn in _public_functions(tree):
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            for param, position in _defaulted(fn, "." in qualified and not static):
                yield f"{fn.name}({param}=)", [
                    param in keywords or None in keywords
                    or any(isinstance(arg, ast.Starred) for arg in args)
                    or position is not None and len(args) > position
                    for args, keywords in calls.get(fn.name, [])]


def test_no_defaulted_parameter_is_passed_only_from_tests():
    unpassed = [name for name, passes in _defaulted_uses() if not any(passes)]
    assert sorted(unpassed) == sorted(PARAMETER_ORACLES)


def test_no_default_serves_only_tests():
    # a default that every package call overrides is read only by tests
    always = [name for name, passes in _defaulted_uses() if passes and all(passes)]
    assert sorted(always) == sorted(ALWAYS_PASSED)


def test_every_oracle_exists():
    defined = {fn.name for path in PACKAGE.glob("*.py")
               for fn in ast.parse(path.read_text()).body if isinstance(fn, ast.FunctionDef)}
    assert set(ORACLES) <= defined


def _unread_imports(source: str) -> list:
    """Names that `source` binds by an import outside a `# noqa` line and
    never reads."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                "# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_imported_name_is_read():
    unread = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in _unread_imports(path.read_text())]
    assert unread == []


def _keys(doc) -> set:
    """Every object key anywhere in the JSON value `doc`."""
    if isinstance(doc, dict):
        return set(doc).union(*map(_keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(_keys, doc))
    return set()


def _workloads() -> dict:
    """Workload file -> its experiment config as JSON."""
    return {rel: pick(json.loads((ROOT / rel).read_text())) for rel, pick in WORKLOADS.items()}


def test_every_config_field_is_set_by_a_workload():
    keys = set().union(*map(_keys, _workloads().values()))
    assert sorted(set(FIELD_KINDS) - keys) == sorted(UNSET_FIELDS)


def test_every_nullable_field_is_null_in_a_workload():
    nulls = set()
    for raw in _workloads().values():
        cfg = ExperimentConfig.from_dict(raw)
        filled = [section for section in vars(cfg).values() if isinstance(section, dict)]
        filled += [asdict(spec) for spec in cfg.quant_specs()]
        filled += [asdict(cfg.unlearn_config(run)) for run in cfg.runs]
        nulls |= {name for values in filled for name, value in values.items() if value is None}
    assert sorted(set(NULLABLE) - nulls) == []
