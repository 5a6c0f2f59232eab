"""src/qforget/checkpoint.py is the one module between the program and the
file system.

Every other module reads an input through checkpoint.read_file (or
read_json and read_object on it) and writes an artifact through
checkpoint.write_atomic (or write_object and write_rows on it), so that one
place makes parent directories, writes atomically and maps an OSError to
the error class of its side. A call that opens, reads, writes, makes or
removes a file or directory anywhere else, or that formats JSON with an
indent, fails this test unless its function is allowed here.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qforget"

# method or function names whose call touches the file system
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "mkdir", "unlink"}

# module:function -> why it touches the file system itself
ALLOWED = {
    "cli:_locked": "the run-directory lock: makes --out and holds an flock on it",
    "pipeline:ExperimentConfig.from_file": "a config read that fails is a ConfigError, "
                                           "not an input's InputError",
    "__init__:_pin_openblas": "reads /proc/self/maps at import to find the loaded BLAS",
}


def _file_calls(tree: ast.Module, module: str):
    """(module:function, line, what) of each call under `tree` that touches
    the file system or formats JSON with an indent; `function` is the
    qualified name of the enclosing function, or <module>."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                owner = getattr(getattr(func, "value", None), "id", None)
                if name in FILE_CALLS and (isinstance(func, ast.Attribute) or name == "open") \
                        or (owner, name) == ("os", "replace"):
                    yield f"{module}:{inner}", child.lineno, name
                if any(k.arg == "indent" for k in child.keywords):
                    yield f"{module}:{inner}", child.lineno, "indent="
            yield from visit(child, inner)
    yield from visit(tree, "<module>")


def test_only_checkpoint_touches_the_file_system():
    found = [(where, line, what) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "checkpoint.py"
             for where, line, what in _file_calls(ast.parse(path.read_text()), path.stem)]
    assert [f"{where}:{line} {what}" for where, line, what in found
            if where not in ALLOWED] == []
    # each exception is still needed
    assert {where for where, _, _ in found} == set(ALLOWED)


def test_the_guard_sees_each_kind_of_call():
    source = "\n".join([
        "import json, os",
        "def f(path, obj):",
        "    open(path)",
        "    os.open(path, 0)",
        "    path.read_text()",
        "    path.read_bytes()",
        "    path.write_text('')",
        "    path.write_bytes(b'')",
        "    path.mkdir()",
        "    path.unlink()",
        "    os.replace(path, path)",
        "    json.dumps(obj, indent=1)",
        "    'a'.replace('a', 'b')",
    ])
    whats = [what for _, _, what in _file_calls(ast.parse(source), "m")]
    assert whats == ["open", "open", "read_text", "read_bytes", "write_text", "write_bytes",
                     "mkdir", "unlink", "replace", "indent="]
