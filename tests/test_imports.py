"""Every name a package module imports is used in that module.

``__init__`` is skipped: its imports are the public re-exports.
"""
import ast
from pathlib import Path

import ensembleq


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_no_unused_imports_in_the_package():
    offenders = {}
    for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            unused = _unused_imports(path.read_text(encoding="utf-8"))
            if unused:
                offenders[path.name] = unused
    assert offenders == {}


def test_the_guard_sees_an_unused_import():
    assert _unused_imports("import json\nimport math\n\nmath.pi\n") == ["line 1: json"]
