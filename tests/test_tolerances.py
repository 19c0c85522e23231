"""Every roundoff tolerance of the package is named once, in ``validate``.

A float literal below 1e-5 anywhere else in the package is a second copy of a
tolerance decision, so the guard rejects it. The one exception is the
tolerance argument of a check row (``Check`` or ``_tol_check``) in
``experiments`` and ``acceptance``: it is written into that check's report,
and the row is its one definition.
"""
import ast
from pathlib import Path

import ensembleq

# positional index of the tolerance argument of each check-row constructor
_ROW_TOLERANCE = {"Check": 4, "_tol_check": 3}
_ROW_MODULES = {"experiments.py", "acceptance.py"}


def _small_float_literals(source: str, module: str) -> list[str]:
    """Float literals 0 < |x| < 1e-5 outside a named tolerance or a check row's tolerance."""
    tree = ast.parse(source)
    allowed = set()
    if module == "validate.py":
        allowed.update(id(node.value) for node in tree.body if isinstance(node, ast.Assign)
                       and all(isinstance(t, ast.Name) and t.id.isupper() for t in node.targets))
    if module in _ROW_MODULES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _ROW_TOLERANCE:
                i = _ROW_TOLERANCE[node.func.id]
                allowed.update(id(arg) for arg in node.args[i:i + 1])
                allowed.update(id(k.value) for k in node.keywords if k.arg in ("tol", "tolerance"))
    found = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and type(node.value) is float and 0.0 < node.value < 1e-5 and id(node) not in allowed]
    return [f"line {node.lineno}: {node.value!r}"
            for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))]


def test_no_tolerance_literal_outside_validate_and_the_check_rows():
    offenders = {}
    for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")):
        found = _small_float_literals(path.read_text(encoding="utf-8"), path.name)
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_the_tolerance_guard_sees_each_planted_literal():
    source = ("TOL = 1e-12\n"
              "if purity > 1.0 + 1e-9:\n    pass\n"
              "_tol_check('gap', value, 0.0, 1e-12)\n"
              "Check('flag', gap > 0.414 - 1e-9, gap, 0.0, tolerance=1e-9)\n"
              "def f(x, tol=1e-12):\n    return x < -tol\n"
              "y = 5e-6 + 1e-5 + 0.0\n")
    outside_rows = ["line 2: 1e-09", "line 4: 1e-12", "line 5: 1e-09", "line 5: 1e-09",
                    "line 6: 1e-12", "line 8: 5e-06"]
    assert _small_float_literals(source, "validate.py") == outside_rows
    assert _small_float_literals(source, "manifolds.py") == ["line 1: 1e-12"] + outside_rows
    assert _small_float_literals(source, "experiments.py") == [
        "line 1: 1e-12", "line 2: 1e-09", "line 5: 1e-09", "line 6: 1e-12", "line 8: 5e-06"]
