"""What package modules import: every name they import is used, only the
oracle's own users reach the matrix oracle, nothing generates code or loads
the exact-arithmetic module at package import, and no public definition is
there for the tests alone.

``__init__`` is skipped by the unused-import check: its imports are the
public re-exports.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _generated_code(source: str) -> list[str]:
    """Imports of dataclasses and calls of exec, eval or compile in a module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            found.append(f"line {node.lineno}: from dataclasses")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("exec", "eval", "compile")):
            found.append(f"line {node.lineno}: {node.func.id}()")
    return found


def test_no_package_module_generates_code():
    # a dataclass execs its generated methods when its module is imported
    offenders = {}
    for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")):
        found = _generated_code(path.read_text(encoding="utf-8"))
        if found:
            offenders[path.name] = found
    assert offenders == {}


def test_the_generated_code_guard_sees_each_form():
    source = "import dataclasses\nfrom dataclasses import field\nexec('x = 1')\neval('1')\n"
    assert _generated_code(source) == ["line 1: import dataclasses", "line 2: from dataclasses",
                                       "line 3: exec()", "line 4: eval()"]


# The matrix oracle is the reference the classical side is checked against: only
# the oracle itself, the experiments that compare with it and the acceptance
# suite may use it, so no classical-side path can take its answer from it.
_ORACLE_USERS = {"qmatrix.py", "experiments.py", "acceptance.py"}
_ORACLE = {"qm_expectation", "nested_anticommutator_expectation", "quantum_product", "commutator"}


def _oracle_references(source: str) -> list[str]:
    """Names, attributes, imported names and string constants that name an oracle function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if isinstance(name, str) and (name in _ORACLE or name.startswith("anticommutator")):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_only_the_oracle_experiments_and_suite_use_the_oracle():
    offenders = {}
    for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")):
        if path.name not in _ORACLE_USERS:
            found = _oracle_references(path.read_text(encoding="utf-8"))
            if found:
                offenders[path.name] = found
    assert offenders == {}


def test_the_oracle_guard_sees_each_form():
    source = ("from .qmatrix import qm_expectation as expect\n"
              "qmatrix.anticommutator_expectation(a, b, rho)\n"
              "getattr(qmatrix, 'commutator')(a, b)\n"
              "from .qmatrix import anticommutator, nested_anticommutator_expectation\n"
              "quantum_product(a, b)\n"
              "qmatrix.density_from_bloch(vec), _commutator(ham), 'tr({A, B} rho)/2'\n")
    assert _oracle_references(source) == [
        "line 1: qm_expectation", "line 2: anticommutator_expectation", "line 3: commutator",
        "line 4: anticommutator", "line 4: nested_anticommutator_expectation", "line 5: quantum_product"]


def _read_names(source: str) -> set[str]:
    """Names and attribute names that code reads: imports and strings are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Name, ast.Attribute))}


def _public_definitions(source: str):
    """(key, name) of each public top-level function and class, and of each public
    method, property, class and static method of a public class, keyed
    ``Class.member``."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{member.name}", member.name) for member in node.body
                            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"))


def _test_only_definitions(modules: dict[str, str], read_elsewhere: set[str]) -> list[str]:
    """Public definitions of ``modules`` (file name -> source) whose name no
    module reads and whose name or key is not in ``read_elsewhere``.

    A read in the defining module counts, since a record class is built by the
    module that returns it; a re-export or an ``__all__`` string does not. A
    member counts as read when its name is read anywhere, whatever the object:
    ``np.trace`` reads every member named ``trace``.
    """
    read = read_elsewhere.union(*map(_read_names, modules.values()))
    return [f"{name}: {key}" for name, source in sorted(modules.items())
            for key, member in _public_definitions(source)
            if member not in read and key not in read]


# Public names and members kept although only tests use them, each with its reason.
_TEST_ONLY_ALLOWED = {
    "reduced_from_micro": "paper claim: reduced transition maps from micro-state transitions",
    "ReducedTransition.apply": "paper claim: the reduced map S carries rho(t') to rho(t) = S rho(t')",
    "rotate_distribution": "paper claim: rotating the distribution commutes with reduction",
    "zn_step_evolution": "paper claim: Z_N steps map pure states to pure states",
    "exchange_symmetry": "paper claim: the particle-exchange map of the four-state system",
    "prob_plus": "paper claim: the +1 outcome probability (1 + mean)/2 in a micro-state",
    "SubstateEnsemble.mean_sign": "paper claim: sharp substate values average to f . e in each micro-state",
    "moment": "the moments <A^q> that make an observable two-level",
    "quantum_product": "oracle: the operator product, named by the oracle guard",
    "commutator": "oracle: the matrix commutator, named by the oracle guard",
}


def test_every_public_definition_is_used_outside_the_tests():
    root = Path(ensembleq.__file__).resolve().parents[2]
    modules = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(ensembleq.__file__).parent.glob("*.py"))}
    read_elsewhere = set(_TEST_ONLY_ALLOWED)
    for path in sorted((root / "perfbench").glob("*.py")):
        read_elsewhere |= _read_names(path.read_text(encoding="utf-8"))
    readme = (root / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.M | re.S):
        read_elsewhere |= set(re.findall(r"[A-Za-z_]\w*", block))
    assert _test_only_definitions(modules, read_elsewhere) == []


def test_the_test_only_guard_sees_a_definition_only_tests_use():
    modules = {
        "a.py": "def used():\n    pass\n\ndef orphan():\n    pass\n\n"
                "class Record:\n    def read(self):\n        pass\n\n"
                "    def orphan_method(self):\n        pass\n\n"
                "    @property\n    def orphan_property(self):\n        pass\n\n"
                "    def _private(self):\n        pass\n\n"
                "def build():\n    return Record().read()\n\ndef _private():\n    pass\n",
        "b.py": "from .a import used, orphan\n__all__ = ['orphan']\nused()\n",
    }
    assert _test_only_definitions(modules, set()) == [
        "a.py: orphan", "a.py: Record.orphan_method", "a.py: Record.orphan_property", "a.py: build"]
    assert _test_only_definitions(modules, {"build", "Record.orphan_method", "orphan_property"}) == [
        "a.py: orphan"]


def test_importing_the_suite_loads_no_exact_arithmetic():
    code = (
        "import sys\n"
        "import ensembleq.acceptance, ensembleq.experiments\n"
        "print(sorted({'ensembleq.finite', 'fractions'} & set(sys.modules)))\n"
        "import ensembleq\n"
        "print(ensembleq.zn_system.__module__, ensembleq.cartesian_purity.__module__)\n"
    )
    src = str(Path(ensembleq.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "ensembleq.finite ensembleq.finite"]


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'zn_systems'"):
        ensembleq.zn_systems
