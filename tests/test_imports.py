"""What package modules import: every name they import is used, only the
oracle's own users reach the matrix oracle, nothing generates code or loads
the exact-arithmetic module at package import, and every public definition
runs when ``verify``, the nine experiments or the README example run.

``__init__`` is skipped by the unused-import check: its imports are the
public re-exports.
"""
import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ensembleq
from ensembleq import cli
from ensembleq.experiments import EXPERIMENTS
from ensembleq.validate import Record


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
    """What code reads: each name, and each attribute name both bare and as ``.name``,
    since a member is read only as an attribute. Imports and strings are not reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found |= {node.attr, "." + node.attr}
    return found


def _entered(run) -> set:
    """Code objects of the Python functions that ``run()`` enters, under ``sys.setprofile``."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return entered


def _codes(obj) -> list:
    """Code objects whose entry counts as running ``obj``: a function's own code; for
    a record class, the ``__init__`` of it or of a subclass, since one runs whenever
    an instance is built."""
    if not inspect.isclass(obj):
        return [inspect.unwrap(obj).__code__]
    classes, codes = [obj], []
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "__init__" in vars(cls):
            codes.append(vars(cls)["__init__"].__code__)
    return codes


def _public_definitions(module):
    """(key, object) of each public function and record class defined in ``module``,
    and of each public method, property, class and static method of its public
    classes, keyed ``Class.member``. Exception classes are skipped."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            if issubclass(obj, Record):
                yield name, obj
            for member, attr in vars(obj).items():
                func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if not member.startswith("_") and inspect.isfunction(func):
                    yield f"{name}.{member}", func


def _unentered(modules, entered: set, exempt: set[str]) -> list[str]:
    """``module: key`` of each public definition of ``modules`` whose code no run
    entered, unless ``exempt`` holds its name, or ``.member`` for a member."""
    found = []
    for module in modules:
        for key, obj in _public_definitions(module):
            name, dot, member = key.partition(".")
            if (dot + member or name) not in exempt and entered.isdisjoint(_codes(obj)):
                found.append(f"{module.__name__.rpartition('.')[2]}: {key}")
    return found


# Public definitions kept although no run enters them, each with its reason.
_TEST_ONLY_ALLOWED = {
    "quantum_product": "oracle: the operator product, named by the oracle guard",
    "commutator": "oracle: the matrix commutator, named by the oracle guard",
}


def test_every_public_definition_is_used_outside_the_tests(tmp_path):
    # what a reader runs: verify, the nine experiments and the README's Python example
    root = Path(ensembleq.__file__).resolve().parents[2]
    readme = (root / "README.md").read_text(encoding="utf-8")
    examples = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert examples

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify"]) == 0
            for name in EXPERIMENTS:
                assert cli.main(["run", "--experiment", name, "--out", str(tmp_path)]) == 0
            for example in examples:
                exec(example, {})

    exempt = set(_TEST_ONLY_ALLOWED)
    for path in sorted((root / "perfbench").glob("*.py")):
        exempt |= _read_names(path.read_text(encoding="utf-8"))
    # importing __main__ would run the command line
    modules = [importlib.import_module(f"ensembleq.{path.stem}")
               for path in sorted(Path(ensembleq.__file__).parent.glob("*.py"))
               if path.stem not in ("__init__", "__main__")]
    assert _unentered(modules, _entered(run), exempt) == []


_PLANTED = """
from ensembleq.validate import Record


def used():
    return Built(1).read()


def orphan():
    pass


class Built(Record):
    __slots__ = ("x",)

    def __init__(self, x):
        self._set(x)

    def read(self):
        return self.x

    def orphan_method(self):
        pass

    @property
    def orphan_property(self):
        pass

    @staticmethod
    def orphan_static():
        pass

    def _private(self):
        pass


class Unbuilt(Record):
    __slots__ = ()

    def __init__(self):
        pass


class PlantedError(ValueError):
    pass


def _private():
    pass
"""


def test_the_test_only_guard_sees_a_definition_only_tests_use():
    module = types.ModuleType("planted")
    exec(_PLANTED, vars(module))
    entered = _entered(module.used)
    assert _unentered([module], entered, set()) == [
        "planted: orphan", "planted: Built.orphan_method", "planted: Built.orphan_property",
        "planted: Built.orphan_static", "planted: Unbuilt"]
    assert _unentered([module], entered, {"orphan", "orphan_method", ".orphan_property", "Unbuilt"}) == [
        "planted: Built.orphan_method", "planted: Built.orphan_static"]
    assert _read_names("x.orphan_method(orphan)\nimport used\n'Unbuilt'\n") == {
        "x", "orphan_method", ".orphan_method", "orphan"}
    assert _unentered([module], set(), set())[:2] == ["planted: used", "planted: orphan"]


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
