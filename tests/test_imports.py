"""What package modules import: every name they import is used, only the
oracle's own users reach the matrix oracle, nothing generates code or loads
the exact-arithmetic module at package import, and every public definition,
option and record field is used when the program runs.

The run is ``verify``, the nine experiments and the README example, under
``sys.setprofile``; the benchmark is not run. Four rules go beyond "the
definition's code was entered":

- each defaulted parameter, and each ``**kw``, of an entered public function
  must be set by some call to a value other than its default (a value equal
  to a bool, int, float, str or None default counts as the default);
- special methods other than ``__init__``, ``__repr__``, ``__eq__`` and
  ``__hash__`` count as definitions of their own;
- each ``__slots__`` field of a record class must be read by some code
  other than ``Record.__repr__`` and ``Record._fields`` (which serves ``==``
  and ``hash``);
- a use by the benchmark alone does not count.

What stays without such a use is allowlisted by ``Class.member`` or
``func(param)``, with its reason. ``__init__`` is skipped by the
unused-import check: its imports are the public re-exports.

The guard keys its tables by code object, and a profile frame carries no
function object, so closures made from one ``def`` share one entry: one that a
run enters, or one whose parameter a run varies, counts for all of them. For
example ``acceptance._criterion`` returns the same ``run`` code for the basis
audit and c1-c10, so the guard compares every criterion's ``seed`` with the
basis audit's default 0 and cannot tell whether any one criterion's ``seed``
is ever varied.
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


# Conversions that read a value without validate's rules: float() and np.asarray() take a bool
# as 1, float() takes the string "0.5", and none of them rejects NaN or names the argument.
_BARE_BUILTINS, _BARE_NUMPY = {"float", "int", "complex"}, {"asarray", "array"}

# Public functions that may still pass a parameter to one of them, each with its reason.
_BARE_READ_ALLOWED = {
    "qm_expectation(op)": "the oracle takes bare arrays (the qmatrix docstring): the reference reads them as given",
    "qm_expectation(rho)": "the oracle takes bare arrays (the qmatrix docstring): the reference reads them as given",
    "cartesian_purity(p)": "the exact path: an object array of the int and Fraction entries _is_exact_seq "
                           "has just checked",
}


def _bare_reads(source: str) -> list[str]:
    """``func(param)`` for each public function that passes a parameter of its own, or a subscript
    of one, to float(), int(), complex(), np.asarray() or np.array(); a public method is keyed
    ``Class.method`` and an ``__init__`` by its class."""
    tree = ast.parse(source)
    funcs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef) and f.name[0] != "_"]
    funcs += [(c.name if f.name == "__init__" else f"{c.name}.{f.name}", f) for c in tree.body
              if isinstance(c, ast.ClassDef) and c.name[0] != "_"
              for f in c.body if isinstance(f, ast.FunctionDef) and (f.name == "__init__" or f.name[0] != "_")]
    found = []
    for key, func in funcs:
        a = func.args
        params = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p is not None}
        for node in ast.walk(func):
            callee = getattr(node, "func", None)
            if not (isinstance(callee, ast.Name) and callee.id in _BARE_BUILTINS
                    or isinstance(callee, ast.Attribute) and callee.attr in _BARE_NUMPY
                    and getattr(callee.value, "id", None) in ("np", "numpy")):
                continue
            for arg in node.args + [k.value for k in node.keywords]:
                arg = arg.value if isinstance(arg, ast.Subscript) else arg
                if isinstance(arg, ast.Name) and arg.id in params and f"{key}({arg.id})" not in found:
                    found.append(f"{key}({arg.id})")
    return found


def test_no_public_function_reads_a_parameter_with_a_bare_conversion():
    # validate holds the readers; a bare float() took "0.5" and True as numbers and NaN as a rate
    offenders, seen = {}, set()
    for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")):
        if path.name != "validate.py":
            found = _bare_reads(path.read_text(encoding="utf-8"))
            seen.update(found)
            if set(found) - set(_BARE_READ_ALLOWED):
                offenders[path.name] = [f for f in found if f not in _BARE_READ_ALLOWED]
    assert offenders == {}
    assert set(_BARE_READ_ALLOWED) <= seen   # an allowance whose read is gone is removed with it


def test_the_bare_read_guard_sees_each_form():
    source = """
import numpy as np
from .validate import real_array


def each(a, b, c, d, e, *rest, f=None, **kw):
    return float(a), int(b[0]), complex(c), np.asarray(d, dtype=float), np.array(object=e), float(rest), int(kw)


def checked(x, y):
    x = real_array(x, "x")
    return float(len(y)), float(y + 1), math.floor(y), other.array(y), np.float64(x)


def _private(x):
    return float(x)


class Record:
    def __init__(self, x):
        self.x = float(x)

    def scaled(self, s):
        return np.array(s) * self.x

    def _hidden(self, s):
        return float(s)


class _Hidden:
    def public(self, s):
        return float(s)
"""
    assert _bare_reads(source) == ["each(a)", "each(b)", "each(c)", "each(d)", "each(e)", "each(rest)", "each(kw)",
                                   "Record(x)", "Record.scaled(s)"]


def _dimension_mismatches(source: str) -> list[str]:
    """``line N`` for each call that builds a DimensionMismatch, by its name, as a module
    attribute or under an import alias."""
    tree = ast.parse(source)
    names = {"DimensionMismatch"} | {a.asname for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                                     for a in node.names if a.name == "DimensionMismatch" and a.asname}
    return [f"line {n}" for n in sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                                          and (getattr(node.func, "id", None) in names
                                               or getattr(node.func, "attr", None) in names))]


def test_only_validate_builds_a_dimension_mismatch():
    # the pairing rule was written in 13 places with 13 messages, none naming its argument;
    # validate._check_dim is the one place, and its message names both lengths
    found = {path.name: _dimension_mismatches(path.read_text(encoding="utf-8"))
             for path in sorted(Path(ensembleq.__file__).parent.glob("*.py")) if path.name != "validate.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_dimension_guard_sees_each_form():
    source = """
from . import validate
from .validate import DimensionMismatch, DimensionMismatch as Mismatch, _check_dim


def direct(x):
    raise DimensionMismatch("x")


def via_module(x):
    raise validate.DimensionMismatch("x")


def aliased(x):
    return Mismatch("x")


def checked(x):
    try:
        return _check_dim(x, 3, "x", "the observable")
    except DimensionMismatch:
        raise
"""
    assert _dimension_mismatches(source) == ["line 7", "line 11", "line 15"]


def _typed_flags(source: str) -> list[str]:
    """``line N`` for each ``add_argument`` call that passes ``type=``, or a ``**`` mapping that may hold it."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
            and any(k.arg in ("type", None) for k in node.keywords)]


def test_no_cli_flag_is_converted_by_argparse():
    # type=int printed argparse's usage text, not the error JSON, for --seed abc; a flag's
    # value is parsed like a --param value and read by the package's readers
    assert _typed_flags(Path(cli.__file__).read_text(encoding="utf-8")) == []


def test_the_typed_flag_guard_sees_each_form():
    source = """
parser.add_argument("--seed", type=int)
sub.add_argument("--jobs", default=None, type=lambda s: int(s))
parser.add_argument("--out", help="output directory")
parser.add_argument("--n", **{"type": int})
parser.set_defaults(type=int)
"""
    assert _typed_flags(source) == ["line 2", "line 3", "line 5"]


# Special methods Python calls on every record (building, printing, comparing,
# hashing it); any other special method counts as a definition of its own.
_KEPT_SPECIAL = {"__init__", "__repr__", "__eq__", "__hash__"}


def _counted(member: str) -> bool:
    """A class member that the guard checks: public, or a special method not in _KEPT_SPECIAL."""
    special = member.startswith("__") and member.endswith("__")
    return not member.startswith("_") or (special and member not in _KEPT_SPECIAL)


def _codes(obj) -> list:
    """What a run must use for ``obj`` to count as used: a record field's slot
    descriptor itself; a function's own code; for a record class, the ``__init__``
    of it or of a subclass, since one runs whenever an instance is built."""
    if isinstance(obj, types.MemberDescriptorType):
        return [obj]
    if not inspect.isclass(obj):
        return [inspect.unwrap(obj).__code__]
    classes, codes = [obj], []
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "__init__" in vars(cls):
            codes.append(vars(cls)["__init__"].__code__)
    return codes


def _called(obj):
    """The function whose parameters a call of ``obj`` fills: ``obj`` itself, or a
    record class's own ``__init__`` (None when it inherits one, and for a field)."""
    if inspect.isclass(obj):
        return vars(obj).get("__init__")
    return inspect.unwrap(obj) if inspect.isfunction(obj) else None


def _public_definitions(module):
    """(key, object) of each public function and record class defined in ``module``,
    of each field (the slot descriptor of a ``__slots__`` name) of its record classes,
    and of each public method, property, class and static method and each counted
    special method of its public classes, keyed ``Class.member``.
    Exception classes are skipped."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            if issubclass(obj, Record):
                yield name, obj
                for field in vars(obj).get("__slots__", ()):
                    yield f"{name}.{field}", vars(obj)[field]
            for member, attr in vars(obj).items():
                func = attr.fget if isinstance(attr, property) else getattr(attr, "__func__", attr)
                if _counted(member) and inspect.isfunction(func):
                    yield f"{name}.{member}", func


def _defaults(func) -> dict:
    """Each defaulted parameter of ``func`` mapped to its default, and ``**name``
    of a keyword catch-all mapped to the empty dict."""
    found = {}
    for param in inspect.signature(func).parameters.values():
        if param.kind is param.VAR_KEYWORD:
            found["**" + param.name] = {}
        elif param.default is not param.empty:
            found[param.name] = param.default
    return found


def _is_default(value, default) -> bool:
    """``value`` is ``default``, or equals a bool, int, float, str or None default."""
    if value is default:
        return True
    if not isinstance(default, (bool, int, float, str, type(None))):
        return False
    try:
        return bool(value == default)
    except (TypeError, ValueError):   # an array compares elementwise
        return False


def _nested(code) -> list:
    """``code`` and the code objects of the functions and generator expressions in it."""
    return [code] + [c for const in code.co_consts if isinstance(const, types.CodeType)
                     for c in _nested(const)]


# Reads made here serve repr, == and hash, which read every field of any record.
_SERVING = {c for f in (Record.__repr__, Record._fields) for c in _nested(f.__code__)}


class _Recorded:
    """Stands in for a record field's slot descriptor while a run is traced; the
    first read from code other than _SERVING adds the slot to ``used`` and puts the
    slot back, so later reads cost nothing."""

    def __init__(self, slot, used: set):
        self.slot, self.used = slot, used

    def __get__(self, obj, owner=None):
        if obj is not None and sys._getframe(1).f_code not in _SERVING:
            self.used.add(self.slot)
            setattr(self.slot.__objclass__, self.slot.__name__, self.slot)
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value):
        self.slot.__set__(obj, value)


def _trace(run, modules) -> tuple[set, dict]:
    """What ``run()`` does with the public definitions of ``modules``, under
    ``sys.setprofile``: the code objects of the Python functions it enters and the
    slot descriptors of the record fields it reads, and, for each public function
    with defaulted parameters, those of its parameters that no call set to another
    value (a ``**name`` that no call filled)."""
    unvaried, slots = {}, []
    for module in modules:
        for _, obj in _public_definitions(module):
            if isinstance(obj, types.MemberDescriptorType):
                slots.append(obj)
            func = _called(obj)
            params = _defaults(func) if func is not None else {}
            if params:
                unvaried[func.__code__] = params
    used = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        used.add(frame.f_code)
        params = unvaried.get(frame.f_code)
        if params:
            args = frame.f_locals
            varied = [n for n, d in params.items()
                      if (args[n[2:]] if n.startswith("**") else not _is_default(args[n], d))]
            for name in varied:
                del params[name]

    previous = sys.getprofile()
    try:
        for slot in slots:
            setattr(slot.__objclass__, slot.__name__, _Recorded(slot, used))
        sys.setprofile(profile)
        run()
    finally:
        sys.setprofile(previous)
        for slot in slots:
            setattr(slot.__objclass__, slot.__name__, slot)
    return used, unvaried


def _unused(modules, used: set, unvaried: dict, allowed) -> list[str]:
    """``module: key`` of each public definition of ``modules`` that no run entered
    (for a field: read), and ``module: key(param)`` of each parameter ``unvaried``
    holds for an entered one, unless ``allowed`` holds that key."""
    found = []
    for module in modules:
        prefix = module.__name__.rpartition(".")[2]
        for key, obj in _public_definitions(module):
            if used.isdisjoint(_codes(obj)):
                keys = [key]
            else:
                params = unvaried.get(getattr(_called(obj), "__code__", None), ())
                keys = [f"{key}({name})" for name in params]
            found += [f"{prefix}: {k}" for k in keys if k not in allowed]
    return found


# Kept although no run enters or varies them, each with its reason.
_TEST_ONLY_ALLOWED = {
    "CriterionResult.detail": "read by the benchmark's reproduce pass, which the guard does not run",
    "Record.__setattr__": "the immutability guard: runs only when code tries to assign a field",
    "Record.__delattr__": "the immutability guard: runs only when code tries to delete a field",
    "Record.__reduce_ex__": "refuses pickle and copy: runs only when code tries to pickle or copy a record",
    "run_all(seed)": "set by verify --seed",
    "run_all(only)": "set by verify --criteria",
    "ExperimentConfig(seed)": "set by run --seed or a config file's seed",
    "cartesian_measure_sz(free_p1)": "set by the cartesian-spins parameter free_p1",
    "basis_audit(**params)": "the shared _criterion wrapper's run: c1-c10 take budget overrides through it, "
                             "the audit has none to take",
    "operator_from_direction(e0)": "operator_of passes a shifted observable's offset; a check row "
                                   "for it would change the pinned run_all() records",
    **dict.fromkeys(["WeightedEigenstateSum.terms", "Trajectory.matrices", "integrate_bloch",
                     "interference_trajectory(n_steps)", "SubstateEnsemble.__len__", "SubstateEnsemble.probs",
                     "SubstateEnsemble.state_index"], "read only by perfbench; ROADMAP item 2"),
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

    # importing __main__ would run the command line
    modules = [importlib.import_module(f"ensembleq.{path.stem}")
               for path in sorted(Path(ensembleq.__file__).parent.glob("*.py"))
               if path.stem not in ("__init__", "__main__")]
    used, unvaried = _trace(run, modules)
    assert _unused(modules, used, unvaried, _TEST_ONLY_ALLOWED) == []


_PLANTED = """
from ensembleq.validate import Record, ValueRecord


def used():
    tuned(0, 2, same=None)
    shown = Shown(1)
    return Built(1).read() + Built(2).purity, repr(shown), shown == Shown(2), hash(shown)


def tuned(x, varied=1, same=None, **kw):
    pass


def orphan():
    pass


class Built(Record):
    __slots__ = ("x", "unread")

    def __init__(self, x):
        self._set(x, None)

    def read(self):
        return self.x

    @property
    def purity(self):
        return 1

    def orphan_method(self):
        pass

    @property
    def orphan_property(self):
        pass

    @staticmethod
    def orphan_static():
        pass

    def __le__(self, other):
        pass

    def __hash__(self):
        pass

    def _private(self):
        pass


class Shown(ValueRecord):
    __slots__ = ("shown",)

    def __init__(self, shown):
        self._set(shown)


class Other:
    @property
    def purity(self):
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
    used, unvaried = _trace(module.used, [module])
    # a field read only through repr, == or hash is as unused as one nobody reads
    assert _unused([module], used, unvaried, set()) == [
        "planted: tuned(same)", "planted: tuned(**kw)", "planted: orphan", "planted: Built.unread",
        "planted: Built.orphan_method", "planted: Built.orphan_property",
        "planted: Built.orphan_static", "planted: Built.__le__", "planted: Shown.shown",
        "planted: Other.purity", "planted: Unbuilt"]
    allowed = {"orphan", "Built.orphan_method", "Built.orphan_property", "tuned(same)", "Unbuilt",
               "Shown.shown"}
    assert _unused([module], used, unvaried, allowed) == [
        "planted: tuned(**kw)", "planted: Built.unread", "planted: Built.orphan_static",
        "planted: Built.__le__", "planted: Other.purity"]
    # the run leaves the slot descriptors as it found them
    assert all(type(vars(module.Built)[k]) is types.MemberDescriptorType for k in module.Built.__slots__)
    assert _unused([module], set(), {}, set())[:3] == ["planted: used", "planted: tuned", "planted: orphan"]


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
