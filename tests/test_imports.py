"""Module boundaries inside the cagewarp package.

A name that starts with an underscore is private to its module, so no
module may import one from a sibling; what a sibling needs becomes a
public name of the module that owns it. A module also uses every name it
imports: a name kept only so that code outside the package can find it
there hides a dependency, and goes. Likewise a module-level private
function or class that its own module never references is dead code, and
two functions with one body are one function defined twice.
"""

import ast
import copy
import importlib
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "cagewarp")
                 .glob("*.py"))


def _private_imports(path):
    """(line, module, name) of each underscore name imported from a
    sibling module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith(
            "cagewarp")
        found += [(node.lineno, node.module, alias.name)
                  for alias in node.names
                  if sibling and alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_name_imported_from_a_sibling(path):
    assert _private_imports(path) == []


def test_the_check_sees_a_private_import(tmp_path):
    assert "splats.py" in [path.name for path in MODULES]
    module = tmp_path / "m.py"
    module.write_text("from .splats import GaussianCloud, _parse_header\n"
                      "from cagewarp.mvc import _spherical_triangle\n"
                      "from os.path import _get_sep\n")
    assert _private_imports(module) == [
        (1, "splats", "_parse_header"),
        (2, "cagewarp.mvc", "_spherical_triangle")]


def _unused_imports(path):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            imported += [(node.lineno,
                          alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "import numpy as np\n"
                      "from .mvc import deform_points, mvc_weights\n"
                      "print(os.sep, mvc_weights)\n")
    assert _unused_imports(module) == [(3, "np"), (4, "deform_points")]


def _unreferenced_private_definitions(path):
    """(line, name) of each module-level private function or class that
    its module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = [(node.lineno, node.name) for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_")
               and not node.name.startswith("__")]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in defined if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_definition_is_referenced(path):
    assert _unreferenced_private_definitions(path) == []


def test_the_check_sees_an_unreferenced_private_definition(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def _used():\n"
                      "    return 1\n"
                      "def _dead():\n"
                      "    return _used()\n"
                      "class _Unused:\n"
                      "    def _method(self):\n"
                      "        pass\n"
                      "def __getattr__(name):\n"
                      "    raise AttributeError(name)\n"
                      "def public():\n"
                      "    pass\n")
    assert _unreferenced_private_definitions(module) == [
        (3, "_dead"), (5, "_Unused")]


def _body_key(function):
    """The function's body as an AST dump, its docstring dropped and its
    arguments renamed by position."""
    args = function.args
    position = {arg.arg: f"_{i}" for i, arg in enumerate(
        [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
         args.kwarg]) if arg is not None}
    body = function.body
    if ast.get_docstring(function) is not None:
        body = body[1:]
    module = copy.deepcopy(ast.Module(body=body, type_ignores=[]))
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            node.id = position.get(node.id, node.id)
    return ast.dump(module)


def _duplicated_bodies(paths):
    """Groups of (module, line, name) of the functions, nested ones and
    methods included, that share one body."""
    groups = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                groups.setdefault(_body_key(node), []).append(
                    (path.name, node.lineno, node.name))
    return [group for group in groups.values() if len(group) > 1]


def test_no_two_functions_share_a_body():
    assert _duplicated_bodies(MODULES) == []


def test_the_check_sees_a_duplicated_body(tmp_path):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text("def norm2(v):\n"
                     "    \"\"\"Squared length.\"\"\"\n"
                     "    return v[0] * v[0] + v[1] * v[1]\n"
                     "def step(x):\n"
                     "    return x + 1\n")
    second.write_text("def outer():\n"
                      "    def _length_sq(w):\n"
                      "        return w[0] * w[0] + w[1] * w[1]\n"
                      "    return _length_sq\n"
                      "def step(x):\n"
                      "    return x - 1\n"
                      "def norm2(v):\n"
                      "    return v[0] * v[0] + v[1] * v[2]\n")
    assert _duplicated_bodies([first, second]) == [
        [("a.py", 1, "norm2"), ("b.py", 2, "_length_sq")]]


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _missing_wrapped_names(path):
    """module.name of each entry of a tracer's WRAPPED table that its
    module does not define; the table is read from source, not run."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED"
                for t in node.targets):
            return [f"{module.value}.{name.value}"
                    for module, names in zip(node.value.keys,
                                             node.value.values)
                    for name in names.keys
                    if not hasattr(importlib.import_module(module.value),
                                   name.value)]
    raise AssertionError(f"no WRAPPED table in {path}")


def test_every_name_the_tracer_wraps_exists():
    # perfbench/tracing.py swaps these names for wrappers by getattr, so
    # one that goes would otherwise fail deep inside the benchmark's
    # self-test.
    missing = _missing_wrapped_names(TRACING)
    assert missing == [], (
        f"perfbench/tracing.py wraps {missing}, which the package no "
        "longer defines; keep the names, or change the tracer together "
        "with the benchmark")


def test_the_check_sees_a_missing_wrapped_name(tmp_path):
    tracer = tmp_path / "tracing.py"
    tracer.write_text("WRAPPED = {\n"
                      "    'cagewarp.transport': {'mvc_weights': _pairs,\n"
                      "                           'deform_points': None},\n"
                      "    'cagewarp.mvc': {'no_such_name': None},\n"
                      "}\n")
    assert _missing_wrapped_names(tracer) == [
        "cagewarp.transport.deform_points", "cagewarp.mvc.no_such_name"]


ROOT = Path(__file__).resolve().parents[1]
CALLERS = sorted(path for folder in ("src", "perfbench", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def _unpassed_defaults(modules, callers):
    """(module, line, function, parameter) of each defaulted parameter
    that no call in callers passes, by keyword or by position. Calls are
    matched by name (a class name for __init__), methods count positions
    after self, a *args argument fills one position and a **kwargs
    argument passes every keyword."""
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                calls.setdefault(name, []).append(node)
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(item): node for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = owner.get(id(node))
            args = node.args
            positional = [*args.posonlyargs, *args.args][cls is not None:]
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in zip(
                args.kwonlyargs, args.kw_defaults) if default is not None]
            name = cls.name if cls and node.name == "__init__" else node.name
            for param, index in defaulted:
                if not any(
                        any(kw.arg in (param, None) for kw in call.keywords)
                        or (index is not None and index < len(call.args))
                        for call in calls.get(name, [])):
                    qualname = f"{cls.name}.{node.name}" if cls else node.name
                    found.append((path.name, node.lineno, qualname, param))
    return found


def test_every_defaulted_parameter_is_passed_somewhere():
    # A default that no caller overrides is a constant spelled as a
    # parameter: make it the function's rule.
    assert _unpassed_defaults(MODULES, CALLERS) == []


def test_the_check_sees_a_defaulted_parameter_nobody_passes(tmp_path):
    module, caller = tmp_path / "m.py", tmp_path / "use.py"
    module.write_text("def f(a, b=1, c=2, *, d=3, e=4):\n"
                      "    pass\n"
                      "def g(a=0, b=1):\n"
                      "    pass\n"
                      "def h(a=0):\n"
                      "    pass\n"
                      "class Box:\n"
                      "    def __init__(self, size, pad=0.0):\n"
                      "        pass\n"
                      "    def grow(self, by=1, fast=False):\n"
                      "        pass\n")
    caller.write_text("f(1, 2, e=5)\n"
                      "g(*range(2))\n"
                      "h(**{})\n"
                      "Box(3).grow(2)\n")
    assert _unpassed_defaults([module], [caller]) == [
        ("m.py", 1, "f", "c"), ("m.py", 1, "f", "d"), ("m.py", 3, "g", "b"),
        ("m.py", 8, "Box.__init__", "pad"),
        ("m.py", 10, "Box.grow", "fast")]


def _linalg_uses(path):
    """(line, name) of each use of a linalg module other than its norm:
    another attribute, the module itself as a value, or an import."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parent = {id(child): node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            use = parent.get(id(node))
            name = use.attr if isinstance(use, ast.Attribute) else None
            if name != "norm":
                found.append((node.lineno, f"linalg.{name}" if name
                              else "linalg"))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names
                      if "linalg" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name == "linalg"
                      or "linalg" in module and alias.name != "norm"]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_linalg_is_used_only_for_norm(path):
    # np.linalg.norm is a plain reduction. Every other linalg routine is
    # LAPACK, and the first call of one pages in its code: eigh's first
    # call added about 0.8 MB to a run's peak RSS, and the covariance
    # re-factoring was where two of the benchmark's workloads set their
    # peak. Closed forms on component arrays (cage.det3,
    # transport._jacobi_eigh) stand in.
    assert _linalg_uses(path) == []


def test_the_check_sees_a_linalg_use(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "a = np.linalg.norm(np.ones(3), axis=0)\n"
                      "w, v = np.linalg.eigh(np.eye(3))\n"
                      "solve = np.linalg\n"
                      "from numpy.linalg import det, norm\n"
                      "import scipy.linalg\n"
                      "from scipy import linalg\n")
    assert _linalg_uses(module) == [
        (3, "linalg.eigh"), (4, "linalg"), (5, "det"), (6, "scipy.linalg"),
        (7, "linalg")]


def _atleast_2d_uses(path):
    """Lines that use numpy's atleast_2d: as an attribute or an imported
    name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "atleast_2d"
             or isinstance(node, ast.ImportFrom) and any(
                 alias.name == "atleast_2d" for alias in node.names)]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_lifts_a_vector_to_a_point_array(path):
    # cage.as_points is the one rule for a point input, and it refuses a
    # lone (3,) vector; np.atleast_2d would let one in where the rest
    # refuse it.
    assert _atleast_2d_uses(path) == []


def test_the_check_sees_an_atleast_2d_use(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import numpy as np\n"
                      "a = np.atleast_2d([1.0, 2.0, 3.0])\n"
                      "b = np.atleast_3d(a)\n"
                      "from numpy import atleast_1d, atleast_2d\n"
                      "lift = numpy.atleast_2d\n")
    assert _atleast_2d_uses(module) == [2, 4, 5]
