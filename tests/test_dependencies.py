"""The package imports nothing beyond the standard library and numpy,
no module of the package or of the tests imports a name it never reads,
no function of the package takes a parameter it never reads,
no module of the package imports another's private name,
no module reaches printf but through write_rows and read_rows,
no numerical threshold of the package is a bare literal,
every Tolerances field is read by the package outside config.py,
and every public name of the package is read by the package or listed
with the reason it is kept."""

import ast
import collections
import dataclasses
import pathlib
import sys

import pytest

from adscmc.config import Tolerances

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "adscmc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_and_numpy_are_imported(path):
    bad = [f"{path.name}:{line} imports {name}" for line, name in _imports(path)
           if name not in ALLOWED]
    assert not bad, bad


def _bound_names(tree):
    """(line, name) of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.partition(".")[0]


# __init__.py imports are the package API, read by its users, not by itself
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") \
    + sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_read(path):
    tree = _tree(path)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{path.name}:{line} imports {name}" for line, name in _bound_names(tree)
              if name not in read]
    assert not unused, unused


def _unread_parameters(path):
    """(line, function, parameter) of each parameter, self and cls aside,
    that its function's body never reads."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg):
                if arg is not None and arg.arg not in read | {"self", "cls"}:
                    yield node.lineno, node.name, arg.arg


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter no code reads invites callers to pass a value that
    # changes nothing, such as a tol that governs no threshold
    unread = [f"{path.name}:{line} {name}() never reads {arg}"
              for line, name, arg in _unread_parameters(path)]
    assert not unread, unread


def _private_imports(path):
    """(line, name) of every private name a relative import binds."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def test_no_module_imports_a_private_name():
    # a helper that another module needs is public under a public name
    hits = [f"{path.name}:{line} imports {name}" for path in sorted(SRC.glob("*.py"))
            for line, name in _private_imports(path)]
    assert not hits, hits


# the formatter's entry points; its tables and bounds stay its own
PRINTF_ENTRY_POINTS = {"write_rows", "read_rows"}


def test_printf_is_reached_only_through_its_entry_points():
    hits = [f"{path.name}:{node.lineno} imports {alias.name}"
            for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path))
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module == "printf"
            for alias in node.names if alias.name not in PRINTF_ENTRY_POINTS]
    assert not hits, hits


def _stray_thresholds(path):
    """(line, value) of each nonzero float literal below 1e-6 in size that
    is not part of a module-level assignment, which would name it."""
    tree = _tree(path)
    named = {id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
             for node in ast.walk(stmt)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is float \
                and 0.0 < abs(node.value) < 1e-6 and id(node) not in named:
            yield node.lineno, node.value


def test_small_thresholds_are_named():
    # Tolerances in config.py holds the thresholds a run may override;
    # any other one is a module constant whose comment gives its reason
    hits = [f"{path.name}:{line} uses {value!r}"
            for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
            for line, value in _stray_thresholds(path)]
    assert not hits, hits


def _is_tolerances(node):
    """Whether node names a Tolerances object: tol, DEFAULT_TOL or x.tol."""
    return (isinstance(node, ast.Name) and node.id in ("tol", "DEFAULT_TOL")) \
        or (isinstance(node, ast.Attribute) and node.attr == "tol")


def test_every_tolerance_is_read_by_the_package():
    # a field no gate reads is a --tol key that changes nothing; CLI flags
    # of the same name (args.pole) are not tolerance reads
    read = {node.attr for path in sorted(SRC.glob("*.py")) if path.name != "config.py"
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and _is_tolerances(node.value)}
    unread = [f.name for f in dataclasses.fields(Tolerances) if f.name not in read]
    assert not unread, unread


# public names that no code of the package reads, each with its reason;
# any other public name with no reader is either used or deleted
UNREAD_BY_THE_PACKAGE = {
    "second_form_residual": "timed by name in perfbench/spans.py",
    "lawson_shift_residual": "timed by name in perfbench/spans.py",
    "extract_weierstrass_data": "timed by name in perfbench/spans.py",
    "projected_gauss_minimal": "timed by name in perfbench/spans.py",
    "lax_matrices": "test oracle: the Lax coefficient pairs as 2x2 matrices",
    "null_coefficient": "test oracle: the coefficient of the null-leg system",
    "oracle_frame": "test oracle: closed-form frame legs of the gallery",
    "METRIC4": "test oracle: metric signs of the component representation",
    "METRIC3": "test oracle: metric signs of the Minkowski coordinates",
}


def _reads(node):
    """Every name node reads: loaded names, attributes and imported names."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.ImportFrom):
            yield from (alias.name for alias in n.names)


def _public_definitions(tree):
    """(name, statement) of each public function, class and constant a
    module defines at its top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("_"))


def test_public_names_are_read_by_the_package():
    # a public name that only tests reach is API nobody runs; the ones
    # kept on purpose are listed with their reason
    trees = [_tree(path) for path in MODULES if path.parent == SRC]
    read = collections.Counter(name for tree in trees for name in _reads(tree))
    unread = {name for tree in trees for name, stmt in _public_definitions(tree)
              if read[name] == collections.Counter(_reads(stmt))[name]}
    assert sorted(unread - UNREAD_BY_THE_PACKAGE.keys()) == [], "no reader in the package"
    assert sorted(UNREAD_BY_THE_PACKAGE.keys() - unread) == [], "listed, but read or gone"
