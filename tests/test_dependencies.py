"""The package imports nothing beyond the standard library and numpy."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "adscmc"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
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
