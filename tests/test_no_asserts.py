"""The package's invariants are real checks: no ``assert`` statement, which ``python -O`` strips."""

import ast
import pathlib

import pytest

import multinet

MODULES = sorted(pathlib.Path(multinet.__file__).parent.rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"
