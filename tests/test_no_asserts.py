"""The package's invariants are real checks: no ``assert`` statement, which ``python -O`` strips.

And the library modules raise only library errors: every ``raise`` names a
``MultinetError`` subclass that the module defines or imports, or an error
class handed to a checker as a parameter annotated ``type[MultinetError]``,
or re-raises.  ``cli`` is left out: its value parsers raise ``ValueError``,
which ``parse_config`` turns into a ``ConfigError``.
"""

import ast
import importlib
import pathlib

import pytest

import multinet
from multinet import MultinetError

MODULES = sorted(pathlib.Path(multinet.__file__).parent.rglob("*.py"))
LIBRARY = ["blocks", "graphstate", "hashing", "noise", "schemes"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


def _raises(node, error_params=frozenset()):
    """Each ``raise`` under ``node``, with the error-class parameters of the function it is in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
            params = {a.arg for a in args if a.annotation and ast.unparse(a.annotation) == "type[MultinetError]"}
            yield from _raises(child, frozenset(params))
            continue
        if isinstance(child, ast.Raise):
            yield child, error_params
        yield from _raises(child, error_params)


@pytest.mark.parametrize("name", LIBRARY)
def test_module_raises_only_library_errors(name):
    module = importlib.import_module(f"multinet.{name}")
    tree = ast.parse(pathlib.Path(module.__file__).read_text(), filename=module.__file__)
    bad = []
    for node, error_params in _raises(tree):
        if node.exc is None:
            continue  # a bare re-raise
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in error_params:
            continue
        named = getattr(module, exc.id, None) if isinstance(exc, ast.Name) else None
        if not (isinstance(named, type) and issubclass(named, MultinetError)):
            bad.append(node.lineno)
    assert not bad, f"{name} raises something other than a MultinetError on lines {bad}"
