"""Module boundaries: no module of the package imports another's private
names, and no reference implementation under tests/ (naive_*.py) imports a
private name of the package, so each stays an independent oracle.  No
module rebinds a global either: process-wide state lives in caches."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ascart"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("naive_*.py")),
                         ids=lambda path: path.name)
def test_no_private_import_across_modules(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"line {node.lineno}: {node.module or '.'} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "ascart")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_global_statement(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rebound = [f"line {node.lineno}: global {', '.join(node.names)}"
               for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert not rebound
