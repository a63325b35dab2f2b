"""Package-wide source checks."""

import ast
from pathlib import Path

import framecrypt

SOURCES = sorted(Path(framecrypt.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # invariants must hold under python -O, which strips assert statements
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []


def test_no_unbounded_while_loops():
    # every loop must end on its own data: a `while True` runs without limit
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.While) and isinstance(node.test, ast.Constant) and node.test.value
    ]
    assert found == []
