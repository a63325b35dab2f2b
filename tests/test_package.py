"""Package-wide source checks."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--command", "lipschitz", "--n", "12", "--samples", "50", "--seed", "3"], 0),
        (["--command", "twirl-check", "--n", "8", "--samples", "1000000"], 1),
    ],
    ids=["lipschitz", "over-the-limit"],
)
def test_cli_behaves_the_same_under_python_O(argv, code):
    # python -O strips asserts: no check, limit or result may rest on one
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "framecrypt.cli", *argv], capture_output=True, timeout=60)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == optimized.returncode == code
    assert optimized.stdout == plain.stdout
    if code:
        assert json.loads(optimized.stderr) == json.loads(plain.stderr)


def test_importing_the_cli_starts_no_thread_and_loads_no_executor():
    # sampler threads live for one call: importing the package leaves none
    # behind, and no executor module is paid for at every start
    script = (
        "import sys, threading\n"
        "import framecrypt.cli\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False", "1"]
