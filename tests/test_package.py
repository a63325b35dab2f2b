"""Package-wide source checks."""

import ast
import json
import os
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
    # sampler workers live for one call: importing the package leaves no
    # thread behind, forks nothing, leaves the BLAS thread count as it found
    # it, and no executor module is paid for at every start
    script = (
        "import os, sys, threading\n"
        "forks, fork = [], os.fork\n"
        "os.fork = lambda: forks.append(1) or fork()\n"
        "import framecrypt.cli\n"
        "from framecrypt import linalg\n"
        "print('concurrent.futures' in sys.modules, threading.active_count(), len(forks), linalg.blas_threads())\n"
    )
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True, text=True, timeout=60, env=env)
    *started, threads = proc.stdout.split()
    assert started == ["False", "1", "0"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert threads in ("None", str(min(2, cpus)))  # OpenBLAS caps the count at the CPUs
