"""Package-wide source checks."""

import ast
import importlib
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


def test_every_allclose_passes_rtol():
    # numpy's default rtol=1e-5 widens an absolute tolerance unseen: with it,
    # allclose(1 + 5e-6, 1, atol=1e-10) holds.  math.isclose names it rel_tol
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("allclose", "isclose")
        and len(node.args) < 3
        and not {"rtol", "rel_tol"} & {kw.arg for kw in node.keywords}
    ]
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


def test_every_module_constant_is_read():
    # a deleted path must not leave its knob behind: every module-level
    # UPPER_CASE name the package assigns is loaded somewhere in it, by name
    # or as an attribute, not only named in a comment or a docstring
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    constants = {
        target.id
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert len(constants) >= 20
    assert sorted(constants - loaded) == []


def test_every_private_function_is_called():
    # a deletion must not leave its helper behind: every module-level _name
    # function or class the package defines is loaded or imported by name
    # somewhere in it, not only in the tests
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    private = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
    }
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
    assert len(private) >= 40
    assert sorted(private - used) == []


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


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.is_file(), reason="no perfbench/ beside tests/")
def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer looks each target up with getattr and no default, and reads
    # .matrix and .n_points off the returns of schur_transform and
    # build_eps_net: a traced benchmark run breaks when one of them goes
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    names = [(home, func) for home, funcs in targets for func in funcs]
    assert len(names) == 27
    missing = [f"{home}.{func}" for home, func in names if not callable(getattr(importlib.import_module(home), func, None))]
    assert missing == []
    assert framecrypt.schur_transform(2).matrix.shape == (4, 4)
    assert framecrypt.build_eps_net(2, 0.6, 0).n_points > 0
