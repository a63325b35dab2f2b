"""Lets the suite run from a checkout with no install: pytest puts ``src`` on
sys.path (``pythonpath`` in pyproject.toml), and the tests that start
``python -m framecrypt.cli`` or ``python -c`` in a child process inherit it
through PYTHONPATH."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, _paths)])
