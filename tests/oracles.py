"""Helpers only the tests call: rotation draws, index maps and a brute-force
enumeration of coupling histories, each independent of the code it checks."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from framecrypt.linalg import as_rng
from framecrypt.repkit import CoupledIndex
from framecrypt.workspace import WorkingSpace


class EulerAngles(NamedTuple):
    """zyz rotation angles: alpha, gamma in [0, 2*pi), beta in [0, pi]."""

    alpha: float
    beta: float
    gamma: float


def random_euler(seed) -> EulerAngles:
    """Angles of a rotation drawn from the invariant measure on the sphere.

    Uniform alpha and gamma, uniform cos(beta); this is the right measure for
    averaging conjugation actions, where the overall sign of u is irrelevant.
    """
    rng = as_rng(seed)
    return EulerAngles(
        rng.uniform(0.0, 2 * math.pi),
        math.acos(rng.uniform(-1.0, 1.0)),
        rng.uniform(0.0, 2 * math.pi),
    )


def embed_index(ws: WorkingSpace) -> tuple[CoupledIndex, ...]:
    """(two_j, two_m, path) of every working-space coordinate, in coordinate order."""
    return tuple(
        CoupledIndex(tj, tj - 2 * mi, pi)
        for tj in ws.y
        for mi in range(ws.d)
        for pi in range(ws.d_alpha)
    )


def enumerate_paths(n: int, two_j: int) -> list[tuple[int, ...]]:
    """All coupling histories of n qubits ending at two_j, by brute force.

    Every step sequence over {+1, -1} is generated in lexicographic order
    (+1 before -1) and kept when its partial sums stay >= 0 and end at two_j;
    no pruning, so the order does not come from the walk the library prunes.
    """
    return [
        steps
        for steps in itertools.product((1, -1), repeat=n)
        if min(itertools.accumulate(steps)) >= 0 and sum(steps) == two_j
    ]
