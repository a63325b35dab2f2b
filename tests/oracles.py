"""Helpers only the tests call: rotation draws, a full Haar unitary draw,
index maps, a brute-force enumeration of coupling histories, a partial trace
by summation and the exact mean of f at D_alpha = 1, each independent of the
code it checks."""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

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
    rng = np.random.default_rng(seed)
    return EulerAngles(
        rng.uniform(0.0, 2 * math.pi),
        math.acos(rng.uniform(-1.0, 1.0)),
        rng.uniform(0.0, 2 * math.pi),
    )


def full_haar_unitary(dim: int, seed, size: int | None = None) -> np.ndarray:
    """A dim x dim Haar unitary (a stack of ``size`` with size given), drawn as
    the package drew every Haar matrix before it drew columns only: the QR of
    a square complex Ginibre matrix, R's diagonal phases absorbed into Q."""
    rng = np.random.default_rng(seed)
    shape = (dim, dim) if size is None else (int(size), dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


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


def partial_trace_by_summation(rho, dim_left, dim_right):
    """Trace out the left factor of an operator on C^dim_left (x) C^dim_right
    by element-wise index summation, no reshapes: the definition, slowly."""
    out = np.zeros((dim_right, dim_right), dtype=complex)
    for s in range(dim_right):
        for t in range(dim_right):
            for a in range(dim_left):
                out[s, t] += rho[a * dim_right + s, a * dim_right + t]
    return out


def exact_mean_f(ws: WorkingSpace) -> float:
    """E f for a Haar-random state of a working space with D_alpha = 1.

    The weights of the m = |Y| blocks of D coordinates are Dirichlet(D, ..., D)
    (Zyczkowski & Sommers, J. Phys. A 34 (2001) 7111), so each is
    Beta(a, b) with a = D, b = (m - 1)D and mean 1/m, and f is the sum of
    their distances from 1/m.  The mean absolute deviation of Beta(a, b) is
    2 a^a b^b / (B(a, b) (a + b)^(a + b + 1)) (Johnson, Kotz & Balakrishnan,
    Continuous Univariate Distributions, vol. 2, ch. 25), so
    E f = m * that, here in logarithms through math.lgamma.
    """
    if ws.d_alpha != 1:
        raise ValueError(f"the closed form needs D_alpha = 1, got {ws.d_alpha}")
    m, a = len(ws.y), ws.d
    b = (m - 1) * a
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    log_mad = math.log(2.0) + a * math.log(a) + b * math.log(b) - (a + b + 1) * math.log(a + b) - log_beta
    return m * math.exp(log_mad)
