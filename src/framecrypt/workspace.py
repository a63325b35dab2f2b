"""The truncated working space used for encoding.

Out of the full register, keep the blocks with total spin j in
Y = {j_min, ..., N/2 - 1}, where j_min defaults to the integer nearest N/3
(ties round up; never an issue for even N).  Within each kept block, keep a
D = 2*j_min + 1 dimensional slice of the rotation factor (the highest-m rows)
and a D_alpha = floor(D / alpha) dimensional slice of the multiplicity factor
(the lexicographically first coupling paths), for a tuning parameter
alpha > 1.  The resulting space has dimension K = |Y| * D * D_alpha and grows
like (2/27) N^3 / alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from framecrypt.linalg import check_limit
from framecrypt.repkit import (
    DENSE_QUBIT_LIMIT,
    block_layout,
    couple_paths,
    dim_irrep,
    dim_multiplicity,
    irrep_labels,
)

# squared norm a coupled-basis vector may carry outside the working space
LEAK_TOL = 1e-10


def default_two_j_min(n: int) -> int:
    """Twice the integer nearest to n/3, ties rounded up."""
    return 2 * ((2 * n + 3) // 6)


@dataclass(frozen=True)
class WorkingSpace:
    """Dimensions and index maps of the kept subspace.

    Coordinates are ordered block-major over two_j ascending through ``y``;
    inside a block the kept rotation rows (m descending from j) are the slow
    axis and the kept paths the fast axis.
    """

    n: int
    alpha: float
    two_j_min: int
    y: tuple[int, ...]
    d: int
    d_alpha: int
    k: int
    # dense coupled-basis positions; None once 2^n outgrows int64 addressing
    embed_positions: np.ndarray | None = field(repr=False, compare=False)

    @property
    def d_p(self) -> int:
        """Dimension |Y| * D_alpha of the kept multiplicity space."""
        return len(self.y) * self.d_alpha

    def blocks(self, v: np.ndarray) -> np.ndarray:
        """View of coordinates (..., K) as (..., |Y|, D, D_alpha).

        Axis -3 runs over the kept blocks in ``y`` order, axis -2 over the
        kept rotation rows and axis -1 over the kept paths; for a contiguous
        ``v`` the result is a view, so writing into it writes into ``v``.
        """
        v = np.asarray(v)
        return v.reshape(v.shape[:-1] + (len(self.y), self.d, self.d_alpha))

    def descriptor(self) -> dict:
        """JSON-ready summary (no arrays)."""
        return {
            "n": self.n,
            "alpha": self.alpha,
            "j_min": self.two_j_min // 2,
            "y": [tj // 2 for tj in self.y],
            "d": self.d,
            "d_alpha": self.d_alpha,
            "k": self.k,
            "d_p": self.d_p,
            "multiplicities": {str(tj // 2): dim_multiplicity(self.n, tj) for tj in self.y},
        }


def build_working_space(n: int, alpha: float, two_j_min: int | None = None) -> WorkingSpace:
    """Construct the working space for n qubits at truncation parameter alpha."""
    irrep_labels(n)  # refuses an odd n or one above QUBIT_LIMIT before any other check
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    tjm = default_two_j_min(n) if two_j_min is None else int(two_j_min)
    if tjm % 2 != 0 or tjm < 0:
        raise ValueError(f"two_j_min must be an even nonnegative integer for even n, got {tjm}")
    if tjm >= n:
        raise ValueError(f"j_min={tjm / 2} leaves no blocks below j={n / 2}")

    y = tuple(range(tjm, n, 2))
    d = dim_irrep(tjm)
    d_alpha = math.floor(d / alpha)
    if d_alpha < 1:
        raise ValueError(f"alpha={alpha} truncates the multiplicity slice to zero (d={d})")
    layout = {b.two_j: b for b in block_layout(n)}
    kept = [layout[tj] for tj in y]
    for b in kept:
        if d_alpha > b.dim_p:
            raise ValueError(
                f"block j={b.two_j / 2} has multiplicity {b.dim_p} < d_alpha={d_alpha}"
            )
    k = len(y) * d * d_alpha

    if n <= 62:  # 2^n addressable by int64; beyond that only the arithmetic is usable
        offset = np.array([b.offset for b in kept], dtype=np.int64)[:, None, None]
        dim_p = np.array([b.dim_p for b in kept], dtype=np.int64)[:, None, None]
        m_idx = np.arange(d, dtype=np.int64)[:, None]
        positions = (offset + m_idx * dim_p + np.arange(d_alpha, dtype=np.int64)).reshape(k)
    else:
        positions = None
    return WorkingSpace(
        n=n,
        alpha=float(alpha),
        two_j_min=tjm,
        y=y,
        d=d,
        d_alpha=d_alpha,
        k=k,
        embed_positions=positions,
    )


def asymptotic_k(n: int, alpha: float) -> float:
    """Leading-order size (2/27) n^3 / alpha of the working space."""
    return 2.0 * n**3 / (27.0 * alpha)


def embed_state(v: np.ndarray, ws: WorkingSpace, target: str = "coupled") -> np.ndarray:
    """Isometrically place a working-space vector into the full register.

    ``target`` selects the coupled basis (default) or the computational
    basis; the latter couples only the D_alpha kept paths of each kept block
    and is refused above DENSE_QUBIT_LIMIT qubits.  It adds each path's kept
    rotation columns times that path's coordinates as the coupling walk hands
    the path over, so no block's (2^n, 2j+1, D_alpha) column stack is built.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (ws.k,):
        raise ValueError(f"expected a length-{ws.k} coordinate vector, got shape {v.shape}")
    if target == "computational":
        check_limit(ws.n, DENSE_QUBIT_LIMIT, "a dense computational embedding", "qubits")
        out = np.zeros(2**ws.n, dtype=complex)
        for two_j, coords in zip(ws.y, ws.blocks(v)):
            for p, mat in enumerate(couple_paths(ws.n, two_j, ws.d_alpha)):
                out += mat[:, : ws.d] @ coords[:, p]
        return out
    if target != "coupled":
        raise ValueError("target must be 'coupled' or 'computational'")
    if ws.embed_positions is None:
        raise ValueError(f"register of 2^{ws.n} amplitudes is too large to embed densely")
    out = np.zeros(2**ws.n, dtype=complex)
    out[ws.embed_positions] = v
    return out


def restrict_state(vec: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """Inverse of :func:`embed_state` on its image (coupled-basis input).

    Raises if the vector has more than LEAK_TOL of its squared norm outside
    the working space.
    """
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (2**ws.n,):
        raise ValueError(f"expected a coupled-basis vector of length {2**ws.n}")
    if ws.embed_positions is None:
        raise ValueError(f"register of 2^{ws.n} amplitudes is too large to restrict densely")
    v = vec[ws.embed_positions]
    leak = float(np.linalg.norm(vec) ** 2 - np.linalg.norm(v) ** 2)
    if leak > LEAK_TOL:
        raise ValueError(f"vector leaks {leak} squared norm outside the working space")
    return v


def workspace_vector(phi: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """The K working-space coordinates of a state, as a complex vector.

    The one shape check behind f_eval, reduced_map_f and twirl_working_state:
    any other length, a coupled-basis vector included, is refused.
    """
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != (ws.k,):
        raise ValueError(f"state must be K={ws.k} working-space coordinates, got shape {phi.shape}")
    return phi
