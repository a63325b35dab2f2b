"""The rotation-averaging (twirl) channel on N qubits.

Averaging rho over identical single-qubit rotations applied to every qubit
kills coherences between different total-spin blocks and replaces the
rotation factor of each block by the maximally mixed state:

    E(rho) = sum_j (I / (2j+1)) (x) tr_R[ block_j(rho) ].

`twirl_block` implements this exactly in the coupled basis; `twirl_oracle`
implements the defining average by numerical quadrature over the rotation
group, which is exact (to roundoff) once the grids resolve the band limit of
the integrand.  The two must agree, and the test suite holds them to that.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from framecrypt.linalg import kron_power, partial_trace
from framecrypt.repkit import block_layout, rotation_su2
from framecrypt.workspace import WorkingSpace, workspace_vector


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes for the rotation average: uniform in alpha and gamma,
    Gauss-Legendre in cos(beta)."""

    n_alpha: int
    n_beta: int
    n_gamma: int

    @classmethod
    def for_qubits(cls, n: int) -> "QuadratureSpec":
        return cls(2 * n + 2, n + 2, 2 * n + 2)

    def is_sufficient(self, n: int) -> bool:
        """True when the product rule is exact for an n-qubit integrand."""
        return self.n_alpha >= 2 * n + 1 and self.n_gamma >= 2 * n + 1 and self.n_beta >= n + 1


def su2_quadrature(spec: QuadratureSpec):
    """Nodes (alpha, beta, gamma) and weights for the normalized average."""
    if min(spec.n_alpha, spec.n_beta, spec.n_gamma) < 1:
        raise ValueError("quadrature sizes must be positive")
    alphas = 2 * math.pi * np.arange(spec.n_alpha) / spec.n_alpha
    gammas = 2 * math.pi * np.arange(spec.n_gamma) / spec.n_gamma
    x, wx = np.polynomial.legendre.leggauss(spec.n_beta)
    betas = np.arccos(x)
    w_beta = wx / 2.0  # sin(beta) d(beta) / 2 becomes d(cos beta) / 2
    return alphas, betas, w_beta, gammas


def _infer_qubits(dim: int) -> int:
    n = dim.bit_length() - 1
    if dim < 4 or 2**n != dim:
        raise ValueError(f"operator dimension {dim} is not 2^n for n >= 2")
    if n % 2:
        raise ValueError(f"operator dimension {dim} implies an odd qubit count")
    return n


@dataclass
class BlockState:
    """An operator stored block-by-block in the coupled basis.

    ``blocks`` maps two_j to the (dim_r*dim_p) square block; every coherence
    between different blocks is zero.
    """

    n: int
    blocks: dict[int, np.ndarray]

    def trace(self) -> complex:
        return sum(np.trace(b) for b in self.blocks.values())

    def assemble(self) -> np.ndarray:
        dim = 2**self.n
        out = np.zeros((dim, dim), dtype=complex)
        layout = {b.two_j: b for b in block_layout(self.n)}
        for tj, blk in self.blocks.items():
            s = layout[tj].span
            out[s, s] = blk
        return out


def twirl_block(rho: np.ndarray, n: int | None = None) -> np.ndarray:
    """Exact channel action on a coupled-basis operator.

    Every cross-block coherence is erased and each block's rotation factor is
    replaced by the maximally mixed state; linear, trace preserving.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    n = _infer_qubits(rho.shape[0]) if n is None else n
    out = np.zeros_like(rho)
    for b in block_layout(n):
        s = b.span
        t = partial_trace(rho[s, s], b.dim_r, b.dim_p, "left")
        out[s, s] = np.kron(np.eye(b.dim_r) / b.dim_r, t)
    return out


def twirl(rho: np.ndarray, transform) -> np.ndarray:
    """Channel action on a computational-basis operator, via the coupled basis."""
    v = transform.matrix
    return v @ twirl_block(v.conj().T @ rho @ v, transform.n) @ v.conj().T


def twirl_oracle(rho: np.ndarray, n_qubits: int | None = None, quad: QuadratureSpec | None = None) -> np.ndarray:
    """The defining average of the channel, by quadrature (computational basis).

    Accepts a single operator or a stack (..., 2^n, 2^n); the average is taken
    over the same grid for every element of the stack.  Undersized grids give
    an approximate answer and raise a warning rather than an error.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected square operator(s), got shape {rho.shape}")
    n = _infer_qubits(rho.shape[-1]) if n_qubits is None else n_qubits
    if quad is None:
        quad = QuadratureSpec.for_qubits(n)
    if not quad.is_sufficient(n):
        warnings.warn(
            f"quadrature {quad} is below the band limit for n={n}; result is approximate",
            stacklevel=2,
        )
    alphas, betas, w_beta, gammas = su2_quadrature(quad)
    out = np.zeros_like(rho)
    base_w = 1.0 / (quad.n_alpha * quad.n_gamma)
    for b, wb in zip(betas, w_beta):
        for a in alphas:
            for g in gammas:
                r = kron_power(rotation_su2((a, b, g)), n)
                out += (base_w * wb) * (r @ rho @ r.conj().T)
    return out


# ---------------------------------------------------------------------------
# the channel on the working space
# ---------------------------------------------------------------------------

def reduced_blocks(v: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """Per-block reduced operators T = a^T conj(a) of working-space coordinates.

    ``v`` has shape (..., K); block i of it, seen as a D x D_alpha matrix a
    (kept rotation rows by kept paths), gives the rotation-traced operator
    T_i on the kept paths.  The result has shape (..., |Y|, D_alpha, D_alpha).
    """
    a = ws.blocks(v)
    return np.swapaxes(a, -1, -2) @ a.conj()


def reduced_map_f(phi: np.ndarray, ws: WorkingSpace) -> np.ndarray:
    """Multiplicity-space output of the channel for a working-space vector.

    For each kept block, trace out the rotation factor of the projected
    state; the direct sum over Y is a density matrix on the d_p-dimensional
    kept multiplicity space and carries all the distinguishability the
    channel leaves behind.
    """
    t = reduced_blocks(workspace_vector(phi, ws), ws)
    nb, da = len(ws.y), ws.d_alpha
    out = np.zeros((nb, da, nb, da), dtype=complex)
    out[np.arange(nb), :, np.arange(nb), :] = t
    return out.reshape(ws.d_p, ws.d_p)


def reference_states(ws: WorkingSpace) -> tuple[BlockState, np.ndarray]:
    """The channel's reference output and its multiplicity-space reduction.

    The first element is the full-register state (as a BlockState over the
    kept blocks): in each block j of Y, maximally mixed on the whole rotation
    factor tensored with maximally mixed on the kept paths, weighted 1/|Y| so
    the total trace is one.  The second is its reduction, the maximally mixed
    state on the kept multiplicity space.
    """
    layout = {b.two_j: b for b in block_layout(ws.n)}
    blocks: dict[int, np.ndarray] = {}
    for tj in ws.y:
        b = layout[tj]
        p = np.zeros((b.dim_p, b.dim_p))
        p[np.diag_indices(ws.d_alpha)] = 1.0 / ws.d_p  # the kept paths come first
        blocks[tj] = np.kron(np.eye(b.dim_r) / b.dim_r, p).astype(complex)
    varrho = np.eye(ws.d_p, dtype=complex) / ws.d_p
    return BlockState(n=ws.n, blocks=blocks), varrho


def twirl_working_state(phi: np.ndarray, ws: WorkingSpace) -> BlockState:
    """Channel output E(|phi><phi|) for a working-space vector, block form.

    Blocks outside Y vanish; each kept block is materialized on the full
    (2j+1) * multiplicity space.
    """
    v = workspace_vector(phi, ws)
    layout = {b.two_j: b for b in block_layout(ws.n)}
    da = ws.d_alpha
    blocks: dict[int, np.ndarray] = {}
    for tj, a in zip(ws.y, ws.blocks(v)):
        b = layout[tj]
        t = np.zeros((b.dim_p, b.dim_p), dtype=complex)
        t[:da, :da] = a.T @ a.conj()  # the kept paths are the first d_alpha
        blocks[tj] = np.kron(np.eye(b.dim_r) / b.dim_r, t)
    return BlockState(n=ws.n, blocks=blocks)
