"""The rotation-averaging (twirl) channel on N qubits.

Averaging rho over identical single-qubit rotations applied to every qubit
kills coherences between different total-spin blocks and replaces the
rotation factor of each block by the maximally mixed state:

    E(rho) = sum_j (I / (2j+1)) (x) tr_R[ block_j(rho) ].

`twirl_block` implements this exactly in the coupled basis; `twirl_oracle`
implements the defining average by numerical quadrature over the rotation
group, which is exact (to roundoff) once the grids resolve the band limit of
the integrand.  The two must agree, and the test suite holds them to that.

The oracle evaluates the product rule through the Euler factorization
R(alpha, beta, gamma) = R(alpha, 0, 0) R(0, beta, 0) R(0, 0, gamma), the
separation of variables of SO(3) FFTs (Kostelec & Rockmore, 2008).  The
z-rotations are diagonal in the computational basis, so their averages over
the uniform alpha and gamma grids are entrywise phase masks.  Each mask comes
from one stacked Kronecker power of its axis's diagonals, and only the beta
nodes need a dense power, one per node: n_beta + 2 powers in all, each a
broadcast fold (:func:`framecrypt.linalg.kron_power`).  The beta powers stay
one node at a time, since a stack of them would hold n_beta 4^n entries.  The
identity is algebraic, so undersized grids give the same approximate answer
as the literal triple sum.  The oracle never uses the coupled basis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from framecrypt.linalg import check_limit, kron_power
from framecrypt.repkit import block_layout, rotation_su2
from framecrypt.workspace import WorkingSpace, workspace_vector


# nodes per axis; leggauss takes 0.2 s at this size and 7.5 s at four times it
QUADRATURE_LIMIT = 1024


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes for the rotation average: uniform in alpha and gamma,
    Gauss-Legendre in cos(beta)."""

    n_alpha: int
    n_beta: int
    n_gamma: int

    def __post_init__(self):
        for name, size in asdict(self).items():
            if size < 1:
                raise ValueError(f"quadrature size {name}={size} must be positive")
            check_limit(size, QUADRATURE_LIMIT, f"quadrature size {name}", "nodes")

    @classmethod
    def for_qubits(cls, n: int) -> "QuadratureSpec":
        return cls(2 * n + 2, n + 2, 2 * n + 2)

    def is_sufficient(self, n: int) -> bool:
        """True when the product rule is exact for an n-qubit integrand."""
        return self.n_alpha >= 2 * n + 1 and self.n_gamma >= 2 * n + 1 and self.n_beta >= n + 1


def su2_quadrature(spec: QuadratureSpec):
    """Nodes (alpha, beta, gamma) and weights for the normalized average."""
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

    def assemble(self) -> np.ndarray:
        dim = 2**self.n
        out = np.zeros((dim, dim), dtype=complex)
        layout = {b.two_j: b for b in block_layout(self.n)}
        for tj, blk in self.blocks.items():
            s = layout[tj].span
            out[s, s] = blk
        return out


def twirl_block(rho: np.ndarray) -> np.ndarray:
    """Exact channel action on a coupled-basis operator of shape (2^n, 2^n).

    Every cross-block coherence is erased and each block's rotation factor is
    replaced by the maximally mixed state; linear, trace preserving.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    out = np.zeros_like(rho)
    for b in block_layout(_infer_qubits(rho.shape[0])):
        s = b.span
        # each block is rotation (x) multiplicity, dim_r x dim_p: trace out the rotation factor
        t = np.einsum("asat->st", rho[s, s].reshape(b.dim_r, b.dim_p, b.dim_r, b.dim_p))
        out[s, s] = np.kron(np.eye(b.dim_r) / b.dim_r, t)
    return out


def twirl(rho: np.ndarray, transform) -> np.ndarray:
    """Channel action on a computational-basis operator, via the coupled basis."""
    v = transform.matrix
    return v @ twirl_block(v.conj().T @ rho @ v) @ v.conj().T


def _z_average_mask(rotations: list[np.ndarray], n: int) -> np.ndarray:
    """Mean of Z^(x)n X Z^(x)n-dagger over diagonal rotations Z, as a mask.

    Z^(x)n is diagonal with entries z, so conjugating X by it multiplies
    X[x, y] by z[x] conj(z[y]); the mean over the rotations is one entrywise
    mask M[x, y] = mean_t z_t[x] conj(z_t[y]).  The z of every rotation come
    from one Kronecker power of the (rotations, 1, 2) stack of diagonals.
    """
    z = kron_power(np.array([np.diagonal(r) for r in rotations])[:, None, :], n)[:, 0, :]
    return z.T @ z.conj() / len(rotations)


def twirl_oracle(rho: np.ndarray, quad: QuadratureSpec | None = None) -> np.ndarray:
    """The defining average of the channel, by quadrature (computational basis).

    Evaluates the product rule over the nodes and weights of
    :func:`su2_quadrature` through R(a, b, g) = R(a, 0, 0) R(0, b, 0) R(0, 0, g):

        out = (sum_b w_b Y_b (rho o M_gamma) Y_b^dagger) o M_alpha,

    where o is the entrywise product, M_alpha and M_gamma are the uniform-grid
    averages of the diagonal z-rotations (:func:`_z_average_mask`) and
    Y_b = R(0, b, 0)^(x)n.  This is the triple sum over (a, b, g) regrouped,
    so it holds on any grid.

    Accepts a single operator or a stack (..., 2^n, 2^n); the average is taken
    over the same grid for every element of the stack.  Undersized grids give
    an approximate answer and raise a warning rather than an error.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected square operator(s), got shape {rho.shape}")
    n = _infer_qubits(rho.shape[-1])
    if quad is None:
        quad = QuadratureSpec.for_qubits(n)
    if not quad.is_sufficient(n):
        warnings.warn(
            f"quadrature {quad} is below the band limit for n={n}; result is approximate",
            stacklevel=2,
        )
    alphas, betas, w_beta, gammas = su2_quadrature(quad)
    m_alpha = _z_average_mask([rotation_su2((a, 0.0, 0.0)) for a in alphas], n)
    m_gamma = _z_average_mask([rotation_su2((0.0, 0.0, g)) for g in gammas], n)
    inner = rho * m_gamma
    out = np.zeros_like(rho)
    for b, wb in zip(betas, w_beta):
        y = kron_power(rotation_su2((0.0, b, 0.0)), n)
        out += wb * (y @ inner @ y.conj().T)
    return out * m_alpha


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

    The d_p x d_p array returned owns its memory (it is not a view), so
    numpy may reuse it for the result of ``reduced_map_f(phi, ws) - ref``.
    """
    t = reduced_blocks(workspace_vector(phi, ws), ws)
    nb, da = len(ws.y), ws.d_alpha
    out = np.zeros((ws.d_p, ws.d_p), dtype=complex)
    out.reshape(nb, da, nb, da)[np.arange(nb), :, np.arange(nb), :] = t
    return out


def _kept_block_state(t: np.ndarray, ws: WorkingSpace) -> BlockState:
    """Full-register block form of a (|Y|, D_alpha, D_alpha) stack of
    multiplicity operators: kept block j is I/(2j+1) (x) (t_j (+) 0), with
    t_j on its first D_alpha paths (the kept ones); blocks outside Y vanish."""
    layout = {b.two_j: b for b in block_layout(ws.n)}
    blocks: dict[int, np.ndarray] = {}
    for tj, t_j in zip(ws.y, t):
        b = layout[tj]
        out = np.zeros((b.dim_r, b.dim_p, b.dim_r, b.dim_p), dtype=complex)
        # only the kept-path corner of kron(I/(2j+1), t_j (+) 0) is multiplied
        # out, off-diagonal zero factors included, so it keeps np.kron's
        # bits (signed zeros too); every other entry of the product is +0
        scale = np.eye(b.dim_r) / b.dim_r
        out[:, : ws.d_alpha, :, : ws.d_alpha] = scale[:, None, :, None] * t_j[:, None, :]
        blocks[tj] = out.reshape(b.dim_r * b.dim_p, b.dim_r * b.dim_p)
    return BlockState(n=ws.n, blocks=blocks)


def reference_states(ws: WorkingSpace) -> BlockState:
    """The channel's reference output, block form.

    The full-register state over the kept blocks: in each block j of Y,
    maximally mixed on the whole rotation factor tensored with maximally
    mixed on the kept paths, weighted 1/|Y| so the total trace is one.  Its
    multiplicity-space reduction is the maximally mixed state I/d_p.
    """
    shape = (len(ws.y), ws.d_alpha, ws.d_alpha)
    return _kept_block_state(np.broadcast_to(np.eye(ws.d_alpha) / ws.d_p, shape), ws)


def twirl_working_state(phi: np.ndarray, ws: WorkingSpace) -> BlockState:
    """Channel output E(|phi><phi|) for a working-space vector, block form.

    Blocks outside Y vanish; each kept block is materialized on the full
    (2j+1) * multiplicity space.  Each block's a^T conj(a) is formed on its
    own, so this route shares no product with the stacked reduced_blocks.
    """
    a = ws.blocks(workspace_vector(phi, ws))
    return _kept_block_state(np.array([a_j.T @ a_j.conj() for a_j in a]), ws)
