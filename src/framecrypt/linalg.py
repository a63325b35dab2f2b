"""Dense complex linear algebra used everywhere else in the package.

All functions are pure; random sampling takes an explicit seed (or an
already-constructed Generator), so every result is reproducible and batches
can be fanned out across workers by deriving one generator per task with
:func:`derived_rng`.  The privacy sampler does this: each sample's generator
depends only on its index, so at large working spaces it spreads the samples
over the process's CPUs and every value stays the same bit for bit.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10


def check_limit(amount, limit, what: str, unit: str) -> None:
    """The one refusal before work starts: ValueError "<what> needs <amount>
    <unit>, over the limit of <limit>" unless amount <= limit (nan is refused)."""
    if not amount <= limit:
        raise ValueError(f"{what} needs {amount} {unit}, over the limit of {limit}")


def as_rng(seed) -> np.random.Generator:
    """Coerce an int / SeedSequence / Generator into a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for sub-stream ``stream`` of master ``seed``.

    The derivation depends only on the integers supplied, never on how many
    other streams exist, so per-sample generators are stable under any
    parallel scheduling of the samples.
    """
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes, so stacks work too)."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def is_hermitian(x: np.ndarray) -> bool:
    """Entrywise within HERMITIAN_TOL of its adjoint (an entry with nan never is).

    A square matrix is compared in 64 x 64 tiles on and above the diagonal:
    |x_ij - conj(x_ji)| is the same number either way round, and each
    temporary stays at 64 KiB whatever the size.  A stack is compared whole.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        return bool(np.all(np.abs(x - dagger(x)) <= HERMITIAN_TOL))
    t = 64
    for a in range(0, len(x), t):
        for c in range(a, len(x), t):
            if not np.all(np.abs(x[a : a + t, c : c + t] - dagger(x[c : c + t, a : a + t])) <= HERMITIAN_TOL):
                return False
    return True


def trace_norm(x: np.ndarray) -> float:
    """Sum of singular values.

    Hermitian input (see :func:`is_hermitian`) is routed through an
    eigendecomposition, everything else through an SVD.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {x.shape}")
    if is_hermitian(x):
        return float(np.abs(np.linalg.eigvalsh(x)).sum())
    return float(np.linalg.svd(x, compute_uv=False).sum())


def partial_trace(rho: np.ndarray, dim_left: int, dim_right: int, side: str = "right") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^dim_left x C^dim_right.

    ``side`` names the factor that is traced *out*; the reduced operator on
    the remaining factor is returned.
    """
    rho = np.asarray(rho)
    if dim_left < 1 or dim_right < 1:
        raise ValueError("factor dimensions must be positive")
    d = dim_left * dim_right
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match {dim_left}x{dim_right} factors")
    r = rho.reshape(dim_left, dim_right, dim_left, dim_right)
    if side == "right":
        return np.einsum("arbr->ab", r)
    if side == "left":
        return np.einsum("asat->st", r)
    raise ValueError("side must be 'left' or 'right'")


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a matrix."""
    if n < 1:
        raise ValueError("need at least one factor")
    out = np.asarray(m)
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def haar_unitary(dim: int, seed, size: int | None = None) -> np.ndarray:
    """Haar-distributed unitary, via QR of a complex Ginibre matrix.

    The R-factor phases are absorbed into Q (diagonal of R made positive),
    which makes the QR map well defined and the output exactly Haar.  With
    ``size`` given, a stack of shape (size, dim, dim) is returned.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = as_rng(seed)
    shape = (dim, dim) if size is None else (int(size), dim, dim)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_pure_state(dim: int, seed, size: int | None = None) -> np.ndarray:
    """Unit vector(s) drawn from the rotation-invariant measure on C^dim."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = as_rng(seed)
    shape = (dim,) if size is None else (int(size), dim)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_density_matrix(dim: int, seed) -> np.ndarray:
    """Random mixed state GG^dag / tr(GG^dag) with G square complex Ginibre."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

