"""Dense complex linear algebra used everywhere else in the package.

All functions are pure; random sampling takes an explicit seed (or an
already-constructed Generator, which np.random.default_rng passes through
unaltered), so every result is reproducible.  :func:`derived_rng` of
(seed, *stream) keys one generator by those integers alone.  The privacy
sampler draws each 256 KiB chunk c of states of a seeded run from
derived_rng(seed, *prefix, c) in one call, and normalizes them at once
with :func:`normalize_rows`, the formula of :func:`random_pure_state`; its
forked shares are runs of whole chunks, so every value is the same bit for
bit however the chunks are spread over the process's CPUs.
:func:`blas_threads` and :func:`set_blas_threads` read and set the thread
count of numpy's bundled OpenBLAS, whose sums are split differently at
each count.

:func:`trace_norm` splits its input exactly before it looks at it: the
connected components of the exact-nonzero pattern (x + x^dagger) are blocks
no entry couples, and components of one size are gathered into one stack.
The Hermitian test runs on those stacks alone, since every entry outside
them is zero in both triangles.  A Hermitian input's spectrum is the union
of its components', so each stack goes to one eigvalsh; any other input,
nan and inf included, is refused.  There is no threshold, since an entry of
any size, however tiny, moves the norm; and each component keeps its indices
ascending, so eigvalsh reads the same lower-triangle entries as on the whole
matrix.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

HERMITIAN_TOL = 1e-10


def check_limit(amount, limit, what: str, unit: str) -> None:
    """The one refusal before work starts: ValueError "<what> needs <amount>
    <unit>, over the limit of <limit>" unless amount <= limit (nan is refused)."""
    if not amount <= limit:
        raise ValueError(f"{what} needs {amount} {unit}, over the limit of {limit}")


@functools.cache
def _openblas_thread_calls(libs: Path | None = None):
    """(get, set) of the thread count of the OpenBLAS in directory ``libs``
    (libscipy_openblas64_*.so; by default numpy's bundled one in numpy.libs
    beside the numpy package), through ctypes, loaded on first use: its
    scipy_openblas_{get,set}_num_threads64_.  None where no such library
    loads or it lacks that pair."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs" if libs is None else libs
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # does not load, or lacks the symbols
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs a call on; None where it cannot be read."""
    calls = _openblas_thread_calls()
    return None if calls is None else int(calls[0]())


def set_blas_threads(count: int) -> int | None:
    """Make numpy's bundled OpenBLAS run on ``count`` threads and return the
    count before; where it cannot be read, do nothing and return None."""
    calls = _openblas_thread_calls()
    if calls is None:
        return None
    before = int(calls[0]())
    calls[1](int(count))
    return before


def derived_rng(seed: int, *stream: int) -> np.random.Generator:
    """Generator for sub-stream ``stream`` of master ``seed``.

    The derivation depends only on the integers supplied, never on how many
    other streams exist, so per-chunk generators are stable under any
    parallel scheduling of the chunks.
    """
    return np.random.default_rng([int(seed), *(int(s) for s in stream)])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes, so stacks work too)."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def is_hermitian(x: np.ndarray) -> bool:
    """Entrywise within HERMITIAN_TOL of its adjoint (an entry with nan or
    inf never is); a stack is Hermitian when every matrix in it is."""
    x = np.asarray(x)
    with np.errstate(invalid="ignore"):  # inf - inf is nan: refused, not warned of
        return bool(np.all(np.abs(x - dagger(x)) <= HERMITIAN_TOL))


def _components(x: np.ndarray) -> np.ndarray:
    """Component label of each index of square x, in the graph joining i and j
    wherever x_ij or x_ji is exactly nonzero: the smallest index of its component.

    Labels start as the indices; each round lowers both ends of every edge to
    the smaller label and then jumps each label to its label's label, until
    every edge has one label at both ends.  A label is always an index of the
    same component no larger than its own, and after k rounds it is at most
    the smallest index within k steps, so that takes fewer than n rounds.
    """
    # flat indices: np.nonzero of a 2-D mask is 14 times slower (486 x 486, numpy 2.4, one core)
    rows, cols = np.divmod(np.flatnonzero(x != 0), len(x))
    labels = np.arange(len(x))
    for _ in range(len(x)):
        np.minimum.at(labels, rows, labels[cols])
        np.minimum.at(labels, cols, labels[rows])
        labels = labels[labels]
        if np.array_equal(labels[rows], labels[cols]):
            break
    return labels


def trace_norm(x: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix: the sum of its eigenvalues' magnitudes.

    The input is split exactly first: the connected components of the
    exact-nonzero pattern of x + x^dagger (see :func:`_components`) are
    blocks that no entry couples, and components of one size are gathered
    into one stack; one component, and any 0 x 0 or 1 x 1 input, stays x
    itself.  When every gathered part is Hermitian (see :func:`is_hermitian`)
    so is x, since an entry between two components is zero in both
    triangles; then a permutation P makes P x P^T the direct sum of the
    components, its spectrum is the union of theirs, and each part takes one
    eigvalsh.  Otherwise, nan and inf included, it raises ValueError.  No
    entry counts as zero unless it is zero: 1e-300 still joins its
    component, and dropping it would change the norm by 2e-300.  Each
    component's indices stay ascending, so eigvalsh reads the same lower
    triangle entries as on the whole matrix, not their mirror images, which
    may differ within HERMITIAN_TOL.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"trace norm needs a square matrix, got shape {x.shape}")
    labels = _components(x)
    sizes = np.bincount(labels)[labels]
    parts = [x]
    if len(x) >= 2 and sizes[0] < len(x):
        order = np.lexsort((labels, sizes))  # by size, then component; indices ascending
        idxs = (order[sizes[order] == size].reshape(-1, size) for size in np.unique(sizes))
        parts = [x[idx[:, :, None], idx[:, None, :]] for idx in idxs]
    if not all(is_hermitian(part) for part in parts):
        raise ValueError(f"trace norm needs a Hermitian matrix, entrywise within HERMITIAN_TOL = {HERMITIAN_TOL}")
    total = 0.0
    for part in parts:
        total += float(np.abs(np.linalg.eigvalsh(part)).sum())
    return total


def kron_power(m: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of each (a, b) matrix of a stack (..., a, b).

    The left fold out = kron(out, m), done by one broadcasting multiply per
    factor: every entry is the one product out[i, j] * m[k, l] that np.kron
    forms, in the same order, so the bits equal np.kron's left fold.
    """
    if n < 1:
        raise ValueError("need at least one factor")
    m = np.asarray(m)
    *lead, a, b = m.shape
    out = m
    for _ in range(n - 1):
        out = (out[..., :, None, :, None] * m[..., None, :, None, :]).reshape(
            *lead, out.shape[-2] * a, out.shape[-1] * b
        )
    return out


def haar_columns(k: int, m: int, seed, size: int | None = None) -> np.ndarray:
    """The first m columns of a Haar unitary on C^k, via the QR of a k x m
    complex Ginibre matrix (real parts drawn first, then imaginary parts).

    R's diagonal phases are absorbed into Q (diagonal of R made positive),
    which makes the QR map well defined; the k x m result then has exactly
    the law of m columns of a Haar unitary (Mezzadri, arXiv:math-ph/0609050),
    and at m = k it is a Haar unitary.  With ``size`` given, a stack of shape
    (size, k, m) is returned.  An m outside [1, k] is refused before any draw.
    """
    if not 1 <= m <= k:
        raise ValueError(f"need 1 <= m <= k, got m={m} and k={k}")
    rng = np.random.default_rng(seed)
    shape = (k, m) if size is None else (int(size), k, m)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(dim: int, seed, size: int | None = None) -> np.ndarray:
    """Haar unitary on C^dim: haar_columns(dim, dim, seed, size).  The package
    draws columns only; this name stays because perfbench/tracer.py wraps it."""
    return haar_columns(dim, dim, seed, size)


def normalize_rows(v: np.ndarray) -> np.ndarray:
    """Divide each vector along the last axis of complex v by its norm, in place.

    The norm is np.linalg.norm(v, axis=-1)'s own formula, so the bits match
    it.  These do not: re*re + im*im, dividing the real and imaginary parts
    apart, or writing the product over the conjugate's copy.
    """
    v /= np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1, keepdims=True))
    return v


def random_pure_state(dim: int, seed, size: int | None = None) -> np.ndarray:
    """Unit vector(s) drawn from the rotation-invariant measure on C^dim.

    The real parts are drawn first, then the imaginary parts.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    shape = (dim,) if size is None else (int(size), dim)
    v = np.empty(shape, dtype=complex)
    v.real = rng.standard_normal(shape)
    v.imag = rng.standard_normal(shape)
    return normalize_rows(v)


def random_density_matrix(dim: int, seed) -> np.ndarray:
    """Random mixed state GG^dag / tr(GG^dag) with G square complex Ginibre."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

