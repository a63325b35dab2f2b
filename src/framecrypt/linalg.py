"""Dense complex linear algebra used everywhere else in the package.

All functions are pure; random sampling takes an explicit seed (or an
already-constructed Generator), so every result is reproducible.  Sample i of
a seeded run draws from its own generator, :func:`derived_rng` of
(seed, *prefix, i), which depends only on those integers.
:func:`derived_rngs` yields the same generators, seeded a block of indices at
a time.  The privacy sampler owns these streams: it hands each sample its
generator, draws plain random states itself and normalizes a chunk of them at
once with :func:`normalize_rows`, the formula of :func:`random_pure_state`.
So every value is the same bit for bit however the samples are chunked or
spread over the process's CPUs.  :func:`blas_threads` and
:func:`set_blas_threads` read and set the thread count of numpy's bundled
OpenBLAS, whose sums are split differently at each count.

:func:`trace_norm` splits its input exactly before it looks at it: the
connected components of the exact-nonzero pattern (x + x^dagger) are blocks
no entry couples, and components of one size are gathered into one stack.
The Hermitian test runs on those stacks alone, since every entry outside
them is zero in both triangles.  A Hermitian input's spectrum is the union
of its components', so each stack goes to one eigvalsh; any other input
takes one SVD.  There is no threshold, since an entry of any size, however
tiny, moves the norm; and each component keeps its indices ascending, so
eigvalsh reads the same lower-triangle entries as on the whole matrix.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

HERMITIAN_TOL = 1e-10
# indices whose generator states derived_rngs computes at once.  sample_small
# peak_rss_mb by block, seeds 1-3 (perfbench/run.py --seconds 5, one BLAS
# thread, 2 cores); the operation takes about the same time at each:
#   block          parent        64            256           4,096
#   peak_rss_mb    40.88-40.92   41.14-41.36   41.30-41.42   43.28-44.21
DERIVE_BLOCK = 256
# numpy's SeedSequence hash constants and PCG64's multiplier: the algorithm
# derived_rngs reproduces, not settings
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 2**32 - 1, 2**128 - 1


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


def _words(n: int) -> list[int]:
    """The uint32 words numpy's SeedSequence reads from a non-negative int, low word first."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(head: list[int], index: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of default_rng seeded with the words head + [i], for each i of index.

    numpy's SeedSequence with pool size 4 (mix_entropy, then
    generate_state(4, uint64)) on uint32 arrays over the indices, then PCG64's
    seeding step on Python ints.  The hash constants evolve as Python ints
    masked to 32 bits: a numpy scalar would warn on overflow, an array wraps.
    """
    entropy = [np.full(len(index), w, dtype=np.uint32) for w in head] + [index.astype(np.uint32)]
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> 16)

    entropy += [np.zeros_like(entropy[0])] * (4 - len(entropy))  # a short seed fills the pool with zeros
    pool = [hashmix(entropy[i]) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(entropy)):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        words.append((value ^ (value >> 16)).astype(np.uint64))
    # generate_state's uint64 words (low uint32 first) are the seed's high and
    # low halves, then the stream's
    hi_s, lo_s, hi_q, lo_q = (words[j] | (words[j + 1] << np.uint64(32)) for j in range(0, 8, 2))
    states = []
    for a, b, c, d in zip(hi_s.tolist(), lo_s.tolist(), hi_q.tolist(), lo_q.tolist()):
        inc = ((((c << 64) | d) << 1) | 1) & _MASK128
        states.append((((inc + ((a << 64) | b)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def derived_rngs(seed: int, prefix: Iterable[int], indices: Iterable[int]) -> Iterator[np.random.Generator]:
    """derived_rng(seed, *prefix, i) for each i of ``indices``, bit for bit.

    One Generator is yielded for every index, re-seeded through its PCG64
    state each time, so each is good only until the next is drawn.  The
    states of DERIVE_BLOCK indices are computed at once.  The generator of
    each block's first index is made by derived_rng itself, which raises its
    errors for a negative seed, and its state must equal the computed one: a
    numpy that seeds differently raises RuntimeError instead of drifting.
    Indices must lie in [0, 2^32).
    """
    prefix = [int(p) for p in prefix]
    todo = iter(indices)
    while block := list(itertools.islice(todo, DERIVE_BLOCK)):
        if min(block) < 0:
            raise ValueError("expected non-negative integer")
        check_limit(max(block), _MASK32, "a derived generator", "as its index")
        gen = derived_rng(seed, *prefix, block[0])
        bit_state = gen.bit_generator.state
        head = [w for v in (int(seed), *prefix) for w in _words(v)]
        states = _pcg64_states(head, np.array(block))
        if states[0] != (bit_state["state"]["state"], bit_state["state"]["inc"]):
            raise RuntimeError("numpy seeds PCG64 differently from derived_rngs: its generators would drift")
        for state, inc in states:
            bit_state["state"] = {"state": state, "inc": inc}
            gen.bit_generator.state = bit_state
            yield gen


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of the last two axes, so stacks work too)."""
    return np.swapaxes(np.asarray(a).conj(), -1, -2)


def is_hermitian(x: np.ndarray) -> bool:
    """Entrywise within HERMITIAN_TOL of its adjoint (an entry with nan never
    is); a stack is Hermitian when every matrix in it is."""
    x = np.asarray(x)
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
    """Sum of singular values.

    The input is split exactly first: the connected components of the
    exact-nonzero pattern of x + x^dagger (see :func:`_components`) are
    blocks that no entry couples, and components of one size are gathered
    into one stack; one component, and any 0 x 0 or 1 x 1 input, stays x
    itself.  When every gathered part is Hermitian (see :func:`is_hermitian`)
    so is x, since an entry between two components is zero in both
    triangles; then a permutation P makes P x P^T the direct sum of the
    components, its spectrum is the union of theirs, and each part takes one
    eigvalsh.  Otherwise x takes one SVD.  No entry counts as zero unless it
    is zero: 1e-300 still joins its component, and dropping it would change
    the norm by 2e-300.  Each component's indices stay ascending, so eigvalsh
    reads the same lower triangle entries as on the whole matrix, not their
    mirror images, which may differ within HERMITIAN_TOL.
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
        return float(np.linalg.svd(x, compute_uv=False).sum())
    total = 0.0
    for part in parts:
        total += float(np.abs(np.linalg.eigvalsh(part)).sum())
    return total


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
    rng = as_rng(seed)
    shape = (dim,) if size is None else (int(size), dim)
    v = np.empty(shape, dtype=complex)
    v.real = rng.standard_normal(shape)
    v.imag = rng.standard_normal(shape)
    return normalize_rows(v)


def random_density_matrix(dim: int, seed) -> np.ndarray:
    """Random mixed state GG^dag / tr(GG^dag) with G square complex Ginibre."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    rng = as_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

