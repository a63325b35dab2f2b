"""Total-angular-momentum bookkeeping for a register of N qubits.

Coupling the N spin-1/2 systems one at a time (qubit 1, then 2, ...) splits
the register into blocks labelled by the total spin j, each of the form
(rotation factor of dimension 2j+1) x (multiplicity factor).  A basis of the
multiplicity factor is indexed by the admissible coupling histories: step
sequences over {+1, -1} acting on 2j that start at 0 and never go negative.

Half-integers are stored doubled (``two_j = 2j``, ``two_m = 2m``) so all
dimension arithmetic stays exact.  The canonical coupled-basis layout used
throughout the package is: blocks by descending two_j; inside a block the
rotation index is the slow axis (two_m descending from two_j) and the path
index the fast axis (paths in lexicographic order with +1 before -1).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from framecrypt.linalg import as_rng, check_limit

DENSE_QUBIT_LIMIT = 12  # full 2^N transforms and computational embeddings above this are refused
# exact binomials for every block: about 0.6 s at this size, 4 s at twice it
QUBIT_LIMIT = 4096


class CoupledIndex(NamedTuple):
    two_j: int
    two_m: int
    path_index: int


class EulerAngles(NamedTuple):
    """zyz rotation angles: alpha, gamma in [0, 2*pi), beta in [0, pi]."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class BlockInfo:
    """One total-spin block of the canonical coupled-basis layout."""

    two_j: int
    offset: int
    dim_r: int  # rotation factor, 2j+1
    dim_p: int  # multiplicity factor

    @property
    def span(self) -> slice:
        """Coupled-basis positions of the block: (rotation index, path index)
        flattened with the path index fastest."""
        return slice(self.offset, self.offset + self.dim_r * self.dim_p)


def _require_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"qubit count must be a positive even integer, got {n}")


def irrep_labels(n: int) -> list[int]:
    """two_j values present for n qubits, largest first (canonical block order).

    Every walk over the blocks starts here, so this is where registers above
    QUBIT_LIMIT are refused, before any exact binomial is computed.
    """
    _require_even(n)
    check_limit(n, QUBIT_LIMIT, "exact block arithmetic", "qubits")
    return list(range(n, -1, -2))


def dim_irrep(two_j: int) -> int:
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    return two_j + 1


def dim_multiplicity(n: int, two_j: int) -> int:
    """Number of spin-j blocks for n qubits, as an exact integer.

    Equals binom(n, n/2 - j) * (2j+1) / (n/2 + j + 1); the division is exact.
    """
    _require_even(n)
    if two_j % 2 != 0 or not 0 <= two_j <= n:
        raise ValueError(f"two_j={two_j} is not an integer-spin label in [0, {n}]")
    j = two_j // 2
    num = math.comb(n, n // 2 - j) * (two_j + 1)
    q, r = divmod(num, n // 2 + j + 1)
    if r:
        raise ValueError(f"multiplicity formula left remainder {r} for n={n}, two_j={two_j}")
    return q


def block_layout(n: int) -> list[BlockInfo]:
    """Offsets and factor dimensions of each block in the canonical layout."""
    out: list[BlockInfo] = []
    offset = 0
    for two_j in irrep_labels(n):
        dr, dp = dim_irrep(two_j), dim_multiplicity(n, two_j)
        out.append(BlockInfo(two_j, offset, dr, dp))
        offset += dr * dp
    if offset != 2**n:
        raise ValueError(f"blocks for n={n} cover {offset} positions, not 2^{n}")
    return out


def coupled_position(n: int, index: CoupledIndex) -> int:
    """Global coupled-basis position of (two_j, two_m, path_index)."""
    for b in block_layout(n):
        if b.two_j == index.two_j:
            if (index.two_j - index.two_m) % 2 or abs(index.two_m) > index.two_j:
                raise ValueError(f"two_m={index.two_m} invalid for two_j={index.two_j}")
            if not 0 <= index.path_index < b.dim_p:
                raise ValueError(f"path index {index.path_index} out of range for two_j={index.two_j}")
            m_idx = (index.two_j - index.two_m) // 2
            return b.offset + m_idx * b.dim_p + index.path_index
    raise ValueError(f"two_j={index.two_j} not present for n={n}")


def _can_reach(height: int, steps_left: int, two_j: int) -> bool:
    """Whether a history at ``height`` with ``steps_left`` steps to go can
    still end at two_j: it stays >= 0, is close enough, and has the right parity."""
    return height >= 0 and abs(two_j - height) <= steps_left and (two_j - height - steps_left) % 2 == 0


def _walk(n: int, two_j: int, root, extend, count: int | None = None) -> Iterator:
    """Depth-first walk over the coupling histories of n qubits ending at two_j.

    The state ``root`` stands for the first qubit (spin 1/2, one step of +1);
    each further step folds extend(state, t, step) onto its prefix's state,
    t being the prefix's two_j.  Branches that cannot reach two_j are pruned,
    +1 is tried before -1, so the leaves come in lexicographic order, and
    every prefix is extended once and shared by all the histories below it.
    Yields each leaf's state, stopping after ``count`` of them when given.
    """
    done = 0

    def descend(state, t: int, k: int) -> Iterator:  # state: spin t/2 on k qubits
        nonlocal done
        if k == n:
            done += 1
            yield state
            return
        for step in (1, -1):
            if (count is None or done < count) and _can_reach(t + step, n - k - 1, two_j):
                yield from descend(extend(state, t, step), t + step, k + 1)

    yield from descend(root, 1, 1)


def enumerate_paths(n: int, two_j: int) -> list[tuple[int, ...]]:
    """All coupling histories ending at two_j, in lexicographic order (+1 < -1).

    A history is a tuple of n steps from {+1, -1}; partial sums stay >= 0 and
    the total equals two_j, so the first step is always +1.  These are the
    leaves of :func:`_walk`, the walk :func:`couple_paths` couples along.
    """
    _require_even(n)
    if two_j % 2 != 0 or not 0 <= two_j <= n:
        raise ValueError(f"two_j={two_j} is not reachable for n={n}")
    return list(_walk(n, two_j, (1,), lambda p, t, s: p + (s,)))


# ---------------------------------------------------------------------------
# sequential coupling and the full change of basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchurTransform:
    """Unitary change of basis from the computational to the coupled basis.

    ``matrix`` columns are coupled-basis states expressed in the
    computational basis, in the canonical layout (see :class:`BlockInfo`).
    """

    matrix: np.ndarray


def _couple(mat: np.ndarray, two_j: int, step: int) -> np.ndarray:
    """Attach one qubit and step the spin: two_j/2 -> (two_j + step)/2, step = +1 or -1.

    Columns of ``mat`` are |j, m> for two_m = two_j, two_j-2, ..., -two_j in
    the computational basis of the qubits coupled so far; the new qubit is
    appended as the last tensor factor.  Sign convention: on lowering, the
    up-qubit coefficient carries the minus sign, which leaves the stretched
    state of the raised branch with coefficient +1.
    """
    t = two_j
    out = np.zeros((2 * mat.shape[0], t + step + 1), dtype=complex)
    for col in range(t + step + 1):
        two_m = t + step - 2 * col
        if abs(two_m - 1) <= t:  # parent m = M - 1/2, new qubit up
            c = step * math.sqrt((t + step * two_m + 1) / (2 * (t + 1)))
            out[0::2, col] += c * mat[:, (t - (two_m - 1)) // 2]
        if abs(two_m + 1) <= t:  # parent m = M + 1/2, new qubit down
            c = math.sqrt((t - step * two_m + 1) / (2 * (t + 1)))
            out[1::2, col] += c * mat[:, (t - (two_m + 1)) // 2]
    return out


def couple_paths(n: int, two_j: int, count: int) -> Iterator[np.ndarray]:
    """Yield the |j, m> columns of the first ``count`` coupling paths to two_j.

    Each path's matrix has shape (2^n, two_j + 1): computational basis, then
    two_m descending from two_j.  It is handed over as the walk reaches it, in
    the order of :func:`enumerate_paths`, and is the caller's to keep.  It is
    :func:`_walk` folding :func:`_couple` along the histories, so every
    prefix is coupled once and shared by all the paths below it; it stops
    after ``count`` paths and raises once exhausted if fewer reach two_j.
    """
    done = 0
    for done, mat in enumerate(_walk(n, two_j, np.eye(2, dtype=complex), _couple, count), 1):
        yield mat
    if done != count:
        raise ValueError(f"{done} coupling paths reach two_j={two_j}, expected {count}")


def schur_transform(n: int) -> SchurTransform:
    """Build the full 2^n x 2^n change of basis by sequential coupling."""
    _require_even(n)
    check_limit(n, DENSE_QUBIT_LIMIT, "a dense 2^n transform", "qubits")
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    # couple_paths raises when a block has fewer paths than dim_p; no block can
    # have more, since block_layout checks that the dim_r * dim_p sum to 2^n
    for b in block_layout(n):
        cols = matrix[:, b.span].reshape(2**n, b.dim_r, b.dim_p)
        for p, mat in enumerate(couple_paths(n, b.two_j, b.dim_p)):
            cols[:, :, p] = mat
    return SchurTransform(matrix=matrix)


# ---------------------------------------------------------------------------
# rotation matrices
# ---------------------------------------------------------------------------

def _jz_jy(two_j: int):
    """m values (descending) and the eigensystem of Jy for spin two_j/2."""
    j = two_j / 2.0
    m = (two_j - 2 * np.arange(two_j + 1)) / 2.0
    jp = np.zeros((two_j + 1, two_j + 1))
    for i in range(1, two_j + 1):
        mm = m[i]
        jp[i - 1, i] = math.sqrt(j * (j + 1) - mm * (mm + 1))
    jy = (jp - jp.T) / 2j
    evals, evecs = np.linalg.eigh(jy)
    return m, evals, evecs


def wigner_d(two_j: int, angles) -> np.ndarray:
    """Rotation matrix exp(-i a Jz) exp(-i b Jy) exp(-i g Jz) for spin two_j/2.

    Rows and columns are ordered two_m = two_j, two_j-2, ..., -two_j.
    """
    if two_j < 0:
        raise ValueError("two_j must be nonnegative")
    a, b, g = angles
    m, evals, evecs = _jz_jy(two_j)
    expy = (evecs * np.exp(-1j * b * evals)) @ evecs.conj().T
    return np.exp(-1j * a * m)[:, None] * expy * np.exp(-1j * g * m)[None, :]


def rotation_su2(angles) -> np.ndarray:
    """Closed-form 2x2 rotation (the two_j = 1 case of :func:`wigner_d`)."""
    a, b, g = angles
    ch, sh = math.cos(b / 2), math.sin(b / 2)
    return np.array(
        [
            [np.exp(-0.5j * (a + g)) * ch, -np.exp(-0.5j * (a - g)) * sh],
            [np.exp(0.5j * (a - g)) * sh, np.exp(0.5j * (a + g)) * ch],
        ]
    )


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
