"""Closed-form capacity bounds for the rotation-averaging channel.

Perfect (zero-error) transmission lives in the multiplicity spaces the
channel leaves untouched: the largest one gives log2(n+1) qubits, and
summing classical codes across blocks gives roughly 3 log2 n bits.  Allowing
a distinguishability slack delta buys more; the subspace-dimension bound
says how much, and comparing it with the perfect quantum rate gives the
smallest delta at which approximate encoding beats exact encoding.
"""

from __future__ import annotations

import math

from framecrypt.repkit import _require_even, dim_irrep, dim_multiplicity, irrep_labels


def q_perfect(n: int) -> float:
    """Zero-error quantum capacity: log2(n+1) qubits through the largest
    multiplicity space."""
    _require_even(n)
    return math.log2(n + 1)


def c_perfect_asymptotic(n: int) -> float:
    """Leading-order zero-error classical capacity, 3 log2 n bits."""
    _require_even(n)
    return 3.0 * math.log2(n)


def thm1_dim_bound(n: int, delta: float, c_prime: float) -> float:
    """log2 of the dimension of a typical delta-private subspace:
    3 log2 n + 3.5 log2 delta + c_prime."""
    _require_even(n)
    if not 0.0 < delta <= 2.0:
        raise ValueError(f"delta must lie in (0, 2], got {delta}")
    return 3.0 * math.log2(n) + 3.5 * math.log2(delta) + c_prime


def classical_capacity_upper(n: int, delta: float) -> float:
    """Upper bound 3 (1 + delta) log2 n + 3 on the delta-private classical
    capacity, valid for delta <= 1/2."""
    _require_even(n)
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"the bound requires delta in [0, 1/2], got {delta}")
    return 3.0 * (1.0 + delta) * math.log2(n) + 3.0


def rank_pi_prime(n: int) -> int:
    """Exact rank available to block-diagonal encodings:
    sum over blocks of (2j+1) * min(2j+1, multiplicity)."""
    _require_even(n)
    return sum(
        dim_irrep(tj) * min(dim_irrep(tj), dim_multiplicity(n, tj)) for tj in irrep_labels(n)
    )


def rank_pi_prime_chain(n: int) -> tuple[int, int, int]:
    """The tight rank together with its two closed-form majorants
    (n/2+1)(n+1)^2 and 2 n^3.

    The first majorant always dominates the tight sum; the second dominates
    the first for every even n except n = 2, where (n/2+1)(n+1)^2 = 18 > 16.
    """
    tight = rank_pi_prime(n)
    middle = (n // 2 + 1) * (n + 1) ** 2
    cube = 2 * n**3
    return tight, middle, cube


def min_delta_for_advantage(n: int, c_prime: float) -> float:
    """Smallest delta at which the delta-private subspace dimension beats the
    zero-error quantum rate; scales like n^(-4/7), and inf past the float range."""
    _require_even(n)
    bits = (math.log2(n + 1) - 3.0 * math.log2(n) - c_prime) / 3.5
    return 2.0**bits if bits < 1024 else math.inf  # 2.0**1024 overflows
