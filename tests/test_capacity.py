"""Tests for the closed-form capacity and dimension bounds."""

import math

import pytest

from framecrypt.capacity import (
    c_perfect_asymptotic,
    classical_capacity_upper,
    min_delta_for_advantage,
    q_perfect,
    rank_pi_prime,
    rank_pi_prime_chain,
    thm1_dim_bound,
)


def test_q_perfect_values():
    assert q_perfect(4) == pytest.approx(math.log2(5), abs=1e-12)
    assert q_perfect(2) == pytest.approx(math.log2(3), abs=1e-12)
    with pytest.raises(ValueError):
        q_perfect(3)


def test_c_perfect_values_and_ratio_trend():
    assert c_perfect_asymptotic(16) == pytest.approx(12.0, abs=1e-12)
    assert c_perfect_asymptotic(2) == pytest.approx(3.0, abs=1e-12)
    ratios = [c_perfect_asymptotic(n) / q_perfect(n) for n in (4, 8, 16, 64, 256, 1024)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 3.0 for r in ratios)
    assert ratios[-1] > 2.97
    # the perfect classical rate always beats the perfect quantum rate past n = 2
    for n in range(4, 66, 2):
        assert q_perfect(n) < c_perfect_asymptotic(n)


def test_thm1_dim_bound_values():
    assert thm1_dim_bound(1024, 0.125, 0.0) == pytest.approx(19.5, abs=1e-12)
    assert thm1_dim_bound(16, 1.0, 0.7) == pytest.approx(12.7, abs=1e-12)
    # monotone in delta
    assert thm1_dim_bound(16, 0.1, 0.0) < thm1_dim_bound(16, 0.2, 0.0)
    with pytest.raises(ValueError):
        thm1_dim_bound(16, 0.0, 0.0)
    with pytest.raises(ValueError):
        thm1_dim_bound(16, 2.1, 0.0)


def test_a_nan_c_prime_is_refused_and_the_infinities_keep_their_results():
    with pytest.raises(ValueError, match="c_prime"):
        min_delta_for_advantage(16, math.nan)
    with pytest.raises(ValueError, match="c_prime"):
        thm1_dim_bound(16, 0.5, math.nan)
    assert min_delta_for_advantage(16, math.inf) == 0.0
    assert min_delta_for_advantage(16, -math.inf) == math.inf
    assert thm1_dim_bound(16, 0.5, math.inf) == math.inf
    assert thm1_dim_bound(16, 0.5, -math.inf) == -math.inf


def test_classical_capacity_upper_values():
    assert classical_capacity_upper(16, 0.0) == pytest.approx(15.0, abs=1e-12)
    assert classical_capacity_upper(16, 0.5) == pytest.approx(21.0, abs=1e-12)
    with pytest.raises(ValueError):
        classical_capacity_upper(16, 0.6)
    # consistency with the zero-error rate: slack is exactly the +3 bits
    for n in (4, 16, 64):
        assert classical_capacity_upper(n, 0.0) >= c_perfect_asymptotic(n)


def test_rank_values():
    assert rank_pi_prime(4) == 15  # 1*1 + 3*3 + 5*1 block by block
    assert rank_pi_prime(2) == 4
    with pytest.raises(ValueError):
        rank_pi_prime(5)


def test_rank_chain():
    tight, middle, cube = rank_pi_prime_chain(4)
    assert (tight, middle, cube) == (15, 75, 128)
    for n in range(4, 66, 2):
        tight, middle, cube = rank_pi_prime_chain(n)
        assert tight <= middle <= cube
    # the closed-form chain breaks at n = 2: 18 > 16, though the tight sum holds
    tight, middle, cube = rank_pi_prime_chain(2)
    assert (tight, middle, cube) == (4, 18, 16)
    assert middle > cube
    assert tight <= cube


def test_min_delta_properties():
    for n in (4, 8, 16, 64, 256):
        delta = min_delta_for_advantage(n, 0.0)
        assert 0.0 < delta < 1.0
        # defining equation: the bound at the threshold equals the quantum rate
        assert thm1_dim_bound(n, delta, 0.0) == pytest.approx(math.log2(n + 1), abs=1e-9)
    delta = min_delta_for_advantage(16, 1.3)
    assert thm1_dim_bound(16, delta, 1.3) == pytest.approx(math.log2(17), abs=1e-9)
    # quadrupling n shrinks the threshold toward the 4^(-4/7) scaling factor
    target = 4.0 ** (-4.0 / 7.0)
    r1 = min_delta_for_advantage(64, 0.0) / min_delta_for_advantage(16, 0.0)
    r2 = min_delta_for_advantage(4096, 0.0) / min_delta_for_advantage(1024, 0.0)
    assert abs(r2 - target) < abs(r1 - target)
    assert r2 == pytest.approx(target, rel=2e-3)
