"""Tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecrypt.linalg import (
    check_limit,
    dagger,
    derived_rng,
    haar_unitary,
    is_hermitian,
    kron_power,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def partial_trace_by_summation(rho, dim_left, dim_right, side):
    """Element-wise index summation, no reshapes: the definition, slowly."""
    if side == "right":
        out = np.zeros((dim_left, dim_left), dtype=complex)
        for a in range(dim_left):
            for b in range(dim_left):
                for r in range(dim_right):
                    out[a, b] += rho[a * dim_right + r, b * dim_right + r]
    else:
        out = np.zeros((dim_right, dim_right), dtype=complex)
        for s in range(dim_right):
            for t in range(dim_right):
                for a in range(dim_left):
                    out[s, t] += rho[a * dim_right + s, a * dim_right + t]
    return out


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_hand_values():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    # nilpotent 2x2: singular values are 1 and 0
    assert trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-14)


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_hermitian_and_svd_paths_agree():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = g + g.conj().T
        via_eig = trace_norm(h)
        via_svd = float(np.linalg.svd(h, compute_uv=False).sum())
        assert via_eig == pytest.approx(via_svd, abs=1e-10)


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_trace_norm_triangle_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    assert trace_norm(x + y) <= trace_norm(x) + trace_norm(y) + 1e-9


def test_trace_norm_pure_state_distance():
    # || |a><a| - |b><b| ||_1 = 2 sqrt(1 - |<a|b>|^2)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = random_pure_state(7, rng)
        b = random_pure_state(7, rng)
        lhs = trace_norm(np.outer(a, a.conj()) - np.outer(b, b.conj()))
        rhs = 2.0 * np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    sigma = random_density_matrix(3, rng)
    tau = random_density_matrix(4, rng)
    rho = np.kron(sigma, tau)
    np.testing.assert_allclose(partial_trace(rho, 3, 4, "right"), sigma, atol=1e-12)
    np.testing.assert_allclose(partial_trace(rho, 3, 4, "left"), tau, atol=1e-12)


def test_partial_trace_maximally_entangled():
    d = 4
    psi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        psi[i * d + i] = 1.0 / np.sqrt(d)
    rho = np.outer(psi, psi.conj())
    for side in ("left", "right"):
        np.testing.assert_allclose(partial_trace(rho, d, d, side), np.eye(d) / d, atol=1e-12)


def test_partial_trace_matches_summation_oracle():
    rng = np.random.default_rng(42)
    rho = random_density_matrix(4, rng)  # two qubits
    for side in ("left", "right"):
        fast = partial_trace(rho, 2, 2, side)
        slow = partial_trace_by_summation(rho, 2, 2, side)
        np.testing.assert_allclose(fast, slow, atol=1e-12)
    # and on uneven factor splits
    rho = random_density_matrix(6, rng)
    for dl, dr in ((2, 3), (3, 2)):
        for side in ("left", "right"):
            np.testing.assert_allclose(
                partial_trace(rho, dl, dr, side),
                partial_trace_by_summation(rho, dl, dr, side),
                atol=1e-12,
            )


def test_partial_trace_preserves_trace_and_checks_dims():
    rho = random_density_matrix(6, 3)
    red = partial_trace(rho, 2, 3, "right")
    assert np.trace(red) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(rho, 2, 2, "right")
    with pytest.raises(ValueError):
        partial_trace(rho, 2, 3, "middle")


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary_and_deterministic():
    for dim in (1, 2, 5):
        u = haar_unitary(dim, 123)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
        np.testing.assert_array_equal(u, haar_unitary(dim, 123))
    assert abs(abs(haar_unitary(1, 7)[0, 0]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        haar_unitary(0, 1)


def test_haar_unitary_stack_shape():
    us = haar_unitary(3, 2, size=8)
    assert us.shape == (8, 3, 3)
    prods = np.einsum("sij,skj->sik", us, us.conj())
    np.testing.assert_allclose(prods, np.broadcast_to(np.eye(3), (8, 3, 3)), atol=1e-12)


def test_haar_unitary_second_moment():
    # E|U_11|^2 = 1/K by row normalization plus column symmetry
    k, n = 4, 100_000
    us = haar_unitary(k, 99, size=n)
    vals = np.abs(us[:, 0, 0]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / k) < 3.0 * se


def test_haar_unitary_fourth_moment_k2():
    # E|U_11|^4 = 2/(K(K+1)) = 1/3 at K = 2
    n = 100_000
    us = haar_unitary(2, 12, size=n)
    vals = np.abs(us[:, 0, 0]) ** 4
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 1.0 / 3.0) < 3.0 * se


def test_random_pure_state_norm_and_density():
    vs = random_pure_state(6, 31, size=2000)
    np.testing.assert_allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)
    comp = np.abs(vs[:, 0]) ** 2
    se = comp.std(ddof=1) / np.sqrt(len(comp))
    assert abs(comp.mean() - 1.0 / 6.0) < 3.0 * se
    single = random_pure_state(1, 0)
    assert abs(abs(single[0]) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        random_pure_state(0, 1)


def test_random_density_matrix_is_a_state():
    for seed in range(5):
        rho = random_density_matrix(5, seed)
        assert is_hermitian(rho)
        assert abs(np.trace(rho) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho)[0] > -1e-10


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_derived_rng_is_stable_and_stream_separated():
    a = derived_rng(5, 3).standard_normal(4)
    b = derived_rng(5, 3).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    c = derived_rng(5, 4).standard_normal(4)
    assert not np.allclose(a, c)
    d = derived_rng(3, 5).standard_normal(4)
    assert not np.allclose(a, d)


def test_dagger_on_stacks():
    x = np.arange(24, dtype=complex).reshape(2, 3, 4) * (1 + 1j)
    y = dagger(x)
    assert y.shape == (2, 4, 3)
    np.testing.assert_array_equal(y[1], x[1].conj().T)


def test_is_hermitian_and_validators():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_kron_power():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(kron_power(m, 1), m)
    np.testing.assert_array_equal(kron_power(m, 3), np.kron(np.kron(m, m), m))
    with pytest.raises(ValueError):
        kron_power(m, 0)


def test_check_limit_refuses_over_the_limit_and_not_a_number():
    check_limit(10, 10, "a run", "units")  # the limit itself is allowed
    with pytest.raises(ValueError, match=r"^a run needs 11 units, over the limit of 10$"):
        check_limit(11, 10, "a run", "units")
    for amount in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="over the limit"):
            check_limit(amount, 10, "a run", "units")
