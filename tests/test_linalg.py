"""Tests for the dense linear-algebra helpers."""

import _ctypes
import contextlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecrypt import linalg
from framecrypt.linalg import (
    DERIVE_BLOCK,
    HERMITIAN_TOL,
    as_rng,
    check_limit,
    dagger,
    derived_rng,
    derived_rngs,
    haar_unitary,
    is_hermitian,
    kron_power,
    normalize_rows,
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


def dense_trace_norm(x):
    """The one dense Hermitian eigensolve the split replaces."""
    return float(np.abs(np.linalg.eigvalsh(x)).sum())


def record_calls(monkeypatch, name):
    """Wrap np.linalg.<name>; the returned list collects each call's input shape."""
    shapes, real = [], getattr(np.linalg, name)

    def wrapped(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, wrapped)
    return shapes


def block_diagonal(blocks):
    """The block-diagonal sum of ``blocks``, in order."""
    n = sum(len(b) for b in blocks)
    x = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        x[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return x


def permuted_blocks(blocks, rng):
    """P (block-diagonal sum of ``blocks``) P^T for a random permutation P."""
    x = block_diagonal(blocks)
    p = rng.permutation(len(x))
    return x[np.ix_(p, p)]


def hermitian_blocks(sizes, rng):
    """Random Hermitian matrices of the given sizes, every entry nonzero."""
    gs = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in sizes]
    return [g + g.conj().T for g in gs]


@pytest.mark.parametrize("seed", range(5))
def test_trace_norm_of_permuted_blocks_matches_the_dense_eigensolve(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    x = permuted_blocks(hermitian_blocks((1, 1, 2, 4, 4, 43), rng), rng)
    want = dense_trace_norm(x)
    shapes = record_calls(monkeypatch, "eigvalsh")
    assert trace_norm(x) == pytest.approx(want, rel=1e-12)
    # one stacked eigensolve per component size
    assert sorted(shapes) == [(1, 2, 2), (1, 43, 43), (2, 1, 1), (2, 4, 4)]


def test_trace_norm_of_a_permuted_chain_is_one_dense_eigensolve(monkeypatch):
    # a path graph is one component whose labels take many rounds to settle
    rng = np.random.default_rng(3)
    n = 30
    x = np.diag(rng.standard_normal(n)).astype(complex)
    x[np.arange(1, n), np.arange(n - 1)] = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    x = permuted_blocks([x + np.tril(x, -1).conj().T], rng)
    want = dense_trace_norm(x)
    shapes = record_calls(monkeypatch, "eigvalsh")
    assert trace_norm(x) == want
    assert shapes == [(n, n)]


def test_trace_norm_of_a_connected_input_is_the_dense_eigensolve_bit_for_bit():
    rng = np.random.default_rng(8)
    for dim in (2, 5, 64):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = g + g.conj().T
        assert trace_norm(h) == dense_trace_norm(h)


@pytest.mark.parametrize("coupling", [1e-8, 1e-300])
def test_trace_norm_has_no_threshold(coupling):
    # two zero eigenvalues coupled by c become +-c: any entry, however small, counts
    pair = np.array([[0.0, coupling], [coupling, 0.0]])
    assert trace_norm(pair) == pytest.approx(2 * coupling, rel=1e-12, abs=0)
    x = np.zeros((3, 3))
    x[0, 2] = x[2, 0] = coupling  # a split input: components {0, 2} and {1}
    assert trace_norm(x) == pytest.approx(2 * coupling, rel=1e-12, abs=0)


def test_trace_norm_reads_the_lower_triangle_as_the_dense_eigensolve_does():
    # Hermitian within HERMITIAN_TOL with x_01 present only above the diagonal:
    # eigvalsh reads x_10 = 0, so indices 0 and 1 keep their zero eigenvalues
    x = np.diag([0.0, 0.0, 0.5])
    x[0, 1] = HERMITIAN_TOL / 2
    assert is_hermitian(x)
    assert trace_norm(x) == dense_trace_norm(x) == 0.5
    # entries present only below it still join: x_20 and x_21 couple all three
    y = np.zeros((3, 3))
    y[2, 0], y[2, 1] = 0.4 * HERMITIAN_TOL, 0.3 * HERMITIAN_TOL
    assert is_hermitian(y)
    assert trace_norm(y) == pytest.approx(dense_trace_norm(y), rel=1e-12, abs=0)
    assert dense_trace_norm(y) == pytest.approx(HERMITIAN_TOL, rel=1e-12, abs=0)


def test_trace_norm_of_empty_and_one_by_one_inputs():
    assert trace_norm(np.zeros((0, 0))) == 0.0
    assert trace_norm(np.array([[-3.5]])) == 3.5
    tilted = np.array([[2.0 + HERMITIAN_TOL / 4 * 1j]])  # Hermitian within tolerance
    assert trace_norm(tilted) == dense_trace_norm(tilted) == 2.0
    assert trace_norm(np.array([[3j]])) == 3.0  # not Hermitian: the SVD


def test_trace_norm_of_non_hermitian_input_goes_through_the_svd(monkeypatch):
    x = np.zeros((6, 6))
    x[0, 3] = x[4, 1] = 1.0  # nilpotent, and split into components like a Hermitian one would be
    eig_shapes = record_calls(monkeypatch, "eigvalsh")
    svd_shapes = record_calls(monkeypatch, "svd")
    assert trace_norm(x) == pytest.approx(2.0, abs=1e-14)
    assert svd_shapes == [(6, 6)]
    assert eig_shapes == []


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


def reference_pure_state(dim, seed, size=None):
    """random_pure_state as first written: a + 1j*b over np.linalg.norm."""
    rng = as_rng(seed)
    shape = (dim,) if size is None else (size, dim)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@pytest.mark.parametrize("dim", [1, 2, 72, 544, 8200])
@pytest.mark.parametrize("size", [None, 1, 7])
def test_random_pure_state_matches_its_reference_bit_for_bit(dim, size):
    for seed in range(4):
        want = reference_pure_state(dim, derived_rng(77, seed), size)
        assert np.array_equal(random_pure_state(dim, derived_rng(77, seed), size), want)


def test_normalize_rows_is_the_norm_formula_bit_for_bit():
    # the same 400 draws of K = 72 normalized both ways: a different sum of
    # squares (re*re + im*im) or a different division moves some of the bits
    rng = derived_rng(78)
    v = rng.standard_normal((400, 72)) + 1j * rng.standard_normal((400, 72))
    want = v / np.linalg.norm(v, axis=-1, keepdims=True)
    got = v.copy()
    assert normalize_rows(got) is got
    assert np.array_equal(got, want)


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


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3])
@pytest.mark.parametrize("prefix", [(), (7,), (0, 2**40), (3, 1, 2**32)])
def test_derived_rngs_match_derived_rng_bit_for_bit(seed, prefix):
    # runs across one and two block boundaries, a strided share, the largest index
    runs = [
        range(DERIVE_BLOCK - 3, DERIVE_BLOCK + 3),
        range(1, 2 * DERIVE_BLOCK + 9, 37),
        range(2, 3 * DERIVE_BLOCK, 3 * DERIVE_BLOCK // 5),
        [2**32 - 1, 0, 5],
    ]
    for run in runs:
        for i, g in zip(run, derived_rngs(seed, prefix, run), strict=True):
            assert g.bit_generator.state == derived_rng(seed, *prefix, i).bit_generator.state
    g = next(derived_rngs(seed, prefix, [9]))
    assert np.array_equal(g.standard_normal(5), derived_rng(seed, *prefix, 9).standard_normal(5))


def test_derived_rngs_refuse_what_derived_rng_cannot_make():
    with pytest.raises(ValueError) as want:
        derived_rng(-1, 2)
    with pytest.raises(ValueError) as got:
        next(derived_rngs(-1, (), [2]))
    assert str(got.value) == str(want.value) == "expected non-negative integer"
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(derived_rngs(1, (-3,), [2]))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        list(derived_rngs(1, (), [0, -1]))
    with pytest.raises(ValueError, match="over the limit of 4294967295"):
        list(derived_rngs(1, (), [5, 2**32]))
    assert list(derived_rngs(1, (), [])) == []


def test_derived_rngs_check_their_seeding_against_numpy(monkeypatch):
    monkeypatch.setattr(linalg, "_MIX_MULT_L", linalg._MIX_MULT_L ^ 1)
    with pytest.raises(RuntimeError, match="differently"):
        next(derived_rngs(4, (1,), range(3)))


def test_dagger_on_stacks():
    x = np.arange(24, dtype=complex).reshape(2, 3, 4) * (1 + 1j)
    y = dagger(x)
    assert y.shape == (2, 4, 3)
    np.testing.assert_array_equal(y[1], x[1].conj().T)


def test_is_hermitian_and_validators():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def dense_is_hermitian(x):
    """The definition on the whole matrix at once."""
    return bool(np.all(np.abs(x - dagger(x)) <= HERMITIAN_TOL))


@pytest.mark.parametrize("dim", [1, 2, 63, 64, 65, 130, 607])
def test_is_hermitian_agrees_with_the_dense_formula(dim, monkeypatch):
    # trace_norm's Hermitian verdict, read off its route, must be the dense
    # formula's on the whole matrix although is_hermitian sees only the
    # gathered components.  From dim 8 the input is a permuted direct sum of
    # blocks of sizes 2, 2, m, m and a larger one, so the parts are three
    # stacks; below it, one block.  An off-diagonal entry just inside, at and
    # just outside the tolerance, in the upper and the lower triangle, and
    # nan and inf anywhere, go into the second size-m component: in neither
    # the first stack nor the largest, nor first in its own.
    rng = derived_rng(505, dim)
    m = (dim - 4) // 4
    sizes = [dim] if dim < 8 else [2, 2, m, m, dim - 4 - 2 * m]
    p = rng.permutation(dim)
    h = block_diagonal(hermitian_blocks(sizes, rng))[np.ix_(p, p)]
    pos = np.argsort(p)  # where each block-diagonal index lands in h
    starts = np.cumsum([0, *sizes])
    spans = [np.sort(pos[a:b]) for a, b in zip(starts[:-1], starts[1:])]
    target = spans[0] if dim < 8 else max(spans[2], spans[3], key=min)
    i, j = target[-1], target[len(target) // 3]
    want_eig = [(dim, dim)] if dim < 8 else [(1, dim - 4 - 2 * m, dim - 4 - 2 * m), (2, 2, 2), (2, m, m)]
    cases = [h, h.real.copy(), h + 0.5 * HERMITIAN_TOL * 1j * np.eye(dim)]
    for step in (0.5, 1.0, 1.0 + 1e-6, 2.0):
        for a, b in ((i, j), (j, i)):
            x = h.copy()
            x[a, b] += step * HERMITIAN_TOL
            cases.append(x)
            x = h.copy()
            x[a, b] += step * HERMITIAN_TOL * 1j
            cases.append(x)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        for a, b in ((i, j), (j, i), (i, i)):
            x = h.copy()
            x[a, b] = bad
            cases.append(x)
    eig_shapes = record_calls(monkeypatch, "eigvalsh")
    svd_shapes = record_calls(monkeypatch, "svd")
    results = []
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in the dense formula
        for x in cases:
            eig_shapes.clear()
            svd_shapes.clear()
            with contextlib.suppress(np.linalg.LinAlgError):  # the SVD of nan does not converge
                trace_norm(x)
            hermitian = dense_is_hermitian(x)
            assert svd_shapes == ([] if hermitian else [(dim, dim)])
            assert sorted(eig_shapes) == (sorted(want_eig) if hermitian else [])
            assert is_hermitian(x) == hermitian
            results.append(hermitian)
    assert results[:3] == [True, True, True]
    if dim > 1:  # a 1 x 1 matrix cannot break symmetry off the diagonal
        assert not all(results[3:])
    assert not any(results[-12:])  # nan and inf are never within the tolerance


def test_is_hermitian_keeps_stacks_and_non_square_input():
    stack = np.stack([np.eye(3), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])])
    assert is_hermitian(stack[:1])
    assert not is_hermitian(stack)
    assert is_hermitian(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        is_hermitian(np.zeros((2, 3)))


def test_trace_norm_temporaries_stay_small():
    # criterion 11's 607 x 607 difference: 20 components of size 4 and 527
    # zero rows.  Comparing the whole matrix with its adjoint would take
    # three 5.9 MB temporaries; the component finder's 0.37 MB mask of
    # nonzero entries sets the peak
    rng = derived_rng(607)
    x = permuted_blocks(hermitian_blocks([4] * 20, rng) + [np.zeros((1, 1))] * 527, rng)
    want = trace_norm(x)  # the first call in a process also imports numpy modules on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert trace_norm(x) == want
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def kron_left_fold(m, n):
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_power_keeps_the_bits_of_the_np_kron_left_fold(n):
    rng = np.random.default_rng(n)
    rotations = [linalg.haar_unitary(2, rng) for _ in range(3)]  # complex 2 x 2
    real = rng.standard_normal((2, 3))
    rows = rng.standard_normal((3, 1, 2)) + 1j * rng.standard_normal((3, 1, 2))  # 1 x 2 rows
    for m in (*rotations, real, *rows):
        assert_same_bits(kron_power(m, n), kron_left_fold(m, n))
    for stack in (np.stack(rotations), rows, np.stack([real, 2 * real])[None]):
        got = kron_power(stack, n)
        assert got.shape[:-2] == stack.shape[:-2]
        for idx in np.ndindex(stack.shape[:-2]):
            assert_same_bits(got[idx], kron_left_fold(stack[idx], n))


def test_kron_power():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(kron_power(m, 1), m)
    np.testing.assert_array_equal(kron_power(m, 3), np.kron(np.kron(m, m), m))
    for n in (0, -1):
        with pytest.raises(ValueError):
            kron_power(m, n)


def test_check_limit_refuses_over_the_limit_and_not_a_number():
    check_limit(10, 10, "a run", "units")  # the limit itself is allowed
    with pytest.raises(ValueError, match=r"^a run needs 11 units, over the limit of 10$"):
        check_limit(11, 10, "a run", "units")
    for amount in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="over the limit"):
            check_limit(amount, 10, "a run", "units")


def test_blas_threads_are_read_and_set_through_the_bundled_openblas(tmp_path):
    threads = linalg.blas_threads()
    if threads is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    try:
        assert linalg.set_blas_threads(1) == threads
        assert linalg.blas_threads() == 1
    finally:
        linalg.set_blas_threads(threads)
    assert linalg.blas_threads() == threads
    bundled = next((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    (tmp_path / "libscipy_openblas64_-copy.so").symlink_to(bundled)
    get, _ = linalg._openblas_thread_calls(tmp_path)
    assert get() == threads


def test_blas_threads_without_the_library_or_its_symbols_do_nothing(tmp_path, monkeypatch):
    assert linalg._openblas_thread_calls(tmp_path) is None  # no library
    (tmp_path / "libscipy_openblas64_-text.so").write_text("not a shared library")
    assert linalg._openblas_thread_calls(tmp_path) is None  # does not load
    (tmp_path / "libscipy_openblas64_-other.so").symlink_to(_ctypes.__file__)
    assert linalg._openblas_thread_calls(tmp_path) is None  # loads, lacks the symbols
    monkeypatch.setattr(linalg, "_openblas_thread_calls", lambda: None)
    assert linalg.blas_threads() is None
    assert linalg.set_blas_threads(1) is None
