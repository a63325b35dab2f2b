"""Tests for the dense linear-algebra helpers."""

import _ctypes
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framecrypt import linalg
from framecrypt.linalg import (
    HERMITIAN_TOL,
    check_limit,
    dagger,
    derived_rng,
    haar_columns,
    is_hermitian,
    kron_power,
    normalize_rows,
    random_density_matrix,
    random_pure_state,
    trace_norm,
)
from framecrypt.privacy import haar_fourth_moment

from oracles import full_haar_unitary


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_hand_values():
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.zeros((3, 3))) == 0.0
    # Pauli y: eigenvalues +-1; the all-ones 2x2: eigenvalues 2 and 0
    assert trace_norm(np.array([[0.0, -1j], [1j, 0.0]])) == pytest.approx(2.0, abs=1e-14)
    assert trace_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-14)


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_is_the_singular_value_sum_of_hermitian_input():
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
    x, y = hermitian_blocks((dim, dim), rng)
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
    with pytest.raises(ValueError, match="HERMITIAN_TOL"):
        trace_norm(np.array([[3j]]))


def nilpotent_pair():
    """A nilpotent 6 x 6, split into components like a Hermitian one would be."""
    x = np.zeros((6, 6))
    x[0, 3] = x[4, 1] = 1.0
    return x


def with_entry(x, value):
    """x with entry (1, 2) set to ``value``."""
    x = np.array(x, dtype=complex)
    x[1, 2] = value
    return x


@pytest.mark.parametrize(
    "x",
    [nilpotent_pair(), with_entry(np.eye(4), np.nan), with_entry(np.eye(4), np.inf), np.diag([1.0, np.inf])],
    ids=["nilpotent", "nan", "inf", "inf-diagonal"],
)
def test_trace_norm_refuses_input_that_is_not_hermitian_before_any_eigensolve(x, monkeypatch):
    # with numpy's warnings raised as errors, inf - inf on the diagonal still ends in the refusal
    eig_shapes = record_calls(monkeypatch, "eigvalsh")
    with np.errstate(all="raise"), pytest.raises(ValueError, match="HERMITIAN_TOL"):
        trace_norm(x)
    assert eig_shapes == []


# ---------------------------------------------------------------------------
# random ensembles
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 8, 33])
def test_haar_columns_at_m_equal_k_are_the_full_draw_bit_for_bit(k):
    for size in (None, 4):
        want = full_haar_unitary(k, 100 + k, size=size)
        assert_same_bits(haar_columns(k, k, 100 + k, size=size), want)
        assert_same_bits(linalg.haar_unitary(k, 100 + k, size=size), want)


@pytest.mark.parametrize("k, m", [(1, 1), (2, 1), (5, 2), (5, 5), (72, 2), (544, 3)])
def test_haar_columns_are_orthonormal_and_repeat(k, m):
    for size in (None, 6):
        q = haar_columns(k, m, 123, size=size)
        assert q.shape == ((k, m) if size is None else (size, k, m))
        np.testing.assert_allclose(dagger(q) @ q, np.broadcast_to(np.eye(m), q.shape[:-2] + (m, m)), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(q, haar_columns(k, m, 123, size=size))
        assert not np.array_equal(q, haar_columns(k, m, 124, size=size))


@pytest.mark.parametrize("k, m", [(3, 0), (3, 4), (1, 2), (0, 0), (5, -1)])
def test_haar_columns_refuse_a_count_outside_one_to_k_before_drawing(k, m):
    rng = np.random.default_rng(9)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="m <= k"):
        haar_columns(k, m, rng)
    assert rng.bit_generator.state == before


# (i, j, k, l, m, n, p, q) of E[U_ij conj(U_kl) U_mn conj(U_pq)]: |U00|^4 and
# |U00|^2 |U10|^2 in one column; with two, |U00|^2 |U01|^2 and the loop term
ONE_COLUMN_MOMENTS = ((0, 0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 1, 0))
TWO_COLUMN_MOMENTS = ONE_COLUMN_MOMENTS + ((0, 0, 0, 0, 0, 1, 0, 1), (0, 0, 0, 1, 1, 1, 1, 0))


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("k", range(2, 9))
def test_haar_columns_moments_match_the_closed_form(k, m):
    # fourth moments against the Weingarten formula, and E[U00] = 0: the
    # phase fix is what centres it (without it LAPACK's sign convention for
    # R's diagonal gives every U00 a negative real part)
    n = 20_000
    us = haar_columns(k, m, derived_rng(707, k, m), size=n)

    def z_score(samples, exact):
        return abs(samples.mean() - exact) / (samples.std(ddof=1) / np.sqrt(n))

    assert z_score(us[:, 0, 0].real, 0.0) <= 4.0
    assert z_score(us[:, 0, 0].imag, 0.0) <= 4.0
    for i, j, kk, l, mm, nn, p, q in TWO_COLUMN_MOMENTS if m == 2 else ONE_COLUMN_MOMENTS:
        samples = us[:, i, j] * us[:, kk, l].conj() * us[:, mm, nn] * us[:, p, q].conj()
        exact = haar_fourth_moment(k, i, j, kk, l, mm, nn, p, q)
        assert z_score(samples.real, exact) <= 4.0
        if (i, j, kk, l, mm, nn, p, q) == TWO_COLUMN_MOMENTS[-1]:
            assert z_score(samples.imag, 0.0) <= 4.0


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
    rng = np.random.default_rng(seed)
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
    for negative in ((-1, 2), (1, -3)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            derived_rng(*negative)


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
    # trace_norm's Hermitian verdict, read off whether it eigensolves or
    # refuses, must be the dense formula's on the whole matrix although
    # is_hermitian sees only the gathered components.  From dim 8 the input
    # is a permuted direct sum of blocks of sizes 2, 2, m, m and a larger
    # one, so the parts are three stacks; below it, one block.  An off-diagonal entry just inside, at and
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
    results = []
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in the dense formula
        for x in cases:
            eig_shapes.clear()
            hermitian = dense_is_hermitian(x)
            if hermitian:
                trace_norm(x)
            else:
                with pytest.raises(ValueError, match="HERMITIAN_TOL"):
                    trace_norm(x)
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
    rotations = [haar_columns(2, 2, rng) for _ in range(3)]  # complex 2 x 2
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
