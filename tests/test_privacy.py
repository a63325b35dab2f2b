"""Tests for the privacy experiments: f, nets, concentration, moments."""

import errno
import itertools
import math
import mmap
import multiprocessing
import os
import queue
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from framecrypt import privacy
from framecrypt.channel import reduced_map_f
from framecrypt.linalg import derived_rng, random_pure_state, set_blas_threads, trace_norm
from framecrypt.privacy import (
    ASCENT_ITERS,
    ASCENT_RESTARTS,
    LIPSCHITZ_BOUND,
    SubspaceSample,
    _ascend_all,
    _f_on_draws,
    _span_states,
    F_CHUNK_BYTES,
    FORK_BYTES,
    build_eps_net,
    concentration_experiment,
    net_size,
    estimate_max_f,
    f_chunk,
    f_eval,
    f_eval_direct,
    f_evals,
    haar_fourth_moment,
    haar_moment_check,
    helstrom_distinguish,
    lipschitz_check,
    mean_f_experiment,
    sample_subspace,
    theorem1_experiment,
)
from framecrypt.workspace import build_working_space

WS12 = build_working_space(12, 2.0)


def chunk_draws(k, count, stream, shape=(), one=None):
    """The states _f_on_draws draws, written out: each draw by one(rng) on its
    chunk's generator derived_rng(*stream, c), one draw after another; by
    default the draw's states by random_pure_state, as the sampler draws
    them itself.  Shape (count, *shape, k)."""
    per_draw = math.prod(shape)
    if one is None:
        one = lambda rng: np.array([random_pure_state(k, rng) for _ in range(per_draw)])  # noqa: E731
    chunk = f_chunk(k, per_draw)
    draws = []
    for i in range(count):
        if i % chunk == 0:
            rng = derived_rng(*stream, i // chunk)
        draws.append(np.reshape(one(rng), (*shape, k)))
    return np.array(draws)


def spread_state(ws):
    v = np.zeros(ws.k, dtype=complex)
    for i in range(len(ws.y)):
        blk = ws.blocks(v)[i]
        blk[np.arange(ws.d_alpha), np.arange(ws.d_alpha)] = 1.0
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# f itself
# ---------------------------------------------------------------------------

def test_f_on_a_kept_basis_state():
    # || |l><l| - I/d_p ||_1 = 2 (1 - 1/d_p) = 1.75 at d_p = 8
    e0 = np.zeros(WS12.k)
    e0[0] = 1.0
    assert f_eval(e0, WS12) == pytest.approx(1.75, abs=1e-12)
    assert f_eval_direct(e0, WS12) == pytest.approx(1.75, abs=1e-9)


def test_f_vanishes_on_the_spread_state():
    assert f_eval(spread_state(WS12), WS12) < 1e-12


def test_f_is_phase_invariant_and_bounded():
    for s in range(10):
        phi = random_pure_state(WS12.k, s)
        val = f_eval(phi, WS12)
        assert 0.0 <= val <= 2.0
        assert f_eval(np.exp(0.7j) * phi, WS12) == pytest.approx(val, abs=1e-12)


def test_f_two_routes_agree():
    for n in (8, 12):
        ws = build_working_space(n, 2.0)
        for s in range(20):
            phi = random_pure_state(ws.k, derived_rng(101, n, s))
            assert f_eval(phi, ws) == pytest.approx(
                f_eval_direct(phi, ws), abs=1e-9
            )


def record_eigvalsh(monkeypatch):
    """Wrap np.linalg.eigvalsh; the returned list collects each call's input shape."""
    shapes, real = [], np.linalg.eigvalsh

    def wrapped(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", wrapped)
    return shapes


@pytest.mark.parametrize("n", [60, 128])
def test_reduced_map_route_solves_one_eigenproblem_size(n, monkeypatch):
    # the reduced map is a direct sum of |Y| dense D_alpha x D_alpha blocks
    ws = build_working_space(n, 2.0)
    phi = random_pure_state(ws.k, derived_rng(7, n))
    shapes = record_eigvalsh(monkeypatch)
    value = trace_norm(reduced_map_f(phi, ws) - np.eye(ws.d_p) / ws.d_p)
    assert shapes and all(s[-2:] == (ws.d_alpha, ws.d_alpha) for s in shapes)
    assert value == pytest.approx(f_eval(phi, ws), abs=1e-9)


def test_direct_route_solves_no_eigenproblem_larger_than_d_alpha(monkeypatch):
    # each materialized block is (2j+1) copies of one D_alpha x D_alpha block, plus zeros
    shapes = record_eigvalsh(monkeypatch)
    for s in range(3):
        f_eval_direct(random_pure_state(WS12.k, derived_rng(8, s)), WS12)
    assert WS12.d_alpha == 4
    assert shapes and max(s[-1] for s in shapes) == WS12.d_alpha


def per_block_f(phi, ws):
    """f by one eigensolve per block on coordinate slices, block totals added
    in block order; n = 128 has 22 blocks, enough for a pairwise sum over
    blocks to round differently."""
    width = ws.d * ws.d_alpha
    total = 0.0
    for i in range(len(ws.y)):
        a = phi[i * width : (i + 1) * width].reshape(ws.d, ws.d_alpha)
        t = a.T @ a.conj()
        t[np.diag_indices(ws.d_alpha)] -= 1.0 / ws.d_p
        total += float(np.abs(np.linalg.eigvalsh(t)).sum())
    return total


@pytest.mark.parametrize("n", [12, 128])
def test_f_matches_the_per_block_loop_exactly(n):
    ws = build_working_space(n, 2.0)
    for s in range(8):
        phi = random_pure_state(ws.k, derived_rng(303, n, s))
        assert f_eval(phi, ws) == per_block_f(phi, ws)


@pytest.mark.parametrize("n", [12, 24, 128])
def test_f_evals_matches_f_eval_bit_for_bit(n):
    # stacks one short of, exactly and one past a chunk, and at least eight
    # states: a value must not depend on its neighbours in the stacked
    # eigensolve or on the size of the stack
    ws = build_working_space(n, 2.0)
    chunk = f_chunk(ws.k)
    states = random_pure_state(ws.k, derived_rng(404, n), size=max(chunk + 1, 8))
    for m in (1, chunk - 1, chunk, chunk + 1, len(states)):
        stack = states[:m]
        got = f_evals(stack, ws)
        assert got.shape == (m,)
        assert np.array_equal(got, np.array([f_eval(p, ws) for p in stack]))
        assert np.array_equal(got, np.array([per_block_f(p, ws) for p in stack]))
    # an (m, 2, K) stack of pairs, as the Lipschitz sampler hands it over
    pairs = states[: len(states) // 2 * 2].reshape(-1, 2, ws.k)
    got = f_evals(pairs, ws)
    assert got.shape == pairs.shape[:2]
    assert np.array_equal(got, np.array([[f_eval(p, ws) for p in pair] for pair in pairs]))


def test_f_evals_on_an_empty_stack_is_empty():
    assert f_evals(np.empty((0, WS12.k), dtype=complex), WS12).shape == (0,)
    with pytest.raises(ValueError):
        f_evals(np.zeros(WS12.k), WS12)  # one state, not a stack
    with pytest.raises(ValueError):
        f_evals(np.zeros((3, WS12.k + 1)), WS12)


@pytest.mark.parametrize("n, chunk", [(12, 56), (24, 7), (60, 1), (128, 1)])
def test_f_chunk_holds_one_state_on_large_spaces_and_fits_the_budget(n, chunk):
    k = build_working_space(n, 2.0).k
    state_bytes = k * np.dtype(complex).itemsize
    assert f_chunk(k) == chunk
    pair_chunk = f_chunk(k, 2)
    assert pair_chunk == max(1, chunk // 2)  # 28 pairs at n = 12, 3 at n = 24
    # a chunk counts states: a chunk of several draws stays within the
    # budget, and one more draw would not fit
    for per_draw, draws in ((1, chunk), (2, pair_chunk)):
        assert draws == 1 or draws * per_draw * state_bytes <= F_CHUNK_BYTES
        assert (draws + 1) * per_draw * state_bytes > F_CHUNK_BYTES


def test_f_rejects_leaky_input():
    vec = np.zeros(2**12, dtype=complex)
    vec[WS12.embed_positions[0]] = math.sqrt(0.5)
    outside = 0 if 0 not in set(WS12.embed_positions.tolist()) else 1
    vec[outside] = math.sqrt(0.5)
    with pytest.raises(ValueError):
        f_eval(vec, WS12)


# ---------------------------------------------------------------------------
# distinguishability
# ---------------------------------------------------------------------------

def test_helstrom_endpoints():
    rho = np.diag([0.5, 0.5]).astype(complex)
    assert helstrom_distinguish(rho, rho) == pytest.approx(0.5, abs=1e-14)
    p1 = np.diag([1.0, 0.0]).astype(complex)
    p2 = np.diag([0.0, 1.0]).astype(complex)
    assert helstrom_distinguish(p1, p2) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        helstrom_distinguish(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

def test_sample_subspace_owns_a_contiguous_basis():
    # a view of the K x K unitary would keep all of it alive behind the basis
    for ws, dim_s in ((WS12, 2), (build_working_space(24, 2.0), 3)):
        basis = sample_subspace(ws, dim_s, 4).basis
        assert basis.flags.c_contiguous
        assert basis.base is None or basis.base.shape == basis.shape


def test_subspace_sample_refuses_a_column_off_unit_norm():
    # allclose's default rtol=1e-5 would pass a squared norm of 1 + 5e-6,
    # and estimate_max_f would then certify a bound on non-unit states
    for ws, dim_s, seed in ((WS12, 2, 3), (WS12, WS12.k, 0), (build_working_space(24, 2.0), 5, 1)):
        basis = sample_subspace(ws, dim_s, seed).basis
        assert SubspaceSample(basis).dim_s == dim_s  # Haar bases pass
    stretched = sample_subspace(WS12, 2, 3).basis.copy()
    stretched[:, 0] *= math.sqrt(1.0 + 5e-6)
    with pytest.raises(ValueError, match="orthonormal"):
        SubspaceSample(stretched)


def test_sample_subspace_basics():
    sub = sample_subspace(WS12, 3, 5)
    assert sub.basis.shape == (WS12.k, 3)
    np.testing.assert_allclose(sub.basis.conj().T @ sub.basis, np.eye(3), atol=1e-10)
    again = sample_subspace(WS12, 3, 5)
    np.testing.assert_array_equal(sub.basis, again.basis)
    other = sample_subspace(WS12, 3, 6)
    # different seeds give genuinely different subspaces
    overlap = np.linalg.svd(sub.basis.conj().T @ other.basis, compute_uv=False)
    assert overlap.min() < 0.999
    full = sample_subspace(WS12, WS12.k, 0)
    proj = full.basis @ full.basis.conj().T
    np.testing.assert_allclose(proj, np.eye(WS12.k), atol=1e-10)
    with pytest.raises(ValueError):
        sample_subspace(WS12, 0, 1)
    with pytest.raises(ValueError):
        sample_subspace(WS12, WS12.k + 1, 1)


# ---------------------------------------------------------------------------
# covering nets
# ---------------------------------------------------------------------------

def test_net_dim1_at_unit_resolution():
    # D = 1: each face of [-1, 1] is one point, so the net is the two real rays
    net = build_eps_net(1, 1.0, 0)
    np.testing.assert_array_equal(net.points, [[1.0], [-1.0]])
    assert net.covering_radius == 0.0


@pytest.mark.parametrize("dim_s, epsilon", [(1, 0.5), (2, 0.6), (2, 0.25), (3, 0.9)])
def test_net_covers_every_probe_ray(dim_s, epsilon):
    net = build_eps_net(dim_s, epsilon, 0)
    assert net.covering_radius <= epsilon / 2.0
    probes = random_pure_state(dim_s, derived_rng(606, dim_s), size=4000)
    overlap = np.abs(probes.conj() @ net.points.T).max(axis=1)
    # distance from c to the nearest phase of p is sqrt(2 - 2 |<c, p>|);
    # compared squared, where roundoff in the overlap stays at 1e-16
    assert (2.0 - 2.0 * overlap).max() <= net.covering_radius**2 + 1e-12


def test_net_point_count_is_exact():
    # 2D m^(D-1) points, D = 2 dim_s - 1, m = ceil(2 sqrt(D-1) / epsilon)
    counts = {(1, 0.25): 2, (2, 1.0): 54, (2, 0.6): 150, (2, 0.25): 864, (3, 1.0): 2560, (3, 0.5): 40960}
    for (dim_s, epsilon), count in counts.items():
        assert build_eps_net(dim_s, epsilon, 0).n_points == count
        assert net_size(dim_s, epsilon) == count


def test_net_determinism_and_validation():
    a = build_eps_net(2, 0.5, 42)
    b = build_eps_net(2, 0.5, 7)  # the seed is not used
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_allclose(np.linalg.norm(a.points, axis=1), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        build_eps_net(4, 0.5, 0)
    with pytest.raises(ValueError):
        build_eps_net(2, 1.5, 0)
    with pytest.raises(ValueError, match="655360 points"):
        build_eps_net(3, 0.25, 0)


# ---------------------------------------------------------------------------
# max-f estimation
# ---------------------------------------------------------------------------

def loop_ascend(c0, basis, ws, iters=ASCENT_ITERS, tol=1e-12):
    """Reference for one start of the ascent: per-block eigensolves and lifts
    on slices.  Returns the best value, the final coefficients and the
    number of rounds run."""
    width, da = ws.d * ws.d_alpha, ws.d_alpha
    c, best = c0 / np.linalg.norm(c0), -np.inf
    for rounds in range(1, iters + 1):
        v = basis @ c
        val, lifted = 0.0, np.empty_like(basis)
        for i in range(len(ws.y)):
            s = slice(i * width, (i + 1) * width)
            a = v[s].reshape(ws.d, da)
            t = a.T @ a.conj()
            t[np.diag_indices(da)] -= 1.0 / ws.d_p
            evals, evecs = np.linalg.eigh(t)
            val += float(np.abs(evals).sum())
            w = (evecs * np.sign(evals)) @ evecs.conj().T
            blk = basis[s].reshape(ws.d, da, -1)
            lifted[s] = np.einsum("mls,lk->mks", blk, w.T).reshape(width, -1)
        if val <= best + tol:
            return max(best, val), c, rounds
        best = val
        quad = basis.conj().T @ lifted
        c = np.linalg.eigh((quad + quad.conj().T) / 2.0)[1][:, -1]
    return best, c, iters


@pytest.mark.parametrize("n, dim_s", [(12, 3), (24, 4), (12, 2)])  # (12, 2): 32, 45, 42 and 80 rounds
def test_ascent_matches_the_per_block_loop_exactly(n, dim_s):
    ws = build_working_space(n, 2.0)
    sub = sample_subspace(ws, dim_s, 11)
    starts = np.array([random_pure_state(dim_s, derived_rng(404, n, s)) for s in range(4)])
    vals, coeffs = _ascend_all(starts, sub.basis, ws)
    rounds = []
    for start, val, c in zip(starts, vals, coeffs):
        ref_val, ref_c, ref_rounds = loop_ascend(start, sub.basis, ws)
        assert val == ref_val
        np.testing.assert_array_equal(c, ref_c)
        rounds.append(ref_rounds)
    assert len(set(rounds)) > 1  # the starts leave the stack in different rounds
    if dim_s == 2:
        assert ASCENT_ITERS in rounds  # and one never meets ASCENT_TOL


@pytest.mark.parametrize("dim_s", [2, 3])
@pytest.mark.parametrize("budget", [1, 2, 3, 60])
def test_estimate_matches_one_start_at_a_time_exactly(dim_s, budget):
    # with budget < ASCENT_RESTARTS every probe starts an ascent
    sub = sample_subspace(WS12, dim_s, 21)
    est = estimate_max_f(sub, WS12, budget=budget, seed=6, net_epsilon=0.6)
    probes = random_pure_state(dim_s, derived_rng(6, 0), size=budget)
    vals = [f_eval(sub.basis @ c, WS12) for c in probes]
    lower = max(vals)
    for idx in np.argsort(vals)[::-1][:ASCENT_RESTARTS]:
        lower = max(lower, loop_ascend(probes[idx], sub.basis, WS12)[0])
    certified = None
    if dim_s == 2:
        net_max = max(f_eval(sub.basis @ c, WS12) for c in build_eps_net(2, 0.6, 6).points)
        lower, certified = max(lower, net_max), net_max + 0.6
    assert est == (lower, certified)


@pytest.mark.parametrize("n, alpha", [(12, 2.0), (24, 2.0), (40, 9.0), (40, 2.0)])  # K = 72, 544, 567, 2,457
@pytest.mark.parametrize("dim_s", [2, 3, 4, 5])
def test_span_states_are_one_row_products_bit_for_bit(kernel_input, n, alpha, dim_s):
    # the stacked matrix-vector product keeps each row's bits; should numpy
    # ever round it differently, this fails before the golden files move
    ws = build_working_space(n, alpha)
    if ws.k < 1000:
        basis = sample_subspace(ws, dim_s, n + dim_s).basis
    else:  # a K x K Haar draw is over its limit here: orthonormalize dim_s random columns
        basis = np.linalg.qr(random_pure_state(ws.k, derived_rng(n, dim_s), size=dim_s).T)[0]
    chunk = f_chunk(ws.k)
    for count in sorted({max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1}):
        coeffs = random_pure_state(dim_s, derived_rng(n, dim_s, count), size=count)
        # the one-start ascent's coefficients were strided eigenvector columns
        columns = np.linalg.eigh(coeffs[:, :, None] * coeffs[:, None, :].conj())[1][..., -1]
        for cs in (coeffs, columns):
            want = [basis @ c for c in cs]
            np.testing.assert_array_equal(_span_states(basis, np.ascontiguousarray(cs)), want)
        kernel_input.clear()
        fs = _f_on_draws(count, ws, span=(basis, coeffs))
        got = np.concatenate(kernel_input)
        assert len(got) == count
        for i, c in enumerate(coeffs):
            np.testing.assert_array_equal(got[i], basis @ c)
            assert fs[i] == f_evals((basis @ c)[None], ws)[0]


def test_estimate_dim1_is_exact():
    sub = sample_subspace(WS12, 1, 2)
    est = estimate_max_f(sub, WS12, budget=5, seed=0)
    val = f_eval(sub.basis[:, 0], WS12)
    assert est.lower_bound == pytest.approx(val, abs=1e-12)
    assert est.certified_upper_bound == pytest.approx(val, abs=1e-12)


def test_estimate_dim2_bounds_are_sound():
    sub = sample_subspace(WS12, 2, 7)
    est = estimate_max_f(sub, WS12, budget=40, seed=1, net_epsilon=0.6)
    assert est.lower_bound <= est.certified_upper_bound + 1e-12
    # every state of the subspace stays below the certified maximum
    for s in range(200):
        c = random_pure_state(2, derived_rng(55, s))
        assert f_eval(sub.basis @ c, WS12) <= est.certified_upper_bound + 1e-9
    # the ascent can only improve on the raw probe maximum
    probes = random_pure_state(2, derived_rng(1, 0), size=40)
    raw = max(f_eval(sub.basis @ c, WS12) for c in probes)
    assert est.lower_bound >= raw - 1e-12


def test_estimate_dim3_has_no_certificate():
    sub = sample_subspace(WS12, 3, 9)
    est = estimate_max_f(sub, WS12, budget=30, seed=4)
    assert est.certified_upper_bound is None
    assert 0.0 <= est.lower_bound <= 2.0


def test_estimate_validation():
    sub = sample_subspace(WS12, 2, 0)
    with pytest.raises(ValueError):
        estimate_max_f(sub, WS12, budget=0, seed=0)
    other = build_working_space(8, 2.0)
    with pytest.raises(ValueError):
        estimate_max_f(sub, other, budget=5, seed=0)


# ---------------------------------------------------------------------------
# statistical experiments (small sample sizes; the acceptance suite scales up)
# ---------------------------------------------------------------------------

def test_mean_f_respects_both_bounds():
    report = mean_f_experiment(WS12, 400, 3)
    assert report.mean_f <= 1.0 / math.sqrt(2.0) + 3.0 * report.stderr_f
    assert report.mean_f <= math.sqrt(4.0 / 9.0) + 3.0 * report.stderr_f
    assert report.median_f <= 2.0 * report.mean_f
    assert report.bound_inv_sqrt_alpha == pytest.approx(1.0 / math.sqrt(2.0))
    assert report.bound_ratio == pytest.approx(2.0 / 3.0)
    ws4 = build_working_space(12, 4.0)
    r4 = mean_f_experiment(ws4, 400, 3)
    assert r4.mean_f <= 0.5 + 3.0 * r4.stderr_f
    with pytest.raises(ValueError):
        mean_f_experiment(WS12, 1, 0)


def test_concentration_tail_and_fit():
    report = concentration_experiment(WS12, 600, (0.05, 0.2, 2.0), 1.0, 5)
    assert report.tail[2.0] == 0.0  # |f - median| cannot exceed the range of f
    assert set(report.tail) == {0.05, 0.2, 2.0}
    for g, bound in report.levy_bound.items():
        assert bound == pytest.approx(2.0 ** (-(WS12.k - 1) * g**2 / 2.0))
    if report.fitted_c is not None:
        # the fitted curve majorizes every observed tail point
        for g, t in report.tail.items():
            if t > 0:
                assert 2.0 ** (-report.fitted_c * (WS12.k - 1) * g**2 / 2.0) >= t - 1e-12
    with pytest.raises(ValueError):
        concentration_experiment(WS12, 100, (), 1.0, 0)
    with pytest.raises(ValueError):
        concentration_experiment(WS12, 100, (-0.1,), 1.0, 0)


def test_lipschitz_small_batches():
    assert lipschitz_check(WS12, 200, 9) <= LIPSCHITZ_BOUND + 1e-9
    assert lipschitz_check(WS12, 50, 10, perturbation=1e-4) <= LIPSCHITZ_BOUND + 1e-9
    with pytest.raises(ValueError):
        lipschitz_check(WS12, 0, 0)


@pytest.mark.parametrize("perturbation", [0.0, 1e-15])
def test_lipschitz_skips_pairs_closer_than_roundoff(perturbation):
    # every pair is within 1e-13 of its partner, so none is measured
    assert lipschitz_check(WS12, 50, 3, perturbation=perturbation) == 0.0


def test_lipschitz_mixes_skipped_and_kept_pairs_in_one_chunk():
    # at this scale the gaps straddle the 1e-13 skip threshold, so every chunk
    # of the pair sampler (28 pairs) holds both kinds; checked against a
    # per-pair loop that takes each chunk's pairs from the chunk's generator
    n_pairs, perturbation = 120, 8.5e-15
    chunk = f_chunk(WS12.k, 2)
    worst, skipped = 0.0, []
    for i in range(n_pairs):
        if i % chunk == 0:
            rng = derived_rng(3, i // chunk)
        phi = random_pure_state(WS12.k, rng)
        noise = rng.standard_normal(WS12.k) + 1j * rng.standard_normal(WS12.k)
        psi = phi + perturbation * noise
        psi = psi / np.linalg.norm(psi)
        gap = np.linalg.norm(phi - psi)
        skipped.append(gap < 1e-13)
        if not skipped[-1]:
            worst = max(worst, abs(f_eval(phi, WS12) - f_eval(psi, WS12)) / gap)
    for start in range(0, n_pairs, chunk):
        assert 0 < sum(skipped[start : start + chunk]) < len(skipped[start : start + chunk])
    assert lipschitz_check(WS12, n_pairs, 3, perturbation=perturbation) == worst


# ---------------------------------------------------------------------------
# large calls spread over forked workers
# ---------------------------------------------------------------------------

WS84 = build_working_space(84, 2.0)  # K = 22,344: one state takes 357,504 bytes


@pytest.fixture
def cpus(monkeypatch):
    """cpus(c): the sampler sees c CPUs; BLAS runs one thread, as under the CLI."""
    threads = set_blas_threads(1)
    if threads is None or not hasattr(os, "fork"):
        pytest.skip("the sampler forks only where os.fork exists and BLAS reads one thread")
    yield lambda count: monkeypatch.setattr(privacy, "_cpus", lambda: count)
    set_blas_threads(threads)


def no_child_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def pid(states):
    """per_draw values: the process that drew the states, once per draw."""
    return np.full(len(states), os.getpid())


def shares_of(pids):
    """The processes that drew, one per contiguous run of draws."""
    return [p for p, _ in itertools.groupby(pids)]


def test_draws_spread_only_from_the_fork_threshold(cpus):
    state_bytes = np.dtype(complex).itemsize
    cpus(4)
    assert privacy._workers(FORK_BYTES - 1, 100) == 1
    assert privacy._workers(FORK_BYTES, 100) == 4
    assert privacy._workers(FORK_BYTES, 3) == 3  # at most one worker per chunk
    # certify's calls (60 probes, 150 net points at n = 12) stay serial;
    # concentration --n 12 --samples 5000 spreads
    assert 150 * WS12.k * state_bytes < FORK_BYTES <= 5000 * WS12.k * state_bytes
    cpus(1)
    assert privacy._workers(2**40, 100) == 1
    cpus(4)
    threads = set_blas_threads(2)  # BLAS threads would compete with the workers
    try:
        assert privacy._workers(2**40, 100) == 1
    finally:
        set_blas_threads(threads)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_spread_draws_match_one_state_f_evals_exactly(cpus, count):
    cpus(count)  # 5: more shares than this machine may have cores
    draws = 13  # 4.6 MB of states: over FORK_BYTES, one draw per chunk
    by_sampler, pids = _f_on_draws(draws, WS84, stream=(606,), per_draw=pid)
    by_callback, callback_pids = _f_on_draws(
        draws, WS84, lambda m, rng: chunk_draws_of(m, rng, WS84.k), stream=(606,), per_draw=pid
    )
    assert no_child_left()
    want = [f_evals(random_pure_state(WS84.k, derived_rng(606, i))[None], WS84)[0] for i in range(draws)]
    assert np.array_equal(by_sampler, want)
    assert np.array_equal(by_callback, want)
    for drawn_by in (pids, callback_pids):
        # one contiguous share per process, the caller's first
        assert len(shares_of(drawn_by)) == len(set(drawn_by)) == count
        assert drawn_by[0] == os.getpid()


@pytest.mark.parametrize("count", [2, 3, 5])
def test_spread_chunks_match_the_serial_loop(cpus, count):
    # n = 12: 66 whole chunks of 56 draws and a partial one; each share is a
    # run of whole chunks, so its draws are the serial loop's
    draws = 3700
    cpus(1)
    serial = _f_on_draws(draws, WS12, stream=(9, 2))
    cpus(count)
    spread, pids = _f_on_draws(draws, WS12, stream=(9, 2), per_draw=pid)
    assert no_child_left()
    assert np.array_equal(spread, serial)
    chunk = f_chunk(WS12.k)
    assert len(shares_of(pids)) == count
    assert all(pids[i] == pids[i - 1] for i in range(1, draws) if i % chunk)
    assert np.array_equal(serial, f_evals(chunk_draws(WS12.k, draws, (9, 2)), WS12))


def nearby_pair(k, rng, perturbation):
    """The per-pair draw of lipschitz_check, written out."""
    phi = random_pure_state(k, rng)
    psi = phi + perturbation * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return phi, psi / np.linalg.norm(psi)


def chunk_draws_of(m, rng, k, one=None):
    """A per-chunk draw callback, written out: the chunk's first m draws, each
    by one(rng) (default: one random_pure_state), one after another."""
    one = one or (lambda rng: random_pure_state(k, rng))
    return np.array([one(rng) for _ in range(m)])


def pair_gaps(pairs):
    """per_draw values: np.linalg.norm(phi - psi) of every pair, one at a time."""
    return [np.linalg.norm(phi - psi) for phi, psi in pairs]


@pytest.mark.parametrize("perturbation", [None, 1e-4])
def test_spread_pairs_and_gaps_match_the_serial_loop(cpus, perturbation):
    pairs_drawn = 6  # 4.3 MB of states: over FORK_BYTES

    def pairs(count):
        cpus(count)
        one = lambda rng: nearby_pair(WS84.k, rng, perturbation)  # noqa: E731
        draw = None if perturbation is None else (lambda m, rng: chunk_draws_of(m, rng, WS84.k, one))
        fs, gaps = _f_on_draws(pairs_drawn, WS84, draw, stream=(8,), shape=(2,), per_draw=pair_gaps)
        _, pids = _f_on_draws(pairs_drawn, WS84, draw, stream=(8,), shape=(2,), per_draw=pid)
        assert len(set(pids)) == count
        return fs, gaps, lipschitz_check(WS84, pairs_drawn, 8, perturbation)

    want_fs, want_gaps = [], []
    for i in range(pairs_drawn):
        rng = derived_rng(8, i)
        if perturbation is None:
            phi, psi = random_pure_state(WS84.k, rng), random_pure_state(WS84.k, rng)
        else:
            phi, psi = nearby_pair(WS84.k, rng, perturbation)
        want_fs.append(f_evals(np.stack([phi, psi])[None], WS84)[0])
        want_gaps.append(np.linalg.norm(phi - psi))
    serial, spread = pairs(1), pairs(3)
    assert no_child_left()
    assert spread[0].shape == (pairs_drawn, 2)
    for a, b in zip(serial, spread):
        assert np.array_equal(a, b)
    assert np.array_equal(serial[0], want_fs)
    assert np.array_equal(serial[1], want_gaps)


@pytest.fixture
def kernel_input(monkeypatch):
    """The states _f_on_draws hands f_evals, one array per kernel call."""
    calls = []

    def recording(phis, ws):
        calls.append(np.array(phis))
        return f_evals(phis, ws)

    monkeypatch.setattr(privacy, "f_evals", recording)
    return calls


@pytest.mark.parametrize("pairs", [False, True])
def test_chunk_filled_states_are_random_pure_states(kernel_input, pairs):
    # two full chunks and a partial one; each draw's states are those of
    # random_pure_state called on its chunk's generator in draw order, bit for bit
    shape = (2,) if pairs else ()
    count = 2 * f_chunk(WS12.k, 2 if pairs else 1) + 3
    fs = _f_on_draws(count, WS12, stream=(31, 4), shape=shape)
    got = np.concatenate(kernel_input)
    assert len(kernel_input) == 1 and len(got) == count  # the three chunks fill one batch
    want = chunk_draws(WS12.k, count, (31, 4), shape)
    assert np.array_equal(got, want)
    assert np.array_equal(fs, [f_evals(w[None], WS12)[0] for w in want])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3])
@pytest.mark.parametrize("prefix", [(), (7,), (0, 2**40), (3, 1, 2**32)])
def test_chunk_streams_key_on_every_word_of_seed_and_prefix(kernel_input, seed, prefix):
    # seeds across the 32- and 64-bit word boundaries and prefixes of several
    # words reach each chunk's derived_rng(seed, *prefix, c) whole: a full
    # chunk and a partial one, bit for bit
    count = f_chunk(WS12.k) + 2
    fs = _f_on_draws(count, WS12, stream=(seed, *prefix))
    want = chunk_draws(WS12.k, count, (seed, *prefix))
    assert np.array_equal(np.concatenate(kernel_input), want)
    assert np.array_equal(fs, f_evals(want, WS12))


def nearby_draw(m, rng):
    return chunk_draws_of(m, rng, WS12.k, lambda rng: nearby_pair(WS12.k, rng, 1e-4))


@pytest.mark.parametrize("shape, draw", [((), None), ((2,), None), ((2,), nearby_draw)], ids=["states", "pairs", "nearby"])
def test_a_partial_chunk_draws_a_prefix_of_the_full_chunk(kernel_input, shape, draw):
    # a call's last chunk, cut short, takes its states from the start of the
    # stream of the whole chunk, so a shorter call gives the longer one's prefix
    chunk = f_chunk(WS12.k, math.prod(shape))
    full_fs = _f_on_draws(2 * chunk, WS12, draw, stream=(7,), shape=shape)
    full = np.concatenate(kernel_input)
    for count in (1, chunk - 1, chunk + 1, 2 * chunk - 1):
        kernel_input.clear()
        fs = _f_on_draws(count, WS12, draw, stream=(7,), shape=shape)
        assert np.array_equal(np.concatenate(kernel_input), full[:count])
        assert np.array_equal(fs, full_fs[:count])


@pytest.mark.parametrize("shape", [(), (2,)])
def test_one_draw_chunks_keep_each_draws_own_generator(kernel_input, shape):
    # K = 8,200: a chunk holds one draw, so draw i's states come from
    # derived_rng(seed, *prefix, i) as when every draw had its own generator
    ws = build_working_space(60, 2.0)
    per_draw = math.prod(shape)
    assert f_chunk(ws.k, per_draw) == 1
    fs = _f_on_draws(3, ws, stream=(5, 1), shape=shape)
    got = np.concatenate(kernel_input)
    for i in range(3):
        rng = derived_rng(5, 1, i)
        want = np.array([random_pure_state(ws.k, rng) for _ in range(per_draw)]).reshape(*shape, ws.k)
        assert np.array_equal(got[i], want)
        assert np.array_equal(fs[i], f_evals(want[None], ws)[0])


def lipschitz_callbacks(monkeypatch, ws, perturbation):
    """The draw and per_draw callbacks lipschitz_check hands the sampler."""
    seen, sample = {}, privacy._f_on_draws

    def capture(count, ws, draw=None, **kwargs):
        seen.update(draw=draw, per_draw=kwargs["per_draw"])
        return sample(count, ws, draw, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(privacy, "_f_on_draws", capture)
        lipschitz_check(ws, 1, 0, perturbation)
    return seen["draw"], seen["per_draw"]


# (n, states per draw) -> (draws per chunk, chunks per batch)
BATCHES = {(12, 1): (56, 4), (12, 2): (28, 4), (24, 1): (7, 4), (24, 2): (3, 5), (60, 1): (1, 1), (60, 2): (1, 1)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["states", "pairs", "nearby"])
@pytest.mark.parametrize("n", [12, 24, 60])  # K = 72, 544: several chunks per batch; 8,200: one
def test_batches_match_the_written_out_chunks(monkeypatch, request, n, kind, workers):
    # two whole batches and a partial one, serially and in two shares: each
    # batch is one kernel call on whole chunks, each chunk drawn from its own
    # generator, and every value is the written-out chunk loop's, bit for bit
    ws = build_working_space(n, 2.0)
    shape = () if kind == "states" else (2,)
    chunk, per_batch = BATCHES[n, math.prod(shape)]
    assert f_chunk(ws.k, math.prod(shape)) == chunk
    count = 2 * chunk * per_batch + chunk * per_batch // 2 + 1
    draw, one = None, None
    if shape:  # lipschitz_check's own callbacks
        draw, gaps = lipschitz_callbacks(monkeypatch, ws, 1e-4 if kind == "nearby" else None)
    if kind == "nearby":
        one = lambda rng: nearby_pair(ws.k, rng, 1e-4)  # noqa: E731
    if workers > 1:
        request.getfixturevalue("cpus")(workers)
        monkeypatch.setattr(privacy, "FORK_BYTES", 0)  # spread however small the call
    caller, inputs = os.getpid(), []
    calls = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)  # kernel calls: caller, worker

    def kernel(phis, ws):
        calls[int(os.getpid() != caller)] += 1
        inputs.append(np.array(phis))  # reaches the caller's list only
        return f_evals(phis, ws)

    monkeypatch.setattr(privacy, "f_evals", kernel)
    fs, pids = _f_on_draws(count, ws, draw, stream=(17, 2), shape=shape, per_draw=pid)
    share_calls = calls.copy()
    want = chunk_draws(ws.k, count, (17, 2), shape, one)
    np.testing.assert_array_equal(fs, f_evals(want, ws))
    sizes = [len(list(run)) for _, run in itertools.groupby(pids)]
    assert len(sizes) == workers and pids[0] == caller
    assert workers == 1 or sizes[0] % chunk == 0  # shares are runs of whole chunks
    batches = [math.ceil(math.ceil(size / chunk) / per_batch) for size in sizes]
    assert list(share_calls[:workers]) == batches
    if workers == 1:
        assert len(inputs) == batches[0]
        np.testing.assert_array_equal(np.concatenate(inputs), want)
    if shape:
        fs_again, got = _f_on_draws(count, ws, draw, stream=(17, 2), shape=shape, per_draw=gaps)
        np.testing.assert_array_equal(fs_again, fs)
        assert np.asarray(got).view(np.uint64).tolist() == np.array(pair_gaps(want)).view(np.uint64).tolist()


@pytest.mark.parametrize("n", [12, 24, 60])
def test_lipschitz_gaps_are_the_per_pair_norms_bit_for_bit(monkeypatch, n):
    # pairs far apart, nearby, and closer than 1e-13, so the kept mask of
    # lipschitz_check sees both kinds
    ws = build_working_space(n, 2.0)
    _, gaps = lipschitz_callbacks(monkeypatch, ws, None)
    rng = derived_rng(n, 3)
    phis = random_pure_state(ws.k, rng, size=40)
    noise = random_pure_state(ws.k, rng, size=40)
    scales = np.repeat([1.0, 1e-4, 1e-13, 3e-14, 1e-15], 8)[:, None]
    psis = phis + scales * noise
    psis[:8] = random_pure_state(ws.k, rng, size=8)
    pairs = np.stack([phis, psis], axis=1)
    got = np.asarray(gaps(pairs))
    want = np.array([np.linalg.norm(phi - psi) for phi, psi in pairs])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert 0 < np.count_nonzero(got < 1e-13) < len(got)


class DrawFailed(Exception):
    pass


# three shares of 30 draws: the caller's first, fourth, fifth and sixth
# draws, then share 1's first and share 2's third
@pytest.mark.parametrize("bad", [0, 3, 4, 5, 30, 62])
def test_a_failing_draw_stops_every_share_and_is_raised(monkeypatch, cpus, bad):
    cpus(3)
    drawn = np.frombuffer(mmap.mmap(-1, 90), dtype=np.uint8)  # shared with the workers

    def slow(fn):
        def slowed(*args):
            time.sleep(0.01)
            return fn(*args)

        return slowed

    # a chunk holds one draw here, so its generator tells which draw it is
    index = {derived_rng(1, i).bit_generator.state["state"]["state"]: i for i in range(90)}

    @slow
    def draw(m, rng):
        i = index[rng.bit_generator.state["state"]["state"]]
        drawn[i] = 1
        if i == bad:
            raise DrawFailed(i)
        return chunk_draws_of(m, rng, WS84.k)

    monkeypatch.setattr(privacy, "f_evals", slow(f_evals))
    with pytest.raises(DrawFailed) as failed:
        _f_on_draws(90, WS84, draw, stream=(1,))
    assert failed.value.args == (bad,)  # the worker's exception, type and all
    assert no_child_left()  # every worker was reaped
    per_share = drawn.reshape(3, 30).sum(axis=1)
    assert (per_share < 15).all()  # each share stopped long before its end
    made = int(drawn.sum())
    time.sleep(0.05)
    assert int(drawn.sum()) == made


def test_a_killed_worker_raises_child_process_error(cpus):
    cpus(2)
    caller = os.getpid()

    def draw(m, rng):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return chunk_draws_of(m, rng, WS84.k)

    with pytest.raises(ChildProcessError, match="signal"):
        _f_on_draws(13, WS84, draw, stream=(1,))
    assert no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="this platform lists no open descriptors")
def test_a_failed_fork_leaves_no_pipe_open(monkeypatch, cpus):
    # the first worker forks, the second cannot: the error is raised, the
    # first worker is reaped and the failed fork's pipe is closed too
    cpus(3)
    forks, fork = [], os.fork

    def fork_once():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    before = len(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        _f_on_draws(13, WS84, stream=(1,))
    assert no_child_left()
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_spread_call_draws_on_one_thread_per_share_after_a_smaller_one(cpus):
    # no worker outlives a call, so a serial call leaves nothing that caps
    # the next call's shares; each share is one process drawing on one thread
    cpus(4)
    before = threading.active_count()
    _f_on_draws(2, WS84, stream=(1,))
    _, pids = _f_on_draws(16, WS84, stream=(1,), per_draw=pid)
    assert len(shares_of(pids)) == len(set(pids)) == 4
    assert pids[0] == os.getpid()
    assert no_child_left()
    assert threading.active_count() == before


def test_a_forked_child_samples_as_its_parent_did(cpus):
    # the child of a process that has spread draws forks workers of its own
    cpus(2)
    want = _f_on_draws(13, WS84, stream=(12,))
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a process with threads
        child = ctx.Process(target=lambda: results.put(_f_on_draws(13, WS84, stream=(12,))))
        child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        got = None
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
    assert got is not None, "the forked child's sampler did not finish"
    assert np.array_equal(got, want)


def test_the_fork_warning_of_python_3_12_is_not_raised(monkeypatch, cpus):
    # from 3.12, os.fork warns in the parent once the child exists when other
    # threads run (here OpenBLAS's pool); the suite turns warnings into errors
    cpus(1)
    want = _f_on_draws(13, WS84, stream=(12,))
    forks, fork = [], os.fork

    def fork_and_warn():
        child = fork()
        if child:
            forks.append(child)
            warnings.warn("use of fork() may lead to deadlocks in the child", DeprecationWarning, stacklevel=2)
        return child

    monkeypatch.setattr(os, "fork", fork_and_warn)
    cpus(2)
    assert np.array_equal(_f_on_draws(13, WS84, stream=(12,)), want)
    assert len(forks) == 1
    assert no_child_left()


def test_small_draws_start_no_thread(monkeypatch, cpus):
    # calls below FORK_BYTES neither fork nor start a thread, whatever the CPUs
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cpus(4)
    before = threading.active_count()
    ws60 = build_working_space(60, 2.0)
    mean_f_experiment(ws60, 20, 3)  # 2.6 MB of states
    assert _f_on_draws(3, WS12, stream=(2,), shape=(2,)).shape == (3, 2)
    estimate_max_f(sample_subspace(WS12, 2, 5), WS12, budget=60, seed=5, net_epsilon=0.6)  # certify's calls
    assert forks == []
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# fourth moments of Haar unitaries
# ---------------------------------------------------------------------------

def test_fourth_moment_closed_forms():
    # |U_11|^4: 2/(k(k+1))
    assert haar_fourth_moment(2, 0, 0, 0, 0, 0, 0, 0, 0) == pytest.approx(1.0 / 3.0)
    assert haar_fourth_moment(4, 0, 0, 0, 0, 0, 0, 0, 0) == pytest.approx(2.0 / 20.0)
    # |U_11|^2 |U_12|^2: 1/(k(k+1))
    assert haar_fourth_moment(3, 0, 0, 0, 0, 0, 1, 0, 1) == pytest.approx(1.0 / 12.0)
    # the loop contraction: -1/(k (k^2 - 1))
    assert haar_fourth_moment(2, 0, 0, 0, 1, 1, 1, 1, 0) == pytest.approx(-1.0 / 6.0)
    # moments with an unmatched index vanish
    assert haar_fourth_moment(3, 0, 0, 0, 0, 1, 2, 2, 1) == 0.0
    with pytest.raises(ValueError):
        haar_fourth_moment(1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_fourth_moment_sums_to_second_moment():
    # summing E|U_1j|^2 |U_1l|^2 over l recovers E|U_1j|^2 = 1/k
    for k in (2, 3, 5):
        total = sum(haar_fourth_moment(k, 0, 0, 0, 0, 0, l, 0, l) for l in range(k))
        assert total == pytest.approx(1.0 / k, abs=1e-14)


def test_haar_moment_check_runs_clean():
    report = haar_moment_check(3, 4000, 0)
    assert report["exact"]["abs4"] == pytest.approx(2.0 / 12.0)
    assert all(z < 4.0 for z in report["z"].values())
    with pytest.raises(ValueError):
        haar_moment_check(1, 1000, 0)
    with pytest.raises(ValueError):
        haar_moment_check(3, 50, 0)


# ---------------------------------------------------------------------------
# the headline experiment
# ---------------------------------------------------------------------------

def test_theorem1_infeasible_parameters_are_reported():
    report = theorem1_experiment(8, 0.125, 0.0, n_subspaces=1, seed=0)
    assert report["feasible"] is False
    assert "reason" in report
    assert report["alpha"] == pytest.approx(36.0 / 0.125**2)


def test_theorem1_dimension_bound_value():
    # the n = 1024, delta = 1/8 arithmetic: 3*10 + 3.5*(-3) = 19.5 bits
    report = theorem1_experiment(1024, 0.125, 0.0, n_subspaces=1, seed=0)
    assert report["dim_bits"] == pytest.approx(19.5)
    # alpha = 36/delta^2 = 2304 truncates the multiplicity slice to zero here,
    # so the bound's value is reported but nothing is sampled
    assert report["feasible"] is False
    assert "reason" in report


def test_theorem1_feasible_run_records_fractions():
    report = theorem1_experiment(12, 2.0, -14.0, n_subspaces=2, seed=1)
    assert report["feasible"] is True
    assert report["dim_s"] == 1
    assert len(report["subspaces"]) == 2
    for entry in report["subspaces"]:
        assert entry["certified_upper_bound"] is not None
        assert 0.0 <= entry["lower_bound"] <= 2.0
    assert 0.0 <= report["fraction_violating"] <= 1.0
    assert set(report) == {
        "n", "delta", "alpha", "c_prime", "dim_bits", "feasible", "workspace", "dim_s", "subspaces",
        "fraction_violating",
    }
    with pytest.raises(ValueError):
        theorem1_experiment(12, 2.0, -14.0, n_subspaces=0, seed=0)


@pytest.mark.parametrize("gammas", [(0.1, math.nan), (math.nan, 0.1), (0.0,), (-1.0,)])
def test_concentration_refuses_a_gamma_not_above_zero_before_any_draw(monkeypatch, gammas):
    calls = []
    monkeypatch.setattr(privacy, "_f_on_draws", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="gamma grid must be positive"):
        concentration_experiment(build_working_space(8, 2.0), 50, gammas, 1.0, 0)
    assert calls == []


@pytest.mark.parametrize("levy_c", [0.0, -1.0, math.nan])
def test_concentration_refuses_a_nonpositive_levy_c_before_any_draw(monkeypatch, levy_c):
    calls = []
    monkeypatch.setattr(privacy, "_f_on_draws", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="levy_c must be positive"):
        concentration_experiment(WS12, 100, (0.1, 0.2), levy_c, 0)
    assert calls == []


@pytest.mark.parametrize("delta", [0.0, 2.5, math.nan])
def test_theorem1_refuses_delta_outside_0_2_before_building_a_working_space(monkeypatch, delta):
    calls = []
    monkeypatch.setattr(privacy, "build_working_space", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 2\]"):
        theorem1_experiment(12, delta, 0.0, n_subspaces=1, seed=0)
    assert calls == []
