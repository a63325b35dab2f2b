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
from typing import NamedTuple

import numpy as np
import pytest

from framecrypt import privacy
from framecrypt.channel import reduced_map_f
from framecrypt.linalg import derived_rng, haar_columns, random_pure_state, set_blas_threads, trace_norm
from framecrypt.privacy import (
    ASCENT_ITERS,
    ASCENT_RESTARTS,
    LIPSCHITZ_BOUND,
    SubspaceSample,
    _ascend_all,
    _on_chunks,
    _span_states,
    F_CHUNK_BYTES,
    FORK_BYTES,
    HAAR_CHUNK,
    HAAR_STACK_LIMIT,
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
from oracles import exact_mean_f

WS12 = build_working_space(12, 2.0)


def chunk_draws(k, count, stream, shape=(), one=None):
    """The states the f samplers draw, written out: each draw by one(rng) on
    its chunk's generator derived_rng(*stream, c), one draw after another; by
    default the draw's states by random_pure_state, as the samplers draw
    them themselves.  Shape (count, *shape, k)."""
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


class Sampling(NamedTuple):
    """The arguments of one _on_chunks call."""

    count: int
    chunk: int
    stream: tuple
    nbytes: int
    draw: object
    width: tuple


def sampling(monkeypatch, call):
    """The one _on_chunks call that call() makes, as a Sampling, and what it returned."""
    seen, run = [], privacy._on_chunks

    def capture(count, chunk, stream, nbytes, draw, width=()):
        args = Sampling(count, chunk, stream, nbytes, draw, width)
        out = run(*args)
        seen.append((args, out))
        return out

    with monkeypatch.context() as m:
        m.setattr(privacy, "_on_chunks", capture)
        call()
    (got,) = seen
    return got


F_SAMPLERS = {  # small calls whose draws are the library's f draws on ws
    "states": lambda ws: privacy._sampled_report(ws, 2, 0),
    "pairs": lambda ws: lipschitz_check(ws, 1, 0),
    "nearby": lambda ws: lipschitz_check(ws, 1, 0, perturbation=1e-4),
}


def f_sampling(monkeypatch, ws, kind):
    """The Sampling of the library's f draws on ws: _sampled_report's single
    "states", lipschitz_check's "pairs", and its "nearby" pairs at 1e-4."""
    return sampling(monkeypatch, lambda: F_SAMPLERS[kind](ws))[0]


def on_draws(s, count, stream):
    """s's draw run on ``count`` samples of ``stream``, with s's chunk and
    bytes per sample: f of each state, or f of each pair and its gap."""
    return _on_chunks(count, s.chunk, stream, s.nbytes // s.count * count, s.draw, s.width)


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


@pytest.mark.parametrize("n, chunk", [(12, 227), (24, 30), (60, 1), (128, 1)])
def test_f_chunk_holds_one_state_on_large_spaces_and_fits_the_budget(kernel_input, n, chunk):
    ws = build_working_space(n, 2.0)
    state_bytes = ws.k * np.dtype(complex).itemsize
    assert f_chunk(ws.k) == chunk
    pair_chunk = f_chunk(ws.k, 2)
    assert pair_chunk == max(1, chunk // 2)  # 113 pairs at n = 12, 15 at n = 24
    # a chunk counts states: a chunk of several draws stays within the
    # budget, and one more draw would not fit
    for per_draw, draws in ((1, chunk), (2, pair_chunk)):
        assert draws == 1 or draws * per_draw * state_bytes <= F_CHUNK_BYTES
        assert (draws + 1) * per_draw * state_bytes > F_CHUNK_BYTES
    # the sampler draws by this table: a full chunk from generator 0, one
    # kernel call, then the next draw from generator 1, another call
    fs = privacy._sampled_report(ws, chunk + 1, n)[0]
    assert [len(got) for got in kernel_input] == [chunk, 1]
    assert np.array_equal(fs, f_evals(chunk_draws(ws.k, chunk + 1, (n,)), ws))


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
    # the basis owns its memory: no larger draw stays alive behind it
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


# each subspace seed chosen so that the starts leave in different rounds, and
# at dim_s = 2 one start runs all ASCENT_ITERS: (12, 2, 26) takes 80, 17, 15
# and 49 rounds
@pytest.mark.parametrize("n, dim_s, seed", [(12, 3, 11), (24, 4, 11), (12, 2, 26)], ids=["12-3", "24-4", "12-2"])
def test_ascent_matches_the_per_block_loop_exactly(n, dim_s, seed):
    ws = build_working_space(n, 2.0)
    sub = sample_subspace(ws, dim_s, seed)
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
    basis = sample_subspace(ws, dim_s, n + dim_s).basis
    chunk = f_chunk(ws.k)
    for count in sorted({max(1, chunk - 1), chunk, chunk + 1, 2 * chunk + 1}):
        coeffs = random_pure_state(dim_s, derived_rng(n, dim_s, count), size=count)
        # the one-start ascent's coefficients were strided eigenvector columns
        columns = np.linalg.eigh(coeffs[:, :, None] * coeffs[:, None, :].conj())[1][..., -1]
        for cs in (coeffs, columns):
            want = [basis @ c for c in cs]
            np.testing.assert_array_equal(_span_states(basis, np.ascontiguousarray(cs)), want)
    # the stacks estimate_max_f hands the kernel: all its probes, then the
    # whole net, each state the one-row product of its coefficients
    kernel_input.clear()
    estimate_max_f(SubspaceSample(basis), ws, budget=2 * chunk + 1, seed=dim_s, net_epsilon=0.6)
    stacks = [random_pure_state(dim_s, derived_rng(dim_s, 0), size=2 * chunk + 1)]
    if dim_s == 2:
        stacks.append(build_eps_net(2, 0.6, 0).points)
    assert [len(got) for got in kernel_input] == [len(cs) for cs in stacks]
    for got, cs in zip(kernel_input, stacks):
        for state, c in zip(got, cs):
            np.testing.assert_array_equal(state, basis @ c)


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


@pytest.mark.parametrize("net_epsilon", [0.0, 2.0, math.nan, 1e-4])  # 1e-4: over NET_SIZE_LIMIT
def test_estimate_refuses_a_bad_net_epsilon_before_any_probe(monkeypatch, net_epsilon):
    calls = []
    monkeypatch.setattr(privacy, "f_evals", lambda *args: calls.append("f_evals"))
    monkeypatch.setattr(privacy, "_ascend_all", lambda *args: calls.append("_ascend_all"))
    with pytest.raises(ValueError, match="net"):
        estimate_max_f(sample_subspace(WS12, 2, 0), WS12, budget=5, seed=0, net_epsilon=net_epsilon)
    assert calls == []


# ---------------------------------------------------------------------------
# statistical experiments (small sample sizes; the acceptance suite scales up)
# ---------------------------------------------------------------------------

def test_mean_f_respects_both_bounds():
    report = mean_f_experiment(WS12, 400, 3)
    assert report["mean_f"] <= 1.0 / math.sqrt(2.0) + 3.0 * report["stderr_f"]
    assert report["mean_f"] <= math.sqrt(4.0 / 9.0) + 3.0 * report["stderr_f"]
    assert report["median_f"] <= 2.0 * report["mean_f"]
    assert report["bound_inv_sqrt_alpha"] == pytest.approx(1.0 / math.sqrt(2.0))
    assert report["bound_ratio"] == pytest.approx(2.0 / 3.0)
    ws4 = build_working_space(12, 4.0)
    r4 = mean_f_experiment(ws4, 400, 3)
    assert r4["mean_f"] <= 0.5 + 3.0 * r4["stderr_f"]
    with pytest.raises(ValueError):
        mean_f_experiment(WS12, 1, 0)


# D_alpha = 1; |Y| = 4, 9, 16 and 36.  (216, 144) runs serially at 2,000
# samples: 8,000 take about 1.6 s there.  Its chunk of K = 5,220 holds 3 states
@pytest.mark.parametrize(
    "n, alpha, workers",
    [(24, 16, 1), (24, 16, 2), (54, 36, 1), (54, 36, 2), (96, 64, 1), (96, 64, 2), (216, 144, 1)],
)
def test_mean_f_at_one_path_per_block_matches_the_dirichlet_law(monkeypatch, request, n, alpha, workers):
    # the block weights of a Haar state are Dirichlet, so E f has a closed
    # form; a sampler of real Gaussian states sits 60, 99, 137 and 100
    # standard errors off it
    ws = build_working_space(n, alpha)
    samples = 2000 if n == 216 else 8000
    if workers > 1:
        request.getfixturevalue("cpus")(workers)
        assert samples * ws.k * np.dtype(complex).itemsize >= FORK_BYTES  # forked shares
    else:
        monkeypatch.setattr(privacy, "_cpus", lambda: 1)
    report = mean_f_experiment(ws, samples, 1)
    assert abs(report["mean_f"] - exact_mean_f(ws)) <= 4.0 * report["stderr_f"]


def test_concentration_tail_matches_an_independent_dirichlet_draw():
    # at (24, 16), D_alpha = 1: f = sum_j |w_j - 1/4| over the weights of
    # four blocks of D = 17 coordinates, Dirichlet(17, 17, 17, 17) for a Haar
    # state, drawn here from numpy's gamma and never by the sampler.  The
    # statistic is the two-sample Kolmogorov-Smirnov distance between the
    # tails of |f - median|, read at the Dirichlet sample's points (which can
    # only lower it); 0.0436 is its 0.1% critical value for two samples of
    # 4,000, 1.949 * sqrt(2 / 4000).  It reads 0.016 at these seeds, and 0.158
    # for a sampler of real Gaussian states
    ws = build_working_space(24, 16)
    samples = 4000
    weights = np.random.default_rng([24, 16]).gamma(ws.d, size=(samples, len(ws.y)))
    weights /= weights.sum(axis=1, keepdims=True)
    f = np.abs(weights - 1.0 / len(ws.y)).sum(axis=1)
    dev = np.abs(f - np.median(f))  # an even count: the median is no sample, so every dev > 0
    report = concentration_experiment(ws, samples, dev, 1.0, 1)
    assert max(abs(report["tail"][g] - np.mean(dev > g)) for g in dev) <= 0.0436


def test_concentration_tail_and_fit():
    report = concentration_experiment(WS12, 600, (0.05, 0.2, 2.0), 1.0, 5)
    assert report["tail"][2.0] == 0.0  # |f - median| cannot exceed the range of f
    assert set(report["tail"]) == {0.05, 0.2, 2.0}
    for g, bound in report["levy_bound"].items():
        assert bound == pytest.approx(2.0 ** (-(WS12.k - 1) * g**2 / 2.0))
    if report["fitted_c"] is not None:
        # the fitted curve majorizes every observed tail point
        for g, t in report["tail"].items():
            if t > 0:
                assert 2.0 ** (-report["fitted_c"] * (WS12.k - 1) * g**2 / 2.0) >= t - 1e-12
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
    # of the pair sampler (113 pairs, then a partial chunk of 7) holds both
    # kinds; checked against a per-pair loop that takes each chunk's pairs
    # from the chunk's generator
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


@pytest.mark.parametrize("perturbation", [math.nan, math.inf, -math.inf])
def test_lipschitz_refuses_a_perturbation_that_is_not_finite_before_any_draw(monkeypatch, perturbation):
    calls = []
    monkeypatch.setattr(privacy, "_on_chunks", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="perturbation must be finite"):
        lipschitz_check(build_working_space(8, 2.0), 20, 0, perturbation=perturbation)
    assert calls == []


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


def drawn_by(s):
    """s with one more result column: the pid of the process that drew each
    sample, after its draw's own results."""
    def tagged(rng, m):
        return np.column_stack((s.draw(rng, m), np.full(m, os.getpid())))

    return s._replace(draw=tagged, width=(math.prod(s.width) + 1,))


def shares_of(pids):
    """The processes that drew, one per contiguous run of draws."""
    return [p for p, _ in itertools.groupby(pids)]


def test_draws_spread_only_from_the_fork_threshold(cpus):
    state_bytes = np.dtype(complex).itemsize
    cpus(4)
    assert privacy._workers(FORK_BYTES - 1, 100) == 1
    assert privacy._workers(FORK_BYTES, 100) == 4
    assert privacy._workers(FORK_BYTES, 3) == 3  # at most one worker per chunk
    # mean-f --n 12 --samples 2000 stays serial; concentration --n 12
    # --samples 5000 spreads
    assert 2000 * WS12.k * state_bytes < FORK_BYTES <= 5000 * WS12.k * state_bytes
    cpus(1)
    assert privacy._workers(2**40, 100) == 1
    cpus(4)
    threads = set_blas_threads(2)  # BLAS threads would compete with the workers
    try:
        assert privacy._workers(2**40, 100) == 1
    finally:
        set_blas_threads(threads)


@pytest.mark.parametrize("count", [2, 3, 5])
def test_spread_draws_match_one_state_f_evals_exactly(monkeypatch, cpus, count):
    cpus(count)  # 5: more shares than this machine may have cores
    draws = 13  # 4.6 MB of states: over FORK_BYTES, one draw per chunk
    s, by_sampler = sampling(monkeypatch, lambda: privacy._sampled_report(WS84, draws, 606))
    tagged = _on_chunks(*drawn_by(s))
    assert no_child_left()
    want = [f_evals(random_pure_state(WS84.k, derived_rng(606, i))[None], WS84)[0] for i in range(draws)]
    assert np.array_equal(by_sampler, want)
    assert np.array_equal(tagged[:, 0], want)
    # one contiguous share per process, the caller's first
    pids = tagged[:, 1]
    assert len(shares_of(pids)) == len(set(pids)) == count
    assert pids[0] == os.getpid()


@pytest.mark.parametrize("count", [2, 3, 5])
def test_spread_chunks_match_the_serial_loop(monkeypatch, cpus, count):
    # n = 12: 16 whole chunks of 227 draws and a partial one; each share is
    # a run of whole chunks, so its draws are the serial loop's
    draws = 3700
    states = f_sampling(monkeypatch, WS12, "states")
    cpus(1)
    serial = on_draws(states, draws, (9, 2))
    cpus(count)
    spread = on_draws(drawn_by(states), draws, (9, 2))
    assert no_child_left()
    assert np.array_equal(spread[:, 0], serial)
    pids = spread[:, 1]
    chunk = f_chunk(WS12.k)
    assert len(shares_of(pids)) == count
    assert all(pids[i] == pids[i - 1] for i in range(1, draws) if i % chunk)
    assert np.array_equal(serial, f_evals(chunk_draws(WS12.k, draws, (9, 2)), WS12))


def nearby_pair(k, rng, perturbation):
    """The per-pair draw of lipschitz_check, written out."""
    phi = random_pure_state(k, rng)
    psi = phi + perturbation * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return phi, psi / np.linalg.norm(psi)


def pair_gaps(pairs):
    """np.linalg.norm(phi - psi) of every pair, one at a time."""
    return [np.linalg.norm(phi - psi) for phi, psi in pairs]


@pytest.mark.parametrize("perturbation", [None, 1e-4])
def test_spread_pairs_and_gaps_match_the_serial_loop(monkeypatch, cpus, perturbation):
    pairs_drawn = 6  # 4.3 MB of states: over FORK_BYTES

    def pairs(count):
        cpus(count)
        s, drawn = sampling(monkeypatch, lambda: lipschitz_check(WS84, pairs_drawn, 8, perturbation))
        pids = _on_chunks(*drawn_by(s))[:, -1]
        assert len(set(pids)) == count
        return drawn[:, :2], drawn[:, 2], lipschitz_check(WS84, pairs_drawn, 8, perturbation)

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
    """The states the f samplers' draws hand f_evals, one array per kernel call."""
    calls = []

    def recording(phis, ws):
        calls.append(np.array(phis))
        return f_evals(phis, ws)

    monkeypatch.setattr(privacy, "f_evals", recording)
    return calls


@pytest.mark.parametrize("pairs", [False, True])
def test_chunk_filled_states_are_random_pure_states(monkeypatch, kernel_input, pairs):
    # two full chunks and a partial one; each draw's states are those of
    # random_pure_state called on its chunk's generator in draw order, bit for bit
    shape = (2,) if pairs else ()
    s = f_sampling(monkeypatch, WS12, "pairs" if pairs else "states")
    kernel_input.clear()
    chunk = f_chunk(WS12.k, 2 if pairs else 1)
    count = 2 * chunk + 3
    drawn = on_draws(s, count, (31, 4))
    got = np.concatenate(kernel_input)
    assert [len(rows) for rows in kernel_input] == [chunk, chunk, 3]  # one kernel call per chunk
    want = chunk_draws(WS12.k, count, (31, 4), shape)
    assert np.array_equal(got, want)
    fs = drawn[:, :2] if pairs else drawn
    assert np.array_equal(fs, [f_evals(w[None], WS12)[0] for w in want])


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 + 3])
@pytest.mark.parametrize("prefix", [(), (7,), (0, 2**40), (3, 1, 2**32)])
def test_chunk_streams_key_on_every_word_of_seed_and_prefix(monkeypatch, kernel_input, seed, prefix):
    # seeds across the 32- and 64-bit word boundaries and prefixes of several
    # words reach each chunk's derived_rng(seed, *prefix, c) whole: a full
    # chunk and a partial one, bit for bit
    states = f_sampling(monkeypatch, WS12, "states")
    kernel_input.clear()
    count = f_chunk(WS12.k) + 2
    fs = on_draws(states, count, (seed, *prefix))
    want = chunk_draws(WS12.k, count, (seed, *prefix))
    assert np.array_equal(np.concatenate(kernel_input), want)
    assert np.array_equal(fs, f_evals(want, WS12))


@pytest.mark.parametrize("kind", ["states", "pairs", "nearby"])
def test_a_partial_chunk_draws_a_prefix_of_the_full_chunk(monkeypatch, kernel_input, kind):
    # a call's last chunk, cut short, takes its states from the start of the
    # stream of the whole chunk, so a shorter call gives the longer one's prefix
    s = f_sampling(monkeypatch, WS12, kind)
    chunk = f_chunk(WS12.k, 1 if kind == "states" else 2)

    def sample(count):  # the states handed to the kernel, and f (with the gaps of pairs)
        kernel_input.clear()
        drawn = on_draws(s, count, (7,))
        return np.concatenate(kernel_input), drawn

    full = sample(2 * chunk)
    for count in (1, chunk - 1, chunk + 1, 2 * chunk - 1):
        for got, want in zip(sample(count), full, strict=True):
            assert np.array_equal(got, want[:count])


@pytest.mark.parametrize("shape", [(), (2,)])
def test_one_draw_chunks_keep_each_draws_own_generator(monkeypatch, kernel_input, shape):
    # K = 8,200: a chunk holds one draw, so draw i's states come from
    # derived_rng(seed, *prefix, i) as when every draw had its own generator
    ws = build_working_space(60, 2.0)
    per_draw = math.prod(shape)
    assert f_chunk(ws.k, per_draw) == 1
    s = f_sampling(monkeypatch, ws, "pairs" if shape else "states")
    kernel_input.clear()
    drawn = on_draws(s, 3, (5, 1))
    fs = drawn[:, :2] if shape else drawn
    got = np.concatenate(kernel_input)
    for i in range(3):
        rng = derived_rng(5, 1, i)
        want = np.array([random_pure_state(ws.k, rng) for _ in range(per_draw)]).reshape(*shape, ws.k)
        assert np.array_equal(got[i], want)
        assert np.array_equal(fs[i], f_evals(want[None], ws)[0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["states", "pairs", "nearby"])
@pytest.mark.parametrize("n", [12, 24, 60])  # K = 72, 544: several draws per chunk; 8,200: one
def test_chunks_match_the_written_out_loop(monkeypatch, request, n, kind, workers):
    # two whole chunks and a partial one, serially and in two shares: each
    # chunk is drawn from its own generator, made once, and handed to the
    # kernel in one call, and every value is the written-out chunk loop's,
    # bit for bit
    ws = build_working_space(n, 2.0)
    shape = () if kind == "states" else (2,)
    chunk = f_chunk(ws.k, math.prod(shape))
    count = 2 * chunk + chunk // 2 + 1
    s = f_sampling(monkeypatch, ws, kind)
    one = None
    if kind == "nearby":
        one = lambda rng: nearby_pair(ws.k, rng, 1e-4)  # noqa: E731
    if workers > 1:
        request.getfixturevalue("cpus")(workers)
        monkeypatch.setattr(privacy, "FORK_BYTES", 0)  # spread however small the call
    caller, inputs = os.getpid(), []
    chunks = math.ceil(count / chunk)
    # shared with the workers: generators made per chunk index, kernel calls by caller and worker
    made = np.frombuffer(mmap.mmap(-1, 8 * chunks), dtype=np.int64)
    calls = np.frombuffer(mmap.mmap(-1, 16), dtype=np.int64)

    def generator(*key):
        made[key[-1]] += 1
        return derived_rng(*key)

    def kernel(phis, ws):
        calls[int(os.getpid() != caller)] += 1
        inputs.append(np.array(phis))  # reaches the caller's list only
        return f_evals(phis, ws)

    monkeypatch.setattr(privacy, "derived_rng", generator)
    monkeypatch.setattr(privacy, "f_evals", kernel)
    drawn = on_draws(drawn_by(s), count, (17, 2))
    share_calls = calls.copy()
    fs, pids = (drawn[:, :2] if shape else drawn[:, 0]), drawn[:, -1]
    assert made.tolist() == [1] * chunks
    want = chunk_draws(ws.k, count, (17, 2), shape, one)
    np.testing.assert_array_equal(fs, f_evals(want, ws))
    sizes = [len(list(run)) for _, run in itertools.groupby(pids)]
    assert len(sizes) == workers and pids[0] == caller
    assert workers == 1 or sizes[0] % chunk == 0  # shares are runs of whole chunks
    assert list(share_calls[:workers]) == [math.ceil(size / chunk) for size in sizes]
    if workers == 1:
        assert [len(rows) for rows in inputs] == [chunk] * (chunks - 1) + [count - (chunks - 1) * chunk]
        np.testing.assert_array_equal(np.concatenate(inputs), want)
    if shape:
        again = on_draws(s, count, (17, 2))
        np.testing.assert_array_equal(again[:, :2], fs)
        assert again[:, 2].view(np.uint64).tolist() == np.array(pair_gaps(want)).view(np.uint64).tolist()


class Gaussians:
    """A stand-in generator whose standard_normal returns the Gaussians of a
    given complex stack, as _gaussian_rows reads them: each row's real parts,
    then its imaginary parts."""

    def __init__(self, rows):
        self.normals = np.stack([rows.real, rows.imag], axis=-2)

    def standard_normal(self, shape):
        assert shape == self.normals.shape
        return self.normals


@pytest.mark.parametrize("perturbation", [None, 1.0])
@pytest.mark.parametrize("n", [12, 24, 60])
def test_lipschitz_gaps_are_the_per_pair_norms_bit_for_bit(monkeypatch, kernel_input, n, perturbation):
    # pairs far apart, nearby, and closer than 1e-13, so the kept mask of
    # lipschitz_check sees both kinds; a plain pair is finished from both of
    # its rows, a nearby one from phi and the noise, here of scale 1.0 times
    # each pair's own
    ws = build_working_space(n, 2.0)
    draw = sampling(monkeypatch, lambda: lipschitz_check(ws, 1, 0, perturbation))[0].draw
    rng = derived_rng(n, 3)
    phis = random_pure_state(ws.k, rng, size=40)
    noise = np.repeat([1.0, 1e-4, 1e-13, 3e-14, 1e-15], 8)[:, None] * random_pure_state(ws.k, rng, size=40)
    noise[:8] = random_pure_state(ws.k, rng, size=8)
    pairs = np.stack([phis, noise if perturbation else phis + noise], axis=1)
    kernel_input.clear()
    got = draw(Gaussians(pairs), len(pairs))[:, 2]
    (finished,) = kernel_input
    want = np.array([np.linalg.norm(phi - psi) for phi, psi in finished])  # the pairs as finished
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert 0 < np.count_nonzero(got < 1e-13) < len(got)
    np.testing.assert_allclose(np.linalg.norm(finished, axis=-1), 1.0, atol=1e-15)


class DrawFailed(Exception):
    pass


# three shares of 30 draws: the caller's first, fourth, fifth and sixth
# draws, then share 1's first and share 2's third
@pytest.mark.parametrize("bad", [0, 3, 4, 5, 30, 62])
def test_a_failing_draw_stops_every_share_and_is_raised(monkeypatch, cpus, bad):
    states = f_sampling(monkeypatch, WS84, "states")
    cpus(3)
    drawn = np.frombuffer(mmap.mmap(-1, 90), dtype=np.uint8)  # shared with the workers

    def slow(fn):
        def slowed(*args):
            time.sleep(0.01)
            return fn(*args)

        return slowed

    # a chunk holds one draw here, so its first Gaussian tells which draw it is
    index = {derived_rng(1, i).standard_normal(): i for i in range(90)}

    @slow
    def draw(rng, m):
        i = index[rng.standard_normal()]
        drawn[i] = 1
        if i == bad:
            raise DrawFailed(i)
        return states.draw(rng, m)

    monkeypatch.setattr(privacy, "f_evals", slow(f_evals))
    with pytest.raises(DrawFailed) as failed:
        on_draws(states._replace(draw=draw), 90, (1,))
    assert failed.value.args == (bad,)  # the worker's exception, type and all
    assert no_child_left()  # every worker was reaped
    per_share = drawn.reshape(3, 30).sum(axis=1)
    assert (per_share < 15).all()  # each share stopped long before its end
    made = int(drawn.sum())
    time.sleep(0.05)
    assert int(drawn.sum()) == made


def test_a_killed_worker_raises_child_process_error(monkeypatch, cpus):
    states = f_sampling(monkeypatch, WS84, "states")
    cpus(2)
    caller = os.getpid()

    def draw(rng, m):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return states.draw(rng, m)

    with pytest.raises(ChildProcessError, match="signal"):
        on_draws(states._replace(draw=draw), 13, (1,))
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
        privacy._sampled_report(WS84, 13, 1)
    assert no_child_left()
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_spread_call_draws_on_one_thread_per_share_after_a_smaller_one(monkeypatch, cpus):
    # no worker outlives a call, so a serial call leaves nothing that caps
    # the next call's shares; each share is one process drawing on one thread
    cpus(4)
    before = threading.active_count()
    states = sampling(monkeypatch, lambda: privacy._sampled_report(WS84, 2, 1))[0]
    pids = on_draws(drawn_by(states), 16, (1,))[:, -1]
    assert len(shares_of(pids)) == len(set(pids)) == 4
    assert pids[0] == os.getpid()
    assert no_child_left()
    assert threading.active_count() == before


def test_a_forked_child_samples_as_its_parent_did(cpus):
    # the child of a process that has spread draws forks workers of its own
    cpus(2)
    want = privacy._sampled_report(WS84, 13, 12)[0]
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork() of a process with threads
        child = ctx.Process(target=lambda: results.put(privacy._sampled_report(WS84, 13, 12)[0]))
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
    want = privacy._sampled_report(WS84, 13, 12)[0]
    forks, fork = [], os.fork

    def fork_and_warn():
        child = fork()
        if child:
            forks.append(child)
            warnings.warn("use of fork() may lead to deadlocks in the child", DeprecationWarning, stacklevel=2)
        return child

    monkeypatch.setattr(os, "fork", fork_and_warn)
    cpus(2)
    assert np.array_equal(privacy._sampled_report(WS84, 13, 12)[0], want)
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
    assert sampling(monkeypatch, lambda: lipschitz_check(WS12, 3, 2))[1].shape == (3, 3)
    estimate_max_f(sample_subspace(WS12, 2, 5), WS12, budget=60, seed=5, net_epsilon=0.6)  # certify's calls
    assert forks == []
    assert threading.active_count() == before


def test_subspace_states_never_fork(monkeypatch, cpus):
    # estimate_max_f hands its probes and its net to the kernel directly, so
    # they stay in the caller however large they are
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(privacy, "FORK_BYTES", 0)
    cpus(4)
    estimate_max_f(sample_subspace(WS12, 2, 5), WS12, budget=60, seed=5, net_epsilon=0.6)
    assert forks == []
    count = 4 * f_chunk(WS12.k)  # four chunks: the sampler forks here
    fs = privacy._sampled_report(WS12, count, 2)[0]
    assert len(forks) == 3
    assert np.array_equal(fs, f_evals(chunk_draws(WS12.k, count, (2,)), WS12))


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


class Drawn(Exception):
    """Raised in place of a Haar draw: the call got past its limits."""


def refuse_to_draw(*args, **kwargs):
    raise Drawn


def test_haar_moment_check_counts_the_bytes_of_its_column_pairs(monkeypatch):
    # chunk x k x 2 x 16 bytes: k = 419 is the largest k a 5,000-sample stack allows
    monkeypatch.setattr(privacy, "haar_columns", refuse_to_draw)
    with pytest.raises(Drawn):
        haar_moment_check(419, 5000, 0)
    with pytest.raises(ValueError, match="67200000 bytes, over the limit of 67108864"):
        haar_moment_check(420, 5000, 0)
    with pytest.raises(Drawn):  # a smaller stack: 100 pairs of 20,971 columns
        haar_moment_check(20_971, 100, 0)


def test_sample_subspace_counts_the_bytes_of_its_columns(monkeypatch):
    # K x dim_s x 16 bytes against HAAR_STACK_LIMIT, refused before the draw
    ws = build_working_space(216, 144.0)
    largest = HAAR_STACK_LIMIT // (16 * ws.k)
    assert (ws.k, largest) == (5220, 803)
    monkeypatch.setattr(privacy, "haar_columns", refuse_to_draw)
    with pytest.raises(Drawn):
        sample_subspace(ws, largest, 0)
    with pytest.raises(ValueError, match="over the limit"):
        sample_subspace(ws, largest + 1, 0)


def test_haar_moment_check_counts_its_column_entries_before_any_draw(monkeypatch):
    # samples x k x 2 entries against WORK_LIMIT: 2 x 10^8 samples at k = 4
    # would start 40,000 chunk draws; the largest CLI run, 10^6 samples at
    # the largest k the stack limit allows, takes 8.38 x 10^8 and is drawn
    monkeypatch.setattr(privacy, "haar_columns", refuse_to_draw)
    with pytest.raises(ValueError, match="1600000000 column entries, over the limit of 1000000000"):
        haar_moment_check(4, 2 * 10**8, 0)
    with pytest.raises(Drawn):
        haar_moment_check(419, 10**6, 0)


def unorthogonalized(k, m, seed, size):
    """Two unit columns, the second never orthogonalized against the first:
    each column's norm holds, the 2 x 2 Gram matrix's off-diagonal does not."""
    z = random_pure_state(k, seed, size=size * m).reshape(size, m, k)
    return np.swapaxes(z, -1, -2)


def test_haar_moment_check_refuses_columns_that_are_not_orthogonal(monkeypatch):
    monkeypatch.setattr(privacy, "haar_columns", unorthogonalized)
    with pytest.raises(AssertionError, match="orthonormal"):
        haar_moment_check(3, 4000, 0)


def test_haar_moments_spread_with_the_report_of_one_cpu(monkeypatch, cpus):
    # 20,000 column pairs at k = 28 take 17.9 MB, past FORK_BYTES: their four
    # chunks are spread into one share per CPU, with the same report
    assert 20_000 * 28 * 2 * np.dtype(complex).itemsize >= FORK_BYTES
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    reports = []
    for count in (1, 2, 3):
        cpus(count)
        forks.clear()
        reports.append(haar_moment_check(28, 20_000, 5))
        assert len(forks) == count - 1
        assert no_child_left()
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_columns_that_are_not_orthogonal_in_a_worker_fail_the_call(monkeypatch, cpus):
    cpus(2)
    caller = os.getpid()

    def columns(k, m, seed, size):
        draw = haar_columns if os.getpid() == caller else unorthogonalized
        return draw(k, m, seed, size=size)

    monkeypatch.setattr(privacy, "haar_columns", columns)
    with pytest.raises(AssertionError, match="sampled columns are not orthonormal"):
        haar_moment_check(28, 20_000, 5)
    assert no_child_left()


def test_haar_moment_chunks_match_the_written_out_loop(monkeypatch):
    # two whole chunks and a partial one: chunk c's four statistics are those
    # of its own draw on derived_rng(seed, c), bit for bit, and the estimates
    # are the means of the written-out statistics
    count = 2 * HAAR_CHUNK + 700
    s, moments = sampling(monkeypatch, lambda: haar_moment_check(3, count, 4))
    assert (s.chunk, s.stream) == (HAAR_CHUNK, (4,))
    want = []
    for c, start in enumerate(range(0, count, HAAR_CHUNK)):
        us = haar_columns(3, 2, derived_rng(4, c), size=min(HAAR_CHUNK, count - start))
        u00, u01, u10, u11 = us[:, 0, 0], us[:, 0, 1], us[:, 1, 0], us[:, 1, 1]
        loop = u00 * u01.conj() * u11 * u10.conj()
        want.append(np.stack([np.abs(u00) ** 4, (np.abs(u00) * np.abs(u01)) ** 2, loop.real, loop.imag], axis=1))
    want = np.concatenate(want)
    assert moments.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    estimate = haar_moment_check(3, count, 4)["estimate"]
    for name, column in zip(("abs4", "abs2abs2", "loop", "loop_imag"), want.T.copy()):
        assert estimate[name] == column.mean()


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
    monkeypatch.setattr(privacy, "_on_chunks", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="gamma grid must be positive"):
        concentration_experiment(build_working_space(8, 2.0), 50, gammas, 1.0, 0)
    assert calls == []


@pytest.mark.parametrize("levy_c", [0.0, -1.0, math.nan])
def test_concentration_refuses_a_nonpositive_levy_c_before_any_draw(monkeypatch, levy_c):
    calls = []
    monkeypatch.setattr(privacy, "_on_chunks", lambda *args, **kwargs: calls.append(args))
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


def test_theorem1_refuses_a_nan_c_prime_before_building_a_working_space(monkeypatch):
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(privacy, "build_working_space", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="c_prime"):
            theorem1_experiment(12, 2.0, math.nan, n_subspaces=1, seed=0)
    assert calls == []
    # the infinities stay infeasible results
    assert theorem1_experiment(12, 2.0, math.inf, n_subspaces=1, seed=0)["reason"].startswith("dimension bound 2^inf")
    assert theorem1_experiment(12, 2.0, -math.inf, n_subspaces=1, seed=0)["reason"] == (
        "dimension bound is below a single state"
    )
