"""Tests for the privacy experiments: f, nets, concentration, moments."""

import math

import numpy as np
import pytest

from framecrypt.linalg import derived_rng, random_pure_state
from framecrypt.privacy import (
    LIPSCHITZ_BOUND,
    _ascend,
    F_CHUNK_BYTES,
    PrivacyParams,
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

def loop_ascend(c0, basis, ws, iters=80, tol=1e-12):
    """Reference for the ascent: per-block eigensolves and lifts on slices."""
    width, da = ws.d * ws.d_alpha, ws.d_alpha
    c, best = c0 / np.linalg.norm(c0), -np.inf
    for _ in range(iters):
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
            return max(best, val), c
        best = val
        quad = basis.conj().T @ lifted
        c = np.linalg.eigh((quad + quad.conj().T) / 2.0)[1][:, -1]
    return best, c


@pytest.mark.parametrize("n, dim_s", [(12, 3), (24, 4)])
def test_ascent_matches_the_per_block_loop_exactly(n, dim_s):
    ws = build_working_space(n, 2.0)
    sub = sample_subspace(ws, dim_s, 11)
    for s in range(4):
        c0 = random_pure_state(dim_s, derived_rng(404, n, s))
        val, c = _ascend(c0, sub.basis, ws)
        ref_val, ref_c = loop_ascend(c0, sub.basis, ws)
        assert val == ref_val
        np.testing.assert_array_equal(c, ref_c)


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
    params = PrivacyParams(delta=1.0, levy_c=1.0)
    report = concentration_experiment(WS12, 600, (0.05, 0.2, 2.0), params, 5)
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
        concentration_experiment(WS12, 100, (), params, 0)
    with pytest.raises(ValueError):
        concentration_experiment(WS12, 100, (-0.1,), params, 0)


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
    # per-pair loop
    n_pairs, perturbation = 120, 8.5e-15
    worst, skipped = 0.0, []
    for i in range(n_pairs):
        rng = derived_rng(3, i)
        phi = random_pure_state(WS12.k, rng)
        noise = rng.standard_normal(WS12.k) + 1j * rng.standard_normal(WS12.k)
        psi = phi + perturbation * noise
        psi = psi / np.linalg.norm(psi)
        gap = np.linalg.norm(phi - psi)
        skipped.append(gap < 1e-13)
        if not skipped[-1]:
            worst = max(worst, abs(f_eval(phi, WS12) - f_eval(psi, WS12)) / gap)
    chunk = f_chunk(WS12.k, 2)
    for start in range(0, n_pairs, chunk):
        assert 0 < sum(skipped[start : start + chunk]) < len(skipped[start : start + chunk])
    assert lipschitz_check(WS12, n_pairs, 3, perturbation=perturbation) == worst


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
    params = PrivacyParams(delta=0.125)
    report = theorem1_experiment(8, params, n_subspaces=1, seed=0)
    assert report["feasible"] is False
    assert "reason" in report
    assert report["alpha"] == pytest.approx(36.0 / 0.125**2)


def test_theorem1_dimension_bound_value():
    # the n = 1024, delta = 1/8 arithmetic: 3*10 + 3.5*(-3) = 19.5 bits
    params = PrivacyParams(delta=0.125)
    report = theorem1_experiment(1024, params, n_subspaces=1, seed=0)
    assert report["dim_bits"] == pytest.approx(19.5)
    # alpha = 36/delta^2 = 2304 truncates the multiplicity slice to zero here,
    # so the bound's value is reported but nothing is sampled
    assert report["feasible"] is False
    assert "reason" in report


def test_theorem1_feasible_run_records_fractions():
    params = PrivacyParams(delta=2.0, c_prime=-14.0)
    report = theorem1_experiment(12, params, n_subspaces=2, seed=1)
    assert report["feasible"] is True
    assert report["dim_s"] == 1
    assert len(report["subspaces"]) == 2
    for entry in report["subspaces"]:
        assert entry["certified_upper_bound"] is not None
        assert 0.0 <= entry["lower_bound"] <= 2.0
    assert 0.0 <= report["fraction_violating"] <= 1.0
    assert 0.0 <= report["fraction_probe_states_over_delta"] <= 1.0
    with pytest.raises(ValueError):
        theorem1_experiment(12, params, n_subspaces=0, seed=0)


def test_privacy_params_validation():
    with pytest.raises(ValueError):
        PrivacyParams(delta=0.0)
    with pytest.raises(ValueError):
        PrivacyParams(delta=2.5)
    p = PrivacyParams(delta=0.9)
    assert p.net_epsilon == pytest.approx(0.3)
