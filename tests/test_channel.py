"""Tests for the rotation-averaging channel: exact block action vs quadrature."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import framecrypt.channel as channel_module
import framecrypt.repkit as repkit_module
from framecrypt.channel import (
    QUADRATURE_LIMIT,
    BlockState,
    QuadratureSpec,
    reduced_map_f,
    reference_states,
    su2_quadrature,
    twirl,
    twirl_block,
    twirl_oracle,
    twirl_working_state,
)
from framecrypt.linalg import derived_rng, kron_power, random_density_matrix, trace_norm
from framecrypt.repkit import block_layout, rotation_su2, schur_transform, wigner_d
from framecrypt.workspace import build_working_space, embed_state
from oracles import partial_trace_by_summation, random_euler

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_quadrature_defaults_are_sufficient():
    for n in (2, 4, 6, 8):
        q = QuadratureSpec.for_qubits(n)
        assert q.is_sufficient(n)
        assert not QuadratureSpec(2 * n, n + 2, 2 * n + 2).is_sufficient(n)
    with pytest.raises(ValueError):
        su2_quadrature(QuadratureSpec(0, 3, 3))


def test_quadrature_integrates_wigner_entries_to_zero():
    # the group average of any D^j entry with j > 0 vanishes
    q = QuadratureSpec.for_qubits(4)
    alphas, betas, w_beta, gammas = su2_quadrature(q)
    assert math.isclose(w_beta.sum() * len(alphas) * len(gammas) / (q.n_alpha * q.n_gamma), 1.0)
    for tj in (2, 4):
        acc = np.zeros((tj + 1, tj + 1), dtype=complex)
        for b, wb in zip(betas, w_beta):
            for a in alphas:
                for g in gammas:
                    acc += wb * wigner_d(tj, (a, b, g))
        acc /= q.n_alpha * q.n_gamma
        np.testing.assert_allclose(acc, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# exact block action
# ---------------------------------------------------------------------------

def test_twirl_block_singlet_fixed():
    rho = np.zeros((4, 4), dtype=complex)
    rho[3, 3] = 1.0  # coupled basis: position 3 is the j = 0 state
    np.testing.assert_allclose(twirl_block(rho), rho, atol=1e-14)


def test_twirl_block_stretched_state():
    # |up up> is |j=1, m=1>: the block action spreads it over the triplet
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    out = twirl_block(rho)
    expected = np.diag([1 / 3, 1 / 3, 1 / 3, 0.0]).astype(complex)
    np.testing.assert_allclose(out, expected, atol=1e-14)
    # and through the computational-basis wrapper
    t = schur_transform(2)
    comp = np.zeros((4, 4), dtype=complex)
    comp[0, 0] = 1.0  # |up up><up up|
    np.testing.assert_allclose(
        twirl(comp, t), t.matrix @ expected @ t.matrix.conj().T, atol=1e-13
    )


def test_twirl_block_fixes_maximally_mixed():
    for n in (2, 4):
        rho = np.eye(2**n, dtype=complex) / 2**n
        np.testing.assert_allclose(twirl_block(rho), rho, atol=1e-14)


def test_twirl_block_is_a_channel():
    rng = np.random.default_rng(7)
    for n in (2, 4):
        rho = random_density_matrix(2**n, rng)
        out = twirl_block(rho)
        assert np.trace(out) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12
        # idempotence
        np.testing.assert_allclose(twirl_block(out), out, atol=1e-13)
    with pytest.raises(ValueError):
        twirl_block(np.eye(3))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_twirl_block_traces_out_the_rotation_factor_by_the_summation_oracle(n):
    # each block becomes I/(2j+1) (x) the reduction of its rotation factor
    rho = random_density_matrix(2**n, derived_rng(41, n))
    out = twirl_block(rho)
    for b in block_layout(n):
        reduced = partial_trace_by_summation(rho[b.span, b.span], b.dim_r, b.dim_p)
        np.testing.assert_allclose(out[b.span, b.span], np.kron(np.eye(b.dim_r) / b.dim_r, reduced), atol=1e-14)


def test_twirl_block_keeps_the_multiplicity_factor_of_products_and_mixes_entanglement():
    # a product block sigma (x) tau becomes I/dim_r (x) tau whatever sigma is;
    # a maximally entangled block of equal factors (j = 1 at n = 4: 3 x 3)
    # becomes I/9
    n = 4
    rng = np.random.default_rng(5)
    layout = block_layout(n)
    for b in layout:
        sigma, tau = random_density_matrix(b.dim_r, rng), random_density_matrix(b.dim_p, rng)
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[b.span, b.span] = np.kron(sigma, tau)
        want = np.zeros_like(rho)
        want[b.span, b.span] = np.kron(np.eye(b.dim_r) / b.dim_r, tau)
        np.testing.assert_allclose(twirl_block(rho), want, atol=1e-14)
    (square,) = [b.span for b in layout if b.dim_r == b.dim_p == 3]
    psi = np.eye(3).reshape(9) / math.sqrt(3.0)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[square, square] = np.outer(psi, psi)
    want = np.zeros_like(rho)
    want[square, square] = np.eye(9) / 9
    np.testing.assert_allclose(twirl_block(rho), want, atol=1e-15)


def test_twirl_block_fixes_multiplicity_operators():
    # identity on the rotation factor tensor anything on the multiplicity
    # factor is a fixed point (the protected subsystem)
    n = 4
    rng = np.random.default_rng(3)
    rho = np.zeros((16, 16), dtype=complex)
    for b in block_layout(n):
        sigma = random_density_matrix(b.dim_p, rng)
        s = b.span
        rho[s, s] = np.kron(np.eye(b.dim_r) / b.dim_r, sigma) / len(block_layout(n))
    np.testing.assert_allclose(twirl_block(rho), rho, atol=1e-13)


def test_twirl_covariance():
    # E(R rho R^dag) = R E(rho) R^dag for any rotation
    n = 4
    t = schur_transform(n)
    rng = np.random.default_rng(19)
    rho = random_density_matrix(2**n, rng)
    for trial in range(4):
        r = kron_power(rotation_su2(random_euler(rng)), n)
        lhs = twirl(r @ rho @ r.conj().T, t)
        rhs = r @ twirl(rho, t) @ r.conj().T
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# quadrature oracle against the block action
# ---------------------------------------------------------------------------

def test_oracle_singlet_and_stretched():
    rho_singlet = np.outer(SINGLET, SINGLET)
    np.testing.assert_allclose(twirl_oracle(rho_singlet), rho_singlet, atol=1e-12)

    t = schur_transform(2)
    comp = np.zeros((4, 4), dtype=complex)
    comp[0, 0] = 1.0
    np.testing.assert_allclose(twirl_oracle(comp), twirl(comp, t), atol=1e-10)


def test_oracle_matches_block_action_on_random_states():
    for n in (2, 4):
        t = schur_transform(n)
        for i in range(5):
            rho = random_density_matrix(2**n, derived_rng(21, n, i))
            gap = trace_norm(twirl_oracle(rho) - twirl(rho, t))
            assert gap < 1e-10


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_twirl_through_the_real_transform_keeps_the_complex_bits(n):
    # numpy widens the real transform to complex before each product, so the
    # channel gives the bits of the same transform stored as complex
    t = schur_transform(n)
    widened = repkit_module.SchurTransform(t.matrix.astype(complex))
    rho = random_density_matrix(2**n, derived_rng(23, n))
    np.testing.assert_array_equal(twirl(rho, t).view(np.uint64), twirl(rho, widened).view(np.uint64))


def test_oracle_preserves_trace():
    rho = random_density_matrix(16, 5)
    out = twirl_oracle(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert abs(np.trace(out).imag) < 1e-12


def test_oracle_broadcasts_over_stacks():
    stack = np.stack([random_density_matrix(4, s) for s in range(3)])
    outs = twirl_oracle(stack)
    for i in range(3):
        np.testing.assert_allclose(outs[i], twirl_oracle(stack[i]), atol=1e-13)


def test_oracle_warns_when_quadrature_is_too_small():
    rho = random_density_matrix(4, 0)
    with pytest.warns(UserWarning, match="band limit"):
        approx = twirl_oracle(rho, quad=QuadratureSpec(2, 2, 2))
    # the undersized grid still returns something, just not the exact average
    assert trace_norm(approx - twirl_oracle(rho)) > 1e-6


def test_oracle_validation():
    with pytest.raises(ValueError):
        twirl_oracle(np.eye(8))  # odd qubit count
    with pytest.raises(ValueError):
        twirl_oracle(np.eye(3))


# ---------------------------------------------------------------------------
# the factored oracle against the literal product rule
# ---------------------------------------------------------------------------

def oracle_triple_loop(rho, n, quad):
    """The product rule as written: one Kronecker power per (alpha, beta, gamma) node."""
    alphas, betas, w_beta, gammas = su2_quadrature(quad)
    out = np.zeros_like(rho)
    base_w = 1.0 / (quad.n_alpha * quad.n_gamma)
    for b, wb in zip(betas, w_beta):
        for a in alphas:
            for g in gammas:
                r = kron_power(rotation_su2((a, b, g)), n)
                out += (base_w * wb) * (r @ rho @ r.conj().T)
    return out


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("grid", [None, (3, 2, 3), (5, 4, 9)], ids=["default", "undersized", "asymmetric"])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_oracle_matches_the_triple_loop(n, grid, stacked):
    quad = QuadratureSpec.for_qubits(n) if grid is None else QuadratureSpec(*grid)
    states = [random_density_matrix(2**n, derived_rng(31, n, i)) for i in range(3)]
    rho = np.stack(states) if stacked else states[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the undersized grid warns; its answer is still compared
        got = twirl_oracle(rho, quad)
    assert got.shape == rho.shape
    assert np.abs(got - oracle_triple_loop(rho.astype(complex), n, quad)).max() <= 1e-14


def test_rotation_is_the_product_of_its_euler_factors():
    rng = np.random.default_rng(41)
    for _ in range(20):
        a, b, g = rng.uniform(0.0, 2 * math.pi, size=3)
        np.testing.assert_allclose(
            rotation_su2((a, b, g)),
            rotation_su2((a, 0, 0)) @ rotation_su2((0, b, 0)) @ rotation_su2((0, 0, g)),
            rtol=0,
            atol=1e-15,
        )


def test_oracle_makes_one_kronecker_power_per_axis_node(monkeypatch):
    # one Kronecker-power row per node: the alpha and gamma nodes as one stack
    # each, the beta nodes one matrix at a time
    rows, calls = [], {"rotation_su2": 0}

    def counted_power(m, n):
        m = np.asarray(m)
        rows.append(math.prod(m.shape[:-2]))
        return kron_power(m, n)

    def counted_rotation(angles):
        calls["rotation_su2"] += 1
        return rotation_su2(angles)

    monkeypatch.setattr(channel_module, "kron_power", counted_power)
    monkeypatch.setattr(channel_module, "rotation_su2", counted_rotation)
    n = 6
    quad = QuadratureSpec.for_qubits(n)
    twirl_oracle(random_density_matrix(2**n, 0))
    assert sum(rows) == quad.n_alpha + quad.n_beta + quad.n_gamma == 36
    assert calls["rotation_su2"] == 36
    assert len(rows) <= quad.n_beta + 2


def oracle_per_node_kron(rho, n, quad):
    """The factored oracle with one np.kron left fold per axis node: the reference for the bits."""

    def power(m):
        out = m
        for _ in range(n - 1):
            out = np.kron(out, m)
        return out

    def mask(rotations):
        z = np.array([power(np.diagonal(r)) for r in rotations])
        return z.T @ z.conj() / len(rotations)

    alphas, betas, w_beta, gammas = su2_quadrature(quad)
    m_alpha = mask([rotation_su2((a, 0.0, 0.0)) for a in alphas])
    m_gamma = mask([rotation_su2((0.0, 0.0, g)) for g in gammas])
    inner = rho * m_gamma
    out = np.zeros_like(rho)
    for b, wb in zip(betas, w_beta):
        y = power(rotation_su2((0.0, b, 0.0)))
        out += wb * (y @ inner @ y.conj().T)
    return out * m_alpha


@pytest.mark.parametrize(
    "n, grid", [(2, None), (4, None), (6, None), (6, (5, 3, 7))], ids=["2", "4", "6", "6-custom"]
)
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_oracle_keeps_the_bits_of_the_per_node_kron_route(n, grid, stacked):
    quad = QuadratureSpec.for_qubits(n) if grid is None else QuadratureSpec(*grid)
    states = [random_density_matrix(2**n, derived_rng(37, n, i)) for i in range(2)]
    rho = np.stack(states) if stacked else states[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the custom grid is undersized for n = 6
        got = twirl_oracle(rho, quad)
    want = oracle_per_node_kron(rho.astype(complex), n, quad)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_oracle_never_uses_the_coupled_basis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle reached the coupled basis")

    for module in (channel_module, repkit_module):
        monkeypatch.setattr(module, "block_layout", refuse)
    monkeypatch.setattr(repkit_module, "schur_transform", refuse)
    out = twirl_oracle(random_density_matrix(16, 2))
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_quadrature_sizes_are_checked_when_the_grid_is_built():
    for sizes in [(10, 0, 10), (-1, 3, 3), (3, 3, QUADRATURE_LIMIT + 1)]:
        with pytest.raises(ValueError):
            QuadratureSpec(*sizes)
    assert QuadratureSpec(QUADRATURE_LIMIT, 1, QUADRATURE_LIMIT).n_alpha == QUADRATURE_LIMIT


# ---------------------------------------------------------------------------
# block containers
# ---------------------------------------------------------------------------

def test_block_state_assemble_skips_missing_blocks():
    bs = BlockState(n=2, blocks={0: np.array([[1.0 + 0j]])})
    out = bs.assemble()
    assert out.shape == (4, 4)
    assert out[3, 3] == 1.0
    assert np.abs(out).sum() == 1.0


# ---------------------------------------------------------------------------
# action on the working space
# ---------------------------------------------------------------------------

def test_reduced_map_on_kept_basis_states():
    ws = build_working_space(12, 2.0)
    e0 = np.zeros(ws.k)
    e0[0] = 1.0
    f = reduced_map_f(e0, ws)
    expected = np.zeros((ws.d_p, ws.d_p))
    expected[0, 0] = 1.0
    np.testing.assert_allclose(f, expected, atol=1e-14)


def spread_state(ws):
    """Equal-weight maximal entanglement across every kept block."""
    v = np.zeros(ws.k, dtype=complex)
    for i in range(len(ws.y)):
        blk = ws.blocks(v)[i]
        for l in range(ws.d_alpha):
            blk[l, l] = 1.0 / math.sqrt(len(ws.y) * ws.d_alpha)
    return v


def test_reduced_map_on_spread_state_is_maximally_mixed():
    ws = build_working_space(12, 2.0)
    f = reduced_map_f(spread_state(ws), ws)
    np.testing.assert_allclose(f, np.eye(ws.d_p) / ws.d_p, atol=1e-13)


def test_reduced_map_is_a_state():
    ws = build_working_space(8, 2.0)
    from framecrypt.linalg import random_pure_state

    for s in range(5):
        f = reduced_map_f(random_pure_state(ws.k, s), ws)
        assert np.trace(f).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(f).min() > -1e-12


def test_reduced_map_owns_its_buffer_so_a_subtraction_can_reuse_it():
    from framecrypt.linalg import random_pure_state

    ws = build_working_space(128, 2.0)
    phi = random_pure_state(ws.k, 4)
    ref = np.eye(ws.d_p) / ws.d_p
    assert reduced_map_f(phi, ws).flags.owndata
    tracemalloc.start()
    try:
        reduced_map_f(phi, ws) - ref  # numpy writes the difference over the owned temporary
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * ws.d_p**2 * 16


def test_reference_states_shapes_and_fixed_point():
    ws = build_working_space(4, 2.0)
    rho0 = reference_states(ws)
    layout = {b.two_j: b for b in block_layout(ws.n)}
    for tj, blk in rho0.blocks.items():  # the reduction is I/d_p on the kept paths
        b = layout[tj]
        reduced = partial_trace_by_summation(blk, b.dim_r, b.dim_p)
        np.testing.assert_allclose(
            reduced[: ws.d_alpha, : ws.d_alpha], np.eye(ws.d_alpha) / ws.d_p, atol=1e-15
        )
    assert sum(np.trace(b) for b in rho0.blocks.values()).real == pytest.approx(1.0, abs=1e-12)
    full = rho0.assemble()
    np.testing.assert_allclose(twirl_block(full), full, atol=1e-13)


def test_twirl_working_state_matches_full_pipeline():
    # embed -> rotate-average in the computational basis -> back to coupled
    # must equal the direct block construction
    ws = build_working_space(4, 2.0)
    t = schur_transform(4)
    from framecrypt.linalg import random_pure_state

    for s in range(4):
        v = random_pure_state(ws.k, s)
        psi = embed_state(v, ws, target="computational")
        exact = t.matrix.conj().T @ twirl(np.outer(psi, psi.conj()), t) @ t.matrix
        np.testing.assert_allclose(twirl_working_state(v, ws).assemble(), exact, atol=1e-12)


def test_twirl_working_state_traces():
    ws = build_working_space(12, 2.0)
    from framecrypt.linalg import random_pure_state

    bs = twirl_working_state(random_pure_state(ws.k, 9), ws)
    assert set(bs.blocks) == set(ws.y)
    assert sum(np.trace(b) for b in bs.blocks.values()).real == pytest.approx(1.0, abs=1e-12)


def written_out_blocks(phi, ws):
    """The channel output and reference on the kept blocks, each built by its
    own loop: pad T_j (or I/d_p) to the block's paths, then kron(I/(2j+1), .)."""
    layout = {b.two_j: b for b in block_layout(ws.n)}
    out, ref = {}, {}
    for tj, a in zip(ws.y, ws.blocks(phi)):
        b = layout[tj]
        t = np.zeros((b.dim_p, b.dim_p), dtype=complex)
        t[: ws.d_alpha, : ws.d_alpha] = a.T @ a.conj()
        out[tj] = np.kron(np.eye(b.dim_r) / b.dim_r, t)
        p = np.zeros((b.dim_p, b.dim_p))
        p[np.diag_indices(ws.d_alpha)] = 1.0 / ws.d_p
        ref[tj] = np.kron(np.eye(b.dim_r) / b.dim_r, p).astype(complex)
    return out, ref


@pytest.mark.parametrize("n", [4, 12])
def test_working_state_blocks_keep_the_bits_of_the_written_out_loops(n):
    from framecrypt.linalg import random_pure_state
    from framecrypt.privacy import f_eval_direct

    ws = build_working_space(n, 2.0)
    for s in range(5):
        phi = random_pure_state(ws.k, derived_rng(17, n, s))
        want_out, want_ref = written_out_blocks(phi, ws)
        got_out, got_ref = twirl_working_state(phi, ws).blocks, reference_states(ws).blocks
        assert list(got_out) == list(got_ref) == list(ws.y)
        for tj in ws.y:
            np.testing.assert_array_equal(got_out[tj].view(np.uint64), want_out[tj].view(np.uint64))
            np.testing.assert_array_equal(got_ref[tj].view(np.uint64), want_ref[tj].view(np.uint64))
        want_f = 0.0
        for tj in ws.y:
            want_f += trace_norm(want_out[tj] - want_ref[tj])
        assert f_eval_direct(phi, ws) == want_f
