"""Tests for the angular-momentum bookkeeping and the coupled-basis transform."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecrypt.repkit as repkit_module
from framecrypt.linalg import kron_power
from framecrypt.repkit import (
    CoupledIndex,
    block_layout,
    couple_paths,
    coupled_position,
    dim_irrep,
    dim_multiplicity,
    enumerate_paths,
    irrep_labels,
    random_euler,
    rotation_su2,
    schur_transform,
    wigner_d,
)


# ---------------------------------------------------------------------------
# oracle: dynamic-programming walk count over coupling levels
# ---------------------------------------------------------------------------

def dp_level_counts(n):
    """Map two_j -> number of admissible coupling histories, by direct DP."""
    counts = {1: 1}  # one qubit: spin 1/2, a single history
    for _ in range(n - 1):
        nxt = {}
        for tj, c in counts.items():
            nxt[tj + 1] = nxt.get(tj + 1, 0) + c
            if tj >= 1:
                nxt[tj - 1] = nxt.get(tj - 1, 0) + c
        counts = nxt
    return counts


def test_multiplicity_matches_dp_oracle():
    for n in (2, 4, 6, 8, 10, 12, 14):
        oracle = dp_level_counts(n)
        for tj in irrep_labels(n):
            assert dim_multiplicity(n, tj) == oracle[tj]


def test_multiplicity_frozen_maps():
    assert {tj: dim_multiplicity(4, tj) for tj in irrep_labels(4)} == {4: 1, 2: 3, 0: 2}
    assert {tj: dim_multiplicity(6, tj) for tj in irrep_labels(6)} == {6: 1, 4: 5, 2: 9, 0: 5}


def test_dim_irrep_values():
    assert dim_irrep(0) == 1
    assert dim_irrep(4) == 5  # j = 2
    assert dim_irrep(6) == 7  # j = 3 = N/2 at N = 6
    with pytest.raises(ValueError):
        dim_irrep(-2)


def test_dimension_completeness_to_64():
    # sum over blocks of (2j+1) * multiplicity recovers 2^n, exactly in ints
    for n in range(2, 65, 2):
        total = sum(dim_irrep(tj) * dim_multiplicity(n, tj) for tj in irrep_labels(n))
        assert total == 2**n


def test_irrep_labels_and_validation():
    assert irrep_labels(6) == [6, 4, 2, 0]
    with pytest.raises(ValueError):
        irrep_labels(5)
    with pytest.raises(ValueError):
        dim_multiplicity(4, 3)
    with pytest.raises(ValueError):
        dim_multiplicity(4, 6)


@given(st.integers(1, 20))
@settings(max_examples=20, deadline=None)
def test_completeness_property(half_n):
    n = 2 * half_n
    assert sum(dim_irrep(tj) * dim_multiplicity(n, tj) for tj in irrep_labels(n)) == 2**n


# ---------------------------------------------------------------------------
# coupling paths
# ---------------------------------------------------------------------------

def test_enumerate_paths_hand_cases():
    assert enumerate_paths(2, 0) == [(1, -1)]
    assert len(enumerate_paths(4, 2)) == 3  # j = 1 at N = 4


def test_paths_are_valid_lex_ordered_and_counted():
    for n in (2, 4, 6, 8, 10):
        for tj in irrep_labels(n):
            paths = enumerate_paths(n, tj)
            assert len(paths) == dim_multiplicity(n, tj)
            # +1 sorts before -1: lexicographic with that order
            keyed = sorted(paths, key=lambda p: [0 if s == 1 else 1 for s in p])
            assert paths == keyed
            for p in paths:
                heights = np.cumsum(p)
                assert heights.min() >= 0
                assert heights[-1] == tj
            assert len(set(paths)) == len(paths)


def test_enumerate_paths_validation():
    with pytest.raises(ValueError):
        enumerate_paths(4, 5)
    with pytest.raises(ValueError):
        enumerate_paths(4, 6)


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

def test_schur_two_qubits_exact():
    t = schur_transform(2)
    s = 1.0 / math.sqrt(2.0)
    # columns: triplet m = 1, 0, -1, then the singlet (|01> - |10>)/sqrt(2)
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, s, 0, s],
            [0, s, 0, -s],
            [0, 0, 1, 0],
        ]
    )
    np.testing.assert_allclose(t.matrix, expected, atol=1e-14)


def test_schur_is_unitary():
    for n in (2, 4, 6):
        v = schur_transform(n).matrix
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2**n), atol=1e-12)


def test_schur_limits_and_validation():
    with pytest.raises(ValueError):
        schur_transform(3)
    with pytest.raises(ValueError):
        schur_transform(14)  # above the dense limit


def test_couple_paths_stops_after_the_requested_paths():
    b = block_layout(6)[1]  # two_j = 4: 5 paths
    full = schur_transform(6).matrix[:, b.span].reshape(2**6, b.dim_r, b.dim_p)
    first = np.stack(list(couple_paths(6, b.two_j, 2)), axis=-1)
    np.testing.assert_array_equal(first, full[:, :, :2])
    with pytest.raises(ValueError, match="1 coupling paths"):
        list(couple_paths(6, 6, 2))  # only one path reaches j = 3


def couple_up_by_columns(mat, two_j):
    """Attach one qubit and raise two_j by one, column by column: the bit
    reference for _couple(mat, two_j, +1)."""
    t = two_j
    out = np.zeros((2 * mat.shape[0], t + 2), dtype=complex)
    for col in range(t + 2):
        two_m = t + 1 - 2 * col
        if abs(two_m - 1) <= t:  # parent m = M - 1/2, new qubit up
            c = math.sqrt((t + two_m + 1) / (2 * (t + 1)))
            out[0::2, col] += c * mat[:, (t - (two_m - 1)) // 2]
        if abs(two_m + 1) <= t:  # parent m = M + 1/2, new qubit down
            c = math.sqrt((t - two_m + 1) / (2 * (t + 1)))
            out[1::2, col] += c * mat[:, (t - (two_m + 1)) // 2]
    return out


def couple_down_by_columns(mat, two_j):
    """Attach one qubit and lower two_j by one, the up-qubit coefficient
    negative: the bit reference for _couple(mat, two_j, -1)."""
    t = two_j
    out = np.zeros((2 * mat.shape[0], t), dtype=complex)
    for col in range(t):
        two_m = t - 1 - 2 * col
        c_up = -math.sqrt((t - two_m + 1) / (2 * (t + 1)))
        c_dn = math.sqrt((t + two_m + 1) / (2 * (t + 1)))
        out[0::2, col] += c_up * mat[:, (t - (two_m - 1)) // 2]
        out[1::2, col] += c_dn * mat[:, (t - (two_m + 1)) // 2]
    return out


def schur_by_out_array_walk(n):
    """The transform by one walk per block writing into a (2^n, 2j+1, dim_p)
    view, with the column-by-column steps: the reference for the bits."""
    matrix = np.zeros((2**n, 2**n), dtype=complex)
    for b in block_layout(n):
        out = matrix[:, b.span].reshape(2**n, b.dim_r, b.dim_p)
        done = 0

        def descend(mat, t, k):
            nonlocal done
            if k == n:
                out[:, :, done] = mat
                done += 1
                return
            for step, couple in ((1, couple_up_by_columns), (-1, couple_down_by_columns)):
                if done < b.dim_p and repkit_module._can_reach(t + step, n - k - 1, b.two_j):
                    descend(couple(mat, t), t + step, k + 1)

        descend(np.eye(2, dtype=complex), 1, 1)
        assert done == b.dim_p
    return matrix


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_schur_keeps_the_bits_of_the_out_array_walk(n):
    got, want = schur_transform(n).matrix, schur_by_out_array_walk(n)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_couple_paths_folds_the_coupling_step_along_enumerate_paths(n):
    # one walk: the paths couple_paths hands over are _couple folded along
    # the histories of enumerate_paths, in that order
    for tj in irrep_labels(n):
        want = []
        for path in enumerate_paths(n, tj):
            mat, t = np.eye(2, dtype=complex), 1
            for step in path[1:]:
                mat, t = repkit_module._couple(mat, t, step), t + step
            want.append(mat)
        got = list(couple_paths(n, tj, len(want)))
        assert len(got) == len(want) == dim_multiplicity(n, tj)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def test_ordering_matches_block_layout():
    pos = 0
    for b in block_layout(4):
        assert b.span == slice(pos, pos + b.dim_r * b.dim_p)
        for m_idx in range(b.dim_r):
            for p_idx in range(b.dim_p):
                ci = CoupledIndex(b.two_j, b.two_j - 2 * m_idx, p_idx)
                assert coupled_position(4, ci) == pos
                pos += 1
    assert pos == 16


def test_coupled_position_validation():
    with pytest.raises(ValueError):
        coupled_position(4, CoupledIndex(3, 1, 0))
    with pytest.raises(ValueError):
        coupled_position(4, CoupledIndex(2, 3, 0))
    with pytest.raises(ValueError):
        coupled_position(4, CoupledIndex(2, 2, 3))


def test_transform_block_diagonalizes_rotations():
    # V^dag R(omega)^(x n) V must be block diagonal with D^j (x) I_mult
    for n in (2, 4):
        t = schur_transform(n)
        for trial in range(5):
            ang = random_euler(np.random.default_rng([n, trial]))
            big = t.matrix.conj().T @ kron_power(rotation_su2(ang), n) @ t.matrix
            expect = np.zeros_like(big)
            for b in block_layout(n):
                d = wigner_d(b.two_j, ang)
                s = b.span
                expect[s, s] = np.kron(d, np.eye(b.dim_p))
            np.testing.assert_allclose(big, expect, atol=1e-12)


def test_projector_properties():
    # the projector onto a block is V_b V_b^dagger over its coupled-basis columns
    singlet_cols = schur_transform(2).matrix[:, block_layout(2)[-1].span]  # two_j = 0 comes last
    p0 = singlet_cols @ singlet_cols.conj().T
    assert np.linalg.matrix_rank(p0) == 1
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(p0 @ singlet, singlet, atol=1e-12)
    np.testing.assert_allclose(p0, np.outer(singlet, singlet.conj()), atol=1e-12)

    total = np.zeros((16, 16), dtype=complex)
    t4 = schur_transform(4)
    for b in block_layout(4):
        cols = t4.matrix[:, b.span]
        p = cols @ cols.conj().T
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        total += p
    np.testing.assert_allclose(total, np.eye(16), atol=1e-12)


def test_multiplicity_dominates_rotation_factor_in_the_kept_range():
    # for n/3 <= j < n/2 the multiplicity factor is at least as large as 2j+1
    for n in range(6, 65, 2):
        for tj in irrep_labels(n):
            if 3 * tj >= 2 * n and tj <= n - 2:
                assert dim_multiplicity(n, tj) >= dim_irrep(tj)


# ---------------------------------------------------------------------------
# rotations
# ---------------------------------------------------------------------------

def test_wigner_half_integer_hand_value():
    beta = 0.7
    d = wigner_d(1, (0.0, beta, 0.0))
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    np.testing.assert_allclose(d, [[c, -s], [s, c]], atol=1e-14)


def test_wigner_identity_and_unitarity():
    for tj in (0, 1, 2, 3, 5):
        np.testing.assert_allclose(wigner_d(tj, (0.0, 0.0, 0.0)), np.eye(tj + 1), atol=1e-13)
        d = wigner_d(tj, random_euler(np.random.default_rng(tj)))
        np.testing.assert_allclose(d @ d.conj().T, np.eye(tj + 1), atol=1e-12)
    with pytest.raises(ValueError):
        wigner_d(-1, (0.0, 0.0, 0.0))


def test_rotation_su2_matches_wigner():
    ang = random_euler(3)
    np.testing.assert_allclose(rotation_su2(ang), wigner_d(1, ang), atol=1e-13)


def test_wigner_d_is_the_stretched_block_of_the_rotation_power():
    # the all-raising path spans spin tj/2 inside tj qubits, and R -> R^(x tj) is a
    # homomorphism, so D^j inherits the group property, half-integer j included
    rng = np.random.default_rng(17)
    for tj in (1, 2, 3, 4):
        (c,) = couple_paths(tj, tj, 1)
        for trial in range(6):
            ang = random_euler(rng)
            big = c.conj().T @ kron_power(rotation_su2(ang), tj) @ c
            np.testing.assert_allclose(wigner_d(tj, ang), big, atol=1e-12)


def test_random_euler_ranges_and_determinism():
    angles = [random_euler(np.random.default_rng([9, i])) for i in range(200)]
    for a, b, g in angles:
        assert 0.0 <= a < 2 * math.pi and 0.0 <= b <= math.pi and 0.0 <= g < 2 * math.pi
    again = random_euler(np.random.default_rng([9, 0]))
    assert angles[0] == again


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_wigner_composition_in_z(seed):
    # pure z rotations compose additively in the phase angle
    rng = np.random.default_rng(seed)
    a1, a2 = rng.uniform(0, 2 * math.pi, size=2)
    for tj in (2, 3):
        lhs = wigner_d(tj, (a1, 0.0, 0.0)) @ wigner_d(tj, (a2, 0.0, 0.0))
        rhs = wigner_d(tj, ((a1 + a2) % (4 * math.pi), 0.0, 0.0))
        np.testing.assert_allclose(lhs, rhs, atol=1e-11)
