"""Tests for the truncated working space: dimensions, layout, embedding."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import framecrypt.repkit as repkit_module
import framecrypt.workspace as workspace_module
from framecrypt.channel import reduced_map_f, twirl_working_state
from framecrypt.linalg import derived_rng, random_pure_state
from framecrypt.privacy import f_eval
from framecrypt.repkit import CoupledIndex, couple_paths, coupled_position, dim_multiplicity, schur_transform
from framecrypt.workspace import (
    asymptotic_k,
    build_working_space,
    default_two_j_min,
    embed_state,
    restrict_state,
    workspace_vector,
)
from oracles import embed_index


def test_default_j_min_rounds_to_nearest():
    # j_min = round(n/3): 4/3 -> 1, 8/3 -> 3, 10/3 -> 3, 12/3 -> 4, 14/3 -> 5
    assert default_two_j_min(4) == 2
    assert default_two_j_min(6) == 4
    assert default_two_j_min(8) == 6
    assert default_two_j_min(10) == 6
    assert default_two_j_min(12) == 8
    assert default_two_j_min(14) == 10


def test_reference_working_space_n12():
    ws = build_working_space(12, 2.0)
    assert ws.two_j_min == 8  # j_min = 4
    assert ws.y == (8, 10)  # j in {4, 5}
    assert ws.d == 9
    assert ws.d_alpha == 4
    assert ws.k == 72
    assert ws.d_p == 8
    # block existence margins quoted with the example
    assert dim_multiplicity(12, 8) == 54
    assert dim_multiplicity(12, 10) == 11
    desc = ws.descriptor()
    assert desc["j_min"] == 4 and desc["y"] == [4, 5] and desc["k"] == 72


def test_reference_working_space_n4():
    ws = build_working_space(4, 2.0)
    assert (ws.two_j_min, ws.d, ws.d_alpha, ws.y, ws.k) == (2, 3, 1, (2,), 3)


def test_floor_is_exact_near_alpha_one():
    # 9 / (1 + 1e-9) is strictly below 9, so the floor drops to 8
    ws = build_working_space(12, 1.0 + 1e-9)
    assert ws.d_alpha == 8
    assert ws.k == 144


def test_build_validation():
    with pytest.raises(ValueError):
        build_working_space(7, 2.0)
    with pytest.raises(ValueError):
        build_working_space(12, 1.0)
    with pytest.raises(ValueError):
        build_working_space(12, 0.5)
    with pytest.raises(ValueError):
        build_working_space(4, 10.0)  # d_alpha = floor(3/10) = 0
    with pytest.raises(ValueError):
        build_working_space(12, 2.0, two_j_min=12)  # no room below j = n/2
    with pytest.raises(ValueError):
        build_working_space(12, 2.0, two_j_min=7)  # odd two_j


def test_j_min_override():
    ws = build_working_space(12, 2.0, two_j_min=10)
    assert ws.y == (10,)
    assert ws.d == 11
    assert ws.d_alpha == 5
    assert ws.k == 55


def test_asymptotic_size():
    assert asymptotic_k(12, 2.0) == pytest.approx(64.0, abs=1e-12)
    ws = build_working_space(12, 2.0)
    assert ws.k / asymptotic_k(12, 2.0) == pytest.approx(1.125, abs=1e-12)
    # the finite-size ratio decreases monotonically toward 1
    ratios = []
    for n in (12, 24, 48, 96):
        w = build_working_space(n, 2.0)
        ratios.append(w.k / asymptotic_k(n, 2.0))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < 1.02
    assert all(r > 1.0 for r in ratios)


def test_exact_size_beats_asymptote_minus_one():
    # K - 1 > (2/27) n^3 / alpha checked in exact rational arithmetic at alpha=2;
    # n = 4 sits below the crossover, everything from n = 6 on clears it
    ws4 = build_working_space(4, 2.0)
    assert Fraction(ws4.k - 1) < Fraction(2 * 4**3, 27 * 2)
    for n in range(6, 201, 2):
        ws = build_working_space(n, 2.0)
        assert Fraction(ws.k - 1) > Fraction(2 * n**3, 27 * 2)


def test_embed_positions_are_the_kept_indices():
    ws = build_working_space(12, 2.0)
    index = embed_index(ws)
    assert index[0] == CoupledIndex(8, 8, 0)
    assert len(index) == ws.k
    assert len(set(ws.embed_positions.tolist())) == ws.k
    # the first block in y is j_min, rotation index slow, path index fast
    assert index[1] == CoupledIndex(8, 8, 1)
    assert index[ws.d_alpha] == CoupledIndex(8, 6, 0)


def test_embed_positions_at_the_int64_limit():
    # 2^62 is the largest register the int64 positions address
    ws = build_working_space(62, 2.0)
    assert ws.embed_positions.dtype == np.int64
    assert ws.embed_positions.tolist() == [coupled_position(62, ci) for ci in embed_index(ws)]
    assert build_working_space(64, 2.0).embed_positions is None


def test_block_view_matches_the_coordinate_layout():
    ws = build_working_space(12, 2.0)
    width = ws.d * ws.d_alpha
    for i in range(len(ws.y)):
        v = np.zeros(ws.k)
        ws.blocks(v)[i] = np.arange(1, width + 1).reshape(ws.d, ws.d_alpha)
        # block i fills coordinates [i*D*D_alpha, (i+1)*D*D_alpha), path index fastest
        np.testing.assert_array_equal(v[i * width : (i + 1) * width], np.arange(1, width + 1))
        assert np.count_nonzero(v) == width
    stack = np.zeros((3, ws.k))
    assert ws.blocks(stack).shape == (3, len(ws.y), ws.d, ws.d_alpha)


def test_embed_restrict_roundtrip_coupled():
    ws = build_working_space(8, 2.0)
    rng = np.random.default_rng(1)
    v = rng.standard_normal(ws.k) + 1j * rng.standard_normal(ws.k)
    v /= np.linalg.norm(v)
    big = embed_state(v, ws)
    assert big.shape == (2**8,)
    assert np.linalg.norm(big) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(restrict_state(big, ws), v, atol=1e-14)


def test_embed_computational_is_isometric():
    # the embedding is the dense transform's kept columns applied to v
    for n in (4, 6, 8, 10, 12):
        t = schur_transform(n)
        for alpha in (2.0, 3.0):
            ws = build_working_space(n, alpha)
            rng = np.random.default_rng(n)
            v = rng.standard_normal(ws.k) + 1j * rng.standard_normal(ws.k)
            np.testing.assert_allclose(
                embed_state(v, ws, target="computational"),
                t.matrix[:, ws.embed_positions] @ v,
                rtol=0,
                atol=1e-14,
            )
    with pytest.raises(ValueError):
        embed_state(v, ws, target="other")
    with pytest.raises(ValueError):
        embed_state(np.zeros(ws.k + 1), ws)


def test_embed_computational_never_builds_the_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the embedding built the dense transform")

    monkeypatch.setattr(repkit_module, "schur_transform", refuse)
    monkeypatch.setattr(workspace_module, "schur_transform", refuse, raising=False)
    ws = build_working_space(12, 2.0)
    v = np.zeros(ws.k)
    v[-1] = 1.0
    assert np.linalg.norm(embed_state(v, ws, "computational")) == pytest.approx(1.0, abs=1e-12)
    # above the dense limit the embedding refuses by itself
    ws14 = build_working_space(14, 2.0)
    with pytest.raises(ValueError, match="limit"):
        embed_state(np.ones(ws14.k), ws14, "computational")


def test_embed_computational_holds_one_path_at_a_time():
    # a (2^12, 2j+1, D_alpha) column stack per kept block would take 2.4 and
    # 2.9 MB; one path's (2^12, 11) columns take 0.7 MB
    ws = build_working_space(12, 2.0)
    v = random_pure_state(ws.k, 3)
    embed_state(v, ws, "computational")  # lazy set-up stays out of the measured call
    tracemalloc.start()
    try:
        embed_state(v, ws, "computational")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize(("n", "alpha"), [(10, 1.5), (12, 2.0)])
def test_embed_computational_keeps_the_bits_of_the_complex_paths(n, alpha):
    # the real coupling paths, widened to complex, give the same sum
    ws = build_working_space(n, alpha)
    v = random_pure_state(ws.k, derived_rng(31, n))
    want = np.zeros(2**n, dtype=complex)
    for two_j, coords in zip(ws.y, ws.blocks(v)):
        for p, mat in enumerate(couple_paths(n, two_j, ws.d_alpha)):
            want += mat.astype(complex)[:, : ws.d] @ coords[:, p]
    got = embed_state(v, ws, "computational")
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_restrict_rejects_leakage():
    ws = build_working_space(4, 2.0)
    vec = np.zeros(2**4, dtype=complex)
    vec[ws.embed_positions[0]] = np.sqrt(0.5)
    outside = next(i for i in range(16) if i not in set(ws.embed_positions.tolist()))
    vec[outside] = np.sqrt(0.5)
    with pytest.raises(ValueError):
        restrict_state(vec, ws)
    with pytest.raises(ValueError):
        restrict_state(np.zeros(5), ws)


def test_workspace_vector_refuses_a_coupled_basis_vector():
    # the f routes take K working-space coordinates only; the 2^n coupled
    # basis vector of the same state is refused with a message naming K
    ws = build_working_space(4, 2.0)
    v = np.zeros(ws.k, dtype=complex)
    v[1] = 1.0
    np.testing.assert_array_equal(workspace_vector(v, ws), v)
    for route in (workspace_vector, f_eval, reduced_map_f, twirl_working_state):
        for bad in (embed_state(v, ws), np.zeros(7)):
            with pytest.raises(ValueError, match=f"K={ws.k}"):
                route(bad, ws)


@given(st.integers(2, 10), st.floats(1.01, 3.0))
@settings(max_examples=30, deadline=None)
def test_dimension_bookkeeping_property(half_n, alpha):
    n = 2 * half_n
    try:
        ws = build_working_space(n, alpha)
    except ValueError:
        return  # alpha truncated the multiplicity slice away; nothing to check
    assert ws.k == len(ws.y) * ws.d * ws.d_alpha
    assert ws.d == ws.two_j_min + 1
    assert ws.d_alpha >= 1
    assert ws.k == len(embed_index(ws)) == len(ws.embed_positions)
    assert ws.embed_positions.tolist() == [coupled_position(n, ci) for ci in embed_index(ws)]
    assert ws.d_p == len(ws.y) * ws.d_alpha
    for tj in ws.y:
        assert ws.d_alpha <= dim_multiplicity(n, tj)
