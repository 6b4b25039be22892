"""Randomized blocked pivoting: sketch construction, selection, downdating."""

import numpy as np
import pytest

from rrqr import (
    EPS,
    FlopCounter,
    Sketch,
    Xoshiro256pp,
    apply_block_qt,
    build_sketch,
    downdate_sketch,
    frobenius_norm,
    gaussian_matrix,
    gen_fast_decay,
    hqrp_blk,
    hqrp_unb,
    hqrrp_blk,
    orthogonality_error,
    reconstruction_error,
    select_block_pivots,
    truncation_errors,
)
from rrqr.householder import _unit_lower, hqr_unb_formT

from conftest import gauss


def fresh_sketch_state(a_orig, g0, panels, packed, perm):
    """Oracle: recompute (G-tilde, A-state) from scratch via stored panels."""
    b_chain = np.asfortranarray(a_orig[:, perm])
    gt_chain = np.asfortranarray(g0.T.copy())
    for js, t in panels:
        bw = t.shape[0]
        panel = packed[js:, js : js + bw]
        apply_block_qt(panel, t, b_chain[js:, :])
        apply_block_qt(panel, t, gt_chain[js:, :])
    return gt_chain.T, b_chain


def test_build_sketch_zero_matrix():
    sk = build_sketch(Xoshiro256pp(1), np.zeros((6, 5), order="F"), 2, 1)
    assert np.array_equal(sk.y, np.zeros((3, 5)))


def test_build_sketch_identity_action():
    sk = build_sketch(Xoshiro256pp(2), np.eye(6, order="F"), 3, 2)
    assert np.array_equal(sk.y, sk.g[:, :6])
    assert sk.g.shape == (5, 6)


def test_build_sketch_column_energy():
    # per-row E||(G A)(:, j)||^2 = ||A(:, j)||^2; frozen seeded statistic
    a = gauss(9, 50, 40)
    sk = build_sketch(Xoshiro256pp(10), a, 8, 4)
    ratio = np.einsum("ij,ij->j", sk.y, sk.y) / np.einsum("ij,ij->j", a, a)
    assert ratio.mean() == pytest.approx(11.324865110289101, rel=1e-12)  # ~ b+p = 12
    assert 8.0 <= ratio.mean() <= 16.0


def test_build_sketch_validates_parameters():
    with pytest.raises(ValueError):
        build_sketch(Xoshiro256pp(0), np.eye(4), 0, 2)
    with pytest.raises(ValueError):
        build_sketch(Xoshiro256pp(0), np.eye(4), 2, -1)


def test_select_block_pivots_dominant_column():
    y = gauss(3, 6, 10)
    y[:, 7] *= 10.0 / np.linalg.norm(y[:, 7])
    trail = select_block_pivots(y, 3)
    assert trail[0] == 7


def test_select_block_pivots_scaled_axes():
    y = np.zeros((3, 3), order="F")
    y[0, 0], y[1, 1], y[2, 2] = 1.0, 2.0, 3.0
    trail = select_block_pivots(y, 3)
    order = [int(v) for v in trail]
    assert order == [2, 1, 2]  # selects columns 2, 1, 0 in that order


def test_select_block_pivots_b1_is_argmax():
    y = gauss(4, 5, 7)
    trail = select_block_pivots(y, 1)
    norms = np.einsum("ij,ij->j", y, y)
    assert trail[0] == int(np.argmax(norms))


def test_select_block_pivots_leaves_y_untouched():
    y = gauss(5, 6, 8)
    orig = y.copy()
    select_block_pivots(y, 4)
    assert np.array_equal(y, orig)


def test_select_block_pivots_too_many():
    with pytest.raises(ValueError):
        select_block_pivots(gauss(6, 4, 3), 4)


def test_select_block_pivots_rank_deficient_padding():
    y = np.zeros((4, 5), order="F")
    y[:, 2] = 1.0
    trail = select_block_pivots(y, 3)
    assert len(trail) == 3
    assert trail[0] == 2


def test_downdate_sketch_zero_width_panel_is_noop():
    a = gauss(7, 10, 10)
    sk = build_sketch(Xoshiro256pp(3), a, 2, 3)
    y0, g0 = sk.y.copy(), sk.g.copy()
    downdate_sketch(sk, a, np.zeros((0, 0)), a[:0, :])
    assert np.array_equal(sk.y, y0) and np.array_equal(sk.g, g0)
    assert sk.col_offset == 0


def test_downdate_sketch_one_panel_matches_fresh_product():
    a = gauss(8, 64, 64)
    a0 = a.copy(order="F")
    sk = build_sketch(Xoshiro256pp(4), a, 8, 4)
    g0 = sk.g.copy()
    t, _ = hqr_unb_formT(a[:, :8])  # unpivoted panel keeps the oracle simple
    apply_block_qt(a[:, :8], t, a[:, 8:])
    downdate_sketch(sk, a[:, :8], t, a[:8, 8:])
    g_fresh, state = fresh_sketch_state(a0, g0, [(0, t)], a, np.arange(64))
    rhs = g_fresh[:, 8:] @ state[8:, 8:]
    assert frobenius_norm(sk.y[:, 8:] - rhs) <= 1e-11 * frobenius_norm(a0)
    assert sk.col_offset == 8


def _downdate_case():
    """A 13-row sketch of a 40 x 30 matrix at column 5, and a 4-wide panel."""
    sk = Sketch(gauss(40, 13, 40), gauss(41, 13, 30), col_offset=5)
    panel = gauss(42, 35, 4)
    t, _ = hqr_unb_formT(panel)
    return sk, panel, t, gauss(43, 4, 21)


def test_downdate_sketch_takes_g_times_q_in_place():
    sk, panel, t, r12 = _downdate_case()
    (rows, m), n, j, bw = sk.g.shape, sk.y.shape[1], sk.col_offset, t.shape[0]
    u = _unit_lower(panel, bw)
    want_g = sk.g.copy()
    want_g[:, j:] = sk.g[:, j:] @ (np.eye(m - j) - u @ np.linalg.solve(t, u.T))
    want_y = sk.y.copy()
    want_y[:, j + bw :] -= want_g[:, j : j + bw] @ r12
    fc = FlopCounter()
    downdate_sketch(sk, panel, t, r12, fc=fc)
    assert frobenius_norm(sk.g - want_g) <= 1e-13 * frobenius_norm(want_g)
    assert frobenius_norm(sk.y - want_y) <= 1e-13 * frobenius_norm(want_y)
    assert sk.col_offset == j + bw
    # one dlarfb on G from the right, then one dgemm into Y
    assert fc.count == (
        4 * (m - j) * bw * rows + bw * bw * rows + 2 * rows * bw * (n - j - bw)
    )


@pytest.mark.parametrize("bad", ["G", "Y", "R12"])
def test_downdate_sketch_checks_every_view_before_it_writes(bad):
    # G, Y and R12 are all checked before dlarfb writes G, so a row-major
    # one leaves the sketch as it was rather than half advanced
    sk, panel, t, r12 = _downdate_case()
    if bad == "G":
        sk.g = np.ascontiguousarray(sk.g)
    elif bad == "Y":
        sk.y = np.ascontiguousarray(sk.y)
    else:
        r12 = np.ascontiguousarray(r12)
    g0, y0 = sk.g.copy(), sk.y.copy()
    with pytest.raises(ValueError, match=f"^{bad} must be a column-major"):
        downdate_sketch(sk, panel, t, r12)
    assert np.array_equal(sk.g, g0) and np.array_equal(sk.y, y0)
    assert sk.col_offset == 5


def test_downdate_sketch_dimension_mismatch():
    a = gauss(9, 12, 12)
    sk = build_sketch(Xoshiro256pp(5), a, 4, 2)
    t = np.eye(4)
    with pytest.raises(ValueError):
        downdate_sketch(sk, a[2:, :4], t, a[:4, 4:])
    with pytest.raises(ValueError):
        downdate_sketch(sk, a[:, :4], t, a[:4, 5:])


def test_sketch_invariant_at_every_loop_head():
    a0 = gauss(10, 96, 96)
    captured = {}
    errs = []

    def hook(st):
        if st.col_offset == 0:
            captured["g0"] = st.g.copy()
            return
        g_fresh, state = fresh_sketch_state(
            a0, captured["g0"], st.panels, st.a, st.perm
        )
        j = st.col_offset
        rhs = g_fresh[:, j:] @ state[j:, j:]
        errs.append(frobenius_norm(st.y - rhs))

    hqrrp_blk(
        a0.copy(order="F"), 16, Xoshiro256pp(6), p=5, mode="downdate", loop_hook=hook
    )
    bound = 1e-10 * (16 + 5) * frobenius_norm(a0)
    assert len(errs) == 5
    assert max(errs) <= bound


def test_single_panel_degenerates_to_classical():
    # b >= n, p = 0: sketch picks then the panel re-pivots; final column
    # order and R match classical pivoting
    a = gauss(11, 24, 18)
    f_rand = hqrrp_blk(a.copy(order="F"), 24, Xoshiro256pp(7), p=0)
    f_classic = hqrp_unb(a.copy(order="F"))
    assert np.array_equal(f_rand.permutation(), f_classic.permutation())
    assert frobenius_norm(f_rand.r_matrix() - f_classic.r_matrix()) <= 1e-11 * frobenius_norm(a)


@pytest.mark.parametrize("mode", ["basic", "downdate"])
@pytest.mark.parametrize("m,n", [(40, 40), (60, 35), (35, 60)])
def test_validity_all_modes_and_shapes(mode, m, n):
    a = gauss(m * 7 + n, m, n)
    for seed in (0, 1, 2):
        f = hqrrp_blk(a.copy(order="F"), 8, Xoshiro256pp(seed), p=3, mode=mode)
        bound = 50 * max(m, n) * EPS
        assert reconstruction_error(a, f) <= bound
        assert orthogonality_error(f) <= bound


def test_within_block_diagonal_ordering():
    a = gauss(12, 80, 80)
    f = hqrrp_blk(a.copy(order="F"), 16, Xoshiro256pp(8), p=5)
    d = np.abs(np.diag(f.r_matrix()))
    for j in range(0, 80, 16):
        blk = d[j : j + 16]
        assert np.all(blk[:-1] >= blk[1:] * (1 - 1e-13))


def test_determinism_at_fixed_seed():
    a = gauss(13, 50, 50)
    f1 = hqrrp_blk(a.copy(order="F"), 8, Xoshiro256pp(9), p=5)
    f2 = hqrrp_blk(a.copy(order="F"), 8, Xoshiro256pp(9), p=5)
    assert np.array_equal(f1.trail, f2.trail)
    assert np.array_equal(f1.packed, f2.packed)


def test_ragged_final_panel():
    a = gauss(14, 70, 70)
    f = hqrrp_blk(a.copy(order="F"), 32, Xoshiro256pp(10), p=5)
    assert [t.shape[0] for t in f.t_blocks] == [32, 32, 6]
    assert reconstruction_error(a, f) <= 50 * 70 * EPS


def test_modes_track_each_other_on_decaying_matrix():
    a, _ = gen_fast_decay(128, Xoshiro256pp(11))
    ks = list(range(16, 128, 16))
    reps = {}
    for mode in ("basic", "downdate"):
        f = hqrrp_blk(a.copy(order="F"), 16, Xoshiro256pp(12), p=5, mode=mode)
        reps[mode] = truncation_errors(a, f, ks).e_frob
    ratio = reps["basic"] / reps["downdate"]
    assert np.all(ratio <= 1.5) and np.all(ratio >= 1 / 1.5)


def test_first_block_pivot_energy_vs_classical():
    a, _ = gen_fast_decay(128, Xoshiro256pp(13))
    norms2 = np.einsum("ij,ij->j", a, a)
    classic = hqrp_blk(a.copy(order="F"), 16)
    classic_energy = norms2[classic.permutation()[:16]].sum()
    for p in (5, 16):
        for mode in ("basic", "downdate"):
            f = hqrrp_blk(a.copy(order="F"), 16, Xoshiro256pp(14), p=p, mode=mode)
            energy = norms2[f.permutation()[:16]].sum()
            assert energy >= 0.5 * classic_energy


def test_invalid_parameters():
    a = gauss(15, 10, 10)
    with pytest.raises(ValueError):
        hqrrp_blk(a, 4, Xoshiro256pp(0), mode="bogus")
    with pytest.raises(ValueError):
        hqrrp_blk(a, 0, Xoshiro256pp(0))


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_empty_input_same_in_both_modes(shape):
    seen = {}
    for mode in ("basic", "downdate"):
        rng = Xoshiro256pp(3)
        f = hqrrp_blk(np.zeros(shape, order="F"), 4, rng, mode=mode)
        assert f.packed.shape == shape
        assert f.trail.tolist() == list(range(shape[1]))
        seen[mode] = rng.raw(1)[0]  # neither mode draws from the generator
    assert seen["basic"] == seen["downdate"]


def test_generator_use_per_mode():
    # basic mode draws a fresh (b+p) x (m-j) G at every panel start j,
    # downdate mode one (b+p) x m G; both sketch the same A first
    a = gauss(16, 70, 50)
    expected = {"basic": [(21, 70 - j) for j in (0, 16, 32, 48)], "downdate": [(21, 70)]}
    first = {}
    for mode, draws in expected.items():
        rng = Xoshiro256pp(17)

        def hook(st):
            if st.col_offset == 0:
                first[mode] = (st.g.copy(), st.y.copy())

        hqrrp_blk(a.copy(order="F"), 16, rng, p=5, mode=mode, loop_hook=hook)
        ref = Xoshiro256pp(17)
        for rows, cols in draws:
            gaussian_matrix(ref, rows, cols)
        assert np.array_equal(rng.raw(4), ref.raw(4)), mode
    assert np.array_equal(first["basic"][0], first["downdate"][0])
    assert np.array_equal(first["basic"][1], first["downdate"][1])


@pytest.mark.parametrize("b", [2.5, -1, "2"])
def test_select_block_pivots_rejects_bad_pivot_count(b):
    with pytest.raises(ValueError, match="pivot count"):
        select_block_pivots(gauss(16, 6, 8), b)
