"""Column-pivoting tests: weights, MGSP, variant 1, variant 3, blocked."""

import itertools

import numpy as np
import pytest

from rrqr import (
    EPS,
    WeightVector,
    compute_weights,
    determine_pivot,
    downdate_weights,
    frobenius_norm,
    hqrp_blk,
    hqrp_panel_var3,
    hqrp_unb,
    mgsp,
    orthogonality_error,
    reconstruction_error,
    select_block_pivots,
    trail_to_permutation,
)

from conftest import gauss


def test_compute_weights_identity():
    w = compute_weights(np.eye(3))
    assert np.array_equal(w.v, [1.0, 1.0, 1.0])


def test_compute_weights_single_column():
    assert compute_weights(np.array([[3.0], [4.0]])).v[0] == 25.0


def test_compute_weights_matches_dots():
    a = gauss(1, 20, 5)
    w = compute_weights(a)
    for j in range(5):
        exact = a[:, j] @ a[:, j]
        assert abs(w.v[j] - exact) <= 4 * EPS * exact


def test_downdate_exercise_value():
    w = WeightVector([25.0])
    downdate_weights(w, [3.0])
    assert w.v[0] == 16.0  # nu - rho^2


def test_downdate_exact_annihilation():
    w = WeightVector([4.0])
    downdate_weights(w, [2.0])
    assert w.v[0] == 0.0


def test_downdate_matches_recompute_after_mgs_step():
    a = gauss(2, 15, 6).copy(order="F")
    w = compute_weights(a)
    q = a[:, 0] / np.linalg.norm(a[:, 0])
    r_row = q @ a[:, 1:]
    a[:, 1:] -= np.outer(q, r_row)
    w.downdate(1, r_row)
    for j in range(1, 6):
        exact = a[:, j] @ a[:, j]
        assert abs(w.v[j] - exact) <= 1e-10 * exact


def test_downdate_safeguard_recomputes_drifted_weights():
    w = WeightVector([1.0, 1.0])
    calls = []

    def recompute(j):
        calls.append(j)
        return 7e-9

    r_val = np.sqrt(1.0 - 5e-9)  # leaves 5e-9 < 1e-8 * v_orig behind
    w.downdate(0, np.array([0.0, r_val]), recompute)
    assert calls == [1]
    assert w.v[1] == 7e-9


def test_recomputed_weight_becomes_its_reference():
    w = WeightVector([1.0, 1.0])
    calls = []

    def recompute(j):
        calls.append(j)
        return 7e-9

    w.downdate(0, np.array([0.0, np.sqrt(1.0 - 5e-9)]), recompute)
    assert w.v_orig[1] == 7e-9
    # 7e-9 - 1e-12 is far above 1e-8 of the new reference: no recompute
    w.downdate(0, np.array([0.0, 1e-6]), recompute)
    assert calls == [1]


def test_determine_pivot_picks_largest():
    assert determine_pivot(WeightVector([1.0, 9.0, 4.0]), 0) == 1


def test_determine_pivot_tie_breaks_to_smallest_index():
    assert determine_pivot(WeightVector([5.0, 5.0]), 0) == 0


def test_determine_pivot_respects_offset():
    assert determine_pivot(WeightVector([1.0, 9.0, 4.0]), 2) == 2


def test_mgsp_identity():
    q, r, trail = mgsp(np.eye(3))
    assert np.array_equal(q, np.eye(3))
    assert np.array_equal(r, np.eye(3))
    assert np.array_equal(trail, [0, 1, 2])


def test_mgsp_two_column_hand_case():
    # columns 3*e2 and 1*e1: weight 9 wins, diag comes out (3, 1)
    a = np.array([[0.0, 1.0], [3.0, 0.0]], order="F")
    q, r, trail = mgsp(a)
    assert trail.tolist() == [0, 1]
    assert np.diag(r) == pytest.approx([3.0, 1.0])
    # explicit Gram-Schmidt oracle on the pivoted order
    perm = trail_to_permutation(trail, 2)
    ap = a[:, perm]
    q0 = ap[:, 0] / np.linalg.norm(ap[:, 0])
    v1 = ap[:, 1] - (q0 @ ap[:, 1]) * q0
    q_oracle = np.column_stack([q0, v1 / np.linalg.norm(v1)])
    assert np.allclose(q, q_oracle, atol=1e-15)


def test_mgsp_random_quality():
    a = gauss(3, 30, 10)
    q, r, trail = mgsp(a)
    assert frobenius_norm(q.T @ q - np.eye(10)) <= 1e-10
    perm = trail_to_permutation(trail, 10)
    assert frobenius_norm(q @ r - a[:, perm]) <= 1e-10 * frobenius_norm(a)
    d = np.abs(np.diag(r))
    assert np.all(d[:-1] >= d[1:] - 1e-15)
    assert np.all(np.diag(r) >= 0)


def test_mgsp_rank_deficient_early_stop():
    basis = gauss(4, 20, 3)
    a = basis @ gauss(5, 3, 8)  # rank 3 exactly
    q, r, trail = mgsp(a)
    assert len(trail) == 3
    assert q.shape == (20, 3)
    perm = trail_to_permutation(trail, 8)
    assert frobenius_norm(q @ r - a[:, perm]) <= 1e-12 * frobenius_norm(a)


def test_mgsp_zero_matrix():
    q, r, trail = mgsp(np.zeros((4, 3)))
    assert len(trail) == 0
    assert q.shape == (4, 0)


def _mgsp_oracle(a, max_steps=None):
    """Modified Gram-Schmidt with column pivoting, one column per step.

    The reference for `mgsp`: pivots on downdated weights with the drift
    safeguard and stops once the largest remaining weight falls below
    m * eps * max(original weights).  Returns (Q, R, trail).
    """
    m, n = a.shape
    rmax = min(m, n) if max_steps is None else min(m, n, max_steps)
    work = np.array(a, dtype=np.float64, order="F")
    weights = compute_weights(work)
    stop_level = m * EPS * float(np.max(weights.v_orig, initial=0.0))
    r_mat = np.zeros((rmax, n), order="F")
    trail = []
    for k in range(rmax):
        piv = determine_pivot(weights, k)
        if weights.v[piv] <= stop_level:
            break
        if piv != k:
            work[:, [k, piv]] = work[:, [piv, k]]
            r_mat[:k, [k, piv]] = r_mat[:k, [piv, k]]
            weights.swap(k, piv)
        col = work[:, k]
        rho = float(np.linalg.norm(col))
        if rho == 0.0:
            if piv != k:  # undo, so the truncated result matches the trail
                work[:, [k, piv]] = work[:, [piv, k]]
                r_mat[:k, [k, piv]] = r_mat[:k, [piv, k]]
                weights.swap(k, piv)
            break
        trail.append(piv)
        col /= rho
        r_row = col @ work[:, k + 1 :]
        work[:, k + 1 :] -= np.outer(col, r_row)
        r_mat[k, k] = rho
        r_mat[k, k + 1 :] = r_row
        weights.downdate(k + 1, r_row, lambda j: float(work[:, j] @ work[:, j]))
    rank = len(trail)
    return work[:, :rank], r_mat[:rank, :], np.array(trail, dtype=np.int64)


@pytest.mark.parametrize("n", [200, 1000])
def test_sketch_pivots_match_gram_schmidt_oracle(n):
    b, p = 64, 5
    for seed in range(3):
        y = gauss(700 + 10 * seed + n, b + p, n)
        q, r, trail = mgsp(y, max_steps=b)
        q_ref, r_ref, trail_ref = _mgsp_oracle(y, max_steps=b)
        assert np.array_equal(trail, trail_ref), (n, seed)
        assert np.array_equal(select_block_pivots(y, b), trail_ref), (n, seed)
        scale = frobenius_norm(y)
        assert frobenius_norm(r - r_ref) <= 1e-12 * scale
        assert frobenius_norm(q - q_ref) <= 1e-12


def test_sketch_pivots_of_rank_three_product_stop_at_rank_three():
    b, p, n = 64, 5, 200
    y = gauss(11, b + p, 3) @ gauss(12, 3, n)
    _, _, trail = mgsp(y, max_steps=b)
    _, _, trail_ref = _mgsp_oracle(y, max_steps=b)
    assert len(trail) == len(trail_ref) == 3
    assert np.array_equal(trail, trail_ref)
    padded = select_block_pivots(y, b)
    assert np.array_equal(padded[:3], trail_ref)
    assert np.array_equal(padded[3:], np.arange(3, b))


def test_mgsp_rejects_step_hook():
    with pytest.raises(ValueError):
        mgsp(gauss(13, 5, 4), step_hook=lambda k, work, weights: None)


def test_var1_diagonal_pivot_order():
    a = np.diag([1.0, 2.0, 3.0]).copy(order="F")
    f = hqrp_unb(a)
    perm = f.permutation()
    assert perm.tolist() == [2, 1, 0]
    assert np.abs(np.diag(f.r_matrix())) == pytest.approx([3.0, 2.0, 1.0])
    # brute force over all 3! column orders: the factorization's order gives
    # the lexicographically largest sequence of residual pivot norms
    orig = np.diag([1.0, 2.0, 3.0])

    def norm_sequence(order):
        work = orig[:, list(order)].copy()
        seq = []
        for k in range(3):
            nrm = np.linalg.norm(work[k:, k])
            seq.append(nrm)
            if nrm > 0:
                qcol = work[k:, k] / nrm
                work[k:, k + 1 :] -= np.outer(qcol, qcol @ work[k:, k + 1 :])
        return seq

    best = max(itertools.permutations(range(3)), key=norm_sequence)
    assert list(best) == perm.tolist() == [2, 1, 0]


def test_var1_zero_steps_is_noop():
    a = gauss(6, 5, 4)
    orig = a.copy()
    f = hqrp_unb(a, steps=0)
    assert np.array_equal(f.packed, orig)
    assert len(f.trail) == 0


def test_var1_random_quality():
    a = gauss(7, 40, 20)
    f = hqrp_unb(a.copy(order="F"))
    d = np.abs(np.diag(f.r_matrix()))
    assert np.all(d[:-1] >= d[1:] - 1e-15)
    assert reconstruction_error(a, f) <= 1e-12


def test_var1_pivot_greedy_against_recomputation():
    # at each step the chosen pivot has maximal true trailing norm
    a = gauss(8, 30, 24)
    chosen = []

    def hook(k, packed, weights):
        chosen.append((k, packed[k:, k] @ packed[k:, k]))

    f = hqrp_unb(a.copy(order="F"), step_hook=hook)
    perm = f.permutation()
    ap = a[:, perm]
    # replay: residual norms of all remaining columns after k steps
    from rrqr import form_q

    q = form_q(f, f.r)
    r = f.r_matrix()
    for k, _ in chosen:
        resid = ap - q[:, :k] @ r[:k, :]
        norms = np.einsum("ij,ij->j", resid, resid)
        assert norms[k] >= np.max(norms[k:]) * (1 - 1e-8)


def test_var1_weights_track_recomputed_norms():
    a = gauss(9, 60, 50)

    def hook(k, packed, weights):
        tail = packed[k + 1 :, k + 1 :]
        exact = np.einsum("ij,ij->j", tail, tail)
        for j, e in enumerate(exact):
            assert abs(weights.v[k + 1 + j] - e) <= 1e-8 * weights.v_orig[k + 1 + j] + 1e-300

    hqrp_unb(a.copy(order="F"), step_hook=hook)


def test_var3_single_column_panel_matches_var1():
    a = gauss(10, 12, 6)
    a1 = a.copy(order="F")
    f1 = hqrp_unb(a1, steps=1)
    a3 = a.copy(order="F")
    weights = compute_weights(a3)
    _, taus, trail, w = hqrp_panel_var3(a3, 1, weights)
    a3[1:, 1:] -= a3[1:, :1] @ w[:, 1:]
    assert trail[0] == f1.trail[0]
    assert np.allclose(a3, f1.packed, atol=1e-13 * frobenius_norm(a))


def test_var3_panel_plus_rank_update_matches_var1():
    a = gauss(11, 50, 50)
    f1 = hqrp_unb(a.copy(order="F"), steps=8)
    a3 = a.copy(order="F")
    weights = compute_weights(a3)
    _, taus, trail, w = hqrp_panel_var3(a3, 8, weights)
    a3[8:, 8:] -= a3[8:, :8] @ w[:, 8:]
    assert np.array_equal(trail, f1.trail)
    assert frobenius_norm(a3 - f1.packed) <= 1e-12 * frobenius_norm(a)
    assert np.allclose(taus, f1.taus, rtol=1e-12)


def test_var3_early_stop_matches_var1_prefix():
    a = gauss(12, 30, 20)
    f1 = hqrp_unb(a.copy(order="F"), steps=5)
    a3 = a.copy(order="F")
    weights = compute_weights(a3)
    _, taus, trail, _ = hqrp_panel_var3(a3, 5, weights)
    assert np.array_equal(trail, f1.trail[:5])
    # completed rows and columns agree; trailing block differs by design
    assert np.allclose(a3[:5, :], f1.packed[:5, :], atol=1e-12 * frobenius_norm(a))
    assert np.allclose(a3[:, :5], f1.packed[:, :5], atol=1e-12 * frobenius_norm(a))


def test_var3_rejects_weights_of_another_width():
    a = gauss(13, 10, 8)
    with pytest.raises(ValueError, match="window width"):
        hqrp_panel_var3(a, 4, compute_weights(a[:, 1:]))


def test_var3_panel_leaves_rows_above_its_window_untouched():
    a = gauss(15, 30, 20)
    above = a[:2, :].copy()
    _, _, trail, w = hqrp_panel_var3(a[2:, 2:], 6, compute_weights(a[2:, 2:]))
    assert np.array_equal(a[:2, :], above)
    assert np.any(trail != np.arange(6))  # the panel did pivot
    assert w.shape == (6, 18)


def test_blocked_single_panel_equals_var1():
    a = gauss(14, 20, 12)
    f1 = hqrp_unb(a.copy(order="F"))
    fb = hqrp_blk(a.copy(order="F"), 16)  # b >= n
    assert np.array_equal(f1.trail, fb.trail)
    assert frobenius_norm(f1.packed - fb.packed) <= 1e-11 * frobenius_norm(a)


@pytest.mark.parametrize("m,n,b", [(100, 80, 16), (60, 60, 8), (50, 70, 13)])
def test_blocked_matches_var1(m, n, b):
    a = gauss(m + n + b, m, n)
    f1 = hqrp_unb(a.copy(order="F"))
    fb = hqrp_blk(a.copy(order="F"), b)
    assert np.array_equal(f1.trail, fb.trail)
    assert frobenius_norm(f1.packed - fb.packed) <= 1e-11 * frobenius_norm(a)
    assert reconstruction_error(a, fb) <= 50 * max(m, n) * EPS
    assert orthogonality_error(fb) <= 50 * max(m, n) * EPS


def test_blocked_fast_decay_diagonal_ordering():
    from rrqr import Xoshiro256pp, gen_fast_decay

    a, _ = gen_fast_decay(200, Xoshiro256pp(15))
    f = hqrp_blk(a.copy(order="F"), 32)
    d = np.abs(np.diag(f.r_matrix()))
    assert np.all(d[:-1] >= d[1:] * (1 - 1e-12))



@pytest.mark.parametrize("steps", [2.5, -1, "2"])
def test_mgsp_rejects_bad_step_count(steps):
    with pytest.raises(ValueError, match="max_steps"):
        mgsp(gauss(15, 6, 5), max_steps=steps)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mgsp_and_sketch_pivots_reject_non_finite(bad):
    y = np.array([[bad, 1.0, 2.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="NaN or Inf"):
        mgsp(y)
    with pytest.raises(ValueError, match="NaN or Inf"):
        select_block_pivots(y, 2)


def test_mgsp_takes_any_integer_step_count_or_none():
    y = gauss(15, 6, 5)
    assert np.array_equal(mgsp(y, max_steps=np.int64(3))[2], mgsp(y, max_steps=3)[2])
    assert len(mgsp(y, max_steps=0)[2]) == 0
    assert len(mgsp(y, max_steps=None)[2]) == 5
